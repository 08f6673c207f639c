//! The GAN-OPC inference flow (paper Fig. 6): generator forward pass →
//! linear upscale → ILT refinement.

use crate::{field_to_tensor_into, tensor_to_field, GanOpcError, Generator};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::metrics::{DefectConfig, MaskMetrics};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::Tensor;
use ganopc_obs as obs;

/// Physical span of one clip frame, nm (the paper's 2048 nm × 2048 nm
/// layout frames) — the single place the flow's nm↔pixel scale is set.
pub const FRAME_NM: f64 = 2048.0;

/// Configuration of the end-to-end flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Network resolution (the paper pools 2048→256; we default lower so
    /// CPU experiments terminate).
    pub net_size: usize,
    /// Lithography evaluation resolution (a multiple of `net_size`).
    pub litho_size: usize,
    /// Channel width of the generator.
    pub base_channels: usize,
    /// Generator weight seed (ignored when weights are imported).
    pub seed: u64,
    /// ILT refinement settings (Fig. 6 right half).
    pub refinement: IltConfig,
    /// SOCS kernel count for the evaluation model.
    pub num_kernels: usize,
    /// Legal-correction halo around the target, nm: generator mask pixels
    /// farther than this from any target geometry are cleared before
    /// refinement. Production OPC constrains its correction region the same
    /// way; here it also guards the flow against generator artifacts in
    /// empty areas (which saturate the ILT sigmoid and refine very slowly).
    /// `None` disables the constraint.
    pub mask_halo_nm: Option<f64>,
}

impl FlowConfig {
    /// The scaled-reproduction default: 64-px network, 256-px lithography,
    /// mirroring the paper's 8× pooling ratio at a quarter of its absolute
    /// resolution.
    pub fn paper_scaled() -> Self {
        FlowConfig {
            net_size: 64,
            litho_size: 256,
            base_channels: 16,
            seed: 2018,
            refinement: IltConfig::refinement(),
            num_kernels: 24,
            mask_halo_nm: Some(150.0),
        }
    }

    /// Tiny configuration for tests and doc examples.
    pub fn fast() -> Self {
        FlowConfig {
            net_size: 32,
            litho_size: 64,
            base_channels: 4,
            seed: 7,
            refinement: IltConfig::fast(),
            num_kernels: 8,
            mask_halo_nm: Some(150.0),
        }
    }

    /// Pooling factor between the lithography frame and the network input.
    pub fn pool_factor(&self) -> usize {
        self.litho_size / self.net_size
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.net_size.is_power_of_two() || self.net_size < 8 {
            return Err(format!("net_size {} must be a power of two >= 8", self.net_size));
        }
        if !self.litho_size.is_power_of_two() || self.litho_size < self.net_size {
            return Err(format!(
                "litho_size {} must be a power of two >= net_size {}",
                self.litho_size, self.net_size
            ));
        }
        if !self.litho_size.is_multiple_of(self.net_size) {
            return Err("litho_size must be a multiple of net_size".into());
        }
        if let Some(h) = self.mask_halo_nm {
            if h.is_nan() || h <= 0.0 {
                return Err("mask_halo_nm must be positive".into());
            }
        }
        self.refinement.validate()
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::paper_scaled()
    }
}

/// Result of one flow invocation on a target clip.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Final (refined, binary) mask at lithography resolution.
    pub mask: Field,
    /// The raw generator output at lithography resolution (pre-refinement).
    pub generator_mask: Field,
    /// Binary wafer image of the final mask at nominal dose.
    pub wafer: Field,
    /// Squared L2 error of the final wafer vs target, nm².
    pub l2_nm2: f64,
    /// Full printability metrics of the final mask.
    pub metrics: MaskMetrics,
    /// Generator forward-pass time, seconds (the paper reports ≈ 0.2 s).
    pub generator_runtime_s: f64,
    /// ILT refinement time, seconds.
    pub refinement_runtime_s: f64,
    /// End-to-end runtime, seconds (the "RT" column of Table 2).
    pub total_runtime_s: f64,
    /// Refinement iterations used.
    pub refinement_iterations: usize,
}

/// The GAN-OPC flow of Fig. 6: `target → G → upsample → ILT refine`.
///
/// Owns a generator and an ILT engine built on a lithography model at
/// evaluation resolution.
pub struct GanOpcFlow {
    config: FlowConfig,
    generator: Generator,
    engine: IltEngine,
    // Persistent network I/O buffers: serving a mask reuses these across
    // calls, so the generator stage performs no steady-state allocation.
    net_input: Tensor,
    net_mask: Tensor,
}

impl GanOpcFlow {
    /// Builds the flow with a freshly initialized (untrained) generator —
    /// load trained weights with [`GanOpcFlow::generator_mut`] +
    /// [`Generator::import_params`].
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] for inconsistent sizes and propagates
    /// lithography model construction failures.
    pub fn new(config: FlowConfig) -> Result<Self, GanOpcError> {
        config.validate().map_err(GanOpcError::Config)?;
        let mut opt = OpticalConfig::default_32nm(FRAME_NM / config.litho_size as f64);
        opt.num_kernels = config.num_kernels;
        let model = LithoModel::new_cached(opt, config.litho_size, config.litho_size)?;
        let generator = Generator::new(config.net_size, config.base_channels, config.seed);
        let engine = IltEngine::new(model, config.refinement.clone());
        Ok(GanOpcFlow {
            config,
            generator,
            engine,
            net_input: Tensor::zeros(&[1]),
            net_mask: Tensor::zeros(&[1]),
        })
    }

    /// Builds the flow around an already-trained generator.
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] when the generator size disagrees
    /// with `config.net_size`.
    pub fn with_generator(config: FlowConfig, generator: Generator) -> Result<Self, GanOpcError> {
        if generator.size() != config.net_size {
            return Err(GanOpcError::Config(format!(
                "generator size {} != flow net_size {}",
                generator.size(),
                config.net_size
            )));
        }
        let mut flow = GanOpcFlow::new(config)?;
        flow.generator = generator;
        Ok(flow)
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Mutable access to the generator (weight loading).
    pub fn generator_mut(&mut self) -> &mut Generator {
        &mut self.generator
    }

    /// The lithography model used for evaluation.
    pub fn model(&self) -> &LithoModel {
        self.engine.model()
    }

    /// Runs the flow on a target clip at lithography resolution.
    ///
    /// Steps (Fig. 6): average-pool the target to network resolution, run
    /// the generator, bilinearly upsample the quasi-optimal mask back to
    /// lithography resolution ("simple linear interpolation", Section 4),
    /// then refine with ILT initialized from that mask.
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] when `target` is not
    /// `litho_size × litho_size`.
    pub fn optimize(&mut self, target: &Field) -> Result<FlowResult, GanOpcError> {
        let s = self.config.litho_size;
        if target.shape() != (s, s) {
            return Err(GanOpcError::Config(format!(
                "target shape {:?} != litho frame {s}x{s}",
                target.shape()
            )));
        }
        // The three runtime fields all come from obs spans, so the end-to-end
        // flow feeds the same histograms as every other subsystem and the
        // result struct needs no ad-hoc timers.
        let total_span = obs::span(obs::Span::FlowTotal);

        // Generator stage.
        let gen_span = obs::span(obs::Span::FlowGenerator);
        let factor = self.config.pool_factor();
        let pooled = if factor == 1 { target.clone() } else { target.avg_pool(factor) };
        field_to_tensor_into(&pooled, &mut self.net_input);
        self.generator.infer_into(&self.net_input, &mut self.net_mask);
        let mask_small_field = tensor_to_field(&self.net_mask, 0);
        let mut generator_mask =
            if factor == 1 { mask_small_field } else { mask_small_field.upsample_bilinear(factor) };
        if let Some(halo_nm) = self.config.mask_halo_nm {
            // Clear generator output outside the legal correction region.
            // The scale comes from the litho model itself, so the halo stays
            // correct if the model is ever built on a different frame.
            let px_nm = self.engine.model().pixel_nm();
            let radius = (halo_nm / px_nm).ceil() as usize;
            let legal = target.dilate_box(radius, 0.5);
            for (m, &l) in generator_mask.as_mut_slice().iter_mut().zip(legal.as_slice()) {
                *m *= l;
            }
        }
        // Feature-guarantee floor: every drawn feature must be present in
        // the refinement seed, else the resist sigmoid is saturated dark
        // there (Z ≈ 0 ⇒ Z(1−Z) ≈ 0 in Eq. (14)) and ILT cannot regrow a
        // feature the generator dropped.
        for (m, &t) in generator_mask.as_mut_slice().iter_mut().zip(target.as_slice()) {
            *m = m.max(0.6 * t);
        }
        let generator_runtime_s = gen_span.finish().as_secs_f64();

        // Guard rail: a non-finite generator output would feed NaN into
        // the refinement sigmoid and poison every iteration after it —
        // catch it here, where the responsible stage is still known.
        if generator_mask.as_slice().iter().any(|v| !v.is_finite()) {
            obs::counter_add(obs::Counter::IltGuardTrips, 1);
            return Err(GanOpcError::Config(
                "generator produced a non-finite mask; refusing to start ILT refinement".into(),
            ));
        }

        // ILT refinement stage.
        let refine_span = obs::span(obs::Span::FlowRefinement);
        let refined = self.engine.optimize_from(target, &generator_mask)?;
        let refinement_runtime_s = refine_span.finish().as_secs_f64();

        // The refinement already printed its mask at the three doses.
        let [inner, outer] = &refined.corner_wafers;
        let metrics = MaskMetrics::from_prints(
            [inner, &refined.wafer, outer],
            target,
            self.engine.model().pixel_nm(),
            &DefectConfig::default(),
        );
        Ok(FlowResult {
            l2_nm2: refined.binary_l2_nm2,
            mask: refined.mask,
            generator_mask,
            wafer: refined.wafer,
            metrics,
            generator_runtime_s,
            refinement_runtime_s,
            total_runtime_s: total_span.finish().as_secs_f64(),
            refinement_iterations: refined.iterations,
        })
    }
}

impl std::fmt::Debug for GanOpcFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GanOpcFlow").field("config", &self.config).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_target(s: usize) -> Field {
        let mut t = Field::zeros(s, s);
        let (a, b) = (s / 2 - 2, s / 2 + 2);
        for y in s / 4..3 * s / 4 {
            for x in a..b {
                t.set(y, x, 1.0);
            }
        }
        for y in a..b {
            for x in s / 4..3 * s / 4 {
                t.set(y, x, 1.0);
            }
        }
        t
    }

    #[test]
    fn flow_produces_valid_result() {
        let mut cfg = FlowConfig::fast();
        cfg.refinement.max_iterations = 8;
        let mut flow = GanOpcFlow::new(cfg).unwrap();
        let target = cross_target(64);
        let result = flow.optimize(&target).unwrap();
        assert_eq!(result.mask.shape(), (64, 64));
        assert_eq!(result.generator_mask.shape(), (64, 64));
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.l2_nm2.is_finite() && result.l2_nm2 >= 0.0);
        assert!(result.generator_runtime_s >= 0.0);
        assert!(result.total_runtime_s >= result.refinement_runtime_s);
        assert!(result.refinement_iterations > 0);
        assert_eq!(result.metrics.l2_nm2, result.l2_nm2);
        // The wafer and metrics come from the refinement's own dose prints;
        // imaging the mask again must reproduce both exactly.
        let model = flow.model();
        assert_eq!(result.wafer, model.print_nominal(&result.mask));
        let fresh = MaskMetrics::evaluate(model, &result.mask, &target, &DefectConfig::default());
        assert_eq!(result.metrics, fresh);
    }

    #[test]
    fn flow_rejects_wrong_target_size() {
        let mut flow = GanOpcFlow::new(FlowConfig::fast()).unwrap();
        assert!(matches!(flow.optimize(&Field::zeros(32, 32)), Err(GanOpcError::Config(_))));
    }

    #[test]
    fn config_validation() {
        assert!(FlowConfig::paper_scaled().validate().is_ok());
        assert!(FlowConfig::fast().validate().is_ok());
        let mut bad = FlowConfig::fast();
        bad.net_size = 48;
        assert!(bad.validate().is_err());
        let mut bad2 = FlowConfig::fast();
        bad2.litho_size = 16;
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn with_generator_checks_size() {
        let g = Generator::new(16, 4, 0);
        assert!(matches!(
            GanOpcFlow::with_generator(FlowConfig::fast(), g),
            Err(GanOpcError::Config(_))
        ));
    }

    #[test]
    fn pool_factor_computed() {
        assert_eq!(FlowConfig::fast().pool_factor(), 2);
        assert_eq!(FlowConfig::paper_scaled().pool_factor(), 4);
    }
}

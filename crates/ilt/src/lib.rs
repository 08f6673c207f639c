//! Inverse lithography technique (ILT) mask optimization.
//!
//! This crate implements the pixel-based, steepest-descent ILT solver the
//! GAN-OPC paper uses in three roles:
//!
//! 1. the **baseline** it compares against (the MOSAIC-style solver
//!    \[7 in the paper\], Table 2 column "ILT");
//! 2. the **refinement stage** of the GAN-OPC flow (Fig. 6): the generator's
//!    quasi-optimal mask is handed to ILT for a few final iterations;
//! 3. the **gradient source** of ILT-guided generator pre-training
//!    (Algorithm 2).
//!
//! # Formulation (paper Eq. (11)–(14))
//!
//! The mask is parametrized by an unconstrained field `P` through the
//! translated sigmoid `M_b = σ(β·P)` (Eq. (13)); the relaxed wafer image is
//! `Z = σ(α(I − I_th))` (Eq. (12)); steepest descent minimizes
//! `E = ‖Z_t − Z‖²` (Eq. (11)) using the analytic gradient of Eq. (14)
//! (provided by [`ganopc_litho::LithoModel::gradient`], chained here with
//! the mask-sigmoid derivative `β·M_b(1−M_b)`).
//!
//! # Example
//!
//! ```
//! use ganopc_ilt::{IltConfig, IltEngine};
//! use ganopc_litho::{Field, LithoModel};
//!
//! # fn main() -> Result<(), ganopc_ilt::IltError> {
//! let model = LithoModel::iccad2013_like(64)?;
//! let mut target = Field::zeros(64, 64);
//! for y in 20..44 {
//!     for x in 29..35 {
//!         target.set(y, x, 1.0);
//!     }
//! }
//! let mut engine = IltEngine::new(model, IltConfig::fast());
//! let result = engine.optimize(&target)?;
//! assert!(result.l2_history.last().unwrap() <= result.l2_history.first().unwrap());
//! # Ok(())
//! # }
//! ```

use ganopc_fault as fault;
use ganopc_litho::{Field, LithoModel};
use ganopc_obs as obs;
use std::error::Error;
use std::fmt;

/// Errors from ILT optimization.
#[derive(Debug)]
pub enum IltError {
    /// Propagated lithography-model failure.
    Litho(ganopc_litho::LithoError),
    /// Target/initial-mask shape differs from the engine's model frame.
    ShapeMismatch {
        /// Expected `(height, width)`.
        expected: (usize, usize),
        /// Received `(height, width)`.
        actual: (usize, usize),
    },
    /// The descent error went NaN/∞ — the guard rail aborted the run
    /// instead of propagating non-finite values through the best-mask
    /// tracking.
    NonFinite {
        /// 1-based iteration at which the error left the finite domain.
        iteration: usize,
    },
}

impl fmt::Display for IltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IltError::Litho(e) => write!(f, "lithography failure: {e}"),
            IltError::ShapeMismatch { expected, actual } => write!(
                f,
                "field shape {}x{} does not match model frame {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            IltError::NonFinite { iteration } => {
                write!(f, "ILT error became non-finite at iteration {iteration}")
            }
        }
    }
}

impl Error for IltError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IltError::Litho(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ganopc_litho::LithoError> for IltError {
    fn from(e: ganopc_litho::LithoError) -> Self {
        IltError::Litho(e)
    }
}

/// ILT solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IltConfig {
    /// Maximum steepest-descent iterations.
    pub max_iterations: usize,
    /// Step size applied to the max-normalized gradient.
    pub step_size: f32,
    /// Mask-sigmoid steepness β of Eq. (13).
    pub beta: f32,
    /// Stop when the relative error improvement over `patience` iterations
    /// falls below this value.
    pub tolerance: f64,
    /// Window (iterations) for the convergence test.
    pub patience: usize,
    /// Average gradients over the ±2 % dose corners as well as nominal
    /// (process-window-aware descent, as MOSAIC does). Slower but yields a
    /// tighter PV band.
    pub process_window_aware: bool,
    /// Heavy-ball momentum on the parametrization updates (0 disables).
    /// Accelerates the long low-curvature valleys typical of litho error
    /// landscapes.
    pub momentum: f32,
}

impl IltConfig {
    /// Full-strength baseline solver (Table 2 "ILT" column). Plain
    /// steepest descent, as in the paper's references; enable
    /// [`IltConfig::momentum`] for the accelerated variant (it drives the
    /// scaled benchmark's L2 near zero, which makes Table 2 ratios
    /// noise-dominated — see EXPERIMENTS.md).
    pub fn mosaic() -> Self {
        IltConfig {
            max_iterations: 320,
            step_size: 0.6,
            beta: 4.0,
            momentum: 0.0,
            tolerance: 1e-4,
            patience: 12,
            process_window_aware: true,
        }
    }

    /// Refinement stage of the GAN-OPC flow (Fig. 6): the starting point is
    /// already close, so fewer iterations, nominal dose only.
    pub fn refinement() -> Self {
        IltConfig {
            max_iterations: 100,
            step_size: 0.6,
            beta: 4.0,
            momentum: 0.0,
            tolerance: 1e-4,
            patience: 8,
            process_window_aware: false,
        }
    }

    /// Cheap setting for unit tests and examples.
    pub fn fast() -> Self {
        IltConfig {
            max_iterations: 24,
            step_size: 0.6,
            beta: 4.0,
            momentum: 0.0,
            tolerance: 1e-5,
            patience: 24,
            process_window_aware: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations == 0 {
            return Err("max_iterations must be positive".into());
        }
        if self.step_size <= 0.0 {
            return Err("step_size must be positive".into());
        }
        if self.beta <= 0.0 {
            return Err("beta must be positive".into());
        }
        if self.patience == 0 {
            return Err("patience must be positive".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(format!("momentum {} out of [0,1)", self.momentum));
        }
        Ok(())
    }
}

impl Default for IltConfig {
    fn default() -> Self {
        IltConfig::mosaic()
    }
}

/// Outcome of one ILT run.
#[derive(Debug, Clone)]
pub struct IltResult {
    /// Final binarized mask.
    pub mask: Field,
    /// Final relaxed mask `M_b` (pre-binarization).
    pub mask_relaxed: Field,
    /// Binary wafer image of the final mask at nominal dose.
    pub wafer: Field,
    /// Relaxed lithography error `E` per iteration (Eq. (11)).
    pub l2_history: Vec<f64>,
    /// Squared L2 of the final *binary* wafer vs target, nm².
    pub binary_l2_nm2: f64,
    /// Iterations actually run.
    pub iterations: usize,
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
}

/// A steepest-descent ILT engine bound to one lithography model.
#[derive(Debug)]
pub struct IltEngine {
    model: LithoModel,
    config: IltConfig,
}

impl IltEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`IltConfig::validate`].
    pub fn new(model: LithoModel, config: IltConfig) -> Self {
        // PANIC: documented above — misconfiguration is a programming error
        // at construction, not a runtime condition to recover from.
        config.validate().expect("invalid ILT configuration");
        IltEngine { model, config }
    }

    /// The lithography model.
    pub fn model(&self) -> &LithoModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &IltConfig {
        &self.config
    }

    /// Optimizes a mask for `target`, initializing from the target itself —
    /// the conventional full ILT flow (paper Fig. 1).
    ///
    /// # Errors
    ///
    /// Returns [`IltError::ShapeMismatch`] on frame disagreement.
    pub fn optimize(&mut self, target: &Field) -> Result<IltResult, IltError> {
        self.optimize_from(target, target)
    }

    /// Optimizes starting from `initial_mask` — the GAN-OPC refinement stage
    /// (Fig. 6), where `initial_mask` is the generator output.
    ///
    /// # Errors
    ///
    /// Returns [`IltError::ShapeMismatch`] on frame disagreement.
    pub fn optimize_from(
        &mut self,
        target: &Field,
        initial_mask: &Field,
    ) -> Result<IltResult, IltError> {
        let frame = self.model.shape();
        for f in [target, initial_mask] {
            if f.shape() != frame {
                return Err(IltError::ShapeMismatch { expected: frame, actual: f.shape() });
            }
        }
        // The run span both feeds the ilt_optimize histogram and supplies
        // the result's runtime field; per-iteration spans and the loss/EPE
        // traces are recorded inside the loop below.
        let run_span = obs::span(obs::Span::IltOptimize);
        obs::counter_add(obs::Counter::IltRuns, 1);
        let (h, w) = frame;
        let beta = self.config.beta;
        // Unconstrained parametrization: P = logit(m)/β with m clamped away
        // from {0,1} so the sigmoid stays responsive.
        let mut p = Field::from_vec(
            h,
            w,
            initial_mask
                .as_slice()
                .iter()
                .map(|&m| {
                    let mc = m.clamp(0.1, 0.9);
                    (mc / (1.0 - mc)).ln() / beta
                })
                .collect(),
        );

        let doses: &[f32] =
            if self.config.process_window_aware { &[0.98, 1.0, 1.02] } else { &[1.0] };

        let mut history = Vec::with_capacity(self.config.max_iterations);
        let mut best_p = p.clone();
        let mut best_err = f64::INFINITY;
        let mut velocity = vec![0.0f32; h * w];
        let mut since_best = 0usize;
        // Iteration-loop buffers, hoisted so the descent loop allocates
        // nothing: the relaxed mask, the dose-accumulated gradient and the
        // per-dose gradient written by the allocation-free litho entry point.
        let mut m_b = Field::zeros(h, w);
        let mut grad = vec![0.0f32; h * w];
        let mut dose_grad = vec![0.0f32; h * w];
        let mu = self.config.momentum;
        let mut iterations = 0usize;
        // EPE-trace scratch (binary mask, aerial intensity, wafer) exists
        // only when the trace is enabled — the default (stride 0) costs the
        // descent loop nothing.
        let epe_stride = obs::epe_trace_stride();
        let mut epe_scratch = if epe_stride > 0 {
            // ALLOC: opt-in diagnostics scratch, hoisted outside the loop.
            Some((Field::zeros(h, w), vec![0.0f32; h * w], Field::zeros(h, w)))
        } else {
            None
        };
        for iter in 0..self.config.max_iterations {
            let _iter_span = obs::span(obs::Span::IltIteration);
            obs::counter_add(obs::Counter::IltIterations, 1);
            iterations = iter + 1;
            // Relaxed mask from the parametrization (Eq. (13)).
            for (mb, &pv) in m_b.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *mb = 1.0 / (1.0 + (-beta * pv).exp());
            }
            // Accumulate gradient and error over the dose corners.
            grad.fill(0.0);
            let mut err = 0.0f64;
            for &dose in doses {
                err += self.model.gradient_into(&m_b, target, dose, &mut dose_grad)?;
                for (g, &r) in grad.iter_mut().zip(&dose_grad) {
                    *g += r;
                }
            }
            err /= doses.len() as f64;
            // Fault sink: armed builds may poison this iteration's error
            // with NaN/∞ to exercise the guard rail below (constant None
            // when the `fault-inject` feature is off).
            if let Some(poison) = fault::numeric_fault(fault::Domain::Ilt, iterations as u64) {
                obs::counter_add(obs::Counter::FaultsInjected, 1);
                err = poison.as_f64();
            }
            // Guard rail: a non-finite error means the descent left the
            // representable domain — abort typed rather than let NaN flow
            // through the history and best-mask comparisons (every NaN
            // compare is false, so `best_p` would silently freeze).
            if !err.is_finite() {
                obs::counter_add(obs::Counter::IltGuardTrips, 1);
                return Err(IltError::NonFinite { iteration: iterations });
            }
            history.push(err);
            obs::trace_push(obs::Trace::IltLoss, err);
            if let Some((bin_mask, aerial, wafer)) = epe_scratch.as_mut() {
                if iter % epe_stride == 0 {
                    // Print the binarized current mask and count EPE
                    // violations — the convergence signal Fig. 5 plots.
                    for (b, &mb) in bin_mask.as_mut_slice().iter_mut().zip(m_b.as_slice()) {
                        *b = f32::from(mb >= 0.5);
                    }
                    self.model.aerial_image_into(bin_mask, aerial.as_mut_slice())?;
                    let th = self.model.threshold();
                    for (wv, &iv) in wafer.as_mut_slice().iter_mut().zip(aerial.iter()) {
                        *wv = f32::from(iv >= th);
                    }
                    let (violations, _) = ganopc_litho::metrics::epe_violations(
                        wafer,
                        target,
                        self.model.pixel_nm(),
                        &ganopc_litho::metrics::DefectConfig::default(),
                    );
                    obs::trace_push(obs::Trace::IltEpe, violations as f64);
                }
            }
            if err < best_err {
                best_err = err;
                best_p = p.clone();
                since_best = 0;
            } else {
                since_best += 1;
                // Guard rail: the relative-improvement test below can be
                // kept alive indefinitely by an oscillating error; if the
                // *best* error has not moved for several patience windows
                // the run is stuck — bail out with the best mask found.
                if since_best >= self.config.patience.saturating_mul(4).max(8) {
                    obs::counter_add(obs::Counter::IltGuardTrips, 1);
                    break;
                }
            }
            // Chain through the mask sigmoid: ∂E/∂P = ∂E/∂M_b · β·M_b(1−M_b),
            // then take a max-normalized step (scale-free descent).
            let mut gmax = 0.0f32;
            for (g, &mb) in grad.iter_mut().zip(m_b.as_slice()) {
                *g *= beta * mb * (1.0 - mb);
                gmax = gmax.max(g.abs());
            }
            if gmax <= f32::EPSILON {
                break;
            }
            let step = self.config.step_size / gmax;
            for ((pv, g), v) in p.as_mut_slice().iter_mut().zip(&grad).zip(velocity.iter_mut()) {
                *v = mu * *v - step * g;
                *pv += *v;
            }
            // Convergence: relative improvement over the patience window.
            if history.len() > self.config.patience {
                let past = history[history.len() - 1 - self.config.patience];
                let rel = (past - err) / past.max(1e-12);
                if rel < self.config.tolerance {
                    break;
                }
            }
        }

        // Binarize the best parametrization and evaluate it for real.
        let mask_relaxed = best_p.map(|v| 1.0 / (1.0 + (-beta * v).exp()));
        let mask = mask_relaxed.binarize(0.5);
        let wafer = self.model.print_nominal(&mask);
        let binary_l2_nm2 =
            ganopc_litho::metrics::squared_l2_nm2(&wafer, target, self.model.pixel_nm());
        Ok(IltResult {
            mask,
            mask_relaxed,
            wafer,
            l2_history: history,
            binary_l2_nm2,
            iterations,
            runtime_s: run_span.finish().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_litho::metrics::squared_l2_nm2;
    use ganopc_litho::OpticalConfig;

    fn small_model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(32.0); // 64 px == 2048 nm
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        LithoModel::new(cfg, 64, 64).unwrap()
    }

    fn cross_target() -> Field {
        let mut t = Field::zeros(64, 64);
        for y in 16..48 {
            for x in 30..34 {
                t.set(y, x, 1.0);
            }
        }
        for y in 30..34 {
            for x in 16..48 {
                t.set(y, x, 1.0);
            }
        }
        t
    }

    #[test]
    fn optimization_reduces_relaxed_error() {
        let mut engine = IltEngine::new(small_model(), IltConfig::fast());
        let target = cross_target();
        let result = engine.optimize(&target).unwrap();
        assert!(result.iterations > 1);
        let first = result.l2_history.first().unwrap();
        let last = result.l2_history.last().unwrap();
        assert!(last < first, "no progress: {first} -> {last}");
        assert!(result.runtime_s > 0.0);
    }

    #[test]
    fn optimized_mask_beats_no_opc() {
        let model = small_model();
        let target = cross_target();
        let px = model.pixel_nm();
        // Baseline: use the target as the mask directly.
        let no_opc_wafer = model.print_nominal(&target.binarize(0.5));
        let no_opc_l2 = squared_l2_nm2(&no_opc_wafer, &target, px);

        let mut cfg = IltConfig::fast();
        cfg.max_iterations = 60;
        let mut engine = IltEngine::new(model, cfg);
        let result = engine.optimize(&target).unwrap();
        assert!(
            result.binary_l2_nm2 < no_opc_l2,
            "ILT {} should beat no-OPC {}",
            result.binary_l2_nm2,
            no_opc_l2
        );
    }

    #[test]
    fn refinement_from_good_start_converges_immediately() {
        let mut engine = IltEngine::new(small_model(), IltConfig::fast());
        let target = cross_target();
        let full = engine.optimize(&target).unwrap();
        // Restart from the converged relaxed mask: error must start near the
        // converged level, far below a cold start.
        let refined = engine.optimize_from(&target, &full.mask_relaxed).unwrap();
        let cold_start = full.l2_history[0];
        let warm_start = refined.l2_history[0];
        assert!(
            warm_start < cold_start,
            "warm start {warm_start} not better than cold start {cold_start}"
        );
        assert!(refined.binary_l2_nm2 <= full.binary_l2_nm2 * 1.5);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut engine = IltEngine::new(small_model(), IltConfig::fast());
        let bad = Field::zeros(32, 32);
        assert!(matches!(engine.optimize(&bad), Err(IltError::ShapeMismatch { .. })));
    }

    #[test]
    fn process_window_aware_runs_and_tracks_corners() {
        let mut cfg = IltConfig::fast();
        cfg.process_window_aware = true;
        cfg.max_iterations = 6;
        let mut engine = IltEngine::new(small_model(), cfg);
        let target = cross_target();
        let result = engine.optimize(&target).unwrap();
        assert_eq!(result.l2_history.len(), result.iterations);
    }

    #[test]
    fn mask_is_binary() {
        let mut engine = IltEngine::new(small_model(), IltConfig::fast());
        let result = engine.optimize(&cross_target()).unwrap();
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.mask_relaxed.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let target = cross_target();
        let run = |mu: f32| {
            let mut cfg = IltConfig::fast();
            cfg.max_iterations = 15;
            cfg.momentum = mu;
            let mut engine = IltEngine::new(small_model(), cfg);
            *engine.optimize(&target).unwrap().l2_history.last().unwrap()
        };
        let plain = run(0.0);
        let heavy = run(0.6);
        assert!(heavy < plain * 1.05, "momentum should not hurt materially: {heavy} vs {plain}");
    }

    #[test]
    fn config_presets_validate() {
        for cfg in [IltConfig::mosaic(), IltConfig::refinement(), IltConfig::fast()] {
            assert!(cfg.validate().is_ok());
        }
        let mut bad = IltConfig::fast();
        bad.step_size = 0.0;
        assert!(bad.validate().is_err());
        let mut bad2 = IltConfig::fast();
        bad2.momentum = 1.0;
        assert!(bad2.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid ILT configuration")]
    fn engine_rejects_invalid_config() {
        let mut bad = IltConfig::fast();
        bad.max_iterations = 0;
        let _ = IltEngine::new(small_model(), bad);
    }
}

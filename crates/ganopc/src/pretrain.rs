//! Algorithm 2 — ILT-guided generator pre-training.
//!
//! Instead of regressing the generator toward ground-truth masks, the
//! pre-training phase wires the lithography simulator *into* the
//! backpropagation graph: for each generated mask `M = G(Z_t)` the wafer
//! error `E = ‖Z − Z_t‖²` (Eq. (11)) is evaluated and its gradient
//! `∂E/∂M` (Eq. (14)) is back-propagated through the generator
//! (`∂E/∂M · ∂M/∂W_g`, Algorithm 2 line 8). This gives the generator
//! "step-by-step guidance" toward lithography-aware masks before
//! adversarial training starts, which the paper shows stabilizes GAN
//! convergence (Fig. 7).

use crate::dataset::EpochStream;
use crate::{GanOpcError, Generator, OpcDataset};
use ganopc_fault as fault;
use ganopc_litho::{Field, LithoModel};
use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::optim::Sgd;
use ganopc_nn::{pool, Tensor};
use ganopc_obs as obs;
use std::path::Path;

/// Hyper-parameters of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainConfig {
    /// Pre-training steps (mini-batches).
    pub iterations: usize,
    /// Mini-batch size `m`.
    pub batch_size: usize,
    /// Learning rate λ.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl PretrainConfig {
    /// Scaled-reproduction default.
    pub fn paper_scaled() -> Self {
        PretrainConfig { iterations: 150, batch_size: 4, lr: 0.01, momentum: 0.5, seed: 4242 }
    }

    /// Tiny test configuration.
    pub fn fast() -> Self {
        PretrainConfig { iterations: 4, batch_size: 2, lr: 0.01, momentum: 0.0, seed: 13 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        if self.lr <= 0.0 {
            return Err("learning rate must be positive".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must lie in [0, 1)".into());
        }
        Ok(())
    }

    fn put_into(&self, ck: &mut Checkpoint) {
        ck.put_u64("config/iterations", self.iterations as u64);
        ck.put_u64("config/batch_size", self.batch_size as u64);
        ck.put_f64("config/lr", self.lr as f64);
        ck.put_f64("config/momentum", self.momentum as f64);
        ck.put_u64("config/seed", self.seed);
    }

    fn read_from(ck: &Checkpoint) -> Result<Self, GanOpcError> {
        let config = PretrainConfig {
            iterations: ck.get_u64("config/iterations")? as usize,
            batch_size: ck.get_u64("config/batch_size")? as usize,
            lr: ck.get_f64("config/lr")? as f32,
            momentum: ck.get_f64("config/momentum")? as f32,
            seed: ck.get_u64("config/seed")?,
        };
        config.validate().map_err(GanOpcError::Config)?;
        Ok(config)
    }
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig::paper_scaled()
    }
}

/// Per-step pre-training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainStats {
    /// Step index.
    pub step: usize,
    /// Mean lithography error `E` over the mini-batch (Eq. (11)).
    pub litho_error: f64,
}

/// Runs Algorithm 2: pre-trains `generator` on the targets of `dataset`
/// by descending the lithography error through the litho model.
///
/// The litho `model` must share the dataset resolution. Returns per-step
/// statistics.
///
/// # Errors
///
/// Returns [`GanOpcError::Config`] on resolution mismatches and propagates
/// lithography failures.
pub fn pretrain_generator(
    generator: &mut Generator,
    model: &LithoModel,
    dataset: &OpcDataset,
    config: &PretrainConfig,
) -> Result<Vec<PretrainStats>, GanOpcError> {
    config.validate().map_err(GanOpcError::Config)?;
    check_shapes(generator, model, dataset)?;
    let mut opt = Sgd::new(config.lr, config.momentum);
    let mut stream = dataset.epoch_stream(config.seed);
    let mut step = 0usize;
    run_steps(
        generator,
        &mut opt,
        model,
        dataset,
        config,
        &mut stream,
        &mut StepBuffers::new(),
        &mut step,
        config.iterations,
    )
}

/// The buffers one Algorithm 2 step writes: the mini-batch indices and
/// targets, the generated masks and their litho fields, the batch gradient
/// and the per-sample error slots. Sized by the first step and reused, so a
/// warm step performs no heap allocation.
struct StepBuffers {
    indices: Vec<usize>,
    targets: Tensor,
    masks: Tensor,
    fields: Vec<Field>,
    grad: Tensor,
    errors: Vec<Result<f64, GanOpcError>>,
}

impl StepBuffers {
    fn new() -> Self {
        StepBuffers {
            indices: Vec::new(),
            targets: Tensor::zeros(&[1]),
            masks: Tensor::zeros(&[1]),
            fields: Vec::new(),
            grad: Tensor::zeros(&[1]),
            errors: Vec::new(),
        }
    }
}

fn check_shapes(
    generator: &Generator,
    model: &LithoModel,
    dataset: &OpcDataset,
) -> Result<(), GanOpcError> {
    if model.shape() != (dataset.size(), dataset.size()) {
        return Err(GanOpcError::Config(format!(
            "litho frame {:?} does not match dataset size {}",
            model.shape(),
            dataset.size()
        )));
    }
    if generator.size() != dataset.size() {
        return Err(GanOpcError::Config(format!(
            "generator size {} does not match dataset size {}",
            generator.size(),
            dataset.size()
        )));
    }
    Ok(())
}

/// The Algorithm 2 inner loop, shared by the one-shot entry point and the
/// resumable [`Pretrainer`]: advances `step` and `stream` in place so the
/// caller's position always reflects the batches actually consumed.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    generator: &mut Generator,
    opt: &mut Sgd,
    model: &LithoModel,
    dataset: &OpcDataset,
    config: &PretrainConfig,
    stream: &mut EpochStream,
    bufs: &mut StepBuffers,
    step: &mut usize,
    steps: usize,
) -> Result<Vec<PretrainStats>, GanOpcError> {
    let mut stats = Vec::with_capacity(steps);
    let StepBuffers { indices, targets, masks, fields, grad, errors } = bufs;
    let size = dataset.size();
    let plane = size * size;
    for _ in 0..steps {
        let _step_span = obs::span(obs::Span::PretrainStep);
        obs::counter_add(obs::Counter::PretrainSteps, 1);
        stream.next_batch_into(dataset, config.batch_size, indices);
        dataset.targets_into(indices, targets);
        // Line 5: M ← G(Z_t).
        generator.forward_into(targets, masks, true);
        // Lines 6–8: litho-simulate each mask, collect ∂E/∂M. Samples are
        // independent, so they fan out over the shared worker crew; each
        // chunk writes its samples' slices of the batch gradient and error
        // buffer, and the batch error is reduced in sample order below so
        // the result is identical for any `GANOPC_THREADS` setting.
        let batch = indices.len();
        grad.resize(masks.shape());
        fields.resize_with(batch, || Field::zeros(size, size));
        for (field, mask) in fields.iter_mut().zip(masks.as_slice().chunks_exact(plane)) {
            field.as_mut_slice().copy_from_slice(mask);
        }
        errors.clear();
        errors.resize_with(batch, || Ok(0.0));
        let gview = pool::DisjointMut::new(&mut grad.as_mut_slice()[..batch * plane]);
        let eview = pool::DisjointMut::new(&mut errors[..batch]);
        let (fields_ref, indices_ref) = (&*fields, &*indices);
        // This fan-out is the litho phase of pretraining: one adjoint
        // gradient simulation per sample, across the worker crew.
        let litho_span = obs::span(obs::Span::PretrainLitho);
        pool::run_chunks(batch, |samples| {
            for bi in samples {
                let di = indices_ref[bi];
                // SAFETY: run_chunks sample ranges partition 0..batch, so
                // each `bi` (and hence each gradient plane and error slot)
                // is visited by exactly one chunk.
                let gslice = unsafe { gview.slice_mut(bi * plane..(bi + 1) * plane) };
                // The allocation-free entry point zeroes this sample's slice
                // of the batch gradient and writes ∂E/∂M straight into it;
                // the aerial and wafer images it would otherwise build are
                // never needed here.
                let err = model
                    .gradient_into(&fields_ref[bi], &dataset.targets()[di], 1.0, gslice)
                    .map_err(GanOpcError::from);
                // SAFETY: as above — sample ranges are disjoint.
                *unsafe { eview.index_mut(bi) } = err;
            }
        });
        drop(litho_span);
        let mut err_total = 0.0f64;
        for err in errors.iter_mut() {
            err_total += std::mem::replace(err, Ok(0.0))?;
        }
        // Line 10: W_g ← W_g − (λ/m)·ΔW_g, with the 1/m scale applied in
        // place and the unused input gradient skipped entirely.
        generator.zero_grads();
        grad.scale_assign(1.0 / batch as f32);
        generator.backward_discard(grad);
        opt.step(generator.net_mut());
        *step += 1;
        let mut litho_error = err_total / batch as f64;
        // Fault sink: armed builds may poison this step's reported litho
        // error with NaN/∞ (constant None when `fault-inject` is off).
        if let Some(poison) = fault::numeric_fault(fault::Domain::Pretrain, *step as u64) {
            obs::counter_add(obs::Counter::FaultsInjected, 1);
            litho_error = poison.as_f64();
        }
        // Guard rail: ILT-guided pretraining descends on the litho error
        // directly, so a non-finite batch error means the gradients it
        // just applied are suspect — abort typed instead of training on.
        if !litho_error.is_finite() {
            obs::counter_add(obs::Counter::IltGuardTrips, 1);
            return Err(GanOpcError::Divergence(crate::supervisor::DivergenceError {
                step: *step,
                retries: 0,
                reason: crate::supervisor::DivergenceReason::NonFiniteLoss,
            }));
        }
        stats.push(PretrainStats { step: *step, litho_error });
    }
    Ok(stats)
}

/// Format tag stored under `meta/kind` in pre-trainer checkpoints.
const PRETRAINER_KIND: &[u8] = b"gan-opc/pretrainer";

/// A crash-safe, resumable Algorithm 2 run.
///
/// Owns the generator and its optimizer so that
/// [`Pretrainer::save_checkpoint`] can persist everything a pre-training
/// run accumulates — weights, batch-norm statistics, SGD velocity, step
/// counter, and shuffle-stream position — and [`Pretrainer::resume`]
/// continues bit-identically to an uninterrupted run.
pub struct Pretrainer {
    generator: Generator,
    opt: Sgd,
    config: PretrainConfig,
    step: usize,
    epoch: u64,
    cursor: usize,
    /// The shuffle stream and step buffers, kept warm across
    /// [`Pretrainer::train_for`] calls; rebuilt from `(epoch, cursor)`,
    /// never persisted.
    stream: Option<EpochStream>,
    bufs: StepBuffers,
}

impl Pretrainer {
    /// Wraps a generator for resumable pre-training.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PretrainConfig::validate`].
    pub fn new(generator: Generator, config: PretrainConfig) -> Self {
        // PANIC: documented above — misconfiguration is a programming error
        // at construction, not a runtime condition to recover from.
        config.validate().expect("invalid pre-training configuration");
        let opt = Sgd::new(config.lr, config.momentum);
        let (stream, bufs) = (None, StepBuffers::new());
        Pretrainer { generator, opt, config, step: 0, epoch: 0, cursor: 0, stream, bufs }
    }

    /// Steps completed so far (across save/resume cycles).
    pub fn step(&self) -> usize {
        self.step
    }

    /// The configuration being run.
    pub fn config(&self) -> &PretrainConfig {
        &self.config
    }

    /// The generator being pre-trained.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Mutable access to the generator (e.g. for evaluation between runs).
    pub fn generator_mut(&mut self) -> &mut Generator {
        &mut self.generator
    }

    /// Consumes the pre-trainer, returning the generator for the
    /// adversarial phase.
    pub fn into_generator(self) -> Generator {
        self.generator
    }

    /// Trains until `config.iterations` total steps have run (a fresh
    /// pre-trainer runs all of them; a resumed one only the remainder).
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] on resolution mismatches and
    /// propagates lithography failures.
    pub fn train(
        &mut self,
        model: &LithoModel,
        dataset: &OpcDataset,
    ) -> Result<Vec<PretrainStats>, GanOpcError> {
        let remaining = self.config.iterations.saturating_sub(self.step);
        self.train_for(model, dataset, remaining)
    }

    /// Runs exactly `steps` further pre-training steps.
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Config`] on resolution mismatches and
    /// propagates lithography failures.
    pub fn train_for(
        &mut self,
        model: &LithoModel,
        dataset: &OpcDataset,
        steps: usize,
    ) -> Result<Vec<PretrainStats>, GanOpcError> {
        check_shapes(&self.generator, model, dataset)?;
        let stream = match &mut self.stream {
            Some(stream) => {
                stream.seek(dataset, self.epoch, self.cursor);
                stream
            }
            empty => empty.insert(EpochStream::at_position(
                dataset,
                self.config.seed,
                self.epoch,
                self.cursor,
            )),
        };
        let result = run_steps(
            &mut self.generator,
            &mut self.opt,
            model,
            dataset,
            &self.config,
            stream,
            &mut self.bufs,
            &mut self.step,
            steps,
        );
        (self.epoch, self.cursor) = stream.position();
        result
    }

    /// Serializes the complete pre-training state into a v2 [`Checkpoint`].
    pub fn to_checkpoint(&mut self) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_bytes("meta/kind", PRETRAINER_KIND.to_vec());
        self.config.put_into(&mut ck);
        ck.put_u64("arch/size", self.generator.size() as u64);
        ck.put_u64("arch/g_base", self.generator.base_channels() as u64);
        ck.put_tensors("g/params", &self.generator.export_params());
        ck.put_tensors("opt/velocity", &self.opt.export_state());
        ck.put_u64("progress/step", self.step as u64);
        ck.put_u64("progress/epoch", self.epoch);
        ck.put_u64("progress/cursor", self.cursor as u64);
        ck
    }

    /// Reconstructs a pre-trainer from a checkpoint produced by
    /// [`Pretrainer::to_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Checkpoint`] for missing/mistyped sections
    /// and [`GanOpcError::Config`] for inconsistent architecture or
    /// optimizer state.
    pub fn from_checkpoint(mut ck: Checkpoint) -> Result<Self, GanOpcError> {
        match ck.get_bytes("meta/kind") {
            Ok(kind) if kind == PRETRAINER_KIND => {}
            Ok(kind) => {
                return Err(GanOpcError::Config(format!(
                    "checkpoint holds '{}', not a pre-trainer state",
                    String::from_utf8_lossy(kind)
                )))
            }
            Err(e) => return Err(e.into()),
        }
        let config = PretrainConfig::read_from(&ck)?;
        let size = ck.get_u64("arch/size")? as usize;
        let g_base = ck.get_u64("arch/g_base")? as usize;
        if !(8..=8192).contains(&size) || !size.is_power_of_two() || !(1..=1024).contains(&g_base) {
            return Err(GanOpcError::Config(format!(
                "implausible checkpoint architecture: size {size}, base {g_base}"
            )));
        }
        let mut generator = Generator::new(size, g_base, 0);
        generator.import_params(&ck.take_tensors("g/params")?)?;
        let mut opt = Sgd::new(config.lr, config.momentum);
        let velocity = ck.take_tensors("opt/velocity")?;
        crate::train::check_velocity(generator.net_mut(), &velocity, "pre-training")?;
        opt.import_state(velocity);
        let step = ck.get_u64("progress/step")? as usize;
        let epoch = ck.get_u64("progress/epoch")?;
        let cursor = ck.get_u64("progress/cursor")? as usize;
        let (stream, bufs) = (None, StepBuffers::new());
        Ok(Pretrainer { generator, opt, config, step, epoch, cursor, stream, bufs })
    }

    /// Atomically writes the complete pre-training state to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_checkpoint<P: AsRef<Path>>(&mut self, path: P) -> Result<(), GanOpcError> {
        self.to_checkpoint().save(path)?;
        Ok(())
    }

    /// Reconstructs a pre-trainer from a checkpoint file written by
    /// [`Pretrainer::save_checkpoint`]; [`Pretrainer::train`] then
    /// continues exactly where the saved run stopped.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format failures; corrupt or truncated files
    /// surface as [`GanOpcError::Checkpoint`].
    pub fn resume<P: AsRef<Path>>(path: P) -> Result<Self, GanOpcError> {
        Pretrainer::from_checkpoint(Checkpoint::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_ilt::IltConfig;
    use ganopc_litho::OpticalConfig;

    fn tiny_model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(2048.0 / 32.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 6;
        LithoModel::new(cfg, 32, 32).unwrap()
    }

    #[test]
    fn pretraining_reduces_litho_error() {
        let ds = OpcDataset::synthesize(32, 2, IltConfig::fast(), 21).unwrap();
        let model = tiny_model();
        let mut g = Generator::new(32, 4, 33);
        let mut cfg = PretrainConfig::fast();
        cfg.iterations = 20;
        cfg.lr = 0.05;
        let stats = pretrain_generator(&mut g, &model, &ds, &cfg).unwrap();
        assert_eq!(stats.len(), 20);
        let early: f64 = stats[..4].iter().map(|s| s.litho_error).sum::<f64>() / 4.0;
        let late: f64 = stats[16..].iter().map(|s| s.litho_error).sum::<f64>() / 4.0;
        assert!(late < early, "litho error did not decrease: {early} -> {late}");
    }

    #[test]
    fn resolution_mismatch_rejected() {
        let ds = OpcDataset::synthesize(32, 1, IltConfig::fast(), 1).unwrap();
        let model = tiny_model();
        let mut g = Generator::new(16, 4, 0);
        assert!(matches!(
            pretrain_generator(&mut g, &model, &ds, &PretrainConfig::fast()),
            Err(GanOpcError::Config(_))
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let ds = OpcDataset::synthesize(32, 1, IltConfig::fast(), 1).unwrap();
        let model = tiny_model();
        let mut g = Generator::new(32, 4, 0);
        let mut cfg = PretrainConfig::fast();
        cfg.lr = 0.0;
        assert!(matches!(
            pretrain_generator(&mut g, &model, &ds, &cfg),
            Err(GanOpcError::Config(_))
        ));
    }

    #[test]
    fn stats_are_monotone_in_step_index() {
        let ds = OpcDataset::synthesize(32, 1, IltConfig::fast(), 2).unwrap();
        let model = tiny_model();
        let mut g = Generator::new(32, 4, 1);
        let stats = pretrain_generator(&mut g, &model, &ds, &PretrainConfig::fast()).unwrap();
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.step, i + 1);
            assert!(s.litho_error.is_finite());
        }
    }
}

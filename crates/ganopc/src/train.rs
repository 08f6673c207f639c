//! Algorithm 1 — GAN-OPC adversarial training.
//!
//! Per mini-batch (paper Algorithm 1):
//!
//! ```text
//! M  ← G(Z_t; W_g)
//! l_g ← −log D(Z_t, M) + α‖M* − M‖²          (line 7)
//! l_d ← log D(Z_t, M) − log D(Z_t, M*)        (line 8, minimized)
//! ΔW_g ← ∂l_g/∂W_g ;  ΔW_d ← ∂l_d/∂W_d       (line 9)
//! W ← W − (λ/m)·ΔW                            (line 11)
//! ```
//!
//! `l_d` is minimized as the standard binary cross-entropy pair
//! `BCE(D(Z_t, M*), 1) + BCE(D(Z_t, M), 0)` (identical stationary points,
//! better-conditioned gradients); the generator term `−log D(Z_t, M)` is
//! `BCE(D(Z_t, M), 1)` exactly as in Eq. (7).

use crate::dataset::EpochStream;
use crate::{Discriminator, GanOpcError, Generator, OpcDataset};
use ganopc_fault as fault;
use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::loss::{bce_scalar_label_into, sum_squared_error_acc_into};
use ganopc_nn::optim::Sgd;
use ganopc_nn::Tensor;
use ganopc_obs as obs;
use std::path::Path;

/// Hyper-parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Total training steps (mini-batches).
    pub iterations: usize,
    /// Mini-batch size `m`.
    pub batch_size: usize,
    /// Generator learning rate λ_g.
    pub lr_generator: f32,
    /// Discriminator learning rate λ_d.
    pub lr_discriminator: f32,
    /// SGD momentum for both networks.
    pub momentum: f32,
    /// Weight α of the `‖M* − M‖²` term in the generator loss (line 7).
    /// Applied per pixel (the squared error is averaged over the batch and
    /// scaled by α).
    pub alpha: f32,
    /// Shuffling/initialization seed.
    pub seed: u64,
    /// Optional global gradient-norm clip applied to both networks before
    /// each optimizer step (GAN stabilization; `None` disables).
    pub clip_grad_norm: Option<f32>,
}

impl TrainConfig {
    /// A configuration sized for the scaled reproduction experiments.
    pub fn paper_scaled() -> Self {
        TrainConfig {
            iterations: 400,
            batch_size: 4,
            lr_generator: 0.02,
            lr_discriminator: 0.01,
            momentum: 0.5,
            alpha: 1.0,
            seed: 2018,
            clip_grad_norm: Some(10.0),
        }
    }

    /// A tiny configuration for unit tests.
    pub fn fast() -> Self {
        TrainConfig {
            iterations: 6,
            batch_size: 2,
            lr_generator: 0.02,
            lr_discriminator: 0.01,
            momentum: 0.0,
            alpha: 1.0,
            seed: 7,
            clip_grad_norm: Some(10.0),
        }
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
        if self.lr_generator <= 0.0 || self.lr_discriminator <= 0.0 {
            return Err("learning rates must be positive".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must lie in [0, 1)".into());
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err("alpha must be nonnegative".into());
        }
        if let Some(c) = self.clip_grad_norm {
            if c.is_nan() || c <= 0.0 {
                return Err("clip_grad_norm must be positive".into());
            }
        }
        Ok(())
    }
}

impl TrainConfig {
    fn put_into(&self, ck: &mut Checkpoint) {
        ck.put_u64("config/iterations", self.iterations as u64);
        ck.put_u64("config/batch_size", self.batch_size as u64);
        ck.put_f64("config/lr_generator", self.lr_generator as f64);
        ck.put_f64("config/lr_discriminator", self.lr_discriminator as f64);
        ck.put_f64("config/momentum", self.momentum as f64);
        ck.put_f64("config/alpha", self.alpha as f64);
        ck.put_u64("config/seed", self.seed);
        if let Some(clip) = self.clip_grad_norm {
            ck.put_f64("config/clip_grad_norm", clip as f64);
        }
    }

    fn read_from(ck: &Checkpoint) -> Result<Self, GanOpcError> {
        let config = TrainConfig {
            iterations: ck.get_u64("config/iterations")? as usize,
            batch_size: ck.get_u64("config/batch_size")? as usize,
            lr_generator: ck.get_f64("config/lr_generator")? as f32,
            lr_discriminator: ck.get_f64("config/lr_discriminator")? as f32,
            momentum: ck.get_f64("config/momentum")? as f32,
            alpha: ck.get_f64("config/alpha")? as f32,
            seed: ck.get_u64("config/seed")?,
            clip_grad_norm: if ck.contains("config/clip_grad_norm") {
                Some(ck.get_f64("config/clip_grad_norm")? as f32)
            } else {
                None
            },
        };
        config.validate().map_err(GanOpcError::Config)?;
        Ok(config)
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::paper_scaled()
    }
}

/// Per-step training statistics (the Fig. 7 curves are built from
/// `l2_loss`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Training step index.
    pub step: usize,
    /// Generator adversarial loss `−log D(Z_t, M)`.
    pub adversarial_loss: f64,
    /// Mean per-pixel squared error between `M` and `M*` — the y-axis of
    /// Fig. 7.
    pub l2_loss: f64,
    /// Discriminator loss.
    pub discriminator_loss: f64,
    /// Mean probability the discriminator assigns to real pairs.
    pub d_real: f64,
    /// Mean probability the discriminator assigns to generated pairs.
    pub d_fake: f64,
}

/// Persistent per-step work buffers: generated masks, discriminator
/// probabilities and the two gradient tensors every [`GanTrainer::train_step`]
/// needs. Sized on the first step and reused, so steady-state training
/// performs no heap allocation in the step itself.
struct TrainScratch {
    masks: Tensor,
    probs: Tensor,
    grad_p: Tensor,
    grad_masks: Tensor,
}

impl TrainScratch {
    fn new() -> Self {
        TrainScratch {
            masks: Tensor::zeros(&[1]),
            probs: Tensor::zeros(&[1]),
            grad_p: Tensor::zeros(&[1]),
            grad_masks: Tensor::zeros(&[1]),
        }
    }
}

/// The shuffle stream and the mini-batch buffers [`GanTrainer::train_for`]
/// draws into: the batch indices, then the targets and reference masks.
struct BatchFeed {
    stream: EpochStream,
    indices: Vec<usize>,
    targets: Tensor,
    masks: Tensor,
}

/// The Algorithm 1 trainer: owns both networks and their optimizers.
///
/// The trainer is fully resumable: [`GanTrainer::save_checkpoint`] persists
/// every piece of state a training run accumulates — both networks
/// (weights *and* batch-norm statistics), both optimizers' velocity, the
/// step counter and the shuffle-stream position — and
/// [`GanTrainer::resume`] reconstructs a trainer that continues
/// bit-identically to an uninterrupted run.
pub struct GanTrainer {
    generator: Generator,
    discriminator: Discriminator,
    opt_g: Sgd,
    opt_d: Sgd,
    config: TrainConfig,
    step: usize,
    /// Shuffle-stream position: epoch index and intra-epoch cursor.
    epoch: u64,
    cursor: usize,
    scratch: TrainScratch,
    /// Kept warm across [`GanTrainer::train_for`] calls; rebuilt from
    /// `(epoch, cursor)`, never persisted.
    feed: Option<BatchFeed>,
}

/// Format tag stored under `meta/kind` in trainer checkpoints.
const TRAINER_KIND: &[u8] = b"gan-opc/trainer";

impl GanTrainer {
    /// Creates a trainer from freshly initialized networks.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`TrainConfig::validate`], the networks
    /// disagree on spatial size, or the discriminator is
    /// [`Discriminator::mask_only`] (Algorithm 1 scores `(target, mask)`
    /// pairs).
    pub fn new(generator: Generator, discriminator: Discriminator, config: TrainConfig) -> Self {
        // PANIC: documented above — misconfigured training is a programming
        // error at construction, not a runtime condition to recover from.
        config.validate().expect("invalid training configuration");
        assert_eq!(
            generator.size(),
            discriminator.size(),
            "generator and discriminator must share the clip size"
        );
        // PANIC: documented above — `train_step` feeds the discriminator pairs.
        assert!(discriminator.takes_pairs(), "the gan trainer needs a pair discriminator");
        let opt_g = Sgd::new(config.lr_generator, config.momentum);
        let opt_d = Sgd::new(config.lr_discriminator, config.momentum);
        GanTrainer {
            generator,
            discriminator,
            opt_g,
            opt_d,
            config,
            step: 0,
            epoch: 0,
            cursor: 0,
            scratch: TrainScratch::new(),
            feed: None,
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Steps completed so far (across saves/resumes).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Borrow of the generator (e.g. to export weights mid-training).
    pub fn generator_mut(&mut self) -> &mut Generator {
        &mut self.generator
    }

    /// Borrow of the discriminator.
    pub fn discriminator_mut(&mut self) -> &mut Discriminator {
        &mut self.discriminator
    }

    /// Consumes the trainer, returning the trained networks.
    pub fn into_networks(self) -> (Generator, Discriminator) {
        (self.generator, self.discriminator)
    }

    /// Runs one Algorithm 1 step on a mini-batch of `(Z_t, M*)`.
    ///
    /// Every intermediate (masks, probabilities, gradients) lives in the
    /// trainer's persistent scratch, the 1/m batch normalization is fused
    /// into the loss-gradient computation, and both networks run their
    /// backward passes on the discard path — so after the first step at a
    /// given batch shape this performs no heap allocation. The step runs
    /// two discriminator forwards (fake, real) rather than the naive
    /// three: the discriminator's fake-term backward replays the cached
    /// activations of the adversarial forward, which stay valid because
    /// the generator update in between touches only generator parameters.
    // lint: hot-path
    pub fn train_step(&mut self, targets: &Tensor, ref_masks: &Tensor) -> StepStats {
        // Phase spans (G-forward / D-pass / backward / optimizer) attribute
        // every code segment of the step; phases that run twice (both
        // network updates) simply record two samples per step. Lithography
        // does not appear here — GAN training is litho-free by design; the
        // litho spans cover pretraining and validation scoring instead.
        let _step_span = obs::span(obs::Span::TrainStep);
        obs::counter_add(obs::Counter::TrainSteps, 1);
        self.step += 1;
        let batch = targets.shape()[0] as f32;
        let TrainScratch { masks, probs, grad_p, grad_masks } = &mut self.scratch;

        // ---- Generator update: l_g = −log D(Z_t, M) + α‖M* − M‖² ----
        let g_span = obs::span(obs::Span::TrainGForward);
        self.generator.forward_into(targets, masks, true);
        drop(g_span);
        let d_span = obs::span(obs::Span::TrainDPass);
        self.discriminator.forward_pair_into(targets, masks, probs, true);
        let d_fake = mean_f64(probs);
        // 1/m is folded straight into the BCE gradient; the loss value is
        // reported unscaled.
        let adv_loss = bce_scalar_label_into(probs, 1.0, 1.0 / batch, grad_p);
        drop(d_span);
        // Route the adversarial gradient through D into the mask channel.
        let bwd_span = obs::span(obs::Span::TrainBackward);
        self.discriminator.zero_grads();
        self.discriminator.backward_pair_into(grad_p, grad_masks);
        // D's half of the fake term reuses this same forward: `probs` still
        // holds D(Z_t, M) (the generator update below only touches G
        // parameters), so the label-0 gradient is computed here and replayed
        // through the cached activations in the discriminator phase instead
        // of paying a third discriminator forward.
        let loss_fake = bce_scalar_label_into(probs, 0.0, 1.0 / batch, grad_p);
        // L2 pull toward the reference mask (Eq. (9)); α/pixels keeps the
        // weight resolution independent and 1/m matches the fused batch
        // scale above. The scaled gradient accumulates onto the adversarial
        // mask gradient in one pass.
        let pixels = (masks.len() as f32).max(1.0);
        let sse = sum_squared_error_acc_into(
            masks,
            ref_masks,
            self.config.alpha / pixels / batch,
            grad_masks,
        );
        let l2_loss = sse / pixels as f64;
        self.generator.zero_grads();
        // The generator is first in the chain: ∂l/∂Z_t is never consumed.
        self.generator.backward_discard(grad_masks);
        drop(bwd_span);
        let opt_span = obs::span(obs::Span::TrainOptimizer);
        if let Some(clip) = self.config.clip_grad_norm {
            self.generator.net_mut().clip_gradients(clip);
        }
        self.opt_g.step(self.generator.net_mut());
        drop(opt_span);

        // ---- Discriminator update: BCE(real,1) + BCE(fake,0) ----
        // The adversarial pass polluted D's gradients; clear them, then
        // replay the fake backward off the still-valid cached activations
        // (the generator is detached — only parameter gradients matter, so
        // the input gradient is discarded). The real forward afterwards
        // overwrites those caches, so order matters here.
        let bwd_span = obs::span(obs::Span::TrainBackward);
        self.discriminator.zero_grads();
        self.discriminator.backward_pair_discard(grad_p);
        drop(bwd_span);
        let d_span = obs::span(obs::Span::TrainDPass);
        self.discriminator.forward_pair_into(targets, ref_masks, probs, true);
        let d_real = mean_f64(probs);
        let loss_real = bce_scalar_label_into(probs, 1.0, 1.0 / batch, grad_p);
        drop(d_span);
        let bwd_span = obs::span(obs::Span::TrainBackward);
        self.discriminator.backward_pair_discard(grad_p);
        drop(bwd_span);
        let opt_span = obs::span(obs::Span::TrainOptimizer);
        if let Some(clip) = self.config.clip_grad_norm {
            self.discriminator.net_mut().clip_gradients(clip);
        }
        self.opt_d.step(self.discriminator.net_mut());
        self.discriminator.zero_grads();
        drop(opt_span);

        let mut stats = StepStats {
            step: self.step,
            adversarial_loss: adv_loss,
            l2_loss,
            discriminator_loss: loss_real + loss_fake,
            d_real,
            d_fake,
        };
        // Fault sink: armed builds may poison the *reported* losses with
        // NaN/∞ at a chosen step to exercise the divergence monitor. Only
        // the report is touched — network/optimizer state stays finite
        // (the debug-build finite guards in `nn` would otherwise fire),
        // mirroring a blow-up detected at loss readout.
        if let Some(poison) = fault::numeric_fault(fault::Domain::Train, self.step as u64) {
            obs::counter_add(obs::Counter::FaultsInjected, 1);
            stats.adversarial_loss = poison.as_f64();
            stats.l2_loss = poison.as_f64();
        }
        stats
    }

    /// Scales both optimizers' learning rates by `factor` (supervisor LR
    /// backoff). The *config* rates are deliberately untouched:
    /// checkpoints persist the original schedule, so a rollback via
    /// [`GanTrainer::from_checkpoint`] reconstructs the un-backed-off
    /// optimizers and the supervisor re-applies its cumulative factor.
    pub fn scale_learning_rates(&mut self, factor: f32) {
        self.opt_g.set_learning_rate(self.opt_g.learning_rate() * factor);
        self.opt_d.set_learning_rate(self.opt_d.learning_rate() * factor);
    }

    /// Trains until `config.iterations` total steps have run (a fresh
    /// trainer runs all of them; a resumed one only the remainder),
    /// returning the per-step statistics (the Fig. 7 curve).
    pub fn train(&mut self, dataset: &OpcDataset) -> Vec<StepStats> {
        let remaining = self.config.iterations.saturating_sub(self.step);
        self.train_for(dataset, remaining)
    }

    /// Runs exactly `steps` further training steps on the dataset's
    /// deterministic shuffle stream.
    ///
    /// Interrupting a run after any step, checkpointing, resuming, and
    /// calling `train_for` with the remainder reproduces an uninterrupted
    /// run bit-for-bit. The stream and the batch buffers stay with the
    /// trainer (an epoch boundary reshuffles in place), so once warm a call
    /// allocates only its returned statistics.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is smaller than the saved shuffle cursor
    /// (i.e. it is not the dataset this trainer was training on).
    pub fn train_for(&mut self, dataset: &OpcDataset, steps: usize) -> Vec<StepStats> {
        let mut feed = match self.feed.take() {
            Some(mut feed) => {
                feed.stream.seek(dataset, self.epoch, self.cursor);
                feed
            }
            None => BatchFeed {
                stream: EpochStream::at_position(
                    dataset,
                    self.config.seed,
                    self.epoch,
                    self.cursor,
                ),
                indices: Vec::new(),
                targets: Tensor::zeros(&[1]),
                masks: Tensor::zeros(&[1]),
            },
        };
        let mut stats = Vec::with_capacity(steps);
        for _ in 0..steps {
            feed.stream.next_batch_into(dataset, self.config.batch_size, &mut feed.indices);
            dataset.batch_into(&feed.indices, &mut feed.targets, &mut feed.masks);
            stats.push(self.train_step(&feed.targets, &feed.masks));
            (self.epoch, self.cursor) = feed.stream.position();
        }
        self.feed = Some(feed);
        stats
    }

    /// Serializes the complete training state into a v2 [`Checkpoint`].
    pub fn to_checkpoint(&mut self) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_bytes("meta/kind", TRAINER_KIND.to_vec());
        self.config.put_into(&mut ck);
        ck.put_u64("arch/size", self.generator.size() as u64);
        ck.put_u64("arch/g_base", self.generator.base_channels() as u64);
        ck.put_u64("arch/d_base", self.discriminator.base_channels() as u64);
        ck.put_u64("arch/d_pair", self.discriminator.takes_pairs() as u64);
        ck.put_tensors("g/params", &self.generator.export_params());
        ck.put_tensors("d/params", &self.discriminator.export_params());
        ck.put_tensors("opt_g/velocity", &self.opt_g.export_state());
        ck.put_tensors("opt_d/velocity", &self.opt_d.export_state());
        ck.put_u64("progress/step", self.step as u64);
        ck.put_u64("progress/epoch", self.epoch);
        ck.put_u64("progress/cursor", self.cursor as u64);
        ck
    }

    /// Reconstructs a trainer from a checkpoint produced by
    /// [`GanTrainer::to_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`GanOpcError::Checkpoint`] for missing/mistyped sections
    /// and [`GanOpcError::Config`] for inconsistent architecture or
    /// optimizer state.
    pub fn from_checkpoint(mut ck: Checkpoint) -> Result<Self, GanOpcError> {
        match ck.get_bytes("meta/kind") {
            Ok(kind) if kind == TRAINER_KIND => {}
            Ok(kind) => {
                return Err(GanOpcError::Config(format!(
                    "checkpoint holds '{}', not a gan trainer state",
                    String::from_utf8_lossy(kind)
                )))
            }
            Err(e) => return Err(e.into()),
        }
        let config = TrainConfig::read_from(&ck)?;
        let size = ck.get_u64("arch/size")? as usize;
        let g_base = ck.get_u64("arch/g_base")? as usize;
        let d_base = ck.get_u64("arch/d_base")? as usize;
        if ck.get_u64("arch/d_pair")? == 0 {
            return Err(GanOpcError::Config(
                "checkpoint holds a mask-only discriminator; the gan trainer scores pairs".into(),
            ));
        }
        // Bound the scalars before they reach network constructors: an
        // untrusted checkpoint must not be able to panic or demand
        // terabytes via a giant "resolution".
        if !(8..=8192).contains(&size)
            || !size.is_power_of_two()
            || !(1..=1024).contains(&g_base)
            || !(1..=1024).contains(&d_base)
        {
            return Err(GanOpcError::Config(format!(
                "implausible checkpoint architecture: size {size}, bases {g_base}/{d_base}"
            )));
        }
        // Seeds only affect the initialization that is immediately
        // overwritten by the imported weights.
        let mut generator = Generator::new(size, g_base, 0);
        let mut discriminator = Discriminator::new(size, d_base, 0);
        generator.import_params(&ck.take_tensors("g/params")?)?;
        discriminator.import_params(&ck.take_tensors("d/params")?)?;
        let mut opt_g = Sgd::new(config.lr_generator, config.momentum);
        let mut opt_d = Sgd::new(config.lr_discriminator, config.momentum);
        let vel_g = ck.take_tensors("opt_g/velocity")?;
        let vel_d = ck.take_tensors("opt_d/velocity")?;
        check_velocity(generator.net_mut(), &vel_g, "generator")?;
        check_velocity(discriminator.net_mut(), &vel_d, "discriminator")?;
        opt_g.import_state(vel_g);
        opt_d.import_state(vel_d);
        let step = ck.get_u64("progress/step")? as usize;
        let epoch = ck.get_u64("progress/epoch")?;
        let cursor = ck.get_u64("progress/cursor")? as usize;
        Ok(GanTrainer {
            generator,
            discriminator,
            opt_g,
            opt_d,
            config,
            step,
            epoch,
            cursor,
            scratch: TrainScratch::new(),
            feed: None,
        })
    }

    /// Atomically writes the complete training state to `path`: a crash
    /// mid-save leaves the previous checkpoint (or no file) at `path`,
    /// never a truncated one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_checkpoint<P: AsRef<Path>>(&mut self, path: P) -> Result<(), GanOpcError> {
        self.to_checkpoint().save(path)?;
        Ok(())
    }

    /// Reconstructs a trainer from a checkpoint file written by
    /// [`GanTrainer::save_checkpoint`]; [`GanTrainer::train`] then
    /// continues exactly where the saved run stopped.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format failures; corrupt or truncated files
    /// surface as [`GanOpcError::Checkpoint`].
    pub fn resume<P: AsRef<Path>>(path: P) -> Result<Self, GanOpcError> {
        GanTrainer::from_checkpoint(Checkpoint::load(path)?)
    }
}

/// Mean of a probability tensor in f64 (for [`StepStats`]).
fn mean_f64(t: &Tensor) -> f64 {
    t.as_slice().iter().map(|&v| v as f64).sum::<f64>() / t.len().max(1) as f64
}

/// Validates an optimizer-velocity snapshot against the network it will
/// drive: either empty (optimizer never stepped) or one tensor per
/// parameter with matching shapes.
pub(crate) fn check_velocity(
    net: &mut ganopc_nn::layers::Sequential,
    velocity: &[Tensor],
    what: &str,
) -> Result<(), GanOpcError> {
    if velocity.is_empty() {
        return Ok(());
    }
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
    let matches = velocity.len() == shapes.len()
        && velocity.iter().zip(&shapes).all(|(v, s)| v.shape() == &s[..]);
    if !matches {
        return Err(GanOpcError::Config(format!(
            "{what} optimizer velocity does not match the network layout"
        )));
    }
    Ok(())
}

impl std::fmt::Debug for GanTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GanTrainer")
            .field("step", &self.step)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_ilt::IltConfig;

    fn tiny_setup() -> (GanTrainer, OpcDataset) {
        let ds = OpcDataset::synthesize(32, 3, IltConfig::fast(), 3).unwrap();
        let g = Generator::new(32, 4, 1);
        let d = Discriminator::new(32, 4, 2);
        (GanTrainer::new(g, d, TrainConfig::fast()), ds)
    }

    #[test]
    fn training_runs_and_reports_stats() {
        let (mut trainer, ds) = tiny_setup();
        let stats = trainer.train(&ds);
        assert_eq!(stats.len(), TrainConfig::fast().iterations);
        for s in &stats {
            assert!(s.l2_loss.is_finite() && s.l2_loss >= 0.0);
            assert!(s.adversarial_loss.is_finite());
            assert!(s.discriminator_loss.is_finite());
            assert!((0.0..=1.0).contains(&s.d_real));
            assert!((0.0..=1.0).contains(&s.d_fake));
        }
        assert_eq!(stats.last().unwrap().step, stats.len());
    }

    #[test]
    fn l2_term_pulls_masks_toward_references() {
        // With a strong α and several steps, the generator's output should
        // move measurably toward the reference masks.
        let ds = OpcDataset::synthesize(32, 2, IltConfig::fast(), 9).unwrap();
        let g = Generator::new(32, 4, 5);
        let d = Discriminator::new(32, 4, 6);
        let mut cfg = TrainConfig::fast();
        cfg.iterations = 30;
        cfg.alpha = 4.0;
        let mut trainer = GanTrainer::new(g, d, cfg);
        let stats = trainer.train(&ds);
        let early: f64 = stats[..5].iter().map(|s| s.l2_loss).sum::<f64>() / 5.0;
        let late: f64 = stats[stats.len() - 5..].iter().map(|s| s.l2_loss).sum::<f64>() / 5.0;
        assert!(late < early, "L2 did not improve: {early} -> {late}");
    }

    #[test]
    fn discriminator_learns_to_separate() {
        let (mut trainer, ds) = tiny_setup();
        let mut cfg = TrainConfig::fast();
        cfg.iterations = 25;
        trainer.config = cfg.clone();
        let stats = trainer.train(&ds);
        let last = stats.last().unwrap();
        // After some steps, D should rank real pairs above generated ones.
        assert!(
            last.d_real >= last.d_fake - 0.05,
            "d_real {} << d_fake {}",
            last.d_real,
            last.d_fake
        );
    }

    #[test]
    fn train_step_accepts_explicit_batches() {
        let (mut trainer, ds) = tiny_setup();
        let (t, m) = ds.batch(&[0, 1]);
        let s1 = trainer.train_step(&t, &m);
        let s2 = trainer.train_step(&t, &m);
        assert_eq!(s1.step, 1);
        assert_eq!(s2.step, 2);
    }

    #[test]
    #[should_panic(expected = "share the clip size")]
    fn size_mismatch_rejected() {
        let g = Generator::new(32, 4, 0);
        let d = Discriminator::new(16, 4, 0);
        let _ = GanTrainer::new(g, d, TrainConfig::fast());
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::paper_scaled().validate().is_ok());
        let mut bad = TrainConfig::fast();
        bad.batch_size = 0;
        assert!(bad.validate().is_err());
    }
}

//! `pretrain` (one Algorithm 2 step, `Pretrainer::train_for(&model, &ds, 1)`).
//! Its traced run also times `GanTrainer::train_step` at the shape of the
//! historical criterion bench.

use crate::harness::{self, closed_loop, median, timed, Metrics, Outcome};
use crate::{Ctx, SetupTimes};
use ganopc_core::pretrain::PretrainConfig;
use ganopc_core::{
    field_to_tensor, tensor_to_field, Discriminator, EpochStream, GanTrainer, Generator,
    OpcDataset, Pretrainer, TrainConfig,
};
use ganopc_litho::metrics::{DefectConfig, MaskMetrics};
use ganopc_litho::{Field, LithoModel};
use ganopc_nn::optim::Sgd;
use ganopc_nn::{init, pool, Tensor};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The synthesised library, the network-frame litho model and the Table 2
/// clips quality is scored on.
pub struct Library {
    ds: OpcDataset,
    model: LithoModel,
    clips: Vec<Field>,
}

fn library(ctx: &Ctx) -> (Library, f64, f64) {
    let (model, litho_model_s) = timed(|| crate::train_model(ctx));
    let ((ds, clips), dataset_s) =
        timed(|| (crate::dataset(ctx), crate::table2_clips(ctx.scale.net)));
    (Library { ds, model, clips }, litho_model_s, dataset_s)
}

/// Mean L2, PVB and EPE violations of the masks the generator proposes
/// for the Table 2 clips at the network frame. A proposal is what the
/// Fig. 6 flow hands to refinement, binarized: the generator output
/// floored at 0.6 × target (so every drawn feature is present), cut at 0.5.
fn score_generator(g: &mut Generator, lib: &Library, m: &mut Metrics) {
    let mut out = Tensor::zeros(&[1]);
    let (mut l2, mut pvb, mut epe) = (0.0, 0.0, 0.0);
    for clip in &lib.clips {
        g.infer_into(&field_to_tensor(clip), &mut out);
        let mut mask = tensor_to_field(&out, 0);
        for (v, &t) in mask.as_mut_slice().iter_mut().zip(clip.as_slice()) {
            *v = if v.max(0.6 * t) >= 0.5 { 1.0 } else { 0.0 };
        }
        let q = MaskMetrics::evaluate(&lib.model, &mask, clip, &DefectConfig::default());
        l2 += q.l2_nm2;
        pvb += q.pvb_nm2;
        epe += q.epe_violations as f64;
    }
    let n = lib.clips.len() as f64;
    m.set("l2_nm2_mean", l2 / n);
    m.set("pvb_nm2_mean", pvb / n);
    m.set("epe_violations_mean", epe / n);
}

/// Checks one training op: it ran exactly one step and every loss it
/// reported is finite.
fn check_step(before: usize, after: usize, losses: &[f64]) -> Result<(), String> {
    if after != before + 1 {
        return Err(format!("step counter moved {before} -> {after}, expected one step"));
    }
    match losses.iter().find(|l| !l.is_finite()) {
        Some(l) => Err(format!("non-finite loss {l} at step {after}")),
        None => Ok(()),
    }
}

/// Seed of the quality sentinel's library and shuffle.
const SENTINEL_SEED: u64 = 0;

/// Steps per latency window: about two seconds, and a window's p90 has
/// twenty steps beyond it.
const WINDOW: usize = 200;

/// The untraced run of the training workload: the timed closed loop on the
/// seed's state, then the quality sentinel. `step` runs one op and returns
/// its latency and loss.
///
/// The sentinel is the same workload set up from [`SENTINEL_SEED`] and
/// stepped `quality_step` times outside the timed loop. `loss_final` is
/// the mean loss of its last ten steps and the quality metrics score its
/// generator afterwards, so all four repeat exactly on every run and
/// every seed. Scored on the seed's own state instead, they would spread
/// across seeds far beyond any useful bound.
fn measure<S>(
    ctx: &Ctx,
    out: &mut Outcome,
    state: &mut S,
    setup: fn(&Ctx) -> (S, SetupTimes),
    mut step: impl FnMut(&mut S) -> Result<(Duration, f64), String>,
    score: impl FnOnce(&mut S, &mut Metrics),
) {
    let samples = closed_loop(ctx.seconds, ctx.scale.min_ops, 1, out, |_| {
        step(state).map(|(elapsed, _)| elapsed)
    });
    crate::record_window_latency(&samples, WINDOW, out);

    let q = ctx.scale.quality_step;
    let mut sentinel = setup(&Ctx { seed: SENTINEL_SEED, ..ctx.clone() }).0;
    let mut losses = Vec::with_capacity(q);
    for _ in 0..q {
        let verdict = step(&mut sentinel).map(|(_, loss)| losses.push(loss));
        out.record(verdict);
    }
    let window = &losses[losses.len().saturating_sub(10)..];
    out.metrics.set("loss_final", window.iter().sum::<f64>() / window.len().max(1) as f64);
    score(&mut sentinel, &mut out.metrics);
}

/// Median `GanTrainer::train_step` time at the shape of the historical
/// criterion bench (`train_step/step_batch4_32px_base16`): 32 px, base 16,
/// batch 4, `init::uniform` batches seeded 41/42, nets seeded 11/12, ms.
/// Returns `(one thread, the full crew)`: the single-core setting of the
/// historical figures, and this run's thread count.
fn legacy_train_step_ms() -> (f64, f64) {
    let targets = init::uniform(&[4, 1, 32, 32], 0.0, 1.0, 41);
    let masks = init::uniform(&[4, 1, 32, 32], 0.0, 1.0, 42);
    let mut cfg = TrainConfig::fast();
    cfg.iterations = usize::MAX / 2;
    cfg.batch_size = 4;
    let mut trainer =
        GanTrainer::new(Generator::new(32, 16, 11), Discriminator::new(32, 16, 12), cfg);
    let mut median_ms = |threads: usize| {
        let crew = pool::max_threads();
        pool::set_max_threads(Some(threads));
        for _ in 0..3 {
            trainer.train_step(&targets, &masks);
        }
        let times: Vec<f64> =
            (0..60).map(|_| timed(|| trainer.train_step(&targets, &masks)).1).collect();
        pool::set_max_threads(Some(crew));
        median(&times) * 1e3
    };
    let one = median_ms(1);
    (one, median_ms(pool::max_threads()))
}

// ---------------------------------------------------------------------------
// pretrain
// ---------------------------------------------------------------------------

/// State of a `pretrain` run.
pub struct PretrainState {
    pretrainer: Pretrainer,
    lib: Library,
}

/// Synthesises the library and wraps a fresh generator for Algorithm 2 at
/// 64 px with 12 kernels and batch 4.
pub fn setup_pretrain(ctx: &Ctx) -> (PretrainState, SetupTimes) {
    let s = &ctx.scale;
    let (lib, litho_model_s, dataset_s) = library(ctx);
    let (pretrainer, generator_s) = timed(|| {
        let mut cfg = PretrainConfig::paper_scaled();
        cfg.iterations = usize::MAX / 2;
        cfg.batch_size = 4;
        cfg.seed = ctx.seed;
        Pretrainer::new(Generator::new(s.net, s.base, crate::G_INIT_SEED), cfg)
    });
    (PretrainState { pretrainer, lib }, SetupTimes { litho_model_s, dataset_s, generator_s })
}

/// One Algorithm 2 step: latency and the step's litho error.
fn pretrain_step(st: &mut PretrainState) -> Result<(Duration, f64), String> {
    let before = st.pretrainer.step();
    let t = Instant::now();
    let stats = st.pretrainer.train_for(&st.lib.model, &st.lib.ds, 1).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();
    let s = stats.first().ok_or("train_for(1) returned no step")?;
    check_step(before, st.pretrainer.step(), &[s.litho_error])?;
    Ok((elapsed, s.litho_error))
}

/// Leg times of one Algorithm 2 step replayed on a probe generator that
/// carries the pre-trainer's current weights, seconds.
#[derive(Default)]
struct PretrainLegs {
    batch: Vec<f64>,
    g_forward: Vec<f64>,
    /// The per-sample gradient fan-out across the crew.
    litho: Vec<f64>,
    /// One sample's gradient, timed inside the fan-out.
    gradient: Vec<f64>,
    g_backward: Vec<f64>,
    optimizer: Vec<f64>,
    remainder: Vec<f64>,
}

/// Runs the `pretrain` workload.
pub fn run_pretrain(ctx: &Ctx, st: &mut PretrainState, out: &mut Outcome) {
    for _ in 0..3 {
        out.record(pretrain_step(st).map(drop));
    }
    if !ctx.trace {
        measure(ctx, out, st, setup_pretrain, pretrain_step, |st, m| {
            score_generator(st.pretrainer.generator_mut(), &st.lib, m)
        });
        return;
    }

    let s = &ctx.scale;
    let cfg = st.pretrainer.config().clone();
    let mut g = Generator::new(s.net, s.base, 0);
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    let mut stream: EpochStream = st.lib.ds.epoch_stream(ctx.seed);
    let batch = cfg.batch_size;
    let plane = s.net * s.net;
    let mut masks = Tensor::zeros(&[1]);
    let mut grad = Tensor::zeros(&[batch, 1, s.net, s.net]);
    let slots: Vec<Mutex<(Vec<f32>, f64)>> =
        (0..batch).map(|_| Mutex::new((vec![0.0f32; plane], 0.0))).collect();
    let mut legs = PretrainLegs::default();
    let traced = harness::trace_phases(ctx.seconds, 1, out, st, |st, _, traced| {
        let (elapsed, _) = pretrain_step(st)?;
        if !traced {
            return Ok(elapsed);
        }
        g.import_params(&st.pretrainer.generator_mut().export_params())
            .map_err(|e| e.to_string())?;
        let indices = stream.next_batch(&st.lib.ds, batch);
        let ((targets, _), t_batch) = timed(|| st.lib.ds.batch(&indices));
        let ((), t_gf) = timed(|| g.forward_into(&targets, &mut masks, true));
        let lib = &st.lib;
        let masks_ref = &masks;
        // The same per-sample fan-out the step performs.
        let ((), t_litho) = timed(|| {
            pool::run_chunks(batch, |samples| {
                for bi in samples {
                    let mask = tensor_to_field(masks_ref, bi);
                    // PANIC: a slot is only poisoned if a gradient panicked.
                    let mut slot = slots[bi].lock().expect("gradient slot");
                    let t = Instant::now();
                    let err = lib.model.gradient_into(
                        &mask,
                        &lib.ds.targets()[indices[bi]],
                        1.0,
                        &mut slot.0,
                    );
                    slot.1 = if err.is_ok() { t.elapsed().as_secs_f64() } else { f64::NAN };
                }
            })
        });
        for (bi, slot) in slots.iter().enumerate() {
            let slot = slot.lock().expect("gradient slot");
            if !slot.1.is_finite() {
                return Err(format!("litho gradient of sample {bi} failed"));
            }
            legs.gradient.push(slot.1);
            grad.as_mut_slice()[bi * plane..(bi + 1) * plane].copy_from_slice(&slot.0);
        }
        grad.scale_assign(1.0 / batch as f32);
        g.zero_grads();
        let ((), t_gb) = timed(|| g.backward_discard(&grad));
        let ((), t_opt) = timed(|| opt.step(g.net_mut()));
        legs.batch.push(t_batch);
        legs.g_forward.push(t_gf);
        legs.litho.push(t_litho);
        legs.g_backward.push(t_gb);
        legs.optimizer.push(t_opt);
        let covered = t_batch + t_gf + t_litho + t_gb + t_opt;
        legs.remainder.push(elapsed.as_secs_f64() - covered);
        Ok(elapsed)
    });

    let op_p50 = traced.quantile(0.5);
    let m = &mut out.metrics;
    let nn = median(&legs.g_forward) + median(&legs.g_backward) + median(&legs.optimizer);
    m.set("nn.g_forward_ms", median(&legs.g_forward) * 1e3);
    m.set("nn.g_backward_ms", median(&legs.g_backward) * 1e3);
    m.set("nn.optimizer_ms", median(&legs.optimizer) * 1e3);
    m.set("nn.share", nn / op_p50);
    m.set("nn.gemm_gflops", crate::generator_gemm_gflops(s.net, s.base));
    m.set("litho.gradient_ms", median(&legs.gradient) * 1e3);
    m.set("litho.gradient_share", median(&legs.litho) / op_p50);
    m.set("litho.share", median(&legs.litho) / op_p50);
    m.set("ganopc.batch_us", median(&legs.batch) * 1e6);
    m.set("ganopc.step_self_ms", median(&legs.remainder) * 1e3);
    m.set("trace.unexplained_share", median(&legs.remainder) / op_p50);
    let (legacy_1t, legacy_crew) = legacy_train_step_ms();
    m.set("ganopc.train_step_legacy_ms", legacy_1t);
    m.set("ganopc.train_step_legacy_crew_ms", legacy_crew);
    let (fwd_us, inv_us) = harness::rfft_us(s.net, st.lib.clips[0].as_slice());
    m.set("fft.rfft_fwd_us", fwd_us);
    m.set("fft.rfft_inv_us", inv_us);
    crate::absent(
        m,
        &[
            "litho.aerial_ms",
            "litho.metrics_ms",
            "ilt.iters_per_op",
            "ilt.iter_ms",
            "ilt.update_self_ms",
            "nn.infer_ms",
            "ganopc.flow_self_ms",
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::check_step;

    #[test]
    fn training_gate_rejects_bad_steps() {
        assert!(check_step(4, 5, &[0.5, 1.0]).is_ok());
        assert!(check_step(4, 4, &[0.5]).is_err());
        assert!(check_step(4, 6, &[0.5]).is_err());
        assert!(check_step(4, 5, &[f64::NAN]).is_err());
        assert!(check_step(4, 5, &[f64::INFINITY]).is_err());
    }
}

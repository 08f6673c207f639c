//! `fig6_flow`: one op is `GanOpcFlow::optimize` on one of the ten Table 2
//! clips (generator → upscale → ILT refinement → scoring, paper Fig. 6).

use crate::harness::{self, closed_loop, hash_f32, median, timed, Outcome};
use crate::{Ctx, SetupTimes};
use ganopc_core::pretrain::{pretrain_generator, PretrainConfig};
use ganopc_core::{
    field_to_tensor_into, tensor_to_field, Discriminator, FlowConfig, FlowResult, GanOpcFlow,
    GanTrainer, Generator,
};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::metrics::{squared_l2_nm2, DefectConfig, MaskMetrics};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::Tensor;
use ganopc_obs::{self as obs, Counter, MetricsSnapshot};
use std::time::{Duration, Instant};

/// Everything one `fig6_flow` run operates on.
pub struct Fig6 {
    flow: GanOpcFlow,
    /// The ten Table 2 clips rasterized at the litho frame.
    clips: Vec<Field>,
    /// Seed-determined order in which ops cycle through the clips.
    order: Vec<usize>,
}

/// The flow configuration under test: Table 2 quick scale.
pub fn flow_config(ctx: &Ctx) -> FlowConfig {
    let s = &ctx.scale;
    let mut cfg = FlowConfig::paper_scaled();
    cfg.net_size = s.net;
    cfg.litho_size = s.litho;
    cfg.base_channels = s.base;
    cfg.num_kernels = s.flow_kernels;
    cfg.refinement = IltConfig::refinement();
    cfg
}

/// The litho model the flow builds internally, rebuilt from the cache.
fn flow_model(ctx: &Ctx) -> LithoModel {
    let cfg = flow_config(ctx);
    let mut opt = OpticalConfig::default_32nm(ganopc_core::FRAME_NM / cfg.litho_size as f64);
    opt.num_kernels = cfg.num_kernels;
    LithoModel::new_cached(opt, cfg.litho_size, cfg.litho_size).expect("flow litho model")
}

/// Builds the flow and trains its PGAN-OPC generator from the seed:
/// `OpcDataset::synthesize` → `pretrain_generator` → `GanTrainer::train`.
pub fn setup(ctx: &Ctx) -> (Fig6, SetupTimes) {
    let s = &ctx.scale;
    // Both kernel stacks are derived cold here: the flow's own model at the
    // litho frame and the network-frame model of Algorithm 2.
    let ((flow, model), litho_model_s) = timed(|| {
        (GanOpcFlow::new(flow_config(ctx)).expect("flow construction"), crate::train_model(ctx))
    });
    let ((ds, clips), dataset_s) = timed(|| (crate::dataset(ctx), crate::table2_clips(s.litho)));
    let (generator, generator_s) = timed(|| {
        let mut g = Generator::new(s.net, s.base, crate::G_INIT_SEED);
        let mut pcfg = PretrainConfig::paper_scaled();
        pcfg.iterations = s.pretrain_steps;
        pcfg.batch_size = 4;
        pcfg.seed = ctx.seed;
        pretrain_generator(&mut g, &model, &ds, &pcfg).expect("pre-training");
        let d = Discriminator::new(s.net, s.base, crate::D_INIT_SEED);
        let mut trainer = GanTrainer::new(g, d, crate::train_config(ctx, s.gan_steps));
        trainer.train(&ds);
        trainer.into_networks().0
    });
    let mut fig6 = Fig6 { flow, clips, order: harness::permutation(10, ctx.seed) };
    *fig6.flow.generator_mut() = generator;
    (fig6, SetupTimes { litho_model_s, dataset_s, generator_s })
}

/// Runs one flow op on clip `c`, returning the result, its latency and
/// how far the program's own ILT iteration counter moved.
fn flow_op(fig6: &mut Fig6, c: usize) -> Result<(FlowResult, Duration, u64), String> {
    let before = obs::counter_get(Counter::IltIterations);
    let t = Instant::now();
    let res = fig6.flow.optimize(&fig6.clips[c]).map_err(|e| format!("clip {c}: {e}"))?;
    let elapsed = t.elapsed();
    Ok((res, elapsed, obs::counter_get(Counter::IltIterations) - before))
}

/// The correctness gate of one flow op. Returns the mask hash.
///
/// Checks that the mask is binary and frame-sized, the metrics are
/// finite, the reported L2 equals one recomputed from the returned mask
/// with public litho calls, the program's ILT iteration counter agrees
/// with the result, and a clip seen before yields the same mask hash.
pub fn gate(
    model: &LithoModel,
    target: &Field,
    res: &FlowResult,
    counted_iters: u64,
    reference_hash: Option<u64>,
) -> Result<u64, String> {
    let frame = target.shape();
    if res.mask.shape() != frame || res.generator_mask.shape() != frame {
        return Err(format!("mask shape {:?} != frame {frame:?}", res.mask.shape()));
    }
    if !res.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0) {
        return Err("mask is not binary".into());
    }
    let m = &res.metrics;
    if !(res.l2_nm2.is_finite() && m.pvb_nm2.is_finite() && res.l2_nm2 >= 0.0) {
        return Err(format!("non-finite metrics: l2 {} pvb {}", res.l2_nm2, m.pvb_nm2));
    }
    let wafer = model.print_nominal(&res.mask);
    let l2 = squared_l2_nm2(&wafer, target, model.pixel_nm());
    if l2 != res.l2_nm2 || m.l2_nm2 != res.l2_nm2 {
        return Err(format!("reported l2 {} != recomputed {l2}", res.l2_nm2));
    }
    if counted_iters != res.refinement_iterations as u64 {
        return Err(format!(
            "ilt_iterations counter moved {counted_iters}, result reports {}",
            res.refinement_iterations
        ));
    }
    let hash = hash_f32(res.mask.as_slice());
    match reference_hash {
        Some(r) if r != hash => Err(format!("mask hash {hash:016x} != first pass {r:016x}")),
        _ => Ok(hash),
    }
}

/// Last value of the program's ILT loss trace: the final relaxed error of
/// the most recent refinement.
fn last_ilt_loss() -> f64 {
    MetricsSnapshot::capture()
        .trace("ilt_loss")
        .and_then(|t| t.values.last().copied())
        .unwrap_or(f64::NAN)
}

/// Per-op leg times of the traced phase, seconds.
#[derive(Default)]
struct Legs {
    /// The flow's own geometry work: pooling, upsampling, halo dilation.
    flow_self: Vec<f64>,
    infer: Vec<f64>,
    gradient: Vec<f64>,
    aerial: Vec<f64>,
    metrics: Vec<f64>,
    /// ILT replay time per iteration, the final print excluded.
    iter: Vec<f64>,
    /// Iterations × one gradient: the op's litho-gradient time.
    iter_grad: Vec<f64>,
    /// Op time not covered by the timed legs.
    remainder: Vec<f64>,
}

/// Runs the workload: a first pass over the ten clips that fixes each
/// clip's reference hash and quality, then the measured closed loop.
pub fn run(ctx: &Ctx, fig6: &mut Fig6, out: &mut Outcome) {
    let model = flow_model(ctx);
    let n = fig6.clips.len();
    let mut hashes = vec![0u64; n];
    let (mut l2, mut pvb, mut epe, mut loss, mut iters) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (c, hash) in hashes.iter_mut().enumerate() {
        let verdict = flow_op(fig6, c).and_then(|(res, _, counted)| {
            *hash = gate(&model, &fig6.clips[c], &res, counted, None)?;
            l2 += res.l2_nm2;
            pvb += res.metrics.pvb_nm2;
            epe += res.metrics.epe_violations as f64;
            iters += res.refinement_iterations as f64;
            loss += last_ilt_loss();
            Ok(())
        });
        out.record(verdict);
    }
    let m = &mut out.metrics;
    m.set("l2_nm2_mean", l2 / n as f64);
    m.set("pvb_nm2_mean", pvb / n as f64);
    m.set("epe_violations_mean", epe / n as f64);
    m.set("loss_final", loss / n as f64);
    m.set("ilt.iters_per_op", iters / n as f64);

    let order = fig6.order.clone();
    let op = |fig6: &mut Fig6, i: usize| {
        let c = order[i % n];
        let (res, elapsed, counted) = flow_op(fig6, c)?;
        gate(&model, &fig6.clips[c], &res, counted, Some(hashes[c]))?;
        Ok((res, c, elapsed))
    };

    if !ctx.trace {
        let samples = closed_loop(ctx.seconds, ctx.scale.min_ops, n, out, |i| {
            op(fig6, i).map(|(_, _, elapsed)| elapsed)
        });
        crate::record_cycle_latency(&samples, n, out);
        return;
    }

    // Traced run: after each traced op, replay its layers through their
    // public calls on the op's own inputs.
    let cfg = flow_config(ctx);
    let mut engine = IltEngine::new(flow_model(ctx), cfg.refinement.clone());
    let factor = cfg.pool_factor();
    let halo_px = (cfg.mask_halo_nm.unwrap_or(0.0) / model.pixel_nm()).ceil() as usize;
    let mut legs = Legs::default();
    let mut net_in = Tensor::zeros(&[1]);
    let mut net_out = Tensor::zeros(&[1]);
    let mut grad = vec![0.0f32; cfg.litho_size * cfg.litho_size];
    let mut aerial = vec![0.0f32; cfg.litho_size * cfg.litho_size];
    let traced = harness::trace_phases(ctx.seconds, n, out, fig6, |fig6, i, traced| {
        let (res, c, elapsed) = op(fig6, i)?;
        if !traced {
            return Ok(elapsed);
        }
        let target = &fig6.clips[c];
        let (pooled, t_pool) = timed(|| target.avg_pool(factor));
        let ((), t_infer) = timed(|| {
            field_to_tensor_into(&pooled, &mut net_in);
            fig6.flow.generator_mut().infer_into(&net_in, &mut net_out);
        });
        let (_, t_glue) = timed(|| {
            let up = tensor_to_field(&net_out, 0).upsample_bilinear(factor);
            (up, target.dilate_box(halo_px, 0.5))
        });
        let (replay, t_ilt) = timed(|| engine.optimize_from(target, &res.generator_mask));
        let replay = replay.map_err(|e| format!("ILT replay on clip {c}: {e}"))?;
        if replay.iterations != res.refinement_iterations || replay.mask != res.mask {
            return Err(format!(
                "ILT replay on clip {c}: {} iterations vs the flow's {}, masks equal: {}",
                replay.iterations,
                res.refinement_iterations,
                replay.mask == res.mask
            ));
        }
        // Median of three back-to-back calls, as warm as the ILT loop's.
        let t_grad = median(
            &(0..3)
                .map(|_| {
                    timed(|| model.gradient_into(&res.generator_mask, target, 1.0, &mut grad)).1
                })
                .collect::<Vec<_>>(),
        );
        let (_, t_aerial) = timed(|| model.aerial_image_into(&res.mask, &mut aerial));
        let (_, t_metrics) =
            timed(|| MaskMetrics::evaluate(&model, &res.mask, target, &DefectConfig::default()));
        let iters = res.refinement_iterations.max(1) as f64;
        legs.flow_self.push(t_pool + t_glue);
        legs.infer.push(t_infer);
        legs.gradient.push(t_grad);
        legs.aerial.push(t_aerial);
        legs.metrics.push(t_metrics);
        legs.iter.push((t_ilt - t_aerial).max(0.0) / iters);
        legs.iter_grad.push(iters * t_grad);
        let covered = t_pool + t_glue + t_infer + t_ilt + t_metrics;
        legs.remainder.push(elapsed.as_secs_f64() - covered);
        Ok(elapsed)
    });

    let op_p50 = traced.quantile(0.5);
    let m = &mut out.metrics;
    m.set("trace.unexplained_share", median(&legs.remainder) / op_p50);
    let (fwd_us, inv_us) = harness::rfft_us(cfg.litho_size, fig6.clips[0].as_slice());
    m.set("fft.rfft_fwd_us", fwd_us);
    m.set("fft.rfft_inv_us", inv_us);
    let (grad_s, iter_s) = (median(&legs.gradient), median(&legs.iter));
    let (aerial_s, metrics_s) = (median(&legs.aerial), median(&legs.metrics));
    m.set("litho.gradient_ms", grad_s * 1e3);
    m.set("litho.aerial_ms", aerial_s * 1e3);
    m.set("litho.metrics_ms", metrics_s * 1e3);
    m.set("litho.gradient_share", median(&legs.iter_grad) / op_p50);
    m.set("litho.share", (median(&legs.iter_grad) + aerial_s + metrics_s) / op_p50);
    m.set("ilt.iter_ms", iter_s * 1e3);
    m.set("ilt.update_self_ms", (iter_s - grad_s) * 1e3);
    m.set("nn.infer_ms", median(&legs.infer) * 1e3);
    m.set("nn.share", median(&legs.infer) / op_p50);
    m.set("ganopc.flow_self_ms", median(&legs.flow_self) * 1e3);
    let s = &ctx.scale;
    m.set("nn.gemm_gflops", crate::generator_gemm_gflops(s.net, s.base));
    crate::absent(
        m,
        &[
            "nn.g_forward_ms",
            "nn.g_backward_ms",
            "nn.optimizer_ms",
            "ganopc.batch_us",
            "ganopc.step_self_ms",
            "ganopc.train_step_legacy_ms",
            "ganopc.train_step_legacy_crew_ms",
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selftest::{tiny_ctx, SERIAL};
    use crate::Workload;

    /// Negative control: one flipped mask pixel must fail the gate.
    #[test]
    fn gate_catches_one_flipped_pixel() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let ctx = tiny_ctx(Workload::Fig6Flow, false);
        let _cleanup = crate::RunDir(ctx.run_dir.clone());
        ganopc_litho::cache::set_cache_dir(Some(ctx.run_dir.join("kernel-cache")));
        let (mut fig6, _) = setup(&ctx);
        let model = flow_model(&ctx);
        let (first, _, counted) = flow_op(&mut fig6, 0).expect("flow op");
        let target = fig6.clips[0].clone();
        let hash = gate(&model, &target, &first, counted, None).expect("first pass passes");
        let (again, _, counted) = flow_op(&mut fig6, 0).expect("flow op");
        assert_eq!(gate(&model, &target, &again, counted, Some(hash)), Ok(hash));

        let mut flipped = again.clone();
        let (y, x) = (target.shape().0 / 2, target.shape().1 / 2);
        flipped.mask.set(y, x, 1.0 - flipped.mask.get(y, x));
        assert!(gate(&model, &target, &flipped, counted, Some(hash)).is_err());
        let mut gray = again.clone();
        gray.mask.set(y, x, 0.5);
        assert!(gate(&model, &target, &gray, counted, None).is_err());
        assert!(gate(&model, &target, &again, counted + 1, Some(hash)).is_err());
    }
}

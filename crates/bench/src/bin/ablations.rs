//! Ablation studies on the design choices DESIGN.md §4 calls out:
//!
//! 1. **pair vs mask-only discriminator** (Section 3.2 / Eq. (6)): the
//!    mask-only GAN cannot enforce a one-one target→mask mapping, so its
//!    mask L2 stays high;
//! 2. **α, the L2-term weight** in the generator loss (Eq. (9));
//! 3. **pre-training budget** (Algorithm 2) vs final training loss;
//! 4. **SOCS kernel count N_h** (Eq. (2), paper picks 24): accuracy vs
//!    runtime of the litho model.
//!
//! ```text
//! cargo run -p ganopc-bench --release --bin ablations
//! ```

use ganopc_bench::{build_dataset, pretrain_model, Scale};
use ganopc_core::pretrain::{pretrain_generator, PretrainConfig};
use ganopc_core::{Discriminator, GanTrainer, Generator, TrainConfig};
use ganopc_litho::metrics::squared_l2_nm2;
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::loss::bce_scalar_label;
use ganopc_nn::optim::Sgd;
use std::time::Instant;

fn tail_mean(v: &[f64]) -> f64 {
    let n = (v.len() / 5).max(1);
    v[v.len() - n..].iter().sum::<f64>() / n as f64
}

/// Measures whether a generator learned a one-one target→mask *mapping*:
/// compares its masks against the matched references and against a shuffled
/// (wrong) assignment. A true mapping scores matched ≪ shuffled; a
/// distribution-only generator scores them alike (the Eq. (6) failure mode).
fn mapping_gap(generator: &mut Generator, dataset: &ganopc_core::OpcDataset) -> (f64, f64) {
    let n = dataset.len();
    let mut matched = 0.0f64;
    let mut shuffled = 0.0f64;
    for i in 0..n {
        let (t, _) = dataset.batch(&[i]);
        let m = generator.forward(&t, false);
        let own = dataset.masks()[i].as_slice();
        let other = dataset.masks()[(i + n / 2).max(i + 1) % n].as_slice();
        let d = |reference: &[f32]| -> f64 {
            m.as_slice().iter().zip(reference).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>()
                / m.len() as f64
        };
        matched += d(own);
        shuffled += d(other);
    }
    (matched / n as f64, shuffled / n as f64)
}

/// Ablation 1: mask-only discriminator (conventional GAN objective,
/// Eq. (4)–(6)) vs the pair discriminator of Eq. (7)–(8).
fn ablate_discriminator(scale: Scale) {
    println!("== ablation 1: pair vs mask-only discriminator ==");
    let dataset = build_dataset(scale, 424_242);
    let iters = scale.gan_iters();
    let net = scale.net_size();

    // Pair variant (the paper's design) — reuse the standard trainer.
    let mut tcfg = TrainConfig::paper_scaled();
    tcfg.iterations = iters;
    tcfg.batch_size = 4;
    let mut trainer =
        GanTrainer::new(Generator::new(net, 8, 1), Discriminator::new(net, 8, 2), tcfg);
    let pair_stats = trainer.train(&dataset);
    let pair_l2: Vec<f64> = pair_stats.iter().map(|s| s.l2_loss).collect();
    let (mut pair_gen, _) = trainer.into_networks();
    let (pair_matched, pair_shuffled) = mapping_gap(&mut pair_gen, &dataset);

    // Mask-only variant: same loop but adversarial gradient comes from a
    // mask-only discriminator and — crucially — no L2 anchor (the pure
    // Eq. (4)/(5) objective the paper argues is insufficient).
    let mut g = Generator::new(net, 8, 1);
    let mut d = Discriminator::mask_only(net, 8, 2);
    let mut opt_g = Sgd::new(0.02, 0.5);
    let mut opt_d = Sgd::new(0.01, 0.5);
    let mut mask_only_l2 = Vec::with_capacity(iters);
    let mut order = dataset.epoch_order(7);
    let mut cursor = 0usize;
    let mut epoch = 0u64;
    for _ in 0..iters {
        let mut idx = Vec::with_capacity(4);
        while idx.len() < 4 {
            if cursor == order.len() {
                epoch += 1;
                order = dataset.epoch_order(7 + epoch);
                cursor = 0;
            }
            idx.push(order[cursor]);
            cursor += 1;
        }
        let (targets, refs) = dataset.batch(&idx);
        // G update via D only.
        let masks = g.forward(&targets, true);
        let p = d.forward_mask(&masks, true);
        let (_, gp) = bce_scalar_label(&p, 1.0);
        d.zero_grads();
        let mut gm = d.backward_mask(&gp);
        gm.scale_assign(1.0 / 4.0);
        g.zero_grads();
        g.backward(&gm);
        opt_g.step(g.net_mut());
        d.zero_grads();
        // D update.
        let pr = d.forward_mask(&refs, true);
        let (_, mut gr) = bce_scalar_label(&pr, 1.0);
        gr.scale_assign(1.0 / 4.0);
        d.backward_mask(&gr);
        let pf = d.forward_mask(&masks, true);
        let (_, mut gf) = bce_scalar_label(&pf, 0.0);
        gf.scale_assign(1.0 / 4.0);
        d.backward_mask(&gf);
        opt_d.step(d.net_mut());
        d.zero_grads();
        // Track the *mapping* quality: per-pixel L2 vs the matched reference.
        let diff: f64 = masks
            .as_slice()
            .iter()
            .zip(refs.as_slice())
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / masks.len() as f64;
        mask_only_l2.push(diff);
    }

    let (mo_matched, mo_shuffled) = mapping_gap(&mut g, &dataset);

    println!("  final mask L2 vs matched references (last 20%):");
    println!("    pair discriminator + L2 : {:.5}", tail_mean(&pair_l2));
    println!("    mask-only, no L2 anchor : {:.5}", tail_mean(&mask_only_l2));
    println!("  one-one mapping test (matched / shuffled reference L2):");
    println!(
        "    pair      : {pair_matched:.5} / {pair_shuffled:.5}  (gap x{:.2})",
        pair_shuffled / pair_matched.max(1e-12)
    );
    println!(
        "    mask-only : {mo_matched:.5} / {mo_shuffled:.5}  (gap x{:.2})",
        mo_shuffled / mo_matched.max(1e-12)
    );
    println!("  expectation (Section 3.2): the pair variant separates matched from");
    println!("  shuffled references much more strongly — it learned a mapping, not");
    println!("  just a mask distribution.\n");
}

/// Ablation 2: sweep the L2 weight α (Eq. (9) necessity).
fn ablate_alpha(scale: Scale) {
    println!("== ablation 2: generator L2 weight α ==");
    let dataset = build_dataset(scale, 424_242);
    for alpha in [0.0f32, 0.25, 1.0, 4.0] {
        let mut tcfg = TrainConfig::paper_scaled();
        tcfg.iterations = scale.gan_iters() / 2;
        tcfg.batch_size = 4;
        tcfg.alpha = alpha;
        let mut trainer = GanTrainer::new(
            Generator::new(scale.net_size(), 8, 1),
            Discriminator::new(scale.net_size(), 8, 2),
            tcfg,
        );
        let stats = trainer.train(&dataset);
        let l2: Vec<f64> = stats.iter().map(|s| s.l2_loss).collect();
        println!("  alpha {alpha:>5.2}: final mask L2 {:.5}", tail_mean(&l2));
    }
    println!("  expectation (Eq. (9)): larger alpha anchors the generator to the");
    println!("  references and lowers the regression loss.\n");
}

/// Ablation 3: pre-training budget vs adversarial training outcome, judged
/// on held-out clips by both mask regression and *lithography* error (the
/// quantity pre-training actually optimizes).
fn ablate_pretraining(scale: Scale) {
    println!("== ablation 3: ILT-guided pre-training budget ==");
    let dataset = build_dataset(scale, 424_242);
    let (train, val) = ganopc_core::validate::split_dataset(&dataset, 0.25, 99).expect("split");
    let model = pretrain_model(scale);
    for pre_iters in [0usize, scale.pretrain_iters() / 2, scale.pretrain_iters()] {
        let mut g = Generator::new(scale.net_size(), 8, 1);
        if pre_iters > 0 {
            let mut pcfg = PretrainConfig::paper_scaled();
            pcfg.iterations = pre_iters;
            pcfg.batch_size = 4;
            pretrain_generator(&mut g, &model, &train, &pcfg).expect("pretrain");
        }
        let mut tcfg = TrainConfig::paper_scaled();
        tcfg.iterations = scale.gan_iters() / 2;
        tcfg.batch_size = 4;
        let mut trainer = GanTrainer::new(g, Discriminator::new(scale.net_size(), 8, 2), tcfg);
        let stats = trainer.train(&train);
        let l2: Vec<f64> = stats.iter().map(|s| s.l2_loss).collect();
        let (mut g, _) = trainer.into_networks();
        let report = ganopc_core::validate::evaluate_generator(&mut g, &model, &val).expect("eval");
        println!(
            "  pretrain {pre_iters:>4} iters: train mask L2 {:.5}, held-out mask L2 {:.5}, held-out litho error {:.1}",
            tail_mean(&l2),
            report.mask_l2,
            report.litho_error
        );
    }
    println!("  expectation (Fig. 7 / Section 3.4): pre-training lowers the held-out");
    println!("  lithography error even where mask regression looks similar.\n");
}

/// Ablation 4: SOCS kernel count N_h (Eq. (2)).
fn ablate_kernel_count(scale: Scale) {
    println!("== ablation 4: SOCS kernel count N_h ==");
    let size = scale.litho_size();
    // Reference wafer from the full 24-kernel stack.
    let reference_model = LithoModel::iccad2013_like(size).expect("model");
    let suite = ganopc_bench::rasterized_suite(size);
    let (_, target) = &suite[0];
    let reference = reference_model.print_nominal(target);
    let px = reference_model.pixel_nm();
    for n_h in [2usize, 6, 12, 24] {
        let mut cfg = OpticalConfig::default_32nm(2048.0 / size as f64);
        cfg.num_kernels = n_h;
        let model = LithoModel::new(cfg, size, size).expect("model");
        let t0 = Instant::now();
        let wafer: Field = model.print_nominal(target);
        let dt = t0.elapsed().as_secs_f64();
        let dev = squared_l2_nm2(&wafer, &reference, px);
        println!(
            "  N_h {n_h:>2}: aerial+resist {dt:>6.3}s, wafer deviation from N_h=24: {dev:>10.0} nm²"
        );
    }
    println!("  expectation: deviation shrinks with N_h while runtime grows ~linearly\n");
}

/// Ablation 5: heavy-ball momentum in the ILT solver.
fn ablate_ilt_momentum(scale: Scale) {
    use ganopc_ilt::{IltConfig, IltEngine};
    println!("== ablation 5: ILT heavy-ball momentum ==");
    let size = scale.litho_size();
    let suite = ganopc_bench::rasterized_suite(size);
    for mu in [0.0f32, 0.3, 0.5, 0.7] {
        let mut total_l2 = 0.0;
        let mut total_iters = 0usize;
        for (_, target) in suite.iter().take(3) {
            let mut cfg = IltConfig::mosaic();
            cfg.momentum = mu;
            cfg.max_iterations = scale.ilt_iters();
            let mut engine =
                IltEngine::new(LithoModel::iccad2013_like_cached(size).expect("model"), cfg);
            let r = engine.optimize(target).expect("ilt");
            total_l2 += r.binary_l2_nm2;
            total_iters += r.iterations;
        }
        println!(
            "  momentum {mu:>3.1}: mean L2 {:>8.0} nm², mean iterations {:>5.1}",
            total_l2 / 3.0,
            total_iters as f64 / 3.0
        );
    }
    println!("  expectation: momentum reaches lower error in the same budget\n");
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("scale: {scale:?}\n");
    ablate_discriminator(scale);
    ablate_alpha(scale);
    ablate_pretraining(scale);
    ablate_kernel_count(scale);
    ablate_ilt_momentum(scale);
}

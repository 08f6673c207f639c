//! Thread-count invariance of training.
//!
//! All parallel sites (GEMM blocks, per-sample convolutions, Hopkins kernel
//! loops, per-sample litho gradients) reduce in fixed index order, so a
//! training run must produce bit-identical statistics whether the pool uses
//! one worker or many. This is the single test in this binary because it
//! toggles the process-wide thread-count override.

use ganopc_core::pretrain::pretrain_generator;
use ganopc_core::{Discriminator, GanTrainer, Generator, OpcDataset, PretrainConfig, TrainConfig};
use ganopc_ilt::IltConfig;
use ganopc_litho::{LithoModel, OpticalConfig};

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ganopc_nn::pool::set_max_threads(Some(threads));
    let out = f();
    ganopc_nn::pool::set_max_threads(None);
    out
}

#[test]
fn training_stats_are_identical_for_any_thread_count() {
    let dataset = OpcDataset::synthesize(32, 2, IltConfig::fast(), 99).unwrap();

    // Observability must observe, never perturb. The span/counter hooks are
    // unconditionally active in every closure below (so each 1/3/4-thread
    // comparison already runs instrumented); the one opt-in recorder — the
    // ILT EPE trace, which replays aerial images into private scratch — is
    // checked here: synthesis with the trace enabled must reproduce the
    // untraced dataset bit-for-bit.
    ganopc_obs::set_epe_trace_stride(4);
    let traced = OpcDataset::synthesize(32, 2, IltConfig::fast(), 99).unwrap();
    ganopc_obs::set_epe_trace_stride(0);
    assert_eq!(dataset.targets(), traced.targets(), "EPE trace perturbed synthesized targets");
    assert_eq!(dataset.masks(), traced.masks(), "EPE trace perturbed ILT reference masks");

    // Adversarial training (Algorithm 1): StepStats derive PartialEq over
    // f64 fields, so equality here is bitwise.
    let train = || {
        let generator = Generator::new(32, 4, 5);
        let discriminator = Discriminator::new(32, 4, 6);
        let mut trainer = GanTrainer::new(generator, discriminator, TrainConfig::fast());
        trainer.train(&dataset)
    };
    let serial = with_threads(1, train);
    let uneven = with_threads(3, train);
    let parallel = with_threads(4, train);
    assert_eq!(serial, parallel, "GanTrainer::train diverged across thread counts");
    assert_eq!(serial, uneven, "GanTrainer::train diverged on an uneven worker split");

    // ILT-guided pre-training (Algorithm 2) exercises the litho-model pool
    // sites as well.
    let litho = {
        let mut cfg = OpticalConfig::default_32nm(2048.0 / 32.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 6;
        LithoModel::new(cfg, 32, 32).unwrap()
    };
    let pretrain = || {
        let mut generator = Generator::new(32, 4, 7);
        pretrain_generator(&mut generator, &litho, &dataset, &PretrainConfig::fast()).unwrap()
    };
    let serial = with_threads(1, pretrain);
    let uneven = with_threads(3, pretrain);
    let parallel = with_threads(4, pretrain);
    assert_eq!(serial, parallel, "pretrain_generator diverged across thread counts");
    assert_eq!(serial, uneven, "pretrain_generator diverged on an uneven worker split");

    // The spectral-engine hot paths directly: aerial image and the Eq. (14)
    // gradient on a 128-px frame must be bit-identical whether the Hopkins
    // kernel loop runs on one worker or four — the per-kernel partial
    // intensities and gradient terms are reduced serially in kernel order.
    let litho128 = {
        let mut cfg = OpticalConfig::default_32nm(2048.0 / 128.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        LithoModel::new(cfg, 128, 128).unwrap()
    };
    let mask = {
        let mut m = vec![0.0f32; 128 * 128];
        for y in 40..88 {
            for x in 32..96 {
                // A soft-edged bar: exercises both saturated and fractional
                // mask values through the sigmoid chain.
                m[y * 128 + x] = if (48..80).contains(&x) { 1.0 } else { 0.4 };
            }
        }
        ganopc_litho::Field::from_vec(128, 128, m)
    };
    let target = mask.map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    let litho_eval = || {
        let aerial = litho128.aerial_image(&mask);
        let mut grad = vec![0.0f32; 128 * 128];
        let error = litho128.gradient_into(&mask, &target, 1.0, &mut grad).unwrap();
        (aerial, error, grad)
    };
    let (a1, e1, g1) = with_threads(1, litho_eval);
    let (a3, e3, g3) = with_threads(3, litho_eval);
    let (a4, e4, g4) = with_threads(4, litho_eval);
    assert_eq!(e1.to_bits(), e4.to_bits(), "litho error diverged across thread counts");
    assert_eq!(a1.as_slice(), a4.as_slice(), "aerial image diverged across thread counts");
    assert_eq!(g1.as_slice(), g4.as_slice(), "Eq. (14) gradient diverged across thread counts");
    // Three workers force ±1-sized chunk splits over the 8 Hopkins kernels;
    // the serial kernel-order reduction must hide the uneven partition.
    assert_eq!(e1.to_bits(), e3.to_bits(), "litho error diverged on an uneven worker split");
    assert_eq!(a1.as_slice(), a3.as_slice(), "aerial image diverged on an uneven worker split");
    assert_eq!(g1.as_slice(), g3.as_slice(), "Eq. (14) gradient diverged on an uneven split");

    // The batched no-grad fast path (`Generator::infer_into`) drives the
    // fused forward kernels through persistent buffers; it must be
    // bit-identical across thread counts, including on the second call that
    // reuses warm buffers.
    let (targets, _) = dataset.batch(&[0, 1]);
    let infer = || {
        let mut generator = Generator::new(32, 4, 11);
        let mut out = ganopc_nn::Tensor::zeros(&[1]);
        generator.infer_into(&targets, &mut out);
        generator.infer_into(&targets, &mut out);
        out
    };
    let serial = with_threads(1, infer);
    let uneven = with_threads(3, infer);
    let parallel = with_threads(4, infer);
    assert_eq!(
        serial.as_slice(),
        parallel.as_slice(),
        "Generator::infer_into diverged across thread counts"
    );
    assert_eq!(
        serial.as_slice(),
        uneven.as_slice(),
        "Generator::infer_into diverged on an uneven worker split"
    );
}

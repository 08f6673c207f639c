//! Allocation-regression guard for the zero-allocation engine.
//!
//! After a warmup that sizes every persistent buffer (layer scratch, the
//! Sequential tape, optimizer moments, loss-gradient buffers, the trainer's
//! own scratch), steady-state `GanTrainer::train_step` and
//! `Generator::infer_into` must perform **zero** heap allocations. A counting
//! global allocator makes any regression an immediate test failure rather
//! than a slow perf drift.
//!
//! The guarantee now covers the parallel path too: the persistent work-crew
//! dispatches through a shared job descriptor and atomic chunk claims, with
//! no job or result vectors, so after a warmup that spawns the crew and
//! sizes per-worker scratch a 4-thread steady state is also allocation-free.
//! This is the single test in this binary because both the allocator counter
//! and the thread override are process-wide.
//!
//! The obs instrumentation (span timers, counters, trace rings) is active
//! on every measured path and is itself covered by a dedicated block: the
//! zero-allocation guarantee holds *with metrics recording enabled*.
//!
//! The lithography and ILT hot paths are covered too: a warm model's Eq. (14)
//! gradient and aerial image allocate nothing at 1 and 4 threads (the FFT
//! working planes are per-thread and grow once), and a warm ILT run's
//! allocation count does not depend on how many descent iterations it takes.
//!
//! So are both trainers' step loops: a warm `GanTrainer` (Algorithm 1) and a
//! warm `Pretrainer` (Algorithm 2) reuse their shuffle streams and batch
//! buffers across `train_for` calls, so their allocation counts do not
//! depend on how many steps (and epoch boundaries) a call runs.

use ganopc_core::{
    Discriminator, GanTrainer, Generator, OpcDataset, PretrainConfig, Pretrainer, TrainConfig,
};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// A 64-px, 8-kernel lithography model.
fn litho_model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / 64.0);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 8;
    LithoModel::new(cfg, 64, 64).unwrap()
}

#[test]
fn steady_state_training_and_inference_allocate_nothing() {
    ganopc_nn::pool::set_max_threads(Some(1));

    let dataset = OpcDataset::synthesize(32, 4, IltConfig::fast(), 42).unwrap();
    let (targets, refs) = dataset.batch(&[0, 1, 2, 3]);

    // Training steady state: two warmup steps size every buffer (the second
    // catches anything lazily grown on first reuse), then three measured
    // steps must not touch the allocator.
    let generator = Generator::new(32, 4, 1);
    let discriminator = Discriminator::new(32, 4, 2);
    let mut trainer = GanTrainer::new(generator, discriminator, TrainConfig::fast());
    for _ in 0..2 {
        trainer.train_step(&targets, &refs);
    }
    let before = allocations();
    for _ in 0..3 {
        trainer.train_step(&targets, &refs);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "train_step allocated {delta} times after warmup");

    // Algorithm 1 through `train_for`: four clips at batch 2 cross an epoch
    // boundary every two steps. The trainer keeps its shuffle stream and
    // batch buffers, so after a warm call 3 and 6 further steps allocate the
    // same count (the returned statistics vector).
    trainer.train_for(&dataset, 4);
    let mut count = |steps: usize| {
        let before = allocations();
        let stats = trainer.train_for(&dataset, steps);
        let delta = allocations() - before;
        assert_eq!(stats.len(), steps);
        delta
    };
    let (short, long) = (count(3), count(6));
    assert_eq!(short, long, "warm GAN training allocated {short} times in 3 steps, {long} in 6");

    // Batched inference fast path.
    let mut g = Generator::new(32, 4, 3);
    let mut out = ganopc_nn::Tensor::zeros(&[1]);
    for _ in 0..2 {
        g.infer_into(&targets, &mut out);
    }
    let before = allocations();
    for _ in 0..3 {
        g.infer_into(&targets, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "infer_into allocated {delta} times after warmup");

    // Parallel steady state: the work-crew hands chunks out through the
    // shared descriptor, so beyond the warmup (which spawns the workers and
    // sizes their thread-local scratch) a 4-way dispatch allocates nothing
    // either.
    ganopc_nn::pool::set_max_threads(Some(4));
    for _ in 0..2 {
        trainer.train_step(&targets, &refs);
    }
    let before = allocations();
    for _ in 0..3 {
        trainer.train_step(&targets, &refs);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "train_step allocated {delta} times after warmup at 4 threads");

    for _ in 0..2 {
        g.infer_into(&targets, &mut out);
    }
    let before = allocations();
    for _ in 0..3 {
        g.infer_into(&targets, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "infer_into allocated {delta} times after warmup at 4 threads");

    // Metrics recording itself is allocation-free: counters, span guards,
    // and trace pushes write fixed static slots. Every measured loop above
    // already ran with the train/infer spans and pool counters recording;
    // this block pins the obs primitives directly so a future change that
    // buys convenience with a heap allocation fails here by name.
    use ganopc_obs as obs;
    let before = allocations();
    for i in 0..64 {
        let sp = obs::span(obs::Span::TrainStep);
        obs::counter_add(obs::Counter::TrainSteps, 1);
        obs::trace_push(obs::Trace::IltLoss, i as f64);
        drop(sp);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "obs recording allocated {delta} times");

    // Lithography hot paths. The warmup grows the litho scratch and the FFT
    // working planes of every thread that runs a transform; after it, the
    // gradient and the aerial image allocate nothing, serially and through
    // the 4-way crew.
    let litho = litho_model();
    let mut target = Field::zeros(64, 64);
    for y in 20..44 {
        for x in 24..40 {
            target.set(y, x, 1.0);
        }
    }
    let mask = target.map(|v| 0.3 + 0.4 * v);
    let mut grad = vec![0.0f32; 64 * 64];
    let mut aerial = vec![0.0f32; 64 * 64];
    for threads in [1, 4] {
        ganopc_nn::pool::set_max_threads(Some(threads));
        let mut litho_calls = || {
            litho.gradient_into(&mask, &target, 1.0, &mut grad).unwrap();
            litho.aerial_image_into(&mask, &mut aerial).unwrap();
        };
        for _ in 0..4 {
            litho_calls();
        }
        let before = allocations();
        for _ in 0..3 {
            litho_calls();
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "litho gradient + aerial allocated {delta} times at {threads} threads"
        );
    }

    // ILT descent: the loop's buffers are hoisted, so a warm run allocates
    // the same at 8 and at 16 iterations. Tolerance −∞ and a patience far
    // beyond the run keep either from stopping early; the small step keeps
    // the error falling, so the long run finds new best masks after
    // iteration 8 and the comparison exercises the best-mask update.
    ganopc_nn::pool::set_max_threads(Some(1));
    let ilt_allocations = |model: LithoModel, max_iterations: usize| {
        let config = IltConfig {
            max_iterations,
            step_size: 0.1,
            tolerance: f64::NEG_INFINITY,
            patience: 1 << 20,
            ..IltConfig::fast()
        };
        let mut engine = IltEngine::new(model, config);
        engine.optimize(&target).unwrap();
        let before = allocations();
        let result = engine.optimize(&target).unwrap();
        let delta = allocations() - before;
        assert_eq!(result.iterations, max_iterations, "the run stopped early");
        (delta, result.l2_history)
    };
    let (short, _) = ilt_allocations(litho, 8);
    let (long, history) = ilt_allocations(litho_model(), 16);
    let best = |h: &[f64]| h.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(best(&history[8..]) < best(&history[..8]), "no new best mask after iteration 8");
    assert_eq!(short, long, "warm ILT allocated {short} times at 8 iterations, {long} at 16");

    // Algorithm 2: four clips at batch 2 cross an epoch boundary every two
    // steps. After a warm call, 3 and 6 further steps allocate the same
    // count (the returned statistics vector). Serial only: through the
    // crew, which worker first serves a whole-sample gradient depends on
    // chunk claiming, and that worker's per-thread litho scratch grows then.
    let mut optics = OpticalConfig::default_32nm(2048.0 / 32.0);
    optics.pupil_grid = 11;
    optics.num_kernels = 6;
    let pre_model = LithoModel::new(optics, 32, 32).unwrap();
    let config =
        PretrainConfig { iterations: 1000, batch_size: 2, lr: 0.01, momentum: 0.5, seed: 9 };
    let mut pretrainer = Pretrainer::new(Generator::new(32, 4, 5), config);
    pretrainer.train_for(&pre_model, &dataset, 4).unwrap();
    let mut count = |steps: usize| {
        let before = allocations();
        let stats = pretrainer.train_for(&pre_model, &dataset, steps).unwrap();
        let delta = allocations() - before;
        assert_eq!(stats.len(), steps);
        delta
    };
    let (short, long) = (count(3), count(6));
    assert_eq!(short, long, "warm pretraining allocated {short} times in 3 steps, {long} in 6");

    ganopc_nn::pool::set_max_threads(None);
}

//! Fault-soak gate: short training / pretraining / ILT sessions under
//! seeded fault plans ([`ganopc_fault::plan_from_seed`]) must complete or
//! fail with a typed error — never panic — and every artifact that
//! survives on disk must reload. Plus targeted single-fault tests for
//! each write-fault kind, the read-fault hook, NaN-at-step-k recovery,
//! and the rollback bit-identity guarantee.
//!
//! This whole file is compiled only with the `fault-inject` feature;
//! `scripts/check.sh` runs it as
//! `cargo test --features fault-inject -p ganopc-core --test fault_soak`.
#![cfg(feature = "fault-inject")]

use ganopc_core::pretrain::pretrain_generator;
use ganopc_core::{
    Discriminator, GanOpcError, GanTrainer, Generator, OpcDataset, PretrainConfig,
    SupervisorConfig, TrainConfig, TrainSupervisor,
};
use ganopc_fault as fault;
use ganopc_fault::{Domain, FaultPlan, NumericFault, WriteFault};
use ganopc_geometry::io::write_atomic;
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::checkpoint::Checkpoint;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The fault sink is process-global: every test that installs a plan
/// holds this lock so concurrent test threads cannot see each other's
/// faults.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn faults_serialized() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dataset() -> OpcDataset {
    OpcDataset::synthesize(32, 3, IltConfig::fast(), 42).unwrap()
}

fn litho_model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / 32.0);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 6;
    LithoModel::new(cfg, 32, 32).unwrap()
}

fn tiny_trainer(seed: u64) -> GanTrainer {
    GanTrainer::new(
        Generator::new(32, 4, seed),
        Discriminator::new(32, 4, seed ^ 1),
        TrainConfig::fast(),
    )
}

fn soak_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ganopc-fault-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Post-session invariants for a soak directory: no stray atomic-write
/// temporaries anywhere, and every surviving checkpoint decodes.
fn assert_artifacts_clean(dir: &Path) {
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
                continue;
            }
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(
                !(name.starts_with('.') && name.ends_with(".tmp")),
                "stray atomic-write temporary survived: {}",
                path.display()
            );
            if name.ends_with(".ckpt") {
                Checkpoint::load(&path)
                    .unwrap_or_else(|e| panic!("unreloadable checkpoint {}: {e}", path.display()));
            }
        }
    }
}

/// The headline soak: 36 seeded fault plans, each driving a short
/// pretraining leg plus a supervised training session plus a final
/// artifact save. Whatever the plan does, the session must complete or
/// fail typed (a panic fails this test), and afterwards the directory
/// must hold only reloadable artifacts and no temporaries.
#[test]
fn seeded_fault_plans_never_panic_and_artifacts_reload() {
    let _g = faults_serialized();
    let ds = dataset();
    let model = litho_model();
    for seed in 0..36u64 {
        let dir = soak_dir(&format!("seed{seed}"));
        fault::install(fault::plan_from_seed(seed));

        // Pretraining leg: exercises Domain::Pretrain numeric faults.
        let mut generator = Generator::new(32, 4, seed ^ 0xA5);
        let mut pcfg = PretrainConfig::fast();
        pcfg.iterations = 3;
        if let Err(e) = pretrain_generator(&mut generator, &model, &ds, &pcfg) {
            // Typed and displayable is all that is required of a failure.
            let _ = e.to_string();
        }

        // Supervised training leg: exercises Domain::Train numeric
        // faults, ring write faults, and rollback read faults.
        let cfg = SupervisorConfig {
            ckpt_ring: 2,
            checkpoint_every: 2,
            max_retries: 2,
            divergence_window: 4,
            explosion_factor: 4.0,
            lr_backoff: 0.5,
        };
        let mut sup = TrainSupervisor::new(dir.join("ring"), cfg).unwrap();
        let mut trainer =
            GanTrainer::new(generator, Discriminator::new(32, 4, seed ^ 0x5A), TrainConfig::fast());
        match sup.run(&mut trainer, &ds, 6) {
            Ok(stats) => assert!(stats.len() <= 6, "seed {seed}: more stats than steps"),
            Err(e) => {
                let _ = e.to_string();
            }
        }

        // Final artifact write attempt — may be the one the plan kills.
        let (mut generator, _) = trainer.into_networks();
        let _ = generator.save(dir.join("generator.ckpt"));

        fault::clear();
        assert_artifacts_clean(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ILT sessions under seeded plans: the descent either converges or
    /// bails with a typed error (non-finite guard, stagnation bail-out);
    /// an `Ok` result must carry a finite mask.
    #[test]
    fn ilt_sessions_survive_seeded_faults(seed in 0u64..512) {
        let _g = faults_serialized();
        let mut target = Field::zeros(32, 32);
        for r in 10..22 {
            for c in 12..20 {
                target.set(r, c, 1.0);
            }
        }
        let mut cfg = IltConfig::fast();
        cfg.max_iterations = 10;
        let mut engine = IltEngine::new(litho_model(), cfg);
        fault::install(fault::plan_from_seed(seed));
        let outcome = engine.optimize(&target);
        fault::clear();
        match outcome {
            Ok(result) => {
                prop_assert!(
                    result.mask.as_slice().iter().all(|v| v.is_finite()),
                    "Ok result carries a non-finite mask"
                );
            }
            Err(e) => {
                let _ = e.to_string(); // typed and displayable
            }
        }
    }
}

#[test]
fn torn_write_preserves_previous_artifact() {
    let _g = faults_serialized();
    let dir = soak_dir("torn");
    let path = dir.join("artifact.bin");
    write_atomic(&path, b"previous good payload").unwrap();
    let mut plan = FaultPlan::empty();
    plan.write_faults.push((0, WriteFault::Tear(3)));
    fault::install(plan);
    let err = write_atomic(&path, b"replacement that tears").unwrap_err();
    fault::clear();
    assert!(err.to_string().contains("torn"), "unexpected error: {err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"previous good payload");
    assert_artifacts_clean(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enospc_fails_the_write_and_leaves_no_debris() {
    let _g = faults_serialized();
    let dir = soak_dir("enospc");
    let path = dir.join("artifact.bin");
    let mut plan = FaultPlan::empty();
    plan.write_faults.push((0, WriteFault::Enospc));
    fault::install(plan);
    let err = write_atomic(&path, b"payload").unwrap_err();
    fault::clear();
    assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC, got {err}");
    assert!(!path.exists(), "destination must not appear after a failed write");
    assert_artifacts_clean(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_and_rename_faults_never_expose_a_partial_artifact() {
    let _g = faults_serialized();
    let dir = soak_dir("sync-rename");
    for kind in [WriteFault::Fail, WriteFault::FsyncFail, WriteFault::RenameFail] {
        let path = dir.join("artifact.bin");
        let mut plan = FaultPlan::empty();
        plan.write_faults.push((0, kind));
        fault::install(plan);
        assert!(write_atomic(&path, b"payload").is_err(), "{kind:?} did not fail the write");
        fault::clear();
        assert!(!path.exists(), "{kind:?} exposed a destination file");
        assert_artifacts_clean(&dir);
    }
    // The faults are one-shot: the very next write goes through clean.
    let path = dir.join("artifact.bin");
    write_atomic(&path, b"payload").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"payload");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_fault_fails_one_load_then_recovers() {
    let _g = faults_serialized();
    let dir = soak_dir("read");
    let path = dir.join("state.ckpt");
    let mut ck = Checkpoint::new();
    ck.put_u64("progress/step", 7);
    ck.save(&path).unwrap();
    let mut plan = FaultPlan::empty();
    plan.read_faults.push(0);
    fault::install(plan);
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(err.to_string().contains("fault-inject"), "unexpected error: {err}");
    // One-shot: the retry (same installed plan) succeeds.
    let reloaded = Checkpoint::load(&path).unwrap();
    fault::clear();
    assert_eq!(reloaded.get_u64("progress/step").unwrap(), 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A NaN poisoned into step k's reported losses trips the monitor, rolls
/// the trainer back one ring generation, and the session still completes
/// its full budget — the transient-fault recovery the supervisor exists
/// for.
#[test]
fn nan_at_step_k_is_recovered_by_rollback() {
    let _g = faults_serialized();
    let ds = dataset();
    let dir = soak_dir("nan-recovery");
    let cfg = SupervisorConfig {
        ckpt_ring: 4,
        checkpoint_every: 1,
        max_retries: 2,
        divergence_window: 4,
        explosion_factor: 1e6,
        lr_backoff: 0.5,
    };
    let mut sup = TrainSupervisor::new(&dir, cfg).unwrap();
    let mut trainer = tiny_trainer(17);
    let mut plan = FaultPlan::empty();
    plan.numeric_faults.push((Domain::Train, 3, NumericFault::Nan));
    fault::install(plan);
    let stats = sup.run(&mut trainer, &ds, 5).unwrap();
    fault::clear();
    assert_eq!(sup.retries_used(), 1, "expected exactly one recovery");
    assert!(sup.lr_scale() < 1.0, "LR backoff was not applied");
    assert_eq!(trainer.step(), 5, "session did not complete its budget");
    assert_eq!(stats.len(), 5, "surviving timeline is incomplete");
    assert!(
        stats.iter().all(|s| s.l2_loss.is_finite() && s.adversarial_loss.is_finite()),
        "poisoned stats leaked into the surviving timeline"
    );
    assert_artifacts_clean(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance guarantee: at `lr_backoff = 1.0` a supervisor recovery
/// replays exactly the math a clean run would have executed — the faulted
/// run's stats and final state are bit-identical both to an unfaulted run
/// and to a clean resume from the very ring entry the rollback restored.
#[test]
fn rollback_recovery_is_bit_identical_to_clean_resume() {
    let _g = faults_serialized();
    let ds = dataset();
    let dir = soak_dir("bit-identity");

    // Reference: the same trainer seed, no faults, no supervisor.
    let mut plain = tiny_trainer(21);
    let plain_stats = plain.train_for(&ds, 6);

    let cfg = SupervisorConfig {
        ckpt_ring: 10, // keep every generation so the rollback point survives
        checkpoint_every: 1,
        max_retries: 2,
        divergence_window: 4,
        explosion_factor: 1e6,
        lr_backoff: 1.0, // recovery must replay the exact same schedule
    };
    let mut sup = TrainSupervisor::new(&dir, cfg).unwrap();
    let mut faulted = tiny_trainer(21);
    let mut plan = FaultPlan::empty();
    plan.numeric_faults.push((Domain::Train, 4, NumericFault::Inf));
    fault::install(plan);
    let stats = sup.run(&mut faulted, &ds, 6).unwrap();
    fault::clear();
    assert_eq!(sup.retries_used(), 1, "the poison must have tripped exactly once");

    // Identical trajectory and final state despite the trip + rollback.
    assert_eq!(stats, plain_stats, "recovered trajectory diverged from the clean run");
    assert_eq!(
        faulted.to_checkpoint().to_bytes(),
        plain.to_checkpoint().to_bytes(),
        "recovered state is not bit-identical to the clean run"
    );

    // And the stronger form: resume cleanly from the ring entry the
    // rollback used (step 3, written before the poisoned step 4) and
    // train the remaining steps — same bytes again.
    let ck = Checkpoint::load(sup.ring().entry_path(3)).unwrap();
    let mut resumed = GanTrainer::from_checkpoint(ck).unwrap();
    assert_eq!(resumed.step(), 3);
    let tail = resumed.train_for(&ds, 3);
    assert_eq!(&tail[..], &plain_stats[3..], "clean-resume tail diverged");
    assert_eq!(
        resumed.to_checkpoint().to_bytes(),
        faulted.to_checkpoint().to_bytes(),
        "supervisor recovery differs from a clean resume off the same checkpoint"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write faults aimed at the ring degrade it gracefully: pushes fail
/// (counted, tolerated) and a later rollback uses the newest entry that
/// actually landed — or fails typed when none did.
#[test]
fn ring_write_faults_degrade_to_typed_divergence() {
    let _g = faults_serialized();
    let ds = dataset();
    let dir = soak_dir("ring-starved");
    let cfg = SupervisorConfig {
        ckpt_ring: 3,
        checkpoint_every: 1,
        max_retries: 2,
        divergence_window: 4,
        explosion_factor: 1e6,
        lr_backoff: 0.5,
    };
    let mut sup = TrainSupervisor::new(&dir, cfg).unwrap();
    let mut trainer = tiny_trainer(23);
    // Kill every ring write the session will attempt, then poison step 2:
    // the trip finds no rollback point and must fail typed, not panic.
    let mut plan = FaultPlan::empty();
    for op in 0..10 {
        plan.write_faults.push((op, WriteFault::Fail));
    }
    plan.numeric_faults.push((Domain::Train, 2, NumericFault::Nan));
    fault::install(plan);
    let outcome = sup.run(&mut trainer, &ds, 4);
    fault::clear();
    match outcome {
        Err(GanOpcError::Divergence(e)) => {
            assert_eq!(e.retries, 0, "no rollback point existed, so no retry was possible");
        }
        other => panic!("expected a typed divergence failure, got {other:?}"),
    }
    assert_artifacts_clean(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

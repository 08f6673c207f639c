//! Crash-safe resume: a run interrupted after `k` steps, checkpointed to
//! disk, and continued in a fresh trainer must be *bit-identical* to an
//! uninterrupted run — same per-step statistics, same final weights, same
//! optimizer state. Corrupt checkpoint files must fail with typed errors.

use ganopc_core::pretrain::pretrain_generator;
use ganopc_core::{
    Discriminator, GanOpcError, GanTrainer, Generator, OpcDataset, PretrainConfig, Pretrainer,
    TrainConfig,
};
use ganopc_ilt::IltConfig;
use ganopc_litho::{LithoModel, OpticalConfig};
use ganopc_nn::checkpoint::Checkpoint;
use std::path::PathBuf;

fn dataset() -> OpcDataset {
    OpcDataset::synthesize(32, 3, IltConfig::fast(), 42).unwrap()
}

fn litho_model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / 32.0);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 6;
    LithoModel::new(cfg, 32, 32).unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ganopc-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fresh_trainer(config: TrainConfig) -> GanTrainer {
    GanTrainer::new(Generator::new(32, 4, 5), Discriminator::new(32, 4, 6), config)
}

#[test]
fn gan_training_resumes_bit_identically() {
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 6;
    config.momentum = 0.5; // make optimizer state actually matter

    // Reference: N straight steps.
    let mut straight = fresh_trainer(config.clone());
    let straight_stats = straight.train(&ds);
    assert_eq!(straight_stats.len(), 6);

    // Interrupted: k steps, checkpoint to disk, fresh trainer, N − k steps.
    let path = temp_path("gan-trainer.ckpt");
    let mut first = fresh_trainer(config);
    let mut stats = first.train_for(&ds, 4);
    first.save_checkpoint(&path).unwrap();
    drop(first);
    let mut resumed = GanTrainer::resume(&path).unwrap();
    assert_eq!(resumed.step(), 4);
    stats.extend(resumed.train(&ds)); // runs the remaining 2

    // StepStats carries f64 losses and probabilities — PartialEq equality
    // here is bitwise equality of the whole training trajectory.
    assert_eq!(stats, straight_stats, "resumed trajectory diverged");
    assert_eq!(
        resumed.generator_mut().export_params(),
        straight.generator_mut().export_params(),
        "generator weights diverged after resume"
    );
    assert_eq!(
        resumed.discriminator_mut().export_params(),
        straight.discriminator_mut().export_params(),
        "discriminator weights diverged after resume"
    );
    // Optimizer velocity must match too, or the *next* step would diverge.
    let ck_a = resumed.to_checkpoint();
    let ck_b = straight.to_checkpoint();
    for section in ["opt_g/velocity", "opt_d/velocity"] {
        assert_eq!(
            ck_a.get_tensors(section).unwrap(),
            ck_b.get_tensors(section).unwrap(),
            "{section} diverged after resume"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn dropping_optimizer_state_would_diverge() {
    // The negative control for the bit-identity test: resuming weights but
    // not velocity must NOT reproduce the straight run (otherwise the
    // test above proves nothing about optimizer state).
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 6;
    config.momentum = 0.5;

    let mut straight = fresh_trainer(config.clone());
    let straight_stats = straight.train(&ds);

    let mut first = fresh_trainer(config);
    let _ = first.train_for(&ds, 4);
    let mut ck = first.to_checkpoint();
    // Sabotage: wipe the velocity sections (empty = "never stepped").
    ck.put_tensors("opt_g/velocity", &[]);
    ck.put_tensors("opt_d/velocity", &[]);
    let mut resumed = GanTrainer::from_checkpoint(ck).unwrap();
    let tail = resumed.train(&ds);
    assert_ne!(
        &straight_stats[4..],
        &tail[..],
        "training is insensitive to dropped optimizer velocity"
    );
}

#[test]
fn pretraining_resumes_bit_identically() {
    let ds = dataset();
    let model = litho_model();
    let mut config = PretrainConfig::fast();
    config.iterations = 5;
    config.momentum = 0.5;

    // Reference A: the one-shot entry point (proves the Pretrainer matches
    // the historical pretrain_generator semantics exactly).
    let mut g_oneshot = Generator::new(32, 4, 9);
    let oneshot_stats = pretrain_generator(&mut g_oneshot, &model, &ds, &config).unwrap();

    // Reference B: an uninterrupted Pretrainer run.
    let mut straight = Pretrainer::new(Generator::new(32, 4, 9), config.clone());
    let straight_stats = straight.train(&model, &ds).unwrap();
    assert_eq!(straight_stats, oneshot_stats, "Pretrainer diverged from pretrain_generator");

    // Split without a checkpoint: the warm stream and step buffers carry
    // over from one `train_for` call to the next.
    let mut split = Pretrainer::new(Generator::new(32, 4, 9), config.clone());
    let mut split_stats = split.train_for(&model, &ds, 2).unwrap();
    split_stats.extend(split.train(&model, &ds).unwrap());
    assert_eq!(split_stats, straight_stats, "split pre-training trajectory diverged");

    // Interrupted: 2 steps, checkpoint, fresh pre-trainer, remaining 3.
    let path = temp_path("pretrainer.ckpt");
    let mut first = Pretrainer::new(Generator::new(32, 4, 9), config);
    let mut stats = first.train_for(&model, &ds, 2).unwrap();
    first.save_checkpoint(&path).unwrap();
    drop(first);
    let mut resumed = Pretrainer::resume(&path).unwrap();
    assert_eq!(resumed.step(), 2);
    stats.extend(resumed.train(&model, &ds).unwrap());

    assert_eq!(stats, straight_stats, "resumed pre-training trajectory diverged");
    assert_eq!(
        resumed.generator_mut().export_params(),
        straight.generator_mut().export_params(),
        "generator weights diverged after pre-training resume"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_checkpoints_fail_with_typed_errors() {
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 3;
    let path = temp_path("corruptible.ckpt");
    let mut trainer = fresh_trainer(config);
    let _ = trainer.train_for(&ds, 1);
    trainer.save_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Truncations at several depths.
    for cut in [0, 7, 12, 40, bytes.len() / 2, bytes.len() - 1] {
        let p = temp_path("truncated.ckpt");
        std::fs::write(&p, &bytes[..cut]).unwrap();
        assert!(
            matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))),
            "truncation at {cut} did not fail as a checkpoint error"
        );
    }

    // A bit flip anywhere past the version field trips the CRC.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let p = temp_path("flipped.ckpt");
    std::fs::write(&p, &flipped).unwrap();
    assert!(matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))));

    // Not a checkpoint at all.
    let p = temp_path("garbage.ckpt");
    std::fs::write(&p, b"definitely not a checkpoint").unwrap();
    assert!(matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))));

    // Missing file is an I/O-flavoured checkpoint error, not a panic.
    assert!(GanTrainer::resume(temp_path("does-not-exist.ckpt")).is_err());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_kind_and_hostile_state_rejected() {
    let ds = dataset();
    let model = litho_model();

    // A pre-trainer checkpoint is not a GAN-trainer checkpoint (and vice
    // versa) — the meta/kind tag catches the mix-up with a typed error.
    let mut pre = Pretrainer::new(Generator::new(32, 4, 1), PretrainConfig::fast());
    let _ = pre.train_for(&model, &ds, 1).unwrap();
    let path = temp_path("kind-mismatch.ckpt");
    pre.save_checkpoint(&path).unwrap();
    assert!(matches!(GanTrainer::resume(&path), Err(GanOpcError::Config(_))));

    let mut config = TrainConfig::fast();
    config.iterations = 2;
    let mut trainer = fresh_trainer(config);
    let _ = trainer.train_for(&ds, 1);
    trainer.save_checkpoint(&path).unwrap();
    assert!(matches!(Pretrainer::resume(&path), Err(GanOpcError::Config(_))));

    // Hostile scalar state must surface as errors, not panics or huge
    // allocations inside network constructors.
    let base = trainer.to_checkpoint();
    let corrupt = |f: &dyn Fn(&mut Checkpoint)| {
        let mut ck = base.clone();
        f(&mut ck);
        GanTrainer::from_checkpoint(ck)
    };
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/size", 1 << 40)), Err(GanOpcError::Config(_))));
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/size", 7)), Err(GanOpcError::Config(_))));
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/g_base", 0)), Err(GanOpcError::Config(_))));
    assert!(matches!(
        corrupt(&|ck| ck.put_f64("config/momentum", 2.0)),
        Err(GanOpcError::Config(_))
    ));
    assert!(matches!(
        corrupt(&|ck| ck.put_f64("config/lr_generator", -1.0)),
        Err(GanOpcError::Config(_))
    ));
    // Velocity tensors that do not match the network layout.
    assert!(matches!(
        corrupt(&|ck| ck.put_tensors("opt_g/velocity", &[ganopc_nn::Tensor::zeros(&[3, 3])])),
        Err(GanOpcError::Config(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mask_only_discriminator_state_is_a_config_error() {
    // `arch/d_pair = 0` describes a discriminator that scores masks alone,
    // which the trainer's pair step cannot feed: loading it must fail with
    // a typed error instead of resuming into a panic at the first step. The
    // trainer has not stepped, so both velocity lists are empty and only
    // the architecture differs from a loadable state.
    let mut ck = fresh_trainer(TrainConfig::fast()).to_checkpoint();
    ck.put_u64("arch/d_pair", 0);
    ck.put_tensors("d/params", &Discriminator::mask_only(32, 4, 6).export_params());
    match GanTrainer::from_checkpoint(ck) {
        Err(GanOpcError::Config(msg)) => assert!(msg.contains("mask-only discriminator"), "{msg}"),
        other => panic!("expected a config error, got {other:?}"),
    }
}

#[test]
fn legacy_best_snapshot_sections_are_ignored() {
    // Trainer states written before the validation-training loop was
    // removed may carry `best/*` sections. They still load, and the
    // restored trainer is exactly the one the live sections describe.
    let ds = dataset();
    let mut trainer = fresh_trainer(TrainConfig::fast());
    trainer.train_for(&ds, 2);
    let mut ck = trainer.to_checkpoint();
    let clean = ck.to_bytes();
    ck.put_u64("best/report/count", 1);
    ck.put_f64("best/report/mask_l2", 0.5);
    ck.put_f64("best/report/litho_error", 12.0);
    for (best, live) in [
        ("best/g_params", "g/params"),
        ("best/d_params", "d/params"),
        ("best/opt_g", "opt_g/velocity"),
        ("best/opt_d", "opt_d/velocity"),
    ] {
        let tensors = ck.get_tensors(live).unwrap().to_vec();
        ck.put_tensors(best, &tensors);
    }
    let mut restored = GanTrainer::from_checkpoint(ck).unwrap();
    assert_eq!(restored.step(), 2);
    assert_eq!(restored.to_checkpoint().to_bytes(), clean);
}

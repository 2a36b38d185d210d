//! Failure-injection tests: the training stack must degrade gracefully
//! under numerical blow-ups, corrupt checkpoints and pathological inputs.

use orbit2::checkpoint::{
    load_model, load_trainer_state, save_model, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use orbit2::fault::{FaultAction, FaultKind, FaultPlan};
use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_tensor::Tensor;
use std::io::ErrorKind;
use std::path::PathBuf;

fn dataset() -> DownscalingDataset {
    DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 20, 3)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("orbit2_fi_{name}"))
}

#[test]
fn absurd_learning_rate_never_poisons_parameters() {
    // An exploding configuration: gigantic LR. Steps that produce
    // non-finite gradients must be skipped, leaving parameters finite.
    let ds = dataset();
    let cfg = TrainerConfig { steps: 10, lr: 1e12, warmup: 0, log_every: 1, ..Default::default() };
    let mut trainer = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 1), &ds, cfg);
    let report = trainer.train(&ds);
    for (name, t) in trainer.model.params.iter() {
        assert!(t.all_finite(), "parameter {name} went non-finite");
    }
    // Every step the blow-up suppressed must be on the record, not lost.
    assert!(
        !report.skipped.is_empty(),
        "a 1e12 learning rate must produce recorded skips"
    );
    assert_eq!(report.completed_steps + report.skipped.len(), 10);
}

#[test]
fn bf16_scaler_recovers_from_overflow() {
    // BF16 + huge initial loss scale: overflow steps are skipped, the scale
    // backs off, and training proceeds with finite parameters.
    let ds = dataset();
    let cfg = TrainerConfig { steps: 15, lr: 5e-3, warmup: 2, bf16: true, log_every: 5, ..Default::default() };
    let mut trainer = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2), &ds, cfg);
    let report = trainer.train(&ds);
    assert!(report.final_loss.unwrap().is_finite());
    for (name, t) in trainer.model.params.iter() {
        assert!(t.all_finite(), "parameter {name} went non-finite under bf16");
    }
}

#[test]
fn corrupt_checkpoint_is_rejected_not_loaded() {
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 3);
    let path = tmp_path("corrupt_model.ckpt");
    save_model(&model, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert!(load_model(&path).is_ok());

    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let err = load_model(&path).err().expect("flipped byte must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("CRC mismatch in section `params`"), "should blame the checksum: {err}");

    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let err = load_model(&path).err().expect("truncated checkpoint must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("section `params` claims"), "should name the section: {err}");

    std::fs::write(&path, "{not a checkpoint").unwrap();
    let err = load_model(&path).err().expect("garbage must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn missing_checkpoint_directory_errors_cleanly() {
    let dir = std::env::temp_dir().join("orbit2_no_such_ckpt_dir_xyz");
    let _ = std::fs::remove_dir_all(&dir);
    let err = load_model(&dir.join("model.ckpt")).err().expect("nothing to load");
    assert_eq!(err.kind(), ErrorKind::NotFound);
}

#[test]
fn inference_with_nan_input_does_not_panic() {
    // Garbage in the input field must not crash the tiled pipeline; the
    // output may be NaN but the code path survives.
    let ds = dataset();
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 4);
    let norm = orbit2_climate::Normalizer::fit(&ds, 2);
    let mut input = ds.sample(0).input;
    input.data_mut()[0] = f32::NAN;
    let pred = orbit2::inference::downscale(&model, &norm, &input, None, 1.0).unwrap();
    assert_eq!(pred.shape(), ds.sample(0).target.shape());
}

#[test]
fn extreme_compression_target_still_partitions() {
    // A compression target far beyond what the field supports must clamp
    // gracefully, not panic or drop tokens.
    let ds = dataset();
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 5);
    let norm = orbit2_climate::Normalizer::fit(&ds, 2);
    let s = ds.sample(1);
    let pred = orbit2::inference::downscale(&model, &norm, &s.input, None, 1000.0).unwrap();
    assert_eq!(pred.shape(), s.target.shape());
    assert!(pred.all_finite());
}

#[test]
fn constant_input_channel_survives_normalization() {
    // Static channels (e.g. a land mask that is all-land in a small region)
    // have ~zero variance; the normalizer's std floor must keep everything
    // finite end to end.
    let ds = dataset();
    let norm = orbit2_climate::Normalizer::fit(&ds, 2);
    let mut input = ds.sample(0).input;
    // Force one channel constant.
    let plane = input.shape()[1] * input.shape()[2];
    for v in &mut input.data_mut()[..plane] {
        *v = 0.5;
    }
    let n = norm.normalize_input(&input);
    assert!(n.all_finite());
}

#[test]
fn zero_tv_weight_and_huge_tv_weight_both_train() {
    let ds = dataset();
    for tv in [0.0f32, 10.0] {
        let cfg = TrainerConfig {
            steps: 6,
            lr: 1e-3,
            warmup: 1,
            log_every: 2,
            loss: orbit2_model::BayesianLossCfg { tv_weight: tv },
            ..Default::default()
        };
        let mut trainer =
            Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 6), &ds, cfg);
        let report = trainer.train(&ds);
        assert!(report.final_loss.unwrap().is_finite(), "tv_weight {tv} broke training");
    }
}

#[test]
fn evaluate_on_single_sample_works() {
    // Smallest possible evaluation set.
    let ds = dataset();
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 7);
    let norm = orbit2_climate::Normalizer::fit(&ds, 2);
    let reports = orbit2::eval::evaluate_model(&model, &norm, &ds, &[19], None, 1.0).unwrap();
    assert_eq!(reports.len(), 3);
    for r in reports {
        assert!(r.report.rmse.is_finite());
    }
}

#[test]
fn chaos_run_with_panic_nan_and_straggler_still_converges() {
    // The acceptance scenario: a 20-step tiled + DDP run with one injected
    // rank panic, one NaN gradient and one straggler must converge anyway,
    // and all three events must appear in the fault log.
    let ds = dataset();
    let cfg = TrainerConfig {
        steps: 20,
        lr: 2e-3,
        warmup: 2,
        tile_spec: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }),
        ddp_replicas: 2,
        log_every: 5,
        ..Default::default()
    };
    let mut trainer =
        Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 21), &ds, cfg);
    // 2 replicas x 4 tiles = 8 jobs per step.
    trainer.set_fault_plan(
        FaultPlan::none()
            .with_event(3, 2, FaultKind::Panic)
            .with_event(7, 5, FaultKind::NaNGradient)
            .with_event(12, 0, FaultKind::Straggler(5)),
    );
    let report = trainer.train(&ds);
    assert_eq!(report.completed_steps, 20, "no step may be lost to transient faults");
    let first = report.losses.first().unwrap().1;
    let last = report.final_loss.unwrap();
    assert!(last < first, "chaos run must still learn: {first} -> {last}");
    let kinds: Vec<FaultKind> = report.faults.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&FaultKind::Panic), "panic not logged: {:?}", report.faults);
    assert!(kinds.contains(&FaultKind::NaNGradient), "NaN not logged: {:?}", report.faults);
    assert!(
        kinds.contains(&FaultKind::Straggler(5)),
        "straggler not logged: {:?}",
        report.faults
    );
    // Transient faults retry clean; the straggler merely finishes late.
    for e in &report.faults {
        assert!(e.injected);
        let want = if matches!(e.kind, FaultKind::Straggler(_)) {
            FaultAction::Completed
        } else {
            FaultAction::Retried
        };
        assert_eq!(e.action, want, "unexpected recovery for {e:?}");
    }
    for (name, t) in trainer.model.params.iter() {
        assert!(t.all_finite(), "parameter {name} went non-finite under chaos");
    }
}

#[test]
fn seeded_random_fault_plan_is_deterministic_and_survivable() {
    let ds = dataset();
    let cfg = TrainerConfig {
        steps: 15,
        lr: 1e-3,
        warmup: 2,
        ddp_replicas: 2,
        log_every: 5,
        ..Default::default()
    };
    let run = |seed: u64| {
        let mut t =
            Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 22), &ds, cfg);
        t.set_fault_plan(FaultPlan::seeded(seed, 0.08, 0.08, 0.08).with_straggle_ms(3));
        t.train(&ds)
    };
    let a = run(42);
    let b = run(42);
    assert!(!a.faults.is_empty(), "p=0.24 over 30 jobs should fire at least once");
    assert_eq!(a.faults, b.faults, "same seed must inject the same faults");
    assert_eq!(a.final_loss, b.final_loss, "fault-injected runs must stay deterministic");
}

#[test]
fn nan_injected_step_is_logged_not_lost() {
    // A NaN gradient on the only job of step 2: the retry recovers it, the
    // step completes, and the event is recorded — nothing silently vanishes.
    let ds = dataset();
    let cfg = TrainerConfig { steps: 5, lr: 1e-3, warmup: 1, log_every: 1, ..Default::default() };
    let mut trainer =
        Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 23), &ds, cfg);
    trainer.set_fault_plan(FaultPlan::none().with_event(2, 0, FaultKind::NaNGradient));
    let report = trainer.train(&ds);
    assert_eq!(report.completed_steps, 5);
    assert_eq!(report.skipped, vec![]);
    assert_eq!(report.faults.len(), 1);
    let e = report.faults[0];
    assert_eq!((e.step, e.job, e.kind, e.action), (2, 0, FaultKind::NaNGradient, FaultAction::Retried));
    assert!(e.injected);
    assert!(report.losses.iter().any(|(s, l)| *s == 2 && l.is_finite()));
}

#[test]
fn persistent_failure_of_every_job_skips_the_step_with_reason() {
    use orbit2::fault::SkipReason;
    // A persistent panic on the single job of step 1 kills both the attempt
    // and the retry: the step must be skipped and say why.
    let ds = dataset();
    let cfg = TrainerConfig { steps: 3, lr: 1e-3, warmup: 0, log_every: 1, ..Default::default() };
    let mut trainer =
        Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 24), &ds, cfg);
    trainer
        .set_fault_plan(FaultPlan::none().with_event(1, 0, FaultKind::Panic).with_persistent());
    let report = trainer.train(&ds);
    assert_eq!(report.completed_steps, 2);
    assert_eq!(report.skipped, vec![(1, SkipReason::AllJobsFailed)]);
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].action, FaultAction::Dropped);
}

#[test]
fn crash_restart_resumes_bit_identically() {
    // 20 straight steps vs 10 steps + full-state checkpoint + resume + 10
    // steps: the parameters must match bit for bit.
    let ds = dataset();
    let cfg = TrainerConfig { steps: 20, lr: 2e-3, warmup: 3, log_every: 5, ..Default::default() };
    let model = || ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 25);

    let mut straight = Trainer::new(model(), &ds, cfg);
    let full = straight.train(&ds);

    let path = tmp_path("resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let mut cfg_auto = cfg;
    cfg_auto.checkpoint_every = 10;
    let mut crashed = Trainer::new(model(), &ds, cfg_auto);
    crashed.set_checkpoint_path(&path);
    crashed.train_for(&ds, 10);
    assert_eq!(crashed.global_step(), 10);
    assert!(path.exists(), "auto-checkpoint at step 10 must exist");
    drop(crashed); // the crash

    let mut resumed = Trainer::resume(&ds, cfg, &path).expect("resume from checkpoint");
    assert_eq!(resumed.global_step(), 10);
    let tail = resumed.train(&ds);
    assert_eq!(resumed.global_step(), 20);

    for (name, t) in straight.model.params.iter() {
        let r = resumed.model.params.get(name);
        assert_eq!(t.data(), r.data(), "parameter {name} diverged after resume");
    }
    assert_eq!(full.final_loss, tail.final_loss, "final loss must match bit for bit");
}

#[test]
fn truncated_trainer_checkpoint_is_rejected() {
    let ds = dataset();
    let cfg = TrainerConfig { steps: 2, lr: 1e-3, warmup: 0, log_every: 1, ..Default::default() };
    let mut t = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 26), &ds, cfg);
    t.train(&ds);
    let path = tmp_path("truncated.ckpt");
    t.save_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = load_trainer_state(&path).expect_err("truncated checkpoint must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn flipped_byte_in_trainer_checkpoint_fails_crc() {
    let ds = dataset();
    let cfg = TrainerConfig { steps: 2, lr: 1e-3, warmup: 0, log_every: 1, ..Default::default() };
    let mut t = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 27), &ds, cfg);
    t.train(&ds);
    let path = tmp_path("bitflip.ckpt");
    t.save_checkpoint(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one bit deep inside a binary payload: past the `params` index
    // line, in the raw f32 words of whichever tensor section holds the
    // file's midpoint.
    let mid = bytes.len() / 2;
    let index_end = bytes.windows(2).position(|w| w == b"]\n").expect("params index line") + 2;
    assert!(mid > index_end, "midpoint {mid} is not past the first index line ({index_end})");
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = load_trainer_state(&path).expect_err("corrupt checkpoint must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("CRC"), "should blame the checksum: {err}");
}

#[test]
fn missing_section_and_wrong_version_are_rejected() {
    let path = tmp_path("empty.ckpt");
    std::fs::write(&path, format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n")).unwrap();
    let err = load_trainer_state(&path).expect_err("headerless checkpoint must fail");
    assert!(err.to_string().contains("missing section"), "unhelpful error: {err}");

    let path = tmp_path("future.ckpt");
    std::fs::write(&path, format!("{CHECKPOINT_MAGIC} v9\n")).unwrap();
    let err = load_trainer_state(&path).expect_err("future version must fail");
    assert!(err.to_string().contains("version"), "unhelpful error: {err}");

    let path = tmp_path("not_a.ckpt");
    std::fs::write(&path, "GARBAGE\n").unwrap();
    assert!(load_trainer_state(&path).is_err());
}

#[test]
fn either_loader_reads_what_it_needs_from_the_other_save() {
    let ds = dataset();
    let cfg = TrainerConfig { steps: 3, lr: 1e-3, warmup: 0, log_every: 1, ..Default::default() };
    let mut t = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 28), &ds, cfg);
    t.train(&ds);

    // A trainer checkpoint is a model checkpoint with more sections.
    let trainer_path = tmp_path("cross_trainer.ckpt");
    t.save_checkpoint(&trainer_path).unwrap();
    let model = load_model(&trainer_path).unwrap();
    let resumed = Trainer::resume(&ds, cfg, &trainer_path).unwrap().model;
    assert_eq!(model.cfg, resumed.cfg);
    assert_eq!(model.params.names(), resumed.params.names());
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for (name, p) in resumed.params.iter() {
        assert_eq!(model.params.get(name).shape(), p.shape(), "parameter {name}");
        assert_eq!(bits(model.params.get(name)), bits(p), "parameter {name}");
    }

    // A model checkpoint is not a run: the first section only a trainer
    // writes is reported missing.
    let model_path = tmp_path("cross_model.ckpt");
    save_model(&t.model, &model_path).unwrap();
    let err = load_trainer_state(&model_path).expect_err("no run to resume");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("missing section `progress`"), "unhelpful error: {err}");
    assert!(Trainer::resume(&ds, TrainerConfig::default(), &model_path).is_err());
}

#[test]
fn v1_header_is_rejected_with_the_version_error() {
    // Neither the JSON bit-pattern format (v1) nor the one with an
    // accumulation window (v2) is read: a file of either — here a
    // well-formed one, CRC and all — gets the same typed error as a future
    // version, not a parse attempt.
    let payload = "{}";
    for version in [1, 2] {
        let path = tmp_path(&format!("v{version}.ckpt"));
        std::fs::write(
            &path,
            format!(
                "{CHECKPOINT_MAGIC} v{version}\nsection config {} {:08x}\n{payload}\n",
                payload.len(),
                orbit2::checkpoint::crc32(payload.as_bytes())
            ),
        )
        .unwrap();
        let err = load_trainer_state(&path).expect_err("an earlier checkpoint version must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&format!("unsupported checkpoint version {version}")), "unhelpful error: {msg}");
        assert!(msg.contains(&format!("reads version {CHECKPOINT_VERSION}")), "unhelpful error: {msg}");
    }
}

#[test]
fn tensor_ops_reject_shape_abuse() {
    use std::panic::catch_unwind;
    assert!(catch_unwind(|| Tensor::zeros(vec![2, 2]).matmul(&Tensor::zeros(vec![3, 2]))).is_err());
    assert!(catch_unwind(|| Tensor::zeros(vec![2]).add(&Tensor::zeros(vec![3]))).is_err());
    assert!(catch_unwind(|| Tensor::zeros(vec![4]).reshape(vec![3])).is_err());
    assert!(catch_unwind(|| Tensor::zeros(vec![2, 2]).slice_axis(0, 1, 5)).is_err());
}

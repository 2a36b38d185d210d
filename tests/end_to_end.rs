//! End-to-end integration: synthetic data → Reslim training → tiled
//! inference → metrics → checkpoint, across every crate in the workspace.

use orbit2::checkpoint::{load_model, save_model};
use orbit2::eval::evaluate_model;
use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Split, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};

fn dataset(seed: u64) -> DownscalingDataset {
    DownscalingDataset::new(LatLonGrid::conus(32, 64), VariableSet::daymet_like(), 4, 30, seed)
}

#[test]
fn training_improves_heldout_metrics() {
    let ds = dataset(11);
    let test_idx = ds.indices(Split::Test);

    // Untrained baseline scores.
    let untrained = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 5);
    let norm = orbit2_climate::Normalizer::fit(&ds, 4);
    let before = evaluate_model(&untrained, &norm, &ds, &test_idx, None, 1.0).unwrap();

    // Train the same architecture.
    let cfg = TrainerConfig { steps: 50, lr: 2e-3, warmup: 5, log_every: 10, ..Default::default() };
    let mut trainer = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 5), &ds, cfg);
    let report = trainer.train(&ds);
    assert!(report.final_loss.unwrap().is_finite());
    assert_eq!(report.completed_steps, 50);
    let after = evaluate_model(&trainer.model, &trainer.normalizer, &ds, &test_idx, None, 1.0).unwrap();

    // Training must improve R2 for the temperature channels.
    for (b, a) in before.iter().zip(&after) {
        if b.name.starts_with('t') {
            assert!(a.report.r2 > b.report.r2, "{}: R2 {} -> {} did not improve", b.name, b.report.r2, a.report.r2);
        }
    }
    // A trained tiny model on this easy synthetic task should reach a
    // decent temperature R2 (the paper reaches 0.99 on real data at scale).
    assert!(after[0].report.r2 > 0.5, "tmin R2 {} too low after training", after[0].report.r2);
}

#[test]
fn checkpoint_preserves_trained_behaviour() {
    let ds = dataset(13);
    let cfg = TrainerConfig { steps: 15, lr: 2e-3, warmup: 2, log_every: 5, ..Default::default() };
    let mut trainer = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 6), &ds, cfg);
    trainer.train(&ds);

    let path = std::env::temp_dir().join("orbit2_e2e_model.ckpt");
    save_model(&trainer.model, &path).unwrap();
    let restored = load_model(&path).unwrap();

    let s = ds.sample(0);
    let a = orbit2::inference::downscale(&trainer.model, &trainer.normalizer, &s.input, None, 1.0).unwrap();
    let b = orbit2::inference::downscale(&restored, &trainer.normalizer, &s.input, None, 1.0).unwrap();
    a.assert_close(&b, 0.0);
}

#[test]
fn tiles_bf16_training_pipeline_learns() {
    // The full paper training configuration: TILES + halo + emulated BF16
    // with dynamic gradient scaling, all at once.
    let ds = dataset(17);
    let cfg = TrainerConfig {
        steps: 25,
        lr: 2e-3,
        warmup: 3,
        tile_spec: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }),
        bf16: true,
        log_every: 5,
        ..Default::default()
    };
    let mut trainer = Trainer::new(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 8), &ds, cfg);
    let report = trainer.train(&ds);
    let first = report.losses.first().unwrap().1;
    let last = report.final_loss.unwrap();
    assert!(last < first, "combined TILES+BF16 pipeline must learn: {first} -> {last}");
}

#[test]
fn capacity_ordering_on_equal_budget() {
    // The larger twin should fit the training data at least as well as the
    // tiny twin on the same budget (Table IV's capacity argument).
    let ds = dataset(19);
    let steps = 40;
    let run = |model: ReslimModel| {
        let cfg = TrainerConfig { steps, lr: 2e-3, warmup: 4, log_every: 10, ..Default::default() };
        let mut t = Trainer::new(model, &ds, cfg);
        t.train(&ds).final_loss.unwrap()
    };
    let tiny_loss = run(ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 9));
    let small_loss = run(ReslimModel::new(ModelConfig::small().with_channels(7, 3), 9));
    assert!(
        small_loss < tiny_loss * 1.5,
        "bigger model should not be much worse: tiny {tiny_loss}, small {small_loss}"
    );
}

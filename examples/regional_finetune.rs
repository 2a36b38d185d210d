//! Regional fine-tuning (the paper's Sec. V-E first task): train on the
//! synthetic US 4x task — the analog of [ERA5, DAYMET] 28 km -> DAYMET 7 km
//! — with TILES tiling and BF16 mixed precision, then checkpoint the model
//! and report Table-IV-style metrics.
//!
//! ```sh
//! cargo run --release --example regional_finetune
//! ```

use orbit2::checkpoint::{load_model, save_model};
use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Split, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};

fn main() {
    let dataset = DownscalingDataset::new(LatLonGrid::conus(32, 64), VariableSet::daymet_like(), 4, 48, 2024);

    // Fine-tuning setup: 2x2 TILES with a 1-pixel halo, emulated BF16 with
    // dynamic gradient scaling — the paper's training configuration shrunk
    // to CPU scale.
    let cfg = TrainerConfig {
        steps: 80,
        lr: 2e-3,
        warmup: 8,
        tile_spec: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }),
        bf16: true,
        log_every: 20,
        ..Default::default()
    };
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 3);
    println!("fine-tuning {} parameters with 2x2 TILES + BF16...", model.num_params());
    let mut trainer = Trainer::new(model, &dataset, cfg);
    let report = trainer.train(&dataset);
    println!(
        "final loss {:.4} ({} skipped steps)",
        report.final_loss.expect("no steps completed"),
        report.skipped.len()
    );

    // Checkpoint round-trip.
    let path = std::env::temp_dir().join("orbit2_regional.ckpt");
    save_model(&trainer.model, &path).expect("save checkpoint");
    let restored = load_model(&path).expect("load checkpoint");
    println!("checkpoint saved to {} and restored ({} params)", path.display(), restored.num_params());

    // Evaluate on the held-out period.
    let test_idx = dataset.indices(Split::Test);
    let reports = orbit2::eval::evaluate_model(
        &restored,
        &trainer.normalizer,
        &dataset,
        &test_idx,
        Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 }),
        1.0,
    )
    .expect("valid test split");
    println!("\nTable IV-style metrics (tiled inference):");
    for r in &reports {
        println!(
            "  {:<6} R2 {:>6.3}  RMSE {:>7.3}  RMSE@99.7% {:>7.3}  SSIM {:>5.3}  PSNR {:>5.1}",
            r.name, r.report.r2, r.report.rmse, r.report.rmse_sigma3, r.report.ssim, r.report.psnr
        );
    }
}

//! Quickstart: build a synthetic downscaling dataset, train a small Reslim
//! model for a few steps, and downscale one sample.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Split, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel};

fn main() {
    // A continental-US-like 4x downscaling task: 7 input variables at
    // coarse resolution, 3 targets (tmin / tmax / prcp) at 4x finer grid.
    let dataset = DownscalingDataset::new(
        LatLonGrid::conus(32, 64),
        VariableSet::daymet_like(),
        4,
        /* samples */ 40,
        /* seed */ 7,
    );
    println!(
        "dataset: {} samples, input [{}x{}x{}] -> target [{}x{}x{}]",
        dataset.num_samples,
        dataset.variables().num_inputs(),
        dataset.coarse_grid().h,
        dataset.coarse_grid().w,
        dataset.variables().num_outputs(),
        dataset.fine_grid().h,
        dataset.fine_grid().w,
    );

    // A small Reslim model (the paper's architecture at laptop scale).
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 1);
    println!("model: {} parameters", model.num_params());

    // Train with the Bayesian loss (latitude-weighted MSE + MRF-TV prior).
    let cfg = TrainerConfig { steps: 60, lr: 2e-3, warmup: 6, log_every: 10, ..Default::default() };
    let mut trainer = Trainer::new(model, &dataset, cfg);
    let report = trainer.train(&dataset);
    for (step, loss) in &report.losses {
        println!("step {step:>4}  loss {loss:.4}");
    }

    // Downscale the held-out samples and score them.
    let test_idx = dataset.indices(Split::Test);
    let reports = orbit2::eval::evaluate_model(&trainer.model, &trainer.normalizer, &dataset, &test_idx, None, 1.0)
        .expect("valid test split");
    println!("\nheld-out metrics:");
    for r in &reports {
        println!(
            "  {:<6} R2 {:>6.3}  RMSE {:>7.3}  SSIM {:>5.3}  PSNR {:>5.1}{}",
            r.name,
            r.report.r2,
            r.report.rmse,
            r.report.ssim,
            r.report.psnr,
            if r.log_space { "  (log space)" } else { "" }
        );
    }
}

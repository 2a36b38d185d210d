//! Shared experiment setup: datasets, models and trained-model caching so
//! several tables/figures can reuse one training run.

use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel};

/// The scaled-down US fine-tuning analog: CONUS grid, DAYMET-like 7-channel
/// inputs, 4x refinement — the stand-in for the paper's 28 -> 7 km task.
pub fn us_dataset(samples: usize, seed: u64) -> DownscalingDataset {
    DownscalingDataset::new(LatLonGrid::conus(64, 128), VariableSet::daymet_like(), 4, samples, seed)
}

/// A smaller dataset for quick smoke experiments.
pub(crate) fn small_dataset(samples: usize, seed: u64) -> DownscalingDataset {
    DownscalingDataset::new(LatLonGrid::conus(32, 64), VariableSet::daymet_like(), 4, samples, seed)
}

/// Global ERA5-like dataset (23 channels) at reduced scale.
pub(crate) fn global_dataset(samples: usize, seed: u64) -> DownscalingDataset {
    DownscalingDataset::new(LatLonGrid::global(32, 64), VariableSet::era5_like(), 4, samples, seed)
}

/// The scaled-down twin of the paper's 9.5M model on the US task.
pub fn tiny_model(seed: u64) -> ReslimModel {
    ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), seed)
}

/// The scaled-down twin of the paper's 126M model on the US task.
pub fn small_model(seed: u64) -> ReslimModel {
    ReslimModel::new(ModelConfig::small().with_channels(7, 3), seed)
}

/// Train a model on a dataset with a step budget; returns the trainer
/// (model + normalizer) and the report.
pub fn train_model(
    model: ReslimModel,
    dataset: &DownscalingDataset,
    steps: usize,
    lr: f32,
) -> (Trainer, orbit2::trainer::TrainReport) {
    let cfg = TrainerConfig {
        steps,
        lr,
        warmup: (steps / 10).max(1) as u64,
        log_every: (steps / 10).max(1),
        ..Default::default()
    };
    let mut trainer = Trainer::new(model, dataset, cfg);
    let report = trainer.train(dataset);
    (trainer, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_expected_channels() {
        let us = small_dataset(5, 1);
        assert_eq!(us.variables().num_inputs(), 7);
        let g = global_dataset(5, 1);
        assert_eq!(g.variables().num_inputs(), 23);
    }

    #[test]
    fn model_twins_ordered_by_size() {
        assert!(tiny_model(1).num_params() < small_model(1).num_params());
    }

    #[test]
    fn quick_training_runs() {
        let ds = small_dataset(10, 2);
        let (_t, report) = train_model(tiny_model(2), &ds, 5, 1e-3);
        assert!(report.final_loss.expect("no steps completed").is_finite());
        assert_eq!(report.completed_steps, 5);
    }
}

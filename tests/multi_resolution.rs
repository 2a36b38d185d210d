//! The foundation-model property: ONE Reslim model trains and predicts
//! across datasets with different grid sizes (paper Table I pretrains a
//! single model on 32x64-grid and 180x360-grid ERA5 pairs; Sec. II argues
//! Swin-style hierarchies cannot do this because their architecture is tied
//! to the resolution).

use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, MixedDataset, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_tensor::Tensor;

fn mixed() -> MixedDataset {
    MixedDataset::new(vec![
        DownscalingDataset::new(LatLonGrid::global(16, 32), VariableSet::era5_like(), 4, 16, 5),
        DownscalingDataset::new(LatLonGrid::global(32, 64), VariableSet::era5_like(), 4, 16, 6),
    ])
}

#[test]
fn one_model_trains_across_two_resolutions() {
    let corpus = mixed();
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(23, 3), 9);
    // Normalizer fitted on one member applies to both (same variables).
    let cfg = TrainerConfig { steps: 0, lr: 1.5e-3, warmup: 2, log_every: 1, ..Default::default() };
    let mut trainer = Trainer::new(model, &corpus.members()[0], cfg);

    let lat_fields: Vec<Tensor> = corpus
        .members()
        .iter()
        .map(|m| Tensor::from_vec(vec![m.fine_grid().h, m.fine_grid().w], m.fine_grid().latitude_weight_field()))
        .collect();

    // Interleaved steps across the two resolutions with the SAME model.
    let mut first_losses = [f32::NAN; 2];
    let mut last_losses = [f32::NAN; 2];
    for step in 0..24 {
        let (member, sample) = corpus.sample(step);
        let loss = trainer.step(&sample.input, &sample.target, &lat_fields[member], 4).expect("finite step");
        if first_losses[member].is_nan() {
            first_losses[member] = loss;
        }
        last_losses[member] = loss;
    }
    // Learning happened on BOTH resolutions with one parameter set.
    for m in 0..2 {
        assert!(
            last_losses[m] < first_losses[m],
            "member {m} did not learn: {} -> {}",
            first_losses[m],
            last_losses[m]
        );
    }
}

#[test]
fn one_model_predicts_both_grid_sizes() {
    let corpus = mixed();
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(23, 3), 10);
    let norm = orbit2_climate::Normalizer::fit(&corpus.members()[0], 4);
    for member in corpus.members() {
        let s = member.sample(0);
        let pred = orbit2::inference::downscale(&model, &norm, &s.input, None, 1.0).unwrap();
        assert_eq!(pred.shape(), s.target.shape(), "grid {}x{}", member.fine_grid().h, member.fine_grid().w);
        assert!(pred.all_finite());
    }
}

//! The reduced-precision quality gate: a model served at int8 weights (every
//! precision in [`WeightPrecision::ALL`] but f32) must score the same
//! Table IV metrics as the f32 session within tight tolerances, on every
//! output variable.
//!
//! The model is trained briefly first so the metrics sit in their sane
//! operating range (an untrained model's R² hovers around zero where a tiny
//! absolute delta would be meaningless next to the paper's 0.9+ regime).
//! `scripts/ci.sh` runs this test on every pipeline, in release.

use orbit2::eval::{evaluate_model, evaluate_model_at};
use orbit2::trainer::{Trainer, TrainerConfig};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Split, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};

/// R² tolerance for int8 weights. Per-channel quantization uses each
/// channel's full code range, so a weight moves by at most half a step of
/// `max|w|/127` (~4e-3 of the channel's largest weight).
const R2_TOL: f64 = 0.02;
/// SSIM is a [0, 1] structural score; weight rounding perturbs it less than
/// pointwise errors perturb R².
const SSIM_TOL: f64 = 0.02;

#[test]
fn reduced_precision_sessions_stay_within_tolerance() {
    let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 14, 21);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 5);
    let cfg = TrainerConfig { steps: 12, lr: 2e-3, log_every: 100, ..TrainerConfig::default() };
    let mut trainer = Trainer::new(model, &ds, cfg);
    trainer.train(&ds);

    let (model, norm) = (&trainer.model, &trainer.normalizer);
    let test_idx = ds.indices(Split::Test);
    let base = evaluate_model(model, norm, &ds, &test_idx, None, 1.0).unwrap();
    for precision in WeightPrecision::ALL.into_iter().filter(|&p| p != WeightPrecision::F32) {
        let reduced = evaluate_model_at(model, norm, &ds, &test_idx, None, 1.0, precision).unwrap();
        assert_eq!(reduced.len(), base.len());
        for (b, r) in base.iter().zip(&reduced) {
            assert_eq!(b.name, r.name);
            let delta = b.report.delta(&r.report);
            assert!(
                delta.within(R2_TOL, SSIM_TOL),
                "{:?} {}: f32 r2={:.4} ssim={:.4} vs {:.4}/{:.4} (delta r2={:.2e} ssim={:.2e})",
                precision,
                b.name,
                b.report.r2,
                b.report.ssim,
                r.report.r2,
                r.report.ssim,
                delta.r2,
                delta.ssim,
            );
        }
    }
}

#[test]
fn f32_precision_variant_is_bit_identical_to_default() {
    let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 6, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 9);
    let norm = orbit2_climate::Normalizer::fit(&ds, 4);
    let idx = ds.indices(Split::Test);
    let a = evaluate_model(&model, &norm, &ds, &idx, None, 1.0).unwrap();
    let b = evaluate_model_at(&model, &norm, &ds, &idx, None, 1.0, WeightPrecision::F32).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.report, y.report);
    }
}

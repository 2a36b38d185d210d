//! Bias correction (quantile mapping) as the paper's pipeline uses it:
//! inputs are "normalized and bias corrected" (Sec. II), and the Fig. 8
//! evaluation explicitly notes that inference *without* bias correction
//! cannot perfectly align with a differently-calibrated observation
//! product. These tests exercise that mechanism end to end.

use orbit2_climate::imerg::{observe_precipitation, ImergLikeParams};
use orbit2_climate::normalize::quantile_map;
use orbit2_climate::synth::WorldGenerator;
use orbit2_climate::{LatLonGrid, VariableSet};
use orbit2_metrics::precip::log_precip_slice;
use orbit2_metrics::regression::{r2_score, rmse};

fn world() -> WorldGenerator {
    WorldGenerator::new(LatLonGrid::global(32, 64), VariableSet::era5_like(), 77)
}

/// A sensor with a strong *systematic* calibration error (the case bias
/// correction exists for): 60% over-reading with a compressive power law,
/// and little random noise.
fn biased_sensor() -> ImergLikeParams {
    ImergLikeParams { gain: 1.6, gamma: 0.8, noise_sigma: 0.05, ..Default::default() }
}

/// Quantile-mapping the model product onto the observation climatology must
/// reduce the distribution mismatch — the whole point of statistical bias
/// correction.
#[test]
fn quantile_mapping_reduces_observation_mismatch() {
    let w = world();
    // "Model" product: the truth; "observation": the distorted satellite.
    // Calibration period: timesteps 0..8; evaluation period: 10..14.
    let mut cal_model = Vec::new();
    let mut cal_obs = Vec::new();
    for t in 0..8 {
        cal_model.extend(w.field("prcp", t));
        cal_obs.extend(observe_precipitation(&w, t, biased_sensor()));
    }
    let mut raw_err = 0.0;
    let mut corrected_err = 0.0;
    for t in 10..14 {
        let model = w.field("prcp", t);
        let obs = observe_precipitation(&w, t, biased_sensor());
        let corrected = quantile_map(&cal_model, &cal_obs, &model, 101);
        raw_err += rmse(&log_precip_slice(&model), &log_precip_slice(&obs));
        corrected_err += rmse(&log_precip_slice(&corrected), &log_precip_slice(&obs));
    }
    assert!(
        corrected_err < raw_err,
        "bias correction must reduce log-RMSE: raw {raw_err:.4} vs corrected {corrected_err:.4}"
    );
}

/// Bias correction fixes the *distribution*, not the spatial pattern: R²
/// (pattern agreement) should stay in the same regime while the marginal
/// statistics move toward the observations.
#[test]
fn correction_preserves_spatial_correlation() {
    let w = world();
    let mut cal_model = Vec::new();
    let mut cal_obs = Vec::new();
    for t in 0..8 {
        cal_model.extend(w.field("prcp", t));
        cal_obs.extend(observe_precipitation(&w, t, biased_sensor()));
    }
    let model = w.field("prcp", 12);
    let obs = observe_precipitation(&w, 12, biased_sensor());
    let corrected = quantile_map(&cal_model, &cal_obs, &model, 101);
    let r2_raw = r2_score(&log_precip_slice(&model), &log_precip_slice(&obs));
    let r2_cor = r2_score(&log_precip_slice(&corrected), &log_precip_slice(&obs));
    assert!(r2_cor >= r2_raw - 0.05, "correction must not destroy the pattern: {r2_raw} -> {r2_cor}");
    // Mean bias shrinks.
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    let bias_raw = (mean(&model) - mean(&obs)).abs();
    let bias_cor = (mean(&corrected) - mean(&obs)).abs();
    assert!(bias_cor <= bias_raw + 1e-3, "mean bias must not grow: {bias_raw} -> {bias_cor}");
}

/// The calibration is stable: mapping the calibration sample onto itself is
/// the identity (up to interpolation error).
#[test]
fn self_mapping_is_identity() {
    let w = world();
    let sample = w.field("prcp", 3);
    let mapped = quantile_map(&sample, &sample, &sample, 201);
    for (a, b) in mapped.iter().zip(&sample) {
        assert!((a - b).abs() < 0.05 * (1.0 + b.abs()), "{a} vs {b}");
    }
}

//! Evaluation of a trained model on a dataset split: the per-variable
//! metric rows of the paper's Table IV.

use crate::inference::{downscale_with, InferenceError};
use orbit2_climate::{DownscalingDataset, Normalizer};
use orbit2_imaging::tiles::TileSpec;
use orbit2_metrics::regression::EvalReport;
use orbit2_model::{ReslimModel, WeightPrecision};

/// Metrics for one output variable.
#[derive(Debug, Clone)]
pub struct VariableReport {
    /// Variable name (e.g. `"tmin"`).
    pub name: String,
    /// Whether metrics were computed in `log(x+1)` space (precipitation).
    pub log_space: bool,
    /// The Table IV row.
    pub report: EvalReport,
}

/// Evaluate the model on the given sample indices, producing one report per
/// output variable. Precipitation variables are evaluated in `log(x+1)`
/// space per the paper's convention.
///
/// One tape-free session is prepared up front and reused for every sample,
/// so the weight snapshot (and an int8 session's packing) is paid once for
/// the whole split.
pub fn evaluate_model(
    model: &ReslimModel,
    normalizer: &Normalizer,
    dataset: &DownscalingDataset,
    indices: &[usize],
    tile_spec: Option<TileSpec>,
    compression: f32,
) -> Result<Vec<VariableReport>, InferenceError> {
    evaluate_model_at(model, normalizer, dataset, indices, tile_spec, compression, WeightPrecision::F32)
}

/// [`evaluate_model`] with the inference session held at a reduced weight
/// precision — the measurement half of the precision quality gate: run once
/// at [`WeightPrecision::F32`] and once at the reduced precision, then
/// assert the per-variable [`EvalReport`] deltas stay within tolerance.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_model_at(
    model: &ReslimModel,
    normalizer: &Normalizer,
    dataset: &DownscalingDataset,
    indices: &[usize],
    tile_spec: Option<TileSpec>,
    compression: f32,
    precision: WeightPrecision,
) -> Result<Vec<VariableReport>, InferenceError> {
    assert!(!indices.is_empty(), "no samples to evaluate");
    let session = model.session_at(precision);
    let vs = dataset.variables();
    let c_out = vs.num_outputs();
    let (fh, fw) = (dataset.fine_grid().h, dataset.fine_grid().w);
    let plane = fh * fw;
    let mut preds: Vec<Vec<f32>> = vec![Vec::with_capacity(indices.len() * plane); c_out];
    let mut truths: Vec<Vec<f32>> = vec![Vec::with_capacity(indices.len() * plane); c_out];
    for &i in indices {
        let s = dataset.sample(i);
        let pred =
            downscale_with(model, &session, normalizer, &s.input, tile_spec, compression)?;
        for c in 0..c_out {
            preds[c].extend_from_slice(&pred.data()[c * plane..(c + 1) * plane]);
            truths[c].extend_from_slice(&s.target.data()[c * plane..(c + 1) * plane]);
        }
    }
    Ok((0..c_out)
        .map(|c| {
            let name = vs.outputs[c].name.clone();
            let log_space = name.contains("prcp") || name.contains("precip");
            let report = orbit2_metrics::evaluate(&preds[c], &truths[c], fh, fw, log_space);
            VariableReport { name, log_space, report }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_climate::{LatLonGrid, Split, VariableSet};
    use orbit2_model::{ModelConfig, ReslimModel};

    #[test]
    fn reports_cover_all_output_variables() {
        let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 12, 9);
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 3);
        let norm = Normalizer::fit(&ds, 4);
        let test_idx = ds.indices(Split::Test);
        let reports = evaluate_model(&model, &norm, &ds, &test_idx, None, 1.0).unwrap();
        assert_eq!(reports.len(), 3);
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["tmin", "tmax", "prcp"]);
        assert!(reports[2].log_space, "precipitation must use log space");
        assert!(!reports[0].log_space);
        for r in &reports {
            assert!(r.report.rmse.is_finite());
            assert!(r.report.ssim.is_finite());
        }
    }

    #[test]
    fn untrained_model_scores_poorly_but_finite() {
        let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 12, 9);
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 4);
        let norm = Normalizer::fit(&ds, 4);
        let reports = evaluate_model(&model, &norm, &ds, &[11], None, 1.0).unwrap();
        // An untrained model should not already achieve the paper's 0.99.
        assert!(reports[0].report.r2 < 0.99);
    }
}

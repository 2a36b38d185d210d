//! Scalar regression metrics: R², RMSE, quantile-exceedance RMSE and the
//! latitude-weighted RMSE used by the Bayesian data-likelihood term.

/// A full metric row in the style of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Coefficient of determination.
    pub r2: f64,
    /// Root mean square error.
    pub rmse: f64,
    /// RMSE over pixels above the 68th percentile of the truth.
    pub rmse_sigma1: f64,
    /// RMSE over pixels above the 95th percentile of the truth.
    pub rmse_sigma2: f64,
    /// RMSE over pixels above the 99.7th percentile of the truth.
    pub rmse_sigma3: f64,
    /// Structural similarity index (frame-averaged).
    pub ssim: f64,
    /// Peak signal-to-noise ratio in dB (frame-averaged).
    pub psnr: f64,
}

/// Absolute per-metric difference between two [`EvalReport`]s, used by the
/// reduced-precision quality gate (f32 vs int8 sessions must agree
/// within tolerance on every Table IV task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportDelta {
    /// `|r2_a - r2_b|`.
    pub r2: f64,
    /// `|ssim_a - ssim_b|`.
    pub ssim: f64,
    /// `|rmse_a - rmse_b|`.
    pub rmse: f64,
}

impl EvalReport {
    /// Absolute deltas of the gated metrics against `other`.
    pub fn delta(&self, other: &EvalReport) -> ReportDelta {
        ReportDelta {
            r2: (self.r2 - other.r2).abs(),
            ssim: (self.ssim - other.ssim).abs(),
            rmse: (self.rmse - other.rmse).abs(),
        }
    }
}

impl ReportDelta {
    /// Whether both gated metrics sit within their tolerances (RMSE is
    /// reported for diagnostics but not gated — it is scale-dependent,
    /// while R² and SSIM are normalized).
    pub fn within(&self, r2_tol: f64, ssim_tol: f64) -> bool {
        self.r2.is_finite()
            && self.ssim.is_finite()
            && self.r2 <= r2_tol
            && self.ssim <= ssim_tol
    }
}

/// Coefficient of determination `1 - SS_res / SS_tot`.
///
/// Equals 1 for a perfect prediction, 0 for predicting the mean, and can go
/// negative for predictions worse than the mean.
pub fn r2_score(pred: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!truth.is_empty());
    let n = truth.len() as f64;
    let mean: f64 = truth.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&p, &t) in pred.iter().zip(truth) {
        ss_res += (p as f64 - t as f64).powi(2);
        ss_tot += (t as f64 - mean).powi(2);
    }
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { f64::NEG_INFINITY };
    }
    1.0 - ss_res / ss_tot
}

/// Root mean square error.
pub fn rmse(pred: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!truth.is_empty());
    let mse: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p as f64 - t as f64).powi(2))
        .sum::<f64>()
        / truth.len() as f64;
    mse.sqrt()
}

/// RMSE restricted to pixels where the *truth* exceeds its own `q`-quantile
/// — the paper's "RMSE σ1 > 68%", "σ2 > 95%", "σ3 > 99.7%" extreme-event
/// columns.
pub(crate) fn quantile_rmse(pred: &[f32], truth: &[f32], q: f64) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!((0.0..1.0).contains(&q), "quantile must be in [0,1)");
    let mut sorted: Vec<f32> = truth.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() as f64 - 1.0) * q).floor() as usize;
    let threshold = sorted[idx];
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (&p, &t) in pred.iter().zip(truth) {
        if t > threshold {
            sum += (p as f64 - t as f64).powi(2);
            count += 1;
        }
    }
    if count == 0 {
        // Degenerate distribution (e.g. all-zero precipitation): fall back
        // to the pixels equal to the maximum.
        let max = *sorted.last().unwrap();
        for (&p, &t) in pred.iter().zip(truth) {
            if t >= max {
                sum += (p as f64 - t as f64).powi(2);
                count += 1;
            }
        }
    }
    (sum / count as f64).sqrt()
}

/// Latitude-weighted RMSE: `sqrt(mean(weight * err^2))` with `weight` a
/// per-pixel field (normalized to mean 1), matching the `D` matrix of the
/// Bayesian loss.
pub fn latitude_weighted_rmse(pred: &[f32], truth: &[f32], weights: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert_eq!(pred.len() % weights.len(), 0, "weights must tile the data");
    let mut sum = 0.0f64;
    for (i, (&p, &t)) in pred.iter().zip(truth).enumerate() {
        let w = weights[i % weights.len()] as f64;
        sum += w * (p as f64 - t as f64).powi(2);
    }
    (sum / pred.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_delta_gates_r2_and_ssim() {
        let base = EvalReport {
            r2: 0.95,
            rmse: 1.0,
            rmse_sigma1: 1.0,
            rmse_sigma2: 1.0,
            rmse_sigma3: 1.0,
            ssim: 0.90,
            psnr: 30.0,
        };
        let near = EvalReport { r2: 0.949, ssim: 0.902, rmse: 1.3, ..base };
        let d = base.delta(&near);
        assert!((d.r2 - 0.001).abs() < 1e-12);
        assert!(d.within(0.01, 0.01));
        // RMSE is diagnostic only: a large RMSE delta alone does not fail.
        assert!(d.rmse > 0.2 && d.within(0.01, 0.01));
        let far = EvalReport { r2: 0.80, ..base };
        assert!(!base.delta(&far).within(0.01, 0.01));
        let nan = EvalReport { ssim: f64::NAN, ..base };
        assert!(!base.delta(&nan).within(1.0, 1.0), "NaN deltas must fail the gate");
    }

    #[test]
    fn r2_perfect_and_mean_baselines() {
        let t: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert!((r2_score(&t, &t) - 1.0).abs() < 1e-12);
        let mean_pred = vec![4.5f32; 10];
        assert!(r2_score(&mean_pred, &t).abs() < 1e-9);
        // Anti-correlated prediction is negative.
        let anti: Vec<f32> = t.iter().rev().cloned().collect();
        assert!(r2_score(&anti, &t) < 0.0);
    }

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[1.0, 2.0], &[0.0, 0.0]) - (2.5f64).sqrt()).abs() < 1e-9);
        assert_eq!(rmse(&[3.0], &[3.0]), 0.0);
    }

    #[test]
    fn quantile_rmse_targets_extremes() {
        // Error only on the largest truth values: overall RMSE is small but
        // sigma3 RMSE is large.
        let n = 1000;
        let truth: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let mut pred = truth.clone();
        for p in pred.iter_mut().skip(n - 3) {
            *p += 10.0;
        }
        let overall = rmse(&pred, &truth);
        let extreme = quantile_rmse(&pred, &truth, 0.997);
        assert!(extreme > overall * 5.0, "extreme {extreme} vs overall {overall}");
    }

    #[test]
    fn quantile_rmse_monotone_in_quantile_for_tail_errors() {
        let n = 1000;
        let truth: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        // Error grows with the truth value.
        let pred: Vec<f32> = truth.iter().map(|&t| t + t * t).collect();
        let q68 = quantile_rmse(&pred, &truth, 0.68);
        let q95 = quantile_rmse(&pred, &truth, 0.95);
        let q997 = quantile_rmse(&pred, &truth, 0.997);
        assert!(q68 < q95 && q95 < q997);
    }

    #[test]
    fn quantile_rmse_degenerate_distribution() {
        let truth = vec![0.0f32; 100];
        let pred = vec![0.5f32; 100];
        let v = quantile_rmse(&pred, &truth, 0.95);
        assert!((v - 0.5).abs() < 1e-9);
    }

    #[test]
    fn latitude_weighting_discounts_poles() {
        // Two-row field: row 0 at pole (weight ~0), row 1 at equator
        // (weight ~2 after mean normalization). Error only at pole.
        let weights = vec![0.0, 0.0, 2.0, 2.0];
        let truth = vec![0.0f32; 4];
        let pole_err = latitude_weighted_rmse(&[1.0, 1.0, 0.0, 0.0], &truth, &weights);
        let eq_err = latitude_weighted_rmse(&[0.0, 0.0, 1.0, 1.0], &truth, &weights);
        assert_eq!(pole_err, 0.0);
        assert!(eq_err > 0.9);
    }

    #[test]
    fn weights_tile_across_frames() {
        let weights = vec![1.0f32, 1.0];
        let truth = vec![0.0f32; 6];
        let pred = vec![2.0f32; 6];
        assert!((latitude_weighted_rmse(&pred, &truth, &weights) - 2.0).abs() < 1e-9);
    }
}

//! # orbit2-metrics
//!
//! The evaluation metrics of the paper's Sec. IV ("Performance Metrics"):
//! coefficient of determination (R²), RMSE, RMSE over quantile exceedances
//! (σ1/σ2/σ3 = 68/95/99.7%), SSIM, PSNR, and the log-precipitation transform
//! (`log(x+1)`) used for all precipitation RMSE values, plus radial power
//! spectrum comparison (Fig. 7(a)).

pub mod precip;
pub mod regression;
pub mod ssim;

use precip::log_precip_slice;
use regression::{quantile_rmse, r2_score, rmse};
use ssim::{psnr, ssim};

/// Compute the full Table IV metric row for a prediction/observation pair.
///
/// `pred`/`truth` are same-length slices (one variable, all pixels of all
/// evaluated samples). When `log_space` is set, both are transformed with
/// `log(x+1)` before RMSE-family metrics, as the paper does for
/// precipitation; R², SSIM and PSNR require the caller to pass 2-D geometry.
pub fn evaluate(pred: &[f32], truth: &[f32], h: usize, w: usize, log_space: bool) -> regression::EvalReport {
    assert_eq!(pred.len(), truth.len());
    assert_eq!(pred.len() % (h * w), 0, "data not a whole number of {h}x{w} frames");
    let (p, t): (Vec<f32>, Vec<f32>) =
        if log_space { (log_precip_slice(pred), log_precip_slice(truth)) } else { (pred.to_vec(), truth.to_vec()) };
    let r2 = r2_score(&p, &t);
    let rm = rmse(&p, &t);
    let q1 = quantile_rmse(&p, &t, 0.68);
    let q2 = quantile_rmse(&p, &t, 0.95);
    let q3 = quantile_rmse(&p, &t, 0.997);
    // SSIM/PSNR averaged over frames.
    let frames = p.len() / (h * w);
    let mut ssim_acc = 0.0;
    let mut psnr_acc = 0.0;
    for f in 0..frames {
        let pf = &p[f * h * w..(f + 1) * h * w];
        let tf = &t[f * h * w..(f + 1) * h * w];
        ssim_acc += ssim(pf, tf, h, w);
        psnr_acc += psnr(pf, tf);
    }
    regression::EvalReport {
        r2,
        rmse: rm,
        rmse_sigma1: q1,
        rmse_sigma2: q2,
        rmse_sigma3: q3,
        ssim: ssim_acc / frames as f64,
        psnr: psnr_acc / frames as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_perfect_prediction() {
        let truth: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin() + 2.0).collect();
        let rep = evaluate(&truth, &truth, 8, 8, false);
        assert!((rep.r2 - 1.0).abs() < 1e-9);
        assert_eq!(rep.rmse, 0.0);
        assert!((rep.ssim - 1.0).abs() < 1e-9);
        assert!(rep.psnr > 80.0);
    }

    #[test]
    fn log_space_changes_rmse() {
        let truth: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let pred: Vec<f32> = truth.iter().map(|&x| x * 1.1).collect();
        let lin = evaluate(&pred, &truth, 8, 8, false);
        let log = evaluate(&pred, &truth, 8, 8, true);
        assert!(log.rmse < lin.rmse, "log transform compresses large errors");
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn evaluate_rejects_ragged_frames() {
        evaluate(&[0.0; 10], &[0.0; 10], 3, 3, false);
    }
}

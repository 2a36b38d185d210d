//! Fig. 8 / Sec. V-E "Global Model Inference": generalization from
//! regional training to global inference against an observation product
//! with different statistics (the IMERG analog).
//!
//! A model is trained on the ERA5-like global generator, then evaluated
//! against precipitation *observed through the simulated satellite sensor*
//! (multiplicative noise + recalibration + detection threshold) — the
//! data-source mismatch the paper highlights ("perfect alignment is not
//! expected").

use crate::fmt::Table;
use crate::setup::{global_dataset, train_model};
use orbit2::inference::downscale_with;
use orbit2_climate::imerg::{observe_precipitation, ImergLikeParams};
use orbit2_climate::Split;
use orbit2_metrics::precip::log_precip_slice;
use orbit2_metrics::regression::{r2_score, rmse};
use orbit2_metrics::ssim::{psnr, ssim};
use orbit2_model::{ModelConfig, ReslimModel};

/// Metrics of the global generalization experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Result {
    /// R² against the IMERG-like observation (log space).
    pub r2: f64,
    /// SSIM against the observation.
    pub ssim: f64,
    /// PSNR against the observation (dB).
    pub psnr: f64,
    /// RMSE in log(x+1) space (mm/day).
    pub rmse_log: f64,
    /// Same metrics against the *true* field, for reference.
    pub r2_truth: f64,
}

/// Run the experiment: train on the global ERA5-like task, evaluate the
/// precipitation channel against IMERG-like observations on test samples.
pub fn run(steps: usize, samples: usize) -> Fig8Result {
    let ds = global_dataset(samples, 99);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(23, 3), 21);
    let (trainer, _) = train_model(model, &ds, steps, 2e-3);
    let (h, w) = (ds.fine_grid().h, ds.fine_grid().w);
    let plane = h * w;
    let chan = ds.variables().output_index("prcp").expect("prcp");
    let test_idx = ds.indices(Split::Test);
    let mut preds = Vec::new();
    let mut obs = Vec::new();
    let mut truth = Vec::new();
    let session = trainer.model.session();
    for &i in &test_idx {
        let s = ds.sample(i);
        let pred =
            downscale_with(&trainer.model, &session, &trainer.normalizer, &s.input, None, 1.0).expect("valid sample");
        preds.extend_from_slice(&pred.data()[chan * plane..(chan + 1) * plane]);
        truth.extend_from_slice(&s.target.data()[chan * plane..(chan + 1) * plane]);
        obs.extend(observe_precipitation(ds.world(), s.t, ImergLikeParams::default()));
    }
    let lp = log_precip_slice(&preds);
    let lo = log_precip_slice(&obs);
    let lt = log_precip_slice(&truth);
    // Frame-averaged image metrics.
    let frames = test_idx.len();
    let mut ssim_acc = 0.0;
    let mut psnr_acc = 0.0;
    for f in 0..frames {
        let p = &lp[f * plane..(f + 1) * plane];
        let o = &lo[f * plane..(f + 1) * plane];
        ssim_acc += ssim(p, o, h, w);
        psnr_acc += psnr(p, o);
    }
    Fig8Result {
        r2: r2_score(&lp, &lo),
        ssim: ssim_acc / frames as f64,
        psnr: psnr_acc / frames as f64,
        rmse_log: rmse(&lp, &lo),
        r2_truth: r2_score(&lp, &lt),
    }
}

/// Render next to the paper's reported metrics.
pub fn render(r: &Fig8Result) -> String {
    let mut t = Table::new(&["Metric", "Measured (vs IMERG-like)", "Paper (vs IMERG)"]);
    t.row(vec!["R2 (log space)".into(), format!("{:.3}", r.r2), "0.90".into()]);
    t.row(vec!["SSIM".into(), format!("{:.3}", r.ssim), "0.96".into()]);
    t.row(vec!["PSNR (dB)".into(), format!("{:.1}", r.psnr), "41.8".into()]);
    t.row(vec!["RMSE (log mm/day)".into(), format!("{:.3}", r.rmse_log), "0.34".into()]);
    format!(
        "Fig 8 / Sec V-E [global inference against shifted observations]:\n{}\
         R2 against the *true* field: {:.3} (observation mismatch costs the difference,\n\
         exactly the paper's ERA5-vs-IMERG source-inconsistency argument)\n",
        t.render(),
        r.r2_truth
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_finite_and_obs_mismatch_shows() {
        let r = run(6, 12);
        assert!(r.r2.is_finite() && r.ssim.is_finite() && r.psnr.is_finite());
        // Once the model is actually trained (full runs), scoring against
        // the distorted observation can't beat scoring against the truth;
        // at this smoke budget the model is untrained, so only check when
        // the truth fit is meaningful.
        if r.r2_truth > 0.5 {
            assert!(r.r2 <= r.r2_truth + 0.05, "obs R2 {} vs truth R2 {}", r.r2, r.r2_truth);
        }
        let s = render(&r);
        assert!(s.contains("0.90"));
    }
}

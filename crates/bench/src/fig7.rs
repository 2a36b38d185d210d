//! Fig. 7: (a) spatial power spectra of downscaled minimum temperature for
//! the two model capacities; (b) side-by-side precipitation maps (ground
//! truth vs prediction), written as PGM files and ASCII art.

use crate::fmt::Table;
use orbit2::inference::downscale;
use orbit2_climate::{DownscalingDataset, Normalizer, Split};
use orbit2_fft::radial_power_spectrum;
use orbit2_imaging::pgm::{ascii_art, write_pgm};
use orbit2_model::ReslimModel;
use std::path::Path;

/// Spectrum comparison for one variable: ground truth vs two models.
pub struct SpectrumComparison {
    /// Wavenumbers.
    pub wavenumber: Vec<f64>,
    /// log10 power of the ground truth.
    pub truth: Vec<f64>,
    /// log10 power of the tiny model's prediction.
    pub tiny: Vec<f64>,
    /// log10 power of the small model's prediction.
    pub small: Vec<f64>,
    /// High-frequency log distance to truth (tiny, small).
    pub tail_distance: (f64, f64),
}

/// Compute Fig. 7(a): power spectra of tmin predictions on a test sample.
pub fn spectra(
    tiny: (&ReslimModel, &Normalizer),
    small: (&ReslimModel, &Normalizer),
    ds: &DownscalingDataset,
) -> SpectrumComparison {
    let idx = *ds.indices(Split::Test).first().expect("test split empty");
    let s = ds.sample(idx);
    let (h, w) = (ds.fine_grid().h, ds.fine_grid().w);
    let chan = ds.variables().output_index("tmin").expect("tmin channel");
    let plane = h * w;
    let truth_field = &s.target.data()[chan * plane..(chan + 1) * plane];
    let pred_t = downscale(tiny.0, tiny.1, &s.input, None, 1.0).expect("valid sample");
    let pred_s = downscale(small.0, small.1, &s.input, None, 1.0).expect("valid sample");
    let ps_truth = radial_power_spectrum(truth_field, h, w);
    let ps_tiny = radial_power_spectrum(&pred_t.data()[chan * plane..(chan + 1) * plane], h, w);
    let ps_small = radial_power_spectrum(&pred_s.data()[chan * plane..(chan + 1) * plane], h, w);
    SpectrumComparison {
        wavenumber: ps_truth.wavenumber.clone(),
        truth: ps_truth.log_power(),
        tiny: ps_tiny.log_power(),
        small: ps_small.log_power(),
        tail_distance: (
            ps_tiny.high_freq_log_distance(&ps_truth, 0.3),
            ps_small.high_freq_log_distance(&ps_truth, 0.3),
        ),
    }
}

/// Render the spectra as a table of log-power samples.
pub fn render_7a(cmp: &SpectrumComparison) -> String {
    let mut t = Table::new(&["wavenumber", "log10 P truth", "log10 P tiny", "log10 P small"]);
    let n = cmp.wavenumber.len();
    // Sample ~10 wavenumbers across the range.
    let step = (n / 10).max(1);
    for k in (1..n).step_by(step) {
        t.row(vec![
            format!("{:.0}", cmp.wavenumber[k]),
            format!("{:.2}", cmp.truth[k]),
            format!("{:.2}", cmp.tiny[k]),
            format!("{:.2}", cmp.small[k]),
        ]);
    }
    format!(
        "Fig 7(a) [power spectrum of downscaled tmin]:\n{}\nhigh-frequency tail distance to truth: tiny {:.3}, small {:.3}\n\
         (paper: the larger model tracks the truth's high-frequency tail; the smaller deviates)\n",
        t.render(),
        cmp.tail_distance.0,
        cmp.tail_distance.1
    )
}

/// Fig. 7(b): write ground truth and prediction precipitation maps as PGM
/// files under `dir` and return ASCII previews.
pub fn render_7b(
    result_model: (&ReslimModel, &Normalizer),
    ds: &DownscalingDataset,
    dir: &Path,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let idx = *ds.indices(Split::Test).first().expect("test split empty");
    let s = ds.sample(idx);
    let (h, w) = (ds.fine_grid().h, ds.fine_grid().w);
    let chan = ds.variables().output_index("prcp").expect("prcp channel");
    let plane = h * w;
    let truth = &s.target.data()[chan * plane..(chan + 1) * plane];
    let pred = downscale(result_model.0, result_model.1, &s.input, None, 1.0).expect("valid sample");
    let pred_field = &pred.data()[chan * plane..(chan + 1) * plane];
    write_pgm(&dir.join("fig7b_truth.pgm"), truth, h, w)?;
    write_pgm(&dir.join("fig7b_prediction.pgm"), pred_field, h, w)?;
    let mut out =
        String::from("Fig 7(b) [daily total precipitation, ground truth (left) vs ORBIT-2 reproduction (right)]\n");
    let left = ascii_art(truth, h, w, 56);
    let right = ascii_art(pred_field, h, w, 56);
    for (l, r) in left.lines().zip(right.lines()) {
        out.push_str(&format!("{l}  |  {r}\n"));
    }
    out.push_str(&format!("PGM files written to {}\n", dir.display()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{small_dataset, tiny_model, train_model};

    #[test]
    fn spectra_and_maps_run() {
        let ds = small_dataset(12, 5);
        let (tr_a, _) = train_model(tiny_model(1), &ds, 4, 1e-3);
        let (tr_b, _) = train_model(crate::setup::small_model(1), &ds, 4, 1e-3);
        let cmp = spectra((&tr_a.model, &tr_a.normalizer), (&tr_b.model, &tr_b.normalizer), &ds);
        assert_eq!(cmp.truth.len(), cmp.tiny.len());
        assert!(cmp.tail_distance.0.is_finite() && cmp.tail_distance.1.is_finite());
        let s = render_7a(&cmp);
        assert!(s.contains("wavenumber"));

        let dir = std::env::temp_dir().join("orbit2_fig7b_test");
        let art = render_7b((&tr_a.model, &tr_a.normalizer), &ds, &dir).unwrap();
        assert!(art.contains("|"));
        assert!(dir.join("fig7b_truth.pgm").exists());
        assert!(dir.join("fig7b_prediction.pgm").exists());
    }
}

//! Climate-science diagnostics on precipitation and temperature fields:
//! wet-day statistics, field quantiles and simple spell analysis. Used to
//! check that the synthetic substrate behaves like the real products it
//! stands in for, and to compare model output climatology against truth.

/// Fraction of pixels above the wet threshold (default 1 mm/day in the
/// literature).
fn wet_fraction(precip: &[f32], threshold: f32) -> f64 {
    if precip.is_empty() {
        return 0.0;
    }
    precip.iter().filter(|&&p| p >= threshold).count() as f64 / precip.len() as f64
}

/// Mean intensity over wet pixels only (the "SDII" index).
fn wet_intensity(precip: &[f32], threshold: f32) -> f64 {
    let wet: Vec<f32> = precip.iter().copied().filter(|&p| p >= threshold).collect();
    if wet.is_empty() {
        return 0.0;
    }
    wet.iter().map(|&p| p as f64).sum::<f64>() / wet.len() as f64
}

/// Empirical quantile of a field (q in [0, 1]).
fn quantile(field: &[f32], q: f64) -> f32 {
    assert!(!field.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let mut sorted = field.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Compare the climatology (wet fraction, intensity, p95/p99) of a
/// prediction against the truth; returns relative errors.
#[derive(Debug, Clone, Copy)]
pub struct ClimatologyErrors {
    /// Relative error of the wet-day fraction.
    pub wet_fraction_err: f64,
    /// Relative error of the wet intensity.
    pub intensity_err: f64,
    /// Relative error of the 95th percentile.
    pub p95_err: f64,
    /// Relative error of the 99th percentile.
    pub p99_err: f64,
}

/// Compute climatology errors of `pred` against `truth` precipitation.
pub fn climatology_errors(pred: &[f32], truth: &[f32], wet_threshold: f32) -> ClimatologyErrors {
    let rel = |a: f64, b: f64| {
        if b.abs() < 1e-9 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    };
    ClimatologyErrors {
        wet_fraction_err: rel(wet_fraction(pred, wet_threshold), wet_fraction(truth, wet_threshold)),
        intensity_err: rel(wet_intensity(pred, wet_threshold), wet_intensity(truth, wet_threshold)),
        p95_err: rel(quantile(pred, 0.95) as f64, quantile(truth, 0.95) as f64),
        p99_err: rel(quantile(pred, 0.99) as f64, quantile(truth, 0.99) as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LatLonGrid;
    use crate::synth::WorldGenerator;
    use crate::variables::VariableSet;

    #[test]
    fn wet_fraction_bounds_and_known_values() {
        assert_eq!(wet_fraction(&[], 1.0), 0.0);
        assert_eq!(wet_fraction(&[0.0, 2.0, 3.0, 0.5], 1.0), 0.5);
        assert_eq!(wet_fraction(&[5.0; 4], 1.0), 1.0);
    }

    #[test]
    fn wet_intensity_ignores_dry_pixels() {
        assert_eq!(wet_intensity(&[0.0, 2.0, 4.0], 1.0), 3.0);
        assert_eq!(wet_intensity(&[0.0, 0.1], 1.0), 0.0);
    }

    #[test]
    fn quantiles_are_ordered() {
        let f: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert!(quantile(&f, 0.5) < quantile(&f, 0.95));
        assert!(quantile(&f, 0.95) < quantile(&f, 0.99));
        assert_eq!(quantile(&f, 0.0), 0.0);
        assert_eq!(quantile(&f, 1.0), 99.0);
    }

    #[test]
    fn synthetic_precip_has_plausible_climatology() {
        // The generator should produce intermittent precipitation: neither
        // all-dry nor all-wet, with a heavy tail (p99 >> median).
        let w = WorldGenerator::new(LatLonGrid::conus(32, 64), VariableSet::era5_like(), 3);
        let p = w.field("prcp", 5);
        let wf = wet_fraction(&p, 1.0);
        assert!(wf > 0.05 && wf < 0.95, "wet fraction {wf} implausible");
        let p99 = quantile(&p, 0.99);
        let p50 = quantile(&p, 0.5);
        assert!(p99 > 2.0 * p50.max(0.1), "tail p99 {p99} vs median {p50} not heavy");
    }

    #[test]
    fn climatology_errors_zero_for_identity() {
        let w = WorldGenerator::new(LatLonGrid::conus(16, 32), VariableSet::era5_like(), 4);
        let p = w.field("prcp", 1);
        let e = climatology_errors(&p, &p, 1.0);
        assert_eq!(e.wet_fraction_err, 0.0);
        assert_eq!(e.p95_err, 0.0);
    }

    #[test]
    fn climatology_detects_scaling_bias() {
        let w = WorldGenerator::new(LatLonGrid::conus(16, 32), VariableSet::era5_like(), 5);
        let truth = w.field("prcp", 2);
        let biased: Vec<f32> = truth.iter().map(|&x| 1.5 * x).collect();
        let e = climatology_errors(&biased, &truth, 1.0);
        assert!(e.intensity_err > 0.3, "50% scaling must show up: {e:?}");
    }
}

//! Order statistics over small samples.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the driver that accepts or
//! rejects this benchmark computes its spreads with.

/// Sort a copy of `values` ascending. Panics on NaN: a NaN timing is a bug
/// in the harness, not data.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// Linear-interpolated percentile `p` in `[0, 1]` of an ascending slice
/// (the inclusive method: `p = 0` is the minimum, `p = 1` the maximum).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them:
/// position `i * (n + 1) / 4` (1-based) with linear interpolation, clamped
/// to the sample. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let n = s.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the contract is written in.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A sample reduced to what the report prints: median, quartiles, count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the sample.
    pub median: f64,
    /// First quartile (equals the median for a single value).
    pub q1: f64,
    /// Third quartile (equals the median for a single value).
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(values: &[f64]) -> Self {
        let med = median(values);
        let (q1, _, q3) = quartiles(values).unwrap_or((med, med, med));
        Self {
            median: med,
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 0.0), 10.0);
        assert_eq!(percentile_sorted(&s, 1.0), 40.0);
        assert_eq!(percentile_sorted(&s, 0.5), 25.0);
        assert!((percentile_sorted(&s, 0.9) - 37.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn summary_of_one_value_collapses_to_it() {
        let s = Summary::of(&[4.2]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (4.2, 4.2, 4.2, 1));
    }
}

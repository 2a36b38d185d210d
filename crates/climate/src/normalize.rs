//! Channel normalization and quantile-mapping bias correction.
//!
//! The paper's pipeline feeds "normalized and bias corrected" inputs
//! (Sec. II). Normalization is per-channel z-scoring with statistics
//! estimated from training samples; bias correction is empirical quantile
//! mapping between a model distribution and an observation distribution.

use crate::dataset::DownscalingDataset;
use orbit2_tensor::Tensor;

/// Mean/std of one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Channel mean.
    pub mean: f32,
    /// Channel standard deviation (floored to avoid division by ~0).
    pub std: f32,
}

/// Per-channel z-score normalizer for input and target stacks.
#[derive(Debug, Clone)]
pub struct Normalizer {
    /// Stats per input channel.
    pub input_stats: Vec<ChannelStats>,
    /// Stats per output channel.
    pub output_stats: Vec<ChannelStats>,
}

impl Normalizer {
    /// Estimate statistics from the first `n_fit` training samples.
    pub fn fit(dataset: &DownscalingDataset, n_fit: usize) -> Self {
        let train = dataset.indices(crate::dataset::Split::Train);
        let use_n = n_fit.min(train.len()).max(1);
        let c_in = dataset.variables().num_inputs();
        let c_out = dataset.variables().num_outputs();
        let mut in_acc = vec![(0.0f64, 0.0f64, 0u64); c_in];
        let mut out_acc = vec![(0.0f64, 0.0f64, 0u64); c_out];
        for &i in &train[..use_n] {
            let s = dataset.sample(i);
            accumulate(&s.input, &mut in_acc);
            accumulate(&s.target, &mut out_acc);
        }
        Self { input_stats: finalize(&in_acc), output_stats: finalize(&out_acc) }
    }

    /// Normalize an input stack `[C_in, h, w]` in place.
    pub fn normalize_input(&self, input: &Tensor) -> Tensor {
        apply(input, &self.input_stats, false)
    }

    /// Normalize a target stack `[C_out, H, W]`.
    pub fn normalize_target(&self, target: &Tensor) -> Tensor {
        apply(target, &self.output_stats, false)
    }

    /// Invert target normalization (bring predictions back to physical units).
    pub fn denormalize_target(&self, target: &Tensor) -> Tensor {
        apply(target, &self.output_stats, true)
    }
}

fn accumulate(stack: &Tensor, acc: &mut [(f64, f64, u64)]) {
    let c = stack.shape()[0];
    let plane = stack.len() / c;
    for (ci, entry) in acc.iter_mut().enumerate().take(c) {
        let slice = &stack.data()[ci * plane..(ci + 1) * plane];
        let (s, s2, n) = entry;
        for &v in slice {
            *s += v as f64;
            *s2 += (v as f64) * (v as f64);
        }
        *n += plane as u64;
    }
}

fn finalize(acc: &[(f64, f64, u64)]) -> Vec<ChannelStats> {
    acc.iter()
        .map(|&(s, s2, n)| {
            let mean = s / n as f64;
            let var = (s2 / n as f64 - mean * mean).max(0.0);
            ChannelStats { mean: mean as f32, std: (var.sqrt() as f32).max(1e-4) }
        })
        .collect()
}

fn apply(stack: &Tensor, stats: &[ChannelStats], invert: bool) -> Tensor {
    let c = stack.shape()[0];
    assert_eq!(c, stats.len(), "channel count mismatch");
    let plane = stack.len() / c;
    // COW handle: the first mutation faults into a pooled private buffer and
    // the shape handle is shared, so no shape vec or explicit copy here.
    let mut out = stack.clone();
    let data = out.data_mut();
    for (ci, st) in stats.iter().enumerate() {
        for v in &mut data[ci * plane..(ci + 1) * plane] {
            *v = if invert { *v * st.std + st.mean } else { (*v - st.mean) / st.std };
        }
    }
    out
}

/// Empirical quantile mapping: transform `source` values so their CDF
/// matches `reference`'s, using `n_quantiles` knots with linear
/// interpolation. The standard statistical bias-correction operator.
pub fn quantile_map(source: &[f32], reference: &[f32], values: &[f32], n_quantiles: usize) -> Vec<f32> {
    assert!(n_quantiles >= 2);
    assert!(!source.is_empty() && !reference.is_empty());
    let src_q = quantiles(source, n_quantiles);
    let ref_q = quantiles(reference, n_quantiles);
    values
        .iter()
        .map(|&v| {
            // Locate v in the source quantile knots.
            let pos = src_q.partition_point(|&q| q < v);
            if pos == 0 {
                ref_q[0]
            } else if pos >= src_q.len() {
                *ref_q.last().unwrap()
            } else {
                let (lo, hi) = (src_q[pos - 1], src_q[pos]);
                let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
                ref_q[pos - 1] + t * (ref_q[pos] - ref_q[pos - 1])
            }
        })
        .collect()
}

fn quantiles(data: &[f32], n: usize) -> Vec<f32> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64 * (sorted.len() - 1) as f64;
            let lo = f.floor() as usize;
            let hi = f.ceil() as usize;
            let t = (f - lo as f64) as f32;
            sorted[lo] * (1.0 - t) + sorted[hi] * t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LatLonGrid;
    use crate::variables::VariableSet;

    fn ds() -> DownscalingDataset {
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 20, 3)
    }

    #[test]
    fn normalized_channels_are_standardized() {
        let d = ds();
        let norm = Normalizer::fit(&d, 8);
        let s = d.sample(0);
        let ni = norm.normalize_input(&s.input);
        let c = ni.shape()[0];
        let plane = ni.len() / c;
        for ci in 0..c {
            let slice = &ni.data()[ci * plane..(ci + 1) * plane];
            let mean: f32 = slice.iter().sum::<f32>() / plane as f32;
            assert!(mean.abs() < 1.0, "channel {ci} mean {mean} too far from 0");
        }
    }

    #[test]
    fn denormalize_inverts_normalize() {
        let d = ds();
        let norm = Normalizer::fit(&d, 5);
        let s = d.sample(1);
        let round = norm.denormalize_target(&norm.normalize_target(&s.target));
        round.assert_close(&s.target, 1e-2);
    }

    #[test]
    fn quantile_map_matches_target_distribution() {
        // Source ~ N(0,1) values; reference ~ N(10, 2). Mapping source onto
        // reference should land near the reference stats.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let source: Vec<f32> = (0..2000).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let reference: Vec<f32> = (0..2000).map(|_| 10.0 + 2.0 * rng.gen_range(-3.0f32..3.0)).collect();
        let mapped = quantile_map(&source, &reference, &source, 101);
        let mean: f32 = mapped.iter().sum::<f32>() / mapped.len() as f32;
        assert!((mean - 10.0).abs() < 0.5, "mapped mean {mean}");
    }

    #[test]
    fn quantile_map_clamps_out_of_range() {
        let source = vec![0.0f32, 1.0, 2.0, 3.0];
        let reference = vec![10.0f32, 11.0, 12.0, 13.0];
        let mapped = quantile_map(&source, &reference, &[-5.0, 8.0], 5);
        assert_eq!(mapped[0], 10.0);
        assert_eq!(mapped[1], 13.0);
    }

    #[test]
    fn quantile_map_is_monotone() {
        let source: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        let reference: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let values: Vec<f32> = (-10..10).map(|i| i as f32 * 0.5).collect();
        let mapped = quantile_map(&source, &reference, &values, 21);
        for pair in mapped.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-5, "mapping must be monotone");
        }
    }
}

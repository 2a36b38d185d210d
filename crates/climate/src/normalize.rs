//! Channel normalization.
//!
//! The paper's pipeline feeds "normalized and bias corrected" inputs
//! (Sec. II). Normalization is per-channel z-scoring with statistics
//! estimated from training samples. The synthetic inputs carry no model
//! bias to correct, so no bias-correction operator is kept.

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
}

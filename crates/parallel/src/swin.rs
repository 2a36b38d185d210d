//! Swin-Transformer-style hierarchical window attention — the architectural
//! alternative the paper rules out (Sec. II, "Architecture solutions";
//! capped at 147K tokens in SwinV2).
//!
//! Swin computes attention in fixed windows and recovers global context by
//! *merging* patches between stages, which (a) ties the number of hierarchy
//! stages to the input resolution — a different architecture per
//! resolution, unusable for a single foundation model — and (b) grows the
//! channel width (and thus parameters) geometrically with depth, shifting
//! the bottleneck from sequence length to model size. This module models
//! both effects.

use orbit2_cluster::memory::{ACT_FACTOR, BF16, OVERHEAD_BYTES, TRAIN_BYTES_PER_PARAM};
use serde::{Deserialize, Serialize};

/// A Swin-style hierarchy derived from an input token grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SwinHierarchy {
    /// Window edge in tokens (e.g. 8 => 64-token windows).
    pub window: usize,
    /// Base channel width at the finest stage.
    pub base_channels: usize,
    /// Stage descriptions, finest first: `(tokens_per_side, channels)`.
    pub stages: Vec<(usize, usize)>,
}

impl SwinHierarchy {
    /// Build the hierarchy needed to reduce a `side x side` token grid to a
    /// single window (full receptive field): each stage halves the side and
    /// doubles the channels, the Swin scaling rule.
    fn for_resolution(side: usize, window: usize, base_channels: usize) -> Self {
        assert!(side >= window, "input smaller than one window");
        let mut stages = Vec::new();
        let mut s = side;
        let mut c = base_channels;
        loop {
            stages.push((s, c));
            if s <= window {
                break;
            }
            s = s.div_ceil(2);
            c *= 2;
        }
        Self { window, base_channels, stages }
    }

    /// Parameter count: each stage contributes transformer blocks at its
    /// channel width; channels double per stage, so parameters grow ~4x per
    /// stage — the size blow-up that "shifts the computational bottleneck
    /// from long-sequence processing to large-model scaling".
    fn param_count(&self, blocks_per_stage: usize) -> u64 {
        self.stages
            .iter()
            .map(|&(_, c)| blocks_per_stage as u64 * 12 * (c as u64) * (c as u64))
            .sum()
    }

    /// Peak activation memory in bytes (batch 1, BF16): the finest stage
    /// dominates with `side^2` tokens at `base_channels`.
    fn activation_bytes(&self) -> f64 {
        self.stages.iter().map(|&(s, c)| s as f64 * s as f64 * c as f64 * ACT_FACTOR * BF16).sum()
    }

    /// Max token count on a 64 GB GPU given the parameter and activation
    /// growth (the training state per parameter of `cluster::memory`).
    fn fits_on(&self, mem_bytes: u64, blocks_per_stage: usize) -> bool {
        let params = self.param_count(blocks_per_stage) as f64 * TRAIN_BYTES_PER_PARAM;
        params + self.activation_bytes() + OVERHEAD_BYTES as f64 <= mem_bytes as f64
    }
}

/// The largest square token grid a Swin hierarchy fits on one 64 GB GPU —
/// the analog of the paper's 147K-token SwinV2 ceiling.
pub fn swin_max_tokens(window: usize, base_channels: usize, blocks_per_stage: usize, mem_bytes: u64) -> u64 {
    let mut best = 0u64;
    let mut side = window;
    loop {
        let h = SwinHierarchy::for_resolution(side, window, base_channels);
        if !h.fits_on(mem_bytes, blocks_per_stage) {
            break;
        }
        best = (side * side) as u64;
        side *= 2;
        if side > 1 << 20 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_grows_with_resolution() {
        let small = SwinHierarchy::for_resolution(64, 8, 96);
        let big = SwinHierarchy::for_resolution(1024, 8, 96);
        assert!(big.stages.len() > small.stages.len());
        // Exactly log2(side/window) + 1 stages.
        assert_eq!(small.stages.len(), 4);
        assert_eq!(big.stages.len(), 8);
    }

    #[test]
    fn params_blow_up_with_depth() {
        // Each extra stage doubles channels => ~4x the stage parameters;
        // scaling resolution 16x should grow parameters by >100x.
        let small = SwinHierarchy::for_resolution(64, 8, 96).param_count(2);
        let big = SwinHierarchy::for_resolution(1024, 8, 96).param_count(2);
        assert!(big > small * 100, "{small} -> {big}");
    }

    #[test]
    fn ceiling_in_the_147k_regime() {
        // SwinV2's reported ceiling is 147K tokens (1536^2 image, 4x4
        // patches => 147,456 tokens). Our memory model should cap a
        // Swin-style hierarchy in the same order of magnitude on 64 GB.
        let cap = swin_max_tokens(8, 96, 2, 64 * (1 << 30));
        assert!(cap >= 16_384, "cap {cap} too small");
        assert!(cap <= 4_194_304, "cap {cap} should stay in the 10^5-10^6 regime");
    }

    #[test]
    fn single_model_cannot_serve_two_resolutions() {
        // The foundation-model objection: hierarchies for different input
        // resolutions have different depths and parameter counts — they are
        // different models.
        let a = SwinHierarchy::for_resolution(128, 8, 96);
        let b = SwinHierarchy::for_resolution(512, 8, 96);
        assert_ne!(a.stages.len(), b.stages.len());
        assert_ne!(a.param_count(2), b.param_count(2));
    }

    #[test]
    #[should_panic(expected = "smaller than one window")]
    fn rejects_sub_window_input() {
        SwinHierarchy::for_resolution(4, 8, 96);
    }
}

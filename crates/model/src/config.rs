//! Model-size configurations.
//!
//! The paper's Sec. IV lists four configurations: 9.5M (256-dim, 6 layers,
//! 4 heads), 126M (1024-dim, 8 layers, 16 heads), 1B (3072-dim, 8 layers,
//! 24 heads) and 10B (8192-dim, 11 layers, 32 heads). Those are used by the
//! FLOP accounting ([`ModelConfig::train_flops`]) and the cluster
//! simulator. The CPU accuracy experiments train *scaled-down twins*
//! (`tiny`/`small`) that preserve the size ordering.

use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters shared by Reslim and the baseline ViT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Attention heads (must divide `embed_dim`).
    pub heads: usize,
    /// Patch edge in pixels (paper uses 2x2 patches).
    pub patch: usize,
    /// MLP expansion ratio.
    pub mlp_ratio: usize,
    /// Input channels (physical variables).
    pub in_channels: usize,
    /// Output channels (downscaled variables).
    pub out_channels: usize,
    /// Spatial refinement factor (4x throughout the paper).
    pub scale_factor: usize,
}

impl ModelConfig {
    /// The paper's 9.5M configuration.
    pub fn paper_9_5m() -> Self {
        Self { embed_dim: 256, layers: 6, heads: 4, ..Self::base() }
    }

    /// The paper's 126M configuration.
    pub fn paper_126m() -> Self {
        Self { embed_dim: 1024, layers: 8, heads: 16, ..Self::base() }
    }

    /// The paper's 1B configuration.
    pub fn paper_1b() -> Self {
        Self { embed_dim: 3072, layers: 8, heads: 24, ..Self::base() }
    }

    /// The paper's 10B configuration.
    pub fn paper_10b() -> Self {
        Self { embed_dim: 8192, layers: 11, heads: 32, ..Self::base() }
    }

    /// CPU-trainable twin of the small model (stands in for 9.5M).
    pub fn tiny() -> Self {
        Self { embed_dim: 32, layers: 2, heads: 2, ..Self::base() }
    }

    /// CPU-trainable twin of the larger model (stands in for 126M).
    pub fn small() -> Self {
        Self { embed_dim: 64, layers: 3, heads: 4, ..Self::base() }
    }

    fn base() -> Self {
        Self {
            embed_dim: 256,
            layers: 6,
            heads: 4,
            patch: 2,
            mlp_ratio: 4,
            in_channels: 23,
            out_channels: 3,
            scale_factor: 4,
        }
    }

    /// Override channel counts (e.g. 7-channel DAYMET tasks).
    pub fn with_channels(mut self, inputs: usize, outputs: usize) -> Self {
        self.in_channels = inputs;
        self.out_channels = outputs;
        self
    }

    /// Analytic parameter count of the Reslim architecture (transformer
    /// blocks + cross-attention aggregation + embeddings + decoder +
    /// residual path). Matches the standard `12 L D^2` transformer estimate
    /// plus the Reslim extras.
    pub fn param_count(&self) -> u64 {
        let d = self.embed_dim as u64;
        let p2 = (self.patch * self.patch) as u64;
        let blocks = self.layers as u64 * (4 * d * d + 2 * self.mlp_ratio as u64 * d * d + 9 * d);
        let patch_embed = p2 * d + d + self.in_channels as u64 * d;
        let xattn = 4 * d * d + 4 * d;
        let res_embed = 4 * d; // resolution embedding rows for factors 2/4/8/16
        let decoder_hidden = (self.embed_dim as u64 / 2).clamp(8, 64);
        let decoder = d * p2 * decoder_hidden
            + decoder_hidden
            + decoder_hidden * self.out_channels as u64 * 9
            + self.out_channels as u64;
        let residual = self.in_channels as u64 * decoder_hidden * 9
            + decoder_hidden
            + decoder_hidden * self.out_channels as u64 * 9
            + self.out_channels as u64;
        blocks + patch_embed + xattn + res_embed + decoder + residual
    }

    /// Forward FLOPs of the transformer stack at sequence length `s`, the
    /// standard estimates per layer: `8 s D²` for the QKVO projections,
    /// `4 s² D` for the attention matmuls and `4 · mlp_ratio · s D²` for the
    /// MLP.
    fn forward_flops(&self, s: u64) -> f64 {
        let d = self.embed_dim as f64;
        let sf = s as f64;
        let per_layer = 8.0 * sf * d * d + 4.0 * sf * sf * d + 4.0 * self.mlp_ratio as f64 * sf * d * d;
        per_layer * self.layers as f64
    }

    /// Forward+backward (training) FLOPs at sequence length `s`: backward
    /// costs about twice the forward. Reslim runs this at the *effective*
    /// (aggregated, low-resolution, compressed) sequence; the baseline pays
    /// the full upsampled sequence. The stand-in for the paper's DeepSpeed
    /// profiler (Sec. IV "Performance Metrics").
    pub fn train_flops(&self, s: u64) -> f64 {
        3.0 * self.forward_flops(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_reported_parameter_counts() {
        // 12 L D^2 dominates; the paper's labels are approximate. Assert the
        // analytic counts land in the right regime.
        let p95 = ModelConfig::paper_9_5m().param_count();
        assert!(p95 > 4_000_000 && p95 < 12_000_000, "9.5M config: {p95}");
        let p126 = ModelConfig::paper_126m().param_count();
        assert!(p126 > 95_000_000 && p126 < 140_000_000, "126M config: {p126}");
        let p1b = ModelConfig::paper_1b().param_count();
        assert!(p1b > 0.85e9 as u64 && p1b < 1.2e9 as u64, "1B config: {p1b}");
        let p10b = ModelConfig::paper_10b().param_count();
        assert!(p10b > 8.5e9 as u64 && p10b < 11e9 as u64, "10B config: {p10b}");
    }

    #[test]
    fn size_ordering_preserved() {
        let sizes = [
            ModelConfig::tiny().param_count(),
            ModelConfig::small().param_count(),
            ModelConfig::paper_9_5m().param_count(),
            ModelConfig::paper_126m().param_count(),
            ModelConfig::paper_1b().param_count(),
            ModelConfig::paper_10b().param_count(),
        ];
        for pair in sizes.windows(2) {
            assert!(pair[0] < pair[1], "sizes must be strictly increasing: {sizes:?}");
        }
    }

    #[test]
    fn head_dim_divides() {
        for c in [
            ModelConfig::paper_9_5m(),
            ModelConfig::paper_126m(),
            ModelConfig::paper_1b(),
            ModelConfig::paper_10b(),
            ModelConfig::tiny(),
            ModelConfig::small(),
        ] {
            assert_eq!(c.embed_dim % c.heads, 0);
        }
    }

    #[test]
    fn flops_scale_quadratically_in_seq_eventually() {
        let c = ModelConfig::paper_9_5m();
        // Attention reaches half the FLOPs at `s* = (2 + mlp_ratio) · D`.
        let s0 = ((2 + c.mlp_ratio) * c.embed_dim) as u64;
        // Past the crossover, doubling s costs > 3x.
        let f1 = c.forward_flops(4 * s0);
        let f2 = c.forward_flops(8 * s0);
        assert!(f2 / f1 > 3.0);
        // Far below it, roughly linear.
        let g1 = c.forward_flops(s0 / 64);
        let g2 = c.forward_flops(s0 / 32);
        assert!(g2 / g1 < 2.2);
    }

    #[test]
    fn train_flops_are_3x_forward() {
        let c = ModelConfig::paper_126m();
        assert!((c.train_flops(1000) / c.forward_flops(1000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_models_cost_more() {
        let s = 16_384u64;
        let f95 = ModelConfig::paper_9_5m().forward_flops(s);
        let f126 = ModelConfig::paper_126m().forward_flops(s);
        let f10b = ModelConfig::paper_10b().forward_flops(s);
        assert!(f95 < f126 && f126 < f10b);
    }

    #[test]
    fn with_channels_updates_both() {
        let c = ModelConfig::tiny().with_channels(7, 3);
        assert_eq!(c.in_channels, 7);
        assert_eq!(c.out_channels, 3);
    }
}

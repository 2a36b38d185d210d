//! Calibrated analytic sample-time model for Reslim under adaptive
//! compression and TILES tiling.
//!
//! A Reslim training step splits into a part that is *linear* in the token
//! count (MLPs, projections, decoder) and a part that is *quadratic*
//! (self-attention). Tiling with `T` tiles divides the linear part by `T`
//! per tile and the quadratic part by `T^2`, at the price of halo overhead
//! (padded area ratio) and per-tile launch cost; compression by `c` divides
//! tokens by `c` at the price of quad-tree bookkeeping. The constants below
//! are calibrated once against the paper's Table II(b) anchors and then used
//! for *every* prediction (Fig. 6(a), Table II(b), the ablation benches).

use serde::{Deserialize, Serialize};

/// Calibrated constants of the cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostParams {
    /// Fraction of baseline sample time spent in self-attention.
    pub attention_fraction: f64,
    /// Halo width as a fraction of the (untiled) image edge.
    pub halo_edge_ratio: f64,
    /// Relative slowdown of the linear (per-token) work when tokens come
    /// from irregular variable-size quad-tree patches instead of a uniform
    /// grid (gather/scatter instead of coalesced access).
    pub pooling_penalty: f64,
    /// Exposed (non-overlapped) quad-tree build cost per sample, as a
    /// fraction of baseline sample time. CPUs build the trees
    /// asynchronously (Sec. III-C) but the final sync is exposed; this
    /// floor is what makes compression returns diminish (Sec. V-A).
    pub tree_build_cost: f64,
    /// Per-tile fixed launch/stitch cost as a fraction of baseline time.
    pub tile_launch_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            attention_fraction: 0.60,
            halo_edge_ratio: 0.016,
            pooling_penalty: 2.2,
            tree_build_cost: 0.115,
            tile_launch_cost: 0.002,
        }
    }
}

/// The analytic cost model, in units of "fraction of the untiled,
/// uncompressed baseline sample time".
#[derive(Debug, Clone, Copy)]
pub struct ReslimCostModel {
    /// Calibrated constants.
    pub params: CostParams,
}

impl ReslimCostModel {
    /// Model with default (paper-calibrated) constants.
    pub fn new() -> Self {
        Self { params: CostParams::default() }
    }

    /// Halo overhead multiplier for `tiles` tiles on a square-ish image:
    /// `(1 + 2·r·sqrt(T))^2` — tile edge shrinks as `1/sqrt(T)` while the
    /// halo width stays fixed.
    pub fn halo_overhead(&self, tiles: usize) -> f64 {
        if tiles <= 1 {
            return 1.0;
        }
        let r = self.params.halo_edge_ratio;
        let t = tiles as f64;
        (1.0 + 2.0 * r * t.sqrt()).powi(2)
    }

    /// Time for one *tile* of a sample split into `tiles` tiles with
    /// compression `c`, as a fraction of baseline sample time.
    fn per_tile_time(&self, tiles: usize, compression: usize) -> f64 {
        assert!(tiles >= 1 && compression >= 1);
        let x = self.params.attention_fraction;
        let t = tiles as f64;
        let c = compression as f64;
        let irregular = if compression > 1 { 1.0 + self.params.pooling_penalty } else { 1.0 };
        let linear = (1.0 - x) * irregular / (t * c);
        let quadratic = x / (t * c).powi(2);
        let halo = self.halo_overhead(tiles);
        let qt = if compression > 1 { self.params.tree_build_cost / t } else { 0.0 };
        (linear + quadratic) * halo + qt + self.params.tile_launch_cost
    }

    /// Wall-clock time per sample on `gpus` GPUs (fraction of baseline):
    /// tiles execute concurrently across GPUs; with more GPUs than tiles the
    /// surplus processes other samples (DDP), so throughput keeps scaling.
    fn sample_time(&self, tiles: usize, compression: usize, gpus: usize) -> f64 {
        assert!(gpus >= 1);
        self.per_tile_time(tiles, compression) * tiles as f64 / gpus as f64
    }

    /// Speedup relative to the paper's reference: the untiled, uncompressed
    /// baseline running DDP on `baseline_gpus` GPUs.
    pub fn speedup(&self, tiles: usize, compression: usize, gpus: usize, baseline_gpus: usize) -> f64 {
        let baseline = 1.0 / baseline_gpus as f64;
        baseline / self.sample_time(tiles, compression, gpus)
    }

    /// Compression-only speedup at equal GPU count (Table II(b) top half).
    pub fn compression_speedup(&self, compression: usize) -> f64 {
        self.speedup(1, compression, 1, 1)
    }

    /// Tiling-only speedup at equal GPU count (Table II(b) bottom half).
    pub fn tiling_speedup(&self, tiles: usize) -> f64 {
        self.speedup(tiles, 1, 1, 1)
    }
}

impl Default for ReslimCostModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ReslimCostModel {
        ReslimCostModel::new()
    }

    #[test]
    fn baseline_is_unity() {
        assert!((m().sample_time(1, 1, 1) - (1.0 + m().params.tile_launch_cost)).abs() < 1e-12);
        let s = m().speedup(1, 1, 1, 1);
        assert!((s - 1.0).abs() < 0.01);
    }

    #[test]
    fn compression_speedups_match_table2b_shape() {
        // Paper Table II(b): 8x -> 3.3, 16x -> 6.6, 32x -> 7.1.
        let s8 = m().compression_speedup(8);
        let s16 = m().compression_speedup(16);
        let s32 = m().compression_speedup(32);
        assert!(s8 > 2.5 && s8 < 4.5, "8x speedup {s8}");
        assert!(s16 > s8, "16x must beat 8x");
        assert!(s32 > s16, "32x must beat 16x");
        // Diminishing returns: the 16->32 gain is smaller than 8->16.
        assert!((s32 - s16) < (s16 - s8), "quad-tree overhead must flatten the curve");
        assert!(s32 > 5.0 && s32 < 9.0, "32x speedup saturates near 7x, got {s32}");
    }

    #[test]
    fn tiling_speedups_match_table2b_shape() {
        // Paper: 4 -> 1.5, 16 -> 1.9, 36 -> 1.6 (non-monotone: halo wins).
        let s4 = m().tiling_speedup(4);
        let s16 = m().tiling_speedup(16);
        let s36 = m().tiling_speedup(36);
        assert!(s4 > 1.2 && s4 < 2.2, "4-tile speedup {s4}");
        assert!(s16 > s4, "16 tiles must beat 4");
        assert!(s36 < s16, "excessive halo padding must degrade 36 tiles");
        assert!(s36 > 1.0);
    }

    #[test]
    fn fig6a_scaling_is_near_linear_in_gpus() {
        // Speedup vs the 8-GPU untiled baseline with 16 tiles per sample.
        let model = m();
        let s8 = model.speedup(16, 1, 8, 8);
        assert!(s8 > 1.5 && s8 < 2.3, "8-GPU tiled speedup {s8} (paper: 1.9)");
        let s2048 = model.speedup(16, 1, 2048, 8);
        assert!(s2048 > 350.0 && s2048 < 700.0, "2048-GPU speedup {s2048} (paper: 515)");
        // Linearity: doubling GPUs doubles speedup.
        let s1024 = model.speedup(16, 1, 1024, 8);
        assert!((s2048 / s1024 - 2.0).abs() < 0.01);
    }

    #[test]
    fn halo_overhead_monotone_in_tiles() {
        let model = m();
        assert_eq!(model.halo_overhead(1), 1.0);
        assert!(model.halo_overhead(4) < model.halo_overhead(16));
        assert!(model.halo_overhead(16) < model.halo_overhead(64));
    }

    #[test]
    fn combined_compression_and_tiling_compound() {
        // Per-tile work shrinks when both techniques stack (Table III uses
        // 4x compression + 16 tiles for the capacity records).
        let model = m();
        let both = model.per_tile_time(16, 4);
        assert!(both < model.per_tile_time(16, 1));
        assert!(both < model.per_tile_time(1, 4));
        assert!(model.speedup(16, 4, 8, 8) > 1.0, "combined must still beat the baseline");
    }
}

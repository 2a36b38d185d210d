//! The exascale run planner: drives the cluster simulator and parallelism
//! cost models to regenerate the paper's scaling results for hardware
//! configurations far beyond this machine (up to 32,768 GPUs).
//!
//! * [`max_sequence_row`] reproduces Table III (maximum sequence length per
//!   architecture / model size / compression / tiles / GPU count),
//! * [`strong_scaling_series`] reproduces Fig. 6(b) (per-sample time,
//!   strong-scaling efficiency and sustained throughput),
//! * [`arch_comparison`] reproduces the performance half of Table II(a).

use orbit2_cluster::memory::TrainingMemoryModel;
use orbit2_cluster::roofline::{compute_time, GpuEfficiency};
use orbit2_cluster::topology::ClusterSpec;
use orbit2_model::profiler::SequenceAccounting;
use orbit2_model::ModelConfig;
use orbit2_parallel::{ParallelismPlan, ReslimCostModel, WorkloadProfile};
use serde::{Deserialize, Serialize};

/// Which architecture a row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arch {
    /// Upsample-first baseline ViT (quadratic attention at full output
    /// resolution, no flash benefit for the score matrices).
    BaselineVit,
    /// Reslim (channel aggregation, low-res operation, optional adaptive
    /// compression, flash attention).
    Reslim,
}

/// One row of Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqLenRow {
    /// Architecture.
    pub arch: Arch,
    /// Model parameter count (paper configuration).
    pub params: u64,
    /// Adaptive compression ratio.
    pub compression: usize,
    /// TILES tiles per sample.
    pub tiles: usize,
    /// GPU count.
    pub gpus: usize,
    /// Maximum nominal sequence length (output tokens, `H·W·C/4`).
    pub max_seq: u64,
    /// Output field shape `[H, W, C]` at that sequence length.
    pub out_shape: [usize; 3],
    /// Implied global resolution in km.
    pub resolution_km: f64,
    /// True when even the smallest workload OOMs.
    pub oom: bool,
}

/// Output channel count of the Table III experiments.
const TABLE3_CHANNELS: usize = 18;
/// Effective-sequence reduction from operating at input (not output)
/// resolution: `factor^2` with the universal 4x refinement.
const LOWRES_REDUCTION: usize = 16;
/// Earth's circumference (km) for resolution conversion.
const EARTH_CIRCUMFERENCE_KM: f64 = 40_075.0;
/// Sub-linear exponent for sequence capacity growth beyond the 8-GPU base.
///
/// Fitting the paper's Table III pairs (298M -> 466M over 8 -> 32 GPUs;
/// 1.1B -> 4.2B over 8 -> 128; 74M -> 671M over 8 -> 512) gives exponents
/// of 0.32-0.53; we use the midpoint. Sub-linearity reflects
/// sequence-parallel all-gather buffers eating part of each added GPU.
const SEQ_SHARD_ALPHA: f64 = 0.45;

/// Minimal sharding (tensor-parallel, FSDP) for a model's static memory to
/// fit; mirrors how the paper pairs TP within a node with FSDP across it.
fn minimal_sharding(params: u64, cluster: &ClusterSpec, gpus: usize) -> (usize, usize) {
    let cfg_layers = 11usize; // conservative (deepest paper config)
    for shard in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let tp = shard.min(cluster.gpus_per_node);
        let fsdp = shard / tp.min(shard).max(1);
        let fsdp = fsdp.max(1);
        if tp * fsdp > gpus {
            break;
        }
        let m = TrainingMemoryModel::new(params, cfg_layers, 8192, 32).with_sharding(tp, fsdp);
        if m.step_memory(1, 1, 1).fits(&cluster.gpu) {
            return (tp, fsdp);
        }
    }
    (cluster.gpus_per_node, (gpus / cluster.gpus_per_node).max(1))
}

/// Compute one Table III row: the largest output field (and nominal
/// sequence length) that fits on the given configuration.
pub fn max_sequence_row(
    cfg: &ModelConfig,
    arch: Arch,
    compression: usize,
    tiles: usize,
    gpus: usize,
    cluster: &ClusterSpec,
) -> SeqLenRow {
    let params = cfg.param_count();
    let (tp, fsdp) = match arch {
        Arch::BaselineVit => (1, 1),
        Arch::Reslim => minimal_sharding(params, cluster, gpus),
    };
    let mem = TrainingMemoryModel::new(params, cfg.layers, cfg.embed_dim, cfg.heads)
        .with_sharding(tp, fsdp)
        .with_flash(matches!(arch, Arch::Reslim));

    // Staging ratios per *effective* token.
    let c = TABLE3_CHANNELS as f64;
    let (out_per_token, in_per_token, token_expansion) = match arch {
        // Baseline: ViT sequence == nominal tokens; stages 4 output pixels
        // per token (patch area), input upsampled to output size.
        Arch::BaselineVit => (4.0, 4.0, 1.0),
        // Reslim: one effective token stands for channel-aggregation x
        // low-res x compression nominal tokens; staging scales accordingly.
        Arch::Reslim => {
            let expand = c * LOWRES_REDUCTION as f64 * compression as f64;
            (4.0 * expand, 4.0 * expand / 16.0, expand)
        }
    };
    let per_gpu = mem.max_seq_per_gpu(&cluster.gpu, out_per_token, in_per_token);
    if per_gpu == 0 {
        return SeqLenRow {
            arch,
            params,
            compression,
            tiles,
            gpus,
            max_seq: 0,
            out_shape: [0, 0, TABLE3_CHANNELS],
            resolution_km: f64::INFINITY,
            oom: true,
        };
    }

    // Capacity model calibrated on the paper's own Table III ratios: at the
    // 8-GPU base, total sequence capacity equals one GPU's budget (the
    // sequence-parallel group's gather buffers absorb the rest); beyond 8
    // GPUs capacity grows sub-linearly. Tiles partition the *compute*, not
    // the resident sequence — the paper's tiled rows gain only the
    // compression factor in capacity (1.1B / 298M ~ 4x with 4x compression).
    let shard_mult = if matches!(arch, Arch::Reslim) && gpus > 8 {
        (gpus as f64 / 8.0).powf(SEQ_SHARD_ALPHA)
    } else {
        1.0
    };
    let eff_total = per_gpu as f64 * shard_mult;
    let nominal = (eff_total * token_expansion) as u64;

    // Output geometry: nominal = H*W*C/4 with W = 2H (global 2:1 grid).
    let h = ((nominal as f64 * 4.0 / (2.0 * c)).sqrt()).floor() as usize;
    let h = (h / 8).max(1) * 8; // round to a tile-friendly multiple
    let w = 2 * h;
    let max_seq = (h * w) as u64 * TABLE3_CHANNELS as u64 / 4;
    SeqLenRow {
        arch,
        params,
        compression,
        tiles,
        gpus,
        max_seq,
        out_shape: [h, w, TABLE3_CHANNELS],
        resolution_km: EARTH_CIRCUMFERENCE_KM / w as f64,
        oom: false,
    }
}

/// One point of the Fig. 6(b) strong-scaling study.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Node count (8 GPUs per node).
    pub nodes: usize,
    /// GPU count.
    pub gpus: usize,
    /// Seconds per hourly sample.
    pub per_sample_s: f64,
    /// Strong-scaling efficiency vs the 512-GPU baseline.
    pub efficiency: f64,
    /// Sustained throughput in FLOP/s.
    pub sustained_flops: f64,
}

/// Workload of the Fig. 6 experiments: the ERA5 112 -> 28 km task.
pub(crate) fn fig6_workload(cfg: &ModelConfig) -> WorkloadProfile {
    let acc = SequenceAccounting { out_h: 720, out_w: 1440, out_c: 3, patch: 2, factor: 4 };
    let eff_seq = acc.reslim_effective_seq(1.0);
    WorkloadProfile {
        params: cfg.param_count(),
        layers: cfg.layers,
        embed_dim: cfg.embed_dim,
        heads: cfg.heads,
        eff_seq,
        flops_per_sample: cfg.train_flops(eff_seq),
        out_elems: 720 * 1440 * 3,
        in_elems: 180 * 360 * 23,
        flash_attention: true,
    }
}

/// Strong-scaling series for a model configuration over the given GPU
/// counts (paper: 512 / 2048 / 8192 / 32768 = 64..4096 nodes).
pub fn strong_scaling_series(cfg: &ModelConfig, gpu_counts: &[usize], cluster: &ClusterSpec) -> Vec<ScalingPoint> {
    let workload = fig6_workload(cfg);
    let (tp, fsdp) = minimal_sharding(workload.params, cluster, gpu_counts[0]);
    let tiles = 2usize;
    let base = ParallelismPlan { ddp: 1, tiles, fsdp, tensor_parallel: tp };
    let halo = ReslimCostModel::new().halo_overhead(tiles);
    // FLOPs actually executed per sample (constant across the sweep: only
    // the DDP degree changes).
    let executed = orbit2_parallel::estimate_step(&base, &workload, cluster, halo).executed_flops_per_sample;
    let series = orbit2_parallel::estimate::strong_scaling(&base, &workload, cluster, halo, gpu_counts);
    series
        .into_iter()
        .map(|(gpus, per_sample_s, efficiency)| ScalingPoint {
            nodes: gpus / cluster.gpus_per_node,
            gpus,
            per_sample_s,
            efficiency,
            sustained_flops: executed / per_sample_s,
        })
        .collect()
}

/// Performance half of Table II(a): per-sample time of the baseline ViT vs
/// Reslim on `gpus` GPUs for a given output geometry. Returns
/// `(vit_time, vit_oom, reslim_time, speedup)`.
pub fn arch_comparison(
    cfg: &ModelConfig,
    acc: &SequenceAccounting,
    gpus: usize,
    cluster: &ClusterSpec,
) -> (f64, bool, f64, f64) {
    let params = cfg.param_count();
    let eff = GpuEfficiency::for_model_size(params);

    // Baseline ViT: full nominal sequence, quadratic attention memory, and
    // no per-step overhead.
    let vit_seq = acc.nominal_seq_len();
    let vit_mem = TrainingMemoryModel::new(params, cfg.layers, cfg.embed_dim, cfg.heads).with_flash(false);
    let vit_oom = !vit_mem.step_memory(vit_seq, vit_seq * 4, vit_seq * 4).fits(&cluster.gpu);
    let vit_eff = GpuEfficiency { step_overhead: 0.0, ..eff };
    let vit_time = compute_time(cfg.train_flops(vit_seq), &cluster.gpu, vit_eff) / gpus as f64;

    // Reslim: effective sequence (aggregated + low-res).
    let reslim_seq = acc.reslim_effective_seq(1.0);
    let reslim_time = compute_time(cfg.train_flops(reslim_seq), &cluster.gpu, eff) / gpus as f64;
    (vit_time, vit_oom, reslim_time, vit_time / reslim_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::frontier()
    }

    #[test]
    fn table3_vit_rows() {
        let c = cluster();
        // 9.5M ViT caps at a modest sequence length.
        let vit = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::BaselineVit, 1, 1, 8, &c);
        assert!(!vit.oom);
        assert!(vit.max_seq > 5_000 && vit.max_seq < 500_000, "ViT max seq {}", vit.max_seq);
        // 10B ViT OOMs outright (paper Table III row 2).
        let vit10b = max_sequence_row(&ModelConfig::paper_10b(), Arch::BaselineVit, 1, 1, 8, &c);
        assert!(vit10b.oom);
        assert_eq!(vit10b.max_seq, 0);
    }

    #[test]
    fn table3_reslim_beats_vit_by_orders_of_magnitude() {
        let c = cluster();
        let vit = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::BaselineVit, 1, 1, 8, &c);
        let reslim = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, 1, 1, 8, &c);
        assert!(
            reslim.max_seq > vit.max_seq * 1000,
            "Reslim {} vs ViT {}",
            reslim.max_seq,
            vit.max_seq
        );
        // Hundreds of millions of tokens at 8 GPUs (paper: 298M).
        assert!(reslim.max_seq > 50_000_000, "{}", reslim.max_seq);
        // Kilometre-scale global resolution (paper: 3.5 km).
        assert!(reslim.resolution_km < 20.0, "{} km", reslim.resolution_km);
    }

    #[test]
    fn table3_growth_with_gpus_tiles_compression() {
        let c = cluster();
        let cfg = ModelConfig::paper_9_5m();
        let base = max_sequence_row(&cfg, Arch::Reslim, 1, 1, 8, &c);
        let more_gpus = max_sequence_row(&cfg, Arch::Reslim, 1, 1, 32, &c);
        assert!(more_gpus.max_seq > base.max_seq, "more GPUs must extend the sequence");
        // Sub-linear: 4x GPUs must not give 4x tokens (paper: 298M -> 466M).
        assert!((more_gpus.max_seq as f64) < base.max_seq as f64 * 2.5);
        let tiled = max_sequence_row(&cfg, Arch::Reslim, 4, 16, 8, &c);
        assert!(tiled.max_seq > base.max_seq, "tiles + compression must extend the sequence");
        let biggest = max_sequence_row(&cfg, Arch::Reslim, 4, 16, 128, &c);
        assert!(biggest.max_seq > tiled.max_seq);
        // Paper's flagship: 4.2B tokens / 0.9 km at 128 GPUs. Assert the
        // same order of magnitude and sub-2-km resolution.
        assert!(biggest.max_seq > 1_000_000_000, "{}", biggest.max_seq);
        assert!(biggest.resolution_km < 2.0, "{} km", biggest.resolution_km);
    }

    #[test]
    fn table3_10b_reslim_scales_too() {
        let c = cluster();
        let cfg = ModelConfig::paper_10b();
        let base = max_sequence_row(&cfg, Arch::Reslim, 1, 1, 8, &c);
        assert!(!base.oom, "sharded 10B Reslim must fit");
        let big = max_sequence_row(&cfg, Arch::Reslim, 4, 16, 512, &c);
        assert!(big.max_seq > base.max_seq * 10);
        // 10B capacity stays below the 9.5M model's (paper: 671M vs 4.2B).
        let small_model = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, 4, 16, 512, &c);
        assert!(big.max_seq < small_model.max_seq);
    }

    #[test]
    fn fig6b_efficiency_band() {
        let c = cluster();
        for cfg in [
            ModelConfig::paper_9_5m(),
            ModelConfig::paper_126m(),
            ModelConfig::paper_1b(),
            ModelConfig::paper_10b(),
        ] {
            let series = strong_scaling_series(&cfg, &[512, 2048, 8192, 32_768], &c);
            assert_eq!(series.len(), 4);
            assert_eq!(series[0].efficiency, 1.0);
            for p in &series[1..] {
                assert!(
                    p.efficiency > 0.80 && p.efficiency <= 1.001,
                    "{} params, {} GPUs: efficiency {}",
                    cfg.param_count(),
                    p.gpus,
                    p.efficiency
                );
            }
        }
    }

    #[test]
    fn fig6b_throughput_ordering_matches_paper() {
        // At 32,768 GPUs: 9.5M ~ 363 PF; 10B ~ 1.8 EF.
        let c = cluster();
        let small = strong_scaling_series(&ModelConfig::paper_9_5m(), &[512, 32_768], &c);
        let big = strong_scaling_series(&ModelConfig::paper_10b(), &[512, 32_768], &c);
        let sf = small.last().unwrap().sustained_flops * 32_768.0 / 1.0; // per-sample basis
        let bf = big.last().unwrap().sustained_flops * 32_768.0;
        assert!(bf > sf, "larger model must sustain more FLOP/s");
    }

    #[test]
    fn table2a_speedup_in_paper_regime() {
        // 622 -> 156 km: paper reports a 660x Reslim speedup.
        let c = cluster();
        let acc = SequenceAccounting { out_h: 128, out_w: 256, out_c: 3, patch: 2, factor: 4 };
        let (vit_t, vit_oom, reslim_t, speedup) =
            arch_comparison(&ModelConfig::paper_9_5m(), &acc, 128, &c);
        assert!(!vit_oom, "24K tokens fit");
        assert!(vit_t > reslim_t);
        assert!(speedup > 200.0 && speedup < 2000.0, "speedup {speedup} (paper: 660)");
        // 112 -> 28 km: ViT OOMs (paper row 3).
        let acc2 = SequenceAccounting { out_h: 720, out_w: 1440, out_c: 3, patch: 2, factor: 4 };
        let (_, oom2, reslim_t2, _) = arch_comparison(&ModelConfig::paper_9_5m(), &acc2, 128, &c);
        assert!(oom2, "777K-token ViT must OOM");
        assert!(reslim_t2.is_finite() && reslim_t2 > 0.0);
    }

    #[test]
    fn minimal_sharding_scales_with_model() {
        let c = cluster();
        let (tp_s, fsdp_s) = minimal_sharding(9_500_000, &c, 8);
        assert_eq!((tp_s, fsdp_s), (1, 1));
        let (tp_b, fsdp_b) = minimal_sharding(10_000_000_000, &c, 512);
        assert!(tp_b * fsdp_b >= 4, "10B needs real sharding, got {tp_b}x{fsdp_b}");
        assert!(tp_b <= c.gpus_per_node);
    }
}

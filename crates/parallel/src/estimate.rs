//! Full step-time and memory estimation for a (plan, workload, cluster)
//! triple — the engine behind the strong-scaling figure (Fig. 6(b)) and the
//! maximum-sequence-length table (Table III).

use crate::plan::ParallelismPlan;
use orbit2_cluster::collective::{collective_time, hierarchical_allreduce_time, Collective};
use orbit2_cluster::memory::{MemoryBreakdown, TrainingMemoryModel};
use orbit2_cluster::roofline::{compute_time, GpuEfficiency};
use orbit2_cluster::topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Static description of one training workload (model + sample geometry).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Total model parameters.
    pub params: u64,
    /// Transformer depth.
    pub layers: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Effective ViT sequence length per *sample* (after channel
    /// aggregation, low-res operation and adaptive compression; before
    /// tiling).
    pub eff_seq: u64,
    /// Forward+backward FLOPs per sample at that effective sequence.
    pub flops_per_sample: f64,
    /// Output pixels x channels per sample (decode staging).
    pub out_elems: u64,
    /// Input pixels x channels per sample (tokenize staging).
    pub in_elems: u64,
    /// Whether attention uses the flash kernel.
    pub flash_attention: bool,
}

/// Itemized per-step estimate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StepEstimate {
    /// Roofline compute time per GPU.
    pub compute_s: f64,
    /// Tensor-parallel activation all-reduces (exposed).
    pub tp_comm_s: f64,
    /// Layer-wise FSDP gather/reduce-scatter (exposed after overlap).
    pub fsdp_comm_s: f64,
    /// Once-per-batch gradient all-reduce across DDP x TILES.
    pub grad_allreduce_s: f64,
    /// Halo exchange for TILES.
    pub halo_s: f64,
    /// Total step wall-clock.
    pub step_s: f64,
    /// Wall-clock per sample (step time / samples per step).
    pub per_sample_s: f64,
    /// FLOPs actually executed per sample (after the tiling reduction of
    /// the quadratic attention term, before halo overhead).
    pub executed_flops_per_sample: f64,
    /// Per-GPU memory of the dominant rank.
    pub memory: MemoryBreakdown,
    /// Whether the step fits in GPU memory.
    pub fits: bool,
}

/// Estimate one training step of `workload` under `plan` on `cluster`.
///
/// `halo_overhead` multiplies per-tile compute (≥ 1; from
/// [`crate::cost::ReslimCostModel::halo_overhead`]).
pub fn estimate_step(
    plan: &ParallelismPlan,
    workload: &WorkloadProfile,
    cluster: &ClusterSpec,
    halo_overhead: f64,
) -> StepEstimate {
    plan.validate(cluster).expect("invalid plan");
    assert!(halo_overhead >= 1.0);
    let eff = GpuEfficiency::for_model_size(workload.params);
    let groups = plan.groups();

    // --- Compute: tiling divides the linear work by T but the quadratic
    // attention work by T^2 per tile (T tiles total => attention FLOPs drop
    // by T overall) — the core TILES complexity argument (Sec. III-B).
    let seq_per_tile = (workload.eff_seq as f64 / plan.tiles as f64 * halo_overhead).ceil();
    let attn_untiled =
        3.0 * 4.0 * workload.layers as f64 * (workload.eff_seq as f64).powi(2) * workload.embed_dim as f64;
    let attn_untiled = attn_untiled.min(workload.flops_per_sample);
    let linear_flops = workload.flops_per_sample - attn_untiled;
    let sample_flops = linear_flops + attn_untiled / plan.tiles as f64;
    let flops_per_gpu =
        sample_flops * halo_overhead / (plan.tiles as f64 * plan.tensor_parallel as f64);
    let compute_s = compute_time(flops_per_gpu, &cluster.gpu, eff);

    // --- Tensor parallel: Megatron issues 4 activation all-reduces per
    // layer (2 forward, 2 backward); Hybrid-OP's alternating row/column
    // sharding (paper Sec. III-D) merges consecutive shards and halves the
    // frequency. We always model Hybrid-OP on, matching the paper.
    let tp_comm_s = if plan.tensor_parallel > 1 {
        let act_bytes = (seq_per_tile * workload.embed_dim as f64 * 2.0) as u64;
        let per_layer = collective_time(Collective::AllReduce, act_bytes, &groups.tp_groups[0], cluster);
        let hybrid_op_factor = 0.5;
        4.0 * workload.layers as f64 * per_layer * hybrid_op_factor
    } else {
        0.0
    };

    // --- FSDP: per layer, all-gather params (fwd + bwd) and reduce-scatter
    // grads (bwd). Layer-wise wrapping overlaps most of it with compute.
    let fsdp_comm_s = if plan.fsdp > 1 {
        let layer_param_bytes =
            (workload.params as f64 / workload.layers as f64 / plan.tensor_parallel as f64 * 2.0) as u64;
        let g = &groups.fsdp_groups[0];
        let per_layer = 2.0 * collective_time(Collective::AllGather, layer_param_bytes, g, cluster)
            + collective_time(Collective::ReduceScatter, layer_param_bytes, g, cluster);
        let total = per_layer * workload.layers as f64;
        // Overlap with compute: only the non-hidden fraction is exposed.
        overlapped_time(compute_s, total, 0.25) - compute_s.max(total * 0.75).min(compute_s)
    } else {
        0.0
    };
    let fsdp_comm_s = fsdp_comm_s.max(0.0);

    // --- Gradient all-reduce: once per batch over DDP x TILES replicas of
    // each shard (paper: "minimal communication frequency ... once per data
    // batch").
    let grad_bytes =
        (workload.params as f64 / (plan.tensor_parallel * plan.fsdp) as f64 * 2.0) as u64;
    let grad_allreduce_s = hierarchical_allreduce_time(grad_bytes, &groups.grad_groups[0], cluster);

    // --- Halo exchange between neighbouring tiles (input scatter).
    let halo_s = if plan.tiles > 1 {
        let halo_elems = (workload.in_elems as f64 * (halo_overhead - 1.0) / plan.tiles as f64) as u64;
        collective_time(Collective::HaloExchange, halo_elems * 2, &groups.tile_groups[0], cluster)
    } else {
        0.0
    };

    // Synchronization jitter: every step ends in a world-wide barrier (the
    // gradient all-reduce), so the step runs at the pace of the slowest
    // rank. OS noise, network contention and data-loading stragglers make
    // that tail grow with world size; 1.2% per doubling beyond 512 GPUs is
    // calibrated to the paper's 92-98% efficiency band at 32,768 GPUs.
    let world = plan.world_size() as f64;
    let jitter = 1.0 + 0.012 * (world / 512.0).log2().max(0.0);
    let step_s = (compute_s + tp_comm_s + fsdp_comm_s + grad_allreduce_s + halo_s) * jitter;
    let per_sample_s = step_s / plan.samples_per_step() as f64;

    // --- Memory on one GPU.
    let mem_model = TrainingMemoryModel::new(workload.params, workload.layers, workload.embed_dim, workload.heads)
        .with_sharding(plan.tensor_parallel, plan.fsdp)
        .with_flash(workload.flash_attention);
    let memory = mem_model.step_memory(
        seq_per_tile as u64,
        workload.out_elems / plan.tiles as u64 / plan.tensor_parallel as u64,
        workload.in_elems / plan.tiles as u64,
    );
    let fits = memory.fits(&cluster.gpu);

    StepEstimate {
        compute_s,
        tp_comm_s,
        fsdp_comm_s,
        grad_allreduce_s,
        halo_s,
        step_s,
        per_sample_s,
        executed_flops_per_sample: sample_flops,
        memory,
        fits,
    }
}

/// Strong-scaling series: per-sample time and efficiency at several GPU
/// counts, holding everything but the DDP degree fixed. Efficiency is
/// relative to the first entry (the paper uses 512 GPUs as 100%).
pub fn strong_scaling(
    base_plan: &ParallelismPlan,
    workload: &WorkloadProfile,
    cluster: &ClusterSpec,
    halo_overhead: f64,
    gpu_counts: &[usize],
) -> Vec<(usize, f64, f64)> {
    let group = base_plan.tiles * base_plan.fsdp * base_plan.tensor_parallel;
    let mut series = Vec::with_capacity(gpu_counts.len());
    let mut baseline: Option<f64> = None;
    for &gpus in gpu_counts {
        assert!(gpus % group == 0, "GPU count {gpus} not divisible by group size {group}");
        let plan = ParallelismPlan { ddp: gpus / group, ..*base_plan };
        let est = estimate_step(&plan, workload, cluster, halo_overhead);
        let work = est.per_sample_s * gpus as f64; // GPU-seconds per sample
        let eff = match baseline {
            None => {
                baseline = Some(work);
                1.0
            }
            Some(b) => b / work,
        };
        series.push((gpus, est.per_sample_s, eff));
    }
    series
}

/// Step time when `compute` and `comm` can fully overlap except for a
/// non-overlappable `exposed` fraction of the communication.
fn overlapped_time(compute: f64, comm: f64, exposed_fraction: f64) -> f64 {
    let exposed = comm * exposed_fraction.clamp(0.0, 1.0);
    let hidden = comm - exposed;
    compute.max(hidden) + exposed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddp_only(ddp: usize) -> ParallelismPlan {
        ParallelismPlan { ddp, tiles: 1, fsdp: 1, tensor_parallel: 1 }
    }

    fn workload_9_5m() -> WorkloadProfile {
        // 112 -> 28 km task: eff seq after channel-aggregation/low-res.
        WorkloadProfile {
            params: 9_500_000,
            layers: 6,
            embed_dim: 256,
            heads: 4,
            eff_seq: 16_200,
            flops_per_sample: 6.0 * 9.5e6 * 16_200.0, // ~6PF fwd+bwd heuristic
            out_elems: 720 * 1440 * 3,
            in_elems: 180 * 360 * 23,
            flash_attention: true,
        }
    }

    fn workload_10b() -> WorkloadProfile {
        WorkloadProfile {
            params: 10_000_000_000,
            layers: 11,
            embed_dim: 8192,
            heads: 32,
            eff_seq: 16_200,
            flops_per_sample: 6.0 * 10.0e9 * 16_200.0,
            out_elems: 720 * 1440 * 3,
            in_elems: 180 * 360 * 23,
            flash_attention: true,
        }
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::frontier()
    }

    #[test]
    fn ddp_scales_per_sample_time_down() {
        let w = workload_9_5m();
        let c = cluster();
        let t8 = estimate_step(&ddp_only(8), &w, &c, 1.0).per_sample_s;
        let t64 = estimate_step(&ddp_only(64), &w, &c, 1.0).per_sample_s;
        assert!(t64 < t8 / 6.0, "near-linear DDP scaling: {t8} -> {t64}");
    }

    #[test]
    fn tensor_parallel_cuts_compute_adds_comm() {
        let w = workload_10b();
        let c = cluster();
        let solo = estimate_step(
            &ParallelismPlan { ddp: 1, tiles: 1, fsdp: 8, tensor_parallel: 1 },
            &w,
            &c,
            1.0,
        );
        let tp8 = estimate_step(
            &ParallelismPlan { ddp: 1, tiles: 1, fsdp: 8, tensor_parallel: 8 },
            &w,
            &c,
            1.0,
        );
        assert!(tp8.compute_s < solo.compute_s / 7.0);
        assert!(tp8.tp_comm_s > 0.0);
        assert_eq!(solo.tp_comm_s, 0.0);
    }

    #[test]
    fn sharding_enables_10b_memory_fit() {
        let w = workload_10b();
        let c = cluster();
        let unsharded = estimate_step(&ddp_only(8), &w, &c, 1.0);
        assert!(!unsharded.fits, "10B unsharded must OOM");
        let sharded = estimate_step(
            &ParallelismPlan { ddp: 1, tiles: 1, fsdp: 64, tensor_parallel: 8 },
            &w,
            &c,
            1.0,
        );
        assert!(sharded.fits, "10B with TP8 x FSDP64 must fit");
    }

    #[test]
    fn strong_scaling_efficiency_in_paper_band() {
        // Paper Fig. 6(b): 92-98% efficiency from 512 to 32,768 GPUs.
        let w = workload_10b();
        let c = cluster();
        let base = ParallelismPlan { ddp: 1, tiles: 2, fsdp: 32, tensor_parallel: 8 };
        let series = strong_scaling(&base, &w, &c, 1.1, &[512, 2048, 8192, 32768]);
        assert_eq!(series[0].2, 1.0);
        for &(gpus, t, eff) in &series[1..] {
            assert!(eff > 0.85 && eff <= 1.001, "{gpus} GPUs: efficiency {eff}");
            assert!(t > 0.0);
        }
        // Per-sample time strictly decreases.
        for pair in series.windows(2) {
            assert!(pair[1].1 < pair[0].1);
        }
    }

    #[test]
    fn halo_overhead_increases_compute() {
        // Use a compute-heavy workload so the fixed step overhead does not
        // mask the halo multiplier.
        let w = WorkloadProfile { flops_per_sample: 5e14, ..workload_9_5m() };
        let c = cluster();
        let plan = ParallelismPlan { ddp: 1, tiles: 16, fsdp: 1, tensor_parallel: 1 };
        let lean = estimate_step(&plan, &w, &c, 1.0);
        let padded = estimate_step(&plan, &w, &c, 1.3);
        assert!(padded.compute_s > lean.compute_s * 1.25);
        assert!(padded.halo_s > 0.0);
    }

    #[test]
    fn tiling_cuts_quadratic_work() {
        // A workload dominated by attention: 16 tiles must reduce the
        // per-sample compute by nearly 16x even on the same GPU count.
        let mut w = workload_9_5m();
        w.eff_seq = 300_000;
        w.flops_per_sample = 3.0 * 4.0 * 6.0 * (w.eff_seq as f64).powi(2) * 256.0;
        let c = cluster();
        let untiled = estimate_step(&ParallelismPlan { ddp: 16, tiles: 1, fsdp: 1, tensor_parallel: 1 }, &w, &c, 1.0);
        let tiled = estimate_step(&ParallelismPlan { ddp: 1, tiles: 16, fsdp: 1, tensor_parallel: 1 }, &w, &c, 1.0);
        assert!(
            tiled.per_sample_s < untiled.per_sample_s / 8.0,
            "tiling must beat DDP on quadratic work: {} vs {}",
            tiled.per_sample_s,
            untiled.per_sample_s
        );
    }

    #[test]
    fn grad_allreduce_grows_slowly_with_ddp() {
        let w = workload_9_5m();
        let c = cluster();
        let small = estimate_step(&ddp_only(16), &w, &c, 1.0);
        let big = estimate_step(&ddp_only(4096), &w, &c, 1.0);
        assert!(big.grad_allreduce_s < small.grad_allreduce_s * 20.0,
            "hierarchical all-reduce must not explode: {} -> {}",
            small.grad_allreduce_s, big.grad_allreduce_s);
    }

    #[test]
    #[should_panic(expected = "invalid plan")]
    fn invalid_plan_panics() {
        let w = workload_9_5m();
        estimate_step(
            &ParallelismPlan { ddp: 1, tiles: 1, fsdp: 1, tensor_parallel: 64 },
            &w,
            &cluster(),
            1.0,
        );
    }

    #[test]
    fn overlapped_time_limits() {
        assert_eq!(overlapped_time(3.0, 2.0, 0.0), 3.0); // fully hidden
        assert_eq!(overlapped_time(3.0, 2.0, 1.0), 5.0); // fully exposed
        assert_eq!(overlapped_time(1.0, 4.0, 0.5), 2.0f64.max(1.0) + 2.0);
    }
}

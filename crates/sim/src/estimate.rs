//! Full step-time and memory estimation for a (plan, model, workload,
//! cluster) tuple — the engine behind the strong-scaling figure (Fig. 6(b)).

use crate::collective::{collective_time, hierarchical_allreduce_time, Collective};
use crate::memory::TrainingMemoryModel;
use crate::plan::ParallelismPlan;
use crate::roofline::{compute_time, GpuEfficiency};
use crate::topology::ClusterSpec;
use orbit2_model::ModelConfig;

/// The sample geometry of one training workload. The model's shape and its
/// FLOPs come from the [`ModelConfig`] it is estimated with.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Effective ViT sequence length per *sample* (after channel
    /// aggregation, low-res operation and adaptive compression; before
    /// tiling).
    pub eff_seq: u64,
    /// Output pixels x channels per sample (decode staging).
    pub out_elems: u64,
    /// Input pixels x channels per sample (tokenize staging).
    pub in_elems: u64,
}

/// Itemized per-step estimate.
#[derive(Debug, Clone, Copy)]
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
    /// Whether the dominant rank's step fits in GPU memory (flash
    /// attention, sharded by `plan`).
    pub fits: bool,
}

/// Estimate one training step of `cfg` on `workload` under `plan` on
/// `cluster`.
///
/// `halo_overhead` multiplies per-tile compute (≥ 1; from
/// [`crate::cost::halo_overhead`]).
pub fn estimate_step(
    plan: &ParallelismPlan,
    cfg: &ModelConfig,
    workload: &WorkloadProfile,
    cluster: &ClusterSpec,
    halo_overhead: f64,
) -> StepEstimate {
    plan.validate(cluster).expect("invalid plan");
    assert!(halo_overhead >= 1.0);
    let params = cfg.param_count() as f64;
    let layers = cfg.layers as f64;
    let flops_per_sample = cfg.train_flops(workload.eff_seq);
    let eff = GpuEfficiency::for_model_size(cfg.param_count());
    let groups = plan.groups();

    // --- Compute: tiling divides the linear work by T but the quadratic
    // attention work by T^2 per tile (T tiles total => attention FLOPs drop
    // by T overall) — the core TILES complexity argument (Sec. III-B).
    let seq_per_tile = (workload.eff_seq as f64 / plan.tiles as f64 * halo_overhead).ceil();
    let attn_untiled = 3.0 * 4.0 * layers * (workload.eff_seq as f64).powi(2) * cfg.embed_dim as f64;
    let attn_untiled = attn_untiled.min(flops_per_sample);
    let linear_flops = flops_per_sample - attn_untiled;
    let sample_flops = linear_flops + attn_untiled / plan.tiles as f64;
    let flops_per_gpu = sample_flops * halo_overhead / (plan.tiles as f64 * plan.tensor_parallel as f64);
    let compute_s = compute_time(flops_per_gpu, &cluster.gpu, eff);

    // --- Tensor parallel: Megatron issues 4 activation all-reduces per
    // layer (2 forward, 2 backward); Hybrid-OP's alternating row/column
    // sharding (paper Sec. III-D) merges consecutive shards and halves the
    // frequency. We always model Hybrid-OP on, matching the paper.
    let tp_comm_s = if plan.tensor_parallel > 1 {
        let act_bytes = (seq_per_tile * cfg.embed_dim as f64 * 2.0) as u64;
        let per_layer = collective_time(Collective::AllReduce, act_bytes, &groups.tp_groups[0], cluster);
        let hybrid_op_factor = 0.5;
        4.0 * layers * per_layer * hybrid_op_factor
    } else {
        0.0
    };

    // --- FSDP: per layer, all-gather params (fwd + bwd) and reduce-scatter
    // grads (bwd). Layer-wise wrapping overlaps most of it with compute.
    let fsdp_comm_s = if plan.fsdp > 1 {
        let layer_param_bytes = (params / layers / plan.tensor_parallel as f64 * 2.0) as u64;
        let g = &groups.fsdp_groups[0];
        let per_layer = 2.0 * collective_time(Collective::AllGather, layer_param_bytes, g, cluster)
            + collective_time(Collective::ReduceScatter, layer_param_bytes, g, cluster);
        let total = per_layer * layers;
        // Overlap with compute: only the non-hidden fraction is exposed.
        overlapped_time(compute_s, total, 0.25) - compute_s.max(total * 0.75).min(compute_s)
    } else {
        0.0
    };
    let fsdp_comm_s = fsdp_comm_s.max(0.0);

    // --- Gradient all-reduce: once per batch over DDP x TILES replicas of
    // each shard (paper: "minimal communication frequency ... once per data
    // batch").
    let grad_bytes = (params / (plan.tensor_parallel * plan.fsdp) as f64 * 2.0) as u64;
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
    let memory = TrainingMemoryModel::new(cfg).with_sharding(plan.tensor_parallel, plan.fsdp).step_memory(
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
        fits,
    }
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

    /// The 112 -> 28 km task: effective sequence after channel aggregation
    /// and low-res operation.
    fn workload() -> WorkloadProfile {
        WorkloadProfile { eff_seq: 16_200, out_elems: 720 * 1440 * 3, in_elems: 180 * 360 * 23 }
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::frontier()
    }

    #[test]
    fn ddp_scales_per_sample_time_down() {
        let (cfg, w, c) = (ModelConfig::paper_9_5m(), workload(), cluster());
        let t8 = estimate_step(&ddp_only(8), &cfg, &w, &c, 1.0).per_sample_s;
        let t64 = estimate_step(&ddp_only(64), &cfg, &w, &c, 1.0).per_sample_s;
        assert!(t64 < t8 / 6.0, "near-linear DDP scaling: {t8} -> {t64}");
    }

    #[test]
    fn tensor_parallel_cuts_compute_adds_comm() {
        let (cfg, w, c) = (ModelConfig::paper_10b(), workload(), cluster());
        let solo = estimate_step(&ParallelismPlan { ddp: 1, tiles: 1, fsdp: 8, tensor_parallel: 1 }, &cfg, &w, &c, 1.0);
        let tp8 = estimate_step(&ParallelismPlan { ddp: 1, tiles: 1, fsdp: 8, tensor_parallel: 8 }, &cfg, &w, &c, 1.0);
        assert!(tp8.compute_s < solo.compute_s / 7.0);
        assert!(tp8.tp_comm_s > 0.0);
        assert_eq!(solo.tp_comm_s, 0.0);
    }

    #[test]
    fn sharding_enables_10b_memory_fit() {
        let (cfg, w, c) = (ModelConfig::paper_10b(), workload(), cluster());
        let unsharded = estimate_step(&ddp_only(8), &cfg, &w, &c, 1.0);
        assert!(!unsharded.fits, "10B unsharded must OOM");
        let plan = ParallelismPlan { ddp: 1, tiles: 1, fsdp: 64, tensor_parallel: 8 };
        assert!(estimate_step(&plan, &cfg, &w, &c, 1.0).fits, "10B with TP8 x FSDP64 must fit");
    }

    #[test]
    fn strong_scaling_efficiency_in_paper_band() {
        // Paper Fig. 6(b): 92-98% efficiency from 512 to 32,768 GPUs, on a
        // fixed TP8 x FSDP32 x 2-tile plan that spends every added GPU on DDP.
        let (cfg, w, c) = (ModelConfig::paper_10b(), workload(), cluster());
        let per_sample = |gpus: usize| {
            let plan = ParallelismPlan { ddp: gpus / 512, tiles: 2, fsdp: 32, tensor_parallel: 8 };
            estimate_step(&plan, &cfg, &w, &c, 1.1).per_sample_s
        };
        let mut prev = per_sample(512);
        let base_work = prev * 512.0;
        for gpus in [2048, 8192, 32_768] {
            let t = per_sample(gpus);
            let eff = base_work / (t * gpus as f64);
            assert!(eff > 0.85 && eff <= 1.001, "{gpus} GPUs: efficiency {eff}");
            // Per-sample time strictly decreases.
            assert!(t < prev, "{gpus} GPUs: {t} s after {prev} s");
            prev = t;
        }
    }

    #[test]
    fn halo_overhead_increases_compute() {
        // A compute-heavy workload, so the fixed step overhead does not
        // mask the halo multiplier.
        let (cfg, c) = (ModelConfig::paper_9_5m(), cluster());
        let w = WorkloadProfile { eff_seq: 160_000, ..workload() };
        let plan = ParallelismPlan { ddp: 1, tiles: 16, fsdp: 1, tensor_parallel: 1 };
        let lean = estimate_step(&plan, &cfg, &w, &c, 1.0);
        let padded = estimate_step(&plan, &cfg, &w, &c, 1.3);
        assert!(padded.compute_s > lean.compute_s * 1.25);
        assert!(padded.halo_s > 0.0);
    }

    #[test]
    fn tiling_cuts_quadratic_work() {
        // A workload dominated by attention: 16 tiles must reduce the
        // per-sample compute by nearly 16x even on the same GPU count.
        let (cfg, c) = (ModelConfig::paper_9_5m(), cluster());
        let w = WorkloadProfile { eff_seq: 300_000, ..workload() };
        let untiled =
            estimate_step(&ParallelismPlan { ddp: 16, tiles: 1, fsdp: 1, tensor_parallel: 1 }, &cfg, &w, &c, 1.0);
        let tiled =
            estimate_step(&ParallelismPlan { ddp: 1, tiles: 16, fsdp: 1, tensor_parallel: 1 }, &cfg, &w, &c, 1.0);
        assert!(
            tiled.per_sample_s < untiled.per_sample_s / 8.0,
            "tiling must beat DDP on quadratic work: {} vs {}",
            tiled.per_sample_s,
            untiled.per_sample_s
        );
    }

    #[test]
    fn grad_allreduce_grows_slowly_with_ddp() {
        let (cfg, w, c) = (ModelConfig::paper_9_5m(), workload(), cluster());
        let small = estimate_step(&ddp_only(16), &cfg, &w, &c, 1.0);
        let big = estimate_step(&ddp_only(4096), &cfg, &w, &c, 1.0);
        assert!(
            big.grad_allreduce_s < small.grad_allreduce_s * 20.0,
            "hierarchical all-reduce must not explode: {} -> {}",
            small.grad_allreduce_s,
            big.grad_allreduce_s
        );
    }

    #[test]
    #[should_panic(expected = "invalid plan")]
    fn invalid_plan_panics() {
        let plan = ParallelismPlan { ddp: 1, tiles: 1, fsdp: 1, tensor_parallel: 64 };
        estimate_step(&plan, &ModelConfig::paper_9_5m(), &workload(), &cluster(), 1.0);
    }

    #[test]
    fn overlapped_time_limits() {
        assert_eq!(overlapped_time(3.0, 2.0, 0.0), 3.0); // fully hidden
        assert_eq!(overlapped_time(3.0, 2.0, 1.0), 5.0); // fully exposed
        assert_eq!(overlapped_time(1.0, 4.0, 0.5), 2.0f64.max(1.0) + 2.0);
    }
}

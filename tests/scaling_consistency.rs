//! Integration tests on the simulated scaling stack: the planner, the
//! parallelism cost models and the cluster simulator must tell a mutually
//! consistent story that matches the paper's qualitative claims.

use orbit2_model::ModelConfig;
use orbit2_sim::cost::{compression_speedup, halo_overhead, speedup};
use orbit2_sim::estimate::{estimate_step, WorkloadProfile};
use orbit2_sim::plan::ParallelismPlan;
use orbit2_sim::planner::{arch_comparison, max_sequence_row, strong_scaling, Arch, SequenceAccounting};
use orbit2_sim::topology::{ClusterSpec, CommLevel};

fn cluster() -> ClusterSpec {
    ClusterSpec::frontier()
}

#[test]
fn headline_claims_hold_in_simulation() {
    let c = cluster();
    // Claim 1: Reslim unlocks billion-token sequences for the 9.5M model.
    let flagship = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, 4, 16, 128, &c);
    assert!(flagship.max_seq > 1_000_000_000);
    assert!(flagship.resolution_km < 2.0);
    // Claim 2: 10B model reaches hundreds of millions of tokens at 512 GPUs.
    let big = max_sequence_row(&ModelConfig::paper_10b(), Arch::Reslim, 4, 16, 512, &c);
    assert!(big.max_seq > 100_000_000);
    // Claim 3: both crush the prior 188K-token state of the art.
    assert!(flagship.max_seq > 188_000 * 1000);
    assert!(big.max_seq > 188_000 * 100);
}

#[test]
fn table2a_and_table3_are_consistent_on_oom() {
    // The same memory model drives both tables: the 777K-token ViT OOM in
    // Table II(a) must be implied by a Table III ViT cap below 777K.
    let c = cluster();
    let cap = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::BaselineVit, 1, 1, 8, &c);
    assert!(cap.max_seq < 777_600, "ViT cap {} must sit below the OOM case", cap.max_seq);
    let acc = SequenceAccounting { out_h: 720, out_w: 1440, out_c: 3, patch: 2, factor: 4 };
    let (_, oom, _, _) = arch_comparison(&ModelConfig::paper_9_5m(), &acc, 128, &c);
    assert!(oom);
}

#[test]
fn strong_scaling_monotone_and_band() {
    let c = cluster();
    for cfg in [ModelConfig::paper_126m(), ModelConfig::paper_10b()] {
        let series = strong_scaling(&cfg, &[512, 2048, 8192, 32_768], &c);
        for pair in series.windows(2) {
            assert!(pair[1].per_sample_s < pair[0].per_sample_s, "time/sample must fall with GPUs");
            assert!(pair[1].sustained_flops > pair[0].sustained_flops);
        }
        let last = series.last().unwrap();
        assert!(last.efficiency > 0.80, "efficiency {} at 32K GPUs", last.efficiency);
    }
}

#[test]
fn throughput_hierarchy_matches_fig6b() {
    // Paper: at 4096 nodes the sustained throughput ranks
    // 9.5M (363 PF) < 126M (1.3 EF) < 1B (1.5 EF) < 10B (1.8 EF).
    let c = cluster();
    let sustained = |cfg: ModelConfig| strong_scaling(&cfg, &[512, 32_768], &c).last().unwrap().sustained_flops;
    let s95 = sustained(ModelConfig::paper_9_5m());
    let s126 = sustained(ModelConfig::paper_126m());
    let s1b = sustained(ModelConfig::paper_1b());
    let s10b = sustained(ModelConfig::paper_10b());
    assert!(s95 < s126 && s126 < s1b && s1b < s10b, "{s95:.2e} {s126:.2e} {s1b:.2e} {s10b:.2e}");
}

#[test]
fn tiles_cost_model_agrees_with_step_estimator() {
    // Two independent models of tiling: the calibrated analytic cost model
    // and the estimate_step simulator must agree that 16 tiles on 16 GPUs
    // beats 1 tile on 1 GPU by more than 10x per sample.
    let c = cluster();
    let analytic = speedup(16, 1, 16, 1);
    assert!(analytic > 10.0);

    let cfg = ModelConfig::paper_9_5m();
    let workload = WorkloadProfile { eff_seq: 16_200, out_elems: 720 * 1440 * 3, in_elems: 180 * 360 * 23 };
    let single =
        estimate_step(&ParallelismPlan { ddp: 1, tiles: 1, fsdp: 1, tensor_parallel: 1 }, &cfg, &workload, &c, 1.0);
    let tiled = estimate_step(
        &ParallelismPlan { ddp: 1, tiles: 16, fsdp: 1, tensor_parallel: 1 },
        &cfg,
        &workload,
        &c,
        halo_overhead(16),
    );
    assert!(
        single.per_sample_s / tiled.per_sample_s > 5.0,
        "simulator tiling speedup too small: {} / {}",
        single.per_sample_s,
        tiled.per_sample_s
    );
}

#[test]
fn compression_capacity_and_speed_tradeoff() {
    // More compression -> longer max sequences (Table III) AND faster
    // samples (Table II(b)); both must hold simultaneously.
    let c = cluster();
    let mut prev_seq = 0u64;
    let mut prev_speed = 0.0f64;
    for compression in [1usize, 4, 8] {
        let row = max_sequence_row(&ModelConfig::paper_9_5m(), Arch::Reslim, compression, 1, 8, &c);
        assert!(row.max_seq > prev_seq, "compression {compression}x must extend capacity");
        prev_seq = row.max_seq;
        let speed = if compression == 1 { 1.0 } else { compression_speedup(compression) };
        assert!(speed >= prev_speed, "compression {compression}x must not slow down");
        prev_speed = speed;
    }
}

#[test]
fn fig5_placement_is_respected_at_scale() {
    // The full 4096-node configuration keeps TP inside nodes and maps the
    // gradient all-reduce across nodes (Fig. 5's hierarchy).
    let c = cluster();
    let plan = ParallelismPlan { ddp: 256, tiles: 2, fsdp: 8, tensor_parallel: 8 };
    assert_eq!(plan.world_size(), 32_768);
    plan.validate(&c).unwrap();
    let placement = plan.groups().placement(&c);
    assert!(placement.tp_level <= CommLevel::InterCard);
    assert_eq!(placement.grad_level, CommLevel::InterNode);
}

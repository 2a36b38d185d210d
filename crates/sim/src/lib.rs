//! # orbit2-sim
//!
//! A performance simulator for a Frontier-like GPU cluster — the substitute
//! for the machine the paper ran on (32,768 GPUs we do not have) — and the
//! planner that regenerates the paper's scaling results on it (Tables II
//! and III, Fig. 6). The model's shape (parameters, depth, width, heads,
//! FLOPs) always comes from [`orbit2_model::ModelConfig`]; a workload adds
//! only the sample geometry.
//!
//! The cluster:
//!
//! * [`topology`] — the hardware hierarchy of Sec. IV "System Details": 8
//!   GPUs (GCDs) per node in 4 MI250X cards, Infinity Fabric within a card,
//!   50 GB/s fabric between cards, 100 GB/s Slingshot-11 between nodes, 64
//!   GB HBM per GPU;
//! * `memory` — per-GPU training memory accounting (sharded weights,
//!   gradients, Adam moments, activations, attention working set) with OOM
//!   detection, behind every OOM / max-sequence-length cell of Tables II
//!   and III;
//! * `collective` — α-β cost models for ring all-reduce, all-gather,
//!   reduce-scatter and halo exchange over the *bottleneck link* of the
//!   participating group;
//! * `roofline` — compute time: FLOPs / (peak BF16 throughput × an
//!   efficiency calibrated per model-size bucket against the paper's
//!   sustained throughput).
//!
//! The parallelism layer (paper Sec. III-C):
//!
//! * [`plan`] — the four-way decomposition `world = DDP × TILES × FSDP ×
//!   TP` with the rank→hardware mapping of Fig. 5;
//! * [`estimate`] — per-step time and memory of one training configuration:
//!   roofline compute, Megatron-style tensor-parallel syncs (with the
//!   Hybrid-OP reduction), layer-wise FSDP traffic overlapped with compute,
//!   the once-per-batch gradient all-reduce and halo exchanges;
//! * [`cost`] — the calibrated analytic sample-time model behind Table
//!   II(b) and Fig. 6(a);
//! * [`seq_parallel`] and [`swin`] — the two prior approaches to long
//!   sequences TILES displaces (Sec. II), for the Table III landscape.
//!
//! And [`planner`], which drives all of it: [`planner::max_sequence_row`]
//! (Table III), [`planner::strong_scaling`] (Fig. 6(b)) and
//! [`planner::arch_comparison`] (Table II(a)), with the paper's token
//! accounting, [`planner::SequenceAccounting`].

mod collective;
pub mod cost;
pub mod estimate;
mod memory;
pub mod plan;
pub mod planner;
mod roofline;
pub mod seq_parallel;
pub mod swin;
pub mod topology;

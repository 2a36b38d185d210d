//! # orbit2-parallel
//!
//! The orthogonal-parallelism layer of the reproduction (paper Sec. III-C):
//!
//! * [`plan`] — the four-way decomposition `world = DDP × TILES × FSDP ×
//!   TP` with the rank→hardware mapping of Fig. 5 (tensor parallelism inside
//!   a node, FSDP across the neighbouring nodes of a TILES group, TILES
//!   groups on adjacent node pairs, DDP across groups);
//! * [`estimate`] — per-step time and memory estimation for a training
//!   configuration on the simulated cluster: roofline compute, Megatron-style
//!   tensor-parallel syncs (with the Hybrid-OP reduction), layer-wise FSDP
//!   gather/reduce-scatter overlapped with compute, the once-per-batch
//!   TILES/DDP gradient all-reduce, and halo exchanges;
//! * [`cost`] — the calibrated analytic sample-time model behind the
//!   compression/tiling speedup tables (Table II(b)) and the TILES
//!   scaling curve (Fig. 6(a)).

pub mod cost;
pub mod estimate;
pub mod plan;
pub mod seq_parallel;
pub mod swin;

pub use cost::ReslimCostModel;
pub use estimate::{estimate_step, StepEstimate, WorkloadProfile};
pub use plan::ParallelismPlan;
pub use seq_parallel::SeqParallelConfig;
pub use swin::swin_max_tokens;

//! # orbit2-cluster
//!
//! A performance simulator for a Frontier-like GPU cluster — the substitute
//! for the real machine the paper ran on (32,768 GPUs we do not have).
//!
//! The simulator models exactly the mechanisms the paper's scaling results
//! depend on:
//!
//! * [`topology`] — the hardware hierarchy of Sec. IV "System Details": 8
//!   GPUs (GCDs) per node in 4 MI250X cards, Infinity Fabric within a card,
//!   50 GB/s fabric between cards, 100 GB/s Slingshot-11 between nodes, 64
//!   GB HBM per GPU;
//! * [`memory`] — per-GPU training memory accounting (sharded weights,
//!   gradients, Adam moments, activations, attention working set) with OOM
//!   detection, reproducing every OOM / max-sequence-length cell of Tables
//!   II and III;
//! * [`collective`] — α-β cost models for ring all-reduce, all-gather,
//!   reduce-scatter and halo exchange, parameterized by the *bottleneck
//!   link* of the participating group;
//! * [`roofline`] — compute-time model: FLOPs / (peak BF16 throughput ×
//!   an efficiency factor calibrated per model-size bucket against the
//!   paper's reported sustained throughput).
//!
//! How these terms combine into a step time, including how much
//! communication hides behind compute, is `orbit2-parallel`'s `estimate`.

pub mod collective;
pub mod memory;
pub mod roofline;
pub mod topology;

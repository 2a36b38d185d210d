//! # orbit2
//!
//! The public API of the ORBIT-2 reproduction, tying the model, data,
//! imaging and metrics crates together:
//!
//! * [`tiling`] — multi-channel TILES splitting/stitching (halo-padded
//!   tiles over `[C, H, W]` stacks);
//! * [`trainer`] — the TILES-parallel training loop: every tile builds its
//!   own gradient tape on its own thread (standing in for its own GPU),
//!   gradients are averaged once per batch (the paper's single all-reduce),
//!   with emulated-BF16 mixed precision and dynamic gradient scaling;
//! * [`inference`] — halo-padded tiled inference with core stitching;
//! * [`eval`] — evaluation of a trained model against a dataset split,
//!   producing the paper's Table IV metric rows per variable;
//! * [`fault`] — deterministic fault injection ([`FaultPlan`](fault::FaultPlan)) and the
//!   fault/skip vocabulary used by the trainer's elastic recovery;
//! * [`checkpoint`] — the one on-disk tensor container (versioned,
//!   per-section CRC, synced atomic rename): a model checkpoint is its first
//!   two sections, a full-state trainer checkpoint all six;
//! * [`serving`] — wire types of the serving layer: requests, responses
//!   and the typed [`ServeError`](serving::ServeError) vocabulary of the `orbit2-serve`
//!   newline-delimited JSON protocol.
//!
//! The simulated scaling results (Tables II/III, Fig. 6) come from
//! `orbit2-sim`, which neither the trainer nor the server links.

pub mod checkpoint;
pub mod eval;
pub mod fault;
pub mod inference;
pub mod serving;
pub mod tiling;
pub mod trainer;

pub use checkpoint::load_trainer_state;
pub use inference::downscale_with;
pub use trainer::{Trainer, TrainerConfig};

//! # orbit2-autograd
//!
//! Reverse-mode automatic differentiation over [`orbit2_tensor::Tensor`],
//! replacing the role PyTorch autograd plays in the paper's stack.
//!
//! * [`tape`] — the per-graph gradient tape: [`Tape`], [`Var`] and the
//!   elementwise / linear-algebra ops with their adjoints,
//! * [`nn`] — fused neural-net ops (linear, layernorm, conv2d, bilinear
//!   resize) whose backward passes call the hand-written kernels in
//!   `orbit2-tensor`,
//! * [`optim`] — Adam / AdamW over a named [`ParamStore`]; Adam's
//!   moments are flat arenas and its update one parallel sweep,
//! * [`scaler`] — dynamic gradient scaling for emulated-BF16 training
//!   (paper Sec. III-D),
//! * [`params`] — named parameter storage, the flat training-state layout
//!   ([`ParamLayout`]) and the once-per-step gradient reduce
//!   ([`GradAccumulator`]),
//! * `gradcheck` (test builds only) — the finite-difference oracle every
//!   hand-written adjoint in the `nn` and `tape` tests is checked against.
//!
//! A [`Tape`] is deliberately `!Sync`: in the TILES trainer every tile
//! (thread) builds its own tape, mirroring the paper's one-GPU-per-tile
//! execution, and only gradients cross thread boundaries.

#[cfg(test)]
mod gradcheck;
pub mod nn;
pub mod optim;
#[cfg(test)]
mod oracle;
pub mod params;
pub mod scaler;
pub mod tape;

pub use optim::{Adam, Optimizer};
pub use params::{GradAccumulator, ParamLayout, ParamStore};
pub use scaler::GradScaler;
pub use tape::{tape_constructions, Gradients, Tape, Var};

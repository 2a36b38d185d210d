//! # orbit2-tensor
//!
//! A from-scratch, CPU-only tensor library used as the numerical substrate of
//! the ORBIT-2 reproduction. The paper's implementation sits on PyTorch/ROCm;
//! this crate provides the equivalent primitives in safe Rust:
//!
//! * dense row-major [`Tensor`]s of `f32` with NumPy-style broadcasting,
//! * one register-blocked GEMM driver ([`qgemm`]) behind every matrix
//!   product — [`matmul`](Tensor::matmul) and its adjoints, batched matmul,
//!   the fused linear layer — over f32 or int8 weight strips,
//! * direct register-blocked `conv2d` and its two gradients, no unfolded
//!   column matrix (the residual path of Reslim is convolutional),
//! * bilinear / nearest resize and area-average downsampling (the
//!   upsample-first baseline ViT and the synthetic data pipeline),
//! * multi-head attention in L2-sized blocks of query rows, and its
//!   quadratic reference ([`attention`]),
//! * BF16 emulation ([`bf16`]) used by the mixed-precision trainer.
//!
//! Design follows the HPC-parallel guides for this repo: flat, contiguous
//! row-major storage behind copy-on-write `Arc` handles ([`pool::Buffer`]),
//! a thread-local buffer pool so hot loops allocate nothing in steady
//! state, `rayon` parallel iterators over row blocks, and deterministic
//! seeded randomness. See `DESIGN.md` ("Memory model") for the ownership
//! rules and §"Compute model" for the GEMM driver / fused-kernel layer.
//!
//! The kernel layer ([`simd`], [`qgemm`], [`fused`], [`conv`]) is written entirely in
//! safe Rust — explicit lane-array vectors instead of intrinsics — so the
//! crate forbids `unsafe` outright.

#![forbid(unsafe_code)]

pub mod attention;
pub mod bf16;
pub mod conv;
pub mod fused;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod pool;
pub mod qgemm;
pub mod random;
pub mod resize;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use matmul::MatLayout;
pub use pool::Buffer;
pub use qgemm::PackedWeight;
pub use tensor::Tensor;

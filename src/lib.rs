//! ORBIT-2 reproduction — workspace root crate.
//!
//! The implementation lives in `crates/`:
//!
//! | crate | role |
//! |---|---|
//! | `orbit2-tensor` | CPU tensor library (matmul, conv, attention, resize) |
//! | `orbit2-autograd` | reverse-mode autodiff, optimizers, grad scaling |
//! | `orbit2-fft` | FFTs and power spectra |
//! | `orbit2-imaging` | Canny, quad-tree patching, tile/halo geometry |
//! | `orbit2-climate` | synthetic ERA5/DAYMET/IMERG-like data substrate |
//! | `orbit2-metrics` | R², RMSE, quantile RMSE, SSIM, PSNR |
//! | `orbit2-model` | Reslim + baseline ViT architectures, model-size configs |
//! | `orbit2` | trainer, inference, eval, checkpoint — the public API |
//! | `orbit2-serve` | persistent inference server over TCP |
//! | `orbit2-sim` | Frontier-like cluster simulator, parallelism plans, run planner |
//! | `orbit2-bench` | `repro` binary + criterion benches |
//!
//! This package hosts the cross-crate integration tests (`tests/`) and the
//! runnable examples (`examples/`).

//! Compute-time model: FLOPs over calibrated sustained throughput.
//!
//! The simulator predicts kernel time as `flops / (peak * efficiency)`.
//! Efficiency is calibrated per model-size bucket against the sustained
//! throughput the paper reports (Sec. V-D): the 9.5M model underutilizes the
//! hardware (363 PFLOPS at 32,768 GPUs ≈ 5.8% of peak) while the 10B model
//! reaches 1.8 EFLOPS (≈ 29% of peak). Small kernels also pay a fixed launch
//! overhead, which is what bends the strong-scaling curves at tiny
//! per-GPU workloads.

use crate::topology::GpuSpec;

/// Calibrated fraction of peak BF16 throughput a model sustains, plus the
/// fixed per-step kernel-launch overhead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpuEfficiency {
    /// Fraction of peak FLOP/s sustained by the main kernels.
    pub(crate) mfu: f64,
    /// Fixed overhead per training step (kernel launches, host sync), s.
    pub(crate) step_overhead: f64,
}

impl GpuEfficiency {
    /// Calibration by parameter count, anchored to the paper's sustained
    /// throughput numbers at 4096 nodes:
    /// 9.5M → 363 PFLOPS, 126M → 1.3 EF, 1B → 1.5 EF, 10B → 1.8 EF
    /// over 32,768 GPUs × 191.5 TF peak = 6.27 EF total peak.
    pub(crate) fn for_model_size(params: u64) -> Self {
        let mfu = if params < 50_000_000 {
            0.058
        } else if params < 500_000_000 {
            0.207
        } else if params < 5_000_000_000 {
            0.239
        } else {
            0.287
        };
        Self { mfu, step_overhead: 1.2e-4 }
    }
}

/// Time in seconds to execute `flops` on one GPU at the given efficiency.
pub(crate) fn compute_time(flops: f64, gpu: &GpuSpec, eff: GpuEfficiency) -> f64 {
    assert!(flops >= 0.0);
    flops / (gpu.peak_bf16_flops * eff.mfu) + eff.step_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;

    #[test]
    fn efficiency_buckets_are_monotone() {
        let e95 = GpuEfficiency::for_model_size(9_500_000).mfu;
        let e126 = GpuEfficiency::for_model_size(126_000_000).mfu;
        let e1b = GpuEfficiency::for_model_size(1_000_000_000).mfu;
        let e10b = GpuEfficiency::for_model_size(10_000_000_000).mfu;
        assert!(e95 < e126 && e126 < e1b && e1b < e10b);
    }

    #[test]
    fn calibration_reproduces_paper_throughput() {
        // 10B at 32,768 GPUs: sustained = mfu * peak * gpus ≈ 1.8 EF.
        let gpu = ClusterSpec::frontier().gpu;
        let eff = GpuEfficiency::for_model_size(10_000_000_000);
        let sustained = eff.mfu * gpu.peak_bf16_flops * 32_768.0;
        assert!((sustained / 1.8e18 - 1.0).abs() < 0.03, "sustained {sustained:.3e}");
        // 9.5M: ≈ 363 PFLOPS.
        let eff_s = GpuEfficiency::for_model_size(9_500_000);
        let sustained_s = eff_s.mfu * gpu.peak_bf16_flops * 32_768.0;
        assert!((sustained_s / 363e15 - 1.0).abs() < 0.05, "sustained {sustained_s:.3e}");
    }

    #[test]
    fn compute_time_scales_linearly_above_overhead() {
        let gpu = ClusterSpec::frontier().gpu;
        let eff = GpuEfficiency { mfu: 0.25, step_overhead: 0.0 };
        let t1 = compute_time(1e12, &gpu, eff);
        let t2 = compute_time(2e12, &gpu, eff);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_dominates_tiny_kernels() {
        let gpu = ClusterSpec::frontier().gpu;
        let eff = GpuEfficiency { mfu: 0.25, step_overhead: 1e-3 };
        let t = compute_time(1e6, &gpu, eff);
        assert!(t > 0.99e-3 && t < 1.01e-3);
    }
}

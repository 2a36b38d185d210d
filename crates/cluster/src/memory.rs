//! Per-GPU training memory accounting with OOM detection.
//!
//! This model reproduces the mechanism behind every OOM / max-sequence-length
//! entry in the paper's Tables II and III: BF16 weights and gradients sharded
//! by tensor-parallel × FSDP degree, full-precision Adam state, linear
//! activation memory in the effective per-GPU sequence length, the *quadratic*
//! score matrices of non-flash attention, and the input/output staging
//! buffers at image resolution.

use crate::topology::GpuSpec;
use serde::{Deserialize, Serialize};

/// Bytes of one BF16 element.
pub const BF16: f64 = 2.0;
/// Adam with fp32 master weights: master + m + v = 12 bytes per parameter.
const ADAM_BYTES_PER_PARAM: f64 = 12.0;
/// Training state per parameter: BF16 weights and gradients plus Adam's
/// 12 bytes, 16 in all.
pub const TRAIN_BYTES_PER_PARAM: f64 = 2.0 * BF16 + ADAM_BYTES_PER_PARAM;
/// Activations kept per token per layer, in BF16 elements per embedding
/// dimension: QKV, attention output, the 4x MLP intermediate and residuals.
pub const ACT_FACTOR: f64 = 14.0;
/// Allocator and framework overhead per GPU.
pub const OVERHEAD_BYTES: u64 = 2 << 30;

/// Static description of a training configuration's memory behaviour.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainingMemoryModel {
    /// Total model parameters.
    pub params_total: u64,
    /// Transformer depth.
    pub layers: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Tensor-parallel degree (parameters stay sharded).
    pub tp_shard: usize,
    /// FSDP degree (parameters sharded, gathered one layer at a time).
    pub fsdp_shard: usize,
    /// Whether attention uses the flash (streaming) kernel.
    pub flash_attention: bool,
}

impl TrainingMemoryModel {
    /// Reasonable defaults for a ViT trained with activation recomputation
    /// disabled (the paper does not mention checkpointing).
    pub fn new(params_total: u64, layers: usize, embed_dim: usize, heads: usize) -> Self {
        Self {
            params_total,
            layers,
            embed_dim,
            heads,
            tp_shard: 1,
            fsdp_shard: 1,
            flash_attention: true,
        }
    }

    /// Set sharding degrees.
    pub fn with_sharding(mut self, tp: usize, fsdp: usize) -> Self {
        assert!(tp >= 1 && fsdp >= 1);
        self.tp_shard = tp;
        self.fsdp_shard = fsdp;
        self
    }

    /// Select the attention kernel.
    pub fn with_flash(mut self, flash: bool) -> Self {
        self.flash_attention = flash;
        self
    }

    /// Memory required on one GPU for a training step.
    ///
    /// * `seq_per_gpu` — effective ViT sequence length on this GPU (after
    ///   channel aggregation / compression / tiling / low-res operation).
    /// * `out_pixels_per_gpu` / `in_pixels_per_gpu` — staging buffer sizes
    ///   (pixels × channels) this GPU touches for decode and tokenize.
    pub fn step_memory(
        &self,
        seq_per_gpu: u64,
        out_pixels_per_gpu: u64,
        in_pixels_per_gpu: u64,
    ) -> MemoryBreakdown {
        let shard = (self.tp_shard * self.fsdp_shard) as f64;
        let p = self.params_total as f64;
        let weights = p / shard * BF16;
        // Layer-wise FSDP gathers one layer at a time (paper Sec. III-D):
        // transient full-layer copy, divided only by tensor parallelism.
        let gathered_layer = p / self.layers.max(1) as f64 / self.tp_shard as f64 * BF16;
        let grads = p / shard * BF16;
        let optimizer = p / shard * ADAM_BYTES_PER_PARAM;
        let s = seq_per_gpu as f64;
        let activations =
            self.layers as f64 * s * self.embed_dim as f64 / self.tp_shard as f64 * ACT_FACTOR * BF16;
        let attention = if self.flash_attention {
            // Streaming softmax: O(block^2) working set per SM — negligible.
            // The CPU op this repo runs (`orbit2_tensor::attention::
            // multi_head_attention`) holds workers × 48 × N f32 scores
            // (222 KB per worker at N = 1156) plus one head's two packs,
            // `K_hᵀ` and `V_h` (2 × N × d_head f32, 592 KB there): O(N·d),
            // also far inside this allowance. It keeps an exact per-row
            // softmax, not a streaming one.
            64.0 * 1024.0 * 1024.0
        } else {
            // Scores + softmax probabilities + their gradients, per head,
            // fp32 softmax for stability: ~10 bytes per score element,
            // divided across tensor-parallel heads.
            10.0 * s * s * self.heads as f64 / self.tp_shard as f64
        };
        let io_buffers = (out_pixels_per_gpu as f64 * 4.0 + in_pixels_per_gpu as f64 * 2.0) * BF16;
        MemoryBreakdown {
            weights_bytes: (weights + gathered_layer) as u64,
            grads_bytes: grads as u64,
            optimizer_bytes: optimizer as u64,
            activation_bytes: activations as u64,
            attention_bytes: attention as u64,
            io_bytes: io_buffers as u64,
            overhead_bytes: OVERHEAD_BYTES,
        }
    }

    /// Largest effective per-GPU sequence length that fits in `gpu` memory,
    /// holding the staging buffers proportional to the sequence via
    /// `pixels_per_token` factors. Binary search over the monotone
    /// [`TrainingMemoryModel::step_memory`].
    pub fn max_seq_per_gpu(&self, gpu: &GpuSpec, out_pixels_per_token: f64, in_pixels_per_token: f64) -> u64 {
        let fits = |s: u64| {
            self.step_memory(
                s,
                (s as f64 * out_pixels_per_token) as u64,
                (s as f64 * in_pixels_per_token) as u64,
            )
            .fits(gpu)
        };
        if !fits(1) {
            return 0;
        }
        let mut lo = 1u64;
        let mut hi = 1u64 << 40;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Itemized per-GPU memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Sharded BF16 weights plus the transiently gathered FSDP layer.
    pub weights_bytes: u64,
    /// Sharded BF16 gradients.
    pub grads_bytes: u64,
    /// Adam master weights and moments (fp32).
    pub optimizer_bytes: u64,
    /// Layer activations kept for backward.
    pub activation_bytes: u64,
    /// Attention working set (quadratic without flash).
    pub attention_bytes: u64,
    /// Input/output staging buffers.
    pub io_bytes: u64,
    /// Allocator and framework overhead.
    pub overhead_bytes: u64,
}

impl MemoryBreakdown {
    /// Total bytes (saturating: absurd configurations cap at `u64::MAX`
    /// instead of overflowing, so OOM checks stay correct).
    fn total(&self) -> u64 {
        self.weights_bytes
            .saturating_add(self.grads_bytes)
            .saturating_add(self.optimizer_bytes)
            .saturating_add(self.activation_bytes)
            .saturating_add(self.attention_bytes)
            .saturating_add(self.io_bytes)
            .saturating_add(self.overhead_bytes)
    }

    /// Does this fit on the GPU?
    pub fn fits(&self, gpu: &GpuSpec) -> bool {
        self.total() <= gpu.mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;

    fn gpu() -> GpuSpec {
        ClusterSpec::frontier().gpu
    }

    /// Paper model configs (Sec. IV "Model Configuration").
    fn model_9_5m() -> TrainingMemoryModel {
        TrainingMemoryModel::new(9_500_000, 6, 256, 4)
    }

    fn model_10b() -> TrainingMemoryModel {
        TrainingMemoryModel::new(10_000_000_000, 11, 8192, 32)
    }

    #[test]
    fn non_flash_attention_is_quadratic() {
        let m = model_9_5m().with_flash(false);
        let a = m.step_memory(10_000, 0, 0).attention_bytes;
        let b = m.step_memory(20_000, 0, 0).attention_bytes;
        assert!((b as f64 / a as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn vit_9_5m_ooms_near_paper_boundary() {
        // Paper Table III: standard ViT (no flash benefit assumed for the
        // attention matrix, upsample-first) caps at ~25K tokens on one GPU.
        let m = model_9_5m().with_flash(false);
        let ok = m.step_memory(25_000, 25_000 * 4, 25_000 * 4);
        assert!(ok.fits(&gpu()), "25K tokens should fit: {} GB", ok.total() >> 30);
        let bad = m.step_memory(90_000, 90_000 * 4, 90_000 * 4);
        assert!(!bad.fits(&gpu()), "90K tokens must OOM: {} GB", bad.total() >> 30);
    }

    #[test]
    fn vit_777k_tokens_oom() {
        // Table II(a): ViT at sequence length 777,660 OOMs even on 128 GPUs
        // (sequence not sharded by DDP).
        let m = model_9_5m().with_flash(false);
        let mem = m.step_memory(777_660, 777_660 * 4, 777_660 * 4);
        assert!(!mem.fits(&gpu()));
    }

    #[test]
    fn unsharded_10b_ooms_anywhere() {
        // Table III row 2: 10B ViT on 8 GPUs without model sharding OOMs
        // on weights+optimizer alone.
        let m = model_10b();
        let mem = m.step_memory(1, 1, 1);
        assert!(!mem.fits(&gpu()), "10B unsharded needs {} GB", mem.total() >> 30);
    }

    #[test]
    fn sharded_10b_fits() {
        // With TP=8 x FSDP=64 (512 GPUs) the 10B model's static memory fits.
        let m = model_10b().with_sharding(8, 64);
        let mem = m.step_memory(10_000, 40_000, 40_000);
        assert!(mem.fits(&gpu()), "sharded 10B needs {} GB", mem.total() >> 30);
    }

    #[test]
    fn flash_raises_max_seq_dramatically() {
        let naive = model_9_5m().with_flash(false).max_seq_per_gpu(&gpu(), 4.0, 4.0);
        let flash = model_9_5m().max_seq_per_gpu(&gpu(), 4.0, 4.0);
        assert!(flash > naive * 20, "flash {flash} vs naive {naive}");
    }

    #[test]
    fn sharding_frees_memory_for_sequence() {
        let solo = model_10b().with_sharding(1, 8).max_seq_per_gpu(&gpu(), 4.0, 4.0);
        let wide = model_10b().with_sharding(8, 64).max_seq_per_gpu(&gpu(), 4.0, 4.0);
        assert!(wide > solo);
    }

    #[test]
    fn max_seq_is_exact_boundary() {
        let m = model_9_5m();
        let s = m.max_seq_per_gpu(&gpu(), 4.0, 4.0);
        assert!(m.step_memory(s, s * 4, s * 4).fits(&gpu()));
        assert!(!m.step_memory(s + 1, (s + 1) * 4, (s + 1) * 4).fits(&gpu()));
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = model_9_5m().step_memory(1000, 4000, 4000);
        let manual = b.weights_bytes
            + b.grads_bytes
            + b.optimizer_bytes
            + b.activation_bytes
            + b.attention_bytes
            + b.io_bytes
            + b.overhead_bytes;
        assert_eq!(b.total(), manual);
    }
}

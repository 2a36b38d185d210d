//! The assembled Reslim model (paper Fig. 2).
//!
//! Main path: per-variable tokenization → cross-attention aggregation →
//! (+ positional and resolution embeddings) → optional adaptive spatial
//! compression → ViT blocks → decompression → convolutional decoder.
//! Residual path: lightweight convolutional upsampling of the raw input.
//! The prediction is the sum of both paths; no input upsampling ever enters
//! the ViT, which is the whole efficiency argument of the architecture.

use crate::blocks::{cross_attention_aggregate, init_block_params, init_xattn_params, transformer_block};
use crate::compress::{token_saliency, CompressionPlan};
use crate::config::ModelConfig;
use crate::embed::{init_embed_params, resolution_row, sincos_positions, tokenize};
use crate::exec::Exec;
use crate::infer::InferenceSession;
use crate::paths::{decode, init_decoder_params, init_residual_params, residual_path};
use orbit2_autograd::ParamStore;
use orbit2_tensor::fused::WeightPrecision;
use orbit2_tensor::Tensor;

/// A Reslim model: configuration plus named parameters.
pub struct ReslimModel {
    /// Architecture hyper-parameters.
    pub cfg: ModelConfig,
    /// Trainable parameters.
    pub params: ParamStore,
}

impl ReslimModel {
    /// Initialize a model with deterministic weights.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut params = ParamStore::new();
        init_embed_params(&mut params, &cfg, seed);
        init_xattn_params(&mut params, &cfg, seed);
        for l in 0..cfg.layers {
            init_block_params(&mut params, &cfg, &format!("blk{l}"), seed.wrapping_add(l as u64 + 1));
        }
        init_decoder_params(&mut params, &cfg, seed);
        init_residual_params(&mut params, &cfg, seed);
        Self { cfg, params }
    }

    /// Actual trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.params.num_elements()
    }

    /// Prepare a tape-free inference context over this model's weights at
    /// f32: reusable across samples and shareable across tile-worker
    /// threads.
    pub fn session(&self) -> InferenceSession {
        self.session_at(WeightPrecision::F32)
    }

    /// Like [`session`](Self::session), at either weight precision: an
    /// `Int8` session also packs each linear weight
    /// (`InferenceSession::prepare`).
    pub fn session_at(&self, precision: WeightPrecision) -> InferenceSession {
        InferenceSession::prepare(&self.params, precision)
    }

    /// The patch grid of a `[C_in, h, w]` input.
    fn token_grid(&self, input: &Tensor) -> (usize, usize) {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "input must be [C, h, w]");
        (shape[1] / self.cfg.patch, shape[2] / self.cfg.patch)
    }

    /// The forward pass on one `[C_in, h, w]` sample.
    ///
    /// Generic over the execution context: a [`crate::Binder`] records the
    /// pass on its tape for training; an [`InferenceSession`] runs the
    /// identical kernels tape-free. `compression_target` of 1.0 disables
    /// adaptive compression (the module acts as identity).
    ///
    /// Returns the `[C_out, H, W]` prediction and the compression plan
    /// actually used (for sequence-length accounting).
    pub fn forward<E: Exec>(
        &self,
        ex: &E,
        input: &Tensor,
        compression_target: f32,
    ) -> (E::Value, CompressionPlan) {
        let cfg = &self.cfg;
        let (hp, wp) = self.token_grid(input);

        // Main path, step 1: tokenize each variable.
        let tokens = tokenize(ex, cfg, input);
        // Step 2: collapse the variable axis via cross attention.
        let mut agg = cross_attention_aggregate(ex, cfg, &tokens);
        // Step 4 structure decision happens on the *content* features
        // (before positional offsets, which would register as fake edges).
        let plan = if compression_target > 1.0 {
            let saliency = token_saliency(&ex.tensor(&agg), hp, wp);
            CompressionPlan::adaptive(&saliency, compression_target)
        } else {
            CompressionPlan::identity(hp, wp)
        };
        // Step 3: positional + resolution embeddings.
        let pos = ex.constant(sincos_positions(hp, wp, cfg.embed_dim));
        let res_row = ex.slice_axis(
            &ex.param("embed.res"),
            0,
            resolution_row(cfg.scale_factor),
            1,
        ); // [1, D] broadcast
        agg = ex.add(&ex.add(&agg, &pos), &res_row);
        let mut z = plan.compress(ex, &agg);

        // Step 5: ViT blocks on the (possibly compressed) sequence.
        for l in 0..cfg.layers {
            z = transformer_block(ex, cfg, &format!("blk{l}"), &z);
        }

        // Step 6: decompress and decode to the high-resolution image.
        let full = plan.decompress(ex, &z);
        let main = decode(ex, cfg, &full, hp, wp);

        // Residual path on the raw input; the prediction is the sum.
        let residual = residual_path(ex, cfg, input);
        (ex.add(&main, &residual), plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use orbit2_autograd::Tape;
    use orbit2_tensor::random::randn;

    fn model() -> ReslimModel {
        ReslimModel::new(ModelConfig::tiny().with_channels(4, 3), 11)
    }

    #[test]
    fn forward_shape() {
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        let input = randn(&[4, 8, 16], 1);
        let (pred, plan) = m.forward(&binder, &input, 1.0);
        assert_eq!(pred.shape(), vec![3, 32, 64]);
        assert_eq!(plan.compressed_len(), (8 / 2) * (16 / 2));
        assert!(pred.value().all_finite());
    }

    #[test]
    fn forward_deterministic() {
        let m = model();
        let input = randn(&[4, 8, 16], 2);
        let run = || {
            let tape = Tape::new();
            let binder = Binder::new(&tape, &m.params);
            m.forward(&binder, &input, 1.0).0.value()
        };
        assert_eq!(run().data(), run().data());
    }

    #[test]
    fn compression_shortens_sequence_but_keeps_output_shape() {
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        // Smooth input -> high compressibility.
        let input = Tensor::full(vec![4, 16, 16], 0.3);
        let (pred, plan) = m.forward(&binder, &input, 4.0);
        assert_eq!(pred.shape(), vec![3, 64, 64]);
        let ratio = (plan.hp * plan.wp) as f32 / plan.compressed_len() as f32;
        assert!(ratio > 1.5, "smooth input should compress, got {ratio}");
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        let input = randn(&[4, 8, 8], 3);
        let (pred, _) = m.forward(&binder, &input, 1.0);
        let loss = pred.square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        assert_eq!(gm.len(), m.params.len(), "every parameter must be bound in forward");
        let dead: Vec<&String> = gm
            .iter()
            .filter(|(_, g)| g.data().iter().all(|&x| x == 0.0))
            .map(|(n, _)| n)
            .collect();
        assert!(dead.is_empty(), "parameters with zero gradient: {dead:?}");
    }

    #[test]
    fn residual_path_dominates_at_init() {
        // At initialization the ViT output is small; the prediction should
        // correlate with the residual path (training stability argument).
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        let input = randn(&[4, 8, 8], 4);
        let (pred, _) = m.forward(&binder, &input, 1.0);
        let res = residual_path(&binder, &m.cfg, &input);
        let p = pred.value();
        let r = res.value();
        // Prediction minus residual (= ViT main output) has bounded scale.
        let vit_part = p.sub(&r);
        assert!(vit_part.data().iter().all(|v| v.abs() < 50.0));
    }

    #[test]
    fn num_params_close_to_analytic() {
        let m = model();
        let analytic = m.cfg.param_count() as f64;
        let actual = m.num_params() as f64;
        assert!(
            (actual / analytic - 1.0).abs() < 0.25,
            "actual {actual} vs analytic {analytic}"
        );
    }
}

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

    /// Prepare a tape-free inference context over this model's weights:
    /// weights snapshotted and linear packs built once, reusable across
    /// samples and shareable across tile-worker threads.
    pub fn session(&self) -> InferenceSession {
        InferenceSession::prepare(&self.params)
    }

    /// Like [`session`](Self::session), but with the weight set held at a
    /// reduced storage precision (see [`InferenceSession::prepare_at`]).
    pub fn session_at(&self, precision: crate::infer::SessionPrecision) -> InferenceSession {
        InferenceSession::prepare_at(&self.params, precision)
    }

    /// Forward pass on one `[C_in, h, w]` sample: [`Self::forward_batch`]
    /// of one input, which issues no stack or split op.
    ///
    /// Returns the `[C_out, H, W]` prediction and the compression plan
    /// actually used (for sequence-length accounting).
    pub fn forward<E: Exec>(
        &self,
        ex: &E,
        input: &Tensor,
        compression_target: f32,
    ) -> (E::Value, CompressionPlan) {
        self.forward_batch(ex, &[input], compression_target)
            .pop()
            .expect("one input yields one prediction")
    }

    /// The forward pass, over a batch of same-shaped `[C_in, h, w]` inputs.
    ///
    /// Generic over the execution context: a [`crate::Binder`] records the
    /// pass on its tape for training; an [`InferenceSession`] runs the
    /// identical kernels tape-free. `compression_target` of 1.0 disables
    /// adaptive compression (the module acts as identity).
    ///
    /// The samples' token matrices are stacked along the row axis (the
    /// layout TILES tiles have: a batch of same-shaped windows), so every
    /// *row-wise* stage — patch embedding, variable aggregation, Q/K/V and
    /// output projections, layer norms, the MLP, the decoder projection —
    /// is one kernel call, one GEMM per weight, for the whole batch. Stages
    /// that couple rows within a sample (attention scores, the compression
    /// structure decision, convolutions, bilinear resize) run per sample on
    /// its row slice; samples may disagree on their compressed length, so
    /// the stack inside the ViT is ragged.
    ///
    /// **Bit-identity contract**: each returned pair equals what
    /// [`Self::forward`] returns for that input alone on the same context.
    /// Row-wise kernels compute an output row from its input row alone, at
    /// any row count, and stacking and splitting are pure data movement in
    /// both contexts.
    pub fn forward_batch<E: Exec>(
        &self,
        ex: &E,
        inputs: &[&Tensor],
        compression_target: f32,
    ) -> Vec<(E::Value, CompressionPlan)> {
        let cfg = &self.cfg;
        assert!(!inputs.is_empty(), "forward_batch of nothing");
        let shape = inputs[0].shape();
        assert_eq!(shape.len(), 3, "inputs must be [C, h, w]");
        assert!(
            inputs.iter().all(|t| t.shape() == shape),
            "forward_batch requires same-shaped inputs"
        );
        let (hp, wp) = (shape[1] / cfg.patch, shape[2] / cfg.patch);
        let rows = vec![hp * wp; inputs.len()];

        // Main path, step 1: tokenize each variable.
        let tokens = tokenize(ex, cfg, inputs);
        // Step 2: collapse the variable axis via cross attention.
        let mut agg = cross_attention_aggregate(ex, cfg, &tokens);
        // Step 4 structure decision happens per sample on the *content*
        // features (before positional offsets, which would register as
        // fake edges).
        let plans: Vec<CompressionPlan> = if compression_target > 1.0 {
            Tensor::split_rows(&ex.tensor(&agg), &rows)
                .iter()
                .map(|content| {
                    let saliency = token_saliency(content, hp, wp);
                    CompressionPlan::adaptive(&saliency, compression_target)
                })
                .collect()
        } else {
            vec![CompressionPlan::identity(hp, wp); inputs.len()]
        };
        // Step 3: positional + resolution embeddings.
        let pos = sincos_positions(hp, wp, cfg.embed_dim);
        let pos = ex.constant(Tensor::stack_rows(&vec![&pos; inputs.len()]));
        let res_row = ex.slice_axis(
            &ex.param("embed.res"),
            0,
            resolution_row(cfg.scale_factor),
            1,
        ); // [1, D] broadcast
        agg = ex.add(&ex.add(&agg, &pos), &res_row);
        let stacked_plan = CompressionPlan::stack(&plans);
        let mut z = stacked_plan.compress(ex, &agg);

        // Step 5: ViT blocks on the (compressed, possibly ragged) stack.
        let z_rows: Vec<usize> = plans.iter().map(CompressionPlan::compressed_len).collect();
        for l in 0..cfg.layers {
            z = transformer_block(ex, cfg, &format!("blk{l}"), &z, &z_rows);
        }

        // Step 6: decompress and decode to the high-resolution images.
        let full = stacked_plan.decompress(ex, &z);
        let mains = decode(ex, cfg, &full, hp, wp);

        // Residual path on each raw input; the prediction is the sum.
        mains
            .iter()
            .zip(inputs)
            .zip(plans)
            .map(|((main, input), plan)| {
                let residual = residual_path(ex, cfg, input);
                (ex.add(main, &residual), plan)
            })
            .collect()
    }

    /// Effective ViT sequence length for an input of `h x w` pixels at the
    /// given compression ratio (the quantity Tables II/III track).
    pub fn effective_seq_len(&self, h: usize, w: usize, compression: f32) -> usize {
        let n = (h / self.cfg.patch) * (w / self.cfg.patch);
        (n as f32 / compression.max(1.0)) as usize
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
        assert!(plan.ratio() > 1.5, "smooth input should compress, got {}", plan.ratio());
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

    // The batch contract: `forward_batch` returns, per input, the bytes
    // `forward` returns for that input alone on the same session.

    #[test]
    fn batch_of_one_matches_forward() {
        let m = model();
        let session = m.session();
        let input = randn(&[4, 8, 16], 1);
        let (solo, _) = m.forward(&session, &input, 1.0);
        let batch = m.forward_batch(&session, &[&input], 1.0);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0.tensor().data(), solo.into_tensor().data());
    }

    #[test]
    fn batch_matches_per_sample_bitwise() {
        let m = model();
        let session = m.session();
        let inputs: Vec<Tensor> = (0..3).map(|i| randn(&[4, 8, 16], 100 + i)).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let batch = m.forward_batch(&session, &refs, 1.0);
        for (input, (pred, _)) in inputs.iter().zip(&batch) {
            let (solo, _) = m.forward(&session, input, 1.0);
            assert_eq!(pred.tensor().data(), solo.into_tensor().data());
        }
    }

    #[test]
    fn batch_matches_under_adaptive_compression() {
        // Different samples pick different plans (ragged compressed
        // lengths) and the stack must still match per-sample execution.
        let m = model();
        let session = m.session();
        let smooth = Tensor::full(vec![4, 16, 16], 0.25);
        let noisy = randn(&[4, 16, 16], 9);
        let batch = m.forward_batch(&session, &[&smooth, &noisy], 2.0);
        for (input, (pred, plan)) in [&smooth, &noisy].iter().zip(&batch) {
            let (solo, solo_plan) = m.forward(&session, input, 2.0);
            assert_eq!(pred.tensor().data(), solo.into_tensor().data());
            assert_eq!(plan.compressed_len(), solo_plan.compressed_len());
        }
    }

    #[test]
    #[should_panic(expected = "same-shaped")]
    fn mixed_shapes_rejected() {
        let m = model();
        let session = m.session();
        let a = randn(&[4, 8, 16], 1);
        let b = randn(&[4, 8, 8], 2);
        m.forward_batch(&session, &[&a, &b], 1.0);
    }

    #[test]
    fn effective_seq_len_accounting() {
        let m = model();
        assert_eq!(m.effective_seq_len(8, 16, 1.0), 32);
        assert_eq!(m.effective_seq_len(8, 16, 4.0), 8);
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

//! Transformer building blocks: multi-head self-attention, MLP, the
//! pre-norm block, and the cross-attention variable aggregation that
//! collapses the channel axis into a single token sequence (paper Fig. 2).
//!
//! Every forward here is generic over the execution context ([`Exec`]):
//! the same code records on the tape when given a [`crate::Binder`] and
//! runs tape-free on pooled tensors when given a
//! [`crate::infer::InferenceSession`].

use crate::config::ModelConfig;
use crate::exec::Exec;
use orbit2_autograd::ParamStore;
use orbit2_tensor::fused::Activation;
use orbit2_tensor::random::xavier;
use orbit2_tensor::Tensor;

/// Register parameters for one transformer block under `prefix`.
pub fn init_block_params(store: &mut ParamStore, cfg: &ModelConfig, prefix: &str, seed: u64) {
    let d = cfg.embed_dim;
    let hidden = cfg.mlp_ratio * d;
    for (i, name) in ["wq", "wk", "wv", "wo"].iter().enumerate() {
        store.insert(format!("{prefix}.attn.{name}"), xavier(&[d, d], seed ^ (i as u64 + 1)));
    }
    store.insert(format!("{prefix}.attn.bo"), Tensor::zeros(vec![d]));
    store.insert(format!("{prefix}.ln1.g"), Tensor::ones(vec![d]));
    store.insert(format!("{prefix}.ln1.b"), Tensor::zeros(vec![d]));
    store.insert(format!("{prefix}.ln2.g"), Tensor::ones(vec![d]));
    store.insert(format!("{prefix}.ln2.b"), Tensor::zeros(vec![d]));
    store.insert(format!("{prefix}.mlp.w1"), xavier(&[hidden, d], seed ^ 0x10));
    store.insert(format!("{prefix}.mlp.b1"), Tensor::zeros(vec![hidden]));
    store.insert(format!("{prefix}.mlp.w2"), xavier(&[d, hidden], seed ^ 0x11));
    store.insert(format!("{prefix}.mlp.b2"), Tensor::zeros(vec![d]));
}

/// Multi-head self-attention over one sample's `[N, D]` tokens: the Q/K/V
/// projections, one [`Exec::attention`] op, the output projection.
pub fn self_attention<E: Exec>(ex: &E, cfg: &ModelConfig, prefix: &str, x: &E::Value) -> E::Value {
    // Q/K/V projections through the fused linear path (packed `x W^T`
    // kernel, no weight transpose materialized).
    let proj = |name: &str| {
        let w = ex.param(&format!("{prefix}.attn.{name}"));
        ex.linear_act(x, &w, None, Activation::Identity)
    };
    let (q, k, v) = (proj("wq"), proj("wk"), proj("wv"));
    let attended = ex.attention(&q, &k, &v, cfg.heads);
    debug_assert_eq!(ex.shape(&attended)[1], cfg.embed_dim);
    ex.linear_act(
        &attended,
        &ex.param(&format!("{prefix}.attn.wo")),
        Some(&ex.param(&format!("{prefix}.attn.bo"))),
        Activation::Identity,
    )
}

/// Two-layer GELU MLP over a token matrix. The first layer runs GEMM +
/// bias + GELU as one fused kernel (the tape context additionally stores
/// the pre-activation for backward; the inference context skips that).
pub fn mlp<E: Exec>(ex: &E, prefix: &str, x: &E::Value) -> E::Value {
    let h = ex.linear_act(
        x,
        &ex.param(&format!("{prefix}.mlp.w1")),
        Some(&ex.param(&format!("{prefix}.mlp.b1"))),
        Activation::Gelu,
    );
    ex.linear_act(
        &h,
        &ex.param(&format!("{prefix}.mlp.w2")),
        Some(&ex.param(&format!("{prefix}.mlp.b2"))),
        Activation::Identity,
    )
}

/// Pre-norm transformer block over one sample's tokens: `x + Attn(LN(x))`,
/// then `x + MLP(LN(x))`.
pub fn transformer_block<E: Exec>(ex: &E, cfg: &ModelConfig, prefix: &str, x: &E::Value) -> E::Value {
    let n1 = ex.layer_norm(
        x,
        &ex.param(&format!("{prefix}.ln1.g")),
        &ex.param(&format!("{prefix}.ln1.b")),
        1e-5,
    );
    let x = ex.add(x, &self_attention(ex, cfg, prefix, &n1));
    let n2 = ex.layer_norm(
        &x,
        &ex.param(&format!("{prefix}.ln2.g")),
        &ex.param(&format!("{prefix}.ln2.b")),
        1e-5,
    );
    ex.add(&x, &mlp(ex, prefix, &n2))
}

/// Register parameters of the cross-attention variable aggregation.
pub fn init_xattn_params(store: &mut ParamStore, cfg: &ModelConfig, seed: u64) {
    let d = cfg.embed_dim;
    for (i, name) in ["wq", "wk", "wv", "wo"].iter().enumerate() {
        store.insert(format!("xattn.{name}"), xavier(&[d, d], seed ^ (0x20 + i as u64)));
    }
    store.insert("xattn.bo", Tensor::zeros(vec![d]));
}

/// Cross-attention aggregation: per spatial token, attend from the
/// variable-mean query over the `C` per-variable tokens and collapse them
/// into one (paper: "aggregate multi-variable embeddings into a unified
/// representation, effectively collapsing the variable dimension").
///
/// The "attention" is a per-token softmax over the `C` variables, so every
/// op is row-wise.
pub fn cross_attention_aggregate<E: Exec>(
    ex: &E,
    cfg: &ModelConfig,
    tokens: &[E::Value],
) -> E::Value {
    assert!(!tokens.is_empty());
    let d = cfg.embed_dim;
    let c = tokens.len();
    // Query: mean over variables, projected.
    let mut sum = tokens[0].clone();
    for t in &tokens[1..] {
        sum = ex.add(&sum, t);
    }
    let mean = ex.scale(&sum, 1.0 / c as f32);
    let proj = |x: &E::Value, name: &str| {
        ex.linear_act(x, &ex.param(name), None, Activation::Identity)
    };
    let q = proj(&mean, "xattn.wq");
    let scale = 1.0 / (d as f32).sqrt();
    let ones = ex.constant(Tensor::ones(vec![d, 1]));
    let mut scores = Vec::with_capacity(c);
    let mut values = Vec::with_capacity(c);
    for t in tokens {
        let k = proj(t, "xattn.wk");
        values.push(proj(t, "xattn.wv"));
        // Row-wise dot product q·k -> [N, 1] via the ones matvec.
        scores.push(ex.scale(&ex.matmul(&ex.mul(&q, &k), &ones), scale));
    }
    let probs = ex.softmax_last(&ex.concat(&scores, 1)); // [N, C]
    let mut out: Option<E::Value> = None;
    for (ci, v) in values.iter().enumerate() {
        let p = ex.slice_axis(&probs, 1, ci, 1); // [N, 1] broadcasts over D
        let term = ex.mul(&p, v);
        out = Some(match out {
            Some(acc) => ex.add(&acc, &term),
            None => term,
        });
    }
    ex.linear_act(
        &out.unwrap(),
        &ex.param("xattn.wo"),
        Some(&ex.param("xattn.bo")),
        Activation::Identity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::infer::InferenceSession;
    use orbit2_autograd::{Tape, Var};
    use orbit2_tensor::random::randn;

    fn setup(cfg: &ModelConfig) -> ParamStore {
        let mut store = ParamStore::new();
        init_block_params(&mut store, cfg, "blk0", 7);
        init_xattn_params(&mut store, cfg, 7);
        store
    }

    #[test]
    fn block_preserves_shape_and_is_finite() {
        let cfg = ModelConfig::tiny();
        let store = setup(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(randn(&[10, cfg.embed_dim], 1));
        let y = transformer_block(&binder, &cfg, "blk0", &x);
        assert_eq!(y.shape(), vec![10, cfg.embed_dim]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn block_matches_between_contexts_bitwise() {
        // The same block through the tape and through a session must agree
        // to the last bit (shared kernels, shared branch structure).
        let cfg = ModelConfig::tiny();
        let store = setup(&cfg);
        let input = randn(&[10, cfg.embed_dim], 9);

        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(input.clone());
        let taped = transformer_block(&binder, &cfg, "blk0", &x).value();

        let session = InferenceSession::prepare(&store);
        let xs = Exec::constant(&session, input);
        let free = transformer_block(&session, &cfg, "blk0", &xs).into_tensor();

        assert_eq!(taped.data(), free.data());
    }

    #[test]
    fn block_is_trainable_end_to_end() {
        let cfg = ModelConfig::tiny();
        let store = setup(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(randn(&[6, cfg.embed_dim], 2));
        let y = transformer_block(&binder, &cfg, "blk0", &x);
        let loss = y.square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        // Every block parameter receives a non-trivial gradient.
        for name in [
            "blk0.attn.wq",
            "blk0.attn.wo",
            "blk0.mlp.w1",
            "blk0.mlp.w2",
            "blk0.ln1.g",
        ] {
            let g = &gm[name];
            assert!(g.data().iter().any(|&x| x != 0.0), "{name} has zero gradient");
            assert!(g.all_finite(), "{name} has non-finite gradient");
        }
    }

    #[test]
    fn attention_head_slices_cover_dim() {
        // Heads x head_dim == embed_dim guaranteed by config; smoke-check
        // a 4-head tiny config through attention.
        let cfg = ModelConfig { heads: 4, embed_dim: 32, ..ModelConfig::tiny() };
        let mut store = ParamStore::new();
        init_block_params(&mut store, &cfg, "blk0", 3);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(randn(&[5, 32], 3));
        let y = self_attention(&binder, &cfg, "blk0", &x);
        assert_eq!(y.shape(), vec![5, 32]);
    }

    #[test]
    fn xattn_collapses_variables() {
        let cfg = ModelConfig::tiny().with_channels(5, 3);
        let store = setup(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let tokens: Vec<Var<'_>> = (0..5)
            .map(|i| tape.constant(randn(&[8, cfg.embed_dim], 10 + i)))
            .collect();
        let agg = cross_attention_aggregate(&binder, &cfg, &tokens);
        assert_eq!(agg.shape(), vec![8, cfg.embed_dim]);
        assert!(agg.value().all_finite());
    }

    #[test]
    fn xattn_attends_not_averages() {
        // The aggregation must differ from a plain mean of the value
        // projections (i.e. the softmax actually weights variables).
        let cfg = ModelConfig::tiny().with_channels(3, 3);
        let store = setup(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let tokens: Vec<Var<'_>> = (0..3)
            .map(|i| tape.constant(randn(&[4, cfg.embed_dim], 20 + i).mul_scalar((i + 1) as f32)))
            .collect();
        let agg = cross_attention_aggregate(&binder, &cfg, &tokens);
        // Plain mean baseline through the same projections.
        let mut sum = tokens[0];
        for t in &tokens[1..] {
            sum = sum.add(*t);
        }
        let mean_v = sum
            .scale(1.0 / 3.0)
            .matmul(binder.param("xattn.wv").transpose2())
            .linear(binder.param("xattn.wo"), Some(binder.param("xattn.bo")));
        assert!(agg.value().max_abs_diff(&mean_v.value()) > 1e-4);
    }

    #[test]
    fn xattn_gradients_flow_to_all_projections() {
        let cfg = ModelConfig::tiny().with_channels(3, 3);
        let store = setup(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let tokens: Vec<Var<'_>> = (0..3)
            .map(|i| tape.constant(randn(&[4, cfg.embed_dim], 30 + i)))
            .collect();
        let loss = cross_attention_aggregate(&binder, &cfg, &tokens).square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        for name in ["xattn.wq", "xattn.wk", "xattn.wv", "xattn.wo"] {
            assert!(gm[name].data().iter().any(|&x| x != 0.0), "{name} got no gradient");
        }
    }
}

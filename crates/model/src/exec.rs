//! The execution-context abstraction: one model code path, two runtimes.
//!
//! Every forward function in this crate (blocks, embeddings, paths, the
//! assembled models) is generic over [`Exec`]. Training instantiates it
//! with the tape-recording [`Binder`] (`Value = Var`): every op lands on
//! the gradient tape and stashes whatever its adjoint needs. Inference
//! instantiates it with [`crate::infer::InferenceSession`]
//! (`Value = SessionValue`): the same tensor kernels run directly on
//! pooled tensors — no tape nodes, no pre-activation storage, and linear
//! weights read in place or packed once per session instead of once per
//! call.
//!
//! Both implementations route every op through the *same* underlying
//! `orbit2-tensor` kernel (the `Var` forwards are thin wrappers over them),
//! so for identical inputs the two contexts produce bit-identical outputs —
//! the property `tests/tape_free.rs` locks in.
//!
//! Two ops are composites, whose default body is a composition of the ops
//! above them: [`Exec::attention`] (per head) and [`Exec::upsample_conv`]
//! (`resize_bilinear → conv2d`). Both contexts override both with one
//! kernel that never builds the composition's largest intermediate:
//! `orbit2_tensor::attention::multi_head_attention` holds no whole score
//! matrix, and `orbit2_tensor::conv::upsample_conv2d` interpolates each
//! band's padded rows into its scratch, never the upsampled image. The tape
//! records each as one node (`Var::attention`, `Var::upsample_conv`) whose
//! backward recomputes what the kernel skipped: a head's probabilities, or
//! the image for the weight gradient. An override keeps one contract: every
//! output bit equals the composition's and, on the tape, every gradient
//! bit. The tensor crate checks the kernels against the compositions across
//! their block, band, strip and channel-block boundaries; the autograd
//! crate checks the nodes on the tape. So no production context runs a
//! default body: they are the tests' oracle, and the replay of a wrapper
//! that forwards only the primitive ops (the benchmark's timing wrapper).
//!
//! `tests/tape_free.rs` checks session against tape through whole models;
//! `tests/split_invariance.rs` checks both kernels under any split of
//! their tasks.
//!
//! Every forward takes one sample: a TILES tile is a model input of its
//! own, and nothing stacks samples from different calls into one pass.

use crate::binder::Binder;
use orbit2_autograd::Var;
use orbit2_tensor::conv::ConvGeom;
use orbit2_tensor::fused::Activation;
use orbit2_tensor::Tensor;
use std::sync::Arc;

/// Shared, immutable row-group list for token pool/unpool.
///
/// A [`crate::compress::CompressionPlan`] builds the groups once; every
/// forward that replays the plan clones an `Arc` pointer instead of deep-
/// copying the nested vectors (the tape impl used to `to_vec()` them on
/// every call — measurable churn in steady-state serving).
pub type RowGroups = Arc<[Vec<usize>]>;

/// An execution context for model forward passes.
///
/// `Value` is the context's handle to an intermediate result: a tape index
/// ([`Var`]) when training, a plain tensor wrapper when running tape-free.
/// Handles are cheap to clone (copy of an index, or a COW tensor handle).
pub trait Exec {
    /// The context's value handle.
    type Value: Clone;

    /// Named model parameter.
    fn param(&self, name: &str) -> Self::Value;

    /// Non-trainable input tensor.
    fn constant(&self, t: Tensor) -> Self::Value;

    /// The concrete tensor behind a value (COW clone, no data copy).
    fn tensor(&self, v: &Self::Value) -> Tensor;

    /// Shape of a value.
    fn shape(&self, v: &Self::Value) -> Vec<usize>;

    /// Elementwise addition with broadcasting.
    fn add(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Elementwise multiplication with broadcasting.
    fn mul(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Multiply by a scalar constant.
    fn scale(&self, a: &Self::Value, s: f32) -> Self::Value;

    /// GELU activation (tanh approximation).
    fn gelu(&self, a: &Self::Value) -> Self::Value;

    /// Matrix multiplication of 2-d values.
    fn matmul(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `a @ b^T` without materializing the transpose.
    fn matmul_nt(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Row softmax along the last axis.
    fn softmax_last(&self, a: &Self::Value) -> Self::Value;

    /// Slice `axis` to `[start, start + len)`.
    fn slice_axis(&self, a: &Self::Value, axis: usize, start: usize, len: usize) -> Self::Value;

    /// Concatenate along an axis.
    fn concat(&self, parts: &[Self::Value], axis: usize) -> Self::Value;

    /// Gather rows of a 2-d value.
    fn gather_rows(&self, a: &Self::Value, indices: Vec<usize>) -> Self::Value;

    /// Reshape.
    fn reshape(&self, a: &Self::Value, shape: Vec<usize>) -> Self::Value;

    /// Affine map `x @ w^T + bias` (weight layout `[out, in]`).
    fn linear(&self, x: &Self::Value, w: &Self::Value, bias: Option<&Self::Value>) -> Self::Value {
        self.linear_act(x, w, bias, Activation::Identity)
    }

    /// Fused linear layer `act(x @ w^T + bias)`.
    fn linear_act(
        &self,
        x: &Self::Value,
        w: &Self::Value,
        bias: Option<&Self::Value>,
        act: Activation,
    ) -> Self::Value;

    /// Layer norm over the last axis with affine parameters.
    fn layer_norm(
        &self,
        x: &Self::Value,
        gamma: &Self::Value,
        beta: &Self::Value,
        eps: f32,
    ) -> Self::Value;

    /// 2-d convolution `x [N,C,H,W] * w [O,C,KH,KW] (+ bias [O])`.
    fn conv2d(
        &self,
        x: &Self::Value,
        w: &Self::Value,
        bias: Option<&Self::Value>,
        geom: ConvGeom,
    ) -> Self::Value;

    /// Bilinear resize of the trailing two axes.
    fn resize_bilinear(&self, x: &Self::Value, out_h: usize, out_w: usize) -> Self::Value;

    /// Average rows into groups (token compression).
    fn pool_rows(&self, x: &Self::Value, groups: &RowGroups) -> Self::Value;

    /// Broadcast grouped rows back to the full token set.
    fn unpool_rows(&self, x: &Self::Value, groups: &RowGroups, total_rows: usize) -> Self::Value;

    /// Multi-head scaled-dot-product attention of one sample: `q`, `k` and
    /// `v` are `[N, D]` and `heads` divides `D`.
    ///
    /// The default body is the per-head composition: per head, `slice_axis`
    /// of each operand, then `matmul_nt → scale(1/√d_h) → softmax_last →
    /// matmul`, then one `concat` of the heads. An override must match it
    /// bit for bit.
    fn attention(&self, q: &Self::Value, k: &Self::Value, v: &Self::Value, heads: usize) -> Self::Value {
        let d = self.shape(q)[1];
        assert_eq!(d % heads, 0, "heads must divide embed_dim");
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let per_head: Vec<Self::Value> = (0..heads)
            .map(|h| {
                let [qh, kh, vh] = [q, k, v].map(|x| self.slice_axis(x, 1, h * dh, dh));
                // Q K^T straight from row-major storage via the nt kernel.
                let scores = self.scale(&self.matmul_nt(&qh, &kh), scale);
                self.matmul(&self.softmax_last(&scores), &vh)
            })
            .collect();
        self.concat(&per_head, 1)
    }

    /// A convolution tail: bilinear resize of `x [N,C,H,W]` to `(out_h,
    /// out_w)`, then `conv2d` with `w` and `bias` under `geom`.
    ///
    /// The default body is that composition. An override must match it bit
    /// for bit.
    fn upsample_conv(
        &self,
        x: &Self::Value,
        out_h: usize,
        out_w: usize,
        w: &Self::Value,
        bias: Option<&Self::Value>,
        geom: ConvGeom,
    ) -> Self::Value {
        self.conv2d(&self.resize_bilinear(x, out_h, out_w), w, bias, geom)
    }
}

/// The training context: every op records a tape node via [`Var`].
impl<'t> Exec for Binder<'t, '_> {
    type Value = Var<'t>;

    fn param(&self, name: &str) -> Var<'t> {
        Binder::param(self, name)
    }

    fn constant(&self, t: Tensor) -> Var<'t> {
        Binder::constant(self, t)
    }

    fn tensor(&self, v: &Var<'t>) -> Tensor {
        v.value()
    }

    fn shape(&self, v: &Var<'t>) -> Vec<usize> {
        v.shape()
    }

    fn add(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        a.add(*b)
    }

    fn mul(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        a.mul(*b)
    }

    fn scale(&self, a: &Var<'t>, s: f32) -> Var<'t> {
        a.scale(s)
    }

    fn gelu(&self, a: &Var<'t>) -> Var<'t> {
        a.gelu()
    }

    fn matmul(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        a.matmul(*b)
    }

    fn matmul_nt(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        a.matmul_nt(*b)
    }

    fn softmax_last(&self, a: &Var<'t>) -> Var<'t> {
        a.softmax_last()
    }

    fn slice_axis(&self, a: &Var<'t>, axis: usize, start: usize, len: usize) -> Var<'t> {
        a.slice_axis(axis, start, len)
    }

    fn concat(&self, parts: &[Var<'t>], axis: usize) -> Var<'t> {
        Var::concat(parts, axis)
    }

    fn gather_rows(&self, a: &Var<'t>, indices: Vec<usize>) -> Var<'t> {
        a.gather_rows(indices)
    }

    fn reshape(&self, a: &Var<'t>, shape: Vec<usize>) -> Var<'t> {
        a.reshape(shape)
    }

    fn linear_act(
        &self,
        x: &Var<'t>,
        w: &Var<'t>,
        bias: Option<&Var<'t>>,
        act: Activation,
    ) -> Var<'t> {
        x.linear_act(*w, bias.copied(), act)
    }

    fn layer_norm(&self, x: &Var<'t>, gamma: &Var<'t>, beta: &Var<'t>, eps: f32) -> Var<'t> {
        x.layer_norm(*gamma, *beta, eps)
    }

    fn conv2d(&self, x: &Var<'t>, w: &Var<'t>, bias: Option<&Var<'t>>, geom: ConvGeom) -> Var<'t> {
        x.conv2d(*w, bias.copied(), geom)
    }

    fn resize_bilinear(&self, x: &Var<'t>, out_h: usize, out_w: usize) -> Var<'t> {
        x.resize_bilinear(out_h, out_w)
    }

    fn pool_rows(&self, x: &Var<'t>, groups: &RowGroups) -> Var<'t> {
        x.pool_rows(Arc::clone(groups))
    }

    fn unpool_rows(&self, x: &Var<'t>, groups: &RowGroups, total_rows: usize) -> Var<'t> {
        x.unpool_rows(Arc::clone(groups), total_rows)
    }

    /// One tape node in place of the per-head composition, bit for bit
    /// ([`Var::attention`]).
    fn attention(&self, q: &Var<'t>, k: &Var<'t>, v: &Var<'t>, heads: usize) -> Var<'t> {
        q.attention(*k, *v, heads)
    }

    /// One tape node in place of `resize_bilinear → conv2d` to `h × w` with
    /// kernel `k`, bit for bit ([`Var::upsample_conv`]).
    fn upsample_conv(&self, x: &Var<'t>, h: usize, w: usize, k: &Var<'t>, b: Option<&Var<'t>>, g: ConvGeom) -> Var<'t> {
        x.upsample_conv(h, w, *k, b.copied(), g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_autograd::{ParamStore, Tape};
    use orbit2_tensor::random::randn;

    #[test]
    fn a_tape_tail_records_one_node() {
        let mut store = ParamStore::new();
        store.insert("w", randn(&[3, 4, 3, 3], 1));
        store.insert("b", randn(&[3], 2));
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let (x, w, b) = (tape.leaf(randn(&[1, 4, 5, 6], 3)), binder.param("w"), binder.param("b"));
        let before = tape.len();
        let y = Exec::upsample_conv(&binder, &x, 20, 24, &w, Some(&b), ConvGeom::same(3));
        assert_eq!(tape.len() - before, 1, "no resize node beside the conv");
        assert_eq!(y.shape(), vec![1, 3, 20, 24]);
    }
}

//! `TimedExec`: the op-class split of a forward pass, measured from outside.
//!
//! `orbit2_model::Exec` is a public trait and `ReslimModel::forward` is
//! generic over it, so a wrapper that delegates every op to the real
//! context and records a span around each call sees exactly the ops the
//! model issues — on the inference session and on the tape binder alike —
//! without a line changed in `crates/model`. The wrapper is transparent:
//! values are the inner context's values, untouched.

use crate::trace::{SpanId, Tracer};
use orbit2_model::exec::RowGroups;
use orbit2_model::Exec;
use orbit2_tensor::conv::ConvGeom;
use orbit2_tensor::fused::Activation;
use orbit2_tensor::Tensor;
use std::cell::Cell;

/// Span name of each op class.
pub mod class {
    /// `linear_act` (and `linear`): every weight GEMM of the model.
    pub const LINEAR: &str = "model.linear";
    /// `matmul` + `matmul_nt`: used only by attention (QK^T and PV).
    pub const ATTN_MATMUL: &str = "model.attn_matmul";
    /// `softmax_last`.
    pub const SOFTMAX: &str = "model.softmax";
    /// `layer_norm`.
    pub const NORM: &str = "model.norm";
    /// `conv2d`.
    pub const CONV: &str = "model.conv";
    /// `resize_bilinear`.
    pub const RESIZE: &str = "model.resize";
    /// `add`, `mul`, `scale`, `gelu`.
    pub const ELEMENTWISE: &str = "model.elementwise";
    /// `slice_axis`, `concat`, `gather_rows`, `reshape`, `pool_rows`,
    /// `unpool_rows`.
    pub const MOVEMENT: &str = "model.movement";
}

/// Work counted from the shapes the wrapper sees. These are computed, not
/// measured: flops and bytes follow from operand shapes alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeTally {
    /// Ops issued (every timed op, one span each).
    pub ops: u64,
    /// `2·M·K·N` summed over `linear_act`, `matmul` and `matmul_nt`.
    pub gemm_flops: u64,
    /// Bytes of f32 weight operands streamed by `linear_act`.
    pub weight_bytes: u64,
    /// Bytes of the score tensors handed to `softmax_last`.
    pub attn_score_bytes: u64,
}

/// An [`Exec`] that forwards every op to `inner` and records one span per
/// op under `parent`.
pub struct TimedExec<'a, E: Exec> {
    inner: &'a E,
    tracer: &'a Tracer,
    parent: SpanId,
    op: u32,
    tally: Cell<ShapeTally>,
}

impl<'a, E: Exec> TimedExec<'a, E> {
    /// Wrap `inner`; spans land in `tracer` as children of `parent`.
    pub fn new(inner: &'a E, tracer: &'a Tracer, parent: SpanId, op: u32) -> Self {
        Self {
            inner,
            tracer,
            parent,
            op,
            tally: Cell::new(ShapeTally::default()),
        }
    }

    /// What the ops seen so far add up to.
    pub fn tally(&self) -> ShapeTally {
        self.tally.get()
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let mut t = self.tally.get();
        t.ops += 1;
        self.tally.set(t);
        self.tracer.within(name, self.parent, self.op, f)
    }

    fn count(&self, f: impl FnOnce(&mut ShapeTally)) {
        let mut t = self.tally.get();
        f(&mut t);
        self.tally.set(t);
    }

    /// `2·M·K·N` of `a [M, K] @ b`, where `b` contributes `n_of_b` columns.
    fn count_gemm(&self, a: &E::Value, n: usize) {
        let sa = self.inner.shape(a);
        let (m, k) = (
            sa[..sa.len() - 1].iter().product::<usize>(),
            sa[sa.len() - 1],
        );
        self.count(|t| t.gemm_flops += 2 * (m * k * n) as u64);
    }
}

impl<E: Exec> Exec for TimedExec<'_, E> {
    type Value = E::Value;

    fn param(&self, name: &str) -> E::Value {
        self.inner.param(name)
    }

    fn constant(&self, t: Tensor) -> E::Value {
        self.inner.constant(t)
    }

    fn tensor(&self, v: &E::Value) -> Tensor {
        self.inner.tensor(v)
    }

    fn shape(&self, v: &E::Value) -> Vec<usize> {
        self.inner.shape(v)
    }

    fn add(&self, a: &E::Value, b: &E::Value) -> E::Value {
        self.timed(class::ELEMENTWISE, || self.inner.add(a, b))
    }

    fn mul(&self, a: &E::Value, b: &E::Value) -> E::Value {
        self.timed(class::ELEMENTWISE, || self.inner.mul(a, b))
    }

    fn scale(&self, a: &E::Value, s: f32) -> E::Value {
        self.timed(class::ELEMENTWISE, || self.inner.scale(a, s))
    }

    fn gelu(&self, a: &E::Value) -> E::Value {
        self.timed(class::ELEMENTWISE, || self.inner.gelu(a))
    }

    fn matmul(&self, a: &E::Value, b: &E::Value) -> E::Value {
        // b is [K, N].
        self.count_gemm(a, self.inner.shape(b)[1]);
        self.timed(class::ATTN_MATMUL, || self.inner.matmul(a, b))
    }

    fn matmul_nt(&self, a: &E::Value, b: &E::Value) -> E::Value {
        // b is [N, K].
        self.count_gemm(a, self.inner.shape(b)[0]);
        self.timed(class::ATTN_MATMUL, || self.inner.matmul_nt(a, b))
    }

    fn softmax_last(&self, a: &E::Value) -> E::Value {
        let elems: usize = self.inner.shape(a).iter().product();
        self.count(|t| t.attn_score_bytes += 4 * elems as u64);
        self.timed(class::SOFTMAX, || self.inner.softmax_last(a))
    }

    fn slice_axis(&self, a: &E::Value, axis: usize, start: usize, len: usize) -> E::Value {
        self.timed(class::MOVEMENT, || {
            self.inner.slice_axis(a, axis, start, len)
        })
    }

    fn concat(&self, parts: &[E::Value], axis: usize) -> E::Value {
        self.timed(class::MOVEMENT, || self.inner.concat(parts, axis))
    }

    fn gather_rows(&self, a: &E::Value, indices: Vec<usize>) -> E::Value {
        self.timed(class::MOVEMENT, || self.inner.gather_rows(a, indices))
    }

    fn reshape(&self, a: &E::Value, shape: Vec<usize>) -> E::Value {
        self.timed(class::MOVEMENT, || self.inner.reshape(a, shape))
    }

    fn linear_act(
        &self,
        x: &E::Value,
        w: &E::Value,
        bias: Option<&E::Value>,
        act: Activation,
    ) -> E::Value {
        // w is [out, in].
        let sw = self.inner.shape(w);
        self.count_gemm(x, sw[0]);
        self.count(|t| t.weight_bytes += 4 * (sw[0] * sw[1]) as u64);
        self.timed(class::LINEAR, || self.inner.linear_act(x, w, bias, act))
    }

    fn layer_norm(&self, x: &E::Value, gamma: &E::Value, beta: &E::Value, eps: f32) -> E::Value {
        self.timed(class::NORM, || self.inner.layer_norm(x, gamma, beta, eps))
    }

    fn conv2d(
        &self,
        x: &E::Value,
        w: &E::Value,
        bias: Option<&E::Value>,
        geom: ConvGeom,
    ) -> E::Value {
        self.timed(class::CONV, || self.inner.conv2d(x, w, bias, geom))
    }

    fn resize_bilinear(&self, x: &E::Value, out_h: usize, out_w: usize) -> E::Value {
        self.timed(class::RESIZE, || {
            self.inner.resize_bilinear(x, out_h, out_w)
        })
    }

    fn pool_rows(&self, x: &E::Value, groups: &RowGroups) -> E::Value {
        self.timed(class::MOVEMENT, || self.inner.pool_rows(x, groups))
    }

    fn unpool_rows(&self, x: &E::Value, groups: &RowGroups, total_rows: usize) -> E::Value {
        self.timed(class::MOVEMENT, || {
            self.inner.unpool_rows(x, groups, total_rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use orbit2_autograd::Tape;
    use orbit2_model::{Binder, ModelConfig, ReslimModel};
    use orbit2_tensor::random::randn;

    fn model_and_input() -> (ReslimModel, Tensor) {
        (
            ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 5),
            randn(&[7, 8, 12], 11),
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transparent_on_the_session_and_one_span_per_op() {
        let (model, input) = model_and_input();
        let session = model.session();
        let bare = model.forward(&session, &input, 1.0).0.into_tensor();

        let tracer = Tracer::new();
        let timed = TimedExec::new(&session, &tracer, 0, 1);
        let wrapped = model.forward(&timed, &input, 1.0).0.into_tensor();
        assert_eq!(
            bits(&bare),
            bits(&wrapped),
            "TimedExec changed a session forward"
        );

        let spans = tracer.snapshot();
        assert_eq!(spans.len() as u64, timed.tally().ops);
        use class::*;
        let all = [
            LINEAR,
            ATTN_MATMUL,
            SOFTMAX,
            NORM,
            CONV,
            RESIZE,
            ELEMENTWISE,
            MOVEMENT,
        ];
        assert!(spans.iter().all(|s| all.contains(&s.name)));
        // A Reslim forward has linears, attention, norms, convs, a resize,
        // residual adds and head slicing: every class.
        for name in all {
            assert!(
                spans.iter().any(|s| s.name == name),
                "no {name} span in a forward"
            );
        }
        let t = timed.tally();
        assert!(t.gemm_flops > 0 && t.weight_bytes > 0 && t.attn_score_bytes > 0);
    }

    #[test]
    fn transparent_on_the_tape_binder() {
        let (model, input) = model_and_input();
        let bare = {
            let tape = Tape::new();
            let binder = Binder::new(&tape, &model.params);
            model.forward(&binder, &input, 1.0).0.value()
        };
        let tracer = Tracer::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &model.params);
        let timed = TimedExec::new(&binder, &tracer, 0, 1);
        let wrapped = model.forward(&timed, &input, 1.0).0.value();
        assert_eq!(
            bits(&bare),
            bits(&wrapped),
            "TimedExec changed a tape forward"
        );
        assert_eq!(tracer.snapshot().len() as u64, timed.tally().ops);
    }

    #[test]
    fn session_and_binder_issue_the_same_ops() {
        let (model, input) = model_and_input();
        let tracer = Tracer::new();
        let session = model.session();
        let on_session = TimedExec::new(&session, &tracer, 0, 1);
        model.forward(&on_session, &input, 1.0);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &model.params);
        let on_tape = TimedExec::new(&binder, &tracer, 0, 2);
        model.forward(&on_tape, &input, 1.0);
        assert_eq!(on_session.tally(), on_tape.tally());
    }
}

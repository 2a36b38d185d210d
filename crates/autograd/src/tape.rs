//! The gradient tape: a growing list of nodes whose index order is already a
//! topological order (a node is always appended after its parents), so the
//! backward pass is a single reverse sweep.

use orbit2_tensor::fused::{act_backward, Activation};
use orbit2_tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Boxed adjoint of a recorded op: maps the gradient flowing into the node
/// to (parent id, contribution) pairs.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<(usize, Tensor)>>;

/// Process-wide count of [`Tape`] constructions, across all threads.
///
/// The tape-free inference path must never build a tape; the guard test in
/// `tests/no_tape_inference.rs` snapshots this counter around `downscale`
/// and asserts a zero delta, so a regression that sneaks a `Tape::new()`
/// back into a forward-only loop fails CI instead of silently re-paying the
/// tape overhead.
static TAPE_CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// Total number of tapes ever constructed by this process (all threads).
pub fn tape_constructions() -> usize {
    TAPE_CONSTRUCTIONS.load(Ordering::Relaxed)
}

struct Node {
    value: Tensor,
    /// Maps the gradient flowing into this node to (parent, contribution)
    /// pairs. `None` for leaves and constants.
    backward: Option<BackwardFn>,
    /// Whether gradients should flow *through* this node at all.
    tracked: bool,
}

/// A reverse-mode gradient tape. One tape per forward/backward graph.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        TAPE_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Tape { nodes: RefCell::new(Vec::new()) }
    }
}

/// A value recorded on a [`Tape`]. Cheap to copy (an index + a reference).
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

/// The leaves' gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss w.r.t. `var`, if it is a leaf and any
    /// flowed to it.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// The gradient, or a zero tensor of the var's shape when none flowed.
    ///
    /// When a gradient exists this is allocation-free: the clone is a COW
    /// handle onto the stored tensor, not a copy.
    pub fn get_or_zero(&self, var: Var<'_>) -> Tensor {
        match self.get(var) {
            Some(g) => g.clone(),
            None => Tensor::zeros(var.shape()),
        }
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Record a differentiable leaf (e.g. a model parameter).
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(Node { value, backward: None, tracked: true })
    }

    /// Record a constant input: gradients stop here.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(Node { value, backward: None, tracked: false })
    }

    fn push(&self, node: Node) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        Var { tape: self, id: nodes.len() - 1 }
    }

    fn value_of(&self, id: usize) -> Tensor {
        self.nodes.borrow()[id].value.clone()
    }

    /// Record an op's output; `backward` is kept only when a parent is
    /// tracked.
    pub(crate) fn record(&self, value: Tensor, parents_tracked: bool, backward: BackwardFn) -> Var<'_> {
        if parents_tracked {
            self.push(Node { value, backward: Some(backward), tracked: true })
        } else {
            self.push(Node { value, backward: None, tracked: false })
        }
    }

    /// Reverse sweep from `loss` (which must be scalar-valued). Every
    /// tracked node's gradient is computed, but only a leaf's is kept: an
    /// interior gradient is dropped (its buffer back into this thread's
    /// pool) as soon as its adjoint has run.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        assert!(std::ptr::eq(loss.tape, self), "loss from a different tape");
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.id].value.len(), 1, "backward requires a scalar loss");
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::ones(nodes[loss.id].value.shape().to_vec()));
        for id in (0..=loss.id).rev() {
            let Some(back) = &nodes[id].backward else { continue };
            let Some(grad) = grads[id].take() else { continue };
            for (pid, contrib) in back(&grad) {
                if !nodes[pid].tracked {
                    continue;
                }
                match &mut grads[pid] {
                    // In-place accumulate: the only copy this can trigger
                    // is a COW fault when the accumulator still shares
                    // storage (e.g. a pass-through gradient); fan-in
                    // beyond that reuses the faulted buffer.
                    Some(acc) => acc.add_(&contrib),
                    slot @ None => *slot = Some(contrib),
                }
            }
        }
        Gradients { grads }
    }
}

/// Sum `grad` down to `target` shape, undoing broadcasting (the adjoint of a
/// broadcast): extra leading axes are summed away and size-1 axes are summed
/// with keep-dim.
fn reduce_to_shape(grad: &Tensor, target: &[usize]) -> Tensor {
    let mut g = grad.clone();
    while g.ndim() > target.len() {
        g = g.sum_axis(0);
    }
    for axis in 0..target.len() {
        if target[axis] == 1 && g.shape()[axis] != 1 {
            let mut shape = g.shape().to_vec();
            shape[axis] = 1;
            g = g.sum_axis(axis).into_reshape(shape);
        }
    }
    assert_eq!(g.shape(), target, "reduce_to_shape failed: {:?} -> {:?}", grad.shape(), target);
    g
}

impl<'t> Var<'t> {
    /// The tape this var lives on.
    pub(crate) fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Clone of the recorded value.
    pub fn value(&self) -> Tensor {
        self.tape.value_of(self.id)
    }

    /// Shape of the recorded value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.nodes.borrow()[self.id].value.shape().to_vec()
    }

    /// Index of this var's node on its tape.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Whether gradients flow through this var.
    pub(crate) fn tracked(&self) -> bool {
        self.tape.nodes.borrow()[self.id].tracked
    }

    fn unary(
        &self,
        value: Tensor,
        back: impl Fn(&Tensor) -> Tensor + 'static,
    ) -> Var<'t> {
        let pid = self.id;
        self.tape
            .record(value, self.tracked(), Box::new(move |g| vec![(pid, back(g))]))
    }

    fn binary(
        &self,
        other: Var<'t>,
        value: Tensor,
        back: impl Fn(&Tensor) -> (Tensor, Tensor) + 'static,
    ) -> Var<'t> {
        assert!(std::ptr::eq(self.tape, other.tape), "vars from different tapes");
        let (a, b) = (self.id, other.id);
        let tracked = self.tracked() || other.tracked();
        self.tape.record(
            value,
            tracked,
            Box::new(move |g| {
                let (ga, gb) = back(g);
                vec![(a, ga), (b, gb)]
            }),
        )
    }

    /// Elementwise addition (with broadcasting).
    pub fn add(&self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        self.binary(other, av.add(&bv), move |g| {
            (reduce_to_shape(g, &ash), reduce_to_shape(g, &bsh))
        })
    }

    /// Elementwise subtraction (with broadcasting).
    pub fn sub(&self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        self.binary(other, av.sub(&bv), move |g| {
            (reduce_to_shape(g, &ash), reduce_to_shape(&g.neg(), &bsh))
        })
    }

    /// Elementwise multiplication (with broadcasting).
    pub fn mul(&self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let (ash, bsh) = (av.shape().to_vec(), bv.shape().to_vec());
        let (ac, bc) = (av.clone(), bv.clone());
        self.binary(other, av.mul(&bv), move |g| {
            (reduce_to_shape(&g.mul(&bc), &ash), reduce_to_shape(&g.mul(&ac), &bsh))
        })
    }

    /// Multiply by a scalar constant.
    pub fn scale(&self, s: f32) -> Var<'t> {
        self.unary(self.value().mul_scalar(s), move |g| g.mul_scalar(s))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var<'t> {
        let v = self.value();
        let vc = v.clone();
        self.unary(v.mul(&vc), move |g| g.mul(&vc).mul_scalar(2.0))
    }

    /// GELU (tanh approximation). The backward closure keeps the (COW)
    /// input and evaluates `g ⊙ gelu'(x)` when it runs — never for an
    /// untracked parent, whose closure is dropped unrun.
    pub fn gelu(&self) -> Var<'t> {
        let v = self.value();
        self.unary(v.gelu(), move |g| act_backward(g, &v, Activation::Gelu))
    }

    /// Smooth (Charbonnier) absolute value `sqrt(x^2 + eps^2)`; the
    /// differentiable stand-in for the L1 norm in the total-variation prior.
    pub fn smooth_abs(&self, eps: f32) -> Var<'t> {
        let v = self.value();
        let y = v.map(move |x| (x * x + eps * eps).sqrt());
        let d = v.zip(&y, |x, s| x / s);
        self.unary(y, move |g| g.mul(&d))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var<'t> {
        let shape = self.shape();
        self.unary(Tensor::scalar(self.value().sum()), move |g| {
            Tensor::full(shape.clone(), g.item())
        })
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var<'t> {
        let n = self.value().len() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Reshape (gradient reshapes back).
    pub fn reshape(&self, shape: Vec<usize>) -> Var<'t> {
        let old = self.shape();
        self.unary(self.value().into_reshape(shape), move |g| {
            g.reshape(old.clone())
        })
    }

    /// 2-d transpose.
    pub fn transpose2(&self) -> Var<'t> {
        self.unary(self.value().transpose2(), |g| g.transpose2())
    }

    /// Matrix multiplication of 2-d vars.
    pub fn matmul(&self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let y = av.matmul(&bv);
        // Adjoints g B^T and A^T g go through the stride-aware kernels —
        // no transpose is ever materialized on the backward path.
        self.binary(other, y, move |g| (g.matmul_nt(&bv), av.matmul_tn(g)))
    }

    /// `self @ other^T` for 2-d vars (`self [m,k]`, `other [n,k]`) without
    /// materializing the transpose — the natural op for attention scores
    /// `Q K^T` and for linear layers with `[out, in]` weights.
    pub fn matmul_nt(&self, other: Var<'t>) -> Var<'t> {
        let (av, bv) = (self.value(), other.value());
        let y = av.matmul_nt(&bv);
        self.binary(other, y, move |g| (g.matmul(&bv), g.matmul_tn(&av)))
    }

    /// Row-softmax along the last axis.
    pub fn softmax_last(&self) -> Var<'t> {
        let y = self.value().softmax_last();
        let yc = y.clone();
        self.unary(y, move |g| {
            // ds = (g - sum(g * s, last, keepdim)) * s
            let gs = g.mul(&yc);
            let last = yc.ndim() - 1;
            let mut keep = yc.shape().to_vec();
            keep[last] = 1;
            let dot = gs.sum_axis(last).into_reshape(keep);
            g.sub(&dot).mul(&yc)
        })
    }

    /// Slice along an axis (gradient zero-pads back).
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Var<'t> {
        let v = self.value();
        let full = v.shape().to_vec();
        let y = v.slice_axis(axis, start, len);
        self.unary(y, move |g| {
            // Scatter the slice gradient back into a zero tensor.
            let mut out = Tensor::zeros(full.clone());
            let outer: usize = full[..axis].iter().product();
            let mid = full[axis];
            let inner: usize = full[axis + 1..].iter().product();
            let gd = g.data();
            let od = out.data_mut();
            for o in 0..outer {
                for m in 0..len {
                    let src = (o * len + m) * inner;
                    let dst = (o * mid + start + m) * inner;
                    od[dst..dst + inner].copy_from_slice(&gd[src..src + inner]);
                }
            }
            out
        })
    }

    /// Concatenate vars along an axis.
    pub fn concat(vars: &[Var<'t>], axis: usize) -> Var<'t> {
        assert!(!vars.is_empty());
        let tape = vars[0].tape;
        let values: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let y = Tensor::concat(&refs, axis);
        let ids: Vec<usize> = vars.iter().map(|v| v.id).collect();
        let sizes: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let tracked = vars.iter().any(|v| v.tracked());
        tape.record(
            y,
            tracked,
            Box::new(move |g| {
                let mut out = Vec::with_capacity(ids.len());
                let mut off = 0usize;
                for (&id, &sz) in ids.iter().zip(&sizes) {
                    out.push((id, g.slice_axis(axis, off, sz)));
                    off += sz;
                }
                out
            }),
        )
    }

    /// Gather rows of a 2-d var (gradient scatter-adds back).
    pub fn gather_rows(&self, indices: Vec<usize>) -> Var<'t> {
        let v = self.value();
        let rows = v.shape()[0];
        let y = v.gather_rows(&indices);
        self.unary(y, move |g| g.scatter_add_rows(&indices, rows))
    }

    /// Mean squared error against a constant target, optionally weighted.
    ///
    /// `weight` broadcasts against the value; the result is
    /// `mean(weight * (self - target)^2)`.
    pub fn weighted_mse(&self, target: &Tensor, weight: Option<&Tensor>) -> Var<'t> {
        let t = self.tape.constant(target.clone());
        let diff = self.sub(t);
        let sq = diff.square();
        match weight {
            Some(w) => {
                let wv = self.tape.constant(w.clone());
                sq.mul(wv).mean()
            }
            None => sq.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use orbit2_tensor::random::randn;

    #[test]
    fn add_mul_chain_grad() {
        // f(a, b) = sum((a + b) * a); df/da = (2a + b), df/db = a
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(vec![2], vec![3.0, 4.0]));
        let loss = a.add(b).mul(a).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 8.0]);
        assert_eq!(g.get(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_keeps_only_leaf_gradients() {
        // Fan-in (`h` feeds three ops), a broadcast bias and a pass-through
        // gradient (`add`), so accumulation and its COW faults all run.
        let tape = Tape::new();
        let [x, w, b] = [randn(&[6, 8], 71), randn(&[5, 8], 72), randn(&[5], 73)].map(|t| tape.leaf(t));
        let h = x.linear_act(w, Some(b), Activation::Gelu);
        let y = h.mul(h).add(h.scale(0.5)).softmax_last();
        let loss = y.mul(tape.constant(randn(&[6, 5], 74))).sum();
        let grads = tape.backward(loss);
        for interior in [h, y, loss] {
            assert!(grads.get(interior).is_none(), "an interior gradient was kept");
        }
        // FNV-1a over the leaves' gradient bits, pinned from the sweep that
        // kept every gradient.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for leaf in [x, w, b] {
            for v in grads.get(leaf).expect("a leaf gradient").data() {
                for byte in v.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0xdfde_1ef9_aaa5_90ea, "leaf gradient bits: {digest:#018x}");
    }

    #[test]
    fn broadcasting_add_reduces_grad() {
        let tape = Tape::new();
        let a = tape.leaf(randn(&[2, 3], 1));
        let b = tape.leaf(randn(&[3], 2)); // broadcast row
        let loss = a.add(b).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(b).unwrap().shape(), &[3]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn constant_blocks_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(randn(&[4], 3));
        let c = tape.constant(randn(&[4], 4));
        let loss = a.mul(c).sum();
        let g = tape.backward(loss);
        assert!(g.get(c).is_none());
        assert!(g.get(a).is_some());
    }

    #[test]
    fn matmul_grad_matches_fd() {
        check_gradients(
            &[vec![3, 4], vec![4, 2]],
            |_tape, vars| vars[0].matmul(vars[1]).sum(),
            1e-2,
            42,
        );
    }

    #[test]
    fn softmax_grad_matches_fd() {
        check_gradients(&[vec![3, 5]], |_tape, vars| {
            // A non-trivial downstream function of the softmax.
            let s = vars[0].softmax_last();
            s.square().sum()
        }, 1e-2, 7);
    }

    #[test]
    fn elementwise_grads_match_fd() {
        check_gradients(&[vec![6]], |_t, v| v[0].gelu().sum(), 1e-2, 2);
        check_gradients(&[vec![6]], |_t, v| v[0].square().sum(), 1e-2, 3);
        check_gradients(&[vec![6]], |_t, v| v[0].smooth_abs(0.1).sum(), 1e-2, 5);
    }

    #[test]
    fn gelu_derivative_is_evaluated_at_backward_and_only_when_tracked() {
        use orbit2_tensor::ops::gelu_grad_scalar;
        use orbit2_tensor::pool;
        let x = orbit2_tensor::random::randn(&[33, 40], 8).mul_scalar(2.0);
        let allocs = || {
            let s = pool::stats();
            s.fresh_allocs + s.reuses
        };

        // Untracked parent: the forward allocates its output and nothing
        // else (the closure holding the input is dropped unrun).
        let tape = Tape::new();
        let c = tape.constant(x.clone());
        let before = allocs();
        let y = c.gelu();
        assert_eq!(allocs() - before, 1, "forward of an untracked gelu allocates only its output");
        assert_eq!(y.value(), x.gelu());

        // Tracked parent: still one allocation at forward time; the
        // gradient is `g ⊙ gelu'(x)`, bit for bit.
        let tape = Tape::new();
        let leaf = tape.leaf(x.clone());
        let before = allocs();
        let y = leaf.gelu();
        assert_eq!(allocs() - before, 1, "no derivative tensor is built at forward time");
        let w = orbit2_tensor::random::randn(&[33, 40], 9);
        let loss = y.mul(tape.constant(w.clone())).sum();
        let grads = tape.backward(loss);
        let got = grads.get(leaf).expect("gradient reaches the leaf");
        let want: Vec<u32> =
            w.data().iter().zip(x.data()).map(|(&g, &v)| (g * gelu_grad_scalar(v)).to_bits()).collect();
        assert_eq!(got.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn slice_and_concat_grads() {
        check_gradients(
            &[vec![3, 4]],
            |_t, v| {
                let a = v[0].slice_axis(1, 0, 2);
                let b = v[0].slice_axis(1, 2, 2);
                Var::concat(&[b, a], 1).square().sum()
            },
            1e-2,
            11,
        );
    }

    #[test]
    fn gather_rows_grad() {
        check_gradients(
            &[vec![4, 3]],
            |_t, v| v[0].gather_rows(vec![1, 1, 3]).square().sum(),
            1e-2,
            13,
        );
    }

    #[test]
    fn weighted_mse_value_and_grad() {
        let tape = Tape::new();
        let pred = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, 3.0]));
        let target = Tensor::from_vec(vec![2], vec![0.0, 0.0]);
        let w = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let loss = pred.weighted_mse(&target, Some(&w));
        assert!((loss.value().item() - (1.0 + 18.0) / 2.0).abs() < 1e-6);
        let g = tape.backward(loss);
        // d/dp mean(w (p-t)^2) = 2 w (p - t) / n
        assert_eq!(g.get(pred).unwrap().data(), &[1.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.leaf(randn(&[3], 1));
        let _ = tape.backward(a);
    }

    #[test]
    fn backward_chain_does_no_deep_copies() {
        // Interior nodes hand their gradients along as COW handles; a pure
        // chain must finish backward without a single full-tensor copy.
        let tape = Tape::new();
        let a = tape.leaf(randn(&[64, 64], 17));
        let loss = a.scale(2.0).gelu().square().mean();
        orbit2_tensor::pool::reset_stats();
        let g = tape.backward(loss);
        assert!(g.get(a).is_some());
        assert_eq!(
            orbit2_tensor::pool::stats().copies,
            0,
            "interior-node backward must not deep-copy tensors"
        );
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(a*a + a*a) -> grad 4a
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, -2.0]));
        let x = a.mul(a);
        let y = a.mul(a);
        let loss = x.add(y).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[4.0, -8.0]);
    }
}

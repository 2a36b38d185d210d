//! Elementwise arithmetic with broadcasting, reductions, axis manipulation,
//! padding and gather/scatter.
//!
//! Heavy elementwise work parallelizes over chunks with rayon once each
//! chunk is large enough to repay the fork/join ([`crate::par`]).

use crate::par;
use crate::pool;
use crate::simd;
use crate::shape::{broadcast_shapes, numel, ShapeHandle};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Elements per partial of [`Tensor::sum`]: fixed, so the partials — and
/// the order they are combined in — do not depend on how the blocks were
/// dealt to threads.
const SUM_BLOCK: usize = 1 << 12;

/// Materialize the strided `rows x cols` view `src[i * rs + j * cs]` as a
/// row-major matrix in `out` (a transpose is `rs = 1`).
///
/// Blocked: each 32x32 tile stays in L1 while being rotated, and the inner
/// loop walks the *output* row so stores are unit-stride (the strided access
/// lands on the read side, which caches better than scattered writes).
pub(crate) fn gather_strided(
    src: &[f32],
    rs: usize,
    cs: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
) {
    const B: usize = 32;
    for j0 in (0..cols).step_by(B) {
        let jmax = (j0 + B).min(cols);
        for i0 in (0..rows).step_by(B) {
            for i in i0..(i0 + B).min(rows) {
                let dst = &mut out[i * cols + j0..i * cols + jmax];
                for (d, j) in dst.iter_mut().zip(j0..jmax) {
                    *d = src[i * rs + j * cs];
                }
            }
        }
    }
}

/// One merged axis of a [`Walk`]: its extent, and how far the left and the
/// right operand move per step along it (0 where that operand broadcasts).
type Axis = (usize, usize, usize);

/// How a broadcasting binary op traverses its operands (DESIGN.md §7).
///
/// Adjacent output axes over which *both* operands keep one mode — advance
/// densely, or stay put — are merged, so every op is an inner `run` (each
/// operand either `run.0` consecutive values or one value repeated) under
/// an odometer over the `outer` axes, innermost first. Same shapes merge to
/// one run of `n`; `[R,D]∘[D]` is `R` runs with the right offset pinned.
/// A run always has a dense operand: an axis both broadcast over has
/// extent 1 and is dropped.
struct Walk {
    run: Axis,
    outer: Vec<Axis>,
}

impl Walk {
    /// `a` and `b` must broadcast to `out` (the caller has checked).
    fn new(a: &[usize], b: &[usize], out: &[usize]) -> Walk {
        let mut walk = Walk { run: (1, 1, 1), outer: Vec::new() };
        // Extent of the `i`-th axis from the end, and each operand's dense
        // stride there in its own layout.
        let dim = |s: &[usize], i: usize| s.len().checked_sub(i).map_or(1, |j| s[j]);
        let (mut da, mut db) = (1, 1);
        for i in 1..=out.len() {
            let (e, ea, eb) = (dim(out, i), dim(a, i), dim(b, i));
            if e != 1 {
                let (sa, sb) = (if ea == 1 { 0 } else { da }, if eb == 1 { 0 } else { db });
                let cur = walk.outer.last_mut().unwrap_or(&mut walk.run);
                if cur.0 == 1 {
                    // Only the still-unset run has extent 1.
                    *cur = (e, sa, sb);
                } else if (sa, sb) == (cur.1 * cur.0, cur.2 * cur.0) {
                    cur.0 *= e;
                } else {
                    walk.outer.push((e, sa, sb));
                }
            }
            (da, db) = (da * ea, db * eb);
        }
        walk
    }

    /// Call `piece(dst, left offset, right offset)` once per run (or part
    /// of one) of `out`. A large op is split over the flat output range,
    /// one chunk per thread that can take one ([`par::pieces`]).
    fn drive(&self, out: &mut [f32], piece: impl Fn(&mut [f32], usize, usize) + Sync) {
        if out.is_empty() {
            return; // a zero extent: nothing to walk, and `run` may be 0
        }
        let parts = par::pieces(out.len());
        if parts == 1 {
            return self.walk_range(0, out, &piece);
        }
        let chunk = out.len().div_ceil(parts);
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, part)| self.walk_range(i * chunk, part, &piece));
    }

    /// Walk the flat output range `[start, start + out.len())`, non-empty.
    fn walk_range(&self, start: usize, out: &mut [f32], piece: &impl Fn(&mut [f32], usize, usize)) {
        let (run, ra, rb) = self.run;
        // `start` falls `skip` elements into run number `r`: unravel it once.
        let (mut skip, mut r) = (start % run, start / run);
        let mut coord = vec![0; self.outer.len()];
        let (mut oa, mut ob) = (0, 0);
        for (c, &(e, sa, sb)) in coord.iter_mut().zip(&self.outer) {
            (*c, r) = (r % e, r / e);
            (oa, ob) = (oa + *c * sa, ob + *c * sb);
        }
        let mut pos = 0;
        while pos < out.len() {
            let len = (run - skip).min(out.len() - pos);
            piece(&mut out[pos..pos + len], oa + skip * ra, ob + skip * rb);
            (pos, skip) = (pos + len, 0);
            for (c, &(e, sa, sb)) in coord.iter_mut().zip(&self.outer) {
                (*c, oa, ob) = (*c + 1, oa + sa, ob + sb);
                if *c < e {
                    break;
                }
                (*c, oa, ob) = (0, oa - e * sa, ob - e * sb);
            }
        }
    }
}

/// `dst[i] = f(x[i], y[i])` over one piece of a run. Each operand is the
/// slice starting at its offset or, at step 0, the one value there.
fn apply(dst: &mut [f32], (xs, ra): (&[f32], usize), (ys, rb): (&[f32], usize), f: &impl Fn(f32, f32) -> f32) {
    let n = dst.len();
    match (ra, rb) {
        (0, _) => dst.iter_mut().zip(&ys[..n]).for_each(|(o, &y)| *o = f(xs[0], y)),
        (_, 0) => dst.iter_mut().zip(&xs[..n]).for_each(|(o, &x)| *o = f(x, ys[0])),
        _ => dst.iter_mut().zip(&xs[..n]).zip(&ys[..n]).for_each(|((o, &x), &y)| *o = f(x, y)),
    }
}

/// [`apply`] with the destination as the left operand: `dst[i] = f(dst[i], y[i])`.
fn apply_assign(dst: &mut [f32], (ys, rb): (&[f32], usize), f: &impl Fn(f32, f32) -> f32) {
    let n = dst.len();
    match rb {
        0 => dst.iter_mut().for_each(|o| *o = f(*o, ys[0])),
        _ => dst.iter_mut().zip(&ys[..n]).for_each(|(o, &y)| *o = f(*o, y)),
    }
}

fn broadcast_or_panic(a: &[usize], b: &[usize]) -> Vec<usize> {
    broadcast_shapes(a, b).unwrap_or_else(|| panic!("cannot broadcast {a:?} with {b:?}"))
}

pub(crate) fn binary_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    // Equal shapes reuse the left operand's shape handle (no reallocation).
    let shape = if a.shape() == b.shape() {
        a.shape_handle()
    } else {
        ShapeHandle::new(broadcast_or_panic(a.shape(), b.shape()))
    };
    let walk = Walk::new(a.shape(), b.shape(), &shape);
    let (ad, bd, (_, ra, rb)) = (a.data(), b.data(), walk.run);
    let mut out = pool::alloc_uninit(numel(&shape));
    walk.drive(&mut out, |dst, oa, ob| apply(dst, (&ad[oa..], ra), (&bd[ob..], rb), &f));
    Tensor::from_shape_handle(shape, out)
}

/// In-place counterpart of [`binary_broadcast`]: `a = f(a, b)` where `b`
/// must broadcast to `a`'s shape (the output shape cannot grow in place).
/// The same walk with the destination as the left operand.
///
/// Safe even when `a` and `b` share storage: `data_mut` COW-faults `a` onto
/// a private buffer first, leaving `b`'s view of the original intact.
fn binary_broadcast_assign(a: &mut Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
    if a.shape() != b.shape() {
        let grown = broadcast_or_panic(a.shape(), b.shape());
        assert!(grown == a.shape(), "in-place op cannot grow {:?} to broadcast result {grown:?}", a.shape());
    }
    let walk = Walk::new(a.shape(), b.shape(), a.shape());
    let (bd, rb) = (b.data(), walk.run.2);
    walk.drive(a.data_mut(), |dst, _, ob| apply_assign(dst, (&bd[ob..], rb), &f));
}

impl Tensor {
    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, f32::max)
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        binary_broadcast(self, other, f32::min)
    }

    /// In-place addition: `self += other` (other broadcasts to `self`).
    /// COW: copies `self`'s storage first only when shared.
    pub fn add_(&mut self, other: &Tensor) {
        binary_broadcast_assign(self, other, |a, b| a + b);
    }

    /// In-place subtraction: `self -= other`.
    pub fn sub_(&mut self, other: &Tensor) {
        binary_broadcast_assign(self, other, |a, b| a - b);
    }

    /// In-place multiplication: `self *= other`.
    pub fn mul_(&mut self, other: &Tensor) {
        binary_broadcast_assign(self, other, |a, b| a * b);
    }

    /// Fused in-place multiply-add: `self += alpha * x`. The workhorse of
    /// gradient accumulation — one pass, no temporaries.
    pub fn axpy(&mut self, alpha: f32, x: &Tensor) {
        binary_broadcast_assign(self, x, move |a, b| alpha.mul_add(b, a));
    }

    /// Add a scalar.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiply by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Negate.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Elementwise exponential ([`simd::exp`]).
    pub fn exp(&self) -> Tensor {
        self.map(simd::exp)
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(move |x| x.powf(p))
    }

    /// Elementwise hyperbolic tangent, `1 − 2/(e^{2x} + 1)` on
    /// [`simd::exp`]: absolute error below 1.2e-7 (the relative error grows
    /// as `x → 0`, where the subtraction cancels).
    pub fn tanh(&self) -> Tensor {
        self.map(|x| 1.0 - 2.0 / (simd::exp(2.0 * x) + 1.0))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Gaussian error linear unit (tanh approximation, as used by ViTs).
    pub fn gelu(&self) -> Tensor {
        self.map(gelu_scalar)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid)
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(move |x| x.clamp(lo, hi))
    }

    /// Sum of all elements, accumulated in f64: one partial per
    /// [`SUM_BLOCK`] elements, the partials added in index order — the same
    /// bits whether one thread summed the blocks or several.
    pub fn sum(&self) -> f32 {
        let partials: Vec<f64> = self
            .data()
            .par_chunks(SUM_BLOCK)
            .with_min_len(par::min_items(SUM_BLOCK))
            .map(|block| block.iter().map(|&x| x as f64).sum::<f64>())
            .collect();
        partials.iter().sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            return f32::NAN;
        }
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    pub fn max_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum along `axis`, removing it.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, 0.0, |acc, x| acc + x)
    }

    /// Mean along `axis`, removing it.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.shape()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Max along `axis`, removing it.
    pub fn max_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, f32::NEG_INFINITY, f32::max)
    }

    fn reduce_axis(&self, axis: usize, init: f32, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert!(axis < self.ndim(), "axis {axis} out of range for {:?}", self.shape());
        let shape = self.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let src = self.data();
        let mut out = pool::alloc_filled(outer * inner, init);
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let row = &src[base..base + inner];
                let dst = &mut out[o * inner..(o + 1) * inner];
                for (d, &x) in dst.iter_mut().zip(row) {
                    *d = f(*d, x);
                }
            }
        }
        let mut new_shape: Vec<usize> = shape.to_vec();
        new_shape.remove(axis);
        Tensor::from_vec(new_shape, out)
    }

    /// Softmax along the last axis, numerically stabilized.
    ///
    /// Delegates to the fused kernel ([`crate::fused::softmax_rows_from`]),
    /// which reads each source row and writes its output row: no copy of the
    /// scores is made first.
    pub fn softmax_last(&self) -> Tensor {
        let inner = *self.shape().last().expect("softmax on 0-d tensor");
        let mut out = pool::alloc_uninit(self.len());
        crate::fused::softmax_rows_from(self.data(), &mut out, inner);
        Tensor::from_shape_handle(self.shape_handle(), out)
    }

    /// Transpose a 2-d tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2 requires 2-d, got {:?}", self.shape());
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = pool::alloc_uninit(r * c);
        gather_strided(self.data(), 1, c, c, r, &mut out);
        Tensor::from_vec(vec![c, r], out)
    }

    /// Concatenate along `axis`. All other axes must match.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of nothing");
        let first = tensors[0].shape();
        let ndim = first.len();
        assert!(axis < ndim);
        for t in tensors {
            assert_eq!(t.ndim(), ndim);
            for (i, (&a, &b)) in t.shape().iter().zip(first.iter()).enumerate() {
                assert!(i == axis || a == b, "concat shape mismatch on axis {i}");
            }
        }
        let mut out_shape = first.to_vec();
        out_shape[axis] = tensors.iter().map(|t| t.shape()[axis]).sum();
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let mut out = pool::alloc_uninit(numel(&out_shape));
        let mut at = 0;
        for o in 0..outer {
            for t in tensors {
                let len = t.shape()[axis] * inner;
                out[at..at + len].copy_from_slice(&t.data()[o * len..(o + 1) * len]);
                at += len;
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Slice `axis` to `[start, start+len)`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let shape = self.shape();
        assert!(axis < shape.len());
        assert!(start + len <= shape[axis], "slice out of bounds");
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out = pool::alloc_uninit(outer * len * inner);
        let src = self.data();
        let run = len * inner;
        for o in 0..outer {
            let base = (o * mid + start) * inner;
            out[o * run..(o + 1) * run].copy_from_slice(&src[base..base + run]);
        }
        let mut new_shape = shape.to_vec();
        new_shape[axis] = len;
        Tensor::from_vec(new_shape, out)
    }

    /// Gather rows of a 2-d tensor: `out[i] = self[indices[i]]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows requires 2-d");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut out = pool::alloc_uninit(indices.len() * cols);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < rows, "gather index {i} out of bounds ({rows} rows)");
            out[r * cols..(r + 1) * cols].copy_from_slice(&src[i * cols..(i + 1) * cols]);
        }
        Tensor::from_vec(vec![indices.len(), cols], out)
    }

    /// Scatter-add rows into a 2-d tensor of `rows` rows:
    /// `out[indices[i]] += self[i]`.
    pub fn scatter_add_rows(&self, indices: &[usize], rows: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "scatter_add_rows requires 2-d");
        assert_eq!(self.shape()[0], indices.len());
        let cols = self.shape()[1];
        let mut out = pool::alloc_zeroed(rows * cols);
        let src = self.data();
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < rows);
            let dst = &mut out[i * cols..(i + 1) * cols];
            let s = &src[r * cols..(r + 1) * cols];
            for (d, &x) in dst.iter_mut().zip(s) {
                *d += x;
            }
        }
        Tensor::from_vec(vec![rows, cols], out)
    }

    /// Pool rows of a 2-d tensor into groups by averaging: `out[i] = mean of
    /// self[j] for j in groups[i]`. This is the quad-tree token pooling of
    /// Reslim's adaptive spatial compression; the autograd layer wraps it
    /// with the uniform-scatter adjoint.
    pub fn pool_rows(&self, groups: &[Vec<usize>]) -> Tensor {
        assert_eq!(self.ndim(), 2, "pool_rows requires 2-d [tokens, dim]");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = pool::alloc_zeroed(groups.len() * cols);
        let src = self.data();
        for (gi, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "empty pooling group {gi}");
            let inv = 1.0 / group.len() as f32;
            let dst = &mut out[gi * cols..(gi + 1) * cols];
            for &r in group {
                assert!(r < rows, "pool index {r} out of bounds");
                for (d, &x) in dst.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                    *d += x * inv;
                }
            }
        }
        Tensor::from_vec(vec![groups.len(), cols], out)
    }

    /// Unpool grouped rows back to the original token set: `out[j] = self[i]`
    /// for every `j in groups[i]` (the inverse scatter of [`Tensor::pool_rows`]).
    pub fn unpool_rows(&self, groups: &[Vec<usize>], total_rows: usize) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(self.shape()[0], groups.len());
        let cols = self.shape()[1];
        let mut out = pool::alloc_zeroed(total_rows * cols);
        let src = self.data();
        for (gi, group) in groups.iter().enumerate() {
            let s = &src[gi * cols..(gi + 1) * cols];
            for &r in group {
                assert!(r < total_rows);
                out[r * cols..(r + 1) * cols].copy_from_slice(s);
            }
        }
        Tensor::from_vec(vec![total_rows, cols], out)
    }

    /// Zero-pad the last two axes (interpreted as H, W) by the given margins.
    pub fn pad2d(&self, top: usize, bottom: usize, left: usize, right: usize) -> Tensor {
        let nd = self.ndim();
        assert!(nd >= 2, "pad2d requires at least 2 axes");
        let h = self.shape()[nd - 2];
        let w = self.shape()[nd - 1];
        let lead: usize = self.shape()[..nd - 2].iter().product();
        let nh = h + top + bottom;
        let nw = w + left + right;
        let mut out = pool::alloc_zeroed(lead * nh * nw);
        let src = self.data();
        for l in 0..lead {
            for i in 0..h {
                let sbase = (l * h + i) * w;
                let dbase = (l * nh + i + top) * nw + left;
                out[dbase..dbase + w].copy_from_slice(&src[sbase..sbase + w]);
            }
        }
        let mut shape = self.shape().to_vec();
        shape[nd - 2] = nh;
        shape[nd - 1] = nw;
        Tensor::from_vec(shape, out)
    }

    /// Crop the last two axes to `[top, top+h) x [left, left+w)`.
    pub fn crop2d(&self, top: usize, left: usize, h: usize, w: usize) -> Tensor {
        let nd = self.ndim();
        assert!(nd >= 2);
        let sh = self.shape()[nd - 2];
        let sw = self.shape()[nd - 1];
        assert!(top + h <= sh && left + w <= sw, "crop out of bounds");
        let lead: usize = self.shape()[..nd - 2].iter().product();
        let mut out = pool::alloc_uninit(lead * h * w);
        let src = self.data();
        for l in 0..lead {
            for i in 0..h {
                let sbase = (l * sh + top + i) * sw + left;
                let dbase = (l * h + i) * w;
                out[dbase..dbase + w].copy_from_slice(&src[sbase..sbase + w]);
            }
        }
        let mut shape = self.shape().to_vec();
        shape[nd - 2] = h;
        shape[nd - 1] = w;
        Tensor::from_vec(shape, out)
    }
}

/// Logistic sigmoid on [`simd::exp`].
#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + simd::exp(-x))
}

/// `2·√(2/π)` and the cubic coefficient of the tanh-approximated GELU.
const GELU_2S: f32 = 1.595_769_2;
const GELU_C: f32 = 0.044715;

/// `2u`, `u = √(2/π)·(x + 0.044715·x³)`: the GELU's `½(1 + tanh u)` is `σ(2u)`.
#[inline(always)]
fn gelu_2u(x: f32) -> f32 {
    GELU_2S * (x + GELU_C * x * x * x)
}

/// GELU activation, tanh approximation, with the `tanh` eliminated:
/// `½x(1 + tanh u) = x·σ(2u) = x / (1 + exp(−2u))`. Branch-free over
/// [`simd::exp`], so a loop over it vectorizes, and the one definition every
/// GELU in the workspace evaluates (GEMM epilogue, `Tensor::gelu`, the tape).
#[inline(always)]
pub fn gelu_scalar(x: f32) -> f32 {
    x / (1.0 + simd::exp(-gelu_2u(x)))
}

/// Derivative of [`gelu_scalar`] on the same `σ = σ(2u)`:
/// `σ + x·σ(1 − σ)·(2u)′`.
#[inline(always)]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let s = sigmoid(gelu_2u(x));
    s + x * s * (1.0 - s) * GELU_2S * (1.0 + 3.0 * GELU_C * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{broadcast_index, strides_for};

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(vec![2, 2], vec![10., 20., 30., 40.]);
        assert_eq!(a.add(&b).data(), &[11., 22., 33., 44.]);
    }

    #[test]
    fn broadcast_row_and_col() {
        let a = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        let row = Tensor::from_vec(vec![3], vec![10., 20., 30.]);
        assert_eq!(a.add(&row).data(), &[10., 21., 32., 13., 24., 35.]);
        let col = Tensor::from_vec(vec![2, 1], vec![100., 200.]);
        assert_eq!(a.add(&col).data(), &[100., 101., 102., 203., 204., 205.]);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4]);
        let _ = a.add(&b);
    }

    #[test]
    fn in_place_ops_match_allocating_ones() {
        let a = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        let row = Tensor::from_vec(vec![3], vec![10., 20., 30.]);

        let mut b = a.clone();
        b.add_(&row);
        b.assert_close(&a.add(&row), 0.0);

        let mut c = a.clone();
        c.sub_(&row);
        c.assert_close(&a.sub(&row), 0.0);

        let mut d = a.clone();
        d.mul_(&row);
        d.assert_close(&a.mul(&row), 0.0);

        let mut e = a.clone();
        e.axpy(2.5, &row);
        e.assert_close(&a.add(&row.mul_scalar(2.5)), 1e-5);

        // The original operand is never disturbed (COW).
        assert_eq!(a.data(), &[0., 1., 2., 3., 4., 5.]);
    }

    #[test]
    fn add_assign_self_aliasing_is_safe() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.add_(&a);
        assert_eq!(b.data(), &[2., 4., 6.]);
        assert_eq!(a.data(), &[1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "cannot grow")]
    fn in_place_broadcast_cannot_grow() {
        let mut row = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let mat = Tensor::zeros(vec![2, 3]);
        row.add_(&mat);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn in_place_incompatible_broadcast_panics() {
        Tensor::zeros(vec![2, 3]).mul_(&Tensor::zeros(vec![4]));
    }

    /// What every broadcasting op means — for each output element, one
    /// `broadcast_index` per operand: the oracle the walker must equal bit
    /// for bit.
    fn oracle_indices(a: &[usize], b: &[usize]) -> Vec<(usize, usize)> {
        let out = broadcast_shapes(a, b).expect("compatible");
        let (sa, sb) = (strides_for(a), strides_for(b));
        (0..numel(&out))
            .map(|flat| (broadcast_index(flat, &out, a, &sa), broadcast_index(flat, &out, b, &sb)))
            .collect()
    }

    fn oracle(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        at(&oracle_indices(a.shape(), b.shape()), a, b, f)
    }

    fn at(idx: &[(usize, usize)], a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        idx.iter().map(|&(ia, ib)| f(a.data()[ia], b.data()[ib])).collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Distinct, sign-mixed, never-zero values (so `div` stays finite).
    fn filled(shape: &[usize], salt: usize) -> Tensor {
        let data = (0..numel(shape))
            .map(|i| ((i * 7 + salt) % 23 + 1) as f32 * if (i + salt).is_multiple_of(3) { -0.37 } else { 0.53 })
            .collect();
        Tensor::from_vec(shape.to_vec(), data)
    }

    type Scalar = fn(f32, f32) -> f32;
    type Binary = fn(&Tensor, &Tensor) -> Tensor;
    type Assign = fn(&mut Tensor, &Tensor);

    /// Out-of-place and (where the result keeps `a`'s shape) in-place ops
    /// on one operand pair against the oracle.
    fn check_pair(a: &Tensor, b: &Tensor) {
        let what = format!("{:?} with {:?}", a.shape(), b.shape());
        let out_shape = broadcast_shapes(a.shape(), b.shape()).expect("compatible");
        let idx = oracle_indices(a.shape(), b.shape());
        let binary: [(Binary, Scalar); 5] = [
            (Tensor::add, |x, y| x + y),
            (Tensor::sub, |x, y| x - y),
            (Tensor::mul, |x, y| x * y),
            (Tensor::div, |x, y| x / y),
            (Tensor::maximum, f32::max),
        ];
        for (i, (op, f)) in binary.iter().enumerate() {
            let got = op(a, b);
            assert_eq!(got.shape(), &out_shape[..], "op {i}: {what}");
            assert_eq!(bits(got.data()), bits(&at(&idx, a, b, f)), "op {i}: {what}");
        }
        if a.shape() != &out_shape[..] {
            return;
        }
        let assign: [(Assign, Scalar); 3] = [
            (Tensor::add_, |x, y| x + y),
            (Tensor::mul_, |x, y| x * y),
            (|t, x| t.axpy(-1.75, x), |x, y| (-1.75f32).mul_add(y, x)),
        ];
        for (i, (op, f)) in assign.iter().enumerate() {
            let mut got = a.clone();
            op(&mut got, b);
            assert_eq!(bits(got.data()), bits(&at(&idx, a, b, f)), "in-place op {i}: {what}");
        }
    }

    #[test]
    fn walker_matches_the_per_element_oracle() {
        // Every shape of rank <= 4 over these extents (rank 0 and `[1]`
        // scalars included), against every other.
        let mut shapes: Vec<Vec<usize>> = vec![vec![]];
        let mut from = 0;
        for _ in 0..4 {
            let upto = shapes.len();
            for i in from..upto {
                for e in [1, 2, 3, 7] {
                    let mut s = shapes[i].clone();
                    s.push(e);
                    shapes.push(s);
                }
            }
            from = upto;
        }
        assert_eq!(shapes.len(), 341);
        let tensors: Vec<Tensor> = shapes.iter().enumerate().map(|(i, s)| filled(s, i)).collect();
        let mut pairs = 0;
        for a in &tensors {
            for b in &tensors {
                if broadcast_shapes(a.shape(), b.shape()).is_some() {
                    check_pair(a, b);
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 20_000, "only {pairs} compatible pairs walked");

        // A zero-extent axis, broadcast against and alongside.
        for (a, b) in [(vec![2, 0, 3], vec![3]), (vec![0], vec![1]), (vec![2, 0, 3], vec![2, 1, 1]), (vec![1], vec![0, 2])] {
            check_pair(&filled(&a, 1), &filled(&b, 2));
        }

        // Aliased operands: the same tensor on both sides, and an in-place
        // op whose right operand shares the destination's storage.
        let t = filled(&[3, 7], 5);
        assert_eq!(bits(t.mul(&t).data()), bits(&oracle(&t, &t, |x, y| x * y)));
        let mut a = t.clone();
        a.add_(&a.clone());
        assert_eq!(bits(a.data()), bits(&oracle(&t, &t, |x, y| x + y)));
        assert_eq!(bits(t.data()), bits(filled(&[3, 7], 5).data()), "the shared original is intact");
    }

    #[test]
    fn second_broadcast_call_allocates_nothing_fresh() {
        let a = filled(&[34, 16], 1);
        let (row, col) = (filled(&[16], 2), filled(&[34, 1], 3));
        let run = || (a.mul(&row), col.add(&a), a.slice_axis(1, 4, 8), Tensor::concat(&[&a, &a], 0));
        drop(run());
        let before = pool::stats().fresh_allocs;
        drop(run());
        assert_eq!(pool::stats().fresh_allocs, before, "outputs must come from the pool");
    }

    #[test]
    fn elementwise_result_shares_shape_handle() {
        let a = Tensor::zeros(vec![4, 5]);
        let b = Tensor::ones(vec![4, 5]);
        let c = a.add(&b);
        assert!(std::sync::Arc::ptr_eq(&a.shape_handle(), &c.shape_handle()));
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.sum_axis(0).data(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis(1).data(), &[6., 15.]);
        assert_eq!(a.max_axis(1).data(), &[3., 6.]);
        assert_eq!(a.max_value(), 6.0);
        assert_eq!(a.min_value(), 1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let s = a.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone within a row.
        assert!(s.at(&[0, 3]) > s.at(&[0, 0]));
    }

    #[test]
    fn softmax_handles_large_values() {
        let a = Tensor::from_vec(vec![1, 3], vec![1000., 1000., 1000.]);
        let s = a.softmax_last();
        for &x in s.data() {
            assert!((x - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::arange(12).reshape(vec![3, 4]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        a.assert_close(&t.transpose2(), 0.0);
    }

    #[test]
    fn concat_and_slice_inverse() {
        let a = Tensor::arange(6).reshape(vec![2, 3]);
        let b = Tensor::arange(6).reshape(vec![2, 3]).mul_scalar(10.0);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 6]);
        c.slice_axis(1, 0, 3).assert_close(&a, 0.0);
        c.slice_axis(1, 3, 3).assert_close(&b, 0.0);
        let d = Tensor::concat(&[&a, &b], 0);
        assert_eq!(d.shape(), &[4, 3]);
        d.slice_axis(0, 2, 2).assert_close(&b, 0.0);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Tensor::arange(12).reshape(vec![4, 3]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.data(), &[6., 7., 8., 0., 1., 2.]);
        let s = g.scatter_add_rows(&[2, 0], 4);
        assert_eq!(s.at(&[2, 0]), 6.0);
        assert_eq!(s.at(&[0, 2]), 2.0);
        assert_eq!(s.at(&[1, 1]), 0.0);
    }

    #[test]
    fn pad_crop_roundtrip() {
        let a = Tensor::arange(6).reshape(vec![1, 2, 3]);
        let p = a.pad2d(1, 2, 3, 1);
        assert_eq!(p.shape(), &[1, 5, 7]);
        assert_eq!(p.at(&[0, 1, 3]), 0.0); // original (0,0)
        p.crop2d(1, 3, 2, 3).assert_close(&a, 0.0);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximated GELU.
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.841192).abs() < 1e-4);
        assert!((gelu_scalar(-1.0) + 0.158808).abs() < 1e-4);
    }

    /// The tanh-approximated GELU and its derivative in f64.
    fn gelu_f64(x: f64) -> (f64, f64) {
        let (s, c) = ((2.0 / std::f64::consts::PI).sqrt(), 0.044715);
        let t = (s * (x + c * x * x * x)).tanh();
        (0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * s * (1.0 + 3.0 * c * x * x))
    }

    #[test]
    fn gelu_and_its_gradient_match_an_f64_reference() {
        // Stated max absolute error: 2.4e-7 for the GELU (half an ulp of
        // the value, at x = 5) and 1.6e-6 for the gradient (also at x = 5,
        // where σ has just rounded to 1 and `σ(1 − σ)·2u'x` is lost whole).
        for mag in [0.0f32, 1e-4, 1.0, 5.0, 10.0, 12.0, 20.0, 1e4] {
            for x in [mag, -mag] {
                let (y, dy) = gelu_f64(x as f64);
                let (ey, edy) = ((gelu_scalar(x) as f64 - y).abs(), (gelu_grad_scalar(x) as f64 - dy).abs());
                assert!(ey <= 2.4e-7, "gelu({x}) = {} vs {y}", gelu_scalar(x));
                assert!(edy <= 1.6e-6, "gelu'({x}) = {} vs {dy}", gelu_grad_scalar(x));
            }
        }
        // Saturation is exact and finite; a poisoned input stays poisoned.
        assert_eq!(gelu_scalar(1e4), 1e4);
        assert_eq!(gelu_scalar(-1e4), 0.0);
        assert_eq!((gelu_grad_scalar(1e4), gelu_grad_scalar(-1e4)), (1.0, 0.0));
        assert!(gelu_scalar(f32::NAN).is_nan() && gelu_grad_scalar(f32::NAN).is_nan());
    }

    #[test]
    fn exp_sigmoid_tanh_track_libm() {
        let x = Tensor::from_vec(vec![9], vec![-30.0, -3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 3.0, 30.0]);
        for (&got, &v) in x.exp().data().iter().zip(x.data()) {
            assert!((got - v.exp()).abs() <= 1.2e-7 * v.exp(), "exp({v})");
        }
        for (&got, &v) in x.sigmoid().data().iter().zip(x.data()) {
            assert!((got - 1.0 / (1.0 + (-v).exp())).abs() <= 1.2e-7, "sigmoid({v})");
        }
        for (&got, &v) in x.tanh().data().iter().zip(x.data()) {
            assert!((got - v.tanh()).abs() <= 1.2e-7, "tanh({v})");
        }
        let edge = Tensor::from_vec(vec![3], vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        assert_eq!(&edge.tanh().data()[..2], &[1.0, -1.0]);
        assert_eq!(&edge.sigmoid().data()[..2], &[1.0, 0.0]);
        assert!(edge.tanh().data()[2].is_nan() && edge.sigmoid().data()[2].is_nan() && edge.exp().data()[2].is_nan());
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!((gelu_grad_scalar(x) - fd).abs() < 1e-3, "x={x}");
        }
    }
}

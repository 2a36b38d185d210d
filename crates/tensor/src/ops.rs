//! Elementwise arithmetic with broadcasting, reductions, axis manipulation,
//! padding and gather/scatter.
//!
//! Heavy elementwise work parallelizes over chunks with rayon once the tensor
//! is large enough to amortize the fork/join cost.

use crate::pool;
use crate::shape::{broadcast_index, broadcast_shapes, numel, strides_for, unravel};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Below this element count, elementwise kernels stay sequential.
const PAR_THRESHOLD: usize = 1 << 15;

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

fn binary_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) -> Tensor {
    if a.shape() == b.shape() {
        // Fast path: aligned linear scan into a pooled buffer, reusing the
        // left operand's shape handle (no shape reallocation).
        let n = a.len();
        let mut out = pool::alloc_uninit(n);
        if n >= PAR_THRESHOLD {
            out.par_iter_mut()
                .zip(a.data().par_iter().zip(b.data().par_iter()))
                .for_each(|(o, (&x, &y))| *o = f(x, y));
        } else {
            for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
                *o = f(x, y);
            }
        }
        return Tensor::from_shape_handle(a.shape_handle(), out);
    }
    let out_shape = broadcast_shapes(a.shape(), b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", a.shape(), b.shape()));
    let n = numel(&out_shape);
    let sa = strides_for(a.shape());
    let sb = strides_for(b.shape());
    let ad = a.data();
    let bd = b.data();
    let kernel = |flat: usize| {
        let ia = broadcast_index(flat, &out_shape, a.shape(), &sa);
        let ib = broadcast_index(flat, &out_shape, b.shape(), &sb);
        f(ad[ia], bd[ib])
    };
    let data: Vec<f32> = if n >= PAR_THRESHOLD {
        (0..n).into_par_iter().map(kernel).collect()
    } else {
        (0..n).map(kernel).collect()
    };
    Tensor::from_vec(out_shape, data)
}

/// In-place counterpart of [`binary_broadcast`]: `a = f(a, b)` where `b`
/// must broadcast to `a`'s shape (the output shape cannot grow in place).
///
/// Safe even when `a` and `b` share storage: `data_mut` COW-faults `a` onto
/// a private buffer first, leaving `b`'s view of the original intact.
fn binary_broadcast_assign(a: &mut Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) {
    if a.shape() == b.shape() {
        let n = a.len();
        let dst = a.data_mut();
        let bd = b.data();
        if n >= PAR_THRESHOLD {
            dst.par_iter_mut().zip(bd.par_iter()).for_each(|(x, &y)| *x = f(*x, y));
        } else {
            for (x, &y) in dst.iter_mut().zip(bd.iter()) {
                *x = f(*x, y);
            }
        }
        return;
    }
    let out_shape = broadcast_shapes(a.shape(), b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", a.shape(), b.shape()));
    assert_eq!(
        out_shape,
        a.shape(),
        "in-place op cannot grow {:?} to broadcast result {:?}",
        a.shape(),
        out_shape
    );
    let a_shape = a.shape().to_vec();
    let b_shape = b.shape().to_vec();
    let sb = strides_for(&b_shape);
    let dst = a.data_mut();
    let bd = b.data();
    let kernel = |flat: usize, x: &mut f32| {
        let ib = broadcast_index(flat, &a_shape, &b_shape, &sb);
        *x = f(*x, bd[ib]);
    };
    if dst.len() >= PAR_THRESHOLD {
        dst.par_iter_mut().enumerate().for_each(|(i, x)| kernel(i, x));
    } else {
        for (i, x) in dst.iter_mut().enumerate() {
            kernel(i, x);
        }
    }
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

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
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

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
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
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(move |x| x.clamp(lo, hi))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if self.len() >= PAR_THRESHOLD {
            self.data().par_iter().map(|&x| x as f64).sum::<f64>() as f32
        } else {
            self.data().iter().map(|&x| x as f64).sum::<f64>() as f32
        }
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
    /// Delegates to the fused kernel ([`crate::fused::softmax_rows`]): max
    /// scan and normalize run on SIMD lanes, in place on the output buffer.
    pub fn softmax_last(&self) -> Tensor {
        let inner = *self.shape().last().expect("softmax on 0-d tensor");
        let mut out = pool::alloc_uninit(self.len());
        out.copy_from_slice(self.data());
        crate::fused::softmax_rows(&mut out, inner);
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

    /// Materialized axis permutation (generalized transpose).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.ndim(), "permute arity mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let old_shape = self.shape();
        let new_shape: Vec<usize> = perm.iter().map(|&p| old_shape[p]).collect();
        let old_strides = strides_for(old_shape);
        let n = self.len();
        let src = self.data();
        let mut out = pool::alloc_uninit(n);
        // For each output flat index, compute the source flat index.
        let new_strides_in_old: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        let kernel = |flat: usize, out_elem: &mut f32| {
            let coord = unravel(flat, &new_shape);
            let mut si = 0usize;
            for (c, s) in coord.iter().zip(&new_strides_in_old) {
                si += c * s;
            }
            *out_elem = src[si];
        };
        if n >= PAR_THRESHOLD {
            out.par_iter_mut().enumerate().for_each(|(i, o)| kernel(i, o));
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                kernel(i, o);
            }
        }
        Tensor::from_vec(new_shape, out)
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
        let mut out = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for t in tensors {
                let mid = t.shape()[axis];
                let base = o * mid * inner;
                out.extend_from_slice(&t.data()[base..base + mid * inner]);
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
        let mut out = Vec::with_capacity(outer * len * inner);
        let src = self.data();
        for o in 0..outer {
            let base = (o * mid + start) * inner;
            out.extend_from_slice(&src[base..base + len * inner]);
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
        let mut out = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            assert!(i < rows, "gather index {i} out of bounds ({rows} rows)");
            out.extend_from_slice(&src[i * cols..(i + 1) * cols]);
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

    /// Stack 2-d tensors along the row (batch) axis: `[n_i, D]` parts with a
    /// common column count become one `[sum(n_i), D]` matrix. This is the
    /// batch-stacking primitive of the batch-native model forward: row-wise
    /// kernels (GEMM against a shared weight, layer norm, softmax, GELU)
    /// compute each output row from its input row alone, so running them
    /// once over the stack is bit-identical to running them per part. A
    /// single part is its own stack and comes back as a copy-free clone.
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows of nothing");
        for p in parts {
            assert_eq!(p.ndim(), 2, "stack_rows requires 2-d parts");
        }
        if let [only] = parts {
            return (*only).clone();
        }
        Tensor::concat(parts, 0)
    }

    /// Inverse of [`Tensor::stack_rows`]: split a `[sum(rows), D]` matrix
    /// back into parts of `rows[i]` rows each.
    pub fn split_rows(&self, rows: &[usize]) -> Vec<Tensor> {
        assert_eq!(self.ndim(), 2, "split_rows requires 2-d");
        let total: usize = rows.iter().sum();
        assert_eq!(self.shape()[0], total, "split_rows row count mismatch");
        if rows.len() == 1 {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity(rows.len());
        let mut start = 0;
        for &r in rows {
            out.push(self.slice_axis(0, start, r));
            start += r;
        }
        out
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
        let mut out = Vec::with_capacity(lead * h * w);
        let src = self.data();
        for l in 0..lead {
            for i in 0..h {
                let base = (l * sh + top + i) * sw + left;
                out.extend_from_slice(&src[base..base + w]);
            }
        }
        let mut shape = self.shape().to_vec();
        shape[nd - 2] = h;
        shape[nd - 1] = w;
        Tensor::from_vec(shape, out)
    }
}

/// GELU activation, tanh approximation.
pub fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximated GELU, used by the autograd crate.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const S: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = S * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * S * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn permute_matches_transpose() {
        let a = Tensor::arange(24).reshape(vec![2, 3, 4]);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        // permute with identity is a no-op
        a.assert_close(&a.permute(&[0, 1, 2]), 0.0);
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

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!((gelu_grad_scalar(x) - fd).abs() < 1e-3, "x={x}");
        }
    }
}

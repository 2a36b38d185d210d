//! Matrix products on tensors: `matmul` and the `nt` / `tn` adjoints.
//!
//! This module owns the operand addressing ([`MatLayout`]) and the tensor
//! entry points; the arithmetic is the strip driver in [`crate::qgemm`],
//! which every product here enters through one function (`gemm`). A
//! [`MatLayout`] gives each operand an arbitrary (row, col) stride, so
//! `A^T B` and `A B^T` products — the adjoints of `matmul` and the `x W^T`
//! convention of linear layers — are packed straight from the original
//! storage without materializing a transpose of B.

use crate::fused::Activation;
use crate::pool;
use crate::qgemm;
use crate::simd;
use crate::tensor::Tensor;

/// Element addressing for a GEMM operand: element `(i, j)` lives at
/// `i * rs + j * cs`. Row-major is `rs = cols, cs = 1`; the transpose of a
/// row-major matrix is `rs = 1, cs = cols`.
#[derive(Debug, Clone, Copy)]
pub struct MatLayout {
    /// Stride between consecutive rows.
    pub rs: usize,
    /// Stride between consecutive columns.
    pub cs: usize,
}

impl MatLayout {
    /// Row-major layout for a matrix with `cols` columns.
    pub fn row_major(cols: usize) -> Self {
        Self { rs: cols, cs: 1 }
    }

    /// The transpose view of a row-major matrix with `cols` columns.
    pub fn transposed(cols: usize) -> Self {
        Self { rs: 1, cs: cols }
    }
}

/// `C[m x n] = op(A) * op(B)` with arbitrary operand strides; `c` is
/// row-major and overwritten.
#[allow(clippy::too_many_arguments)]
fn gemm(a: &[f32], la: MatLayout, b: &[f32], lb: MatLayout, c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    // Mat-vec fast path: one SIMD dot per row when both a row of A and the
    // single column of B are contiguous.
    if n == 1 && la.cs == 1 && lb.rs == 1 {
        for (i, cv) in c.iter_mut().enumerate() {
            *cv = simd::dot(&a[i * la.rs..i * la.rs + k], &b[..k]);
        }
        return;
    }
    qgemm::gemm_per_call(a, la, b, lb, m, k, n, None, Activation::Identity, c, None);
}

impl Tensor {
    /// Matrix product of two 2-d tensors.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-d, got {:?}", self.shape());
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-d, got {:?}", other.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} x {:?}", self.shape(), other.shape());
        let mut out = pool::alloc_uninit(m * n);
        gemm(self.data(), MatLayout::row_major(k), other.data(), MatLayout::row_major(n), &mut out, m, k, n);
        Tensor::from_vec(vec![m, n], out)
    }

    /// `self * other^T` without materializing the transpose: `self` is
    /// `[m, k]`, `other` is `[n, k]`, the result `[m, n]`. This is the
    /// layout of a linear layer (`x W^T` with PyTorch `[out, in]` weights)
    /// and of the `g B^T` matmul adjoint.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt lhs must be 2-d");
        assert_eq!(other.ndim(), 2, "matmul_nt rhs must be 2-d");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_nt inner dims differ: {:?} x {:?}", self.shape(), other.shape());
        let mut out = pool::alloc_uninit(m * n);
        gemm(self.data(), MatLayout::row_major(k), other.data(), MatLayout::transposed(k), &mut out, m, k, n);
        Tensor::from_vec(vec![m, n], out)
    }

    /// `self^T * other` without materializing the transpose: `self` is
    /// `[k, m]`, `other` is `[k, n]`, the result `[m, n]` — the `A^T g`
    /// matmul adjoint and the weight gradient of a linear layer.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn lhs must be 2-d");
        assert_eq!(other.ndim(), 2, "matmul_tn rhs must be 2-d");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_tn inner dims differ: {:?} x {:?}", self.shape(), other.shape());
        let mut out = pool::alloc_uninit(m * n);
        gemm(self.data(), MatLayout::transposed(m), other.data(), MatLayout::row_major(n), &mut out, m, k, n);
        Tensor::from_vec(vec![m, n], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out[i * n + j] = s;
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_noop() {
        let a = Tensor::arange(16).reshape(vec![4, 4]);
        let mut eye = Tensor::zeros(vec![4, 4]);
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        a.matmul(&eye).assert_close(&a, 0.0);
        eye.matmul(&a).assert_close(&a, 0.0);
    }

    #[test]
    fn blocked_matches_naive_odd_sizes() {
        use crate::random::randn;
        // Sizes straddling row-panel, strip-width and lane boundaries, and
        // the mat-vec path.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (65, 257, 33),
            (128, 64, 70),
            (3, 300, 5),
            (73, 17, 16),
            (6, 8, 16),
            (qgemm::QMR + 1, 257, 65),
            (9, 40, 1),
        ] {
            let a = randn(&[m, k], 1);
            let b = randn(&[k, n], 2);
            let fast = a.matmul(&b);
            let slow = naive(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-3 * (k as f32).sqrt(), "({m},{k},{n})");
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        use crate::random::randn;
        for &(m, k, n) in &[(33usize, 47usize, 29usize), (6, 16, 16), (70, 3, 5)] {
            let a = randn(&[m, k], 21);
            let bt = randn(&[n, k], 22); // B^T stored row-major
            a.matmul_nt(&bt).assert_close(&a.matmul(&bt.transpose2()), 2e-4 * (k as f32).sqrt());
            let at = randn(&[k, m], 23); // A stored transposed
            let b = randn(&[k, n], 24);
            at.matmul_tn(&b).assert_close(&at.transpose2().matmul(&b), 2e-4 * (k as f32).sqrt());
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = a.matmul(&b);
    }
}

//! Packed, register-blocked matrix multiplication.
//!
//! The hot kernel follows the GotoBLAS recipe (the same GEMM core Flash
//! Attention builds on): B is packed into L1-resident `KC x NR` column
//! panels, A into `MC x KC` row panels of `MR`-wide strips, and an
//! `MR x NR` register-blocked microkernel runs fused multiply-adds over
//! [`F32x8`] lanes — 12 vector accumulators that never touch memory inside
//! the k-loop. Macro-tiles over rows of C are distributed across the rayon
//! pool; pack buffers come from the thread-local buffer pool so steady-state
//! calls allocate nothing.
//!
//! [`MatLayout`] gives every operand an arbitrary (row, col) stride, so
//! `A^T B` and `A B^T` products — the adjoints of `matmul` and the
//! `x W^T` convention of linear layers — are packed straight from the
//! original storage without materializing a transpose.
//!
//! [`matmul_slices`] keeps the scalar cache-blocked loop as the reference
//! oracle: property tests compare the packed kernel against it, and
//! `ORBIT2_DISABLE_SIMD=1` routes everything back to it.

use crate::pool::{self, Buffer};
use crate::simd::{self, F32x8, LANES};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Microkernel tile rows (rows of C updated per inner call).
pub const MR: usize = 6;
/// Microkernel tile columns: two [`F32x8`] vectors wide.
pub const NR: usize = 2 * LANES;
/// Rows of A per macro block (one parallel task); a multiple of `MR`.
const MC: usize = 72;
/// Depth of one packed panel; sized so a `KC x NR` B-panel stays L1-resident.
const KC: usize = 256;

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

/// `C[m x n] += op(A) * op(B)` with arbitrary operand strides.
///
/// `c` is row-major and accumulated into (zero it for a plain product).
/// Dispatches to the packed SIMD kernel, or to the scalar reference when
/// `ORBIT2_DISABLE_SIMD=1` or the problem is too small to amortize packing.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &[f32],
    la: MatLayout,
    b: &[f32],
    lb: MatLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Mat-vec fast path: one SIMD dot per row when both a row of A and the
    // single column of B are contiguous.
    if n == 1 && la.cs == 1 && lb.rs == 1 {
        for (i, cv) in c.iter_mut().enumerate() {
            *cv += simd::dot(&a[i * la.rs..i * la.rs + k], &b[..k]);
        }
        return;
    }
    if simd::enabled() && n >= LANES && m * n * k >= 2048 {
        gemm_packed(a, la, b, lb, c, m, k, n, parallel);
    } else {
        gemm_ref(a, la, b, lb, c, m, k, n, parallel);
    }
}

// ---------------------------------------------------------------------------
// Packed SIMD path
// ---------------------------------------------------------------------------

/// Pack `rows` rows of `op(A)` (starting at `i0`) into `MR`-wide strips:
/// strip `p` holds rows `p*MR..`, laid out k-major (`out[kk*MR + r]`), with
/// ragged rows zero-padded so the microkernel never branches.
fn pack_a(a: &[f32], la: MatLayout, i0: usize, rows: usize, k: usize, out: &mut [f32]) {
    let npanels = rows.div_ceil(MR);
    for p in 0..npanels {
        let r0 = p * MR;
        let mr = MR.min(rows - r0);
        let dst = &mut out[p * k * MR..(p + 1) * k * MR];
        if la.cs == 1 {
            // Row-major source: walk each row once (contiguous reads).
            for r in 0..MR {
                if r < mr {
                    let base = (i0 + r0 + r) * la.rs;
                    for (kk, &v) in a[base..base + k].iter().enumerate() {
                        dst[kk * MR + r] = v;
                    }
                } else {
                    for kk in 0..k {
                        dst[kk * MR + r] = 0.0;
                    }
                }
            }
        } else {
            // Column-contiguous source (transpose view): walk k-major so
            // both read and write are contiguous.
            for kk in 0..k {
                let d = &mut dst[kk * MR..kk * MR + MR];
                for (r, dv) in d.iter_mut().enumerate() {
                    *dv = if r < mr { a[(i0 + r0 + r) * la.rs + kk * la.cs] } else { 0.0 };
                }
            }
        }
    }
}

/// Pack all of `op(B)` into `NR`-wide column strips, k-major within a strip
/// (`out[kk*NR + c]`), ragged columns zero-padded. A `KC`-deep slice of one
/// strip is the L1-resident panel the microkernel streams.
fn pack_b(b: &[f32], lb: MatLayout, k: usize, n: usize, out: &mut [f32]) {
    let nstrips = n.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = s * NR;
        let cols = NR.min(n - j0);
        let dst = &mut out[s * k * NR..(s + 1) * k * NR];
        if lb.cs == 1 {
            for kk in 0..k {
                let src = &b[kk * lb.rs + j0..kk * lb.rs + j0 + cols];
                let d = &mut dst[kk * NR..(kk + 1) * NR];
                d[..cols].copy_from_slice(src);
                d[cols..].fill(0.0);
            }
        } else {
            for c0 in 0..NR {
                if c0 < cols {
                    let base = (j0 + c0) * lb.cs;
                    for kk in 0..k {
                        dst[kk * NR + c0] = b[base + kk * lb.rs];
                    }
                } else {
                    for kk in 0..k {
                        dst[kk * NR + c0] = 0.0;
                    }
                }
            }
        }
    }
}

/// The `MR x NR` register-blocked FMA microkernel: `acc += Ap * Bp` over a
/// `kc`-deep packed panel pair. All twelve accumulators live in registers
/// for the whole loop; each iteration is two vector loads, `MR` broadcasts
/// and `2*MR` fused multiply-adds.
#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[F32x8; 2]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for (bchunk, achunk) in bp.chunks_exact(NR).zip(ap.chunks_exact(MR)) {
        let b0 = F32x8::load(bchunk);
        let b1 = F32x8::load(&bchunk[LANES..]);
        for (accr, &av) in acc.iter_mut().zip(achunk) {
            let a = F32x8::splat(av);
            accr[0] = a.mul_add(b0, accr[0]);
            accr[1] = a.mul_add(b1, accr[1]);
        }
    }
}

/// Accumulate a finished microkernel tile into C at `(r0, j0)`; ragged
/// edges spill through a small scratch tile.
#[inline]
fn store_tile(
    acc: &[[F32x8; 2]; MR],
    c: &mut [f32],
    r0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    ldc: usize,
) {
    if mr == MR && nr == NR {
        for (r, accr) in acc.iter().enumerate() {
            let row = &mut c[(r0 + r) * ldc + j0..(r0 + r) * ldc + j0 + NR];
            let lo = F32x8::load(row);
            accr[0].add(lo).store(row);
            let hi = F32x8::load(&row[LANES..]);
            accr[1].add(hi).store(&mut row[LANES..]);
        }
    } else {
        let mut scratch = [0.0f32; MR * NR];
        for (r, accr) in acc.iter().enumerate() {
            accr[0].store(&mut scratch[r * NR..]);
            accr[1].store(&mut scratch[r * NR + LANES..]);
        }
        for r in 0..mr {
            let row = &mut c[(r0 + r) * ldc + j0..(r0 + r) * ldc + j0 + nr];
            for (dst, &s) in row.iter_mut().zip(&scratch[r * NR..r * NR + nr]) {
                *dst += s;
            }
        }
    }
}

/// Pack all of `op(B)` into pooled strip storage, ready for
/// [`gemm_rows_packed_b`]. Lets callers that sweep many row blocks against
/// one B (fused epilogues, batched products) pay the pack cost once.
pub(crate) fn pack_b_full(b: &[f32], lb: MatLayout, k: usize, n: usize) -> Buffer {
    let nstrips = n.div_ceil(NR);
    let mut bpack = Buffer::uninit(nstrips * k * NR);
    pack_b(b, lb, k, n, &mut bpack);
    bpack
}

/// Multiply rows `i0..i0 + cblock.len()/n` of `op(A)` against a pre-packed
/// B ([`pack_b_full`]), accumulating into the row-major block `cblock`.
pub(crate) fn gemm_rows_packed_b(
    a: &[f32],
    la: MatLayout,
    i0: usize,
    bp: &[f32],
    cblock: &mut [f32],
    k: usize,
    n: usize,
) {
    let nstrips = n.div_ceil(NR);
    let rows = cblock.len() / n;
    let npanels = rows.div_ceil(MR);
    // Per-task A pack (thread-local pool buffer, recycled on drop).
    let mut apack = Buffer::uninit(npanels * k * MR);
    pack_a(a, la, i0, rows, k, &mut apack);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for s in 0..nstrips {
            let j0 = s * NR;
            let nr = NR.min(n - j0);
            let bstrip = &bp[(s * k + pc) * NR..(s * k + pc + kc) * NR];
            for p in 0..npanels {
                let r0 = p * MR;
                let mr = MR.min(rows - r0);
                let apanel = &apack[(p * k + pc) * MR..(p * k + pc + kc) * MR];
                let mut acc = [[F32x8::ZERO; 2]; MR];
                microkernel(apanel, bstrip, kc, &mut acc);
                store_tile(&acc, cblock, r0, j0, mr, nr, n);
            }
        }
    }
}

/// True when the packed kernel is profitable (and not disabled); otherwise
/// callers route to the scalar reference.
///
/// Public because batched execution must prove it takes the *same* kernel
/// branch as the per-sample calls it replaces: stacking samples along the
/// row axis grows `m`, and a batch that crosses this threshold while its
/// constituents did not (or vice versa) would mix packed-FMA and scalar
/// arithmetic — bit-different results. The model forward checks this
/// predicate in one place (`orbit2_model::exec::linear_rows`) and falls
/// back to per-sample dispatch on the (degenerate, tiny-shape) mismatch
/// case.
pub fn packed_eligible(m: usize, k: usize, n: usize) -> bool {
    simd::enabled() && n >= LANES && m * n * k >= 2048
}

#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    a: &[f32],
    la: MatLayout,
    b: &[f32],
    lb: MatLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    // B is packed once, up front, and shared read-only by every macro task.
    let bpack = pack_b_full(b, lb, k, n);
    let bp: &[f32] = &bpack;
    if parallel && m > MC {
        c.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(bi, cb)| gemm_rows_packed_b(a, la, bi * MC, bp, cb, k, n));
    } else {
        for (bi, cb) in c.chunks_mut(MC * n).enumerate() {
            gemm_rows_packed_b(a, la, bi * MC, bp, cb, k, n);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reference path
// ---------------------------------------------------------------------------

/// Scalar cache-blocked kernel with arbitrary strides: the `i-k-j` loop
/// order keeps the inner loop an auto-vectorizable axpy when B is
/// row-major. Unconditional accumulation — a data-dependent zero-skip
/// branch in the hot loop costs more than the multiply it saves and blocks
/// vectorization, so sparsity exploitation belongs at block granularity,
/// not here.
#[allow(clippy::too_many_arguments)]
fn gemm_ref(
    a: &[f32],
    la: MatLayout,
    b: &[f32],
    lb: MatLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    let body = |bi: usize, cblock: &mut [f32]| {
        let i0 = bi * MC;
        let rows = cblock.len() / n;
        for k0 in (0..k).step_by(KC) {
            let kmax = (k0 + KC).min(k);
            for di in 0..rows {
                let i = i0 + di;
                let c_row = &mut cblock[di * n..(di + 1) * n];
                for kk in k0..kmax {
                    let aik = a[i * la.rs + kk * la.cs];
                    if lb.cs == 1 {
                        let b_row = &b[kk * lb.rs..kk * lb.rs + n];
                        for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                            *cv += aik * bv;
                        }
                    } else {
                        for (j, cv) in c_row.iter_mut().enumerate() {
                            *cv += aik * b[kk * lb.rs + j * lb.cs];
                        }
                    }
                }
            }
        }
    };
    if parallel && m > MC {
        c.par_chunks_mut(MC * n).enumerate().for_each(|(bi, cb)| body(bi, cb));
    } else {
        for (bi, cb) in c.chunks_mut(MC * n).enumerate() {
            body(bi, cb);
        }
    }
}

/// `C[m x n] = A[m x k] * B[k x n]` on raw row-major slices, scalar blocked
/// reference. `c` must be zero-initialized (the kernel accumulates). This
/// is the oracle the packed kernel is property-tested against.
pub fn matmul_slices(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_ref(a, MatLayout::row_major(k), b, MatLayout::row_major(n), c, m, k, n, true);
}

/// Sequential matmul used inside already-parallel regions (dispatches to the
/// packed kernel, without taking rayon a second time).
pub fn matmul_block_seq(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, MatLayout::row_major(k), b, MatLayout::row_major(n), c, m, k, n, false);
}

impl Tensor {
    /// Matrix product of two 2-d tensors.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-d, got {:?}", self.shape());
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-d, got {:?}", other.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} x {:?}", self.shape(), other.shape());
        let mut out = pool::alloc_zeroed(m * n);
        gemm(
            self.data(),
            MatLayout::row_major(k),
            other.data(),
            MatLayout::row_major(n),
            &mut out,
            m,
            k,
            n,
            true,
        );
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
        let mut out = pool::alloc_zeroed(m * n);
        gemm(
            self.data(),
            MatLayout::row_major(k),
            other.data(),
            MatLayout::transposed(k),
            &mut out,
            m,
            k,
            n,
            true,
        );
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
        let mut out = pool::alloc_zeroed(m * n);
        gemm(
            self.data(),
            MatLayout::transposed(m),
            other.data(),
            MatLayout::row_major(n),
            &mut out,
            m,
            k,
            n,
            true,
        );
        Tensor::from_vec(vec![m, n], out)
    }

    /// Batched matrix product of 3-d tensors `[B, m, k] x [B, k, n]`.
    ///
    /// The batch axis of either side may be 1 (broadcast).
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-d");
        assert_eq!(other.ndim(), 3, "bmm rhs must be 3-d");
        let (ba, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (bb, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(k, k2, "bmm inner dims differ");
        let batch = if ba == bb {
            ba
        } else if ba == 1 {
            bb
        } else if bb == 1 {
            ba
        } else {
            panic!("bmm batch dims incompatible: {ba} vs {bb}");
        };
        let mut out = pool::alloc_zeroed(batch * m * n);
        let ad = self.data();
        let bd = other.data();
        out.par_chunks_mut(m * n).enumerate().for_each(|(b, c)| {
            let a_off = if ba == 1 { 0 } else { b * m * k };
            let b_off = if bb == 1 { 0 } else { b * k * n };
            // Sequential inner matmul: parallelism is already taken at the
            // batch level; nested rayon would only add overhead.
            matmul_block_seq(&ad[a_off..a_off + m * k], &bd[b_off..b_off + k * n], c, m, k, n);
        });
        Tensor::from_vec(vec![batch, m, n], out)
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
            eye.set(&[i, i], 1.0);
        }
        a.matmul(&eye).assert_close(&a, 0.0);
        eye.matmul(&a).assert_close(&a, 0.0);
    }

    #[test]
    fn blocked_matches_naive_odd_sizes() {
        use crate::random::randn;
        // Sizes straddling block, panel and strip boundaries.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (65, 257, 33),
            (128, 64, 70),
            (3, 300, 5),
            (73, 17, 16),
            (6, 8, 16),
            (MR + 1, KC + 1, NR + 1),
        ] {
            let a = randn(&[m, k], 1);
            let b = randn(&[k, n], 2);
            let fast = a.matmul(&b);
            let slow = naive(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-3 * (k as f32).sqrt(), "({m},{k},{n})");
        }
    }

    #[test]
    fn packed_matches_reference_oracle() {
        use crate::random::randn;
        for &(m, k, n) in &[(50usize, 40usize, 30usize), (100, 300, 20), (7, 5, 100)] {
            let a = randn(&[m, k], 11);
            let b = randn(&[k, n], 12);
            let mut reference = vec![0.0f32; m * n];
            matmul_slices(a.data(), b.data(), &mut reference, m, k, n);
            let fast = a.matmul(&b);
            let r = Tensor::from_vec(vec![m, n], reference);
            assert!(fast.max_abs_diff(&r) < 1e-3 * (k as f32).sqrt(), "({m},{k},{n})");
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
    fn bmm_matches_per_batch_matmul() {
        use crate::random::randn;
        let a = randn(&[3, 4, 5], 7);
        let b = randn(&[3, 5, 6], 8);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[3, 4, 6]);
        for bi in 0..3 {
            let ai = a.slice_axis(0, bi, 1).reshape(vec![4, 5]);
            let bj = b.slice_axis(0, bi, 1).reshape(vec![5, 6]);
            let ci = c.slice_axis(0, bi, 1).reshape(vec![4, 6]);
            ci.assert_close(&ai.matmul(&bj), 1e-4);
        }
    }

    #[test]
    fn bmm_broadcast_lhs() {
        use crate::random::randn;
        let a = randn(&[1, 2, 3], 9);
        let b = randn(&[4, 3, 2], 10);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[4, 2, 2]);
        let a0 = a.reshape(vec![2, 3]);
        for bi in 0..4 {
            let bj = b.slice_axis(0, bi, 1).reshape(vec![3, 2]);
            let ci = c.slice_axis(0, bi, 1).reshape(vec![2, 2]);
            ci.assert_close(&a0.matmul(&bj), 1e-4);
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

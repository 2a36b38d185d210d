//! Scaled-dot-product attention: the multi-head op the inference session
//! runs, and the quadratic reference it is checked against.
//!
//! The paper uses Flash Attention to map the innermost level of its
//! parallelism hierarchy onto GPU streaming multiprocessors (Sec. III-C/D),
//! so that a tile's N×N score matrix never lives in memory.
//! [`multi_head_attention`] is the CPU form of that here. For each head it
//! packs `K_hᵀ` and `V_h` once into pooled strips, straight from the
//! strided `[N, d]` projections, then runs blocks of [`BLOCK`] query
//! rows through `Q·K_hᵀ` (the `1/√d_h` scale applied at store time) → row
//! softmax → `·V_h` on the GEMM driver ([`crate::qgemm`]). A block's scores
//! stay in L2, and no more than one block per worker exists at a time.
//!
//! The softmax is exact and per row, not online. A block holds whole rows,
//! so each row is complete before it is normalised and takes the same max,
//! the same pinned-order sum and the same scale as
//! [`crate::fused::softmax_rows`]. The driver has no k blocking and a row's
//! result does not depend on the row count, so every output bit equals the
//! per-head composition `matmul_nt → mul_scalar → softmax_last → matmul`,
//! and [`naive_attention`] per head. An online softmax would cut the
//! working set to O(N·d), but it rescales partial sums as key blocks
//! arrive, which reorders every row sum and so changes trained and served
//! bits (DESIGN.md §11, "Tried and removed", has the numbers of the
//! streaming kernel this crate once held).

use crate::fused::softmax_row;
use crate::matmul::MatLayout;
use crate::par::{self, MACS_PER_VISIT};
use crate::pool::{self, Buffer};
use crate::qgemm::ScratchStrips;
use crate::simd;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Query rows per block. On a `tiles-field` tile (N = 1156 tokens,
/// d_h = 64) a block's scores are 48 × 1156 × 4 B = 222 KB, which sit in L2
/// beside the head's two packs (`K_hᵀ` and `V_h`, 1156 × 64 × 4 B = 296 KB
/// each). A multiple of the driver's row panel ([`crate::qgemm::QMR`]).
pub const BLOCK: usize = 48;

/// Multi-head scaled-dot-product attention of one sample.
///
/// `q`, `k` and `v` are `[N, d]`; `heads` divides `d`. Returns `[N, d]`,
/// head `h` in columns `h·d_h .. (h+1)·d_h`: bit for bit the per-head
/// composition, and `naive_attention` of each head.
pub fn multi_head_attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    assert_eq!(q.ndim(), 2, "attention operands must be 2-d, got {:?}", q.shape());
    assert!(q.shape() == k.shape() && k.shape() == v.shape(), "q/k/v shapes differ");
    let (n, d) = (q.shape()[0], q.shape()[1]);
    assert!(heads > 0 && d % heads == 0, "{heads} heads do not divide width {d}");
    let dh = d / heads;
    let mut out = pool::alloc_uninit(n * d);
    for h in 0..heads {
        head(q.data(), k.data(), v.data(), &mut out, d, h * dh, dh);
    }
    Tensor::from_vec(vec![n, d], out)
}

/// One head: columns `c0 .. c0 + dh` of the `[n, d]` operands, written to
/// the same columns of `out`.
fn head(q: &[f32], k: &[f32], v: &[f32], out: &mut [f32], d: usize, c0: usize, dh: usize) {
    let n = q.len() / d;
    if n == 0 {
        return;
    }
    let keys = Operand::new(&k[c0..], MatLayout { rs: 1, cs: d }, dh, n);
    let values = Operand::new(&v[c0..], MatLayout::row_major(d), n, dh);
    let scales = Buffer::filled(n, 1.0 / (dh as f32).sqrt());
    // A block's work: both products' multiply-adds, and three softmax passes.
    let work = BLOCK * n * (2 * dh / MACS_PER_VISIT + 3);
    out.par_chunks_mut(BLOCK * d).enumerate().with_min_len(par::min_items(work)).for_each(|(b, ob)| {
        let m = ob.len() / d;
        // Whole-block scratch even for a ragged last block: one pool size.
        let mut scores = Buffer::uninit(BLOCK * n);
        let s = &mut scores[..m * n];
        keys.product(&q[b * BLOCK * d + c0..], d, m, Some(&scales[..]), s);
        for row in s.chunks_exact_mut(n) {
            softmax_row(row, None);
        }
        let mut o = Buffer::uninit(BLOCK * dh);
        values.product(s, n, m, None, &mut o[..m * dh]);
        for (dst, src) in ob.chunks_exact_mut(d).zip(o.chunks_exact(dh)) {
            dst[c0..c0 + dh].copy_from_slice(src);
        }
    });
}

/// The `op(B)` side of one of a head's two products, prepared once for all
/// of its blocks.
enum Operand {
    /// Strips for the GEMM driver.
    Strips(ScratchStrips),
    /// A one-column `op(B)`, gathered contiguous: `matmul::gemm` runs such a
    /// product as one `simd::dot` per row (its mat-vec path), so this does.
    Column(Buffer),
}

impl Operand {
    /// `op(B)` is `k × n`, element `(p, j)` at `b[p·rs + j·cs]`.
    fn new(b: &[f32], lb: MatLayout, k: usize, n: usize) -> Self {
        if n > 1 {
            return Operand::Strips(ScratchStrips::pack(b, lb, k, n));
        }
        let mut col = Buffer::uninit(k);
        for (p, x) in col.iter_mut().enumerate() {
            *x = b[p * lb.rs];
        }
        Operand::Column(col)
    }

    /// `c = scales ⊙ (A · op(B))` for the `m` rows of `A` that start `lda`
    /// apart at `a`.
    fn product(&self, a: &[f32], lda: usize, m: usize, scales: Option<&[f32]>, c: &mut [f32]) {
        match self {
            Operand::Strips(s) => s.gemm_seq(a, MatLayout::row_major(lda), m, scales, c),
            Operand::Column(col) => {
                for (i, cv) in c[..m].iter_mut().enumerate() {
                    let dot = simd::dot(&a[i * lda..i * lda + col.len()], col);
                    *cv = scales.map_or(dot, |s| dot * s[0]);
                }
            }
        }
    }
}

/// Reference scaled-dot-product attention.
///
/// `q, k, v` are `[S, D]` (single head); returns `[S, D]`.
/// Materializes the full `[S, S]` score matrix — O(S^2) memory.
pub fn naive_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(q.ndim(), 2);
    assert_eq!(k.ndim(), 2);
    let d = q.shape()[1];
    assert_eq!(k.shape()[1], d);
    assert_eq!(v.shape()[0], k.shape()[0]);
    let scale = 1.0 / (d as f32).sqrt();
    let scores = q.matmul(&k.transpose2()).mul_scalar(scale);
    scores.softmax_last().matmul(v)
}

/// FLOP count of one scaled-dot-product attention over `s` tokens of width
/// `d` (forward only): `2*s^2*d` for QK^T plus `2*s^2*d` for PV.
pub fn attention_flops(s: usize, d: usize) -> u64 {
    4 * (s as u64) * (s as u64) * (d as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    #[test]
    fn cross_attention_different_kv_length() {
        // Q has 10 tokens, KV has 23 (variable-aggregation cross attention).
        let q = randn(&[10, 8], 7);
        let k = randn(&[23, 8], 8);
        let v = randn(&[23, 8], 9);
        assert_eq!(naive_attention(&q, &k, &v).shape(), &[10, 8]);
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With V rows in [0,1], every output element stays in [0,1].
        let q = randn(&[12, 4], 10);
        let k = randn(&[12, 4], 11);
        let v = crate::random::rand_uniform(&[12, 4], 0.0, 1.0, 12);
        let o = naive_attention(&q, &k, &v);
        assert!(o.min_value() >= 0.0 && o.max_value() <= 1.0);
    }

    #[test]
    fn uniform_scores_average_values() {
        // Q = 0 makes all scores equal, so output = mean of V rows.
        let q = Tensor::zeros(vec![3, 4]);
        let k = randn(&[5, 4], 13);
        let v = randn(&[5, 4], 14);
        let o = naive_attention(&q, &k, &v);
        let vmean = v.mean_axis(0);
        for r in 0..3 {
            let row = o.slice_axis(0, r, 1).reshape(vec![4]);
            row.assert_close(&vmean, 1e-5);
        }
    }

    #[test]
    fn flop_count_is_quadratic() {
        assert_eq!(attention_flops(10, 4), 1600);
        assert_eq!(attention_flops(20, 4), 6400); // 2x tokens -> 4x flops
    }

    /// `naive_attention` of every head, written into its columns of an
    /// `[n, d]` result.
    fn per_head_reference(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
        let (n, d) = (q.shape()[0], q.shape()[1]);
        let dh = d / heads;
        let mut out = vec![f32::NAN; n * d];
        for h in 0..heads {
            let part = |x: &Tensor| x.slice_axis(1, h * dh, dh);
            let o = naive_attention(&part(q), &part(k), &part(v));
            for (r, src) in o.data().chunks_exact(dh).enumerate() {
                out[r * d + h * dh..r * d + (h + 1) * dh].copy_from_slice(src);
            }
        }
        Tensor::from_vec(vec![n, d], out)
    }

    fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    fn check(n: usize, dh: usize, heads: usize, seed: u64) {
        let d = dh * heads;
        let (q, k, v) = (randn(&[n, d], seed), randn(&[n, d], seed + 1), randn(&[n, d], seed + 2));
        let got = multi_head_attention(&q, &k, &v, heads);
        let want = per_head_reference(&q, &k, &v, heads);
        assert_bitwise(&got, &want, &format!("{n} tokens, d_h {dh}, {heads} heads"));
    }

    #[test]
    fn fused_op_is_naive_attention_per_head_bitwise() {
        // Token counts on both sides of one and two blocks, the one-key
        // product (`matmul::gemm`'s mat-vec path) and a `tiles-field` tile;
        // every head width and count, rotated over the token counts.
        let shapes = [(8, 1), (16, 2), (64, 4), (8, 16), (16, 16), (64, 1), (8, 4)];
        for (i, &n) in [1usize, 5, 47, 48, 49, 97].iter().enumerate() {
            for (j, &(dh, heads)) in shapes.iter().enumerate() {
                check(n, dh, heads, (10 * i + j) as u64);
            }
        }
        check(1156, 8, 2, 90);
        check(1156, 64, 1, 91);
    }

    #[test]
    fn nan_and_infinite_score_rows_are_nan_like_softmax_rows() {
        let (n, dh, heads) = (49usize, 8usize, 2usize);
        let d = dh * heads;
        let mut q = randn(&[n, d], 110);
        let v = randn(&[n, d], 112);
        // Head 0's key column 0 is positive, so a `+∞` query there scores
        // `+∞` against every key.
        let mut k = randn(&[n, d], 111);
        for r in 0..n {
            k.set(&[r, 0], k.at(&[r, 0]).abs() + 0.5);
        }
        q.set(&[3, 1], f32::NAN);
        q.set(&[47, 0], f32::INFINITY);
        let got = multi_head_attention(&q, &k, &v, heads);
        assert_bitwise(&got, &per_head_reference(&q, &k, &v, heads), "poisoned rows");
        for r in 0..n {
            let head0 = &got.data()[r * d..r * d + dh];
            let head1 = &got.data()[r * d + dh..(r + 1) * d];
            if r == 3 || r == 47 {
                assert!(head0.iter().all(|x| x.is_nan()), "row {r}: {head0:?}");
            } else {
                assert!(head0.iter().all(|x| x.is_finite()), "row {r} caught a neighbour's NaN");
            }
            assert!(head1.iter().all(|x| x.is_finite()), "row {r}: head 1 reads other columns");
        }
    }
}

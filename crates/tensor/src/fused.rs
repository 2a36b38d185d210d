//! Fused transformer kernels: the linear layer, one-pass layer norm, softmax.
//!
//! Each kernel here eliminates whole memory passes over activation buffers
//! relative to composing the primitive ops:
//!
//! * [`matmul_bias_act`] — a linear layer (`y = act(x W^T + b)`) whose bias
//!   add and activation are the GEMM driver's store-time epilogue
//!   ([`crate::qgemm`]): each C tile is scaled, biased, activated and
//!   written once, straight from the accumulators. The unfused composition
//!   writes `x W^T` to memory, re-reads it to add the bias, re-reads it
//!   again for the activation — three full traversals of an `[m, n]` buffer
//!   collapsed into one.
//! * [`layer_norm_rows`] — mean and variance in a single Welford pass
//!   (lane-wise, merged with Chan's parallel-combine formula) instead of the
//!   classic two-pass mean-then-variance sweep.
//! * [`softmax_rows`] — three passes over a row while it is L1-resident:
//!   vector max scan, one fused `exp(x − max)`-store-and-sum pass on
//!   [`simd::exp`] with a pinned summation order, vector scale.
//!   [`softmax_rows_from`] reads a source row instead, so an out-of-place
//!   softmax never copies its scores first.
//!
//! A linear layer with a non-linear activation also returns the
//! *pre-activation* tensor: the tape needs `act'(pre)` for the backward
//! pass, and recomputing `x W^T + b` there would cost a second GEMM.
//! Everything falls back to the scalar reference path under
//! `ORBIT2_DISABLE_SIMD=1`; the exponentials (softmax, the GELU epilogue and
//! its backward) are one branch-free lane function that is its own scalar
//! reference, so they have no second path to fall back to.

use crate::matmul::MatLayout;
use crate::ops::{binary_broadcast, gelu_grad_scalar, gelu_scalar};
use crate::par;
use crate::pool;
use crate::qgemm::{self, PackedWeight};
use crate::simd::{self, F32x8, LANES};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Activation applied by a fused GEMM epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation (plain linear layer).
    #[default]
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Tanh-approximated GELU ([`gelu_scalar`]: the same bits as
    /// [`Tensor::gelu`] and the tape's `Var::gelu`).
    Gelu,
}

impl Activation {
    /// `act(x)`.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Gelu => gelu_scalar(x),
        }
    }

    /// `act` applied to every element in place. The GEMM epilogue hands it
    /// one row run of a C tile at a time; the GELU is a branch-free lane
    /// function, so the loop over a run is vector code.
    pub fn apply_in_place(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Gelu => xs.iter_mut().for_each(|x| *x = gelu_scalar(*x)),
        }
    }

    /// `act'(pre)` evaluated at the stored pre-activation.
    #[inline]
    pub fn grad(self, pre: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if pre > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Gelu => gelu_grad_scalar(pre),
        }
    }
}

/// Storage precision of a resident weight pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WeightPrecision {
    /// Full f32 strips — the per-call pack, kept.
    #[default]
    F32,
    /// `u16` BF16 words, widened to f32 inside the kernel.
    Bf16,
    /// Symmetric per-output-channel `i8` codes with f32 scales.
    Int8,
}

impl WeightPrecision {
    /// Every precision. The quality gate, the serving contract tests and
    /// the bench cells all iterate this list, so adding or removing a cell
    /// is a one-line change.
    pub const ALL: [WeightPrecision; 3] =
        [WeightPrecision::F32, WeightPrecision::Bf16, WeightPrecision::Int8];

    /// Stable lowercase label used in wire formats and bench row names.
    pub fn label(self) -> &'static str {
        match self {
            WeightPrecision::F32 => "f32",
            WeightPrecision::Bf16 => "bf16",
            WeightPrecision::Int8 => "int8",
        }
    }

    /// Parse a [`label`](Self::label) back into a precision.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(WeightPrecision::F32),
            "bf16" => Some(WeightPrecision::Bf16),
            "int8" | "i8" => Some(WeightPrecision::Int8),
            _ => None,
        }
    }
}

/// Shape checks shared by both linear entries; returns `(m, k, n)`.
fn linear_dims(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> (usize, usize, usize) {
    assert_eq!(x.ndim(), 2, "matmul_bias_act input must be 2-d");
    assert_eq!(w.ndim(), 2, "matmul_bias_act weight must be 2-d");
    let (m, k) = (x.shape()[0], x.shape()[1]);
    let (n, k2) = (w.shape()[0], w.shape()[1]);
    assert_eq!(k, k2, "matmul_bias_act dims: x {:?} vs w {:?}", x.shape(), w.shape());
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length {} != out features {n}", b.len());
    }
    (m, k, n)
}

/// Fused linear layer: `y = act(x W^T + bias)`.
///
/// `x` is `[m, k]`, `w` is `[n, k]` (PyTorch `[out, in]` convention — packed
/// straight from its storage, no transpose materialized), `bias` is `[n]`.
/// Returns `(y, pre)` where `pre` is the pre-activation `x W^T + bias`,
/// stored only when a non-identity activation consumed it (the tape needs it
/// for `act'`; for identity `pre == y` and is elided).
pub fn matmul_bias_act(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    act: Activation,
) -> (Tensor, Option<Tensor>) {
    let (m, k, n) = linear_dims(x, w, bias);
    let mut out = pool::alloc_uninit(m * n);
    let mut pre = (act != Activation::Identity).then(|| pool::alloc_uninit(m * n));
    qgemm::gemm_per_call(
        x.data(),
        MatLayout::row_major(k),
        w.data(),
        MatLayout::transposed(k),
        m,
        k,
        n,
        bias.map(|b| b.data()),
        act,
        &mut out,
        pre.as_deref_mut(),
        true,
    );
    (Tensor::from_vec(vec![m, n], out), pre.map(|p| Tensor::from_vec(vec![m, n], p)))
}

/// Tape-free fused linear layer reusing a resident weight pack.
///
/// Same driver as [`matmul_bias_act`] with two inference-only differences:
/// the strips of `W^T` are taken from `packed` instead of being rebuilt per
/// call, and no pre-activation is stored (there is no backward pass to
/// feed). `packed` must have been produced by [`PackedWeight::pack`] for
/// this layer; pass `None` (a weight the shape gate leaves unpacked) to
/// pack `w` per call.
///
/// **Reduced-precision contract:** a [`Bf16`](WeightPrecision::Bf16) or
/// [`Int8`](WeightPrecision::Int8) session passes the pack's
/// [`dequantized`](PackedWeight::dequantized) tensor as `w`, so a weight
/// with no pack (and every non-GEMM reader of the parameter) computes with
/// the same values the kernel widens. When `packed` is given, only the
/// shape of `w` is read.
pub fn matmul_bias_act_cached(
    x: &Tensor,
    w: &Tensor,
    packed: Option<&PackedWeight>,
    bias: Option<&Tensor>,
    act: Activation,
) -> Tensor {
    let (m, k, n) = linear_dims(x, w, bias);
    let bd = bias.map(|b| b.data());
    let mut out = pool::alloc_uninit(m * n);
    match packed {
        Some(pw) => {
            assert_eq!((pw.n(), pw.k()), (n, k), "resident pack shape mismatch for w {:?}", w.shape());
            qgemm::gemm_resident(x.data(), m, pw, bd, act, &mut out);
        }
        None => {
            let (la, lb) = (MatLayout::row_major(k), MatLayout::transposed(k));
            qgemm::gemm_per_call(x.data(), la, w.data(), lb, m, k, n, bd, act, &mut out, None, true);
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// `g ⊙ act'(pre)` — the elementwise start of the fused-linear backward, on
/// the elementwise walker (one vectorizable run, split across workers once
/// it is large enough).
pub fn act_backward(g: &Tensor, pre: &Tensor, act: Activation) -> Tensor {
    assert_eq!(g.shape(), pre.shape());
    binary_broadcast(g, pre, move |gv, pv| gv * act.grad(pv))
}

/// One-pass Welford layer norm over the last axis.
///
/// `src` is `rows` rows of length `d`. Returns `(norm, inv_std)` where
/// `norm[r]` is the normalized row `(x - mean) / sqrt(var + eps)` and
/// `inv_std[r] = 1 / sqrt(var + eps)` (kept for the backward pass).
///
/// Mean and variance come from a single traversal: eight lane-wise Welford
/// streams over the vector body, merged with Chan's combine formula, then
/// the scalar tail folded in the same way. The classic two-pass formulation
/// reads the row twice before the normalize write; this reads it once.
pub fn layer_norm_rows(src: &[f32], rows: usize, d: usize, eps: f32) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(src.len(), rows * d);
    let mut norm = pool::alloc_uninit(rows * d);
    let mut inv_std = pool::alloc_uninit(rows);
    norm.par_chunks_mut(d).zip(inv_std.par_iter_mut()).enumerate().with_min_len(par::min_items(d)).for_each(
        |(r, (nrow, istd))| {
            let row = &src[r * d..(r + 1) * d];
            let (mean, var) = welford_mean_var(row);
            let is = 1.0 / (var + eps).sqrt();
            *istd = is;
            if simd::enabled() {
                let mv = F32x8::splat(mean);
                let sv = F32x8::splat(is);
                let mut nc = nrow.chunks_exact_mut(LANES);
                let mut rc = row.chunks_exact(LANES);
                for (nd, rd) in nc.by_ref().zip(rc.by_ref()) {
                    F32x8::load(rd).sub(mv).mul(sv).store(nd);
                }
                for (nd, &rv) in nc.into_remainder().iter_mut().zip(rc.remainder()) {
                    *nd = (rv - mean) * is;
                }
            } else {
                for (nd, &rv) in nrow.iter_mut().zip(row) {
                    *nd = (rv - mean) * is;
                }
            }
        },
    );
    (norm, inv_std)
}

/// Single-pass mean and population variance of a slice (Welford).
pub fn welford_mean_var(row: &[f32]) -> (f32, f32) {
    let d = row.len();
    if d == 0 {
        return (0.0, 0.0);
    }
    if !simd::enabled() || d < 2 * LANES {
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (i, &x) in row.iter().enumerate() {
            let x = x as f64;
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        return (mean as f32, (m2 / d as f64) as f32);
    }
    // Eight parallel Welford streams: lane `l` accumulates elements
    // `l, l+8, l+16, ...` of the vector body.
    let mut mean = F32x8::ZERO;
    let mut m2 = F32x8::ZERO;
    let mut chunks = row.chunks_exact(LANES);
    let mut t = 0.0f32;
    for ch in chunks.by_ref() {
        t += 1.0;
        let x = F32x8::load(ch);
        let delta = x.sub(mean);
        mean = mean.add(delta.mul(F32x8::splat(1.0 / t)));
        m2 = m2.add(delta.mul(x.sub(mean)));
    }
    // Merge the eight lane statistics (Chan's pairwise combine).
    let means = mean.to_array();
    let m2s = m2.to_array();
    let mut cmean = means[0] as f64;
    let mut cm2 = m2s[0] as f64;
    let mut cn = t as f64;
    for l in 1..LANES {
        (cmean, cm2, cn) = chan_combine(cmean, cm2, cn, means[l] as f64, m2s[l] as f64, t as f64);
    }
    // Fold in the scalar tail with per-element Welford updates.
    for &x in chunks.remainder() {
        let x = x as f64;
        cn += 1.0;
        let delta = x - cmean;
        cmean += delta / cn;
        cm2 += delta * (x - cmean);
    }
    (cmean as f32, (cm2 / d as f64) as f32)
}

/// Chan's parallel combine for two Welford partials.
#[inline]
fn chan_combine(ma: f64, m2a: f64, na: f64, mb: f64, m2b: f64, nb: f64) -> (f64, f64, f64) {
    let n = na + nb;
    let delta = mb - ma;
    let mean = ma + delta * nb / n;
    let m2 = m2a + m2b + delta * delta * na * nb / n;
    (mean, m2, n)
}

/// In-place softmax over contiguous rows of length `inner`: for each row,
/// subtract the max, exponentiate, and scale by the inverse sum. A row is
/// computed from that row alone ([`simd::exp_sub_sum`] pins the order of its
/// sum), so the result is independent of the SIMD mode, of the worker split
/// and of the rows stacked around it. A NaN or `+∞` score makes its whole
/// row NaN, never a silently finite one.
pub fn softmax_rows(dst: &mut [f32], inner: usize) {
    softmax(None, dst, inner);
}

/// [`softmax_rows`] reading the scores from `src` and writing `dst`.
pub fn softmax_rows_from(src: &[f32], dst: &mut [f32], inner: usize) {
    assert_eq!(src.len(), dst.len());
    softmax(Some(src), dst, inner);
}

fn softmax(src: Option<&[f32]>, dst: &mut [f32], inner: usize) {
    debug_assert_eq!(dst.len() % inner.max(1), 0);
    if inner == 0 {
        return;
    }
    dst.par_chunks_mut(inner).enumerate().with_min_len(par::min_items(inner)).for_each(|(r, row)| {
        softmax_row(row, src.map(|s| &s[r * inner..(r + 1) * inner]));
    });
}

/// One row of [`softmax_rows`] (of [`softmax_rows_from`] when `src` is
/// given): max, exponentiate and sum, scale by the inverse sum.
pub(crate) fn softmax_row(row: &mut [f32], src: Option<&[f32]>) {
    let mx = simd::max_value(src.unwrap_or(row));
    let sum = simd::exp_sub_sum(row, src, mx);
    simd::scale(row, 1.0 / sum);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    #[test]
    fn precision_labels_round_trip() {
        for p in WeightPrecision::ALL {
            assert_eq!(WeightPrecision::parse(p.label()), Some(p));
        }
    }

    #[test]
    fn fused_linear_matches_unfused_composition() {
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (72, 64, 48), (73, 33, 17)] {
            let x = randn(&[m, k], 1);
            let w = randn(&[n, k], 2);
            let b = randn(&[n], 3);
            let (y, pre) = matmul_bias_act(&x, &w, Some(&b), Activation::Gelu);
            let expect = x.matmul(&w.transpose2()).add(&b.reshape(vec![1, n])).gelu();
            y.assert_close(&expect, 1e-4 * (k as f32).sqrt());
            let pre = pre.expect("gelu epilogue stores pre-activation");
            let expect_pre = x.matmul(&w.transpose2()).add(&b.reshape(vec![1, n]));
            pre.assert_close(&expect_pre, 1e-4 * (k as f32).sqrt());
        }
    }

    #[test]
    fn cached_pack_bitwise_matches_per_call_pack() {
        // Shapes on both sides of the pack gate (n = 4 has no resident
        // pack), ragged and whole strips.
        for &(m, k, n) in &[(2usize, 3usize, 4usize), (8, 16, 12), (72, 64, 48), (73, 33, 17)] {
            let x = randn(&[m, k], 41);
            let w = randn(&[n, k], 42);
            let b = randn(&[n], 43);
            let packed = PackedWeight::pack(&w, WeightPrecision::F32);
            for act in [Activation::Identity, Activation::Gelu, Activation::Relu] {
                let (y_ref, _) = matmul_bias_act(&x, &w, Some(&b), act);
                let y_cached = matmul_bias_act_cached(&x, &w, packed.as_ref(), Some(&b), act);
                assert_eq!(y_ref.data(), y_cached.data(), "m={m} k={k} n={n} {act:?}");
                let y_uncached = matmul_bias_act_cached(&x, &w, None, Some(&b), act);
                assert_eq!(y_ref.data(), y_uncached.data());
            }
        }
    }

    #[test]
    fn row_stacking_is_bitwise_invariant() {
        // Row independence: every row-wise kernel computes each output row
        // from its input row alone, so stacking two activations and running
        // ONE kernel call equals the two separate calls, bit for bit — what
        // lets the attention op run its query blocks through the same GEMM
        // driver, and a parallel call cut its rows anywhere. Rows per part
        // deliberately straddle row panels; `n = 3` has no resident pack;
        // the last stack is split across workers, its parts are not.
        for &(k, n, ra, rb) in &[
            (48usize, 32usize, 2usize, 3usize),
            (48, 32, 5, 9),
            (48, 32, 7, 70),
            (48, 32, 64, 128),
            (48, 32, 73, 7),
            (8, 16, 5, 9),
            (40, 3, 7, 70),
            (33, 100, 64, 128),
            (256, 256, 100, 200),
        ] {
            let w = randn(&[n, k], 71);
            let b = randn(&[n], 72);
            let packed = PackedWeight::pack(&w, WeightPrecision::F32);
            let xa = randn(&[ra, k], 73);
            let xb = randn(&[rb, k], 74);
            let stacked = Tensor::concat(&[&xa, &xb], 0);
            // Fused linear (the batched GEMM itself).
            for act in [Activation::Identity, Activation::Gelu] {
                let ya = matmul_bias_act_cached(&xa, &w, packed.as_ref(), Some(&b), act);
                let yb = matmul_bias_act_cached(&xb, &w, packed.as_ref(), Some(&b), act);
                let ys = matmul_bias_act_cached(&stacked, &w, packed.as_ref(), Some(&b), act);
                assert_eq!(ys.slice_axis(0, 0, ra).data(), ya.data(), "linear rows ({ra},{rb}) {act:?}");
                assert_eq!(ys.slice_axis(0, ra, rb).data(), yb.data(), "linear rows ({ra},{rb}) {act:?}");
            }
            // Layer norm.
            let (na, _) = layer_norm_rows(xa.data(), ra, k, 1e-5);
            let (nb, _) = layer_norm_rows(xb.data(), rb, k, 1e-5);
            let (ns, _) = layer_norm_rows(stacked.data(), ra + rb, k, 1e-5);
            assert_eq!(&ns[..ra * k], &na[..], "layer_norm rows ({ra},{rb})");
            assert_eq!(&ns[ra * k..], &nb[..], "layer_norm rows ({ra},{rb})");
            // Softmax.
            let mut sa = xa.data().to_vec();
            let mut sb = xb.data().to_vec();
            let mut ss = stacked.data().to_vec();
            softmax_rows(&mut sa, k);
            softmax_rows(&mut sb, k);
            softmax_rows(&mut ss, k);
            assert_eq!(&ss[..ra * k], &sa[..], "softmax rows ({ra},{rb})");
            assert_eq!(&ss[ra * k..], &sb[..], "softmax rows ({ra},{rb})");
        }
    }

    #[test]
    fn quantized_cached_path_matches_dequantized_reference() {
        // A reduced-precision pack must compute the same function as the
        // plain fused linear on its dequantized tensor: exactly for bf16
        // (the widened values are the tensor's), within rounding of the
        // late per-channel scale for int8.
        for &(m, k, n) in &[(2usize, 3usize, 16usize), (9, 40, 48), (72, 64, 64)] {
            let x = randn(&[m, k], 51);
            let w = randn(&[n, k], 52);
            let b = randn(&[n], 53);
            for prec in [WeightPrecision::Bf16, WeightPrecision::Int8] {
                let packed = PackedWeight::pack(&w, prec).unwrap();
                assert_eq!(packed.precision(), prec);
                let dq = packed.dequantized().unwrap();
                for act in [Activation::Identity, Activation::Gelu] {
                    let y = matmul_bias_act_cached(&x, &dq, Some(&packed), Some(&b), act);
                    let (y_ref, _) = matmul_bias_act(&x, &dq, Some(&b), act);
                    y.assert_close(&y_ref, 2e-4 * (k as f32).sqrt());
                }
            }
        }
    }

    #[test]
    fn quantized_row_stacking_is_bitwise_invariant() {
        // Row independence must hold for reduced-precision packs too: each
        // output row depends on its input row alone.
        let (k, n) = (48usize, 64usize);
        let w = randn(&[n, k], 81);
        let b = randn(&[n], 82);
        for prec in [WeightPrecision::Bf16, WeightPrecision::Int8] {
            let packed = PackedWeight::pack(&w, prec).unwrap();
            let dq = packed.dequantized().unwrap();
            for &(ra, rb) in &[(5usize, 9usize), (7, 70), (64, 128)] {
                let xa = randn(&[ra, k], 83);
                let xb = randn(&[rb, k], 84);
                let stacked = Tensor::concat(&[&xa, &xb], 0);
                let ya = matmul_bias_act_cached(&xa, &dq, Some(&packed), Some(&b), Activation::Gelu);
                let yb = matmul_bias_act_cached(&xb, &dq, Some(&packed), Some(&b), Activation::Gelu);
                let ys =
                    matmul_bias_act_cached(&stacked, &dq, Some(&packed), Some(&b), Activation::Gelu);
                assert_eq!(ys.slice_axis(0, 0, ra).data(), ya.data(), "{prec:?} rows ({ra},{rb})");
                assert_eq!(ys.slice_axis(0, ra, rb).data(), yb.data(), "{prec:?} rows ({ra},{rb})");
            }
        }
    }

    #[test]
    fn identity_no_bias_elides_pre() {
        let x = randn(&[4, 6], 4);
        let w = randn(&[5, 6], 5);
        let (y, pre) = matmul_bias_act(&x, &w, None, Activation::Identity);
        assert!(pre.is_none());
        y.assert_close(&x.matmul(&w.transpose2()), 1e-4);
    }

    #[test]
    fn relu_epilogue_clamps() {
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]);
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let (y, pre) = matmul_bias_act(&x, &w, None, Activation::Relu);
        assert_eq!(y.data(), &[1.0, 0.0]);
        assert_eq!(pre.unwrap().data(), &[1.0, -1.0]);
    }

    #[test]
    fn welford_matches_two_pass() {
        for n in [1usize, 7, 8, 16, 100, 257] {
            let t = randn(&[n], 11);
            let row = t.data();
            let mean_ref: f32 = row.iter().sum::<f32>() / n as f32;
            let var_ref: f32 =
                row.iter().map(|&x| (x - mean_ref) * (x - mean_ref)).sum::<f32>() / n as f32;
            let (mean, var) = welford_mean_var(row);
            assert!((mean - mean_ref).abs() < 1e-4, "n={n}: {mean} vs {mean_ref}");
            assert!((var - var_ref).abs() < 1e-3, "n={n}: {var} vs {var_ref}");
        }
    }

    #[test]
    fn layer_norm_rows_normalizes() {
        let (rows, d) = (6, 37);
        let t = randn(&[rows, d], 21);
        let (norm, inv_std) = layer_norm_rows(t.data(), rows, d, 1e-5);
        assert_eq!(inv_std.len(), rows);
        for r in 0..rows {
            let row = &norm[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn softmax_rows_matches_reference() {
        let t = randn(&[5, 13], 31);
        let mut fused = t.data().to_vec();
        softmax_rows(&mut fused, 13);
        let expect = t.softmax_last();
        for (a, b) in fused.iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-5);
        }
        let sums: f32 = fused[..13].iter().sum();
        assert!((sums - 1.0).abs() < 1e-5);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn on<T: Send>(threads: usize, f: impl Fn() -> T + Sync) -> T {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
    }

    #[test]
    fn softmax_rows_sum_to_one_and_match_an_f64_reference() {
        // Ragged and whole-block widths, the `tiles-field` 1156 included.
        for &(rows, d) in &[(7usize, 1usize), (5, 13), (9, 16), (4, 67), (3, 256), (2, 1156)] {
            let t = randn(&[rows, d], 33).mul_scalar(4.0);
            let got = t.softmax_last();
            for (r, row) in t.data().chunks_exact(d).enumerate() {
                let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
                let den: f64 = row.iter().map(|&x| (x as f64 - mx).exp()).sum();
                let out = &got.data()[r * d..(r + 1) * d];
                for (&x, &p) in row.iter().zip(out) {
                    let want = ((x as f64 - mx).exp() / den) as f32;
                    assert!((p - want).abs() <= 2e-7, "[{rows},{d}] row {r}: {p} vs {want}");
                }
                let sum: f64 = out.iter().map(|&p| p as f64).sum();
                assert!((sum - 1.0).abs() < 1e-6, "[{rows},{d}] row {r} sums to {sum}");
            }
        }
    }

    #[test]
    fn softmax_poisoned_scores_poison_their_row_only() {
        let d = 37;
        for poison in [f32::NAN, f32::INFINITY] {
            for at in [0usize, 15, 16, 36] {
                let mut t = randn(&[3, d], 34).data().to_vec();
                t[d + at] = poison;
                softmax_rows(&mut t, d);
                assert!(t[d..2 * d].iter().all(|p| !p.is_finite()), "{poison} at {at}: {:?}", &t[d..2 * d]);
                assert!(t[..d].iter().chain(&t[2 * d..]).all(|p| p.is_finite()), "{poison} leaked");
            }
        }
        // A masked (-inf) score is an exact zero, not a poison.
        let mut row = vec![0.5f32, f32::NEG_INFINITY, -0.25];
        softmax_rows(&mut row, 3);
        assert_eq!(row[1].to_bits(), 0);
        assert!((row[0] + row[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_bits_do_not_depend_on_threads_or_entry_point() {
        // Enough rows that the parallel entry splits them; the reference is
        // row 0 alone, in place, on one thread.
        let (rows, d) = (64usize, 1156usize);
        let t = randn(&[rows, d], 35).mul_scalar(3.0);
        let one = on(1, || t.softmax_last());
        for threads in [2, 3] {
            assert_eq!(bits(on(threads, || t.softmax_last()).data()), bits(one.data()), "x{threads}");
        }
        let mut in_place = t.data().to_vec();
        softmax_rows(&mut in_place, d);
        assert_eq!(bits(&in_place), bits(one.data()), "in place vs source/destination");
        let mut row0 = t.data()[..d].to_vec();
        softmax_rows(&mut row0, d);
        assert_eq!(bits(&row0), bits(&one.data()[..d]), "a row alone vs in the stack");
    }

    #[test]
    fn every_gelu_path_is_the_lane_function_bitwise() {
        // Shapes whose C-tile row runs are whole, ragged and shorter than a
        // lane block; m = 300 x n = 128 is past the walker's parallel split.
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (13, 24, 64), (73, 33, 17), (300, 16, 128)] {
            let x = randn(&[m, k], 61);
            let w = randn(&[n, k], 62).mul_scalar(3.0);
            let b = randn(&[n], 63);
            let (y, pre) = matmul_bias_act(&x, &w, Some(&b), Activation::Gelu);
            let pre = pre.expect("gelu stores its pre-activation");
            let lane: Vec<f32> = pre.data().iter().map(|&p| gelu_scalar(std::hint::black_box(p))).collect();
            assert_eq!(bits(y.data()), bits(&lane), "epilogue, {m}x{k}x{n}");
            assert_eq!(bits(pre.gelu().data()), bits(&lane), "Tensor::gelu");
            let mut in_place = pre.data().to_vec();
            Activation::Gelu.apply_in_place(&mut in_place);
            assert_eq!(bits(&in_place), bits(&lane), "apply_in_place");
            assert_eq!(Activation::Gelu.apply(pre.data()[0]).to_bits(), lane[0].to_bits());

            let g = randn(&[m, n], 64);
            let want: Vec<f32> = g
                .data()
                .iter()
                .zip(pre.data())
                .map(|(&gv, &pv)| gv * gelu_grad_scalar(std::hint::black_box(pv)))
                .collect();
            for threads in [1, 2] {
                let got = on(threads, || act_backward(&g, &pre, Activation::Gelu));
                assert_eq!(bits(got.data()), bits(&want), "act_backward x{threads}, {m}x{n}");
            }
            assert_eq!(Activation::Gelu.grad(pre.data()[0]).to_bits(), gelu_grad_scalar(pre.data()[0]).to_bits());
        }
        // The other activations ride the same walker.
        let (g, pre) = (randn(&[4, 5], 65), randn(&[4, 5], 66));
        assert_eq!(act_backward(&g, &pre, Activation::Identity).data(), g.data());
        let relu = act_backward(&g, &pre, Activation::Relu);
        for ((&r, &gv), &pv) in relu.data().iter().zip(g.data()).zip(pre.data()) {
            assert_eq!(r, if pv > 0.0 { gv } else { 0.0 });
        }
    }

    #[test]
    fn activation_grads_match_finite_difference() {
        for act in [Activation::Relu, Activation::Gelu] {
            for &x in &[-1.5f32, -0.3, 0.2, 1.7] {
                let h = 1e-3;
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!((act.grad(x) - fd).abs() < 1e-2, "{act:?} at {x}");
            }
        }
    }
}

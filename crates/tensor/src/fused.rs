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
//!   `simd::exp` with a pinned summation order, vector scale.
//!   `softmax_rows_from` reads a source row instead, so an out-of-place
//!   softmax never copies its scores first.
//!
//! An f32 linear reads its weight by one rule in both contexts
//! ([`IN_PLACE_MAX_ROWS`]): where it lies when the product is short,
//! through a `W^T` pack built for the call when it is long. The tape runs
//! it through [`matmul_bias_act`], an inference session through
//! [`matmul_bias_act_cached`] with no pack, which stores no pre-activation.
//! Only an int8 session holds resident packs ([`PackedWeight`]).
//!
//! A linear layer with a non-linear activation also returns the
//! *pre-activation* tensor: the tape needs `act'(pre)` for the backward
//! pass, and recomputing `x W^T + b` there would cost a second GEMM.
//! Each kernel has one production path; the exponentials (softmax, the GELU
//! epilogue and its backward) are one branch-free lane function that is its
//! own scalar reference.

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
    /// Tanh-approximated GELU (`gelu_scalar`: the same bits as
    /// [`Tensor::gelu`] and the tape's `Var::gelu`).
    Gelu,
}

impl Activation {
    /// `act` applied to every element in place. The GEMM epilogue hands it
    /// one row run of a C tile at a time; the GELU is a branch-free lane
    /// function, so the loop over a run is vector code.
    pub(crate) fn apply_in_place(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Gelu => xs.iter_mut().for_each(|x| *x = gelu_scalar(*x)),
        }
    }

    /// `act'(pre)` evaluated at the stored pre-activation.
    #[inline]
    fn grad(self, pre: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Gelu => gelu_grad_scalar(pre),
        }
    }
}

/// Storage precision of a session's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WeightPrecision {
    /// Full f32: a session reads the store's tensor and keeps no pack; each
    /// linear reads its weight by the [`IN_PLACE_MAX_ROWS`] rule.
    #[default]
    F32,
    /// Symmetric per-output-channel `i8` codes with f32 scales: the
    /// resident [`PackedWeight`] a session holds per packable weight.
    Int8,
}

impl WeightPrecision {
    /// Every precision. The quality gate, the serving contract tests and
    /// the bench cells all iterate this list, so adding or removing a cell
    /// is a one-line change.
    pub const ALL: [WeightPrecision; 2] = [WeightPrecision::F32, WeightPrecision::Int8];

    /// Stable lowercase label used in wire formats and bench row names.
    pub fn label(self) -> &'static str {
        match self {
            WeightPrecision::F32 => "f32",
            WeightPrecision::Int8 => "int8",
        }
    }

    /// Every [`label`](Self::label), listed as an error message offers them
    /// ("f32 or int8"), so no message can name a stale set.
    pub fn choices() -> String {
        let labels = Self::ALL.map(Self::label);
        let (last, rest) = labels.split_last().expect("at least one precision");
        format!("{} or {last}", rest.join(", "))
    }

    /// Parse a [`label`](Self::label) back into a precision.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(WeightPrecision::F32),
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
/// `x` is `[m, k]`, `w` is `[n, k]` (PyTorch `[out, in]` convention — no
/// transpose materialized), `bias` is `[n]`. Returns `(y, pre)` where `pre`
/// is the pre-activation `x W^T + bias`, stored only when a non-identity
/// activation consumed it (the tape needs it for `act'`; for identity
/// `pre == y` and is elided).
///
/// The weight is read by the f32 rule ([`IN_PLACE_MAX_ROWS`]): in place up
/// to that many rows, through a per-call `W^T` pack past it. Both give the
/// same bits.
pub fn matmul_bias_act(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, act: Activation) -> (Tensor, Option<Tensor>) {
    linear_f32(x, w, bias, act, true)
}

/// Tape-free fused linear layer, reading a resident weight pack if it has
/// one.
///
/// Same driver as [`matmul_bias_act`], and no pre-activation is stored
/// (there is no backward pass to feed). With `packed` (which
/// [`PackedWeight::pack`] built for this layer) the strips of `W^T` are
/// taken from it instead of `w`; with `None`, `w` is read by the f32 rule
/// of [`matmul_bias_act`]. An f32 session passes `None` for every weight:
/// only an int8 session holds packs.
///
/// With `packed`, which is the [`Int8`](WeightPrecision::Int8) form of
/// `w`, only the shape of `w` is read.
pub fn matmul_bias_act_cached(
    x: &Tensor,
    w: &Tensor,
    packed: Option<&PackedWeight>,
    bias: Option<&Tensor>,
    act: Activation,
) -> Tensor {
    let Some(pw) = packed else {
        return linear_f32(x, w, bias, act, false).0;
    };
    let (m, k, n) = linear_dims(x, w, bias);
    assert_eq!((pw.n(), pw.k()), (n, k), "resident pack shape mismatch for w {:?}", w.shape());
    let mut out = pool::alloc_uninit(m * n);
    qgemm::gemm_resident(x.data(), m, pw, bias.map(|b| b.data()), act, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// The f32 linear of both contexts: the weight read in place up to
/// [`IN_PLACE_MAX_ROWS`] rows, `W^T` packed for the call past it; the
/// pre-activation kept when `keep_pre` and the activation needs it.
fn linear_f32(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    act: Activation,
    keep_pre: bool,
) -> (Tensor, Option<Tensor>) {
    let (m, k, n) = linear_dims(x, w, bias);
    let bd = bias.map(|b| b.data());
    let mut out = pool::alloc_uninit(m * n);
    let mut pre = (keep_pre && act != Activation::Identity).then(|| pool::alloc_uninit(m * n));
    if m <= IN_PLACE_MAX_ROWS {
        qgemm::gemm_weight_in_place(x.data(), m, w.data(), n, k, bd, act, &mut out, pre.as_deref_mut());
    } else {
        let (la, lb) = (MatLayout::row_major(k), MatLayout::transposed(k));
        qgemm::gemm_per_call(x.data(), la, w.data(), lb, m, k, n, bd, act, &mut out, pre.as_deref_mut());
    }
    (Tensor::from_vec(vec![m, n], out), pre.map(|p| Tensor::from_vec(vec![m, n], p)))
}

/// Rows up to which an f32 linear reads its weight in place; past it, the
/// linear packs `W^T` for the call. This is the one f32 rule, run alike by
/// the tape ([`matmul_bias_act`]) and by an inference session
/// ([`matmul_bias_act_cached`] with no pack). 64 is the widest strip the
/// driver packs, so up to here `x^T` is one strip and the weight is
/// streamed exactly once; past it, once per strip.
///
/// Per call ÷ in place on the same operands, medians of four runs on the
/// reference 2-core AVX-512 guest (two threads, `gemm_f32/percall/*`
/// against `gemm_f32/inplace/*`):
/// * 1024² sweep: 1.6–2.2× from 8 to 64 rows; past one strip, 1.2× at 96,
///   1.4× at 128, and 1.06–1.08× at 192 and 256 (single runs 0.67–1.29×).
/// * 126M at 32 tokens: 2.3× at both MLP shapes.
/// * The long linears of a TILES tile, where the `x^T` pack and the
///   transposing store pass are no longer small against `k`: 0.60–0.74× on
///   the 9.5M model's 1156-row linears, 0.21–0.41× on the tiny model's
///   512-row ones.
///
/// So in place wins up to 64 rows and the per-call pack wins on every
/// longer linear a benchmark workload runs. From 65 to 256 rows, where no
/// workload runs a linear, in place still leads by 6–42%.
///
/// A resident f32 `W^T` pack bought little over the per-call pack (per
/// call ÷ resident, the median of four per-run ratios, read 0.97–1.07× at
/// the 1156-row linears and 1.02–1.10× at the 512-row ones, single runs
/// 0.38–2.57×, and `tiles-field` took the same time without one), so a
/// resident pack is int8 only.
///
/// On the tape the in-place read replaced a per-call pack at every length:
/// on a `train-step` step (9.5M model, 60-token tiles, CPU-ms per step over
/// both workers of the 2-core AVX-512 guest, seed 1, two runs) the linear
/// forwards took 65–69 CPU-ms, 34–37 of them the `W^T` packs; in place
/// they take 51–52, of which 3 are the `x^T` packs and 36–37 the products,
/// which now stream the cold weight themselves.
pub const IN_PLACE_MAX_ROWS: usize = 64;

/// Fused linear layer reading the `[n, k]` weight in place at any row
/// count: `y = act(x W^T + bias)` computed as `(W · x^T)^T`, with only
/// `x^T` packed for the call and no pre-activation stored. It is the short
/// half of the f32 rule, exposed on its own so the kernel bench and the
/// tests can run it past [`IN_PLACE_MAX_ROWS`]. Bit-identical to
/// [`matmul_bias_act`] and [`matmul_bias_act_cached`] on the same f32
/// operands at every shape.
pub fn matmul_bias_act_in_place(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, act: Activation) -> Tensor {
    let (m, k, n) = linear_dims(x, w, bias);
    let mut out = pool::alloc_uninit(m * n);
    qgemm::gemm_weight_in_place(x.data(), m, w.data(), n, k, bias.map(|b| b.data()), act, &mut out, None);
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
        },
    );
    (norm, inv_std)
}

/// Single-pass mean and population variance of a slice (Welford).
fn welford_mean_var(row: &[f32]) -> (f32, f32) {
    let d = row.len();
    if d == 0 {
        return (0.0, 0.0);
    }
    if d < 2 * LANES {
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
/// computed from that row alone (`simd::exp_sub_sum` pins the order of its
/// sum), so the result is independent of the worker split and of the rows
/// stacked around it. A NaN or `+∞` score makes its whole row NaN, never a
/// silently finite one.
pub fn softmax_rows(dst: &mut [f32], inner: usize) {
    softmax(None, dst, inner);
}

/// [`softmax_rows`] reading the scores from `src` and writing `dst`.
pub(crate) fn softmax_rows_from(src: &[f32], dst: &mut [f32], inner: usize) {
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
            assert!(WeightPrecision::choices().contains(p.label()));
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

    /// `act(x W^T + bias)` through a `W^T` pack built for the call, at any
    /// row count: the long half of the f32 rule, run here below it too.
    fn per_call(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, act: Activation) -> Tensor {
        let (m, k, n) = linear_dims(x, w, bias);
        let mut out = pool::alloc_uninit(m * n);
        let (la, lb) = (MatLayout::row_major(k), MatLayout::transposed(k));
        qgemm::gemm_per_call(x.data(), la, w.data(), lb, m, k, n, bias.map(|b| b.data()), act, &mut out, None);
        Tensor::from_vec(vec![m, n], out)
    }

    #[test]
    fn in_place_product_bitwise_matches_per_call_pack() {
        // The weight read in place, through a `W^T` pack built for the call
        // and by the f32 rule — the tape's linear and the session's — on
        // the same operands: `m` straddles the per-call product's 6-row
        // panels, the 16/32/64-column strips of the in-place product's
        // `x^T` and `IN_PLACE_MAX_ROWS`; every `n` is ragged against the
        // strips, two of them narrower than one; `k = 1` is a one-step
        // chain. The tape's stored pre-activation is the identity
        // product's output.
        for m in [1usize, 5, 6, 7, 16, 31, 32, 33, 63, 64, 65, 97] {
            for &(k, n) in &[(1usize, 37usize), (7, 100), (1024, 20), (3, 4), (16, 12)] {
                let x = randn(&[m, k], 91);
                let w = randn(&[n, k], 92);
                let b = randn(&[n], 93);
                for act in [Activation::Identity, Activation::Gelu] {
                    for bias in [None, Some(&b)] {
                        let packed = per_call(&x, &w, bias, act);
                        let in_place = matmul_bias_act_in_place(&x, &w, bias, act);
                        let case = format!("{m}x{k}x{n} {act:?} bias {}", bias.is_some());
                        assert_eq!(bits(in_place.data()), bits(packed.data()), "{case}");
                        let (tape, pre) = matmul_bias_act(&x, &w, bias, act);
                        assert_eq!(bits(tape.data()), bits(packed.data()), "{case}: tape");
                        let session = matmul_bias_act_cached(&x, &w, None, bias, act);
                        assert_eq!(bits(session.data()), bits(packed.data()), "{case}: session");
                        if let Some(pre) = pre {
                            let plain = per_call(&x, &w, bias, Activation::Identity);
                            assert_eq!(bits(pre.data()), bits(plain.data()), "{case}: pre");
                        }
                    }
                }
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
        // deliberately straddle row panels and `IN_PLACE_MAX_ROWS`, so the
        // session's linear reads a part in place and the stack through a
        // per-call pack; the last stack is split across workers, its parts
        // are not.
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
            let xa = randn(&[ra, k], 73);
            let xb = randn(&[rb, k], 74);
            let stacked = Tensor::concat(&[&xa, &xb], 0);
            // Fused linear (the batched GEMM itself), by each read of the
            // weight: the session's rule, in place and per call.
            type Linear = fn(&Tensor, &Tensor, Option<&Tensor>, Activation) -> Tensor;
            let linears: [Linear; 3] =
                [|x, w, b, act| matmul_bias_act_cached(x, w, None, b, act), matmul_bias_act_in_place, per_call];
            for (li, linear) in linears.iter().enumerate() {
                for act in [Activation::Identity, Activation::Gelu] {
                    let ya = linear(&xa, &w, Some(&b), act);
                    let yb = linear(&xb, &w, Some(&b), act);
                    let ys = linear(&stacked, &w, Some(&b), act);
                    let what = format!("linear {li} rows ({ra},{rb}) {act:?}");
                    assert_eq!(ys.slice_axis(0, 0, ra).data(), ya.data(), "{what}");
                    assert_eq!(ys.slice_axis(0, ra, rb).data(), yb.data(), "{what}");
                }
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
        // An int8 pack must compute the same function as the plain fused
        // linear on its dequantized tensor, within rounding of the late
        // per-channel scale.
        for &(m, k, n) in &[(2usize, 3usize, 16usize), (9, 40, 48), (72, 64, 64)] {
            let x = randn(&[m, k], 51);
            let w = randn(&[n, k], 52);
            let b = randn(&[n], 53);
            let packed = PackedWeight::pack(&w).unwrap();
            let dq = packed.dequantized();
            for act in [Activation::Identity, Activation::Gelu] {
                let y = matmul_bias_act_cached(&x, &dq, Some(&packed), Some(&b), act);
                let (y_ref, _) = matmul_bias_act(&x, &dq, Some(&b), act);
                y.assert_close(&y_ref, 2e-4 * (k as f32).sqrt());
            }
        }
    }

    #[test]
    fn quantized_row_stacking_is_bitwise_invariant() {
        // Row independence must hold for int8 packs too: each output row
        // depends on its input row alone.
        let (k, n) = (48usize, 64usize);
        let w = randn(&[n, k], 81);
        let b = randn(&[n], 82);
        let packed = PackedWeight::pack(&w).unwrap();
        let dq = packed.dequantized();
        for &(ra, rb) in &[(5usize, 9usize), (7, 70), (64, 128)] {
            let xa = randn(&[ra, k], 83);
            let xb = randn(&[rb, k], 84);
            let stacked = Tensor::concat(&[&xa, &xb], 0);
            let ya = matmul_bias_act_cached(&xa, &dq, Some(&packed), Some(&b), Activation::Gelu);
            let yb = matmul_bias_act_cached(&xb, &dq, Some(&packed), Some(&b), Activation::Gelu);
            let ys = matmul_bias_act_cached(&stacked, &dq, Some(&packed), Some(&b), Activation::Gelu);
            assert_eq!(ys.slice_axis(0, 0, ra).data(), ya.data(), "rows ({ra},{rb})");
            assert_eq!(ys.slice_axis(0, ra, rb).data(), yb.data(), "rows ({ra},{rb})");
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
    fn welford_matches_two_pass() {
        for n in [1usize, 7, 8, 16, 100, 257] {
            let t = randn(&[n], 11);
            let row = t.data();
            let mean_ref: f32 = row.iter().sum::<f32>() / n as f32;
            let var_ref: f32 = row.iter().map(|&x| (x - mean_ref) * (x - mean_ref)).sum::<f32>() / n as f32;
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
        // The identity rides the same walker.
        let (g, pre) = (randn(&[4, 5], 65), randn(&[4, 5], 66));
        assert_eq!(act_backward(&g, &pre, Activation::Identity).data(), g.data());
    }

    #[test]
    fn activation_grads_match_finite_difference() {
        for act in [Activation::Identity, Activation::Gelu] {
            for &x in &[-1.5f32, -0.3, 0.2, 1.7] {
                let h = 1e-3;
                let apply = |x: f32| {
                    let mut v = [x];
                    act.apply_in_place(&mut v);
                    v[0]
                };
                let fd = (apply(x + h) - apply(x - h)) / (2.0 * h);
                assert!((act.grad(x) - fd).abs() < 1e-2, "{act:?} at {x}");
            }
        }
    }
}

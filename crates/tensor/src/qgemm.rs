//! Reduced-precision resident-weight GEMM: bf16 and per-channel int8 packs.
//!
//! The f32 packed GEMM ([`crate::matmul`]) re-reads a full-width weight pack
//! on every forward. For inference sessions the weights never change, so
//! this module keeps them resident in *narrow* storage — [`PackedWeightBf16`]
//! as `u16` BF16 words (half the bytes), [`PackedWeightI8`] as symmetric
//! per-output-channel `i8` codes with one `f32` scale per column (a quarter
//! of the bytes) — and widens them to f32 on the fly. Activations (the A
//! stream and the C store) and accumulation are always f32; the kernel is
//! generic over the weight code only.
//!
//! ## Kernel shape
//!
//! Unlike the 6×16 f32 microkernel (sized for AVX2 `ymm`), the quantized
//! kernel blocks 6 rows × `W`×16 columns with `W ∈ {1, 2, 4}` — up to 24
//! [`F32x16`] accumulators held in AVX-512 `zmm` registers. Each weight
//! strip (`nr = 16·W` columns, k-major) is widened **once** into a pooled
//! f32 scratch and then re-read by every row panel, so the widen cost is
//! amortized `m / 6` times while the resident pack itself streams at its
//! narrow width. The activation matrix is read in place (row-major, no
//! `pack_a` pass), and the store is an overwrite (no C pre-zeroing or
//! read-add) with the scale/bias/activation epilogue applied at store time.
//!
//! ## Determinism and the scalar oracle
//!
//! Per output element the accumulation is a single k-ordered FMA chain in
//! both the vector kernel and the scalar oracle ([`gemm_bf16_ref`],
//! [`gemm_i8_ref`]) — the same multiplies in the same order through
//! [`simd::fma`] — so the two paths are **bit-identical**, not merely close.
//! Under `ORBIT2_DISABLE_SIMD=1` the public entry points dispatch to the
//! oracle, which therefore serves as both the escape hatch and the property
//! -test reference.

use crate::bf16::{bf16_to_f32, f32_to_bf16};
use crate::fused::Activation;
use crate::pool;
use crate::simd::{self, F32x16, LANES, LANES16};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows per register block (matches the f32 microkernel's MR).
const QMR: usize = 6;

/// A weight element storable in a narrow pack and widenable to f32.
pub trait QWeight: Copy + Send + Sync + Default {
    /// Exact widening of the stored code to f32.
    fn widen(self) -> f32;
}

impl QWeight for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        bf16_to_f32(self)
    }
}

impl QWeight for i8 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self as f32
    }
}

/// Pick the strip width (in columns) for `n` output features.
///
/// Wider strips mean more independent accumulator chains (better FMA-latency
/// hiding) but pad ragged edges with dead lanes. The weights below are the
/// measured relative throughputs of the W=1/2/4 kernels on the reference
/// box; the choice maximizes `throughput × useful-lane fraction`.
fn choose_nr(n: usize) -> usize {
    let mut best = (0.0f64, LANES16);
    for (w, thr) in [(1usize, 65.0f64), (2, 103.0), (4, 113.0)] {
        let nr = w * LANES16;
        let padded = n.div_ceil(nr) * nr;
        let eff = thr * n as f64 / padded as f64;
        if eff > best.0 {
            best = (eff, nr);
        }
    }
    best.1
}

/// Lay `w` (a `[n, k]` weight, PyTorch `[out, in]` convention) into k-major
/// strips of `nr` columns of `W^T`, quantizing each element through `f(row,
/// value)`. Ragged columns are zero-padded.
fn pack_strips<Q: QWeight>(
    wd: &[f32],
    n: usize,
    k: usize,
    nr: usize,
    mut f: impl FnMut(usize, f32) -> Q,
) -> Vec<Q> {
    let nstrips = n.div_ceil(nr);
    let mut pack = vec![Q::default(); nstrips * k * nr];
    for s in 0..nstrips {
        let j0 = s * nr;
        let cols = nr.min(n - j0);
        let dst = &mut pack[s * k * nr..(s + 1) * k * nr];
        for p in 0..k {
            for c in 0..cols {
                // W^T[p][j0 + c] == w[j0 + c][p].
                dst[p * nr + c] = f(j0 + c, wd[(j0 + c) * k + p]);
            }
        }
    }
    pack
}

/// Shape gate shared by both quantized packs: 2-d with at least one full
/// f32-kernel lane of output features. Unlike the f32 pack this does **not**
/// consult [`simd::enabled`] — the quantized *values* must not depend on the
/// SIMD mode (the scalar oracle consumes the same pack), only the kernel
/// choice does.
fn quant_packable(w: &Tensor) -> Option<(usize, usize)> {
    if w.ndim() != 2 {
        return None;
    }
    let (n, k) = (w.shape()[0], w.shape()[1]);
    (n >= LANES && k > 0).then_some((n, k))
}

/// A `[n, k]` linear weight resident as `u16` BF16 strip words.
#[derive(Debug, Clone)]
pub struct PackedWeightBf16 {
    pack: Vec<u16>,
    n: usize,
    k: usize,
    nr: usize,
}

impl PackedWeightBf16 {
    /// Pack a `[n, k]` weight, rounding every element to BF16
    /// (round-to-nearest-even). Returns `None` for shapes the packed
    /// kernels never run on.
    pub fn pack(w: &Tensor) -> Option<Self> {
        let (n, k) = quant_packable(w)?;
        let nr = choose_nr(n);
        let pack = pack_strips(w.data(), n, k, nr, |_, v| f32_to_bf16(v));
        Some(PackedWeightBf16 { pack, n, k, nr })
    }

    /// Output features.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input features.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pack size in stored words.
    pub fn len(&self) -> usize {
        self.pack.len()
    }

    /// True when the pack holds no elements.
    pub fn is_empty(&self) -> bool {
        self.pack.is_empty()
    }

    /// The widened `[n, k]` weight the pack represents — bit-identical to
    /// `w.to_bf16()` of the original. Fallback (unpacked) matmuls in a bf16
    /// session run on this tensor so every path sees the same values.
    pub fn dequantized(&self) -> Tensor {
        let mut out = pool::alloc_uninit(self.n * self.k);
        for j in 0..self.n {
            let (s, c) = (j / self.nr, j % self.nr);
            let strip = &self.pack[s * self.k * self.nr..];
            for p in 0..self.k {
                out[j * self.k + p] = strip[p * self.nr + c].widen();
            }
        }
        Tensor::from_vec(vec![self.n, self.k], out)
    }
}

/// A `[n, k]` linear weight resident as symmetric per-output-channel `i8`
/// codes plus one f32 scale per channel.
#[derive(Debug, Clone)]
pub struct PackedWeightI8 {
    pack: Vec<i8>,
    scales: Vec<f32>,
    n: usize,
    k: usize,
    nr: usize,
}

impl PackedWeightI8 {
    /// Quantize and pack a `[n, k]` weight. Each output channel (row of
    /// `w`) gets `scale = max|w|/127` and codes `round(w/scale)`, so the
    /// per-element reconstruction error is at most `scale/2`. Returns
    /// `None` for shapes the packed kernels never run on.
    pub fn pack(w: &Tensor) -> Option<Self> {
        let (n, k) = quant_packable(w)?;
        let wd = w.data();
        let scales: Vec<f32> = (0..n)
            .map(|j| {
                let maxabs =
                    wd[j * k..(j + 1) * k].iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                maxabs / 127.0
            })
            .collect();
        let nr = choose_nr(n);
        let pack = pack_strips(wd, n, k, nr, |j, v| {
            let s = scales[j];
            if s == 0.0 {
                0
            } else {
                (v / s).round().clamp(-127.0, 127.0) as i8
            }
        });
        Some(PackedWeightI8 { pack, scales, n, k, nr })
    }

    /// Output features.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Input features.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pack size in stored codes (scales excluded).
    pub fn len(&self) -> usize {
        self.pack.len()
    }

    /// True when the pack holds no elements.
    pub fn is_empty(&self) -> bool {
        self.pack.is_empty()
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The reconstructed `[n, k]` weight (`code × scale`). Fallback
    /// (unpacked) matmuls in an int8 session run on this tensor so every
    /// path sees the same values.
    pub fn dequantized(&self) -> Tensor {
        let mut out = pool::alloc_uninit(self.n * self.k);
        for j in 0..self.n {
            let (s, c) = (j / self.nr, j % self.nr);
            let strip = &self.pack[s * self.k * self.nr..];
            for p in 0..self.k {
                out[j * self.k + p] = strip[p * self.nr + c].widen() * self.scales[j];
            }
        }
        Tensor::from_vec(vec![self.n, self.k], out)
    }
}

/// Store-time epilogue: per-channel scale, bias, activation — shared by the
/// vector store and the scalar oracle so both round identically.
#[inline(always)]
fn finish(mut v: f32, scale: Option<f32>, bias: Option<f32>, act: Activation) -> f32 {
    if let Some(s) = scale {
        v *= s;
    }
    if let Some(b) = bias {
        v += b;
    }
    act.apply(v)
}

/// The register-blocked inner kernel: 6 activation rows against one widened
/// `16·W`-column strip, k-ordered FMA chains in `6×W` accumulators.
///
/// The six row streams advance through a nested `zip` rather than `row[p]`
/// indexing: per-step bounds checks add panic edges on which LLVM keeps the
/// accumulator array memory-resident (a full spill/reload of every `zmm`
/// accumulator per k step, measured ~2× slower). The zip body has no side
/// exits, so the accumulators live in registers for the whole k loop.
#[inline(always)]
fn micro<const W: usize>(
    rows: &[&[f32]; QMR],
    bw: &[f32],
    kc: usize,
    acc: &mut [[F32x16; W]; QMR],
) {
    let nr = W * LANES16;
    let bw = &bw[..kc * nr];
    let [r0, r1, r2, r3, r4, r5] = *rows;
    let it = bw.chunks_exact(nr).zip(r0).zip(r1).zip(r2).zip(r3).zip(r4).zip(r5);
    for ((((((bchunk, &a0), &a1), &a2), &a3), &a4), &a5) in it {
        let mut bv = [F32x16::ZERO; W];
        for (w, b) in bv.iter_mut().enumerate() {
            *b = F32x16::load(&bchunk[w * LANES16..]);
        }
        let avs = [a0, a1, a2, a3, a4, a5];
        for (accr, &av) in acc.iter_mut().zip(&avs) {
            let a = F32x16::splat(av);
            for (acw, &b) in accr.iter_mut().zip(&bv) {
                *acw = a.mul_add(b, *acw);
            }
        }
    }
}

/// Vectorized quantized GEMM: `c = act(scale ⊙ (a · widen(pack)^T) + bias)`.
///
/// `a` is `[m, k]` row-major (read in place), `pack` holds `n` output
/// columns in `nr`-wide k-major strips, `c` is `[m, n]` overwritten.
/// Parallel over row chunks; each worker widens each strip once into a
/// pooled f32 scratch.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: dims + strips + epilogue
fn gemm_quant<Q: QWeight, const W: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    pack: &[Q],
    n: usize,
    scales: Option<&[f32]>,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    let nr = W * LANES16;
    let nstrips = n.div_ceil(nr);
    debug_assert_eq!(pack.len(), nstrips * k * nr);
    if m == 0 {
        return;
    }
    // Row chunks sized so each worker runs the whole strip loop once:
    // fewer chunks means fewer redundant strip widenings.
    let chunk_rows = m.div_ceil(rayon::current_num_threads()).div_ceil(QMR) * QMR;
    c.par_chunks_mut(chunk_rows * n).enumerate().for_each(|(ci, cchunk)| {
        let r0 = ci * chunk_rows;
        let rows = cchunk.len() / n;
        let achunk = &a[r0 * k..(r0 + rows) * k];
        let mut scratch = pool::alloc_uninit(k * nr);
        for s in 0..nstrips {
            let j0 = s * nr;
            let cols = nr.min(n - j0);
            let strip = &pack[s * k * nr..(s + 1) * k * nr];
            for (d, &q) in scratch.iter_mut().zip(strip) {
                *d = q.widen();
            }
            for p in 0..rows.div_ceil(QMR) {
                let rb = p * QMR;
                let mr = QMR.min(rows - rb);
                // Ragged panels replicate the last row into the dead lanes;
                // their results are computed and discarded.
                let rowrefs: [&[f32]; QMR] = std::array::from_fn(|i| {
                    let r = rb + i.min(mr - 1);
                    &achunk[r * k..r * k + k]
                });
                let mut acc = [[F32x16::ZERO; W]; QMR];
                micro::<W>(&rowrefs, &scratch, k, &mut acc);
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let crow = &mut cchunk[(rb + r) * n + j0..(rb + r) * n + j0 + cols];
                    for (w, acw) in accr.iter().enumerate() {
                        let l0 = w * LANES16;
                        if l0 >= cols {
                            break;
                        }
                        let lanes = LANES16.min(cols - l0);
                        if lanes == LANES16 {
                            // Full lane group: vector scale then bias (mul
                            // then add, the same operation order as the
                            // scalar `finish`, so both round identically)
                            // and a straight vector store for the identity
                            // activation.
                            let mut v = *acw;
                            if let Some(sc) = scales {
                                v = v.mul(F32x16::load(&sc[j0 + l0..]));
                            }
                            if let Some(b) = bias {
                                v = v.add(F32x16::load(&b[j0 + l0..]));
                            }
                            let dst = &mut crow[l0..l0 + LANES16];
                            if act == Activation::Identity {
                                v.store(dst);
                            } else {
                                for (cv, &x) in dst.iter_mut().zip(&v.to_array()) {
                                    *cv = act.apply(x);
                                }
                            }
                        } else {
                            let vals = acw.to_array();
                            for (l, cv) in crow[l0..l0 + lanes].iter_mut().enumerate() {
                                let j = j0 + l0 + l;
                                *cv = finish(
                                    vals[l],
                                    scales.map(|sc| sc[j]),
                                    bias.map(|b| b[j]),
                                    act,
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Scalar oracle for the quantized GEMM — bit-identical to [`gemm_quant`]
/// by construction (same k-ordered [`simd::fma`] chain per element, same
/// [`finish`] epilogue). Runs for every call under `ORBIT2_DISABLE_SIMD=1`.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: dims + strips + epilogue
fn gemm_quant_ref<Q: QWeight>(
    a: &[f32],
    m: usize,
    k: usize,
    pack: &[Q],
    n: usize,
    nr: usize,
    scales: Option<&[f32]>,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n);
    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let strip = &pack[(j / nr) * k * nr..];
            let off = j % nr;
            let mut acc = 0.0f32;
            for (p, &av) in arow.iter().enumerate() {
                acc = simd::fma(av, strip[p * nr + off].widen(), acc);
            }
            *cv = finish(acc, scales.map(|sc| sc[j]), bias.map(|b| b[j]), act);
        }
    });
}

#[allow(clippy::too_many_arguments)] // GEMM plumbing: dims + strips + epilogue
fn dispatch<Q: QWeight>(
    a: &[f32],
    m: usize,
    k: usize,
    pack: &[Q],
    n: usize,
    nr: usize,
    scales: Option<&[f32]>,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "activation buffer shape");
    assert_eq!(c.len(), m * n, "output buffer shape");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length");
    }
    if !simd::enabled() {
        return gemm_quant_ref(a, m, k, pack, n, nr, scales, bias, act, c);
    }
    match nr / LANES16 {
        1 => gemm_quant::<Q, 1>(a, m, k, pack, n, scales, bias, act, c),
        2 => gemm_quant::<Q, 2>(a, m, k, pack, n, scales, bias, act, c),
        4 => gemm_quant::<Q, 4>(a, m, k, pack, n, scales, bias, act, c),
        w => unreachable!("unsupported strip width {}", w * LANES16),
    }
}

/// Fused linear on a resident bf16 pack: `c = act(a · widen(pack)^T + bias)`.
pub fn gemm_bf16_fused(
    a: &[f32],
    m: usize,
    k: usize,
    pw: &PackedWeightBf16,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    assert_eq!(k, pw.k, "bf16 pack k mismatch");
    dispatch(a, m, k, &pw.pack, pw.n, pw.nr, None, bias, act, c);
}

/// Fused linear on a resident int8 pack:
/// `c = act(scale ⊙ (a · codes^T) + bias)`.
pub fn gemm_i8_fused(
    a: &[f32],
    m: usize,
    k: usize,
    pw: &PackedWeightI8,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    assert_eq!(k, pw.k, "i8 pack k mismatch");
    dispatch(a, m, k, &pw.pack, pw.n, pw.nr, Some(&pw.scales), bias, act, c);
}

/// Scalar-oracle entry for the bf16 pack (testing / reference).
pub fn gemm_bf16_ref(
    a: &[f32],
    m: usize,
    k: usize,
    pw: &PackedWeightBf16,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    assert_eq!(k, pw.k, "bf16 pack k mismatch");
    gemm_quant_ref(a, m, k, &pw.pack, pw.n, pw.nr, None, bias, act, c);
}

/// Scalar-oracle entry for the int8 pack (testing / reference).
pub fn gemm_i8_ref(
    a: &[f32],
    m: usize,
    k: usize,
    pw: &PackedWeightI8,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    assert_eq!(k, pw.k, "i8 pack k mismatch");
    gemm_quant_ref(a, m, k, &pw.pack, pw.n, pw.nr, Some(&pw.scales), bias, act, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    #[test]
    fn bf16_dequantized_matches_to_bf16_bitwise() {
        for &(n, k) in &[(16usize, 8usize), (48, 33), (64, 64)] {
            let w = randn(&[n, k], 5);
            let pw = PackedWeightBf16::pack(&w).unwrap();
            let dq = pw.dequantized();
            let expect = w.to_bf16();
            assert_eq!(dq.shape(), expect.shape());
            for (a, b) in dq.data().iter().zip(expect.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn i8_quantization_error_bounded_by_half_scale() {
        let w = randn(&[24, 57], 6);
        let pw = PackedWeightI8::pack(&w).unwrap();
        let dq = pw.dequantized();
        for j in 0..24 {
            let s = pw.scales()[j];
            for p in 0..57 {
                let err = (w.data()[j * 57 + p] - dq.data()[j * 57 + p]).abs();
                assert!(err <= s * 0.5 + f32::EPSILON, "err {err} vs scale {s}");
            }
        }
    }

    #[test]
    fn zero_channel_quantizes_exactly() {
        let mut w = randn(&[16, 9], 7).data().to_vec();
        for v in w[..9].iter_mut() {
            *v = 0.0;
        }
        let w = Tensor::from_vec(vec![16, 9], w);
        let pw = PackedWeightI8::pack(&w).unwrap();
        assert_eq!(pw.scales()[0], 0.0);
        assert!(pw.dequantized().data()[..9].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_kernels_match_oracle_bitwise() {
        // The strongest form of the documented ulp bound: zero ulps. Shapes
        // cover every strip width and ragged row/column edges.
        for &(m, k, n) in &[
            (1usize, 16usize, 16usize),
            (6, 32, 32),
            (7, 40, 48),
            (13, 64, 64),
            (72, 30, 100),
            (5, 8, 8),
        ] {
            let a = randn(&[m, k], 11);
            let w = randn(&[n, k], 12);
            let bias = randn(&[n], 13);
            let bf = PackedWeightBf16::pack(&w).unwrap();
            let i8p = PackedWeightI8::pack(&w).unwrap();
            for act in [Activation::Identity, Activation::Relu, Activation::Gelu] {
                let mut c_vec = vec![0.0f32; m * n];
                let mut c_ref = vec![f32::NAN; m * n];
                gemm_bf16_fused(a.data(), m, k, &bf, Some(bias.data()), act, &mut c_vec);
                gemm_bf16_ref(a.data(), m, k, &bf, Some(bias.data()), act, &mut c_ref);
                for (x, y) in c_vec.iter().zip(&c_ref) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bf16 m={m} k={k} n={n} {act:?}");
                }
                let mut c_vec = vec![0.0f32; m * n];
                let mut c_ref = vec![f32::NAN; m * n];
                gemm_i8_fused(a.data(), m, k, &i8p, Some(bias.data()), act, &mut c_vec);
                gemm_i8_ref(a.data(), m, k, &i8p, Some(bias.data()), act, &mut c_ref);
                for (x, y) in c_vec.iter().zip(&c_ref) {
                    assert_eq!(x.to_bits(), y.to_bits(), "i8 m={m} k={k} n={n} {act:?}");
                }
            }
        }
    }

    #[test]
    fn bf16_gemm_close_to_f32_reference() {
        let (m, k, n) = (9usize, 65usize, 33usize);
        let a = randn(&[m, k], 21);
        let w = randn(&[n, k], 22);
        let pw = PackedWeightBf16::pack(&w).unwrap();
        let mut c = vec![0.0f32; m * n];
        gemm_bf16_fused(a.data(), m, k, &pw, None, Activation::Identity, &mut c);
        let expect = a.matmul(&w.transpose2());
        for (got, want) in c.iter().zip(expect.data()) {
            // Weight rounding error ~2^-8 relative per product, amplified by
            // the k-term accumulation.
            let tol = crate::bf16::BF16_EPS * (k as f32).sqrt() * 4.0;
            assert!((got - want).abs() <= tol.max(1e-3), "{got} vs {want}");
        }
    }

    #[test]
    fn pack_gates_on_shape_only() {
        assert!(PackedWeightBf16::pack(&randn(&[4, 16], 31)).is_none());
        assert!(PackedWeightI8::pack(&randn(&[16], 32)).is_none());
        // Unlike the f32 pack, SIMD mode does not change packability.
        assert!(PackedWeightBf16::pack(&randn(&[16, 4], 33)).is_some());
        assert!(PackedWeightI8::pack(&randn(&[16, 4], 34)).is_some());
    }

    #[test]
    fn strip_width_choice_prefers_useful_lanes() {
        assert_eq!(choose_nr(16), 16);
        assert_eq!(choose_nr(32), 32);
        assert_eq!(choose_nr(64), 64);
        assert_eq!(choose_nr(512), 64);
        // 48 columns: a 64-wide strip at 75% utilization still beats the
        // full-utilization 16-wide kernel.
        assert_eq!(choose_nr(48), 64);
    }
}

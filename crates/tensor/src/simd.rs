//! Explicit-width SIMD abstraction for the kernel layer.
//!
//! `F32x8` is a portable lane-array vector: a plain `[f32; 8]` with
//! alignment, whose per-lane arithmetic the compiler lowers to the widest
//! vector ISA the target supports (one AVX2 `ymm` op, or a pair of SSE
//! `xmm` ops on the baseline). No nightly features, no intrinsics, no
//! `unsafe` — the whole crate is `#![forbid(unsafe_code)]` and the explicit
//! fixed-width formulation is what lets LLVM vectorize loops the scalar
//! auto-vectorizer gives up on (data-dependent branches, reductions,
//! register-blocked accumulators).
//!
//! Every kernel built on this module has one production path. The lane
//! arrays are portable, so no platform needs a scalar fallback; the only
//! selections are the `fma` target feature and input-size cut-offs. The
//! scalar twins that remain, `qgemm::gemm_strips_ref` and
//! `conv::conv2d_ref`, are test oracles that the vector kernels must match
//! bit for bit.

/// Lane count of [`F32x8`].
pub(crate) const LANES: usize = 8;

/// Eight `f32` lanes with elementwise arithmetic.
///
/// The 32-byte alignment matches an AVX2 register so spills and reloads in
/// register-blocked kernels stay on aligned slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub(crate) struct F32x8([f32; LANES]);

// Named `add`/`sub`/`mul` methods (rather than operator impls) keep kernel
// code grep-able and match the `std::simd` naming the module emulates.
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// All lanes zero.
    pub(crate) const ZERO: F32x8 = F32x8([0.0; LANES]);

    /// Broadcast one value into every lane.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Load the first eight elements of `src`.
    ///
    /// # Panics
    /// Panics when `src` has fewer than eight elements.
    #[inline(always)]
    pub(crate) fn load(src: &[f32]) -> Self {
        let chunk: &[f32; LANES] = src[..LANES].try_into().expect("F32x8::load needs 8 elements");
        F32x8(*chunk)
    }

    /// Store the lanes into the first eight elements of `dst`.
    #[inline(always)]
    pub(crate) fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub(crate) fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// Lanewise addition.
    #[inline(always)]
    pub(crate) fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x += y;
        }
        F32x8(r)
    }

    /// Lanewise subtraction.
    #[inline(always)]
    pub(crate) fn sub(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x -= y;
        }
        F32x8(r)
    }

    /// Lanewise multiplication.
    #[inline(always)]
    pub(crate) fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x *= y;
        }
        F32x8(r)
    }

    /// Lanewise maximum.
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x = x.max(*y);
        }
        F32x8(r)
    }

    /// Lanewise fused multiply-add: `self * m + a`.
    ///
    /// Uses a true FMA only when the target has the `fma` feature (a single
    /// rounding, one instruction); otherwise a separate multiply and add so
    /// the baseline build never falls into the slow `fmaf` libm call.
    #[inline(always)]
    pub(crate) fn mul_add(self, m: Self, a: Self) -> Self {
        if cfg!(target_feature = "fma") {
            let mut r = self.0;
            for ((x, y), z) in r.iter_mut().zip(&m.0).zip(&a.0) {
                *x = x.mul_add(*y, *z);
            }
            F32x8(r)
        } else {
            self.mul(m).add(a)
        }
    }

    /// Horizontal sum of all lanes (pairwise, one tree reduction).
    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        let s = self.0;
        let q = [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]];
        (q[0] + q[2]) + (q[1] + q[3])
    }

    /// [`F32x8::reduce_sum`] of each of eight vectors, lane `r` for `v[r]`,
    /// bit for bit: the same three levels of pairwise adds (`s[i] + s[i+4]`,
    /// then `q[0] + q[2]` and `q[1] + q[3]`, then their sum), each level a
    /// lanewise add of two shuffles of the previous one, so eight sums cost
    /// seven vector adds.
    #[inline(always)]
    pub(crate) fn reduce_sum_each(v: &[F32x8; LANES]) -> F32x8 {
        // `[q of a, q of b]`: `s[i] + s[i + 4]` of two vectors side by side.
        let q = |a: Self, b: Self| {
            let (a, b) = (a.0, b.0);
            F32x8([a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]])
                .add(F32x8([a[4], a[5], a[6], a[7], b[4], b[5], b[6], b[7]]))
        };
        // `[q0 + q2, q1 + q3]` of the four vectors two `q` results hold.
        let r = |a: Self, b: Self| {
            let (a, b) = (a.0, b.0);
            F32x8([a[0], a[1], a[4], a[5], b[0], b[1], b[4], b[5]])
                .add(F32x8([a[2], a[3], a[6], a[7], b[2], b[3], b[6], b[7]]))
        };
        let lo = r(q(v[0], v[1]), q(v[2], v[3])).0;
        let hi = r(q(v[4], v[5]), q(v[6], v[7])).0;
        F32x8([lo[0], lo[2], lo[4], lo[6], hi[0], hi[2], hi[4], hi[6]])
            .add(F32x8([lo[1], lo[3], lo[5], lo[7], hi[1], hi[3], hi[5], hi[7]]))
    }

    /// Horizontal maximum of all lanes.
    #[inline(always)]
    fn reduce_max(self) -> f32 {
        let s = self.0;
        let q = [s[0].max(s[4]), s[1].max(s[5]), s[2].max(s[6]), s[3].max(s[7])];
        q[0].max(q[2]).max(q[1].max(q[3]))
    }
}

/// Lane count of [`F32x16`].
pub(crate) const LANES16: usize = 16;

/// Sixteen `f32` lanes with elementwise arithmetic — one AVX-512 `zmm`
/// register on targets that have it, a pair of `ymm` ops elsewhere.
///
/// Used by the GEMM microkernel ([`crate::qgemm`]), whose register
/// blocking is sized around 512-bit accumulators. Note that LLVM's
/// `target-cpu=native` tuning on some server parts *prefers* splitting
/// 512-bit ops into 256-bit pairs; `.cargo/config.toml` disables that
/// preference so this type actually lowers to `zmm` arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(64))]
pub(crate) struct F32x16([f32; LANES16]);

#[allow(clippy::should_implement_trait)]
impl F32x16 {
    /// All lanes zero.
    pub(crate) const ZERO: F32x16 = F32x16([0.0; LANES16]);

    /// Broadcast one value into every lane.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        F32x16([v; LANES16])
    }

    /// Load the first sixteen elements of `src`.
    ///
    /// # Panics
    /// Panics when `src` has fewer than sixteen elements.
    #[inline(always)]
    pub(crate) fn load(src: &[f32]) -> Self {
        let chunk: &[f32; LANES16] =
            src[..LANES16].try_into().expect("F32x16::load needs 16 elements");
        F32x16(*chunk)
    }

    /// Store the lanes into the first sixteen elements of `dst`.
    #[inline(always)]
    pub(crate) fn store(self, dst: &mut [f32]) {
        dst[..LANES16].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub(crate) fn to_array(self) -> [f32; LANES16] {
        self.0
    }

    /// Lanewise addition.
    #[inline(always)]
    pub(crate) fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x += y;
        }
        F32x16(r)
    }

    /// Lanewise multiplication.
    #[inline(always)]
    pub(crate) fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x *= y;
        }
        F32x16(r)
    }

    /// Lanewise fused multiply-add: `self * m + a` (same FMA gating rules as
    /// [`F32x8::mul_add`]).
    #[inline(always)]
    pub(crate) fn mul_add(self, m: Self, a: Self) -> Self {
        if cfg!(target_feature = "fma") {
            let mut r = self.0;
            for ((x, y), z) in r.iter_mut().zip(&m.0).zip(&a.0) {
                *x = x.mul_add(*y, *z);
            }
            F32x16(r)
        } else {
            self.mul(m).add(a)
        }
    }
}

/// `a * b + acc` with the same rounding behavior the vector kernels get:
/// a true fused multiply-add when the target has one, separate multiply and
/// add otherwise. Scalar oracles accumulate through this so their per-element
/// chains are bit-identical to the lane arithmetic of [`F32x8`]/[`F32x16`].
#[inline(always)]
pub(crate) fn fma(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        a * b + acc
    }
}

/// `e^x`: the one exponential of the workspace, and its own scalar oracle.
///
/// Branch-free per-lane arithmetic, so a loop over it (a plain slice loop or
/// the sixteen-lane blocks of [`exp_sub_sum`]) lowers to `zmm`/`ymm` code
/// with no intrinsics, and every caller — vector loop, scalar tail —
/// evaluates the same operations in the same order: the vector path is this
/// function applied sixteen wide, bit for bit (DESIGN.md §7).
///
/// * Reduction `x = k·ln2 + r`, `|r| ≤ ln2/2`: `k` is rounded to nearest by
///   adding `1.5·2²³` (the integer lands in the sum's low mantissa bits),
///   `ln2` is split so `k·LN2_HI` is exact, two [`fma`]s.
/// * `e^r ≈ 1 + r + c₂r² + … + c₆r⁶`, Horner through [`fma`] from `c₆`
///   down. The coefficients are the minimax fit of the relative error on
///   `[−ln2/2, ln2/2]` with `c₀ = 1` pinned (so `e^0 = 1` exactly), rounded
///   to f32; `c₁` rounds to 1. Approximation error 2.0e-9, far below the
///   rounding of the evaluation.
/// * `2ᵏ` is `k` added into the exponent field of the polynomial's bits.
///
/// Over every finite `x` with a normal result the value is within 1 ulp of
/// the correctly rounded one (99.3% are correctly rounded) and within
/// 8.92e-8 relative of `f64::exp`; without a hardware FMA, 1 ulp and 1.13e-7.
/// Edges are specified, not inherited from a clamp: NaN → NaN,
/// `x ≥ 88.72284` (incl. `+∞`) → `+∞`, `x < −87.33654` (incl. `−∞`) → `+0`
/// — results below `f32::MIN_POSITIVE` flush to zero, there are no
/// subnormal outputs — so a poisoned score or an overflowing activation
/// stays non-finite for the trainer's check to find.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23
    const LN2_HI: f32 = 0.693_145_75; // 0x3f317200: 15 significant bits
    const LN2_LO: f32 = 1.428_606_8e-6; // ln2 - LN2_HI
    /// `c₆ … c₀`.
    const C: [f32; 7] = [0.001_384_361_9, 0.008_374_197, 0.041_668_005, 0.166_664_3, 0.499_999_94, 1.0, 1.0];
    /// The least `x` whose `e^x` exceeds `f32::MAX`.
    const OVERFLOW: f32 = 88.722_84;
    /// `ln(f32::MIN_POSITIVE)`, rounded up.
    const UNDERFLOW: f32 = -87.336_54;

    let t = fma(x, std::f32::consts::LOG2_E, ROUND);
    let k = t - ROUND;
    let r = fma(k, -LN2_LO, fma(k, -LN2_HI, x));
    let mut p = C[0];
    for &c in &C[1..] {
        p = fma(p, r, c);
    }
    // `t`'s bits are `0x4B400000 + k`; shifted, only `k << 23` survives.
    let y = f32::from_bits(p.to_bits().wrapping_add(t.to_bits() << 23));
    let y = if x < UNDERFLOW { 0.0 } else { y };
    let y = if x >= OVERFLOW { f32::INFINITY } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// The middle pass of a row softmax: `dst[i] = exp(s[i] − mx)` where `s` is
/// `src`, or `dst` itself when `src` is `None`; returns `Σ dst[i]`.
///
/// The sum's order is pinned: sixteen lane-striped partials over the whole
/// blocks, folded by halving (lane `l` += lane `l + w`, `w` = 8, 4, 2, 1),
/// then the tail added in element order. A row's sum — and so its
/// probabilities — depends on the row alone, never on the worker that ran
/// it or the rows stacked around it.
pub(crate) fn exp_sub_sum(dst: &mut [f32], src: Option<&[f32]>, mx: f32) -> f32 {
    let body = dst.len() - dst.len() % LANES16;
    let mut acc = [0.0f32; LANES16];
    let mut v = [0.0f32; LANES16];
    for i in (0..body).step_by(LANES16) {
        v.copy_from_slice(&src.unwrap_or(dst)[i..i + LANES16]);
        for (x, a) in v.iter_mut().zip(&mut acc) {
            *x = exp(*x - mx);
            *a += *x;
        }
        dst[i..i + LANES16].copy_from_slice(&v);
    }
    let mut w = LANES16;
    while w > 1 {
        w /= 2;
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    let mut sum = acc[0];
    for i in body..dst.len() {
        dst[i] = exp(src.map_or(dst[i], |s| s[i]) - mx);
        sum += dst[i];
    }
    sum
}

/// Dot product of two equal-length slices.
///
/// Four independent 8-lane accumulators hide FMA latency; the tail is
/// scalar.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [F32x8::ZERO; 4];
    let mut ac = a.chunks_exact(4 * LANES);
    let mut bc = b.chunks_exact(4 * LANES);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        for (i, accu) in acc.iter_mut().enumerate() {
            let va = F32x8::load(&ca[i * LANES..]);
            let vb = F32x8::load(&cb[i * LANES..]);
            *accu = va.mul_add(vb, *accu);
        }
    }
    let (ra, rb) = (ac.remainder(), bc.remainder());
    let mut rem_a = ra.chunks_exact(LANES);
    let mut rem_b = rb.chunks_exact(LANES);
    for (ca, cb) in rem_a.by_ref().zip(rem_b.by_ref()) {
        acc[0] = F32x8::load(ca).mul_add(F32x8::load(cb), acc[0]);
    }
    let mut s = acc[0].add(acc[1]).add(acc[2].add(acc[3])).reduce_sum();
    for (x, y) in rem_a.remainder().iter().zip(rem_b.remainder()) {
        s += x * y;
    }
    s
}

/// Sum of a slice (vectorized, two accumulators).
#[inline]
pub fn sum(src: &[f32]) -> f32 {
    let mut acc = [F32x8::ZERO; 2];
    let mut c = src.chunks_exact(2 * LANES);
    for ch in c.by_ref() {
        acc[0] = acc[0].add(F32x8::load(ch));
        acc[1] = acc[1].add(F32x8::load(&ch[LANES..]));
    }
    let mut s = acc[0].add(acc[1]).reduce_sum();
    for &x in c.remainder() {
        s += x;
    }
    s
}

/// `dst *= s` (vectorized in-place scale).
#[inline]
pub(crate) fn scale(dst: &mut [f32], s: f32) {
    let sv = F32x8::splat(s);
    let mut dc = dst.chunks_exact_mut(LANES);
    for d in dc.by_ref() {
        F32x8::load(d).mul(sv).store(d);
    }
    for d in dc.into_remainder() {
        *d *= s;
    }
}

/// Maximum element of a slice (`-inf` when empty).
#[inline]
pub(crate) fn max_value(src: &[f32]) -> f32 {
    let mut acc = F32x8::splat(f32::NEG_INFINITY);
    let mut c = src.chunks_exact(LANES);
    for ch in c.by_ref() {
        acc = acc.max(F32x8::load(ch));
    }
    let mut m = acc.reduce_max();
    for &x in c.remainder() {
        m = m.max(x);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_each_is_bit_identical_to_reduce_sum() {
        // Magnitudes far apart, so a different add order rounds differently.
        let v: [F32x8; LANES] = std::array::from_fn(|r| {
            F32x8(std::array::from_fn(|i| ((r * 8 + i) as f32 * 0.77).sin() * 10f32.powi((i as i32 * 3 + r as i32) % 9 - 4)))
        });
        let each = F32x8::reduce_sum_each(&v).to_array();
        for (r, vr) in v.iter().enumerate() {
            assert_eq!(each[r].to_bits(), vr.reduce_sum().to_bits(), "vector {r}");
        }
    }

    #[test]
    fn f32x16_lanes_roundtrip_and_arithmetic() {
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let a = F32x16::load(&src);
        let mut dst = [0.0f32; 16];
        a.store(&mut dst);
        assert_eq!(&dst[..], &src[..]);
        assert_eq!(a.to_array()[15], 15.0);
        let b = F32x16::splat(2.0);
        assert_eq!(a.add(b).to_array()[0], 2.0);
        assert_eq!(a.mul(b).to_array()[15], 30.0);
        assert_eq!(a.mul_add(b, b).to_array()[3], 8.0);
    }

    #[test]
    fn scalar_fma_matches_lane_mul_add() {
        for &(a, b, c) in &[(1.5f32, 2.25f32, 0.125f32), (-3.7, 0.3, 9.1), (1e-20, 1e-20, 1.0)] {
            let lane = F32x8::splat(a).mul_add(F32x8::splat(b), F32x8::splat(c)).to_array()[0];
            assert_eq!(fma(a, b, c).to_bits(), lane.to_bits());
        }
    }

    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The next f32 above / below `x` (finite, non-zero).
    fn next(x: f32, up: bool) -> f32 {
        let step = if up == (x > 0.0) { 1 } else { -1 };
        f32::from_bits((x.to_bits() as i32 + step) as u32)
    }

    #[test]
    fn exp_error_bounds_and_edge_table() {
        // The stated error of `exp`, as constants: an exhaustive run over
        // all 2.24e9 inputs with a normal result measured exactly these
        // maxima (8.914e-8 with FMA); the sweep below visits every 1009th.
        const MAX_ULP_VS_LIBM: u32 = 1;
        let max_rel_vs_f64 = if cfg!(target_feature = "fma") { 8.92e-8 } else { 1.13e-7 };
        let (overflow, underflow) = (88.722_84f32, -87.336_54f32);

        let mut points: Vec<f32> = Vec::new();
        for sign in [0u32, 1 << 31] {
            // Dense: every 1009th f32 from ±0 through the subnormals up to
            // past both thresholds.
            points.extend((0..=90.0f32.to_bits()).step_by(1009).map(|b| f32::from_bits(b | sign)));
            // Every power of two, subnormal ones included.
            points.extend((-149..=127).map(|e| f32::from_bits((2.0f64.powi(e) as f32).to_bits() | sign)));
        }
        for t in [overflow, underflow] {
            points.extend([next(t, false), t, next(t, true)]);
        }
        points.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::MAX, f32::MIN]);

        let (mut worst_ulp, mut worst_rel, mut in_range) = (0u32, 0.0f64, 0usize);
        for &x in &points {
            let y = exp(x);
            if x >= overflow {
                assert_eq!(y, f32::INFINITY, "exp({x:e})");
                assert_eq!(x.exp(), f32::INFINITY, "libm overflows where we say it does: {x:e}");
            } else if x < underflow {
                assert_eq!(y.to_bits(), 0, "exp({x:e}) must flush to +0");
                assert!(x.exp() < f32::MIN_POSITIVE, "libm is subnormal where we flush: {x:e}");
            } else {
                let exact = (x as f64).exp();
                worst_ulp = worst_ulp.max(ulps(y, x.exp()));
                worst_rel = worst_rel.max(((y as f64 - exact) / exact).abs());
                in_range += 1;
            }
        }
        assert!(in_range > 2_000_000, "sweep too thin: {in_range}");
        assert!(worst_ulp <= MAX_ULP_VS_LIBM, "max error vs libm {worst_ulp} ulp");
        assert!(worst_rel <= max_rel_vs_f64, "max relative error vs f64 {worst_rel:e}");

        // The edge table. The last finite result and the first normal one
        // are on the right side of their thresholds.
        assert!(exp(next(overflow, false)).is_finite());
        assert!(exp(underflow) >= f32::MIN_POSITIVE);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        for zero in [0.0f32, -0.0, 1e-40, -1e-40] {
            assert_eq!(exp(zero), 1.0);
        }
    }

    /// What [`exp_sub_sum`] documents, one scalar call at a time: the lane
    /// function behind `black_box` (so nothing here is vectorized) and the
    /// pinned order of the sum.
    fn exp_sub_sum_oracle(src: &[f32], mx: f32) -> (Vec<f32>, f32) {
        let out: Vec<f32> = src.iter().map(|&x| exp(std::hint::black_box(x) - mx)).collect();
        let body = out.len() - out.len() % LANES16;
        let mut acc = [0.0f32; LANES16];
        for (i, &e) in out[..body].iter().enumerate() {
            acc[i % LANES16] += e;
        }
        for w in [8, 4, 2, 1] {
            for l in 0..w {
                acc[l] += acc[l + w];
            }
        }
        (out.clone(), out[body..].iter().fold(acc[0], |s, &e| s + e))
    }

    #[test]
    fn exp_vector_body_matches_the_lane_function_at_every_length() {
        // Ragged tails on both sides of one, two, three and four blocks;
        // values spread over the whole range, edges included. The vector
        // body *is* the lane function.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 88.722_84, -87.336_54, -0.0, 1e-40];
        for n in 0..=67usize {
            let mut src: Vec<f32> = (0..n).map(|i| ((i * 37 + n * 11) % 181) as f32 * 0.97 - 88.0).collect();
            if n > 0 {
                src[n / 2] = specials[n % specials.len()];
                src[n - 1] = specials[(n + 3) % specials.len()];
            }
            for mx in [0.0f32, 3.5] {
                let (expect, expect_sum) = exp_sub_sum_oracle(&src, mx);
                let mut out = vec![f32::NAN; n];
                let sum = exp_sub_sum(&mut out, Some(&src), mx);
                let mut in_place = src.clone();
                let sum_in_place = exp_sub_sum(&mut in_place, None, mx);
                for (i, &want) in expect.iter().enumerate() {
                    assert_eq!(out[i].to_bits(), want.to_bits(), "n={n} i={i} x={}", src[i]);
                    assert_eq!(in_place[i].to_bits(), want.to_bits(), "in place: n={n} i={i}");
                }
                for got in [sum, sum_in_place] {
                    // (Which NaN a sum of NaNs keeps is the only freedom.)
                    let same = got.to_bits() == expect_sum.to_bits() || (got.is_nan() && expect_sum.is_nan());
                    assert!(same, "sum order, n={n}: {got:e} vs {expect_sum:e}");
                }
            }
        }
    }

    #[test]
    fn splat_load_store_roundtrip() {
        let v = F32x8::splat(3.5);
        assert_eq!(v.to_array(), [3.5; 8]);
        let src: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut dst = [0.0f32; 8];
        F32x8::load(&src).store(&mut dst);
        assert_eq!(&dst[..], &src[..]);
    }

    #[test]
    fn arithmetic_lanes() {
        let a = F32x8::load(&[1., 2., 3., 4., 5., 6., 7., 8.]);
        let b = F32x8::splat(2.0);
        assert_eq!(a.add(b).to_array()[0], 3.0);
        assert_eq!(a.mul(b).to_array()[7], 16.0);
        assert_eq!(a.sub(b).to_array()[1], 0.0);
        assert_eq!(a.mul_add(b, b).to_array()[2], 8.0);
        assert_eq!(a.reduce_sum(), 36.0);
        assert_eq!(a.reduce_max(), 8.0);
    }

    #[test]
    fn dot_matches_scalar_on_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - expect).abs() < 1e-4 * (n.max(1) as f32), "n={n}");
        }
    }

    #[test]
    fn scale_matches_scalar() {
        let mut dst: Vec<f32> = (0..21).map(|i| 1.0 + 0.5 * i as f32).collect();
        scale(&mut dst, 2.0);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, 2.0 + i as f32);
        }
    }

    #[test]
    fn sum_matches_scalar() {
        for n in [0usize, 5, 16, 17, 40] {
            let v: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
            let expect: f32 = v.iter().sum();
            assert!((sum(&v) - expect).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn max_value_handles_tail() {
        let mut v: Vec<f32> = (0..13).map(|i| -(i as f32)).collect();
        v[12] = 99.0;
        assert_eq!(max_value(&v), 99.0);
        assert_eq!(max_value(&[]), f32::NEG_INFINITY);
    }
}

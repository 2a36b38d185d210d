//! Explicit-width SIMD abstraction for the kernel layer.
//!
//! [`F32x8`] is a portable lane-array vector: a plain `[f32; 8]` with
//! alignment, whose per-lane arithmetic the compiler lowers to the widest
//! vector ISA the target supports (one AVX2 `ymm` op, or a pair of SSE
//! `xmm` ops on the baseline). No nightly features, no intrinsics, no
//! `unsafe` — the whole crate is `#![forbid(unsafe_code)]` and the explicit
//! fixed-width formulation is what lets LLVM vectorize loops the scalar
//! auto-vectorizer gives up on (data-dependent branches, reductions,
//! register-blocked accumulators).
//!
//! `ORBIT2_DISABLE_SIMD=1` routes every kernel built on this module back to
//! its scalar reference implementation (mirroring `ORBIT2_DISABLE_POOL`):
//! the escape hatch for debugging numerical drift and the baseline for the
//! fused-vs-unfused bench deltas.

use std::sync::OnceLock;

/// Lane count of [`F32x8`].
pub const LANES: usize = 8;

/// True unless `ORBIT2_DISABLE_SIMD=1` requests the scalar reference
/// kernels. Read once per process.
pub fn enabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    !*DISABLED.get_or_init(|| {
        std::env::var("ORBIT2_DISABLE_SIMD").map(|v| v == "1" || v == "true").unwrap_or(false)
    })
}

/// Eight `f32` lanes with elementwise arithmetic.
///
/// The 32-byte alignment matches an AVX2 register so spills and reloads in
/// register-blocked kernels stay on aligned slots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub struct F32x8([f32; LANES]);

// Named `add`/`sub`/`mul` methods (rather than operator impls) keep kernel
// code grep-able and match the `std::simd` naming the module emulates.
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// All lanes zero.
    pub const ZERO: F32x8 = F32x8([0.0; LANES]);

    /// Broadcast one value into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Load the first eight elements of `src`.
    ///
    /// # Panics
    /// Panics when `src` has fewer than eight elements.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let chunk: &[f32; LANES] = src[..LANES].try_into().expect("F32x8::load needs 8 elements");
        F32x8(*chunk)
    }

    /// Store the lanes into the first eight elements of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// Lanewise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x += y;
        }
        F32x8(r)
    }

    /// Lanewise subtraction.
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x -= y;
        }
        F32x8(r)
    }

    /// Lanewise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x *= y;
        }
        F32x8(r)
    }

    /// Lanewise maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
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
    pub fn mul_add(self, m: Self, a: Self) -> Self {
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
    pub fn reduce_sum(self) -> f32 {
        let s = self.0;
        let q = [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]];
        (q[0] + q[2]) + (q[1] + q[3])
    }

    /// Horizontal maximum of all lanes.
    #[inline(always)]
    pub fn reduce_max(self) -> f32 {
        let s = self.0;
        let q = [s[0].max(s[4]), s[1].max(s[5]), s[2].max(s[6]), s[3].max(s[7])];
        q[0].max(q[2]).max(q[1].max(q[3]))
    }
}

/// Lane count of [`F32x16`].
pub const LANES16: usize = 16;

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
pub struct F32x16([f32; LANES16]);

#[allow(clippy::should_implement_trait)]
impl F32x16 {
    /// All lanes zero.
    pub const ZERO: F32x16 = F32x16([0.0; LANES16]);

    /// Broadcast one value into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x16([v; LANES16])
    }

    /// Load the first sixteen elements of `src`.
    ///
    /// # Panics
    /// Panics when `src` has fewer than sixteen elements.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let chunk: &[f32; LANES16] =
            src[..LANES16].try_into().expect("F32x16::load needs 16 elements");
        F32x16(*chunk)
    }

    /// Store the lanes into the first sixteen elements of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES16].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES16] {
        self.0
    }

    /// Lanewise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x += y;
        }
        F32x16(r)
    }

    /// Lanewise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (x, y) in r.iter_mut().zip(&o.0) {
            *x *= y;
        }
        F32x16(r)
    }

    /// Lanewise fused multiply-add: `self * m + a` (same FMA gating rules as
    /// [`F32x8::mul_add`]).
    #[inline(always)]
    pub fn mul_add(self, m: Self, a: Self) -> Self {
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
pub fn fma(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        a * b + acc
    }
}

/// Dot product of two equal-length slices.
///
/// Four independent 8-lane accumulators hide FMA latency; the tail is
/// scalar. Falls back to the plain sequential loop when SIMD is disabled.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if !enabled() {
        let mut s = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        return s;
    }
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
    if !enabled() {
        return src.iter().sum();
    }
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

/// `dst += s * src` over equal-length slices (vectorized axpy).
#[inline]
pub fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    if !enabled() {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d += s * x;
        }
        return;
    }
    let sv = F32x8::splat(s);
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (d, x) in dc.by_ref().zip(sc.by_ref()) {
        F32x8::load(x).mul_add(sv, F32x8::load(d)).store(d);
    }
    for (d, &x) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d += s * x;
    }
}

/// `dst *= s` (vectorized in-place scale).
#[inline]
pub fn scale(dst: &mut [f32], s: f32) {
    if !enabled() {
        for d in dst.iter_mut() {
            *d *= s;
        }
        return;
    }
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
pub fn max_value(src: &[f32]) -> f32 {
    if !enabled() {
        return src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    }
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
    fn axpy_and_scale_match_scalar() {
        let src: Vec<f32> = (0..21).map(|i| i as f32).collect();
        let mut dst = vec![1.0f32; 21];
        axpy(&mut dst, 0.5, &src);
        for (i, &d) in dst.iter().enumerate() {
            assert!((d - (1.0 + 0.5 * i as f32)).abs() < 1e-6);
        }
        scale(&mut dst, 2.0);
        assert!((dst[20] - 22.0).abs() < 1e-6);
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

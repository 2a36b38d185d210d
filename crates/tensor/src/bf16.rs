//! BF16 emulation for the mixed-precision trainer.
//!
//! The paper trains ORBIT-2 in BFLOAT16 with dynamic gradient scaling
//! (Sec. III-D). [`bf16_round`] and [`bf16_round_slice`] round `f32` values
//! to the nearest 8-bit-mantissa value (round-to-nearest-even on the
//! truncated bits) while staying 32-bit in memory — the same trick PyTorch
//! uses for CPU BF16 emulation. Every rounded value immediately re-enters
//! f32 arithmetic.

use crate::pool;
use crate::tensor::Tensor;

/// Round one `f32` to the nearest BF16-representable value.
pub fn bf16_round(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    // Round-to-nearest-even on the low 16 bits.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
    f32::from_bits(rounded)
}

/// Round every element of a slice to BF16 precision, in place.
///
/// One branchless integer body: round bias + mask, with a select to pass
/// non-finite values through unchanged. The whole loop is straight-line
/// `u32` arithmetic, so LLVM turns it into wide integer ops where the scalar
/// [`bf16_round`]'s early return blocks that — and it is bit-identical to
/// mapping `bf16_round` (asserted by `slice_round_matches_scalar_bitwise`).
pub fn bf16_round_slice(dst: &mut [f32]) {
    for v in dst.iter_mut() {
        let bits = v.to_bits();
        let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
        let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
        // Exponent all-ones => inf/NaN: keep the original bits.
        let nonfinite = (bits & 0x7F80_0000) == 0x7F80_0000;
        *v = f32::from_bits(if nonfinite { bits } else { rounded });
    }
}

impl Tensor {
    /// Quantize every element to BF16 precision (returns a new tensor).
    pub fn to_bf16(&self) -> Tensor {
        let mut out = pool::alloc_uninit(self.len());
        out.copy_from_slice(self.data());
        bf16_round_slice(&mut out);
        Tensor::from_vec(self.shape().to_vec(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_pass_through() {
        for &x in &[0.0f32, 1.0, -2.0, 0.5, 256.0] {
            assert_eq!(bf16_round(x), x);
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        use crate::random::randn;
        let t = randn(&[1000], 99);
        let q = t.to_bf16();
        for (&a, &b) in t.data().iter().zip(q.data()) {
            if a != 0.0 {
                // Half a unit in the last of BF16's 8 significand bits.
                assert!(((a - b) / a).abs() <= 1.0 / 256.0, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn low_bits_are_cleared() {
        let q = bf16_round(1.000_001);
        assert_eq!(q.to_bits() & 0xFFFF, 0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-9 is exactly halfway between 1.0 and 1.0 + 2^-8;
        // nearest-even rounds down to 1.0.
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_round(halfway), 1.0);
    }

    #[test]
    fn non_finite_preserved() {
        assert!(bf16_round(f32::NAN).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn slice_round_matches_scalar_bitwise() {
        // `bf16_round_slice` and `Tensor::to_bf16`, which is a copy through
        // it, against the scalar rounding on every class of input.
        use crate::random::randn;
        let t = randn(&[257], 42);
        let mut v = t.data().to_vec();
        v.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-42, // subnormal
            -1e-42,
        ]);
        let mut rounded = v.clone();
        bf16_round_slice(&mut rounded);
        let tensor = Tensor::from_vec(vec![v.len()], v.clone()).to_bf16();
        for ((&orig, &got), &whole) in v.iter().zip(&rounded).zip(tensor.data()) {
            let want = bf16_round(orig).to_bits();
            assert_eq!(got.to_bits(), want, "bf16_round_slice, input {orig}");
            assert_eq!(whole.to_bits(), want, "to_bf16, input {orig}");
        }
    }

    #[test]
    fn idempotent() {
        use crate::random::randn;
        let t = randn(&[64], 3).to_bf16();
        t.assert_close(&t.to_bf16(), 0.0);
    }
}

//! Minimal complex number type (f64 for spectral accuracy).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Zero.
    pub(crate) const ZERO: Complex = Complex::new(0.0, 0.0);

    /// One.
    pub(crate) const ONE: Complex = Complex::new(1.0, 0.0);

    /// `e^{i theta}`.
    pub(crate) fn cis(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    pub(crate) fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, o: Complex) -> Complex {
        let d = o.norm_sqr();
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!((a * a.conj()).re, a.norm_sqr());
        assert!((a * a.conj()).im.abs() < 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        let c = Complex::cis(std::f64::consts::FRAC_PI_2);
        assert!((c.re).abs() < 1e-15);
        assert!((c.im - 1.0).abs() < 1e-15);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.5, 3.0);
        let c = (a * b) / b;
        assert!((c.re - a.re).abs() < 1e-12 && (c.im - a.im).abs() < 1e-12);
    }
}

//! One-dimensional FFT: radix-2 Cooley–Tukey for power-of-two lengths and
//! Bluestein's chirp-z transform for everything else.

use crate::complex::Complex;

/// In-place forward DFT of `x` (any length).
pub fn fft(x: &mut [Complex]) {
    transform(x, false);
}

/// In-place inverse DFT of `x` (any length), normalized by `1/n`.
pub fn ifft(x: &mut [Complex]) {
    transform(x, true);
    let inv = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        *v = v.scale(inv);
    }
}

fn transform(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        radix2(x, inverse);
    } else {
        bluestein(x, inverse);
    }
}

/// Iterative radix-2 with bit-reversal permutation. O(n log n), in place.
fn radix2(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    // Bit reversal.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            x.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = x[start + k];
                let v = x[start + k + len / 2] * w;
                x[start + k] = u + v;
                x[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm: express an arbitrary-length DFT as a convolution,
/// evaluated with a zero-padded power-of-two FFT.
fn bluestein(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w_k = exp(sign * i * pi * k^2 / n)
    let mut chirp = vec![Complex::ZERO; n];
    for (k, c) in chirp.iter_mut().enumerate() {
        // k^2 mod 2n avoids precision loss for large k.
        let k2 = (k * k) % (2 * n);
        *c = Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64);
    }
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
    }
    b[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        b[k] = c;
        b[m - k] = c;
    }
    radix2(&mut a, false);
    radix2(&mut b, false);
    for (av, bv) in a.iter_mut().zip(&b) {
        *av = *av * *bv;
    }
    // Inverse FFT of the product.
    radix2(&mut a, true);
    let inv_m = 1.0 / m as f64;
    for k in 0..n {
        x[k] = a[k].scale(inv_m) * chirp[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (t, &v) in x.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                *o += v * Complex::cis(ang);
            }
        }
        if inverse {
            for o in out.iter_mut() {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn close(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.iter().zip(b).all(|(x, y)| (*x - *y).abs() < tol)
    }

    #[test]
    fn radix2_matches_naive() {
        let x: Vec<Complex> = (0..16).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
        let mut y = x.clone();
        fft(&mut y);
        assert!(close(&y, &dft_naive(&x, false), 1e-9));
    }

    #[test]
    fn bluestein_matches_naive_odd_lengths() {
        for n in [3usize, 5, 7, 12, 15, 31] {
            let x: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64 * 0.7 - 1.0, (i * i) as f64 * 0.01)).collect();
            let mut y = x.clone();
            fft(&mut y);
            assert!(close(&y, &dft_naive(&x, false), 1e-8), "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [8usize, 13, 64, 100] {
            let x: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64).cos())).collect();
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            assert!(close(&y, &x, 1e-10), "n={n}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        fft(&mut x);
        for v in x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_energy() {
        let n = 32;
        let freq = 5;
        let x: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * freq as f32 * i as f32 / n as f32).cos())
            .collect();
        let mut spec: Vec<Complex> = x.iter().map(|&v| Complex::new(v as f64, 0.0)).collect();
        fft(&mut spec);
        // Peak magnitude at bins `freq` and `n - freq`.
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        let peak = mags.iter().cloned().fold(0.0, f64::max);
        assert!((mags[freq] - peak).abs() < 1e-6);
        assert!((mags[n - freq] - peak).abs() < 1e-6);
        assert!(mags[1] < peak * 1e-6);
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<Complex> = (0..64).map(|i| Complex::new((i as f64 * 0.17).sin(), 0.0)).collect();
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let mut y = x;
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn length_one_and_zero_are_noops() {
        let mut x = vec![Complex::new(2.0, 3.0)];
        fft(&mut x);
        assert_eq!(x[0], Complex::new(2.0, 3.0));
        let mut e: Vec<Complex> = vec![];
        fft(&mut e);
        assert!(e.is_empty());
    }
}

//! Radially-binned spatial power spectra.
//!
//! The paper's Fig. 7(a) compares the spatial power spectrum of downscaled
//! minimum temperature against the observation ground truth: a faithful
//! downscaler must reproduce the high-wavenumber tail. This module computes
//! the isotropic (radially-averaged) power spectrum of a 2-D field.

use crate::complex::Complex;
use crate::fft2::fft2_real;

/// Radially-averaged power spectrum of a 2-D field.
#[derive(Debug, Clone)]
pub struct PowerSpectrum {
    /// Wavenumber of each bin (cycles per domain).
    pub wavenumber: Vec<f64>,
    /// Mean spectral power in the bin.
    pub power: Vec<f64>,
}

impl PowerSpectrum {
    /// Log-power values, floored to avoid `-inf` on empty bins.
    pub fn log_power(&self) -> Vec<f64> {
        self.power.iter().map(|&p| p.max(1e-30).log10()).collect()
    }

    /// Mean absolute log-power difference against another spectrum over the
    /// top `frac` of wavenumbers (the high-frequency tail).
    pub fn high_freq_log_distance(&self, other: &PowerSpectrum, frac: f64) -> f64 {
        let n = self.power.len().min(other.power.len());
        let start = ((1.0 - frac) * n as f64) as usize;
        let a = self.log_power();
        let b = other.log_power();
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for i in start..n {
            sum += (a[i] - b[i]).abs();
            cnt += 1;
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

/// Compute the radially-averaged power spectrum of an `h x w` field.
///
/// Power is `|F(k)|^2 / (h*w)`; bins are integer radial wavenumbers up to
/// the Nyquist limit `min(h, w) / 2`.
pub fn radial_power_spectrum(field: &[f32], h: usize, w: usize) -> PowerSpectrum {
    assert_eq!(field.len(), h * w);
    let spec = fft2_real(field, h, w);
    radial_bin(&spec, h, w)
}

fn radial_bin(spec: &[Complex], h: usize, w: usize) -> PowerSpectrum {
    let kmax = (h.min(w)) / 2;
    let mut power = vec![0.0f64; kmax + 1];
    let mut count = vec![0usize; kmax + 1];
    let norm = 1.0 / (h * w) as f64;
    for y in 0..h {
        // Signed frequency coordinate (wrap above Nyquist).
        let ky = if y <= h / 2 { y as f64 } else { y as f64 - h as f64 };
        for x in 0..w {
            let kx = if x <= w / 2 { x as f64 } else { x as f64 - w as f64 };
            let k = (ky * ky + kx * kx).sqrt().round() as usize;
            if k <= kmax {
                power[k] += spec[y * w + x].norm_sqr() * norm;
                count[k] += 1;
            }
        }
    }
    for (p, &c) in power.iter_mut().zip(&count) {
        if c > 0 {
            *p /= c as f64;
        }
    }
    PowerSpectrum { wavenumber: (0..=kmax).map(|k| k as f64).collect(), power }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_power_is_dc_only() {
        let ps = radial_power_spectrum(&vec![3.0f32; 64], 8, 8);
        assert!(ps.power[0] > 0.0);
        for &p in &ps.power[1..] {
            assert!(p < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_expected_bin() {
        let (h, w) = (32usize, 32usize);
        let k = 4usize;
        let field: Vec<f32> =
            (0..h * w).map(|i| (2.0 * std::f32::consts::PI * k as f32 * (i % w) as f32 / w as f32).sin()).collect();
        let ps = radial_power_spectrum(&field, h, w);
        let peak = ps.power.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(peak, k);
    }

    #[test]
    fn smoothing_suppresses_high_frequencies() {
        // A white-noise field loses high-wavenumber power after a box blur.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let (h, w) = (64usize, 64usize);
        let noise: Vec<f32> = (0..h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // 3x3 box blur (periodic).
        let mut smooth = vec![0.0f32; h * w];
        for y in 0..h {
            for x in 0..w {
                let mut s = 0.0;
                for dy in 0..3 {
                    for dx in 0..3 {
                        let yy = (y + h + dy - 1) % h;
                        let xx = (x + w + dx - 1) % w;
                        s += noise[yy * w + xx];
                    }
                }
                smooth[y * w + x] = s / 9.0;
            }
        }
        let ps_n = radial_power_spectrum(&noise, h, w);
        let ps_s = radial_power_spectrum(&smooth, h, w);
        let tail = ps_n.power.len() - 5..ps_n.power.len();
        let tail_n: f64 = ps_n.power[tail.clone()].iter().sum();
        let tail_s: f64 = ps_s.power[tail].iter().sum();
        assert!(tail_s < tail_n * 0.3, "blur should kill the high-freq tail");
    }

    #[test]
    fn high_freq_distance_zero_for_identical() {
        let field: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
        let a = radial_power_spectrum(&field, 16, 16);
        let b = radial_power_spectrum(&field, 16, 16);
        assert_eq!(a.high_freq_log_distance(&b, 0.3), 0.0);
    }
}

//! Two-dimensional FFT over row-major grids, parallelized over rows and
//! columns with rayon.

use crate::complex::Complex;
use crate::fft1::{fft, ifft};
use rayon::prelude::*;

/// Forward 2-D DFT of an `h x w` row-major grid.
pub fn fft2(grid: &mut [Complex], h: usize, w: usize) {
    rows_then_columns(grid, h, w, fft);
}

/// Inverse 2-D DFT (normalized).
pub fn ifft2(grid: &mut [Complex], h: usize, w: usize) {
    rows_then_columns(grid, h, w, ifft);
}

/// The in-place 1-D transform `f` over every row in parallel, then over
/// every column: transposed into one scratch grid, transformed as rows,
/// and transposed back.
fn rows_then_columns(grid: &mut [Complex], h: usize, w: usize, f: fn(&mut [Complex])) {
    assert_eq!(grid.len(), h * w);
    grid.par_chunks_mut(w).for_each(f);
    let mut t = vec![Complex::ZERO; h * w];
    transpose_into(grid, h, w, &mut t);
    t.par_chunks_mut(h).for_each(f);
    transpose_into(&t, w, h, grid);
}

/// `dst` (`w x h`) = the transpose of `src` (`h x w`).
fn transpose_into(src: &[Complex], h: usize, w: usize, dst: &mut [Complex]) {
    for i in 0..h {
        for j in 0..w {
            dst[j * h + i] = src[i * w + j];
        }
    }
}

/// Forward 2-D DFT of a real field, returning the complex spectrum.
pub fn fft2_real(field: &[f32], h: usize, w: usize) -> Vec<Complex> {
    let mut grid: Vec<Complex> = field.iter().map(|&v| Complex::new(v as f64, 0.0)).collect();
    fft2(&mut grid, h, w);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identity() {
        let (h, w) = (8usize, 12usize);
        let x: Vec<Complex> = (0..h * w).map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0)).collect();
        let mut y = x.clone();
        fft2(&mut y, h, w);
        ifft2(&mut y, h, w);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn dc_component_is_sum() {
        let (h, w) = (4usize, 4usize);
        let field = vec![2.0f32; h * w];
        let spec = fft2_real(&field, h, w);
        assert!((spec[0].re - 32.0).abs() < 1e-9);
        // All non-DC bins vanish for a constant field.
        for v in &spec[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn separable_plane_wave_peaks_at_expected_bin() {
        let (h, w) = (16usize, 16usize);
        let (fy, fx) = (3usize, 5usize);
        let field: Vec<f32> = (0..h * w)
            .map(|i| {
                let (y, x) = (i / w, i % w);
                (2.0 * std::f32::consts::PI * (fy as f32 * y as f32 / h as f32 + fx as f32 * x as f32 / w as f32)).cos()
            })
            .collect();
        let spec = fft2_real(&field, h, w);
        let peak_bin = fy * w + fx;
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        let max = mags.iter().cloned().fold(0.0, f64::max);
        assert!((mags[peak_bin] - max).abs() < 1e-6);
    }

    #[test]
    fn matches_1d_on_single_row() {
        let w = 10usize;
        let row: Vec<f32> = (0..w).map(|i| (i as f32).sin()).collect();
        let spec2 = fft2_real(&row, 1, w);
        let mut spec1: Vec<Complex> = row.iter().map(|&v| Complex::new(v as f64, 0.0)).collect();
        fft(&mut spec1);
        for (a, b) in spec2.iter().zip(&spec1) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}

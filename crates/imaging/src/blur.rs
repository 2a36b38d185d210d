//! Separable Gaussian blur with edge clamping.

use rayon::prelude::*;

/// Build a normalized 1-D Gaussian kernel with the given sigma.
///
/// Radius is `ceil(3 * sigma)`, covering >99.7% of the mass.
fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as i64;
    let mut k: Vec<f32> = (-radius..=radius)
        .map(|i| (-0.5 * (i as f32 / sigma).powi(2)).exp())
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Gaussian-blur an `h x w` field (row-major), clamping at borders.
pub(crate) fn gaussian_blur(field: &[f32], h: usize, w: usize, sigma: f32) -> Vec<f32> {
    assert_eq!(field.len(), h * w);
    let k = gaussian_kernel(sigma);
    let r = (k.len() / 2) as i64;
    // Horizontal pass.
    let mut tmp = vec![0.0f32; h * w];
    tmp.par_chunks_mut(w).enumerate().for_each(|(y, row)| {
        let src = &field[y * w..(y + 1) * w];
        for (x, out) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (ki, &kv) in k.iter().enumerate() {
                let xx = (x as i64 + ki as i64 - r).clamp(0, w as i64 - 1) as usize;
                s += src[xx] * kv;
            }
            *out = s;
        }
    });
    // Vertical pass.
    let mut out = vec![0.0f32; h * w];
    out.par_chunks_mut(w).enumerate().for_each(|(y, row)| {
        for x in 0..w {
            let mut s = 0.0;
            for (ki, &kv) in k.iter().enumerate() {
                let yy = (y as i64 + ki as i64 - r).clamp(0, h as i64 - 1) as usize;
                s += tmp[yy * w + x] * kv;
            }
            row[x] = s;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        let n = k.len();
        for i in 0..n / 2 {
            assert!((k[i] - k[n - 1 - i]).abs() < 1e-7);
        }
        // Peak at center.
        assert!(k[n / 2] >= *k.iter().last().unwrap());
    }

    #[test]
    fn constant_field_unchanged() {
        let f = vec![4.2f32; 6 * 9];
        let b = gaussian_blur(&f, 6, 9, 1.0);
        for &v in &b {
            assert!((v - 4.2).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let (h, w) = (32, 32);
        let f: Vec<f32> = (0..h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b = gaussian_blur(&f, h, w, 2.0);
        let var = |v: &[f32]| {
            let m: f32 = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&b) < var(&f) * 0.3);
    }

    #[test]
    fn impulse_spreads_symmetrically() {
        let (h, w) = (9, 9);
        let mut f = vec![0.0f32; h * w];
        f[4 * w + 4] = 1.0;
        let b = gaussian_blur(&f, h, w, 1.0);
        // 4-fold symmetry around the center.
        assert!((b[3 * w + 4] - b[5 * w + 4]).abs() < 1e-7);
        assert!((b[4 * w + 3] - b[4 * w + 5]).abs() < 1e-7);
        assert!((b[3 * w + 4] - b[4 * w + 3]).abs() < 1e-7);
        // Mass conserved (away from borders).
        let total: f32 = b.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }
}

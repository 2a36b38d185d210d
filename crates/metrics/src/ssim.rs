//! Structural similarity (SSIM) and peak signal-to-noise ratio (PSNR).
//!
//! SSIM follows Wang et al. 2004 with an 8x8 sliding window (stride 4) and
//! the usual stabilizing constants, using the dynamic range of the ground
//! truth. PSNR also uses the truth's dynamic range, matching how image
//! metrics are applied to continuous geophysical fields.

/// Structural similarity between two `h x w` fields in `[-1, 1]`.
pub fn ssim(pred: &[f32], truth: &[f32], h: usize, w: usize) -> f64 {
    assert_eq!(pred.len(), h * w);
    assert_eq!(truth.len(), h * w);
    let range = dynamic_range(truth);
    let c1 = (0.01 * range).powi(2).max(1e-12);
    let c2 = (0.03 * range).powi(2).max(1e-12);
    let win = 8usize.min(h).min(w);
    let stride = (win / 2).max(1);
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut y = 0;
    while y + win <= h {
        let mut x = 0;
        while x + win <= w {
            total += window_ssim(pred, truth, w, y, x, win, c1, c2);
            count += 1;
            x += stride;
        }
        y += stride;
    }
    if count == 0 {
        // Field smaller than a window: single global window.
        return window_ssim(pred, truth, w, 0, 0, h.min(w), c1, c2);
    }
    total / count as f64
}

#[allow(clippy::too_many_arguments)]
fn window_ssim(pred: &[f32], truth: &[f32], stride: usize, y0: usize, x0: usize, win: usize, c1: f64, c2: f64) -> f64 {
    let n = (win * win) as f64;
    let (mut mp, mut mt) = (0.0f64, 0.0f64);
    for y in y0..y0 + win {
        for x in x0..x0 + win {
            mp += pred[y * stride + x] as f64;
            mt += truth[y * stride + x] as f64;
        }
    }
    mp /= n;
    mt /= n;
    let (mut vp, mut vt, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for y in y0..y0 + win {
        for x in x0..x0 + win {
            let dp = pred[y * stride + x] as f64 - mp;
            let dt = truth[y * stride + x] as f64 - mt;
            vp += dp * dp;
            vt += dt * dt;
            cov += dp * dt;
        }
    }
    vp /= n - 1.0;
    vt /= n - 1.0;
    cov /= n - 1.0;
    ((2.0 * mp * mt + c1) * (2.0 * cov + c2)) / ((mp * mp + mt * mt + c1) * (vp + vt + c2))
}

/// Peak signal-to-noise ratio in dB, using the truth's dynamic range as the
/// peak. Returns a large finite value (120 dB) for an exact match.
pub fn psnr(pred: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let mse: f64 =
        pred.iter().zip(truth).map(|(&p, &t)| (p as f64 - t as f64).powi(2)).sum::<f64>() / truth.len() as f64;
    if mse == 0.0 {
        return 120.0;
    }
    let range = dynamic_range(truth).max(1e-12);
    (10.0 * (range * range / mse).log10()).min(120.0)
}

fn dynamic_range(x: &[f32]) -> f64 {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (hi - lo).max(0.0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(truth: &[f32], amp: f32, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        truth.iter().map(|&t| t + amp * rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn field(h: usize, w: usize) -> Vec<f32> {
        (0..h * w)
            .map(|i| {
                let (y, x) = (i / w, i % w);
                (y as f32 * 0.3).sin() + (x as f32 * 0.2).cos()
            })
            .collect()
    }

    #[test]
    fn ssim_identity_is_one() {
        let f = field(32, 32);
        assert!((ssim(&f, &f, 32, 32) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_decreases_with_noise() {
        let t = field(32, 32);
        let s_small = ssim(&noisy(&t, 0.1, 1), &t, 32, 32);
        let s_big = ssim(&noisy(&t, 1.0, 1), &t, 32, 32);
        assert!(s_small > s_big);
        assert!(s_small > 0.8);
        assert!((-1.0..=1.0).contains(&s_big));
    }

    #[test]
    fn ssim_bounded() {
        let t = field(16, 16);
        let anti: Vec<f32> = t.iter().map(|&v| -v).collect();
        let s = ssim(&anti, &t, 16, 16);
        assert!((-1.0..=1.0).contains(&s));
        assert!(s < 0.99, "a distorted field cannot reach identity SSIM, got {s}");
        // A structure-destroying distortion (shuffled rows) scores lower
        // than mild noise.
        let mut shuffled = t.clone();
        shuffled.rotate_left(16 * 7 + 3);
        let s_shuf = ssim(&shuffled, &t, 16, 16);
        assert!(s_shuf < ssim(&noisy(&t, 0.05, 9), &t, 16, 16));
    }

    #[test]
    fn ssim_small_field_fallback() {
        let t = vec![1.0f32, 2.0, 3.0, 4.0];
        assert!((ssim(&t, &t, 2, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_identity_and_monotonicity() {
        let t = field(16, 16);
        assert_eq!(psnr(&t, &t), 120.0);
        let p_small = psnr(&noisy(&t, 0.01, 2), &t);
        let p_big = psnr(&noisy(&t, 0.5, 2), &t);
        assert!(p_small > p_big);
        assert!(p_small > 30.0);
    }

    #[test]
    fn psnr_known_value() {
        // Range 1, constant error 0.1 -> PSNR = 20 dB.
        let truth = vec![0.0f32, 1.0];
        let pred = vec![0.1f32, 1.1];
        assert!((psnr(&pred, &truth) - 20.0).abs() < 1e-4);
    }
}

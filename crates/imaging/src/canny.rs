//! Canny edge detection.
//!
//! The paper's adaptive spatial compression estimates per-quadrant "feature
//! density ... computed via Canny edge detection" (Sec. III-A). This is the
//! full classic pipeline: Gaussian blur → Sobel gradient → non-maximum
//! suppression → double-threshold hysteresis.

use crate::blur::gaussian_blur;
use crate::gradient::sobel;

/// Canny detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct CannyParams {
    /// Gaussian pre-blur sigma.
    pub sigma: f32,
    /// Low hysteresis threshold as a fraction of the max gradient magnitude.
    pub low_frac: f32,
    /// High hysteresis threshold as a fraction of the max gradient magnitude.
    pub high_frac: f32,
}

impl Default for CannyParams {
    fn default() -> Self {
        Self { sigma: 1.0, low_frac: 0.1, high_frac: 0.3 }
    }
}

/// Run Canny edge detection; returns a binary edge map (`true` = edge pixel).
pub(crate) fn canny_edges(field: &[f32], h: usize, w: usize, params: CannyParams) -> Vec<bool> {
    assert_eq!(field.len(), h * w);
    assert!(params.low_frac <= params.high_frac, "low threshold above high");
    let blurred = gaussian_blur(field, h, w, params.sigma);
    let grad = sobel(&blurred, h, w);
    // A (near-)constant field has only float-noise gradients; relative
    // thresholds would promote that noise to edges, so floor against the
    // field's dynamic range.
    let range = field.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        - field.iter().copied().fold(f32::INFINITY, f32::min);
    let mag_max = grad.magnitude.iter().copied().fold(0.0f32, f32::max);
    if range <= 0.0 || mag_max < 1e-4 * range {
        return vec![false; h * w];
    }
    let suppressed = non_maximum_suppression(&grad.magnitude, &grad.direction, h, w);
    hysteresis(&suppressed, h, w, params.low_frac, params.high_frac)
}

/// Fraction of edge pixels in the map — the feature-density score used by the
/// quad-tree splitting criterion.
pub(crate) fn edge_density(edges: &[bool]) -> f32 {
    if edges.is_empty() {
        return 0.0;
    }
    edges.iter().filter(|&&e| e).count() as f32 / edges.len() as f32
}

/// Thin edges to single-pixel width: keep a pixel only if its magnitude is a
/// local maximum along the gradient direction (quantized to 4 orientations).
fn non_maximum_suppression(mag: &[f32], dir: &[f32], h: usize, w: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; h * w];
    let get = |y: i64, x: i64| -> f32 {
        if y < 0 || y >= h as i64 || x < 0 || x >= w as i64 {
            0.0
        } else {
            mag[(y as usize) * w + x as usize]
        }
    };
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let i = (y as usize) * w + x as usize;
            let m = mag[i];
            if m == 0.0 {
                continue;
            }
            // Quantize direction to one of 4 axes (0, 45, 90, 135 degrees).
            let mut angle = dir[i].to_degrees();
            if angle < 0.0 {
                angle += 180.0;
            }
            let (dy, dx) = if !(22.5..157.5).contains(&angle) {
                (0i64, 1i64) // horizontal gradient -> compare left/right
            } else if angle < 67.5 {
                (1, 1)
            } else if angle < 112.5 {
                (1, 0)
            } else {
                (1, -1)
            };
            if m >= get(y + dy, x + dx) && m >= get(y - dy, x - dx) {
                out[i] = m;
            }
        }
    }
    out
}

/// Double threshold + connectivity: strong pixels seed a flood fill that
/// promotes connected weak pixels.
fn hysteresis(mag: &[f32], h: usize, w: usize, low_frac: f32, high_frac: f32) -> Vec<bool> {
    let max = mag.iter().copied().fold(0.0f32, f32::max);
    if max == 0.0 {
        return vec![false; h * w];
    }
    let low = low_frac * max;
    let high = high_frac * max;
    let mut edges = vec![false; h * w];
    let mut stack: Vec<usize> = Vec::new();
    for (i, &m) in mag.iter().enumerate() {
        if m >= high && !edges[i] {
            edges[i] = true;
            stack.push(i);
            while let Some(p) = stack.pop() {
                let (py, px) = (p / w, p % w);
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (ny, nx) = (py as i64 + dy, px as i64 + dx);
                        if ny < 0 || ny >= h as i64 || nx < 0 || nx >= w as i64 {
                            continue;
                        }
                        let n = (ny as usize) * w + nx as usize;
                        if !edges[n] && mag[n] >= low {
                            edges[n] = true;
                            stack.push(n);
                        }
                    }
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_field(h: usize, w: usize) -> Vec<f32> {
        (0..h * w).map(|i| if i % w >= w / 2 { 1.0 } else { 0.0 }).collect()
    }

    #[test]
    fn flat_field_has_no_edges() {
        let edges = canny_edges(&vec![0.5f32; 16 * 16], 16, 16, CannyParams::default());
        assert_eq!(edge_density(&edges), 0.0);
    }

    #[test]
    fn step_edge_is_found_near_the_step() {
        let (h, w) = (16, 16);
        let edges = canny_edges(&step_field(h, w), h, w, CannyParams::default());
        assert!(edge_density(&edges) > 0.0);
        // Edge pixels concentrate around the step column w/2.
        for y in 2..h - 2 {
            let row = &edges[y * w..(y + 1) * w];
            let hits: Vec<usize> = row.iter().enumerate().filter(|(_, &e)| e).map(|(x, _)| x).collect();
            assert!(!hits.is_empty(), "row {y} should contain edge pixels");
            for x in hits {
                assert!((x as i64 - (w / 2) as i64).unsigned_abs() <= 3, "edge at x={x} too far from step");
            }
        }
    }

    #[test]
    fn nms_thins_the_edge() {
        // After NMS the step edge should be at most ~2 pixels wide per row.
        let (h, w) = (16, 32);
        let edges = canny_edges(&step_field(h, w), h, w, CannyParams::default());
        for y in 3..h - 3 {
            let count = edges[y * w..(y + 1) * w].iter().filter(|&&e| e).count();
            assert!(count <= 3, "row {y} has {count} edge pixels; NMS should thin");
        }
    }

    #[test]
    fn density_increases_with_texture() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let (h, w) = (32, 32);
        let smooth: Vec<f32> = (0..h * w).map(|i| (i / w) as f32 / h as f32).collect();
        let noisy: Vec<f32> = (0..h * w).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let p = CannyParams::default();
        let d_smooth = edge_density(&canny_edges(&smooth, h, w, p));
        let d_noisy = edge_density(&canny_edges(&noisy, h, w, p));
        assert!(d_noisy > d_smooth, "noise {d_noisy} should out-edge ramp {d_smooth}");
    }

    #[test]
    fn hysteresis_promotes_connected_weak_pixels() {
        // A gradient magnitude map with a strong pixel adjacent to weak ones:
        // the weak chain should be kept, isolated weak pixels dropped.
        let w = 7;
        let mut mag = vec![0.0f32; 7 * w];
        mag[3 * w + 1] = 1.0; // strong
        mag[3 * w + 2] = 0.2; // weak, connected
        mag[3 * w + 3] = 0.2; // weak, connected
        mag[0] = 0.2; // weak, isolated
        let edges = hysteresis(&mag, 7, w, 0.15, 0.8);
        assert!(edges[3 * w + 1] && edges[3 * w + 2] && edges[3 * w + 3]);
        assert!(!edges[0]);
    }

    #[test]
    fn edge_density_bounds() {
        assert_eq!(edge_density(&[]), 0.0);
        assert_eq!(edge_density(&[true, true]), 1.0);
        assert_eq!(edge_density(&[true, false, false, false]), 0.25);
    }
}

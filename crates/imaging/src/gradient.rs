//! Sobel image gradients.

/// Gradient field: per-pixel magnitude and direction.
#[derive(Debug, Clone)]
pub(crate) struct GradientField {
    /// Gradient magnitude, row-major `h x w`.
    pub magnitude: Vec<f32>,
    /// Gradient direction in radians, `atan2(gy, gx)`.
    pub direction: Vec<f32>,
}

/// Compute Sobel gradients of an `h x w` field with clamped borders.
pub(crate) fn sobel(field: &[f32], h: usize, w: usize) -> GradientField {
    assert_eq!(field.len(), h * w);
    let mut magnitude = vec![0.0f32; h * w];
    let mut direction = vec![0.0f32; h * w];
    let get = |y: i64, x: i64| -> f32 {
        let yy = y.clamp(0, h as i64 - 1) as usize;
        let xx = x.clamp(0, w as i64 - 1) as usize;
        field[yy * w + xx]
    };
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let gx = -get(y - 1, x - 1) - 2.0 * get(y, x - 1) - get(y + 1, x - 1)
                + get(y - 1, x + 1) + 2.0 * get(y, x + 1) + get(y + 1, x + 1);
            let gy = -get(y - 1, x - 1) - 2.0 * get(y - 1, x) - get(y - 1, x + 1)
                + get(y + 1, x - 1) + 2.0 * get(y + 1, x) + get(y + 1, x + 1);
            let i = (y as usize) * w + x as usize;
            magnitude[i] = (gx * gx + gy * gy).sqrt();
            direction[i] = gy.atan2(gx);
        }
    }
    GradientField { magnitude, direction }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_field_has_zero_gradient() {
        let g = sobel(&[1.0f32; 25], 5, 5);
        for &m in &g.magnitude {
            assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn vertical_edge_detected_horizontally() {
        // Left half 0, right half 1: gradient points in +x.
        let (h, w) = (5, 6);
        let f: Vec<f32> = (0..h * w).map(|i| if i % w >= 3 { 1.0 } else { 0.0 }).collect();
        let g = sobel(&f, h, w);
        let center = 2 * w + 2; // on the edge column boundary
        assert!(g.magnitude[center] > 0.0);
        assert!(g.direction[center].abs() < 1e-5, "direction should be ~0 (pure +x)");
    }

    #[test]
    fn horizontal_edge_direction_is_vertical() {
        let (h, w) = (6, 5);
        let f: Vec<f32> = (0..h * w).map(|i| if i / w >= 3 { 1.0 } else { 0.0 }).collect();
        let g = sobel(&f, h, w);
        let center = 2 * w + 2;
        assert!(g.magnitude[center] > 0.0);
        assert!((g.direction[center] - std::f32::consts::FRAC_PI_2).abs() < 1e-5);
    }

    #[test]
    fn magnitude_scales_linearly() {
        let (h, w) = (5, 6);
        let f: Vec<f32> = (0..h * w).map(|i| if i % w >= 3 { 1.0 } else { 0.0 }).collect();
        let f2: Vec<f32> = f.iter().map(|&x| 2.0 * x).collect();
        let g1 = sobel(&f, h, w);
        let g2 = sobel(&f2, h, w);
        for (a, b) in g1.magnitude.iter().zip(&g2.magnitude) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }
}

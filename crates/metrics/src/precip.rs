//! The `log(x+1)` precipitation transform.
//!
//! "All RMSE values for precipitation are computed in log-transformed space
//! using log(x+1), where x denotes daily precipitation in millimeters"
//! (paper Sec. V-E). Negative inputs (possible for raw network outputs) are
//! clamped to zero first.

/// `log(max(x, 0) + 1)` for one value.
fn log_precip(x: f32) -> f32 {
    (x.max(0.0) + 1.0).ln()
}

/// Apply `log_precip` to a slice.
pub fn log_precip_slice(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| log_precip(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_maps_to_zero() {
        assert_eq!(log_precip(0.0), 0.0);
    }

    #[test]
    fn negative_clamped() {
        assert_eq!(log_precip(-3.0), 0.0);
    }

    #[test]
    fn compresses_large_values() {
        let a = log_precip(10.0);
        let b = log_precip(100.0);
        assert!(b - a < 90.0 * (a / 10.0), "log must compress the tail");
        assert!(b > a);
    }

    #[test]
    fn slice_matches_scalar() {
        let xs = [0.0f32, 1.0, 2.0];
        let ys = log_precip_slice(&xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(log_precip(*x), *y);
        }
    }
}

//! Latitude/longitude grid geometry and latitude weighting.
//!
//! The Bayesian data-likelihood term of the Reslim loss is a
//! *latitude-weighted* MSE: cells shrink toward the poles, so errors there
//! must count less (paper Sec. III-A, matrix `D`).

use serde::{Deserialize, Serialize};

/// A regular global (or regional) latitude/longitude grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatLonGrid {
    /// Rows (latitude bands), north to south.
    pub h: usize,
    /// Columns (longitude), west to east.
    pub w: usize,
    /// Northernmost latitude (degrees).
    pub lat_north: f64,
    /// Southernmost latitude (degrees).
    pub lat_south: f64,
    /// Westernmost longitude (degrees).
    pub lon_west: f64,
    /// Easternmost longitude (degrees).
    pub lon_east: f64,
}

impl LatLonGrid {
    /// A global grid of `h x w` cells.
    pub fn global(h: usize, w: usize) -> Self {
        Self { h, w, lat_north: 90.0, lat_south: -90.0, lon_west: -180.0, lon_east: 180.0 }
    }

    /// A continental-US-like regional grid.
    pub fn conus(h: usize, w: usize) -> Self {
        Self { h, w, lat_north: 50.0, lat_south: 24.0, lon_west: -125.0, lon_east: -66.0 }
    }

    /// Latitude at the center of row `i` (degrees, decreasing with `i`).
    pub(crate) fn lat(&self, i: usize) -> f64 {
        let step = (self.lat_north - self.lat_south) / self.h as f64;
        self.lat_north - (i as f64 + 0.5) * step
    }

    /// Longitude at the center of column `j` (degrees).
    pub(crate) fn lon(&self, j: usize) -> f64 {
        let step = (self.lon_east - self.lon_west) / self.w as f64;
        self.lon_west + (j as f64 + 0.5) * step
    }

    /// Per-row latitude weights `cos(lat)`, normalized to mean 1 over the
    /// grid — the diagonal of the paper's weighting matrix `D`.
    pub fn latitude_weights(&self) -> Vec<f32> {
        let raw: Vec<f64> = (0..self.h).map(|i| self.lat(i).to_radians().cos().max(0.0)).collect();
        let mean: f64 = raw.iter().sum::<f64>() / self.h as f64;
        raw.iter().map(|&v| (v / mean) as f32).collect()
    }

    /// Full `h x w` weight field (each row constant), normalized to mean 1.
    pub fn latitude_weight_field(&self) -> Vec<f32> {
        let rows = self.latitude_weights();
        let mut out = Vec::with_capacity(self.h * self.w);
        for &r in &rows {
            for _ in 0..self.w {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_grid_latitudes_span_poles() {
        let g = LatLonGrid::global(4, 8);
        assert!(g.lat(0) > 60.0);
        assert!(g.lat(3) < -60.0);
        assert!((g.lat(1) + g.lat(2)).abs() < 1e-9, "symmetric about equator");
    }

    #[test]
    fn weights_peak_at_equator_and_mean_one() {
        let g = LatLonGrid::global(8, 4);
        let w = g.latitude_weights();
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!((mean - 1.0).abs() < 1e-5);
        // Equator rows (3,4) should outweigh pole rows (0,7).
        assert!(w[3] > w[0]);
        assert!(w[4] > w[7]);
        assert!((w[3] - w[4]).abs() < 1e-6);
    }

    #[test]
    fn weight_field_shape_and_rows() {
        let g = LatLonGrid::global(4, 3);
        let f = g.latitude_weight_field();
        assert_eq!(f.len(), 12);
        assert_eq!(f[0], f[2]);
        assert_ne!(f[0], f[4]);
    }

    #[test]
    fn conus_region_bounds() {
        let g = LatLonGrid::conus(26, 59);
        assert!(g.lat(0) < 50.0 && g.lat(25) > 24.0);
        assert!(g.lon(0) > -125.0 && g.lon(58) < -66.0);
    }
}

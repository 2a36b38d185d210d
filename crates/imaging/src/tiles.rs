//! Tile/halo geometry for TILES (paper Sec. III-B, Fig. 4).
//!
//! A field is partitioned into a `tiles_y x tiles_x` grid of *core* tiles.
//! Each core is padded with a fixed-width halo that overlaps its neighbours
//! (replicated at the domain border), each padded tile is processed
//! independently (on its own GPU in the paper; its own rayon task here), the
//! halos are discarded and the cores stitched back together.
//!
//! This module holds the geometry only: which windows a tiling cuts. Moving
//! a `[C, H, W]` stack's data through those windows (the clamp-to-edge crop
//! and the stitch) is `orbit2::tiling`'s.

use serde::{Deserialize, Serialize};

/// How a field is tiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSpec {
    /// Number of tiles along y.
    pub tiles_y: usize,
    /// Number of tiles along x.
    pub tiles_x: usize,
    /// Halo width in pixels, added on every side of each tile.
    pub halo: usize,
}

impl TileSpec {
    /// A square-ish grid of `n` tiles (n must be a perfect square) with halo.
    pub fn square(n: usize, halo: usize) -> Self {
        let s = (n as f64).sqrt().round() as usize;
        assert_eq!(s * s, n, "tile count {n} is not a perfect square");
        Self { tiles_y: s, tiles_x: s, halo }
    }

    /// Total number of tiles.
    pub fn count(&self) -> usize {
        self.tiles_y * self.tiles_x
    }
}

/// Placement of one tile inside the global field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGeometry {
    /// Tile row index in the grid.
    pub ty: usize,
    /// Tile column index in the grid.
    pub tx: usize,
    /// Core top-left in global coordinates.
    pub core_y0: usize,
    /// Core top-left in global coordinates.
    pub core_x0: usize,
    /// Core height.
    pub core_h: usize,
    /// Core width.
    pub core_w: usize,
    /// Halo width actually applied (same on all sides, replicated at domain
    /// borders so the padded tile always has size `(core_h + 2*halo) x
    /// (core_w + 2*halo)`).
    pub halo: usize,
}

impl TileGeometry {
    /// Padded height of the tile.
    pub fn padded_h(&self) -> usize {
        self.core_h + 2 * self.halo
    }

    /// Padded width of the tile.
    pub fn padded_w(&self) -> usize {
        self.core_w + 2 * self.halo
    }

    /// Compute overhead of the halo: padded area / core area. This is the
    /// extra work a tile pays for border context (paper: "larger halos
    /// improve accuracy but increase computation").
    pub fn halo_overhead(&self) -> f64 {
        (self.padded_h() * self.padded_w()) as f64 / (self.core_h * self.core_w) as f64
    }

    /// The geometry scaled by an integer downscaling factor (output space).
    pub fn scaled(&self, factor: usize) -> TileGeometry {
        TileGeometry {
            ty: self.ty,
            tx: self.tx,
            core_y0: self.core_y0 * factor,
            core_x0: self.core_x0 * factor,
            core_h: self.core_h * factor,
            core_w: self.core_w * factor,
            halo: self.halo * factor,
        }
    }
}

/// Compute the tile grid for an `h x w` field. Tile cores differ by at most
/// one pixel in size when `h`/`w` do not divide evenly.
pub fn tile_grid(h: usize, w: usize, spec: TileSpec) -> Vec<TileGeometry> {
    assert!(spec.tiles_y >= 1 && spec.tiles_x >= 1);
    assert!(spec.tiles_y <= h && spec.tiles_x <= w, "more tiles than pixels");
    let mut out = Vec::with_capacity(spec.count());
    for ty in 0..spec.tiles_y {
        let y0 = ty * h / spec.tiles_y;
        let y1 = (ty + 1) * h / spec.tiles_y;
        for tx in 0..spec.tiles_x {
            let x0 = tx * w / spec.tiles_x;
            let x1 = (tx + 1) * w / spec.tiles_x;
            out.push(TileGeometry {
                ty,
                tx,
                core_y0: y0,
                core_x0: x0,
                core_h: y1 - y0,
                core_w: x1 - x0,
                halo: spec.halo,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_exactly() {
        for &(h, w, ty, tx) in &[(16usize, 16usize, 4usize, 4usize), (17, 23, 3, 5), (8, 8, 1, 1)] {
            let grid = tile_grid(h, w, TileSpec { tiles_y: ty, tiles_x: tx, halo: 0 });
            let area: usize = grid.iter().map(|g| g.core_h * g.core_w).sum();
            assert_eq!(area, h * w, "({h},{w},{ty},{tx})");
        }
    }

    #[test]
    fn halo_overhead_grows_with_tiles() {
        // Same field, more tiles -> more relative halo work (paper: "further
        // tiling introduces excessive halo padding overhead").
        let overhead = |n: usize| {
            let grid = tile_grid(96, 96, TileSpec::square(n, 4));
            grid.iter().map(|g| g.halo_overhead()).sum::<f64>() / grid.len() as f64
        };
        assert!(overhead(4) < overhead(16));
        assert!(overhead(16) < overhead(36));
    }

    #[test]
    fn scaled_geometry() {
        let g = TileGeometry { ty: 1, tx: 2, core_y0: 8, core_x0: 16, core_h: 8, core_w: 8, halo: 2 };
        let s = g.scaled(4);
        assert_eq!(s.core_y0, 32);
        assert_eq!(s.core_h, 32);
        assert_eq!(s.halo, 8);
        assert_eq!(s.padded_h(), 48);
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn square_spec_rejects_non_square() {
        TileSpec::square(12, 1);
    }
}

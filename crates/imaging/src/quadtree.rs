//! Quad-tree adaptive spatial compression (paper Sec. III-A, Fig. 3).
//!
//! The aggregated feature field is mapped back to image space and recursively
//! partitioned into quadrants. A quadrant splits while its Canny edge density
//! exceeds a threshold and it is larger than the minimum patch size;
//! otherwise it becomes a single *patch token*. Feature-rich regions thus get
//! many small patches and smooth regions get few large ones, shrinking the
//! ViT sequence length.

use crate::canny::{canny_edges, edge_density, CannyParams};
use serde::{Deserialize, Serialize};

/// One leaf patch of the quad-tree: a rectangle in pixel space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// Top row (inclusive).
    pub y0: usize,
    /// Left column (inclusive).
    pub x0: usize,
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl Patch {
    /// Pixel area of the patch.
    pub fn area(&self) -> usize {
        self.h * self.w
    }
}

/// Parameters of the adaptive partition.
#[derive(Debug, Clone, Copy)]
pub struct QuadTreeParams {
    /// Edge-density threshold above which a quadrant splits.
    pub density_threshold: f32,
    /// Minimum patch edge in pixels; quadrants at or below never split.
    pub min_patch: usize,
    /// Maximum patch edge in pixels; larger quadrants always split
    /// (bounds the receptive field of a single token).
    pub max_patch: usize,
    /// Canny parameters for the density estimate.
    pub canny: CannyParams,
}

impl Default for QuadTreeParams {
    fn default() -> Self {
        Self {
            density_threshold: 0.05,
            min_patch: 2,
            max_patch: 64,
            canny: CannyParams::default(),
        }
    }
}

/// The adaptive partition of one field.
#[derive(Debug, Clone)]
pub struct QuadTree {
    /// Leaf patches in deterministic (depth-first, NW-NE-SW-SE) order.
    pub patches: Vec<Patch>,
    /// Field height.
    pub h: usize,
    /// Field width.
    pub w: usize,
}

impl QuadTree {
    /// Build the adaptive partition of an `h x w` field.
    pub fn build(field: &[f32], h: usize, w: usize, params: QuadTreeParams) -> Self {
        assert_eq!(field.len(), h * w);
        let edges = canny_edges(field, h, w, params.canny);
        let mut patches = Vec::new();
        subdivide(&edges, w, Patch { y0: 0, x0: 0, h, w }, &params, &mut patches);
        QuadTree { patches, h, w }
    }

    /// Build a uniform partition with patch size `p` (the non-adaptive
    /// baseline of Fig. 3(a)). `h` and `w` must be multiples of `p`.
    pub fn uniform(h: usize, w: usize, p: usize) -> Self {
        assert!(p > 0 && h.is_multiple_of(p) && w.is_multiple_of(p), "{h}x{w} not divisible by {p}");
        let mut patches = Vec::with_capacity((h / p) * (w / p));
        for y in (0..h).step_by(p) {
            for x in (0..w).step_by(p) {
                patches.push(Patch { y0: y, x0: x, h: p, w: p });
            }
        }
        QuadTree { patches, h, w }
    }

    /// Number of patch tokens.
    pub fn token_count(&self) -> usize {
        self.patches.len()
    }

    /// Sequence-length compression relative to a uniform partition of patch
    /// size `p` (the "7x" of Fig. 3 / "4x–32x" of Tables II-III).
    pub fn compression_vs_uniform(&self, p: usize) -> f32 {
        let uniform = (self.h / p) * (self.w / p);
        uniform as f32 / self.patches.len() as f32
    }

    /// True iff the patches exactly tile the domain: every pixel covered once.
    pub fn is_exact_partition(&self) -> bool {
        let mut cover = vec![0u8; self.h * self.w];
        for p in &self.patches {
            if p.y0 + p.h > self.h || p.x0 + p.w > self.w {
                return false;
            }
            for y in p.y0..p.y0 + p.h {
                for x in p.x0..p.x0 + p.w {
                    let i = y * self.w + x;
                    if cover[i] != 0 {
                        return false;
                    }
                    cover[i] = 1;
                }
            }
        }
        cover.iter().all(|&c| c == 1)
    }
}

fn subdivide(edges: &[bool], stride: usize, rect: Patch, params: &QuadTreeParams, out: &mut Vec<Patch>) {
    let too_small = rect.h.min(rect.w) <= params.min_patch;
    let must_split = rect.h.max(rect.w) > params.max_patch;
    let splittable = rect.h >= 2 && rect.w >= 2;
    let split = splittable
        && !too_small
        && (must_split || rect_density(edges, stride, &rect) > params.density_threshold);
    if !split {
        out.push(rect);
        return;
    }
    // Halve each axis (ceil first) so odd sizes still partition exactly.
    let h0 = rect.h.div_ceil(2);
    let w0 = rect.w.div_ceil(2);
    let quads = [
        Patch { y0: rect.y0, x0: rect.x0, h: h0, w: w0 },
        Patch { y0: rect.y0, x0: rect.x0 + w0, h: h0, w: rect.w - w0 },
        Patch { y0: rect.y0 + h0, x0: rect.x0, h: rect.h - h0, w: w0 },
        Patch { y0: rect.y0 + h0, x0: rect.x0 + w0, h: rect.h - h0, w: rect.w - w0 },
    ];
    for q in quads {
        if q.h > 0 && q.w > 0 {
            subdivide(edges, stride, q, params, out);
        }
    }
}

fn rect_density(edges: &[bool], stride: usize, rect: &Patch) -> f32 {
    let mut hits = 0usize;
    for y in rect.y0..rect.y0 + rect.h {
        for x in rect.x0..rect.x0 + rect.w {
            if edges[y * stride + x] {
                hits += 1;
            }
        }
    }
    hits as f32 / rect.area() as f32
}

// edge_density is re-exported for callers estimating density directly.
const _: fn(&[bool]) -> f32 = edge_density;

#[cfg(test)]
mod tests {
    use super::*;

    fn step_field(h: usize, w: usize) -> Vec<f32> {
        (0..h * w).map(|i| if i % w >= w / 2 { 1.0 } else { 0.0 }).collect()
    }

    #[test]
    fn uniform_partition_counts() {
        let qt = QuadTree::uniform(8, 16, 2);
        assert_eq!(qt.token_count(), 32);
        assert!(qt.is_exact_partition());
    }

    #[test]
    fn flat_field_collapses_to_coarse_patches() {
        let (h, w) = (64, 64);
        let qt = QuadTree::build(&vec![0.0f32; h * w], h, w, QuadTreeParams::default());
        // No edges -> only the max_patch constraint forces splits: 64x64 exactly
        // hits max_patch so one leaf.
        assert_eq!(qt.token_count(), 1);
        assert!(qt.is_exact_partition());
    }

    #[test]
    fn edge_region_gets_finer_patches() {
        let (h, w) = (64, 64);
        let params = QuadTreeParams { density_threshold: 0.02, ..Default::default() };
        let qt = QuadTree::build(&step_field(h, w), h, w, params);
        assert!(qt.is_exact_partition());
        assert!(qt.token_count() > 4, "step edge should force subdivisions");
        // Patches touching the step column are smaller than the far field.
        let near: Vec<&Patch> = qt.patches.iter().filter(|p| p.x0 <= w / 2 && p.x0 + p.w > w / 2).collect();
        let far: Vec<&Patch> = qt.patches.iter().filter(|p| p.x0 + p.w <= w / 4).collect();
        assert!(!near.is_empty() && !far.is_empty(), "expected patches on both sides");
        let mean_area = |v: &[&Patch]| v.iter().map(|p| p.area()).sum::<usize>() as f32 / v.len() as f32;
        assert!(mean_area(&near) < mean_area(&far), "near-edge patches should be finer");
    }

    #[test]
    fn compression_ratio_relative_to_uniform() {
        let (h, w) = (64, 64);
        let qt = QuadTree::build(&step_field(h, w), h, w, QuadTreeParams::default());
        let ratio = qt.compression_vs_uniform(2);
        let uniform_tokens = (h / 2) * (w / 2);
        assert!(ratio > 1.0, "adaptive must beat uniform on a mostly-flat field");
        assert!((ratio - uniform_tokens as f32 / qt.token_count() as f32).abs() < 1e-6);
    }

    #[test]
    fn odd_sizes_still_partition_exactly() {
        let (h, w) = (33, 47);
        let f = step_field(h, w);
        let qt = QuadTree::build(&f, h, w, QuadTreeParams { max_patch: 16, ..Default::default() });
        assert!(qt.is_exact_partition());
    }

    #[test]
    fn min_patch_bounds_subdivision() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (h, w) = (32, 32);
        let noisy: Vec<f32> = (0..h * w).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let params = QuadTreeParams { min_patch: 4, density_threshold: 0.0, ..Default::default() };
        let qt = QuadTree::build(&noisy, h, w, params);
        assert!(qt.is_exact_partition());
        for p in &qt.patches {
            assert!(p.h.min(p.w) >= 4 || p.h.min(p.w) >= params.min_patch.div_ceil(2), "patch too small: {p:?}");
        }
    }

    #[test]
    fn deterministic_for_same_input() {
        let (h, w) = (32, 32);
        let f = step_field(h, w);
        let a = QuadTree::build(&f, h, w, QuadTreeParams::default());
        let b = QuadTree::build(&f, h, w, QuadTreeParams::default());
        assert_eq!(a.patches, b.patches);
    }
}

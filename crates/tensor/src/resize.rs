//! Spatial resampling: bilinear / nearest upsampling and area-average
//! downsampling.
//!
//! These are the "interpolation" upsampling used by the baseline
//! upsample-first foundation-model architecture (paper Fig. 1) and the
//! coarsening operator that builds the paired coarse→fine training samples
//! from a synthetic high-resolution field (paper Table I).
//!
//! Tensors are interpreted as `[..., H, W]`: any leading axes are treated as
//! independent channels.

use crate::par;
use crate::pool::{self, Buffer};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Interpolation mode for [`resize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeMode {
    /// Nearest-neighbour sampling.
    Nearest,
    /// Bilinear with half-pixel centers (align_corners = false).
    Bilinear,
}

/// Source pixel of each output coordinate along one axis (nearest mode).
fn nearest_taps(out: usize, size: usize) -> Vec<usize> {
    let scale = size as f32 / out as f32;
    (0..out).map(|o| (((o as f32 + 0.5) * scale) as usize).min(size - 1)).collect()
}

/// Bilinear taps of each output coordinate along one axis, half-pixel
/// centers: `(i0, i1, weight of i1)`. The forward and its tape adjoint
/// both read this table.
pub fn bilinear_taps(out: usize, size: usize) -> Vec<(usize, usize, f32)> {
    let scale = size as f32 / out as f32;
    (0..out)
        .map(|o| {
            let f = ((o as f32 + 0.5) * scale - 0.5).clamp(0.0, (size - 1) as f32);
            let i0 = f.floor() as usize;
            (i0, (i0 + 1).min(size - 1), f - i0 as f32)
        })
        .collect()
}

/// One `[h, w] → [out_h, out_w]` bilinear resize with its taps built once,
/// and the one routine that computes its rows: [`resize`] runs it over whole
/// planes, `conv::upsample_conv2d` over the few rows a band reads.
pub(crate) struct Bilinear {
    w: usize,
    ys: Vec<(usize, usize, f32)>,
    /// Per output column: the left and right source column, `1 − wx`, `wx`.
    x0: Vec<usize>,
    x1: Vec<usize>,
    bx: Vec<f32>,
    wx: Vec<f32>,
}

impl Bilinear {
    pub(crate) fn new(h: usize, w: usize, out_h: usize, out_w: usize) -> Self {
        let xs = bilinear_taps(out_w, w);
        Self {
            w,
            ys: bilinear_taps(out_h, h),
            x0: xs.iter().map(|t| t.0).collect(),
            x1: xs.iter().map(|t| t.1).collect(),
            bx: xs.iter().map(|t| 1.0 - t.2).collect(),
            wx: xs.iter().map(|t| t.2).collect(),
        }
    }

    /// Scratch one [`rows`](Self::rows) call needs: two source rows, each
    /// gathered at both x taps.
    pub(crate) fn scratch_len(&self) -> usize {
        4 * self.x0.len()
    }

    /// Output rows `first, first + 1, …` of one `[h, w]` plane, one per
    /// `dst` slice (`out_w` long). Each source row is gathered once at the x
    /// taps into `scratch` (row `y` in slot `y % 2`: the rows read only
    /// climb, so a slot is refilled only when its row is done); each output
    /// row is then one unit-stride pass over its two gathered rows, with
    /// every value the expression and operation order of the per-pixel
    /// formulation.
    pub(crate) fn rows<'a>(
        &self,
        plane: &[f32],
        first: usize,
        dst: impl IntoIterator<Item = &'a mut [f32]>,
        scratch: &mut [f32],
    ) {
        let ow = self.x0.len();
        let mut held = [usize::MAX; 2];
        for (oy, drow) in (first..).zip(dst) {
            let (y0, y1, wy) = self.ys[oy];
            for y in [y0, y1] {
                if held[y % 2] != y {
                    held[y % 2] = y;
                    let row = &plane[y * self.w..][..self.w];
                    let (g0, g1) = scratch[y % 2 * 2 * ow..][..2 * ow].split_at_mut(ow);
                    for (((a, b), &i0), &i1) in g0.iter_mut().zip(g1).zip(&self.x0).zip(&self.x1) {
                        *a = row[i0];
                        *b = row[i1];
                    }
                }
            }
            let (v00, v01) = scratch[y0 % 2 * 2 * ow..][..2 * ow].split_at(ow);
            let (v10, v11) = scratch[y1 % 2 * 2 * ow..][..2 * ow].split_at(ow);
            let a = 1.0 - wy;
            let taps = v00.iter().zip(v01).zip(v10.iter().zip(v11)).zip(self.bx.iter().zip(&self.wx));
            for (d, (((&p00, &p01), (&p10, &p11)), (&b, &wx))) in drow[..ow].iter_mut().zip(taps) {
                *d = p00 * a * b + p01 * a * wx + p10 * wy * b + p11 * wy * wx;
            }
        }
    }
}

/// Resize the trailing two axes of `t` to `(out_h, out_w)`.
pub fn resize(t: &Tensor, out_h: usize, out_w: usize, mode: ResizeMode) -> Tensor {
    let nd = t.ndim();
    assert!(nd >= 2, "resize requires at least 2 axes");
    let h = t.shape()[nd - 2];
    let w = t.shape()[nd - 1];
    let lead: usize = t.shape()[..nd - 2].iter().product();
    let src = t.data();
    // Every output pixel is written below, so the buffer can be uninit.
    let mut out = pool::alloc_uninit(lead * out_h * out_w);
    let plane_grain = par::min_items(out_h * out_w);
    // The taps depend on the output coordinate alone: built once per call,
    // not once per pixel of every plane.
    match mode {
        ResizeMode::Nearest => {
            let (ys, xs) = (nearest_taps(out_h, h), nearest_taps(out_w, w));
            out.par_chunks_mut(out_h * out_w).enumerate().with_min_len(plane_grain).for_each(|(l, dst)| {
                let plane = &src[l * h * w..(l + 1) * h * w];
                for (drow, &iy) in dst.chunks_exact_mut(out_w).zip(&ys) {
                    let row = &plane[iy * w..][..w];
                    for (d, &ix) in drow.iter_mut().zip(&xs) {
                        *d = row[ix];
                    }
                }
            });
        }
        ResizeMode::Bilinear => {
            let bl = Bilinear::new(h, w, out_h, out_w);
            out.par_chunks_mut(out_h * out_w).enumerate().with_min_len(plane_grain).for_each(|(l, dst)| {
                let mut scratch = Buffer::uninit(bl.scratch_len());
                bl.rows(&src[l * h * w..(l + 1) * h * w], 0, dst.chunks_exact_mut(out_w), &mut scratch);
            });
        }
    }
    let mut shape = t.shape().to_vec();
    shape[nd - 2] = out_h;
    shape[nd - 1] = out_w;
    Tensor::from_vec(shape, out)
}

/// Area-average downsample by integer `factor` along the trailing two axes.
///
/// This is the physically-correct coarsening operator for conservative
/// quantities (e.g. precipitation flux): the coarse cell is the mean of the
/// fine cells it covers.
pub fn downsample_area(t: &Tensor, factor: usize) -> Tensor {
    assert!(factor >= 1);
    let nd = t.ndim();
    assert!(nd >= 2);
    let h = t.shape()[nd - 2];
    let w = t.shape()[nd - 1];
    assert_eq!(h % factor, 0, "height {h} not divisible by {factor}");
    assert_eq!(w % factor, 0, "width {w} not divisible by {factor}");
    let (oh, ow) = (h / factor, w / factor);
    let lead: usize = t.shape()[..nd - 2].iter().product();
    let src = t.data();
    let inv = 1.0 / (factor * factor) as f32;
    let mut out = pool::alloc_uninit(lead * oh * ow);
    out.par_chunks_mut(oh * ow).enumerate().with_min_len(par::min_items(h * w)).for_each(|(l, dst)| {
        let plane = &src[l * h * w..(l + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut s = 0.0f32;
                for dy in 0..factor {
                    let row = (oy * factor + dy) * w + ox * factor;
                    for dx in 0..factor {
                        s += plane[row + dx];
                    }
                }
                dst[oy * ow + ox] = s * inv;
            }
        }
    });
    let mut shape = t.shape().to_vec();
    shape[nd - 2] = oh;
    shape[nd - 1] = ow;
    Tensor::from_vec(shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-hoisting formulation — taps recomputed at every pixel — kept
    /// as the oracle [`resize`] must match bit for bit.
    fn resize_per_pixel(t: &Tensor, out_h: usize, out_w: usize, mode: ResizeMode) -> Tensor {
        let nd = t.ndim();
        let (h, w) = (t.shape()[nd - 2], t.shape()[nd - 1]);
        let lead: usize = t.shape()[..nd - 2].iter().product();
        let src = t.data();
        let mut out = vec![0.0f32; lead * out_h * out_w];
        let sy = h as f32 / out_h as f32;
        let sx = w as f32 / out_w as f32;
        for (l, dst) in out.chunks_mut(out_h * out_w).enumerate() {
            let plane = &src[l * h * w..(l + 1) * h * w];
            for oy in 0..out_h {
                for ox in 0..out_w {
                    dst[oy * out_w + ox] = match mode {
                        ResizeMode::Nearest => {
                            let iy = (((oy as f32 + 0.5) * sy) as usize).min(h - 1);
                            let ix = (((ox as f32 + 0.5) * sx) as usize).min(w - 1);
                            plane[iy * w + ix]
                        }
                        ResizeMode::Bilinear => {
                            let fy = ((oy as f32 + 0.5) * sy - 0.5).clamp(0.0, (h - 1) as f32);
                            let y0 = fy.floor() as usize;
                            let y1 = (y0 + 1).min(h - 1);
                            let wy = fy - y0 as f32;
                            let fx = ((ox as f32 + 0.5) * sx - 0.5).clamp(0.0, (w - 1) as f32);
                            let x0 = fx.floor() as usize;
                            let x1 = (x0 + 1).min(w - 1);
                            let wx = fx - x0 as f32;
                            let v00 = plane[y0 * w + x0];
                            let v01 = plane[y0 * w + x1];
                            let v10 = plane[y1 * w + x0];
                            let v11 = plane[y1 * w + x1];
                            v00 * (1.0 - wy) * (1.0 - wx)
                                + v01 * (1.0 - wy) * wx
                                + v10 * wy * (1.0 - wx)
                                + v11 * wy * wx
                        }
                    };
                }
            }
        }
        let mut shape = t.shape().to_vec();
        shape[nd - 2] = out_h;
        shape[nd - 1] = out_w;
        Tensor::from_vec(shape, out)
    }

    #[test]
    fn hoisted_taps_are_bit_identical_to_per_pixel_taps() {
        use crate::random::randn;
        // Up, down, non-integer ratios both ways, 1-pixel axes, then random
        // shapes from a fixed LCG.
        let mut cases: Vec<(Vec<usize>, usize, usize)> = vec![
            (vec![3, 17, 17], 68, 68),
            (vec![2, 13, 11], 5, 7),
            (vec![1, 1, 9], 4, 31),
            (vec![2, 6, 1], 15, 3),
            (vec![1, 1], 3, 2),
            (vec![4, 9], 1, 1),
            (vec![2, 2, 10, 10], 10, 10),
        ];
        let mut state = 0x2545_F491u32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % bound) as usize + 1
        };
        for _ in 0..40 {
            cases.push((vec![next(3), next(24), next(24)], next(40), next(40)));
        }
        for (seed, (shape, oh, ow)) in cases.iter().enumerate() {
            let t = randn(shape, 40 + seed as u64);
            for mode in [ResizeMode::Bilinear, ResizeMode::Nearest] {
                let fast = resize(&t, *oh, *ow, mode);
                let slow = resize_per_pixel(&t, *oh, *ow, mode);
                assert_eq!(fast.shape(), slow.shape());
                let same = fast.data().iter().zip(slow.data()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{mode:?} {shape:?} -> {oh}x{ow}");
            }
        }
    }

    #[test]
    fn nearest_upsample_2x_repeats() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let u = resize(&t, 4, 4, ResizeMode::Nearest);
        assert_eq!(u.at(&[0, 0]), 1.0);
        assert_eq!(u.at(&[0, 1]), 1.0);
        assert_eq!(u.at(&[3, 3]), 4.0);
        assert_eq!(u.at(&[2, 0]), 3.0);
    }

    #[test]
    fn bilinear_constant_field_is_preserved() {
        let t = Tensor::full(vec![3, 5], 2.5);
        let u = resize(&t, 9, 10, ResizeMode::Bilinear);
        for &x in u.data() {
            assert!((x - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_preserves_linear_ramp_interior() {
        // A linear ramp should be exactly reproduced away from the border.
        let w = 8usize;
        let t = Tensor::from_vec(vec![1, w], (0..w).map(|i| i as f32).collect());
        let u = resize(&t, 1, 2 * w, ResizeMode::Bilinear);
        // interior sample at output x=5 maps to input 2.25
        let expect = (5.0f32 + 0.5) * 0.5 - 0.5;
        assert!((u.at(&[0, 5]) - expect).abs() < 1e-5);
    }

    #[test]
    fn area_downsample_averages_blocks() {
        let t = Tensor::from_vec(vec![2, 4], vec![1., 3., 5., 7., 2., 4., 6., 8.]);
        let d = downsample_area(&t, 2);
        assert_eq!(d.shape(), &[1, 2]);
        assert_eq!(d.data(), &[2.5, 6.5]);
    }

    #[test]
    fn area_downsample_conserves_mean() {
        use crate::random::randn;
        let t = randn(&[3, 16, 16], 11);
        let d = downsample_area(&t, 4);
        assert!((t.mean() - d.mean()).abs() < 1e-5);
    }

    #[test]
    fn resize_handles_leading_axes() {
        let t = Tensor::arange(2 * 2 * 2).reshape(vec![2, 2, 2]);
        let u = resize(&t, 4, 4, ResizeMode::Nearest);
        assert_eq!(u.shape(), &[2, 4, 4]);
        // Channel 1 upper-left block equals channel 1 source (0,0) = 4.
        assert_eq!(u.at(&[1, 0, 0]), 4.0);
    }

    #[test]
    fn downsample_then_upsample_is_smooth_approximation() {
        use crate::random::randn;
        let t = randn(&[1, 8, 8], 3);
        let d = downsample_area(&t, 2);
        let u = resize(&d, 8, 8, ResizeMode::Bilinear);
        assert_eq!(u.shape(), t.shape());
        // Means should match closely (both operators are averaging).
        assert!((u.mean() - t.mean()).abs() < 0.2);
    }
}

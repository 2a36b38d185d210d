//! TILES data movement: the one place a tile's window is read out of a
//! `[C, H, W]` stack or written back into one. Which windows exist is
//! `orbit2_imaging::tiles`' business (`tile_grid`, `TileGeometry`); this
//! module only copies.
//!
//! **One crop.** `crop` copies a geometry's halo-padded window out of a
//! `[C, H, W]` stack into one pooled `[C, ph, pw]` buffer, clamp-to-edge:
//! each padded row reads its clamped source row as a left edge fill, one
//! slice copy of the in-domain span and a right edge fill. [`split_stack`]
//! is `tile_grid` plus this crop; [`split_sample`] crops each input tile's
//! target at `geom.scaled(factor)`, the window the trainer also cuts the
//! tile's latitude weights from, with the same crop.
//!
//! **One stitch.** [`stitch_predictions`] checks each tile's shape and, once
//! per stitch, that the scaled cores cover the output exactly, then writes
//! every core row of every channel straight into one pooled `[C, oh, ow]`
//! output.
//!
//! Both are pure copies: every element they write is one element read,
//! never combined with another, so no served or trained bit depends on how
//! they are written.

use orbit2_imaging::tiles::{tile_grid, TileGeometry, TileSpec};
use orbit2_tensor::{pool, Tensor};

/// One tile of a multi-channel sample.
#[derive(Debug, Clone)]
pub struct SampleTile {
    /// Geometry in *input* (coarse) coordinates.
    pub geom: TileGeometry,
    /// Padded input tile `[C_in, ph, pw]`.
    pub input: Tensor,
    /// Padded target tile `[C_out, ph*factor, pw*factor]` (when a target
    /// stack was supplied).
    pub target: Option<Tensor>,
}

/// The halo-padded window of `g` in a `[C, H, W]` stack, as a `[C, ph, pw]`
/// tensor. Halo pixels outside the domain replicate the nearest border
/// pixel (clamp-to-edge), so the tile always has its full padded size.
///
/// # Panics
/// Panics when `stack` is not rank 3 or the core of `g` is not inside it.
pub(crate) fn crop(stack: &Tensor, g: &TileGeometry) -> Tensor {
    assert_eq!(stack.ndim(), 3, "expected [C, H, W]");
    let (c, h, w) = (stack.shape()[0], stack.shape()[1], stack.shape()[2]);
    assert!(g.core_y0 + g.core_h <= h && g.core_x0 + g.core_w <= w, "tile core outside the {h}x{w} field: {g:?}");
    let (ph, pw) = (g.padded_h(), g.padded_w());
    // Padded columns left of the domain, and the in-domain source columns.
    let left = g.halo.saturating_sub(g.core_x0);
    let (x0, x1) = (g.core_x0.saturating_sub(g.halo), (g.core_x0 + g.core_w + g.halo).min(w));
    let right = pw - left - (x1 - x0);
    let mut out = pool::alloc_uninit(c * ph * pw);
    for (plane, tile) in stack.data().chunks_exact(h * w).zip(out.chunks_exact_mut(ph * pw)) {
        for (py, dst) in tile.chunks_exact_mut(pw).enumerate() {
            let gy = (g.core_y0 + py).saturating_sub(g.halo).min(h - 1);
            let row = &plane[gy * w..(gy + 1) * w];
            dst[..left].fill(row[0]);
            dst[left..pw - right].copy_from_slice(&row[x0..x1]);
            dst[pw - right..].fill(row[w - 1]);
        }
    }
    Tensor::from_vec(vec![c, ph, pw], out)
}

/// Split a `[C, H, W]` stack into halo-padded tiles, channel-consistently.
pub fn split_stack(stack: &Tensor, spec: TileSpec) -> Vec<(TileGeometry, Tensor)> {
    assert_eq!(stack.ndim(), 3, "expected [C, H, W]");
    tile_grid(stack.shape()[1], stack.shape()[2], spec).into_iter().map(|g| (g, crop(stack, &g))).collect()
}

/// Build paired input/target tiles for training: the target tile is the
/// window of the input tile's geometry scaled by `factor`.
pub fn split_sample(input: &Tensor, target: Option<&Tensor>, spec: TileSpec, factor: usize) -> Vec<SampleTile> {
    if let Some(t) = target {
        assert_eq!(t.shape()[1], input.shape()[1] * factor, "target height must be input * factor");
    }
    split_stack(input, spec)
        .into_iter()
        .map(|(geom, input)| SampleTile { geom, input, target: target.map(|t| crop(t, &geom.scaled(factor))) })
        .collect()
}

/// Stitch per-tile predictions `[C_out, (core+2*halo)*factor, ...]` back to
/// a `[C_out, H*factor, W*factor]` stack, discarding halos.
///
/// # Panics
/// Panics when a prediction's shape does not match its scaled geometry, or
/// when the scaled cores overlap or do not cover the output.
pub fn stitch_predictions(tiles: &[(TileGeometry, Tensor)], in_h: usize, in_w: usize, factor: usize) -> Tensor {
    assert!(!tiles.is_empty());
    let c = tiles[0].1.shape()[0];
    let (oh, ow) = (in_h * factor, in_w * factor);
    let scaled: Vec<TileGeometry> = tiles
        .iter()
        .map(|(geom, pred)| {
            let sg = geom.scaled(factor);
            assert_eq!(
                pred.shape(),
                [c, sg.padded_h(), sg.padded_w()],
                "prediction tile does not match scaled geometry"
            );
            sg
        })
        .collect();
    let mut covered = vec![false; oh * ow];
    for sg in &scaled {
        for gy in sg.core_y0..sg.core_y0 + sg.core_h {
            let row = &mut covered[gy * ow + sg.core_x0..gy * ow + sg.core_x0 + sg.core_w];
            if let Some(cx) = row.iter().position(|&done| done) {
                panic!("tile cores overlap at ({gy},{})", sg.core_x0 + cx);
            }
            row.fill(true);
        }
    }
    assert!(covered.iter().all(|&done| done), "tile cores do not cover the field");
    let mut out = pool::alloc_uninit(c * oh * ow);
    for (sg, (_, pred)) in scaled.iter().zip(tiles) {
        let (ph, pw) = (sg.padded_h(), sg.padded_w());
        for (src, dst) in pred.data().chunks_exact(ph * pw).zip(out.chunks_exact_mut(oh * ow)) {
            for cy in 0..sg.core_h {
                let s = (cy + sg.halo) * pw + sg.halo;
                let d = (sg.core_y0 + cy) * ow + sg.core_x0;
                dst[d..d + sg.core_w].copy_from_slice(&src[s..s + sg.core_w]);
            }
        }
    }
    Tensor::from_vec(vec![c, oh, ow], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_tensor::random::randn;

    /// A `[c, h, w]` stack whose element `i` is `i`, so every copied value
    /// names its source position.
    fn ramp(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(vec![c, h, w], (0..c * h * w).map(|i| i as f32).collect())
    }

    #[test]
    fn split_stack_channel_consistency() {
        let stack = randn(&[3, 8, 12], 1);
        let tiles = split_stack(&stack, TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 });
        assert_eq!(tiles.len(), 4);
        for (geom, t) in &tiles {
            assert_eq!(t.shape(), &[3, geom.padded_h(), geom.padded_w()]);
        }
        // The core of tile 0, channel 2 equals the original region.
        let (g, t) = &tiles[0];
        let core_val = t.at(&[2, g.halo, g.halo]);
        assert_eq!(core_val, stack.at(&[2, 0, 0]));
    }

    #[test]
    fn split_stitch_identity() {
        // stitch ∘ split = id at factor 1, for 1 to 4 channels and halos 0,
        // 1 and 3.
        let (h, w) = (16usize, 20usize);
        for c in 1..=4 {
            let stack = ramp(c, h, w).map(|x| x * 0.5);
            for halo in [0usize, 1, 3] {
                let spec = TileSpec { tiles_y: 4, tiles_x: 2, halo };
                let back = stitch_predictions(&split_stack(&stack, spec), h, w, 1);
                assert_eq!(back.shape(), stack.shape(), "c={c} halo={halo}");
                assert_eq!(back.data(), stack.data(), "c={c} halo={halo}");
            }
        }
    }

    #[test]
    fn halo_contains_neighbor_pixels() {
        let (h, w) = (8usize, 8usize);
        let stack = ramp(2, h, w);
        let tiles = split_stack(&stack, TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 });
        // Tile (0,1)'s left halo column equals field column 3 (the rightmost
        // column of tile (0,0)'s core), in every channel: padded row 1 is
        // global row 0, padded column 0 is global column core_x0 - 1 = 3.
        let (g, t) = &tiles[1];
        assert_eq!((g.ty, g.tx), (0, 1));
        for ci in 0..2 {
            assert_eq!(t.at(&[ci, 1, 0]), stack.at(&[ci, 0, 3]));
        }
    }

    #[test]
    fn border_halo_replicates_edge() {
        // A halo wider than the field on both sides: the left and right
        // edge fills and the clamped rows all replicate the border.
        let stack = ramp(3, 4, 4);
        let tiles = split_stack(&stack, TileSpec { tiles_y: 1, tiles_x: 1, halo: 2 });
        let (g, t) = &tiles[0];
        let (ph, pw) = (g.padded_h(), g.padded_w());
        for ci in 0..3 {
            // Top-left padded corner replicates pixel (0, 0).
            assert_eq!(t.at(&[ci, 0, 0]), stack.at(&[ci, 0, 0]));
            assert_eq!(t.at(&[ci, 1, 1]), stack.at(&[ci, 0, 0]));
            // Bottom-right padded corner replicates pixel (3, 3).
            assert_eq!(t.at(&[ci, ph - 1, pw - 1]), stack.at(&[ci, 3, 3]));
            // Top-right and bottom-left corners.
            assert_eq!(t.at(&[ci, 0, pw - 1]), stack.at(&[ci, 0, 3]));
            assert_eq!(t.at(&[ci, ph - 1, 0]), stack.at(&[ci, 3, 0]));
        }
    }

    #[test]
    fn split_stitch_identity_through_factor() {
        // Upscale each tile by replicating pixels (a fake 2x "model"), then
        // stitch; equals nearest-neighbour upscale of the whole field.
        let stack = randn(&[2, 6, 8], 2);
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let factor = 2;
        let tiles = split_stack(&stack, spec);
        let preds: Vec<(TileGeometry, Tensor)> = tiles
            .iter()
            .map(|(g, t)| {
                let up = orbit2_tensor::resize::resize(
                    t,
                    t.shape()[1] * factor,
                    t.shape()[2] * factor,
                    orbit2_tensor::resize::ResizeMode::Nearest,
                );
                (*g, up)
            })
            .collect();
        let full = stitch_predictions(&preds, 6, 8, factor);
        let expect = orbit2_tensor::resize::resize(&stack, 12, 16, orbit2_tensor::resize::ResizeMode::Nearest);
        full.assert_close(&expect, 1e-6);
    }

    #[test]
    fn split_sample_pairs_input_and_target() {
        let input = randn(&[3, 8, 8], 3);
        let target = randn(&[2, 32, 32], 4);
        let tiles = split_sample(&input, Some(&target), TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }, 4);
        assert_eq!(tiles.len(), 4);
        for t in &tiles {
            let tgt = t.target.as_ref().unwrap();
            assert_eq!(tgt.shape()[1], t.input.shape()[1] * 4);
            assert_eq!(tgt.shape()[2], t.input.shape()[2] * 4);
        }
    }

    #[test]
    fn split_sample_target_is_the_scaled_window() {
        let factor = 2;
        let input = randn(&[3, 6, 8], 6);
        let target = ramp(2, 12, 16);
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let tiles = split_sample(&input, Some(&target), spec, factor);
        let mut scaled = Vec::new();
        for t in &tiles {
            let sg = t.geom.scaled(factor);
            let tgt = t.target.as_ref().unwrap();
            assert_eq!(tgt.data(), crop(&target, &sg).data());
            // The core's first pixel is the target at the scaled origin.
            assert_eq!(tgt.at(&[1, sg.halo, sg.halo]), target.at(&[1, sg.core_y0, sg.core_x0]));
            scaled.push((sg, tgt.clone()));
        }
        // Tile (0,0)'s top-left halo corner copies the border pixel.
        assert_eq!(tiles[0].target.as_ref().unwrap().at(&[1, 0, 0]), target.at(&[1, 0, 0]));
        // The target tiles' cores tile the target exactly.
        assert_eq!(stitch_predictions(&scaled, 12, 16, 1).data(), target.data());
    }

    #[test]
    fn single_tile_roundtrip() {
        let input = randn(&[1, 4, 4], 5);
        let tiles = split_sample(&input, None, TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 }, 4);
        assert_eq!(tiles.len(), 1);
        tiles[0].input.assert_close(&input, 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn stitch_rejects_overlapping_cores() {
        let g0 = TileGeometry { ty: 0, tx: 0, core_y0: 0, core_x0: 0, core_h: 2, core_w: 2, halo: 0 };
        let g1 = TileGeometry { ty: 0, tx: 1, core_y0: 0, core_x0: 1, core_h: 2, core_w: 2, halo: 0 };
        let t = vec![(g0, Tensor::zeros(vec![2, 2, 2])), (g1, Tensor::zeros(vec![2, 2, 2]))];
        let _ = stitch_predictions(&t, 2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn stitch_rejects_a_gap() {
        let g0 = TileGeometry { ty: 0, tx: 0, core_y0: 0, core_x0: 0, core_h: 2, core_w: 2, halo: 0 };
        let _ = stitch_predictions(&[(g0, Tensor::zeros(vec![1, 2, 2]))], 2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "does not match scaled geometry")]
    fn stitch_rejects_a_misshapen_tile() {
        let g0 = TileGeometry { ty: 0, tx: 0, core_y0: 0, core_x0: 0, core_h: 2, core_w: 2, halo: 1 };
        let _ = stitch_predictions(&[(g0, Tensor::zeros(vec![1, 4, 3]))], 2, 2, 1);
    }
}

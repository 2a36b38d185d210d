//! Tiled inference: halo-padded tiles in parallel, cores stitched back —
//! exactly the TILES deployment path of paper Fig. 4.
//!
//! Inference never touches the autograd tape: the forward runs through a
//! tape-free [`InferenceSession`] whose weights (and, at int8, their GEMM
//! packs) are prepared once and shared read-only across the tile-worker
//! threads.

use crate::tiling::{split_stack, stitch_predictions};
use orbit2_climate::Normalizer;
use orbit2_imaging::tiles::{tile_grid, TileGeometry, TileSpec};
use orbit2_model::{InferenceSession, ReslimModel};
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use std::fmt;

/// Why an inference request was rejected before any compute ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// The input tensor is not rank 3 (`[C, h, w]`).
    BadRank {
        /// Rank of the offending input.
        ndim: usize,
    },
    /// The input variable (channel) count does not match the model.
    ChannelMismatch {
        /// Channels in the input.
        got: usize,
        /// Channels the model was configured for.
        expected: usize,
    },
    /// The spatial dimensions are not divisible by the model's patch size.
    NotPatchAligned {
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// The model's patch size.
        patch: usize,
    },
    /// The input cannot be cut into the requested tiles: more tiles than
    /// pixels along an axis, or a halo-padded tile side the patch size does
    /// not divide.
    BadTiling {
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// The tiling that does not fit it.
        spec: TileSpec,
        /// The model's patch size.
        patch: usize,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::BadRank { ndim } => {
                write!(f, "input must be [C, h, w]; got a rank-{ndim} tensor")
            }
            InferenceError::ChannelMismatch { got, expected } => {
                write!(f, "input has {got} variables but the model expects {expected}")
            }
            InferenceError::NotPatchAligned { h, w, patch } => {
                write!(f, "input {h}x{w} is not divisible by the patch size {patch}")
            }
            InferenceError::BadTiling { h, w, spec, patch } => write!(
                f,
                "input {h}x{w} cannot be split into {}x{} tiles with halo {} whose padded sides \
                 are all divisible by the patch size {patch}",
                spec.tiles_y, spec.tiles_x, spec.halo
            ),
        }
    }
}

impl std::error::Error for InferenceError {}

/// Check that `input` is a sample this model can downscale.
pub fn validate_input(model: &ReslimModel, input: &Tensor) -> Result<(), InferenceError> {
    if input.ndim() != 3 {
        return Err(InferenceError::BadRank { ndim: input.ndim() });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if c != model.cfg.in_channels {
        return Err(InferenceError::ChannelMismatch { got: c, expected: model.cfg.in_channels });
    }
    if h % model.cfg.patch != 0 || w % model.cfg.patch != 0 {
        return Err(InferenceError::NotPatchAligned { h, w, patch: model.cfg.patch });
    }
    Ok(())
}

/// Check that an `h x w` input this model accepts can also be cut by `spec`:
/// at least one and at most one tile per pixel along each axis, and every
/// halo-padded tile again divisible by the patch size (each tile is a model
/// input of its own).
pub fn check_tiling(model: &ReslimModel, h: usize, w: usize, spec: TileSpec) -> Result<(), InferenceError> {
    let patch = model.cfg.patch;
    let fits = (1..=h).contains(&spec.tiles_y)
        && (1..=w).contains(&spec.tiles_x)
        && tile_grid(h, w, spec).iter().all(|g| g.padded_h() % patch == 0 && g.padded_w() % patch == 0);
    if fits {
        Ok(())
    } else {
        Err(InferenceError::BadTiling { h, w, spec, patch })
    }
}

/// Downscale one `[C_in, h, w]` input to `[C_out, h*factor, w*factor]`
/// physical units.
///
/// `tile_spec = None` processes the sample whole; otherwise each tile runs
/// on its own thread with halo context and the halos are discarded when
/// stitching.
///
/// Prepares a fresh [`InferenceSession`] per call; when downscaling many
/// samples with the same model, build the session once with
/// [`ReslimModel::session`] and use [`downscale_with`].
pub fn downscale(
    model: &ReslimModel,
    normalizer: &Normalizer,
    input: &Tensor,
    tile_spec: Option<TileSpec>,
    compression: f32,
) -> Result<Tensor, InferenceError> {
    let session = model.session();
    downscale_with(model, &session, normalizer, input, tile_spec, compression)
}

/// [`downscale`] with a caller-prepared session, so the weight snapshot is
/// reused across calls. The session is shared read-only by the tile
/// workers.
pub fn downscale_with(
    model: &ReslimModel,
    session: &InferenceSession,
    normalizer: &Normalizer,
    input: &Tensor,
    tile_spec: Option<TileSpec>,
    compression: f32,
) -> Result<Tensor, InferenceError> {
    validate_input(model, input)?;
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let spec = tile_spec.unwrap_or(TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 });
    check_tiling(model, h, w, spec)?;
    let factor = model.cfg.scale_factor;
    let norm_in = normalizer.normalize_input(input);
    let tiles = split_stack(&norm_in, spec);
    let preds: Vec<(TileGeometry, Tensor)> = tiles
        .par_iter()
        .map(|(geom, tile_input)| {
            let (pred, _) = model.forward(session, tile_input, compression);
            (*geom, pred.into_tensor())
        })
        .collect();
    let stitched = stitch_predictions(&preds, h, w, factor);
    Ok(normalizer.denormalize_target(&stitched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
    use orbit2_model::{ModelConfig, ReslimModel};

    fn setup() -> (ReslimModel, Normalizer, DownscalingDataset) {
        let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
        let norm = Normalizer::fit(&ds, 4);
        (model, norm, ds)
    }

    #[test]
    fn output_shape_and_units() {
        let (model, norm, ds) = setup();
        let s = ds.sample(0);
        let pred = downscale(&model, &norm, &s.input, None, 1.0).unwrap();
        assert_eq!(pred.shape(), s.target.shape());
        // Denormalized output should be in a physical range near the target
        // statistics (temperatures in the hundreds of Kelvin), not z-scores.
        let t_mean = pred.slice_axis(0, 0, 1).mean();
        assert!(t_mean > 150.0 && t_mean < 400.0, "tmin channel mean {t_mean} not physical");
    }

    #[test]
    fn tiled_inference_close_to_untiled() {
        // With an adequate halo, tiling is a faithful approximation of the
        // untiled prediction (TILES' locality argument). Border tokens see
        // slightly different context, so exact equality is not expected.
        let (model, norm, ds) = setup();
        let s = ds.sample(1);
        let whole = downscale(&model, &norm, &s.input, None, 1.0).unwrap();
        let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 };
        let tiled = downscale(&model, &norm, &s.input, Some(spec), 1.0).unwrap();
        assert_eq!(whole.shape(), tiled.shape());
        let denom = whole.map(|x| x.abs()).mean().max(1e-3);
        let rel = whole.sub(&tiled).map(|x| x.abs()).mean() / denom;
        assert!(rel < 0.15, "tiled prediction deviates {rel} relative");
    }

    #[test]
    fn deterministic() {
        let (model, norm, ds) = setup();
        let s = ds.sample(2);
        let a = downscale(&model, &norm, &s.input, None, 1.0).unwrap();
        let b = downscale(&model, &norm, &s.input, None, 1.0).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn compression_inference_runs() {
        let (model, norm, ds) = setup();
        let s = ds.sample(3);
        let pred = downscale(&model, &norm, &s.input, None, 2.0).unwrap();
        assert_eq!(pred.shape(), s.target.shape());
        assert!(pred.all_finite());
    }

    #[test]
    fn session_reuse_matches_fresh_session() {
        let (model, norm, ds) = setup();
        let session = model.session();
        for i in 0..3 {
            let s = ds.sample(i);
            let fresh = downscale(&model, &norm, &s.input, None, 1.0).unwrap();
            let reused =
                downscale_with(&model, &session, &norm, &s.input, None, 1.0).unwrap();
            assert_eq!(fresh.data(), reused.data());
        }
    }

    #[test]
    fn bad_inputs_are_typed_errors_not_panics() {
        let (model, norm, _) = setup();
        let rank2 = Tensor::zeros(vec![7, 16]);
        assert_eq!(
            downscale(&model, &norm, &rank2, None, 1.0).unwrap_err(),
            InferenceError::BadRank { ndim: 2 }
        );
        let wrong_c = Tensor::zeros(vec![5, 16, 32]);
        assert_eq!(
            downscale(&model, &norm, &wrong_c, None, 1.0).unwrap_err(),
            InferenceError::ChannelMismatch { got: 5, expected: 7 }
        );
        let ragged = Tensor::zeros(vec![7, 15, 32]);
        assert_eq!(
            downscale(&model, &norm, &ragged, None, 1.0).unwrap_err(),
            InferenceError::NotPatchAligned { h: 15, w: 32, patch: 2 }
        );
        // Tilings the input cannot take: 6 rows halve into 3-row cores that
        // halo 1 pads to 5, which patch 2 does not divide; 8 tiles, 6 rows.
        let odd = Tensor::zeros(vec![7, 6, 8]);
        for spec in [TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 }, TileSpec { tiles_y: 8, tiles_x: 1, halo: 0 }] {
            assert_eq!(
                downscale(&model, &norm, &odd, Some(spec), 1.0).unwrap_err(),
                InferenceError::BadTiling { h: 6, w: 8, spec, patch: 2 }
            );
        }
        assert!(downscale(&model, &norm, &odd, Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 0 }), 1.0).is_err());
        assert!(downscale(&model, &norm, &odd, Some(TileSpec { tiles_y: 1, tiles_x: 2, halo: 1 }), 1.0).is_ok());
        // The messages are human-readable.
        let msg = InferenceError::ChannelMismatch { got: 5, expected: 7 }.to_string();
        assert!(msg.contains('5') && msg.contains('7'));
    }
}

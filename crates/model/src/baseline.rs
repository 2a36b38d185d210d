//! The upsample-first baseline ViT (paper Fig. 1) — the architecture of
//! Prithvi/ClimateLearn-style downscaling foundation models that Table II(a)
//! compares against.
//!
//! The coarse input is bilinearly upsampled to the *output* resolution
//! before any transformer work, channels are aggregated by a shallow
//! convolution, and the ViT then runs over the full high-resolution token
//! grid — `factor^2` times more tokens than Reslim sees, with quadratic
//! attention on top. This is precisely the cost the Reslim design removes.

use crate::blocks::{init_block_params, transformer_block};
use crate::config::ModelConfig;
use crate::embed::{sincos_positions, unpatchify_permutation};
use crate::exec::Exec;
use crate::infer::InferenceSession;
use crate::paths::permute_elements;
use orbit2_autograd::ParamStore;
use orbit2_tensor::conv::ConvGeom;
use orbit2_tensor::random::{kaiming, xavier};
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::Tensor;

/// Channel width of the shallow aggregation convolution.
const AGG_HIDDEN: usize = 16;

/// The baseline model: configuration plus named parameters.
pub struct BaselineVit {
    /// Architecture hyper-parameters (shared struct with Reslim).
    pub cfg: ModelConfig,
    /// Trainable parameters.
    pub params: ParamStore,
}

impl BaselineVit {
    /// Initialize with deterministic weights.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut params = ParamStore::new();
        params.insert(
            "agg.conv1.w",
            kaiming(&[AGG_HIDDEN, cfg.in_channels, 3, 3], seed ^ 0x50),
        );
        params.insert("agg.conv1.b", Tensor::zeros(vec![AGG_HIDDEN]));
        params.insert("agg.conv2.w", kaiming(&[1, AGG_HIDDEN, 3, 3], seed ^ 0x51));
        params.insert("agg.conv2.b", Tensor::zeros(vec![1]));
        let p2 = cfg.patch * cfg.patch;
        params.insert("embed.w", xavier(&[cfg.embed_dim, p2], seed ^ 0x52));
        params.insert("embed.b", Tensor::zeros(vec![cfg.embed_dim]));
        for l in 0..cfg.layers {
            init_block_params(&mut params, &cfg, &format!("blk{l}"), seed.wrapping_add(100 + l as u64));
        }
        // Per-variable projection heads back to image space.
        params.insert(
            "head.w",
            xavier(&[p2 * cfg.out_channels, cfg.embed_dim], seed ^ 0x53),
        );
        params.insert("head.b", Tensor::zeros(vec![p2 * cfg.out_channels]));
        Self { cfg, params }
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.params.num_elements()
    }

    /// Sequence length the baseline pays for an input of `h x w` pixels:
    /// the ViT runs at *output* resolution.
    pub fn sequence_len(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = (h * self.cfg.scale_factor, w * self.cfg.scale_factor);
        (oh / self.cfg.patch) * (ow / self.cfg.patch)
    }

    /// Prepare a tape-free inference context over this model's weights.
    pub fn session(&self) -> InferenceSession {
        InferenceSession::prepare(&self.params)
    }

    /// Like [`session`](Self::session), but with the weight set held at a
    /// reduced storage precision (see [`InferenceSession::prepare_at`]).
    pub fn session_at(&self, precision: crate::infer::SessionPrecision) -> InferenceSession {
        InferenceSession::prepare_at(&self.params, precision)
    }

    /// Forward pass on one `[C_in, h, w]` sample → `[C_out, H, W]`.
    pub fn forward<E: Exec>(&self, ex: &E, input: &Tensor) -> E::Value {
        let cfg = &self.cfg;
        assert_eq!(input.ndim(), 3);
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert_eq!(c, cfg.in_channels);
        let (oh, ow) = (h * cfg.scale_factor, w * cfg.scale_factor);

        // Upsample FIRST (the defining property of this architecture), as a
        // constant preprocessing of the input.
        let up = resize(input, oh, ow, ResizeMode::Bilinear);

        // Shallow convolutional channel aggregation to one feature plane.
        let x = ex.constant(up.into_reshape(vec![1, c, oh, ow]));
        let hid = ex.gelu(&ex.conv2d(
            &x,
            &ex.param("agg.conv1.w"),
            Some(&ex.param("agg.conv1.b")),
            ConvGeom::same(3),
        ));
        let aggregated = ex.conv2d(
            &hid,
            &ex.param("agg.conv2.w"),
            Some(&ex.param("agg.conv2.b")),
            ConvGeom::same(3),
        );

        // Tokenize the full-resolution plane: the long sequence.
        let (hp, wp) = (oh / cfg.patch, ow / cfg.patch);
        let plane_patches = to_patches(ex, &aggregated, oh, ow, cfg.patch);
        let mut z =
            ex.linear(&plane_patches, &ex.param("embed.w"), Some(&ex.param("embed.b")));
        let pos = ex.constant(sincos_positions(hp, wp, cfg.embed_dim));
        z = ex.add(&z, &pos);

        for l in 0..cfg.layers {
            z = transformer_block(ex, cfg, &format!("blk{l}"), &z);
        }

        // Project back to image space per output variable.
        let out_tokens = ex.linear(&z, &ex.param("head.w"), Some(&ex.param("head.b")));
        let perm = unpatchify_permutation(hp, wp, cfg.patch, cfg.out_channels);
        permute_elements(ex, &out_tokens, perm, vec![cfg.out_channels, oh, ow])
    }
}

/// Differentiably extract `p x p` patches of a `[1, 1, H, W]` value as
/// `[N, p^2]` — a fixed element permutation.
fn to_patches<E: Exec>(ex: &E, plane: &E::Value, h: usize, w: usize, p: usize) -> E::Value {
    let (hp, wp) = (h / p, w / p);
    // Build the permutation: token n, slot (dy*p + dx) <- pixel.
    let mut perm = Vec::with_capacity(h * w);
    for py in 0..hp {
        for px in 0..wp {
            for dy in 0..p {
                for dx in 0..p {
                    perm.push((py * p + dy) * w + px * p + dx);
                }
            }
        }
    }
    permute_elements(ex, plane, perm, vec![hp * wp, p * p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::embed::patchify_plane;
    use orbit2_autograd::Tape;
    use orbit2_tensor::random::randn;

    fn model() -> BaselineVit {
        BaselineVit::new(ModelConfig::tiny().with_channels(4, 3), 13)
    }

    #[test]
    fn forward_shape() {
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        let input = randn(&[4, 4, 8], 1);
        let pred = m.forward(&binder, &input);
        assert_eq!(pred.shape(), vec![3, 16, 32]);
        assert!(pred.value().all_finite());
    }

    #[test]
    fn sequence_is_factor_squared_times_reslim() {
        let m = model();
        let (h, w) = (8, 16);
        let baseline_seq = m.sequence_len(h, w);
        let reslim_seq = (h / m.cfg.patch) * (w / m.cfg.patch);
        assert_eq!(baseline_seq, reslim_seq * m.cfg.scale_factor * m.cfg.scale_factor);
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let m = model();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &m.params);
        let input = randn(&[4, 4, 4], 2);
        let loss = m.forward(&binder, &input).square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        assert_eq!(gm.len(), m.params.len());
        for (name, g) in gm.iter() {
            assert!(g.data().iter().any(|&x| x != 0.0), "{name} has zero gradient");
        }
    }

    #[test]
    fn patch_extraction_matches_tensor_path() {
        // The differentiable to_patches must agree with the plain
        // patchify_plane used by Reslim's tokenizer.
        let empty = ParamStore::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &empty);
        let plane = randn(&[6, 8], 3);
        let v = tape.constant(plane.reshape(vec![1, 1, 6, 8]));
        let got = to_patches(&binder, &v, 6, 8, 2).value();
        let expect = patchify_plane(&plane, 2);
        got.assert_close(&expect, 0.0);
    }
}

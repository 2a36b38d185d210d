//! The convolutional decoder (tokens → high-resolution image) and the
//! residual convolutional upsampling path (paper Fig. 2, right side).
//!
//! Both are linear-complexity convolutional stacks: the residual path is
//! exactly the "lightweight convolutional layers with linear complexity"
//! that carries the upsampling *outside* the ViT, and the decoder is the
//! "convolutional layers and linear projections" that reconstruct the
//! output.

use crate::config::ModelConfig;
use crate::embed::unpatchify_permutation;
use crate::exec::Exec;
use orbit2_autograd::ParamStore;
use orbit2_tensor::conv::ConvGeom;
use orbit2_tensor::fused::Activation;
use orbit2_tensor::random::{kaiming, xavier};
use orbit2_tensor::Tensor;

/// Hidden channel width of the decoder and residual convolutions: scales
/// with the embedding so model capacity differentiates in the image-space
/// stages too (the fine-texture memory lives here).
fn path_hidden(cfg: &ModelConfig) -> usize {
    (cfg.embed_dim / 2).clamp(8, 64)
}

/// Register decoder parameters.
pub(crate) fn init_decoder_params(store: &mut ParamStore, cfg: &ModelConfig, seed: u64) {
    let p2 = cfg.patch * cfg.patch;
    let hidden = path_hidden(cfg);
    store.insert(
        "dec.proj.w",
        xavier(&[p2 * hidden, cfg.embed_dim], seed ^ 0x30),
    );
    store.insert("dec.proj.b", Tensor::zeros(vec![p2 * hidden]));
    store.insert(
        "dec.conv.w",
        kaiming(&[cfg.out_channels, hidden, 3, 3], seed ^ 0x31),
    );
    store.insert("dec.conv.b", Tensor::zeros(vec![cfg.out_channels]));
}

/// Register residual-path parameters.
pub(crate) fn init_residual_params(store: &mut ParamStore, cfg: &ModelConfig, seed: u64) {
    let hidden = path_hidden(cfg);
    store.insert(
        "res.conv1.w",
        kaiming(&[hidden, cfg.in_channels, 3, 3], seed ^ 0x40),
    );
    store.insert("res.conv1.b", Tensor::zeros(vec![hidden]));
    store.insert(
        "res.conv2.w",
        kaiming(&[cfg.out_channels, hidden, 3, 3], seed ^ 0x41),
    );
    store.insert("res.conv2.b", Tensor::zeros(vec![cfg.out_channels]));
}

/// Rearrange a `[rows, cols]` value into a new flat shape by an element
/// permutation (`out[i] = flat(in)[perm[i]]`), differentiably on the tape.
pub(crate) fn permute_elements<E: Exec>(
    ex: &E,
    v: &E::Value,
    perm: Vec<usize>,
    out_shape: Vec<usize>,
) -> E::Value {
    let n: usize = ex.shape(v).iter().product();
    let m: usize = out_shape.iter().product();
    assert_eq!(perm.len(), m);
    let flat = ex.reshape(v, vec![n, 1]);
    ex.reshape(&ex.gather_rows(&flat, perm), out_shape)
}

/// Decode ViT tokens `[N, D]` over a full `hp x wp` grid into the
/// high-resolution `[C_out, hp*p*factor, wp*p*factor]` image.
pub(crate) fn decode<E: Exec>(ex: &E, cfg: &ModelConfig, tokens: &E::Value, hp: usize, wp: usize) -> E::Value {
    assert_eq!(ex.shape(tokens)[0], hp * wp, "token/grid mismatch");
    let p = cfg.patch;
    // [N, D] -> [N, p^2 * hidden]
    let projected = ex.linear_act(
        tokens,
        &ex.param("dec.proj.w"),
        Some(&ex.param("dec.proj.b")),
        Activation::Identity,
    );
    let (h, w) = (hp * p, wp * p);
    let (oh, ow) = (h * cfg.scale_factor, w * cfg.scale_factor);
    let hidden = path_hidden(cfg);
    // Rearrange to [hidden, h, w] at input resolution.
    let perm = unpatchify_permutation(hp, wp, p, hidden);
    let img = permute_elements(ex, &projected, perm, vec![1, hidden, h, w]);
    // Upsample to output resolution and refine with a 3x3 conv.
    let out = ex.upsample_conv(
        &ex.gelu(&img),
        oh,
        ow,
        &ex.param("dec.conv.w"),
        Some(&ex.param("dec.conv.b")),
        ConvGeom::same(3),
    );
    ex.reshape(&out, vec![cfg.out_channels, oh, ow])
}

/// The residual path: raw input `[C_in, h, w]` → conv → bilinear upsample →
/// conv → `[C_out, H, W]` coarse approximation added to the ViT output.
pub(crate) fn residual_path<E: Exec>(ex: &E, cfg: &ModelConfig, input: &Tensor) -> E::Value {
    assert_eq!(input.ndim(), 3);
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert_eq!(c, cfg.in_channels);
    let x = ex.constant(input.reshape(vec![1, c, h, w]));
    let hid = ex.gelu(&ex.conv2d(
        &x,
        &ex.param("res.conv1.w"),
        Some(&ex.param("res.conv1.b")),
        ConvGeom::same(3),
    ));
    let out = ex.upsample_conv(
        &hid,
        h * cfg.scale_factor,
        w * cfg.scale_factor,
        &ex.param("res.conv2.w"),
        Some(&ex.param("res.conv2.b")),
        ConvGeom::same(3),
    );
    ex.reshape(&out, vec![cfg.out_channels, h * cfg.scale_factor, w * cfg.scale_factor])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use orbit2_autograd::Tape;
    use orbit2_tensor::random::randn;

    fn cfg() -> ModelConfig {
        ModelConfig::tiny().with_channels(5, 3)
    }

    fn store(cfg: &ModelConfig) -> ParamStore {
        let mut s = ParamStore::new();
        init_decoder_params(&mut s, cfg, 1);
        init_residual_params(&mut s, cfg, 1);
        s
    }

    #[test]
    fn decode_shape() {
        let cfg = cfg();
        let s = store(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &s);
        let tokens = tape.constant(randn(&[4 * 6, cfg.embed_dim], 2));
        let img = decode(&binder, &cfg, &tokens, 4, 6);
        // hp=4, wp=6, patch=2, factor=4: output 32 x 48.
        assert_eq!(img.shape(), vec![3, 32, 48]);
        assert!(img.value().all_finite());
    }

    #[test]
    fn residual_shape_and_gradients() {
        let cfg = cfg();
        let s = store(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &s);
        let input = randn(&[5, 8, 12], 3);
        let out = residual_path(&binder, &cfg, &input);
        assert_eq!(out.shape(), vec![3, 32, 48]);
        let loss = out.square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        for name in ["res.conv1.w", "res.conv2.w", "res.conv1.b", "res.conv2.b"] {
            assert!(gm[name].data().iter().any(|&v| v != 0.0), "{name} got no gradient");
        }
    }

    #[test]
    fn residual_responds_to_input() {
        // Different inputs must give different residual approximations
        // (it is a function of the raw input, not a bias).
        let cfg = cfg();
        let s = store(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &s);
        let a = residual_path(&binder, &cfg, &randn(&[5, 8, 12], 4)).value();
        let b = residual_path(&binder, &cfg, &randn(&[5, 8, 12], 5)).value();
        assert!(a.max_abs_diff(&b) > 1e-4);
    }

    #[test]
    fn permute_elements_roundtrip() {
        let empty = ParamStore::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &empty);
        let x = tape.leaf(randn(&[3, 4], 6));
        let perm: Vec<usize> = (0..12).rev().collect();
        let y = permute_elements(&binder, &x, perm, vec![12]);
        let inv: Vec<usize> = (0..12).rev().collect();
        let z = permute_elements(&binder, &y, inv, vec![3, 4]);
        z.value().assert_close(&x.value(), 0.0);
        // Gradients survive the double permutation.
        let grads = tape.backward(z.square().sum());
        assert!(grads.get(x).is_some());
    }

    #[test]
    fn decode_gradients_reach_projection() {
        let cfg = cfg();
        let s = store(&cfg);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &s);
        let tokens = tape.constant(randn(&[24, cfg.embed_dim], 7));
        let loss = decode(&binder, &cfg, &tokens, 4, 6).square().sum();
        let grads = tape.backward(loss);
        let gm = binder.grad_map(&grads);
        assert!(gm["dec.proj.w"].data().iter().any(|&v| v != 0.0));
        assert!(gm["dec.conv.w"].data().iter().any(|&v| v != 0.0));
    }
}

//! Tokenization and embeddings: per-variable patch embedding, 2-D
//! sinusoidal positions, and the learnable resolution embedding that makes
//! predictions resolution-aware (paper Sec. III-A).

use crate::config::ModelConfig;
use crate::exec::Exec;
use orbit2_autograd::ParamStore;
use orbit2_tensor::fused::Activation;
use orbit2_tensor::random::{randn, xavier};
use orbit2_tensor::Tensor;

/// Register the embedding parameters for `cfg` into `store`.
pub(crate) fn init_embed_params(store: &mut ParamStore, cfg: &ModelConfig, seed: u64) {
    let p2 = cfg.patch * cfg.patch;
    store.insert("embed.w", xavier(&[cfg.embed_dim, p2], seed ^ 0x01));
    store.insert("embed.b", Tensor::zeros(vec![cfg.embed_dim]));
    // One learned embedding vector per input variable.
    store.insert("embed.var", randn(&[cfg.in_channels, cfg.embed_dim], seed ^ 0x02).mul_scalar(0.02));
    // Resolution embedding: one row per supported refinement factor
    // (2x, 4x, 8x, 16x).
    store.insert("embed.res", randn(&[4, cfg.embed_dim], seed ^ 0x03).mul_scalar(0.02));
}

/// Row index of the resolution embedding for a refinement factor.
pub(crate) fn resolution_row(factor: usize) -> usize {
    match factor {
        2 => 0,
        4 => 1,
        8 => 2,
        16 => 3,
        other => panic!("unsupported refinement factor {other} (expected 2/4/8/16)"),
    }
}

/// Extract non-overlapping `p x p` patches of a single-channel plane as a
/// `[N, p^2]` matrix (pure tensor op; inputs are constants on the tape).
pub(crate) fn patchify_plane(plane: &Tensor, p: usize) -> Tensor {
    assert_eq!(plane.ndim(), 2, "patchify expects [h, w]");
    let (h, w) = (plane.shape()[0], plane.shape()[1]);
    assert!(h % p == 0 && w % p == 0, "{h}x{w} not divisible by patch {p}");
    let (hp, wp) = (h / p, w / p);
    let src = plane.data();
    let mut out = Vec::with_capacity(hp * wp * p * p);
    for py in 0..hp {
        for px in 0..wp {
            for dy in 0..p {
                for dx in 0..p {
                    out.push(src[(py * p + dy) * w + px * p + dx]);
                }
            }
        }
    }
    Tensor::from_vec(vec![hp * wp, p * p], out)
}

/// The element permutation that rearranges a `[N, p^2 * C]` token matrix
/// into a `[C, h, w]` image, for use with gather-based reshuffling on the
/// tape (the decoder's differentiable un-patchify).
pub(crate) fn unpatchify_permutation(hp: usize, wp: usize, p: usize, c: usize) -> Vec<usize> {
    let (h, w) = (hp * p, wp * p);
    let mut perm = Vec::with_capacity(c * h * w);
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let (py, dy) = (y / p, y % p);
                let (px, dx) = (x / p, x % p);
                let n = py * wp + px;
                let col = (dy * p + dx) * c + ci;
                perm.push(n * (p * p * c) + col);
            }
        }
    }
    perm
}

/// 2-D sinusoidal positional embedding `[N, D]` over an `hp x wp` token
/// grid: half the channels encode y, half encode x.
pub(crate) fn sincos_positions(hp: usize, wp: usize, d: usize) -> Tensor {
    assert!(d.is_multiple_of(4), "embed dim must be divisible by 4 for 2-D sin-cos");
    let quarter = d / 4;
    // `d / 4` distinct frequencies, not one `powf` per output pair.
    let freqs: Vec<f32> = (0..quarter).map(|k| 1.0f32 / 10_000f32.powf(k as f32 / quarter as f32)).collect();
    let mut out = Vec::with_capacity(hp * wp * d);
    for y in 0..hp {
        for x in 0..wp {
            for coord in [y as f32, x as f32] {
                for &freq in &freqs {
                    out.push((coord * freq).sin());
                    out.push((coord * freq).cos());
                }
            }
        }
    }
    Tensor::from_vec(vec![hp * wp, d], out)
}

/// Tokenize every variable of a `[C, h, w]` input: returns the
/// per-variable token matrices `[N, D]` with variable embeddings added.
pub(crate) fn tokenize<E: Exec>(ex: &E, cfg: &ModelConfig, input: &Tensor) -> Vec<E::Value> {
    let shape = input.shape();
    assert_eq!(shape.len(), 3, "input must be [C, h, w]");
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    assert_eq!(c, cfg.in_channels, "input channels {c} != config {}", cfg.in_channels);
    let w_embed = ex.param("embed.w");
    let b_embed = ex.param("embed.b");
    let var_embed = ex.param("embed.var");
    (0..c)
        .map(|ci| {
            let plane = input.slice_axis(0, ci, 1).into_reshape(vec![h, w]);
            let patches = ex.constant(patchify_plane(&plane, cfg.patch));
            let tok = ex.linear_act(&patches, &w_embed, Some(&b_embed), Activation::Identity);
            let ve = ex.slice_axis(&var_embed, 0, ci, 1); // [1, D] broadcasts over rows
            ex.add(&tok, &ve)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use orbit2_autograd::Tape;

    /// Inverse of [`patchify_plane`]: `[N, p^2]` back to `[h, w]`.
    fn unpatchify_plane(tokens: &Tensor, hp: usize, wp: usize, p: usize) -> Tensor {
        assert_eq!(tokens.shape(), &[hp * wp, p * p]);
        let (h, w) = (hp * p, wp * p);
        let src = tokens.data();
        let mut out = vec![0.0f32; h * w];
        for py in 0..hp {
            for px in 0..wp {
                let row = (py * wp + px) * p * p;
                for dy in 0..p {
                    for dx in 0..p {
                        out[(py * p + dy) * w + px * p + dx] = src[row + dy * p + dx];
                    }
                }
            }
        }
        Tensor::from_vec(vec![h, w], out)
    }

    #[test]
    fn patchify_roundtrip() {
        let plane = Tensor::arange(48).reshape(vec![6, 8]);
        let p = patchify_plane(&plane, 2);
        assert_eq!(p.shape(), &[12, 4]);
        let back = unpatchify_plane(&p, 3, 4, 2);
        back.assert_close(&plane, 0.0);
    }

    #[test]
    fn patchify_layout_is_row_major_patches() {
        let plane = Tensor::arange(16).reshape(vec![4, 4]);
        let p = patchify_plane(&plane, 2);
        // First patch = rows 0-1, cols 0-1.
        assert_eq!(&p.data()[0..4], &[0.0, 1.0, 4.0, 5.0]);
        // Second patch = rows 0-1, cols 2-3.
        assert_eq!(&p.data()[4..8], &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn unpatchify_permutation_matches_plane_roundtrip() {
        // Single channel: gathering with the permutation must equal
        // unpatchify of the same data.
        let (hp, wp, p) = (2usize, 3usize, 2usize);
        let tokens = Tensor::arange(hp * wp * p * p).reshape(vec![hp * wp, p * p]);
        let perm = unpatchify_permutation(hp, wp, p, 1);
        let flat = tokens.data();
        let gathered: Vec<f32> = perm.iter().map(|&i| flat[i]).collect();
        let expect = unpatchify_plane(&tokens, hp, wp, p);
        assert_eq!(gathered, expect.data());
    }

    #[test]
    fn sincos_positions_distinguish_locations() {
        let pos = sincos_positions(4, 4, 16);
        assert_eq!(pos.shape(), &[16, 16]);
        // All rows distinct.
        for i in 0..16 {
            for j in (i + 1)..16 {
                let a = pos.slice_axis(0, i, 1);
                let b = pos.slice_axis(0, j, 1);
                assert!(a.max_abs_diff(&b) > 1e-3, "positions {i} and {j} collide");
            }
        }
        // Bounded in [-1, 1].
        assert!(pos.max_value() <= 1.0 && pos.min_value() >= -1.0);
    }

    #[test]
    fn sincos_positions_match_the_per_element_formula_bit_for_bit() {
        // The frequency evaluated per element, as it was before the table.
        for (hp, wp, d) in [(1, 1, 4), (3, 5, 8), (4, 4, 16), (7, 2, 36), (6, 9, 256)] {
            let quarter = d / 4;
            let pos = sincos_positions(hp, wp, d);
            assert_eq!(pos.shape(), &[hp * wp, d]);
            for (i, &got) in pos.data().iter().enumerate() {
                let (token, c) = (i / d, i % d);
                let coord = if c < d / 2 { token / wp } else { token % wp } as f32;
                let k = (c % (d / 2)) / 2;
                let angle = coord * (1.0f32 / 10_000f32.powf(k as f32 / quarter as f32));
                let expect = if c % 2 == 0 { angle.sin() } else { angle.cos() };
                assert_eq!(got.to_bits(), expect.to_bits(), "({hp}, {wp}, {d}) element {i}");
            }
        }
    }

    #[test]
    fn tokenize_shapes_and_variable_offsets() {
        let cfg = ModelConfig::tiny().with_channels(3, 3);
        let mut store = ParamStore::new();
        init_embed_params(&mut store, &cfg, 1);
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let input = randn(&[3, 8, 8], 2);
        let tokens = tokenize(&binder, &cfg, &input);
        assert_eq!(tokens.len(), 3);
        for t in &tokens {
            assert_eq!(t.shape(), vec![16, cfg.embed_dim]);
        }
        // Identical planes still produce different tokens thanks to the
        // per-variable embedding.
        let same =
            Tensor::concat(&[&input.slice_axis(0, 0, 1), &input.slice_axis(0, 0, 1), &input.slice_axis(0, 0, 1)], 0);
        let tokens2 = tokenize(&binder, &cfg, &same);
        assert!(tokens2[0].value().max_abs_diff(&tokens2[1].value()) > 1e-4);
    }

    #[test]
    fn resolution_rows() {
        assert_eq!(resolution_row(2), 0);
        assert_eq!(resolution_row(4), 1);
        assert_eq!(resolution_row(16), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported refinement factor")]
    fn bad_resolution_panics() {
        resolution_row(3);
    }
}

//! The tape-free inference engine must be *bit-identical* to the training
//! tape's forward pass: both execution contexts drive the same tensor
//! kernels in the same order, so there is no tolerance here — `data()`
//! equality, exactly.
//!
//! Where they do not, the composites of `orbit2_model::exec`, every Reslim
//! case below compares the session's kernel against the tape's
//! composition: attention in the encoder, and `Exec::upsample_conv` in
//! both convolution tails, the decoder's and the residual path's, whose
//! sum is the output.

use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_autograd::Tape;
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::binder::Binder;
use orbit2_model::{BaselineVit, ModelConfig, ReslimModel};
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;
use proptest::prelude::*;
use rayon::prelude::*;

/// The configuration grid the property tests sample from: both CPU twins
/// at a couple of channel layouts, and the small twin cut into 8 heads of 8.
fn config(idx: usize) -> ModelConfig {
    match idx {
        0 => ModelConfig::tiny().with_channels(3, 2),
        1 => ModelConfig::tiny().with_channels(7, 3),
        2 => ModelConfig::small().with_channels(4, 3),
        _ => ModelConfig { heads: 8, ..ModelConfig::small() }.with_channels(3, 2),
    }
}

/// Configurations in [`config`].
const CONFIGS: usize = 4;

fn tile_spec(idx: usize) -> TileSpec {
    match idx {
        0 => TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 },
        1 => TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 },
        _ => TileSpec { tiles_y: 2, tiles_x: 1, halo: 1 },
    }
}

/// Reference: the pre-refactor tape-recording forward.
fn taped_forward(model: &ReslimModel, input: &Tensor, compression: f32) -> Tensor {
    let tape = Tape::new();
    let binder = Binder::new(&tape, &model.params);
    model.forward(&binder, input, compression).0.value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reslim_session_forward_bit_identical_to_tape(
        cfg_idx in 0usize..CONFIGS,
        comp_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cfg = config(cfg_idx);
        let compression = [1.0f32, 2.0, 4.0][comp_idx];
        let model = ReslimModel::new(cfg, seed);
        let session = model.session();
        let input = randn(&[cfg.in_channels, 8, 16], seed + 1);
        let taped = taped_forward(&model, &input, compression);
        let free = model.forward(&session, &input, compression).0.into_tensor();
        prop_assert_eq!(taped.data(), free.data());
    }

    #[test]
    fn baseline_session_forward_bit_identical_to_tape(
        cfg_idx in 0usize..CONFIGS,
        seed in 0u64..1000,
    ) {
        let cfg = config(cfg_idx);
        let model = BaselineVit::new(cfg, seed);
        let session = model.session();
        let input = randn(&[cfg.in_channels, 4, 8], seed + 1);
        let taped = {
            let tape = Tape::new();
            let binder = Binder::new(&tape, &model.params);
            model.forward(&binder, &input).value()
        };
        let free = model.forward(&session, &input).into_tensor();
        prop_assert_eq!(taped.data(), free.data());
    }

    #[test]
    fn tiled_session_inference_bit_identical_to_tape(
        cfg_idx in 0usize..CONFIGS,
        spec_idx in 0usize..3,
        comp_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let cfg = config(cfg_idx);
        let spec = tile_spec(spec_idx);
        let compression = [1.0f32, 2.0][comp_idx];
        let model = ReslimModel::new(cfg, seed);
        let session = model.session();
        let input = randn(&[cfg.in_channels, 8, 16], seed + 2);
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let tiles = split_stack(&input, spec);
        // The session is one shared object across the parallel tile workers.
        let run = |use_tape: bool| -> Tensor {
            let preds: Vec<(TileGeometry, Tensor)> = tiles
                .par_iter()
                .map(|(geom, tile_input)| {
                    let pred = if use_tape {
                        taped_forward(&model, tile_input, compression)
                    } else {
                        model.forward(&session, tile_input, compression).0.into_tensor()
                    };
                    (*geom, pred)
                })
                .collect();
            stitch_predictions(&preds, h, w, model.cfg.scale_factor)
        };
        let taped = run(true);
        let free = run(false);
        prop_assert_eq!(taped.data(), free.data());
    }
}

/// Every case above is an 8×16 input, 32 tokens: fewer than one block of
/// the session's attention op (`orbit2_tensor::attention::BLOCK`, 48 query
/// rows), so none of them reaches a second block. A 20×28 input is 140
/// tokens: two whole blocks and a ragged 44-row third. Compressed, the
/// noisy sample keeps more than a block and the flat one collapses to a
/// single token, the one-key product.
#[test]
fn session_attention_crosses_block_boundaries_bit_identically() {
    assert_eq!(orbit2_tensor::attention::BLOCK, 48, "the token counts below are chosen against it");
    // The tiny twin (2 heads of 16) and the many-head one (8 heads of 8).
    for cfg_idx in [0, CONFIGS - 1] {
        let cfg = config(cfg_idx);
        let model = ReslimModel::new(cfg, 40 + cfg_idx as u64);
        let session = model.session();
        let inputs =
            [randn(&[cfg.in_channels, 20, 28], 50 + cfg_idx as u64), Tensor::full(vec![cfg.in_channels, 20, 28], 0.25)];
        for compression in [1.0f32, 2.0] {
            let mut lens = Vec::new();
            for input in &inputs {
                let (free, plan) = model.forward(&session, input, compression);
                lens.push(plan.compressed_len());
                let taped = taped_forward(&model, input, compression);
                assert_eq!(
                    taped.data(),
                    free.into_tensor().data(),
                    "config {cfg_idx}, compression {compression}: tape vs session"
                );
            }
            let crossing = if compression == 1.0 { lens == [140, 140] } else { lens[0] > 48 && lens[1] == 1 };
            assert!(crossing, "config {cfg_idx}, compression {compression}: {lens:?} tokens per sample");
        }
    }
}

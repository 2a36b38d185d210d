//! Committed digests of served bits: `downscale_with` on the tiny and
//! small models, whole and tiled, at compression 1 and 2, on tiles of 8 to
//! 180 tokens — both sides of `orbit2_tensor::fused::IN_PLACE_MAX_ROWS`, so
//! an f32 session's in-place products and its per-call `Wᵀ` packs both run
//! — and the same fields from an int8 session, whose every product of a
//! packed weight reads its resident pack.
//!
//! Each digest is FNV-1a over the output's f32 bit patterns, computed on an
//! FMA host (the build is `-C target-cpu=native`, `.cargo/config.toml`):
//! the f32 digests on the tree before the in-place product existed, the
//! int8 ones before int8's scales moved into `Codes::I8`. A
//! kernel, an epilogue or a pack that moves one bit of one reply fails
//! here; update a digest only in a change that says why its bits moved.

use orbit2::inference::downscale_with;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::{tile_grid, TileSpec};
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};
use orbit2_tensor::fused::IN_PLACE_MAX_ROWS;

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One served field: the model, the fine grid (the input is a quarter of
/// each side), the tiling, the tokens of its longest tile, and the digests
/// at compression 1 and 2 of an f32 and an int8 session.
struct Case {
    cfg: fn() -> ModelConfig,
    fine: (usize, usize),
    tiles: Option<TileSpec>,
    tokens: usize,
    digests: [u64; 2],
    int8: [u64; 2],
}

const CASES: [Case; 6] = [
    // Every f32 product in place: 8 and 32 tokens whole, 2x2 tiles of 60.
    Case {
        cfg: ModelConfig::tiny,
        fine: (16, 32),
        tiles: None,
        tokens: 8,
        digests: [0x1e3c_8e71_83a4_dd27, 0x991c_ea5e_7da5_b91d],
        int8: [0x171e_5b7c_b980_74c7, 0xe10c_80df_83db_31c3],
    },
    Case {
        cfg: ModelConfig::tiny,
        fine: (32, 64),
        tiles: None,
        tokens: 32,
        digests: [0x9a5f_7fbd_09c9_8d93, 0xeb78_6d18_bf98_839b],
        int8: [0x4ac8_45ca_850b_0e98, 0xfc60_d8df_8adc_fe19],
    },
    Case {
        cfg: ModelConfig::small,
        fine: (32, 64),
        tiles: None,
        tokens: 32,
        digests: [0xcf2e_07ea_fa8f_0c0f, 0x86a5_ed47_54fc_3ba5],
        int8: [0x513b_a3e4_400f_fb18, 0x9515_f421_53ec_b483],
    },
    Case {
        cfg: ModelConfig::tiny,
        fine: (64, 128),
        tiles: Some(TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 }),
        tokens: 60,
        digests: [0xf2f9_3bc5_62de_5200, 0xb927_f92b_ffb5_b275],
        int8: [0x104d_57b9_7ef7_d6d8, 0x08d9_be72_ffb5_a599],
    },
    // Through the f32 resident packs: 128 tokens whole, 1x2 tiles of 180.
    Case {
        cfg: ModelConfig::tiny,
        fine: (64, 128),
        tiles: None,
        tokens: 128,
        digests: [0xd9eb_587d_b0a8_d443, 0xfa21_f192_699f_0303],
        int8: [0x6269_1ddd_ce5b_d569, 0xd98b_92e3_f6b6_1dc2],
    },
    Case {
        cfg: ModelConfig::small,
        fine: (64, 256),
        tiles: Some(TileSpec { tiles_y: 1, tiles_x: 2, halo: 2 }),
        tokens: 180,
        digests: [0x2000_1e3f_5e02_0982, 0x13a2_56a6_1258_4f5d],
        int8: [0xe2d9_6631_d917_dec5, 0x691f_73bc_cf33_704b],
    },
];

#[test]
fn downscale_with_serves_the_committed_bits() {
    // Without FMA each multiply-add rounds twice: other bits, not wrong ones.
    if !cfg!(target_feature = "fma") {
        eprintln!("served_bits: the committed digests are an FMA host's; skipped");
        return;
    }
    assert!(CASES.iter().any(|c| c.tokens <= IN_PLACE_MAX_ROWS), "a case reads its weights in place");
    assert!(CASES.iter().any(|c| c.tokens > IN_PLACE_MAX_ROWS), "a case packs Wᵀ per call");
    let mut moved = Vec::new();
    for case in &CASES {
        let cfg = (case.cfg)().with_channels(7, 3);
        let model = ReslimModel::new(cfg, 5);
        let grid = LatLonGrid::conus(case.fine.0, case.fine.1);
        let ds = DownscalingDataset::new(grid, VariableSet::daymet_like(), 4, 10, 7);
        let norm = Normalizer::fit(&ds, 4);
        let input = ds.sample(0).input;
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let spec = case.tiles.unwrap_or(TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 });
        let p = cfg.patch;
        let tokens = tile_grid(h, w, spec).iter().map(|g| (g.padded_h() / p) * (g.padded_w() / p)).max();
        assert_eq!(tokens, Some(case.tokens), "{h}x{w} in {spec:?}");
        for (precision, digests) in [
            (WeightPrecision::F32, case.digests),
            (WeightPrecision::Int8, case.int8),
        ] {
            let session = model.session_at(precision);
            for (compression, want) in [1.0, 2.0].into_iter().zip(digests) {
                let out =
                    downscale_with(&model, &session, &norm, &input, case.tiles, compression).expect("a valid field");
                let got = fnv1a(out.data());
                if got != want {
                    moved.push(format!(
                        "{} d={} {h}x{w} {spec:?} compression {compression}: {got:#018x}, committed {want:#018x}",
                        precision.label(),
                        cfg.embed_dim
                    ));
                }
            }
        }
    }
    assert!(moved.is_empty(), "served bits moved:\n{}", moved.join("\n"));
}

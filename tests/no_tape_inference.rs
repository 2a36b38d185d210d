//! CI guard: the inference path must never construct an autograd tape.
//!
//! Every `Tape` creation (including on rayon worker threads) bumps a
//! process-wide counter; this file contains exactly one test so no other
//! test's training work can pollute the count.

use orbit2_autograd::tape_constructions;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, Split, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};

#[test]
fn downscale_and_evaluate_build_zero_tapes() {
    let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 8, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    let session = model.session();

    let before = tape_constructions();

    // Whole-sample, tiled, compressed, session-reuse, direct forwards and
    // full-split evaluation: the complete inference surface.
    let s = ds.sample(0);
    let _ = orbit2::inference::downscale(&model, &norm, &s.input, None, 1.0).unwrap();
    let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 };
    let _ = orbit2::inference::downscale(&model, &norm, &s.input, Some(spec), 1.0).unwrap();
    let _ = orbit2::inference::downscale(&model, &norm, &s.input, None, 2.0).unwrap();
    let _ = orbit2::inference::downscale_with(&model, &session, &norm, &s.input, None, 1.0)
        .unwrap();
    // The model's forward called directly on the session, twice.
    for i in 0..2 {
        let _ = model.forward(&session, &ds.sample(i).input, 2.0);
    }
    let test_idx = ds.indices(Split::Test);
    let _ = orbit2::eval::evaluate_model(&model, &norm, &ds, &test_idx, Some(spec), 1.0).unwrap();

    let built = tape_constructions() - before;
    assert_eq!(built, 0, "inference constructed {built} tape(s); it must be tape-free");
}

//! Tape vs tape-free forward latency at the Table II model sizes.
//!
//! Four variants per size: the full training-style forward (tape + binder
//! built per call, values unwrapped at the end), the tape-free session
//! forward (weights prepared once, outside the timed samples), and both
//! again through the 2x2 halo-2 tiled inference path.
//! The tape/session ratio is the cost of autograd bookkeeping that
//! inference no longer pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orbit2::inference::downscale_with;
use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_autograd::Tape;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::binder::Binder;
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;
use rayon::prelude::*;

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_forward");
    group.sample_size(10);
    for (name, cfg) in [("tiny", ModelConfig::tiny()), ("small", ModelConfig::small())] {
        let model = ReslimModel::new(cfg.with_channels(7, 3), 1);
        let session = model.session();
        let input = randn(&[7, 16, 32], 42);
        group.bench_with_input(BenchmarkId::new("tape", name), &input, |b, input| {
            b.iter(|| {
                let tape = Tape::new();
                let binder = Binder::new(&tape, &model.params);
                model.forward(&binder, input, 1.0).0.value()
            })
        });
        group.bench_with_input(BenchmarkId::new("session", name), &input, |b, input| {
            b.iter(|| model.forward(&session, input, 1.0).0.into_tensor())
        });
        // Reduced-precision sessions: same tape-free forward, weights held
        // at int8 (f32 activations and accumulate) — the per-forward win of
        // quartered weight-stream bytes.
        for precision in WeightPrecision::ALL.into_iter().filter(|&p| p != WeightPrecision::F32) {
            let reduced = model.session_at(precision);
            let label = format!("session_{}", precision.label());
            group.bench_with_input(BenchmarkId::new(label, name), &input, |b, input| {
                b.iter(|| model.forward(&reduced, input, 1.0).0.into_tensor())
            });
        }
    }
    group.finish();
}

fn bench_tiled(c: &mut Criterion) {
    let ds = DownscalingDataset::new(LatLonGrid::conus(32, 64), VariableSet::daymet_like(), 4, 4, 3);
    let norm = Normalizer::fit(&ds, 2);
    let sample = ds.sample(0);
    let spec = TileSpec { tiles_y: 2, tiles_x: 2, halo: 2 };
    let mut group = c.benchmark_group("inference_tiled");
    group.sample_size(10);
    for (name, cfg) in [("tiny", ModelConfig::tiny()), ("small", ModelConfig::small())] {
        let model = ReslimModel::new(cfg.with_channels(7, 3), 2);
        let session = model.session();
        group.bench_with_input(BenchmarkId::new("tape", name), &sample.input, |b, input| {
            // The pre-refactor tiled path: every tile worker builds its own
            // tape and binder per call.
            b.iter(|| {
                let (h, w) = (input.shape()[1], input.shape()[2]);
                let norm_in = norm.normalize_input(input);
                let tiles = split_stack(&norm_in, spec);
                let preds: Vec<(TileGeometry, Tensor)> = tiles
                    .par_iter()
                    .map(|(geom, tile_input)| {
                        let tape = Tape::new();
                        let binder = Binder::new(&tape, &model.params);
                        let (pred, _) = model.forward(&binder, tile_input, 1.0);
                        (*geom, pred.value())
                    })
                    .collect();
                let stitched = stitch_predictions(&preds, h, w, model.cfg.scale_factor);
                norm.denormalize_target(&stitched)
            })
        });
        group.bench_with_input(BenchmarkId::new("session", name), &sample.input, |b, input| {
            b.iter(|| downscale_with(&model, &session, &norm, input, Some(spec), 1.0).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward, bench_tiled);
criterion_main!(benches);

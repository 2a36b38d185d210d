//! Substrate kernel benchmarks: the GEMM driver, the unit-stride
//! transposes, attention (reference, session kernel, tape node), conv2d,
//! the convolution tail (kernel, tape node), Canny + quad-tree construction
//! (the CPU-side cost the compression model charges for), FFT, the
//! synthetic field generator and one dataset sample, and the training
//! step's non-math (gradient reduce + Adam, checkpoint I/O).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orbit2::checkpoint::{
    crc32, load_model, load_trainer_state, save_model, save_trainer_state, ProgressState, TrainerCheckpoint,
};
use orbit2_autograd::params::GradMap;
use orbit2_autograd::{Adam, GradAccumulator, GradScaler, ParamLayout, ParamStore, Tape, Var};
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_imaging::quadtree::{QuadTree, QuadTreeParams};
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_tensor::attention::{multi_head_attention, naive_attention};
use orbit2_tensor::bf16::bf16_round_slice;
use orbit2_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, upsample_conv2d, ConvGeom};
use orbit2_tensor::fused::{
    act_backward, layer_norm_rows, matmul_bias_act, matmul_bias_act_cached, matmul_bias_act_in_place, softmax_rows,
    Activation, WeightPrecision,
};
use orbit2_tensor::qgemm::{gemm_strips_ref, PackedWeight};
use orbit2_tensor::random::randn;
use orbit2_tensor::resize::{resize, ResizeMode};
use orbit2_tensor::MatLayout;
use orbit2_tensor::Tensor;
use rayon::prelude::*;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[128usize, 256, 512] {
        let a = randn(&[n, n], 1);
        let b = randn(&[n, n], 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| bench.iter(|| a.matmul(&b)));
    }
    group.finish();
}

/// The GEMM driver at each storage format, via the same session-resident
/// cached path inference uses: weights packed once up front (f32 or int8
/// strips), activations f32, f32 accumulate. `BENCH_kernels.json` rows
/// `gemm_f32/*` and `gemm_int8/*` record the per-precision
/// throughput the serving `--precision` flag buys — at the 256/512 squares
/// of the trajectory and at the model's real `m×k×n` linears (126M at 32
/// tokens, both MLP layers; the 9.5M MLP on a `tiles-field` tile). The f32
/// group adds per-call-pack products: the per-head `Q K^T` of the
/// attention composition on a 612-token tile (`nt`), one
/// 48-query block of the session's attention on a 1156-token tile
/// (`48x64x1156_nt`, k = d_head), and the MLP weight gradient of a
/// 45-token `train-step` tile (`tn`). `gemm_ref/256` is the scalar
/// oracle on the `gemm_f32/256` operands: the in-run reference for
/// same-snapshot ratios. The f32 group also times the two halves of the
/// f32 linear's rule on the same operands, beside the resident pack: the
/// weight read in place (`gemm_f32/inplace/*`,
/// `fused::matmul_bias_act_in_place`) and `W^T` packed per call
/// (`gemm_f32/percall/*`, `Tensor::matmul_nt`). The shapes are `m` swept
/// over 1024×1024 around `fused::IN_PLACE_MAX_ROWS`, the 126M model's MLP
/// at 32 tokens, and the long linears of a TILES tile (the 9.5M model at
/// 1156 tokens, the tiny one at 512).
fn bench_packed_gemm(c: &mut Criterion) {
    const SHAPES: [(usize, usize, usize); 5] =
        [(256, 256, 256), (512, 512, 512), (32, 1024, 4096), (32, 4096, 1024), (1156, 256, 1024)];
    const IN_PLACE: [(usize, usize, usize); 17] = [
        (8, 1024, 1024),
        (16, 1024, 1024),
        (32, 1024, 1024),
        (48, 1024, 1024),
        (64, 1024, 1024),
        (96, 1024, 1024),
        (128, 1024, 1024),
        (192, 1024, 1024),
        (256, 1024, 1024),
        (32, 1024, 4096),
        (32, 4096, 1024),
        (1156, 256, 768),
        (1156, 256, 1024),
        (1156, 1024, 256),
        (512, 32, 96),
        (512, 32, 128),
        (512, 128, 32),
    ];
    for precision in WeightPrecision::ALL {
        let mut group = c.benchmark_group(format!("gemm_{}", precision.label()));
        group.sample_size(10);
        for &(m, k, n) in &SHAPES {
            let x = randn(&[m, k], 31);
            let w = randn(&[n, k], 32);
            let b = randn(&[n], 33);
            // As an InferenceSession holds it: the store's tensor, and at
            // int8 its pack.
            let pack = PackedWeight::pack(&w, precision);
            let name = if m == k && k == n { format!("{n}") } else { format!("{m}x{k}x{n}") };
            group.bench_function(BenchmarkId::from_parameter(name), |bench| {
                bench.iter(|| matmul_bias_act_cached(&x, &w, pack.as_ref(), Some(&b), Activation::Identity))
            });
        }
        if precision == WeightPrecision::F32 {
            let (q, kh) = (randn(&[612, 32], 34), randn(&[612, 32], 35));
            group.bench_function(BenchmarkId::from_parameter("612x32x612_nt"), |bench| bench.iter(|| q.matmul_nt(&kh)));
            // One attention block's `Q_h K_hᵀ`: 48 queries against a
            // 1156-token tile at d_head = 64, the short k of every head.
            let (qb, kb) = (randn(&[48, 64], 38), randn(&[1156, 64], 39));
            group
                .bench_function(BenchmarkId::from_parameter("48x64x1156_nt"), |bench| bench.iter(|| qb.matmul_nt(&kb)));
            let (gz, x) = (randn(&[45, 1024], 36), randn(&[45, 256], 37));
            group
                .bench_function(BenchmarkId::from_parameter("1024x45x256_tn"), |bench| bench.iter(|| gz.matmul_tn(&x)));
            for &(m, k, n) in &IN_PLACE {
                let (x, w, b) = (randn(&[m, k], 31), randn(&[n, k], 32), randn(&[n], 33));
                let name = format!("{m}x{k}x{n}");
                if !SHAPES.contains(&(m, k, n)) {
                    let pack = PackedWeight::pack(&w, precision);
                    group.bench_function(BenchmarkId::from_parameter(&name), |bench| {
                        bench.iter(|| matmul_bias_act_cached(&x, &w, pack.as_ref(), Some(&b), Activation::Identity))
                    });
                }
                group.bench_function(BenchmarkId::new("inplace", &name), |bench| {
                    bench.iter(|| matmul_bias_act_in_place(&x, &w, Some(&b), Activation::Identity))
                });
                group.bench_function(BenchmarkId::new("percall", &name), |bench| bench.iter(|| x.matmul_nt(&w)));
            }
        }
        group.finish();
    }

    let mut group = c.benchmark_group("gemm_ref");
    group.sample_size(10);
    let n = 256usize;
    let (x, w, b) = (randn(&[n, n], 31), randn(&[n, n], 32), randn(&[n], 33));
    let pack = PackedWeight::pack(&w, WeightPrecision::F32).expect("256 output features pack");
    let mut out = vec![0.0f32; n * n];
    group.bench_function(BenchmarkId::from_parameter(n), |bench| {
        bench.iter(|| {
            let la = MatLayout::row_major(n);
            let act = Activation::Identity;
            gemm_strips_ref(x.data(), la, n, &pack, Some(b.data()), act, &mut out, None);
            out[0]
        })
    });
    group.finish();
}

/// Fused linear+GELU epilogue vs the unfused GEMM → bias → GELU chain:
/// the BENCH_kernels.json pair `fused_linear_gelu/N` vs
/// `unfused_linear_gelu/N` records the epilogue-fusion win.
fn bench_fused_linear(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_linear_gelu");
    group.sample_size(10);
    for &n in &[256usize, 512] {
        let x = randn(&[n, n], 11);
        let w = randn(&[n, n], 12);
        let b = randn(&[n], 13);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul_bias_act(&x, &w, Some(&b), Activation::Gelu))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("unfused_linear_gelu");
    group.sample_size(10);
    for &n in &[256usize, 512] {
        let x = randn(&[n, n], 11);
        let w = randn(&[n, n], 12);
        let b = randn(&[n], 13).into_reshape(vec![1, n]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| x.matmul(&w.transpose2()).add(&b).gelu())
        });
    }
    group.finish();
}

/// `Exec::attention`'s default body, the composition both contexts replaced, in
/// tensor ops: per head a slice of each operand, then `matmul_nt →
/// mul_scalar → softmax_last → matmul`, then a concat.
fn composed_attention(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    let dh = q.shape()[1] / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let per_head: Vec<Tensor> = (0..heads)
        .map(|h| {
            let [qh, kh, vh] = [q, k, v].map(|x| x.slice_axis(1, h * dh, dh));
            qh.matmul_nt(&kh).mul_scalar(scale).softmax_last().matmul(&vh)
        })
        .collect();
    Tensor::concat(&per_head.iter().collect::<Vec<_>>(), 1)
}

/// The reference attention (`[S, 64]` single head), then the session's
/// multi-head op against the composition it replaced, on the same operands:
/// one sample of `N` tokens, `D` wide, `h` heads (`attention/fused/NxDhh`
/// beside `attention/composed/NxDhh`; the earliest `BENCH_kernels.json`
/// snapshots of these cells ran two samples per call). `1156x256h4` is a
/// `tiles-field` tile, `512x32h2` the tiny model on a large tile, and
/// `64x1024h16` the 126M model's short sequences, where the blocks are too
/// small to fork (`orbit2_tensor::par::min_items`).
fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention");
    group.sample_size(10);
    for &s in &[256usize, 1024, 4096] {
        let d = 64usize;
        let q = randn(&[s, d], 1);
        let k = randn(&[s, d], 2);
        let v = randn(&[s, d], 3);
        group.bench_with_input(BenchmarkId::new("naive", s), &s, |b, _| b.iter(|| naive_attention(&q, &k, &v)));
    }
    for &(n, d, heads) in &[(1156usize, 256usize, 4usize), (512, 32, 2), (64, 1024, 16)] {
        let [q, k, v] = [4, 5, 6].map(|seed| randn(&[n, d], seed));
        let name = format!("{n}x{d}h{heads}");
        group.bench_function(BenchmarkId::new("fused", &name), |b| b.iter(|| multi_head_attention(&q, &k, &v, heads)));
        group.bench_function(BenchmarkId::new("composed", &name), |b| b.iter(|| composed_attention(&q, &k, &v, heads)));
    }
    // The tape's attention, forward and backward, on a `train-step` tile
    // (60 tokens of the 9.5M model): the node (`tape`) beside the
    // composition it replaced (`tape_composed`).
    let (n, d, heads) = (60usize, 256usize, 4usize);
    let [q, k, v, g] = [7, 8, 9, 10].map(|seed| randn(&[n, d], seed));
    let name = format!("{n}x{d}h{heads}");
    for (cell, node) in [("tape", true), ("tape_composed", false)] {
        group.bench_function(BenchmarkId::new(cell, &name), |b| {
            b.iter(|| {
                let tape = Tape::new();
                let [qv, kv, vv] = [&q, &k, &v].map(|x| tape.leaf(x.clone()));
                let y = if node { qv.attention(kv, vv, heads) } else { tape_composed_attention(qv, kv, vv, heads) };
                let grads = tape.backward(y.mul(tape.constant(g.clone())).sum());
                grads.get(qv).map(|t| t.data()[0])
            })
        });
    }
    group.finish();
}

/// [`composed_attention`] on the tape: the per-head composition the
/// trainer ran before attention was one node.
fn tape_composed_attention<'t>(q: Var<'t>, k: Var<'t>, v: Var<'t>, heads: usize) -> Var<'t> {
    let dh = q.shape()[1] / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let per_head: Vec<Var<'t>> = (0..heads)
        .map(|h| {
            let [qh, kh, vh] = [q, k, v].map(|x| x.slice_axis(1, h * dh, dh));
            qh.matmul_nt(kh).scale(scale).softmax_last().matmul(vh)
        })
        .collect();
    Var::concat(&per_head, 1)
}

/// The two unit-stride transposes the tape pays per call: the
/// column-contiguous `W^T` pack of a `[1024, 256]` linear weight
/// (`pack/wt_1024x256`, the 9.5M model's MLP; a resident pack here, the
/// per-call pack of a tape linear past `fused::IN_PLACE_MAX_ROWS` rows),
/// and the `[60, 1024]` transpose of a weight gradient's A operand
/// (`transpose/60x1024`, `gz^T` of that MLP layer on a 60-token tile).
fn bench_transposes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    group.sample_size(10);
    let w = randn(&[1024, 256], 41);
    group.bench_function(BenchmarkId::from_parameter("wt_1024x256"), |bench| {
        bench.iter(|| PackedWeight::pack(&w, WeightPrecision::F32))
    });
    group.finish();
    let mut group = c.benchmark_group("transpose");
    group.sample_size(10);
    let gz = randn(&[60, 1024], 42);
    group.bench_function(BenchmarkId::from_parameter("60x1024"), |bench| bench.iter(|| gz.transpose2()));
    group.finish();
}

fn bench_layer_norm(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_norm");
    group.sample_size(10);
    for &(rows, d) in &[(1024usize, 256usize), (1156, 256), (4096, 512)] {
        let x = randn(&[rows, d], 21);
        group.bench_with_input(BenchmarkId::from_parameter(format!("{rows}x{d}")), &d, |bench, _| {
            bench.iter(|| layer_norm_rows(x.data(), rows, d, 1e-5))
        });
    }
    group.finish();
}

/// The session's layer norm as it runs — kernel, then `mul(γ)`, then
/// `add(β)`, the affine being two row-broadcast passes — to set beside the
/// bare `layer_norm/1156x256` kernel, and the broadcasting walk itself in
/// its three run modes (`same`: one run of n; `row`: `[R,D]∘[D]`, the right
/// operand pinned; `col`: `[R,1]∘[R,D]`, the left operand repeated) at the
/// `tiles-field` token count. `scripts/bench_smoke.sh` prints `row ÷ same`
/// and `layer_norm_affine ÷ layer_norm` from the one snapshot.
fn bench_elementwise(c: &mut Criterion) {
    let (rows, d) = (1156usize, 256usize);
    let x = randn(&[rows, d], 31);
    let y = randn(&[rows, d], 32);
    let (gamma, beta) = (randn(&[d], 33), randn(&[d], 34));
    let col = randn(&[rows, 1], 35);
    let size = format!("{rows}x{d}");

    let mut group = c.benchmark_group("elementwise");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("same", &size), |bench| bench.iter(|| x.mul(&y)));
    group.bench_function(BenchmarkId::new("row", &size), |bench| bench.iter(|| x.mul(&gamma)));
    group.bench_function(BenchmarkId::new("col", &size), |bench| bench.iter(|| col.mul(&x)));
    group.finish();

    let mut group = c.benchmark_group("layer_norm_affine");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(&size), |bench| {
        bench.iter(|| {
            let (norm, _inv_std) = layer_norm_rows(x.data(), rows, d, 1e-5);
            Tensor::from_vec(vec![rows, d], norm).mul(&gamma).add(&beta)
        })
    });
    group.finish();
}

/// The softmax kernel (`1156x1156` is one `tiles-field` head's score
/// tensor) and what it is made of: `exp/1156x1156` is [`simd::exp`] alone
/// over the same elements, `gelu/1156x1024` and `act_backward/1156x1024` the
/// MLP activation of a `tiles-field` tile outside the GEMM epilogue and on
/// the way back. `scripts/bench_smoke.sh` prints `softmax ÷ layer_norm` at
/// `1024x256` and `fused_linear_gelu ÷ gemm_f32` at 512 from the one
/// snapshot.
///
/// [`simd::exp`]: orbit2_tensor::simd::exp
fn bench_softmax(c: &mut Criterion) {
    let scores = randn(&[1156, 1156], 24);
    let pre = randn(&[1156, 1024], 25);
    let g = randn(&[1156, 1024], 26);
    for (name, size, run) in [
        ("exp", "1156x1156", &(|| scores.exp()) as &dyn Fn() -> Tensor),
        ("gelu", "1156x1024", &|| pre.gelu()),
        ("act_backward", "1156x1024", &|| act_backward(&g, &pre, Activation::Gelu)),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        group.bench_function(BenchmarkId::from_parameter(size), |bench| bench.iter(run));
        group.finish();
    }

    let mut group = c.benchmark_group("softmax");
    group.sample_size(10);
    for &(rows, d) in &[(1024usize, 256usize), (1156, 1156), (4096, 512)] {
        let x = randn(&[rows, d], 22);
        group.bench_with_input(BenchmarkId::from_parameter(format!("{rows}x{d}")), &d, |bench, _| {
            bench.iter(|| {
                let mut buf = x.data().to_vec();
                softmax_rows(&mut buf, d);
                buf
            })
        });
    }
    group.finish();
}

fn bench_bf16(c: &mut Criterion) {
    let mut group = c.benchmark_group("bf16_round");
    group.sample_size(10);
    for &n in &[1usize << 16, 1 << 20] {
        let x = randn(&[n], 23);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut buf = x.data().to_vec();
                bf16_round_slice(&mut buf);
                buf
            })
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_3x3");
    group.sample_size(10);
    for &hw in &[32usize, 64] {
        let x = randn(&[1, 8, hw, hw], 3);
        let w = randn(&[8, 8, 3, 3], 4);
        group.bench_with_input(BenchmarkId::from_parameter(hw), &hw, |bench, _| {
            bench.iter(|| conv2d(&x, &w, None, ConvGeom::same(3)))
        });
    }
    group.finish();
}

/// The convolutions a Reslim forward and backward actually run (the 8→8
/// cells above are kept for trajectory continuity): the residual path's
/// skinny 64→3 on a `tiles-field` tile and its wide 7→64 at coarse
/// resolution, the decoder's 16→3 on the `serve-wire` grid, both gradients
/// of the 64→3 on a `train-step` tile, and the bilinear upsample between
/// the two residual convs.
fn bench_conv_model(c: &mut Criterion) {
    let g = ConvGeom::same(3);
    let mut group = c.benchmark_group("conv2d_model");
    group.sample_size(10);
    for &(name, ci, co, h, w) in &[
        ("64to3_272", 64usize, 3usize, 272usize, 272usize),
        ("16to3_128x256", 16, 3, 128, 256),
        ("7to64_68", 7, 64, 68, 68),
    ] {
        let x = randn(&[1, ci, h, w], 51);
        let wt = randn(&[co, ci, 3, 3], 52);
        let b = randn(&[co], 53);
        group.bench_function(BenchmarkId::from_parameter(name), |bench| bench.iter(|| conv2d(&x, &wt, Some(&b), g)));
    }
    group.finish();

    let x = randn(&[1, 64, 48, 80], 54);
    let wt = randn(&[3, 64, 3, 3], 55);
    let go = randn(&[1, 3, 48, 80], 56);
    let mut group = c.benchmark_group("conv2d_grad");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("input_64to3_48x80"), |bench| {
        bench.iter(|| conv2d_grad_input(&go, &wt, x.shape(), g))
    });
    group.bench_function(BenchmarkId::from_parameter("weight_64to3_48x80"), |bench| {
        bench.iter(|| conv2d_grad_weight(&go, &x, wt.shape(), g))
    });
    // The residual path's first conv on a `train-step` tile (12x20 coarse
    // with its halo): the third weight gradient of a tile job, beside the
    // two 64→3 tails of `weight_64to3_48x80`.
    let x = randn(&[1, 7, 12, 20], 57);
    let wt = randn(&[64, 7, 3, 3], 58);
    let go = randn(&[1, 64, 12, 20], 59);
    group.bench_function(BenchmarkId::from_parameter("weight_7to64_12x20"), |bench| {
        bench.iter(|| conv2d_grad_weight(&go, &x, wt.shape(), g))
    });
    group.finish();

    let hid = randn(&[1, 64, 68, 68], 57);
    let mut group = c.benchmark_group("resize_bilinear");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("64x68to272"), |bench| {
        bench.iter(|| resize(&hid, 272, 272, ResizeMode::Bilinear))
    });
    // The tape's resize on a `train-step` tile: forward, then the adjoint
    // that reads the forward's tap table.
    let coarse = randn(&[1, 64, 12, 20], 58);
    group.bench_function(BenchmarkId::from_parameter("tape_64x12x20to48x80"), |bench| {
        bench.iter(|| {
            let tape = Tape::new();
            let x = tape.leaf(coarse.clone());
            tape.backward(x.resize_bilinear(48, 80).sum())
        })
    });
    group.finish();
}

/// The convolution tail's kernel (`banded`: one `upsample_conv2d`, no
/// upsampled image) against the composition it replaced (`composed`:
/// `resize` then `conv2d`), on the same operands: a `tiles-field` tile's
/// 64→3 at 68² → 272², and the `serve-wire` decoder's 16→3 at 32×64 →
/// 128×256. Then the same tails forward and backward on a fresh tape: the
/// tape's node (`tape/node`, `Var::upsample_conv`) beside the composition
/// it replaced (`tape/composed`). `scripts/bench_smoke.sh` prints banded ÷
/// composed and node ÷ composed.
fn bench_upsample_conv(c: &mut Criterion) {
    let g = ConvGeom::same(3);
    let mut group = c.benchmark_group("upsample_conv");
    group.sample_size(10);
    for &(name, ci, h, w) in &[("64x68to272", 64usize, 68usize, 68usize), ("16x32x64to128x256", 16, 32, 64)] {
        let x = randn(&[1, ci, h, w], 59);
        let wt = randn(&[3, ci, 3, 3], 60);
        let b = randn(&[3], 61);
        group.bench_function(BenchmarkId::new("banded", name), |bench| {
            bench.iter(|| upsample_conv2d(&x, 4 * h, 4 * w, &wt, Some(&b), g))
        });
        group.bench_function(BenchmarkId::new("composed", name), |bench| {
            bench.iter(|| conv2d(&resize(&x, 4 * h, 4 * w, ResizeMode::Bilinear), &wt, Some(&b), g))
        });
        for (cell, node) in [("tape/node", true), ("tape/composed", false)] {
            group.bench_function(BenchmarkId::new(cell, name), |bench| {
                bench.iter(|| {
                    let tape = Tape::new();
                    let [xv, wv, bv] = [&x, &wt, &b].map(|t| tape.leaf(t.clone()));
                    let y = if node {
                        xv.upsample_conv(4 * h, 4 * w, wv, Some(bv), g)
                    } else {
                        xv.resize_bilinear(4 * h, 4 * w).conv2d(wv, Some(bv), g)
                    };
                    let grads = tape.backward(y.sum());
                    grads.get(xv).map(|t| t.data()[0])
                })
            });
        }
    }
    group.finish();
}

fn bench_quadtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("quadtree_build");
    group.sample_size(10);
    for &hw in &[64usize, 128] {
        let field = randn(&[hw * hw], 5).into_vec();
        group.bench_with_input(BenchmarkId::from_parameter(hw), &hw, |bench, _| {
            bench.iter(|| QuadTree::build(&field, hw, hw, QuadTreeParams::default()))
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    use orbit2_fft::fft2::fft2_real;
    let mut group = c.benchmark_group("fft2");
    group.sample_size(10);
    for &hw in &[64usize, 256] {
        let field = randn(&[hw * hw], 6).into_vec();
        group.bench_with_input(BenchmarkId::from_parameter(hw), &hw, |bench, _| {
            bench.iter(|| fft2_real(&field, hw, hw))
        });
    }
    group.finish();
}

fn bench_synth(c: &mut Criterion) {
    use orbit2_climate::synth::{gaussian_random_field, GrfSpec};
    let mut group = c.benchmark_group("synthetic_field");
    group.sample_size(10);
    for &hw in &[64usize, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(hw), &hw, |bench, &hw| {
            bench.iter(|| gaussian_random_field(hw, hw, GrfSpec { slope: 3.0 }, 7))
        });
    }
    group.finish();

    // One `train-step` sample: what every training step, normalizer fit
    // and workload set-up generates.
    let ds = DownscalingDataset::new(LatLonGrid::conus(64, 128), VariableSet::daymet_like(), 4, 40, 1);
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("sample_daymet_64x128"), |bench| bench.iter(|| ds.sample(3)));
    group.finish();
}

/// The sequential composition the fused sweeps replaced, as the in-run
/// reference for `optim/fused`: `average_grad_maps` over the jobs, again
/// over the one-entry accumulation window the trainer then had, a finite
/// scan, then Adam over a tensor per parameter — each a `BTreeMap<String, Tensor>` walk on the
/// calling thread. (`crates/autograd/src/oracle.rs` holds the same code as
/// the bit-identity oracle.)
struct ComposedStep {
    m: GradMap,
    v: GradMap,
    t: u64,
}

impl ComposedStep {
    fn average(maps: &[GradMap]) -> GradMap {
        let inv = 1.0 / maps.len() as f32;
        maps[0]
            .iter()
            .map(|(key, first)| {
                let mut acc = first.clone();
                for m in &maps[1..] {
                    acc.add_(&m[key]);
                }
                acc.scale_(inv);
                (key.clone(), acc)
            })
            .collect()
    }

    fn step(&mut self, params: &mut ParamStore, jobs: &[GradMap]) {
        let total = Self::average(&[Self::average(jobs)]);
        assert!(total.values().all(Tensor::all_finite));
        let (lr, beta1, beta2, eps, weight_decay) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32, 1e-5f32);
        self.t += 1;
        let bc1 = 1.0 - beta1.powf(self.t as f32);
        let bc2 = 1.0 - beta2.powf(self.t as f32);
        for (name, value) in params.iter_mut() {
            let Some(g) = total.get(name) else { continue };
            let zeros = || Tensor::zeros(value.shape().to_vec());
            let m = self.m.entry(name.clone()).or_insert_with(zeros);
            let v = self.v.entry(name.clone()).or_insert_with(zeros);
            let (gd, md, vd, pd) = (g.data(), m.data_mut(), v.data_mut(), value.data_mut());
            for i in 0..gd.len() {
                md[i] = beta1 * md[i] + (1.0 - beta1) * gd[i];
                vd[i] = beta2 * vd[i] + (1.0 - beta2) * gd[i] * gd[i];
                let update = (md[i] / bc1) / ((vd[i] / bc2).sqrt() + eps) + weight_decay * pd[i];
                pd[i] -= lr * update;
            }
        }
    }
}

/// The part of a `train-step` op that is not a model, on that workload's
/// own 9.5M-config parameter set (5.07 M elements in 95 tensors) and 4 TILES
/// jobs: `optim/fused` is what `Trainer::step_batch` runs between backward
/// and the next forward (one reduce sweep into the gradient arena, one
/// Adam sweep); `optim/composed` is the parent's composition on the same
/// inputs, the cell `fused` is read against. `ckpt/save` / `ckpt/load` is
/// one full-state save / load of that trainer state, `ckpt/save_model` /
/// `ckpt/load_model` the same store as a model checkpoint (the container's
/// first two sections), `crc32/16MiB` the checksum alone.
fn bench_training_state(c: &mut Criterion) {
    let model = ReslimModel::new(ModelConfig::paper_9_5m().with_channels(7, 3), 1);
    let jobs: Vec<GradMap> = (0..4)
        .map(|j| {
            model
                .params
                .iter()
                .enumerate()
                .map(|(i, (name, p))| (name.clone(), randn(p.shape(), (100 * j + i) as u64)))
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("optim");
    group.sample_size(10);
    let mut params = model.params.clone();
    let mut grads = GradAccumulator::new(ParamLayout::of(&params));
    let mut opt = Adam::new(1e-3).with_weight_decay(1e-5);
    group.bench_function(BenchmarkId::new("fused", "5M"), |bench| {
        bench.iter(|| {
            assert!(grads.finish(&jobs, None));
            opt.step_accumulated(&mut params, &grads);
        })
    });
    let mut composed_params = model.params.clone();
    let mut composed = ComposedStep { m: GradMap::new(), v: GradMap::new(), t: 0 };
    group.bench_function(BenchmarkId::new("composed", "5M"), |bench| {
        bench.iter(|| composed.step(&mut composed_params, &jobs))
    });
    group.finish();

    let ckpt = TrainerCheckpoint {
        model_cfg: model.cfg,
        params,
        adam: opt.export_state(),
        scaler: GradScaler::default().export_state(),
        progress: ProgressState { global_step: 1, data_cursor: 1 },
    };
    let path = std::env::temp_dir().join(format!("orbit2_bench_{}.ckpt", std::process::id()));
    let mut group = c.benchmark_group("ckpt");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("save", "5M"), |bench| {
        bench.iter(|| save_trainer_state(&ckpt, &path).expect("checkpoint saves"))
    });
    group.bench_function(BenchmarkId::new("load", "5M"), |bench| {
        bench.iter(|| load_trainer_state(&path).expect("checkpoint loads"))
    });
    let trained = ReslimModel { cfg: ckpt.model_cfg, params: ckpt.params.clone() };
    group.bench_function(BenchmarkId::new("save_model", "5M"), |bench| {
        bench.iter(|| save_model(&trained, &path).expect("model saves"))
    });
    group.bench_function(BenchmarkId::new("load_model", "5M"), |bench| {
        bench.iter(|| load_model(&path).expect("model loads"))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);

    let bytes: Vec<u8> = (0..16usize << 20).map(|i| ((i * 31) >> 3) as u8).collect();
    let mut group = c.benchmark_group("crc32");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("16MiB"), |bench| bench.iter(|| crc32(&bytes)));
    group.finish();
}

/// What a parallel call costs before it does any work: an empty two-piece
/// call from each position the rayon shim distinguishes. `caller` is off
/// the registry — both pieces are queued, two workers wake, the caller
/// blocks until they report back: a full wake-and-join round trip, and the
/// time a helper needs before it is of any use. `worker_idle` is on a
/// worker whose siblings are parked: it offers the second piece (one
/// wake-up) and, the pieces being empty, has taken it back before the
/// helper arrives. `worker_busy` is on a worker whose siblings are all
/// held: nobody to offer to, the call runs inline. `orbit2_tensor::par`'s
/// grain constant is set against these three.
fn bench_fork_join(c: &mut Criterion) {
    let fork = || {
        (0..2usize).into_par_iter().for_each(|i| {
            criterion::black_box(i);
        })
    };
    // Time `iters` calls on a worker, each made once `threads` pieces could
    // run there: after an offer the woken sibling counts as busy until it
    // has parked again, and a back-to-back call would find nobody idle.
    let on_worker = move |threads: usize, iters: u64| -> Duration {
        let (done, timed) = channel();
        rayon::spawn(move || {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                while rayon::current_num_threads() != threads {
                    std::hint::spin_loop();
                }
                let start = Instant::now();
                fork();
                total += start.elapsed();
            }
            done.send(total).expect("the bench is waiting");
        });
        timed.recv().expect("the timed job ran")
    };
    let workers = rayon::current_num_threads();
    let mut group = c.benchmark_group("fork_join");
    group.bench_function(BenchmarkId::from_parameter("caller"), |bench| bench.iter(fork));
    group.bench_function(BenchmarkId::from_parameter("worker_idle"), |bench| {
        bench.iter_custom(|iters| on_worker(workers, iters))
    });
    let held: Vec<_> = (1..workers)
        .map(|_| {
            let (release, wait) = channel::<()>();
            rayon::spawn(move || {
                let _ = wait.recv();
            });
            release
        })
        .collect();
    group.bench_function(BenchmarkId::from_parameter("worker_busy"), |bench| {
        bench.iter_custom(|iters| on_worker(1, iters))
    });
    drop(held);
    group.finish();
}

criterion_group!(
    benches,
    bench_fork_join,
    bench_matmul,
    bench_packed_gemm,
    bench_transposes,
    bench_fused_linear,
    bench_attention,
    bench_layer_norm,
    bench_elementwise,
    bench_softmax,
    bench_bf16,
    bench_conv,
    bench_conv_model,
    bench_upsample_conv,
    bench_quadtree,
    bench_fft,
    bench_synth,
    bench_training_state
);
criterion_main!(benches);

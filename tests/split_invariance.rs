//! One property for the whole kernel layer: **a result does not depend on
//! how its parallel call was split.** Since a detached job on a registry
//! worker shares a call with however many siblings happen to be idle, the
//! piece count is a run-time accident; every kernel that forks must produce the same bits
//! under any of them. The table below runs each parallel kernel of
//! `orbit2-tensor` — and `orbit2-autograd`'s `sweep`, through the reduce
//! and the Adam update built on it, which is why the table lives up here —
//! under thread budgets 1, 2 and 3, on one shape below the grain rule's
//! threshold (`orbit2_tensor::par`: the call must stay whole) and one
//! above it (the call is cut in two, and in three).

use orbit2_autograd::params::GradMap;
use orbit2_autograd::{Adam, GradAccumulator, ParamLayout, ParamStore};
use orbit2_tensor::attention::multi_head_attention;
use orbit2_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvGeom};
use orbit2_tensor::fused::{layer_norm_rows, matmul_bias_act, matmul_bias_act_cached, Activation, WeightPrecision};
use orbit2_tensor::par::{GRAIN, MACS_PER_VISIT};
use orbit2_tensor::random::randn;
use orbit2_tensor::resize::{downsample_area, resize, ResizeMode};
use orbit2_tensor::PackedWeight;

/// Every output of one kernel call, as bits.
type Bits = Vec<u32>;

/// A table row: the kernel's name, the kernel at a given amount of work,
/// and the whole grains of work (plus a half) at which three threads cut it
/// in three.
type Row = (&'static str, fn(usize) -> Bits, usize);

fn bits<'a>(outs: impl IntoIterator<Item = &'a [f32]>) -> Bits {
    outs.into_iter().flatten().map(|x| x.to_bits()).collect()
}

/// `[rows, cols]` of about `visits` elements.
fn rows_for(visits: usize, cols: usize) -> usize {
    visits.div_ceil(cols)
}

fn elementwise(visits: usize) -> Bits {
    // Three rows (and 2 x 3 runs): a chunk boundary falls inside a run for
    // two and for three pieces.
    let n = visits / 3 + 1;
    let (a, col) = (randn(&[3, n], 3), randn(&[3, 1], 4));
    let (b, row) = (randn(&[2, 3, n / 2], 5), randn(&[n / 2], 6));
    let mut in_place = a.clone();
    in_place.axpy(0.5, &col);
    bits([a.sub(&col).data(), col.mul(&a).data(), b.add(&row).data(), a.mul(&a).data(), in_place.data()])
}

fn sum(visits: usize) -> Bits {
    // Magnitudes spread over six decades, so a different association of
    // the partials would show in the low bits.
    let t = randn(&[visits + 1], 7);
    let t = t.mul(&t.mul_scalar(3.0).exp());
    vec![t.sum().to_bits(), t.mean().to_bits()]
}

fn gemm(visits: usize) -> Bits {
    // Ragged in every dimension; `visits` counts multiply-adds per vector.
    let (k, n) = (129, 515);
    let m = rows_for(visits * MACS_PER_VISIT, k * n) + 7;
    let (x, w, b) = (randn(&[m, k], 11), randn(&[n, k], 12), randn(&[n], 13));
    let pack = PackedWeight::pack(&w, WeightPrecision::F32);
    let resident = matmul_bias_act_cached(&x, &w, pack.as_ref(), Some(&b), Activation::Gelu);
    let (plain, none) = matmul_bias_act(&x, &w, None, Activation::Identity);
    assert!(none.is_none());
    let (gelu, pre) = matmul_bias_act(&x, &w, Some(&b), Activation::Gelu);
    let pre = pre.expect("gelu keeps its pre-activation");
    bits([resident.data(), plain.data(), gelu.data(), pre.data()])
}

fn bmm(visits: usize) -> Bits {
    let (m, k, n) = (33, 17, 35);
    let batch = rows_for(visits * MACS_PER_VISIT, m * k * n) + 1;
    let (a, b) = (randn(&[batch, m, k], 21), randn(&[1, k, n], 22));
    bits([a.bmm(&b).data()])
}

fn softmax(visits: usize) -> Bits {
    let d = 1156;
    let t = randn(&[rows_for(visits, d) + 1, d], 31).mul_scalar(3.0);
    bits([t.softmax_last().data()])
}

fn layer_norm(visits: usize) -> Bits {
    let d = 257;
    let rows = rows_for(visits, d) + 1;
    let (norm, inv_std) = layer_norm_rows(randn(&[rows, d], 41).data(), rows, d, 1e-5);
    bits([&norm[..], &inv_std[..]])
}

fn resizes(visits: usize) -> Bits {
    // An upsampled plane is four times the work of a downsampled one.
    let (h, w) = (24, 40);
    let small = randn(&[rows_for(visits, 4 * h * w) + 1, h, w], 51);
    let large = randn(&[rows_for(visits, h * w) + 1, h, w], 52);
    let up = |mode| resize(&small, 2 * h, 2 * w, mode);
    bits([up(ResizeMode::Nearest).data(), up(ResizeMode::Bilinear).data(), downsample_area(&large, 2).data()])
}

fn conv(visits: usize) -> Bits {
    let (c, o, h, w, g) = (5, 9, 20, 28, ConvGeom::same(3));
    let n = rows_for(visits * MACS_PER_VISIT, o * c * 9 * h * w) + 1;
    let (x, wt, b) = (randn(&[n, c, h, w], 61), randn(&[o, c, 3, 3], 62), randn(&[o], 63));
    let y = conv2d(&x, &wt, Some(&b), g);
    let go = randn(y.shape(), 64);
    let gi = conv2d_grad_input(&go, &wt, x.shape(), g);
    let gw = conv2d_grad_weight(&go, &x, wt.shape(), g);
    bits([y.data(), gi.data(), gw.data()])
}

fn attention(visits: usize) -> Bits {
    // One parallel call per head over its blocks of query rows: `n` tokens
    // carry `visits`, `5·n²` in the kernel's grain (two 16-wide products
    // and three softmax passes per score). Two heads.
    let (heads, dh) = (2, 16);
    let n = ((visits / 5) as f64).sqrt() as usize + 1;
    let (q, k, v) = (randn(&[n, heads * dh], 91), randn(&[n, heads * dh], 92), randn(&[n, heads * dh], 93));
    bits([multi_head_attention(&q, &k, &v, heads).data()])
}

/// `sweep` twice: the gradient reduce over three jobs, then an Adam step.
fn sweep(visits: usize) -> Bits {
    // Uneven tensors, so a share boundary falls inside one.
    let shapes = [("a", visits / 2 + 3), ("b", 17), ("c", visits / 2 + 1)];
    let mut params = ParamStore::new();
    for (i, (name, len)) in shapes.iter().enumerate() {
        params.insert(*name, randn(&[*len], 70 + i as u64));
    }
    let jobs: Vec<GradMap> = (0..3)
        .map(|j| shapes.iter().map(|(name, len)| (name.to_string(), randn(&[*len], 80 + j))).collect())
        .collect();
    let mut acc = GradAccumulator::new(ParamLayout::of(&params));
    assert!(acc.finish(&jobs, Some(0.5)));
    let mut adam = Adam::new(1e-2);
    adam.step_accumulated(&mut params, &acc);
    let reduced: Vec<&[f32]> = acc.held().map(|(_, g)| g).collect();
    let mut out = bits(reduced);
    out.extend(bits(params.iter().map(|(_, t)| t.data())));
    out
}

#[test]
fn every_parallel_kernel_is_bit_identical_under_any_split() {
    // The GEMM has a floor of its own, sixteen grains, before it is cut.
    let table: [Row; 10] = [
        ("elementwise", elementwise, 3),
        ("sum", sum, 3),
        ("gemm", gemm, 17),
        ("bmm", bmm, 3),
        ("softmax rows", softmax, 3),
        ("layer-norm rows", layer_norm, 3),
        ("resize", resizes, 3),
        ("conv", conv, 3),
        ("sweep", sweep, 3),
        // Blocks are whole items: 4.5 grains is 6 blocks, 2 per piece.
        ("attention", attention, 4),
    ];
    let on = |threads: usize, run: &(dyn Fn() -> Bits + Sync)| {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(run)
    };
    for (name, kernel, above) in table {
        // Half a grain: the call must stay whole whatever the budget.
        for visits in [GRAIN / 2, above * GRAIN + GRAIN / 2] {
            let one = on(1, &|| kernel(visits));
            for threads in [2, 3] {
                assert!(on(threads, &|| kernel(visits)) == one, "{name}: {visits} visits, {threads} threads vs 1");
            }
        }
    }
}

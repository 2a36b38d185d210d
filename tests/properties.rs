//! Property-based tests on cross-crate invariants (proptest).

use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_fft::complex::Complex;
use orbit2_fft::{fft, ifft};
use orbit2_imaging::quadtree::{QuadTree, QuadTreeParams};
use orbit2_imaging::tiles::TileSpec;
use orbit2_metrics::regression::{r2_score, rmse};
use orbit2_metrics::ssim::ssim;
use orbit2_tensor::Tensor;
use proptest::prelude::*;

/// One random convolution problem: `(input shape, weight shape, geometry,
/// seed)`. Channel counts straddle both register-block shapes and their
/// ragged edges; widths run below, at and past one strip of vectors.
fn conv_case() -> impl Strategy<Value = ([usize; 4], [usize; 4], orbit2_tensor::conv::ConvGeom, u64)> {
    use orbit2_tensor::conv::ConvGeom;
    const KERNELS: [(usize, usize); 5] = [(1, 1), (3, 3), (5, 5), (2, 2), (1, 2)];
    ((1usize..=3, 1usize..=9, 1usize..=13), (3usize..=40, 3usize..=40), (0..KERNELS.len(), 0usize..=2), 0u64..1000)
        .prop_map(|((n, c, o), (h, w), (k, pad), seed)| {
            let (kh, kw) = KERNELS[k];
            // 5x5 on a 3-pixel axis needs at least one ring of padding.
            let pad = pad.max(kh.saturating_sub(h.min(w)).div_ceil(2));
            ([n, c, h, w], [o, c, kh, kw], ConvGeom { kh, kw, pad }, seed)
        })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn inner(a: &Tensor, b: &Tensor) -> f64 {
    a.data().iter().zip(b.data()).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn small_field(max_hw: usize) -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (2usize..max_hw, 2usize..max_hw)
        .prop_flat_map(|(h, w)| (proptest::collection::vec(-10.0f32..10.0, h * w), Just(h), Just(w)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fft_roundtrip_recovers_signal(values in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let mut x: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let orig = x.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn tile_split_stitch_is_identity((field, h, w) in small_field(24), c in 1usize..=4, ty in 1usize..4, tx in 1usize..4, halo in 0usize..3) {
        prop_assume!(ty <= h && tx <= w);
        // C channels, each the field plus its channel index.
        let data: Vec<f32> = (0..c).flat_map(|ci| field.iter().map(move |&x| x + ci as f32)).collect();
        let stack = Tensor::from_vec(vec![c, h, w], data);
        let spec = TileSpec { tiles_y: ty, tiles_x: tx, halo };
        let back = stitch_predictions(&split_stack(&stack, spec), h, w, 1);
        prop_assert_eq!(back.shape(), stack.shape());
        prop_assert_eq!(bits(back.data()), bits(stack.data()));
    }

    #[test]
    fn quadtree_always_partitions_exactly((field, h, w) in small_field(32), thresh in 0.0f32..0.5) {
        let params = QuadTreeParams { density_threshold: thresh, ..Default::default() };
        let qt = QuadTree::build(&field, h, w, params);
        prop_assert!(qt.is_exact_partition());
        prop_assert!(qt.token_count() >= 1);
        prop_assert!(qt.token_count() <= h * w);
    }

    #[test]
    fn ssim_bounded_and_identity((field, h, w) in small_field(20)) {
        let s_self = ssim(&field, &field, h, w);
        prop_assert!((s_self - 1.0).abs() < 1e-6);
        let other: Vec<f32> = field.iter().map(|&x| -x + 1.0).collect();
        let s = ssim(&other, &field, h, w);
        prop_assert!((-1.0001..=1.0001).contains(&s));
    }

    #[test]
    fn r2_identity_and_rmse_nonnegative(values in proptest::collection::vec(-50.0f32..50.0, 2..128), noise in 0.0f32..5.0) {
        prop_assume!(values.iter().any(|&v| (v - values[0]).abs() > 1e-3));
        prop_assert!((r2_score(&values, &values) - 1.0).abs() < 1e-9);
        let pred: Vec<f32> = values.iter().enumerate().map(|(i, &v)| v + noise * ((i % 3) as f32 - 1.0)).collect();
        prop_assert!(rmse(&pred, &values) >= 0.0);
        prop_assert!(r2_score(&pred, &values) <= 1.0 + 1e-9);
    }

    #[test]
    fn broadcasting_add_commutes(a_rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let a = orbit2_tensor::random::randn(&[a_rows, cols], seed);
        let b = orbit2_tensor::random::randn(&[cols], seed + 1);
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn area_downsample_conserves_mean((field, _h, _w) in small_field(16)) {
        // Use an even-sized field derived from the generated one.
        let h2 = 8usize;
        let w2 = 8usize;
        let mut data = vec![0.0f32; h2 * w2];
        for (i, v) in data.iter_mut().enumerate() {
            *v = field[i % field.len()];
        }
        let t = Tensor::from_vec(vec![1, h2, w2], data);
        let d = orbit2_tensor::resize::downsample_area(&t, 2);
        prop_assert!((t.mean() - d.mean()).abs() < 1e-4);
    }

    #[test]
    fn latitude_weights_mean_one(h in 2usize..64, w in 1usize..8) {
        let g = orbit2_climate::LatLonGrid::global(h, w);
        let weights = g.latitude_weights();
        let mean: f32 = weights.iter().sum::<f32>() / weights.len() as f32;
        prop_assert!((mean - 1.0).abs() < 1e-4);
        prop_assert!(weights.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn matmul_distributes_over_addition(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..100) {
        let a = orbit2_tensor::random::randn(&[m, k], seed);
        let b = orbit2_tensor::random::randn(&[k, n], seed + 1);
        let c = orbit2_tensor::random::randn(&[k, n], seed + 2);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn conv2d_is_linear_in_input(hw in 4usize..10, seed in 0u64..100, alpha in -3.0f32..3.0) {
        use orbit2_tensor::conv::{conv2d, ConvGeom};
        let x = orbit2_tensor::random::randn(&[1, 2, hw, hw], seed);
        let w = orbit2_tensor::random::randn(&[3, 2, 3, 3], seed + 1);
        let g = ConvGeom::same(3);
        let scaled_out = conv2d(&x.mul_scalar(alpha), &w, None, g);
        let out_scaled = conv2d(&x, &w, None, g).mul_scalar(alpha);
        prop_assert!(scaled_out.max_abs_diff(&out_scaled) < 1e-3);
    }

    #[test]
    fn direct_conv_matches_reference((xs, ws, g, seed) in conv_case()) {
        // Bit for bit; the header of `crates/tensor/src/conv.rs` says why.
        use orbit2_tensor::conv::{conv2d, conv2d_ref, ConvGeom};
        // Planted underflow: every real tap of output (2, 2) rounds to a
        // signed zero (`fma(-0.25, 2^-149, +0)` is -0.0), so its sign is
        // decided by the padded taps' zeros, added after the last real tap.
        let tiny = Tensor::from_vec(vec![1, 1, 3, 3], vec![f32::from_bits(1); 9]);
        let alt = Tensor::from_vec(vec![1, 1, 3, 3], (0..9).map(|i| [-0.25, 0.25][i % 2]).collect());
        let g3 = ConvGeom { kh: 3, kw: 3, pad: 1 };
        let (y, want) = (conv2d(&tiny, &alt, None, g3), conv2d_ref(&tiny, &alt, None, g3));
        prop_assert!(bits(y.data()) == bits(want.data()), "planted underflow: {:?} vs {:?}", y.data(), want.data());
        let x = orbit2_tensor::random::randn(&xs, seed);
        let w = orbit2_tensor::random::randn(&ws, seed + 1);
        let b = orbit2_tensor::random::randn(&[ws[0]], seed + 2);
        for b in [Some(&b), None] {
            let (y, want) = (conv2d(&x, &w, b, g), conv2d_ref(&x, &w, b, g));
            prop_assert_eq!(y.shape(), want.shape());
            prop_assert!(bits(y.data()) == bits(want.data()), "{xs:?} {ws:?} {g:?} bias {}", b.is_some());
        }
    }

    #[test]
    fn conv_gradients_are_adjoints_of_the_forward((xs, ws, g, seed) in conv_case()) {
        // <conv(x, w), go> = <x, grad_input(go, w)> = <w, grad_weight(go, x)>
        use orbit2_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight};
        let x = orbit2_tensor::random::randn(&xs, seed);
        let w = orbit2_tensor::random::randn(&ws, seed + 1);
        let y = conv2d(&x, &w, None, g);
        let go = orbit2_tensor::random::randn(y.shape(), seed + 2);
        let lhs = inner(&y, &go);
        let via_x = inner(&x, &conv2d_grad_input(&go, &w, &xs, g));
        let via_w = inner(&w, &conv2d_grad_weight(&go, &x, &ws, g));
        let tol = 1e-3 * lhs.abs().max(1.0);
        prop_assert!((lhs - via_x).abs() <= tol, "{xs:?} {ws:?} {g:?}: {lhs} vs grad_input {via_x}");
        prop_assert!((lhs - via_w).abs() <= tol, "{xs:?} {ws:?} {g:?}: {lhs} vs grad_weight {via_w}");
    }

    #[test]
    fn conv_kernels_do_not_depend_on_the_work_split((xs, ws, g, seed) in conv_case()) {
        use orbit2_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight};
        let xs = [2, xs[1], xs[2], xs[3]];
        let x = orbit2_tensor::random::randn(&xs, seed);
        let w = orbit2_tensor::random::randn(&ws, seed + 1);
        let b = orbit2_tensor::random::randn(&[ws[0]], seed + 2);
        let all = |x: &Tensor, go: Option<&Tensor>| {
            let y = conv2d(x, &w, Some(&b), g);
            let go = go.cloned().unwrap_or_else(|| orbit2_tensor::random::randn(y.shape(), seed + 3));
            let gi = conv2d_grad_input(&go, &w, x.shape(), g);
            let gw = conv2d_grad_weight(&go, x, &ws, g);
            (y, go, gi, gw)
        };
        // Thread count: one piece per call vs the default pool's split.
        let (y, go, gi, gw) = all(&x, None);
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (y1, _, gi1, gw1) = one.install(|| all(&x, Some(&go)));
        prop_assert_eq!(y.data(), y1.data());
        prop_assert_eq!(gi.data(), gi1.data());
        prop_assert_eq!(gw.data(), gw1.data());
        // Batch: an N=2 call is its two N=1 calls (summed, for the weight).
        let halves: Vec<_> = (0..2)
            .map(|i| all(&x.slice_axis(0, i, 1), Some(&go.slice_axis(0, i, 1))))
            .collect();
        for (i, (yi, _, gii, _)) in halves.iter().enumerate() {
            prop_assert!(y.slice_axis(0, i, 1).data() == yi.data());
            prop_assert!(gi.slice_axis(0, i, 1).data() == gii.data());
        }
        let gw_sum = halves[0].3.add(&halves[1].3);
        prop_assert_eq!(gw.data(), gw_sum.data());
    }

    #[test]
    fn autograd_gradients_are_linear_in_loss_scale(seed in 0u64..200, scale in 0.1f32..8.0) {
        use orbit2_autograd::Tape;
        let x0 = orbit2_tensor::random::randn(&[5], seed);
        let grad_at = |s: f32| {
            let tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let loss = x.gelu().square().sum().scale(s);
            tape.backward(loss).get(x).unwrap().clone()
        };
        let g1 = grad_at(1.0);
        let gs = grad_at(scale);
        prop_assert!(gs.max_abs_diff(&g1.mul_scalar(scale)) < 1e-3 * (1.0 + scale));
    }

    #[test]
    fn transpose_is_involution(r in 1usize..8, c in 1usize..8, seed in 0u64..100) {
        let a = orbit2_tensor::random::randn(&[r, c], seed);
        let roundtrip = a.transpose2().transpose2();
        prop_assert_eq!(roundtrip.data(), a.data());
    }

    #[test]
    fn bf16_round_is_idempotent_and_bounded(values in proptest::collection::vec(-1e6f32..1e6, 1..64)) {
        use orbit2_tensor::bf16::bf16_round;
        for &v in &values {
            let q = bf16_round(v);
            prop_assert_eq!(bf16_round(q), q);
            if v != 0.0 {
                prop_assert!(((q - v) / v).abs() <= 1.0 / 256.0);
            }
        }
    }

    #[test]
    fn packed_matmul_matches_reference_oracle(
        (m, k, n) in (1usize..20, 1usize..70, 1usize..140),
        (layout, act) in (0usize..3, 0usize..2),
        (with_bias, want_pre) in (0usize..2, 0usize..2),
        seed in 0u64..1000,
    ) {
        // The one GEMM driver against a resident int8 pack, vector kernel
        // against scalar oracle, bit for bit: ragged shapes straddle the
        // 6-row panel, every strip width (16 / 32 / 64 columns, one strip
        // and several) and the 16-lane store groups, over every operand
        // layout and epilogue. `qgemm`'s own tests run the f32 strips.
        use orbit2_tensor::fused::Activation;
        use orbit2_tensor::qgemm::{gemm_strips, gemm_strips_ref, PackedWeight};
        use orbit2_tensor::random::randn;
        use orbit2_tensor::MatLayout;
        // nn: A [m,k] · B [k,n]; nt: A [m,k] · (B [n,k])^T; tn: (A [k,m])^T · B [k,n].
        let (la, lb) = match layout {
            0 => (MatLayout::row_major(k), MatLayout::row_major(n)),
            1 => (MatLayout::row_major(k), MatLayout::transposed(k)),
            _ => (MatLayout::transposed(m), MatLayout::row_major(n)),
        };
        let a = randn(&[m * k], seed);
        let b = randn(&[k * n], seed + 1);
        let bias = randn(&[n], seed + 2);
        let bias = (with_bias == 1).then(|| bias.data());
        let act = [Activation::Identity, Activation::Gelu][act];
        let pw = PackedWeight::from_layout(b.data(), lb, k, n);

        let (mut c_vec, mut c_ref) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        let (mut p_vec, mut p_ref) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        let want_pre = want_pre == 1;
        gemm_strips(a.data(), la, m, &pw, bias, act, &mut c_vec, want_pre.then_some(&mut p_vec[..]));
        gemm_strips_ref(a.data(), la, m, &pw, bias, act, &mut c_ref, want_pre.then_some(&mut p_ref[..]));
        prop_assert_eq!(bits(&c_vec), bits(&c_ref));
        prop_assert_eq!(bits(&p_vec), bits(&p_ref));
        prop_assert!(c_vec.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn in_place_linear_matches_resident_pack(
        (m, k, n) in (1usize..80, 1usize..300, 1usize..140),
        (act, with_bias) in (0usize..2, 0usize..2),
        seed in 0u64..1000,
    ) {
        // The f32 linear's reads on the same operands, bit for bit: the
        // weight in place at any row count, the tape's linear and the
        // session's with no pack (both in place up to the row constant, a
        // per-call `W^T` pack past it), and, with no bias or activation,
        // the per-call pack of `matmul_nt` at any row count. `m` runs past
        // the row constant and straddles every strip width of `x^T`; `n`
        // straddles the weight's 6-row panels.
        use orbit2_tensor::fused::{matmul_bias_act, matmul_bias_act_cached, matmul_bias_act_in_place, Activation};
        use orbit2_tensor::random::randn;
        let (x, w, b) = (randn(&[m, k], seed), randn(&[n, k], seed + 1), randn(&[n], seed + 2));
        let bias = (with_bias == 1).then_some(&b);
        let act = [Activation::Identity, Activation::Gelu][act];
        let in_place = matmul_bias_act_in_place(&x, &w, bias, act);
        let (tape, _) = matmul_bias_act(&x, &w, bias, act);
        prop_assert_eq!(bits(tape.data()), bits(in_place.data()));
        let session = matmul_bias_act_cached(&x, &w, None, bias, act);
        prop_assert_eq!(bits(session.data()), bits(in_place.data()));
        // `n = 1` is the mat-vec path, not a pack.
        if bias.is_none() && act == Activation::Identity && n > 1 {
            prop_assert_eq!(bits(x.matmul_nt(&w).data()), bits(in_place.data()));
        }
    }

    #[test]
    fn nt_tn_kernels_match_materialized_transposes(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u64..1000) {
        let a = orbit2_tensor::random::randn(&[m, k], seed);
        let bt = orbit2_tensor::random::randn(&[n, k], seed + 1);
        let nt = a.matmul_nt(&bt);
        prop_assert!(nt.max_abs_diff(&a.matmul(&bt.transpose2())) < 1e-3 * (k as f32).sqrt());
        let at = orbit2_tensor::random::randn(&[k, m], seed + 2);
        let b = orbit2_tensor::random::randn(&[k, n], seed + 3);
        let tn = at.matmul_tn(&b);
        prop_assert!(tn.max_abs_diff(&at.transpose2().matmul(&b)) < 1e-3 * (k as f32).sqrt());
    }

    #[test]
    fn fused_linear_gelu_matches_unfused(m in 1usize..32, k in 1usize..24, n in 1usize..32, seed in 0u64..1000) {
        use orbit2_tensor::fused::{matmul_bias_act, Activation};
        let x = orbit2_tensor::random::randn(&[m, k], seed);
        let w = orbit2_tensor::random::randn(&[n, k], seed + 1);
        let b = orbit2_tensor::random::randn(&[n], seed + 2);
        let (y, pre) = matmul_bias_act(&x, &w, Some(&b), Activation::Gelu);
        let pre_ref = x.matmul(&w.transpose2()).add(&b.into_reshape(vec![1, n]));
        let y_ref = pre_ref.gelu();
        prop_assert!(y.max_abs_diff(&y_ref) < 1e-3 * (k as f32).sqrt());
        prop_assert!(pre.unwrap().max_abs_diff(&pre_ref) < 1e-3 * (k as f32).sqrt());
    }

    #[test]
    fn fused_layer_norm_matches_two_pass(rows in 1usize..12, d in 2usize..48, seed in 0u64..1000) {
        use orbit2_tensor::fused::layer_norm_rows;
        let x = orbit2_tensor::random::randn(&[rows, d], seed).mul_scalar(3.0).add_scalar(5.0);
        let (norm, inv_std) = layer_norm_rows(x.data(), rows, d, 1e-5);
        for r in 0..rows {
            let row = &x.data()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let is = 1.0 / (var + 1e-5).sqrt();
            prop_assert!((inv_std[r] - is).abs() < 1e-2 * is, "row {} inv_std", r);
            for (j, &nv) in norm[r * d..(r + 1) * d].iter().enumerate() {
                prop_assert!((nv - (row[j] - mean) * is).abs() < 1e-2, "row {} col {}", r, j);
            }
        }
    }

    #[test]
    fn fused_softmax_matches_unfused(rows in 1usize..10, d in 1usize..40, seed in 0u64..1000) {
        use orbit2_tensor::fused::softmax_rows;
        let x = orbit2_tensor::random::randn(&[rows, d], seed).mul_scalar(4.0);
        let mut buf = x.data().to_vec();
        softmax_rows(&mut buf, d);
        let reference = x.softmax_last();
        for (a, b) in buf.iter().zip(reference.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn bf16_slice_matches_scalar_map(values in proptest::collection::vec(-1e6f32..1e6, 1..96)) {
        use orbit2_tensor::bf16::{bf16_round, bf16_round_slice};
        let mut rounded = values.clone();
        bf16_round_slice(&mut rounded);
        for (&orig, &got) in values.iter().zip(&rounded) {
            prop_assert_eq!(got.to_bits(), bf16_round(orig).to_bits());
        }
    }

    #[test]
    fn cow_clone_mutation_never_changes_original((field, h, w) in small_field(16), s in -2.0f32..2.0) {
        // Tensors share storage on clone; any mutation path (in-place ops or
        // raw data_mut) must fault the clone into private storage first.
        let original = Tensor::from_vec(vec![h, w], field.clone());
        let mut cloned = original.clone();
        cloned.scale_(s);
        cloned.add_(&original);
        for v in cloned.data_mut() {
            *v += 1.0;
        }
        prop_assert_eq!(original.data(), &field[..]);
        // And the reverse direction: mutating the original leaves the clone alone.
        let snapshot = cloned.clone();
        let mut orig2 = original;
        orig2.scale_(0.0);
        prop_assert_eq!(cloned.data(), snapshot.data());
    }

    #[test]
    fn grad_scaler_unscale_is_inverse(scale_pow in 1u32..16, values in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        // The trainer's unscale: one job's gradient reduced with `1 / scale`
        // folded in, then the finite flag handed to the scaler.
        use orbit2_autograd::{GradAccumulator, GradScaler, ParamLayout, ParamStore};
        let scale = (1u32 << scale_pow) as f32;
        let mut scaler = GradScaler::new(scale);
        let n = values.len();
        let mut store = ParamStore::new();
        store.insert("w", Tensor::zeros(vec![n]));
        let mut grads = orbit2_autograd::params::GradMap::new();
        let scaled: Vec<f32> = values.iter().map(|&v| v * scale).collect();
        grads.insert("w".into(), Tensor::from_vec(vec![n], scaled));
        let mut acc = GradAccumulator::new(ParamLayout::of(&store));
        let finite = acc.finish(&[grads], Some(1.0 / scaler.scale()));
        scaler.record(finite);
        prop_assert!(finite);
        prop_assert_eq!(scaler.scale(), scale);
        let (_, unscaled) = acc.held().next().unwrap();
        for (a, b) in unscaled.iter().zip(&values) {
            prop_assert!((a - b).abs() <= 1e-2 * (1.0 + b.abs()));
        }
    }
}

/// The thread-local buffer pool must hand back previously freed storage
/// instead of allocating fresh buffers once the workload becomes steady-state
/// (satellite acceptance test: allocation counter observes reuse).
#[test]
fn buffer_pool_recycles_freed_buffers() {
    use orbit2_tensor::pool;
    if std::env::var_os("ORBIT2_DISABLE_POOL").is_some() {
        return; // Pool explicitly disabled; nothing to assert.
    }
    pool::clear();
    pool::reset_stats();
    for step in 0..8u64 {
        let t = orbit2_tensor::random::randn(&[32, 32], step);
        let u = t.add(&t).mul(&t);
        assert_eq!(u.len(), 32 * 32);
        // `t` and `u` drop here; their buffers recycle into the pool and the
        // next iteration's allocations of the same capacity must reuse them.
    }
    let stats = pool::stats();
    assert!(stats.reuses > 0, "expected pooled buffer reuse after repeated same-shape allocations, got {stats:?}");
    assert!(stats.fresh_allocs < 8 * 3, "fresh allocations not amortized: {stats:?}");
}

//! Fused neural-network ops with hand-written adjoints: linear layers,
//! attention, layer normalization, 2-d convolution, the convolution tail
//! (bilinear upsample, then convolution, as one node), bilinear resize and
//! token pooling.

use crate::tape::Var;
use orbit2_tensor::attention::multi_head_attention;
use orbit2_tensor::conv::{conv2d, conv2d_grad_bias, conv2d_grad_input, conv2d_grad_weight, upsample_conv2d, ConvGeom};
use orbit2_tensor::fused::{act_backward, layer_norm_rows, matmul_bias_act, Activation};
use orbit2_tensor::pool;
use orbit2_tensor::resize::{bilinear_taps, resize, ResizeMode};
use orbit2_tensor::simd;
use orbit2_tensor::Tensor;

impl<'t> Var<'t> {
    /// Affine map `self [N, I] @ weight^T [I, O] + bias [O]`.
    ///
    /// Weight layout is `[O, I]` (PyTorch convention). Routed through the
    /// fused GEMM epilogue with an identity activation.
    pub fn linear(&self, weight: Var<'t>, bias: Option<Var<'t>>) -> Var<'t> {
        self.linear_act(weight, bias, Activation::Identity)
    }

    /// Fused linear layer: `act(self @ weight^T + bias)` in one kernel.
    ///
    /// The bias add and activation run in the GEMM's store
    /// ([`matmul_bias_act`], which reads a short product's weight in place);
    /// the pre-activation is kept on the tape so the backward pass evaluates
    /// `act'` without recomputing the GEMM. Backward products (`gz W`,
    /// `gz^T x`) use the stride-aware kernels.
    pub fn linear_act(&self, weight: Var<'t>, bias: Option<Var<'t>>, act: Activation) -> Var<'t> {
        let x = self.value();
        let w = weight.value();
        let bt = bias.map(|b| b.value());
        let (y, pre) = matmul_bias_act(&x, &w, bt.as_ref(), act);
        let (xid, wid) = (self.id(), weight.id());
        // As in `conv2d`: an untracked operand (the patch embedding's
        // constant patches) gets no gradient computed.
        let (x_tracked, w_tracked) = (self.tracked(), weight.tracked());
        let bid = bias.filter(Var::tracked).as_ref().map(Var::id);
        self.tape().record(
            y,
            x_tracked || w_tracked || bid.is_some(),
            Box::new(move |g| {
                // gz = g ⊙ act'(pre); identity has no stored pre.
                let gz = match &pre {
                    Some(p) => act_backward(g, p, act),
                    None => g.clone(),
                };
                let mut grads = Vec::with_capacity(3);
                if x_tracked {
                    grads.push((xid, gz.matmul(&w))); // [m,n] @ [n,k] = x-grad
                }
                if w_tracked {
                    grads.push((wid, gz.matmul_tn(&x))); // gz^T x = w-grad [n,k]
                }
                if let Some(bid) = bid {
                    grads.push((bid, gz.sum_axis(0)));
                }
                grads
            }),
        )
    }

    /// Multi-head scaled-dot-product attention of one sample: `self` is Q,
    /// and Q, K and V are `[N, D]` with `heads` dividing `D`.
    ///
    /// One node in place of the per-head composition (per head, `slice_axis`
    /// of each operand, `matmul_nt → scale(1/√d_h) → softmax_last → matmul`,
    /// then a `concat`), bit for bit in value and gradients. The forward is
    /// the session's blocked kernel ([`multi_head_attention`]), and the node
    /// keeps Q, K and V, no N×N tensor. Backward recomputes one head's
    /// probabilities at a time with the composition's own tensor calls, then
    /// runs its adjoints in its order: `dP` and `dV_h` from `P·V_h`, the
    /// softmax's `(g − Σ g⊙P)⊙P`, the `1/√d_h` scale, `dQ_h` and `dK_h`
    /// from `Q_h·K_hᵀ`. Each head's gradient goes straight into its columns.
    /// Q, K and V are three distinct nodes; an aliased pair would get the
    /// same sum accumulated in another order.
    pub fn attention(&self, k: Var<'t>, v: Var<'t>, heads: usize) -> Var<'t> {
        let (qt, kt, vt) = (self.value(), k.value(), v.value());
        let y = multi_head_attention(&qt, &kt, &vt, heads);
        let (n, d) = (qt.shape()[0], qt.shape()[1]);
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let ids = [self, &k, &v].map(Var::id);
        let tracked = [self, &k, &v].map(Var::tracked);
        // The composition sums zero-padded per-head gradients, so with two or
        // more heads every column gains a `+ 0.0`, which turns −0.0 into
        // +0.0; `x + (−0.0)` is `x`, bit for bit.
        let pad = if heads > 1 { 0.0 } else { -0.0 };
        self.tape().record(
            y,
            tracked.contains(&true),
            Box::new(move |g| {
                let mut grads = tracked.map(|t| t.then(|| pool::alloc_uninit(n * d)));
                for h in 0..heads {
                    let c0 = h * dh;
                    let [qh, kh, vh, gh] = [&qt, &kt, &vt, g].map(|x| x.slice_axis(1, c0, dh));
                    let p = qh.matmul_nt(&kh).mul_scalar(scale).softmax_last();
                    let mut parts = [None, None, tracked[2].then(|| p.matmul_tn(&gh))];
                    if tracked[0] || tracked[1] {
                        let dp = gh.matmul_nt(&vh);
                        let dot = dp.mul(&p).sum_axis(1).into_reshape(vec![n, 1]);
                        let ds = dp.sub(&dot).mul(&p).mul_scalar(scale);
                        parts[0] = tracked[0].then(|| ds.matmul(&kh));
                        parts[1] = tracked[1].then(|| ds.matmul_tn(&qh));
                    }
                    for (full, part) in grads.iter_mut().zip(&parts) {
                        let (Some(full), Some(part)) = (full, part) else { continue };
                        for (row, src) in full.chunks_exact_mut(d).zip(part.data().chunks_exact(dh)) {
                            for (o, &x) in row[c0..c0 + dh].iter_mut().zip(src) {
                                *o = x + pad;
                            }
                        }
                    }
                }
                ids.into_iter()
                    .zip(grads)
                    .filter_map(|(id, gr)| Some((id, Tensor::from_vec(vec![n, d], gr?))))
                    .collect()
            }),
        )
    }

    /// Layer normalization over the last axis with affine parameters.
    ///
    /// `gamma`/`beta` have the shape of the last axis. The forward pass is
    /// the one-pass Welford kernel ([`layer_norm_rows`]).
    pub fn layer_norm(&self, gamma: Var<'t>, beta: Var<'t>, eps: f32) -> Var<'t> {
        let v = self.value();
        let last = v.ndim() - 1;
        let d = v.shape()[last];
        let rows = v.len() / d;

        let (norm, inv_std) = layer_norm_rows(v.data(), rows, d, eps);
        let norm_t = Tensor::from_vec(v.shape().to_vec(), norm);
        let norm_c = norm_t.clone();

        // Record the normalization as a custom op, then the affine part with
        // ordinary tape ops (so gamma/beta grads come for free).
        let pid = self.id();
        let shape = v.shape().to_vec();
        let normalized = self.tape().record(
            norm_t,
            self.tracked(),
            Box::new(move |g| {
                // d/dx of x_hat: (g - mean(g) - x_hat * mean(g * x_hat)) * inv_std
                let gd = g.data();
                let nd = norm_c.data();
                let mut out = pool::alloc_uninit(gd.len());
                for r in 0..rows {
                    let gs = &gd[r * d..(r + 1) * d];
                    let ns = &nd[r * d..(r + 1) * d];
                    let mg = simd::sum(gs) / d as f32;
                    let mgx = simd::dot(gs, ns) / d as f32;
                    for ((o, &gv), &nv) in out[r * d..(r + 1) * d].iter_mut().zip(gs).zip(ns) {
                        *o = (gv - mg - nv * mgx) * inv_std[r];
                    }
                }
                vec![(pid, Tensor::from_vec(shape.clone(), out))]
            }),
        );
        normalized.mul(gamma).add(beta)
    }

    /// 2-d convolution: `self [N,C,H,W] * weight [O,C,KH,KW] (+ bias [O])`.
    pub fn conv2d(&self, weight: Var<'t>, bias: Option<Var<'t>>, geom: ConvGeom) -> Var<'t> {
        self.conv_node(None, weight, bias, geom)
    }

    /// A convolution tail, `self.resize_bilinear(oh, ow).conv2d(w, bias,
    /// geom)` as one node, bit for bit in value and gradients. The forward
    /// is the session's banded kernel ([`upsample_conv2d`]), which never
    /// builds the upsampled image; backward rebuilds it once for the weight
    /// gradient. The tape stores the resize node's lone contribution as it
    /// is, so folding that node away drops no rounding.
    pub fn upsample_conv(&self, oh: usize, ow: usize, w: Var<'t>, bias: Option<Var<'t>>, geom: ConvGeom) -> Var<'t> {
        self.conv_node(Some((oh, ow)), w, bias, geom)
    }

    /// The node of [`Var::conv2d`] and, with `up` the bilinear resize target
    /// of `self`, of [`Var::upsample_conv`]: the composition's adjoints in
    /// its order, the resize's last.
    fn conv_node(&self, up: Option<(usize, usize)>, weight: Var<'t>, bias: Option<Var<'t>>, geom: ConvGeom) -> Var<'t> {
        let x = self.value();
        let w = weight.value();
        let bt = bias.map(|b| b.value());
        let y = match up {
            Some((oh, ow)) => upsample_conv2d(&x, oh, ow, &w, bt.as_ref(), geom),
            None => conv2d(&x, &w, bt.as_ref(), geom),
        };
        let (in_h, in_w) = (x.shape()[2], x.shape()[3]);
        let (oh, ow) = up.unwrap_or((in_h, in_w));
        let (xid, wid) = (self.id(), weight.id());
        let conv_shape = [x.shape()[0], x.shape()[1], oh, ow];
        let w_shape = w.shape().to_vec();
        // The tape drops gradients of untracked parents, so an operand that
        // is a constant (the residual path's input) gets none computed.
        let (x_tracked, w_tracked) = (self.tracked(), weight.tracked());
        let bid = bias.filter(Var::tracked).as_ref().map(Var::id);
        self.tape().record(
            y,
            x_tracked || w_tracked || bid.is_some(),
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(3);
                if w_tracked {
                    let img = if up.is_some() { resize(&x, oh, ow, ResizeMode::Bilinear) } else { x.clone() };
                    grads.push((wid, conv2d_grad_weight(g, &img, &w_shape, geom)));
                }
                if let Some(bid) = bid {
                    grads.push((bid, conv2d_grad_bias(g)));
                }
                if x_tracked {
                    let gx = conv2d_grad_input(g, &w, &conv_shape, geom);
                    grads.push((xid, if up.is_some() { bilinear_adjoint(&gx, in_h, in_w) } else { gx }));
                }
                grads
            }),
        )
    }

    /// Bilinear resize of the trailing two axes to `(out_h, out_w)`.
    pub fn resize_bilinear(&self, out_h: usize, out_w: usize) -> Var<'t> {
        let x = self.value();
        let nd = x.ndim();
        let (in_h, in_w) = (x.shape()[nd - 2], x.shape()[nd - 1]);
        let y = resize(&x, out_h, out_w, ResizeMode::Bilinear);
        let pid = self.id();
        self.tape().record(y, self.tracked(), Box::new(move |g| vec![(pid, bilinear_adjoint(g, in_h, in_w))]))
    }

    /// Pool rows of a 2-d var into groups by averaging: `out[i] = mean of
    /// self[j] for j in groups[i]`. The decompression adjoint scatters the
    /// gradient back uniformly. This is the quad-tree token pooling of
    /// Reslim's adaptive spatial compression. The groups arrive `Arc`-shared
    /// (built once per compression plan) and the backward closure holds a
    /// pointer clone, not a deep copy.
    pub fn pool_rows(&self, groups: std::sync::Arc<[Vec<usize>]>) -> Var<'t> {
        let v = self.value();
        let (rows, cols) = (v.shape()[0], v.shape()[1]);
        let y = v.pool_rows(&groups);
        let pid = self.id();
        self.tape().record(
            y,
            self.tracked(),
            Box::new(move |g| {
                let gd = g.data();
                let mut out = pool::alloc_zeroed(rows * cols);
                for (gi, group) in groups.iter().enumerate() {
                    let inv = 1.0 / group.len() as f32;
                    let gs = &gd[gi * cols..(gi + 1) * cols];
                    for &r in group {
                        for (d, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(gs) {
                            *d += x * inv;
                        }
                    }
                }
                vec![(pid, Tensor::from_vec(vec![rows, cols], out))]
            }),
        )
    }

    /// Unpool grouped rows back to the original token set: `out[j] =
    /// self[i]` for every `j in groups[i]` (the inverse scatter of
    /// [`Var::pool_rows`], used by the decompression stage).
    pub fn unpool_rows(&self, groups: std::sync::Arc<[Vec<usize>]>, total_rows: usize) -> Var<'t> {
        let v = self.value();
        let cols = v.shape()[1];
        let y = v.unpool_rows(&groups, total_rows);
        let pid = self.id();
        let n_groups = groups.len();
        self.tape().record(
            y,
            self.tracked(),
            Box::new(move |g| {
                let gd = g.data();
                let mut out = pool::alloc_zeroed(n_groups * cols);
                for (gi, group) in groups.iter().enumerate() {
                    let dst = &mut out[gi * cols..(gi + 1) * cols];
                    for &r in group {
                        for (d, &x) in dst.iter_mut().zip(&gd[r * cols..(r + 1) * cols]) {
                            *d += x;
                        }
                    }
                }
                vec![(pid, Tensor::from_vec(vec![n_groups, cols], out))]
            }),
        )
    }
}

/// Adjoint of bilinear interpolation with half-pixel centers: distributes
/// each output gradient onto its four source pixels with the interpolation
/// weights, read from the forward's tap table, in `(l, oy, ox)` order.
fn bilinear_adjoint(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
    let nd = grad_out.ndim();
    let (oh, ow) = (grad_out.shape()[nd - 2], grad_out.shape()[nd - 1]);
    let lead: usize = grad_out.shape()[..nd - 2].iter().product();
    let (ys, xs) = (bilinear_taps(oh, in_h), bilinear_taps(ow, in_w));
    let god = grad_out.data();
    let mut out = pool::alloc_zeroed(lead * in_h * in_w);
    for l in 0..lead {
        let gplane = &god[l * oh * ow..(l + 1) * oh * ow];
        let oplane = &mut out[l * in_h * in_w..(l + 1) * in_h * in_w];
        for (oy, &(y0, y1, wy)) in ys.iter().enumerate() {
            let (r0, r1) = (y0 * in_w, y1 * in_w);
            let a = 1.0 - wy;
            for (&g, &(x0, x1, wx)) in gplane[oy * ow..][..ow].iter().zip(&xs) {
                let b = 1.0 - wx;
                oplane[r0 + x0] += g * a * b;
                oplane[r0 + x1] += g * a * wx;
                oplane[r1 + x0] += g * wy * b;
                oplane[r1 + x1] += g * wy * wx;
            }
        }
    }
    let mut shape = grad_out.shape().to_vec();
    shape[nd - 2] = in_h;
    shape[nd - 1] = in_w;
    Tensor::from_vec(shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::tape::Tape;
    use orbit2_tensor::random::randn;

    #[test]
    fn linear_forward_matches_manual() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]));
        let w = tape.leaf(Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]));
        let b = tape.leaf(Tensor::from_vec(vec![3], vec![0.5, -0.5, 0.0]));
        let y = x.linear(w, Some(b));
        assert_eq!(y.value().data(), &[1.5, 1.5, 3.0]);
    }

    #[test]
    fn linear_grads_match_fd() {
        check_gradients(
            &[vec![4, 3], vec![2, 3], vec![2]],
            |_t, v| v[0].linear(v[1], Some(v[2])).square().sum(),
            1e-2,
            21,
        );
    }

    #[test]
    fn fused_linear_gelu_grads_match_fd() {
        check_gradients(
            &[vec![4, 3], vec![2, 3], vec![2]],
            |_t, v| v[0].linear_act(v[1], Some(v[2]), Activation::Gelu).square().sum(),
            2e-2,
            22,
        );
    }

    #[test]
    fn fused_linear_matches_unfused_graph() {
        let tape = Tape::new();
        let x = tape.leaf(randn(&[5, 7], 31));
        let w = tape.leaf(randn(&[4, 7], 32));
        let b = tape.leaf(randn(&[4], 33));
        let fused = x.linear_act(w, Some(b), Activation::Gelu);
        let unfused = x.matmul(w.transpose2()).add(b).gelu();
        fused.value().assert_close(&unfused.value(), 1e-4);
    }

    /// `Exec::attention`'s default body, on the tape: per head a slice of
    /// each operand, `matmul_nt → scale(1/√d_h) → softmax_last → matmul`,
    /// then a concat. [`Var::attention`] must match it bit for bit.
    fn composed_attention<'t>(q: Var<'t>, k: Var<'t>, v: Var<'t>, heads: usize) -> Var<'t> {
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

    /// The value and the `q`, `k`, `v` gradients, as bits, of attention as
    /// one node or as the composition, under the upstream gradient `ops[3]`.
    fn attention_bits(ops: &[Tensor; 4], heads: usize, node: bool) -> [Vec<u32>; 4] {
        let tape = Tape::new();
        let [q, k, v] = [0, 1, 2].map(|i| tape.leaf(ops[i].clone()));
        let y = if node { q.attention(k, v, heads) } else { composed_attention(q, k, v, heads) };
        // `sum(y ⊙ g)` hands `y` the gradient `1.0 × g`: `g`, bit for bit.
        let grads = tape.backward(y.mul(tape.constant(ops[3].clone())).sum());
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        [bits(&y.value()), bits(grads.get(q).unwrap()), bits(grads.get(k).unwrap()), bits(grads.get(v).unwrap())]
    }

    /// The negative subnormal closest to zero: its product with a
    /// probability below one half rounds to −0.0 in a fused multiply-add.
    const TINY: f32 = -f32::from_bits(1);

    /// `q`, `k`, `v` and an upstream gradient, `[n, heads·dh]`. With
    /// `specials`: −0.0 in every operand; NaN in `q` and `g`, +∞ in `k` and
    /// −∞ in `v`, all in head 0; and one column of the last head's `g` at
    /// [`TINY`], whose `dv` underflows to −0.0 within its head.
    fn attention_operands(n: usize, dh: usize, heads: usize, seed: u64, specials: bool) -> [Tensor; 4] {
        let d = dh * heads;
        let mut ops = [0, 1, 2, 3].map(|i| randn(&[n, d], seed + i));
        if specials {
            for (i, t) in ops.iter_mut().enumerate() {
                let x = t.data_mut();
                for r in (i % 3..n).step_by(3) {
                    x[r * d + (r * 7 + i) % d] = -0.0;
                }
                x[(i + 1) % n * d] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i];
            }
            let c = (heads - 1) * dh + dh / 2;
            for r in 0..n {
                ops[3].data_mut()[r * d + c] = TINY;
            }
        }
        ops
    }

    #[test]
    fn attention_node_is_the_composition_bitwise() {
        // Token counts on both sides of the session kernel's 48-row blocks,
        // every head count, head widths rotated so each count meets several
        // (d_h = 1 takes the products' mat-vec path).
        let widths = [8usize, 4, 16, 1];
        for (i, &n) in [1usize, 5, 47, 48, 49, 97, 140].iter().enumerate() {
            for (j, &heads) in [1usize, 2, 4, 8].iter().enumerate() {
                let dh = widths[(i + j) % widths.len()];
                for specials in [false, true] {
                    let ops = attention_operands(n, dh, heads, (10 * i + j) as u64, specials);
                    let (node, composed) = (attention_bits(&ops, heads, true), attention_bits(&ops, heads, false));
                    for (what, (a, b)) in ["value", "dq", "dk", "dv"].iter().zip(node.iter().zip(&composed)) {
                        let at = a.iter().zip(b).position(|(x, y)| x != y);
                        assert!(
                            at.is_none(),
                            "{n} tokens, {heads}x{dh}, specials {specials}: {what} differs at {at:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_minus_zero_head_gradient_comes_out_plus_zero() {
        // Run alone, the last head's `dv` column under a `TINY` gradient is
        // −0.0; the composition's zero-padded per-head sum makes it +0.0,
        // and so must the node. Without FMA the product rounds to −0.0 on
        // its own and the chain's `+ 0.0` makes it +0.0 either way.
        if !cfg!(target_feature = "fma") {
            return;
        }
        let (n, dh, heads) = (47usize, 8usize, 2usize);
        let ops = attention_operands(n, dh, heads, 7, true);
        let c = (heads - 1) * dh + dh / 2;
        let alone: [Tensor; 4] = ops.clone().map(|t| t.slice_axis(1, (heads - 1) * dh, dh));
        let dv_alone = attention_bits(&alone, 1, false)[3].clone();
        let minus_zero = (0..n).filter(|&r| dv_alone[r * dh + dh / 2] == (-0.0f32).to_bits()).count();
        assert!(minus_zero > n / 2, "only {minus_zero} rows underflow to -0.0");
        // One head has no padding to add: the node keeps the −0.0.
        assert_eq!(attention_bits(&alone, 1, true)[3], dv_alone, "one head");
        let [node, composed] = [true, false].map(|node| attention_bits(&ops, heads, node)[3].clone());
        for r in 0..n {
            if dv_alone[r * dh + dh / 2] == (-0.0f32).to_bits() {
                assert_eq!(composed[r * heads * dh + c], 0, "row {r}: the composition's +0.0");
                assert_eq!(node[r * heads * dh + c], 0, "row {r}: the node's");
            }
        }
    }

    #[test]
    fn attention_is_one_node_and_keeps_no_score_tensor() {
        let tape = Tape::new();
        let [q, k, v] = [1, 2, 3].map(|seed| tape.leaf(randn(&[60, 32], seed)));
        let before = tape.len();
        let y = q.attention(k, v, 4);
        assert_eq!(tape.len() - before, 1, "no slice, product, softmax or concat nodes");
        assert_eq!(y.shape(), vec![60, 32]);
    }

    #[test]
    fn attention_grads_match_fd() {
        check_gradients(
            &[vec![5, 8], vec![5, 8], vec![5, 8]],
            |_t, v| v[0].attention(v[1], v[2], 2).square().sum(),
            2e-2,
            33,
        );
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let tape = Tape::new();
        let x = tape.leaf(randn(&[4, 8], 5).mul_scalar(3.0).add_scalar(7.0));
        let g = tape.leaf(Tensor::ones(vec![8]));
        let b = tape.leaf(Tensor::zeros(vec![8]));
        let y = x.layer_norm(g, b, 1e-5).value();
        for r in 0..4 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_grads_match_fd() {
        check_gradients(
            &[vec![3, 5], vec![5], vec![5]],
            |_t, v| v[0].layer_norm(v[1], v[2], 1e-5).square().sum(),
            2e-2,
            23,
        );
    }

    #[test]
    fn conv2d_grads_match_fd() {
        let geom = ConvGeom::same(3);
        check_gradients(
            &[vec![1, 2, 5, 5], vec![3, 2, 3, 3], vec![3]],
            move |_t, v| {
                let x = v[0];
                x.conv2d(v[1], Some(v[2]), geom).square().sum()
            },
            3e-2,
            25,
        );
    }

    #[test]
    fn conv2d_over_a_constant_input_skips_the_input_gradient() {
        use orbit2_tensor::random::randn;
        let geom = ConvGeom::same(3);
        let (x0, w0, b0) = (randn(&[2, 3, 6, 7], 31), randn(&[4, 3, 3, 3], 32), randn(&[4], 33));
        let run = |constant_input: bool| {
            let tape = Tape::new();
            let x = if constant_input { tape.constant(x0.clone()) } else { tape.leaf(x0.clone()) };
            let (w, b) = (tape.leaf(w0.clone()), tape.leaf(b0.clone()));
            let grads = tape.backward(x.conv2d(w, Some(b), geom).square().sum());
            (grads.get(x).cloned(), grads.get(w).unwrap().clone(), grads.get(b).unwrap().clone())
        };
        let (gx_leaf, gw_leaf, gb_leaf) = run(false);
        let (gx_const, gw_const, gb_const) = run(true);
        assert!(gx_leaf.is_some() && gx_const.is_none());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gw_const), bits(&gw_leaf));
        assert_eq!(bits(&gb_const), bits(&gb_leaf));
    }

    #[test]
    fn linear_act_over_a_constant_input_skips_the_input_gradient() {
        use orbit2_tensor::random::randn;
        let (x0, w0, b0) = (randn(&[5, 12], 41), randn(&[7, 12], 42), randn(&[7], 43));
        let run = |constant_input: bool| {
            let tape = Tape::new();
            let x = if constant_input { tape.constant(x0.clone()) } else { tape.leaf(x0.clone()) };
            let (w, b) = (tape.leaf(w0.clone()), tape.leaf(b0.clone()));
            let grads = tape.backward(x.linear_act(w, Some(b), Activation::Gelu).square().sum());
            (grads.get(x).cloned(), grads.get(w).unwrap().clone(), grads.get(b).unwrap().clone())
        };
        let (gx_leaf, gw_leaf, gb_leaf) = run(false);
        let (gx_const, gw_const, gb_const) = run(true);
        assert!(gx_leaf.is_some() && gx_const.is_none());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gw_const), bits(&gw_leaf));
        assert_eq!(bits(&gb_const), bits(&gb_leaf));
    }

    /// The value and the input, weight and bias gradients, as bits, of a
    /// convolution tail as one node or as `resize_bilinear → conv2d`, under
    /// the upstream gradient `ops[3]`. An untracked input has no gradient.
    fn tail_bits(ops: [&Tensor; 4], up: (usize, usize), geom: ConvGeom, x_tracked: bool, node: bool) -> [Vec<u32>; 4] {
        let tape = Tape::new();
        let x = if x_tracked { tape.leaf(ops[0].clone()) } else { tape.constant(ops[0].clone()) };
        let (w, b) = (tape.leaf(ops[1].clone()), tape.leaf(ops[2].clone()));
        let y = if node {
            x.upsample_conv(up.0, up.1, w, Some(b), geom)
        } else {
            x.resize_bilinear(up.0, up.1).conv2d(w, Some(b), geom)
        };
        // `sum(y ⊙ g)` hands `y` the gradient `1.0 × g`: `g`, bit for bit.
        let grads = tape.backward(y.mul(tape.constant(ops[3].clone())).sum());
        let bits = |t: Option<&Tensor>| t.map_or(Vec::new(), |t| t.data().iter().map(|x| x.to_bits()).collect());
        [bits(Some(&y.value())), bits(grads.get(x)), bits(grads.get(w)), bits(grads.get(b))]
    }

    #[test]
    fn upsample_conv_node_is_the_composition_bitwise() {
        let same3 = ConvGeom::same(3);
        // (n, c, o, h, w, out_h, out_w, geometry): the banded kernel's own
        // cases (`upsample_conv_is_bit_identical_to_resize_then_conv`),
        // across its 8-row bands, 24/32-pixel strips and channel blocks.
        let cases = [
            (1, 64, 3, 17, 20, 68, 80, same3),
            (1, 5, 7, 2, 9, 5, 37, same3),
            (2, 1, 5, 6, 7, 24, 28, same3),
            (2, 3, 3, 7, 11, 19, 26, same3),
            (1, 4, 2, 20, 33, 9, 14, same3),
            (1, 2, 4, 1, 9, 6, 31, same3),
            (1, 3, 3, 8, 1, 17, 1, same3),
            (1, 2, 1, 1, 1, 1, 1, same3),
            (1, 3, 4, 5, 6, 11, 13, ConvGeom::same(1)),
            (1, 3, 3, 5, 6, 18, 21, ConvGeom::same(5)),
            (1, 2, 5, 4, 4, 12, 30, ConvGeom { kh: 3, kw: 3, pad: 0 }),
            (1, 2, 3, 4, 4, 10, 9, ConvGeom { kh: 1, kw: 3, pad: 2 }),
        ];
        for (i, &(n, c, o, h, w, oh, ow, g)) in cases.iter().enumerate() {
            let seed = 200 + 4 * i as u64;
            let (x, wt, b) = (randn(&[n, c, h, w], seed), randn(&[o, c, g.kh, g.kw], seed + 1), randn(&[o], seed + 2));
            let (yh, yw) = (oh + 2 * g.pad + 1 - g.kh, ow + 2 * g.pad + 1 - g.kw);
            let gy = randn(&[n, o, yh, yw], seed + 3);
            for x_tracked in [true, false] {
                let ops = [&x, &wt, &b, &gy];
                let [node, composed] = [true, false].map(|node| tail_bits(ops, (oh, ow), g, x_tracked, node));
                assert_eq!(node[1].is_empty(), !x_tracked, "case {i}: an untracked input has no gradient");
                for (what, (a, b)) in ["value", "dx", "dw", "db"].iter().zip(node.iter().zip(&composed)) {
                    let at = a.iter().zip(b).position(|(x, y)| x != y);
                    let ok = a.len() == b.len() && at.is_none();
                    assert!(ok, "case {i} (x tracked {x_tracked}): {what} differs at {at:?}");
                }
            }
        }
    }

    #[test]
    fn a_minus_zero_upsampled_gradient_is_kept_as_it_is() {
        // A gradient of `TINY` under small positive weights: each FMA of the
        // input gradient's tap chain rounds to −0.0 from a +0.0 accumulator,
        // so the upsampled image's gradient holds −0.0 away from its border
        // (read here with the image as a leaf of its own tape). The
        // composition's tape stores that lone contribution as it is, and the
        // node hands it to the resize's adjoint as it is.
        let (x, up, g) = (randn(&[1, 2, 3, 4], 51), (9, 13), ConvGeom::same(3));
        let wt = randn(&[3, 2, 3, 3], 52).map(|v| 0.1 * v.abs() + 0.01);
        let (b, gy) = (randn(&[3], 53), Tensor::full(vec![1, 3, 9, 13], TINY));
        if cfg!(target_feature = "fma") {
            let tape = Tape::new();
            let img = tape.leaf(resize(&x, up.0, up.1, ResizeMode::Bilinear));
            let y = img.conv2d(tape.leaf(wt.clone()), Some(tape.leaf(b.clone())), g);
            let grads = tape.backward(y.mul(tape.constant(gy.clone())).sum());
            let gimg = grads.get(img).unwrap().data().to_vec();
            let minus_zero = gimg.iter().filter(|v| v.to_bits() == (-0.0f32).to_bits()).count();
            assert!(minus_zero >= 2 * 7 * 11, "only {minus_zero} elements of the upsampled gradient are -0.0");
        }
        let [node, composed] = [true, false].map(|node| tail_bits([&x, &wt, &b, &gy], up, g, true, node));
        assert_eq!(node, composed);
    }

    #[test]
    fn upsample_conv_grads_match_fd() {
        let geom = ConvGeom::same(3);
        check_gradients(
            &[vec![1, 2, 3, 4], vec![3, 2, 3, 3], vec![3]],
            move |_t, v| v[0].upsample_conv(7, 9, v[1], Some(v[2]), geom).square().sum(),
            3e-2,
            26,
        );
    }

    #[test]
    fn resize_bilinear_grads_match_fd() {
        check_gradients(&[vec![1, 4, 4]], |_t, v| v[0].resize_bilinear(8, 8).square().sum(), 2e-2, 27);
    }

    /// The adjoint with its taps recomputed at every pixel of every plane,
    /// as it was before it read the forward's table: the oracle
    /// [`bilinear_adjoint`] must match bit for bit.
    fn bilinear_adjoint_per_pixel(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
        let nd = grad_out.ndim();
        let (oh, ow) = (grad_out.shape()[nd - 2], grad_out.shape()[nd - 1]);
        let lead: usize = grad_out.shape()[..nd - 2].iter().product();
        let sy = in_h as f32 / oh as f32;
        let sx = in_w as f32 / ow as f32;
        let god = grad_out.data();
        let mut out = vec![0.0f32; lead * in_h * in_w];
        for l in 0..lead {
            let gplane = &god[l * oh * ow..(l + 1) * oh * ow];
            let oplane = &mut out[l * in_h * in_w..(l + 1) * in_h * in_w];
            for oy in 0..oh {
                let fy = ((oy as f32 + 0.5) * sy - 0.5).clamp(0.0, (in_h - 1) as f32);
                let y0 = fy.floor() as usize;
                let y1 = (y0 + 1).min(in_h - 1);
                let wy = fy - y0 as f32;
                for ox in 0..ow {
                    let fx = ((ox as f32 + 0.5) * sx - 0.5).clamp(0.0, (in_w - 1) as f32);
                    let x0 = fx.floor() as usize;
                    let x1 = (x0 + 1).min(in_w - 1);
                    let wx = fx - x0 as f32;
                    let g = gplane[oy * ow + ox];
                    oplane[y0 * in_w + x0] += g * (1.0 - wy) * (1.0 - wx);
                    oplane[y0 * in_w + x1] += g * (1.0 - wy) * wx;
                    oplane[y1 * in_w + x0] += g * wy * (1.0 - wx);
                    oplane[y1 * in_w + x1] += g * wy * wx;
                }
            }
        }
        let mut shape = grad_out.shape().to_vec();
        shape[nd - 2] = in_h;
        shape[nd - 1] = in_w;
        Tensor::from_vec(shape, out)
    }

    #[test]
    fn tabled_adjoint_is_bit_identical_to_per_pixel_adjoint() {
        // The tails' 4x up, non-integer ratios both ways, 1-pixel axes.
        let cases: [(&[usize], usize, usize); 6] = [
            (&[1, 64, 48, 80], 12, 20),
            (&[2, 3, 19, 26], 7, 11),
            (&[1, 4, 9, 14], 20, 33),
            (&[1, 2, 6, 31], 1, 9),
            (&[3, 17, 1], 8, 1),
            (&[1, 1], 1, 1),
        ];
        for (i, (shape, in_h, in_w)) in cases.into_iter().enumerate() {
            let g = randn(shape, 60 + i as u64);
            let (fast, slow) = (bilinear_adjoint(&g, in_h, in_w), bilinear_adjoint_per_pixel(&g, in_h, in_w));
            assert_eq!(fast.shape(), slow.shape());
            let same = fast.data().iter().zip(slow.data()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{shape:?} <- {in_h}x{in_w}");
        }
    }

    #[test]
    fn resize_adjoint_preserves_total_gradient() {
        // The adjoint of an interpolation whose weights sum to 1 per output
        // pixel conserves the total gradient mass.
        let g = Tensor::ones(vec![1, 8, 8]);
        let adj = bilinear_adjoint(&g, 4, 4);
        assert!((adj.sum() - 64.0).abs() < 1e-3);
    }

    #[test]
    fn pool_unpool_grads_match_fd() {
        let groups: std::sync::Arc<[Vec<usize>]> = vec![vec![0, 1], vec![2], vec![3, 4, 5]].into();
        check_gradients(
            &[vec![6, 3]],
            move |_t, v| {
                let pooled = v[0].pool_rows(groups.clone());
                pooled.unpool_rows(groups.clone(), 6).square().sum()
            },
            1e-2,
            29,
        );
    }

    #[test]
    fn pool_rows_averages() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![4, 1], vec![1.0, 3.0, 10.0, 20.0]));
        let y = x.pool_rows(vec![vec![0, 1], vec![2, 3]].into());
        assert_eq!(y.value().data(), &[2.0, 15.0]);
    }

    #[test]
    fn unpool_broadcasts_group_value() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2, 1], vec![5.0, 9.0]));
        let y = x.unpool_rows(vec![vec![0, 2], vec![1]].into(), 3);
        assert_eq!(y.value().data(), &[5.0, 9.0, 5.0]);
    }
}

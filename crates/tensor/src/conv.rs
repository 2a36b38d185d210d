//! Direct, register-blocked 2-D convolution, with the backward kernels
//! needed by the autograd crate.
//!
//! Layout is NCHW: `input [N, C, H, W]`, `weight [O, C, KH, KW]`. Reslim's
//! residual path, its decoder, and the baseline model's channel-aggregation
//! stage are all built from these kernels.
//!
//! Every convolution has stride 1. The forward runs one task per (sample,
//! band of 8 output rows). A task first fills a pooled band scratch with the
//! `8 + kh − 1` zero-padded input rows of every channel the band reads (plus
//! one strip of slack), then, for every (output-channel block × strip of
//! output pixels), keeps twelve `F32x8` accumulators in registers while it
//! walks `(ci, ky, kx)` in ascending order: shifted unaligned row loads
//! against broadcast weights, bias added at the store. Nothing is unfolded,
//! and no whole padded image is built: beyond input and output, memory is
//! one band scratch per running task.
//!
//! Only the band filler differs between the convolutions that share this
//! loop nest: [`conv2d`] and [`conv2d_grad_input`] copy input rows,
//! [`upsample_conv2d`] interpolates them from a smaller input.
//!
//! * [`conv2d_grad_input`] is the same kernel run over `grad_out` with the
//!   spatially flipped, channel-transposed weight and padding `k − 1 − p`
//!   (a negative pad crops).
//! * [`conv2d_grad_weight`] is a row-dot reduction of `grad_out` against the
//!   shifted padded input, one task per input channel, which pads its
//!   channel's plane one sample at a time. Each gradient row is loaded once
//!   for a kernel row of taps, and eight rows' dots share one reduction
//!   tree.
//!
//! **Fixed accumulation order.** Every output element is produced by one
//! task and one accumulator chain whose order does not depend on how the
//! work was split: a forward or input-gradient element sums its taps in
//! `(ci, ky, kx)` order; a weight-gradient element sums per-sample totals in
//! sample order, each total its row dots in row order. So results are
//! bit-identical across thread counts, and a batched call equals its
//! per-sample calls (summed, for the weight gradient).
//!
//! [`conv2d_ref`] is the scalar oracle (what [`crate::qgemm::gemm_strips_ref`]
//! is for GEMM), and only the tests run it. It is the zero-padded
//! definition: every tap, padded ones included, is one `simd::fma` from +0
//! in `(ci, ky, kx)` order, a padded tap reading +0. The direct forward
//! does exactly that, so on finite inputs the two are equal bit for bit.
//! Skipping a padded tap would not be: an FMA chain from +0 can end at −0
//! (`fma(p, −2⁻¹⁴⁹, +0)` rounds to −0 for `0 < p < ½`), and a padded tap
//! with a positive weight then turns that −0 into +0.

use crate::par::{self, MACS_PER_VISIT};
use crate::pool::{self, Buffer};
use crate::resize::Bilinear;
use crate::simd::{self, F32x8, LANES};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Spatial geometry of a stride-1 convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Zero padding (same all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Panics
    /// Panics when the padded input is smaller than the kernel.
    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.kh && w + 2 * self.pad >= self.kw,
            "conv input {h}x{w} with pad {} is smaller than the {}x{} kernel",
            self.pad,
            self.kh,
            self.kw
        );
        (h + 2 * self.pad + 1 - self.kh, w + 2 * self.pad + 1 - self.kw)
    }

    /// "Same" geometry for an odd kernel.
    pub fn same(k: usize) -> Self {
        assert!(k % 2 == 1, "same-padding requires odd kernel");
        Self { kh: k, kw: k, pad: k / 2 }
    }
}

/// The validated sizes of one convolution call.
#[derive(Clone, Copy)]
struct Dims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    oh: usize,
    ow: usize,
}

/// Check an `[N,C,H,W]` input shape and an `[O,C,KH,KW]` weight shape
/// against each other and against `g`.
fn dims(input_shape: &[usize], weight_shape: &[usize], g: ConvGeom) -> Dims {
    assert_eq!(input_shape.len(), 4, "conv2d input must be [N,C,H,W]");
    assert_eq!(weight_shape.len(), 4, "conv2d weight must be [O,C,KH,KW]");
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let (o, wc) = (weight_shape[0], weight_shape[1]);
    assert_eq!(c, wc, "channel mismatch: input C={c}, weight C={wc}");
    assert_eq!((weight_shape[2], weight_shape[3]), (g.kh, g.kw), "weight kernel does not match geometry");
    let (oh, ow) = g.out_size(h, w);
    Dims { n, c, h, w, o, oh, ow }
}

/// Forward convolution: `input [N,C,H,W] * weight [O,C,KH,KW] (+ bias [O])`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
    let d = dims(input.shape(), weight.shape(), g);
    check_bias(bias, d.o);
    let pad = g.pad as isize;
    let out = conv_copied(
        input.data(),
        [d.n, d.c, d.h, d.w],
        weight.data(),
        [d.o, g.kh, g.kw],
        (pad, pad),
        bias.map(Tensor::data),
    );
    Tensor::from_vec(vec![d.n, d.o, d.oh, d.ow], out)
}

/// `conv2d(resize(input, out_h, out_w, Bilinear), weight, bias, g)` bit for
/// bit, without the resized image: each band task interpolates only the
/// padded rows it reads, through the row routine `resize` itself runs, into
/// its pooled band scratch. Every output element sums the same `(ci, ky,
/// kx)` taps in the same order over the same interpolated values.
pub fn upsample_conv2d(
    input: &Tensor,
    out_h: usize,
    out_w: usize,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: ConvGeom,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "upsample_conv2d input must be [N,C,H,W]");
    let [n, c, h, w] = [0, 1, 2, 3].map(|i| input.shape()[i]);
    let d = dims(&[n, c, out_h, out_w], weight.shape(), g);
    check_bias(bias, d.o);
    let (src, pad, bl) = (input.data(), g.pad, Bilinear::new(h, w, out_h, out_w));
    let wp = out_w + 2 * pad;
    // Padded row `p` is upsampled row `p − pad`; the rest is zero padding.
    let fill = |ni: usize, p0: usize, band_hp: usize, band: &mut [f32]| {
        let j0 = pad.saturating_sub(p0).min(band_hp);
        let j1 = (out_h + pad).saturating_sub(p0).clamp(j0, band_hp);
        let mut scratch = Buffer::uninit(bl.scratch_len());
        for (ci, dst) in band.chunks_exact_mut(band_hp * wp).enumerate() {
            let (top, rest) = dst.split_at_mut(j0 * wp);
            let (body, bottom) = rest.split_at_mut((j1 - j0) * wp);
            top.fill(0.0);
            bottom.fill(0.0);
            for drow in body.chunks_exact_mut(wp) {
                drow[..pad].fill(0.0);
                drow[pad + out_w..].fill(0.0);
            }
            let plane = &src[(ni * c + ci) * h * w..][..h * w];
            let rows = body.chunks_exact_mut(wp).map(|r| &mut r[pad..pad + out_w]);
            bl.rows(plane, (p0 + j0).saturating_sub(pad), rows, &mut scratch);
        }
    };
    let out = conv_direct(fill, [n, c, out_h + 2 * pad, wp], weight.data(), [d.o, g.kh, g.kw], bias.map(Tensor::data));
    Tensor::from_vec(vec![d.n, d.o, d.oh, d.ow], out)
}

/// Scalar reference convolution: the oracle the direct kernel is tested
/// against. Each output element sums all its taps in `(ci, ky, kx)` order,
/// a padded tap as a product with +0, then adds the bias.
pub fn conv2d_ref(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Tensor {
    let d = dims(input.shape(), weight.shape(), g);
    check_bias(bias, d.o);
    let Dims { n, c, h, w, o, oh, ow } = d;
    let (src, wd) = (input.data(), weight.data());
    let mut out = pool::alloc_zeroed(n * o * oh * ow);
    if out.is_empty() {
        return Tensor::from_vec(vec![n, o, oh, ow], out);
    }
    // Scalar: a multiply-add is an element visit.
    let plane_work = oh * ow * c * g.kh * g.kw;
    out.par_chunks_mut(oh * ow).enumerate().with_min_len(par::min_items(plane_work)).for_each(|(idx, plane)| {
        let (ni, oc) = (idx / o, idx % o);
        for ci in 0..c {
            let xin = &src[(ni * c + ci) * h * w..][..h * w];
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let wv = wd[((oc * c + ci) * g.kh + ky) * g.kw + kx];
                    for (oy, orow) in plane.chunks_exact_mut(ow).enumerate() {
                        let row = tap(oy, ky, h, g).map(|iy| &xin[iy * w..][..w]);
                        for (ox, acc) in orow.iter_mut().enumerate() {
                            // A padded tap reads +0, as in the kernel's band.
                            let xv = row.zip(tap(ox, kx, w, g)).map_or(0.0, |(r, ix)| r[ix]);
                            *acc = simd::fma(wv, xv, *acc);
                        }
                    }
                }
            }
        }
        if let Some(b) = bias {
            let bv = b.data()[oc];
            plane.iter_mut().for_each(|x| *x += bv);
        }
    });
    Tensor::from_vec(vec![n, o, oh, ow], out)
}

/// Input coordinate read by output coordinate `out` through kernel offset
/// `k`, or `None` when it falls in the zero padding.
#[inline(always)]
fn tap(out: usize, k: usize, size: usize, g: ConvGeom) -> Option<usize> {
    (out + k).checked_sub(g.pad).filter(|&i| i < size)
}

fn check_bias(bias: Option<&Tensor>, o: usize) {
    if let Some(b) = bias {
        assert_eq!(b.shape(), &[o], "bias must be [O]");
    }
}

// ---------------------------------------------------------------------------
// Direct kernel
// ---------------------------------------------------------------------------

/// Output rows per parallel task. Fixed (not derived from the thread count)
/// so the task list, like the result, is the same on every machine.
const BAND_ROWS: usize = 8;

/// Widest strip of output pixels any block shape computes at once; also the
/// slack appended to a band scratch, which a ragged last strip reads (and
/// discards) past the end of its row.
const MAX_STRIP: usize = 4 * LANES;

/// Padded row `r` of one `[h, w]` plane under zero padding `pad` (rows,
/// columns; a negative pad crops instead), written whole into `drow`.
fn pad_row(plane: &[f32], h: usize, w: usize, pad: (isize, isize), r: usize, drow: &mut [f32]) {
    let sy = r as isize - pad.0;
    if !(0..h as isize).contains(&sy) {
        drow.fill(0.0);
        return;
    }
    // Columns `sx0..sx0 + cw` of the source row land at `dx0..` of `drow`.
    let (sx0, dx0) = if pad.1 < 0 { (pad.1.unsigned_abs(), 0) } else { (0, pad.1 as usize) };
    let cw = w.min(drow.len());
    drow[..dx0].fill(0.0);
    drow[dx0..dx0 + cw].copy_from_slice(&plane[sy as usize * w + sx0..][..cw]);
    drow[dx0 + cw..].fill(0.0);
}

fn padded(size: usize, pad: isize) -> usize {
    usize::try_from(size as isize + 2 * pad).expect("conv crop larger than its input")
}

/// Stride-1 convolution of `src [n,c,h,w]` with `weight [o,c,kh,kw]` under
/// zero padding `pad` (rows, columns; negative crops), into a fresh
/// `[n, o, h + 2·pad.0 − kh + 1, w + 2·pad.1 − kw + 1]` buffer: the band
/// filler copies each band's padded rows out of the input.
fn conv_copied(
    src: &[f32],
    [n, c, h, w]: [usize; 4],
    weight: &[f32],
    [o, kh, kw]: [usize; 3],
    pad: (isize, isize),
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let (hp, wp) = (padded(h, pad.0), padded(w, pad.1));
    let fill = |ni: usize, p0: usize, band_hp: usize, band: &mut [f32]| {
        let sample = &src[ni * c * h * w..][..c * h * w];
        for (plane, dst) in sample.chunks_exact(h * w).zip(band.chunks_exact_mut(band_hp * wp)) {
            for (r, drow) in (p0..).zip(dst.chunks_exact_mut(wp)) {
                pad_row(plane, h, w, pad, r, drow);
            }
        }
    };
    conv_direct(fill, [n, c, hp, wp], weight, [o, kh, kw], bias)
}

/// Stride-1 convolution of an `[n, c, hp, wp]` padded input, which exists
/// only as `fill`: `fill(sample, p0, band_hp, band)` writes padded rows
/// `p0..p0 + band_hp` of each of the sample's `c` planes into `band`, plane
/// after plane. Into a fresh `[n, o, hp − kh + 1, wp − kw + 1]` buffer.
///
/// The block shape comes from `o` alone: three channels × four vectors for
/// the skinny outputs at fine resolution (64→3, 16→3), four × three for
/// everything wider (7→64, and 3→64 when this runs as the input gradient).
fn conv_direct<F>(fill: F, nchw: [usize; 4], weight: &[f32], [o, kh, kw]: [usize; 3], bias: Option<&[f32]>) -> Vec<f32>
where
    F: Fn(usize, usize, usize, &mut [f32]) + Sync,
{
    if o <= 3 {
        conv_blocked::<3, 4, F>(&fill, nchw, weight, [o, kh, kw], bias)
    } else {
        conv_blocked::<4, 3, F>(&fill, nchw, weight, [o, kh, kw], bias)
    }
}

/// [`conv_direct`] at one block shape: `OB` output channels × `S` vectors of
/// output pixels per register tile (`OB · S = 12` accumulators).
fn conv_blocked<const OB: usize, const S: usize, F>(
    fill: &F,
    [n, c, hp, wp]: [usize; 4],
    weight: &[f32],
    [o, kh, kw]: [usize; 3],
    bias: Option<&[f32]>,
) -> Vec<f32>
where
    F: Fn(usize, usize, usize, &mut [f32]) + Sync,
{
    const { assert!(S * LANES <= MAX_STRIP) };
    let (oh, ow) = (hp + 1 - kh, wp + 1 - kw);
    // Every element is stored below.
    let mut out = pool::alloc_uninit(n * o * oh * ow);
    if out.is_empty() {
        return out;
    }
    // A band's padded rows: its output rows plus the kernel's halo. The
    // ragged last band fills as many (those past the padded input are never
    // read), so every task's scratch is one pool size.
    let band_hp = BAND_ROWS.min(oh) + kh - 1;

    // Weights regrouped per output-channel block as `[block][ci·ky·kx][OB]`,
    // a ragged last block zero-filled: the k-loop then reads `OB` adjacent
    // weights per tap and never branches on the channel count.
    let taps = c * kh * kw;
    let nblocks = o.div_ceil(OB);
    let mut wpack = Buffer::zeroed(nblocks * taps * OB);
    for (oc, wrow) in weight.chunks_exact(taps).enumerate() {
        let block = &mut wpack[(oc / OB) * taps * OB..][..taps * OB];
        for (k, &wv) in wrow.iter().enumerate() {
            block[k * OB + oc % OB] = wv;
        }
    }

    // One task per (sample, band of output rows): the band's rows of every
    // output channel, so a single-sample call still fills every core. Each
    // task fills its own pooled band scratch, plus one strip of slack that a
    // ragged last strip reads (and discards) past the end of its row.
    let mut tasks: Vec<(usize, usize, Vec<&mut [f32]>)> = Vec::new();
    for (ni, sample) in out.chunks_mut(o * oh * ow).enumerate() {
        let mut planes: Vec<_> = sample.chunks_mut(oh * ow).map(|p| p.chunks_mut(BAND_ROWS * ow)).collect();
        for oy0 in (0..oh).step_by(BAND_ROWS) {
            let rows = planes.iter_mut().map(|p| p.next().expect("every plane has every band")).collect();
            tasks.push((ni, oy0, rows));
        }
    }
    let wpack: &[f32] = &wpack;
    let band_work = o * BAND_ROWS * ow * taps / MACS_PER_VISIT + c * band_hp * wp;
    tasks.par_iter_mut().with_min_len(par::min_items(band_work)).for_each(|(ni, oy0, rows)| {
        let mut band = Buffer::uninit(c * band_hp * wp + MAX_STRIP);
        let (body, slack) = band.split_at_mut(c * band_hp * wp);
        slack.fill(0.0);
        fill(*ni, *oy0, band_hp, body);
        for (blk, orows) in rows.chunks_mut(OB).enumerate() {
            let wblk = &wpack[blk * taps * OB..][..taps * OB];
            let bblk = bias.map(|b| &b[blk * OB..][..orows.len()]);
            for r in 0..orows[0].len() / ow {
                for x0 in (0..ow).step_by(S * LANES) {
                    let acc = tile::<OB, S>(&band, c, band_hp * wp, wp, kh, kw, wblk, r * wp + x0);
                    let xe = (x0 + S * LANES).min(ow);
                    for (oi, orow) in orows.iter_mut().enumerate() {
                        store_strip(&acc[oi], bblk.map(|b| b[oi]), &mut orow[r * ow + x0..r * ow + xe]);
                    }
                }
            }
        }
    });
    out
}

/// One register tile: `OB` output channels × `S·8` consecutive output pixels
/// of one row, summed over every `(ci, ky, kx)` tap in ascending order.
/// `base` is the offset of the tile's top-left tap inside a padded plane.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const OB: usize, const S: usize>(
    xp: &[f32],
    c: usize,
    plane: usize,
    wp: usize,
    kh: usize,
    kw: usize,
    wblk: &[f32],
    base: usize,
) -> [[F32x8; S]; OB] {
    let mut acc = [[F32x8::ZERO; S]; OB];
    let mut wtaps = wblk.chunks_exact(OB);
    for ci in 0..c {
        for ky in 0..kh {
            let row = &xp[ci * plane + ky * wp + base..][..S * LANES + kw - 1];
            for (kx, wv) in wtaps.by_ref().take(kw).enumerate() {
                let win = &row[kx..kx + S * LANES];
                for (s, x) in win.chunks_exact(LANES).enumerate() {
                    let x = F32x8::load(x);
                    for (acco, &wo) in acc.iter_mut().zip(wv) {
                        acco[s] = F32x8::splat(wo).mul_add(x, acco[s]);
                    }
                }
            }
        }
    }
    acc
}

/// Store the leading `dst.len()` lanes of a tile row, adding the bias.
#[inline(always)]
fn store_strip<const S: usize>(acc: &[F32x8; S], bias: Option<f32>, dst: &mut [f32]) {
    let finish = |v: F32x8| match bias {
        Some(b) => v.add(F32x8::splat(b)),
        None => v,
    };
    let whole = dst.len() / LANES;
    let mut full = dst.chunks_exact_mut(LANES);
    for (d, &v) in full.by_ref().zip(acc) {
        finish(v).store(d);
    }
    let rest = full.into_remainder();
    if !rest.is_empty() {
        rest.copy_from_slice(&finish(acc[whole]).to_array()[..rest.len()]);
    }
}

// ---------------------------------------------------------------------------
// Gradients
// ---------------------------------------------------------------------------

/// Gradient of the convolution output w.r.t. the input.
pub fn conv2d_grad_input(grad_out: &Tensor, weight: &Tensor, input_shape: &[usize], g: ConvGeom) -> Tensor {
    let d = dims(input_shape, weight.shape(), g);
    assert_eq!(grad_out.shape(), &[d.n, d.o, d.oh, d.ow], "grad_out does not match the conv output shape");
    let (god, wd) = (grad_out.data(), weight.data());
    // gi[c, y, x] = Σ go[o, y + p − ky, x + p − kx] · w[o, c, ky, kx]: a
    // convolution of `grad_out` with w flipped in space and transposed in
    // channels, under padding k − 1 − p.
    let Dims { n, c, o, oh, ow, .. } = d;
    let taps = g.kh * g.kw;
    let mut flipped = Buffer::uninit(c * o * taps);
    for (idx, dst) in flipped.chunks_exact_mut(taps).enumerate() {
        let (ci, oc) = (idx / o, idx % o);
        let src = &wd[(oc * c + ci) * taps..][..taps];
        dst.iter_mut().zip(src.iter().rev()).for_each(|(d, &s)| *d = s);
    }
    let pad = (g.kh as isize - 1 - g.pad as isize, g.kw as isize - 1 - g.pad as isize);
    let out = conv_copied(god, [n, o, oh, ow], &flipped, [c, g.kh, g.kw], pad, None);
    Tensor::from_vec(input_shape.to_vec(), out)
}

/// Gradient of the convolution output w.r.t. the weight.
///
/// Each element is the sum over samples, in index order, of that sample's
/// total, so a batched call equals the sum of its per-sample calls. A
/// sample's total for tap `(ky, kx)` is `Σ_oy dot(grad row oy, padded input
/// row oy + ky shifted by kx)` in ascending `oy`, each dot in
/// [`simd::dot`]'s operation order; a gradient row is read once for a whole
/// kernel row of taps (`sample_taps_by_row`).
pub fn conv2d_grad_weight(grad_out: &Tensor, input: &Tensor, weight_shape: &[usize], g: ConvGeom) -> Tensor {
    grad_weight_with(grad_out, input, weight_shape, g, sample_taps_by_row)
}

/// One sample's weight-gradient totals for one (input, output) channel
/// pair: `totals[ky·kw + kx]` (zeroed on entry) gets the tap's row dots of
/// `gplane` (`[oh, wp − kw + 1]`) against `xplane` (`[oh + kh − 1, wp]`,
/// the padded input).
type SampleTaps = fn(gplane: &[f32], xplane: &[f32], wp: usize, g: ConvGeom, totals: &mut [f32]);

/// [`conv2d_grad_weight`] with the per-sample reduction `sample_taps`: the
/// shapes, the padded input, one task per input channel, the sample-order
/// sum and the `[C, O] → [O, C]` transpose.
fn grad_weight_with(
    grad_out: &Tensor,
    input: &Tensor,
    weight_shape: &[usize],
    g: ConvGeom,
    sample_taps: SampleTaps,
) -> Tensor {
    let d = dims(input.shape(), weight_shape, g);
    assert_eq!(grad_out.shape(), &[d.n, d.o, d.oh, d.ow], "grad_out does not match the conv output shape");
    let Dims { n, c, h, w, o, oh, ow } = d;
    let (god, src) = (grad_out.data(), input.data());
    let taps = g.kh * g.kw;
    let mut out = pool::alloc_zeroed(o * c * taps);
    if out.is_empty() || god.is_empty() {
        return Tensor::from_vec(weight_shape.to_vec(), out);
    }
    let (hp, wp) = (h + 2 * g.pad, w + 2 * g.pad);
    let pad = (g.pad as isize, g.pad as isize);
    // Computed as `[C, O, KH, KW]` so each input channel's task owns a
    // contiguous slice, then transposed into `[O, C, KH, KW]`.
    let mut by_ci = Buffer::zeroed(c * o * taps);
    let channel_work = n * o * taps * oh * ow / MACS_PER_VISIT;
    by_ci.par_chunks_mut(o * taps).enumerate().with_min_len(par::min_items(channel_work)).for_each(|(ci, dst)| {
        let mut totals = vec![0.0f32; taps];
        // The task's own padded plane, one sample at a time: every element
        // is written by `pad_row`.
        let mut xplane = Buffer::uninit(hp * wp);
        for ni in 0..n {
            let plane = &src[(ni * c + ci) * h * w..][..h * w];
            for (r, drow) in xplane.chunks_exact_mut(wp).enumerate() {
                pad_row(plane, h, w, pad, r, drow);
            }
            for (oc, dtaps) in dst.chunks_exact_mut(taps).enumerate() {
                let gplane = &god[(ni * o + oc) * oh * ow..][..oh * ow];
                totals.fill(0.0);
                sample_taps(gplane, &xplane, wp, g, &mut totals);
                for (acc, &total) in dtaps.iter_mut().zip(&totals) {
                    *acc += total;
                }
            }
        }
    });
    for (idx, dst) in out.chunks_exact_mut(taps).enumerate() {
        let (oc, ci) = (idx / c, idx % c);
        dst.copy_from_slice(&by_ci[(ci * o + oc) * taps..][..taps]);
    }
    Tensor::from_vec(weight_shape.to_vec(), out)
}

/// Kernel-row taps one [`row_taps`] pass computes: three taps keep twelve
/// `F32x8` accumulators, which fit the 16 vector registers of AVX2.
const TAPS_PER_PASS: usize = 3;

/// The production [`SampleTaps`]: a kernel row of taps at a time, in passes
/// of up to [`TAPS_PER_PASS`] shifts that read each gradient vector once for
/// all of them. Each tap still adds one [`simd::dot`]-ordered row dot per
/// `oy`, in ascending `oy`, to its total.
fn sample_taps_by_row(gplane: &[f32], xplane: &[f32], wp: usize, g: ConvGeom, totals: &mut [f32]) {
    for kx0 in (0..g.kw).step_by(TAPS_PER_PASS) {
        match (g.kw - kx0).min(TAPS_PER_PASS) {
            1 => row_taps::<1>(gplane, xplane, wp, g, kx0, totals),
            2 => row_taps::<2>(gplane, xplane, wp, g, kx0, totals),
            _ => row_taps::<TAPS_PER_PASS>(gplane, xplane, wp, g, kx0, totals),
        }
    }
}

/// Taps `(ky, kx0 + t)` for every `ky` and `t < T`: `totals[ky·kw + kx0 + t]
/// += Σ_oy simd::dot(grad row oy, padded row oy + ky from column kx0 + t)`,
/// the rows in ascending order. Each dot is bit-identical to [`simd::dot`]:
/// the same lane accumulators ([`row_accumulators`]), the same reduction
/// tree, here run for eight rows at once ([`F32x8::reduce_sum_each`]), and
/// the same scalar tail.
fn row_taps<const T: usize>(gplane: &[f32], xplane: &[f32], wp: usize, g: ConvGeom, kx0: usize, totals: &mut [f32]) {
    let n = wp + 1 - g.kw;
    let (oh, vec_end) = (gplane.len() / n, n - n % LANES);
    // The windows overlap. With their offsets hidden behind `black_box`,
    // LLVM reads each with plain unaligned loads instead of building its
    // lanes out of another window's with shuffles.
    let mut shift = [0; T];
    for (t, sh) in shift.iter_mut().enumerate() {
        *sh = kx0 + t;
    }
    let shift = std::hint::black_box(shift);
    for ky in 0..g.kh {
        let mut tap = [0.0f32; T];
        tap.copy_from_slice(&totals[ky * g.kw + kx0..][..T]);
        let xrows = &xplane[ky * wp..];
        for oy0 in (0..oh).step_by(LANES) {
            let rows = (oh - oy0).min(LANES);
            // Row oy0 + r's accumulators, folded as `dot` folds them, in slot r.
            let mut folded = [[F32x8::ZERO; LANES]; T];
            for r in 0..rows {
                let xrow = &xrows[(oy0 + r) * wp..][..wp];
                let mut xs: [&[f32]; T] = [&[]; T];
                for (x, &sh) in xs.iter_mut().zip(&shift) {
                    *x = &xrow[sh..sh + n];
                }
                let acc = row_accumulators(&gplane[(oy0 + r) * n..][..n], &xs);
                for (f, a) in folded.iter_mut().zip(&acc) {
                    f[r] = a[0].add(a[1]).add(a[2].add(a[3]));
                }
            }
            let mut sums = [[0.0f32; LANES]; T];
            for (sum, f) in sums.iter_mut().zip(&folded) {
                *sum = F32x8::reduce_sum_each(f).to_array();
            }
            for r in 0..rows {
                let gtail = &gplane[(oy0 + r) * n + vec_end..][..n - vec_end];
                let xrow = &xrows[(oy0 + r) * wp..][..wp];
                for ((total, sum), &sh) in tap.iter_mut().zip(&sums).zip(&shift) {
                    let mut s = sum[r];
                    for (gv, xv) in gtail.iter().zip(&xrow[sh + vec_end..]) {
                        s += gv * xv;
                    }
                    *total += s;
                }
            }
        }
        totals[ky * g.kw + kx0..][..T].copy_from_slice(&tap);
    }
}

/// [`simd::dot`]'s four lane accumulators of `g` against each of `xs`:
/// 32-float chunks across the four, then 8-float remainders into the
/// first. Only the loads of `g` are shared between the windows.
#[inline(always)]
fn row_accumulators<const T: usize>(g: &[f32], xs: &[&[f32]; T]) -> [[F32x8; 4]; T] {
    let mut acc = [[F32x8::ZERO; 4]; T];
    let (gc, _) = g.as_chunks::<{ 4 * LANES }>();
    // Every window cut to the gradient's chunk count, so indexing by `k`
    // needs no bounds check.
    let mut xc: [&[[f32; 4 * LANES]]; T] = [&[]; T];
    for (c, x) in xc.iter_mut().zip(xs) {
        *c = &x.as_chunks().0[..gc.len()];
    }
    for (k, gch) in gc.iter().enumerate() {
        for j in 0..4 {
            let gv = F32x8::load(&gch[j * LANES..]);
            for (a, x) in acc.iter_mut().zip(&xc) {
                a[j] = gv.mul_add(F32x8::load(&x[k][j * LANES..]), a[j]);
            }
        }
    }
    let body = gc.len() * 4 * LANES;
    let (g8, _) = g[body..].as_chunks::<LANES>();
    let mut x8: [&[[f32; LANES]]; T] = [&[]; T];
    for (c, x) in x8.iter_mut().zip(xs) {
        *c = &x[body..].as_chunks().0[..g8.len()];
    }
    for (k, gch) in g8.iter().enumerate() {
        let gv = F32x8::load(gch);
        for (a, x) in acc.iter_mut().zip(&x8) {
            a[0] = gv.mul_add(F32x8::load(&x[k]), a[0]);
        }
    }
    acc
}

/// Gradient w.r.t. the bias: sum of `grad_out` over batch and space.
pub fn conv2d_grad_bias(grad_out: &Tensor) -> Tensor {
    let (n, o, oh, ow) = (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2], grad_out.shape()[3]);
    let mut out = vec![0.0f32; o];
    let god = grad_out.data();
    for ni in 0..n {
        for (oc, acc) in out.iter_mut().enumerate() {
            let base = (ni * o + oc) * oh * ow;
            *acc += god[base..base + oh * ow].iter().sum::<f32>();
        }
    }
    Tensor::from_vec(vec![o], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    #[test]
    fn ref_matches_hand_computed_sums() {
        // All-ones 3x3 "same" kernel: each output is its neighbourhood sum.
        let x = Tensor::arange(9).reshape(vec![1, 1, 3, 3]);
        let w = Tensor::ones(vec![1, 1, 3, 3]);
        let y = conv2d_ref(&x, &w, None, ConvGeom::same(3));
        assert_eq!(y.data(), &[8., 15., 12., 21., 36., 27., 20., 33., 24.]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_ref_same_padding() {
        let g = ConvGeom::same(3);
        let x = randn(&[2, 3, 7, 9], 1);
        let w = randn(&[4, 3, 3, 3], 2);
        let b = randn(&[4], 3);
        assert_eq!(bits(&conv2d(&x, &w, Some(&b), g)), bits(&conv2d_ref(&x, &w, Some(&b), g)));
    }

    #[test]
    fn matches_ref_at_the_model_block_shapes() {
        // Skinny (O <= 3) and wide blocks, ragged channel blocks, and widths
        // below, at and past one strip.
        let g = ConvGeom::same(3);
        for &(c, o, h, w) in &[(5usize, 3usize, 9usize, 37usize), (2, 1, 4, 5), (3, 7, 11, 24), (7, 64, 6, 25)] {
            let x = randn(&[1, c, h, w], 11);
            let wt = randn(&[o, c, 3, 3], 12);
            assert_eq!(bits(&conv2d(&x, &wt, None, g)), bits(&conv2d_ref(&x, &wt, None, g)), "{c}->{o} {h}x{w}");
        }
    }

    #[test]
    fn upsample_conv_is_bit_identical_to_resize_then_conv() {
        use crate::resize::{resize, ResizeMode};
        let same3 = ConvGeom::same(3);
        // (n, c, o, h, w, out_h, out_w, geometry), against the 8-row band
        // and the 24/32-pixel strips of the two block shapes.
        let cases = [
            // The tails' own shape: 4x up, 64 -> 3, a ragged last band.
            (1, 64, 3, 17, 20, 68, 80, same3),
            // out_h < 8: one short band; O > 3 and a ragged pixel strip.
            (1, 5, 7, 2, 9, 5, 37, same3),
            // C = 1, N = 2, O > 3 with a ragged channel block.
            (2, 1, 5, 6, 7, 24, 28, same3),
            // Non-integer ratios both ways, a ragged band and strip.
            (2, 3, 3, 7, 11, 19, 26, same3),
            // A downsampling ratio.
            (1, 4, 2, 20, 33, 9, 14, same3),
            // 1-pixel axes: source and output.
            (1, 2, 4, 1, 9, 6, 31, same3),
            (1, 3, 3, 8, 1, 17, 1, same3),
            (1, 2, 1, 1, 1, 1, 1, same3),
            // Other halos: none, two rows, none padded (a valid conv), and
            // a pad past the kernel (bands that start in whole zero rows).
            (1, 3, 4, 5, 6, 11, 13, ConvGeom::same(1)),
            (1, 3, 3, 5, 6, 18, 21, ConvGeom::same(5)),
            (1, 2, 5, 4, 4, 12, 30, ConvGeom { kh: 3, kw: 3, pad: 0 }),
            (1, 2, 3, 4, 4, 10, 9, ConvGeom { kh: 1, kw: 3, pad: 2 }),
        ];
        for (i, &(n, c, o, h, w, oh, ow, g)) in cases.iter().enumerate() {
            let seed = 100 + 4 * i as u64;
            let (x, wt, b) = (randn(&[n, c, h, w], seed), randn(&[o, c, g.kh, g.kw], seed + 1), randn(&[o], seed + 2));
            for bias in [Some(&b), None] {
                let composed = conv2d(&resize(&x, oh, ow, ResizeMode::Bilinear), &wt, bias, g);
                let banded = upsample_conv2d(&x, oh, ow, &wt, bias, g);
                assert_eq!(banded.shape(), composed.shape());
                assert_eq!(bits(&banded), bits(&composed), "case {i}: {n}x{c}x{h}x{w} -> {oh}x{ow}, {c}->{o}, {g:?}");
            }
        }
    }

    #[test]
    fn bias_shifts_each_channel() {
        let g = ConvGeom::same(1);
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        let w = Tensor::ones(vec![2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![2], vec![1.0, -2.0]);
        let y = conv2d(&x, &w, Some(&b), g);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let g = ConvGeom::same(3);
        let x = randn(&[1, 2, 5, 5], 5);
        let w = randn(&[3, 2, 3, 3], 6);
        let y = conv2d(&x, &w, None, g);
        // Loss = sum(y); dL/dy = ones.
        let go = Tensor::ones(y.shape().to_vec());
        let gi = conv2d_grad_input(&go, &w, x.shape(), g);
        let eps = 1e-2;
        for &probe in &[0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fd = (conv2d(&xp, &w, None, g).sum() - conv2d(&xm, &w, None, g).sum()) / (2.0 * eps);
            assert!((gi.data()[probe] - fd).abs() < 1e-2, "probe {probe}: {} vs {}", gi.data()[probe], fd);
        }
    }

    #[test]
    fn grad_weight_matches_finite_difference() {
        let g = ConvGeom::same(3);
        let x = randn(&[2, 2, 4, 4], 7);
        let w = randn(&[2, 2, 3, 3], 8);
        let y = conv2d(&x, &w, None, g);
        let go = Tensor::ones(y.shape().to_vec());
        let gw = conv2d_grad_weight(&go, &x, w.shape(), g);
        let eps = 1e-2;
        for &probe in &[0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let fd = (conv2d(&x, &wp, None, g).sum() - conv2d(&x, &wm, None, g).sum()) / (2.0 * eps);
            assert!((gw.data()[probe] - fd).abs() < 2e-2, "probe {probe}");
        }
    }

    /// The per-tap weight gradient, the oracle for [`sample_taps_by_row`]:
    /// one `simd::dot` per (tap, output row), taps in order, rows inside.
    fn sample_taps_per_tap(gplane: &[f32], xplane: &[f32], wp: usize, g: ConvGeom, totals: &mut [f32]) {
        let ow = wp + 1 - g.kw;
        for (k, total) in totals.iter_mut().enumerate() {
            let (ky, kx) = (k / g.kw, k % g.kw);
            for (oy, grow) in gplane.chunks_exact(ow).enumerate() {
                *total += simd::dot(grow, &xplane[(oy + ky) * wp + kx..][..ow]);
            }
        }
    }

    #[test]
    fn grad_weight_is_bit_identical_to_the_per_tap_oracle() {
        // Output widths that reach every path of `simd::dot` (no 32-float
        // chunk, an 8-float remainder, a scalar tail, each combination),
        // and kernel rows of one pass (1 or 3 taps) and of two (3 + 2).
        let mut cases = Vec::new();
        for (i, ow) in [1usize, 7, 8, 31, 32, 33, 72, 80].into_iter().enumerate() {
            for (j, kw) in [1usize, 3, 5].into_iter().enumerate() {
                let kh = [3, 1, 5][(i + 2 * j) % 3];
                // Pad 0, 1 or 2, as far as the input stays at least a pixel
                // wide; `2 + 2·pad` output rows.
                let pad = ((i + j) % 3).min((ow + kw - 2) / 2);
                let (c, o) = [(1, 1), (3, 7), (7, 64), (64, 3), (2, 5)][(i + 2 * j) % 5];
                let (h, w) = (kh + 1, ow + kw - 1 - 2 * pad);
                cases.push(([2, c, h, w], o, ConvGeom { kh, kw, pad }));
            }
        }
        // The weight gradients of a `train-step` tile job (both 64→3 tails
        // at 48x80, the residual path's 7→64 at 12x20), the same tile
        // without its halo, and both channel counts at 64.
        for (shape, o) in [
            ([1, 64, 48, 80], 3),
            ([1, 7, 12, 20], 64),
            ([1, 64, 40, 72], 3),
            ([1, 7, 10, 18], 64),
            ([2, 64, 3, 9], 64),
        ] {
            cases.push((shape, o, ConvGeom::same(3)));
        }
        for (i, &(shape, o, g)) in cases.iter().enumerate() {
            let x = randn(&shape, 300 + 3 * i as u64);
            let (oh, ow) = g.out_size(shape[2], shape[3]);
            let go = randn(&[shape[0], o, oh, ow], 301 + 3 * i as u64);
            let wshape = [o, shape[1], g.kh, g.kw];
            let fast = conv2d_grad_weight(&go, &x, &wshape, g);
            let oracle = grad_weight_with(&go, &x, &wshape, g, sample_taps_per_tap);
            assert_eq!(bits(&fast), bits(&oracle), "case {i}: {shape:?} -> {o}, {g:?}");
        }
    }

    #[test]
    fn grad_input_crops_when_pad_exceeds_the_kernel() {
        // pad > k - 1: the input gradient convolves a *cropped* grad_out.
        let g = ConvGeom { kh: 1, kw: 2, pad: 2 };
        let x = randn(&[2, 2, 4, 5], 9);
        let w = randn(&[3, 2, 1, 2], 10);
        let go = randn(conv2d(&x, &w, None, g).shape(), 11);
        let gi = conv2d_grad_input(&go, &w, x.shape(), g);
        // <conv(x), go> = <x, grad_input(go)>
        let lhs = conv2d(&x, &w, None, g).mul(&go).sum();
        let rhs = x.mul(&gi).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn grad_bias_sums_spatially() {
        let go = Tensor::ones(vec![2, 3, 4, 4]);
        let gb = conv2d_grad_bias(&go);
        assert_eq!(gb.data(), &[32.0, 32.0, 32.0]);
    }

    #[test]
    fn out_size_arithmetic() {
        let g = ConvGeom { kh: 3, kw: 3, pad: 1 };
        assert_eq!(g.out_size(10, 20), (10, 20));
        let g2 = ConvGeom { kh: 2, kw: 5, pad: 0 };
        assert_eq!(g2.out_size(10, 20), (9, 16));
    }

    #[test]
    #[should_panic(expected = "is smaller than the 3x3 kernel")]
    fn input_smaller_than_kernel_is_rejected() {
        let g = ConvGeom { kh: 3, kw: 3, pad: 0 };
        let _ = conv2d(&Tensor::zeros(vec![1, 1, 2, 5]), &Tensor::zeros(vec![1, 1, 3, 3]), None, g);
    }

    #[test]
    #[should_panic(expected = "weight kernel does not match geometry")]
    fn grad_input_rejects_weight_that_disagrees_with_geometry() {
        let go = Tensor::zeros(vec![1, 2, 4, 4]);
        let _ = conv2d_grad_input(&go, &Tensor::zeros(vec![2, 3, 5, 5]), &[1, 3, 4, 4], ConvGeom::same(3));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn grad_weight_rejects_channel_mismatch() {
        let go = Tensor::zeros(vec![1, 2, 4, 4]);
        let _ = conv2d_grad_weight(&go, &Tensor::zeros(vec![1, 3, 4, 4]), &[2, 4, 3, 3], ConvGeom::same(3));
    }

    #[test]
    #[should_panic(expected = "grad_out does not match the conv output shape")]
    fn grad_weight_rejects_wrong_grad_out_shape() {
        let go = Tensor::zeros(vec![1, 2, 3, 4]);
        let _ = conv2d_grad_weight(&go, &Tensor::zeros(vec![1, 3, 4, 4]), &[2, 3, 3, 3], ConvGeom::same(3));
    }
}

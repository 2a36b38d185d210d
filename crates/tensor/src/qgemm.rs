//! The GEMM driver: every matrix product in the crate runs here.
//!
//! `C = act(scale ⊙ (op(A) · op(B)) + bias)` for f32 activations against an
//! `op(B)` stored as f32 strips packed for the call or as resident
//! per-channel int8 codes. Precision is a property of the stored data
//! (`QWeight`), not of the algorithm: one pack format, one register-blocked
//! kernel, one loop nest, one oracle.
//!
//! ## Pack format
//!
//! `op(B)` (`k × n`) is cut into strips of `nr = 16·W` columns
//! (`W ∈ {1, 2, 4}`, `choose_nr`), each strip stored k-major
//! (`strip[p·nr + c]`), ragged columns zero-padded. `pack_strips` builds
//! strips from any [`MatLayout`], so `W^T` of a `[n, k]` linear weight, a
//! row-major `B` and a `B^T` all pack straight from their storage (a
//! column-contiguous `op(B)` through 16×16 register transposes,
//! `transpose_tiles`). Strips are resident only as int8: a [`PackedWeight`]
//! holds an int8 session's weight across calls. f32 strips live for one
//! caller in pooled scratch: `gemm_per_call` packs them for one product
//! (the tape's backward products, and every f32 linear longer than
//! `IN_PLACE_MAX_ROWS`, the tape's and the session's), and `ScratchStrips`
//! keeps such a pack for a caller that runs several products against it
//! (the attention op's per-head `K_hᵀ` and `V_h`, and the `xᵀ` of
//! `gemm_weight_in_place`, which runs a short linear — the session's and
//! the tape's — as `(W · xᵀ)ᵀ` so that the row-major weight is A, read in
//! place, and needs no pack).
//!
//! ## Kernel
//!
//! `panel` blocks `QMR` rows × `W` `F32x16` columns — up to 24
//! accumulators held in registers from zeroing to store. A is read in
//! place, row by row (a column-contiguous A — the `A^T g` weight gradient —
//! is transposed once into pooled scratch by the same tiles, the price an
//! A-pack would charge every call). There is no k blocking: a strip is
//! streamed once per row panel and each C tile is written exactly once, so
//! the store overwrites C (no pre-zeroing, no read-add), applying scale and
//! bias on the way out; the activation — and the pre-activation the tape
//! keeps for `act'` — then runs over each stored row. Narrow codes are widened **once** per strip
//! per worker into pooled f32 scratch and re-read by every row panel; an
//! f32 strip is borrowed as it is.
//!
//! ## Determinism and the scalar oracle
//!
//! Per output element the accumulation is a single k-ordered FMA chain in
//! both the vector kernel and the scalar oracle ([`gemm_strips_ref`]) — the
//! same multiplies in the same order through `simd::fma`, the same
//! `Epilogue::pre` — so the two are **bit-identical** for every code, not
//! merely close. The oracle is a test reference only: every production
//! product runs the vector kernel. Neither result depends on the row count:
//! stacking samples along the row axis cannot change a row's result. There
//! is no small-shape route to the oracle: down to `n = 3` the kernel on a
//! zero-padded strip is the faster of the two.

use crate::fused::Activation;
use crate::matmul::MatLayout;
use crate::ops::{gather_strided, transpose_tiles};
use crate::par::{self, MACS_PER_VISIT};
use crate::pool::Buffer;
use crate::simd::{self, F32x16, LANES, LANES16};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows of C per register block.
pub(crate) const QMR: usize = 6;

/// The widest strip [`choose_nr`] picks: four [`F32x16`] vectors.
const MAX_NR: usize = 4 * LANES16;

/// Multiply-adds below which a product is not split across workers: about
/// 0.3 ms of kernel time, sixteen [`par::GRAIN`]s. A GEMM's floor sits that
/// far above the grain rule's because a split costs more than the fork/join
/// here: every chunk of rows reads (and, for narrow weights, widens) every
/// strip again, and this is where a two-way split first repaid both. Above
/// it [`par::pieces`] decides like everywhere else.
const PAR_MIN_MACS: usize = 1 << 24;

/// What one GELU at store time costs, in multiply-adds of the kernel:
/// `gelu/1156x1024` runs at 0.43 ns per element against 0.013 ns per
/// multiply-add of `gemm_f32/512` on one thread of the 2-core AVX-512 guest.
/// It decides the split only where `k` is this small — the tiny model's
/// `32 → 128` MLP layer, split from 2048 stacked rows instead of 4096.
const GELU_MACS: usize = 32;

/// An element of a packed strip: stored narrow or wide, read as f32.
trait QWeight: Copy + Send + Sync + Default {
    /// Exact widening of the stored code to f32.
    fn widen(self) -> f32;

    /// `strip` as f32s for the kernel: narrow codes are widened into
    /// `scratch` (pooled, allocated on first use); `f32` borrows the strip.
    fn widened<'a>(strip: &'a [Self], scratch: &'a mut Option<Buffer>) -> &'a [f32] {
        let buf = scratch.get_or_insert_with(|| Buffer::uninit(strip.len()));
        for (d, &q) in buf.iter_mut().zip(strip) {
            *d = q.widen();
        }
        buf
    }
}

impl QWeight for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    // A copy here costs 1.2-1.5x on the bytes-bound m = 32 products.
    fn widened<'a>(strip: &'a [f32], _: &'a mut Option<Buffer>) -> &'a [f32] {
        strip
    }
}

impl QWeight for i8 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self as f32
    }
}

/// Pick the strip width (in columns) for `n` output features.
///
/// Wider strips mean more independent accumulator chains (better FMA-latency
/// hiding) but pad ragged edges with dead lanes. The choice maximizes
/// `throughput × useful-lane fraction`, weighted by an older box's W=1/2/4
/// throughputs; one thread of the 2-core AVX-512 guest reads 108/163/168
/// GFLOP/s at k = 256, the same pick at every width the models use.
fn choose_nr(n: usize) -> usize {
    let mut best = (0.0f64, LANES16);
    for (w, thr) in [(1usize, 65.0f64), (2, 103.0), (4, 113.0)] {
        let nr = w * LANES16;
        let padded = n.div_ceil(nr) * nr;
        let eff = thr * n as f64 / padded as f64;
        if eff > best.0 {
            best = (eff, nr);
        }
    }
    best.1
}

/// Lay the `k × n` matrix `op(B)` (`b[p·rs + j·cs]`) into k-major strips of
/// `nr` columns, storing each element through `f(column, value)`. Ragged
/// columns are zero-padded. `op(B)` is row-contiguous (`cs = 1`: each strip
/// row is one copy) or column-contiguous (`rs = 1`: `W^T` of a `[n, k]`
/// weight, `B^T`, `x^T`), which moves through registers 16×16 tiles at a
/// time ([`transpose_tiles`]).
fn pack_strips<Q: QWeight>(
    b: &[f32],
    lb: MatLayout,
    k: usize,
    n: usize,
    nr: usize,
    out: &mut [Q],
    f: impl Fn(usize, f32) -> Q,
) {
    debug_assert_eq!(out.len(), n.div_ceil(nr) * k * nr);
    assert!(lb.cs == 1 || lb.rs == 1, "op(B) must be row- or column-contiguous");
    for s in 0..n.div_ceil(nr) {
        let j0 = s * nr;
        let cols = nr.min(n - j0);
        let dst = &mut out[s * k * nr..(s + 1) * k * nr];
        if cols < nr {
            dst.fill(Q::default());
        }
        if lb.cs == 1 {
            for (p, d) in dst.chunks_exact_mut(nr).enumerate() {
                let src = &b[p * lb.rs + j0..p * lb.rs + j0 + cols];
                for (c, (x, &v)) in d.iter_mut().zip(src).enumerate() {
                    *x = f(j0 + c, v);
                }
            }
        } else {
            // Column `j` of op(B) is row `j` of the storage, `cs` apart.
            transpose_tiles(&b[j0 * lb.cs..], lb.cs, cols, k, |p, c0, run| {
                let d = &mut dst[p * nr + c0..p * nr + c0 + run.len()];
                for (c, (x, &v)) in d.iter_mut().zip(run).enumerate() {
                    *x = f(j0 + c0 + c, v);
                }
            });
        }
    }
}

/// An `op(B)` packed once into int8 strips and kept resident across calls.
///
/// An int8 inference session holds one per packable linear weight and
/// passes it to
/// [`matmul_bias_act_cached`](crate::fused::matmul_bias_act_cached): its
/// symmetric per-output-channel `i8` codes with one f32 scale per column
/// (`scale = max|w|/127`, codes `round(w/scale)`, so the reconstruction
/// error is at most `scale/2` per element) are the session's only int8 copy
/// of the weight. A resident pack is int8 by its type: an f32 linear reads
/// its weight by the rule at
/// [`IN_PLACE_MAX_ROWS`](crate::fused::IN_PLACE_MAX_ROWS), in place or
/// through a per-call pack. Activations and accumulation are f32.
#[derive(Debug, Clone)]
pub struct PackedWeight {
    codes: Vec<i8>,
    scales: Vec<f32>,
    n: usize,
    k: usize,
    nr: usize,
}

impl PackedWeight {
    /// Pack a `[n, k]` linear weight (PyTorch `[out, in]` convention).
    /// Returns `None` for what the pack gate refuses
    /// ([`packable`](Self::packable)).
    pub fn pack(w: &Tensor) -> Option<Self> {
        Self::packable(w).then(|| {
            let (n, k) = (w.shape()[0], w.shape()[1]);
            Self::from_layout(w.data(), MatLayout::transposed(k), k, n)
        })
    }

    /// Whether [`pack`](Self::pack) keeps `w`: 2-d, at least `LANES` output
    /// features and some input features. The gate reads the shape only —
    /// the scalar oracle consumes the same strips.
    pub fn packable(w: &Tensor) -> bool {
        w.ndim() == 2 && w.shape()[0] >= LANES && w.shape()[1] > 0
    }

    /// Pack any `k × n` `op(B)` (element `(p, j)` at `b[p·rs + j·cs]`), with
    /// no shape gate.
    pub fn from_layout(b: &[f32], lb: MatLayout, k: usize, n: usize) -> Self {
        let nr = choose_nr(n);
        let scales: Vec<f32> = (0..n)
            .map(|j| {
                let col = (0..k).map(|p| b[p * lb.rs + j * lb.cs].abs());
                col.fold(0.0f32, f32::max) / 127.0
            })
            .collect();
        let mut codes = vec![0i8; n.div_ceil(nr) * k * nr];
        pack_strips(b, lb, k, n, nr, &mut codes, |j, v| {
            let s = scales[j];
            if s == 0.0 {
                0
            } else {
                (v / s).round().clamp(-127.0, 127.0) as i8
            }
        });
        PackedWeight { codes, scales, n, k, nr }
    }

    /// Output features (columns of `op(B)`).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Input features (rows of `op(B)`).
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The `[n, k]` f32 weight the pack computes with, `code × scale`: the
    /// int8 oracle the tests compare the kernel against.
    #[cfg(test)]
    pub(crate) fn dequantized(&self) -> Tensor {
        let (n, k, nr) = (self.n, self.k, self.nr);
        let mut out = crate::pool::alloc_uninit(n * k);
        for ((j, row), &scale) in out.chunks_exact_mut(k).enumerate().zip(&self.scales) {
            let strip = &self.codes[(j / nr) * k * nr + j % nr..];
            for (p, o) in row.iter_mut().enumerate() {
                *o = strip[p * nr].widen() * scale;
            }
        }
        Tensor::from_vec(vec![n, k], out)
    }

    #[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
    fn run(
        &self,
        a: &[f32],
        la: MatLayout,
        m: usize,
        bias: Option<&[f32]>,
        act: Activation,
        c: &mut [f32],
        pre: Option<&mut [f32]>,
        vector: bool,
    ) {
        let s = Strips { codes: &self.codes[..], n: self.n, k: self.k, nr: self.nr };
        // The codes carry their per-column scales into the epilogue.
        let ep = Epilogue { scales: Some(&self.scales), bias, act };
        drive(a, la, m, s, ep, c, pre, true, vector);
    }
}

/// A borrowed pack: resident ([`PackedWeight`]) or per-call scratch.
#[derive(Clone, Copy)]
struct Strips<'a, Q> {
    codes: &'a [Q],
    n: usize,
    k: usize,
    nr: usize,
}

/// What happens to an accumulator on its way to C.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    scales: Option<&'a [f32]>,
    bias: Option<&'a [f32]>,
    act: Activation,
}

impl Epilogue<'_> {
    /// The pre-activation of column `j`: scale, then bias — the operation
    /// order of the vector store, so both round identically.
    #[inline(always)]
    fn pre(&self, mut v: f32, j: usize) -> f32 {
        if let Some(s) = self.scales {
            v *= s[j];
        }
        if let Some(b) = self.bias {
            v += b[j];
        }
        v
    }

    /// Store a tile row to `crow`, if the panel has it: scale then bias as in
    /// [`pre`](Self::pre), a vector store per full lane group, and `pre` lane
    /// by lane on a ragged one, taken out by value rather than by index.
    #[inline(always)]
    fn store<const W: usize>(&self, t: &[F32x16; W], crow: Option<&mut [f32]>) {
        let Some(crow) = crow else { return };
        let (cols, mut tail) = (crow.len(), F32x16::ZERO);
        let (sc, bi) = (self.scales.map(|s| &s[..cols]), self.bias.map(|b| &b[..cols]));
        for (w, &v) in t.iter().enumerate() {
            let l0 = w * LANES16;
            if l0 + LANES16 <= cols {
                let v = sc.map_or(v, |s| v.mul(F32x16::load(&s[l0..])));
                bi.map_or(v, |b| v.add(F32x16::load(&b[l0..]))).store(&mut crow[l0..]);
            } else if l0 < cols {
                tail = v;
            }
        }
        let l0 = cols - cols % LANES16;
        for (l, (d, &x)) in crow[l0..].iter_mut().zip(&tail.to_array()).enumerate() {
            *d = self.pre(x, l0 + l);
        }
    }

    /// Turn a run of stored pre-activations into outputs, keeping a copy
    /// for the tape when it asked for one.
    #[inline(always)]
    fn finish(&self, c: &mut [f32], pre: Option<&mut [f32]>) {
        if let Some(p) = pre {
            p.copy_from_slice(c);
        }
        self.act.apply_in_place(c);
    }
}

/// One `QMR`-row panel of one f32 `16·W`-column strip, from zero to C:
/// k-ordered FMA chains in `QMR×W` accumulators, then [`Epilogue::store`]
/// and [`Epilogue::finish`] per row. `c` / `pre` start at the panel's first
/// output, rows `n` apart; `ep` is indexed from its first column. The tile
/// stays in registers only while every access to it has a compile-time
/// index (DESIGN.md §11): A rows advance through a nested `zip`, stores name
/// rows by literals, a `FULL` panel (`mr == QMR`, `cols == 16·W`) stores
/// straight-line, and `finish`, which calls out, runs after the last.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
#[inline(always)]
fn panel<const W: usize, const FULL: bool>(
    rows: &[&[f32]; QMR],
    bw: &[f32],
    ep: Epilogue,
    n: usize,
    mr: usize,
    cols: usize,
    c: &mut [f32],
    mut pre: Option<&mut [f32]>,
) {
    let (mr, cols) = if FULL { (QMR, W * LANES16) } else { (mr, cols) };
    let mut acc = [[F32x16::ZERO; W]; QMR];
    let [r0, r1, r2, r3, r4, r5] = *rows;
    let it = bw.chunks_exact(W * LANES16).zip(r0).zip(r1).zip(r2).zip(r3).zip(r4).zip(r5);
    for ((((((bchunk, &a0), &a1), &a2), &a3), &a4), &a5) in it {
        let mut bv = [F32x16::ZERO; W];
        for (w, b) in bv.iter_mut().enumerate() {
            *b = F32x16::load(&bchunk[w * LANES16..]);
        }
        let avs = [a0, a1, a2, a3, a4, a5];
        for (accr, &av) in acc.iter_mut().zip(&avs) {
            let a = F32x16::splat(av);
            for (acw, &b) in accr.iter_mut().zip(&bv) {
                *acw = a.mul_add(b, *acw);
            }
        }
    }
    let mut crows = c.chunks_mut(n).take(mr).map(|row| &mut row[..cols]);
    let [t0, t1, t2, t3, t4, t5] = &acc;
    ep.store(t0, crows.next());
    ep.store(t1, crows.next());
    ep.store(t2, crows.next());
    ep.store(t3, crows.next());
    ep.store(t4, crows.next());
    ep.store(t5, crows.next());
    for (r, crow) in c.chunks_mut(n).take(mr).enumerate() {
        ep.finish(&mut crow[..cols], pre.as_deref_mut().map(|p| &mut p[r * n..r * n + cols]));
    }
}

/// The vector loop nest over one chunk of rows: strips → row panels →
/// [`panel`]. `a` is the chunk's first row (rows `lda` apart), `c` / `pre`
/// its `rows × n` outputs.
fn kernel<Q: QWeight, const W: usize>(
    a: &[f32],
    lda: usize,
    s: Strips<Q>,
    ep: Epilogue,
    c: &mut [f32],
    mut pre: Option<&mut [f32]>,
) {
    let Strips { codes, n, k, nr } = s;
    debug_assert_eq!(nr, W * LANES16);
    let rows = c.len() / n;
    let mut scratch = None;
    for si in 0..n.div_ceil(nr) {
        let j0 = si * nr;
        let cols = nr.min(n - j0);
        let bw = Q::widened(&codes[si * k * nr..(si + 1) * k * nr], &mut scratch);
        let (scales, bias) = (ep.scales.map(|s| &s[j0..j0 + cols]), ep.bias.map(|b| &b[j0..j0 + cols]));
        let ep = Epilogue { scales, bias, ..ep };
        for rb in (0..rows).step_by(QMR) {
            let mr = QMR.min(rows - rb);
            // Ragged panels replicate the last row into the dead lanes;
            // their results are computed and discarded.
            let rowrefs: [&[f32]; QMR] = std::array::from_fn(|i| {
                let r = rb + i.min(mr - 1);
                &a[r * lda..r * lda + k]
            });
            let at = rb * n + j0;
            let (cp, pp) = (&mut c[at..], pre.as_deref_mut().map(|p| &mut p[at..]));
            if mr == QMR && cols == nr {
                panel::<W, true>(&rowrefs, bw, ep, n, mr, cols, cp, pp);
            } else {
                panel::<W, false>(&rowrefs, bw, ep, n, mr, cols, cp, pp);
            }
        }
    }
}

/// The scalar oracle over one chunk of rows — bit-identical to [`kernel`]
/// by construction (same k-ordered [`simd::fma`] chain per element, same
/// [`Epilogue::pre`]). Strip-row-major: for each row of A the inner loop is
/// a contiguous FMA over one strip row, so it vectorizes and a strip is
/// streamed once per row rather than once per element.
fn oracle<Q: QWeight>(a: &[f32], lda: usize, s: Strips<Q>, ep: Epilogue, c: &mut [f32], mut pre: Option<&mut [f32]>) {
    let Strips { codes, n, k, nr } = s;
    let mut acc = [0.0f32; MAX_NR];
    let acc = &mut acc[..nr];
    for si in 0..n.div_ceil(nr) {
        let j0 = si * nr;
        let cols = nr.min(n - j0);
        let strip = &codes[si * k * nr..(si + 1) * k * nr];
        for i in 0..c.len() / n {
            acc.fill(0.0);
            for (&av, brow) in a[i * lda..i * lda + k].iter().zip(strip.chunks_exact(nr)) {
                // Indexed on purpose: the oracle runs in unoptimized test
                // builds, where every iterator adaptor is a call per element.
                let mut l = 0;
                while l < nr {
                    acc[l] = simd::fma(av, brow[l].widen(), acc[l]);
                    l += 1;
                }
            }
            let at = i * n + j0;
            let crow = &mut c[at..at + cols];
            for (l, (cv, &v)) in crow.iter_mut().zip(acc.iter()).enumerate() {
                *cv = ep.pre(v, j0 + l);
            }
            ep.finish(crow, pre.as_deref_mut().map(|p| &mut p[at..at + cols]));
        }
    }
}

/// The one loop nest's outer level: check the operands, bring A to row
/// order, split C (and `pre`) into one chunk of rows per worker, and run
/// each through [`kernel`] or [`oracle`].
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
fn drive<Q: QWeight>(
    a: &[f32],
    la: MatLayout,
    m: usize,
    s: Strips<Q>,
    ep: Epilogue,
    c: &mut [f32],
    pre: Option<&mut [f32]>,
    parallel: bool,
    vector: bool,
) {
    let Strips { n, k, nr, .. } = s;
    assert_eq!(c.len(), m * n, "output buffer shape");
    if let Some(b) = ep.bias {
        assert_eq!(b.len(), n, "bias length");
    }
    if let Some(p) = &pre {
        assert_eq!(p.len(), m * n, "pre-activation buffer shape");
    }
    if m == 0 || n == 0 {
        return;
    }
    // Both kernels read A a row at a time; a column-contiguous A (the
    // `A^T g` weight gradient) is transposed once, which is what packing A
    // would cost on every call.
    let transposed;
    let (a, lda) = if la.cs == 1 {
        (a, la.rs)
    } else {
        assert_eq!(la.rs, 1, "op(A) must be row- or column-contiguous");
        let mut t = Buffer::uninit(m * k);
        gather_strided(a, la.cs, m, k, &mut t);
        transposed = t;
        (&transposed[..], k)
    };
    assert!(a.len() >= (m - 1) * lda + k, "activation buffer shape");

    // One chunk of rows per worker, so each worker widens each strip once;
    // a product too small to repay the fork stays on the calling thread.
    let macs = m * n * (k + if ep.act == Activation::Gelu { GELU_MACS } else { 0 });
    let chunk_rows = if parallel && m > QMR && macs >= PAR_MIN_MACS {
        m.div_ceil(par::pieces(macs / MACS_PER_VISIT)).div_ceil(QMR) * QMR
    } else {
        m
    };
    let body = |ci: usize, cc: &mut [f32], pc: Option<&mut [f32]>| {
        let ac = &a[ci * chunk_rows * lda..];
        if !vector {
            return oracle(ac, lda, s, ep, cc, pc);
        }
        match nr / LANES16 {
            1 => kernel::<Q, 1>(ac, lda, s, ep, cc, pc),
            2 => kernel::<Q, 2>(ac, lda, s, ep, cc, pc),
            4 => kernel::<Q, 4>(ac, lda, s, ep, cc, pc),
            w => unreachable!("unsupported strip width {}", w * LANES16),
        }
    };
    let len = chunk_rows * n;
    if len >= c.len() {
        return body(0, c, pre);
    }
    match pre {
        Some(p) => c
            .par_chunks_mut(len)
            .zip(p.par_chunks_mut(len))
            .enumerate()
            .for_each(|(ci, (cc, pc))| body(ci, cc, Some(pc))),
        None => c.par_chunks_mut(len).enumerate().for_each(|(ci, cc)| body(ci, cc, None)),
    }
}

/// `c = act(scale ⊙ (op(A) · strips) + bias)` on the vector kernel,
/// whatever the shape. `op(A)` is `m × k` under `la`, `c` is
/// `[m, n]` row-major and overwritten; `pre`, when given, receives the
/// pre-activation.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
pub fn gemm_strips(
    a: &[f32],
    la: MatLayout,
    m: usize,
    pw: &PackedWeight,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
    pre: Option<&mut [f32]>,
) {
    pw.run(a, la, m, bias, act, c, pre, true);
}

/// [`gemm_strips`] on the scalar oracle: the reference the vector kernel is
/// property-tested against, bit for bit.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
pub fn gemm_strips_ref(
    a: &[f32],
    la: MatLayout,
    m: usize,
    pw: &PackedWeight,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
    pre: Option<&mut [f32]>,
) {
    pw.run(a, la, m, bias, act, c, pre, false);
}

/// A row-major `[m, k]` activation against a resident pack (an int8
/// session's linear layer).
pub(crate) fn gemm_resident(
    a: &[f32],
    m: usize,
    pw: &PackedWeight,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
) {
    pw.run(a, MatLayout::row_major(pw.k), m, bias, act, c, None, true);
}

/// `c = act(x Wᵀ + bias)` for a row-major `[m, k]` activation and a
/// row-major `[n, k]` f32 weight read where it lies: the product runs
/// swapped, as `(W · xᵀ)ᵀ`. W is the driver's A operand, read in place six
/// rows at a time, each worker streaming a disjoint share of its rows; only
/// `xᵀ` (`k × m`) is packed, for this call, into pooled scratch.
///
/// Bit-identical to the packed-`Wᵀ` product of the same operands by
/// construction: every output element is the same k-ordered FMA chain from
/// zero (`fma(w, x, acc)` is `fma(x, w, acc)`, exactly), written transposed
/// into pooled scratch with no epilogue; one O(m·n) store pass then adds
/// the bias and applies the activation, in [`Epilogue::pre`] / `finish`
/// order, copying the pre-activation to `pre` when given.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
pub(crate) fn gemm_weight_in_place(
    x: &[f32],
    m: usize,
    w: &[f32],
    n: usize,
    k: usize,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
    pre: Option<&mut [f32]>,
) {
    assert_eq!(c.len(), m * n, "output buffer shape");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length");
    }
    if let Some(p) = &pre {
        assert_eq!(p.len(), m * n, "pre-activation buffer shape");
    }
    if m == 0 || n == 0 {
        return;
    }
    let xt = ScratchStrips::pack(x, MatLayout::transposed(k), k, m);
    let mut ct = Buffer::uninit(n * m);
    let plain = Epilogue { scales: None, bias: None, act: Activation::Identity };
    drive(w, MatLayout::row_major(k), n, xt.strips(), plain, &mut ct, None, true, true);
    // The store pass: a chunk of rows transposed out of `ct` by tiles, then
    // bias and activation row by row.
    let ep = Epilogue { scales: None, bias, act };
    let rows = m.div_ceil(par::pieces(m * n));
    let store = |ci: usize, cc: &mut [f32], mut pc: Option<&mut [f32]>| {
        gather_strided(&ct[ci * rows..], m, cc.len() / n, n, cc);
        for (r, row) in cc.chunks_exact_mut(n).enumerate() {
            if bias.is_some() {
                for (j, y) in row.iter_mut().enumerate() {
                    *y = ep.pre(*y, j);
                }
            }
            ep.finish(row, pc.as_deref_mut().map(|p| &mut p[r * n..(r + 1) * n]));
        }
    };
    match pre {
        Some(p) => c
            .par_chunks_mut(rows * n)
            .zip(p.par_chunks_mut(rows * n))
            .enumerate()
            .for_each(|(ci, (cc, pc))| store(ci, cc, Some(pc))),
        None => c.par_chunks_mut(rows * n).enumerate().for_each(|(ci, cc)| store(ci, cc, None)),
    }
}

/// f32 strips of one `k × n` `op(B)` (`n > 0`) in pooled scratch: what
/// [`gemm_per_call`] packs for one product, kept for a caller that runs
/// several against it (attention packs a head's `K_hᵀ` and `V_h` once for
/// all of its query blocks).
pub(crate) struct ScratchStrips {
    codes: Buffer,
    n: usize,
    k: usize,
    nr: usize,
}

impl ScratchStrips {
    /// Pack `op(B)` (element `(p, j)` at `b[p·rs + j·cs]`) straight from its
    /// storage.
    pub(crate) fn pack(b: &[f32], lb: MatLayout, k: usize, n: usize) -> Self {
        let nr = choose_nr(n);
        let mut codes = Buffer::uninit(n.div_ceil(nr) * k * nr);
        pack_strips(b, lb, k, n, nr, &mut codes, |_, v| v);
        ScratchStrips { codes, n, k, nr }
    }

    fn strips(&self) -> Strips<'_, f32> {
        Strips { codes: &self.codes, n: self.n, k: self.k, nr: self.nr }
    }

    /// `c = scales ⊙ (op(A) · strips)` on the calling thread. `scales` is the
    /// epilogue's per-column slot: one multiply at store time, rounded like
    /// a separate `mul_scalar` pass over the product.
    pub(crate) fn gemm_seq(&self, a: &[f32], la: MatLayout, m: usize, scales: Option<&[f32]>, c: &mut [f32]) {
        let ep = Epilogue { scales, bias: None, act: Activation::Identity };
        drive(a, la, m, self.strips(), ep, c, None, false, true);
    }
}

/// `op(A) · op(B)` with f32 strips of `op(B)` packed for this one call into
/// pooled scratch.
#[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
pub(crate) fn gemm_per_call(
    a: &[f32],
    la: MatLayout,
    b: &[f32],
    lb: MatLayout,
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    c: &mut [f32],
    pre: Option<&mut [f32]>,
) {
    if n == 0 {
        return;
    }
    let strips = ScratchStrips::pack(b, lb, k, n);
    let ep = Epilogue { scales: None, bias, act };
    drive(a, la, m, strips.strips(), ep, c, pre, true, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    impl ScratchStrips {
        /// What [`PackedWeight::run`] is to a resident pack: the f32
        /// product every unpacked GEMM runs, on the vector kernel or the
        /// scalar oracle.
        #[allow(clippy::too_many_arguments)] // GEMM plumbing: operands + epilogue + outputs
        fn run(
            &self,
            a: &[f32],
            la: MatLayout,
            m: usize,
            bias: Option<&[f32]>,
            act: Activation,
            c: &mut [f32],
            pre: Option<&mut [f32]>,
            vector: bool,
        ) {
            drive(a, la, m, self.strips(), Epilogue { scales: None, bias, act }, c, pre, true, vector);
        }
    }

    #[test]
    fn i8_quantization_error_bounded_by_half_scale() {
        let w = randn(&[24, 57], 6);
        let pw = PackedWeight::pack(&w).unwrap();
        let dq = pw.dequantized();
        for j in 0..24 {
            let s = pw.scales[j];
            for p in 0..57 {
                let err = (w.data()[j * 57 + p] - dq.data()[j * 57 + p]).abs();
                assert!(err <= s * 0.5 + f32::EPSILON, "err {err} vs scale {s}");
            }
        }
    }

    #[test]
    fn zero_channel_quantizes_exactly() {
        let mut w = randn(&[16, 9], 7).data().to_vec();
        for v in w[..9].iter_mut() {
            *v = 0.0;
        }
        let w = Tensor::from_vec(vec![16, 9], w);
        let pw = PackedWeight::pack(&w).unwrap();
        assert_eq!(pw.scales[0], 0.0);
        assert!(pw.dequantized().data()[..9].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f32_strips_hold_the_weight_unchanged() {
        // The strip walk of `dequantized`, on the f32 scratch pack of `W^T`:
        // column j of W^T must be row j of W, bit for bit.
        let (n, k) = (37usize, 21usize);
        let w = randn(&[n, k], 8);
        let strips = ScratchStrips::pack(w.data(), MatLayout::transposed(k), k, n);
        let (q, nr) = (&strips.codes, strips.nr);
        assert_eq!(q.len(), n.div_ceil(nr) * k * nr);
        for j in 0..n {
            for p in 0..k {
                assert_eq!(q[(j / nr) * k * nr + p * nr + j % nr], w.data()[j * k + p]);
            }
        }
    }

    /// `randn` values with −0.0, NaN, +∞ and −∞ planted in every third
    /// row, one per row, so most outputs stay finite; row 4 is all −0.0,
    /// so its products are +0 and a negative scale stores −0.0.
    fn with_specials(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        const SPECIALS: [f32; 4] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut v = randn(&[rows, cols], seed).data().to_vec();
        for r in (2..rows).step_by(3) {
            v[r * cols + r % cols] = SPECIALS[r / 3 % 4];
        }
        if rows > 4 {
            v[4 * cols..5 * cols].fill(-0.0);
        }
        v
    }

    fn assert_bits_eq(x: &[f32], y: &[f32], what: &str) {
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i} ({a} vs {b})");
        }
    }

    #[test]
    fn vector_kernel_matches_oracle_bitwise() {
        // Zero ulps, through both store paths of `panel`: every strip width
        // at every ragged column count (the first `n` that `choose_nr`
        // gives that width and edge), every ragged row count over one and
        // two panels, and operands holding −0.0, NaN and ±∞. Each shape
        // takes the next of the 24 (stored width, activation, `pre`, k)
        // epilogues in turn — f32 scratch strips or a resident int8 pack —
        // so every one of those runs on 56 shapes; and each also runs the
        // per-column `scales` slot attention uses.
        let acts = [Activation::Identity, Activation::Gelu];
        let mut case = 0usize;
        for w in [1usize, 2, 4] {
            let nr = w * LANES16;
            for cols in 1..=nr {
                let n = (1..).find(|&n| choose_nr(n) == nr && (n - 1) % nr + 1 == cols).unwrap();
                for m in 1..=2 * QMR {
                    let int8 = case % 2 == 1;
                    let act = acts[case / 2 % 2];
                    let keep_pre = (case / 4).is_multiple_of(2);
                    let k = [1usize, 5, 23][case / 8 % 3];
                    let what = format!("int8={int8} {act:?} pre={keep_pre} m={m} k={k} n={n}");
                    let seed = case as u64;
                    case += 1;
                    let (a, wt) = (with_specials(m, k, seed), with_specials(n, k, seed + 1));
                    let bias = with_specials(n, 1, seed + 2);
                    let (la, lb) = (MatLayout::row_major(k), MatLayout::transposed(k));
                    let (pw, strips) = (PackedWeight::from_layout(&wt, lb, k, n), ScratchStrips::pack(&wt, lb, k, n));
                    assert_eq!((pw.nr, strips.nr), (nr, nr));
                    let run = |vector: bool, c: &mut [f32], pre: Option<&mut [f32]>| {
                        if int8 {
                            pw.run(&a, la, m, Some(&bias), act, c, pre, vector)
                        } else {
                            strips.run(&a, la, m, Some(&bias), act, c, pre, vector)
                        }
                    };
                    let mut c_vec = vec![0.0f32; m * n];
                    let mut c_ref = vec![f32::NAN; m * n];
                    let (mut p_vec, mut p_ref) = (vec![0.0f32; m * n], vec![f32::NAN; m * n]);
                    let (pv, pr) = if keep_pre { (Some(&mut p_vec[..]), Some(&mut p_ref[..])) } else { (None, None) };
                    run(true, &mut c_vec, pv);
                    run(false, &mut c_ref, pr);
                    assert_bits_eq(&c_vec, &c_ref, &what);
                    if keep_pre {
                        assert_bits_eq(&p_vec, &p_ref, &format!("{what} pre"));
                    }

                    let scales = with_specials(n, 1, seed + 3);
                    strips.gemm_seq(&a, la, m, Some(&scales), &mut c_vec);
                    let ep = Epilogue { scales: Some(&scales), bias: None, act: Activation::Identity };
                    drive(&a, la, m, strips.strips(), ep, &mut c_ref, None, false, false);
                    assert_bits_eq(&c_vec, &c_ref, &format!("{what} scales"));
                }
            }
        }
    }

    #[test]
    fn f32_strips_match_the_oracle_on_every_layout() {
        // The f32 product every unpacked GEMM runs, vector kernel against
        // scalar oracle, bit for bit: ragged shapes straddle the 6-row
        // panel, every strip width (16 / 32 / 64 columns, one strip and
        // several) and the 16-lane store groups, over the three operand
        // layouts, each shape taking the next of the eight (activation,
        // bias, `pre`) epilogues, on operands holding −0.0, NaN and ±∞.
        // The tensor-level product of the same operands packs the same
        // strips, so it carries the oracle's bits too.
        let mut case = 0usize;
        for m in [1usize, 5, 6, 7, 12, 13, 19] {
            for k in [1usize, 2, 17, 69] {
                for n in [1usize, 2, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 100, 129, 139] {
                    for layout in 0..3 {
                        let act = [Activation::Identity, Activation::Gelu][case % 2];
                        let (with_bias, keep_pre) = (case / 2 % 2 == 1, case / 4 % 2 == 1);
                        let seed = case as u64;
                        case += 1;
                        // nn: A [m,k] · B [k,n]; nt: A [m,k] · (B [n,k])^T;
                        // tn: (A [k,m])^T · B [k,n].
                        let (la, lb) = match layout {
                            0 => (MatLayout::row_major(k), MatLayout::row_major(n)),
                            1 => (MatLayout::row_major(k), MatLayout::transposed(k)),
                            _ => (MatLayout::transposed(m), MatLayout::row_major(n)),
                        };
                        let (a, b) = (with_specials(m, k, seed), with_specials(n, k, seed + 1));
                        let bias = with_specials(n, 1, seed + 2);
                        let bias = with_bias.then_some(&bias[..]);
                        let what = format!("layout {layout} {act:?} bias={with_bias} pre={keep_pre} m={m} k={k} n={n}");
                        let strips = ScratchStrips::pack(&b, lb, k, n);
                        let (mut c_vec, mut c_ref) = (vec![0.0f32; m * n], vec![f32::NAN; m * n]);
                        let (mut p_vec, mut p_ref) = (vec![0.0f32; m * n], vec![f32::NAN; m * n]);
                        let (pv, pr) =
                            if keep_pre { (Some(&mut p_vec[..]), Some(&mut p_ref[..])) } else { (None, None) };
                        strips.run(&a, la, m, bias, act, &mut c_vec, pv, true);
                        strips.run(&a, la, m, bias, act, &mut c_ref, pr, false);
                        assert_bits_eq(&c_vec, &c_ref, &what);
                        if keep_pre {
                            assert_bits_eq(&p_vec, &p_ref, &format!("{what} pre"));
                        }
                        // `n = 1` on a contiguous column is the mat-vec path.
                        if n > 1 {
                            let (a, b) = (Tensor::from_vec(vec![m * k], a), Tensor::from_vec(vec![k * n], b));
                            let product = match layout {
                                0 => a.reshape(vec![m, k]).matmul(&b.reshape(vec![k, n])),
                                1 => a.reshape(vec![m, k]).matmul_nt(&b.reshape(vec![n, k])),
                                _ => a.reshape(vec![k, m]).matmul_tn(&b.reshape(vec![k, n])),
                            };
                            let mut plain = vec![f32::NAN; m * n];
                            strips.run(a.data(), la, m, None, Activation::Identity, &mut plain, None, false);
                            assert_bits_eq(product.data(), &plain, &format!("{what} tensor"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_contiguous_pack_is_the_index_formula() {
        // `op(B)` element `(p, j)` at `b[p + j·ld]` — `W^T` of a `[n, k]`
        // weight when `ld = k` — packed tile by tile: every strip element is
        // that value, stored through each width's own closure (int8 with
        // its own column's scale), and every padding column is zero.
        use crate::ops::{scattered_bits, TRANSPOSE_SIDES};
        for k in TRANSPOSE_SIDES {
            for n in TRANSPOSE_SIDES {
                let ld = k + 2;
                let bits = scattered_bits((n - 1) * ld + k);
                // Finite values for the int8 scales, one magnitude per column.
                let finite: Vec<f32> =
                    (0..bits.len()).map(|i| ((i * 37 % 101) as f32 - 50.0) * (1 + i / ld) as f32).collect();
                let lb = MatLayout { rs: 1, cs: ld };
                let strips = ScratchStrips::pack(&bits, lb, k, n);
                let nr = strips.nr;
                let at = |p: usize, j: usize| (j / nr) * k * nr + p * nr + j % nr;
                for p in 0..k {
                    for j in 0..n.div_ceil(nr) * nr {
                        let want = if j < n { bits[p + j * ld].to_bits() } else { 0 };
                        assert_eq!(strips.codes[at(p, j)].to_bits(), want, "f32 k {k} n {n}: ({p}, {j})");
                    }
                }
                let pw = PackedWeight::from_layout(&finite, lb, k, n);
                let (codes, scales) = (&pw.codes, &pw.scales);
                assert_eq!(pw.nr, nr);
                for p in 0..k {
                    for j in 0..n.div_ceil(nr) * nr {
                        let want =
                            if j < n { (finite[p + j * ld] / scales[j]).round().clamp(-127.0, 127.0) as i8 } else { 0 };
                        assert_eq!(codes[at(p, j)], want, "int8 k {k} n {n}: ({p}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_gates_on_shape_only() {
        assert!(PackedWeight::pack(&randn(&[4, 16], 31)).is_none());
        assert!(PackedWeight::pack(&randn(&[16], 32)).is_none());
        assert!(PackedWeight::pack(&randn(&[16, 4], 33)).is_some());
    }

    #[test]
    fn strip_width_choice_prefers_useful_lanes() {
        assert_eq!(choose_nr(16), 16);
        assert_eq!(choose_nr(32), 32);
        assert_eq!(choose_nr(64), 64);
        assert_eq!(choose_nr(512), 64);
        // 48 columns: a 64-wide strip at 75% utilization still beats the
        // full-utilization 16-wide kernel.
        assert_eq!(choose_nr(48), 64);
    }
}

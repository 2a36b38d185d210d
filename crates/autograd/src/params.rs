//! Named parameter storage, the flat training-state layout, and the
//! gradient reduce.
//!
//! A model owns a [`ParamStore`]; the trainer registers each parameter on a
//! fresh [`crate::Tape`] per step, and optimizers update the store in place.
//! `BTreeMap` keeps iteration order deterministic, and that sorted order is
//! the [`ParamLayout`]: name → contiguous element range.
//!
//! What is flat and what is a handle. Parameters and per-job gradients stay
//! [`Tensor`] handles, because the forward consumes tensors and the tape
//! produces them; copying either into an arena would add a pass over the
//! model per job. The state only the optimizer step touches — Adam's
//! moments ([`crate::optim::Adam`]) and the step's reduced gradient
//! ([`GradAccumulator`]) — is one contiguous `f32` arena each, indexed by
//! the layout, so a step is two sweeps (the reduce here and the Adam update
//! in `optim`), each one fork/join over element-balanced shares.
//!
//! Nothing here touches a file. A checkpoint (`orbit2::checkpoint`) writes
//! the store and Adam's arenas alike as tensor sections of raw words, with
//! the layout as each section's index. The gradient arena is not state: a
//! step fills it from its jobs before the update reads it.

use orbit2_tensor::{par, Buffer, Tensor};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// A named collection of trainable tensors.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    entries: BTreeMap<String, Tensor>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a parameter.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.entries.insert(name.into(), value);
    }

    /// Get a parameter by name.
    pub fn get(&self, name: &str) -> &Tensor {
        self.entries
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
    }

    /// Get a parameter by name, returning `None` when absent (the
    /// non-panicking lookup checkpoint validation uses).
    pub fn try_get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Whether a parameter exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterate `(name, tensor)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Iterate mutably in deterministic order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Tensor)> {
        self.entries.iter_mut()
    }

    /// Names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar element count across all parameters (the "model size").
    pub fn num_elements(&self) -> usize {
        self.entries.values().map(|t| t.len()).sum()
    }
}

/// Where one parameter lives in every flat training-state arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutEntry {
    name: String,
    shape: Vec<usize>,
    offset: usize,
    len: usize,
}

impl LayoutEntry {
    /// Parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element count (the product of the shape).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The parameter's element range in an arena.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// The flat layout of a parameter set: names in sorted order, each with its
/// shape and its contiguous element range. One layout indexes every arena of
/// training state that is stored flat — Adam's moments and the step's
/// reduced gradient — and is the index line of a checkpoint's tensor
/// sections. It is the unit a sharded optimizer would cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamLayout {
    entries: Vec<LayoutEntry>,
    total: usize,
}

impl ParamLayout {
    /// The layout of a store.
    pub fn of(store: &ParamStore) -> Self {
        let index = store.iter().map(|(name, t)| (name.clone(), t.shape().to_vec())).collect();
        Self::from_index(index).expect("a store's names are sorted and its tensors are allocated")
    }

    /// Build a layout from `(name, shape)` pairs that may come from outside
    /// the program: names must be strictly ascending (so no duplicates) and
    /// neither a shape product nor the running total may overflow.
    pub fn from_index(index: Vec<(String, Vec<usize>)>) -> Result<Self, String> {
        let mut entries: Vec<LayoutEntry> = Vec::with_capacity(index.len());
        let mut total = 0usize;
        for (name, shape) in index {
            if entries.last().is_some_and(|prev| prev.name >= name) {
                return Err(format!("tensor `{name}` is duplicated or out of order"));
            }
            let len = shape
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .ok_or_else(|| format!("tensor `{name}` shape {shape:?} overflows"))?;
            let end = total
                .checked_add(len)
                .ok_or_else(|| format!("tensor `{name}` pushes the layout past usize"))?;
            entries.push(LayoutEntry { name, shape, offset: total, len });
            total = end;
        }
        Ok(Self { entries, total })
    }

    /// Entries in name order.
    pub fn entries(&self) -> &[LayoutEntry] {
        &self.entries
    }

    /// Elements in one arena.
    pub fn total(&self) -> usize {
        self.total
    }

    /// True when the layout holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `store` holds exactly these names with these shapes.
    pub(crate) fn matches(&self, store: &ParamStore) -> bool {
        self.entries.len() == store.len()
            && self
                .entries
                .iter()
                .zip(store.iter())
                .all(|(e, (name, t))| e.name == *name && e.shape == t.shape())
    }
}

/// A name→gradient map as produced by a backward pass over a model.
pub type GradMap = BTreeMap<String, Tensor>;

/// A splittable run of elements: the unit [`sweep`] balances.
pub(crate) trait Span: Sized + Send {
    /// Elements in the run.
    fn len(&self) -> usize;
    /// Cut into `[0, at)` and `[at, len)`.
    fn split_at(self, at: usize) -> (Self, Self);
}

/// Run `f` over every span, in parallel: the spans are cut into one
/// contiguous share per thread that can take one, equal in *elements* (a
/// share boundary may fall inside a span), so a step is one fork/join
/// however many tensors the model has. The grain rule
/// (`orbit2_tensor::par`) counts an element as one visit, though `f`
/// streams several arrays past it: a sweep too small to split by that
/// count stays on the calling thread. `f` must be elementwise — then the
/// result does not depend on where the shares are cut, or on how many.
pub(crate) fn sweep<S: Span>(spans: Vec<S>, f: impl Fn(S) + Sync) {
    let total: usize = spans.iter().map(Span::len).sum();
    let parts = par::pieces(total);
    let mut shares: Vec<Vec<S>> = (0..parts).map(|_| Vec::new()).collect();
    let quota = |part: usize| total * (part + 1) / parts - total * part / parts;
    let (mut part, mut room) = (0, quota(0));
    for mut span in spans {
        while part + 1 < parts && span.len() > room {
            if room > 0 {
                let (head, tail) = span.split_at(room);
                shares[part].push(head);
                span = tail;
            }
            part += 1;
            room = quota(part);
        }
        // The quotas sum to `total`, so what is left always fits the last share.
        room -= span.len();
        shares[part].push(span);
    }
    shares.par_iter_mut().for_each(|share| std::mem::take(share).into_iter().for_each(&f));
}

/// Elements the reduce accumulates on the stack between passes: 1 KiB, so
/// the passes run in L1 and every job's gradient stream advances together
/// (at 4 KiB — a page of one stream at a time — the sweep measured slower
/// in three of four alternating runs).
pub(crate) const REDUCE_BLOCK: usize = 256;

/// One destination run of the reduce and where its sources start.
pub(crate) struct ReduceSpan<'a> {
    /// Where the result goes.
    pub(crate) dst: &'a mut [f32],
    /// Which tensor's sources to read.
    pub(crate) tensor: usize,
    /// Offset of `dst[0]` in each source.
    pub(crate) start: usize,
}

impl Span for ReduceSpan<'_> {
    fn len(&self) -> usize {
        self.dst.len()
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        let (head, tail) = self.dst.split_at_mut(at);
        (
            Self { dst: head, tensor: self.tensor, start: self.start },
            Self { dst: tail, tensor: self.tensor, start: self.start + at },
        )
    }
}

/// The gradient reduce: per element, in this order,
/// `x = (((g₀ + g₁) + …) + gₙ₋₁) · inv_jobs` over the jobs in *job order*,
/// then `x ·= post` if given, then the finite check, then the store.
///
/// The order is a contract. Summing in job order rather than in a
/// per-worker tree keeps the bits independent of the thread count —
/// `(g₀+g₁)+(g₂+g₃)` and `((g₀+g₁)+g₂)+g₃` differ — and equal to the
/// sequential composition this replaced.
pub(crate) struct Reduce<'a> {
    /// `srcs[tensor * jobs + j]` is job `j`'s gradient for `tensor`.
    pub(crate) srcs: Vec<&'a [f32]>,
    /// Jobs per tensor.
    pub(crate) jobs: usize,
    /// The factor applied after the mean.
    pub(crate) post: Option<f32>,
}

impl Reduce<'_> {
    /// Sweep `spans`; true when every stored element is finite.
    pub(crate) fn run(&self, spans: Vec<ReduceSpan<'_>>) -> bool {
        let finite = AtomicBool::new(true);
        sweep(spans, |span| {
            if !self.span(span) {
                // A flag, not a publication: the join orders it.
                finite.store(false, Ordering::Relaxed);
            }
        });
        finite.into_inner()
    }

    fn span(&self, span: ReduceSpan<'_>) -> bool {
        let srcs = &self.srcs[span.tensor * self.jobs..][..self.jobs];
        let (first, rest) = srcs.split_first().expect("a reduce has at least one job");
        let inv_jobs = 1.0 / self.jobs as f32;
        let mut block = [0.0f32; REDUCE_BLOCK];
        let mut finite = true;
        for (b, dst) in span.dst.chunks_mut(REDUCE_BLOCK).enumerate() {
            let at = span.start + b * REDUCE_BLOCK;
            let acc = &mut block[..dst.len()];
            acc.copy_from_slice(&first[at..at + dst.len()]);
            for src in rest {
                for (a, &g) in acc.iter_mut().zip(&src[at..at + dst.len()]) {
                    *a += g;
                }
            }
            for a in acc.iter_mut() {
                *a *= inv_jobs;
            }
            if let Some(s) = self.post {
                for a in acc.iter_mut() {
                    *a *= s;
                }
            }
            finite &= acc.iter().fold(true, |ok, x| ok & x.is_finite());
            dst.copy_from_slice(acc);
        }
        finite
    }
}

/// Job `job`'s gradient for `name`, checked against the expected shape.
fn job_grad<'a>(job: &'a GradMap, name: &str, shape: &[usize]) -> &'a [f32] {
    let g = job.get(name).unwrap_or_else(|| panic!("gradient map missing key {name}"));
    assert_eq!(g.shape(), shape, "gradient shape mismatch for {name}");
    g.data()
}

/// Average several gradient maps elementwise (the TILES once-per-batch
/// gradient all-reduce). All maps must share the first map's keys and
/// shapes. One `Reduce` sweep: summed in map order, scaled once.
pub fn average_grad_maps(maps: &[GradMap]) -> GradMap {
    assert!(!maps.is_empty(), "no gradient maps to average");
    let mut out: GradMap = maps[0]
        .iter()
        .map(|(key, g)| (key.clone(), Tensor::from_buffer(g.shape_handle(), Buffer::uninit(g.len()))))
        .collect();
    let mut srcs = Vec::with_capacity(out.len() * maps.len());
    let mut spans = Vec::with_capacity(out.len());
    for (tensor, (key, dst)) in out.iter_mut().enumerate() {
        srcs.extend(maps.iter().map(|m| job_grad(m, key, dst.shape())));
        spans.push(ReduceSpan { dst: dst.data_mut(), tensor, start: 0 });
    }
    Reduce { srcs, jobs: maps.len(), post: None }.run(spans);
    out
}

/// The step's gradient arena: one buffer over a [`ParamLayout`] that
/// [`GradAccumulator::finish`] fills with the step's total gradient, which
/// [`crate::optim::Adam::step_accumulated`] then reads. Between steps it is
/// scratch, not state.
///
/// Per-job gradients stay `Tensor` handles (the tape produces them); only
/// their reduction is flat.
#[derive(Debug)]
pub struct GradAccumulator {
    layout: ParamLayout,
    sum: Tensor,
    /// Per layout entry: whether the step's first job had a gradient for
    /// it. A parameter without one is skipped by the optimizer.
    held: Vec<bool>,
}

impl GradAccumulator {
    /// An arena over `layout`, holding no gradient yet.
    pub fn new(layout: ParamLayout) -> Self {
        let held = vec![false; layout.entries().len()];
        Self { sum: Tensor::zeros(vec![layout.total()]), layout, held }
    }

    /// The layout the arena follows.
    pub(crate) fn layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// The tensors the last [`GradAccumulator::finish`] reduced, in layout
    /// order.
    pub fn held(&self) -> impl Iterator<Item = (&LayoutEntry, &[f32])> {
        let sum = self.sum.data();
        self.layout
            .entries()
            .iter()
            .zip(&self.held)
            .filter(|(_, &held)| held)
            .map(move |(e, _)| (e, &sum[e.range()]))
    }

    /// Reduce one step's jobs into the arena: their job-ordered mean, times
    /// `unscale` if given. Returns whether every element of that total is
    /// finite.
    pub fn finish(&mut self, jobs: &[GradMap], unscale: Option<f32>) -> bool {
        assert!(!jobs.is_empty(), "no gradient maps to reduce");
        for (held, e) in self.held.iter_mut().zip(self.layout.entries()) {
            *held = jobs[0].contains_key(e.name());
        }
        let mut srcs = Vec::with_capacity(self.held.len() * jobs.len());
        let mut spans = Vec::with_capacity(self.held.len());
        let mut rest = self.sum.data_mut();
        for (e, &held) in self.layout.entries().iter().zip(&self.held) {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(e.len());
            rest = tail;
            if held {
                spans.push(ReduceSpan { dst, tensor: spans.len(), start: 0 });
                srcs.extend(jobs.iter().map(|job| job_grad(job, e.name(), e.shape())));
            }
        }
        Reduce { srcs, jobs: jobs.len(), post: unscale }.run(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_counts() {
        let mut p = ParamStore::new();
        p.insert("w", Tensor::zeros(vec![2, 3]));
        p.insert("b", Tensor::zeros(vec![3]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_elements(), 9);
        assert_eq!(p.get("w").shape(), &[2, 3]);
        assert!(p.contains("b"));
        assert!(!p.contains("x"));
    }

    #[test]
    fn iteration_order_is_sorted() {
        let mut p = ParamStore::new();
        p.insert("z", Tensor::zeros(vec![1]));
        p.insert("a", Tensor::zeros(vec![1]));
        p.insert("m", Tensor::zeros(vec![1]));
        let names: Vec<&String> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn grad_map_averaging() {
        let mut a = GradMap::new();
        a.insert("w".into(), Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let mut b = GradMap::new();
        b.insert("w".into(), Tensor::from_vec(vec![2], vec![3.0, 6.0]));
        let avg = average_grad_maps(&[a, b]);
        assert_eq!(avg["w"].data(), &[2.0, 4.0]);
    }

    #[test]
    fn sweep_touches_every_element_exactly_once() {
        // A one-job reduce that doubles: element `i` of a tensor reads
        // `i + 1` and stores `2i + 2`. A skipped element keeps its NaN, and
        // a span cut at the wrong source offset stores another element's
        // double. Lengths: empty, below the fork threshold, and long enough
        // that share boundaries fall inside tensors.
        for lens in [vec![0, 5, 1], vec![3, 0, 70_000, 1, 65_536, 0, 9], vec![200_001]] {
            let srcs: Vec<Vec<f32>> = lens.iter().map(|&n| (1..=n).map(|i| i as f32).collect()).collect();
            let mut tensors: Vec<Vec<f32>> = lens.iter().map(|&n| vec![f32::NAN; n]).collect();
            let spans = tensors
                .iter_mut()
                .enumerate()
                .map(|(tensor, t)| ReduceSpan { dst: t.as_mut_slice(), tensor, start: 0 })
                .collect();
            let double = Reduce { srcs: srcs.iter().map(Vec::as_slice).collect(), jobs: 1, post: Some(2.0) };
            assert!(double.run(spans));
            for (t, s) in tensors.iter().zip(&srcs) {
                assert!(t.iter().zip(s).all(|(&x, &v)| x == 2.0 * v), "lens {lens:?}");
            }
        }
    }

    #[test]
    fn layout_follows_the_store_and_rejects_bad_indexes() {
        let mut p = ParamStore::new();
        p.insert("w", Tensor::zeros(vec![2, 3]));
        p.insert("b", Tensor::zeros(vec![3]));
        p.insert("s", Tensor::scalar(1.0));
        let layout = ParamLayout::of(&p);
        assert!(layout.matches(&p));
        assert_eq!(layout.total(), 10);
        let ranges: Vec<_> = layout.entries().iter().map(|e| (e.name(), e.range())).collect();
        assert_eq!(ranges, [("b", 0..3), ("s", 3..4), ("w", 4..10)]);
        p.insert("w", Tensor::zeros(vec![3, 2]));
        assert!(!layout.matches(&p));

        let index = |names: &[&str], shape: &[usize]| {
            names.iter().map(|n| (n.to_string(), shape.to_vec())).collect::<Vec<_>>()
        };
        assert!(ParamLayout::from_index(index(&["a", "a"], &[1])).is_err(), "duplicate");
        assert!(ParamLayout::from_index(index(&["b", "a"], &[1])).is_err(), "unsorted");
        assert!(ParamLayout::from_index(index(&["a"], &[usize::MAX, 2])).is_err(), "product overflow");
        assert!(ParamLayout::from_index(index(&["a", "b"], &[usize::MAX / 2 + 1])).is_err(), "sum overflow");
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn missing_param_panics() {
        ParamStore::new().get("nope");
    }
}

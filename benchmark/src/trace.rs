//! In-memory span recorder for the traced run.
//!
//! Every span is recorded from the harness's own files, around a call into
//! one of the repo's public functions; nothing inside the program is
//! instrumented. Spans are kept in memory and written as one JSON object
//! per line when the run ends. A span carries the span that caused it
//! (`parent`, 0 = none) and the operation it belongs to (`op`), so that the
//! spans of one request, field or step share an identifier even when they
//! ran on different threads.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no span".
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's identifier (unique within a run, never 0).
    pub id: SpanId,
    /// The span that caused this one, or 0 for a root.
    pub parent: SpanId,
    /// The operation (request, field, step) this span belongs to.
    pub op: u32,
    /// Layer-qualified name, e.g. `model.linear`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one run. Shared by reference across client threads
/// and rayon workers.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span: records itself into the tracer when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: SpanId,
    op: u32,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    /// The identifier children name as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // A poisoned lock means another thread panicked mid-push; the
        // vector is still a valid list of finished spans.
        let mut spans = self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the returned guard drops.
    pub fn open(&self, name: &'static str, parent: SpanId, op: u32) -> Open<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            tracer: self,
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Time `f` inside a span.
    pub fn within<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let _open = self.open(name, parent, op);
        f()
    }

    /// Record an interval that was timed elsewhere (e.g. a replay whose
    /// duration is needed as a number before it is stored).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Mean cost of opening and closing one empty span, in nanoseconds:
    /// the tracer's resolution. Measured, so it differs from run to run.
    /// The probe spans are discarded.
    pub fn span_floor_ns() -> f64 {
        const PROBES: u32 = 2000;
        let scratch = Tracer::new();
        for _ in 0..PROBES {
            drop(scratch.open("trace.floor", 0, 0));
        }
        let spans = scratch.snapshot();
        spans.iter().map(|s| s.dur_ns() as f64).sum::<f64>() / spans.len() as f64
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.snapshot() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, parallel to `spans`: its duration minus the
/// part of that interval its child spans cover. Children that ran
/// concurrently on several threads cover their union once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<SpanId, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.dur_ns() - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Share of the root spans' wall time that no leaf span covers: time the
/// trace cannot attribute to a layer. Roots are the parentless spans
/// named `root_name`; a leaf belongs to the root that shares its `op`.
pub fn unattributed_share(spans: &[Span], root_name: &str) -> f64 {
    let is_parent: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.parent).collect();
    let mut leaves: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if !is_parent.contains(&s.id) && s.name != root_name {
            leaves.entry(s.op).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let (mut total, mut attributed) = (0u64, 0u64);
    for root in spans
        .iter()
        .filter(|s| s.name == root_name && s.parent == 0)
    {
        total += root.dur_ns();
        let mine = leaves.get(&root.op).cloned().unwrap_or_default();
        attributed += covered(mine, root.start_ns, root.end_ns);
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - attributed as f64 / total as f64
}

/// For every span named `parent_name`, in id order, the summed duration
/// (ns) of its direct children named `child_name` (0 when it has none).
pub fn child_sums(spans: &[Span], parent_name: &str, child_name: &str) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<SpanId, f64> = spans
        .iter()
        .filter(|s| s.name == parent_name)
        .map(|s| (s.id, 0.0))
        .collect();
    for s in spans.iter().filter(|s| s.name == child_name) {
        if let Some(slot) = sums.get_mut(&s.parent) {
            *slot += s.dur_ns() as f64;
        }
    }
    sums.into_values().collect()
}

/// Duration of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: SpanId,
        op: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 1, "op", 0, 100),
            span(2, 1, 1, "a", 10, 30),
            span(3, 1, 1, "b", 50, 70),
            span(4, 3, 1, "c", 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 15, 5]);
    }

    #[test]
    fn concurrent_children_cover_their_union_once() {
        // Two tile forwards on two threads overlap on [20, 40].
        let spans = vec![
            span(1, 0, 1, "op", 0, 100),
            span(2, 1, 1, "tile", 10, 40),
            span(3, 1, 1, "tile", 20, 60),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span(1, 0, 1, "op", 10, 20), span(2, 1, 1, "late", 15, 40)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn unattributed_share_counts_only_gaps_between_leaves() {
        let spans = vec![
            span(1, 0, 1, "op", 0, 100),
            span(2, 1, 1, "fwd", 0, 80),
            span(3, 2, 1, "leaf", 0, 30),
            span(4, 2, 1, "leaf", 40, 80),
            span(5, 1, 1, "stitch", 80, 90),
        ];
        // Leaves cover 30 + 40 + 10 of 100.
        assert!((unattributed_share(&spans, "op") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn child_sums_group_by_parent_span() {
        let spans = vec![
            span(1, 0, 1, "fwd", 0, 10),
            span(2, 1, 1, "x", 0, 3),
            span(3, 1, 1, "x", 4, 6),
            span(4, 0, 1, "fwd", 10, 20),
            span(5, 4, 1, "x", 10, 17),
            span(6, 0, 2, "fwd", 20, 30),
            span(7, 6, 2, "y", 20, 30),
        ];
        assert_eq!(child_sums(&spans, "fwd", "x"), vec![5.0, 7.0, 0.0]);
    }

    #[test]
    fn guards_record_parent_and_op() {
        let t = Tracer::new();
        {
            let root = t.open("op", 0, 7);
            t.within("child", root.id(), 7, || std::hint::black_box(1 + 1));
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(Tracer::span_floor_ns() > 0.0);
    }
}

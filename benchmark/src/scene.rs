//! What every workload provides, and the one run loop that measures it.
//!
//! An untraced run (`--trace 0`) sets the workload up three times, reports
//! the median set-up time, and times one window of ops on the last set-up:
//! the end-to-end metrics. A traced run (`--trace 1`) sets up once, times a
//! half-length window without spans and a half-length window with them —
//! their throughput ratio is the tracing overhead — and then runs the
//! workload's layer probes: the per-layer metrics.

use crate::procfs;
use crate::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::Spec;
use orbit2_tensor::pool;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a scene needs to know about the run it is set up for.
#[derive(Debug, Clone)]
pub struct Mode {
    /// Seeds the dataset and the model initialisation.
    pub seed: u64,
    /// Length of the run's timed windows, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Where scratch files (checkpoints) and results go.
    pub out_dir: PathBuf,
}

/// Stage times collected while a scene sets itself up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimings {
    fit_ms: Vec<f64>,
    sample_ms: Vec<f64>,
    session_ms: Vec<f64>,
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    into.push(t0.elapsed().as_secs_f64() * 1e3);
    out
}

impl SetupTimings {
    /// Time a `Normalizer::fit`.
    pub fn time_fit<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.fit_ms, f)
    }

    /// Time a `DownscalingDataset::sample`.
    pub fn time_sample<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.sample_ms, f)
    }

    /// Time a `ReslimModel::session`.
    pub fn time_session<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.session_ms, f)
    }

    fn report(&self, m: &mut Metrics) {
        m.put_sample("climate.normalizer_fit_ms", &self.fit_ms, 1.0);
        m.put_sample("climate.sample_ms", &self.sample_ms, 1.0);
        m.put_sample("model.session_prepare_ms", &self.session_ms, 1.0);
    }
}

/// One timed window of ops.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Latency of every successful op, in ms.
    pub lat_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Wall time of the whole window, in seconds.
    pub wall_s: f64,
    /// Every output checked in this window was right.
    pub correct: bool,
}

impl Window {
    /// Successful ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// A workload, set up and ready to run ops.
pub trait Scene: Sized {
    /// Name of the parentless span that covers one traced op.
    const ROOT: &'static str;

    /// Build everything up to and including the warm-up ops.
    fn setup(spec: &Spec, mode: &Mode) -> Self;

    /// Stage times of the set-up.
    fn timings(&self) -> &SetupTimings;

    /// Run ops for about `seconds`, checking every output; with a tracer,
    /// run the traced form of the op.
    fn window(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Window;

    /// After the traced window: replay and probe the layers, and turn the
    /// spans into per-layer metrics.
    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics, nproc: usize);

    /// Workload facts to keep beside the metrics.
    fn facts(&self) -> BTreeMap<String, Value> {
        BTreeMap::new()
    }

    /// A check on the run as a whole, made after the last window.
    fn final_check(&self) -> bool {
        true
    }

    /// Stop everything the scene started and wait for it to end.
    fn teardown(self);
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced<S: Scene>(spec: &Spec, mode: &Mode) -> RunResult {
    let mut setup_s = Vec::with_capacity(mode.setups);
    let mut scene = None;
    for _ in 0..mode.setups.max(1) {
        // The previous scene goes before the next is built, so that peak
        // RSS is that of one scene.
        if let Some(old) = scene.take() {
            S::teardown(old);
        }
        let t0 = Instant::now();
        scene = Some(S::setup(spec, mode));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut scene = scene.expect("at least one set-up");
    let w = scene.window(mode.seconds, None);
    let (facts, checked) = (scene.facts(), scene.final_check());
    scene.teardown();

    let mut m = Metrics::default();
    m.put_sample("setup_s", &setup_s, 1.0);
    m.put("ops_per_s", w.ops_per_s());
    m.put_sample("op_p50_ms", &w.lat_ms, 1.0);
    m.put("peak_rss_mb", procfs::peak_rss_mb());
    RunResult {
        correct: w.correct && checked && w.failed == 0 && !w.lat_ms.is_empty(),
        attempted: w.attempted.max(1),
        failed: w.failed,
        metrics: m,
        facts,
    }
}

/// The traced run: per-layer metrics. Spans go to `spans_path`.
pub fn run_traced<S: Scene>(spec: &Spec, mode: &Mode, spans_path: &Path) -> RunResult {
    let floor_ns = Tracer::span_floor_ns();
    let seconds = mode.seconds;
    let mut scene = S::setup(spec, mode);
    let mut threads_peak = procfs::threads_now();

    // Window A, spans off: the reference for the overhead, and the source
    // of the client- and process-level numbers.
    let (cpu0, pool0) = (procfs::cpu_time(), pool::global_stats());
    let plain = scene.window(seconds / 2.0, None);
    let (cpu1, pool1) = (procfs::cpu_time(), pool::global_stats());
    threads_peak = threads_peak.max(procfs::threads_now());

    // Window B, spans on.
    let tracer = Tracer::new();
    let traced = scene.window(seconds / 2.0, Some(&tracer));
    threads_peak = threads_peak.max(procfs::threads_now());
    let window_spans = tracer.snapshot();

    let mut m = Metrics::default();
    scene.timings().report(&mut m);
    scene.probes(&tracer, &mut m, nproc());
    threads_peak = threads_peak.max(procfs::threads_now());
    let (facts, checked) = (scene.facts(), scene.final_check());
    scene.teardown();

    let ops = (plain.attempted - plain.failed).max(1) as f64;
    let lat = stats::sorted(&plain.lat_ms);
    if !lat.is_empty() {
        m.put("client.op_p90_ms", stats::percentile_sorted(&lat, 0.9));
        m.put("client.op_max_ms", lat[lat.len() - 1]);
    }
    m.put(
        "proc.cpu_ms_per_op",
        (cpu1 - cpu0).as_secs_f64() * 1e3 / ops,
    );
    m.put("proc.threads_peak", threads_peak as f64);
    let (fresh, reuses) = (
        pool1.fresh_allocs - pool0.fresh_allocs,
        pool1.reuses - pool0.reuses,
    );
    m.put("tensor.pool_fresh_allocs_per_op", fresh as f64 / ops);
    if fresh + reuses > 0 {
        m.put(
            "tensor.pool_reuse_share",
            reuses as f64 / (fresh + reuses) as f64,
        );
    }
    m.put(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    m.put(
        "trace.unattributed_share",
        trace::unattributed_share(&window_spans, S::ROOT),
    );
    m.put("trace.span_floor_ns", floor_ns);
    m.fill_off_path(&PER_LAYER, floor_ns);

    let wrote = tracer.write_jsonl(spans_path);
    if let Err(e) = &wrote {
        eprintln!("benchmark: writing {}: {e}", spans_path.display());
    }
    let both = |f: fn(&Window) -> u64| f(&plain) + f(&traced);
    RunResult {
        correct: plain.correct
            && traced.correct
            && checked
            && both(|w| w.failed) == 0
            && !plain.lat_ms.is_empty()
            && !traced.lat_ms.is_empty()
            && wrote.is_ok(),
        attempted: both(|w| w.attempted).max(1),
        failed: both(|w| w.failed),
        metrics: m,
        facts,
    }
}

/// The metric list a run with this `trace` flag reports.
pub fn defs_for(traced: bool) -> &'static [crate::report::Def] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

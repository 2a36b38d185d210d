//! The server core: admission, one worker job per request, and the
//! lifecycle.
//!
//! One [`Server`] owns one model and one tape-free
//! [`InferenceSession`](orbit2_model::InferenceSession) at the configured
//! weight precision — weights (and an int8 session's GEMM packs) are
//! prepared once, by [`Server::start`], and shared read-only by every
//! worker that executes on its behalf. Precision is a deployment setting:
//! a request's `precision` field can only *assert* it, and a mismatch is
//! refused at admission, so nothing on the request path ever builds a
//! session.
//!
//! A submitted request is validated and resolved to a `[C, h, w]` input on
//! the submitting thread. Admission then hands it to the rayon shim's
//! persistent worker registry as one detached `rayon::spawn` job, so the
//! registry's first-in, first-out queue is the only queue. The job runs the
//! library's one inference call, [`downscale_with`] (normalize, split into
//! tiles, one forward per tile, stitch, denormalize), as its worker's own
//! job: every parallel kernel of the forward offers pieces to the workers
//! that are idle at that instant and takes back what none of them started,
//! so a lone request uses every core and two concurrent requests one each,
//! with no setting here that chooses. It cannot deadlock — a worker waits
//! only for pieces a helper has started, and a helper never forks — and it
//! cannot change a reply: no kernel's bits depend on how its call was split
//! (`tests/split_invariance.rs`).
//!
//! Resilience (see DESIGN.md §10 "Failure semantics"): a request may carry
//! a **deadline**, checked at admission, at dispatch (an expired request is
//! shed before any forward runs), and once the forward is done; a forward
//! that panics is retried once alone, and a second panic fails exactly that
//! request with a typed `internal` error; a [`FaultPlan`] (config field or
//! `ORBIT2_SERVE_FAULT_PLAN`) injects deterministic panics and stragglers
//! at `(dispatch ordinal, 0)` to prove all of it under test; and
//! [`Server::drain`] stops admission, lets in-flight work finish, and
//! completes stragglers with `shutting_down`.

use crate::oneshot::{Handle, Oneshot};
use orbit2::fault::{FaultKind, FaultPlan};
use orbit2::inference::{check_tiling, downscale_with, validate_input};
use orbit2::serving::{RequestSource, ServeError, ServeHealth, ServeRequest, ServeResponse, ServeStats};
use orbit2_climate::{DownscalingDataset, Normalizer};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{InferenceSession, ReslimModel};
use orbit2_tensor::fused::WeightPrecision;
use orbit2_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs. The defaults suit the CPU-scale models in this repo;
/// every knob is exercised by tests or the serving bench.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How each request's input is split into TILES tiles, as
    /// `downscale_with` takes it (`None` = the sample whole).
    pub tile: Option<TileSpec>,
    /// Most requests in flight before admission returns `QueueFull`.
    pub queue_capacity: usize,
    /// Weight precision of this deployment: [`Server::start`] prepares the
    /// server's one session at it. A request naming a different precision
    /// is rejected with `bad_request`, never served at another one.
    pub precision: WeightPrecision,
    /// Deadline applied to requests that don't carry a wire `deadline_ms`
    /// of their own (`None` = no deadline). Measured from admission;
    /// expired work is shed at admission, at dispatch, and after the
    /// forward.
    pub default_deadline_ms: Option<u64>,
    /// Fault-injection schedule for chaos testing the serve path. `None`
    /// arms from the `ORBIT2_SERVE_FAULT_PLAN` environment variable (the
    /// serving twin of the trainer's `ORBIT2_FAULT_PLAN`); pass
    /// `Some(FaultPlan::none())` to pin a server fault-free regardless of
    /// the environment. Coordinates are `(dispatch ordinal, 0)`: the
    /// ordinal is [`ServeStats::batches`] when the request is dispatched.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tile: None,
            queue_capacity: 256,
            precision: WeightPrecision::F32,
            default_deadline_ms: None,
            fault_plan: None,
        }
    }
}

/// A named data region the server can resolve requests against.
pub struct Region {
    /// Region name used in requests.
    pub name: String,
    /// The region's (synthetic) data series.
    pub dataset: DownscalingDataset,
}

/// One admitted request: everything its worker job needs.
struct Job {
    id: u64,
    /// The resolved `[C, h, w]` input in physical units.
    input: Tensor,
    compression: f32,
    var_sel: Option<Vec<usize>>,
    started: Instant,
    /// Absolute deadline (admission time + effective `deadline_ms`) and the
    /// effective `deadline_ms` itself, if the request or the server default
    /// set one.
    deadline: Option<(Instant, u64)>,
    done: Arc<Oneshot>,
    /// In-flight accounting: released when the job drops, which is exactly
    /// once per request no matter how it ends.
    _slot: InflightSlot,
}

impl Job {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|(at, _)| Instant::now() >= at)
    }
}

/// One unit of the admission cap, held from the capacity check until it
/// drops. Admission takes it *as a guard* so that nothing between the cap
/// and a terminal state — an early return, a panic in a forward — can leak
/// the slot; a leaked slot is permanent, and `queue_capacity` of them would
/// answer `queue_full` forever.
struct InflightSlot(Arc<AtomicUsize>);

impl InflightSlot {
    /// Take a slot, or `None` when `capacity` requests already hold one.
    fn take(gauge: &Arc<AtomicUsize>, capacity: usize) -> Option<Self> {
        let held = gauge.fetch_add(1, Ordering::SeqCst);
        let slot = Self(Arc::clone(gauge));
        // Over capacity the guard drops right here, undoing the add.
        (held < capacity).then_some(slot)
    }
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The server's monotonic counters, one atomic per [`ServeStats`] field
/// that the server itself ticks. `Relaxed` throughout: each is a statistic
/// that publishes no other data.
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    retried_jobs: AtomicU64,
    quarantined_jobs: AtomicU64,
    shed_jobs: AtomicU64,
    deadline_expired: AtomicU64,
}

impl Counters {
    /// The one place a [`ServeStats`] is assembled: these counters and the
    /// process-wide buffer-pool counters.
    fn snapshot(&self) -> ServeStats {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let pool = orbit2_tensor::pool::global_stats();
        ServeStats {
            admitted: read(&self.admitted),
            completed: read(&self.completed),
            batches: read(&self.batches),
            batched_jobs: 0,
            retried_jobs: read(&self.retried_jobs),
            quarantined_jobs: read(&self.quarantined_jobs),
            shed_jobs: read(&self.shed_jobs),
            deadline_expired: read(&self.deadline_expired),
            pool_fresh_allocs: pool.fresh_allocs,
            pool_reuses: pool.reuses,
            pool_copies: pool.copies,
        }
    }
}

/// Lifecycle states: admission is open only while `RUNNING`; `DRAINING`
/// sheds new requests while admitted work completes; `STOPPED` makes every
/// job a worker reaches from then on complete with `shutting_down` instead
/// of running its forward.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

struct Inner {
    model: ReslimModel,
    /// The server's one session, prepared at `cfg.precision` by `start`.
    session: InferenceSession,
    normalizer: Normalizer,
    regions: Vec<Region>,
    cfg: ServerConfig,
    inflight: Arc<AtomicUsize>,
    /// Requests admitted whose job no worker has started yet.
    queued: AtomicUsize,
    /// One of `RUNNING` / `DRAINING` / `STOPPED`; only moves forward.
    state: AtomicU8,
    /// The resolved fault-injection schedule (empty when unarmed).
    fault_plan: FaultPlan,
    counters: Counters,
}

/// A persistent inference server. See the module docs for the lifecycle;
/// see [`crate::tcp`] for the wire front end.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Start a server over `model` with `regions` as its request-resolvable
    /// data: prepares the session at `cfg.precision` (the weight snapshot,
    /// and at int8 its GEMM packs — the only session this server ever
    /// builds). The returned server is `Send + Sync` and is usually wrapped
    /// in an `Arc` to share with connection threads.
    pub fn start(model: ReslimModel, normalizer: Normalizer, regions: Vec<Region>, cfg: ServerConfig) -> Self {
        let session = model.session_at(cfg.precision);
        // An explicit plan (even `FaultPlan::none()`) beats the env knob.
        let fault_plan = cfg.fault_plan.clone().or_else(FaultPlan::from_serve_env).unwrap_or_default();
        let inner = Arc::new(Inner {
            model,
            session,
            normalizer,
            regions,
            cfg,
            inflight: Arc::new(AtomicUsize::new(0)),
            queued: AtomicUsize::new(0),
            state: AtomicU8::new(RUNNING),
            fault_plan,
            counters: Counters::default(),
        });
        Self { inner }
    }

    /// Submit a request. Always returns a handle; admission-time rejections
    /// (unknown region, invalid input, full queue, ...) come back as an
    /// already-completed handle carrying the typed error.
    pub fn submit(&self, req: ServeRequest) -> Handle {
        let started = Instant::now();
        let done = Oneshot::new();
        let handle = Handle::new(req.id, Arc::clone(&done));
        if let Err(e) = self.inner.admit(req, started, &done) {
            done.complete(Err(e));
        }
        handle
    }

    /// The server's counters: admission and throughput, resilience, and the
    /// process-wide buffer pool. The only snapshot there is —
    /// `{"cmd": "stats"}` serializes exactly this.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot()
    }

    /// Requests admitted and not yet terminal. Returns to zero once every
    /// submitted request has reached exactly one terminal state and its
    /// bookkeeping has left the system — the chaos harness's invariant.
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::SeqCst)
    }

    /// Requests admitted and not yet started on a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }

    /// The load balancer's health snapshot (`{"cmd": "health"}` payload).
    pub fn health(&self) -> ServeHealth {
        ServeHealth {
            status: if self.is_shutting_down() { "draining" } else { "ok" }.into(),
            inflight: self.inflight() as u64,
            queue_depth: self.queue_depth() as u64,
        }
    }

    /// Graceful drain: stop admitting new requests immediately (they get
    /// [`ServeError::ShuttingDown`]), let admitted work keep completing, and
    /// once the server is idle — or `timeout` elapses — [`shutdown`]: every
    /// request still waiting for a worker then completes with
    /// `ShuttingDown`. Returns `true` when the drain finished cleanly
    /// (inflight reached zero before the timeout). Idempotent; safe to race
    /// with `shutdown`.
    ///
    /// [`shutdown`]: Server::shutdown
    pub fn drain(&self, timeout: Duration) -> bool {
        // Close admission without downgrading an already-stopped server.
        let _ = self.inner.state.compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        let drained = loop {
            if self.inner.inflight.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        self.shutdown();
        drained
    }

    /// Stop admitting work. A request whose job no worker has started yet
    /// completes with [`ServeError::ShuttingDown`] when one reaches it,
    /// without running its forward; one already running finishes.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.state.store(STOPPED, Ordering::SeqCst);
    }

    /// Whether admission is closed ([`Server::shutdown`] or
    /// [`Server::drain`] has been called).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.state.load(Ordering::SeqCst) != RUNNING
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Every synchronous check, then the admission cap, then one registry
    /// job for the request.
    fn admit(self: &Arc<Self>, req: ServeRequest, started: Instant, done: &Arc<Oneshot>) -> Result<(), ServeError> {
        if self.state.load(Ordering::SeqCst) != RUNNING {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(required) = req.precision.filter(|&p| p != self.cfg.precision) {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "request requires {} weights but this server is deployed at {}",
                    required.label(),
                    self.cfg.precision.label()
                ),
            });
        }
        if req.compression < 1.0 || !req.compression.is_finite() {
            return Err(ServeError::BadCompression { got: req.compression });
        }
        // Admission deadline checkpoint: a request whose deadline has
        // already passed (deadline_ms of 0, or a stalled accept queue)
        // never costs a tensor resolve, let alone a forward.
        let deadline =
            req.deadline_ms.or(self.cfg.default_deadline_ms).map(|ms| (started + Duration::from_millis(ms), ms));
        if let Some((_, deadline_ms)) = deadline.filter(|&(at, _)| Instant::now() >= at) {
            self.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded { deadline_ms });
        }
        let var_sel = match &req.variables {
            None => None,
            Some(names) => {
                let vs = self.regions.first().map(|r| r.dataset.variables());
                let mut sel = Vec::with_capacity(names.len());
                for name in names {
                    let idx = vs
                        .and_then(|v| v.output_index(name))
                        .ok_or_else(|| ServeError::UnknownVariable { variable: name.clone() })?;
                    sel.push(idx);
                }
                Some(sel)
            }
        };
        let input = match req.source {
            RequestSource::Region { name, time } => {
                let region = self
                    .regions
                    .iter()
                    .find(|r| r.name == name)
                    .ok_or_else(|| ServeError::UnknownRegion { region: name.clone() })?;
                let len = region.dataset.num_samples;
                if time >= len {
                    return Err(ServeError::BadRequest {
                        reason: format!("time {time} out of range (region {name} has {len} samples)"),
                    });
                }
                region.dataset.sample(time).input
            }
            RequestSource::Raw { shape, data } => {
                // Checked: the dims are client-chosen, and a wrapped
                // product can equal `data.len()`.
                let elems = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                if elems != Some(data.len()) {
                    return Err(ServeError::BadRequest {
                        reason: format!("shape {shape:?} does not hold the {} data values that were sent", data.len()),
                    });
                }
                Tensor::from_vec(shape, data)
            }
        };
        // The checks `downscale_with` runs, here, so that a request it
        // would refuse is refused before it costs a slot.
        validate_input(&self.model, &input)?;
        let spec = self.cfg.tile.unwrap_or(TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 });
        check_tiling(&self.model, input.shape()[1], input.shape()[2], spec)?;

        // Admission control. The slot is a guard from here on: it moves
        // into the job, and drops with it.
        let slot = InflightSlot::take(&self.inflight, self.cfg.queue_capacity)
            .ok_or(ServeError::QueueFull { capacity: self.cfg.queue_capacity })?;
        let job = Job {
            id: req.id,
            input,
            compression: req.compression,
            var_sel,
            started,
            deadline,
            done: Arc::clone(done),
            _slot: slot,
        };
        // Both tick before the job exists on the registry, so no snapshot
        // can show a request started or completed but not admitted.
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(self);
        rayon::spawn(move || {
            inner.queued.fetch_sub(1, Ordering::SeqCst);
            inner.run(job);
        });
        Ok(())
    }

    /// A request's worker job. Before any forward it checks, in order: the
    /// request already terminal, the server stopped, the deadline passed.
    /// Then the forward, retried once alone if it panics; then the deadline
    /// again, the variable selection and the reply.
    fn run(&self, job: Job) {
        if job.done.is_complete() {
            return;
        }
        if self.state.load(Ordering::SeqCst) == STOPPED {
            job.done.complete(Err(ServeError::ShuttingDown));
            return;
        }
        // Dispatch deadline checkpoint: the client gave up while the
        // request waited for a worker, so the server spends nothing on it.
        if job.expired() {
            self.counters.shed_jobs.fetch_add(1, Ordering::Relaxed);
            return self.expire(&job);
        }
        // The dispatch ordinal is the fault plan's coordinate: assigned once
        // per dispatched request, never by the retry, so an armed plan
        // draws the same fault for the same ordinal on every run.
        let ordinal = self.counters.batches.fetch_add(1, Ordering::Relaxed) as usize;
        let fault = self.fault_plan.lookup(ordinal, 0);
        let output = match catch_unwind(AssertUnwindSafe(|| self.downscale(&job, fault, ordinal))) {
            Ok(output) => output,
            Err(first) => {
                // Injected faults are transient by default: the retry runs
                // clean, as the trainer's does. A persistent plan injects
                // again, so the request stays dead and the isolation of its
                // failure is testable.
                let again = fault.filter(|_| self.fault_plan.is_persistent());
                match catch_unwind(AssertUnwindSafe(|| self.downscale(&job, again, ordinal))) {
                    Ok(output) => {
                        self.counters.retried_jobs.fetch_add(1, Ordering::Relaxed);
                        output
                    }
                    Err(second) => {
                        self.counters.quarantined_jobs.fetch_add(1, Ordering::Relaxed);
                        let reason = format!(
                            "forward panicked and failed its isolated retry: {} (first panic: {})",
                            panic_reason(second),
                            panic_reason(first)
                        );
                        job.done.complete(Err(ServeError::Internal { reason }));
                        return;
                    }
                }
            }
        };
        // A result the client stopped waiting for is not returned: the
        // compute already spent is sunk, but no more is added.
        if job.expired() {
            return self.expire(&job);
        }
        let output = match &job.var_sel {
            None => output,
            Some(sel) => {
                let slices: Vec<Tensor> = sel.iter().map(|&ci| output.slice_axis(0, ci, 1)).collect();
                Tensor::concat(&slices.iter().collect::<Vec<_>>(), 0)
            }
        };
        // The counter ticks *before* the completion wakes the waiter, so a
        // client reading stats right after `wait()` returns sees it.
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        job.done.complete(Ok(ServeResponse {
            id: job.id,
            shape: output.shape().to_vec(),
            data: output.data().to_vec(),
            micros: job.started.elapsed().as_micros() as u64,
        }));
    }

    /// The request's one inference call, after the fault the plan drew for
    /// it: a straggler stalls the worker (exercising the deadline
    /// checkpoints), a panic poisons the forward (exercising the retry).
    /// `NaNGradient` has no serving meaning — no gradients flow — and is
    /// ignored.
    fn downscale(&self, job: &Job, fault: Option<FaultKind>, ordinal: usize) -> Tensor {
        match fault {
            Some(FaultKind::Straggler(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultKind::Panic) => panic!("injected fault: panic (dispatch {ordinal})"),
            Some(FaultKind::NaNGradient) | None => {}
        }
        downscale_with(&self.model, &self.session, &self.normalizer, &job.input, self.cfg.tile, job.compression)
            .expect("admission ran every check downscale_with runs")
    }

    /// Complete `job` with `DeadlineExceeded`.
    fn expire(&self, job: &Job) {
        let deadline_ms = job.deadline.map_or(0, |(_, ms)| ms);
        self.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
        job.done.complete(Err(ServeError::DeadlineExceeded { deadline_ms }));
    }
}

/// Render a panic payload into a human-readable reason string.
fn panic_reason(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_climate::{LatLonGrid, VariableSet};
    use orbit2_model::ModelConfig;

    /// A 7-input model over the `conus` region, normalized with statistics
    /// fitted on `fit_on`'s variable set.
    fn tiny_server(fit_on: VariableSet, cfg: ServerConfig) -> Server {
        let dataset = |vars| DownscalingDataset::new(LatLonGrid::conus(16, 32), vars, 4, 10, 3);
        let ds = dataset(VariableSet::daymet_like());
        let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
        let norm = Normalizer::fit(&dataset(fit_on), 4);
        let cfg = ServerConfig { fault_plan: Some(FaultPlan::none()), ..cfg };
        Server::start(model, norm, vec![Region { name: "conus".into(), dataset: ds }], cfg)
    }

    /// A job for `server` as admission would build it, holding one of its
    /// slots, and the slot its request completes in.
    fn job(server: &Server, deadline: Option<(Instant, u64)>) -> (Job, Arc<Oneshot>) {
        let done = Oneshot::new();
        let job = Job {
            id: 1,
            input: Tensor::zeros(vec![7, 4, 8]),
            compression: 1.0,
            var_sel: None,
            started: Instant::now(),
            deadline,
            done: Arc::clone(&done),
            _slot: InflightSlot::take(&server.inner.inflight, 1).expect("a free slot"),
        };
        (job, done)
    }

    #[test]
    fn inflight_slot_is_capped_and_released_on_drop() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let slot = InflightSlot::take(&inflight, 1).expect("under the cap");
        assert!(InflightSlot::take(&inflight, 1).is_none(), "the cap is enforced");
        assert_eq!(inflight.load(Ordering::SeqCst), 1, "a refused take holds nothing");
        drop(slot);
        assert_eq!(inflight.load(Ordering::SeqCst), 0);
    }

    /// A job a worker reaches after `shutdown` runs no forward: its request
    /// completes with `shutting_down`, and its slot is free again.
    #[test]
    fn a_job_reached_after_shutdown_completes_with_shutting_down_and_releases_its_slot() {
        let server = tiny_server(VariableSet::daymet_like(), ServerConfig::default());
        let (job, done) = job(&server, None);
        assert_eq!(server.inflight(), 1);
        server.shutdown();
        server.inner.run(job);
        let verdict = Handle::new(1, done).wait_timeout(Duration::ZERO).expect("the job completed its request");
        assert_eq!(verdict.unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.inflight(), 0, "the job released its slot");
        assert_eq!(server.stats().batches, 0, "no forward ran");
    }

    /// The dispatch checkpoint: a job whose deadline passed while it waited
    /// is shed before any forward, counted once as shed and once as expired.
    #[test]
    fn a_job_reached_after_its_deadline_is_shed_before_any_forward() {
        let server = tiny_server(VariableSet::daymet_like(), ServerConfig::default());
        let (job, done) = job(&server, Some((Instant::now() - Duration::from_millis(5), 7)));
        server.inner.run(job);
        let verdict = Handle::new(1, done).wait_timeout(Duration::ZERO).expect("the job completed its request");
        assert_eq!(verdict.unwrap_err(), ServeError::DeadlineExceeded { deadline_ms: 7 });
        let stats = server.stats();
        assert_eq!((stats.shed_jobs, stats.deadline_expired, stats.batches), (1, 1, 0));
        assert_eq!(server.inflight(), 0);
    }

    /// A forward that panics every time — a normalizer fitted on 23
    /// channels meets a 7-channel input, which `normalize_input` asserts
    /// on — is retried once, then fails its own request with `internal`
    /// and releases its slot: the one slot this server has serves every
    /// later attempt.
    #[test]
    fn a_forward_that_panics_twice_fails_internal_and_releases_its_slot() {
        let cfg = ServerConfig { queue_capacity: 1, ..ServerConfig::default() };
        let server = tiny_server(VariableSet::era5_like(), cfg);
        for id in 0..3 {
            let err = server.submit(ServeRequest::region(id, "conus", 0)).wait().unwrap_err();
            assert_eq!(err.kind(), "internal", "attempt {id}: {err}");
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.inflight() != 0 {
                assert!(Instant::now() < deadline, "attempt {id} leaked its admission slot");
                std::thread::yield_now();
            }
        }
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.batches, stats.quarantined_jobs), (3, 3, 3));
        assert_eq!((stats.retried_jobs, stats.completed), (0, 0));
    }
}

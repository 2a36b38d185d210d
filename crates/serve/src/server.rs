//! The server core: admission, the tile-job queue, the microbatcher, and
//! response assembly.
//!
//! One [`Server`] owns one model and one tape-free
//! [`InferenceSession`](orbit2_model::InferenceSession) at the configured
//! weight precision — weights and packed GEMM operands are prepared once,
//! by [`Server::start`], and shared read-only by every worker that
//! executes on its behalf. Precision is a deployment setting: a request's
//! `precision` field can only *assert* it, and a mismatch is refused at
//! admission, so nothing on the request path ever builds a session. A
//! submitted request is validated,
//! resolved to a `[C, h, w]` input, normalized, and split into halo-padded
//! tile jobs that land on a single submission queue. A dedicated batcher
//! thread groups **same-shaped tile jobs across requests** into one
//! `ReslimModel::forward_batch` call — the model's one forward, which
//! stacks the batch along the row axis and is bit-identical to
//! per-request execution at any batch size — waiting at most a
//! configurable microbatch window for the batch to fill. Batches are handed to the rayon shim's
//! persistent worker registry via detached `rayon::spawn`, so grouping,
//! execution, and request intake all overlap. A batch runs as its worker's
//! own job: every parallel kernel of its forward offers pieces to the
//! workers that are idle at that instant and takes back what none of them
//! started, so a lone batch uses every core and two concurrent batches one
//! each, with no setting here that chooses. It cannot deadlock — a worker
//! waits only for pieces a helper has started, and a helper never forks —
//! and it cannot change a reply: no kernel's bits depend on how its call
//! was split (`tests/split_invariance.rs`).
//!
//! Fairness: when more same-shaped jobs are queued than fit one batch, the
//! batcher picks tiles **round-robin across requests** instead of FIFO —
//! a 64-tile request cannot starve a 1-tile request that arrived just
//! after it; the small request's tile rides the very next batch.
//!
//! Resilience (see DESIGN.md §10 "Failure semantics"): requests may carry
//! a **deadline** checked at admission, at dispatch (expired queued tiles
//! are shed before any forward runs), and at stitch time; a panicking
//! batched forward triggers **panic quarantine** — every tile job of the
//! poisoned batch re-executes in isolation so only the culprit request
//! fails (with a typed `internal` error) while cobatched innocents
//! complete normally; a [`FaultPlan`] (config field or
//! `ORBIT2_SERVE_FAULT_PLAN`) injects deterministic panics/stragglers per
//! `(batch, job)` to prove all of it under test; and [`Server::drain`]
//! stops admission, lets in-flight work finish, and completes stragglers
//! with `shutting_down`.

use crate::cache::{CacheKey, CachedPayload, ResponseCache};
use crate::oneshot::{Handle, Oneshot};
use orbit2::fault::{FaultKind, FaultPlan};
use orbit2::inference::{check_tiling, validate_input};
use orbit2::serving::{
    RequestSource, ServeError, ServeHealth, ServeRequest, ServeResponse, ServeStats,
};
use orbit2::tiling::{split_stack, stitch_predictions};
use orbit2_climate::{DownscalingDataset, Normalizer};
use orbit2_imaging::tiles::{TileGeometry, TileSpec};
use orbit2_model::{InferenceSession, ReslimModel};
use orbit2_tensor::fused::WeightPrecision;
use orbit2_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Serving knobs. The defaults suit the CPU-scale models in this repo;
/// every knob is exercised by tests or the serving bench.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How request inputs are split into tile jobs (`None` = whole-sample
    /// jobs). Smaller tiles mean more cross-request batching opportunity.
    pub tile: Option<TileSpec>,
    /// Most tile jobs stacked into one forward (1 = every job runs alone
    /// and the batcher never holds a window open).
    pub max_batch: usize,
    /// Longest the batcher waits for a batch to fill before dispatching a
    /// partial one (the microbatch window).
    pub window_micros: u64,
    /// LRU response-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Most requests in flight before admission returns `QueueFull`.
    pub queue_capacity: usize,
    /// Weight precision of this deployment: [`Server::start`] prepares the
    /// server's one session at it. A request naming a different precision
    /// is rejected with `bad_request`, never served at another one.
    pub precision: WeightPrecision,
    /// Deadline applied to requests that don't carry a wire `deadline_ms`
    /// of their own (`None` = no deadline). Measured from admission;
    /// expired work is shed at admission, dispatch, and stitch time.
    pub default_deadline_ms: Option<u64>,
    /// Fault-injection schedule for chaos testing the serve path. `None`
    /// arms from the `ORBIT2_SERVE_FAULT_PLAN` environment variable (the
    /// serving twin of the trainer's `ORBIT2_FAULT_PLAN`); pass
    /// `Some(FaultPlan::none())` to pin a server fault-free regardless of
    /// the environment. Coordinates are `(batch, job)`: the dispatch
    /// ordinal of the executed batch and the job's position within it.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tile: None,
            max_batch: 8,
            window_micros: 2_000,
            cache_capacity: 64,
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

/// Everything a tile job needs to find its way home.
pub(crate) struct RequestState {
    id: u64,
    /// Admission order; the batcher round-robins over this.
    pub(crate) seq: u64,
    compression: f32,
    in_h: usize,
    in_w: usize,
    remaining: AtomicUsize,
    parts: Mutex<Vec<Option<(TileGeometry, Tensor)>>>,
    max_batch_seen: AtomicUsize,
    started: Instant,
    /// Absolute deadline (admission time + effective `deadline_ms`), if
    /// the request or the server default set one.
    deadline: Option<Instant>,
    /// The effective deadline in milliseconds (for the error payload;
    /// meaningful only when `deadline` is `Some`).
    deadline_ms: u64,
    pub(crate) done: Arc<Oneshot>,
    cache_key: Option<CacheKey>,
    var_sel: Option<Vec<usize>>,
    /// In-flight accounting: released when the state drops, which is
    /// exactly once per request no matter how it ends (success, shutdown,
    /// or an execution failure with tiles still queued elsewhere).
    _slot: InflightSlot,
}

/// One unit of the admission cap, held from the capacity check until it
/// drops. Admission takes it *as a guard* so that nothing between the cap
/// and a terminal state — an early return, a panic while normalizing or
/// splitting — can leak the slot; a leaked slot is permanent, and
/// `queue_capacity` of them would answer `queue_full` forever.
pub(crate) struct InflightSlot(Arc<AtomicUsize>);

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

/// What makes two tile jobs stackable: same spatial shape and the same
/// compression target (a batched forward runs one plan search per sample
/// but a single target). Channel count and session are fixed by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobKey {
    h: usize,
    w: usize,
    compression_bits: u32,
}

/// One tile of one request, queued for execution.
pub(crate) struct TileJob {
    pub(crate) req: Arc<RequestState>,
    tile_index: usize,
    geom: TileGeometry,
    input: Tensor,
    pub(crate) key: JobKey,
    enqueued: Instant,
}

/// The server's monotonic counters, one atomic per [`ServeStats`] field
/// that the server itself ticks. `Relaxed` throughout: each is a statistic
/// that publishes no other data.
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    retried_jobs: AtomicU64,
    quarantined_jobs: AtomicU64,
    shed_jobs: AtomicU64,
    deadline_expired: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Counters {
    /// The one place a [`ServeStats`] is assembled: these counters, the
    /// cache's entry gauge, and the process-wide buffer-pool counters.
    fn snapshot(&self, cache_entries: usize) -> ServeStats {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let pool = orbit2_tensor::pool::global_stats();
        ServeStats {
            admitted: read(&self.admitted),
            completed: read(&self.completed),
            batches: read(&self.batches),
            batched_jobs: read(&self.batched_jobs),
            retried_jobs: read(&self.retried_jobs),
            quarantined_jobs: read(&self.quarantined_jobs),
            shed_jobs: read(&self.shed_jobs),
            deadline_expired: read(&self.deadline_expired),
            cache_hits: read(&self.cache_hits),
            cache_misses: read(&self.cache_misses),
            cache_entries: cache_entries as u64,
            pool_fresh_allocs: pool.fresh_allocs,
            pool_reuses: pool.reuses,
            pool_copies: pool.copies,
        }
    }
}

/// Lifecycle states: admission is open only while `RUNNING`; `DRAINING`
/// sheds new requests while queued/in-flight work completes; `STOPPED`
/// makes the batcher fail everything still queued with `shutting_down`
/// and exit.
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
    queue: Mutex<VecDeque<TileJob>>,
    work_ready: Condvar,
    cache: ResponseCache,
    inflight: Arc<AtomicUsize>,
    next_seq: AtomicU64,
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
    batcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Start a server over `model` with `regions` as its request-resolvable
    /// data: prepares the session at `cfg.precision` (weight snapshot and
    /// GEMM packs — the only session this server ever builds) and spawns
    /// the batcher thread. The returned server is `Send + Sync` and is
    /// usually wrapped in an `Arc` to share with connection threads.
    pub fn start(
        model: ReslimModel,
        normalizer: Normalizer,
        regions: Vec<Region>,
        cfg: ServerConfig,
    ) -> Self {
        let session = model.session_at(cfg.precision);
        let cache = ResponseCache::new(cfg.cache_capacity);
        // An explicit plan (even `FaultPlan::none()`) beats the env knob.
        let fault_plan = cfg
            .fault_plan
            .clone()
            .or_else(FaultPlan::from_serve_env)
            .unwrap_or_default();
        let inner = Arc::new(Inner {
            model,
            session,
            normalizer,
            regions,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            cache,
            inflight: Arc::new(AtomicUsize::new(0)),
            next_seq: AtomicU64::new(0),
            state: AtomicU8::new(RUNNING),
            fault_plan,
            counters: Counters::default(),
        });
        let worker = Arc::clone(&inner);
        let batcher = std::thread::Builder::new()
            .name("orbit2-serve-batcher".into())
            .spawn(move || batcher_loop(worker))
            .expect("failed to spawn batcher thread");
        Self { inner, batcher: Mutex::new(Some(batcher)) }
    }

    /// Submit a request. Always returns a handle; admission-time rejections
    /// (unknown region, invalid input, full queue, ...) come back as an
    /// already-completed handle carrying the typed error.
    pub fn submit(&self, req: ServeRequest) -> Handle {
        self.inner.submit(req)
    }

    /// The server's counters: admission and throughput, resilience, the
    /// response cache, and the process-wide buffer pool. The only snapshot
    /// there is — `{"cmd": "stats"}` serializes exactly this.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot(self.inner.cache.len())
    }

    /// The model's refinement factor (output pixels per input pixel).
    pub fn scale_factor(&self) -> usize {
        self.inner.model.cfg.scale_factor
    }

    /// Requests admitted and not yet terminal. Returns to zero once every
    /// submitted request has reached exactly one terminal state and its
    /// bookkeeping has left the system — the chaos harness's invariant.
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::SeqCst)
    }

    /// Tile jobs queued and not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
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
    /// [`ServeError::ShuttingDown`]), let queued and in-flight work keep
    /// completing, and once the server is idle — or `timeout` elapses —
    /// stop the batcher, which completes every straggler still queued with
    /// `ShuttingDown`. Returns `true` when the drain finished cleanly
    /// (inflight reached zero before the timeout). Idempotent; safe to
    /// race with `shutdown`.
    pub fn drain(&self, timeout: Duration) -> bool {
        // Close admission without downgrading an already-stopped server.
        let _ = self.inner.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
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

    /// Stop admitting work and fail everything still queued with
    /// [`ServeError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.state.store(STOPPED, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        if let Some(handle) = self.batcher.lock().unwrap().take() {
            let _ = handle.join();
        }
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
    pub(crate) fn submit(&self, req: ServeRequest) -> Handle {
        let started = Instant::now();
        let slot = Oneshot::new();
        let handle = Handle::new(req.id, Arc::clone(&slot));
        if let Err(e) = self.admit(req, started, &slot) {
            slot.complete(Err(e));
        }
        handle
    }

    fn admit(
        &self,
        req: ServeRequest,
        started: Instant,
        slot: &Arc<Oneshot>,
    ) -> Result<(), ServeError> {
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
        let deadline_ms = req.deadline_ms.or(self.cfg.default_deadline_ms);
        let deadline = deadline_ms.map(|ms| started + Duration::from_millis(ms));
        if let Some(d) = deadline {
            if Instant::now() >= d {
                self.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded {
                    deadline_ms: deadline_ms.unwrap_or(0),
                });
            }
        }
        let var_sel = match &req.variables {
            None => None,
            Some(names) => {
                let vs = self.regions.first().map(|r| r.dataset.variables());
                let mut sel = Vec::with_capacity(names.len());
                for name in names {
                    let idx = vs.and_then(|v| v.output_index(name)).ok_or_else(|| {
                        ServeError::UnknownVariable { variable: name.clone() }
                    })?;
                    sel.push(idx);
                }
                Some(sel)
            }
        };
        let (input, cache_key) = match &req.source {
            RequestSource::Region { name, time } => {
                let region = self
                    .regions
                    .iter()
                    .find(|r| r.name == *name)
                    .ok_or_else(|| ServeError::UnknownRegion { region: name.clone() })?;
                let len = region.dataset.num_samples;
                if *time >= len {
                    return Err(ServeError::BadRequest {
                        reason: format!("time {time} out of range (region {name} has {len} samples)"),
                    });
                }
                let key = CacheKey {
                    region: name.clone(),
                    time: *time,
                    variables: req.variables.clone().unwrap_or_default(),
                    compression_bits: req.compression.to_bits(),
                };
                (region.dataset.sample(*time).input, Some(key))
            }
            RequestSource::Raw { shape, data } => {
                // Checked: the dims are client-chosen, and a wrapped
                // product can equal `data.len()`.
                let elems = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                if elems != Some(data.len()) {
                    return Err(ServeError::BadRequest {
                        reason: format!(
                            "shape {shape:?} does not hold the {} data values that were sent",
                            data.len()
                        ),
                    });
                }
                (Tensor::from_vec(shape.clone(), data.clone()), None)
            }
        };
        validate_input(&self.model, &input)?;
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let spec = self.cfg.tile.unwrap_or(TileSpec { tiles_y: 1, tiles_x: 1, halo: 0 });
        check_tiling(&self.model, h, w, spec)?;

        if let Some(key) = &cache_key {
            if let Some(hit) = self.cache.get(key) {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                slot.complete(Ok(ServeResponse {
                    id: req.id,
                    shape: hit.shape,
                    data: hit.data,
                    cached: true,
                    batch: 0,
                    micros: started.elapsed().as_micros() as u64,
                }));
                return Ok(());
            }
            self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        }

        // Admission control. The slot is a guard from here on: it moves
        // into the `RequestState` below, and any earlier exit releases it.
        let inflight = InflightSlot::take(&self.inflight, self.cfg.queue_capacity)
            .ok_or(ServeError::QueueFull { capacity: self.cfg.queue_capacity })?;

        let normalized = self.normalizer.normalize_input(&input);
        let tiles = split_stack(&normalized, spec);
        let state = Arc::new(RequestState {
            id: req.id,
            seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
            compression: req.compression,
            in_h: h,
            in_w: w,
            remaining: AtomicUsize::new(tiles.len()),
            parts: Mutex::new(vec![None; tiles.len()]),
            max_batch_seen: AtomicUsize::new(0),
            started,
            deadline,
            deadline_ms: deadline_ms.unwrap_or(0),
            done: Arc::clone(slot),
            cache_key,
            var_sel,
            _slot: inflight,
        });
        {
            let mut queue = self.queue.lock().unwrap();
            // Shutdown race: the RUNNING check at the top of admission can
            // pass just before `drain` observes inflight == 0 (ours is not
            // counted yet) and stops the batcher. Re-checking under the
            // queue lock closes the hole: the batcher's final
            // fail-the-leftovers sweep also runs under this lock, so either
            // we see STOPPED here and reject, or the sweep sees our jobs
            // and completes them with `ShuttingDown`. Without this, tiles
            // enqueued after the batcher exits would strand their request
            // in a never-terminal state.
            if self.state.load(Ordering::SeqCst) == STOPPED {
                return Err(ServeError::ShuttingDown);
            }
            for (tile_index, (geom, tile_input)) in tiles.into_iter().enumerate() {
                let key = JobKey {
                    h: tile_input.shape()[1],
                    w: tile_input.shape()[2],
                    compression_bits: req.compression.to_bits(),
                };
                queue.push_back(TileJob {
                    req: Arc::clone(&state),
                    tile_index,
                    geom,
                    input: tile_input,
                    key,
                    enqueued: Instant::now(),
                });
            }
            // Ticked only once the request is really queued (the STOPPED
            // re-check above rejects without it), and still under the
            // lock, so no snapshot can show it completed but not admitted.
            self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        }
        self.work_ready.notify_all();
        Ok(())
    }
}

/// Dispatch deadline checkpoint: drop every queued tile whose request
/// deadline has already passed, completing the request with
/// `DeadlineExceeded`, *before* any forward is picked — the client gave
/// up, so the server spends nothing more on it. Runs under the queue
/// lock on every batcher wakeup.
fn shed_expired(counters: &Counters, queue: &mut VecDeque<TileJob>) {
    if queue.iter().all(|j| j.req.deadline.is_none()) {
        return;
    }
    let now = Instant::now();
    let mut i = 0;
    while i < queue.len() {
        let expired = queue[i].req.deadline.is_some_and(|d| now >= d);
        if !expired {
            i += 1;
            continue;
        }
        let job = queue.remove(i).expect("index checked in range");
        counters.shed_jobs.fetch_add(1, Ordering::Relaxed);
        let err = ServeError::DeadlineExceeded { deadline_ms: job.req.deadline_ms };
        counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
        if !job.req.done.complete(Err(err)) {
            counters.deadline_expired.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The dispatcher/batcher loop: wait for work, shed expired tiles, give
/// same-shaped jobs a microbatch window to accumulate, pick a fair batch,
/// hand it to the worker registry, repeat.
fn batcher_loop(inner: Arc<Inner>) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                // DRAINING keeps dispatching (queued work must finish);
                // only STOPPED fails the leftovers and exits.
                if inner.state.load(Ordering::SeqCst) == STOPPED {
                    for job in queue.drain(..) {
                        job.req.done.complete(Err(ServeError::ShuttingDown));
                    }
                    return;
                }
                shed_expired(&inner.counters, &mut queue);
                let Some(front) = queue.front() else {
                    let (guard, _) = inner
                        .work_ready
                        .wait_timeout(queue, Duration::from_millis(50))
                        .unwrap();
                    queue = guard;
                    continue;
                };
                let key = front.key.clone();
                let age = front.enqueued.elapsed();
                let window = Duration::from_micros(inner.cfg.window_micros);
                let stackable = queue.iter().filter(|j| j.key == key).count();
                if stackable < inner.cfg.max_batch && age < window {
                    // Keep the window open: more same-shaped jobs may land.
                    let (guard, _) = inner.work_ready.wait_timeout(queue, window - age).unwrap();
                    queue = guard;
                    continue;
                }
                break collect_batch(&mut queue, inner.cfg.max_batch);
            }
        };
        let worker = Arc::clone(&inner);
        rayon::spawn(move || execute_batch(&worker, batch));
    }
}

/// Pick up to `max_batch` jobs stackable with the front job, round-robin
/// across requests (admission order) so no request monopolizes a batch.
pub(crate) fn collect_batch(queue: &mut VecDeque<TileJob>, max_batch: usize) -> Vec<TileJob> {
    let key = queue.front().expect("collect_batch on an empty queue").key.clone();
    if max_batch <= 1 {
        return vec![queue.pop_front().expect("checked nonempty")];
    }
    // Queue indices of stackable jobs, grouped per request in FIFO order.
    let mut by_req: Vec<(u64, VecDeque<usize>)> = Vec::new();
    for (i, job) in queue.iter().enumerate() {
        if job.key == key {
            match by_req.iter_mut().find(|(seq, _)| *seq == job.req.seq) {
                Some((_, slots)) => slots.push_back(i),
                None => by_req.push((job.req.seq, VecDeque::from([i]))),
            }
        }
    }
    by_req.sort_by_key(|(seq, _)| *seq);
    let mut picked: Vec<usize> = Vec::new();
    'fill: loop {
        let mut progressed = false;
        for (_, slots) in by_req.iter_mut() {
            if picked.len() >= max_batch {
                break 'fill;
            }
            if let Some(i) = slots.pop_front() {
                picked.push(i);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    picked.sort_unstable();
    let mut out = Vec::with_capacity(picked.len());
    for &i in picked.iter().rev() {
        out.push(queue.remove(i).expect("picked index in range"));
    }
    out.reverse();
    out
}

/// Render a panic payload into a human-readable reason string.
fn panic_reason(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// Run the forward for `jobs` (any batch size) through the server's one
/// session, returning one prediction per job. Stackable jobs share a
/// `JobKey`, hence a single compression target.
fn run_forward(inner: &Inner, jobs: &[TileJob]) -> Vec<Tensor> {
    let inputs: Vec<&Tensor> = jobs.iter().map(|j| &j.input).collect();
    inner
        .model
        .forward_batch(&inner.session, &inputs, jobs[0].req.compression)
        .into_iter()
        .map(|(pred, _)| pred.into_tensor())
        .collect()
}

fn execute_batch(inner: &Inner, jobs: Vec<TileJob>) {
    // Requests already terminal (deadline hit, drain, an earlier tile's
    // quarantine verdict) get no further compute; dropping their jobs here
    // also releases their inflight bookkeeping promptly.
    let jobs: Vec<TileJob> = jobs.into_iter().filter(|j| !j.req.done.is_complete()).collect();
    let n = jobs.len();
    if n == 0 {
        return;
    }
    // The batch ordinal is the fault plan's first coordinate: assigned
    // once per executed batch, never by retries, so an armed plan draws
    // the same fault for the same (batch, job) on every run.
    let batch_index = inner.counters.batches.fetch_add(1, Ordering::Relaxed) as usize;
    if n > 1 {
        inner.counters.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
    }
    let faults: Vec<Option<FaultKind>> =
        (0..n).map(|j| inner.fault_plan.lookup(batch_index, j)).collect();
    let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Vec<Tensor> {
        inject_faults(batch_index, &faults);
        run_forward(inner, &jobs)
    }));
    match forward {
        Ok(preds) => {
            for (job, pred) in jobs.into_iter().zip(preds) {
                finish_tile(inner, job, pred, n);
            }
        }
        Err(panic) => quarantine(inner, jobs, batch_index, panic_reason(panic)),
    }
}

/// Apply the injected faults drawn for one batch: stragglers stall the
/// executing worker (the batch completes late, exercising the deadline
/// checkpoints), a panic poisons the whole batch (exercising quarantine).
/// `NaNGradient` has no serving meaning — no gradients flow — and is
/// ignored. Runs inside the `catch_unwind` boundary.
fn inject_faults(batch_index: usize, faults: &[Option<FaultKind>]) {
    for (j, fault) in faults.iter().enumerate() {
        match fault {
            Some(FaultKind::Straggler(ms)) => {
                std::thread::sleep(Duration::from_millis(*ms));
            }
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic (batch {batch_index}, job {j})");
            }
            Some(FaultKind::NaNGradient) | None => {}
        }
    }
}

/// Panic quarantine. A batched forward panicked — one tile poisoned the
/// batch, but the cobatched requests are innocent, and before this layer
/// existed every one of them died with a misclassified `BadRequest`.
/// Re-execute each tile job in isolation under its own `catch_unwind`:
/// jobs that now complete rejoin their requests as if nothing happened
/// (`retried_jobs`); jobs that panic again are the culprits, and each one
/// fails exactly its own request with a typed `internal` error
/// (`quarantined_jobs`). Injected faults are transient by default (the
/// isolated retry runs clean, mirroring the trainer's retry-then-drop);
/// a `persistent=1` plan re-applies the injection so the culprit stays
/// dead and the isolation guarantee itself is testable.
fn quarantine(inner: &Inner, jobs: Vec<TileJob>, batch_index: usize, first_reason: String) {
    for (j, job) in jobs.into_iter().enumerate() {
        if job.req.done.is_complete() {
            continue;
        }
        let injected = if inner.fault_plan.is_persistent() {
            inner.fault_plan.lookup(batch_index, j)
        } else {
            None
        };
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Tensor {
            match injected {
                Some(FaultKind::Straggler(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                Some(FaultKind::Panic) => {
                    panic!("injected fault: persistent panic (batch {batch_index}, job {j})")
                }
                Some(FaultKind::NaNGradient) | None => {}
            }
            run_forward(inner, std::slice::from_ref(&job))
                .pop()
                .expect("single-job forward yields one prediction")
        }));
        match retry {
            Ok(pred) => {
                inner.counters.retried_jobs.fetch_add(1, Ordering::Relaxed);
                // The isolated rerun executed alone: batch size 1.
                finish_tile(inner, job, pred, 1);
            }
            Err(panic) => {
                inner.counters.quarantined_jobs.fetch_add(1, Ordering::Relaxed);
                let reason = format!(
                    "tile job panicked and failed its isolated retry: {} \
                     (batch failure: {first_reason})",
                    panic_reason(panic)
                );
                job.req.done.complete(Err(ServeError::Internal { reason }));
            }
        }
    }
}

fn finish_tile(inner: &Inner, job: TileJob, pred: Tensor, batch_size: usize) {
    let req = Arc::clone(&job.req);
    req.max_batch_seen.fetch_max(batch_size, Ordering::SeqCst);
    {
        let mut parts = req.parts.lock().unwrap();
        parts[job.tile_index] = Some((job.geom, pred));
    }
    if req.remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
        return;
    }
    // Stitch-time deadline checkpoint: a result the client stopped
    // waiting for is not stitched, denormalized, or cached — the compute
    // already spent is sunk, but no more is added.
    if let Some(d) = req.deadline {
        if Instant::now() >= d {
            let err = ServeError::DeadlineExceeded { deadline_ms: req.deadline_ms };
            inner.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
            if !req.done.complete(Err(err)) {
                inner.counters.deadline_expired.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
    }
    if req.done.is_complete() {
        // A drain or an earlier tile's quarantine verdict beat us here.
        return;
    }
    // Last tile home: stitch, denormalize, select, cache, complete.
    let tiles: Vec<(TileGeometry, Tensor)> = {
        let parts = req.parts.lock().unwrap();
        parts.iter().map(|p| p.clone().expect("all tiles recorded")).collect()
    };
    let factor = inner.model.cfg.scale_factor;
    let stitched = stitch_predictions(&tiles, req.in_h, req.in_w, factor);
    let physical = inner.normalizer.denormalize_target(&stitched);
    let output = match &req.var_sel {
        None => physical,
        Some(sel) => {
            let slices: Vec<Tensor> =
                sel.iter().map(|&ci| physical.slice_axis(0, ci, 1)).collect();
            let refs: Vec<&Tensor> = slices.iter().collect();
            Tensor::concat(&refs, 0)
        }
    };
    if let Some(key) = &req.cache_key {
        inner.cache.put(
            key.clone(),
            CachedPayload { shape: output.shape().to_vec(), data: output.data().to_vec() },
        );
    }
    // The counter ticks *before* the completion wakes the waiter, so a
    // client reading stats right after `wait()` returns sees it; if a drain
    // won the race instead, roll the speculative tick back.
    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    let won = req.done.complete(Ok(ServeResponse {
        id: req.id,
        shape: output.shape().to_vec(),
        data: output.data().to_vec(),
        cached: false,
        batch: req.max_batch_seen.load(Ordering::SeqCst),
        micros: req.started.elapsed().as_micros() as u64,
    }));
    if !won {
        inner.counters.completed.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_climate::{LatLonGrid, VariableSet};
    use orbit2_model::ModelConfig;

    fn fake_state(seq: u64, tiles: usize, inflight: &Arc<AtomicUsize>) -> Arc<RequestState> {
        fake_state_deadline(seq, tiles, inflight, None)
    }

    fn fake_state_deadline(
        seq: u64,
        tiles: usize,
        inflight: &Arc<AtomicUsize>,
        deadline: Option<Instant>,
    ) -> Arc<RequestState> {
        Arc::new(RequestState {
            id: seq,
            seq,
            compression: 1.0,
            in_h: 4,
            in_w: 4,
            remaining: AtomicUsize::new(tiles),
            parts: Mutex::new(vec![None; tiles]),
            max_batch_seen: AtomicUsize::new(0),
            started: Instant::now(),
            deadline,
            deadline_ms: if deadline.is_some() { 1 } else { 0 },
            done: Oneshot::new(),
            cache_key: None,
            var_sel: None,
            _slot: InflightSlot::take(inflight, usize::MAX).expect("uncapped"),
        })
    }

    fn job(req: &Arc<RequestState>, tile_index: usize, h: usize) -> TileJob {
        TileJob {
            req: Arc::clone(req),
            tile_index,
            geom: TileGeometry { ty: 0, tx: 0, core_y0: 0, core_x0: 0, core_h: h, core_w: h, halo: 0 },
            input: Tensor::zeros(vec![1, h, h]),
            key: JobKey { h, w: h, compression_bits: 1.0f32.to_bits() },
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn collect_batch_is_fair_across_requests() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let big = fake_state(0, 6, &inflight);
        let small = fake_state(1, 1, &inflight);
        let mut queue: VecDeque<TileJob> = VecDeque::new();
        for i in 0..6 {
            queue.push_back(job(&big, i, 4));
        }
        queue.push_back(job(&small, 0, 4));
        let batch = collect_batch(&mut queue, 4);
        assert_eq!(batch.len(), 4);
        assert!(
            batch.iter().any(|j| j.req.seq == 1),
            "the late 1-tile request must ride the first batch, not wait behind 6 tiles"
        );
        // Round-robin: the big request still gets most slots.
        assert_eq!(batch.iter().filter(|j| j.req.seq == 0).count(), 3);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn collect_batch_only_stacks_matching_shapes() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let a = fake_state(0, 2, &inflight);
        let b = fake_state(1, 1, &inflight);
        let mut queue: VecDeque<TileJob> = VecDeque::new();
        queue.push_back(job(&a, 0, 4));
        queue.push_back(job(&b, 0, 8)); // different shape: not stackable
        queue.push_back(job(&a, 1, 4));
        let batch = collect_batch(&mut queue, 8);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|j| j.key.h == 4));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.front().unwrap().key.h, 8);
    }

    #[test]
    fn collect_batch_of_one_takes_the_front_job() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let a = fake_state(0, 2, &inflight);
        let mut queue: VecDeque<TileJob> = VecDeque::new();
        queue.push_back(job(&a, 0, 4));
        queue.push_back(job(&a, 1, 4));
        let batch = collect_batch(&mut queue, 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].tile_index, 0);
    }

    /// The dispatch checkpoint: expired queued tiles are removed before
    /// any forward runs, the request completes with `DeadlineExceeded`
    /// exactly once, and unexpired work is untouched.
    #[test]
    fn shed_expired_drops_only_expired_tiles_and_completes_once() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let expired = fake_state_deadline(
            0,
            2,
            &inflight,
            Some(Instant::now() - Duration::from_millis(5)),
        );
        let fresh = fake_state_deadline(
            1,
            1,
            &inflight,
            Some(Instant::now() + Duration::from_secs(60)),
        );
        let no_deadline = fake_state(2, 1, &inflight);
        let mut queue: VecDeque<TileJob> = VecDeque::new();
        queue.push_back(job(&expired, 0, 4));
        queue.push_back(job(&fresh, 0, 4));
        queue.push_back(job(&expired, 1, 4));
        queue.push_back(job(&no_deadline, 0, 4));
        let counters = Counters::default();
        shed_expired(&counters, &mut queue);
        assert_eq!(queue.len(), 2, "only the two expired tiles are shed");
        assert!(queue.iter().all(|j| j.req.seq != 0));
        let stats = counters.snapshot(0);
        assert_eq!(stats.shed_jobs, 2, "shed_jobs counts tiles");
        assert_eq!(stats.deadline_expired, 1, "deadline_expired counts requests, not tiles");
        let verdict = crate::oneshot::Handle::new(0, Arc::clone(&expired.done));
        assert_eq!(
            verdict.try_get().unwrap().unwrap_err(),
            ServeError::DeadlineExceeded { deadline_ms: 1 }
        );
        assert!(!fresh.done.is_complete());
        assert!(!no_deadline.done.is_complete());
        // Idempotent on the survivors: a second sweep sheds nothing.
        shed_expired(&counters, &mut queue);
        assert_eq!(queue.len(), 2);
        assert_eq!(counters.snapshot(0).shed_jobs, 2);
    }

    #[test]
    fn request_state_drop_releases_inflight_slot() {
        let inflight = Arc::new(AtomicUsize::new(0));
        let state = fake_state(0, 1, &inflight);
        assert_eq!(inflight.load(Ordering::SeqCst), 1);
        assert!(InflightSlot::take(&inflight, 1).is_none(), "the cap is enforced");
        assert_eq!(inflight.load(Ordering::SeqCst), 1, "a refused take holds nothing");
        drop(state);
        assert_eq!(inflight.load(Ordering::SeqCst), 0);
    }

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

    /// A panic between taking the admission slot and enqueueing — injected
    /// here as a normalizer fitted on 23 channels meeting a 7-channel input,
    /// which `normalize_input` asserts on — must release the slot: the one
    /// slot this server has is free again for every later attempt.
    #[test]
    fn a_panic_between_admission_and_enqueue_releases_the_slot() {
        let cfg = ServerConfig { queue_capacity: 1, ..ServerConfig::default() };
        let server = tiny_server(VariableSet::era5_like(), cfg);
        for id in 0..3 {
            let submit = std::panic::AssertUnwindSafe(|| {
                server.submit(ServeRequest::region(id, "conus", 0))
            });
            assert!(std::panic::catch_unwind(submit).is_err(), "the injected panic fires");
            assert_eq!(server.inflight(), 0, "attempt {id} leaked its admission slot");
        }
        assert_eq!(server.stats().admitted, 0);
    }

    /// The drain race with its interleaving forced: admission passes the
    /// RUNNING check and takes its slot, the server stops while admission
    /// waits for the queue lock, and the re-check under that lock rejects.
    /// The request was never enqueued, so it never counts as admitted.
    #[test]
    fn a_request_refused_by_the_stopped_recheck_is_never_counted_admitted() {
        let server = Arc::new(tiny_server(VariableSet::daymet_like(), ServerConfig::default()));
        let queue = server.inner.queue.lock().unwrap();
        let submitter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.submit(ServeRequest::region(1, "conus", 0)).wait())
        };
        // The slot is taken after the RUNNING check and before the lock.
        while server.inflight() == 0 {
            std::thread::yield_now();
        }
        server.inner.state.store(STOPPED, Ordering::SeqCst);
        drop(queue);
        assert_eq!(submitter.join().unwrap().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.stats().admitted, 0, "a rejected request must not count as admitted");
        assert_eq!(server.inflight(), 0);
    }
}

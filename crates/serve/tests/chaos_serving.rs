//! Chaos harness: hammer a fault-injected server from concurrent clients
//! with precision-asserting and unlabelled requests, tiles, and deadlines,
//! and assert the serving resilience invariant — **every submitted request
//! reaches exactly one terminal state** (a response or a typed error, never
//! a hang), every response is bit-equal to `downscale_with` of its input,
//! and the server's inflight gauge returns to zero (no leaked permits). Run
//! by `scripts/chaos_smoke.sh`, which also re-runs the default-config test
//! with a canned `ORBIT2_SERVE_FAULT_PLAN` so the env-armed injection path
//! gets chaos coverage too.

use orbit2::fault::FaultPlan;
use orbit2::inference::downscale_with;
use orbit2::serving::{ServeError, ServeRequest};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel, WeightPrecision};
use orbit2_serve::{Region, Server, ServerConfig};
use orbit2_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcomes of a chaos run: request id, its deadline, its terminal state.
type Outcomes = Vec<(u64, Option<u64>, Result<(), ServeError>)>;

/// A server over the `conus` region, and `downscale_with` of each of the
/// region's samples on the same model and tiling: what every response
/// must equal.
fn start(cfg: ServerConfig) -> (Arc<Server>, Arc<Vec<Tensor>>) {
    let ds =
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    let session = model.session();
    let references = (0..ds.num_samples)
        .map(|t| downscale_with(&model, &session, &norm, &ds.sample(t).input, cfg.tile, 1.0).unwrap())
        .collect();
    drop(session);
    let server = Server::start(model, norm, vec![Region { name: "conus".into(), dataset: ds }], cfg);
    (Arc::new(server), Arc::new(references))
}

/// Poll the inflight gauge down to zero; panics if permits leaked.
fn await_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.inflight() != 0 {
        assert!(
            Instant::now() < deadline,
            "inflight stuck at {} — a request leaked its permit",
            server.inflight()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One client thread's worth of traffic: mixed deadlines, a third of it
/// asserting the precision the server is deployed at (which must be
/// served exactly like the unlabelled rest), every handle waited to a
/// terminal state and every response checked against its reference.
fn hammer(server: &Server, references: &[Tensor], client: u64, requests: u64) -> Outcomes {
    let mut out = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let id = client * 1_000 + i;
        let time = (i % 10) as usize;
        let mut req = ServeRequest::region(id, "conus", time);
        if i % 3 == 1 {
            req = req.at_precision(WeightPrecision::F32);
        }
        // A third of the traffic carries deadlines, some of them tight
        // enough to trip the checkpoints under straggler injection.
        let deadline_ms = match i % 6 {
            2 => Some(40),
            5 => Some(1),
            _ => None,
        };
        if let Some(ms) = deadline_ms {
            req = req.with_deadline_ms(ms);
        }
        let handle = server.submit(req);
        let result = handle
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("request {id} never reached a terminal state"));
        if let Ok(resp) = &result {
            assert!(resp.data == references[time].data(), "request {id}: served != downscale_with");
        }
        out.push((id, deadline_ms, result.map(|_| ())));
    }
    out
}

fn run_chaos(server: &Arc<Server>, references: &Arc<Vec<Tensor>>, clients: u64, requests: u64) -> Outcomes {
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (server, references) = (Arc::clone(server), Arc::clone(references));
            std::thread::spawn(move || hammer(&server, &references, c, requests))
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread must not die"));
    }
    all
}

/// Transient chaos: panics and stragglers at well above the 2% floor.
/// The retry runs clean, so every request without a deadline must
/// *succeed* — an injected panic is never allowed to fail a request, not
/// even transiently its own — and deadline-carrying requests may only add
/// `deadline_exceeded` to the outcome set.
#[test]
fn transient_chaos_recovers_every_request() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(3, 0.10, 0.0, 0.10).with_straggle_ms(3)),
        ..ServerConfig::default()
    };
    let (server, references) = start(cfg);
    let results = run_chaos(&server, &references, 4, 12);
    assert_eq!(results.len(), 48);
    for (id, deadline_ms, result) in &results {
        match result {
            Ok(()) => {}
            Err(ServeError::DeadlineExceeded { .. }) => {
                assert!(
                    deadline_ms.is_some(),
                    "request {id} had no deadline but expired"
                );
            }
            Err(other) => panic!(
                "request {id}: transient chaos must recover everything, got {other:?}"
            ),
        }
    }
    await_idle(&server);
    let stats = server.stats();
    assert!(
        stats.retried_jobs > 0,
        "with 10% panic injection over {} forwards some retry must have fired: {stats:?}",
        stats.batches
    );
    assert_eq!(
        stats.quarantined_jobs, 0,
        "transient faults must never fail an isolated retry"
    );
}

/// Persistent chaos: a request whose dispatch ordinal draws a panic stays
/// dead on retry, so it fails with the typed `internal` error — and no
/// other request does. Every `internal` outcome is backed by a quarantined
/// request, and the concurrent rest keep succeeding (isolation at scale).
#[test]
fn persistent_chaos_fails_only_quarantined_culprits() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(12, 0.06, 0.0, 0.06).with_straggle_ms(3).with_persistent()),
        ..ServerConfig::default()
    };
    let (server, references) = start(cfg);
    let results = run_chaos(&server, &references, 4, 12);
    assert_eq!(results.len(), 48);
    let mut internal = 0u64;
    for (id, deadline_ms, result) in &results {
        match result {
            Ok(()) => {}
            Err(ServeError::Internal { reason }) => {
                internal += 1;
                assert!(
                    reason.contains("isolated retry"),
                    "request {id}: internal error must explain the quarantine: {reason}"
                );
            }
            Err(ServeError::DeadlineExceeded { .. }) => {
                assert!(deadline_ms.is_some(), "request {id} had no deadline but expired");
            }
            Err(other) => panic!("request {id}: unexpected terminal error {other:?}"),
        }
    }
    await_idle(&server);
    let stats = server.stats();
    assert!(
        stats.quarantined_jobs > 0,
        "with 6% persistent panics some culprit must have stayed dead: {stats:?}"
    );
    assert!(
        stats.quarantined_jobs >= internal,
        "every internal outcome needs a quarantined request: {internal} internals, {} quarantined",
        stats.quarantined_jobs
    );
    assert!(
        internal < results.len() as u64,
        "persistent chaos at 6% must not kill every request"
    );
}

/// Chaos racing a drain: half-way through the hammering the server
/// drains. Every request still terminates exactly once — as a response,
/// a typed injection/deadline failure, or `shutting_down` — and the
/// inflight gauge returns to zero.
#[test]
fn chaos_racing_a_drain_still_terminates_every_request() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(5, 0.05, 0.0, 0.10).with_straggle_ms(5)),
        ..ServerConfig::default()
    };
    let (server, references) = start(cfg);
    let drainer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            server.drain(Duration::from_secs(20));
        })
    };
    let results = run_chaos(&server, &references, 3, 10);
    drainer.join().unwrap();
    assert_eq!(results.len(), 30);
    for (id, deadline_ms, result) in &results {
        match result {
            Ok(()) => {}
            Err(ServeError::ShuttingDown) => {}
            Err(ServeError::DeadlineExceeded { .. }) => {
                assert!(deadline_ms.is_some(), "request {id} had no deadline but expired");
            }
            Err(other) => panic!("request {id}: unexpected terminal error {other:?}"),
        }
    }
    await_idle(&server);
    assert!(server.is_shutting_down());
}

/// The invariant for a default-resolution server (`fault_plan: None`):
/// with no environment plan this runs clean; with a canned
/// `ORBIT2_SERVE_FAULT_PLAN` (as `scripts/chaos_smoke.sh` sets) the same
/// test drives the env-armed injection path. Either way every request
/// terminates exactly once and no permit leaks.
#[test]
fn default_config_invariant_holds_with_or_without_env_plan() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        queue_capacity: 256,
        // None: resolved from ORBIT2_SERVE_FAULT_PLAN when the harness
        // sets it, empty otherwise.
        fault_plan: None,
        ..ServerConfig::default()
    };
    let (server, references) = start(cfg);
    let results = run_chaos(&server, &references, 3, 10);
    assert_eq!(results.len(), 30);
    for (id, deadline_ms, result) in &results {
        match result {
            Ok(()) => {}
            Err(ServeError::DeadlineExceeded { .. }) => {
                assert!(deadline_ms.is_some(), "request {id} had no deadline but expired");
            }
            // A canned persistent plan may quarantine culprits.
            Err(ServeError::Internal { .. }) => {}
            Err(other) => panic!("request {id}: unexpected terminal error {other:?}"),
        }
    }
    await_idle(&server);
}

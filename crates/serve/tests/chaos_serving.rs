//! Chaos harness: hammer a fault-injected server from concurrent clients
//! with precision-asserting and unlabelled requests, tiles, and deadlines,
//! and assert the serving resilience invariant — **every submitted request reaches
//! exactly one terminal state** (a response or a typed error, never a
//! hang), and the server's inflight gauge returns to zero (no leaked
//! permits). Run in both SIMD modes by `scripts/chaos_smoke.sh`, which
//! also re-runs the default-config test with a canned
//! `ORBIT2_SERVE_FAULT_PLAN` so the env-armed injection path gets chaos
//! coverage too.

use orbit2::fault::FaultPlan;
use orbit2::serving::{ServeError, ServeRequest};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel, SessionPrecision};
use orbit2_serve::{Region, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(cfg: ServerConfig) -> Arc<Server> {
    let ds =
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    Arc::new(Server::start(model, norm, vec![Region { name: "conus".into(), dataset: ds }], cfg))
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
/// terminal state.
fn hammer(
    server: &Server,
    client: u64,
    requests: u64,
) -> Vec<(u64, Option<u64>, Result<(), ServeError>)> {
    let mut out = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let id = client * 1_000 + i;
        let mut req = ServeRequest::region(id, "conus", (i % 10) as usize);
        if i % 3 == 1 {
            req = req.at_precision(SessionPrecision::F32);
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
        out.push((id, deadline_ms, result.map(|_| ())));
    }
    out
}

fn run_chaos(server: &Arc<Server>, clients: u64, requests: u64) -> Vec<(u64, Option<u64>, Result<(), ServeError>)> {
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(server);
            std::thread::spawn(move || hammer(&server, c, requests))
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread must not die"));
    }
    all
}

/// Transient chaos: panics and stragglers at well above the 2% floor.
/// The quarantine retry runs clean, so every request without a deadline
/// must *succeed* — an injected panic is never allowed to fail an
/// innocent (or even the culprit, transiently) — and deadline-carrying
/// requests may only add `deadline_exceeded` to the outcome set.
#[test]
fn transient_chaos_recovers_every_request() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        max_batch: 4,
        window_micros: 500,
        cache_capacity: 0,
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(11, 0.10, 0.0, 0.10).with_straggle_ms(3)),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let results = run_chaos(&server, 4, 12);
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
        "with 10% panic injection over {} batches some quarantine retry must have fired: {stats:?}",
        stats.batches
    );
    assert_eq!(
        stats.quarantined_jobs, 0,
        "transient faults must never fail an isolated retry"
    );
}

/// Persistent chaos: culprit tiles stay dead on retry, so their requests
/// fail with the typed `internal` error — and nothing else. Every
/// `internal` outcome is backed by at least one quarantined job, and
/// innocents keep succeeding (quarantine isolation at scale).
#[test]
fn persistent_chaos_fails_only_quarantined_culprits() {
    let cfg = ServerConfig {
        tile: Some(TileSpec::square(4, 1)),
        max_batch: 4,
        window_micros: 500,
        cache_capacity: 0,
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(23, 0.06, 0.0, 0.06).with_straggle_ms(3).with_persistent()),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let results = run_chaos(&server, 4, 12);
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
        "every internal outcome needs a quarantined tile: {internal} internals, {} quarantined",
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
        max_batch: 4,
        window_micros: 500,
        cache_capacity: 0,
        queue_capacity: 256,
        fault_plan: Some(FaultPlan::seeded(5, 0.05, 0.0, 0.10).with_straggle_ms(5)),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let drainer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            server.drain(Duration::from_secs(20));
        })
    };
    let results = run_chaos(&server, 3, 10);
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
        max_batch: 4,
        window_micros: 500,
        cache_capacity: 0,
        queue_capacity: 256,
        // None: resolved from ORBIT2_SERVE_FAULT_PLAN when the harness
        // sets it, empty otherwise.
        fault_plan: None,
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let results = run_chaos(&server, 3, 10);
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

//! Deterministic resilience tests: deadline checkpoints (admission,
//! dispatch, after the forward), the retry of a panicking forward, graceful
//! drain, and the health snapshot. Every fault here is an explicit
//! `FaultPlan` event, so each test exercises exactly one checkpoint.

mod common;

use common::HeldWorkers;
use orbit2::fault::{FaultKind, FaultPlan};
use orbit2::inference::downscale_with;
use orbit2::serving::{ServeError, ServeRequest};
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_serve::{Region, Server, ServerConfig};
use orbit2_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn setup() -> (ReslimModel, Normalizer, DownscalingDataset) {
    let ds = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    (model, norm, ds)
}

fn start(cfg: ServerConfig) -> (Server, ReslimModel, Normalizer, DownscalingDataset) {
    let (model, norm, ds) = setup();
    let (ref_model, ref_norm, ref_ds) = setup();
    let server = Server::start(model, norm, vec![Region { name: "conus".into(), dataset: ds }], cfg);
    (server, ref_model, ref_norm, ref_ds)
}

/// A raw request for `input`. While workers are held, tests submit raw
/// requests only: their admission runs no kernel that could wait on a
/// worker.
fn raw(id: u64, input: &Tensor) -> ServeRequest {
    ServeRequest::raw(id, input.shape().to_vec(), input.data().to_vec())
}

/// Tests pin an explicit plan (here: no faults) so a canned
/// `ORBIT2_SERVE_FAULT_PLAN` in the environment cannot perturb them.
fn quiet(cfg: ServerConfig) -> ServerConfig {
    ServerConfig { fault_plan: Some(FaultPlan::none()), ..cfg }
}

/// Wait for the server's inflight gauge to hit zero — the "no leaked
/// permits" half of every resilience guarantee.
fn await_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.inflight() != 0 {
        assert!(Instant::now() < deadline, "inflight never returned to zero");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Admission checkpoint: a deadline that has already passed (deadline_ms
/// of 0) is rejected before any tensor is resolved, with the typed error
/// and the `deadline_expired` counter.
#[test]
fn admission_rejects_already_expired_deadlines() {
    let (server, _, _, _) = start(quiet(ServerConfig::default()));
    let req = ServeRequest::region(1, "conus", 0).with_deadline_ms(0);
    let err = server.submit(req).wait().unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 0 });
    assert_eq!(err.kind(), "deadline_exceeded");
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.admitted, 0, "expired requests never count as admitted");
    assert_eq!(server.inflight(), 0);
}

/// `default_deadline_ms` applies to requests that carry no deadline of
/// their own, and a per-request deadline overrides it in both directions.
#[test]
fn server_default_deadline_applies_unless_overridden() {
    let cfg = quiet(ServerConfig { default_deadline_ms: Some(0), ..ServerConfig::default() });
    let (server, _, _, _) = start(cfg);
    // Unlabelled request inherits the expired default.
    let err = server.submit(ServeRequest::region(1, "conus", 0)).wait().unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 0 });
    // An explicit generous deadline overrides the default and completes.
    let resp = server
        .submit(ServeRequest::region(2, "conus", 0).with_deadline_ms(60_000))
        .wait()
        .expect("explicit deadline overrides the expired default");
    assert_eq!(resp.id, 2);
    await_idle(&server);
}

/// Dispatch checkpoint: a request whose deadline expires while it waits
/// for a worker is shed before any forward runs — it fails with
/// `deadline_exceeded` and no forward executes.
#[test]
fn dispatch_sheds_expired_queued_tiles_before_any_forward() {
    let (server, _, _, ds) = start(quiet(ServerConfig::default()));
    let input = ds.sample(0).input;
    let held = HeldWorkers::all_but(0);
    let handle = server.submit(raw(1, &input).with_deadline_ms(20));
    assert_eq!(server.queue_depth(), 1, "admitted, and waiting for a worker");
    std::thread::sleep(Duration::from_millis(25));
    drop(held);
    let err = handle.wait().unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 20 });
    let stats = server.stats();
    assert_eq!(stats.shed_jobs, 1, "the queued request must be shed, not executed");
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.batches, 0, "no forward may run for a shed request");
    assert_eq!(stats.completed, 0);
    await_idle(&server);
}

/// The last checkpoint: a straggling forward that finishes after the
/// deadline is not returned — the request still terminates with
/// `deadline_exceeded`, and the counter attributes it.
#[test]
fn completion_checkpoint_fails_results_the_client_stopped_waiting_for() {
    let cfg = ServerConfig {
        // The request dispatches promptly, then the injected straggler
        // makes the forward outlive the deadline. The deadline is far above
        // the time a loaded debug build needs to resolve and dispatch one
        // request, even behind another test of this binary holding the
        // workers for a while (at 30 ms the request was now and then shed
        // at dispatch instead, failing `shed_jobs == 0` below).
        fault_plan: Some(FaultPlan::none().with_event(0, 0, FaultKind::Straggler(1_500))),
        ..ServerConfig::default()
    };
    let (server, _, _, _) = start(cfg);
    let handle = server.submit(ServeRequest::region(1, "conus", 0).with_deadline_ms(1_000));
    let err = handle.wait().unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded { deadline_ms: 1_000 });
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.shed_jobs, 0, "the request dispatched before expiring");
    assert_eq!(stats.batches, 1, "the forward ran; only the reply was refused");
    assert_eq!(stats.completed, 0);
    await_idle(&server);
}

/// A persistent panic fails only its own request: the request dispatched
/// second panics, and panics again on its retry, so it fails with a typed
/// `internal` error, while the requests around it are bit-equal to
/// `downscale_with`.
#[test]
fn a_persistent_panic_fails_only_its_own_request() {
    let cfg = ServerConfig {
        fault_plan: Some(FaultPlan::none().with_event(1, 0, FaultKind::Panic).with_persistent()),
        ..ServerConfig::default()
    };
    let (server, model, norm, ds) = start(cfg);
    let session = model.session();
    let inputs: Vec<Tensor> = (0..3).map(|i| ds.sample(i).input).collect();
    let handles: Vec<_> = inputs.iter().enumerate().map(|(i, input)| server.submit(raw(i as u64, input))).collect();
    let mut internal = 0;
    for (i, handle) in handles.iter().enumerate() {
        match handle.wait() {
            Ok(resp) => {
                let reference = downscale_with(&model, &session, &norm, &inputs[i], None, 1.0).unwrap();
                assert_eq!(resp.data, reference.data(), "request {i} must be bitwise-correct");
            }
            Err(err) => {
                match &err {
                    ServeError::Internal { reason } => {
                        assert!(reason.contains("injected fault"), "reason must carry the panic: {reason}");
                    }
                    other => panic!("the culprit must fail with internal, got {other:?}"),
                }
                assert_eq!(err.kind(), "internal");
                internal += 1;
            }
        }
    }
    assert_eq!(internal, 1, "exactly the request dispatched second fails");
    let stats = server.stats();
    assert_eq!(stats.retried_jobs, 0, "no other request panicked");
    assert_eq!(stats.quarantined_jobs, 1, "exactly the culprit was quarantined");
    assert_eq!(stats.completed, 2);
    await_idle(&server);
}

/// The same injected panic with the transient default: the retry runs
/// clean, so every request completes bit-equal to `downscale_with`.
#[test]
fn transient_faults_recover_every_request_via_retry() {
    let cfg = ServerConfig {
        fault_plan: Some(FaultPlan::none().with_event(1, 0, FaultKind::Panic)),
        ..ServerConfig::default()
    };
    let (server, model, norm, ds) = start(cfg);
    let session = model.session();
    let inputs: Vec<Tensor> = (0..3).map(|i| ds.sample(i).input).collect();
    let handles: Vec<_> = inputs.iter().enumerate().map(|(i, input)| server.submit(raw(i as u64, input))).collect();
    for (i, handle) in handles.iter().enumerate() {
        let resp = handle.wait().expect("transient fault must recover every request");
        let reference = downscale_with(&model, &session, &norm, &inputs[i], None, 1.0).unwrap();
        assert_eq!(resp.data, reference.data(), "request {i} must be bitwise-correct");
    }
    let stats = server.stats();
    assert_eq!(stats.retried_jobs, 1, "the poisoned request retried clean");
    assert_eq!(stats.quarantined_jobs, 0);
    assert_eq!(stats.completed, 3);
    await_idle(&server);
}

/// A clean drain: in-flight work finishes, admission is closed, and the
/// drain reports success.
#[test]
fn drain_finishes_inflight_work_then_refuses_new_requests() {
    let (server, _, _, _) = start(quiet(ServerConfig::default()));
    let handles: Vec<_> = (0..3).map(|i| server.submit(ServeRequest::region(i, "conus", i as usize))).collect();
    assert!(server.drain(Duration::from_secs(30)), "idle-bound drain must finish cleanly");
    for handle in &handles {
        handle.wait().expect("work admitted before the drain must complete");
    }
    assert!(server.is_shutting_down());
    let err = server.submit(ServeRequest::region(9, "conus", 0)).wait().unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    assert_eq!(server.inflight(), 0);
}

/// A drain that times out: a request still waiting for a worker when the
/// timeout lapses is completed with `shutting_down`, without a forward,
/// rather than left hanging.
#[test]
fn timed_out_drain_completes_stragglers_with_shutting_down() {
    let (server, _, _, ds) = start(quiet(ServerConfig::default()));
    let input = ds.sample(0).input;
    let held = HeldWorkers::all_but(0);
    let handle = server.submit(raw(1, &input));
    assert!(!server.drain(Duration::from_millis(5)), "drain must report the timeout");
    drop(held);
    assert_eq!(handle.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(server.stats().batches, 0, "a straggler runs no forward");
    await_idle(&server);
}

/// Regression: a submit racing a drain/shutdown must never strand its
/// request. The admission RUNNING check can pass just before `drain`
/// observes inflight == 0 and stops the server; the job admission then
/// spawns finds the server stopped and completes its request with
/// `shutting_down`. Every other round holds every worker through the drain,
/// so the drain times out with admitted requests still waiting for a
/// worker, each of which must complete with `shutting_down` once released.
/// A stagger sweep lands the drain at different points of the submits.
#[test]
fn submit_racing_a_drain_never_strands_a_request() {
    for round in 0..8u64 {
        let (server, _, _, ds) = start(quiet(ServerConfig::default()));
        let server = Arc::new(server);
        let inputs: Vec<Tensor> = (0..6).map(|i| ds.sample(i).input).collect();
        let held = (round % 2 == 1).then(|| HeldWorkers::all_but(0));
        let submitter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                inputs.iter().enumerate().map(|(i, input)| server.submit(raw(i as u64, input))).collect::<Vec<_>>()
            })
        };
        // Sweep the stagger so different rounds hit different points of
        // the admission path (before the state check, between check and
        // spawn, after the spawn).
        std::thread::sleep(Duration::from_micros(round * 300));
        let timeout = if held.is_some() { Duration::from_millis(20) } else { Duration::from_secs(10) };
        server.drain(timeout);
        drop(held);
        let handles = submitter.join().expect("submitter thread must not die");
        let (mut served, mut refused) = (0, 0);
        for handle in handles {
            let outcome = handle
                .wait_timeout(Duration::from_secs(10))
                .expect("request submitted across a drain must still terminate");
            match outcome {
                Ok(_) => served += 1,
                Err(ServeError::ShuttingDown) => refused += 1,
                Err(other) => panic!("unexpected terminal error racing a drain: {other:?}"),
            }
        }
        await_idle(&server);
        // `admitted` counts exactly the requests that got a job: each of
        // them completed, or found the server stopped and is one of the
        // `shutting_down` outcomes. A request turned away at admission is
        // never counted. (From outside the two kinds of `shutting_down`
        // look alike, so this is a bound.)
        let stats = server.stats();
        assert_eq!(stats.completed, served);
        let failed_after_admission = stats.admitted - stats.completed;
        assert!(
            failed_after_admission <= refused,
            "round {round}: admitted {} > completed {} + {refused} shutting_down outcomes",
            stats.admitted,
            stats.completed
        );
    }
}

/// The health snapshot load balancers poll: `ok` while running, gauges
/// live — `queue_depth` counts requests admitted and not yet started on a
/// worker — and `draining` once admission closes.
#[test]
fn health_reports_status_and_gauges() {
    let (server, _, _, ds) = start(quiet(ServerConfig::default()));
    let input = ds.sample(0).input;
    let healthy = server.health();
    assert!(healthy.is_ok());
    assert_eq!(healthy.status, "ok");
    assert_eq!((healthy.inflight, healthy.queue_depth), (0, 0));
    let held = HeldWorkers::all_but(0);
    let handles: Vec<_> = (0..2).map(|i| server.submit(raw(i, &input))).collect();
    let waiting = server.health();
    assert_eq!((waiting.inflight, waiting.queue_depth), (2, 2));
    drop(held);
    for handle in &handles {
        handle.wait().expect("request succeeds");
    }
    await_idle(&server);
    assert_eq!(server.health().queue_depth, 0);
    server.drain(Duration::from_secs(5));
    let draining = server.health();
    assert!(!draining.is_ok());
    assert_eq!(draining.status, "draining");
    assert_eq!(draining.inflight, 0);
}

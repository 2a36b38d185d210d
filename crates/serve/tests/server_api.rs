//! End-to-end library-API tests: served predictions must be bit-identical
//! to direct `downscale_with` calls (concurrent requests included), and
//! admission control must behave observably.

mod common;

use common::HeldWorkers;
use orbit2::inference::downscale_with;
use orbit2::serving::{ServeError, ServeRequest};
use orbit2_model::WeightPrecision;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_imaging::tiles::TileSpec;
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_serve::{Region, Server, ServerConfig, ServerStats};
use orbit2_tensor::Tensor;

fn setup() -> (ReslimModel, Normalizer, DownscalingDataset) {
    let ds =
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    (model, norm, ds)
}

fn start(cfg: ServerConfig) -> (Server, ReslimModel, Normalizer, DownscalingDataset) {
    let (model, norm, ds) = setup();
    // An identically-seeded twin of the served model for reference runs.
    let (ref_model, ref_norm, ref_ds) = setup();
    let server = Server::start(
        model,
        norm,
        vec![Region { name: "conus".into(), dataset: ds }],
        cfg,
    );
    (server, ref_model, ref_norm, ref_ds)
}

/// The snapshot minus the buffer-pool counters, which are process-wide and
/// tick for every test running in this binary.
fn sans_pool(stats: ServerStats) -> ServerStats {
    ServerStats { pool_fresh_allocs: 0, pool_reuses: 0, pool_copies: 0, ..stats }
}

/// Serving must be bitwise-equal to direct inference: submit a burst of
/// raw requests (so their forwards run concurrently) and compare every
/// payload against `downscale_with` on the same input.
#[test]
fn concurrent_serving_matches_downscale_with_bitwise() {
    for &compression in &[1.0f32, 2.0] {
        let (server, model, norm, ds) = start(ServerConfig::default());
        let session = model.session();
        let inputs: Vec<Tensor> = (0..4).map(|i| ds.sample(i).input).collect();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let mut req =
                    ServeRequest::raw(i as u64, input.shape().to_vec(), input.data().to_vec());
                req.compression = compression;
                server.submit(req)
            })
            .collect();
        for (handle, input) in handles.iter().zip(&inputs) {
            let resp = handle.wait().expect("request succeeds");
            let reference =
                downscale_with(&model, &session, &norm, input, None, compression).unwrap();
            assert_eq!(resp.shape, reference.shape().to_vec());
            assert_eq!(resp.data, reference.data(), "served != direct at compression {compression}");
        }
        assert_eq!(server.stats().batched_jobs, 0, "requests are never batched together");
    }
}

/// Tiled serving is `downscale_with` with the server's spec, so outputs
/// stay bitwise-equal tile-by-tile.
#[test]
fn tiled_serving_matches_downscale_with() {
    let spec = TileSpec::square(4, 1);
    let cfg = ServerConfig { tile: Some(spec), ..ServerConfig::default() };
    let (server, model, norm, ds) = start(cfg);
    let session = model.session();
    let inputs: Vec<Tensor> = (0..2).map(|i| ds.sample(i).input).collect();
    let handles: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            server.submit(ServeRequest::raw(i as u64, input.shape().to_vec(), input.data().to_vec()))
        })
        .collect();
    for (handle, input) in handles.iter().zip(&inputs) {
        let resp = handle.wait().expect("request succeeds");
        let reference = downscale_with(&model, &session, &norm, input, Some(spec), 1.0).unwrap();
        assert_eq!(resp.data, reference.data(), "tiled served != tiled direct");
    }
}

/// A reply's bits must not depend on who ran the forward's pieces. A
/// `[7, 32, 32]` request is past the kernels' grain (the decoder works on
/// 32 channels of 128 x 128), so a worker that finds its siblings idle
/// shares the forward with them and one that finds them all occupied runs
/// every piece itself — and either way the reply is `downscale_with`'s.
#[test]
fn replies_do_not_depend_on_idle_workers() {
    let input = orbit2_tensor::random::randn(&[7, 32, 32], 11);
    let (model, norm, _) = setup();
    let reference = downscale_with(&model, &model.session(), &norm, &input, None, 1.0).unwrap();
    for siblings_busy in [false, true] {
        let (server, ..) = start(ServerConfig::default());
        // Hold every worker but one until the reply is in.
        let held = siblings_busy.then(|| HeldWorkers::all_but(1));
        let resp = server
            .submit(ServeRequest::raw(1, input.shape().to_vec(), input.data().to_vec()))
            .wait()
            .expect("request succeeds");
        drop(held);
        assert!(resp.data == reference.data(), "served != direct, siblings busy: {siblings_busy}");
    }
}

#[test]
fn variable_selection_slices_outputs() {
    let (server, model, norm, ds) = start(ServerConfig::default());
    let session = model.session();
    let mut req = ServeRequest::region(1, "conus", 0);
    req.variables = Some(vec!["tmax".into()]);
    let resp = server.submit(req).wait().unwrap();
    assert_eq!(resp.shape[0], 1, "one selected variable, one output channel");
    let full = downscale_with(&model, &session, &norm, &ds.sample(0).input, None, 1.0).unwrap();
    let idx = ds.variables().output_index("tmax").unwrap();
    assert_eq!(resp.data, full.slice_axis(0, idx, 1).data());
}

#[test]
fn admission_errors_complete_immediately() {
    let (server, _, _, ds) = start(ServerConfig { queue_capacity: 0, ..ServerConfig::default() });
    // queue_capacity 0: every otherwise-valid request is turned away.
    let input = ds.sample(0).input;
    let err = server
        .submit(ServeRequest::raw(1, input.shape().to_vec(), input.data().to_vec()))
        .wait()
        .unwrap_err();
    assert_eq!(err, ServeError::QueueFull { capacity: 0 });
    // The slot freed on rejection: the error repeats rather than compounds.
    let err2 = server
        .submit(ServeRequest::raw(2, input.shape().to_vec(), input.data().to_vec()))
        .wait()
        .unwrap_err();
    assert_eq!(err2, ServeError::QueueFull { capacity: 0 });
}

#[test]
fn shutdown_rejects_new_requests() {
    let (server, _, _, _) = start(ServerConfig::default());
    server.shutdown();
    assert!(server.is_shutting_down());
    let err = server.submit(ServeRequest::region(1, "conus", 0)).wait().unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
}

#[test]
fn bad_requests_get_typed_errors() {
    let (server, _, _, _) = start(ServerConfig::default());
    let err = server.submit(ServeRequest::region(1, "atlantis", 0)).wait().unwrap_err();
    assert_eq!(err, ServeError::UnknownRegion { region: "atlantis".into() });

    let err = server.submit(ServeRequest::region(2, "conus", 999)).wait().unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "time out of range: {err}");

    let mut req = ServeRequest::region(3, "conus", 0);
    req.compression = 0.5;
    let err = server.submit(req).wait().unwrap_err();
    assert_eq!(err, ServeError::BadCompression { got: 0.5 });

    let mut req = ServeRequest::region(4, "conus", 0);
    req.variables = Some(vec!["vorticity".into()]);
    let err = server.submit(req).wait().unwrap_err();
    assert_eq!(err, ServeError::UnknownVariable { variable: "vorticity".into() });

    let err = server.submit(ServeRequest::raw(5, vec![2, 2], vec![0.0; 4])).wait().unwrap_err();
    assert_eq!(err.kind(), "invalid_rank");

    let err =
        server.submit(ServeRequest::raw(6, vec![2, 4, 8], vec![0.0; 64])).wait().unwrap_err();
    assert_eq!(err.kind(), "channel_mismatch");

    let err =
        server.submit(ServeRequest::raw(7, vec![7, 5, 8], vec![0.0; 280])).wait().unwrap_err();
    assert_eq!(err.kind(), "not_patch_aligned");

    let err = server.submit(ServeRequest::raw(8, vec![7, 4, 8], vec![0.0; 3])).wait().unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "shape/data mismatch: {err}");

    // Client-chosen dims whose product wraps to `data.len()` (2^64 = 0), and
    // a well-formed shape with nothing in it: refused, not panicked on.
    for (id, shape) in [(9, vec![7, 1 << 32, 1 << 32]), (10, vec![7, 0, 0]), (11, vec![7, 4, 0])] {
        let err = server.submit(ServeRequest::raw(id, shape.clone(), vec![])).wait().unwrap_err();
        assert_eq!(err.kind(), "bad_request", "shape {shape:?}: {err}");
    }
    assert_eq!(server.inflight(), 0);
    assert_eq!(server.stats().admitted, 0);
}

/// An input the server's tiling cannot take — fewer pixels than tiles along
/// an axis (it used to panic `submit` inside the tile grid), or a padded
/// tile the patch size does not divide (it used to panic inside a forward)
/// — is the client's shape: the typed error `downscale_with`
/// returns for it, as a `bad_request`, before anything is admitted.
#[test]
fn inputs_the_tile_grid_cannot_take_are_bad_requests() {
    let cases = [
        (TileSpec::square(16, 1), vec![7, 2, 2]), // 4x4 tiles, 2x2 pixels
        (TileSpec::square(4, 1), vec![7, 6, 8]),  // 3-row cores pad to 5 rows, patch 2
    ];
    for (spec, shape) in cases {
        let cfg = ServerConfig { tile: Some(spec), ..ServerConfig::default() };
        let (server, model, norm, _) = start(cfg);
        let input = Tensor::zeros(shape.clone());
        let err = server.submit(ServeRequest::raw(1, shape, input.data().to_vec())).wait().unwrap_err();
        assert_eq!(err.kind(), "bad_request", "{:?} on {spec:?}: {err}", input.shape());
        assert!(!err.is_retryable(), "{err}");
        let direct = downscale_with(&model, &model.session(), &norm, &input, Some(spec), 1.0);
        assert_eq!(ServeError::from(direct.unwrap_err()), err, "both entry points, one typed error");
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.batches, stats.quarantined_jobs), (0, 0, 0));
        assert_eq!(server.inflight(), 0);
        let fits = server.submit(ServeRequest::raw(2, vec![7, 8, 8], vec![0.0; 448])).wait();
        assert_eq!(fits.expect("the server still serves").shape, vec![3, 32, 32]);
    }
}

/// Precision is a deployment setting a request can only assert. For every
/// precision `P`, a server started at `P` answers unlabelled and
/// `at_precision(P)` requests alike — bit-equal to `downscale_with` through
/// `model.session_at(P)` — and refuses `at_precision(Q != P)` before it
/// resolves anything.
#[test]
fn precision_is_fixed_at_start_and_a_request_can_only_assert_it() {
    for precision in WeightPrecision::ALL {
        let label = precision.label();
        let cfg = ServerConfig { precision, ..ServerConfig::default() };
        let (server, model, norm, ds) = start(cfg);
        let session = model.session_at(precision);
        let input = ds.sample(1).input;
        let reference = downscale_with(&model, &session, &norm, &input, None, 1.0).unwrap();

        // Any other precision is refused, and refused first: the region
        // below does not exist, yet the error is the precision mismatch.
        let before = server.stats();
        for other in WeightPrecision::ALL.into_iter().filter(|&q| q != precision) {
            for region in ["atlantis", "conus"] {
                let err = server
                    .submit(ServeRequest::region(20, region, 3).at_precision(other))
                    .wait()
                    .unwrap_err();
                match &err {
                    ServeError::BadRequest { reason } => assert!(
                        reason.contains(label) && reason.contains(other.label()),
                        "the mismatch must name both precisions: {reason}"
                    ),
                    wrong => panic!("{label} server, {} request: {wrong:?}", other.label()),
                }
            }
        }
        assert_eq!(server.inflight(), 0);
        assert_eq!(
            sans_pool(server.stats()),
            sans_pool(before),
            "a refused request is not admitted or looked up"
        );

        let unlabelled = server.submit(ServeRequest::region(1, "conus", 1)).wait().unwrap();
        assert_eq!(unlabelled.data, reference.data(), "unlabelled != direct {label} session");
        let labelled = server
            .submit(ServeRequest::region(2, "conus", 1).at_precision(precision))
            .wait()
            .unwrap();
        assert_eq!(labelled.data, reference.data(), "labelled != direct {label} session");

        // A concurrent burst alternating the two spellings.
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let req =
                    ServeRequest::raw(10 + i, input.shape().to_vec(), input.data().to_vec());
                server.submit(if i % 2 == 0 { req.at_precision(precision) } else { req })
            })
            .collect();
        for handle in &handles {
            let resp = handle.wait().unwrap();
            assert_eq!(resp.data, reference.data(), "burst reply != direct {label} session");
        }
    }
}

/// The stats snapshot carries buffer-pool telemetry: serving traffic must
/// move the process-wide pool counters (forward passes recycle activation
/// buffers), observable by diffing snapshots around a request.
#[test]
fn stats_expose_pool_telemetry() {
    let (server, _, _, ds) = start(ServerConfig::default());
    let before = server.stats();
    let input = ds.sample(0).input;
    server
        .submit(ServeRequest::raw(1, input.shape().to_vec(), input.data().to_vec()))
        .wait()
        .unwrap();
    let after = server.stats();
    let touched = (after.pool_fresh_allocs + after.pool_reuses + after.pool_copies)
        > (before.pool_fresh_allocs + before.pool_reuses + before.pool_copies);
    assert!(touched, "a forward pass must tick the pool counters: {before:?} -> {after:?}");
}

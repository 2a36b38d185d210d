//! Wire-protocol tests: every `ServeError` kind must surface as a typed
//! error line over TCP, and well-formed requests must round-trip and
//! pipeline exactly as through the library API.

use orbit2::fault::{FaultKind, FaultPlan};
use orbit2::serving::ServeRequest;
use orbit2_model::WeightPrecision;
use orbit2_climate::{DownscalingDataset, LatLonGrid, Normalizer, VariableSet};
use orbit2_model::{ModelConfig, ReslimModel};
use orbit2_serve::{Client, Region, RetryPolicy, Server, ServerConfig, ServerReply};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(cfg: ServerConfig) -> (Arc<Server>, std::net::SocketAddr) {
    let ds =
        DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 10, 3);
    let model = ReslimModel::new(ModelConfig::tiny().with_channels(7, 3), 2);
    let norm = Normalizer::fit(&ds, 4);
    let server = Arc::new(Server::start(
        model,
        norm,
        vec![Region { name: "conus".into(), dataset: ds }],
        cfg,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let accept = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = orbit2_serve::serve(accept, listener);
    });
    (server, addr)
}

/// Poll `{"cmd":"health"}` until the inflight gauge reads zero. A request's
/// admission slot is released when its bookkeeping drops, which is just
/// *after* its reply is completed — so a client that asks immediately can
/// still see it held. Panics if it never frees (a leaked slot).
fn await_idle(client: &mut Client) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.health().unwrap().inflight != 0 {
        assert!(std::time::Instant::now() < deadline, "inflight never returned to zero");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn expect_error(reply: ServerReply, want_id: u64, want_kind: &str) {
    match reply {
        ServerReply::Error { id, error } => {
            assert_eq!(id, want_id, "error attributed to the wrong request");
            assert_eq!(error.kind, want_kind, "unexpected kind: {}", error.message);
            assert!(!error.message.is_empty());
        }
        ServerReply::Response(resp) => panic!("expected {want_kind}, got response {resp:?}"),
    }
}

#[test]
fn round_trip_and_pipelining() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // Pipeline three requests before reading any reply.
    for id in 1..=3u64 {
        client.send(&ServeRequest::region(id, "conus", id as usize)).unwrap();
    }
    for id in 1..=3u64 {
        match client.recv().unwrap() {
            ServerReply::Response(resp) => {
                assert_eq!(resp.id, id, "replies come back in submission order");
                assert_eq!(resp.shape, vec![3, 16, 32]);
                assert_eq!(resp.data.len(), 3 * 16 * 32);
                assert!(resp.data.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected response, got {other:?}"),
        }
    }
}

#[test]
fn every_error_kind_surfaces_over_tcp() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    // Malformed JSON (id recoverable) -> bad_request.
    client.send_line("{\"id\": 41, \"nonsense\": true}").unwrap();
    expect_error(client.recv().unwrap(), 41, "bad_request");

    // Unparseable line -> bad_request attributed to id 0.
    client.send_line("this is not json").unwrap();
    expect_error(client.recv().unwrap(), 0, "bad_request");

    client.send(&ServeRequest::region(42, "atlantis", 0)).unwrap();
    expect_error(client.recv().unwrap(), 42, "unknown_region");

    let mut req = ServeRequest::region(43, "conus", 0);
    req.variables = Some(vec!["vorticity".into()]);
    client.send(&req).unwrap();
    expect_error(client.recv().unwrap(), 43, "unknown_variable");

    let mut req = ServeRequest::region(44, "conus", 0);
    req.compression = 0.25;
    client.send(&req).unwrap();
    expect_error(client.recv().unwrap(), 44, "bad_compression");

    client.send(&ServeRequest::raw(45, vec![4, 4], vec![0.0; 16])).unwrap();
    expect_error(client.recv().unwrap(), 45, "invalid_rank");

    client.send(&ServeRequest::raw(46, vec![2, 4, 8], vec![0.0; 64])).unwrap();
    expect_error(client.recv().unwrap(), 46, "channel_mismatch");

    client.send(&ServeRequest::raw(47, vec![7, 5, 8], vec![0.0; 280])).unwrap();
    expect_error(client.recv().unwrap(), 47, "not_patch_aligned");

    client.send(&ServeRequest::region(48, "conus", 10_000)).unwrap();
    expect_error(client.recv().unwrap(), 48, "bad_request");
}

#[test]
fn queue_full_and_shutdown_surface_over_tcp() {
    let (server, addr) = spawn_server(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.send(&ServeRequest::region(50, "conus", 0)).unwrap();
    expect_error(client.recv().unwrap(), 50, "queue_full");

    server.shutdown();
    client.send(&ServeRequest::region(51, "conus", 0)).unwrap();
    expect_error(client.recv().unwrap(), 51, "shutting_down");
}

/// The `{"cmd":"stats"}` control line answers in FIFO order with the
/// server's one snapshot: on a quiesced server `Client::stats()` is
/// `Server::stats()` — one path, not two — up to the process-wide pool
/// counters, which other tests in this binary keep ticking.
#[test]
fn stats_command_is_the_server_snapshot_over_the_wire() {
    let (server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let zero = client.stats().unwrap();
    assert_eq!((zero.admitted, zero.completed, zero.batches), (0, 0, 0));

    let _ = client.roundtrip(&ServeRequest::region(1, "conus", 4)).unwrap();
    let _ = client.roundtrip(&ServeRequest::region(2, "conus", 4)).unwrap();
    let _ = client
        .roundtrip(&ServeRequest::region(3, "conus", 4).at_precision(WeightPrecision::F32))
        .unwrap();
    // A precision the server is not deployed at is refused, not served.
    client
        .send(&ServeRequest::region(4, "conus", 4).at_precision(WeightPrecision::Int8))
        .unwrap();
    expect_error(client.recv().unwrap(), 4, "bad_request");

    let before = server.stats();
    let wire = client.stats().unwrap();
    let after = server.stats();
    assert_eq!((wire.admitted, wire.completed, wire.batches), (3, 3, 3));
    let sans_pool = |s: orbit2_serve::ServerStats| orbit2_serve::ServerStats {
        pool_fresh_allocs: 0,
        pool_reuses: 0,
        pool_copies: 0,
        ..s
    };
    assert_eq!(sans_pool(wire), sans_pool(after), "the wire reply is Server::stats()");
    // Pool telemetry rides the same reply; a forward ran, so buffers must
    // have been allocated or recycled.
    let pool_ticks = |s: &orbit2_serve::ServerStats| s.pool_fresh_allocs + s.pool_reuses;
    assert!(pool_ticks(&wire) > 0, "pool counters must be live over the wire: {wire:?}");
    assert!(pool_ticks(&before) <= pool_ticks(&wire) && pool_ticks(&wire) <= pool_ticks(&after));
}

/// A raw shape chosen to wedge the server: the dims multiply to 2^64, which
/// wraps to 0 = `data.len()` in release and overflows in debug. It used to
/// kill the connection's reader thread without a reply and leak an
/// admission slot per line; now each line is a `bad_request`, the
/// connection keeps serving, and more of them than `queue_capacity` leave
/// every slot free.
#[test]
fn hostile_raw_shapes_are_bad_requests_and_leak_nothing() {
    let (server, addr) = spawn_server(ServerConfig { queue_capacity: 256, ..Default::default() });
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..300 {
        client.send_line(r#"{"id":1,"shape":[7,4294967296,4294967296],"data":[]}"#).unwrap();
        expect_error(client.recv().unwrap(), 1, "bad_request");
    }
    // Saturating casts are gone too: a dim of 1e30 is named, not read as usize::MAX.
    client.send_line(r#"{"id":2,"shape":[7,1e30,4],"data":[]}"#).unwrap();
    match client.recv().unwrap() {
        ServerReply::Error { id, error } => {
            assert_eq!((id, error.kind.as_str()), (2, "bad_request"));
            assert!(error.message.contains("`shape`"), "{}", error.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.roundtrip(&ServeRequest::region(3, "conus", 0)).unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 3),
        other => panic!("the connection must survive hostile lines, got {other:?}"),
    }
    await_idle(&mut client);
    assert_eq!(server.inflight(), 0);
}

/// A shape the server's tiling cannot take (3-row cores padded to 5 rows
/// by halo 1, patch 2) is refused at admission: a non-retryable
/// `bad_request`, no forward run, nothing quarantined, and the connection
/// keeps serving. It used to panic inside a forward and come back
/// `internal` — retryable — after re-running each tile alone.
#[test]
fn shapes_the_tiling_cannot_take_are_refused_before_any_forward() {
    let tile = Some(orbit2_imaging::tiles::TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 });
    let (server, addr) = spawn_server(ServerConfig { tile, ..Default::default() });
    let mut client = Client::connect(addr).unwrap();
    client.send(&ServeRequest::raw(1, vec![7, 6, 8], vec![0.0; 7 * 6 * 8])).unwrap();
    expect_error(client.recv().unwrap(), 1, "bad_request");
    let stats = client.stats().unwrap();
    assert_eq!((stats.admitted, stats.batches, stats.quarantined_jobs), (0, 0, 0));
    assert_eq!(server.inflight(), 0);
    match client.roundtrip(&ServeRequest::raw(2, vec![7, 8, 8], vec![0.0; 7 * 8 * 8])).unwrap() {
        ServerReply::Response(resp) => assert_eq!((resp.id, resp.shape), (2, vec![3, 32, 32])),
        other => panic!("the connection must keep serving, got {other:?}"),
    }
}

/// Unknown commands get a typed bad_request line instead of hanging the
/// connection, and the connection stays usable afterwards.
#[test]
fn unknown_command_is_bad_request_and_connection_survives() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.send_line(r#"{"cmd":"selfdestruct"}"#).unwrap();
    expect_error(client.recv().unwrap(), 0, "bad_request");
    match client.roundtrip(&ServeRequest::region(9, "conus", 0)).unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 9),
        other => panic!("connection should survive an unknown cmd, got {other:?}"),
    }
}

/// `{"cmd":"health"}` answers in FIFO order with the status and gauges a
/// load balancer needs; the status flips to `draining` once admission
/// closes, observable over an already-open connection.
#[test]
fn health_command_reports_ok_then_draining() {
    let (server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let healthy = client.health().unwrap();
    assert!(healthy.is_ok());
    assert_eq!(healthy.status, "ok");
    assert_eq!(healthy.inflight, 0);
    assert_eq!(healthy.queue_depth, 0);
    // Health rides the FIFO: pipeline a request, then the probe; the
    // probe's reply comes second.
    client.send(&ServeRequest::region(1, "conus", 0)).unwrap();
    client.send_line(r#"{"cmd":"health"}"#).unwrap();
    match client.recv().unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 1),
        other => panic!("expected the pipelined response first, got {other:?}"),
    }
    let pipelined: orbit2::serving::ServeHealth =
        serde_json::from_str(client.recv_line().unwrap().trim_end()).unwrap();
    assert!(pipelined.is_ok());
    server.drain(Duration::from_secs(10));
    let draining = client.health().unwrap();
    assert_eq!(draining.status, "draining");
    assert!(!draining.is_ok());
}

/// Graceful drain over TCP: replies for requests submitted before the
/// drain flush on the open connection (each a response or a typed
/// `shutting_down` error), and connections arriving after the drain are
/// closed instead of served.
#[test]
fn drain_flushes_open_connections_and_refuses_new_ones() {
    let (server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // A health roundtrip first: proves the accept loop picked this
    // connection up *before* the drain (otherwise the pipelined lines
    // race the accept loop's drain check).
    assert!(client.health().unwrap().is_ok());
    for id in 1..=3u64 {
        client.send(&ServeRequest::region(id, "conus", id as usize)).unwrap();
    }
    let drained = server.drain(Duration::from_secs(30));
    assert!(drained, "drain with no stuck work must finish cleanly");
    // Every pipelined request gets exactly one reply, in order: either it
    // made it in before admission closed (a response) or it did not (a
    // typed shutting_down error). Nothing hangs, nothing is dropped.
    for want_id in 1..=3u64 {
        match client.recv().expect("drain must flush every pending reply") {
            ServerReply::Response(resp) => assert_eq!(resp.id, want_id),
            ServerReply::Error { id, error } => {
                assert_eq!(id, want_id);
                assert_eq!(error.kind, "shutting_down");
            }
        }
    }
    // A fresh connection after the drain is closed, not served.
    let mut late = Client::connect(addr).expect("TCP connect itself may still succeed");
    assert!(
        late.health().is_err(),
        "a drained server must close new connections instead of answering"
    );
}

/// `submit_with_retry` rides out transient rejections: against a
/// zero-capacity queue it retries `queue_full` the configured number of
/// times and surfaces the final typed error; against a healthy server it
/// returns the response on the first attempt.
#[test]
fn submit_with_retry_bounds_attempts_and_passes_successes_through() {
    let (_server, addr) = spawn_server(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(2),
        seed: 9,
    };
    let reply = client
        .submit_with_retry(&ServeRequest::region(1, "conus", 0), &policy)
        .expect("retry loop returns the last reply, not an IO error");
    match reply {
        ServerReply::Error { id, error } => {
            assert_eq!(id, 1);
            assert_eq!(error.kind, "queue_full", "exhausted retries surface the typed error");
        }
        other => panic!("expected queue_full after bounded retries, got {other:?}"),
    }

    let (_healthy, addr2) = spawn_server(ServerConfig::default());
    let mut client2 = Client::connect(addr2).unwrap();
    match client2.submit_with_retry(&ServeRequest::region(2, "conus", 0), &policy).unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 2),
        other => panic!("healthy server must answer on the first attempt, got {other:?}"),
    }
    // Non-retryable errors return immediately, not after backoff.
    match client2.submit_with_retry(&ServeRequest::region(3, "atlantis", 0), &policy).unwrap() {
        ServerReply::Error { error, .. } => assert_eq!(error.kind, "unknown_region"),
        other => panic!("expected unknown_region, got {other:?}"),
    }
}

/// A server-side panic surfaces over TCP as the `internal` kind — never
/// as `bad_request`, which is reserved for client mistakes.
#[test]
fn server_side_panic_is_internal_over_the_wire() {
    let (_server, addr) = spawn_server(ServerConfig {
        fault_plan: Some(
            FaultPlan::none().with_event(0, 0, FaultKind::Panic).with_persistent(),
        ),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    match client.roundtrip(&ServeRequest::region(70, "conus", 0)).unwrap() {
        ServerReply::Error { id, error } => {
            assert_eq!(id, 70);
            assert_eq!(error.kind, "internal", "server faults must be blamed on the server");
            assert!(error.message.contains("internal server error"));
        }
        other => panic!("expected internal, got {other:?}"),
    }
    // The connection survives a quarantined request, and the next request
    // (dispatch ordinal 1) is clean.
    match client.roundtrip(&ServeRequest::region(71, "conus", 1)).unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 71),
        other => panic!("server must keep serving after a quarantine, got {other:?}"),
    }
}

/// A wire request with an unparseable precision label (garbage, or the
/// removed `"bf16"`) fails as bad_request, naming every label it would
/// have accepted.
#[test]
fn bad_precision_label_is_bad_request() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    for (id, label) in [(60u64, "fp64"), (63, "bf16")] {
        let line = format!(r#"{{"id": {id}, "region": "conus", "time": 0, "precision": "{label}"}}"#);
        client.send_line(&line).unwrap();
        match client.recv().unwrap() {
            ServerReply::Error { id: got, error } => {
                assert_eq!((got, error.kind.as_str()), (id, "bad_request"));
                assert_names_every_precision(&error.message);
            }
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
}

fn assert_names_every_precision(message: &str) {
    for p in WeightPrecision::ALL {
        assert!(message.contains(p.label()), "{message:?} does not name {p:?}");
    }
}

/// The removed `activation` wire key is rejected, never silently served at
/// f32: `"bf16"` is a bad_request naming the removal, `"f32"` (what the
/// server does anyway) is accepted and answers exactly like the bare
/// request, and the connection and admission bookkeeping survive both.
#[test]
fn removed_activation_key_is_rejected_not_reinterpreted() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client
        .send_line(r#"{"id": 61, "region": "conus", "time": 0, "activation": "bf16"}"#)
        .unwrap();
    match client.recv().unwrap() {
        ServerReply::Error { id, error } => {
            assert_eq!((id, error.kind.as_str()), (61, "bad_request"));
            assert!(error.message.contains("`activation` was removed"), "{}", error.message);
            assert_names_every_precision(&error.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    client
        .send_line(r#"{"id": 62, "region": "conus", "time": 0, "activation": "f32"}"#)
        .unwrap();
    let with_key = match client.recv().unwrap() {
        ServerReply::Response(resp) => resp,
        other => panic!("an explicit f32 must be served, got {other:?}"),
    };
    let bare = match client.roundtrip(&ServeRequest::region(63, "conus", 0)).unwrap() {
        ServerReply::Response(resp) => resp,
        other => panic!("expected response, got {other:?}"),
    };
    assert_eq!((with_key.shape, with_key.data), (bare.shape, bare.data));
    await_idle(&mut client);
}

/// What decides between a control line, a request and a refusal, and under
/// which id: a string `cmd` makes a control line whatever else the line
/// holds; any other `cmd` does not, and the line is refused (as the request
/// it is not) under the `id` it names. An explicit `null` reads as an
/// absent key, as an unset `Option` does in serde.
#[test]
fn control_line_precedence_and_null_keys() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.send_line(r#"{"cmd":"health","id":3,"region":"conus","time":0}"#).unwrap();
    let reply = client.recv_line().unwrap();
    assert!(reply.contains(r#""status":"ok""#), "a `cmd` line is a control line: {reply}");
    client.send_line(r#"{"cmd":5,"id":3}"#).unwrap();
    expect_error(client.recv().unwrap(), 3, "bad_request");
    client.send_line(r#"{"cmd":null,"id":4,"region":"conus","shape":null,"compression":null}"#).unwrap();
    let nulled = match client.recv().unwrap() {
        ServerReply::Response(resp) => resp,
        other => panic!("`null` is an absent key, got {other:?}"),
    };
    let bare = match client.roundtrip(&ServeRequest::region(4, "conus", 0)).unwrap() {
        ServerReply::Response(resp) => resp,
        other => panic!("expected response, got {other:?}"),
    };
    assert_eq!((nulled.id, nulled.shape, nulled.data), (bare.id, bare.shape, bare.data));
    client.send_line(r#"{"id":null,"region":"conus"}"#).unwrap();
    match client.recv().unwrap() {
        ServerReply::Error { id, error } => {
            assert_eq!((id, error.kind.as_str()), (0, "bad_request"));
            assert!(error.message.contains("missing `id`"), "{}", error.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    await_idle(&mut client);
}

/// A refused line is answered under its `id` only when that is a whole
/// number from 0 to 2^53, the rule a request's `id` is read by; any other
/// `id` is answered under 0. A cast answered `2.5` under 2 (which can be
/// another pipelined request's id), `-3` under 0 and `1e30` under
/// `u64::MAX`.
#[test]
fn refused_lines_echo_only_a_wire_integer_id() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    for (id, owed) in [
        ("12", 12),
        ("0", 0),
        ("9007199254740992", 1 << 53),
        ("2.5", 0),
        ("-3", 0),
        ("1e30", 0),
        ("9007199254740994", 0),
        ("12.0e0", 12),
        (r#""7""#, 0),
    ] {
        client.send_line(&format!(r#"{{"id":{id},"region":7}}"#)).unwrap();
        expect_error(client.recv().unwrap(), owed, "bad_request");
    }
    await_idle(&mut client);
}

/// A raw connection for lines `Client::send_line` cannot carry: bytes that
/// are not UTF-8, and a stream with no newline in it.
struct RawConn {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = std::net::TcpStream::connect(addr).unwrap();
        // A server that never answers fails the test instead of hanging it.
        writer.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let reader = std::io::BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.writer.write_all(bytes).unwrap();
    }

    /// The next reply line, or `None` once the server has closed.
    fn recv(&mut self) -> Option<String> {
        use std::io::BufRead;
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("the server answers or closes") {
            0 => None,
            _ => Some(line),
        }
    }
}

/// A client that pipelines and never reads used to pin every reply it was
/// owed. Now a connection holds `MAX_QUEUED_REPLIES` replies and stops
/// reading lines: with the first request straggling, the writer waits on it,
/// so `admitted`, read over a second connection, stops at that request, the
/// eight queued behind it and the one the reader holds. Once the straggler
/// finishes every reply comes back, in order.
#[test]
fn pipelining_past_the_reply_bound_stops_admission() {
    let straggle = FaultPlan::none().with_event(0, 0, FaultKind::Straggler(4_000));
    let (_server, addr) = spawn_server(ServerConfig { fault_plan: Some(straggle), ..ServerConfig::default() });
    let sent = 40u64;
    let mut client = Client::connect(addr).unwrap();
    for id in 1..=sent {
        client.send(&ServeRequest::region(id, "conus", 0)).unwrap();
    }
    // Reaching the bound is certain; staying there for half a second of the
    // straggle is the test.
    let bound = orbit2_serve::tcp::MAX_QUEUED_REPLIES as u64 + 2;
    let mut probe = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while probe.stats().unwrap().admitted < bound {
        assert!(std::time::Instant::now() < deadline, "the reader never filled the reply FIFO");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(500));
    let admitted = probe.stats().unwrap().admitted;
    assert_eq!(admitted, bound, "admitted while the first reply was owed (of {sent} sent)");
    for id in 1..=sent {
        match client.recv().unwrap() {
            ServerReply::Response(resp) => assert_eq!(resp.id, id, "replies come back in line order"),
            other => panic!("expected response {id}, got {other:?}"),
        }
    }
    assert_eq!(probe.stats().unwrap().admitted, sent);
    await_idle(&mut probe);
}

/// The shim's parser used to recurse once per `[` with no bound: 200 KB of
/// them overflowed the connection thread's stack, which aborts the whole
/// process — every connection and every queued request with it. Now the
/// line is a `bad_request`, nested under a key no type knows or not, and
/// the same connection serves the next request.
#[test]
fn deeply_nested_lines_are_bad_requests_not_a_crash() {
    let (server, addr) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    client.send_line(&"[".repeat(200_000)).unwrap();
    expect_error(client.recv().unwrap(), 0, "bad_request");
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    client.send_line(&format!(r#"{{"id":7,"region":"conus","time":0,"x":{deep}}}"#)).unwrap();
    expect_error(client.recv().unwrap(), 0, "bad_request");
    client.send_line(&r#"{"id":8,"a":"#.repeat(50_000)).unwrap();
    expect_error(client.recv().unwrap(), 0, "bad_request");
    // Within the bound, an unknown key's nesting is skipped and the request served.
    let shallow = format!("{}{}", "[".repeat(40), "]".repeat(40));
    client.send_line(&format!(r#"{{"id":9,"region":"conus","time":0,"x":{shallow}}}"#)).unwrap();
    match client.recv().unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 9),
        other => panic!("the connection and the server must survive, got {other:?}"),
    }
    await_idle(&mut client);
    assert_eq!(server.inflight(), 0);
}

/// A stream with no newline used to grow one `String` without limit. Now a
/// line is cut off one byte past `MAX_LINE_BYTES`: it gets one `bad_request`
/// (id 0) and the connection is closed — what follows is the tail of that
/// line, not a line. A line of exactly the bound is still served.
#[test]
fn an_over_long_line_is_refused_once_and_the_connection_closed() {
    let (_server, addr) = spawn_server(ServerConfig::default());
    let max = orbit2_serve::tcp::MAX_LINE_BYTES;

    let mut longest = br#"{"id":5,"region":"conus","time":0"#.to_vec();
    longest.resize(max - 1, b' ');
    longest.extend_from_slice(b"}\n");
    let mut conn = RawConn::connect(addr);
    conn.send(&longest);
    match ServerReply::parse(conn.recv().expect("a reply").trim_end()).unwrap() {
        ServerReply::Response(resp) => assert_eq!(resp.id, 5),
        other => panic!("a line of exactly the bound is a line, got {other:?}"),
    }

    // One byte more, no newline at all, and the peer still sending: the
    // reply must come anyway, and reach a peer that reads only afterwards
    // (a close on unread input would reset the connection under it).
    let mut conn = RawConn::connect(addr);
    conn.send(&vec![b'7'; max + 1]);
    conn.send(&vec![b'7'; 4 << 20]);
    let reply = conn.recv().expect("an over-long line gets its one reply");
    match ServerReply::parse(reply.trim_end()).unwrap() {
        ServerReply::Error { id, error } => {
            assert_eq!((id, error.kind.as_str()), (0, "bad_request"));
            assert!(error.message.contains("exceeds"), "{}", error.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert_eq!(conn.recv(), None, "the connection is closed after the refusal");
}

mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use serde::Value;
    use std::sync::OnceLock;

    /// One server for every case: a case is a burst of lines, not a lifecycle.
    fn server() -> std::net::SocketAddr {
        static SERVER: OnceLock<(Arc<Server>, std::net::SocketAddr)> = OnceLock::new();
        SERVER.get_or_init(|| spawn_server(ServerConfig::default())).1
    }

    /// A line of one of the hostile families, from three random words.
    fn line((family, a, b): (u32, u64, Vec<u8>)) -> Vec<u8> {
        let id = a % 1000;
        let nest = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        let valid = format!(r#"{{"id":{id},"region":"conus","time":{}}}"#, a % 7);
        match family {
            // Arbitrary bytes (a newline would make it two lines).
            0 => b.into_iter().map(|byte| if byte == b'\n' { b' ' } else { byte }).collect(),
            1 => valid.into_bytes(),
            // A valid request cut short anywhere.
            2 => valid.as_bytes()[..a as usize % (valid.len() + 1)].to_vec(),
            3 => format!(r#"{{"id":{id},"shape":[7,1e999,4],"data":[1e999,-1E-999,1e+400,0e9999999999999999999]}}"#).into_bytes(),
            4 => format!(r#"{{"id":{id}e400,"region":"conus","deadline_ms":1e99999}}"#).into_bytes(),
            // Repeated keys: the last of each counts.
            5 => format!(r#"{{"id":1,"region":"conus","id":{id},"region":"atlantis","region":"conus"}}"#).into_bytes(),
            6 => format!(r#"{{"id":{id},"x":{},"region":"conus"}}"#, nest([3, 63, 64, 65, 5000][a as usize % 5])).into_bytes(),
            7 => format!(r#"{{"id":{id},"shape":[7,4294967296,4294967296],"data":[]}}"#).into_bytes(),
            8 => [" ", "\t \r", "", "\x0c"][a as usize % 4].as_bytes().to_vec(),
            9 => format!(r#"{{"id":{},"region":7,"data":[1,"x",null,{{}}]}}"#, [-2.0, 2.5, 1e30, 12.0][a as usize % 4]).into_bytes(),
            10 => format!(r#"{{"id":{id},"region":"conus","activation":"bf16"}}"#).into_bytes(),
            _ => [r#"{"cmd":"stats"}"#, r#"{"cmd":"selfdestruct"}"#, r#""cmd""#, "[]", "null", "{}"][a as usize % 6].as_bytes().to_vec(),
        }
    }

    /// The id a line's reply must carry: the one the line names if it is a
    /// whole number from 0 to 2^53, else 0; `None` for a control line, whose
    /// reply carries none.
    fn owed_id(line: &[u8]) -> Option<u64> {
        let Ok(Value::Object(keys)) = serde_json::from_str(std::str::from_utf8(line).unwrap_or("")) else {
            return Some(0);
        };
        match keys.contains_key("cmd") {
            true => None,
            false => Some(match keys.get("id").and_then(Value::as_f64) {
                Some(n) if n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 => n as u64,
                _ => 0,
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Whatever a client sends, the connection thread does not panic,
        // every non-blank line gets exactly one reply, in order, under the
        // id it named, and the connection stays usable.
        #[test]
        fn any_line_gets_exactly_one_reply(
            words in collection::vec((0u32..12, 0u64..u64::MAX, collection::vec(0u8..=255, 0..48)), 1..12),
        ) {
            let lines: Vec<Vec<u8>> = words.into_iter().map(line).collect();
            let mut conn = RawConn::connect(server());
            for line in &lines {
                conn.send(line);
                conn.send(b"\n");
            }
            conn.send(b"{\"cmd\":\"health\"}\n");
            for line in lines.iter().filter(|l| !l.iter().all(u8::is_ascii_whitespace)) {
                let shown = String::from_utf8_lossy(line);
                let reply = conn.recv().ok_or_else(|| TestCaseError::fail(format!("closed before answering {shown}")))?;
                prop_assert!(!reply.contains("\"status\""), "no reply to {shown}: the sentinel's came first");
                let Some(owed) = owed_id(line) else { continue };
                let id = match ServerReply::parse(reply.trim_end()) {
                    Ok(ServerReply::Response(resp)) => resp.id,
                    Ok(ServerReply::Error { id, error }) => {
                        prop_assert!(!error.kind.is_empty() && error.kind != "internal", "{shown}: {error:?}");
                        id
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{shown}: unreadable reply {reply}: {e}"))),
                };
                prop_assert!(id == owed, "reply to {shown} under id {id}, not {owed}");
            }
            let sentinel = conn.recv().ok_or_else(|| TestCaseError::fail("closed before the sentinel"))?;
            prop_assert!(sentinel.contains("\"status\""), "a surplus reply: {sentinel}");
        }
    }
}

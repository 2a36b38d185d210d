//! `serve-wire` and `serve-weights`: closed-loop clients against an
//! in-process `Server` behind `tcp::serve` on a loopback socket.
//!
//! An op is one TCP round trip of a raw request: encode the request,
//! write the line, read the reply line, parse it. `Spec::clients` client
//! threads, one connection and one outstanding request each; two or more
//! send in lockstep. Every reply is checked
//! against a reference `downscale_with` of the same input computed during
//! set-up; the repo's batched ≡ unbatched and shortest-round-trip-float
//! contracts make the comparison exact.

use crate::infer::{self, Downscaler};
use crate::report::Metrics;
use crate::scene::{Mode, Scene, SetupTimings, Window};
use crate::trace::{self, SpanId, Tracer};
use crate::workload::{twin, Spec};
use orbit2::fault::FaultPlan;
use orbit2::serving::{ServeRequest, ServeResponse};
use orbit2_climate::Normalizer;
use orbit2_model::ReslimModel;
use orbit2_serve::{tcp, Client, Server, ServerConfig, ServerReply, ServerStats};
use orbit2_tensor::Tensor;
use serde::Value;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Traced ops per client kept for the after-window replays.
const REPLAYS_PER_CLIENT: usize = 12;
/// Direct and traced `downscale_with` calls of the model-side probe.
const PROBE_CALLS: usize = 6;

/// Root span of one round trip.
const OP: &str = "op";
const ENCODE: &str = "wire.client_encode";
const ROUNDTRIP: &str = "client.roundtrip";
const PARSE: &str = "wire.client_parse";

/// A traced round trip kept for replay once the server is idle again.
struct Kept {
    op: u32,
    input: usize,
    response: ServeResponse,
    roundtrip_ns: f64,
}

/// What one client thread brings back from a window.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    wrong: u64,
    kept: Vec<Kept>,
}

/// The running server, its listener thread and the generated inputs.
pub struct ServeScene {
    spec: Spec,
    server: Arc<Server>,
    addr: SocketAddr,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    /// A second handle on the listening socket, kept to stop the accept
    /// loop from outside (see [`Scene::teardown`]).
    listener: TcpListener,
    model: ReslimModel,
    normalizer: Normalizer,
    inputs: Arc<Vec<Tensor>>,
    references: Arc<Vec<Tensor>>,
    timings: SetupTimings,
    next_op: u32,
    kept: Vec<Kept>,
    stats_delta: Option<(ServerStats, u64)>,
    /// Ops refused with `queue_full` or `shutting_down`, all windows.
    rejected: u64,
    /// Ops that failed any other way, all windows.
    failed: u64,
}

fn request_for(id: u64, input: &Tensor) -> ServeRequest {
    ServeRequest::raw(id, input.shape().to_vec(), input.data().to_vec())
}

/// One round trip. Returns the latency and the parsed reply; the spans are
/// recorded only when `trace` names a tracer and the op's root id.
fn round_trip(
    client: &mut Client,
    req: &ServeRequest,
    trace: Option<(&Tracer, u32)>,
) -> std::io::Result<(Duration, f64, ServerReply)> {
    let start = Instant::now();
    let root = trace.map(|(t, op)| t.open(OP, 0, op));
    let span = |name: &'static str| {
        trace
            .zip(root.as_ref())
            .map(|((t, op), r)| t.open(name, r.id(), op))
    };
    let line = {
        let _s = span(ENCODE);
        serde_json::to_string(req).expect("request serializes")
    };
    let (reply_line, roundtrip_ns) = {
        let _s = span(ROUNDTRIP);
        let sent = Instant::now();
        client.send_line(&line)?;
        let reply = client.recv_line()?;
        (reply, sent.elapsed().as_nanos() as f64)
    };
    let reply = {
        let _s = span(PARSE);
        ServerReply::parse(reply_line.trim_end()).map_err(std::io::Error::other)?
    };
    drop(root);
    Ok((start.elapsed(), roundtrip_ns, reply))
}

/// What the client threads of one window share.
struct Round<'a> {
    addr: SocketAddr,
    inputs: &'a [Tensor],
    references: &'a [Tensor],
    deadline: Instant,
    /// Client threads in this window.
    clients: usize,
    /// Lockstep (two clients or more): every client waits here before
    /// each request.
    gate: Option<Barrier>,
    /// Lockstep only: set by the gate's leader once the deadline has
    /// passed (or by a client whose connection broke), so that all clients
    /// leave after the same round and none waits at the gate alone.
    stop: AtomicBool,
    trace: Option<(&'a Tracer, u32)>,
}

impl Round<'_> {
    /// Whether to start another op.
    fn proceed(&self) -> bool {
        let Some(gate) = &self.gate else {
            return Instant::now() < self.deadline;
        };
        if gate.wait().is_leader() && Instant::now() >= self.deadline {
            self.stop.store(true, Ordering::SeqCst);
        }
        gate.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

impl ServeScene {
    fn client_loop(round: &Round<'_>, client_no: usize) -> ClientLog {
        let (inputs, references, trace) = (round.inputs, round.references, round.trace);
        let mut log = ClientLog::default();
        let mut client = Client::connect(round.addr).ok();
        if client.is_none() {
            log.attempted = 1;
            log.failed = 1;
            round.stop.store(true, Ordering::SeqCst);
            if round.gate.is_none() {
                return log;
            }
        }
        let mut i = 0usize;
        while round.proceed() {
            // In lockstep a client without a connection still attends the
            // gate until every client has seen `stop`.
            let Some(client) = client.as_mut() else {
                continue;
            };
            // Clients walk the inputs out of phase so that concurrent
            // requests usually carry different fields.
            let which = (i + client_no * (inputs.len() / round.clients).max(1)) % inputs.len();
            let op = trace.map_or(0, |(_, base)| base + (i * round.clients + client_no) as u32);
            let req = request_for(u64::from(op) + 1, &inputs[which]);
            i += 1;
            log.attempted += 1;
            match round_trip(client, &req, trace.map(|(t, _)| (t, op))) {
                Ok((lat, roundtrip_ns, ServerReply::Response(resp))) => {
                    let want = &references[which];
                    let good = resp.shape == want.shape()
                        && resp.data.len() == want.len()
                        && resp
                            .data
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !good {
                        log.wrong += 1;
                    }
                    log.lat_ms.push(lat.as_secs_f64() * 1e3);
                    if trace.is_some() && log.kept.len() < REPLAYS_PER_CLIENT {
                        log.kept.push(Kept {
                            op,
                            input: which,
                            response: resp,
                            roundtrip_ns,
                        });
                    }
                }
                Ok((_, _, ServerReply::Error { error, .. })) => {
                    log.failed += 1;
                    if error.kind == "queue_full" || error.kind == "shutting_down" {
                        log.rejected += 1;
                    }
                }
                Err(_) => {
                    // The connection is in an unknown state; a closed loop
                    // cannot continue on it.
                    log.failed += 1;
                    round.stop.store(true, Ordering::SeqCst);
                    if round.gate.is_none() {
                        break;
                    }
                }
            }
        }
        log
    }
}

impl Scene for ServeScene {
    const ROOT: &'static str = OP;

    fn setup(spec: &Spec, mode: &Mode) -> Self {
        let seed = mode.seed;
        let mut timings = SetupTimings::default();
        let ds = spec.dataset(seed);
        let normalizer = timings.time_fit(|| Normalizer::fit(&ds, spec.fit_samples));
        let inputs: Vec<Tensor> = (0..spec.inputs)
            .map(|i| timings.time_sample(|| ds.sample(i)).input)
            .collect();
        let model = spec.model(seed);

        // References first, on a session of their own that is dropped
        // before the server builds its session, so that the harness's copy
        // of the packed weights never adds to the server's in peak RSS.
        let references: Vec<Tensor> = {
            let session = timings.time_session(|| model.session());
            let d = Downscaler {
                model: &model,
                session: &session,
                normalizer: &normalizer,
                tile: None,
            };
            inputs.iter().map(|x| d.direct(x)).collect()
        };

        let cfg = ServerConfig {
            fault_plan: Some(FaultPlan::none()),
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::start(
            twin(&model),
            normalizer.clone(),
            Vec::new(),
            cfg,
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound socket has an address");
        let for_serve = listener
            .try_clone()
            .expect("duplicate the listening socket");
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || tcp::serve(server, for_serve))
        };

        let scene = Self {
            spec: *spec,
            server,
            addr,
            accept: Some(accept),
            listener,
            model,
            normalizer,
            inputs: Arc::new(inputs),
            references: Arc::new(references),
            timings,
            next_op: 1,
            kept: Vec::new(),
            stats_delta: None,
            rejected: 0,
            failed: 0,
        };
        // Warm-up round trips on a throw-away connection.
        let mut client = Client::connect(addr).expect("connect to the fresh server");
        for i in 0..spec.warmups {
            let req = request_for(0, &scene.inputs[i % scene.inputs.len()]);
            let reply = round_trip(&mut client, &req, None).expect("warm-up round trip");
            assert!(
                matches!(reply.2, ServerReply::Response(_)),
                "warm-up request was refused"
            );
        }
        scene
    }

    fn timings(&self) -> &SetupTimings {
        &self.timings
    }

    fn window(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Window {
        let before = self.server.stats();
        let base = self.next_op;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let clients = self.spec.clients;
        let round = Round {
            addr: self.addr,
            inputs: &self.inputs,
            references: &self.references,
            deadline,
            clients,
            gate: (clients > 1).then(|| Barrier::new(clients)),
            stop: AtomicBool::new(false),
            trace: tracer.map(|t| (t, base)),
        };
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn({
                        let r = &round;
                        move || Self::client_loop(r, c)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let after = self.server.stats();

        let mut w = Window {
            wall_s,
            correct: true,
            ..Window::default()
        };
        let mut most_ops = 0;
        for log in logs {
            most_ops = most_ops.max(log.attempted as usize);
            w.attempted += log.attempted;
            w.failed += log.failed;
            w.correct &= log.wrong == 0;
            w.lat_ms.extend(log.lat_ms);
            self.rejected += log.rejected;
            self.failed += log.failed - log.rejected;
            self.kept.extend(log.kept);
        }
        self.next_op = base + (most_ops * clients) as u32 + 1;
        let delta = ServerStats {
            admitted: after.admitted - before.admitted,
            completed: after.completed - before.completed,
            batches: after.batches - before.batches,
            batched_jobs: after.batched_jobs - before.batched_jobs,
            ..ServerStats::default()
        };
        self.stats_delta = Some((delta, w.attempted - w.failed));
        w
    }

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics, nproc: usize) {
        const US: f64 = 1e-3;
        let spans = tracer.snapshot();
        m.put_sample(
            "wire.client_encode_us",
            &trace::durations(&spans, ENCODE),
            US,
        );
        m.put_sample("wire.client_parse_us", &trace::durations(&spans, PARSE), US);

        // serve::server counters over the last window. Whole-sample jobs:
        // one tile job per completed request.
        if let Some((d, succeeded)) = self.stats_delta {
            let jobs = d.completed as f64;
            if d.batches > 0 && jobs > 0.0 {
                m.put("server.avg_batch", jobs / d.batches as f64);
                m.put("server.batched_share", d.batched_jobs as f64 / jobs);
            }
            if succeeded > 0 {
                m.put(
                    "server.forwards_per_op",
                    d.batches as f64 / succeeded as f64,
                );
            }
        }
        m.put("server.rejected", self.rejected as f64);
        m.put("server.failed", self.failed as f64);

        // Replays, with the server idle: the two parses `handle_conn`
        // makes on a request line and the encode of the response, on the
        // same bytes the traced round trips carried.
        let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
        let (mut parse, mut encode, mut micros, mut socket) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for k in &self.kept {
            let parent: SpanId = 0;
            let line =
                serde_json::to_string(&request_for(u64::from(k.op) + 1, &self.inputs[k.input]))
                    .expect("request serializes");
            let t0 = Instant::now();
            let sniffed = serde_json::from_str::<Value>(&line).expect("request line is JSON");
            let parsed = serde_json::from_str::<ServeRequest>(&line).expect("request line parses");
            let t1 = Instant::now();
            std::hint::black_box((sniffed, parsed));
            let reply = tcp::response_line(k.response.id, &Ok(k.response.clone()));
            let t2 = Instant::now();
            tracer.record("tcp.parse", parent, k.op, t0, t1);
            tracer.record("tcp.encode", parent, k.op, t1, t2);
            let (p, e) = ((t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64);
            let server_ns = k.response.micros as f64 * 1e3;
            req_bytes.push(line.len() as f64 + 1.0);
            resp_bytes.push(reply.len() as f64 + 1.0);
            parse.push(p);
            encode.push(e);
            micros.push(server_ns);
            // What is left of the client's send-to-receive interval: kernel
            // socket copies, the reader's line buffering, thread hand-offs.
            socket.push((k.roundtrip_ns - server_ns - p - e).max(0.0));
        }
        m.put_sample("tcp.request_bytes", &req_bytes, 1.0);
        m.put_sample("tcp.response_bytes", &resp_bytes, 1.0);
        m.put_sample("tcp.parse_us", &parse, US);
        m.put_sample("tcp.encode_us", &encode, US);
        m.put_sample("tcp.socket_us", &socket, US);
        m.put_sample("server.micros_us", &micros, US);

        // Model side: the same inputs through `downscale_with` directly
        // and through its traced re-assembly, on a session of our own.
        let session = self.model.session();
        let d = Downscaler {
            model: &self.model,
            session: &session,
            normalizer: &self.normalizer,
            tile: self.spec.tile,
        };
        let probe_base = self.next_op;
        let mut direct_ns = Vec::new();
        let mut tallies = Vec::new();
        // One untimed call first: this thread's buffer pool and the new
        // session's weights are cold.
        d.direct(&self.inputs[0]);
        for i in 0..PROBE_CALLS {
            let input = &self.inputs[i % self.inputs.len()];
            let t0 = Instant::now();
            let direct = d.direct(input);
            direct_ns.push(t0.elapsed().as_nanos() as f64);
            let (traced, t) = d.traced(input, tracer, 0, probe_base + i as u32);
            assert_eq!(
                infer::checksum(&direct),
                infer::checksum(&traced),
                "traced downscale diverged"
            );
            tallies.extend(t);
        }
        self.next_op = probe_base + PROBE_CALLS as u32;
        let spans = tracer.snapshot();
        infer::model_metrics(m, &spans, &tallies);
        infer::core_metrics(m, &spans, &direct_ns, nproc);
        // What the server adds to the bare downscale of the same input:
        // queue wait, batch window, batch assembly, a wider co-batched
        // forward. Signed: the server runs `forward_batch`, not
        // `ReslimModel::forward`, and where that path is the faster one the
        // difference is negative.
        if let (Some(server), Some(direct)) =
            (m.get("server.micros_us"), m.get("core.downscale_us"))
        {
            m.put("server.overhead_us", server - direct);
        }
    }

    fn teardown(mut self) {
        // `tcp::serve` has no stop: its accept loop only ends when the
        // listener errors. Make our handle on the shared socket
        // non-blocking — the flag lives on the open file both handles share —
        // and wake the blocked accept with one last connection; the next
        // accept returns WouldBlock and `serve` returns that error.
        self.server.shutdown();
        self.listener
            .set_nonblocking(true)
            .expect("set the listener non-blocking");
        drop(TcpStream::connect(self.addr));
        if let Some(accept) = self.accept.take() {
            let stopped = accept.join().expect("accept thread panicked");
            assert!(
                stopped.is_err(),
                "the accept loop only returns on a listener error"
            );
        }
        // Connection handlers exit once their client hangs up, which every
        // client did when its window ended; each drops its handle on the
        // server. Wait for them, then the server itself goes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.server) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

//! Newline-delimited JSON over localhost TCP.
//!
//! One request per line, one response per line. Each connection gets a
//! reader thread (parses lines, submits to the server, forwards the
//! resulting [`Handle`] to the writer) and a writer thread (waits on
//! handles in submission order and writes the response lines). Splitting
//! the two means a client can pipeline requests without waiting for
//! earlier responses — and because every response echoes the request
//! `id`, clients are free to correlate out of order.
//!
//! Success lines are a serialized [`ServeResponse`]; failures are
//! `{"id": N, "error": {"kind": "...", "message": "..."}}` with `kind`
//! one of the stable [`ServeError::kind`] strings.
//!
//! Besides requests, a connection may send control lines of the form
//! `{"cmd": "..."}`. Commands today: `stats` (the serialized
//! [`Server::stats`] snapshot, a [`ServeStats`]) and `health` (a serialized [`ServeHealth`]
//! for load balancers: `{"status": "ok"|"draining", inflight,
//! queue_depth}`). Control replies ride the same FIFO as pipelined
//! request replies, so they arrive in line order.
//!
//! During a [`Server::drain`] the accept loop refuses new connections
//! while existing connections keep their writer threads, so every
//! already-submitted request flushes its FIFO reply (a response or a
//! typed `shutting_down` error) before the stream closes.

use crate::oneshot::Handle;
use crate::server::Server;
use orbit2::serving::{wire_uint, ServeError, ServeHealth, ServeRequest, ServeResponse, ServeStats, WireError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// The longest line a connection may send, newline excluded: a line is
/// buffered whole before it is parsed, so this bounds what a newline-free
/// stream can make the reader hold. Sized for a raw request of 2^21 values
/// (7 variables on a half-degree 360 × 720 grid are 1,814,400) at the 16
/// bytes of the longest `f32` with its comma (`-1.17549435e-38,`); real
/// fields average 10–11, which leaves a third of the line for other keys
/// and padding. A constant, not a flag: nothing deployed needs another.
pub const MAX_LINE_BYTES: usize = 32 << 20;

/// The replies a connection's FIFO holds, finished or not: once it is full
/// the reader stops reading lines until the writer has sent one. Each held
/// reply pins its tensor, and a reply to a request line at
/// [`MAX_LINE_BYTES`] (2^21 input values, so ≈ 14.4 M output values at 16×
/// the pixels and 3 of 7 variables) is ≈ 58 MB of f32. So a connection that
/// pipelines and never reads holds ten at the most — these eight, the one
/// being written and the one the reader waits to queue — ≈ 0.6 GB, where it
/// held every reply it was owed. `serve-wire`'s reply (98,304 values) is
/// 0.4 MB. A constant, not a flag: a client more than eight requests ahead
/// of its reads gains nothing but memory.
pub const MAX_QUEUED_REPLIES: usize = 8;

/// The failure line: `{"error": {...}, "id": N}`.
#[derive(Serialize, Deserialize)]
struct ErrorLine {
    id: u64,
    error: WireError,
}

/// Append one finished request's wire line (no newline) to `out`.
fn write_reply(out: &mut Vec<u8>, id: u64, result: &Result<ServeResponse, ServeError>) {
    match result {
        Ok(resp) => serde_json::to_writer(out, resp),
        Err(err) => serde_json::to_writer(out, &ErrorLine { id, error: err.to_wire() }),
    }
    .expect("a reply serializes")
}

/// Render one finished request as a wire line (no trailing newline).
pub fn response_line(id: u64, result: &Result<ServeResponse, ServeError>) -> String {
    let mut line = Vec::new();
    write_reply(&mut line, id, result);
    String::from_utf8(line).expect("JSON text is UTF-8")
}

/// A parsed server reply line.
#[derive(Debug, Clone)]
pub enum ServerReply {
    /// A completed prediction.
    Response(ServeResponse),
    /// A typed failure for request `id`.
    Error {
        /// The request the failure belongs to (0 when unattributable).
        id: u64,
        /// The typed error payload.
        error: WireError,
    },
}

impl ServerReply {
    /// Parse one wire line into a reply: a response, read straight into its
    /// struct, or else the short failure form.
    pub fn parse(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line).map(ServerReply::Response).or_else(|not_a_response| {
            let ErrorLine { id, error } = serde_json::from_str(line).map_err(|_| not_a_response)?;
            Ok(ServerReply::Error { id, error })
        })
    }
}

/// One unit of the writer thread's FIFO: either a pending request handle
/// (wait, then render) or an already-rendered line (control replies). The
/// single queue keeps replies in line order even when control lines are
/// interleaved with pipelined requests.
enum Outgoing {
    Pending(Handle),
    Line(String),
}

/// A refused line's reply, riding the FIFO like any other.
fn refused(id: u64, reason: impl ToString) -> Outgoing {
    Outgoing::Pending(Handle::failed(id, ServeError::BadRequest { reason: reason.to_string() }))
}

/// The one reply a non-blank line gets. A request is parsed once, straight
/// into a [`ServeRequest`]; only a line that is not one (a `cmd` key makes
/// it a control line) is read again, as a tree: a control line is answered,
/// anything else refused under its `id` — 0 without one, if not JSON, or if
/// the `id` is no [`wire_uint`] (a cast would answer `2.5` under 2, another
/// request's id, and `1e30` under `u64::MAX`).
fn handle_line(server: &Server, line: &[u8]) -> Outgoing {
    let not_a_request = match serde_json::from_slice(line) {
        Ok(req) => return Outgoing::Pending(server.submit(req)),
        Err(e) => e,
    };
    let tree = serde_json::from_slice::<Value>(line).ok();
    let field = |key| tree.as_ref()?.as_object()?.get(key);
    match field("cmd").and_then(Value::as_str) {
        Some("stats") => Outgoing::Line(serde_json::to_string(&server.stats()).expect("stats serialize")),
        Some("health") => Outgoing::Line(serde_json::to_string(&server.health()).expect("health serializes")),
        Some(other) => refused(0, format!("unknown cmd {other:?}")),
        None => refused(field("id").and_then(Value::as_f64).and_then(wire_uint).unwrap_or(0), not_a_request),
    }
}

fn handle_conn(server: &Arc<Server>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let (tx, rx) = mpsc::sync_channel::<Outgoing>(MAX_QUEUED_REPLIES);
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut out = stream;
        // One reused buffer, one write per reply: with `TCP_NODELAY` set a
        // separate newline would be a separate segment.
        let mut buf = Vec::new();
        for item in rx {
            buf.clear();
            match item {
                Outgoing::Pending(handle) => write_reply(&mut buf, handle.id(), &handle.wait()),
                Outgoing::Line(line) => buf.extend_from_slice(line.as_bytes()),
            }
            buf.push(b'\n');
            out.write_all(&buf)?;
        }
        Ok(())
    });
    // One reused line buffer; `take` cuts an over-long line one byte past the bound.
    let mut buf = Vec::new();
    while (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)? != 0 {
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.len() > MAX_LINE_BYTES {
            // What follows is the line's tail, not a line: refuse once and close.
            tx.send(refused(0, format!("line exceeds {MAX_LINE_BYTES} bytes"))).ok();
            break;
        }
        if !line.iter().all(u8::is_ascii_whitespace) && tx.send(handle_line(server, line)).is_err() {
            break;
        }
        buf.clear();
    }
    drop(tx);
    let written = writer.join().map_err(|_| std::io::Error::other("writer thread panicked"))?;
    // After an over-long line the peer is still sending: closing on unread
    // input would reset the connection under the refusal it has yet to read.
    reader.get_ref().shutdown(Shutdown::Write).ok();
    std::io::copy(&mut reader, &mut std::io::sink()).ok();
    written
}

/// Serve connections from `listener` until the process exits. Each
/// connection runs on its own thread; the call itself never returns
/// unless the listener errors. Once the server starts draining, new
/// connections are closed without a handler — existing connections keep
/// flushing their FIFO replies until their clients hang up.
pub fn serve(server: Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        if server.is_shutting_down() {
            drop(stream);
            continue;
        }
        stream.set_nodelay(true).ok();
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = handle_conn(&server, stream);
        });
    }
    Ok(())
}

/// Backoff schedule for [`Client::submit_with_retry`]: full-jitter
/// exponential backoff over `queue_full` / `shutting_down` replies.
/// The sleep before attempt `k` (k ≥ 1) is uniform in
/// `[0, min(max_delay, base_delay · 2^(k-1))]`, drawn from a ChaCha8
/// stream seeded with `seed ^ request id` — deterministic for tests,
/// decorrelated across requests in a retry storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (0 behaves like 1).
    pub max_attempts: u32,
    /// Backoff cap before jitter for the first retry.
    pub base_delay: Duration,
    /// Upper bound on the pre-jitter backoff window.
    pub max_delay: Duration,
    /// Jitter seed; mixed with the request id.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x0b17_2e72,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry attempt `attempt` (1-based count
    /// of retries already earned). Exposed for tests: the schedule is a
    /// pure function of (policy, request id, attempt).
    fn backoff(&self, request_id: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let window = self
            .base_delay
            .saturating_mul(1u32 << exp.min(31))
            .min(self.max_delay)
            .as_nanos() as u64;
        if window == 0 {
            return Duration::ZERO;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ request_id ^ (u64::from(attempt) << 48));
        Duration::from_nanos(rng.gen_range(0..window))
    }
}

/// A blocking line-protocol client for tests, the bench, and scripting.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Send one request line (does not wait for the reply).
    pub fn send(&mut self, req: &ServeRequest) -> std::io::Result<()> {
        self.send_line(&serde_json::to_string(req).expect("request serializes"))
    }

    /// Send a raw line verbatim (for protocol-error tests), in one write.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Read and parse the next reply line.
    pub fn recv(&mut self) -> std::io::Result<ServerReply> {
        ServerReply::parse(self.recv_line()?.trim_end()).map_err(std::io::Error::other)
    }

    /// Send one request and wait for its reply.
    pub fn roundtrip(&mut self, req: &ServeRequest) -> std::io::Result<ServerReply> {
        self.send(req)?;
        self.recv()
    }

    /// Query the server's counter snapshot ([`Server::stats`] over the wire).
    pub fn stats(&mut self) -> std::io::Result<ServeStats> {
        self.send_line(r#"{"cmd":"stats"}"#)?;
        serde_json::from_str(self.recv_line()?.trim_end()).map_err(std::io::Error::other)
    }

    /// Query the server's health: `"ok"` or `"draining"` plus inflight
    /// and queue-depth gauges, for load balancers deciding where to send
    /// traffic.
    pub fn health(&mut self) -> std::io::Result<ServeHealth> {
        self.send_line(r#"{"cmd":"health"}"#)?;
        serde_json::from_str(self.recv_line()?.trim_end()).map_err(std::io::Error::other)
    }

    /// Send `req`, retrying on the transient rejections `queue_full` and
    /// `shutting_down` with the policy's jittered exponential backoff.
    /// This is the recommended client loop: overload and drains are
    /// normal operating states, and a bounded backoff rides them out
    /// without hammering the server. Non-retryable errors and successful
    /// responses return immediately; when attempts run out the last
    /// retryable error is returned as a normal [`ServerReply::Error`].
    pub fn submit_with_retry(
        &mut self,
        req: &ServeRequest,
        policy: &RetryPolicy,
    ) -> std::io::Result<ServerReply> {
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let reply = self.roundtrip(req)?;
            let retryable = matches!(
                &reply,
                ServerReply::Error { error, .. }
                    if error.kind == "queue_full" || error.kind == "shutting_down"
            );
            if !retryable || attempt >= attempts {
                return Ok(reply);
            }
            std::thread::sleep(policy.backoff(req.id, attempt));
        }
    }

    /// Read the next raw reply line verbatim — for pipelined control
    /// replies ([`Client::recv`] only parses request replies).
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every float of a reply comes back as the same bits — `-0.0`, which
    /// equals `0.0` and used to travel as `0`, and the shortest forms of
    /// values no `f64` text is exact for included.
    #[test]
    fn response_lines_round_trip() {
        let resp = ServeResponse {
            id: 9,
            shape: vec![3, 2, 2],
            data: vec![
                0.5, -0.0, 0.0, 0.1, -1e-7, 3.4e38, f32::MIN_POSITIVE, 1e-45, 287.4523, 1.0, 16_777_216.0, -2.5e10,
            ],
            micros: 1234,
        };
        let line = response_line(9, &Ok(resp.clone()));
        assert!(line.contains("[0.5,-0.0,0,0.1,-1e-7,3.4e38,"), "an f32 travels as its shortest text: {line}");
        match ServerReply::parse(&line).unwrap() {
            ServerReply::Response(got) => {
                assert_eq!(got, resp);
                let bits = |r: &ServeResponse| r.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&resp));
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }

    /// The retry schedule is a pure function of (policy, id, attempt):
    /// deterministic for tests, capped by the policy, decorrelated
    /// across request ids.
    #[test]
    fn retry_backoff_is_deterministic_bounded_and_id_decorrelated() {
        let policy = RetryPolicy::default();
        for attempt in 1..=6u32 {
            let a = policy.backoff(42, attempt);
            assert_eq!(a, policy.backoff(42, attempt), "same inputs, same jitter");
            let cap = policy
                .base_delay
                .saturating_mul(1u32 << (attempt - 1))
                .min(policy.max_delay);
            assert!(a <= cap, "attempt {attempt}: {a:?} exceeds cap {cap:?}");
        }
        assert_ne!(
            policy.backoff(1, 3),
            policy.backoff(2, 3),
            "different requests draw different jitter"
        );
        let zero = RetryPolicy { base_delay: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(zero.backoff(7, 1), Duration::ZERO);
    }

    #[test]
    fn error_lines_round_trip_with_kind() {
        let err = ServeError::UnknownRegion { region: "mars".into() };
        let line = response_line(7, &Err(err));
        match ServerReply::parse(&line).unwrap() {
            ServerReply::Error { id, error } => {
                assert_eq!(id, 7);
                assert_eq!(error.kind, "unknown_region");
                assert!(error.message.contains("mars"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
    }
}

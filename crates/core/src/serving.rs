//! Wire types of the serving layer: requests, responses, and the typed
//! error vocabulary the `orbit2-serve` protocol speaks.
//!
//! These live in the core crate (not `orbit2-serve`) so that clients —
//! benches, tests, external tools — can build requests and parse responses
//! without depending on the server implementation. The wire format is
//! newline-delimited JSON: a tensor goes straight between its `Vec<f32>` and
//! the line. [`ServeRequest`]'s impls are hand-written — an unset option is
//! an absent key, a wire integer is validated rather than cast.

use crate::inference::InferenceError;
use orbit2_tensor::fused::WeightPrecision;
use serde::{Deserialize, Error as SerdeError, Serialize, TextReader, TextWriter};
use std::fmt;

/// Where the input field of a request comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestSource {
    /// A named region of the server's world at a time index; the server
    /// resolves it to a coarse input window.
    Region {
        /// Region name, as configured on the server.
        name: String,
        /// Time (sample) index within the region's series.
        time: usize,
    },
    /// An explicit inline input tensor (escape hatch for ad-hoc fields,
    /// validated like any other model input).
    Raw {
        /// Tensor shape, expected `[C, h, w]`.
        shape: Vec<usize>,
        /// Row-major tensor data.
        data: Vec<f32>,
    },
}

/// One downscaling request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Client-chosen correlation id, echoed on the response line.
    pub id: u64,
    /// Input selector.
    pub source: RequestSource,
    /// Adaptive-compression target (1.0 = off).
    pub compression: f32,
    /// Output variables to return; `None` returns all model outputs.
    pub variables: Option<Vec<String>>,
    /// Weight precision the client requires of the server. Precision is a
    /// deployment setting (`--precision`), not a per-request choice: `None`
    /// accepts whatever the server runs at, and a value that differs from
    /// it is refused at admission with a `bad_request` naming both.
    pub precision: Option<WeightPrecision>,
    /// Server-side deadline in milliseconds, measured from admission.
    /// `None` defers to the server's `--default-deadline-ms` (which may
    /// itself be unset, meaning no deadline). Expired work is shed at
    /// three checkpoints — admission, dispatch, and after the forward —
    /// and the request completes with [`ServeError::DeadlineExceeded`];
    /// the server never returns a result the client has stopped waiting for.
    pub deadline_ms: Option<u64>,
}

impl ServeRequest {
    /// A region-sourced request with default knobs.
    pub fn region(id: u64, name: impl Into<String>, time: usize) -> Self {
        Self {
            id,
            source: RequestSource::Region { name: name.into(), time },
            compression: 1.0,
            variables: None,
            precision: None,
            deadline_ms: None,
        }
    }

    /// A raw-tensor request with default knobs.
    pub fn raw(id: u64, shape: Vec<usize>, data: Vec<f32>) -> Self {
        Self {
            id,
            source: RequestSource::Raw { shape, data },
            compression: 1.0,
            variables: None,
            precision: None,
            deadline_ms: None,
        }
    }

    /// Builder-style precision requirement (see [`ServeRequest::precision`]).
    pub fn at_precision(mut self, precision: WeightPrecision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Builder-style server-side deadline (overrides the server default).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

impl Serialize for ServeRequest {
    /// An unset option is an absent key, so older peers interoperate unchanged.
    fn write_text(&self, w: &mut dyn TextWriter) {
        w.begin_object();
        let mut put = |key, value: &dyn Serialize| {
            w.key(key);
            value.write_text(w);
        };
        put("id", &self.id);
        match &self.source {
            RequestSource::Region { name, time } => {
                put("region", name);
                put("time", time);
            }
            RequestSource::Raw { shape, data } => {
                put("shape", shape);
                put("data", data);
            }
        }
        put("compression", &self.compression);
        if let Some(vars) = &self.variables {
            put("variables", vars);
        }
        if let Some(p) = self.precision {
            put("precision", &p.label());
        }
        if let Some(d) = &self.deadline_ms {
            put("deadline_ms", d);
        }
        w.end_object();
    }
}

/// `n` as a wire integer: a whole number from 0 to 2^53 (the range a JSON
/// number holds exactly), or `None`. The serde shim's blanket `n as u64`
/// saturates instead (`-1` reads as 0, `1.5` as 1, `1e30` as `u64::MAX`),
/// which would turn a malformed request into a different valid one.
pub fn wire_uint(n: f64) -> Option<u64> {
    const MAX: f64 = (1u64 << 53) as f64;
    ((0.0..=MAX).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

/// A [`wire_uint`] that fits its `T`.
struct WireUint<T>(T);

impl<T: TryFrom<u64>> Deserialize for WireUint<T> {
    fn read_text(r: &mut dyn TextReader) -> Result<Self, SerdeError> {
        let n = r.f64()?;
        let whole = wire_uint(n)
            .ok_or_else(|| SerdeError::new(format!("must be a whole number between 0 and 2^53, got {n}")))?;
        let narrow = T::try_from(whole).map(Self);
        narrow.map_err(|_| SerdeError::new(format!("{n} does not fit this platform's usize")))
    }
}

/// Every key of a request, read off the wire in one pass: the derive ignores
/// unknown keys, reads an absent one (or `null`) as `None`, and names the key
/// in the error of a value it refuses.
#[derive(Deserialize)]
struct RequestKeys {
    cmd: Option<String>,
    id: Option<WireUint<u64>>,
    region: Option<String>,
    time: Option<WireUint<usize>>,
    shape: Option<Vec<WireUint<usize>>>,
    data: Option<Vec<f32>>,
    compression: Option<f32>,
    variables: Option<Vec<String>>,
    precision: Option<String>,
    activation: Option<String>,
    deadline_ms: Option<WireUint<u64>>,
}

impl Deserialize for ServeRequest {
    fn read_text(r: &mut dyn TextReader) -> Result<Self, SerdeError> {
        let keys = RequestKeys::read_text(r)?;
        if let Some(cmd) = keys.cmd {
            return Err(SerdeError::new(format!("a line with `cmd` ({cmd:?}) is a control line")));
        }
        let id = keys.id.ok_or_else(|| SerdeError::new("request is missing `id`"))?.0;
        let source = match (keys.region, keys.shape, keys.data) {
            (Some(name), None, None) => RequestSource::Region { name, time: keys.time.map_or(0, |t| t.0) },
            (None, Some(shape), Some(data)) => {
                RequestSource::Raw { shape: shape.into_iter().map(|dim| dim.0).collect(), data }
            }
            _ => return Err(SerdeError::new("request needs either `region` or both `shape` and `data`")),
        };
        let precision = keys.precision.map(|label| {
            WeightPrecision::parse(&label).ok_or_else(|| {
                SerdeError::new(format!("unknown precision {label:?} (expected {})", WeightPrecision::choices()))
            })
        });
        // `activation` was a per-request precision key, removed with the
        // bf16-activation datapath. Unknown keys are ignored, so without this
        // check an old client asking for "bf16" would silently get f32.
        if let Some(label) = keys.activation.filter(|label| label != "f32") {
            return Err(SerdeError::new(format!(
                "`activation` was removed: activations are always f32, got {label:?} \
                 (drop the key; `precision` selects {} weights)",
                WeightPrecision::choices()
            )));
        }
        Ok(ServeRequest {
            id,
            source,
            compression: keys.compression.unwrap_or(1.0),
            variables: keys.variables,
            precision: precision.transpose()?,
            deadline_ms: keys.deadline_ms.map(|d| d.0),
        })
    }
}

/// A successful downscaling response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Shape of the prediction, `[C_out, H, W]` (selected variables only).
    pub shape: Vec<usize>,
    /// Row-major prediction data in physical units.
    pub data: Vec<f32>,
    /// Server-side latency in microseconds (admission to completion).
    pub micros: u64,
}

/// The server's one counter snapshot: what `Server::stats()` returns and
/// what a `{"cmd": "stats"}` control line serializes.
///
/// Flat named fields rather than a map keep the derive-shim serialization
/// stable and the reply greppable. Everything is cumulative since server
/// start. The `pool_*` counters are process globals (they also tick during
/// model warmup and for any other tensor work in the process), so consumers
/// should diff snapshots rather than read absolutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests admitted past validation, i.e. handed to a worker job.
    pub admitted: u64,
    /// Requests completed successfully by a forward.
    pub completed: u64,
    /// Forwards run (one per dispatched request). A request's dispatch
    /// ordinal is this counter's value when it is dispatched.
    pub batches: u64,
    /// Always 0: requests are never batched together. Kept only because the
    /// benchmark harness (`benchmark/src/serve.rs`) names the field.
    pub batched_jobs: u64,
    /// Requests whose forward panicked and whose retry, run alone, then
    /// completed cleanly.
    pub retried_jobs: u64,
    /// Requests whose retry panicked too; each fails with an `internal`
    /// error, and no other request with it.
    pub quarantined_jobs: u64,
    /// Requests shed at dispatch, before any forward, because their
    /// deadline had already expired while they waited for a worker.
    pub shed_jobs: u64,
    /// Requests that terminated with `deadline_exceeded` (at admission,
    /// at dispatch, or after the forward).
    pub deadline_expired: u64,
    /// Buffer-pool fresh heap allocations (pool miss or oversized request).
    pub pool_fresh_allocs: u64,
    /// Buffer-pool buffers recycled from the free list.
    pub pool_reuses: u64,
    /// Copy-on-write copies of still-shared pooled buffers.
    pub pool_copies: u64,
}

/// Reply to a `{"cmd": "health"}` control line: the coarse liveness
/// signal a load balancer polls to decide whether to route new traffic
/// here. `status` is `"ok"` while admitting and `"draining"` once
/// `drain`/`shutdown` has stopped admission; `inflight` and
/// `queue_depth` give the balancer a load signal without a full stats
/// round-trip. FIFO-ordered with pipelined requests, like `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeHealth {
    /// `"ok"` (admitting) or `"draining"` (shedding; route elsewhere).
    pub status: String,
    /// Requests admitted and not yet terminal.
    pub inflight: u64,
    /// Requests admitted and not yet started on a worker.
    pub queue_depth: u64,
}

impl ServeHealth {
    /// Whether the server is still admitting new requests.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// The error half of a response line: `{"id": .., "error": {..}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable error kind (one of [`ServeError::kind`]).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

/// Why the server rejected or failed a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request line was not valid JSON or missed required fields.
    BadRequest {
        /// What was wrong with it.
        reason: String,
    },
    /// The named region is not configured on this server.
    UnknownRegion {
        /// The offending region name.
        region: String,
    },
    /// A requested output variable is not produced by the model.
    UnknownVariable {
        /// The offending variable name.
        variable: String,
    },
    /// The compression target is below 1.0 (meaningless).
    BadCompression {
        /// The offending target.
        got: f32,
    },
    /// The input failed model validation.
    Rejected(InferenceError),
    /// The server's admission queue is at capacity; retry later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The request's deadline expired before a result could be returned.
    /// The server sheds expired work at admission, at dispatch (before
    /// any forward runs), and once the forward is done.
    DeadlineExceeded {
        /// The effective deadline that expired, in milliseconds.
        deadline_ms: u64,
    },
    /// Execution failed server-side (a forward that panicked, and panicked
    /// again on its retry). Unlike `bad_request`, the client did nothing
    /// wrong; retrying against a healthy replica is sound.
    Internal {
        /// What went wrong, from the panic payload.
        reason: String,
    },
}

impl ServeError {
    /// Stable machine-readable kind string for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::UnknownRegion { .. } => "unknown_region",
            ServeError::UnknownVariable { .. } => "unknown_variable",
            ServeError::BadCompression { .. } => "bad_compression",
            ServeError::Rejected(InferenceError::BadRank { .. }) => "invalid_rank",
            ServeError::Rejected(InferenceError::ChannelMismatch { .. }) => "channel_mismatch",
            ServeError::Rejected(InferenceError::NotPatchAligned { .. }) => "not_patch_aligned",
            ServeError::Rejected(InferenceError::BadTiling { .. }) => "bad_request",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Whether a client should retry this error against the same (or
    /// another) server: load shedding and drains are transient by nature,
    /// and internal failures are server-side, so a retry may land on a
    /// healthy replica. Client-caused errors
    /// (`bad_request`, validation failures, expired deadlines) are not
    /// retryable — the same request will fail the same way.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::QueueFull { .. } | ServeError::ShuttingDown | ServeError::Internal { .. })
    }

    /// Convert to the wire representation.
    pub fn to_wire(&self) -> WireError {
        WireError { kind: self.kind().to_string(), message: self.to_string() }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::UnknownRegion { region } => write!(f, "unknown region {region:?}"),
            ServeError::UnknownVariable { variable } => write!(f, "unknown variable {variable:?}"),
            ServeError::BadCompression { got } => {
                write!(f, "compression target must be >= 1.0, got {got}")
            }
            ServeError::Rejected(e) => write!(f, "input rejected: {e}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms}ms exceeded")
            }
            ServeError::Internal { reason } => write!(f, "internal server error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InferenceError> for ServeError {
    fn from(e: InferenceError) -> Self {
        ServeError::Rejected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_region() {
        let req = ServeRequest::region(7, "conus-west", 3);
        let line = serde_json::to_string(&req).unwrap();
        let back: ServeRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_raw_with_knobs() {
        let mut req = ServeRequest::raw(1, vec![1, 2, 2], vec![0.0, 1.0, 2.0, 3.0]);
        req.compression = 2.0;
        req.variables = Some(vec!["tmin".into()]);
        let line = serde_json::to_string(&req).unwrap();
        let back: ServeRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_defaults_apply() {
        let back: ServeRequest = serde_json::from_str(r#"{"id": 4, "region": "conus"}"#).unwrap();
        assert_eq!(back, ServeRequest::region(4, "conus", 0));
    }

    #[test]
    fn request_without_source_is_an_error() {
        assert!(serde_json::from_str::<ServeRequest>(r#"{"id": 1}"#).is_err());
        assert!(serde_json::from_str::<ServeRequest>(r#"{"region": "x"}"#).is_err());
        // `shape` without `data` is also incomplete.
        assert!(serde_json::from_str::<ServeRequest>(r#"{"id": 1, "shape": [1]}"#).is_err());
    }

    #[test]
    fn request_precision_roundtrips_and_defaults() {
        let req = ServeRequest::region(2, "conus", 1).at_precision(WeightPrecision::Int8);
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains(r#""precision":"int8""#), "{line}");
        let back: ServeRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        // Absent field means "no requirement" and is not emitted on the
        // wire (pre-precision clients and servers interoperate unchanged).
        let default_req = ServeRequest::region(2, "conus", 1);
        assert!(!serde_json::to_string(&default_req).unwrap().contains("precision"));
        let old: ServeRequest = serde_json::from_str(r#"{"id": 2, "region": "conus"}"#).unwrap();
        assert_eq!(old.precision, None);
        // An explicit f32 *is* emitted (a reduced-precision server must refuse it).
        let f32_req = ServeRequest::region(2, "conus", 1).at_precision(WeightPrecision::F32);
        assert!(serde_json::to_string(&f32_req).unwrap().contains(r#""precision":"f32""#));
        // "i8" is an accepted alias; garbage, or the removed "bf16", is a
        // hard error.
        let alias: ServeRequest = serde_json::from_str(r#"{"id": 1, "region": "x", "precision": "i8"}"#).unwrap();
        assert_eq!(alias.precision, Some(WeightPrecision::Int8));
        for label in ["fp64", "bf16"] {
            let line = format!(r#"{{"id": 1, "region": "x", "precision": "{label}"}}"#);
            let err = serde_json::from_str::<ServeRequest>(&line).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown precision {label:?}")), "{err}");
            for p in WeightPrecision::ALL {
                assert!(err.contains(p.label()), "{err}");
            }
        }
    }

    #[test]
    fn stats_roundtrip() {
        let stats = ServeStats {
            admitted: 9,
            completed: 8,
            batches: 5,
            pool_reuses: 7,
            retried_jobs: 3,
            quarantined_jobs: 1,
            shed_jobs: 4,
            deadline_expired: 2,
            ..ServeStats::default()
        };
        let line = serde_json::to_string(&stats).unwrap();
        assert!(line.contains(r#""admitted":9"#), "{line}");
        assert!(line.contains("pool_reuses"), "{line}");
        assert!(line.contains("quarantined_jobs"), "{line}");
        let back: ServeStats = serde_json::from_str(&line).unwrap();
        assert_eq!(back, stats);
    }

    /// Wire integers are validated, not saturating-cast: every malformed
    /// value is refused with an error naming its key, and the extremes of
    /// the valid range parse exactly.
    #[test]
    fn wire_integers_are_validated_not_saturated() {
        let rejected = [
            ("id", r#"{"id": -1, "region": "x"}"#),
            ("id", r#"{"id": 1.5, "region": "x"}"#),
            ("id", r#"{"id": 1e30, "region": "x"}"#),
            ("id", r#"{"id": 9007199254740994, "region": "x"}"#),
            ("id", r#"{"id": "7", "region": "x"}"#),
            ("time", r#"{"id": 1, "region": "x", "time": -1}"#),
            ("time", r#"{"id": 1, "region": "x", "time": 0.25}"#),
            ("shape", r#"{"id": 1, "shape": [1, -2, 2], "data": []}"#),
            ("shape", r#"{"id": 1, "shape": [1e30, 1, 1], "data": []}"#),
            ("shape", r#"{"id": 1, "shape": [1, 2.5, 2], "data": []}"#),
            ("shape", r#"{"id": 1, "shape": 4, "data": []}"#),
            ("deadline_ms", r#"{"id": 1, "region": "x", "deadline_ms": -5}"#),
            ("deadline_ms", r#"{"id": 1, "region": "x", "deadline_ms": 0.5}"#),
            ("deadline_ms", r#"{"id": 1, "region": "x", "deadline_ms": 1e999}"#),
        ];
        for (key, line) in rejected {
            let err = serde_json::from_str::<ServeRequest>(line).expect_err(line).to_string();
            assert!(err.contains(&format!("`{key}`")), "{line}: error must name the key: {err}");
        }
        let edge: ServeRequest =
            serde_json::from_str(r#"{"id": 9007199254740992, "region": "x", "time": 0, "deadline_ms": 0}"#).unwrap();
        assert_eq!(edge, ServeRequest::region(1 << 53, "x", 0).with_deadline_ms(0));
        let raw: ServeRequest = serde_json::from_str(r#"{"id": 2, "shape": [1, 4294967296, 0], "data": []}"#).unwrap();
        assert_eq!(raw, ServeRequest::raw(2, vec![1, 1 << 32, 0], vec![]));
    }

    #[test]
    fn removed_activation_key_is_rejected_not_reinterpreted() {
        // Absent or "f32" parses to the same request...
        let plain: ServeRequest = serde_json::from_str(r#"{"id": 3, "region": "conus"}"#).unwrap();
        let f32_req: ServeRequest =
            serde_json::from_str(r#"{"id": 3, "region": "conus", "activation": "f32"}"#).unwrap();
        assert_eq!(f32_req, plain);
        assert!(!serde_json::to_string(&plain).unwrap().contains("activation"));
        // ...anything else is an error that names the removal.
        for label in ["bf16", "int8"] {
            let line = format!(r#"{{"id": 1, "region": "x", "activation": "{label}"}}"#);
            let err = serde_json::from_str::<ServeRequest>(&line).unwrap_err();
            assert!(err.to_string().contains("`activation` was removed"), "{err}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = ServeResponse { id: 9, shape: vec![1, 2, 2], data: vec![1.0, 2.0, 3.0, 4.0], micros: 1234 };
        let line = serde_json::to_string(&resp).unwrap();
        let back: ServeResponse = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    /// Whose fault each error is. Client-caused and server-caused failures
    /// must never share a wire kind: a client retry loop keys off the kind
    /// to decide whether resending the same request can ever succeed.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Blame {
        /// The request itself is wrong; resending it is futile.
        Client,
        /// The server (or its load) failed; the request was fine.
        Server,
    }

    /// One row per `ServeError` variant: the wire kind is a stable
    /// protocol commitment, and the blame column pins the audit that
    /// server-side faults (panics, drains, shedding) are never
    /// misclassified as client errors.
    #[test]
    fn every_error_variant_has_a_stable_attributed_wire_kind() {
        use Blame::{Client, Server};
        let table: Vec<(ServeError, &str, Blame, bool)> = vec![
            // (variant, wire kind, blame, retryable)
            (ServeError::BadRequest { reason: "x".into() }, "bad_request", Client, false),
            (ServeError::UnknownRegion { region: "x".into() }, "unknown_region", Client, false),
            (ServeError::UnknownVariable { variable: "x".into() }, "unknown_variable", Client, false),
            (ServeError::BadCompression { got: 0.5 }, "bad_compression", Client, false),
            (ServeError::Rejected(InferenceError::BadRank { ndim: 2 }), "invalid_rank", Client, false),
            (
                ServeError::Rejected(InferenceError::ChannelMismatch { got: 1, expected: 2 }),
                "channel_mismatch",
                Client,
                false,
            ),
            (
                ServeError::Rejected(InferenceError::NotPatchAligned { h: 3, w: 3, patch: 2 }),
                "not_patch_aligned",
                Client,
                false,
            ),
            (ServeError::QueueFull { capacity: 8 }, "queue_full", Server, true),
            (ServeError::ShuttingDown, "shutting_down", Server, true),
            // The client *chose* the deadline; a resend of the same
            // request would expire the same way under the same load.
            (ServeError::DeadlineExceeded { deadline_ms: 25 }, "deadline_exceeded", Client, false),
            (ServeError::Internal { reason: "boom".into() }, "internal", Server, true),
        ];
        let kinds: std::collections::BTreeSet<&str> = table.iter().map(|(e, _, _, _)| e.kind()).collect();
        assert_eq!(kinds.len(), table.len(), "kinds must be unique");
        for (err, kind, blame, retryable) in &table {
            assert_eq!(err.kind(), *kind, "wire kind drifted for {err:?}");
            assert_eq!(err.to_wire().kind, *kind);
            assert!(!err.to_string().is_empty());
            assert_eq!(err.is_retryable(), *retryable, "retryability drifted for {err:?}");
            // Server-caused failures must never reuse a client-blame kind.
            let client_kinds = [
                "bad_request",
                "unknown_region",
                "unknown_variable",
                "bad_compression",
                "invalid_rank",
                "channel_mismatch",
                "not_patch_aligned",
                "deadline_exceeded",
            ];
            match blame {
                Blame::Client => assert!(client_kinds.contains(kind)),
                Blame::Server => {
                    assert!(!client_kinds.contains(kind), "server-caused {err:?} leaked a client-blame kind")
                }
            }
        }
        // Exhaustiveness: a new variant must be added to the table above.
        for (err, _, _, _) in &table {
            match err {
                ServeError::BadRequest { .. }
                | ServeError::UnknownRegion { .. }
                | ServeError::UnknownVariable { .. }
                | ServeError::BadCompression { .. }
                | ServeError::Rejected(_)
                | ServeError::QueueFull { .. }
                | ServeError::ShuttingDown
                | ServeError::DeadlineExceeded { .. }
                | ServeError::Internal { .. } => {}
            }
        }
        // The one rejection without a kind of its own: a shape the server's
        // tiling cannot take is the client's shape, an existing kind.
        let spec = orbit2_imaging::tiles::TileSpec { tiles_y: 2, tiles_x: 2, halo: 1 };
        let tiling = ServeError::Rejected(InferenceError::BadTiling { h: 6, w: 8, spec, patch: 2 });
        assert_eq!(tiling.kind(), "bad_request");
        assert!(!tiling.is_retryable());
        let wire = table[4].0.to_wire();
        assert_eq!(wire.kind, "invalid_rank");
        assert!(wire.message.contains("rank-2"));
        let internal = ServeError::Internal { reason: "index out of bounds".into() }.to_wire();
        assert!(internal.message.contains("index out of bounds"));
    }

    #[test]
    fn request_deadline_roundtrips_and_defaults() {
        let req = ServeRequest::region(5, "conus", 2).with_deadline_ms(250);
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains(r#""deadline_ms":250"#), "{line}");
        let back: ServeRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        // Absent field means "server default" and is not emitted on the
        // wire (pre-deadline clients and servers interoperate unchanged).
        let default_req = ServeRequest::region(5, "conus", 2);
        assert!(!serde_json::to_string(&default_req).unwrap().contains("deadline"));
        let old: ServeRequest = serde_json::from_str(r#"{"id": 5, "region": "conus"}"#).unwrap();
        assert_eq!(old.deadline_ms, None);
    }

    #[test]
    fn health_roundtrip() {
        let health = ServeHealth { status: "draining".into(), inflight: 3, queue_depth: 7 };
        assert!(!health.is_ok());
        let line = serde_json::to_string(&health).unwrap();
        assert!(line.contains(r#""status":"draining""#), "{line}");
        let back: ServeHealth = serde_json::from_str(&line).unwrap();
        assert_eq!(back, health);
        assert!(ServeHealth { status: "ok".into(), inflight: 0, queue_depth: 0 }.is_ok());
    }
}

//! orbit2-serve: a persistent inference server for the ORBIT-2
//! reproduction.
//!
//! Training amortizes weight preparation across an epoch; ad-hoc
//! inference pays it per call. This crate closes the gap for serving:
//! a [`Server`] owns one model and one prepared
//! [`InferenceSession`](orbit2_model::InferenceSession) — at the weight
//! precision it was deployed with ([`ServerConfig::precision`]; a request
//! may assert that precision but never choose another) — for its whole
//! lifetime, and runs each request's `orbit2::inference::downscale_with`
//! on the shared session:
//!
//! - **Async submission** — [`Server::submit`] validates and admits,
//!   returning a [`Handle`] the caller blocks on (or polls) at its
//!   leisure; execution happens on the vendored rayon shim's persistent
//!   worker registry, one detached `rayon::spawn` job per request, in the
//!   order requests were admitted. A job's forward shares its parallel
//!   kernels with whichever workers are idle right then: two requests in
//!   flight run on a core each, a lone request on all of them, and replies
//!   are bit-equal either way (the shim's header says why that cannot
//!   deadlock).
//! - **One stats snapshot** — [`Server::stats`] returns the single
//!   [`ServerStats`] struct (admission, throughput, resilience and
//!   buffer-pool counters), which is also what `{"cmd":"stats"}` sends.
//! - **Resilience** — requests carry optional deadlines checked at
//!   admission, at dispatch (an expired request is shed before any
//!   forward runs), and after the forward; a forward that panics is
//!   retried once alone, and a second panic fails only that request
//!   (typed `internal`, never `bad_request`); and [`Server::drain`] stops
//!   admission, lets admitted work finish, then completes stragglers with
//!   `shutting_down`. A [`orbit2::fault::FaultPlan`] armed via
//!   `ORBIT2_SERVE_FAULT_PLAN` injects panics and stragglers per dispatch
//!   ordinal to prove all of it under test. See DESIGN.md §10 "Failure
//!   semantics".
//!
//! The [`tcp`] module adds a newline-delimited-JSON front end over
//! localhost TCP (see the `orbit2-serve` binary), with typed error
//! replies carrying the stable `ServeError::kind` strings, a
//! `{"cmd":"health"}` probe for load balancers, and a
//! [`Client::submit_with_retry`] helper implementing the recommended
//! jittered-backoff client loop.
//!
//! ```no_run
//! use orbit2_serve::{Server, ServerConfig, Region};
//! use orbit2::serving::ServeRequest;
//! # fn demo(model: orbit2_model::ReslimModel,
//! #         normalizer: orbit2_climate::Normalizer,
//! #         regions: Vec<Region>) {
//! let server = Server::start(model, normalizer, regions, ServerConfig::default());
//! let handle = server.submit(ServeRequest::region(1, "conus", 0));
//! let response = handle.wait().unwrap();
//! assert_eq!(response.shape.len(), 3);
//! # }
//! ```

mod oneshot;
mod server;
pub mod tcp;

pub use oneshot::Handle;
pub use orbit2::serving::ServeStats as ServerStats;
pub use server::{Region, Server, ServerConfig};
pub use tcp::{serve, Client, RetryPolicy, ServerReply};

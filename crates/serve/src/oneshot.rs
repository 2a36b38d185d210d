//! Per-request completion: a write-once slot the submitting side can block
//! on, built from `Mutex` + `Condvar` (the vendored runtime has no async
//! channels, and none are needed — one value crosses one thread boundary
//! exactly once per request).

use orbit2::serving::{ServeError, ServeResponse};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A write-once result slot. The first [`Oneshot::complete`] wins; later
/// calls are ignored, so a request can never reach two terminal states.
pub(crate) struct Oneshot {
    slot: Mutex<Option<Result<ServeResponse, ServeError>>>,
    ready: Condvar,
}

impl Oneshot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { slot: Mutex::new(None), ready: Condvar::new() })
    }

    /// Fill the slot (first writer wins) and wake every waiter. Returns
    /// `true` when this call was the one that completed the request; every
    /// later call is a no-op.
    pub(crate) fn complete(&self, result: Result<ServeResponse, ServeError>) -> bool {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// Whether the request already reached a terminal state (a worker job
    /// runs no forward for one that has).
    pub(crate) fn is_complete(&self) -> bool {
        self.slot.lock().unwrap().is_some()
    }
}

/// The caller's side of a submitted request: block on [`Handle::wait`] or
/// for at most a bound with [`Handle::wait_timeout`]. Cloneable so a response writer and a
/// latency recorder can both observe the same completion.
#[derive(Clone)]
pub struct Handle {
    id: u64,
    slot: Arc<Oneshot>,
}

impl Handle {
    pub(crate) fn new(id: u64, slot: Arc<Oneshot>) -> Self {
        Self { id, slot }
    }

    /// A handle born completed with `err` (admission-time rejections).
    pub(crate) fn failed(id: u64, err: ServeError) -> Self {
        let slot = Oneshot::new();
        slot.complete(Err(err));
        Self { id, slot }
    }

    /// The request id this handle tracks.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request completes.
    pub fn wait(&self) -> Result<ServeResponse, ServeError> {
        let mut slot = self.slot.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.slot.ready.wait(slot).unwrap();
        }
    }

    /// Block up to `timeout`; `None` if the request is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, ServeError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.slot.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.slot.ready.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(id: u64) -> ServeResponse {
        ServeResponse { id, shape: vec![1], data: vec![0.0], micros: 0 }
    }

    #[test]
    fn wait_sees_completion_from_another_thread() {
        let slot = Oneshot::new();
        let handle = Handle::new(3, Arc::clone(&slot));
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
        let t = std::thread::spawn(move || slot.complete(Ok(resp(3))));
        let got = handle.wait().unwrap();
        assert_eq!(got.id, 3);
        t.join().unwrap();
    }

    #[test]
    fn first_completion_wins() {
        let slot = Oneshot::new();
        let handle = Handle::new(1, Arc::clone(&slot));
        slot.complete(Err(ServeError::ShuttingDown));
        slot.complete(Ok(resp(1)));
        assert_eq!(handle.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn wait_timeout_expires_then_delivers() {
        let slot = Oneshot::new();
        let handle = Handle::new(2, Arc::clone(&slot));
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
        slot.complete(Ok(resp(2)));
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_some());
    }

    /// The drain race: a client blocked in `wait_timeout` while `drain`
    /// completes the request with `ShuttingDown` must observe exactly one
    /// terminal result, and later polls must agree with it.
    #[test]
    fn drain_completion_during_wait_timeout_delivers_exactly_one_result() {
        let slot = Oneshot::new();
        let handle = Handle::new(4, Arc::clone(&slot));
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait_timeout(Duration::from_secs(10)))
        };
        // Give the waiter time to actually block inside wait_timeout.
        std::thread::sleep(Duration::from_millis(20));
        // Drain completes the request...
        assert!(slot.complete(Err(ServeError::ShuttingDown)), "drain must win the empty slot");
        // ...and a straggling worker finishing the same request afterwards
        // must lose the race without disturbing the delivered result.
        assert!(!slot.complete(Ok(resp(4))), "late completion must not win");
        let seen = waiter.join().unwrap().expect("waiter must wake with a result");
        assert_eq!(seen.unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(handle.wait().unwrap_err(), ServeError::ShuttingDown);
        let polled = handle.wait_timeout(Duration::ZERO).expect("the slot is complete");
        assert_eq!(polled.unwrap_err(), ServeError::ShuttingDown);
    }

    /// Many completers racing one slot: exactly one `complete` call wins,
    /// and every waiter sees that single winner.
    #[test]
    fn concurrent_completers_produce_exactly_one_winner() {
        for round in 0..20u64 {
            let slot = Oneshot::new();
            let handle = Handle::new(round, Arc::clone(&slot));
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let handle = handle.clone();
                    std::thread::spawn(move || handle.wait())
                })
                .collect();
            let completers: Vec<_> = (0..4u64)
                .map(|i| {
                    let slot = Arc::clone(&slot);
                    std::thread::spawn(move || {
                        let result = if i % 2 == 0 {
                            Ok(resp(i))
                        } else {
                            Err(ServeError::ShuttingDown)
                        };
                        slot.complete(result)
                    })
                })
                .collect();
            let wins =
                completers.into_iter().map(|c| c.join().unwrap()).filter(|won| *won).count();
            assert_eq!(wins, 1, "exactly one completion must win (round {round})");
            assert!(slot.is_complete());
            let winner = handle.wait_timeout(Duration::ZERO).unwrap();
            for waiter in waiters {
                let seen = waiter.join().unwrap();
                assert_eq!(
                    seen.as_ref().map(|r| r.id).map_err(|e| e.kind()),
                    winner.as_ref().map(|r| r.id).map_err(|e| e.kind()),
                    "every waiter must observe the single winning result"
                );
            }
        }
    }
}

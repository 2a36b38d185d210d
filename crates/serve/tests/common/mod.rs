//! Helpers shared by this crate's integration suites.

use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Registry workers held busy until drop. While every worker is held, a
/// job spawned on the registry waits in its queue, so a test can keep an
/// admitted request from being dispatched for as long as it needs.
///
/// One holder at a time per test binary (a static lock): two holders whose
/// blockers interleave on the queue could each take one worker and wait for
/// the other forever. Every test in a binary shares the registry, so a
/// holder also delays its neighbours' jobs while it lives; hold briefly.
pub struct HeldWorkers {
    release: Arc<Barrier>,
    _one_holder: MutexGuard<'static, ()>,
}

impl HeldWorkers {
    /// Hold every registry worker but `spare`: spawn one blocker per
    /// worker to hold, and return once each of them is running.
    pub fn all_but(spare: usize) -> Self {
        static HOLDER: Mutex<()> = Mutex::new(());
        let one_holder = HOLDER.lock().unwrap_or_else(PoisonError::into_inner);
        let n = rayon::current_num_threads().saturating_sub(spare);
        let started = Arc::new(Barrier::new(n + 1));
        let release = Arc::new(Barrier::new(n + 1));
        for _ in 0..n {
            let (started, release) = (Arc::clone(&started), Arc::clone(&release));
            rayon::spawn(move || {
                started.wait();
                release.wait();
            });
        }
        started.wait();
        Self { release, _one_holder: one_holder }
    }
}

impl Drop for HeldWorkers {
    fn drop(&mut self) {
        self.release.wait();
    }
}

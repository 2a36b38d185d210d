//! Copy-on-write tensor storage and the thread-local buffer pool.
//!
//! [`Buffer`] is the single storage type behind [`crate::Tensor`]. Tensors
//! hold it behind an `Arc`, so cloning a tensor is two reference-count bumps;
//! `Arc::make_mut` performs the one real copy at the first mutation of
//! shared storage (see `DESIGN.md`, "Memory model").
//!
//! Dropping the last handle to a `Buffer` does not free its allocation:
//! the `Vec` is recycled into a **thread-local** pool keyed by capacity, and
//! the next same-size allocation on that thread reuses it. Each TILES worker
//! thread in the trainer therefore converges to a steady state where op
//! outputs cycle through a fixed set of buffers and the allocator drops out
//! of the hot loop entirely.
//!
//! Set `ORBIT2_DISABLE_POOL=1` to bypass recycling (every request hits the
//! allocator); `scripts/bench_smoke.sh` uses this for before/after numbers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-capacity cap on pooled buffers; bounds worst-case retention when one
/// size class churns.
const MAX_BUFS_PER_BUCKET: usize = 16;

/// Per-thread cap on total pooled bytes.
const MAX_POOLED_BYTES: usize = 256 << 20;

fn pool_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("ORBIT2_DISABLE_POOL").map(|v| v == "1" || v == "true").unwrap_or(false)
    })
}

/// Allocation counters for one thread's pool. Drives the allocation-reuse
/// assertions in tests and the bench summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations that missed the pool and hit the system allocator.
    pub fresh_allocs: u64,
    /// Allocations served by recycling a pooled buffer.
    pub reuses: u64,
    /// Full-buffer copies (explicit `Buffer::clone` or a COW fault from
    /// `Arc::make_mut` on shared storage).
    pub copies: u64,
}

#[derive(Default)]
struct Pool {
    /// Free buffers keyed by exact `Vec` capacity.
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    pooled_bytes: usize,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

// Process-wide aggregates over every thread's pool, maintained alongside the
// thread-local counters (relaxed: they are monotone telemetry, not a sync
// primitive). The server's `{"cmd":"stats"}` reads these — its allocations
// happen on rayon workers whose thread-local counters it cannot reach.
static GLOBAL_FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_REUSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_COPIES: AtomicU64 = AtomicU64::new(0);

/// This thread's allocation counters since the last [`reset_stats`].
pub fn stats() -> PoolStats {
    POOL.try_with(|p| p.borrow().stats).unwrap_or_default()
}

/// Process-wide allocation counters summed over all threads since process
/// start (never reset — consumers diff snapshots).
pub fn global_stats() -> PoolStats {
    PoolStats {
        fresh_allocs: GLOBAL_FRESH_ALLOCS.load(Ordering::Relaxed),
        reuses: GLOBAL_REUSES.load(Ordering::Relaxed),
        copies: GLOBAL_COPIES.load(Ordering::Relaxed),
    }
}

/// Zero this thread's allocation counters.
pub fn reset_stats() {
    let _ = POOL.try_with(|p| p.borrow_mut().stats = PoolStats::default());
}

/// Drop every pooled buffer on this thread (counters are kept).
pub fn clear() {
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        p.buckets.clear();
        p.pooled_bytes = 0;
    });
}

/// A `len`-element vector with unspecified contents: recycled when a pooled
/// buffer of exactly this capacity exists, freshly allocated otherwise.
/// Callers must overwrite every element before reading.
pub fn alloc_uninit(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if !pool_disabled() {
            if let Some(mut v) = p.buckets.get_mut(&len).and_then(Vec::pop) {
                p.pooled_bytes -= len * std::mem::size_of::<f32>();
                p.stats.reuses += 1;
                GLOBAL_REUSES.fetch_add(1, Ordering::Relaxed);
                // Capacity equals `len` (bucket key); only the tail beyond the
                // old length gets written here, the rest keeps stale values.
                v.resize(len, 0.0);
                return v;
            }
        }
        p.stats.fresh_allocs += 1;
        GLOBAL_FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        vec![0.0; len]
    })
    .unwrap_or_else(|_| {
        GLOBAL_FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        vec![0.0; len]
    })
}

/// Like [`alloc_uninit`] but every element is `value`.
pub(crate) fn alloc_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = alloc_uninit(len);
    v.fill(value);
    v
}

/// Like [`alloc_uninit`] but zero-filled.
pub fn alloc_zeroed(len: usize) -> Vec<f32> {
    alloc_filled(len, 0.0)
}

fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 || pool_disabled() {
        return;
    }
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        let bytes = cap * std::mem::size_of::<f32>();
        if p.pooled_bytes + bytes > MAX_POOLED_BYTES {
            return;
        }
        let bucket = p.buckets.entry(cap).or_default();
        if bucket.len() < MAX_BUFS_PER_BUCKET {
            bucket.push(v);
            p.pooled_bytes += bytes;
        }
    });
}

/// Tensor storage: a flat `f32` vector that returns to the thread-local pool
/// when dropped. Cloning (the copy-on-write fault path) also draws its
/// allocation from the pool.
pub struct Buffer(Vec<f32>);

impl Buffer {
    /// Wrap an existing vector without copying.
    pub(crate) fn from_vec(v: Vec<f32>) -> Self {
        Buffer(v)
    }

    /// A pooled buffer of `len` elements with unspecified contents.
    pub fn uninit(len: usize) -> Self {
        Buffer(alloc_uninit(len))
    }

    /// A pooled zero-filled buffer.
    pub(crate) fn zeroed(len: usize) -> Self {
        Buffer(alloc_zeroed(len))
    }

    /// A pooled constant-filled buffer.
    pub(crate) fn filled(len: usize, value: f32) -> Self {
        Buffer(alloc_filled(len, value))
    }

    /// Steal the underlying vector (it will not be recycled).
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.0)
    }

    /// Immutable element view.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable element view.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        let mut v = alloc_uninit(self.0.len());
        v.copy_from_slice(&self.0);
        let _ = POOL.try_with(|p| p.borrow_mut().stats.copies += 1);
        GLOBAL_COPIES.fetch_add(1, Ordering::Relaxed);
        Buffer(v)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.0));
    }
}

impl Deref for Buffer {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buffer({} elems)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_then_alloc_reuses() {
        clear();
        reset_stats();
        let b = Buffer::uninit(4096);
        drop(b);
        let before = stats();
        let b2 = Buffer::uninit(4096);
        let after = stats();
        assert_eq!(b2.len(), 4096);
        assert_eq!(after.reuses, before.reuses + 1, "second allocation should hit the pool");
        assert_eq!(after.fresh_allocs, before.fresh_allocs);
    }

    #[test]
    fn mismatched_size_is_fresh() {
        clear();
        reset_stats();
        drop(Buffer::uninit(100));
        let _b = Buffer::uninit(101);
        assert_eq!(stats().reuses, 0);
        assert_eq!(stats().fresh_allocs, 2);
    }

    #[test]
    fn clone_counts_as_copy() {
        clear();
        reset_stats();
        let a = Buffer::filled(32, 1.5);
        let b = a.clone();
        assert_eq!(b.as_slice(), a.as_slice());
        assert_eq!(stats().copies, 1);
    }

    #[test]
    fn global_stats_aggregate_across_events() {
        // Tests run concurrently, so the global counters can only be
        // asserted monotone: each local event must bump its global mirror by
        // at least as much.
        let g0 = global_stats();
        drop(Buffer::uninit(4099));
        let a = Buffer::uninit(4099); // reuse (or fresh if another test stole it)
        let b = a.clone(); // copy
        assert_eq!(b.len(), a.len());
        let g1 = global_stats();
        assert!(g1.fresh_allocs + g1.reuses >= g0.fresh_allocs + g0.reuses + 2);
        assert!(g1.copies > g0.copies);
    }

    #[test]
    fn zeroed_reuse_is_actually_zero() {
        clear();
        drop(Buffer::filled(64, 7.0));
        let z = Buffer::zeroed(64);
        assert!(z.iter().all(|&x| x == 0.0));
    }
}

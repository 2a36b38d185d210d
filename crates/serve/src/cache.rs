//! The LRU response cache.
//!
//! One server is one (model, weight precision) pair, so region-sourced
//! requests are deterministic given `(region, time, variable selection,
//! compression)` and their finished responses are cacheable verbatim. The
//! cache is a `BTreeMap` keyed by that tuple with a logical-clock recency
//! stamp per entry — capacity is tens to hundreds of entries, where a
//! scan-to-evict is cheaper than maintaining an intrusive list. Hits and
//! misses are counted by the caller, with the server's other counters.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Identity of a cacheable response.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CacheKey {
    /// Region name.
    pub region: String,
    /// Time (sample) index.
    pub time: usize,
    /// Resolved output-variable selection (empty = all outputs).
    pub variables: Vec<String>,
    /// Bit pattern of the compression target (f32 keys can't be `Ord`).
    pub compression_bits: u32,
}

/// A cached response body.
#[derive(Debug, Clone)]
pub(crate) struct CachedPayload {
    /// Prediction shape.
    pub shape: Vec<usize>,
    /// Prediction data (physical units, selected variables).
    pub data: Vec<f32>,
}

struct CacheInner {
    map: BTreeMap<CacheKey, (u64, CachedPayload)>,
    tick: u64,
}

/// Least-recently-used response cache.
pub(crate) struct ResponseCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResponseCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity, inner: Mutex::new(CacheInner { map: BTreeMap::new(), tick: 0 }) }
    }

    /// Look up `key`, refreshing its recency on a hit. A disabled cache
    /// (capacity 0) misses every lookup.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<CachedPayload> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let (stamp, payload) = inner.map.get_mut(key)?;
        *stamp = tick;
        Some(payload.clone())
    }

    /// Insert `key`, evicting the least-recently-used entry when full.
    pub(crate) fn put(&self, key: CacheKey, payload: CachedPayload) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, payload));
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("nonempty map has an oldest entry");
            inner.map.remove(&oldest);
        }
    }

    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(region: &str, time: usize) -> CacheKey {
        CacheKey {
            region: region.into(),
            time,
            variables: vec![],
            compression_bits: 1.0f32.to_bits(),
        }
    }

    fn payload(v: f32) -> CachedPayload {
        CachedPayload { shape: vec![1], data: vec![v] }
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResponseCache::new(4);
        assert!(cache.get(&key("a", 0)).is_none());
        cache.put(key("a", 0), payload(1.0));
        assert_eq!(cache.get(&key("a", 0)).unwrap().data, vec![1.0]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.put(key("a", 0), payload(1.0));
        cache.put(key("b", 0), payload(2.0));
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.get(&key("a", 0)).is_some());
        cache.put(key("c", 0), payload(3.0));
        assert!(cache.get(&key("a", 0)).is_some(), "recently used entry survived");
        assert!(cache.get(&key("b", 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key("c", 0)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_knobs_are_distinct_keys() {
        let cache = ResponseCache::new(8);
        cache.put(key("a", 0), payload(1.0));
        let mut compressed = key("a", 0);
        compressed.compression_bits = 2.0f32.to_bits();
        assert!(cache.get(&compressed).is_none());
        let mut vars = key("a", 0);
        vars.variables = vec!["tmin".into()];
        assert!(cache.get(&vars).is_none());
        let mut time = key("a", 1);
        time.time = 1;
        assert!(cache.get(&time).is_none());
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let cache = ResponseCache::new(0);
        cache.put(key("a", 0), payload(1.0));
        assert!(cache.get(&key("a", 0)).is_none());
        assert_eq!(cache.len(), 0);
    }
}

//! LRU forecast cache with hit/miss accounting.
//!
//! Keyed by `(scenario, input hash, horizon)`; values are the completed
//! forecast trajectories the replicas produce, held as the same
//! `Arc<Vec<Snapshot>>` the leader's client receives. A hit is a pointer
//! copy under the lock: it allocates nothing and is bitwise the first
//! computation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cocean::Snapshot;

use crate::lock;
use crate::request::CacheKey;

struct Entry {
    value: Arc<Vec<Snapshot>>,
    /// Logical clock of the last touch (insert or hit).
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// Bounded LRU cache of completed forecasts.
pub struct ForecastCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ForecastCache {
    /// A cache holding at most `capacity` forecasts (`0` disables
    /// caching entirely: every lookup is a miss and inserts are no-ops).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a forecast, updating recency and hit/miss counters. A hit
    /// shares the stored trajectory.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Snapshot>>> {
        let found = self.peek(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cobs::counter!("serve.cache.hits").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            cobs::counter!("serve.cache.misses").inc();
        }
        found
    }

    /// Like [`Self::get`], but without touching the hit/miss counters —
    /// for internal double-checks that should not skew observability
    /// (each client lookup still counts exactly once).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Vec<Snapshot>>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.value)
        })
    }

    /// Insert a completed forecast, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<Snapshot>>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // Evict the stalest entry. O(n) scan — capacities are small
            // (hundreds) and eviction is off the request fast path.
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
            },
        );
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Hit rate over all lookups so far (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let (h, m, _) = self.stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            scenario_id: 0,
            ic_hash: i as u128,
            horizon: 4,
        }
    }

    fn val(t: f64) -> Arc<Vec<Snapshot>> {
        Arc::new(vec![Snapshot {
            time: t,
            nz: 1,
            ny: 1,
            nx: 1,
            zeta: vec![t as f32],
            u: vec![0.0],
            v: vec![0.0],
            w: vec![0.0],
        }])
    }

    #[test]
    fn hit_shares_the_inserted_trajectory() {
        let c = ForecastCache::new(4);
        let v = val(1.0);
        c.insert(key(1), Arc::clone(&v));
        let got = c.get(&key(1)).unwrap();
        assert!(Arc::ptr_eq(&got, &v), "a hit is the inserted Arc");
        let peeked = c.peek(&key(1)).unwrap();
        assert!(Arc::ptr_eq(&peeked, &v));
        assert!(c.peek(&key(2)).is_none());
        assert_eq!(c.stats(), (1, 0, 0), "peek leaves hit/miss counters alone");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ForecastCache::new(2);
        c.insert(key(1), val(1.0));
        c.insert(key(2), val(2.0));
        assert!(c.get(&key(1)).is_some()); // touch 1 → 2 is now stalest
        c.insert(key(3), val(3.0));
        assert!(c.get(&key(1)).is_some(), "recently used survives");
        assert!(c.get(&key(2)).is_none(), "stalest entry evicted");
        assert!(c.get(&key(3)).is_some());
        let (_, _, ev) = c.stats();
        assert_eq!(ev, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ForecastCache::new(0);
        c.insert(key(1), val(1.0));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hit_rate_counts() {
        let c = ForecastCache::new(2);
        c.insert(key(1), val(1.0));
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(9)).is_none());
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}

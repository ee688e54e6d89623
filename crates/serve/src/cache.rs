//! LRU forecast cache with hit/miss accounting.
//!
//! Keyed by `(scenario, input hash, horizon)`; values are completed
//! forecast trajectories stored as IEEE binary16 payloads — half the
//! resident bytes of the f32 snapshots — and widened back to f32 on
//! every hit. A hit therefore matches the original computation to f16
//! rounding (relative error ≤ 2⁻¹¹ in the normal range, which covers
//! every physical ζ/u/v/w magnitude this model produces), not
//! bit-for-bit; exact sharing of the f32 buffers still happens one
//! layer up, where single-flight coalescing joins concurrent duplicates
//! onto the in-flight computation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cocean::Snapshot;
use ctensor::f16::F16;

use crate::lock;
use crate::request::CacheKey;

/// One snapshot with its four field arrays compressed to binary16.
/// Mesh shape and the (already tiny) time stamp stay exact.
struct HalfSnapshot {
    time: f64,
    nz: usize,
    ny: usize,
    nx: usize,
    zeta: Vec<F16>,
    u: Vec<F16>,
    v: Vec<F16>,
    w: Vec<F16>,
}

fn compress(values: &[f32]) -> Vec<F16> {
    values.iter().map(|&v| F16::from_f32(v)).collect()
}

fn decompress(values: &[F16]) -> Vec<f32> {
    values.iter().map(|v| v.to_f32()).collect()
}

impl HalfSnapshot {
    fn encode(s: &Snapshot) -> Self {
        Self {
            time: s.time,
            nz: s.nz,
            ny: s.ny,
            nx: s.nx,
            zeta: compress(&s.zeta),
            u: compress(&s.u),
            v: compress(&s.v),
            w: compress(&s.w),
        }
    }

    fn decode(&self) -> Snapshot {
        Snapshot {
            time: self.time,
            nz: self.nz,
            ny: self.ny,
            nx: self.nx,
            zeta: decompress(&self.zeta),
            u: decompress(&self.u),
            v: decompress(&self.v),
            w: decompress(&self.w),
        }
    }

    /// Field-payload bytes (excluding the struct header).
    fn nbytes(&self) -> usize {
        (self.zeta.len() + self.u.len() + self.v.len() + self.w.len()) * std::mem::size_of::<F16>()
    }
}

struct Entry {
    payload: Vec<HalfSnapshot>,
    /// Logical clock of the last touch (insert or hit).
    last_used: u64,
}

impl Entry {
    fn decode(&self) -> Arc<Vec<Snapshot>> {
        Arc::new(self.payload.iter().map(HalfSnapshot::decode).collect())
    }
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// Bounded LRU cache of completed forecasts (f16-compressed at rest).
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
    /// widens the stored f16 payload back to f32 (fresh allocation).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Snapshot>>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            cobs::counter!("serve.cache.misses").inc();
            return None;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                cobs::counter!("serve.cache.hits").inc();
                Some(e.decode())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cobs::counter!("serve.cache.misses").inc();
                None
            }
        }
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
            e.decode()
        })
    }

    /// Insert a completed forecast (compressed to f16 at rest), evicting
    /// the least-recently-used entry when full.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<Snapshot>>) {
        if self.capacity == 0 {
            return;
        }
        let payload: Vec<HalfSnapshot> = value.iter().map(HalfSnapshot::encode).collect();
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
                payload,
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

    /// Resident field-payload bytes across all entries (the f16 arrays;
    /// an f32-at-rest cache would hold exactly twice this).
    pub fn payload_bytes(&self) -> usize {
        lock(&self.inner)
            .map
            .values()
            .map(|e| e.payload.iter().map(HalfSnapshot::nbytes).sum::<usize>())
            .sum()
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
    fn hit_decodes_fresh_f16_payload() {
        let c = ForecastCache::new(4);
        let v = val(1.0);
        c.insert(key(1), Arc::clone(&v));
        let got = c.get(&key(1)).unwrap();
        assert!(
            !Arc::ptr_eq(&got, &v),
            "hits decode the compressed payload, not the inserted Arc"
        );
        assert_eq!(got[0].zeta, v[0].zeta, "1.0 is exact in f16");
        assert_eq!(c.stats(), (1, 0, 0));
    }

    #[test]
    fn f16_roundtrip_error_bounded_at_physical_magnitudes() {
        // Realistic field magnitudes: ζ in metres (±3), u/v in m/s (±2),
        // w tiny (±1e-3). All sit in f16's normal range, so the
        // round-trip error is bounded by 2⁻¹¹ relative.
        let n = 1024usize;
        let snap = Snapshot {
            time: 3600.0,
            nz: 1,
            ny: 32,
            nx: 32,
            zeta: (0..n).map(|i| (i as f32 * 0.173).sin() * 3.0).collect(),
            u: (0..n).map(|i| (i as f32 * 0.091).cos() * 2.0).collect(),
            v: (0..n).map(|i| (i as f32 * 0.057).sin() * 1.5).collect(),
            w: (0..n).map(|i| (i as f32 * 0.211).cos() * 1e-3).collect(),
        };
        let c = ForecastCache::new(1);
        c.insert(key(1), Arc::new(vec![snap.clone()]));
        let got = c.get(&key(1)).unwrap();
        let fields = [
            (&snap.zeta, &got[0].zeta),
            (&snap.u, &got[0].u),
            (&snap.v, &got[0].v),
            (&snap.w, &got[0].w),
        ];
        for (orig, back) in fields {
            for (a, b) in orig.iter().zip(back) {
                assert!(
                    (a - b).abs() <= a.abs() / 2048.0 + 6.2e-5,
                    "f16 round-trip out of bound: {a} vs {b}"
                );
            }
        }
        assert_eq!(got[0].time, snap.time, "time stays exact");
        assert_eq!((got[0].ny, got[0].nx), (32, 32), "mesh shape stays exact");
    }

    #[test]
    fn payload_is_half_of_f32() {
        let c = ForecastCache::new(4);
        let v = val(1.0);
        let f32_bytes: usize = v
            .iter()
            .map(|s| (s.zeta.len() + s.u.len() + s.v.len() + s.w.len()) * 4)
            .sum();
        c.insert(key(1), v);
        assert_eq!(c.payload_bytes() * 2, f32_bytes);
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

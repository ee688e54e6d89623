//! Forecast requests and the cache/batch bookkeeping attached to them.

use cocean::Snapshot;

/// Scheduling class of a request. `High` requests are drained into a
/// batch before any `Normal` ones (FIFO within each class) — e.g. an
/// operational storm-surge query jumping ahead of bulk re-analysis.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    High,
    #[default]
    Normal,
}

/// An on-demand forecast request.
///
/// `window[0]` is the initial condition; `window[1..]` carry the future
/// lateral boundary frames (tide tables / parent model in deployment), so
/// `window.len()` must be `horizon + 1` and `horizon` must match the
/// deployed model's episode length.
#[derive(Clone, Debug)]
pub struct ForecastRequest {
    /// Deployment/scenario namespace tag: part of the cache key (so
    /// distinct deployments never share entries) and — when the server
    /// is configured with `ServeConfig::scenario_id` — validated against
    /// the deployment so misrouted traffic is rejected, not silently
    /// answered by the wrong model.
    pub scenario_id: u64,
    /// Initial condition + boundary frames (`horizon + 1` snapshots).
    pub window: Vec<Snapshot>,
    /// Forecast steps requested.
    pub horizon: usize,
    pub priority: Priority,
}

impl ForecastRequest {
    /// Convenience constructor for a normal-priority request.
    pub fn new(scenario_id: u64, window: Vec<Snapshot>, horizon: usize) -> Self {
        Self {
            scenario_id,
            window,
            horizon,
            priority: Priority::Normal,
        }
    }

    /// The cache key of this request: `(scenario, input hash, horizon)`.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey {
            scenario_id: self.scenario_id,
            ic_hash: hash_window(&self.window),
            horizon: self.horizon,
        }
    }
}

/// Key of the forecast cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub scenario_id: u64,
    /// 128-bit [`hash_window`] digest over every bit of the request window
    /// (IC and boundary frames both determine the forecast, so both are
    /// hashed). Cache hits and single-flight joins are decided by this
    /// digest, so it is deliberately wide: at 128 bits an accidental
    /// collision between distinct windows is beyond astronomically
    /// unlikely.
    pub ic_hash: u128,
    pub horizon: usize,
}

/// Independent hash lanes. Each lane is one serial multiply chain, so
/// several of them keep the multiplier busy; a single chain over the
/// ~12k words of a window would wait out the multiply latency on every
/// word.
const LANES: usize = 4;
/// Distinct starting states, so the same words absorbed into different
/// lanes give different digests.
const LANE_SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One multiply-xorshift step. For a fixed `word` it is a bijection of
/// `lane` (xor, odd multiply and xorshift each are), and for a fixed
/// `lane` a bijection of `word`: a changed word always changes the lane,
/// and every later step carries that change through.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(MUL);
    x ^ (x >> 32)
}

/// Final avalanche (murmur3's fmix64), a bijection of `x`.
#[inline]
fn fmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

struct WindowHasher {
    lanes: [u64; LANES],
}

impl WindowHasher {
    /// A scalar (count, dim or time bits) goes to lane 0.
    fn word(&mut self, word: u64) {
        self.lanes[0] = absorb(self.lanes[0], word);
    }

    /// A field: its length first, so a value moved across a field
    /// boundary changes the digest, then its values two to a word, word
    /// `i` into lane `i % LANES`.
    ///
    /// Inlined, and run on a local copy of the lanes, so the lanes stay in
    /// registers: otherwise a store and a reload sit in every lane's
    /// dependency chain (measured 1.6-2× slower on a 96 KB window).
    #[inline(always)]
    fn field(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        let mut lanes = self.lanes;
        let pair = |lo: f32, hi: f32| u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32;
        let mut chunks = values.chunks_exact(2 * LANES);
        for c in &mut chunks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = absorb(*lane, pair(c[2 * i], c[2 * i + 1]));
            }
        }
        for (lane, p) in lanes.iter_mut().zip(chunks.remainder().chunks(2)) {
            *lane = absorb(*lane, pair(p[0], p.get(1).copied().unwrap_or(0.0)));
        }
        self.lanes = lanes;
    }

    /// Fold the lanes to 128 bits. Each half chains every lane through
    /// `fmix`, a bijection at each step, so a change confined to one lane
    /// changes both halves.
    fn finish(&self) -> u128 {
        let fold = |seed: u64| self.lanes.iter().fold(seed, |acc, &l| fmix(acc ^ l));
        u128::from(fold(MUL)) | u128::from(fold(!MUL)) << 64
    }
}

/// Deterministic 128-bit hash of a request window: dims, times, and every
/// field value (bit-exact — two windows differing in one bit of one cell
/// hash differently).
pub fn hash_window(window: &[Snapshot]) -> u128 {
    let mut h = WindowHasher { lanes: LANE_SEEDS };
    h.word(window.len() as u64);
    for s in window {
        h.word(s.time.to_bits());
        h.word(s.nz as u64);
        h.word(s.ny as u64);
        h.word(s.nx as u64);
        h.field(&s.zeta);
        h.field(&s.u);
        h.field(&s.v);
        h.field(&s.w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snap(fill: f32) -> Snapshot {
        Snapshot {
            time: 0.0,
            nz: 1,
            ny: 2,
            nx: 2,
            zeta: vec![fill; 4],
            u: vec![0.1; 4],
            v: vec![0.2; 4],
            w: vec![0.0; 4],
        }
    }

    #[test]
    fn identical_windows_hash_identically() {
        let a = vec![snap(1.0), snap(2.0)];
        let b = vec![snap(1.0), snap(2.0)];
        assert_eq!(hash_window(&a), hash_window(&b));
    }

    #[test]
    fn one_ulp_changes_hash() {
        let a = vec![snap(1.0), snap(2.0)];
        let mut b = a.clone();
        b[0].zeta[3] = f32::from_bits(b[0].zeta[3].to_bits() + 1);
        assert_ne!(hash_window(&a), hash_window(&b));
    }

    #[test]
    fn boundary_frames_are_part_of_the_key() {
        // Same IC, different boundary forcing → different forecast →
        // must be a different cache key.
        let a = vec![snap(1.0), snap(2.0)];
        let b = vec![snap(1.0), snap(3.0)];
        assert_ne!(hash_window(&a), hash_window(&b));
    }

    #[test]
    fn key_separates_scenarios_and_horizons() {
        let w = vec![snap(1.0), snap(2.0)];
        let r1 = ForecastRequest::new(1, w.clone(), 1);
        let r2 = ForecastRequest::new(2, w.clone(), 1);
        assert_ne!(r1.cache_key(), r2.cache_key());
        let mut r3 = ForecastRequest::new(1, w, 1);
        r3.horizon = 2;
        assert_ne!(r1.cache_key(), r3.cache_key());
    }

    /// A three-frame window of pseudo-random values on a `2 × 3 × 5`
    /// mesh: ζ holds an odd number of values, so every field length
    /// leaves a partial lane chunk.
    fn random_window(seed: u64) -> Vec<Snapshot> {
        let mut rng = TestRng::new(seed);
        let mut values =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.unit_f64() as f32 * 4.0 - 2.0).collect() };
        (0..3)
            .map(|t| Snapshot {
                time: 600.0 * t as f64,
                nz: 2,
                ny: 3,
                nx: 5,
                zeta: values(15),
                u: values(30),
                v: values(30),
                w: values(30),
            })
            .collect()
    }

    fn field_mut(s: &mut Snapshot, field: usize) -> &mut Vec<f32> {
        match field {
            0 => &mut s.zeta,
            1 => &mut s.u,
            2 => &mut s.v,
            _ => &mut s.w,
        }
    }

    proptest! {
        #[test]
        fn equal_windows_give_equal_keys(seed in 0u64..u64::MAX) {
            prop_assert_eq!(hash_window(&random_window(seed)), hash_window(&random_window(seed)));
        }

        #[test]
        fn any_field_bit_flip_changes_the_key(
            seed in 0u64..u64::MAX,
            frame in 0usize..3,
            field in 0usize..4,
            at in 0usize..30,
            bit in 0u32..32,
        ) {
            let a = random_window(seed);
            let mut b = a.clone();
            let values = field_mut(&mut b[frame], field);
            let i = at % values.len();
            values[i] = f32::from_bits(values[i].to_bits() ^ (1 << bit));
            prop_assert_ne!(hash_window(&a), hash_window(&b));
        }

        #[test]
        fn any_time_or_dim_bit_flip_changes_the_key(
            seed in 0u64..u64::MAX,
            frame in 0usize..3,
            which in 0usize..4,
            bit in 0u32..64,
        ) {
            let a = random_window(seed);
            let mut b = a.clone();
            let s = &mut b[frame];
            match which {
                0 => s.time = f64::from_bits(s.time.to_bits() ^ (1 << bit)),
                1 => s.nz ^= 1 << bit,
                2 => s.ny ^= 1 << bit,
                _ => s.nx ^= 1 << bit,
            }
            prop_assert_ne!(hash_window(&a), hash_window(&b));
        }

        #[test]
        fn value_moved_across_a_field_boundary_changes_the_key(
            seed in 0u64..u64::MAX,
            frame in 0usize..3,
        ) {
            // ζ: 15 → 14 values, u: 30 → 31, so the window still packs
            // into the same number of words.
            let a = random_window(seed);
            let mut b = a.clone();
            let moved = b[frame].zeta.pop().unwrap();
            b[frame].u.insert(0, moved);
            prop_assert_ne!(hash_window(&a), hash_window(&b));
        }

        #[test]
        fn swapping_two_frames_changes_the_key(
            seed in 0u64..u64::MAX,
            first in 0usize..3,
            offset in 1usize..3,
        ) {
            let a = random_window(seed);
            let mut b = a.clone();
            b.swap(first, (first + offset) % 3);
            prop_assert_ne!(hash_window(&a), hash_window(&b));
        }
    }
}

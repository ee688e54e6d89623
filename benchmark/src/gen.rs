//! Seeded request generators. Everything here is a pure function of the
//! seed: the program under test sees only the generated requests.

/// SplitMix64: small, seedable, and good enough to draw arrival gaps and
/// popularity ranks from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher-Yates shuffle.
fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// `n` uniform draws in [0, 1), one from each of `n` equal strata, in a
/// seeded order. Whatever is read off them by inverse CDF keeps its
/// histogram from seed to seed and changes only its order, so a short
/// trace is as representative as a long one and runs with different
/// seeds stay comparable.
fn stratified(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.next_f64()) / n as f64)
        .collect();
    shuffle(&mut u, rng);
    u
}

/// Ranks are stratified in blocks of this many, so every stretch of a
/// trace holds the popularity mix, not only the whole.
const ZIPF_BLOCK: usize = 256;

/// `n` popularity ranks in `0..distinct` with zipf(`s`) frequencies (by
/// inverse CDF over stratified draws); rank 0 is the most popular window.
pub fn zipf_ranks(seed: u64, n: usize, distinct: usize, s: f64) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(distinct);
    let mut acc = 0.0;
    for r in 0..distinct {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed);
    let mut ranks = Vec::with_capacity(n);
    while ranks.len() < n {
        let block = ZIPF_BLOCK.min(n - ranks.len());
        ranks.extend(
            stratified(block, &mut rng)
                .into_iter()
                .map(|u| cdf.partition_point(|&c| c < u * acc).min(distinct - 1)),
        );
    }
    ranks
}

/// Poisson-like arrivals: `rate * horizon_s` due times (seconds from the
/// phase start) whose gaps are exponential with mean `1 / rate` (by
/// inverse CDF over stratified draws).
pub fn poisson_due(seed: u64, rate: f64, horizon_s: f64) -> Vec<f64> {
    let n = (rate * horizon_s).round() as usize;
    let mut t = 0.0;
    stratified(n, &mut Rng::new(seed ^ 0xa5a5_5a5a_a5a5_5a5a))
        .into_iter()
        .map(|u| {
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Bursts of `burst` requests, one burst every `period_s`, requests inside
/// a burst `spacing_s` apart, up to `horizon_s`.
pub fn burst_due(burst: usize, period_s: f64, spacing_s: f64, horizon_s: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut b = 0;
    while (b + 1) as f64 * period_s <= horizon_s {
        due.extend((0..burst).map(|k| b as f64 * period_s + k as f64 * spacing_s));
        b += 1;
    }
    due
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, &mut Rng::new(seed ^ 0x0123_4567_89ab_cdef));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(zipf_ranks(42, 500, 64, 1.0), zipf_ranks(42, 500, 64, 1.0));
        assert_ne!(zipf_ranks(42, 500, 64, 1.0), zipf_ranks(7, 500, 64, 1.0));
        assert_eq!(poisson_due(42, 150.0, 2.0), poisson_due(42, 150.0, 2.0));
        assert_ne!(poisson_due(42, 150.0, 2.0), poisson_due(7, 150.0, 2.0));
        assert_eq!(permutation(42, 64), permutation(42, 64));
        assert_ne!(permutation(42, 64), permutation(7, 64));
    }

    #[test]
    fn zipf_frequencies_hold_for_every_seed_even_on_a_short_trace() {
        for seed in [1, 2, 3] {
            let r = zipf_ranks(seed, 600, 64, 1.0);
            assert!(r.iter().all(|&x| x < 64));
            let share = |top: usize| r.iter().filter(|&&x| x < top).count() as f64 / 600.0;
            // 1 / H(64) = 0.2108 and H(16) / H(64) = 0.7126, to within a
            // draw or two per block.
            assert!((share(1) - 0.2108).abs() < 0.006, "{}", share(1));
            assert!((share(16) - 0.7126).abs() < 0.006, "{}", share(16));
            // The order is not the sorted one.
            assert!(r.windows(2).any(|w| w[0] > w[1]));
        }
    }

    #[test]
    fn arrivals_hit_the_rate_with_exponential_gaps() {
        let due = poisson_due(3, 150.0, 4.0);
        assert_eq!(due.len(), 600);
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        // The gaps sum to the horizon to within a percent.
        assert!((due[599] - 4.0).abs() < 0.04, "{}", due[599]);
        // An exponential's median is ln 2 times its mean.
        let mut gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(f64::total_cmp);
        assert!(
            (gaps[299] * 150.0 - 2f64.ln()).abs() < 0.02,
            "{}",
            gaps[299] * 150.0
        );
    }

    #[test]
    fn bursts_are_evenly_spaced_and_bounded_by_the_horizon() {
        let due = burst_due(8, 0.160, 0.0005, 1.0);
        assert_eq!(due.len(), 6 * 8);
        assert_eq!(due[0], 0.0);
        assert!((due[8] - 0.160).abs() < 1e-12);
        assert!((due[9] - 0.1605).abs() < 1e-12);
    }

    #[test]
    fn permutation_holds_every_index_once() {
        let mut p = permutation(9, 64);
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
    }
}

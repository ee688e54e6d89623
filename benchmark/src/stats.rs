//! Order statistics for the benchmark's own samples.

/// Timed work is cut into this many equal slices; a metric's value is
/// taken over all samples and its within-run spread over the slices.
pub const SLICES: usize = 5;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of `xs` without its smallest and largest value (the plain mean
/// of fewer than three); NaN when empty.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile `p` in (0, 1); NaN when empty.
pub fn rank(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    sorted(xs)[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// [`rank`], or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// the percentile: a tail read off a handful of samples is the maximum
/// under another name.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let beyond = n - ((p * n as f64).ceil() as usize).min(n);
    (beyond >= MIN_BEYOND).then(|| rank(xs, p))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (exclusive method), so spreads printed here are the ones
/// the driver computes. Needs two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 with fewer than two values.
pub fn iqr_share(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) if median(xs) != 0.0 => (q3 - q1) / median(xs).abs(),
        _ => 0.0,
    }
}

/// Split `xs` into [`SLICES`] runs of equal length, in order (the last
/// takes the remainder).
pub fn slices<T>(xs: &[T]) -> Vec<&[T]> {
    let n = xs.len();
    (0..SLICES)
        .map(|i| &xs[i * n / SLICES..(i + 1) * n / SLICES])
        .filter(|s| !s.is_empty())
        .collect()
}

/// Completion events `(seconds since the pass began, ops completed by this
/// event)`, in completion order.
pub type Events = [(f64, u64)];

/// Ops per second of each slice of the events: ops of the slice over the
/// time between the completion that precedes it and its last completion.
pub fn slice_rates(events: &Events) -> Vec<f64> {
    let mut rates = Vec::with_capacity(SLICES);
    let mut t_prev = 0.0;
    for s in slices(events) {
        let ops: u64 = s.iter().map(|e| e.1).sum();
        let t_end = s[s.len() - 1].0;
        if t_end > t_prev {
            rates.push(ops as f64 / (t_end - t_prev));
        }
        t_prev = t_end;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        // 100 samples leave 5 beyond p95 and 1 beyond p99.
        assert_eq!(percentile(&xs, 0.95), None);
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&xs[..99], 0.90), None);
        let more: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&more, 0.95), Some(190.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 1.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
    }

    #[test]
    fn slice_rates_use_the_preceding_completion_as_start() {
        // 10 ops of 1 each, one every 0.5 s: every slice runs at 2 op/s.
        let ev: Vec<(f64, u64)> = (1..=10).map(|i| (i as f64 * 0.5, 1)).collect();
        let r = slice_rates(&ev);
        assert_eq!(r.len(), SLICES);
        assert!(r.iter().all(|&x| (x - 2.0).abs() < 1e-12), "{r:?}");
        // A stall inside the third slice lowers only that slice.
        let mut stalled = ev.clone();
        for e in stalled.iter_mut().skip(5) {
            e.0 += 1.0;
        }
        let r = slice_rates(&stalled);
        assert!((r[2] - 1.0).abs() < 1e-12 && (trimmed_mean(&r) - 2.0).abs() < 1e-12);
    }
}

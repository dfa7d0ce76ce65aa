//! Quantiles and the best-quartile estimator.
//!
//! The anti-noise rule of this benchmark: every statistic is computed
//! per 2 s slice, then aggregated across slices with the quartile at
//! the metric's *good* end. Interference on a shared VM only ever slows
//! a slice, so the quiet-machine value sits at the good end of the
//! slice distribution; a quartile rather than the extreme so one lucky
//! slice cannot set it.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Linearly interpolated quantile `q` in `[0, 1]` of an ascending
/// slice (the "inclusive" rule: `q = 0` is the minimum, `q = 1` the
/// maximum). Empty input yields 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// [`quantile_sorted`] of an unsorted slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// The spread the driver computes over a set of runs: the distance
/// between the first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default,
/// "exclusive" rule), as a share of the median. Needs two values.
pub fn driver_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quantile_sorted(&v, 0.5)
}

/// The across-slice aggregate: the quartile at the metric's good end.
pub fn best_quartile(per_slice: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => quantile(per_slice, 0.75),
        Better::Lower => quantile(per_slice, 0.25),
    }
}

/// Nearest-rank percentile of ascending integer samples (a real
/// observation, never an interpolation). Empty input yields 0.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// [`percentile_sorted`] of nanosecond samples, in µs.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    percentile_sorted(sorted_ns, p) as f64 / 1e3
}

/// Samples strictly beyond the nearest-rank percentile `p` — the guide
/// asks for at least ten before a percentile is quoted.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (p.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_on_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(iqr(&v), 2.0);
        // Input order must not matter.
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn driver_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(driver_spread(&v), (8.25 - 2.75) / 5.5);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(driver_spread(&[40.0, 10.0, 20.0]), 30.0 / 20.0);
        assert_eq!(driver_spread(&[7.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_is_an_observation() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 51);
        assert_eq!(percentile_sorted(&v, 0.95), 95);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(1000, 0.95), 50);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn one_lucky_slice_cannot_set_the_value() {
        // Eleven slices at ~100, one freak slice at 10 (latency) / 1000
        // (throughput): the best quartile stays with the pack.
        let mut lat = vec![100.0; 11];
        lat.push(10.0);
        assert_eq!(best_quartile(&lat, Better::Lower), 100.0);
        let mut thr = vec![100.0; 11];
        thr.push(1000.0);
        assert_eq!(best_quartile(&thr, Better::Higher), 100.0);
    }

    #[test]
    fn half_the_slices_stalled_still_reads_the_quiet_value() {
        // Six quiet slices, six slowed by a noisy neighbour: the median
        // moves half way, the best quartile does not.
        let lat: Vec<f64> = [100.0; 6].into_iter().chain([180.0; 6]).collect();
        assert_eq!(best_quartile(&lat, Better::Lower), 100.0);
        assert_eq!(median(&lat), 140.0);
        let thr: Vec<f64> = [1000.0; 6].into_iter().chain([500.0; 6]).collect();
        assert_eq!(best_quartile(&thr, Better::Higher), 1000.0);
    }
}

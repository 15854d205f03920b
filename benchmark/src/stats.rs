//! Order statistics for the report: percentiles under the ten-samples-beyond
//! rule, and medians/quartiles as Python's `statistics.quantiles(n=4)`
//! computes them (the driver's spread is the distance between those
//! quartiles as a share of the median).

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample in place (latencies are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Nearest-rank index of the `p`-th percentile in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-th percentile (nearest rank) of a sorted sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail estimated from
/// a handful of points is not reported.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), p);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The `p`-th percentile, stepping down to the highest of 99/95/90/75/50
/// the rule allows for this sample size. Returns `(value, percentile
/// actually used)`; an empty sample gives `(0, 0)` and a sample too small
/// even for the median gives the median anyway.
pub fn percentile_or_lower(sorted: &[f64], p: f64) -> (f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    for q in [p, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if q <= p {
            if let Some(v) = percentile(sorted, q) {
                return (v, q);
            }
        }
    }
    (sorted[rank(sorted.len(), 50.0)], 50.0)
}

/// Nearest-rank median of an unsorted sample, with no minimum sample size
/// (for per-layer figures, which carry no bound); 0 for an empty one.
pub fn p50(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    v.get(rank(v.len().max(1), 50.0)).copied().unwrap_or(0.0)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // position i*(n+1)/4 in 1-based ranks, clamped into the sample
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples sits at rank 90: exactly ten beyond
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p91 would leave nine
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v[..99], 90.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn falls_back_to_the_highest_allowed_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_or_lower(&v, 99.0), (90.0, 90.0));
        assert_eq!(percentile_or_lower(&v[..30], 90.0), (15.0, 50.0));
        // too small for any percentile: still the median, flagged as p50
        assert_eq!(percentile_or_lower(&v[..5], 90.0), (3.0, 50.0));
        assert_eq!(percentile_or_lower(&[], 90.0), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(p50(&[]), 0.0);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}

//! Order statistics the benchmark reports.
//!
//! `median` and `quartiles` follow Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so a spread computed here matches one computed from the printed values.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`. A single value is its
/// own quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some([v[0]; 3]);
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative at the clamped ends: extrapolates like Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a bound is checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// Samples a reported percentile must leave above it: a tail estimate
/// resting on fewer is not reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `pct`-th percentile of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it (so p99 needs at
/// least 1 000 samples, p50 at least 20).
pub fn percentile(samples: &[u64], pct: usize) -> Option<u64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_iqr_is_the_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&thousand, 99), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99), None);
        assert_eq!(percentile(&[], 99), None);
    }

    #[test]
    fn p50_is_the_lower_middle_by_nearest_rank() {
        let twenty: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(percentile(&twenty, 50), Some(10));
        assert_eq!(percentile(&twenty[..19], 50), None);
    }
}

//! Order statistics over the samples of one run.

/// Sorted copy of `v` (NaN-free by construction: every sample is a
/// duration or a ratio of positive counts).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Median; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles `(p25, p50, p75)` by the method of Python's
/// `statistics.quantiles(v, n=4)` (exclusive), so the spread printed
/// here is the one the acceptance check computes over runs.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// `(p75 − p25) / median`; 0 when the median is 0.
pub fn spread(v: &[f64]) -> f64 {
    let (p25, p50, p75) = quartiles(v);
    if p50 == 0.0 {
        0.0
    } else {
        (p75 - p25) / p50
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`: the smallest sample with
/// at least `p` % of the sample at or below it. With fewer than
/// `100 / (100 − p)` samples this is the maximum.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Minimum; 0 for an empty sample.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (a, b, c) = quartiles(&v);
        assert!((a - 2.75).abs() < 1e-12 && (b - 5.5).abs() < 1e-12 && (c - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        // Too few samples for a p99: the maximum.
        assert_eq!(percentile(&[5.0, 9.0, 1.0], 99.0), 9.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn min_handles_empty() {
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }
}

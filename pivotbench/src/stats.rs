//! Order statistics over latency samples and run-to-run series.

/// Samples a percentile must leave beyond itself before it is reported:
/// a p99 over fewer than 1,000 samples would be a maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in (0, 1]) of `sorted`, reported only when
/// at least [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `sorted` (mean of the middle pair for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a Python check computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted_f64(values);
    let (q1, q3) = quartiles(&s);
    (q3 - q1) / median(&s).abs()
}

pub fn sorted_f64(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1009).collect();
        // 1009 samples: rank 999 leaves exactly 10 beyond.
        assert_eq!(percentile(&v, 0.99), Some(999));
        let v: Vec<u64> = (1..=1000).collect();
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        // The median needs only 20 samples.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert!((spread(&[10.0, 10.0, 10.0, 10.0]) - 0.0).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}

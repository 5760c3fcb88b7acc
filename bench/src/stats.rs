//! Order statistics used by the harness and by `compare`.

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n`
/// samples: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // Integer percent-of-n avoids `0.9 * 100 = 90.00000000000001`.
    let scaled = (p * 1000.0).round() as usize;
    (n * scaled).div_ceil(100_000).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile. A percentile is reportable only when this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Nearest-rank percentile of `values` (need not be sorted); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => (0.0, 0.0),
        1 => (data[0], data[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Distance between the quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(10, 50.0), 5);
        assert_eq!(nearest_rank(11, 50.0), 6);
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(101, 90.0), 91);
        assert_eq!(nearest_rank(1, 90.0), 1);
        assert_eq!(nearest_rank(144, 90.0), 130);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(
            percentile(&[3.0, 1.0, 2.0], 50.0),
            2.0,
            "input need not be sorted"
        );
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(144, 90.0), 14);
        assert_eq!(
            samples_beyond(crate::harness::MIN_OPS, 90.0),
            10,
            "the harness's op floor is the smallest n with ten beyond p90"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(iqr(&v), 5.5);
        assert_eq!(median(&v), 5.5);
    }
}

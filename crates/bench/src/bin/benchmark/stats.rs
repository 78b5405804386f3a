//! Order statistics for the measurement protocol: nearest-rank percentiles, medians
//! and spreads of repetitions, and the log-log slope of the size sweep.

/// Fewest repetitions of an op for its fastest one to be reported.
pub const MIN_REPETITIONS: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `0..=1`. The value at
/// rank `ceil(q * n)`, 1-based, so `q = 0.5` of an even-length slice is the lower
/// of the two middle values and `q = 1` is the maximum.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (all values are finite wall-clock or count data).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Median of `values` (nearest rank); the vector is sorted in place.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// `(max - min) / median * 100` of repeated measurements.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let med = median(&mut v);
    if med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med * 100.0
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Least-squares slope of `ln y` over `ln x`: the exponent `k` of `y ~ x^k`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.90), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.951), 96.0);
    }

    #[test]
    fn median_and_spread() {
        let mut segs = [103.0, 99.0, 100.0, 101.0, 97.0];
        assert_eq!(spread_pct(&segs), 6.0);
        assert_eq!(median(&mut segs), 100.0);
        assert_eq!(spread_pct(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [10.0f64, 20.0, 40.0, 80.0]
            .iter()
            .map(|&x| (x, 3.0 * x.powf(2.5)))
            .collect();
        assert!((log_log_slope(&pts) - 2.5).abs() < 1e-9);
        assert_eq!(log_log_slope(&[(2.0, 1.0), (2.0, 5.0)]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}

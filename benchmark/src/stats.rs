//! Medians and interval arithmetic for the ledger.

pub use unidrive_workload::quantile;

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
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

pub fn p95(values: &[f64]) -> f64 {
    quantile(values, 0.95).unwrap_or(0.0)
}

/// `part / whole`, 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Total length covered by `intervals` (`(start, end)`, any order, may
/// overlap), each first clipped to `window`.
pub fn covered(intervals: impl IntoIterator<Item = (u64, u64)>, window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = window.0;
    for (s, e) in clipped {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

/// Distance between the first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: f64| {
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let upper = sorted[lo.min(n - 1)];
        sorted[lo - 1] + frac * (upper - sorted[lo - 1])
    };
    at(0.75) - at(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        // [0,10) ∪ [5,20) ∪ [30,40) clipped to [2,35) = [2,20) ∪ [30,35).
        assert_eq!(covered([(5, 20), (0, 10), (30, 40)], (2, 35)), 18 + 5);
        assert_eq!(covered([(0, 1)], (5, 9)), 0);
        assert_eq!(covered([(3, 4), (3, 4), (3, 8)], (0, 100)), 5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5).abs() < 1e-12);
    }
}

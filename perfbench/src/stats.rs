//! Percentile and median-of-rounds arithmetic.

/// The `q`-quantile (`0 <= q <= 1`) of an ascending slice by the
/// nearest-rank rule; `NaN` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a sample of `n` values has at least ten samples beyond its
/// `q`-quantile — the rule that decides the highest percentile a phase
/// may report (choosing-metrics §1).
pub fn has_ten_beyond(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + 10
}

/// The highest of `candidates` (ascending) that still has ten samples
/// beyond it, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().rfind(|&q| has_ten_beyond(n, q))
}

/// Median of the values (mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric over the rounds of a run: every raw per-round value, and
/// the median the run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Rounds {
    pub values: Vec<f64>,
}

impl Rounds {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.999), 7.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond it.
        assert!(has_ten_beyond(100, 0.9));
        assert!(!has_ten_beyond(99, 0.9));
        // p99 needs 1 000 samples, p99.9 needs 10 000.
        assert!(!has_ten_beyond(999, 0.99));
        assert!(has_ten_beyond(1_000, 0.99));
        assert!(!has_ten_beyond(9_999, 0.999));
        assert!(has_ten_beyond(10_000, 0.999));
        assert_eq!(highest_supported(5_000, &[0.5, 0.9, 0.99, 0.999]), Some(0.99));
        assert_eq!(highest_supported(15, &[0.5, 0.9, 0.99]), None);
        assert_eq!(highest_supported(20, &[0.5, 0.9, 0.99]), Some(0.5));
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
        // One disturbed round out of three does not move the report.
        let r = Rounds { values: vec![2.1, 290.0, 2.0] };
        assert_eq!(r.median(), 2.1);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 290.0);
    }
}

//! Order statistics for the runner: the same quartile rule the acceptance
//! procedure uses (Python's `statistics.quantiles(values, n=4)`), a median,
//! and nearest-rank percentiles for latency samples.

/// Median of `values` (mean of the two middle elements for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// does, so a spread computed here equals the one the acceptance procedure
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// What the runner prints for one metric over several runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; with a single value the quartiles collapse onto
    /// it. `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let [q1, _, q3] = quartiles(values).unwrap_or([median; 3]);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        Some(Summary {
            median,
            q1,
            q3,
            min,
            n: values.len(),
        })
    }

    /// Distance between the quartiles as a share of the median — the
    /// steadiness figure the acceptance procedure bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`; `quantiles([10, 20], n=4)` is `[7.5, 15.0, 22.5]`;
    /// `quantiles([3, 1, 2], n=4)` is `[1.0, 2.0, 3.0]`;
    /// `quantiles([1, 2, 4, 8, 16], n=4)` is `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("non-empty");
        assert_eq!(s.n, 10);
        assert_eq!(s.min, 1.0);
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        let one = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!((one.q1, one.q3, one.spread()), (7.0, 7.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}

//! The numeric kit shared by every analysis.

use serde::Serialize;
use u1_core::SimDuration;

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Serialize)]
pub struct Ecdf {
    /// Sorted samples.
    sorted: Vec<f64>,
}

impl Ecdf {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self { sorted: samples }
    }

    /// [`Ecdf::new`] for samples the caller has already sorted: takes
    /// ownership without re-sorting (or cloning — several folds sort their
    /// multiset buffer in `finish` and previously cloned it just to build
    /// the Ecdf). Output is identical to `new` on the same samples.
    pub fn from_sorted(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        debug_assert!(samples.windows(2).all(|w| w[0] <= w[1]));
        Self { sorted: samples }
    }

    /// [`Ecdf::new`] over integer samples (microseconds, bytes, counts):
    /// they sort as integers, then become `f64` through `to_f64` in place,
    /// in the same allocation. `to_f64` must be non-decreasing, as every
    /// unit conversion is, so the converted samples are already in order
    /// and the result equals `new` over them.
    pub(crate) fn from_ints(mut samples: Vec<u64>, to_f64: impl Fn(u64) -> f64) -> Self {
        samples.sort_unstable();
        Self::from_sorted(samples.into_iter().map(to_f64).collect())
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, in ascending order.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P(X >= x)` (CCDF, used for power-law plots).
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// The q-quantile, `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).floor() as usize;
        self.sorted[idx]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// Evaluation points for plotting: `(x, P(X <= x))` at `n` log-spaced
    /// (if positive-ranged) or linear positions.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.min();
        let hi = self.max();
        let mut out = Vec::with_capacity(n);
        if lo > 0.0 && hi / lo > 100.0 {
            for i in 0..n {
                let x = lo * (hi / lo).powf(i as f64 / (n - 1).max(1) as f64);
                out.push((x, self.cdf(x)));
            }
        } else {
            for i in 0..n {
                let x = lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64;
                out.push((x, self.cdf(x)));
            }
        }
        out
    }
}

/// Microseconds as seconds, exactly as `SimDuration::as_secs_f64` converts.
pub(crate) fn secs(us: u64) -> f64 {
    SimDuration::from_micros(us).as_secs_f64()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Coefficient of variation (stddev / mean).
pub fn cv(xs: &[f64]) -> f64 {
    stddev(xs) / mean(xs)
}

/// Pearson correlation coefficient (Fig. 10 reports 0.998 for files vs
/// directories per volume).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    // `vx`/`vy` are sums of squares, never negative, so `<= 0.0` is exactly
    // the zero-variance check without comparing floats for equality.
    if vx <= 0.0 || vy <= 0.0 {
        return f64::NAN;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Lorenz curve points `(population share, cumulative value share)` and the
/// Gini coefficient, as used by Fig. 7(c).
#[derive(Debug, Clone, Serialize)]
pub struct Lorenz {
    pub points: Vec<(f64, f64)>,
    pub gini: f64,
}

/// Computes the Lorenz curve and Gini coefficient of non-negative values.
pub fn lorenz(values: &[f64], curve_points: usize) -> Lorenz {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| *v >= 0.0).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let total: f64 = sorted.iter().sum();
    if n == 0 || total <= 0.0 {
        return Lorenz {
            points: vec![(0.0, 0.0), (1.0, 1.0)],
            gini: 0.0,
        };
    }
    // Gini via the sorted-rank formula.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum();
    let gini = (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64;
    // Curve.
    let mut points = Vec::with_capacity(curve_points + 1);
    points.push((0.0, 0.0));
    let mut cum = 0.0;
    let step = (n / curve_points.max(1)).max(1);
    for (i, v) in sorted.iter().enumerate() {
        cum += v;
        if (i + 1) % step == 0 || i + 1 == n {
            points.push(((i + 1) as f64 / n as f64, cum / total));
        }
    }
    Lorenz { points, gini }
}

/// Sample autocorrelation function at lags `0..=max_lag`, plus the ±95%
/// confidence bound `2/sqrt(N)` used by Fig. 2(c).
#[derive(Debug, Clone, Serialize)]
pub struct Acf {
    pub lags: Vec<f64>,
    pub confidence: f64,
}

pub fn acf(xs: &[f64], max_lag: usize) -> Acf {
    let n = xs.len();
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    let mut lags = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag.min(n.saturating_sub(1)) {
        // Sum of squares: `<= 0.0` ⇔ every sample equals the mean.
        if denom <= 0.0 {
            lags.push(0.0);
            continue;
        }
        let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        lags.push(num / denom);
    }
    Acf {
        lags,
        confidence: 2.0 / (n as f64).sqrt(),
    }
}

/// A continuous power-law fit `P(X >= x) = (theta/x)^alpha` for `x >= theta`
/// via the Hill/MLE estimator, as Fig. 9 fits inter-operation times.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PowerLawFit {
    pub alpha: f64,
    pub theta: f64,
    /// Number of tail samples used.
    pub tail_n: usize,
}

/// Fits the tail `x >= theta`. `theta` is chosen as the given quantile of
/// the data (the paper fits "a central region of the domain").
pub fn fit_power_law(samples: &[f64], theta_quantile: f64) -> Option<PowerLawFit> {
    let ecdf = Ecdf::new(samples.to_vec());
    if ecdf.len() < 100 {
        return None;
    }
    let theta = ecdf.quantile(theta_quantile).max(f64::MIN_POSITIVE);
    let tail: Vec<f64> = samples.iter().copied().filter(|&x| x >= theta).collect();
    if tail.len() < 50 {
        return None;
    }
    let log_sum: f64 = tail.iter().map(|&x| (x / theta).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(PowerLawFit {
        alpha: tail.len() as f64 / log_sum,
        theta,
        tail_n: tail.len(),
    })
}

/// A fixed-width histogram used in report rendering.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    pub edges: Vec<f64>,
    pub counts: Vec<u64>,
}

pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Histogram {
    assert!(bins > 0 && hi > lo);
    let mut counts = vec![0u64; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        if x < lo || !x.is_finite() {
            continue;
        }
        let idx = (((x - lo) / width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let edges = (0..=bins).map(|i| lo + width * i as f64).collect();
    Histogram { edges, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!((e.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((e.cdf(0.5) - 0.0).abs() < 1e-12);
        assert!((e.cdf(10.0) - 1.0).abs() < 1e-12);
        assert!((e.ccdf(3.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.median(), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    fn ecdf_handles_empty_and_nan() {
        let e = Ecdf::new(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
        let empty = Ecdf::new(vec![]);
        assert!(empty.is_empty());
        assert!(empty.median().is_nan());
        assert_eq!(empty.cdf(1.0), 0.0);
        assert!(empty.curve(10).is_empty());
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let e = Ecdf::new((1..=1000).map(|i| i as f64).collect());
        let curve = e.curve(50);
        assert_eq!(curve.len(), 50);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
        assert!((cv(&xs) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-12);
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
    }

    #[test]
    fn gini_extremes() {
        assert!((lorenz(&[1.0, 1.0, 1.0, 1.0], 10).gini).abs() < 1e-9);
        let g = lorenz(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0], 10).gini;
        assert!(g > 0.85, "all-to-one gini {g}");
        // Degenerate inputs.
        assert_eq!(lorenz(&[], 10).gini, 0.0);
    }

    #[test]
    fn lorenz_curve_is_convex_increasing() {
        let values: Vec<f64> = (1..=100).map(|i| (i as f64).powi(3)).collect();
        let l = lorenz(&values, 20);
        assert!(l.points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((l.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Curve lies below the diagonal for unequal data.
        assert!(l.points.iter().all(|(x, y)| *y <= x + 1e-9));
    }

    #[test]
    fn acf_of_periodic_signal_alternates() {
        // Period-24 signal: strong positive ACF at lag 24, negative at 12.
        let xs: Vec<f64> = (0..24 * 20)
            .map(|i| (i as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect();
        let a = acf(&xs, 30);
        assert!((a.lags[0] - 1.0).abs() < 1e-9);
        assert!(a.lags[24] > 0.8, "lag-24 {}", a.lags[24]);
        assert!(a.lags[12] < -0.8, "lag-12 {}", a.lags[12]);
        assert!(a.confidence > 0.0);
    }

    #[test]
    fn acf_of_noise_stays_inside_confidence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..4000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let a = acf(&xs, 50);
        let outside = a.lags[1..]
            .iter()
            .filter(|l| l.abs() > a.confidence)
            .count();
        assert!(
            outside <= 6,
            "noise ACF mostly inside bounds, {outside} out"
        );
    }

    #[test]
    fn power_law_fit_recovers_alpha() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| u1_core::rngx::sample_pareto(&mut rng, 1.54, 41.37))
            .collect();
        let fit = fit_power_law(&samples, 0.10).expect("fit");
        assert!((fit.alpha - 1.54).abs() < 0.08, "alpha {}", fit.alpha);
        assert!(fit.theta >= 41.0, "theta {}", fit.theta);
    }

    #[test]
    fn power_law_fit_refuses_tiny_samples() {
        assert!(fit_power_law(&[1.0, 2.0, 3.0], 0.1).is_none());
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = histogram(&[0.5, 1.5, 2.5, 99.0, -1.0], 0.0, 3.0, 3);
        assert_eq!(h.counts, vec![1, 1, 2]); // 99 clamps into last bin, -1 dropped
        assert_eq!(h.edges.len(), 4);
    }
}

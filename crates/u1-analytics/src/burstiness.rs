//! Inter-operation time burstiness and power-law fits (§6.2, Fig. 9).

use crate::engine::Ends;
use crate::stats::{cv, fit_power_law, secs, Ecdf, PowerLawFit};
use serde::Serialize;
use u1_core::{ApiOpKind, SimTime};

/// Burstiness analysis of one operation type.
#[derive(Debug, Serialize)]
pub struct Burstiness {
    pub op: &'static str,
    /// Count of inter-operation gaps measured.
    pub gaps: usize,
    /// Gap distribution, seconds.
    pub ecdf: Ecdf,
    /// Coefficient of variation — ≫ 1 means bursty/non-Poisson (an
    /// exponential distribution has CV = 1).
    pub cv: f64,
    /// MLE power-law fit of the tail (Fig. 9(b) fits alpha ∈ (1,2)).
    pub fit: Option<PowerLawFit>,
    /// CCDF samples for plotting `(x, P(X >= x))`.
    pub ccdf: Vec<(f64, f64)>,
}

/// Keeps the gap (microseconds) between two of a user's operations; equal
/// timestamps make no gap.
fn gap(gaps: &mut Vec<u64>, (prev, t): (SimTime, SimTime)) {
    let us = t.since(prev).as_micros();
    if us > 0 {
        gaps.push(us);
    }
}

/// One operation at `t` by a user whose operations so far are `ends`.
pub(crate) fn step(gaps: &mut Vec<u64>, ends: &mut Ends<SimTime>, t: SimTime) {
    if let Some(prev) = ends.push(t) {
        gap(gaps, (prev, t));
    }
}

/// Appends the same user's operations in the chunk after this one,
/// measuring the gap that spans the boundary.
pub(crate) fn join(gaps: &mut Vec<u64>, earlier: &mut Ends<SimTime>, later: Ends<SimTime>) {
    if let Some(pair) = earlier.join(later) {
        gap(gaps, pair);
    }
}

/// Fig. 9 from every gap of `op`. The gaps sort before fitting, so the
/// same multiset of gaps, however it was gathered, gives the same output.
pub(crate) fn finish(op: ApiOpKind, gaps: Vec<u64>) -> Burstiness {
    let ecdf = Ecdf::from_ints(gaps, secs);
    let fit = fit_power_law(ecdf.samples(), 0.35);
    let cv = cv(ecdf.samples());
    let ccdf = if ecdf.is_empty() {
        Vec::new()
    } else {
        let lo = ecdf.min().max(1e-3);
        let hi = ecdf.max();
        (0..40)
            .map(|i| {
                let x = lo * (hi / lo).powf(i as f64 / 39.0);
                (x, ecdf.ccdf(x))
            })
            .collect()
    };
    Burstiness {
        op: op.display_name(),
        gaps: ecdf.len(),
        cv,
        fit,
        ccdf,
        ecdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn gaps_are_per_user() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(5), Upload, 2, 2, 2, 10, 2, "a"),
            transfer(at(10), Upload, 1, 1, 3, 10, 3, "a"), // user 1 gap: 10
            transfer(at(25), Upload, 2, 2, 4, 10, 4, "a"), // user 2 gap: 20
        ];
        let b = chunked(&[&recs], at(60)).burst_upload;
        assert_eq!(b.ecdf.samples(), [10.0, 20.0]);
    }

    #[test]
    fn other_ops_do_not_mix_in() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            node_op(at(5), Unlink, 1, 1, 1, u1_core::NodeKind::File),
            transfer(at(10), Upload, 1, 1, 2, 10, 2, "a"),
        ];
        let report = chunked(&[&recs], at(60));
        assert_eq!(report.burst_upload.ecdf.samples(), [10.0]);
        assert!(report.burst_unlink.ecdf.is_empty());
    }

    #[test]
    fn chunked_gaps_match_serial() {
        let recs = vec![
            transfer(at(0), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(5), Upload, 2, 2, 2, 10, 2, "a"),
            transfer(at(10), Upload, 1, 1, 3, 10, 3, "a"),
            transfer(at(25), Upload, 2, 2, 4, 10, 4, "a"),
            transfer(at(90), Upload, 1, 1, 5, 10, 5, "a"),
        ];
        let serial = chunked(&[&recs], SimTime::from_days(1)).burst_upload;
        assert_eq!(serial.ecdf.samples(), [10.0, 20.0, 80.0]);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], SimTime::from_days(1)).burst_upload;
            assert_eq!(got.gaps, serial.gaps, "split={split}");
            assert_eq!(
                serde_json::to_value(&got.ecdf),
                serde_json::to_value(&serial.ecdf),
                "split={split}"
            );
        }
    }

    #[test]
    fn pareto_gaps_are_detected_as_bursty_with_good_alpha() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut t = 0u64;
        let mut recs = Vec::new();
        for i in 0..30_000u64 {
            t += (u1_core::rngx::sample_pareto(&mut rng, 1.54, 41.37) * 1e6) as u64;
            recs.push(transfer(
                SimTime::from_micros(t),
                Upload,
                1,
                1,
                i,
                10,
                i,
                "a",
            ));
        }
        let b = chunked(&[&recs], at(60)).burst_upload;
        assert_eq!(b.gaps, 29_999);
        let fit = b.fit.expect("fit");
        assert!((fit.alpha - 1.54).abs() < 0.12, "alpha {}", fit.alpha);
        assert!(b.cv > 2.0, "pareto(1.54) is high-variance, cv {}", b.cv);
        // CCDF is decreasing.
        assert!(b.ccdf.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn poisson_gaps_have_cv_near_one() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut t = 0u64;
        let mut recs = Vec::new();
        for i in 0..20_000u64 {
            t += (u1_core::rngx::sample_exp(&mut rng, 60.0) * 1e6) as u64;
            recs.push(transfer(
                SimTime::from_micros(t),
                Upload,
                1,
                1,
                i,
                10,
                i,
                "a",
            ));
        }
        let b = chunked(&[&recs], at(60)).burst_upload;
        assert!((b.cv - 1.0).abs() < 0.1, "exponential cv {}", b.cv);
    }
}

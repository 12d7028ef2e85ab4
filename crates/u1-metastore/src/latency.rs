//! Service-time model for metadata RPCs.
//!
//! The paper's Figs. 12–13 establish three facts about the production
//! metadata store:
//!
//! 1. service-time medians separate by RPC class — reads are fastest,
//!    writes/updates/deletes sit a few× above them, and the two cascade
//!    RPCs (`delete_volume`, `get_from_scratch`) are "more than one order of
//!    magnitude slower" than the fastest reads;
//! 2. *every* RPC exhibits a long tail: "from 7% to 22% of RPC service
//!    times are very far from the median value" (attributable to background
//!    interference, power management, etc. — Li et al.'s "Tales of the
//!    Tail");
//! 3. cascade cost scales with the amount of cascaded work.
//!
//! We model each RPC's service time as a log-normal body around a per-class
//! median with a Pareto-amplified tail mixed in at a per-RPC tail
//! probability, plus a per-row surcharge for cascades. The parameters are
//! the calibrated constants below.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use u1_core::rngx;
use u1_core::{RpcClass, RpcKind, SimDuration};

// Median service time per class, in seconds. Calibrated so the Fig. 12
// CDFs span ~1ms..100s with medians read ≈ 3ms, write ≈ 12ms,
// cascade ≈ 120ms (Fig. 13's spread).
const READ_MEDIAN_S: f64 = 0.003;
const WRITE_MEDIAN_S: f64 = 0.012;
const CASCADE_MEDIAN_S: f64 = 0.120;
/// Log-normal sigma of the body (dispersion around the median).
const BODY_SIGMA: f64 = 0.85;
/// Probability that a sample lands in the heavy tail. Per the paper this
/// varies per RPC in [0.07, 0.22]; we derive a per-RPC value in that range
/// deterministically from the RPC kind.
const TAIL_PROB_MIN: f64 = 0.07;
const TAIL_PROB_MAX: f64 = 0.22;
/// Pareto exponent of the tail amplifier (smaller ⇒ heavier).
const TAIL_ALPHA: f64 = 1.15;
/// Upper clamp on any single service time, seconds.
const MAX_SERVICE_S: f64 = 100.0;
/// Extra seconds per cascaded row (delete_volume / get_from_scratch touch
/// every node of the volume).
const PER_ROW_S: f64 = 0.002;

/// Median for a class.
fn median_s(class: RpcClass) -> f64 {
    match class {
        RpcClass::Read => READ_MEDIAN_S,
        RpcClass::Write => WRITE_MEDIAN_S,
        RpcClass::Cascade => CASCADE_MEDIAN_S,
    }
}

/// Stateful sampler. Deterministic given its seed.
#[derive(Debug)]
pub struct LatencyModel {
    /// Per [`RpcKind`] (in `RpcKind::ALL` order), what the constants imply
    /// for it; fixed at construction so a sample derives nothing.
    per_rpc: [RpcParams; RpcKind::ALL.len()],
    rng: SmallRng,
}

/// One RPC's share of the model.
#[derive(Debug, Clone, Copy)]
struct RpcParams {
    /// `ln` of its class median: the log-normal body's `mu`.
    ln_median: f64,
    tail_prob: f64,
}

impl LatencyModel {
    pub fn new(seed: u64) -> Self {
        let per_rpc = RpcKind::ALL.map(|rpc| RpcParams {
            ln_median: median_s(rpc.class()).ln(),
            tail_prob: tail_prob_of(rpc),
        });
        Self {
            per_rpc,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The per-RPC tail probability: deterministic within [0.07, 0.22] so
    /// each RPC keeps a stable tail weight across the run, as in Fig. 12
    /// ("from 7% to 22%").
    pub fn tail_prob(&self, rpc: RpcKind) -> f64 {
        self.per_rpc[rpc as usize].tail_prob
    }

    /// Samples the service time for one RPC invocation. `cascade_rows` is
    /// the number of rows a cascade RPC touched (0 for non-cascades).
    pub fn sample(&mut self, rpc: RpcKind, cascade_rows: u64) -> SimDuration {
        let RpcParams {
            ln_median,
            tail_prob,
        } = self.per_rpc[rpc as usize];
        // Log-normal with the requested median: mu = ln(median).
        let body = rngx::sample_lognormal(&mut self.rng, ln_median, BODY_SIGMA);
        let mut service = body;
        if rpc.class() == RpcClass::Cascade {
            service += cascade_rows as f64 * PER_ROW_S;
        }
        if self.rng.gen_range(0.0..1.0) < tail_prob {
            // Tail event: amplify by a Pareto factor >= 6x.
            let amp = rngx::sample_pareto(&mut self.rng, TAIL_ALPHA, 6.0);
            service *= amp;
        }
        SimDuration::from_secs_f64(service.min(MAX_SERVICE_S))
    }
}

/// `rpc`'s tail probability: a fixed point of
/// `[TAIL_PROB_MIN, TAIL_PROB_MAX]` hashed from the RPC's name.
fn tail_prob_of(rpc: RpcKind) -> f64 {
    let span = TAIL_PROB_MAX - TAIL_PROB_MIN;
    let h = rngx::derive_seed(0xC0FFEE, rpc.dal_name(), 0);
    TAIL_PROB_MIN + span * ((h % 10_000) as f64 / 10_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    }

    fn sample_many(model: &mut LatencyModel, rpc: RpcKind, n: usize) -> Vec<f64> {
        (0..n).map(|_| model.sample(rpc, 0).as_secs_f64()).collect()
    }

    #[test]
    fn class_medians_are_ordered_read_write_cascade() {
        let mut m = LatencyModel::new(1);
        let r = median(sample_many(&mut m, RpcKind::GetNode, 4000));
        let w = median(sample_many(&mut m, RpcKind::MakeFile, 4000));
        let c = median(sample_many(&mut m, RpcKind::DeleteVolume, 4000));
        assert!(r < w, "read median {r} should be below write {w}");
        assert!(w < c, "write median {w} should be below cascade {c}");
        assert!(
            c / r > 10.0,
            "cascade {c} should be >=10x read {r} (Fig. 13)"
        );
    }

    #[test]
    fn tails_are_heavy_but_bounded() {
        let mut m = LatencyModel::new(2);
        let xs = sample_many(&mut m, RpcKind::GetNode, 20_000);
        let med = median(xs.clone());
        let far = xs.iter().filter(|&&x| x > 10.0 * med).count() as f64 / xs.len() as f64;
        assert!(far > 0.02, "expect a visible tail, got {far}");
        assert!(xs.iter().all(|&x| x <= 100.0), "clamp holds");
    }

    #[test]
    fn per_rpc_tail_prob_spans_the_paper_range() {
        let m = LatencyModel::new(3);
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        for rpc in RpcKind::ALL {
            let p = m.tail_prob(rpc);
            assert!((0.07..=0.22).contains(&p), "{rpc}: {p}");
            lo = lo.min(p);
            hi = hi.max(p);
        }
        assert!(hi - lo > 0.03, "tail probabilities should differ per RPC");
    }

    #[test]
    fn cascade_cost_scales_with_rows() {
        let mut m = LatencyModel::new(5);
        let small = median(
            (0..2000)
                .map(|_| m.sample(RpcKind::DeleteVolume, 1).as_secs_f64())
                .collect(),
        );
        let big = median(
            (0..2000)
                .map(|_| m.sample(RpcKind::DeleteVolume, 1000).as_secs_f64())
                .collect(),
        );
        assert!(
            big > small + 1.0,
            "1000 rows at 2ms each ≈ +2s, got {small} -> {big}"
        );
    }

    /// `RpcKind::ALL` lists the kinds in declaration order, so `rpc as
    /// usize` finds each kind's own parameters.
    #[test]
    fn per_rpc_parameters_are_each_kind_s_own() {
        let m = LatencyModel::new(6);
        for (i, rpc) in RpcKind::ALL.into_iter().enumerate() {
            assert_eq!(rpc as usize, i, "{rpc:?}");
            assert_eq!(m.tail_prob(rpc).to_bits(), tail_prob_of(rpc).to_bits());
            assert_eq!(
                m.per_rpc[i].ln_median.to_bits(),
                median_s(rpc.class()).ln().to_bits()
            );
        }
    }

    #[test]
    fn determinism_given_seed() {
        let mut a = LatencyModel::new(9);
        let mut b = LatencyModel::new(9);
        for _ in 0..100 {
            assert_eq!(
                a.sample(RpcKind::GetDelta, 0),
                b.sample(RpcKind::GetDelta, 0)
            );
        }
    }
}

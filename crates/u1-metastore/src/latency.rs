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
//! probability, plus a per-row surcharge for cascades. Parameters live in
//! [`LatencyProfile`] so an ablation can turn the tail off and show its
//! effect.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use u1_core::rngx;
use u1_core::{RpcClass, RpcKind, SimDuration};

/// Tunable parameters of the service-time model.
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    /// Median service time per class, in seconds.
    pub read_median_s: f64,
    pub write_median_s: f64,
    pub cascade_median_s: f64,
    /// Log-normal sigma of the body (dispersion around the median).
    pub body_sigma: f64,
    /// Probability that a sample lands in the heavy tail. Per the paper this
    /// varies per RPC in [0.07, 0.22]; we derive a per-RPC value in that
    /// range deterministically from the RPC kind.
    pub tail_prob_min: f64,
    pub tail_prob_max: f64,
    /// Pareto exponent of the tail amplifier (smaller ⇒ heavier).
    pub tail_alpha: f64,
    /// Upper clamp on any single service time, seconds.
    pub max_service_s: f64,
    /// Extra seconds per cascaded row (delete_volume / get_from_scratch
    /// touch every node of the volume).
    pub per_row_s: f64,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        Self {
            // Calibrated so the Fig. 12 CDFs span ~1ms..100s with medians
            // read ≈ 3ms, write ≈ 12ms, cascade ≈ 120ms (Fig. 13's spread).
            read_median_s: 0.003,
            write_median_s: 0.012,
            cascade_median_s: 0.120,
            body_sigma: 0.85,
            tail_prob_min: 0.07,
            tail_prob_max: 0.22,
            tail_alpha: 1.15,
            max_service_s: 100.0,
            per_row_s: 0.002,
        }
    }
}

impl LatencyProfile {
    /// A profile with the long tail disabled — the ablation baseline.
    pub fn no_tail(mut self) -> Self {
        self.tail_prob_min = 0.0;
        self.tail_prob_max = 0.0;
        self
    }

    /// Median for a class.
    pub fn median_for(&self, class: RpcClass) -> f64 {
        match class {
            RpcClass::Read => self.read_median_s,
            RpcClass::Write => self.write_median_s,
            RpcClass::Cascade => self.cascade_median_s,
        }
    }
}

/// Stateful sampler. Deterministic given its seed.
#[derive(Debug)]
pub struct LatencyModel {
    profile: LatencyProfile,
    /// Per [`RpcKind`] (in `RpcKind::ALL` order), what the profile implies
    /// for it; fixed at construction so a sample derives nothing.
    per_rpc: [RpcParams; RpcKind::ALL.len()],
    rng: SmallRng,
}

/// One RPC's share of the profile.
#[derive(Debug, Clone, Copy)]
struct RpcParams {
    /// `ln` of its class median: the log-normal body's `mu`.
    ln_median: f64,
    tail_prob: f64,
}

impl LatencyModel {
    pub fn new(profile: LatencyProfile, seed: u64) -> Self {
        let per_rpc = RpcKind::ALL.map(|rpc| RpcParams {
            ln_median: profile.median_for(rpc.class()).ln(),
            tail_prob: tail_prob_of(&profile, rpc),
        });
        Self {
            profile,
            per_rpc,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    /// The per-RPC tail probability: deterministic within
    /// `[tail_prob_min, tail_prob_max]` so each RPC keeps a stable tail
    /// weight across the run, as in Fig. 12 ("from 7% to 22%").
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
        let body = rngx::sample_lognormal(&mut self.rng, ln_median, self.profile.body_sigma);
        let mut service = body;
        if rpc.class() == RpcClass::Cascade {
            service += cascade_rows as f64 * self.profile.per_row_s;
        }
        if tail_prob > 0.0 && self.rng.gen_range(0.0..1.0) < tail_prob {
            // Tail event: amplify by a Pareto factor >= 6x.
            let amp = rngx::sample_pareto(&mut self.rng, self.profile.tail_alpha, 6.0);
            service *= amp;
        }
        SimDuration::from_secs_f64(service.min(self.profile.max_service_s))
    }
}

/// `rpc`'s tail probability under `profile`: a fixed point of
/// `[tail_prob_min, tail_prob_max]` hashed from the RPC's name.
fn tail_prob_of(profile: &LatencyProfile, rpc: RpcKind) -> f64 {
    let span = profile.tail_prob_max - profile.tail_prob_min;
    if span <= 0.0 {
        return profile.tail_prob_min.max(0.0);
    }
    let h = rngx::derive_seed(0xC0FFEE, rpc.dal_name(), 0);
    profile.tail_prob_min + span * ((h % 10_000) as f64 / 10_000.0)
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
        let mut m = LatencyModel::new(LatencyProfile::default(), 1);
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
        let mut m = LatencyModel::new(LatencyProfile::default(), 2);
        let xs = sample_many(&mut m, RpcKind::GetNode, 20_000);
        let med = median(xs.clone());
        let far = xs.iter().filter(|&&x| x > 10.0 * med).count() as f64 / xs.len() as f64;
        assert!(far > 0.02, "expect a visible tail, got {far}");
        assert!(xs.iter().all(|&x| x <= 100.0), "clamp holds");
    }

    #[test]
    fn per_rpc_tail_prob_spans_the_paper_range() {
        let m = LatencyModel::new(LatencyProfile::default(), 3);
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
    fn no_tail_profile_kills_the_tail() {
        let mut m = LatencyModel::new(LatencyProfile::default().no_tail(), 4);
        let xs = sample_many(&mut m, RpcKind::GetNode, 20_000);
        let med = median(xs.clone());
        let far = xs.iter().filter(|&&x| x > 20.0 * med).count() as f64 / xs.len() as f64;
        assert!(far < 0.005, "tail should be gone, got {far}");
    }

    #[test]
    fn cascade_cost_scales_with_rows() {
        let mut m = LatencyModel::new(LatencyProfile::default().no_tail(), 5);
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
        let profile = LatencyProfile::default();
        let m = LatencyModel::new(profile.clone(), 6);
        for (i, rpc) in RpcKind::ALL.into_iter().enumerate() {
            assert_eq!(rpc as usize, i, "{rpc:?}");
            assert_eq!(
                m.tail_prob(rpc).to_bits(),
                tail_prob_of(&profile, rpc).to_bits()
            );
            assert_eq!(
                m.per_rpc[i].ln_median.to_bits(),
                profile.median_for(rpc.class()).ln().to_bits()
            );
        }
    }

    #[test]
    fn determinism_given_seed() {
        let mut a = LatencyModel::new(LatencyProfile::default(), 9);
        let mut b = LatencyModel::new(LatencyProfile::default(), 9);
        for _ in 0..100 {
            assert_eq!(
                a.sample(RpcKind::GetDelta, 0),
                b.sample(RpcKind::GetDelta, 0)
            );
        }
    }
}

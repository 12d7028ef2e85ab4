//! User population: activity classes and the heavy-tailed skew.
//!
//! §6.1 classifies users (by Drago et al.'s scheme) into occasional
//! (85.82%), upload-only (7.22%), download-only (2.34%) and heavy (4.62%),
//! and measures extreme inequality: the top 1% of active users account for
//! 65.6% of the traffic (Gini ≈ 0.89). We model each user with a class and
//! an *activity weight* drawn from a Pareto tail calibrated against that
//! inequality; the weight scales both session counts and per-session op
//! volume.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::Serialize;
use u1_core::{paper, rngx};

/// The §6.1 activity classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum UserClass {
    /// Transfers < 10KB over the month; mostly just online.
    Occasional,
    UploadOnly,
    DownloadOnly,
    Heavy,
}

impl UserClass {
    pub fn label(self) -> &'static str {
        match self {
            UserClass::Occasional => "occasional",
            UserClass::UploadOnly => "upload_only",
            UserClass::DownloadOnly => "download_only",
            UserClass::Heavy => "heavy",
        }
    }

    /// Samples a class with the paper's shares.
    pub fn sample(rng: &mut SmallRng) -> UserClass {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < paper::CLASS_OCCASIONAL {
            UserClass::Occasional
        } else if u < paper::CLASS_OCCASIONAL + paper::CLASS_UPLOAD_ONLY {
            UserClass::UploadOnly
        } else if u < paper::CLASS_OCCASIONAL
            + paper::CLASS_UPLOAD_ONLY
            + paper::CLASS_DOWNLOAD_ONLY
        {
            UserClass::DownloadOnly
        } else {
            UserClass::Heavy
        }
    }
}

/// A user's static profile.
#[derive(Debug, Clone)]
pub struct UserProfile {
    pub class: UserClass,
    /// Relative activity weight (mean 1 over the population, heavy tail).
    pub weight: f64,
    /// Mean sessions per day.
    pub sessions_per_day: f64,
    /// Has at least one user-defined folder (58% of users, §6.3).
    pub has_udf: bool,
    /// Participates in sharing (1.8% of users, §6.3).
    pub shares: bool,
}

/// Samples the activity weight: a Pareto tail calibrated empirically so a
/// 10^5–10^6-user population shows Gini ≈ 0.85–0.9 and a top-1% share of
/// ≈ 0.65 (Fig. 7(c) reports 0.894/0.897 and 65.6%). α = 1.02 with a
/// 10^5 clamp lands at Gini ≈ 0.85, top-1% ≈ 0.66 on 2×10^5 samples.
pub fn sample_activity_weight(rng: &mut SmallRng) -> f64 {
    const ALPHA: f64 = 1.02;
    // theta chosen for mean ≈ alpha*theta/(alpha-1) = 1 → theta = (α-1)/α.
    const THETA: f64 = (ALPHA - 1.0) / ALPHA;
    // Clamp the extreme tail so one user cannot be the whole trace.
    rngx::sample_pareto(rng, ALPHA, THETA).min(100_000.0)
}

/// Builds a user profile.
pub fn sample_profile(rng: &mut SmallRng) -> UserProfile {
    let mut class = UserClass::sample(rng);
    let weight = sample_activity_weight(rng);
    // Traffic whales are, by construction, heavy users: an "occasional"
    // label on a top-tail weight would contradict both definitions.
    if weight > 2.0 && class == UserClass::Occasional {
        let u: f64 = rng.gen_range(0.0..1.0);
        class = if u < 0.6 {
            UserClass::Heavy
        } else if u < 0.85 {
            UserClass::UploadOnly
        } else {
            UserClass::DownloadOnly
        };
    }
    // Table 3: ≈ 42.5M sessions / 1.29M users / 30 days ≈ 1.1/day on
    // average. Heavier users connect more (more devices, more uptime).
    let sessions_per_day = (0.7 + 0.5 * weight.min(16.0)).min(9.0);
    UserProfile {
        class,
        weight,
        sessions_per_day,
        has_udf: rng.gen_range(0.0..1.0) < paper::USERS_WITH_UDF.value,
        shares: rng.gen_range(0.0..1.0) < paper::USERS_WITH_SHARE.value,
    }
}

/// Gini coefficient of a weight vector (used here to verify calibration;
/// the analytics crate has the production implementation).
pub fn gini(weights: &[f64]) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    let mut sorted = weights.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, w)| (i as f64 + 1.0) * w)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn class_shares_match_paper() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            match UserClass::sample(&mut rng) {
                UserClass::Occasional => counts[0] += 1,
                UserClass::UploadOnly => counts[1] += 1,
                UserClass::DownloadOnly => counts[2] += 1,
                UserClass::Heavy => counts[3] += 1,
            }
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(counts[0]) - paper::CLASS_OCCASIONAL).abs() < 0.01);
        assert!((f(counts[1]) - paper::CLASS_UPLOAD_ONLY).abs() < 0.005);
        assert!((f(counts[2]) - paper::CLASS_DOWNLOAD_ONLY).abs() < 0.004);
        assert!((f(counts[3]) - paper::CLASS_HEAVY).abs() < 0.005);
    }

    #[test]
    fn activity_weights_reproduce_paper_inequality() {
        let mut rng = SmallRng::seed_from_u64(2);
        let weights: Vec<f64> = (0..200_000)
            .map(|_| sample_activity_weight(&mut rng))
            .collect();
        let g = gini(&weights);
        assert!((0.75..=0.96).contains(&g), "gini {g}");
        // Top 1% share.
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top1: f64 = sorted[..sorted.len() / 100].iter().sum();
        let share = top1 / sorted.iter().sum::<f64>();
        assert!((0.45..=0.80).contains(&share), "top-1% share {share}");
    }

    #[test]
    fn profiles_have_sane_rates() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut udf = 0;
        let mut share = 0;
        let n = 50_000;
        for _ in 0..n {
            let p = sample_profile(&mut rng);
            assert!(p.sessions_per_day >= 0.7 && p.sessions_per_day <= 9.0);
            udf += p.has_udf as u32;
            share += p.shares as u32;
        }
        assert!(((udf as f64 / n as f64) - paper::USERS_WITH_UDF.value).abs() < 0.01);
        assert!(((share as f64 / n as f64) - paper::USERS_WITH_SHARE.value).abs() < 0.004);
    }

    #[test]
    fn gini_sanity() {
        assert!(gini(&[]).abs() < 1e-12);
        assert!(gini(&[5.0, 5.0, 5.0]).abs() < 1e-9, "equal → 0");
        let extreme = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(extreme > 0.7, "one-owner → high, got {extreme}");
    }
}

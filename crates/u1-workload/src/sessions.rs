//! Session arrivals, durations and the active/cold split.

use crate::users::{UserClass, UserProfile};
use rand::rngs::SmallRng;
use rand::Rng;
use u1_core::paper;
use u1_core::rngx;
use u1_core::{SimDuration, SimTime};

/// Hour-of-day activity curve. U1 clients start with the user's machine, so
/// load follows working hours: up to ~10× more upload volume in the central
/// hours than at night (Fig. 2(a)), and auth activity 50–60% higher by day
/// (Fig. 15).
pub fn diurnal_factor(t: SimTime) -> f64 {
    const HOURLY: [f64; 24] = [
        0.30, 0.22, 0.18, 0.16, 0.18, 0.25, // 00–05
        0.45, 0.80, 1.20, 1.55, 1.75, 1.85, // 06–11
        1.80, 1.85, 1.80, 1.70, 1.55, 1.40, // 12–17
        1.25, 1.10, 0.95, 0.75, 0.55, 0.40, // 18–23
    ];
    let day_factor = match t.day_of_week() {
        0 => paper::MONDAY_OVER_WEEKEND.value, // Monday peak (Fig. 15)
        5 | 6 => 0.92,                         // weekend dip
        _ => 1.05,
    };
    HOURLY[t.hour_of_day() as usize] * day_factor
}

/// Hour-of-day bias of the R/W ratio (§5.1): "from 6am to 3pm the R/W
/// ratio shows a linear decay" — downloads dominate when clients start in
/// the morning, uploads during working hours. Returns a multiplier applied
/// to the probability of choosing a download over an upload.
pub fn download_bias(t: SimTime) -> f64 {
    let h = t.hour_of_day() as f64;
    if (6.0..=15.0).contains(&h) {
        // Linear decay from 1.5 at 6am to 0.9 at 3pm.
        1.5 - (h - 6.0) / 9.0 * 0.6
    } else {
        1.1
    }
}

/// Gap until a user's next session: a non-homogeneous Poisson arrival
/// with the diurnal/weekday rate, sampled by thinning (sample at the peak
/// rate, accept with probability rate(t)/peak) so arrivals concentrate in
/// the busy hours instead of lagging the rate by one gap.
pub fn next_session_gap(rng: &mut SmallRng, profile: &UserProfile, now: SimTime) -> SimDuration {
    const PEAK: f64 = 2.2; // max of diurnal_factor over hours × weekdays
    let peak_rate_per_sec = profile.sessions_per_day * PEAK / 86_400.0;
    let mut t = now;
    for _ in 0..64 {
        let gap = rngx::sample_exp(rng, 1.0 / peak_rate_per_sec).clamp(30.0, 6.0 * 86_400.0);
        t += SimDuration::from_secs_f64(gap);
        let accept = diurnal_factor(t) / PEAK;
        if rng.gen_range(0.0..1.0) < accept {
            break;
        }
    }
    t.since(now).max(SimDuration::from_secs(30))
}

/// What a session will be.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    pub duration: SimDuration,
    /// Will this session perform data management at all? Only ~5.6% do
    /// (§7.3).
    pub active: bool,
    /// Target number of operations for active sessions (heavy-tailed:
    /// 80% ≤ 92 ops, the top 20% holding ~96.7% of all data ops).
    pub planned_ops: u64,
}

/// Per-class probability that a session is active, averaging to the
/// paper's 5.57% under the §6.1 class shares.
pub fn active_probability(class: UserClass) -> f64 {
    match class {
        UserClass::Occasional => 0.017,
        UserClass::UploadOnly => 0.14,
        UserClass::DownloadOnly => 0.14,
        UserClass::Heavy => 0.27,
    }
}

/// Plans a session for a user.
pub fn plan_session(rng: &mut SmallRng, profile: &UserProfile) -> SessionPlan {
    let active = rng.gen_range(0.0..1.0) < active_probability(profile.class);
    if !active {
        // Cold session: 34% die within a second (NAT/firewall cuts, §7.3),
        // the rest follow a log-normal with a ~3% tail beyond 8 hours.
        let duration = if rng.gen_range(0.0..1.0) < 0.34 {
            SimDuration::from_secs_f64(rng.gen_range(0.05..1.0))
        } else {
            let secs = rngx::sample_lognormal(rng, (25.0 * 60.0f64).ln(), 1.6);
            SimDuration::from_secs_f64(secs.min(7.0 * 86_400.0))
        };
        return SessionPlan {
            duration,
            active: false,
            planned_ops: 0,
        };
    }
    // Active session: ops from a very heavy tail. The per-user activity
    // weight multiplies op volume so traffic inequality (Fig. 7(c))
    // reaches the paper's Gini ≈ 0.89; occasional users issue few ops by
    // definition.
    let class_factor = match profile.class {
        UserClass::Occasional => 0.12,
        _ => 1.0,
    };
    let raw = rngx::sample_pareto(rng, 0.5, 9.0).min(9_000.0);
    let mult = (0.5 + 2.2 * profile.weight).min(600.0) * class_factor;
    let planned_ops = ((raw * mult).round() as u64).clamp(1, 6_000);
    // Active sessions are longer (they have work to do), and the heavy
    // tail of planned work stretches them further — Fig. 16 shows active
    // sessions reaching into days while 97% of *all* sessions stay under
    // 8h (actives are only ~5.6% of sessions).
    let work_stretch = ((planned_ops as f64 / 150.0).sqrt()).clamp(1.0, 6.0);
    let secs = rngx::sample_lognormal(rng, (145.0 * 60.0f64).ln(), 1.0) * work_stretch;
    SessionPlan {
        duration: SimDuration::from_secs_f64(secs.min(7.0 * 86_400.0)),
        active: true,
        planned_ops,
    }
}

/// Think time between consecutive operations of one user: a burst/pause
/// mixture whose tail follows the Fig. 9 power law (`alpha` ∈ (1, 2)).
/// `bulk` marks machine-paced sessions (initial sync of a large tree —
/// Fig. 16's inner plot reaches 10^6 ops in one session, impossible at
/// human think-time): gaps shrink to server-turnaround scale.
pub fn interop_gap_with_mode(rng: &mut SmallRng, metadata_op: bool, bulk: bool) -> SimDuration {
    let gap = interop_gap(rng, metadata_op);
    if bulk {
        SimDuration::from_micros((gap.as_micros() / 6).max(200_000))
    } else {
        gap
    }
}

/// Think time between consecutive operations (human-paced).
pub fn interop_gap(rng: &mut SmallRng, metadata_op: bool) -> SimDuration {
    let (alpha, theta) = if metadata_op {
        (
            paper::UNLINK_INTEROP_ALPHA.value,
            paper::UNLINK_INTEROP_THETA.value,
        )
    } else {
        (
            paper::UPLOAD_INTEROP_ALPHA.value,
            paper::UPLOAD_INTEROP_THETA.value,
        )
    };
    if rng.gen_range(0.0..1.0) < 0.58 {
        // Burst region below the fitted power-law domain: sub-theta gaps
        // (directory-granularity sync fires operations in quick cascades).
        let lo = 0.05f64;
        let secs = lo * (theta / lo).powf(rng.gen_range(0.0..1.0));
        SimDuration::from_secs_f64(secs)
    } else {
        SimDuration::from_secs_f64(rngx::sample_pareto(rng, alpha, theta).min(6.0 * 3600.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::sample_profile;
    use rand::SeedableRng;

    #[test]
    fn diurnal_swing_is_roughly_10x() {
        let peak = (0..24)
            .map(|h| diurnal_factor(SimTime::from_hours(48 + h)))
            .fold(0.0f64, f64::max);
        let trough = (0..24)
            .map(|h| diurnal_factor(SimTime::from_hours(48 + h)))
            .fold(f64::MAX, f64::min);
        let swing = peak / trough;
        assert!((6.0..=14.0).contains(&swing), "swing {swing}");
    }

    #[test]
    fn monday_beats_weekend() {
        // Day 2 of the window is a Monday, day 0 a Saturday.
        let monday = diurnal_factor(SimTime::from_hours(2 * 24 + 12));
        let saturday = diurnal_factor(SimTime::from_hours(12));
        assert!(monday > saturday * 1.1);
    }

    #[test]
    fn session_population_statistics_match_paper() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut active = 0u32;
        let mut under_1s = 0u32;
        let mut under_8h = 0u32;
        let n = 60_000;
        for _ in 0..n {
            let profile = sample_profile(&mut rng);
            let plan = plan_session(&mut rng, &profile);
            active += plan.active as u32;
            under_1s += (plan.duration < SimDuration::from_secs(1)) as u32;
            under_8h += (plan.duration < SimDuration::from_hours(8)) as u32;
        }
        let f_active = active as f64 / n as f64;
        let f_1s = under_1s as f64 / n as f64;
        let f_8h = under_8h as f64 / n as f64;
        assert!(
            (0.035..=0.085).contains(&f_active),
            "active fraction {f_active}"
        );
        assert!((0.24..=0.40).contains(&f_1s), "sub-second fraction {f_1s}");
        assert!((0.93..=0.995).contains(&f_8h), "under-8h fraction {f_8h}");
    }

    #[test]
    fn active_session_ops_are_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ops: Vec<u64> = Vec::new();
        while ops.len() < 8_000 {
            let profile = sample_profile(&mut rng);
            let plan = plan_session(&mut rng, &profile);
            if plan.active {
                ops.push(plan.planned_ops);
            }
        }
        ops.sort_unstable();
        let p80 = ops[(ops.len() as f64 * 0.8) as usize];
        assert!((5..=600).contains(&p80), "p80 ops {p80} (paper: 92)");
        let total: u64 = ops.iter().sum();
        let top20: u64 = ops[(ops.len() as f64 * 0.8) as usize..].iter().sum();
        let share = top20 as f64 / total as f64;
        assert!(share > 0.80, "top-20% share {share} (paper: 0.967)");
    }

    #[test]
    fn interop_gaps_span_many_decades() {
        let mut rng = SmallRng::seed_from_u64(3);
        let gaps: Vec<f64> = (0..20_000)
            .map(|_| interop_gap(&mut rng, false).as_secs_f64())
            .collect();
        let min = gaps.iter().cloned().fold(f64::MAX, f64::min);
        let max = gaps.iter().cloned().fold(0.0f64, f64::max);
        assert!(min < 1.0, "bursts exist: min {min}");
        assert!(max > 1_000.0, "long pauses exist: max {max}");
        // The tail beyond theta should be roughly power-law: compare CCDF
        // decay over one decade with the expected alpha.
        let theta = paper::UPLOAD_INTEROP_THETA.value;
        let c1 = gaps.iter().filter(|&&g| g >= theta).count() as f64;
        let c10 = gaps.iter().filter(|&&g| g >= 10.0 * theta).count() as f64;
        let alpha_est = (c1 / c10).log10();
        assert!(
            (1.0..=2.2).contains(&alpha_est),
            "empirical tail exponent {alpha_est}"
        );
    }

    #[test]
    fn download_bias_decays_through_the_morning() {
        let six = download_bias(SimTime::from_hours(6));
        let noon = download_bias(SimTime::from_hours(12));
        let three = download_bias(SimTime::from_hours(15));
        assert!(six > noon && noon > three, "{six} {noon} {three}");
    }
}

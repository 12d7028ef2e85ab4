//! The DDoS episodes of §5.4.
//!
//! All three observed attacks "consisted on sharing a single user id and
//! its credentials to distribute content across thousands of desktop
//! clients" — storage leeching. The signature in the trace is a spike of
//! session/auth requests (5–15× normal) and of storage operations (4.6×,
//! 245× and 6.7× for the three attacks), decaying within an hour of the
//! manual response (banning the user and deleting the content).

use u1_core::{paper, SimDuration, SimTime};

/// One scripted attack.
#[derive(Debug, Clone)]
pub struct AttackScript {
    /// When the attack begins.
    pub start: SimTime,
    /// Ramp-up plus full-rate phase before engineers respond.
    pub response_after: SimDuration,
    /// Post-response decay horizon (activity fades to zero).
    pub decay: SimDuration,
    /// Session/auth request multiplier over normal full-population load.
    pub auth_multiplier: f64,
    /// Storage-operation multiplier over normal load (the paper's 4.6×,
    /// 245×, 6.7×).
    pub storage_multiplier: f64,
    /// Number of distinct leeching clients sharing the one user id.
    pub bot_clients: u64,
}

impl AttackScript {
    /// The three attacks of the paper, scheduled at their observed days
    /// (Jan 15, Jan 16, Feb 6 → window days 4, 5 and 26), starting in the
    /// late morning.
    pub fn paper_attacks() -> Vec<AttackScript> {
        paper::ATTACK_DAYS
            .iter()
            .zip(paper::ATTACK_API_MULTIPLIER.iter())
            .enumerate()
            .map(|(i, (&day, &storage_multiplier))| AttackScript {
                start: SimTime::from_hours(day * 24 + 10),
                response_after: SimDuration::from_mins(90),
                decay: SimDuration::from_mins(60),
                auth_multiplier: 5.0 + 5.0 * i as f64, // 5×, 10×, 15×
                storage_multiplier,
                bot_clients: 2_000,
            })
            .collect()
    }

    /// End of all attack activity.
    pub fn end(&self) -> SimTime {
        self.start + self.response_after + self.decay
    }

    /// Relative intensity at time `t`: 1.0 during the active phase,
    /// linearly decaying to 0 after the response, 0 outside.
    pub fn intensity(&self, t: SimTime) -> f64 {
        if t < self.start || t >= self.end() {
            return 0.0;
        }
        let response_at = self.start + self.response_after;
        if t < response_at {
            // Fast ramp-up over the first 10 minutes, then full rate.
            let ramp = SimDuration::from_mins(10);
            let since = t.since(self.start);
            if since < ramp {
                since.as_secs_f64() / ramp.as_secs_f64()
            } else {
                1.0
            }
        } else {
            // "storage activity ... decays within one hour after engineers
            // detected and responded to the attack".
            let since = t.since(response_at);
            (1.0 - since.as_secs_f64() / self.decay.as_secs_f64()).max(0.0)
        }
    }

    /// Whether engineers have already responded at `t` (the user is
    /// banned; subsequent bot authentications fail).
    pub fn responded(&self, t: SimTime) -> bool {
        t >= self.start + self.response_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_attacks_match_calibration() {
        let attacks = AttackScript::paper_attacks();
        assert_eq!(attacks.len(), 3);
        assert_eq!(attacks[0].start.day_index(), 4);
        assert_eq!(attacks[1].start.day_index(), 5);
        assert_eq!(attacks[2].start.day_index(), 26);
        assert!((attacks[1].storage_multiplier - 245.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_profile_ramps_peaks_and_decays() {
        let a = &AttackScript::paper_attacks()[0];
        assert!(a.intensity(a.start + SimDuration::from_secs(1)) < 0.1);
        assert!((a.intensity(a.start + SimDuration::from_mins(30)) - 1.0).abs() < 1e-9);
        let mid_decay = a.start + a.response_after + SimDuration::from_mins(30);
        let i = a.intensity(mid_decay);
        assert!((0.4..0.6).contains(&i), "half-decayed: {i}");
        assert_eq!(a.intensity(a.end()), 0.0);
        assert_eq!(a.intensity(SimTime::ZERO), 0.0);
    }

    #[test]
    fn response_flag_flips_after_90_minutes() {
        let a = &AttackScript::paper_attacks()[0];
        assert!(!a.responded(a.start + SimDuration::from_mins(89)));
        assert!(a.responded(a.start + SimDuration::from_mins(90)));
    }
}

//! Session and authentication analyses (§7.3, Figs. 15–16).

use crate::engine::TraceFold;
use crate::stats::Ecdf;
use serde::Serialize;
use u1_core::{FxHashMap, FxHashSet, SimDuration, SimTime};
use u1_trace::{Payload, SessionEvent, TraceRecord};

/// Fig. 15: authentication and session-management activity.
#[derive(Debug, Serialize)]
pub struct AuthActivity {
    pub auth_per_hour: Vec<f64>,
    pub session_events_per_hour: Vec<f64>,
    pub auth_failure_fraction: f64,
    /// Day-vs-night swing of auth activity (mean central hours / mean night
    /// hours; the paper reports 50–60% higher by day).
    pub diurnal_swing: f64,
    /// Mean Monday activity over mean weekend activity (paper: ~15%).
    pub monday_over_weekend: f64,
}

/// Streaming state behind [`auth_activity`].
pub struct AuthActivityFold {
    horizon: SimTime,
    auth_bins: Vec<u64>,
    session_bins: Vec<u64>,
    auth_total: u64,
    auth_failed: u64,
}

impl AuthActivityFold {
    pub fn new(horizon: SimTime) -> Self {
        let bins = horizon
            .as_micros()
            .div_ceil(SimDuration::from_hours(1).as_micros()) as usize;
        Self {
            horizon,
            auth_bins: vec![0; bins.max(1)],
            session_bins: vec![0; bins.max(1)],
            auth_total: 0,
            auth_failed: 0,
        }
    }
}

impl TraceFold for AuthActivityFold {
    type Output = AuthActivity;

    fn new_partial(&self) -> Self {
        AuthActivityFold::new(self.horizon)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        match &rec.payload {
            Payload::Auth { success, .. } => {
                self.auth_total += 1;
                self.auth_failed += u64::from(!success);
                if rec.t < self.horizon {
                    self.auth_bins[rec.t.bin_index(SimDuration::from_hours(1)) as usize] += 1;
                }
            }
            Payload::Session { .. } if rec.t < self.horizon => {
                self.session_bins[rec.t.bin_index(SimDuration::from_hours(1)) as usize] += 1;
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        for (dst, src) in self.auth_bins.iter_mut().zip(later.auth_bins) {
            *dst += src;
        }
        for (dst, src) in self.session_bins.iter_mut().zip(later.session_bins) {
            *dst += src;
        }
        self.auth_total += later.auth_total;
        self.auth_failed += later.auth_failed;
    }

    fn finish(self) -> AuthActivity {
        let auth_per_hour: Vec<f64> = self.auth_bins.iter().map(|&c| c as f64).collect();
        let session_events_per_hour: Vec<f64> =
            self.session_bins.iter().map(|&c| c as f64).collect();
        // Day (10:00–16:00) vs night (00:00–05:00) means.
        let mut day = Vec::new();
        let mut night = Vec::new();
        let mut monday = Vec::new();
        let mut weekend = Vec::new();
        for (i, &v) in auth_per_hour.iter().enumerate() {
            let t = SimTime::from_hours(i as u64);
            match t.hour_of_day() {
                10..=16 => day.push(v),
                0..=5 => night.push(v),
                _ => {}
            }
            match t.day_of_week() {
                0 => monday.push(v),
                5 | 6 => weekend.push(v),
                _ => {}
            }
        }
        let ratio = |a: &[f64], b: &[f64]| {
            let (ma, mb) = (crate::stats::mean(a), crate::stats::mean(b));
            if mb > 0.0 {
                ma / mb
            } else {
                f64::NAN
            }
        };
        AuthActivity {
            diurnal_swing: ratio(&day, &night),
            monday_over_weekend: ratio(&monday, &weekend),
            auth_failure_fraction: if self.auth_total == 0 {
                0.0
            } else {
                self.auth_failed as f64 / self.auth_total as f64
            },
            auth_per_hour,
            session_events_per_hour,
        }
    }
}

pub fn auth_activity(records: &[TraceRecord], horizon: SimTime) -> AuthActivity {
    crate::engine::run_fold(AuthActivityFold::new(horizon), records)
}

/// Fig. 16: session lengths and per-session storage operations.
#[derive(Debug, Serialize)]
pub struct SessionAnalysis {
    /// Closed sessions (open→close observed).
    pub sessions: u64,
    pub lengths: Ecdf,
    pub active_lengths: Ecdf,
    /// Storage (data-management) operations per active session.
    pub ops_per_active_session: Ecdf,
    pub under_1s: f64,
    pub under_8h: f64,
    /// Fraction of sessions that performed any data management (paper:
    /// 5.57%).
    pub active_fraction: f64,
    /// 80th percentile of ops per active session (paper: 92).
    pub p80_ops: f64,
    /// Share of all data ops issued by the most active 20% of active
    /// sessions (paper: 96.7%).
    pub top20_op_share: f64,
}

/// Streaming state behind [`session_analysis`].
///
/// The serial pass classifies a session as *active* by looking up its data
/// op count at close time — and that count is never cleared, so it includes
/// ops from every record before the close, even a previous use of the same
/// session id. Replaying that across chunks needs:
/// * `pending_closes` — closes with no local open; they bind to an earlier
///   chunk's open at merge time, carrying the op count seen so far so the
///   activity check stays "ops strictly before the close".
/// * `inactive_closes` — closes already matched and counted, but classified
///   inactive using only local knowledge; an earlier chunk holding data ops
///   for that session upgrades them to active at merge time.
pub struct SessionFold {
    open_at: FxHashMap<u64, SimTime>,
    opened: FxHashSet<u64>,
    data_ops: FxHashMap<u64, u64>,
    lengths: Vec<f64>,
    active_lengths: Vec<f64>,
    closed: u64,
    closed_active: u64,
    pending_closes: Vec<(u64, SimTime, u64)>, // (session, close time, ops before)
    inactive_closes: Vec<(u64, f64)>,         // (session, length)
}

impl SessionFold {
    pub fn new() -> Self {
        Self {
            open_at: FxHashMap::default(),
            opened: FxHashSet::default(),
            data_ops: FxHashMap::default(),
            lengths: Vec::new(),
            active_lengths: Vec::new(),
            closed: 0,
            closed_active: 0,
            pending_closes: Vec::new(),
            inactive_closes: Vec::new(),
        }
    }

    fn record_close(&mut self, session: u64, len: f64, active: bool) {
        self.closed += 1;
        self.lengths.push(len);
        if active {
            self.closed_active += 1;
            self.active_lengths.push(len);
        } else {
            self.inactive_closes.push((session, len));
        }
    }
}

impl Default for SessionFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for SessionFold {
    type Output = SessionAnalysis;

    fn new_partial(&self) -> Self {
        SessionFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        match &rec.payload {
            Payload::Session {
                event: SessionEvent::Open,
                session,
                ..
            } => {
                self.open_at.insert(session.raw(), rec.t);
                self.opened.insert(session.raw());
            }
            Payload::Storage(done) if done.success && done.op.is_data_management() => {
                *self.data_ops.entry(done.session.raw()).or_default() += 1;
            }
            Payload::Session {
                event: SessionEvent::Close,
                session,
                ..
            } => {
                let s = session.raw();
                if let Some(t0) = self.open_at.remove(&s) {
                    let len = rec.t.since(t0).as_secs_f64();
                    let active = self.data_ops.contains_key(&s);
                    self.record_close(s, len, active);
                } else if !self.opened.contains(&s) {
                    // No open seen locally at all: may bind to an earlier
                    // chunk's open. Ops-before snapshot keeps the activity
                    // check restricted to records preceding this close.
                    let ops_before = self.data_ops.get(&s).copied().unwrap_or(0);
                    self.pending_closes.push((s, rec.t, ops_before));
                }
                // An open existed locally but was already consumed: the
                // serial pass drops such a close silently.
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        for (s, t_close, ops_before) in later.pending_closes {
            if let Some(t0) = self.open_at.remove(&s) {
                let len = t_close.since(t0).as_secs_f64();
                let active = ops_before > 0 || self.data_ops.contains_key(&s);
                self.record_close(s, len, active);
            } else if !self.opened.contains(&s) {
                let ops_here = self.data_ops.get(&s).copied().unwrap_or(0);
                self.pending_closes
                    .push((s, t_close, ops_before + ops_here));
            }
        }
        // Closes the later chunk classified inactive become active if this
        // (earlier) chunk saw data ops for the session.
        for (s, len) in later.inactive_closes {
            if self.data_ops.contains_key(&s) {
                self.closed_active += 1;
                self.active_lengths.push(len);
            } else {
                self.inactive_closes.push((s, len));
            }
        }
        // Later re-opens overwrite (lose) earlier unclosed opens.
        for s in &later.opened {
            self.open_at.remove(s);
        }
        self.opened.extend(later.opened);
        self.open_at.extend(later.open_at);
        for (s, c) in later.data_ops {
            *self.data_ops.entry(s).or_default() += c;
        }
        self.lengths.extend(later.lengths);
        self.active_lengths.extend(later.active_lengths);
        self.closed += later.closed;
        self.closed_active += later.closed_active;
    }

    fn finish(self) -> SessionAnalysis {
        // Pending closes that never found an open are dropped, as in the
        // serial pass.
        let closed = self.closed;
        let closed_active = self.closed_active;
        let lengths = Ecdf::new(self.lengths);
        let ops: Vec<f64> = self.data_ops.values().map(|&c| c as f64).collect();
        let ops_ecdf = Ecdf::new(ops.clone());
        let top20_share = {
            let mut sorted = ops;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let cut = (sorted.len() as f64 * 0.8) as usize;
            let total: f64 = sorted.iter().sum();
            if total > 0.0 {
                sorted[cut..].iter().sum::<f64>() / total
            } else {
                0.0
            }
        };
        SessionAnalysis {
            sessions: closed,
            under_1s: lengths.cdf(1.0),
            under_8h: lengths.cdf(8.0 * 3600.0),
            active_fraction: if closed == 0 {
                0.0
            } else {
                closed_active as f64 / closed as f64
            },
            p80_ops: ops_ecdf.quantile(0.8),
            top20_op_share: top20_share,
            lengths,
            active_lengths: Ecdf::new(self.active_lengths),
            ops_per_active_session: ops_ecdf,
        }
    }
}

pub fn session_analysis(records: &[TraceRecord]) -> SessionAnalysis {
    crate::engine::run_fold(SessionFold::new(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn session_lengths_and_activity_split() {
        let recs = vec![
            session_open(at(0), 1, 1),
            transfer(at(10), Upload, 1, 1, 1, 10, 1, "a"),
            session_close(at(100), 1, 1), // active, 100s
            session_open(at(0), 2, 2),
            session_close(at(50), 2, 2), // cold, 50s
            session_open(at(200), 3, 3), // never closes: not counted
        ];
        let s = session_analysis(&recs);
        assert_eq!(s.sessions, 2);
        assert!((s.active_fraction - 0.5).abs() < 1e-9);
        assert_eq!(s.lengths.len(), 2);
        assert_eq!(s.active_lengths.len(), 1);
        assert_eq!(s.active_lengths.max(), 100.0);
        assert_eq!(s.ops_per_active_session.max(), 1.0);
        assert_eq!(s.under_8h, 1.0);
    }

    #[test]
    fn sub_second_sessions_measured() {
        let recs = vec![
            session_open(SimTime::from_micros(0), 1, 1),
            session_close(SimTime::from_micros(300_000), 1, 1), // 0.3s
            session_open(at(10), 2, 2),
            session_close(at(20), 2, 2),
        ];
        let s = session_analysis(&recs);
        assert!((s.under_1s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn chunked_sessions_match_serial_at_every_split() {
        // Covers: boundary-spanning session, op-before-close in a different
        // chunk, session-id reuse inheriting activity, double close.
        let recs = vec![
            session_open(at(0), 1, 1),
            transfer(at(10), Upload, 1, 1, 1, 10, 1, "a"),
            session_open(at(20), 2, 2),
            session_close(at(100), 1, 1),
            session_close(at(110), 2, 2), // cold close
            session_open(at(120), 1, 1),  // reuse id 1: inherits data ops
            session_close(at(130), 1, 1), // active via stale count
            session_close(at(140), 1, 1), // double close: dropped
        ];
        let serial = session_analysis(&recs);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = crate::engine::run_chunks(SessionFold::new(), &[a, b]);
            assert_eq!(got.sessions, serial.sessions, "split={split}");
            assert_eq!(
                serde_json::to_value(&got),
                serde_json::to_value(&serial),
                "split={split}"
            );
        }
    }

    #[test]
    fn auth_activity_counts_failures_and_swing() {
        let mut recs = Vec::new();
        // Day 2 (Monday), hour 12: busy. Day 2, hour 3: quiet.
        for i in 0..60u64 {
            recs.push(auth(
                SimTime::from_hours(2 * 24 + 12) + SimDuration::from_secs(i),
                i,
                i % 50 != 0,
            ));
        }
        for i in 0..10u64 {
            recs.push(auth(
                SimTime::from_hours(2 * 24 + 3) + SimDuration::from_secs(i),
                i,
                true,
            ));
        }
        let horizon = SimTime::from_days(3);
        let a = auth_activity(&recs, horizon);
        assert!(a.diurnal_swing > 2.0, "swing {}", a.diurnal_swing);
        assert!((a.auth_failure_fraction - 2.0 / 70.0).abs() < 1e-9);
        assert_eq!(a.auth_per_hour.iter().sum::<f64>() as u64, 70);
    }

    #[test]
    fn top20_share_with_heavy_tail() {
        let mut recs = Vec::new();
        // 10 sessions: 9 with 1 op, 1 with 991 ops.
        for s in 1..=10u64 {
            recs.push(session_open(at(s), s, s));
            let ops = if s == 10 { 991 } else { 1 };
            for k in 0..ops {
                recs.push(transfer(at(s * 100 + k), Upload, s, s, k, 1, k, "a"));
            }
            recs.push(session_close(at(s * 100 + 2000), s, s));
        }
        let mut sorted = recs;
        sorted.sort_by_key(|r| r.t);
        let s = session_analysis(&sorted);
        assert!(s.top20_op_share > 0.95, "share {}", s.top20_op_share);
        assert_eq!(s.active_fraction, 1.0);
    }
}

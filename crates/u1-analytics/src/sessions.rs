//! Session and authentication analyses (§7.3, Figs. 15–16).

use crate::stats::{secs, Ecdf};
use crate::timeseries::{column, Hour};
use serde::Serialize;
use std::ops::IndexMut;
use u1_core::SimTime;

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

/// Fig. 15 from the hourly auth and session counts and the auth totals.
pub(crate) fn auth_activity_of(hours: &[Hour], total: u64, failed: u64) -> AuthActivity {
    let auth_per_hour = column(hours, |h| h.auth);
    let session_events_per_hour = column(hours, |h| h.session);
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
        auth_failure_fraction: if total == 0 {
            0.0
        } else {
            failed as f64 / total as f64
        },
        auth_per_hour,
        session_events_per_hour,
    }
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

/// Fig. 16 from the closed sessions' lengths (microseconds), those of the
/// active ones, and every session's data-op count.
pub(crate) fn session_analysis_of(
    lengths: Vec<u64>,
    active_lengths: Vec<u64>,
    data_ops: impl Iterator<Item = u64>,
) -> SessionAnalysis {
    let closed = lengths.len() as u64;
    let lengths = Ecdf::from_ints(lengths, secs);
    let active_lengths = Ecdf::from_ints(active_lengths, secs);
    let ops = Ecdf::from_ints(data_ops.filter(|&c| c > 0).collect(), |c| c as f64);
    let top20_share = {
        let sorted = ops.samples();
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
            active_lengths.len() as f64 / closed as f64
        },
        p80_ops: ops.quantile(0.8),
        top20_op_share: top20_share,
        lengths,
        active_lengths,
        ops_per_active_session: ops,
    }
}

/// One session id's state within one chunk of the trace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionRow {
    /// The user slot and time of the open not yet closed.
    pub open: Option<(u32, SimTime)>,
    /// Whether this chunk saw an open of the id at all.
    pub opened: bool,
    /// Successful data-management ops under the id so far; never cleared.
    pub data_ops: u64,
}

/// A close that saw no open in its chunk: it may pair with an earlier
/// chunk's open at merge. `ops_before` keeps the activity check to the ops
/// that preceded the close.
#[derive(Debug, Clone, Copy)]
struct PendingClose {
    session: u32,
    user: u32,
    t: SimTime,
    ops_before: u64,
}

/// Session pairing for Fig. 16 and for Fig. 6's online hours, over the
/// battery's session rows. Besides the lengths, a chunk keeps what its
/// merge needs:
/// * `pending` — closes with no open in the chunk;
/// * `inactive` — closes matched here but classified inactive on local
///   knowledge alone; an earlier chunk with data ops for the session
///   upgrades them at merge.
#[derive(Debug, Default)]
pub(crate) struct SessionLog {
    lengths: Vec<u64>,
    active_lengths: Vec<u64>,
    pending: Vec<PendingClose>,
    inactive: Vec<(u32, u64)>,
}

impl SessionLog {
    fn closed(&mut self, session: u32, len: u64, active: bool) {
        self.lengths.push(len);
        if active {
            self.active_lengths.push(len);
        } else {
            self.inactive.push((session, len));
        }
    }

    /// A close of session slot `session` by `user` at `t`. Returns the user
    /// and start of the online span it ends, if it is known yet: the
    /// paired open's, or — the open having been consumed already — the
    /// close's own instant.
    pub(crate) fn close(
        &mut self,
        session: u32,
        row: &mut SessionRow,
        user: u32,
        t: SimTime,
    ) -> Option<(u32, SimTime)> {
        if let Some((u, from)) = row.open.take() {
            self.closed(session, t.since(from).as_micros(), row.data_ops > 0);
            Some((u, from))
        } else if row.opened {
            Some((user, t))
        } else {
            self.pending.push(PendingClose {
                session,
                user,
                t,
                ops_before: row.data_ops,
            });
            None
        }
    }

    /// Appends the chunk after this one. `rows` are this chunk's session
    /// rows, `later_rows` the later chunk's, whose slot `i` is
    /// `session_slot[i]` here; its user slots map through `user_slot`.
    /// Online spans found on the way go to `online`.
    pub(crate) fn merge(
        &mut self,
        later: SessionLog,
        rows: &mut impl IndexMut<usize, Output = SessionRow>,
        later_rows: impl IntoIterator<Item = SessionRow>,
        (session_slot, user_slot): (&[u32], &[u32]),
        mut online: impl FnMut(u32, SimTime, SimTime),
    ) {
        // Closes that found no open in the later chunk bind here, in order.
        for p in later.pending {
            let session = session_slot[p.session as usize];
            let user = user_slot[p.user as usize];
            let row = &mut rows[session as usize];
            if let Some((u, from)) = row.open.take() {
                let active = p.ops_before > 0 || row.data_ops > 0;
                self.closed(session, p.t.since(from).as_micros(), active);
                online(u, from, p.t);
            } else if row.opened {
                online(user, p.t, p.t);
            } else {
                self.pending.push(PendingClose {
                    session,
                    user,
                    ops_before: p.ops_before + row.data_ops,
                    ..p
                });
            }
        }
        // Closes the later chunk classified inactive become active if this
        // chunk saw data ops for the session.
        for (s, len) in later.inactive {
            let s = session_slot[s as usize];
            if rows[s as usize].data_ops > 0 {
                self.active_lengths.push(len);
            } else {
                self.inactive.push((s, len));
            }
        }
        // A later open replaces (loses) an earlier unclosed one.
        for (theirs, &s) in later_rows.into_iter().zip(session_slot) {
            let mine = &mut rows[s as usize];
            if theirs.opened {
                mine.open = theirs.open.map(|(u, t)| (user_slot[u as usize], t));
            }
            mine.opened |= theirs.opened;
            mine.data_ops += theirs.data_ops;
        }
        self.lengths.extend(later.lengths);
        self.active_lengths.extend(later.active_lengths);
    }

    /// Finishes Fig. 16, sending Fig. 6 the online spans still open: a
    /// close that never found an open marks its own instant, and an open
    /// never closed stays online to the end of the trace.
    pub(crate) fn finish<'a>(
        self,
        rows: impl Iterator<Item = &'a SessionRow> + Clone,
        end: SimTime,
        mut online: impl FnMut(u32, SimTime, SimTime),
    ) -> SessionAnalysis {
        for p in &self.pending {
            online(p.user, p.t, p.t);
        }
        for (u, from) in rows.clone().filter_map(|row| row.open) {
            online(u, from, end);
        }
        session_analysis_of(
            self.lengths,
            self.active_lengths,
            rows.map(|row| row.data_ops),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;
    use u1_core::SimDuration;

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
        let s = chunked(&[&recs], at(3600)).sessions;
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
        let s = chunked(&[&recs], at(3600)).sessions;
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
        let serial = chunked(&[&recs], at(3600)).sessions;
        // Sessions 1 (100 s, active), 2 (90 s, cold) and 1 again (10 s,
        // active through the inherited count).
        assert_eq!(serial.lengths.samples(), [10.0, 90.0, 100.0]);
        assert_eq!(serial.active_lengths.samples(), [10.0, 100.0]);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], at(3600)).sessions;
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
        let a = chunked(&[&recs], horizon).auth;
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
        let s = chunked(&[&sorted], at(3600)).sessions;
        assert!(s.top20_op_share > 0.95, "share {}", s.top20_op_share);
        assert_eq!(s.active_fraction, 1.0);
    }
}

//! Time-binned request and traffic series (Figs. 2(a), 5, 6, 15).

use crate::engine::TraceFold;
use serde::Serialize;
use u1_core::{ApiOpKind, FxHashMap, FxHashSet, SimDuration, SimTime};
use u1_trace::{Payload, SessionEvent, StorageDone, TraceRecord};

/// Fig. 2(a): upload/download GBytes per hour.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficSeries {
    pub upload_bytes: Vec<f64>,
    pub download_bytes: Vec<f64>,
}

/// Streaming state behind [`traffic_per_hour`]. Bins accumulate as `u64`
/// (sizes are integers), so chunk merges add exactly; per-hour sums stay far
/// below 2^53, so the f64 conversion at [`TraceFold::finish`] is exact.
pub struct TrafficFold {
    horizon: SimTime,
    upload: Vec<u64>,
    download: Vec<u64>,
}

pub(crate) fn hour_bins(horizon: SimTime) -> usize {
    let bins = horizon
        .as_micros()
        .div_ceil(SimDuration::from_hours(1).as_micros()) as usize;
    bins.max(1)
}

impl TrafficFold {
    pub fn new(horizon: SimTime) -> Self {
        let bins = hour_bins(horizon);
        Self {
            horizon,
            upload: vec![0; bins],
            download: vec![0; bins],
        }
    }
}

impl TraceFold for TrafficFold {
    type Output = TrafficSeries;

    fn new_partial(&self) -> Self {
        TrafficFold::new(self.horizon)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if rec.t >= self.horizon {
            return;
        }
        if let Some(StorageDone {
            op,
            success: true,
            size,
            ..
        }) = rec.payload.storage()
        {
            let i = rec.t.bin_index(SimDuration::from_hours(1)) as usize;
            match op {
                ApiOpKind::Upload => self.upload[i] += size,
                ApiOpKind::Download => self.download[i] += size,
                _ => {}
            }
        }
    }

    fn merge(&mut self, later: Self) {
        for (dst, src) in self.upload.iter_mut().zip(later.upload) {
            *dst += src;
        }
        for (dst, src) in self.download.iter_mut().zip(later.download) {
            *dst += src;
        }
    }

    fn finish(self) -> TrafficSeries {
        TrafficSeries {
            upload_bytes: self.upload.into_iter().map(|b| b as f64).collect(),
            download_bytes: self.download.into_iter().map(|b| b as f64).collect(),
        }
    }
}

pub fn traffic_per_hour(records: &[TraceRecord], horizon: SimTime) -> TrafficSeries {
    crate::engine::run_fold(TrafficFold::new(horizon), records)
}

/// Fig. 5 / Fig. 15 request families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestFamily {
    Session,
    Auth,
    Storage,
    Rpc,
}

/// Streaming state behind [`requests_per_hour`].
pub struct RequestsFold {
    horizon: SimTime,
    family: RequestFamily,
    bins: Vec<u64>,
}

impl RequestsFold {
    pub fn new(horizon: SimTime, family: RequestFamily) -> Self {
        Self {
            horizon,
            family,
            bins: vec![0; hour_bins(horizon)],
        }
    }
}

impl TraceFold for RequestsFold {
    type Output = Vec<f64>;

    fn new_partial(&self) -> Self {
        RequestsFold::new(self.horizon, self.family)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        if rec.t >= self.horizon {
            return;
        }
        let matched = matches!(
            (&rec.payload, self.family),
            (Payload::Session { .. }, RequestFamily::Session)
                | (Payload::Auth { .. }, RequestFamily::Auth)
                | (Payload::Storage(_), RequestFamily::Storage)
                | (Payload::Rpc { .. }, RequestFamily::Rpc)
        );
        if matched {
            self.bins[rec.t.bin_index(SimDuration::from_hours(1)) as usize] += 1;
        }
    }

    fn merge(&mut self, later: Self) {
        for (dst, src) in self.bins.iter_mut().zip(later.bins) {
            *dst += src;
        }
    }

    fn finish(self) -> Vec<f64> {
        self.bins.into_iter().map(|c| c as f64).collect()
    }
}

/// Requests per hour for one family.
pub fn requests_per_hour(
    records: &[TraceRecord],
    horizon: SimTime,
    family: RequestFamily,
) -> Vec<f64> {
    crate::engine::run_fold(RequestsFold::new(horizon, family), records)
}

/// Fig. 6: online vs active users per hour. A user is *online* in an hour
/// if one of their sessions overlaps it; *active* if they issued a
/// data-management operation in it (§6.1's definitions).
#[derive(Debug, Clone, Serialize)]
pub struct OnlineActiveSeries {
    pub online: Vec<u64>,
    pub active: Vec<u64>,
}

/// Streaming state behind [`online_active_per_hour`].
///
/// Sessions may span chunk boundaries, so a partial keeps three pieces of
/// boundary state besides its hour-bin user sets:
/// * `open_at` — sessions opened here and not yet closed,
/// * `opened` — every session that was EVER opened in this partial. A later
///   `Open` for the same id overwrites (loses) an earlier unclosed open in
///   the serial pass, and a `Close` that arrives after a local open existed
///   must take the serial code's fallback arm rather than bind an even
///   earlier chunk's open — both checks need the full open history.
/// * `pending_closes` — closes that saw no local open at all; they bind to
///   an earlier chunk's `open_at` at merge time, in order.
pub struct OnlineActiveFold {
    horizon: SimTime,
    bins: usize,
    online: Vec<FxHashSet<u64>>,
    active: Vec<FxHashSet<u64>>,
    open_at: FxHashMap<u64, (u64, SimTime)>, // session -> (user, open time)
    opened: FxHashSet<u64>,
    pending_closes: Vec<(u64, u64, SimTime)>, // (session, close user, close time)
}

impl OnlineActiveFold {
    pub fn new(horizon: SimTime) -> Self {
        let bins = horizon
            .as_micros()
            .div_ceil(SimDuration::from_hours(1).as_micros()) as usize;
        Self {
            horizon,
            bins,
            online: vec![FxHashSet::default(); bins.max(1)],
            active: vec![FxHashSet::default(); bins.max(1)],
            open_at: FxHashMap::default(),
            opened: FxHashSet::default(),
            pending_closes: Vec::new(),
        }
    }

    fn mark_online(&mut self, user: u64, from: SimTime, to: SimTime) {
        let hour = SimDuration::from_hours(1);
        let first = from.bin_index(hour) as usize;
        let last = (to.bin_index(hour) as usize).min(self.bins.saturating_sub(1));
        for slot in self.online.iter_mut().take(last + 1).skip(first) {
            slot.insert(user);
        }
    }
}

impl TraceFold for OnlineActiveFold {
    type Output = OnlineActiveSeries;

    fn new_partial(&self) -> Self {
        OnlineActiveFold::new(self.horizon)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        match &rec.payload {
            Payload::Session {
                event: SessionEvent::Open,
                session,
                user,
            } => {
                self.open_at.insert(session.raw(), (user.raw(), rec.t));
                self.opened.insert(session.raw());
            }
            Payload::Session {
                event: SessionEvent::Close,
                session,
                user,
            } => {
                if let Some((u, from)) = self.open_at.remove(&session.raw()) {
                    self.mark_online(u, from, rec.t.min(self.horizon));
                } else if self.opened.contains(&session.raw()) {
                    // The open this close pairs with was already consumed
                    // locally: the serial pass falls back to a point mark.
                    self.mark_online(user.raw(), rec.t, rec.t.min(self.horizon));
                } else {
                    self.pending_closes.push((session.raw(), user.raw(), rec.t));
                }
            }
            Payload::Storage(done)
                if done.success && done.op.is_data_management() && rec.t < self.horizon =>
            {
                self.active[rec.t.bin_index(SimDuration::from_hours(1)) as usize]
                    .insert(done.user.raw());
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        let horizon = self.horizon;
        // Closes that found no open in the later chunk bind here, in order.
        for (session, user, t) in later.pending_closes {
            if let Some((u, from)) = self.open_at.remove(&session) {
                self.mark_online(u, from, t.min(horizon));
            } else if self.opened.contains(&session) {
                self.mark_online(user, t, t.min(horizon));
            } else {
                self.pending_closes.push((session, user, t));
            }
        }
        // Any session re-opened later overwrites (loses) an unclosed earlier
        // open, exactly as the serial `open_at.insert` would.
        for session in &later.opened {
            self.open_at.remove(session);
        }
        self.opened.extend(later.opened);
        self.open_at.extend(later.open_at);
        for (dst, src) in self.online.iter_mut().zip(later.online) {
            dst.extend(src);
        }
        for (dst, src) in self.active.iter_mut().zip(later.active) {
            dst.extend(src);
        }
    }

    fn finish(mut self) -> OnlineActiveSeries {
        let horizon = self.horizon;
        // Closes that never found an open anywhere: serial fallback arm.
        for (_, user, t) in std::mem::take(&mut self.pending_closes) {
            self.mark_online(user, t, t.min(horizon));
        }
        // Sessions still open at the end of the trace were online until then.
        let end = SimTime::from_micros(horizon.as_micros().saturating_sub(1));
        for (_, (u, from)) in std::mem::take(&mut self.open_at) {
            self.mark_online(u, from, end);
        }
        OnlineActiveSeries {
            online: self.online.into_iter().map(|s| s.len() as u64).collect(),
            active: self.active.into_iter().map(|s| s.len() as u64).collect(),
        }
    }
}

pub fn online_active_per_hour(records: &[TraceRecord], horizon: SimTime) -> OnlineActiveSeries {
    crate::engine::run_fold(OnlineActiveFold::new(horizon), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn traffic_bins_by_hour() {
        let recs = vec![
            transfer(at(100), Upload, 1, 1, 1, 1000, 1, "txt"),
            transfer(at(200), Download, 1, 1, 1, 500, 1, "txt"),
            transfer(at(3700), Upload, 1, 1, 2, 2000, 2, "txt"),
        ];
        let ts = traffic_per_hour(&recs, SimTime::from_hours(2));
        assert_eq!(ts.upload_bytes, vec![1000.0, 2000.0]);
        assert_eq!(ts.download_bytes, vec![500.0, 0.0]);
    }

    #[test]
    fn failed_transfers_do_not_count() {
        let mut rec = transfer(at(1), Upload, 1, 1, 1, 1000, 1, "txt");
        if let u1_trace::Payload::Storage(done) = &mut rec.payload {
            done.success = false;
        }
        let ts = traffic_per_hour(&[rec], SimTime::from_hours(1));
        assert_eq!(ts.upload_bytes, vec![0.0]);
    }

    #[test]
    fn request_families_are_disjoint() {
        let recs = vec![
            session_open(at(10), 1, 1),
            auth(at(11), 1, true),
            op(at(12), ListVolumes, 1, 1),
            rpc_on(at(13), 0, 0, u1_core::RpcKind::GetNode, 1, 0, 100),
        ];
        let horizon = SimTime::from_hours(1);
        for (family, expected) in [
            (RequestFamily::Session, 1.0),
            (RequestFamily::Auth, 1.0),
            (RequestFamily::Storage, 1.0),
            (RequestFamily::Rpc, 1.0),
        ] {
            assert_eq!(requests_per_hour(&recs, horizon, family), vec![expected]);
        }
    }

    #[test]
    fn online_spans_session_interval_active_needs_data_ops() {
        let recs = vec![
            session_open(at(10), 1, 7),
            // ListVolumes is not data management: user online, not active.
            op(at(20), ListVolumes, 1, 7),
            // Upload in hour 1 makes the user active there.
            transfer(at(3800), Upload, 1, 7, 1, 10, 1, "txt"),
            session_close(at(2 * 3600 + 30), 1, 7),
        ];
        let series = online_active_per_hour(&recs, SimTime::from_hours(3));
        assert_eq!(series.online, vec![1, 1, 1]);
        assert_eq!(series.active, vec![0, 1, 0]);
    }

    #[test]
    fn unclosed_sessions_count_online_to_the_end() {
        let recs = vec![session_open(at(10), 1, 7)];
        let series = online_active_per_hour(&recs, SimTime::from_hours(2));
        assert_eq!(series.online, vec![1, 1]);
    }

    #[test]
    fn chunked_online_active_handles_boundary_sessions() {
        // Session spans the chunk boundary; a re-open overwrites; a stray
        // close takes the fallback arm. Every split must equal serial.
        let recs = vec![
            session_open(at(10), 1, 7),
            session_open(at(20), 2, 8),
            session_close(at(3700), 1, 7),
            session_open(at(3800), 2, 8), // overwrites session 2's open
            session_close(at(7300), 2, 8),
            session_close(at(7400), 3, 9), // never opened: fallback
        ];
        let horizon = SimTime::from_hours(4);
        let serial = online_active_per_hour(&recs, horizon);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let chunks = [a, b];
            let got = crate::engine::run_chunks(OnlineActiveFold::new(horizon), &chunks);
            assert_eq!(got.online, serial.online, "split={split}");
            assert_eq!(got.active, serial.active, "split={split}");
        }
    }
}

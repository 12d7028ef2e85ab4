//! Time-binned request and traffic series (Figs. 2(a), 5, 6, 15).

use serde::Serialize;
use u1_core::{ApiOpKind, SimDuration, SimTime};

/// Fig. 2(a): upload/download GBytes per hour.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficSeries {
    pub upload_bytes: Vec<f64>,
    pub download_bytes: Vec<f64>,
}

/// Hour bins covering `[0, horizon)`, at least one.
pub(crate) fn hour_bins(horizon: SimTime) -> usize {
    let bins = horizon
        .as_micros()
        .div_ceil(SimDuration::from_hours(1).as_micros()) as usize;
    bins.max(1)
}

/// The hour bin `t` falls into.
pub(crate) fn hour_of(t: SimTime) -> usize {
    t.bin_index(SimDuration::from_hours(1)) as usize
}

/// The per-hour counts behind the hourly series of Figs. 2(a), 5 and 15:
/// integers, so chunk merges add exactly, and far below 2^53, so the `f64`
/// conversion at finish is exact.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hour {
    pub session: u64,
    pub auth: u64,
    pub storage: u64,
    pub up: u64,
    pub down: u64,
}

impl Hour {
    pub(crate) fn add(&mut self, later: &Hour) {
        self.session += later.session;
        self.auth += later.auth;
        self.storage += later.storage;
        self.up += later.up;
        self.down += later.down;
    }

    /// Adds one successful transfer's bytes.
    pub(crate) fn add_transfer(&mut self, op: ApiOpKind, size: u64) {
        match op {
            ApiOpKind::Upload => self.up += size,
            ApiOpKind::Download => self.down += size,
            _ => {}
        }
    }
}

/// One count of every hour, as `f64`.
pub(crate) fn column(hours: &[Hour], count: impl Fn(&Hour) -> u64) -> Vec<f64> {
    hours.iter().map(|h| count(h) as f64).collect()
}

impl TrafficSeries {
    pub(crate) fn of(hours: &[Hour]) -> Self {
        TrafficSeries {
            upload_bytes: column(hours, |h| h.up),
            download_bytes: column(hours, |h| h.down),
        }
    }
}

/// Fig. 6: online vs active users per hour. A user is *online* in an hour
/// if one of their sessions overlaps it; *active* if they issued a
/// data-management operation in it (§6.1's definitions).
#[derive(Debug, Clone, Serialize)]
pub struct OnlineActiveSeries {
    pub online: Vec<u64>,
    pub active: Vec<u64>,
}

/// The hours a session online from `from` to `to` overlaps, clamped to the
/// `bins` hours of the trace.
fn span(from: SimTime, to: SimTime, bins: usize) -> std::ops::Range<usize> {
    hour_of(from)..hour_of(to).min(bins - 1) + 1
}

/// The end of the trace, where sessions still open count online until.
pub(crate) fn last_instant(horizon: SimTime) -> SimTime {
    SimTime::from_micros(horizon.as_micros().saturating_sub(1))
}

/// The battery's form of Fig. 6's per-hour user sets: one bit per hour in
/// a row per user slot, for online and for active. Marking is a bit-or,
/// merging is a row-wise or, and the per-hour counts come out at finish.
pub(crate) struct UserHours {
    bins: usize,
    words: usize,
    online: Vec<u64>,
    active: Vec<u64>,
}

impl UserHours {
    pub(crate) fn new(horizon: SimTime) -> Self {
        let bins = hour_bins(horizon);
        Self {
            bins,
            words: bins.div_ceil(64),
            online: Vec::new(),
            active: Vec::new(),
        }
    }

    /// `user`'s row of `bits`, grown to hold it.
    fn row(bits: &mut Vec<u64>, words: usize, user: usize) -> &mut [u64] {
        let end = (user + 1) * words;
        if bits.len() < end {
            bits.resize(end, 0);
        }
        &mut bits[end - words..end]
    }

    /// `user` was online from `from` to `to`.
    pub(crate) fn online(&mut self, user: usize, from: SimTime, to: SimTime) {
        let row = Self::row(&mut self.online, self.words, user);
        for h in span(from, to, self.bins) {
            row[h / 64] |= 1 << (h % 64);
        }
    }

    /// `user` issued a data-management op in hour `h`.
    pub(crate) fn active(&mut self, user: usize, h: usize) {
        Self::row(&mut self.active, self.words, user)[h / 64] |= 1 << (h % 64);
    }

    /// Ors in the chunk after this one, whose user slot `i` is `slot[i]`
    /// here.
    pub(crate) fn merge(&mut self, later: UserHours, slot: &[u32]) {
        for (mine, theirs) in [
            (&mut self.online, later.online),
            (&mut self.active, later.active),
        ] {
            for (user, row) in theirs.chunks(self.words).enumerate() {
                let dst = Self::row(mine, self.words, slot[user] as usize);
                for (d, s) in dst.iter_mut().zip(row) {
                    *d |= s;
                }
            }
        }
    }

    pub(crate) fn finish(self) -> OnlineActiveSeries {
        let count = |bits: &[u64]| {
            let mut per_hour = vec![0u64; self.bins];
            for row in bits.chunks(self.words) {
                for (w, &word) in row.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        per_hour[w * 64 + word.trailing_zeros() as usize] += 1;
                        word &= word - 1;
                    }
                }
            }
            per_hour
        };
        OnlineActiveSeries {
            online: count(&self.online),
            active: count(&self.active),
        }
    }
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
        let ts = chunked(&[&recs], SimTime::from_hours(2)).traffic;
        assert_eq!(ts.upload_bytes, vec![1000.0, 2000.0]);
        assert_eq!(ts.download_bytes, vec![500.0, 0.0]);
    }

    #[test]
    fn failed_transfers_do_not_count() {
        let mut rec = transfer(at(1), Upload, 1, 1, 1, 1000, 1, "txt");
        if let u1_trace::Payload::Storage(done) = &mut rec.payload {
            done.success = false;
        }
        let ts = chunked(&[&[rec]], SimTime::from_hours(1)).traffic;
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
        let ddos = chunked(&[&recs], SimTime::from_hours(1)).ddos;
        assert_eq!(ddos.session_per_hour, vec![1.0]);
        assert_eq!(ddos.auth_per_hour, vec![1.0]);
        assert_eq!(ddos.storage_per_hour, vec![1.0]);
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
        let series = chunked(&[&recs], SimTime::from_hours(3)).online_active;
        assert_eq!(series.online, vec![1, 1, 1]);
        assert_eq!(series.active, vec![0, 1, 0]);
    }

    #[test]
    fn unclosed_sessions_count_online_to_the_end() {
        let recs = vec![session_open(at(10), 1, 7)];
        let series = chunked(&[&recs], SimTime::from_hours(2)).online_active;
        assert_eq!(series.online, vec![1, 1]);
    }

    #[test]
    fn chunked_online_active_handles_boundary_sessions() {
        // Session spans the chunk boundary; a re-open overwrites; a stray
        // close takes the fallback arm. Every split must equal one chunk.
        let recs = vec![
            session_open(at(10), 1, 7),
            session_open(at(20), 2, 8),
            session_close(at(3700), 1, 7),
            session_open(at(3800), 2, 8), // overwrites session 2's open
            session_close(at(7300), 2, 8),
            session_close(at(7400), 3, 9), // never opened: fallback
        ];
        let horizon = SimTime::from_hours(4);
        let serial = chunked(&[&recs], horizon).online_active;
        assert_eq!(serial.online, vec![1, 2, 2, 0]);
        assert_eq!(serial.active, vec![0, 0, 0, 0]);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let chunks = [a, b];
            let got = chunked(&chunks, horizon).online_active;
            assert_eq!(got.online, serial.online, "split={split}");
            assert_eq!(got.active, serial.active, "split={split}");
        }
    }
}

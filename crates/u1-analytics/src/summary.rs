//! Table 3 (trace summary) and the Table 1 findings check.

use crate::engine::TraceFold;
use serde::Serialize;
use u1_core::{ApiOpKind, FxHashSet, SimTime};
use u1_trace::{Payload, SessionEvent, TraceRecord};

/// Table 3: "Summary of the trace".
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TraceSummary {
    pub trace_days: u64,
    pub records: u64,
    pub unique_users: u64,
    pub unique_files: u64,
    pub sessions: u64,
    pub transfer_ops: u64,
    pub upload_bytes: u64,
    pub download_bytes: u64,
}

/// Streaming state behind [`trace_summary`]. The user/file id sets are
/// `FxHashSet` — pure u64 membership dominates this pass and SipHash was
/// the bottleneck.
pub struct SummaryFold {
    horizon: SimTime,
    records: u64,
    users: FxHashSet<u64>,
    files: FxHashSet<u64>,
    sessions: u64,
    transfer_ops: u64,
    upload_bytes: u64,
    download_bytes: u64,
}

impl SummaryFold {
    pub fn new(horizon: SimTime) -> Self {
        Self {
            horizon,
            records: 0,
            users: FxHashSet::default(),
            files: FxHashSet::default(),
            sessions: 0,
            transfer_ops: 0,
            upload_bytes: 0,
            download_bytes: 0,
        }
    }
}

impl TraceFold for SummaryFold {
    type Output = TraceSummary;

    fn new_partial(&self) -> Self {
        SummaryFold::new(self.horizon)
    }

    fn feed(&mut self, rec: &TraceRecord) {
        self.records += 1;
        self.users.insert(rec.payload.user().raw());
        match &rec.payload {
            Payload::Session {
                event: SessionEvent::Open,
                ..
            } => self.sessions += 1,
            Payload::Storage(done) if done.success => {
                if let Some(n) = done.node {
                    self.files.insert(n.raw());
                }
                match done.op {
                    ApiOpKind::Upload => {
                        self.transfer_ops += 1;
                        self.upload_bytes += done.size;
                    }
                    ApiOpKind::Download => {
                        self.transfer_ops += 1;
                        self.download_bytes += done.size;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, later: Self) {
        self.records += later.records;
        self.users.extend(later.users);
        self.files.extend(later.files);
        self.sessions += later.sessions;
        self.transfer_ops += later.transfer_ops;
        self.upload_bytes += later.upload_bytes;
        self.download_bytes += later.download_bytes;
    }

    fn finish(self) -> TraceSummary {
        TraceSummary {
            trace_days: self.horizon.day_index(),
            records: self.records,
            unique_users: self.users.len() as u64,
            unique_files: self.files.len() as u64,
            sessions: self.sessions,
            transfer_ops: self.transfer_ops,
            upload_bytes: self.upload_bytes,
            download_bytes: self.download_bytes,
        }
    }
}

pub fn trace_summary(records: &[TraceRecord], horizon: SimTime) -> TraceSummary {
    crate::engine::run_fold(SummaryFold::new(horizon), records)
}

/// One Table 1 finding with the paper's value and ours.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    pub id: &'static str,
    pub statement: &'static str,
    pub paper_value: f64,
    pub measured: f64,
    /// Acceptable relative band for "shape holds".
    pub tolerance: f64,
}

impl Finding {
    pub fn holds(&self) -> bool {
        // A zero paper value makes the relative band meaningless; compare
        // absolutely instead (without a float `==`, per U1L005).
        if self.paper_value.abs() < f64::EPSILON {
            return self.measured.abs() <= self.tolerance;
        }
        let rel = (self.measured - self.paper_value).abs() / self.paper_value.abs();
        rel <= self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn summary_counts_the_basics() {
        let recs = vec![
            session_open(at(1), 1, 1),
            transfer(at(2), Upload, 1, 1, 10, 100, 1, "a"),
            transfer(at(3), Download, 1, 1, 10, 100, 1, "a"),
            transfer(at(4), Upload, 1, 2, 11, 50, 2, "a"),
            session_close(at(5), 1, 1),
        ];
        let s = trace_summary(&recs, SimTime::from_days(30));
        assert_eq!(s.trace_days, 30);
        assert_eq!(s.unique_users, 2);
        assert_eq!(s.unique_files, 2);
        assert_eq!(s.sessions, 1);
        assert_eq!(s.transfer_ops, 3);
        assert_eq!(s.upload_bytes, 150);
        assert_eq!(s.download_bytes, 100);
    }

    #[test]
    fn finding_tolerance_logic() {
        let f = Finding {
            id: "x",
            statement: "s",
            paper_value: 0.171,
            measured: 0.19,
            tolerance: 0.3,
        };
        assert!(f.holds());
        let f = Finding { measured: 0.4, ..f };
        assert!(!f.holds());
    }
}

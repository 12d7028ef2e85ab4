//! Table 3 (trace summary) and the Table 1 findings check.

use serde::Serialize;
use u1_core::ApiOpKind;

/// Table 3: "Summary of the trace".
#[derive(Debug, Clone, Default, Serialize, PartialEq)]
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

impl TraceSummary {
    /// Counts one successful storage op, if it moved file contents.
    pub(crate) fn add_transfer(&mut self, op: ApiOpKind, size: u64) {
        match op {
            ApiOpKind::Upload => self.upload_bytes += size,
            ApiOpKind::Download => self.download_bytes += size,
            _ => return,
        }
        self.transfer_ops += 1;
    }

    /// Adds the counts of the chunk after this one. The distinct-id counts
    /// are not additive; the battery sets them from its tables at finish.
    pub(crate) fn merge(&mut self, later: &TraceSummary) {
        self.records += later.records;
        self.sessions += later.sessions;
        self.transfer_ops += later.transfer_ops;
        self.upload_bytes += later.upload_bytes;
        self.download_bytes += later.download_bytes;
    }
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
        // absolutely instead. The test is `< EPSILON`, not `== 0.0`, so a
        // paper value that is zero only after rounding counts as zero too.
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
    use u1_core::SimTime;

    #[test]
    fn summary_counts_the_basics() {
        let recs = vec![
            session_open(at(1), 1, 1),
            transfer(at(2), Upload, 1, 1, 10, 100, 1, "a"),
            transfer(at(3), Download, 1, 1, 10, 100, 1, "a"),
            transfer(at(4), Upload, 1, 2, 11, 50, 2, "a"),
            session_close(at(5), 1, 1),
        ];
        let s = chunked(&[&recs], SimTime::from_days(30)).summary;
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

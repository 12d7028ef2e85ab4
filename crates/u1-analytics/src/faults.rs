//! Fault-plane analytics: error rates, error-class mix, and the latency
//! cost of retries.
//!
//! Input traces produced under a live [`u1_core::fault::FaultPlan`] carry
//! two extra tags on every record: the attempt number within the issuing
//! retry scope (1 = first try) and an optional [`ErrorClass`]. This fold
//! turns those into the numbers EXPERIMENTS.md reports for the `exp_faults`
//! scenario: how often operations failed, why, and how much slower the
//! retried survivors were than first-try successes.
//!
//! All accumulators are integers, so chunk merges are exact and the
//! chunk-parallel run is bit-identical to the serial pass (the engine's
//! standing determinism law — see [`crate::engine`]).

use serde::Serialize;
use u1_core::fault::ErrorClass;
use u1_trace::{StorageDone, TraceRecord};

/// How many records carried one error class.
#[derive(Debug, Serialize)]
pub struct ClassCount {
    pub class: &'static str,
    pub count: u64,
}

/// The battery's `faults` section.
///
/// Under `FaultPlan::none()` every count is zero and every rate/mean is
/// `0.0` — the struct itself is the "nothing happened" witness.
#[derive(Debug, Serialize)]
pub struct FaultAnalysis {
    /// Total records seen.
    pub records: u64,
    /// Records tagged with any error class.
    pub tagged: u64,
    /// Per-class tag counts, in [`ErrorClass::ALL`] order (all five classes
    /// always present, zero or not).
    pub by_class: Vec<ClassCount>,
    /// Records whose attempt tag exceeds 1 (i.e. produced by a retry).
    pub retried: u64,
    /// Largest attempt number observed anywhere in the trace.
    pub max_attempt: u8,
    /// All `storage_done` records, and the failed subset.
    pub storage_ops: u64,
    pub storage_failures: u64,
    /// `storage_failures / storage_ops` (0 when there were no ops).
    pub storage_error_rate: f64,
    /// Mean duration of *successful* storage ops that succeeded on the
    /// first attempt vs. ones that needed retries. The ratio is the
    /// retry-latency inflation: how much slower a client saw an operation
    /// get once the fault plane made it retry.
    pub first_try_mean_s: f64,
    pub retried_mean_s: f64,
    /// `retried_mean_s / first_try_mean_s` (0 when either side is empty).
    pub retry_latency_inflation: f64,
}

fn class_index(c: ErrorClass) -> usize {
    match c {
        ErrorClass::Timeout => 0,
        ErrorClass::ShardUnavailable => 1,
        ErrorClass::PartPut => 2,
        ErrorClass::AuthOutage => 3,
        ErrorClass::Other => 4,
    }
}

/// The counts behind [`FaultAnalysis`]. Integer sums only, so `merge` is
/// plain addition (plus a `max` for the attempt high-water mark, which is
/// associative and commutative).
#[derive(Debug, Default)]
pub(crate) struct FaultCounts {
    records: u64,
    class_counts: [u64; ErrorClass::ALL.len()],
    retried: u64,
    max_attempt: u8,
    storage_ops: u64,
    storage_failures: u64,
    first_try_ops: u64,
    first_try_dur_us: u64,
    retried_ops: u64,
    retried_dur_us: u64,
}

impl FaultCounts {
    pub(crate) fn feed(&mut self, rec: &TraceRecord) {
        self.records += 1;
        if let Some(class) = rec.error_class {
            self.class_counts[class_index(class)] += 1;
        }
        if rec.attempt > 1 {
            self.retried += 1;
        }
        self.max_attempt = self.max_attempt.max(rec.attempt);
        if let Some(StorageDone {
            success,
            duration_us,
            ..
        }) = rec.payload.storage()
        {
            self.storage_ops += 1;
            if !success {
                self.storage_failures += 1;
            } else if rec.attempt > 1 {
                self.retried_ops += 1;
                self.retried_dur_us += duration_us;
            } else {
                self.first_try_ops += 1;
                self.first_try_dur_us += duration_us;
            }
        }
    }

    pub(crate) fn merge(&mut self, later: &FaultCounts) {
        self.records += later.records;
        for (d, s) in self.class_counts.iter_mut().zip(later.class_counts) {
            *d += s;
        }
        self.retried += later.retried;
        self.max_attempt = self.max_attempt.max(later.max_attempt);
        self.storage_ops += later.storage_ops;
        self.storage_failures += later.storage_failures;
        self.first_try_ops += later.first_try_ops;
        self.first_try_dur_us += later.first_try_dur_us;
        self.retried_ops += later.retried_ops;
        self.retried_dur_us += later.retried_dur_us;
    }

    pub(crate) fn finish(&self) -> FaultAnalysis {
        let mean_s = |sum_us: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum_us as f64 / n as f64 / 1e6
            }
        };
        let first_try_mean_s = mean_s(self.first_try_dur_us, self.first_try_ops);
        let retried_mean_s = mean_s(self.retried_dur_us, self.retried_ops);
        FaultAnalysis {
            records: self.records,
            tagged: self.class_counts.iter().sum(),
            by_class: ErrorClass::ALL
                .into_iter()
                .map(|c| ClassCount {
                    class: c.label(),
                    count: self.class_counts[class_index(c)],
                })
                .collect(),
            retried: self.retried,
            max_attempt: self.max_attempt,
            storage_ops: self.storage_ops,
            storage_failures: self.storage_failures,
            storage_error_rate: if self.storage_ops == 0 {
                0.0
            } else {
                self.storage_failures as f64 / self.storage_ops as f64
            },
            retry_latency_inflation: if first_try_mean_s > 0.0 && retried_mean_s > 0.0 {
                retried_mean_s / first_try_mean_s
            } else {
                0.0
            },
            first_try_mean_s,
            retried_mean_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::Upload;
    use u1_trace::Payload;

    fn tagged(mut rec: TraceRecord, attempt: u8, class: Option<ErrorClass>) -> TraceRecord {
        rec.attempt = attempt;
        rec.error_class = class;
        rec
    }

    fn with_duration(mut rec: TraceRecord, us: u64) -> TraceRecord {
        if let Payload::Storage(done) = &mut rec.payload {
            done.duration_us = us;
        }
        rec
    }

    fn failed_op(
        t: u1_core::SimTime,
        kind: u1_core::ApiOpKind,
        session: u64,
        user: u64,
    ) -> TraceRecord {
        let mut rec = op(t, kind, session, user);
        if let Payload::Storage(done) = &mut rec.payload {
            done.success = false;
        }
        rec
    }

    #[test]
    fn fault_free_trace_reports_all_zeros() {
        let recs = vec![
            session_open(at(1), 1, 1),
            op(at(2), Upload, 1, 1),
            session_close(at(3), 1, 1),
        ];
        let a = chunked(&[&recs], at(60)).faults;
        assert_eq!(a.tagged, 0);
        assert_eq!(a.retried, 0);
        assert_eq!(a.max_attempt, 1);
        assert_eq!(a.storage_error_rate, 0.0);
        assert_eq!(a.retry_latency_inflation, 0.0);
        assert!(a.by_class.iter().all(|c| c.count == 0));
    }

    #[test]
    fn counts_classes_and_measures_inflation() {
        let recs = vec![
            // Two clean first-try ops at 100us each.
            with_duration(op(at(1), Upload, 1, 1), 100),
            with_duration(op(at(2), Upload, 1, 1), 100),
            // One op that took 3 attempts and 300us, tagged with a timeout.
            tagged(
                with_duration(op(at(3), Upload, 1, 1), 300),
                3,
                Some(ErrorClass::Timeout),
            ),
            // One failed op (shard outage).
            tagged(
                failed_op(at(4), Upload, 1, 1),
                1,
                Some(ErrorClass::ShardUnavailable),
            ),
        ];
        let a = chunked(&[&recs], at(60)).faults;
        assert_eq!(a.tagged, 2);
        assert_eq!(a.retried, 1);
        assert_eq!(a.max_attempt, 3);
        assert_eq!((a.storage_ops, a.storage_failures), (4, 1));
        assert!((a.storage_error_rate - 0.25).abs() < 1e-12);
        assert!((a.retry_latency_inflation - 3.0).abs() < 1e-12);
        let count_of = |label: &str| {
            a.by_class
                .iter()
                .find(|c| c.class == label)
                .map(|c| c.count)
        };
        assert_eq!(count_of("timeout"), Some(1));
        assert_eq!(count_of("shard_unavailable"), Some(1));
        assert_eq!(count_of("part_put"), Some(0));
    }

    #[test]
    fn chunked_merge_is_exact() {
        let recs: Vec<TraceRecord> = (0..30u64)
            .map(|i| {
                let r = with_duration(op(at(i), Upload, 1, 1), 100 + i * 7);
                if i % 5 == 0 {
                    tagged(r, 2, Some(ErrorClass::PartPut))
                } else {
                    r
                }
            })
            .collect();
        let serial = serde_json::to_value(&chunked(&[&recs], at(60)).faults);
        for split in [1usize, 2, 7, 30] {
            let chunks: Vec<&[TraceRecord]> = recs.chunks(split).collect();
            let chunked = serde_json::to_value(&chunked(&chunks, at(60)).faults);
            assert_eq!(chunked, serial, "chunk size {split}");
        }
    }
}

//! The analytics battery's output, pinned byte for byte.
//!
//! The other report tests pin relations between entry points (serial ==
//! chunked == off-disk, battery == reference oracle). A change that moves
//! one number the same way everywhere passes all of them. This test pins the
//! content itself: the compact JSON of `run_all` over the quick month has
//! one SHA-1, and every entry point must reproduce it.

use std::sync::{Arc, OnceLock};
use ubuntuone::analytics::engine::{
    run_all, run_all_chunked, run_all_offdisk, EngineConfig, EngineReport,
};
use ubuntuone::analytics::testkit::relabel;
use ubuntuone::core::sha1::Sha1;
use ubuntuone::core::SimClock;
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{DirSink, MemorySink, TraceRecord, TraceSink};
use ubuntuone::workload::{Driver, WorkloadConfig};

/// SHA-1 of `serde_json::to_string(&run_all(..))` over the quick month.
const QUICK_MONTH_REPORT_SHA: &str = "3c6c18fd99ac3345c625b7147c4726dd78f683fd";
const QUICK_MONTH_RECORDS: usize = 169_444;
const QUICK_MONTH_REPORT_BYTES: usize = 1_534_893;

/// The quick month on a default back end, through a plain `MemorySink`,
/// simulated once and shared by the tests.
fn quick_month() -> &'static (Vec<TraceRecord>, EngineConfig) {
    static MONTH: OnceLock<(Vec<TraceRecord>, EngineConfig)> = OnceLock::new();
    MONTH.get_or_init(simulate_quick_month)
}

fn simulate_quick_month() -> (Vec<TraceRecord>, EngineConfig) {
    let cfg = WorkloadConfig::quick();
    let backend_cfg = BackendConfig::default();
    let engine = EngineConfig::new(
        cfg.horizon(),
        backend_cfg.cluster.machines as usize,
        backend_cfg.store.shards as usize,
    );
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    Driver::new(cfg, backend, clock).run();
    (sink.take_sorted(), engine)
}

fn sha_of(report: &EngineReport) -> (String, usize) {
    let json = serde_json::to_string(report).expect("report serializes");
    (Sha1::digest(json.as_bytes()).to_hex(), json.len())
}

#[test]
fn quick_month_report_is_pinned_at_every_entry_point() {
    let (records, engine) = quick_month();
    assert_eq!(records.len(), QUICK_MONTH_RECORDS);

    let (sha, bytes) = sha_of(&run_all(records, engine));
    assert_eq!(bytes, QUICK_MONTH_REPORT_BYTES);
    assert_eq!(sha, QUICK_MONTH_REPORT_SHA, "run_all");

    for threads in [2, 3] {
        let (sha, _) = sha_of(&run_all_chunked(records, engine, threads));
        assert_eq!(sha, QUICK_MONTH_REPORT_SHA, "run_all_chunked({threads})");
    }

    let dir = std::env::temp_dir().join(format!("u1-report-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let sink = DirSink::create_stamped(&dir).expect("create trace dir");
        for rec in records {
            sink.record(rec.clone());
        }
        sink.flush();
        assert_eq!(sink.io_errors(), 0);
    }
    let (report, stats) = run_all_offdisk(&dir, engine, 1).expect("off-disk fold");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(stats.parse.parsed, QUICK_MONTH_RECORDS);
    assert_eq!(sha_of(&report).0, QUICK_MONTH_REPORT_SHA, "run_all_offdisk");
}

/// Ids are labels: relabelling every user, session, volume and node id by a
/// bijection on `u64` leaves the report byte-identical, including when the
/// new ids sit next to `u64::MAX` and far from each other.
#[test]
fn relabelled_ids_leave_the_report_unchanged() {
    let (records, engine) = quick_month();
    for k in [1, 12_345, u64::MAX / 3, u64::MAX - 1_000_000] {
        let relabelled: Vec<TraceRecord> = records.iter().map(|r| relabel(r.clone(), k)).collect();
        let (sha, _) = sha_of(&run_all(&relabelled, engine));
        assert_eq!(sha, QUICK_MONTH_REPORT_SHA, "k = {k}");
    }
}

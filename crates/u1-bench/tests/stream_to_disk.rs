//! Differential coverage for the stream-to-disk pipeline: the golden
//! quick-scale workload, run once accumulating in memory and once streaming
//! stamped logfiles to disk, must produce the SAME canonical trace — record
//! for record — and off-disk analytics over the streamed directory must
//! equal the in-memory report bit for bit. Worker count must be invisible
//! in all of it, and with the driver golden test's exact wiring the
//! streamed read-back reproduces the pinned golden SHA.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use u1_analytics::engine::{run_all, run_all_offdisk};
use u1_bench::scenario::{run_scenario_streamed, StreamedScenario};
use u1_bench::{run_scenario, Scenario};
use u1_core::SimClock;
use u1_server::{Backend, BackendConfig};
use u1_trace::{canonical_sha, BufferedSink, DirSink, LogDirReader, TraceRecord};
use u1_workload::{Driver, WorkloadConfig};

/// The exact workload of the driver's golden test, whose canonical trace
/// SHA is pinned there as well.
fn golden_cfg(workers: usize) -> WorkloadConfig {
    WorkloadConfig {
        users: 120,
        days: 3,
        seed: 11,
        attacks: true,
        seed_files: 0.5,
        workers,
    }
}

const GOLDEN_SHA: &str = "78be5180fee062f073b8838c0cb695e681de3f1b";

fn in_memory() -> &'static Scenario {
    static SCN: OnceLock<Scenario> = OnceLock::new();
    SCN.get_or_init(|| run_scenario(golden_cfg(0)))
}

fn temp_trace_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("u1-stream-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn streamed(workers: usize, tag: &str) -> (StreamedScenario, PathBuf) {
    let dir = temp_trace_dir(&format!("{tag}-w{workers}"));
    let scn = run_scenario_streamed(golden_cfg(workers), &dir).expect("streamed run");
    (scn, dir)
}

/// Reads a stamped trace directory back into canonical `(t, origin, seq)`
/// order by concatenating its day chunks.
fn read_back_canonical(dir: &std::path::Path) -> Vec<TraceRecord> {
    let mut chunks = LogDirReader::new(dir).day_chunks(4).expect("day_chunks");
    let mut all = Vec::new();
    while let Some(chunk) = chunks.next_day() {
        all.extend(chunk.expect("read day").records);
    }
    all
}

/// Scenario-level differential: streaming to disk and reading back yields
/// the in-memory canonical trace record-for-record (stamps, fault tags and
/// payloads included), at several worker counts.
#[test]
fn streamed_trace_matches_in_memory_trace() {
    let mem = in_memory();
    let mem_sha = canonical_sha(&mem.records);
    for workers in [0usize, 3] {
        let (scn, dir) = streamed(workers, "sha");
        assert_eq!(
            scn.report.trace_io_errors, 0,
            "{:?}",
            scn.first_trace_io_error
        );
        let records = read_back_canonical(&dir);
        assert_eq!(records.len(), mem.records.len());
        assert_eq!(
            canonical_sha(&records),
            mem_sha,
            "streamed canonical trace diverged at workers={workers}"
        );
        assert_eq!(records, mem.records, "workers={workers}");
        // The simulation itself was identical too.
        assert_eq!(scn.report, mem.report, "workers={workers}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With the driver golden test's exact wiring (default backend config), the
/// stream-to-disk read-back reproduces the pinned golden SHA — proving the
/// sink swap is byte-for-byte invisible to the canonical trace.
#[test]
fn streamed_mode_reproduces_driver_golden_sha() {
    for workers in [0usize, 3] {
        let dir = temp_trace_dir(&format!("golden-w{workers}"));
        let clock = SimClock::new();
        let sink = Arc::new(DirSink::create_stamped(&dir).unwrap());
        let backend = Arc::new(Backend::new(
            BackendConfig::default(),
            Arc::new(clock.clone()),
            Arc::new(BufferedSink::new(Arc::clone(&sink))),
        ));
        let report = Driver::new(golden_cfg(workers), backend, clock).run();
        assert_eq!(report.trace_io_errors, 0, "{:?}", sink.first_io_error());
        let records = read_back_canonical(&dir);
        assert_eq!(records.len(), 8184);
        assert_eq!(
            canonical_sha(&records),
            GOLDEN_SHA,
            "golden SHA diverged at workers={workers}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn offdisk_analytics_over_streamed_trace_equals_in_memory_report() {
    let mem = in_memory();
    let cfg = u1_bench::engine_config(mem);
    let serial = serde_json::to_value(&run_all(&mem.records, &cfg));
    let (scn, dir) = streamed(0, "offdisk");
    assert_eq!(scn.report.trace_io_errors, 0);
    for threads in [1usize, 4] {
        let (report, stats) = run_all_offdisk(&dir, &cfg, threads).expect("offdisk run");
        assert_eq!(
            serde_json::to_value(&report),
            serial,
            "off-disk report diverged at threads={threads}"
        );
        assert_eq!(stats.days as u64, mem.cfg.days);
        assert_eq!(stats.parse.parsed, mem.records.len());
        assert_eq!(stats.parse.malformed, 0);
        assert!(stats.peak_chunk_records < mem.records.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Differential coverage for the stream-to-disk pipeline: the golden
//! quick-scale workload, run once accumulating in memory and once streaming
//! stamped logfiles to disk, must produce the SAME canonical trace — record
//! for record — and off-disk analytics over the streamed directory must
//! equal the in-memory report bit for bit. Worker count must be invisible
//! in all of it, and with the driver golden test's exact wiring the
//! streamed read-back reproduces the pinned golden SHA.
//!
//! The two `scale_tier_*` tests are the scale check of that path: the
//! `paper_scaled()` month at 2,500 and 25,000 users, streamed and folded off
//! disk, with its canonical trace SHA, report SHA and (at 25k) peak RSS
//! pinned. They are `#[ignore]`d — minutes and gigabytes — and each must run
//! in a process of its own, because the peak RSS a process reports never
//! falls:
//!
//! ```text
//! cargo test --release -p u1-bench --test stream_to_disk -- --ignored --exact scale_tier_2500
//! cargo test --release -p u1-bench --test stream_to_disk -- --ignored --exact scale_tier_25k
//! ```

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use u1_analytics::engine::{run_all, run_all_offdisk};
use u1_bench::scenario::{run_scenario_streamed, StreamedScenario};
use u1_bench::{run_scenario, Scenario};
use u1_core::{Sha1, SimClock};
use u1_server::{Backend, BackendConfig};
use u1_trace::{canonical_sha, BufferedSink, CanonicalSha, DirSink, LogDirReader, TraceRecord};
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

/// An empty directory `name` under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn temp_trace_dir(tag: &str) -> PathBuf {
    fresh_dir(&format!("u1-stream-test-{}-{tag}", std::process::id()))
}

fn streamed(workers: usize, tag: &str) -> (StreamedScenario, PathBuf) {
    let dir = temp_trace_dir(&format!("{tag}-w{workers}"));
    let scn = run_scenario_streamed(golden_cfg(workers), &dir).expect("streamed run");
    (scn, dir)
}

/// Hands a stamped trace directory's day chunks to `f` in canonical
/// `(t, origin, seq)` order, one day in memory at a time.
fn for_each_day(dir: &std::path::Path, mut f: impl FnMut(Vec<TraceRecord>)) {
    let mut chunks = LogDirReader::new(dir).day_chunks(4).expect("day_chunks");
    while let Some(chunk) = chunks.next_day() {
        f(chunk.expect("read day").records);
    }
}

/// Reads a stamped trace directory back into canonical order.
fn read_back_canonical(dir: &std::path::Path) -> Vec<TraceRecord> {
    let mut all = Vec::new();
    for_each_day(dir, |day| all.extend(day));
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

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = kb.and_then(|v| v.trim().trim_end_matches(" kB").parse::<u64>().ok());
    kb.expect("VmHWM in /proc/self/status") * 1024
}

/// One scale tier: the `paper_scaled()` month at `users`, streamed to disk
/// and folded back off disk, with its record count, canonical trace SHA and
/// report SHA (SHA-1 of the compact JSON) asserted. Returns the peak RSS of
/// the process, read before the report is serialized.
fn tier(users: u64, records: u64, trace_sha: &str, report_sha: &str) -> u64 {
    // A fixed name, cleared before the run and before any assertion, so no
    // run leaves a trace behind.
    let dir = fresh_dir(&format!("u1-scale-tier-{users}"));
    let cfg = WorkloadConfig {
        users,
        ..WorkloadConfig::paper_scaled()
    };
    let scn = run_scenario_streamed(cfg, &dir).expect("streamed run");
    let io_errors = scn.report.trace_io_errors;
    let first_io_error = scn.first_trace_io_error.clone();
    let engine = u1_bench::engine_config(&scn);
    // The fold needs none of the simulation's state.
    drop(scn);

    // A fixed thread count, so the peak does not depend on the host's cores.
    let report = run_all_offdisk(&dir, &engine, 2).map(|(report, _)| report);
    let peak_rss = peak_rss_bytes();
    println!("{users} users: peak RSS {}", u1_core::ByteSize(peak_rss));
    let mut sha = CanonicalSha::new();
    let mut read = 0u64;
    for_each_day(&dir, |day| {
        read += day.len() as u64;
        sha.update(&day);
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(io_errors, 0, "{first_io_error:?}");
    let report = report.expect("off-disk fold");
    assert_eq!(read, report.summary.records);
    assert_eq!(read, records);
    assert_eq!(sha.finish(), trace_sha);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert_eq!(Sha1::digest(json.as_bytes()).to_hex(), report_sha);
    peak_rss
}

/// The calibrated month; its trace SHA is the repo's golden
/// [`WorkloadConfig::PAPER_SCALED_MONTH_SHA`].
#[test]
#[ignore = "the 2,500-user month on disk; run in release with --ignored --exact"]
fn scale_tier_2500() {
    tier(
        2_500,
        5_227_121,
        WorkloadConfig::PAPER_SCALED_MONTH_SHA,
        "33f7c2c6307af0544fece3815fd9911b208dc797",
    );
}

/// Ten times the calibrated month, and the memory bound of the streamed
/// path: the month's trace is never whole in memory, so peak RSS stays far
/// below the 6.4 GiB the in-memory run of the same month takes.
#[test]
#[ignore = "the 25,000-user month, ~2 minutes and ~4 GB of disk; run in release with --ignored --exact"]
fn scale_tier_25k() {
    const MAX_PEAK_RSS: u64 = 3584 << 20;
    let peak_rss = tier(
        25_000,
        53_934_295,
        "50524cf6a2d303415e0a0ebe0a617d91e566be98",
        "0a4a601ce7395498d4d1ce76c7770e521d913c29",
    );
    assert!(
        peak_rss <= MAX_PEAK_RSS,
        "peak RSS {peak_rss} bytes over the {MAX_PEAK_RSS}-byte bound"
    );
}

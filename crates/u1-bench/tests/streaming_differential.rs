//! The streaming analytics engine on a deterministic simulated month (200
//! users × 4 days, attacks on):
//! * every report field agrees with the reference built from the paper's
//!   definitions (`u1-analytics/tests/oracle`), serially and merged from
//!   chunks cut at day boundaries;
//! * the merge is exact at adversarial splits: halves, thirds, ragged
//!   edges, day boundaries and single-record chunks all give the serial
//!   report (compared as JSON, whose vendored comparison takes float bits,
//!   so NaN == NaN);
//! * the merge is associative.

#[path = "../../u1-analytics/tests/oracle/mod.rs"]
mod oracle;

use std::sync::OnceLock;
use u1_analytics as ana;
use u1_analytics::engine::{run_all, run_chunks, Battery, EngineReport, TraceFold};
use u1_bench::{run_scenario, Scenario};
use u1_trace::TraceRecord;
use u1_workload::WorkloadConfig;

fn scenario() -> &'static Scenario {
    static SCN: OnceLock<Scenario> = OnceLock::new();
    SCN.get_or_init(|| {
        run_scenario(WorkloadConfig {
            users: 200,
            days: 4,
            seed: 0xD1FF,
            attacks: true,
            seed_files: 1.0,
            workers: 0,
        })
    })
}

fn report() -> &'static EngineReport {
    static REP: OnceLock<EngineReport> = OnceLock::new();
    REP.get_or_init(|| {
        let scn = scenario();
        run_all(&scn.records, &u1_bench::engine_config(scn))
    })
}

/// Every report field against the reference, on the serial report and on
/// one merged from chunks cut at every day boundary (which cuts sessions,
/// chains and gaps that span midnight).
#[test]
fn report_agrees_with_the_reference_on_the_month() {
    let scn = scenario();
    let cfg = u1_bench::engine_config(scn);
    oracle::check(report(), &scn.records, &cfg);
    let chunks: Vec<&[TraceRecord]> = scn
        .records
        .chunk_by(|a, b| a.t.day_index() == b.t.day_index())
        .collect();
    assert!(chunks.len() > 1, "the month spans several days");
    oracle::check(&run_chunks(Battery::new(&cfg), &chunks), &scn.records, &cfg);
}

/// Splits the records at a set of adversarial offsets and checks the merged
/// battery equals the serial one. Covers chunks that cut sessions, days and
/// dependency chains in half.
fn assert_split_equals_serial(chunk_bounds: &[usize], what: &str) {
    let scn = scenario();
    let recs = &scn.records;
    let cfg = u1_bench::engine_config(scn);
    let serial = serde_json::to_value(report());
    let mut chunks: Vec<&[TraceRecord]> = Vec::new();
    let mut prev = 0usize;
    for &b in chunk_bounds {
        let b = b.min(recs.len());
        chunks.push(&recs[prev..b]);
        prev = b;
    }
    chunks.push(&recs[prev..]);
    let merged = run_chunks(Battery::new(&cfg), &chunks);
    assert_eq!(
        serde_json::to_value(&merged),
        serial,
        "chunked battery != serial battery for {what}"
    );
}

#[test]
fn adversarial_split_mid_everything() {
    let n = scenario().records.len();
    assert!(n > 100, "quick scenario unexpectedly tiny: {n} records");
    // Halves, thirds, and deliberately odd offsets that land mid-session
    // and mid-dependency-chain.
    assert_split_equals_serial(&[n / 2], "halves");
    assert_split_equals_serial(&[n / 3, 2 * n / 3], "thirds");
    assert_split_equals_serial(&[1, 2, 3, 5, 7, n - 3, n - 1], "ragged edges");
    assert_split_equals_serial(&[n / 7, n / 5, n / 3, n / 2, (n * 9) / 10], "odd offsets");
}

#[test]
fn adversarial_split_at_day_boundaries() {
    let scn = scenario();
    let recs = &scn.records;
    // Find the first record index of each simulated day: chunks then cut
    // exactly at day boundaries (and, by construction, mid-session for any
    // session spanning midnight).
    let mut bounds = Vec::new();
    let mut day = 0u64;
    for (i, r) in recs.iter().enumerate() {
        let d = r.t.day_index();
        if d > day {
            day = d;
            bounds.push(i);
        }
    }
    assert!(!bounds.is_empty(), "trace spans a single day");
    assert_split_equals_serial(&bounds, "day boundaries");
    // And one record past each boundary, so the cut lands just after
    // midnight instead of exactly on it.
    let shifted: Vec<usize> = bounds.iter().map(|&b| b + 1).collect();
    assert_split_equals_serial(&shifted, "day boundaries + 1");
}

/// Single-record chunks: the most adversarial split there is — every
/// boundary-state mechanism (pending closes, first/last maps, boundary
/// dependency pairs) fires on every record. Uses a prefix of the trace to
/// keep the per-record merge cost bounded.
#[test]
fn single_record_chunks_match_serial() {
    let scn = scenario();
    let cfg = u1_bench::engine_config(scn);
    let n = scn.records.len().min(3_000);
    let prefix = &scn.records[..n];
    let serial = serde_json::to_value(&run_all(prefix, &cfg));
    let singles: Vec<&[TraceRecord]> = prefix.chunks(1).collect();
    let merged = run_chunks(Battery::new(&cfg), &singles);
    assert_eq!(serde_json::to_value(&merged), serial);
}

/// merge is associative: (A·B)·C == A·(B·C) for a real trace cut at
/// arbitrary points.
#[test]
fn merge_is_associative_on_real_trace() {
    let scn = scenario();
    let recs = &scn.records;
    let cfg = u1_bench::engine_config(scn);
    let (a, rest) = recs.split_at(recs.len() / 4);
    let (b, c) = rest.split_at(rest.len() / 3);

    let fold_chunk = |chunk: &[TraceRecord]| {
        let mut p = Battery::new(&cfg).new_partial();
        chunk.iter().for_each(|r| p.feed(r));
        p
    };
    // (A·B)·C
    let left = {
        let mut ab = fold_chunk(a);
        ab.merge(fold_chunk(b));
        ab.merge(fold_chunk(c));
        ab.finish()
    };
    // A·(B·C)
    let right = {
        let mut bc = fold_chunk(b);
        bc.merge(fold_chunk(c));
        let mut abc = fold_chunk(a);
        abc.merge(bc);
        abc.finish()
    };
    assert_eq!(serde_json::to_value(&left), serde_json::to_value(&right));
}

/// The experiment harness entry point returns the same thing as composing
/// the engine by hand — `analyze` is one pass, not a re-walk.
#[test]
fn analyze_matches_manual_run_all() {
    let scn = scenario();
    let manual = run_all(&scn.records, &u1_bench::engine_config(scn));
    assert_eq!(
        serde_json::to_value(&u1_bench::analyze(scn)),
        serde_json::to_value(&manual)
    );
}

/// Chunk-parallel execution at several thread counts equals the serial
/// streaming pass exactly (threads only change wall-clock, never output).
#[test]
fn chunk_parallel_equals_serial_at_every_thread_count() {
    let scn = scenario();
    let cfg = u1_bench::engine_config(scn);
    let serial = serde_json::to_value(report());
    for threads in [2, 3, 5, 16] {
        let chunked = ana::engine::run_all_chunked(&scn.records, &cfg, threads);
        assert_eq!(serde_json::to_value(&chunked), serial, "threads={threads}");
    }
}

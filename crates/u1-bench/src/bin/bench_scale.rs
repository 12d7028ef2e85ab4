//! Scale benchmark: the paper-shaped month at growing user populations,
//! proving the memory-bounded path holds its contract as the trace outgrows
//! RAM-friendly sizes.
//!
//! For each tier (default `2500,25000,100000` users; override with
//! `U1_SCALE_TIERS`) the benchmark runs the month twice, each in a FRESH
//! child process so `VmHWM` (kernel peak-RSS, process-lifetime monotone)
//! measures exactly one mode:
//!
//! * **streamed** — [`u1_bench::run_scenario_streamed`] writes stamped
//!   day-sharded logfiles straight to disk through `BufferedSink` →
//!   [`u1_trace::DirSink`]; analytics then folds the month off disk one day
//!   chunk at a time ([`u1_analytics::engine::run_all_offdisk`]), and a
//!   second day-chunk pass computes the canonical trace SHA incrementally
//!   ([`u1_trace::CanonicalSha`]).
//!   Peak memory is bounded by the biggest single day, not the month.
//! * **in-memory** — the pre-existing path: the whole trace accumulated in
//!   a `MemorySink`, analytics over the full slice. Memory grows linearly
//!   with the tier; this is the baseline the streamed mode must beat.
//!
//! The parent asserts, per tier: identical canonical SHA and bit-identical
//! analytics [`Fingerprint`] between the two modes; at the 2,500-user tier
//! the SHA must equal [`WorkloadConfig::PAPER_SCALED_MONTH_SHA`] (the pin
//! the tier-1 golden test asserts); and across streamed tiers peak RSS must
//! grow SUBLINEARLY in trace size.
//! Results land in `BENCH_scale.json`.
//!
//! Environment: `U1_SCALE_TIERS` (comma-separated user counts),
//! `U1_SCALE_KEEP=1` to keep trace directories. `U1_SCALE_TIER` /
//! `U1_SCALE_VERIFY` are internal (select child mode). A 500k tier works
//! but is gated off by default — it needs ~100 GB of scratch disk.

use serde_json::json;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::Path;
use std::time::Instant;
use u1_bench::{mem, Fingerprint};
use u1_trace::{canonical_sha, CanonicalSha, LogDirReader};
use u1_workload::WorkloadConfig;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

fn tier_cfg(users: u64) -> WorkloadConfig {
    WorkloadConfig {
        users,
        ..WorkloadConfig::paper_scaled()
    }
}

fn analytics_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One protocol line on stdout; everything human goes to stderr.
fn put(key: &str, value: impl std::fmt::Display) {
    println!("scale.{key}={value}");
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Streamed child: simulate straight to disk, fold analytics off disk, hash
/// the canonical order in a second bounded pass.
fn run_streamed_tier(users: u64) {
    let cfg = tier_cfg(users);
    let dir = u1_bench::out_dir().join(format!("bench-scale-trace-{users}"));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = analytics_threads();

    let started = Instant::now();
    let scn = u1_bench::run_scenario_streamed(cfg, &dir).expect("streamed scenario");
    let sim_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        scn.report.trace_io_errors, 0,
        "trace I/O errors: {:?}",
        scn.first_trace_io_error
    );
    let trace_bytes = dir_bytes(&dir);
    eprintln!(
        "[scale] users={users} streamed sim {sim_secs:.1}s, {:.1} MB on disk",
        trace_bytes as f64 / 1e6
    );

    let ecfg = u1_bench::engine_config(&scn);
    let started = Instant::now();
    let (report, stats) =
        u1_analytics::engine::run_all_offdisk(&dir, &ecfg, threads).expect("off-disk analytics");
    let analytics_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[scale] users={users} off-disk analytics {analytics_secs:.1}s \
         ({} days, peak chunk {} records)",
        stats.days, stats.peak_chunk_records
    );

    let started = Instant::now();
    let mut sha = CanonicalSha::new();
    let mut chunks = LogDirReader::new(&dir)
        .day_chunks(threads)
        .expect("day chunks");
    let mut records = 0u64;
    while let Some(chunk) = chunks.next_day() {
        let chunk = chunk.expect("read day chunk");
        records += chunk.records.len() as u64;
        sha.update(&chunk.records);
    }
    let sha_secs = started.elapsed().as_secs_f64();
    assert_eq!(records, report.summary.records, "SHA pass lost records");

    if std::env::var("U1_SCALE_KEEP").as_deref() != Ok("1") {
        let _ = std::fs::remove_dir_all(&dir);
    }

    put("mode", "streamed");
    put("users", users);
    put("records", records);
    put("sim_secs", format!("{sim_secs:.6}"));
    put("analytics_secs", format!("{analytics_secs:.6}"));
    put("sha_secs", format!("{sha_secs:.6}"));
    put("trace_bytes", trace_bytes);
    put("days", stats.days);
    put("peak_chunk_records", stats.peak_chunk_records);
    put("fingerprint", Fingerprint::of(&report).to_line());
    put("sha", sha.finish());
    put("peak_rss_bytes", mem::peak_rss_bytes().unwrap_or(0));
    put("alloc_peak_bytes", mem::alloc_peak_bytes());
}

/// In-memory child: the baseline path — whole trace in RAM, analytics over
/// the full slice.
fn run_inmemory_tier(users: u64) {
    let cfg = tier_cfg(users);
    let threads = analytics_threads();

    let started = Instant::now();
    let scn = u1_bench::run_scenario(cfg);
    let sim_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[scale] users={users} in-memory sim {sim_secs:.1}s, {} records",
        scn.records.len()
    );

    let ecfg = u1_bench::engine_config(&scn);
    let started = Instant::now();
    let report = u1_analytics::engine::run_all_chunked(&scn.records, &ecfg, threads);
    let analytics_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let sha = canonical_sha(&scn.records);
    let sha_secs = started.elapsed().as_secs_f64();

    put("mode", "inmemory");
    put("users", users);
    put("records", scn.records.len());
    put("sim_secs", format!("{sim_secs:.6}"));
    put("analytics_secs", format!("{analytics_secs:.6}"));
    put("sha_secs", format!("{sha_secs:.6}"));
    put("fingerprint", Fingerprint::of(&report).to_line());
    put("sha", sha);
    put("peak_rss_bytes", mem::peak_rss_bytes().unwrap_or(0));
    put("alloc_peak_bytes", mem::alloc_peak_bytes());
}

/// Everything one child reported, parsed back from its `scale.*` lines.
struct ModeResult {
    records: u64,
    sim_secs: f64,
    analytics_secs: f64,
    sha_secs: f64,
    fingerprint: Fingerprint,
    sha: String,
    peak_rss_bytes: u64,
    alloc_peak_bytes: u64,
    trace_bytes: u64,
    days: u64,
    peak_chunk_records: u64,
}

fn spawn_tier(users: u64, verify: bool) -> ModeResult {
    let exe = std::env::current_exe().expect("current exe");
    // `U1_SCALE_STREAM_ULIMIT_KB` puts a hard address-space cap on the
    // STREAMED child only (via `ulimit -v` in a shell wrapper) — the
    // in-memory baseline legitimately needs linear memory, so capping it
    // too would OOM the comparison rather than prove the bounded path.
    let ulimit_kb = std::env::var("U1_SCALE_STREAM_ULIMIT_KB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|_| !verify);
    let mut cmd = match ulimit_kb {
        Some(kb) => {
            let mut c = std::process::Command::new("/bin/sh");
            c.arg("-c")
                .arg(format!("ulimit -v {kb} && exec \"$0\""))
                .arg(&exe);
            c
        }
        None => std::process::Command::new(&exe),
    };
    cmd.env_remove("U1_SCALE_TIER")
        .env_remove("U1_SCALE_VERIFY");
    if verify {
        cmd.env("U1_SCALE_VERIFY", users.to_string());
    } else {
        cmd.env("U1_SCALE_TIER", users.to_string());
    }
    cmd.stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn scale child");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("child stdout")
        .read_to_string(&mut stdout)
        .expect("read child stdout");
    let status = child.wait().expect("wait for scale child");
    assert!(
        status.success(),
        "scale child (users={users}, verify={verify}) failed: {status}"
    );

    let kv: BTreeMap<&str, &str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("scale."))
        .filter_map(|l| l.split_once('='))
        .collect();
    let get = |k: &str| {
        *kv.get(k)
            .unwrap_or_else(|| panic!("child omitted scale.{k}"))
    };
    let num = |k: &str| {
        get(k)
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("bad scale.{k}: {e}"))
    };
    let secs = |k: &str| {
        get(k)
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad scale.{k}: {e}"))
    };
    ModeResult {
        records: num("records"),
        sim_secs: secs("sim_secs"),
        analytics_secs: secs("analytics_secs"),
        sha_secs: secs("sha_secs"),
        fingerprint: Fingerprint::from_line(get("fingerprint")).expect("bad scale.fingerprint"),
        sha: get("sha").to_string(),
        peak_rss_bytes: num("peak_rss_bytes"),
        alloc_peak_bytes: num("alloc_peak_bytes"),
        trace_bytes: kv
            .get("trace_bytes")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        days: kv.get("days").and_then(|v| v.parse().ok()).unwrap_or(0),
        peak_chunk_records: kv
            .get("peak_chunk_records")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    }
}

struct TierResult {
    users: u64,
    streamed: ModeResult,
    inmemory: ModeResult,
}

fn run_parent() {
    let host_cpus = analytics_threads();
    let tiers: Vec<u64> = std::env::var("U1_SCALE_TIERS")
        .unwrap_or_else(|_| "2500,25000,100000".into())
        .split(',')
        .map(|t| t.trim().parse().expect("U1_SCALE_TIERS must be integers"))
        .collect();

    let mut results: Vec<TierResult> = Vec::new();
    for &users in &tiers {
        eprintln!("[scale] === tier: {users} users ===");
        let streamed = spawn_tier(users, false);
        let inmemory = spawn_tier(users, true);
        assert_eq!(
            streamed.sha, inmemory.sha,
            "canonical trace SHA diverged between modes at {users} users"
        );
        assert_eq!(
            streamed.fingerprint, inmemory.fingerprint,
            "analytics fingerprint diverged between modes at {users} users"
        );
        assert_eq!(streamed.records, inmemory.records);
        if users == 2_500 {
            assert_eq!(
                streamed.sha,
                WorkloadConfig::PAPER_SCALED_MONTH_SHA,
                "2,500-user canonical trace hash changed"
            );
        }
        eprintln!(
            "[scale] users={users}: sha + fingerprint identical across modes; \
             peak rss streamed {} vs in-memory {}",
            u1_core::ByteSize(streamed.peak_rss_bytes),
            u1_core::ByteSize(inmemory.peak_rss_bytes),
        );
        results.push(TierResult {
            users,
            streamed,
            inmemory,
        });
    }

    // The scale claim: streamed peak RSS grows SUBLINEARLY in trace size.
    // Compare the smallest and largest tiers actually run.
    let mut rss_sublinear = true;
    if results.len() >= 2 {
        let small = &results[0];
        let big = &results[results.len() - 1];
        let rss_growth =
            big.streamed.peak_rss_bytes as f64 / small.streamed.peak_rss_bytes.max(1) as f64;
        let record_growth = big.streamed.records as f64 / small.streamed.records.max(1) as f64;
        rss_sublinear = rss_growth < record_growth;
        eprintln!(
            "[scale] streamed rss growth {rss_growth:.2}x over {record_growth:.2}x records \
             ({} -> {} users): {}",
            small.users,
            big.users,
            if rss_sublinear {
                "sublinear"
            } else {
                "NOT sublinear"
            }
        );
        assert!(
            rss_sublinear,
            "streamed peak RSS grew {rss_growth:.2}x while the trace grew only \
             {record_growth:.2}x — the memory-bounded path is not bounded"
        );
    }

    let mut human = String::new();
    human.push_str(&format!(
        "paper-shaped month at {} tier(s), host cpus {host_cpus}\n",
        results.len()
    ));
    human.push_str(
        "users    records      mode       sim(s)  analytics(s)  peak rss    rec/s(sim)\n",
    );
    let mut rows: Vec<serde_json::Value> = Vec::new();
    for t in &results {
        for (mode, r) in [("streamed", &t.streamed), ("in-memory", &t.inmemory)] {
            human.push_str(&format!(
                "{:>7}  {:>10}  {:<9}  {:>7.1}  {:>11.1}  {:>9}  {:>10.0}\n",
                t.users,
                r.records,
                mode,
                r.sim_secs,
                r.analytics_secs,
                u1_core::ByteSize(r.peak_rss_bytes).to_string(),
                r.records as f64 / r.sim_secs,
            ));
        }
        let s = &t.streamed;
        rows.push(json!({
            "users": t.users,
            "records": s.records,
            "sha": s.sha,
            "modes_identical": true,
            "streamed": {
                "sim_secs": s.sim_secs,
                "analytics_secs": s.analytics_secs,
                "sha_secs": s.sha_secs,
                "sim_records_per_sec": s.records as f64 / s.sim_secs,
                "analytics_records_per_sec": s.records as f64 / s.analytics_secs,
                "peak_rss_bytes": s.peak_rss_bytes,
                "alloc_peak_bytes": s.alloc_peak_bytes,
                "trace_bytes": s.trace_bytes,
                "days": s.days,
                "peak_chunk_records": s.peak_chunk_records,
            },
            "inmemory": {
                "sim_secs": t.inmemory.sim_secs,
                "analytics_secs": t.inmemory.analytics_secs,
                "sha_secs": t.inmemory.sha_secs,
                "sim_records_per_sec": t.inmemory.records as f64 / t.inmemory.sim_secs,
                "analytics_records_per_sec": t.inmemory.records as f64
                    / t.inmemory.analytics_secs,
                "peak_rss_bytes": t.inmemory.peak_rss_bytes,
                "alloc_peak_bytes": t.inmemory.alloc_peak_bytes,
            },
        }));
    }
    if let Some(last) = results.last() {
        human.push_str(&format!(
            "streamed peak chunk: {} records ({} days); rss sublinear: {rss_sublinear}\n",
            last.streamed.peak_chunk_records, last.streamed.days
        ));
    }

    u1_bench::emit(
        "BENCH_scale",
        &human,
        &json!({
            "host_cpus": host_cpus,
            "canonical_2500_sha": WorkloadConfig::PAPER_SCALED_MONTH_SHA,
            "canonical_2500_verified": tiers.contains(&2_500),
            "rss_sublinear": rss_sublinear,
            "tiers": rows,
        }),
    )
    .expect("write BENCH_scale.json");
}

fn main() {
    if let Ok(v) = std::env::var("U1_SCALE_TIER") {
        run_streamed_tier(v.parse().expect("U1_SCALE_TIER must be an integer"));
    } else if let Ok(v) = std::env::var("U1_SCALE_VERIFY") {
        run_inmemory_tier(v.parse().expect("U1_SCALE_VERIFY must be an integer"));
    } else {
        run_parent();
    }
}

//! The measurement pipeline end-to-end, exactly as §4 describes it:
//! simulate a week of back-end activity, write paper-format logfiles
//! (`production-<machine>-<proc>-dayNN.csv`), read the directory back with
//! malformed-line tolerance, merge by timestamp, anonymize, and run the
//! §5–§7 analyses on the result.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use std::sync::Arc;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::core::SimClock;
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::{Anonymizer, DirSink, LogDirReader};
use ubuntuone::workload::{Driver, WorkloadConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("u1-trace-{}", std::process::id()));
    println!("writing trace logfiles to {}", dir.display());

    // 1. Simulate one week, logging straight to paper-style logfiles.
    let clock = SimClock::new();
    let sink = Arc::new(DirSink::create(&dir).expect("create log dir"));
    let backend = Arc::new(Backend::new(
        BackendConfig::default(),
        Arc::new(clock.clone()),
        sink,
    ));
    let cfg = WorkloadConfig {
        users: 800,
        days: 7,
        seed: 42,
        attacks: false,
        seed_files: 1.0,
        workers: 0,
    };
    let horizon = cfg.horizon();
    let report = Driver::new(cfg, Arc::clone(&backend), clock).run();
    println!(
        "simulated: {} sessions, {} ops, {} uploads / {} downloads",
        report.sessions_opened, report.ops_executed, report.uploads, report.downloads
    );

    // 2. Read the logfile directory back (the paper tolerated ~1%
    //    unparseable lines; the reader counts and skips them).
    let (mut records, stats) = LogDirReader::new(&dir).read_all().expect("read logs");
    println!(
        "parsed {} files, {} lines ({} malformed, {:.2}%)",
        stats.files,
        stats.lines,
        stats.malformed,
        stats.malformed_fraction() * 100.0
    );

    // 3. Anonymize, as Canonical did before releasing the dataset.
    Anonymizer::new(0xC0FFEE).anonymize_all(&mut records);

    // 4. Analyze: one pass, every figure (6 API machines, 10 shards).
    let report = run_all(&records, &EngineConfig::new(horizon, 6, 10));
    let summary = &report.summary;
    println!(
        "\nTable-3-style summary: {} users, {} files, {} sessions, {} transfer ops",
        summary.unique_users, summary.unique_files, summary.sessions, summary.transfer_ops
    );

    let mix = &report.op_mix;
    println!("\ntop operations:");
    for (name, count) in mix.counts.iter().take(8) {
        println!("  {name:<16} {count:>8}");
    }

    let dedup = &report.dedup;
    println!(
        "\ndedup ratio {:.3} over {} uploads of {} distinct contents",
        dedup.dedup_ratio, dedup.total_uploads, dedup.unique_contents
    );

    let sessions = &report.sessions;
    println!(
        "sessions: {:.1}% under 1s, {:.1}% under 8h, {:.1}% active",
        sessions.under_1s * 100.0,
        sessions.under_8h * 100.0,
        sessions.active_fraction * 100.0
    );

    let burst = &report.burst_upload;
    println!(
        "upload inter-op times: CV {:.1} (bursty, non-Poisson){}",
        burst.cv,
        burst
            .fit
            .map(|f| format!(
                "; power-law fit alpha {:.2}, theta {:.0}s",
                f.alpha, f.theta
            ))
            .unwrap_or_default()
    );

    let lb = &report.load_balance;
    println!(
        "load balance: API hourly CV {:.2}; shard long-run imbalance {:.1}%",
        lb.api_mean_cv,
        lb.shard_longrun_cv * 100.0
    );

    // Keep the artifacts around for inspection.
    println!("\nlogfiles retained at {} — sample lines:", dir.display());
    if let Some(entry) = std::fs::read_dir(&dir).ok().and_then(|mut d| d.next()) {
        let path = entry.expect("entry").path();
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        for line in body.lines().take(4) {
            println!("  {line}");
        }
    }
}

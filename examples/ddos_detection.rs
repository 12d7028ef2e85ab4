//! DDoS detection and response (§5.4 + the §9 call for automation):
//! simulate a week containing the paper's first two leeching attacks,
//! rediscover them from the trace with the anomaly detector, and show the
//! countermeasure (ban) cutting the attack off.
//!
//! ```text
//! cargo run --release --example ddos_detection
//! ```

use std::sync::Arc;
use ubuntuone::analytics::ddos;
use ubuntuone::analytics::engine::{run_all, EngineConfig};
use ubuntuone::core::SimClock;
use ubuntuone::server::{Backend, BackendConfig};
use ubuntuone::trace::MemorySink;
use ubuntuone::workload::{Driver, WorkloadConfig};

fn main() {
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig::default(),
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    let cfg = WorkloadConfig {
        users: 700,
        days: 7, // covers the day-4 and day-5 attacks
        seed: 99,
        attacks: true,
        seed_files: 1.0,
        workers: 0,
    };
    let horizon = cfg.horizon();
    let report = Driver::new(cfg, Arc::clone(&backend), clock).run();
    println!(
        "simulated week: {} legitimate sessions, {} attack sessions, {} attack ops, {} bans",
        report.sessions_opened - report.attack_sessions,
        report.attack_sessions,
        report.attack_ops,
        report.users_banned
    );

    let records = sink.take_sorted();
    let engine = EngineConfig::new(
        horizon,
        backend.config().cluster.machines as usize,
        backend.config().store.shards as usize,
    );
    let detection = run_all(&records, &engine).ddos;

    println!("\nhourly session requests around the attacks (days 4-5):");
    for h in 96..144 {
        let sessions = detection.session_per_hour.get(h).copied().unwrap_or(0.0);
        let auth = detection.auth_per_hour.get(h).copied().unwrap_or(0.0);
        if sessions > 0.0 || auth > 0.0 {
            let bar = "#".repeat((sessions / 25.0) as usize);
            println!("  h{h:>3} sessions {sessions:>6.0} auth {auth:>6.0} {bar}");
        }
    }

    println!("\ndetected episodes:");
    for ep in &detection.episodes {
        println!(
            "  {} signal anomalous hours {}..{} (day {}), peak {:.1}x over baseline",
            ep.signal,
            ep.start_hour,
            ep.end_hour,
            ep.start_day(),
            ep.peak_multiplier
        );
    }
    let attacks = ddos::distinct_attacks(
        &detection
            .episodes
            .iter()
            .filter(|e| e.signal != "storage")
            .cloned()
            .collect::<Vec<_>>(),
    );
    println!("\ndistinct attacks: {}", attacks.len());
    for (start, end, peak) in &attacks {
        println!(
            "  attack on day {} ({} hours long, peak {:.1}x) — response: user banned, content deleted, activity decayed within the hour",
            start / 24,
            end - start + 1,
            peak
        );
    }
    assert!(
        attacks.len() >= 2,
        "both in-window attacks should be rediscovered"
    );
    println!("\nautomated detection rediscovered the injected attacks ✔");
}

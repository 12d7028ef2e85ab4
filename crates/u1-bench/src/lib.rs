//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4–§7) from a freshly simulated trace.
//!
//! One binary, `exp`, over the name → function table in [`experiments`]:
//!
//! ```text
//! cargo run --release -p u1-bench --bin exp -- all        # one simulation, every experiment
//! cargo run --release -p u1-bench --bin exp -- f7c_gini   # one experiment
//! cargo run --release -p u1-bench --bin exp -- faults --faults light
//! ```
//!
//! Environment overrides: `U1_USERS`, `U1_DAYS`, `U1_SEED`, `U1_ATTACKS=0`,
//! `U1_OUT_DIR` (JSON output directory, default `target/experiments`).
//!
//! Every experiment prints a human-readable table (the paper row/series)
//! and writes a JSON document so EXPERIMENTS.md numbers are regenerable.
//!
//! Performance is not measured here: `benchmark/` (BENCHMARK.json) is the
//! repo's one benchmark. The two other binaries are gates over inputs no
//! benchmark workload reaches — `bench_scale` (25k–100k-user tiers under
//! an RSS ceiling) and `scaling_gate` (≥4-CPU speed-up floors).

pub mod experiments;
pub mod fingerprint;
pub mod mem;
pub mod scenario;

pub use fingerprint::Fingerprint;
pub use scenario::{
    config_from_env, engine_config, run_scenario, run_scenario_streamed, run_scenario_with_faults,
    scenario_from_env, Scenario, StreamedScenario,
};

use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use u1_analytics::engine::EngineReport;

/// ONE streaming pass over the scenario's trace producing everything the
/// experiment battery reads.
pub fn analyze(scn: &Scenario) -> EngineReport {
    u1_analytics::engine::run_all(&scn.records, &engine_config(scn))
}

/// Output directory for experiment JSON.
pub fn out_dir() -> PathBuf {
    std::env::var("U1_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"))
}

/// Prints the human-readable block and persists the JSON document as
/// `<out_dir>/<id>.json`. A document that cannot be written is an error,
/// reported on stderr with its path — never a silent success.
pub fn emit(id: &str, human: &str, json: &Value) -> std::io::Result<()> {
    println!("== {id} ==");
    println!("{human}");
    let dir = out_dir();
    let path = dir.join(format!("{id}.json"));
    serde_json::to_string_pretty(json)
        .map_err(std::io::Error::other)
        .and_then(|text| {
            std::fs::create_dir_all(&dir)?;
            writeln!(std::fs::File::create(&path)?, "{text}")
        })
        .map_err(|e| {
            eprintln!("[emit] cannot write {}: {e}", path.display());
            e
        })?;
    println!("[json: {}]", path.display());
    Ok(())
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats bytes humanely.
pub fn bytes(x: u64) -> String {
    u1_core::ByteSize(x).to_string()
}

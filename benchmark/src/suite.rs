//! The runner: every workload in a fresh child process (so peak RSS and
//! heap state are per workload), several runs each, the statistics the
//! acceptance procedure uses, a result file next to the human table, and
//! optionally the traced runs and the repeat check.

use crate::host;
use crate::json;
use crate::stats::Summary;
use crate::{Args, WORKLOADS};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::io::Read;

/// What the runner needs from `/BENCHMARK.json`.
pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<Bounded>,
}

/// One end-to-end metric as `/BENCHMARK.json` declares it.
pub struct Bounded {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    pub bound: f64,
}

impl Contract {
    /// Reads `BENCHMARK.json` from the current directory (runs start at the
    /// root of the checkout).
    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no end_to_end list")?
            .iter()
            .map(|m| {
                Some(Bounded {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                    bound: m.get("bound")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        Ok(Contract {
            run_seconds,
            end_to_end,
        })
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .map(|mut out| out.read_to_string(&mut stdout));
    // Always reap the child, whatever reading its output did.
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    if let Some(Err(e)) = read {
        return Err(format!("reading {workload}'s output: {e}"));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} (seed {seed}) printed no result; exit {status}"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}'s result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed metric in the result line")?;
    let count = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true) && status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// One set of runs: workload -> metric -> values, plus verification totals.
#[derive(Default)]
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: u64,
    failed: u64,
    incorrect: Vec<String>,
}

fn run_set(args: &Args, seconds: f64, label: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for workload in WORKLOADS {
        for i in 0..args.reps {
            let seed = args.seed.wrapping_add(i as u64);
            eprintln!(
                "[runner] {label}: {workload} run {}/{} seed {seed:#x}",
                i + 1,
                args.reps
            );
            let r = run_child(workload, seed, seconds, false)?;
            set.attempted += r.attempted;
            set.failed += r.failed;
            if !r.correct {
                set.incorrect.push(format!("{workload} seed {seed:#x}"));
            }
            let per_metric = set.values.entry(workload.to_string()).or_default();
            for (name, value, _) in r.metrics {
                per_metric.entry(name).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Is `later` worse than `earlier` by more than `bound` of `earlier`?
fn worse_by_more_than(better: &str, earlier: f64, later: f64, bound: f64) -> bool {
    let drift = if better == "higher" {
        (earlier - later) / earlier.abs()
    } else {
        (later - earlier) / earlier.abs()
    };
    drift > bound
}

fn summaries(contract: &Contract, set: &RunSet, out: &mut String) -> (Value, bool) {
    let mut steady = true;
    let mut doc = Map::new();
    for workload in WORKLOADS {
        out.push_str(&format!(
            "\n{workload}\n  {:<16} {:>6} {:>14} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}\n",
            "metric", "unit", "median", "q1", "q3", "min", "n", "spread", "bound"
        ));
        let mut per_metric = Map::new();
        for Bounded {
            name,
            unit,
            better,
            bound,
        } in &contract.end_to_end
        {
            let values = set
                .values
                .get(workload)
                .and_then(|m| m.get(name))
                .cloned()
                .unwrap_or_default();
            let Some(s) = Summary::of(&values) else {
                continue;
            };
            // Set-up time is exempt from the spread rule, not from drift.
            let within = name == "setup_s" || values.len() < 2 || s.spread() <= *bound;
            steady &= within;
            out.push_str(&format!(
                "  {name:<16} {unit:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>7.2}% {:>5.0}%{}\n",
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.n,
                s.spread() * 100.0,
                bound * 100.0,
                if within { "" } else { "  UNSTEADY" }
            ));
            per_metric.insert(
                name.clone(),
                json!({
                    "unit": unit.clone(), "better": better.clone(), "bound": *bound,
                    "median": s.median, "q1": s.q1, "q3": s.q3, "min": s.min,
                    "n": s.n as u64, "spread": s.spread(), "values": values,
                }),
            );
        }
        doc.insert(workload.to_string(), Value::Object(per_metric));
    }
    (Value::Object(doc), steady)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let contract = Contract::load()?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    if host::nproc() < 2 {
        return Err(
            "refusing to record: this host has 1 CPU, so the reactor and the load generator \
             would share a core and every wire number would be invalid"
                .into(),
        );
    }
    let mut table = String::new();
    let mut ok = true;

    let first = run_set(args, seconds, "set 1")?;
    table.push_str("== end-to-end, tracing off (median over runs of per-run medians) ==\n");
    let (first_doc, steady) = summaries(&contract, &first, &mut table);
    ok &= steady && first.incorrect.is_empty();
    let mut result = Map::new();
    result.insert("host".into(), host::stamp());
    result.insert("seed".into(), json!(args.seed));
    result.insert("run_seconds".into(), json!(seconds));
    result.insert("runs_per_workload".into(), json!(args.reps as u64));
    result.insert("end_to_end".into(), first_doc);
    result.insert(
        "verification".into(),
        json!({
            "attempted": first.attempted, "failed": first.failed,
            "failed_share": first.failed as f64 / first.attempted.max(1) as f64,
            "incorrect_runs": first.incorrect.clone(),
        }),
    );

    if args.repeat_check {
        let second = run_set(args, seconds, "set 2")?;
        table.push_str("\n== repeat check: second set of runs of the same commit ==\n");
        let (second_doc, steady) = summaries(&contract, &second, &mut table);
        ok &= steady && second.incorrect.is_empty();
        table.push_str("\n  drift of the second median against the first\n");
        for workload in WORKLOADS {
            for Bounded {
                name,
                better,
                bound,
                ..
            } in &contract.end_to_end
            {
                let median = |set: &RunSet| {
                    set.values
                        .get(workload)
                        .and_then(|m| m.get(name))
                        .and_then(|v| Summary::of(v))
                        .map(|s| s.median)
                };
                let (Some(a), Some(b)) = (median(&first), median(&second)) else {
                    continue;
                };
                let worse = worse_by_more_than(better, a, b, *bound);
                ok &= !worse;
                table.push_str(&format!(
                    "  {workload:<14} {name:<16} {a:>14.4} -> {b:>14.4} ({:+.2}%){}\n",
                    (b - a) / a.abs() * 100.0,
                    if worse { "  WORSE THAN BOUND" } else { "" }
                ));
            }
        }
        result.insert("repeat".into(), second_doc);
    }

    if args.traced {
        table.push_str("\n== per-layer, from one traced run per workload ==\n");
        let mut layers: Vec<(String, String, Vec<f64>)> = Vec::new();
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("[runner] traced: {workload}");
            let r = run_child(workload, args.seed, seconds, true)?;
            if !r.correct {
                ok = false;
                table.push_str(&format!("  {workload}: traced run INCORRECT\n"));
            }
            for (i, (name, value, unit)) in r.metrics.into_iter().enumerate() {
                if w == 0 {
                    layers.push((name, unit, vec![value]));
                } else if let Some(row) = layers.get_mut(i) {
                    row.2.push(value);
                }
            }
        }
        table.push_str(&format!("  {:<40} {:>6}", "metric", "unit"));
        for workload in WORKLOADS {
            table.push_str(&format!(" {workload:>15}"));
        }
        table.push('\n');
        let mut doc = Map::new();
        for (name, unit, values) in &layers {
            table.push_str(&format!("  {name:<40} {unit:>6}"));
            for v in values {
                table.push_str(&format!(" {v:>15.4}"));
            }
            table.push('\n');
            let per_workload: Map = WORKLOADS
                .iter()
                .zip(values)
                .map(|(w, v)| (w.to_string(), json!(*v)))
                .collect();
            doc.insert(
                name.clone(),
                json!({ "unit": unit.clone(), "by_workload": Value::Object(per_workload) }),
            );
        }
        result.insert("per_layer".into(), Value::Object(doc));
    }

    // This benchmark measures; it never claims a gain.
    result.insert("claim".into(), Value::Null);
    println!("{table}");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    let text = serde_json::to_string_pretty(&Value::Object(result)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(args.out.join("results.txt"), &table)
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("[result file: {}]", path.display());
    println!(
        "verdict: {}",
        if ok {
            "all runs correct, every spread within its bound"
        } else {
            "FAILED — see above"
        }
    );
    println!("\"claim\": null");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_respects_the_metric_direction() {
        assert!(worse_by_more_than("higher", 100.0, 85.0, 0.10));
        assert!(!worse_by_more_than("higher", 100.0, 95.0, 0.10));
        assert!(!worse_by_more_than("higher", 100.0, 130.0, 0.10));
        assert!(worse_by_more_than("lower", 100.0, 115.0, 0.10));
        assert!(!worse_by_more_than("lower", 100.0, 60.0, 0.10));
    }
}

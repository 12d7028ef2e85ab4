//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON result line (the
//!   `/BENCHMARK.json` contract);
//! * without `--workload` it is the runner: every workload in a fresh child
//!   process, several runs each, a table of medians and quartiles, a result
//!   file, and optionally the traced runs and the repeat check.

mod alloc;
mod host;
mod json;
mod ledger;
mod metrics;
mod month;
mod offdisk;
mod pipeline;
mod rng;
mod span;
mod stats;
mod suite;
mod timed;
mod wire;
mod workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed every pinned output refers to (the repo's paper-month seed).
pub const DEFAULT_SEED: u64 = 0x0B5E_55ED;

/// Workload names, in the order `/BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["month_1k", "month_wide", "trace_offdisk", "wire_loopback"];

const USAGE: &str = "\
usage: u1-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       u1-benchmark [--seed N] [--seconds S] [--reps N] [--traced] [--repeat-check] [--out DIR]

workloads: month_1k month_wide trace_offdisk wire_loopback
  --seed N         input seed, decimal or 0x-hex (default 0x0B5E55ED)
  --seconds S      seconds each run measures (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run
  --reps N         runner: runs per workload, seeds N consecutive values (default 5)
  --traced         runner: also one traced run per workload, per-layer table and span files
  --repeat-check   runner: two sets of runs; every spread and both medians must respect the bounds
  --out DIR        runner: where the result file goes (default benchmark/out)";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub reps: usize,
    pub traced: bool,
    pub repeat_check: bool,
    pub out: std::path::PathBuf,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        reps: 5,
        traced: false,
        repeat_check: false,
        out: "benchmark/out".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--reps" => {
                let v = value()?;
                args.reps = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(v))?;
            }
            "--traced" => args.traced = true,
            "--repeat-check" => args.repeat_check = true,
            "--out" => args.out = value()?.into(),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One workload in this process: the contract's single run.
fn run_one(name: &str, args: &Args) -> Result<metrics::RunResult, String> {
    use workload::{run_traced, run_untraced};
    let seconds = match args.seconds {
        Some(s) => s,
        None => suite::Contract::load()?.run_seconds,
    };
    if host::nproc() < 2 {
        eprintln!(
            "[host] WARNING: 1 CPU — the reactor and the load generator share a core; \
             wire_loopback numbers from this host are not comparable"
        );
    }
    macro_rules! dispatch {
        ($w:ty) => {
            if args.trace {
                run_traced::<$w>(args.seed)
            } else {
                run_untraced::<$w>(args.seed, seconds)
            }
        };
    }
    match name {
        "month_1k" => dispatch!(month::Month<month::Dense>),
        "month_wide" => dispatch!(month::Month<month::Wide>),
        "trace_offdisk" => dispatch!(offdisk::OffDisk),
        "wire_loopback" => dispatch!(wire::WireLoopback),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args).map(|result| {
            println!("{}", result.to_line());
            result.correct
        }),
        None => suite::run(&args),
    });
    match outcome {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse_args(&argv(
            "--workload wire_loopback --seed 42 --seconds 10 --trace 1",
        ))
        .expect("parse");
        assert_eq!(a.workload.as_deref(), Some("wire_loopback"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), true));
    }

    #[test]
    fn seed_accepts_hex_and_defaults_to_the_pinned_seed() {
        assert_eq!(parse_seed("0x0B5E55ED"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("190731757"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("seed"), None);
        assert_eq!(parse_args(&[]).expect("parse").seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_values_and_unknown_flags() {
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--reps 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

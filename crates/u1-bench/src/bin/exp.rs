//! The experiment binary: `exp all`, `exp <name>`, `exp faults --faults
//! <spec>`. Names come from `u1_bench::experiments::TABLE`; environment
//! overrides are in the `u1-bench` crate docs.
//!
//! Exit codes: 0 done, 1 a JSON document could not be written, 2 usage
//! (unknown experiment, bad `--faults` spec).

use std::io;
use std::process::ExitCode;
use u1_bench::experiments::{exp_faults, Experiment, TABLE};

fn usage() -> String {
    let names: Vec<&str> = TABLE.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: exp all | exp <name> | exp faults --faults <spec>|light\nexperiments: {}",
        names.join(" ")
    )
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

fn run(args: &[String]) -> io::Result<()> {
    let name = match args {
        [name] => name.as_str(),
        [name, flag, spec] if name == "faults" && flag == "--faults" => return exp_faults(spec),
        _ => return Err(invalid("expected one experiment name".into())),
    };
    // One simulated month and ONE analytics pass, shared by every selected
    // experiment that reads it and made when the first of them asks.
    let mut month = None;
    // `None` until an experiment matched; then the first failed write, if
    // any — the rest still run, and `emit` has named each failing path.
    let mut outcome = None;
    for (_, exp) in TABLE.iter().filter(|(n, _)| name == "all" || name == *n) {
        let result = match exp {
            Experiment::Standalone(f) => f(),
            Experiment::Month(f) => {
                let (scenario, report) = month.get_or_insert_with(|| {
                    let scenario = u1_bench::scenario_from_env();
                    let report = u1_bench::analyze(&scenario);
                    (scenario, report)
                });
                f(scenario, report)
            }
        };
        outcome = Some(outcome.unwrap_or(Ok(())).and(result));
    }
    outcome.unwrap_or_else(|| Err(invalid(format!("unknown experiment `{name}`"))))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            eprintln!("exp: {e}\n{}", usage());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}

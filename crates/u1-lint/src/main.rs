//! CLI for the u1-lint workspace analyzer.
//!
//! ```text
//! cargo run -p u1-lint -- check            # human diagnostics, exit 1 on any finding
//! cargo run -p u1-lint -- check --json     # one JSON object per finding, for CI
//! cargo run -p u1-lint -- check --lock-graph lock-graph.json  # also export the lock graph
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    root: PathBuf,
    lock_graph: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: u1-lint check [--json] [--root DIR] [--lock-graph FILE]\n\
         \n\
         check     analyze the workspace; exit 1 on any finding\n\
         --json    emit one JSON object per finding instead of text\n\
         --root    workspace root (default: the root this binary was built in)\n\
         --lock-graph  also write the workspace lock-acquisition graph (JSON)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    // The compile-time manifest dir is crates/u1-lint; the workspace root
    // is two levels up. Overridable for out-of-tree use.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() != Some("check") {
        usage();
    }
    let mut args = Args {
        json: false,
        root: default_root,
        lock_graph: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => args.json = true,
            "--root" => args.root = argv.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--lock-graph" => {
                args.lock_graph = Some(argv.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let analysis = match u1_lint::analyze_workspace_full(&args.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "u1-lint: failed to read workspace at {}: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };
    let findings = analysis.findings;

    if let Some(path) = &args.lock_graph {
        if let Err(e) = std::fs::write(path, &analysis.lock_graph_json) {
            eprintln!("u1-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.json {
        for f in &findings {
            println!("{}", f.render_json());
        }
    } else {
        for f in &findings {
            print!("{}", f.render_text());
        }
        eprintln!("u1-lint: {} finding(s)", findings.len());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

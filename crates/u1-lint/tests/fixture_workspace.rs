//! End-to-end tests over the seeded fixture workspace in
//! `tests/fixtures/ws/`: exact rule IDs and line numbers, escape-hatch
//! suppression, and the CLI's exit-code / JSON / lock-graph contracts.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn findings() -> Vec<u1_lint::diag::Finding> {
    u1_lint::analyze_workspace(&fixture_root()).expect("fixture workspace readable")
}

#[test]
fn seeded_violations_are_found_at_exact_locations() {
    let got: Vec<(String, String, usize)> = findings()
        .iter()
        .map(|f| (f.rule.to_string(), f.path.clone(), f.line))
        .collect();
    let want: Vec<(String, String, usize)> = [
        ("U1L005", "crates/u1-analytics/src/stats.rs", 4),
        ("U1L006", "crates/u1-metastore/src/locks.rs", 13),
        ("U1L007", "crates/u1-metastore/src/locks.rs", 25),
        ("U1L008", "crates/u1-analytics/src/rollup.rs", 11),
        ("U1L008", "crates/u1-server/src/uptime.rs", 4),
    ]
    .iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), *l))
    .collect();
    let mut got_sorted = got.clone();
    got_sorted.sort();
    let mut want_sorted = want;
    want_sorted.sort();
    assert_eq!(got_sorted, want_sorted, "full findings: {got:#?}");
}

#[test]
fn escape_hatch_suppresses_by_id_and_slug() {
    // stats.rs:12 carries `allow(U1L005)`, uptime.rs:9 `allow(nondet-flow)`;
    // neither may appear even though both lines violate their rule.
    for f in findings() {
        assert!(
            !(f.path.ends_with("stats.rs") && f.line == 12),
            "suppressed float comparison reported: {f:?}"
        );
        assert!(
            !(f.path.ends_with("uptime.rs") && f.line == 9),
            "suppressed wall clock reported: {f:?}"
        );
    }
}

#[test]
fn cli_exits_nonzero_on_fixture_violations() {
    let out = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run u1-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[U1L005]"), "{stdout}");
    assert!(stdout.contains("stats.rs:4"), "{stdout}");
}

#[test]
fn cli_json_mode_emits_one_object_per_finding() {
    let out = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--json", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run u1-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    for line in lines {
        assert!(line.starts_with("{\"rule\":\"U1L"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        // Uniform shape: every object carries the full key set, snippet
        // included, so CI consumers never need per-rule special cases.
        for key in [
            "\"rule\":",
            "\"slug\":",
            "\"path\":",
            "\"line\":",
            "\"col\":",
            "\"message\":",
            "\"snippet\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}

#[test]
fn new_rules_report_expected_shapes() {
    let all = findings();
    let lock = all
        .iter()
        .find(|f| f.rule == "U1L006")
        .expect("U1L006 finding");
    assert!(
        lock.message
            .contains("u1-metastore/index -> u1-metastore/journal -> u1-metastore/index"),
        "{}",
        lock.message
    );
    assert!(lock.message.contains("locks.rs:13"), "{}", lock.message);
    assert!(lock.message.contains("locks.rs:19"), "{}", lock.message);

    let guard = all
        .iter()
        .find(|f| f.rule == "U1L007")
        .expect("U1L007 finding");
    assert!(guard.message.contains("guard `g`"), "{}", guard.message);
    assert!(guard.message.contains("stream I/O"), "{}", guard.message);

    let iter = all
        .iter()
        .find(|f| f.rule == "U1L008" && f.path.ends_with("rollup.rs"))
        .expect("U1L008 iteration finding");
    assert!(
        iter.message.contains("tally -> build_report"),
        "witness path missing: {}",
        iter.message
    );
}

#[test]
fn cli_lock_graph_flag_writes_artifact() {
    let graph = std::env::temp_dir().join(format!(
        "u1-lint-fixture-lock-graph-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .arg("--lock-graph")
        .arg(&graph)
        .output()
        .expect("run u1-lint");
    assert_eq!(out.status.code(), Some(1), "findings still fail the check");
    let json = std::fs::read_to_string(&graph).expect("lock graph written");
    let _ = std::fs::remove_file(&graph);
    // The graph is exported even though only one cycle exists: consistent
    // `head -> tail` edges from the Ordered fixture appear as plain edges.
    assert!(json.contains("\"u1-metastore/index\""), "{json}");
    assert!(json.contains("\"u1-metastore/head\""), "{json}");
    assert!(
        json.contains("[\"u1-metastore/index\", \"u1-metastore/journal\", \"u1-metastore/index\"]"),
        "{json}"
    );

    // Exported edges name files, not lines (an edit above a lock must not
    // change the committed graph), and each edge appears once: `twice`
    // calls `bump` at two sites under one guard.
    let edges: Vec<&str> = json.lines().filter(|l| l.contains("\"held\":")).collect();
    assert!(
        edges.iter().all(|e| !e.contains(".rs:")),
        "line number in an exported site: {json}"
    );
    assert!(
        edges
            .iter()
            .all(|e| e.contains("\"held_site\": \"crates/u1-metastore/src/locks.rs\"")),
        "{json}"
    );
    let twice = edges.iter().filter(|e| e.contains("twice -> bump")).count();
    assert_eq!(twice, 1, "{json}");
    let mut distinct = edges.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), edges.len(), "duplicate edge: {json}");
}

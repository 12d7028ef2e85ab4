//! End-to-end tests over the seeded fixture workspace in
//! `tests/fixtures/ws/`: exact rule IDs and line numbers, escape-hatch
//! suppression, and the CLI's exit-code / JSON / baseline contracts.

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
        ("U1L001", "crates/u1-server/src/handler.rs", 4),
        ("U1L001", "crates/u1-server/src/handler.rs", 5),
        ("U1L001", "crates/u1-server/src/handler.rs", 7),
        ("U1L002", "crates/u1-proto/src/wire.rs", 4),
        ("U1L003", "crates/u1-proto/src/msg.rs", 13),
        ("U1L004", "crates/u1-notify/src/lib.rs", 4),
        ("U1L004", "crates/u1-notify/src/lib.rs", 5),
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
    // handler.rs:9 carries `allow(U1L001)`, wire.rs:12 `allow(no-truncating-cast)`;
    // neither may appear even though both lines violate their rule.
    for f in findings() {
        assert!(
            !(f.path.ends_with("handler.rs") && f.line == 9),
            "suppressed unwrap reported: {f:?}"
        );
        assert!(
            !(f.path.ends_with("wire.rs") && f.line == 12),
            "suppressed cast reported: {f:?}"
        );
    }
}

#[test]
fn missing_decode_arm_names_both_enum_and_path() {
    let f = findings()
        .into_iter()
        .find(|f| f.rule == "U1L003")
        .expect("U1L003 finding");
    assert!(f.message.contains("Push::ShareCreated"), "{}", f.message);
    assert!(f.message.contains("decode path"), "{}", f.message);
}

#[test]
fn cli_exits_nonzero_on_fixture_violations() {
    let out = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .args(["--baseline", "/nonexistent/u1-lint-baseline.txt"])
        .output()
        .expect("run u1-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[U1L001]"), "{stdout}");
    assert!(stdout.contains("handler.rs:4"), "{stdout}");
}

#[test]
fn cli_json_mode_emits_one_object_per_finding() {
    let out = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--json", "--root"])
        .arg(fixture_root())
        .args(["--baseline", "/nonexistent/u1-lint-baseline.txt"])
        .output()
        .expect("run u1-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 12, "{stdout}");
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
fn cli_exits_nonzero_on_stale_baseline_entries() {
    let baseline =
        std::env::temp_dir().join(format!("u1-lint-fixture-stale-{}.txt", std::process::id()));
    // Full baseline plus one entry that matches nothing: everything is
    // grandfathered, but the stale entry alone must fail the check.
    let write = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["baseline", "--root"])
        .arg(fixture_root())
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("run u1-lint baseline");
    assert!(write.status.success());
    let mut content = std::fs::read_to_string(&baseline).expect("baseline readable");
    content.push_str("U1L001|crates/u1-server/src/gone.rs|let x = y.unwrap();\n");
    std::fs::write(&baseline, content).expect("baseline writable");

    let check = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("run u1-lint check");
    let _ = std::fs::remove_file(&baseline);
    assert_eq!(check.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("stale baseline entry"), "{stderr}");
    assert!(stderr.contains("gone.rs"), "{stderr}");
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
        .args(["--baseline", "/nonexistent/u1-lint-baseline.txt"])
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

#[test]
fn cli_baseline_round_trip_silences_check() {
    let baseline = std::env::temp_dir().join(format!(
        "u1-lint-fixture-baseline-{}.txt",
        std::process::id()
    ));
    let write = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["baseline", "--root"])
        .arg(fixture_root())
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("run u1-lint baseline");
    assert!(write.status.success());

    let check = Command::new(env!("CARGO_BIN_EXE_u1-lint"))
        .args(["check", "--root"])
        .arg(fixture_root())
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("run u1-lint check");
    let _ = std::fs::remove_file(&baseline);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
}

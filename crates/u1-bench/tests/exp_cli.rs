//! The `exp` binary and its name → function table: every experiment the
//! docs name resolves, usage errors exit 2, a document that cannot be
//! written exits 1, and `exp all` writes one JSON per table entry, which
//! between them name every paper row.

use std::path::PathBuf;
use std::process::{Command, Output};
use u1_bench::experiments::TABLE;

fn exp(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run exp")
}

fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("u1-exp-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Every `name` written `` `exp name` `` in `text`.
fn documented_names(text: &str) -> impl Iterator<Item = &str> {
    text.split("`exp ")
        .skip(1)
        .filter_map(|rest| rest.split('`').next())
}

#[test]
fn every_documented_experiment_is_in_the_table() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |file: &str| std::fs::read_to_string(format!("{root}/{file}")).expect(file);
    // EXPERIMENTS.md: the section headings. DESIGN.md: §4, the experiment
    // index, up to the next numbered section.
    let headings: String = read("EXPERIMENTS.md")
        .lines()
        .filter(|l| l.starts_with("## "))
        .collect();
    let design = read("DESIGN.md");
    let index = design
        .split("\n## 4. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a section 4");
    let names: Vec<&str> = documented_names(&headings)
        .chain(documented_names(index))
        .collect();
    assert!(names.len() >= 2 * 27, "found only {names:?}");
    for name in names {
        assert!(
            name == "all" || TABLE.iter().any(|(n, _)| *n == name),
            "`exp {name}` is documented but not in the table"
        );
    }
}

#[test]
fn usage_errors_exit_2() {
    let out = exp(&["nosuch"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in TABLE {
        assert!(stderr.contains(name), "usage omits {name}: {stderr}");
    }

    let out = exp(&["faults", "--faults", "bogus=1"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown fault key `bogus`"), "{stderr}");
}

#[test]
fn unwritable_out_dir_exits_1_and_names_the_path() {
    let file = scratch("not-a-dir");
    std::fs::write(&file, b"").expect("create file");
    let out = exp(
        &["f17_uploadjobs"],
        &[("U1_OUT_DIR", file.to_str().expect("utf-8 path"))],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{}", file.join("f17_uploadjobs.json").display())),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&file);
}

#[test]
fn all_writes_one_json_per_table_entry() {
    let dir = scratch("all");
    let out = exp(
        &["all"],
        &[
            ("U1_USERS", "120"),
            ("U1_DAYS", "2"),
            ("U1_OUT_DIR", dir.to_str().expect("utf-8 path")),
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("out dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    written.sort();
    let mut expected: Vec<String> = TABLE.iter().map(|(n, _)| format!("{n}.json")).collect();
    expected.sort();
    assert_eq!(written, expected);
    // Every paper row is rendered: its id is in some document.
    let documents: String = written
        .iter()
        .map(|name| std::fs::read_to_string(dir.join(name)).expect("read document"))
        .collect();
    for row in u1_core::paper::ROWS {
        assert!(
            documents.contains(&format!("\"{}\"", row.id)),
            "paper row `{}` appears in no JSON document",
            row.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The smoke-size paper reproduction prints exactly the committed text.
/// Every table and figure of the paper passes through this stdout, so a
/// change to any reported number, format or experiment shows up here as a
/// diff. `U1_OUT_DIR` is relative, so the `[json: …]` lines do not depend
/// on where the run happens. When a change moves the output on purpose,
/// regenerate the golden from the repository root with
///
/// ```text
/// U1_USERS=300 U1_DAYS=5 U1_OUT_DIR=target/exp-smoke cargo run --release -q -p u1-bench --bin exp -- all > crates/u1-bench/tests/golden/exp_all_smoke.stdout
/// ```
#[test]
fn all_smoke_prints_the_golden_stdout() {
    let golden = include_str!("golden/exp_all_smoke.stdout");
    let cwd = scratch("smoke");
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("all")
        .current_dir(&cwd)
        .envs([
            ("U1_USERS", "300"),
            ("U1_DAYS", "5"),
            ("U1_OUT_DIR", "target/exp-smoke"),
        ])
        .output()
        .expect("run exp");
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(stdout.lines().count().min(golden.lines().count()));
        panic!(
            "`exp all` stdout differs from the golden at line {}:\n  got    {:?}\n  golden {:?}",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

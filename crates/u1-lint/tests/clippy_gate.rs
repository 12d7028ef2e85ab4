//! The no-panic gate lives in clippy, not in u1-lint: each serving crate
//! denies the panic lints in its own manifest, and CI's clippy step must not
//! switch any of them back off with `-A`. This test keeps both halves live.

use std::path::{Path, PathBuf};

/// Crates whose non-test code serves requests and therefore must not panic
/// (PAPER.md §3: panics in request handling dominated U1 outages).
const SERVING_CRATES: &[&str] = &[
    "u1-server",
    "u1-proto",
    "u1-metastore",
    "u1-blobstore",
    "u1-notify",
    "u1-auth",
];

const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(key, value)` pairs of the manifest's `[lints.clippy]` table, quotes
/// stripped from the values.
fn clippy_lints(manifest: &str) -> Vec<(String, String)> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[lints.clippy]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| {
            let (key, value) = l.split_once('=')?;
            Some((
                key.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            ))
        })
        .collect()
}

#[test]
fn serving_crates_deny_the_panic_lints() {
    for krate in SERVING_CRATES {
        let lints = clippy_lints(&read(&format!("crates/{krate}/Cargo.toml")));
        for lint in PANIC_LINTS {
            assert!(
                lints.iter().any(|(k, v)| k == lint && v == "deny"),
                "crates/{krate}/Cargo.toml must set `{lint} = \"deny\"` under [lints.clippy]; \
                 has {lints:?}"
            );
        }
    }
    // The wire crate also denies narrowing casts (64→32-bit framing bugs).
    let proto = clippy_lints(&read("crates/u1-proto/Cargo.toml"));
    assert!(
        proto
            .iter()
            .any(|(k, v)| k == "cast_possible_truncation" && v == "deny"),
        "{proto:?}"
    );
}

#[test]
fn ci_clippy_step_allows_nothing_back() {
    let ci = read(".github/workflows/ci.yml");
    let step: Vec<&str> = ci
        .lines()
        .skip_while(|l| l.trim() != "- name: Clippy")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with("- "))
        .collect();
    let step = step.join("\n");
    assert!(step.contains("cargo clippy"), "no Clippy step in ci.yml");
    assert!(step.contains("-D warnings"), "{step}");
    assert!(
        !step.contains("-A clippy::") && !step.contains("--allow"),
        "the clippy step must not override the crates' lint levels: {step}"
    );
}

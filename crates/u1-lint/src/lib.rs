//! u1-lint: workspace analyzer for the U1 back-end invariants that neither
//! clippy nor the compiler can check (see DESIGN.md §7, "Static analysis &
//! lint policy"). Panics on request paths and truncating casts in wire code
//! are clippy's job (each serving crate denies the panic lints in its own
//! `[lints.clippy]` table, u1-proto also `cast_possible_truncation`);
//! message coverage is the compiler's exhaustive `match` plus the u1-proto
//! codec round-trip tests.
//!
//! | Rule   | Slug                    | Scope                                       |
//! |--------|-------------------------|---------------------------------------------|
//! | U1L005 | `no-float-eq`           | u1-analytics, including `== 0.0`            |
//! | U1L006 | `lock-order`            | workspace lock graph cycles                 |
//! | U1L007 | `guard-across-blocking` | guards spanning blocking ops                |
//! | U1L008 | `nondet-flow`           | hash iteration / wall clock on output paths |
//!
//! Findings are suppressible per line with
//! `// u1-lint: allow(<rule>) — <reason>` (rule ID or slug; the reason is
//! mandatory). There is no baseline: `check` fails on any finding.

pub mod callgraph;
pub mod diag;
pub mod facts;
pub mod lexer;
pub mod model;
pub mod rules;

use diag::Finding;
use model::SourceFile;
use std::path::Path;

/// Full analysis output: findings plus the lock-graph review artifact.
pub struct Analysis {
    pub findings: Vec<Finding>,
    /// The workspace lock-acquisition graph (nodes, edges, cycles) as JSON.
    pub lock_graph_json: String,
}

/// Parses and analyzes the given files (paths must be workspace-relative).
/// Suppressed findings are dropped here.
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Finding> {
    analyze_sources_full(sources).findings
}

/// Like [`analyze_sources`], but also renders the lock graph.
pub fn analyze_sources_full(sources: &[(String, String)]) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    let mut findings = Vec::new();
    for rule in rules::all() {
        findings.extend(rule.check(&files));
    }
    findings.retain(|f| {
        let Some(file) = files.iter().find(|s| s.rel_path == f.path) else {
            return true;
        };
        !(file.is_suppressed(f.rule, f.line) || file.is_suppressed(f.slug, f.line))
    });
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    let lock_graph_json = callgraph::Workspace::build(&files).lock_graph_json();
    Analysis {
        findings,
        lock_graph_json,
    }
}

/// Reads every analyzable file under `root` and runs all rules.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze_workspace_full(root)?.findings)
}

/// Like [`analyze_workspace`], but also renders the lock graph.
pub fn analyze_workspace_full(root: &Path) -> std::io::Result<Analysis> {
    let mut sources = Vec::new();
    for path in model::workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(analyze_sources_full(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_filters_by_id_and_slug() {
        let src = "\
fn cut(g: f64, h: f64, k: f64) -> bool {
    let a = g == 0.0; // u1-lint: allow(U1L005) — exact sentinel written by the caller
    let b = h == 0.0; // u1-lint: allow(no-float-eq) — exact sentinel written by the caller
    a && b && k == 0.0
}
";
        let findings = analyze_sources(&[(
            "crates/u1-analytics/src/stats.rs".to_string(),
            src.to_string(),
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn findings_are_sorted_by_location() {
        let src = "fn f(b: f64) -> bool { b == 0.0 }\nfn g(a: f64) -> bool { a != 1.0 }\n";
        let findings = analyze_sources(&[
            ("crates/u1-analytics/src/z.rs".to_string(), src.to_string()),
            ("crates/u1-analytics/src/a.rs".to_string(), src.to_string()),
        ]);
        assert_eq!(findings.len(), 4);
        assert!(findings[0].path < findings[2].path);
        assert!(findings[0].line < findings[1].line);
    }
}

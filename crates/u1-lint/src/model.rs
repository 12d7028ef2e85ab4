//! Source-file model: lexed tokens plus the structural spans rules need —
//! test-only regions (`#[cfg(test)]` mods, `#[test]` fns), function bodies,
//! and the escape-hatch suppressions.

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Inclusive token-index span with its line range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub first_tok: usize,
    pub last_tok: usize,
    pub first_line: usize,
    pub last_line: usize,
}

impl Span {
    pub fn contains_line(&self, line: usize) -> bool {
        (self.first_line..=self.last_line).contains(&line)
    }

    pub fn contains_tok(&self, idx: usize) -> bool {
        (self.first_tok..=self.last_tok).contains(&idx)
    }
}

/// A function item with its body span.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the `fn` keyword: the signature (incl. return type)
    /// spans `header_tok..body.first_tok`.
    pub header_tok: usize,
    /// Enclosing `impl` type name (`Stripe` for `impl<T> Stripe<T>`,
    /// the type after `for` in trait impls), `None` for free functions.
    pub owner: Option<String>,
    pub body: Span,
}

/// An `// u1-lint: allow(<rule>) — <reason>` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: usize,
    pub rule: String,
    pub has_reason: bool,
    /// True when the comment is alone on its line (no code tokens): only
    /// then does it cover the following line; a trailing comment covers
    /// its own line only.
    pub standalone: bool,
}

/// One analyzed source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Crate directory name (`u1-proto`), when under `crates/`.
    pub crate_name: Option<String>,
    pub lines: Vec<String>,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub test_spans: Vec<Span>,
    pub fns: Vec<FnSpan>,
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let tokens = lexed.tokens;
        let test_spans = find_test_spans(&tokens);
        let fns = find_fns(&tokens);
        let suppressions = find_suppressions(&lexed.comments, &tokens);
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            lines: src.lines().map(str::to_string).collect(),
            tokens,
            comments: lexed.comments,
            test_spans,
            fns,
            suppressions,
        }
    }

    /// True when the token at `idx` falls inside test-only code.
    pub fn is_test_tok(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains_tok(idx))
    }

    /// The trimmed source line (1-based), for diagnostics.
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim())
            .unwrap_or("")
    }

    /// True when a suppression for `rule` covers `line` (same line or the
    /// line directly above). Suppressions without a reason do not count —
    /// the hatch requires justification by design.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| {
            s.has_reason
                && (s.rule == rule || s.rule == "all")
                && (s.line == line || (s.standalone && s.line + 1 == line))
        })
    }
}

fn find_suppressions(comments: &[Comment], tokens: &[Token]) -> Vec<Suppression> {
    comments
        .iter()
        .filter_map(|c| {
            let rest = c.text.strip_prefix("u1-lint:")?.trim_start();
            let rest = rest.strip_prefix("allow")?.trim_start();
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            // Anything after the `)` beyond separator dashes counts as the
            // required reason text.
            let reason = rest[close + 1..]
                .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
                .trim();
            Some(Suppression {
                line: c.line,
                rule,
                has_reason: !reason.is_empty(),
                standalone: !tokens.iter().any(|t| t.line == c.line),
            })
        })
        .collect()
}

/// Finds the matching close brace for the open brace at `open`, returning
/// its token index.
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

fn span_between(tokens: &[Token], first: usize, last: usize) -> Span {
    Span {
        first_tok: first,
        last_tok: last,
        first_line: tokens[first].line,
        last_line: tokens[last].line,
    }
}

/// Collects the body spans of items annotated `#[test]`, `#[cfg(test)]`, or
/// any attribute whose argument list mentions `test` (covers
/// `#[cfg(any(test, feature = "x"))]` and `#[tokio::test]`).
fn find_test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct('[')) {
            let close = matching_bracket(tokens, i + 1);
            let attr = &tokens[i + 1..=close];
            let mentions_test = attr.iter().any(|t| t.kind.is_ident("test"))
                && !attr.iter().any(|t| t.kind.is_ident("not"));
            if mentions_test {
                // The annotated item's body is the next brace group; a `;`
                // first means a braceless item (e.g. `mod tests;`) — skip.
                if let Some(open) = (close + 1..tokens.len())
                    .find(|&j| tokens[j].kind.is_punct('{') || tokens[j].kind.is_punct(';'))
                {
                    if tokens[open].kind.is_punct('{') {
                        let end = matching_brace(tokens, open);
                        spans.push(span_between(tokens, i, end));
                        i = end + 1;
                        continue;
                    }
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// `impl` blocks as (body open brace, body close brace, type name). The
/// type is the last path segment before the body (after `for` in trait
/// impls), ignoring generics and where clauses.
fn find_impl_owners(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].kind.is_ident("impl") {
            i += 1;
            continue;
        }
        let mut angle = 0i64;
        let mut owner: Option<String> = None;
        let mut in_where = false;
        let mut j = i + 1;
        let mut open = None;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('{') if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                TokenKind::Punct(';') => break,
                TokenKind::Ident(id) if angle <= 0 && !in_where => {
                    if id == "for" {
                        owner = None;
                    } else if id == "where" {
                        in_where = true;
                    } else {
                        owner = Some(id.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        match (open, owner) {
            (Some(open), Some(owner)) => {
                let close = matching_brace(tokens, open);
                out.push((open, close, owner));
                i = open + 1; // impls don't nest; fns inside are assigned below
            }
            _ => i = j + 1,
        }
    }
    out
}

/// Finds every `fn` item and its body, noting which `impl` block (if any)
/// owns it.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let impls = find_impl_owners(tokens);
    let mut fns = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.kind.is_ident("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(|t| t.kind.ident()) else {
            continue;
        };
        // Body: first `{` after the signature, skipping any `->` return
        // type and where clause (neither contains braces in this codebase's
        // style; const-generic braces would need a real parser).
        if let Some(open) = (i + 2..tokens.len())
            .find(|&k| tokens[k].kind.is_punct('{') || tokens[k].kind.is_punct(';'))
        {
            if tokens[open].kind.is_punct('{') {
                let end = matching_brace(tokens, open);
                let owner = impls
                    .iter()
                    .find(|(o, c, _)| (*o..=*c).contains(&i))
                    .map(|(_, _, n)| n.clone());
                fns.push(FnSpan {
                    name: name.to_string(),
                    header_tok: i,
                    owner,
                    body: span_between(tokens, open, end),
                });
            }
        }
    }
    fns
}

/// Walks `crates/*/src/**/*.rs` under the workspace root, skipping
/// `target/`, `vendor/`, tests, benches, and u1-lint's own fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = r#"
fn real() { work(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
"#;
        let f = SourceFile::parse("crates/u1-x/src/lib.rs", src);
        assert_eq!(f.crate_name.as_deref(), Some("u1-x"));
        let unwrap_tok = f
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(f.is_test_tok(unwrap_tok));
        let work_tok = f
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("work"))
            .expect("work token");
        assert!(!f.is_test_tok(work_tok));
    }

    #[test]
    fn impl_owners_are_resolved() {
        let src = r#"
struct Stripe;
impl<T: Ord> Stripe<T> {
    fn push(&self) {}
}
impl std::fmt::Display for Stripe {
    fn fmt(&self, f: &mut Formatter) {}
}
fn free() {}
"#;
        let f = SourceFile::parse("crates/u1-x/src/lib.rs", src);
        let owners: Vec<(&str, Option<&str>)> = f
            .fns
            .iter()
            .map(|g| (g.name.as_str(), g.owner.as_deref()))
            .collect();
        assert_eq!(
            owners,
            vec![
                ("push", Some("Stripe")),
                ("fmt", Some("Stripe")),
                ("free", None)
            ]
        );
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "\
let a = x == 0.0; // u1-lint: allow(U1L005) — exact sentinel written by the caller
let b = y == 0.0; // u1-lint: allow(U1L005)
";
        let f = SourceFile::parse("crates/u1-x/src/lib.rs", src);
        assert!(f.is_suppressed("U1L005", 1));
        assert!(
            !f.is_suppressed("U1L005", 2),
            "reason-less hatch must not count"
        );
        assert!(!f.is_suppressed("U1L008", 1), "other rules are not covered");
    }

    #[test]
    fn suppression_on_previous_line_covers_next() {
        let src = "// u1-lint: allow(U1L008) - timing only\nlet t = SystemTime::now();\n";
        let f = SourceFile::parse("crates/u1-x/src/lib.rs", src);
        assert!(f.is_suppressed("U1L008", 2));
    }
}

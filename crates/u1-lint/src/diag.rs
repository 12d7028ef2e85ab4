//! Findings and their rendering: rustc-style text for humans, line-oriented
//! JSON for CI. JSON is emitted by hand — the analyzer stays dependency-free
//! so it builds even when the workspace under analysis does not.

use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, e.g. `U1L005`.
    pub rule: &'static str,
    /// Short rule slug, e.g. `no-float-eq`.
    pub slug: &'static str,
    /// Workspace-relative path.
    pub path: String,
    pub line: usize,
    pub col: usize,
    /// Human message for this occurrence.
    pub message: String,
    /// Trimmed text of the offending source line (the rendered snippet).
    pub line_text: String,
}

impl Finding {
    /// rustc-style rendering:
    ///
    /// ```text
    /// error[U1L005]: exact float `==` comparison in u1-analytics; …
    ///   --> crates/u1-analytics/src/stats.rs:216:14
    ///     |
    /// 216 | if gini == 0.0 {
    ///     |
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "error[{}]: {}", self.rule, self.message);
        let _ = writeln!(out, "  --> {}:{}:{}", self.path, self.line, self.col);
        let gutter = self.line.to_string().len();
        let _ = writeln!(out, "{:gutter$} |", "");
        let _ = writeln!(out, "{} | {}", self.line, self.line_text);
        let _ = writeln!(out, "{:gutter$} |", "");
        out
    }

    pub fn render_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","slug":"{}","path":"{}","line":{},"col":{},"message":"{}","snippet":"{}"}}"#,
            self.rule,
            self.slug,
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message),
            json_escape(&self.line_text),
        )
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "U1L005",
            slug: "no-float-eq",
            path: "crates/u1-analytics/src/stats.rs".into(),
            line: 216,
            col: 14,
            message: "exact float `==` comparison in u1-analytics".into(),
            line_text: "if gini == 0.0 {".into(),
        }
    }

    #[test]
    fn text_rendering_is_rustc_shaped() {
        let text = finding().render_text();
        assert!(text.starts_with("error[U1L005]:"));
        assert!(text.contains("--> crates/u1-analytics/src/stats.rs:216:14"));
        assert!(text.contains("216 | if gini == 0.0 {"));
    }

    #[test]
    fn json_rendering_escapes() {
        let mut f = finding();
        f.message = "bad \"quote\"".into();
        let json = f.render_json();
        assert!(json.contains(r#""message":"bad \"quote\"""#));
        assert!(json.contains(r#""line":216"#));
        assert!(json.contains(r#""snippet":"if gini == 0.0 {""#));
    }
}

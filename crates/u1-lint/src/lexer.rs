//! A small Rust lexer sufficient for invariant linting.
//!
//! Produces a flat token stream (idents, punctuation, literals) with line
//! and column positions, plus the line comments needed for the
//! `// u1-lint: allow(...)` escape hatch. String/char literal contents and
//! comment bodies never leak into the token stream, so rules matching on
//! `unwrap` or `as` cannot be fooled by text inside them. Handles raw
//! strings (`r#"…"#`), byte strings, nested block comments, lifetimes vs.
//! char literals, and numeric literals with suffixes.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based byte column of the token start.
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `as`, `unwrap`, …). Raw identifiers are
    /// stored without the `r#` prefix.
    Ident(String),
    /// Single punctuation character (`.`, `!`, `=`, `{`, …). Multi-char
    /// operators appear as consecutive tokens on the same line.
    Punct(char),
    /// Numeric literal, verbatim (`0x7F`, `1.5e3`, `42u64`).
    Number(String),
    /// String, byte-string, or char literal (content discarded).
    Text,
    /// Lifetime such as `'a` (name discarded).
    Lifetime,
}

impl TokenKind {
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, TokenKind::Ident(i) if i == s)
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(i) => Some(i),
            _ => None,
        }
    }

    pub fn number(&self) -> Option<&str> {
        match self {
            TokenKind::Number(n) => Some(n),
            _ => None,
        }
    }
}

/// A `//` comment, kept for escape-hatch matching.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: usize,
    /// Text after the `//`, trimmed.
    pub text: String,
}

/// Lexer output for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.string(b'"'),
                b'\'' => self.char_or_lifetime(),
                b if b.is_ascii_digit() => self.number(),
                b if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => self.ident(),
                _ => {
                    self.push(TokenKind::Punct(b as char), self.pos);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn col_at(&self, start: usize) -> usize {
        start - self.line_start + 1
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.out.tokens.push(Token {
            kind,
            line: self.line,
            col: self.col_at(start),
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos + 2;
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start.min(self.pos)..self.pos])
            .trim_start_matches(['/', '!'])
            .trim()
            .to_string();
        self.out.comments.push(Comment {
            line: self.line,
            text,
        });
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        let mut depth = 0usize;
        while self.pos < self.src.len() {
            if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    return;
                }
            } else {
                if self.peek(0) == Some(b'\n') {
                    self.line += 1;
                    self.line_start = self.pos + 1;
                }
                self.pos += 1;
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, and raw idents
    /// `r#ident`. Returns false when the `r`/`b` starts a plain identifier.
    fn raw_or_byte_string(&mut self) -> bool {
        let start = self.pos;
        let mut look = self.pos;
        let mut raw = false;
        if self.src[look] == b'b' {
            look += 1;
        }
        if self.src.get(look) == Some(&b'r') {
            raw = true;
            look += 1;
        }
        let mut hashes = 0usize;
        while self.src.get(look) == Some(&b'#') {
            hashes += 1;
            look += 1;
        }
        match self.src.get(look) {
            Some(&b'"') if raw || hashes == 0 => {
                self.pos = look + 1;
                if raw {
                    self.raw_string_tail(hashes);
                } else {
                    self.pos = start + 1; // plain b"…"
                    self.string(b'"');
                    return true;
                }
                let col_start = start;
                self.push_at_line_of(TokenKind::Text, col_start);
                true
            }
            Some(&b'\'') if self.src[start] == b'b' && !raw && hashes == 0 => {
                self.pos = start + 1;
                self.char_or_lifetime();
                true
            }
            Some(c) if raw && hashes == 1 && (c.is_ascii_alphabetic() || *c == b'_') => {
                // Raw identifier r#foo: lex as the plain identifier.
                self.pos = look;
                self.ident();
                true
            }
            _ => {
                self.ident();
                true
            }
        }
    }

    fn push_at_line_of(&mut self, kind: TokenKind, start: usize) {
        // Multi-line literals report their starting position, which may be
        // on an earlier line; the simple approximation (current line) is
        // fine for diagnostics because rules never fire inside literals.
        self.push(kind, start.max(self.line_start));
    }

    fn raw_string_tail(&mut self, hashes: usize) {
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.line_start = self.pos + 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos] == b'"' {
                let mut matched = 0usize;
                while matched < hashes && self.src.get(self.pos + 1 + matched) == Some(&b'#') {
                    matched += 1;
                }
                if matched == hashes {
                    self.pos += 1 + hashes;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    fn string(&mut self, quote: u8) {
        let start = self.pos;
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\n' => {
                    self.line += 1;
                    self.line_start = self.pos + 1;
                    self.pos += 1;
                }
                b if b == quote => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.push_at_line_of(TokenKind::Text, start);
    }

    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        // `'a` with no closing quote is a lifetime; `'a'` / `'\n'` a char.
        let mut look = self.pos + 1;
        if self.src.get(look) == Some(&b'\\') {
            // Definitely a char literal: consume through the closing quote.
            self.pos = look;
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                if self.src[self.pos] == b'\\' {
                    self.pos += 1;
                }
                self.pos += 1;
            }
            self.pos += 1;
            self.push(TokenKind::Text, start);
            return;
        }
        // Consume one (possibly multi-byte) character.
        look += 1;
        while self.src.get(look).is_some_and(|b| b & 0xC0 == 0x80) {
            look += 1;
        }
        if self.src.get(look) == Some(&b'\'') {
            self.pos = look + 1;
            self.push(TokenKind::Text, start);
        } else {
            // Lifetime: consume the identifier part.
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            self.push(TokenKind::Lifetime, start);
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        let hex = self.peek(0) == Some(b'0')
            && matches!(
                self.peek(1),
                Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
            );
        if hex {
            self.pos += 2;
        }
        while let Some(b) = self.peek(0) {
            let more = b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && self.peek(1).is_some_and(|n| n.is_ascii_digit()))
                || ((b == b'+' || b == b'-')
                    && matches!(
                        self.src.get(self.pos.wrapping_sub(1)),
                        Some(b'e') | Some(b'E')
                    )
                    && !hex);
            if !more {
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Number(text), start);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident(text), start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r#"
            let a = "x.unwrap()"; // result.unwrap() here is fine
            /* block .unwrap() comment /* nested */ still comment */
            let b = 'u';
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = r##"fn f<'a>(s: &'a str) -> &'a str { let _ = r#"raw "quoted" body"#; s }"##;
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(idents(src).contains(&"str".to_string()));
    }

    #[test]
    fn line_numbers_are_accurate() {
        let src = "fn a() {}\nfn b() {}\n\nfn c() {}\n";
        let lexed = lex(src);
        let fn_lines: Vec<usize> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind.is_ident("fn"))
            .map(|t| t.line)
            .collect();
        assert_eq!(fn_lines, vec![1, 2, 4]);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "let x = 1; // u1-lint: allow(U1L005) — reason\n// another\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.starts_with("u1-lint:"));
    }

    #[test]
    fn numbers_keep_suffix_and_base() {
        let kinds: Vec<String> = lex("0x7F_u8 1.5e-3 42usize")
            .tokens
            .into_iter()
            .filter_map(|t| t.kind.number().map(str::to_string))
            .collect();
        assert_eq!(kinds, vec!["0x7F_u8", "1.5e-3", "42usize"]);
    }
}

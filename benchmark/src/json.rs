//! A small JSON reader. The vendored `serde_json` stand-in only writes;
//! the runner also has to read `BENCHMARK.json` and the result lines its
//! child runs print.

use serde_json::{Map, Number, Value};

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).map_err(|e| e.to_string())?;
        let n = if let Ok(u) = text.parse::<u64>() {
            Number::U64(u)
        } else if let Ok(i) = text.parse::<i64>() {
            Number::I64(i)
        } else {
            Number::F64(
                text.parse::<f64>()
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))?,
            )
        };
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let stop = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..stop]).map_err(|e| e.to_string())?);
            self.pos += stop + 1;
            if rest[stop] == b'"' {
                return Ok(out);
            }
            let esc = *self.src.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("short \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut map = Map::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.src.get(self.pos) != Some(&b'"') {
                return Err(format!("expected a key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(":")?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn round_trips_what_the_writer_emits() {
        let doc = json!({
            "correct": true,
            "attempted": 12u64,
            "neg": -3i64,
            "metrics": { "a.b": { "value": 1.25, "unit": "1/s" } },
            "list": [1u64, "two \"quoted\"\n", null],
            "empty": {},
        });
        for text in [
            serde_json::to_string(&doc).expect("write"),
            serde_json::to_string_pretty(&doc).expect("write"),
        ] {
            assert_eq!(parse(&text).expect("parse"), doc);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "{} x", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}

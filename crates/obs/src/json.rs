//! A minimal JSON reader: just enough to validate the documents this
//! crate emits (Chrome trace profiles, JSONL metric streams) without
//! external dependencies or a Python interpreter in CI.

use std::collections::BTreeMap;

/// A parsed JSON value. Numbers are kept as raw text — validation does
/// not need arithmetic, and raw text avoids float round-tripping.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for embedding in a JSON document.
pub fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Each level costs
/// a few stack frames, so without a bound a one-megabyte document of `[`
/// overflows the stack and aborts the process. The documents this
/// workspace reads nest a handful of levels deep.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a char boundary.
    pos: usize,
    /// Arrays and objects currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("at byte {}: {}", self.pos, msg)
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                digits |= b.is_ascii_digit();
                self.pos += 1;
            } else {
                break;
            }
        }
        if !digits {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(self.src[start..self.pos].to_owned()))
    }

    /// Reads a string literal. Runs of unescaped text are copied whole;
    /// a string without escapes is one exact-size copy.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let rest = &self.src.as_bytes()[self.pos..];
        // Pre-scan to the closing quote, skipping the byte after each
        // `\`: the literal's length bounds its unescaped length.
        let (mut end, mut escaped) = (0, false);
        while let Some(&b) = rest.get(end) {
            match b {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    end += 2;
                }
                _ => end += 1,
            }
        }
        if !escaped && end < rest.len() {
            let out = self.src[self.pos..self.pos + end].to_owned();
            self.pos += end + 1;
            return Ok(out);
        }
        let mut out = String::with_capacity(end.min(rest.len()));
        loop {
            // `"` and `\` are ASCII, so a run ends on a char boundary.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .src
                        .as_bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    // Surrogate pairs are not needed for our own
                    // documents; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Validates a Chrome trace-event document: well-formed JSON, a
/// non-empty `traceEvents` array, and every event an object with `ph`,
/// `pid`, `tid` and `name` (complete `"X"` events also need `ts` and
/// `dur`). Returns the event count.
pub fn check_chrome_trace(src: &str) -> Result<usize, String> {
    let doc = parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".to_owned());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["ph", "pid", "tid", "name"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} lacks `{key}`"));
            }
        }
        if ev.get("ph").and_then(Value::as_str) == Some("X") {
            for key in ["ts", "dur"] {
                if !matches!(ev.get(key), Some(Value::Num(_))) {
                    return Err(format!("complete event {i} lacks numeric `{key}`"));
                }
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rejects() {
        assert!(parse(r#"{"a": [1, 2.5, -3e2], "b": "x\n\"y\""}"#).is_ok());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\": }").is_err());
    }

    #[test]
    fn chrome_checks() {
        assert!(check_chrome_trace(r#"{"traceEvents": []}"#).is_err());
        assert!(check_chrome_trace(r#"{"other": 1}"#).is_err());
        let ok =
            r#"{"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "name": "a", "ts": 1, "dur": 2}]}"#;
        assert_eq!(check_chrome_trace(ok), Ok(1));
        let bad = r#"{"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "name": "a", "ts": 1}]}"#;
        assert!(check_chrome_trace(bad).is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(s));
        let mut appended = String::from("[\"");
        escape_into(&mut appended, s);
        appended.push_str("\"]");
        assert_eq!(appended, format!("[\"{}\"]", escape(s)));
    }

    #[test]
    fn escapes_at_either_end_of_a_string_decode() {
        let v = parse(r#"["\tab\n", "\u00e9x\"", "\\", "", "x\/"]"#).unwrap();
        let strs: Vec<_> = v.as_arr().unwrap().iter().map(Value::as_str).collect();
        assert_eq!(
            strs,
            [
                Some("\tab\n"),
                Some("\u{e9}x\""),
                Some("\\"),
                Some(""),
                Some("x/")
            ]
        );
    }

    #[test]
    fn string_errors_report_their_byte_position() {
        for (doc, want) in [
            ("\"abc", "at byte 4: unterminated string"),
            ("[\"a\u{e9}", "at byte 5: unterminated string"),
            ("\"a\\nbc", "at byte 6: unterminated string"),
            ("{\"ab", "at byte 4: unterminated string"),
            ("\"abc\\", "at byte 5: bad escape"),
            ("\"a\\nb\\", "at byte 6: bad escape"),
            ("\"a\\qb\"", "at byte 3: bad escape"),
            ("\"a\\u00", "at byte 3: truncated \\u escape"),
        ] {
            assert_eq!(parse(doc), Err(want.to_owned()), "{doc:?}");
        }
    }

    #[test]
    fn a_one_megabyte_string_parses_in_linear_time() {
        // One legal serve frame can carry a string this long, and a
        // daemon connection thread parses it before applying the request.
        let text = "abc\u{e9}\u{1f600}".repeat(1 << 17);
        assert!(text.len() > 1 << 20);
        let doc = format!("[\"{text}\"]");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_arr().and_then(|a| a[0].as_str()), Some(&*text));
        assert!(took.as_secs_f64() < 2.0, "took {took:?}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // One megabyte of brackets fits in a single serve frame.
        let n = 500_000;
        let doc = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let err = parse(&doc).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let doc = "{\"a\": ".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&doc).unwrap_err().contains("nesting"));
        // The limit itself parses.
        let doc = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse(&doc).is_ok());
    }
}

//! A minimal JSON value tree, serializer, and parser.
//!
//! The observability subsystem must not pull in serde (the build
//! environment is offline), so metric snapshots are rendered through this
//! hand-rolled writer. Objects use [`BTreeMap`] so key order — and
//! therefore the serialized bytes — are deterministic, which the golden
//! schema tests rely on. [`Json::parse`] is the matching reader:
//! `bench-matrix --check` reads its committed baselines with it, so
//! neither side needs an external crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, bucket counts, nanosecond totals).
    UInt(u64),
    /// A signed integer (gauges).
    Int(i64),
    /// A finite float; NaN and infinities render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Json>),
    /// A key-sorted object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Inserts `key` into an object value; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Object(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// The object's keys, if this is an object.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(map) => map.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders human-readable JSON with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// A parse failure: byte offset plus a short explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses a JSON document.
    ///
    /// Numbers parse as [`Json::UInt`] when they are non-negative
    /// integers, [`Json::Int`] for negative integers, and [`Json::Float`]
    /// otherwise — the same partition the writer emits (a `Float` always
    /// carries a `.` or exponent). Trailing non-whitespace is an error,
    /// and so is nesting arrays/objects more than [`MAX_PARSE_DEPTH`]
    /// levels deep (the parser recurses once per level, so unbounded
    /// nesting would overflow the stack).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document this workspace writes nests at most a few levels.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, reason: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_PARSE_DEPTH`] levels.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_PARSE_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogates never appear in writer output
                            // (it emits \u only for control characters).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
                Some(_) => unreachable!("fast-path loop stops only at quote/escape/end"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' => {
                    fractional = true;
                    self.pos += 1;
                }
                b'-' if fractional => self.pos += 1, // exponent sign
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if fractional {
            let x: f64 = text
                .parse()
                .map_err(|_| self.error("malformed float literal"))?;
            return Ok(Json::Float(x));
        }
        if text.starts_with('-') {
            let n: i64 = text
                .parse()
                .map_err(|_| self.error("integer out of range"))?;
            Ok(Json::Int(n))
        } else {
            let n: u64 = text
                .parse()
                .map_err(|_| self.error("integer out of range"))?;
            Ok(Json::UInt(n))
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` on f64 round-trips; append `.0` so integral floats stay floats
    // on re-read.
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn floats_stay_floats_and_nonfinite_is_null() {
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(3.0).render(), "3.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn objects_render_with_sorted_keys() {
        let mut obj = Json::object();
        obj.set("zebra", Json::UInt(1));
        obj.set("apple", Json::UInt(2));
        assert_eq!(obj.render(), "{\"apple\":2,\"zebra\":1}");
    }

    #[test]
    fn nested_structures_round_trip_shape() {
        let mut inner = Json::object();
        inner.set("n", Json::UInt(3));
        let root = Json::Array(vec![inner, Json::Null, Json::Bool(false)]);
        assert_eq!(root.render(), "[{\"n\":3},null,false]");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::Str("\u{01}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut inner = Json::object();
        inner.set("count", Json::UInt(3));
        inner.set("delta", Json::Int(-7));
        inner.set("rate", Json::Float(0.25));
        inner.set("big", Json::Float(3.0));
        inner.set("label", Json::Str("tab\there \"quoted\" \u{01}".into()));
        let root = Json::Array(vec![
            inner,
            Json::Null,
            Json::Bool(true),
            Json::Array(vec![]),
            Json::object(),
        ]);
        assert_eq!(Json::parse(&root.render()).unwrap(), root);
        assert_eq!(Json::parse(&root.render_pretty()).unwrap(), root);
    }

    #[test]
    fn parse_number_partition_matches_writer() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Float(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Float(-1500.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"open", "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn parse_refuses_nesting_beyond_the_limit() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_PARSE_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_PARSE_DEPTH);
        assert!(err.reason.contains("nesting"), "{err}");
        // Deep enough to overflow the stack without the limit.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_unicode_escape() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
    }

    #[test]
    fn pretty_rendering_is_indented_and_parseable_shape() {
        let mut obj = Json::object();
        obj.set("list", Json::Array(vec![Json::UInt(1), Json::UInt(2)]));
        obj.set("empty", Json::object());
        let pretty = obj.render_pretty();
        assert!(pretty.contains("\"list\": [\n"));
        assert!(pretty.contains("\"empty\": {}"));
        assert!(pretty.ends_with("}\n"));
    }
}

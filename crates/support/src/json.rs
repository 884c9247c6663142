//! Minimal JSON value, parser and serializer.
//!
//! Replaces `serde_json` for the workspace's narrow needs: loading
//! `examples/data/sample_schema.json`, snapshotting the estimator model and
//! template store, and emitting bench reports. The serializer follows the
//! conventions `serde_json` derives used — `HashMap` as object, `Option` as
//! value-or-`null`, tuples as arrays, unit enum variants as strings — so
//! files written by the previous serde-based code still parse.
//!
//! Numbers are held as `f64`. Every integer the workspace persists (row
//! counts, NDVs, clocks) is well below 2^53, so this is lossless in
//! practice; [`Json::as_u64`]/[`Json::as_i64`] round-trip such values
//! exactly, and the serializer prints integral numbers without a decimal
//! point (`6000000`, not `6000000.0`).
//!
//! ```
//! use autoindex_support::json::Json;
//!
//! let v = Json::parse(r#"{"a": [1, 2.5, true, null], "s": "hi\nthere"}"#).unwrap();
//! assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
//! assert_eq!(v.get("s").and_then(Json::as_str), Some("hi\nthere"));
//! assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
///
/// Objects use a [`BTreeMap`] so serialization order is deterministic —
/// byte-identical output for identical state, which the determinism checks
/// in `scripts/verify.sh` rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

/// Error produced by [`Json::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace content is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element lookup; `None` out of range or for non-arrays.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Array(v) => v.get(idx),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer payload, if this is a number holding an exact non-negative
    /// integer within `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Integer payload, if this is a number holding an exact integer within
    /// the ±2^53 exact range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `true` iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize with two-space indentation and a trailing newline —
    /// the shape `serde_json::to_string_pretty` produced for the data
    /// files shipped in `examples/data/`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(v) if !v.is_empty() => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Object(m) if !m.is_empty() => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_json_number(out, *n),
            Json::String(s) => write_json_string(out, s),
            Json::Array(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(m) => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    item.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (`Display`), matching `serde_json::to_string`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_compact(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}
impl From<BTreeMap<String, Json>> for Json {
    fn from(m: BTreeMap<String, Json>) -> Json {
        Json::Object(m)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        match o {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// Convenience builder for objects: `obj([("a", Json::from(1u64))])`.
pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_json_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; serde_json errors here. We clamp to null to
        // keep serialization total.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{}` on f64 prints the shortest representation that round-trips.
        out.push_str(&format!("{n}"));
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: expect a \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 char (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(
            Json::parse("\"hi\"").unwrap(),
            Json::String("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": {"d": [true, false]}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().at(0).unwrap().as_f64(), Some(1.0));
        assert!(v
            .get("a")
            .unwrap()
            .at(1)
            .unwrap()
            .get("b")
            .unwrap()
            .is_null());
        assert_eq!(
            v.get("c")
                .unwrap()
                .get("d")
                .unwrap()
                .at(1)
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{0007} ünïcödé 🦀";
        let v = Json::String(original.to_string());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // Surrogate pair: 🦀 is U+1F980.
        assert_eq!(Json::parse(r#""🦀""#).unwrap().as_str(), Some("🦀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err()); // lone surrogate
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Number(6_000_000.0).to_string(), "6000000");
        assert_eq!(Json::Number(-7.0).to_string(), "-7");
        assert_eq!(Json::Number(0.25).to_string(), "0.25");
    }

    #[test]
    fn u64_roundtrip_within_exact_range() {
        for n in [0u64, 1, 300_000, 6_000_000, 1 << 52] {
            let v = Json::from(n);
            assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(n));
        }
        assert_eq!(Json::Number(1.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_i64(), Some(-1));
    }

    #[test]
    fn object_serialization_is_deterministic() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"m":3,"z":1}"#);
        assert_eq!(v.to_string(), v.clone().to_string());
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse(r#"{"tables":{"t":{"rows":100,"pk":["a"],"part":null}}}"#).unwrap();
        let pretty = v.pretty();
        assert!(pretty.contains("\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn obj_builder() {
        let v = obj([("x", Json::from(1u64)), ("y", Json::from("s"))]);
        assert_eq!(v.to_string(), r#"{"x":1,"y":"s"}"#);
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
    }
}

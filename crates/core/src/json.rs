//! A minimal self-contained JSON document model, parser and writer.
//!
//! The build environment of this reproduction has no access to crates.io, so
//! `serde`/`serde_json` are unavailable. Schedule export ([`crate::export`])
//! only needs a small, well-understood JSON subset, which this module provides:
//! a [`Value`] tree, a strict recursive-descent [`Value::parse`] and a
//! pretty-printing [`Value::to_json_pretty`] / compact [`Value::to_json`]
//! writer. Object keys are kept in a `BTreeMap`, so output is deterministic.
//!
//! Both directions are linear in the size of the text. The parser's input is
//! a `&str`, so it is valid UTF-8 already and the two bytes that end a run
//! of plain string content (`"` and `\`) are ASCII: runs are copied whole,
//! never re-validated. Nesting is limited to 128 containers, so a
//! hostile document costs an error, not the parsing thread's stack.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// documents of this workspace nest fewer than ten levels; the parser
/// recurses once per level, and without a limit a frame of `[` characters
/// overflows the stack — which aborts the process, not just the thread.
const MAX_DEPTH: usize = 128;

/// A JSON document: the usual six value kinds.
///
/// Numbers are stored as `f64`, which is lossless for every quantity the
/// schedule exporter produces (indices, microsecond offsets and counters are
/// all far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Value>),
}

/// An error produced while parsing or interpreting a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error in the input, when known.
    offset: Option<usize>,
}

impl JsonError {
    /// Creates an error with a free-form message (used by decoders built on
    /// top of [`Value`], e.g. for missing or mistyped fields).
    pub fn custom(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {}", self.message, offset),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document, requiring that the whole input is consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first violation
    /// of the grammar, or of the array or object that would nest deeper
    /// than 128 levels.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut parser = Parser {
            input,
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != input.len() {
            return Err(JsonError::at("trailing characters", parser.pos));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as pretty-printed JSON (two-space indentation).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                // `{}` on f64 prints the shortest representation that parses
                // back to the same value; integers print without a fraction.
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the text between two of
    // them is a whole number of code points and is copied in one piece.
    let mut plain_from = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[plain_from..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        plain_from = i + 1;
    }
    out.push_str(&s[plain_from..]);
    out.push('"');
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                format!("expected `{}`", char::from(byte)),
                self.pos,
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(JsonError::at("unexpected character", self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    /// Parses one array or object, refusing to open more than [`MAX_DEPTH`]
    /// of them around each other.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{literal}`"), self.pos))
        }
    }

    /// Consumes one or more ASCII digits; errors if none are present.
    fn parse_digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::at("expected a digit", start));
        }
        Ok(())
    }

    /// Parses a number following the JSON grammar exactly: an optional minus,
    /// an integer part without leading zeros, then optional fraction and
    /// exponent parts that each require at least one digit.
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        self.parse_digits()?;
        if self.input.as_bytes()[int_start] == b'0' && self.pos > int_start + 1 {
            return Err(JsonError::at("leading zeros are not allowed", int_start));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.parse_digits()?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.parse_digits()?;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::at("invalid number", start))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain content ends at the next quote or backslash.
            // Both are ASCII, so the run is whole code points of an input
            // that is valid UTF-8 by type: one copy, nothing to validate.
            let rest = &self.input[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1,
            }
            let unescaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.parse_unicode_escape()?);
                    continue;
                }
                _ => return Err(JsonError::at("invalid escape", self.pos)),
            };
            out.push(unescaped);
            self.pos += 1;
        }
    }

    /// The code point of a `\u` escape, `pos` just past the `u`. A high
    /// surrogate must be followed by an escaped low surrogate.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.parse_hex4()?;
        let scalar = if (0xD800..0xDC00).contains(&code) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(JsonError::at("invalid low surrogate", self.pos));
            }
            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
        } else {
            code
        };
        char::from_u32(scalar).ok_or_else(|| JsonError::at("invalid unicode escape", self.pos))
    }

    /// Exactly four hex digits (no sign, no whitespace).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.input.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(JsonError::at("truncated unicode escape", self.pos));
        };
        let mut code = 0;
        for &digit in digits {
            let value = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| JsonError::at("invalid unicode escape", self.pos))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -12.5e2 ").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            Value::parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].as_object().unwrap()["b"].as_bool(), Some(false));
        assert_eq!(obj["c"].as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{not json", "[1,]", "{\"a\":}", "1 2", "", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn number_grammar_is_json_strict() {
        // Forms Rust's f64 parser accepts but JSON forbids must be rejected.
        for bad in [
            "01", "-01", "1.", ".5", "1.e5", "1e", "1e+", "-", "+1", "00",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad}");
        }
        for (good, expected) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("10", 10.0),
            ("1e5", 1e5),
            ("1.25E-2", 0.0125),
        ] {
            assert_eq!(Value::parse(good).unwrap(), Value::Number(expected));
        }
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let original = Value::parse(
            r#"{"name": "s\"1", "values": [0, 40000.5, -3], "flag": true, "none": null}"#,
        )
        .unwrap();
        for rendered in [original.to_json(), original.to_json_pretty()] {
            assert_eq!(Value::parse(&rendered).unwrap(), original);
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".to_owned())
        );
    }

    #[test]
    fn unicode_escapes_require_exactly_four_hex_digits() {
        assert!(Value::parse("\"\\u+061\"").is_err());
        assert!(Value::parse("\"\\u00 1\"").is_err());
        assert!(Value::parse("\"\\u00\"").is_err());
        assert_eq!(
            Value::parse("\"\\u0061\"").unwrap(),
            Value::String("a".to_owned())
        );
    }

    #[test]
    fn nesting_is_limited_and_the_error_names_the_offset() {
        let nest = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close, offset) in [("[", "]", MAX_DEPTH), ("{\"k\":", "}", 5 * MAX_DEPTH)] {
            assert!(Value::parse(&nest(open, close, MAX_DEPTH)).is_ok());
            let error = Value::parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(
                error.to_string(),
                format!("nesting deeper than {MAX_DEPTH} levels at byte {offset}")
            );
        }
        // The frame that used to overflow the connection thread's stack.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
        // Depth counts containers around a position, not containers seen.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn plain_runs_and_escapes_meet_at_every_boundary() {
        for (text, expected) in [
            (r#""""#, ""),
            (r#""\n""#, "\n"),
            (r#""ab\ncd""#, "ab\ncd"),
            (r#""\\\"é\u00e9\t""#, "\\\"éé\t"),
            (r#""é\ud83d\ude00é\/""#, "é😀é/"),
            ("\"raw\ttab\"", "raw\ttab"),
        ] {
            assert_eq!(
                Value::parse(text).unwrap(),
                Value::String(expected.to_owned()),
                "{text}"
            );
        }
        for bad in [
            r#""\"#,
            r#""a\x""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\udc00""#,
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn writer_escapes_controls_and_copies_the_rest_verbatim() {
        let original = Value::String("\u{1}a\"b\\c\n\r\t\u{8}\u{c}\u{1f}é😀\u{7f}".to_owned());
        assert_eq!(
            original.to_json(),
            "\"\\u0001a\\\"b\\\\c\\n\\r\\t\\b\\f\\u001fé😀\u{7f}\""
        );
        assert_eq!(Value::parse(&original.to_json()).unwrap(), original);
        assert_eq!(Value::Number(40000.5).to_json(), "40000.5");
        assert_eq!(Value::Number(-3.0).to_json(), "-3");
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn u64_conversion_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(5.0).as_u64(), Some(5));
        assert_eq!(Value::Number(5.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }
}

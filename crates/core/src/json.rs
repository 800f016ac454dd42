//! A minimal self-contained JSON document model, parser and writer.
//!
//! The build environment of this reproduction has no access to crates.io, so
//! `serde`/`serde_json` are unavailable. Schedule export ([`crate::export`])
//! only needs a small, well-understood JSON subset, which this module provides:
//! a [`Value`] tree, a strict recursive-descent [`Value::parse`] and a
//! pretty-printing [`Value::to_json_pretty`] / compact [`Value::to_json`]
//! writer. Object keys are kept in a `BTreeMap`, so output is deterministic.
//!
//! Typed documents sit on [`Value`] through one mechanism: the [`Json`] trait
//! (implemented here for the primitives, `Option`, `Vec`, pairs and
//! index-keyed maps) and one [`json_object!`](crate::json_object) field table
//! per struct, which lists each member once and yields both directions. The
//! README's "The codec" section says how to add a field or a wire type.
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

    /// The same error, named as having occurred inside member `name`.
    fn within(self, name: &str) -> Self {
        JsonError {
            message: format!("`{name}`: {}", self.message),
            offset: self.offset,
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

/// The members of a JSON object, as [`Value::Object`] holds them.
pub type Object = BTreeMap<String, Value>;

/// A type with one JSON form: the single encode path and the single decode
/// path of every wire and disk document.
pub trait Json: Sized {
    /// The JSON form of `self`.
    fn to_value(&self) -> Value;

    /// Decodes the JSON form.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming what was expected, prefixed by [`field`] with
    /// the members it was found under.
    fn from_value(value: &Value) -> Result<Self, JsonError>;

    /// What an object member of this type decodes to when it is absent: an
    /// error, except for `Option` (absent or `null` is `None`).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the missing `field`.
    fn from_absent(field: &str) -> Result<Self, JsonError> {
        Err(missing(field))
    }
}

fn missing(field: &str) -> JsonError {
    JsonError::custom(format!("missing field `{field}`"))
}

/// A struct whose JSON form is an object with one member per field. A
/// [`json_object!`](crate::json_object) table implements it; [`Json`] follows
/// from it. The two methods exist on their own for the types that share an
/// object with something else: a struct flattened into its parent, the body
/// of a tagged enum variant next to its `"type"`.
pub trait JsonObject: Sized {
    /// What a value of the wrong kind is reported as ("`WHAT` must be a JSON
    /// object").
    const WHAT: &'static str;

    /// Inserts one member per field.
    fn write_fields(&self, map: &mut Object);

    /// Reads the fields back; members the type does not know are ignored.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] for a missing or mistyped member.
    fn read_fields(map: &Object) -> Result<Self, JsonError>;
}

impl<T: JsonObject> Json for T {
    fn to_value(&self) -> Value {
        let mut map = Object::new();
        self.write_fields(&mut map);
        Value::Object(map)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Self::read_fields(object(value, Self::WHAT)?)
    }
}

/// The members of `value`, which must be an object.
///
/// # Errors
///
/// "`what` must be a JSON object" otherwise.
pub fn object<'a>(value: &'a Value, what: &str) -> Result<&'a Object, JsonError> {
    value
        .as_object()
        .ok_or_else(|| JsonError::custom(format!("{what} must be a JSON object")))
}

/// The elements of member `name` of `map`, which must be an array — for a
/// decoder that consumes them one at a time.
///
/// # Errors
///
/// A [`JsonError`] when the member is absent or not an array.
pub fn elements<'a>(map: &'a Object, name: &str) -> Result<&'a [Value], JsonError> {
    map.get(name)
        .ok_or_else(|| missing(name))?
        .as_array()
        .ok_or_else(|| JsonError::custom(format!("`{name}`: expected an array")))
}

/// Decodes member `name` of `map`; an absent member is what
/// [`Json::from_absent`] says.
///
/// # Errors
///
/// The member's decode error, prefixed with `name`.
pub fn field<T: Json>(map: &Object, name: &str) -> Result<T, JsonError> {
    match map.get(name) {
        Some(value) => T::from_value(value).map_err(|error| error.within(name)),
        None => T::from_absent(name),
    }
}

/// [`field`] for a member a document may leave out — one added after
/// documents were first persisted, or one with a natural default: absent or
/// `null` is `T::default()`.
///
/// # Errors
///
/// As [`field`], for a member that is present.
pub fn field_or_default<T: Json + Default>(map: &Object, name: &str) -> Result<T, JsonError> {
    match map.get(name) {
        None | Some(Value::Null) => Ok(T::default()),
        Some(value) => T::from_value(value).map_err(|error| error.within(name)),
    }
}

/// Member `name` of `map` as a borrowed string — the discriminator of a
/// tagged enum, matched without copying it.
///
/// # Errors
///
/// A [`JsonError`] when the member is absent or not a string.
pub fn tag<'a>(map: &'a Object, name: &str) -> Result<&'a str, JsonError> {
    string(map.get(name).ok_or_else(|| missing(name))?).map_err(|error| error.within(name))
}

/// `value` as a borrowed string — what a type that travels as a string (an
/// enum's wire name, an encoded snapshot) decodes from.
///
/// # Errors
///
/// "expected a string" for any other kind of value.
pub fn string(value: &Value) -> Result<&str, JsonError> {
    value
        .as_str()
        .ok_or_else(|| JsonError::custom("expected a string"))
}

/// Implements [`JsonObject`] (and with it [`Json`]) for a struct from a table
/// of its fields. Each field is listed once:
///
/// * `field` — member `"field"`, required;
/// * `field as "name"` — the member is called `"name"` on the wire;
/// * `field or default` — an absent or `null` member decodes to
///   `Default::default()` (a field added after documents were first
///   persisted, or one a sender may leave out);
/// * `; ..field` (last) — the field's own members are written into this
///   object instead of a nested one (the field's type is a [`JsonObject`]);
/// * `check function` (after the fields) — `function(&Self) -> Result<(),
///   JsonError>` runs on every decoded value: the place for an invariant
///   between fields.
///
/// A field of type `Option<T>` is written as `null` when `None` and reads an
/// absent or `null` member as `None` — that rule is [`Option`]'s, not the
/// table's.
///
/// ```
/// use ttw_core::json::{Json, Value};
///
/// #[derive(Debug, PartialEq, Default)]
/// struct Limits {
///     nodes: usize,
///     gap: Option<f64>,
///     retries: usize,
/// }
/// ttw_core::json_object!(Limits as "limits" { nodes as "max_nodes", gap, retries or default });
///
/// let limits = Limits { nodes: 7, gap: None, retries: 0 };
/// assert_eq!(limits.to_value().to_json(), r#"{"gap":null,"max_nodes":7,"retries":0}"#);
/// let sparse = Value::parse(r#"{"max_nodes":7}"#).unwrap();
/// assert_eq!(Limits::from_value(&sparse).unwrap(), limits);
/// ```
#[macro_export]
macro_rules! json_object {
    (
        $type:ty as $what:literal {
            $( $field:ident $(as $wire:literal)? $(or $rule:ident)? ),* $(,)?
            $(; ..$flat:ident)?
        }
        $(check $check:path)?
    ) => {
        impl $crate::json::JsonObject for $type {
            const WHAT: &'static str = $what;

            fn write_fields(&self, map: &mut $crate::json::Object) {
                $(
                    map.insert(
                        $crate::json_object!(@name $field $($wire)?).into(),
                        $crate::json::Json::to_value(&self.$field),
                    );
                )*
                $( $crate::json::JsonObject::write_fields(&self.$flat, map); )?
            }

            fn read_fields(
                map: &$crate::json::Object,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let decoded = Self {
                    $(
                        $field: $crate::json_object!(
                            @read map, $crate::json_object!(@name $field $($wire)?) $(, $rule)?
                        )?,
                    )*
                    $( $flat: $crate::json::JsonObject::read_fields(map)?, )?
                };
                $( $check(&decoded)?; )?
                Ok(decoded)
            }
        }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $wire:literal) => { $wire };
    (@read $map:ident, $name:expr) => { $crate::json::field($map, $name) };
    (@read $map:ident, $name:expr, default) => { $crate::json::field_or_default($map, $name) };
}

impl Json for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::custom("expected a boolean"))
    }
}

impl Json for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::custom("expected a number"))
    }
}

impl Json for u64 {
    fn to_value(&self) -> Value {
        Value::Number(*self as f64)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::custom("expected a non-negative integer"))
    }
}

impl Json for usize {
    fn to_value(&self) -> Value {
        Value::Number(*self as f64)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        u64::from_value(value).map(|n| n as usize)
    }
}

impl Json for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        string(value).map(str::to_owned)
    }
}

/// `None` is written as `null`; an absent member and `null` both read as
/// `None`.
impl<T: Json> Json for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            present => T::from_value(present).map(Some),
        }
    }

    fn from_absent(_field: &str) -> Result<Self, JsonError> {
        Ok(None)
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_value).collect())
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// A pair is a two-element array (a mode-graph edge is `[from, to]`).
impl<A: Json, B: Json> Json for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        match value.as_array() {
            Some([first, second]) => Ok((A::from_value(first)?, B::from_value(second)?)),
            _ => Err(JsonError::custom("expected a two-element array")),
        }
    }
}

/// A type that keys a JSON object: the entity ids, written as their index.
pub trait JsonKey: Ord + Sized {
    /// The index the key is written as.
    fn index(&self) -> usize;

    /// The key with this index.
    fn from_index(index: usize) -> Self;
}

/// The index an object key spells. Only the canonical decimal form is a key:
/// `"+7"` and `"007"` would otherwise both be index 7, and of two members
/// that name one index the later silently replaces the earlier.
fn parse_index_key(key: &str) -> Result<usize, JsonError> {
    let canonical =
        key.bytes().all(|b| b.is_ascii_digit()) && (key.len() == 1 || !key.starts_with('0'));
    key.parse()
        .ok()
        .filter(|_| canonical)
        .ok_or_else(|| JsonError::custom(format!("key `{key}` is not an index")))
}

/// An index-keyed map is an object whose keys are the indices in decimal.
impl<K: JsonKey, V: Json> Json for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(key, value)| (key.index().to_string(), value.to_value()))
                .collect(),
        )
    }

    fn from_value(value: &Value) -> Result<Self, JsonError> {
        value
            .as_object()
            .ok_or_else(|| JsonError::custom("expected an object"))?
            .iter()
            .map(|(key, value)| {
                let index = parse_index_key(key)?;
                let value = V::from_value(value).map_err(|error| error.within(key))?;
                Ok((K::from_index(index), value))
            })
            .collect()
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

    #[derive(Debug, PartialEq, Default)]
    struct Inner {
        count: usize,
    }
    json_object!(Inner as "inner" { count });

    #[derive(Debug, PartialEq, Default)]
    struct Sample {
        name: String,
        gap: Option<u64>,
        later: usize,
        inner: Inner,
    }
    fn named(sample: &Sample) -> Result<(), JsonError> {
        match sample.name.is_empty() {
            true => Err(JsonError::custom("a sample has a name")),
            false => Ok(()),
        }
    }
    json_object!(Sample as "sample" { name as "id", gap, later or default; ..inner } check named);

    #[test]
    fn field_table_writes_and_reads_every_rule() {
        let sample = Sample {
            name: "s".into(),
            gap: None,
            later: 3,
            inner: Inner { count: 9 },
        };
        // Renamed, `None` as null, and the flattened member beside the rest.
        assert_eq!(
            sample.to_value().to_json(),
            r#"{"count":9,"gap":null,"id":"s","later":3}"#
        );
        assert_eq!(Sample::from_value(&sample.to_value()), Ok(sample));

        let decode = |text: &str| Sample::from_value(&Value::parse(text).expect("json"));
        // Absent and null are the default, or `None`, where the table says so.
        let sparse = decode(r#"{"id":"s","count":1}"#).expect("optional members left out");
        assert_eq!((sparse.gap, sparse.later), (None, 0));
        let nulls = decode(r#"{"id":"s","count":1,"gap":null,"later":null}"#).expect("nulls");
        assert_eq!(nulls, sparse);
        assert_eq!(
            decode(r#"{"id":"s","count":1,"gap":7}"#).expect("set").gap,
            Some(7)
        );
        // Everything else is required, typed, and checked.
        for (bad, why) in [
            (r#"{"count":1}"#, "missing field `id`"),
            (r#"{"id":"s"}"#, "missing field `count`"),
            (
                r#"{"id":"s","count":null}"#,
                "`count`: expected a non-negative integer",
            ),
            (
                r#"{"id":"s","count":1,"gap":"x"}"#,
                "`gap`: expected a non-negative integer",
            ),
            (
                r#"{"id":"s","count":1,"later":-1}"#,
                "`later`: expected a non-negative integer",
            ),
            (r#"{"id":"","count":1}"#, "a sample has a name"),
            (r#"[]"#, "sample must be a JSON object"),
        ] {
            assert_eq!(decode(bad).expect_err(bad).to_string(), why, "{bad}");
        }
    }

    #[test]
    fn index_keys_are_canonical_decimal_only() {
        use crate::ids::TaskId;
        type Offsets = BTreeMap<TaskId, f64>;
        let decode = |text: &str| Offsets::from_value(&Value::parse(text).expect("json"));
        let offsets = decode(r#"{"0":1.5,"7":2,"10":3}"#).expect("canonical keys");
        assert_eq!(offsets[&TaskId::from_index(10)], 3.0);
        // Keys sort as strings; the map is by index either way.
        assert_eq!(offsets.to_value().to_json(), r#"{"0":1.5,"10":3,"7":2}"#);
        for key in [
            "+7",
            "007",
            "07",
            "-0",
            "00",
            " 7",
            "7 ",
            "",
            "７",
            "99999999999999999999",
        ] {
            let error = decode(&format!(r#"{{"{key}":1}}"#)).expect_err(key);
            assert!(
                error.to_string().contains("is not an index"),
                "{key}: {error}"
            );
        }
        // The case that mattered: two spellings of one index, one entry lost.
        assert!(decode(r#"{"7":1,"07":2}"#).is_err());
        assert_eq!(
            decode(r#"{"3":"x"}"#).expect_err("mistyped").to_string(),
            "`3`: expected a number"
        );
    }

    #[test]
    fn pairs_and_arrays_decode_elementwise() {
        let edges =
            <Vec<(usize, usize)>>::from_value(&Value::parse("[[0,1],[1,0]]").expect("json"));
        assert_eq!(edges, Ok(vec![(0, 1), (1, 0)]));
        for bad in ["[[0]]", "[[0,1,2]]", "[0]", "{}", "[[0,\"1\"]]"] {
            let value = Value::parse(bad).expect("json");
            assert!(<Vec<(usize, usize)>>::from_value(&value).is_err(), "{bad}");
        }
    }
}

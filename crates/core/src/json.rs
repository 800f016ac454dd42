//! A minimal self-contained JSON codec: one pull tokenizer, one writer.
//!
//! The build environment of this reproduction has no access to crates.io, so
//! `serde`/`serde_json` are unavailable. Every wire and disk document of the
//! workspace goes through the two halves of this module instead:
//!
//! * a [`Writer`] that appends compact or two-space pretty JSON to a
//!   `Vec<u8>` (a frame buffer, or the bytes of a `String`), and
//! * a [`Reader`], a pull tokenizer over a `&str` that hands out one value at
//!   a time, checks the grammar of everything it passes — skipped members
//!   included — and limits nesting to 128 containers, so a hostile document
//!   costs an error, not the reading thread's stack.
//!
//! A type with a JSON form implements [`Json`] on that pair: the primitives,
//! `Option`, `Vec`, pairs and index-keyed maps here, the entity ids next to
//! their definition, and every struct through one
//! [`json_object!`](crate::json_object) field table, which lists each member
//! once and yields both directions. A typed document never becomes a tree:
//! the table writes its members straight into the buffer and matches each
//! key the tokenizer finds against its `&'static str` names. [`Value`] — the
//! generic document, for reports, tests and tools that do not know the shape
//! of what they hold — is one more [`Json`] type on the same pair. The
//! README's "The codec" section says how to add a field or a wire type.
//!
//! Two rules fix the bytes and the verdicts:
//!
//! * **Members are written in sorted key order** (byte order of the names,
//!   so an index-keyed map reads `{"0":…,"10":…,"7":…}`), whatever order a
//!   table declares them in. A table sorts its names once, flattened and
//!   tag members included, not once per document.
//! * **Members are read in any order, and the last duplicate wins**: a
//!   member that does not decode is an error only if no later member of the
//!   same name replaces it and the value being built needs it. A member no
//!   table knows is skipped.
//!
//! Both directions are linear in the size of the text. The reader's input is
//! a `&str`, so it is valid UTF-8 already and the two bytes that end a run
//! of plain string content (`"` and `\`) are ASCII: runs are borrowed or
//! copied whole, never re-validated.
//!
//! Errors say where: a grammar error names the byte the tokenizer stopped
//! at, a missing or mistyped member the path of member names it sits under
//! and the byte offset of the offending value (of the enclosing object, for
//! a member that is missing or an invariant that does not hold). Which of
//! several faults is the one reported is said at [`Json::read`].

use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::io::Write as _;
use std::sync::Arc;

/// Deepest nesting of arrays and objects a [`Reader`] accepts. The
/// documents of this workspace nest fewer than ten levels; the reader
/// recurses once per level — also through members it only skips — and
/// without a limit a frame of `[` characters overflows the stack, which
/// aborts the process, not just the thread.
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

/// An error produced while reading a JSON document. One pointer wide, so
/// that the `Result` every reader call returns stays in registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(Box<ErrorDetails>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ErrorDetails {
    message: String,
    /// Byte offset of the error in the input, when known.
    offset: Option<usize>,
    /// The text is not JSON (as opposed to JSON of the wrong shape): no
    /// later member can make up for it.
    grammar: bool,
}

impl JsonError {
    /// Creates an error with a free-form message — what a decoder reports
    /// for a value that is JSON but not a valid document of its type. The
    /// reader adds the byte offset of the value it was decoding.
    pub fn custom(message: impl Into<String>) -> Self {
        JsonError(Box::new(ErrorDetails {
            message: message.into(),
            offset: None,
            grammar: false,
        }))
    }

    fn grammar(message: impl Into<String>, offset: usize) -> Self {
        JsonError(Box::new(ErrorDetails {
            message: message.into(),
            offset: Some(offset),
            grammar: true,
        }))
    }

    /// The same error, located at byte `offset` unless it already says where.
    pub fn at(mut self, offset: usize) -> Self {
        self.0.offset.get_or_insert(offset);
        self
    }

    /// The same error, named as having occurred inside member `name`.
    fn within(mut self, name: &str) -> Self {
        self.0.message = format!("`{name}`: {}", self.0.message);
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.offset {
            Some(offset) => write!(f, "{} at byte {}", self.0.message, offset),
            None => write!(f, "{}", self.0.message),
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
    /// of the grammar, of a number too large for an `f64`, or of the array
    /// or object that would nest deeper than 128 levels.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        Json::from_json(input)
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        Json::to_json(self)
    }

    /// Renders the value as pretty-printed JSON (two-space indentation).
    pub fn to_json_pretty(&self) -> String {
        Json::to_json_pretty(self)
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
        self.as_f64().and_then(integer)
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
}

/// `n` as the non-negative integer it spells exactly, if it does: integral,
/// not negative, and no larger than 2^53.
fn integer(n: f64) -> Option<u64> {
    // The cast saturates (and takes NaN to 0), so it only round-trips an
    // integer in range.
    let integer = n as u64;
    (integer as f64 == n && integer <= 1 << 53).then_some(integer)
}

/// The members of a JSON object, as [`Value::Object`] holds them.
pub type Object = BTreeMap<String, Value>;

/// The generic document on the same writer and tokenizer as the typed ones.
impl Json for Value {
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(*n),
            Value::String(s) => w.string(s),
            Value::Array(items) => w.array(items, |w, item| item.write(w)),
            Value::Object(map) => {
                let mut members = Members::open(w);
                for (key, value) in map {
                    value.write(members.key(key));
                }
                members.close();
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Ok(match r.kind()? {
            b'n' => r.literal("null", Value::Null)?,
            b't' | b'f' => Value::Bool(r.bool()?),
            b'"' => Value::String(r.string()?.into_owned()),
            b'[' => {
                let mut items = Vec::new();
                r.array("", |r| {
                    items.push(Value::read(r)?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            b'{' => {
                let mut map = Object::new();
                r.object("", |key, r| {
                    map.insert(key.to_owned(), Value::read(r)?);
                    Ok(())
                })?;
                Value::Object(map)
            }
            _ => Value::Number(r.number("expected a number")?),
        })
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Appends JSON text to a byte buffer, compact or pretty-printed. The one
/// writer of the workspace: what a [`Json`] type's `write` calls.
///
/// Objects come out with their members in sorted key order whichever way
/// they are written — [`Writer::table`] walks a field table's presorted
/// names, [`Writer::object`] sorts the handful of members it is given — so
/// the bytes of a document do not depend on declaration order.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    /// Arrays and objects currently open.
    depth: usize,
}

/// One member an object is written with: its name and what writes its value.
pub type MemberWriter<'m> = (&'m str, &'m dyn Fn(&mut Writer<'_>));

impl<'a> Writer<'a> {
    /// A writer of compact JSON (no whitespace) appending to `out`.
    pub fn compact(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
        }
    }

    /// A writer of pretty-printed JSON (two-space indentation) appending to
    /// `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            pretty: true,
            depth: 0,
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.out
            .extend_from_slice(if value { b"true" } else { b"false" });
    }

    /// Writes a number in the shortest form that reads back to the same
    /// `f64` (integers without a fraction); `null` for one that is not
    /// finite, which JSON cannot spell.
    pub fn number(&mut self, n: f64) {
        match integer(n.abs()) {
            // `{}` of an integral f64 up to 2^53 is the integer's digits;
            // writing the integer skips the shortest-digits search.
            Some(magnitude) if magnitude != 0 || n.is_sign_positive() => {
                if n < 0.0 {
                    self.out.push(b'-');
                }
                self.digits(magnitude);
            }
            _ if n.is_finite() => {
                // Writing into a `Vec` cannot fail.
                let _ = write!(self.out, "{n}");
            }
            _ => self.null(),
        }
    }

    /// Writes a counter or index as the `f64` it travels as: exact up to
    /// 2^53, the nearest `f64`'s shortest digits beyond (`usize::MAX` reads
    /// `18446744073709552000`).
    pub fn integer(&mut self, n: u64) {
        if n <= 1 << 53 {
            self.digits(n);
        } else {
            self.number(n as f64);
        }
    }

    fn digits(&mut self, mut n: u64) {
        let mut buffer = [0u8; 20];
        let mut at = buffer.len();
        loop {
            at -= 1;
            buffer[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buffer[at..]);
    }

    /// Writes a string, escaped.
    pub fn string(&mut self, s: &str) {
        self.out.push(b'"');
        // Every byte that needs an escape is ASCII, so the text between two
        // of them is a whole number of code points and is copied in one piece.
        let mut plain_from = 0;
        for (i, byte) in s.bytes().enumerate() {
            let escape: &[u8] = match byte {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&s.as_bytes()[plain_from..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.out.extend_from_slice(escape);
            }
            plain_from = i + 1;
        }
        self.out.extend_from_slice(&s.as_bytes()[plain_from..]);
        self.out.push(b'"');
    }

    /// Copies `json` — one value this writer's compact form already rendered
    /// — in as the next value: how a cached reply body is spliced into the
    /// reply around it.
    pub fn raw(&mut self, json: &str) {
        self.out.extend_from_slice(json.as_bytes());
    }

    /// Writes an array with one element per item.
    pub fn array<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item)) {
        self.out.push(b'[');
        self.depth += 1;
        let mut any = false;
        for item in items {
            self.next_item(&mut any);
            each(self, item);
        }
        self.close(b']', any);
    }

    /// Writes an object with the given members, sorting them by name first:
    /// the form for a type whose members depend on its value (a tagged enum
    /// variant) or come from iterators rather than fields.
    pub fn object(&mut self, members: &mut [MemberWriter<'_>]) {
        members.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut written = Members::open(self);
        for (name, write) in members.iter() {
            write(written.key(name));
        }
        written.close();
    }

    /// Writes an object with one member per field of `table`, the flattened
    /// field's included, in the sorted order the table computed once —
    /// merged with `extra`, which must be sorted by name: a tagged enum's
    /// `"type"` beside its variant's fields. An `extra` named like a field
    /// is written instead of it.
    pub fn table<T: JsonObject>(&mut self, table: &T, extra: &[MemberWriter<'_>]) {
        let mut extra = extra.iter().peekable();
        let mut written = Members::open(self);
        for member in T::members() {
            let mut replaced = false;
            while let Some((name, write)) = extra.next_if(|(name, _)| *name <= member.name) {
                write(written.key(name));
                replaced = *name == member.name;
            }
            if !replaced {
                table.write_member(member.index, written.key(member.name));
            }
        }
        for (name, write) in extra {
            write(written.key(name));
        }
        written.close();
    }

    /// Separates an element or member from the one before it.
    fn next_item(&mut self, any: &mut bool) {
        if std::mem::replace(any, true) {
            self.out.push(b',');
        }
        self.newline_indent();
    }

    /// Closes the innermost container; an empty one is `[]` / `{}` even
    /// when pretty-printed.
    fn close(&mut self, bracket: u8, any: bool) {
        self.depth -= 1;
        if any {
            self.newline_indent();
        }
        self.out.push(bracket);
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + 2 * self.depth, b' ');
        }
    }
}

/// An object being written: the caller hands over the members in sorted
/// order.
struct Members<'w, 'a> {
    w: &'w mut Writer<'a>,
    any: bool,
}

impl<'w, 'a> Members<'w, 'a> {
    fn open(w: &'w mut Writer<'a>) -> Self {
        w.out.push(b'{');
        w.depth += 1;
        Members { w, any: false }
    }

    /// Writes the key of the next member; its value goes to the writer
    /// returned.
    fn key(&mut self, name: &str) -> &mut Writer<'a> {
        self.w.next_item(&mut self.any);
        self.w.string(name);
        self.colon()
    }

    /// [`Members::key`] for an index-keyed map: the key is the index in
    /// decimal.
    fn index_key(&mut self, index: usize) -> &mut Writer<'a> {
        self.w.next_item(&mut self.any);
        self.w.out.push(b'"');
        self.w.digits(index as u64);
        self.w.out.push(b'"');
        self.colon()
    }

    fn colon(&mut self) -> &mut Writer<'a> {
        self.w.out.push(b':');
        if self.w.pretty {
            self.w.out.push(b' ');
        }
        self.w
    }

    fn close(self) {
        self.w.close(b'}', self.any);
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// A pull tokenizer over a JSON text: the one reader of the workspace, what
/// a [`Json`] type's `read` calls for the next value.
///
/// Every method that reads a value of some kind leaves the reader where it
/// was when the next value is of another kind and returns a *shape* error
/// ("expected a string", with the value's byte offset); a violation of the
/// grammar is an error of its own kind that no caller recovers from.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Requires that nothing but whitespace is left.
    ///
    /// # Errors
    ///
    /// "trailing characters" at the first byte that is left.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.next_byte() {
            None => Ok(()),
            Some(_) => Err(JsonError::grammar("trailing characters", self.pos)),
        }
    }

    /// The byte offset of the next value.
    pub fn offset(&mut self) -> usize {
        self.next_byte();
        self.pos
    }

    /// A shape error at the next value: it is JSON, but not `expected`.
    pub fn mismatch(&mut self, expected: impl fmt::Display) -> JsonError {
        JsonError::custom(expected.to_string()).at(self.offset())
    }

    /// The first byte of the next token, the whitespace before it passed
    /// over; `None` at the end of the input.
    #[inline]
    fn next_byte(&mut self) -> Option<u8> {
        let bytes = self.input.as_bytes();
        let mut pos = self.pos;
        while let Some(&byte) = bytes.get(pos) {
            if !matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos = pos;
                return Some(byte);
            }
            pos += 1;
        }
        self.pos = pos;
        None
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::grammar(
                format!("expected `{}`", char::from(byte)),
                self.pos,
            ))
        }
    }

    /// The first byte of the next value, which says what kind it is.
    fn kind(&mut self) -> Result<u8, JsonError> {
        match self.next_byte() {
            Some(b @ (b'n' | b't' | b'f' | b'"' | b'[' | b'{' | b'-' | b'0'..=b'9')) => Ok(b),
            Some(_) => Err(JsonError::grammar("unexpected character", self.pos)),
            None => Err(JsonError::grammar("unexpected end of input", self.pos)),
        }
    }

    fn literal<T>(&mut self, literal: &str, value: T) -> Result<T, JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(JsonError::grammar(
                format!("expected `{literal}`"),
                self.pos,
            ))
        }
    }

    /// Consumes a `null`, if that is the next value.
    ///
    /// # Errors
    ///
    /// A grammar error only.
    pub fn null(&mut self) -> Result<bool, JsonError> {
        match self.kind()? {
            b'n' => self.literal("null", true),
            _ => Ok(false),
        }
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// "expected a boolean" for another kind of value.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.kind()? {
            b't' => self.literal("true", true),
            b'f' => self.literal("false", false),
            _ => Err(self.mismatch("expected a boolean")),
        }
    }

    /// Reads a number, which is finite.
    ///
    /// # Errors
    ///
    /// `expected` for another kind of value; "number out of range" for a
    /// token no `f64` holds.
    pub fn number(&mut self, expected: &str) -> Result<f64, JsonError> {
        match self.kind()? {
            b'-' | b'0'..=b'9' => self.scan_number().map(|number| number.to_f64()),
            _ => Err(self.mismatch(expected)),
        }
    }

    /// Reads a non-negative integer: a number whose value is an integer no
    /// larger than 2^53.
    ///
    /// # Errors
    ///
    /// `expected` for another kind of value or another number; "number out
    /// of range" for a token no `f64` holds.
    fn integer(&mut self, expected: &str) -> Result<u64, JsonError> {
        if !matches!(self.kind()?, b'-' | b'0'..=b'9') {
            return Err(self.mismatch(expected));
        }
        let at = self.pos;
        match self.scan_number()? {
            Number::Digits(n) if n <= 1 << 53 => Some(n),
            value => integer(value.to_f64()),
        }
        .ok_or_else(|| JsonError::custom(expected).at(at))
    }

    /// Reads a string, borrowed from the text when it holds no escape.
    ///
    /// # Errors
    ///
    /// "expected a string" for another kind of value.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        match self.kind()? {
            b'"' => self.parse_string(),
            _ => Err(self.mismatch("expected a string")),
        }
    }

    /// Reads an array, calling `each` with the reader at every element;
    /// `each` reads (or [skips](Reader::skip)) exactly that element.
    ///
    /// # Errors
    ///
    /// `expected` for another kind of value, and whatever `each` returns.
    pub fn array(
        &mut self,
        expected: impl fmt::Display,
        mut each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.kind()? != b'[' {
            return Err(self.mismatch(expected));
        }
        self.open()?;
        if self.next_byte() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                each(self)?;
                match self.next_byte() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(JsonError::grammar("expected `,` or `]`", self.pos)),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an object, calling `each` with every member's key (escapes
    /// resolved) and the reader at its value; `each` reads or
    /// [skips](Reader::skip) exactly that value. Members come in document
    /// order, duplicates included. Returns the byte offset of the object.
    ///
    /// # Errors
    ///
    /// `expected` for another kind of value, and whatever `each` returns.
    pub fn object(
        &mut self,
        expected: impl fmt::Display,
        mut each: impl FnMut(&str, &mut Self) -> Result<(), JsonError>,
    ) -> Result<usize, JsonError> {
        if self.kind()? != b'{' {
            return Err(self.mismatch(expected));
        }
        let at = self.pos;
        self.open()?;
        if self.next_byte() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                if self.next_byte() != Some(b'"') {
                    return Err(JsonError::grammar("expected `\"`", self.pos));
                }
                let key = self.parse_string()?;
                if self.next_byte() != Some(b':') {
                    return Err(JsonError::grammar("expected `:`", self.pos));
                }
                self.pos += 1;
                each(&key, self)?;
                match self.next_byte() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(JsonError::grammar("expected `,` or `}`", self.pos)),
                }
            }
        }
        self.depth -= 1;
        Ok(at)
    }

    /// Passes over the next value, whatever it is, checking its grammar,
    /// its numbers and its depth as if it were read.
    ///
    /// # Errors
    ///
    /// A grammar error only.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            b'n' => self.literal("null", ()),
            b't' => self.literal("true", ()),
            b'f' => self.literal("false", ()),
            b'"' => self.parse_string().map(drop),
            b'[' => self.array("", Self::skip),
            b'{' => self.object("", |_, r| r.skip()).map(drop),
            _ => self.scan_number().map(drop),
        }
    }

    /// Steps into the array or object at `pos`, refusing to open more than
    /// [`MAX_DEPTH`] of them around each other.
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::grammar(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Scans a number following the JSON grammar exactly: an optional
    /// minus, an integer part without leading zeros, then optional fraction
    /// and exponent parts that each require at least one digit.
    fn scan_number(&mut self) -> Result<Number, JsonError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(negative);
        let mut mantissa = 0;
        let int_end = digits(bytes, int_start, &mut mantissa);
        if int_end == int_start {
            return Err(JsonError::grammar("expected a digit", int_start));
        }
        if bytes[int_start] == b'0' && int_end > int_start + 1 {
            return Err(JsonError::grammar(
                "leading zeros are not allowed",
                int_start,
            ));
        }
        let mut end = int_end;
        let mut fraction = 0;
        if bytes.get(end) == Some(&b'.') {
            end = digits(bytes, int_end + 1, &mut mantissa);
            fraction = end - int_end - 1;
            if fraction == 0 {
                return Err(JsonError::grammar("expected a digit", end));
            }
        }
        let mut exponent = false;
        if let Some(b'e' | b'E') = bytes.get(end) {
            exponent = true;
            end += 1;
            if let Some(b'+' | b'-') = bytes.get(end) {
                end += 1;
            }
            let exponent_start = end;
            end = digits(bytes, end, &mut 0);
            if end == exponent_start {
                return Err(JsonError::grammar("expected a digit", end));
            }
        }
        self.pos = end;
        // Up to nineteen digits spell the mantissa exactly.
        if !exponent && int_end - int_start + fraction <= 19 {
            if !negative && fraction == 0 {
                return Ok(Number::Digits(mantissa));
            }
            // A mantissa of at most 2^53 is an exact double, and so is its
            // quotient by the power of ten of a fraction, which the division
            // rounds correctly by itself: the standard parser's own fast
            // path, without its second pass over the digits — most numbers
            // of a schedule.
            if mantissa <= 1 << 53 {
                let magnitude = mantissa as f64 / POWERS_OF_TEN[fraction];
                return Ok(Number::Double(if negative {
                    -magnitude
                } else {
                    magnitude
                }));
            }
        }
        let value = self.input[start..end]
            .parse::<f64>()
            .map_err(|_| JsonError::grammar("invalid number", start))?;
        if !value.is_finite() {
            // Written back it would be `null`, which no number member reads.
            return Err(JsonError::grammar("number out of range", start));
        }
        Ok(Number::Double(value))
    }

    /// The string whose opening quote is at `pos`.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let bytes = self.input.as_bytes();
        let start = self.pos + 1;
        // Most strings hold no escape: they are the text between the quotes.
        // The search for the first quote or backslash goes a word at a time.
        let mut end = start;
        while let Some(Ok(word)) = bytes.get(end..end + 8).map(<[u8; 8]>::try_from) {
            let word = u64::from_le_bytes(word);
            let stops = bytes_equal(word, b'"') | bytes_equal(word, b'\\');
            if stops != 0 {
                end += stops.trailing_zeros() as usize / 8;
                break;
            }
            end += 8;
        }
        while let Some(&byte) = bytes.get(end) {
            match byte {
                b'"' => {
                    self.pos = end + 1;
                    return Ok(Cow::Borrowed(&self.input[start..end]));
                }
                b'\\' => break,
                _ => end += 1,
            }
        }
        self.pos = start;
        self.parse_escaped_string()
    }

    /// [`Reader::parse_string`] from just past the opening quote, escapes
    /// resolved.
    fn parse_escaped_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let mut out = String::new();
        loop {
            // A run of plain content ends at the next quote or backslash.
            // Both are ASCII, so the run is whole code points of an input
            // that is valid UTF-8 by type: nothing to validate.
            let rest = &self.input[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError::grammar("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    // A string without an escape is the run itself.
                    return Ok(if out.is_empty() {
                        Cow::Borrowed(&rest[..run])
                    } else {
                        out.push_str(&rest[..run]);
                        Cow::Owned(out)
                    });
                }
                Some(_) => self.pos += 1,
            }
            out.push_str(&rest[..run]);
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
                _ => return Err(JsonError::grammar("invalid escape", self.pos)),
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
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(JsonError::grammar("invalid low surrogate", self.pos));
            }
            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
        } else {
            code
        };
        char::from_u32(scalar).ok_or_else(|| JsonError::grammar("invalid unicode escape", self.pos))
    }

    /// Exactly four hex digits (no sign, no whitespace).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.input.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(JsonError::grammar("truncated unicode escape", self.pos));
        };
        let mut code = 0;
        for &digit in digits {
            let value = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| JsonError::grammar("invalid unicode escape", self.pos))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }
}

/// The value of a number token.
enum Number {
    /// Up to nineteen digits alone (no sign, fraction or exponent): the
    /// integer they spell.
    Digits(u64),
    /// Any other number, which is finite.
    Double(f64),
}

impl Number {
    /// The value as the `f64` it travels as: the nearest one to a run of
    /// digits, as the standard parser would read it.
    fn to_f64(&self) -> f64 {
        match *self {
            Number::Digits(n) => n as f64,
            Number::Double(n) => n,
        }
    }
}

/// The powers of ten of a fraction of up to nineteen digits, each exact as
/// a double.
const POWERS_OF_TEN: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// The bytes of `word` equal to `byte`, each as its top bit: exact up to
/// the first one, which is all a search needs (a borrow may mark a byte
/// above it too).
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let zeros = word ^ (ONES * u64::from(byte));
    zeros.wrapping_sub(ONES) & !zeros & (ONES << 7)
}

/// Passes over the run of ASCII digits of `bytes` from `from`, appending
/// them to `mantissa` (meaningless beyond nineteen digits in all), and
/// returns where the run ends.
#[inline]
fn digits(bytes: &[u8], from: usize, mantissa: &mut u64) -> usize {
    let mut end = from;
    while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
        *mantissa = mantissa
            .wrapping_mul(10)
            .wrapping_add(u64::from(digit - b'0'));
        end += 1;
    }
    end
}

// ---------------------------------------------------------------------------
// Typed documents
// ---------------------------------------------------------------------------

/// A type with one JSON form: the single encode path and the single decode
/// path of every wire and disk document.
pub trait Json: Sized {
    /// Writes the JSON form of `self` as the writer's next value.
    fn write(&self, w: &mut Writer<'_>);

    /// Reads the JSON form from the reader's next value.
    ///
    /// # Errors
    ///
    /// A grammar error from the reader, or a [`JsonError`] naming what was
    /// expected at which byte, prefixed with the members it was found under.
    /// Where a document has several faults, one is reported: a grammar error
    /// before any other; of the faulty members of one object the first in
    /// table order; of the faulty elements of an array or entries of a map
    /// the first in the document (not, for a map, the smallest key).
    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError>;

    /// What an object member of this type decodes to when it is absent: an
    /// error, except for `Option` (absent or `null` is `None`).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the missing `field`.
    fn from_absent(field: &str) -> Result<Self, JsonError> {
        Err(JsonError::custom(format!("missing field `{field}`")))
    }

    /// The compact JSON text of `self`.
    fn to_json(&self) -> String {
        render(self, false)
    }

    /// The pretty-printed JSON text of `self` (two-space indentation).
    fn to_json_pretty(&self) -> String {
        render(self, true)
    }

    /// Decodes a whole document.
    ///
    /// # Errors
    ///
    /// As [`Json::read`], plus "trailing characters" after the value; a
    /// grammar error anywhere in the text comes before an error of shape.
    fn from_json(text: &str) -> Result<Self, JsonError> {
        let mut reader = Reader::new(text);
        let value = read_or_pass_over(&mut reader)?;
        reader.finish()?;
        value
    }

    /// `self` as a generic document, through its text: for a report or a
    /// test that edits members by name, never for a wire path.
    fn to_value(&self) -> Value {
        Value::parse(&self.to_json()).expect("the writer emits JSON")
    }

    /// Decodes a generic document, through its text.
    ///
    /// # Errors
    ///
    /// As [`Json::from_json`].
    fn from_value(value: &Value) -> Result<Self, JsonError> {
        Self::from_json(&value.to_json())
    }
}

fn render<T: Json>(value: &T, pretty: bool) -> String {
    let mut out = Vec::new();
    value.write(&mut Writer {
        out: &mut out,
        pretty,
        depth: 0,
    });
    String::from_utf8(out).expect("the writer appends whole strings and ASCII")
}

/// A struct whose JSON form is an object with one member per field. A
/// [`json_object!`](crate::json_object) table implements it; [`Json`] follows
/// from it. The pieces exist on their own for the types that share an object
/// with something else: a struct flattened into its parent, the body of a
/// tagged enum variant next to its `"type"`.
pub trait JsonObject: Sized {
    /// What a value of the wrong kind is reported as ("`WHAT` must be a JSON
    /// object").
    const WHAT: &'static str;

    /// Every member the type writes — a flattened field's among them — in
    /// the order they are written: sorted by name. Computed once per type.
    fn members() -> &'static [Member];

    /// Writes the value of the member [`JsonObject::members`] lists with
    /// this `index`.
    fn write_member(&self, index: usize, w: &mut Writer<'_>);

    /// The fields of a value being read, none of them seen yet.
    fn partial() -> impl Partial<Self>;
}

/// One entry of [`JsonObject::members`].
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The member's name on the wire.
    pub name: &'static str,
    /// What [`JsonObject::write_member`] knows it as: the position among the
    /// type's own fields, then the flattened field's indices after them.
    pub index: usize,
}

/// The members of a table in the order they are written: `own` names
/// (indexed by position) and the `flattened` field's members (indexed after
/// them), sorted by name.
pub fn sorted_members(own: &[&'static str], flattened: &[Member]) -> Vec<Member> {
    let own_members = own.iter().enumerate();
    let mut members: Vec<Member> = own_members
        .map(|(index, &name)| Member { name, index })
        .chain(flattened.iter().map(|member| Member {
            name: member.name,
            index: own.len() + member.index,
        }))
        .collect();
    members.sort_by_key(|member| member.name);
    members
}

/// The [`JsonObject::members`] of the field `project` picks — how a table
/// names the type of its flattened field.
pub fn members_of<S, T: JsonObject>(_project: fn(&S) -> &T) -> &'static [Member] {
    T::members()
}

/// The [`JsonObject::partial`] of the field `project` picks.
pub fn partial_of<S, T: JsonObject>(_project: fn(&S) -> &T) -> impl Partial<T> {
    T::partial()
}

/// The members of an object read so far, on the way to a `T`: offered every
/// member in document order, then asked for the value.
pub trait Partial<T> {
    /// Reads the member's value if `key` names a field; `false` leaves the
    /// reader where it was, for the caller to offer the member elsewhere or
    /// [skip](Reader::skip) it.
    ///
    /// # Errors
    ///
    /// A grammar error only: a value of the wrong shape is passed over and
    /// remembered, in case a later duplicate replaces it.
    fn offer(&mut self, key: &str, r: &mut Reader<'_>) -> Result<bool, JsonError>;

    /// [`Partial::offer`] by the last taker: a member that is not a field is
    /// passed over.
    ///
    /// # Errors
    ///
    /// A grammar error only.
    fn offer_or_skip(&mut self, key: &str, r: &mut Reader<'_>) -> Result<(), JsonError> {
        match self.offer(key, r)? {
            true => Ok(()),
            false => r.skip(),
        }
    }

    /// The value, once the object has ended.
    ///
    /// # Errors
    ///
    /// The first field, in table order, that is missing or whose last
    /// occurrence did not decode; then what the table's `check` says.
    fn finish(&mut self) -> Result<T, JsonError>;
}

/// What a [`FieldsPartial`] closure is asked to do. It answers whether it
/// took the member; the finished value goes where [`Step::End`] says, so
/// that offering a member returns a flag, not a value the size of `T`.
#[derive(Debug)]
pub enum Step<'k, 'r, 'a, T> {
    /// [`Partial::offer`].
    Member(&'k str, &'r mut Reader<'a>),
    /// [`Partial::finish`], into the place given.
    End(&'r mut Option<T>),
}

/// A [`Partial`] whose fields are the captured [`Slot`]s of one closure —
/// the form a field table generates, since only a closure can hold one slot
/// per field without naming the fields' types.
#[derive(Debug)]
pub struct FieldsPartial<F>(F);

impl<T, F> Partial<T> for FieldsPartial<F>
where
    F: FnMut(Step<'_, '_, '_, T>) -> Result<bool, JsonError>,
{
    fn offer(&mut self, key: &str, r: &mut Reader<'_>) -> Result<bool, JsonError> {
        (self.0)(Step::Member(key, r))
    }

    fn finish(&mut self) -> Result<T, JsonError> {
        let mut value = None;
        (self.0)(Step::End(&mut value))?;
        value.ok_or_else(|| JsonError::custom("a partial ended without its value"))
    }
}

/// A [`FieldsPartial`] around `f`, whose signature this call pins.
pub fn fields_partial<T, F>(f: F) -> FieldsPartial<F>
where
    F: FnMut(Step<'_, '_, '_, T>) -> Result<bool, JsonError>,
{
    FieldsPartial(f)
}

/// Reads the next value as a `T`. One of the wrong shape is passed over all
/// the same — so that its grammar is checked and the reader stands behind it
/// — and its error returned inside: it is the caller's to raise, or to drop
/// when a later duplicate replaces the value.
fn read_or_pass_over<T: Json>(r: &mut Reader<'_>) -> Result<Result<T, JsonError>, JsonError> {
    let (pos, depth) = (r.pos, r.depth);
    match T::read(r) {
        Err(error) if error.0.grammar => Err(error),
        Err(error) => {
            (r.pos, r.depth) = (pos, depth);
            r.skip()?;
            Ok(Err(error))
        }
        decoded => Ok(decoded),
    }
}

/// One member of an object being read: absent, or what its last occurrence
/// decoded to.
#[derive(Debug)]
pub struct Slot<T>(Option<Result<T, JsonError>>);

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot(None)
    }
}

impl<T: Json> Slot<T> {
    /// A member not seen yet.
    pub fn new() -> Self {
        Slot::default()
    }

    /// Reads member `name` from the reader's next value, replacing what an
    /// earlier member of that name left. A value of the wrong shape is
    /// passed over — its grammar checked — and its error kept for
    /// [`Slot::take`].
    ///
    /// # Errors
    ///
    /// A grammar error only.
    pub fn read(&mut self, r: &mut Reader<'_>, name: &str) -> Result<(), JsonError> {
        self.0 = Some(read_or_pass_over(r)?.map_err(|error| error.within(name)));
        Ok(())
    }

    /// [`Slot::read`] for a member that may be left out: `null` is
    /// `T::default()`.
    ///
    /// # Errors
    ///
    /// A grammar error only.
    pub fn read_or_default(&mut self, r: &mut Reader<'_>, name: &str) -> Result<(), JsonError>
    where
        T: Default,
    {
        if r.null()? {
            self.0 = Some(Ok(T::default()));
            return Ok(());
        }
        self.read(r, name)
    }

    /// The member's value; for an absent one what [`Json::from_absent`] says.
    ///
    /// # Errors
    ///
    /// The decode error of the member's last occurrence, prefixed with
    /// `name`, or "missing field".
    pub fn take(&mut self, name: &str) -> Result<T, JsonError> {
        self.0.take().unwrap_or_else(|| T::from_absent(name))
    }

    /// [`Slot::take`] for a member that may be left out — one added after
    /// documents were first persisted, or one with a natural default:
    /// absent is `T::default()`.
    ///
    /// # Errors
    ///
    /// As [`Slot::take`], for a member that is present.
    pub fn take_or_default(&mut self) -> Result<T, JsonError>
    where
        T: Default,
    {
        self.0.take().unwrap_or_else(|| Ok(T::default()))
    }
}

impl<T: JsonObject> Json for T {
    fn write(&self, w: &mut Writer<'_>) {
        w.table(self, &[]);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut partial = Self::partial();
        let expected = format_args!("{} must be a JSON object", Self::WHAT);
        let at = r.object(expected, |key, r| partial.offer_or_skip(key, r))?;
        partial.finish().map_err(|error| error.at(at))
    }
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
///   object instead of a nested one (the field's type is a [`JsonObject`]),
///   and a key this table does not know is offered to it before it is
///   skipped;
/// * `check function` (after the fields) — `function(&Self) -> Result<(),
///   JsonError>` runs on every decoded value: the place for an invariant
///   between fields.
///
/// A field of type `Option<T>` is written as `null` when `None` and reads an
/// absent or `null` member as `None` — that rule is [`Option`]'s, not the
/// table's. Members are written in sorted order of their names, not in the
/// order of the table.
///
/// ```
/// use ttw_core::json::Json;
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
/// assert_eq!(limits.to_json(), r#"{"gap":null,"max_nodes":7,"retries":0}"#);
/// assert_eq!(Limits::from_json(r#"{"max_nodes":7}"#).unwrap(), limits);
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

            fn members() -> &'static [$crate::json::Member] {
                static MEMBERS: ::std::sync::OnceLock<::std::vec::Vec<$crate::json::Member>> =
                    ::std::sync::OnceLock::new();
                MEMBERS.get_or_init(|| {
                    $crate::json::sorted_members(
                        &[$( $crate::json_object!(@name $field $($wire)?) ),*],
                        $crate::json_object!(@flattened $($flat)?),
                    )
                })
            }

            fn write_member(&self, index: usize, w: &mut $crate::json::Writer<'_>) {
                let mut own = 0;
                $(
                    if index == own {
                        return $crate::json::Json::write(&self.$field, w);
                    }
                    own += 1;
                )*
                $( return $crate::json::JsonObject::write_member(&self.$flat, index - own, w); )?
                #[allow(unreachable_code)]
                {
                    let _ = (own, w);
                }
            }

            fn partial() -> impl $crate::json::Partial<Self> {
                $( let mut $field = $crate::json::Slot::new(); )*
                $( let mut $flat = $crate::json::partial_of(|s: &Self| &s.$flat); )?
                $crate::json::fields_partial(move |step| match step {
                    $crate::json::Step::Member(key, reader) => {
                        $(
                            if key == $crate::json_object!(@name $field $($wire)?) {
                                $crate::json_object!(
                                    @read $field, reader,
                                    $crate::json_object!(@name $field $($wire)?) $(, $rule)?
                                )?;
                                return Ok(true);
                            }
                        )*
                        $( return $crate::json::Partial::offer(&mut $flat, key, reader); )?
                        #[allow(unreachable_code)]
                        Ok(false)
                    }
                    $crate::json::Step::End(value) => {
                        let decoded = Self {
                            $(
                                $field: $crate::json_object!(
                                    @take $field,
                                    $crate::json_object!(@name $field $($wire)?) $(, $rule)?
                                )?,
                            )*
                            $( $flat: $crate::json::Partial::finish(&mut $flat)?, )?
                        };
                        $( $check(&decoded)?; )?
                        *value = Some(decoded);
                        Ok(true)
                    }
                })
            }
        }
    };
    (@flattened) => { &[] };
    (@flattened $flat:ident) => { $crate::json::members_of(|s: &Self| &s.$flat) };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $wire:literal) => { $wire };
    (@read $slot:ident, $reader:ident, $name:expr) => { $slot.read($reader, $name) };
    (@read $slot:ident, $reader:ident, $name:expr, default) => {
        $slot.read_or_default($reader, $name)
    };
    (@take $slot:ident, $name:expr) => { $slot.take($name) };
    (@take $slot:ident, $name:expr, default) => { $slot.take_or_default() };
}

impl Json for bool {
    fn write(&self, w: &mut Writer<'_>) {
        w.bool(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.bool()
    }
}

impl Json for f64 {
    fn write(&self, w: &mut Writer<'_>) {
        w.number(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.number("expected a number")
    }
}

/// Written as the `f64` it travels as; read only when that `f64` is a
/// non-negative integer up to 2^53.
impl Json for u64 {
    fn write(&self, w: &mut Writer<'_>) {
        w.integer(*self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.integer("expected a non-negative integer")
    }
}

impl Json for usize {
    fn write(&self, w: &mut Writer<'_>) {
        w.integer(*self as u64);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        u64::read(r).map(|n| n as usize)
    }
}

impl Json for String {
    fn write(&self, w: &mut Writer<'_>) {
        w.string(self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.string().map(Cow::into_owned)
    }
}

/// `None` is written as `null`; an absent member and `null` both read as
/// `None`.
impl<T: Json> Json for Option<T> {
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Some(value) => value.write(w),
            None => w.null(),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match r.null()? {
            true => Ok(None),
            false => T::read(r).map(Some),
        }
    }

    fn from_absent(_field: &str) -> Result<Self, JsonError> {
        Ok(None)
    }
}

/// A shared value has the JSON form of the value it shares: a schedule's
/// modes are shared between cache entries, never on the wire.
impl<T: Json> Json for Arc<T> {
    fn write(&self, w: &mut Writer<'_>) {
        T::write(self, w);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        T::read(r).map(Arc::new)
    }

    fn from_absent(field: &str) -> Result<Self, JsonError> {
        T::from_absent(field).map(Arc::new)
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, w: &mut Writer<'_>) {
        w.array(self, |w, item| item.write(w));
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.array("expected an array", |r| {
            items.push(T::read(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

/// A pair is a two-element array (a mode-graph edge is `[from, to]`).
impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, w: &mut Writer<'_>) {
        w.array([true, false], |w, first| match first {
            true => self.0.write(w),
            false => self.1.write(w),
        });
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        const EXPECTED: &str = "expected a two-element array";
        let at = r.offset();
        let (mut first, mut second) = (None, None);
        r.array(EXPECTED, |r| {
            if first.is_none() {
                first = Some(A::read(r)?);
            } else if second.is_none() {
                second = Some(B::read(r)?);
            } else {
                return Err(JsonError::custom(EXPECTED).at(at));
            }
            Ok(())
        })?;
        first
            .zip(second)
            .ok_or_else(|| JsonError::custom(EXPECTED).at(at))
    }
}

/// A type that keys a JSON object: the entity ids, written as their index
/// and ordered by it.
pub trait JsonKey: Ord + Sized {
    /// The index the key is written as.
    fn index(&self) -> usize;

    /// The key with this index.
    fn from_index(index: usize) -> Self;
}

/// The index an object key spells. Only the canonical decimal form is a key:
/// `"+7"` and `"007"` would otherwise both be index 7, and of two members
/// that name one index the later silently replaces the earlier.
fn parse_index_key(key: &str) -> Option<usize> {
    let canonical = !key.is_empty() && (key.len() == 1 || !key.starts_with('0'));
    let index = key.bytes().try_fold(0usize, |index, byte| {
        let digit = byte.checked_sub(b'0').filter(|digit| *digit <= 9)?;
        index.checked_mul(10)?.checked_add(usize::from(digit))
    });
    index.filter(|_| canonical)
}

/// How the decimal spellings of two indices compare as strings — the order
/// an object's keys are written in (`"10"` before `"7"`).
fn compare_as_decimal_keys(a: usize, b: usize) -> std::cmp::Ordering {
    let digits = |n: usize| n.checked_ilog10().unwrap_or(0);
    let (digits_a, digits_b) = (digits(a), digits(b));
    // Pad the shorter with zeros: equal then means it is a prefix of the
    // longer, and sorts first.
    let width = digits_a.max(digits_b);
    let padded = |n: usize, digits: u32| n as u128 * 10u128.pow(width - digits);
    padded(a, digits_a)
        .cmp(&padded(b, digits_b))
        .then(digits_a.cmp(&digits_b))
}

/// An index-keyed map is an object whose keys are the indices in decimal,
/// written — like every object — in the string order of those keys.
impl<K: JsonKey, V: Json> Json for BTreeMap<K, V> {
    fn write(&self, w: &mut Writer<'_>) {
        let length = |key: &K| key.index().checked_ilog10().unwrap_or(0) as usize;
        let shortest = self.first_key_value().map_or(0, |(key, _)| length(key));
        let longest = self.last_key_value().map_or(0, |(key, _)| length(key));
        let mut members = Members::open(w);
        if shortest == longest {
            // Indices of equal length are in string order as they are.
            for (key, value) in self {
                value.write(members.index_key(key.index()));
            }
        } else {
            // So is each length's run of the map. Every run has a cursor,
            // and the next member is the head of whichever run spells first.
            let mut heads: [Option<(&K, &V)>; 20] = [None; 20];
            let mut runs: [Option<btree_map::Iter<'_, K, V>>; 20] = std::array::from_fn(|_| None);
            let mut entries = self.iter();
            while let Some((key, value)) = entries.next() {
                let run = length(key);
                if heads[run].is_none() {
                    heads[run] = Some((key, value));
                    runs[run] = Some(entries.clone());
                }
            }
            while let Some((run, index)) = (shortest..=longest)
                .filter_map(|run| heads[run].map(|(key, _)| (run, key.index())))
                .min_by(|a, b| compare_as_decimal_keys(a.1, b.1))
            {
                if let Some((_, value)) = heads[run] {
                    value.write(members.index_key(index));
                }
                heads[run] = (runs[run].as_mut())
                    .and_then(Iterator::next)
                    .filter(|(key, _)| length(key) == run);
            }
        }
        members.close();
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut map = BTreeMap::new();
        // Keys whose last value did not decode: an error unless a later
        // member of the same key replaces it.
        let mut failed: Vec<(K, JsonError)> = Vec::new();
        r.object("expected an object", |key, r| {
            let Some(index) = parse_index_key(key) else {
                let error = JsonError::custom(format!("key `{key}` is not an index"));
                return Err(error.at(r.offset()));
            };
            let index = K::from_index(index);
            let value = read_or_pass_over(r)?;
            if !failed.is_empty() {
                failed.retain(|(earlier, _)| *earlier != index);
            }
            match value {
                Ok(value) => {
                    map.insert(index, value);
                }
                Err(error) => failed.push((index, error.within(key))),
            }
            Ok(())
        })?;
        match failed.into_iter().next() {
            Some((_, error)) => Err(error),
            None => Ok(map),
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
        // Renamed, `None` as null, the flattened member beside the rest, and
        // sorted whatever the table's order.
        assert_eq!(
            sample.to_json(),
            r#"{"count":9,"gap":null,"id":"s","later":3}"#
        );
        assert_eq!(
            sample.to_json_pretty(),
            "{\n  \"count\": 9,\n  \"gap\": null,\n  \"id\": \"s\",\n  \"later\": 3\n}"
        );
        assert_eq!(Sample::from_json(&sample.to_json()), Ok(sample));

        let decode = Sample::from_json;
        // Absent and null are the default, or `None`, where the table says so.
        let sparse = decode(r#"{"id":"s","count":1}"#).expect("optional members left out");
        assert_eq!((sparse.gap, sparse.later), (None, 0));
        let nulls = decode(r#"{"id":"s","count":1,"gap":null,"later":null}"#).expect("nulls");
        assert_eq!(nulls, sparse);
        assert_eq!(
            decode(r#"{"id":"s","count":1,"gap":7}"#).expect("set").gap,
            Some(7)
        );
        // Everything else is required, typed, and checked; the error says
        // where the value (for a missing member or a check: the object) is.
        for (bad, why) in [
            (r#" {"count":1}"#, "missing field `id` at byte 1"),
            (r#"{"id":"s"}"#, "missing field `count` at byte 0"),
            (
                r#"{"id":"s","count":null}"#,
                "`count`: expected a non-negative integer at byte 18",
            ),
            (
                r#"{"id":"s","count":1,"gap": "x"}"#,
                "`gap`: expected a non-negative integer at byte 27",
            ),
            (
                r#"{"id":"s","count":1,"later":-1}"#,
                "`later`: expected a non-negative integer at byte 28",
            ),
            (r#"{"id":"","count":1}"#, "a sample has a name at byte 0"),
            (r#"[]"#, "sample must be a JSON object at byte 0"),
            // Of several faults the first in table order, as ever.
            (r#"{"later":"x","gap":[]}"#, "missing field `id` at byte 0"),
        ] {
            assert_eq!(decode(bad).expect_err(bad).to_string(), why, "{bad}");
        }
    }

    #[test]
    fn members_come_in_any_order_and_the_last_duplicate_wins() {
        let expected = Sample {
            name: "s".into(),
            gap: Some(2),
            later: 0,
            inner: Inner { count: 1 },
        };
        for text in [
            r#"{"id":"s","gap":2,"count":1}"#,
            r#"{"count":1,"id":"s","gap":2}"#,
            // An earlier duplicate is replaced, whatever it held — also a
            // value of the wrong shape, which a map of members never saw.
            r#"{"id":"t","id":"s","gap":1,"gap":2,"count":3,"count":1}"#,
            r#"{"id":[{"deep":[1,2]}],"id":"s","gap":"x","gap":2,"count":-1,"count":1}"#,
            // Unknown members are passed over, escaped keys are resolved.
            r#"{"x":[1,{"y":null}],"\u0069d":"s","gap":2,"z":"\n","count":1}"#,
            " {\n\t\"id\" : \"s\" ,\r\n \"gap\" : 2 , \"count\" : 1 } ",
        ] {
            assert_eq!(Sample::from_json(text).as_ref(), Ok(&expected), "{text}");
        }
        // The last one counts the other way round, too.
        assert_eq!(
            Sample::from_json(r#"{"id":"s","count":1,"count":"x"}"#)
                .expect_err("mistyped last")
                .to_string(),
            "`count`: expected a non-negative integer at byte 28"
        );
        // A grammar error is not a shape error: nothing later makes up for it.
        for bad in [
            r#"{"id":[1,],"id":"s","count":1}"#,
            r#"{"x":tru,"id":"s","count":1}"#,
            r#"{"id":"s","count":1,}"#,
            r#"{"id":"s","count":1} x"#,
        ] {
            assert!(Sample::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn skipped_and_mistyped_members_are_depth_limited_too() {
        let deep = "[".repeat(200_000);
        for text in [
            format!(r#"{{"id":"s","count":1,"x":{deep}"#),
            format!(r#"{{"id":{deep}"#),
            format!(r#"{{"count":{{"a":{deep}"#),
        ] {
            let error = Sample::from_json(&text).expect_err("a bomb");
            let message = error.to_string();
            assert!(
                message.starts_with("nesting deeper than 128 levels at byte "),
                "{message}"
            );
        }
        // 128 levels inside a member nobody reads are still a document.
        let nested = format!("{}{}", "[".repeat(127), "]".repeat(127));
        let text = format!(r#"{{"id":"s","count":1,"x":{nested}}}"#);
        assert!(Sample::from_json(&text).is_ok());
    }

    #[test]
    fn numbers_no_f64_holds_are_rejected_where_they_stand() {
        for (text, offset) in [("1e999", 0), ("-1e999", 0), ("[1, 2e400]", 4)] {
            assert_eq!(
                Value::parse(text).expect_err(text).to_string(),
                format!("number out of range at byte {offset}")
            );
        }
        let long = format!("1{}", "0".repeat(400));
        assert!(Value::parse(&long).is_err());
        // Also in a member that is only skipped, or typed.
        assert_eq!(
            Sample::from_json(r#"{"id":"s","count":1,"x":1e999}"#)
                .expect_err("skipped")
                .to_string(),
            "number out of range at byte 24"
        );
        assert!(<Vec<f64>>::from_json("[1e999]").is_err());
        // Large and tiny, but finite.
        assert_eq!(Value::parse("1e308"), Ok(Value::Number(1e308)));
        assert_eq!(Value::parse("1e-999"), Ok(Value::Number(0.0)));
        assert_eq!(
            Value::parse("123456789012345678"),
            Ok(Value::Number(123456789012345678.0))
        );
        assert_eq!(
            Value::parse("-123456789012345"),
            Ok(Value::Number(-123456789012345.0))
        );
    }

    #[test]
    fn integers_are_written_as_the_f64_they_travel_as() {
        for (n, text) in [
            (0u64, "0"),
            (7, "7"),
            (1 << 53, "9007199254740992"),
            ((1 << 53) + 1, "9007199254740992"),
            (u64::MAX, "18446744073709552000"),
        ] {
            assert_eq!(n.to_json(), text);
            assert_eq!(Value::Number(n as f64).to_json(), text);
        }
        for n in [
            0.0,
            -0.0,
            -3.0,
            40000.5,
            1e21,
            -1e15,
            2f64.powi(53),
            1e-7,
            f64::MAX,
        ] {
            assert_eq!(Value::Number(n).to_json(), format!("{n}"));
            assert_eq!(n.to_json(), format!("{n}"));
        }
        // Beyond 2^53 a counter prints, but does not read back.
        assert!(u64::from_json("9007199254740992").is_ok());
        assert!(u64::from_json("9007199254740994").is_err());
        assert!(usize::from_json("1.5").is_err());
        assert_eq!(usize::from_json("-0"), Ok(0));
    }

    #[test]
    fn extra_members_merge_into_a_table_in_sorted_order() {
        let inner = Inner { count: 9 };
        let render = |extra: &[MemberWriter<'_>]| {
            let mut out = Vec::new();
            Writer::compact(&mut out).table(&inner, extra);
            String::from_utf8(out).expect("utf-8")
        };
        assert_eq!(render(&[]), r#"{"count":9}"#);
        assert_eq!(
            render(&[("a", &|w| w.bool(true)), ("type", &|w| w.string("t"))]),
            r#"{"a":true,"count":9,"type":"t"}"#
        );
        // An extra named like a field is written in its place.
        assert_eq!(
            render(&[("count", &|w| w.raw("[1,2]"))]),
            r#"{"count":[1,2]}"#
        );
        // The sorted form of members given in any order.
        let mut out = Vec::new();
        Writer::pretty(&mut out).object(&mut [
            ("b", &|w| w.array([1usize, 2], |w, n| n.write(w))),
            ("a", &|w| w.object(&mut [])),
        ]);
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "{\n  \"a\": {},\n  \"b\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn typed_and_generic_documents_share_their_bytes() {
        let sample = Sample {
            name: "s\"\n".into(),
            gap: Some(1 << 53),
            later: 3,
            inner: Inner { count: 9 },
        };
        let value = sample.to_value();
        assert_eq!(value.to_json(), sample.to_json());
        assert_eq!(value.to_json_pretty(), sample.to_json_pretty());
        assert_eq!(Sample::from_value(&value), Ok(sample));
    }

    #[test]
    fn index_keys_are_canonical_decimal_only() {
        use crate::ids::TaskId;
        type Offsets = BTreeMap<TaskId, f64>;
        let decode = Offsets::from_json;
        let offsets = decode(r#"{"0":1.5,"7":2,"10":3}"#).expect("canonical keys");
        assert_eq!(offsets[&TaskId::from_index(10)], 3.0);
        // Keys sort as strings; the map is by index either way.
        assert_eq!(offsets.to_json(), r#"{"0":1.5,"10":3,"7":2}"#);
        let wide: BTreeMap<TaskId, usize> = [0, 1, 2, 9, 10, 11, 19, 20, 100, 101, 110, 1000]
            .map(|index| (TaskId::from_index(index), index))
            .into();
        let by_string: Vec<String> = {
            let mut keys: Vec<String> = wide.values().map(usize::to_string).collect();
            keys.sort();
            keys
        };
        let written = Value::parse(&wide.to_json()).expect("json");
        assert_eq!(
            written.to_json(),
            wide.to_json(),
            "keys are in string order"
        );
        assert_eq!(
            written
                .as_object()
                .expect("object")
                .keys()
                .collect::<Vec<_>>(),
            by_string.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            compare_as_decimal_keys(usize::MAX, usize::MAX / 10),
            std::cmp::Ordering::Greater
        );
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
            "`3`: expected a number at byte 5"
        );
        // One spelling twice: the later entry counts, as in any object.
        assert_eq!(
            decode(r#"{"3":"x","3":2}"#).expect("replaced")[&TaskId::from_index(3)],
            2.0
        );
        assert!(decode(r#"{"3":2,"3":"x"}"#).is_err());
    }

    #[test]
    fn index_maps_of_every_key_length_write_in_string_order() {
        use crate::ids::TaskId;
        let indices = [
            usize::MAX,
            0,
            10_usize.pow(19),
            5,
            10_usize.pow(19) - 1,
            10,
            9,
            100,
            99,
            10_usize.pow(18),
            1,
        ];
        let map: BTreeMap<TaskId, usize> =
            indices.map(|index| (TaskId::from_index(index), 0)).into();
        let mut spellings = indices.map(|index| index.to_string());
        spellings.sort();
        let text = map.to_json();
        let members = text.trim_start_matches('{').trim_end_matches('}');
        let written: Vec<&str> = (members.split(','))
            .map(|member| member.trim_end_matches(":0").trim_matches('"'))
            .collect();
        assert_eq!(written, spellings, "members are written in string order");
    }

    #[test]
    fn pairs_and_arrays_decode_elementwise() {
        let edges = <Vec<(usize, usize)>>::from_json("[[0,1],[1,0]]");
        assert_eq!(edges, Ok(vec![(0, 1), (1, 0)]));
        assert_eq!(vec![(0usize, 1usize)].to_json(), "[[0,1]]");
        for bad in ["[[0]]", "[[0,1,2]]", "[0]", "{}", "[[0,\"1\"]]"] {
            assert!(<Vec<(usize, usize)>>::from_json(bad).is_err(), "{bad}");
        }
    }
}

//! A minimal, std-only JSON value, parser and encoder.
//!
//! The build environment has no registry access (see the workspace's
//! `crates/shim`), so the serving layer cannot use `serde`; this module
//! implements exactly the JSON surface the wire format needs: the seven
//! value shapes, UTF-8 strings with full escape handling, and i64-exact
//! numbers (the engine's value domain is integer, so integers must
//! round-trip without floating-point loss).
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map), so
//! encodings are deterministic — which is what lets the smoke tests compare
//! a served answer byte-for-byte against a locally encoded
//! `Session::execute` answer.

use std::fmt;
use std::io::Read;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (i64-exact; the engine's numeric domain).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, for integer numbers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a non-negative count.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric payload, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, for arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest accepted container nesting. The parser recurses once per level,
/// so the bound is what keeps a hostile `[[[[…` body (megabytes of
/// brackets fit well under any body-size cap) from overflowing the handler
/// thread's stack — which would abort the whole process, not just the
/// connection. The wire format nests ~4 levels deep; 128 is generous.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 leaves pos after the digits; compensate
                            // the unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(first) => {
                    // Consume one UTF-8 scalar: validate only the bytes of
                    // this sequence (its length comes from the leading
                    // byte). Validating the whole remaining input per
                    // character would make long strings quadratic — a CPU
                    // trap on multi-megabyte bodies.
                    let len = match first {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let seq = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(seq).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

// ------------------------------------------------------------- pull parser

/// An incremental (pull) JSON parser over any `Read` — the streaming
/// counterpart of [`Json::parse`] for bodies that should never be
/// materialized whole. The caller drives it structurally:
///
/// ```text
/// begin_object() → next_key()? … → begin_array() → next_element()? …
/// ```
///
/// with [`PullParser::value`] (materialize a bounded subtree) and
/// [`PullParser::skip_value`] (discard one) at the leaves, and
/// [`PullParser::end`] asserting the document is complete. Container
/// nesting is bounded by the same 128-level `MAX_DEPTH` as the tree parser —
/// whether the caller's begin/next stack or `value`'s recursion opens the
/// containers — so a hostile `[[[[…` body cannot overflow the stack.
///
/// The registration route uses this to decode multi-megabyte datasets
/// straight off the socket: tuples flow from the wire into the relation
/// without the body ever existing as one `String` *and* one `Json` tree.
pub struct PullParser<R: Read> {
    reader: R,
    peeked: Option<u8>,
    /// Bytes consumed so far (error offsets).
    pos: usize,
    /// Open containers entered via `begin_*`; the bool records whether
    /// the container has yielded its first item (comma handling).
    containers: Vec<bool>,
}

impl<R: Read> PullParser<R> {
    /// Wraps `reader`; bound it (e.g. with [`std::io::Read::take`])
    /// before handing it in — the parser reads to the document's end.
    pub fn new(reader: R) -> PullParser<R> {
        PullParser {
            reader,
            peeked: None,
            pos: 0,
            containers: Vec::new(),
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn io_err(&self, e: std::io::Error) -> JsonError {
        self.err(&format!("read failed: {e}"))
    }

    fn peek(&mut self) -> Result<Option<u8>, JsonError> {
        if self.peeked.is_none() {
            let mut byte = [0u8; 1];
            loop {
                match self.reader.read(&mut byte) {
                    Ok(0) => return Ok(None),
                    Ok(_) => {
                        self.peeked = Some(byte[0]);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(self.io_err(e)),
                }
            }
        }
        Ok(self.peeked)
    }

    fn bump(&mut self) -> Result<u8, JsonError> {
        match self.peek()? {
            Some(b) => {
                self.peeked = None;
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn skip_ws(&mut self) -> Result<(), JsonError> {
        while matches!(self.peek()?, Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump()?;
        }
        Ok(())
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek()? == Some(expected) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn depth(&self) -> usize {
        self.containers.len()
    }

    fn push_container(&mut self) -> Result<(), JsonError> {
        if self.depth() + 1 > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.containers.push(false);
        Ok(())
    }

    /// Enters an object (`{`). Pair with [`PullParser::next_key`].
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.skip_ws()?;
        self.eat(b'{')?;
        self.push_container()
    }

    /// The next key of the current object, with the cursor left on its
    /// value; `None` means `}` was consumed and the object is done.
    pub fn next_key(&mut self) -> Result<Option<String>, JsonError> {
        self.skip_ws()?;
        let saw_first = *self
            .containers
            .last()
            .ok_or_else(|| self.err("next_key outside an object"))?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
            self.containers.pop();
            return Ok(None);
        }
        if saw_first {
            self.eat(b',')
                .map_err(|_| self.err("expected ',' or '}' in object"))?;
            self.skip_ws()?;
        }
        let key = self.string()?;
        self.skip_ws()?;
        self.eat(b':')?;
        self.skip_ws()?;
        *self.containers.last_mut().expect("checked above") = true;
        Ok(Some(key))
    }

    /// Enters an array (`[`). Pair with [`PullParser::next_element`].
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.skip_ws()?;
        self.eat(b'[')?;
        self.push_container()
    }

    /// Whether another element follows in the current array, with the
    /// cursor left on it; `false` means `]` was consumed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws()?;
        let saw_first = *self
            .containers
            .last()
            .ok_or_else(|| self.err("next_element outside an array"))?;
        if self.peek()? == Some(b']') {
            self.bump()?;
            self.containers.pop();
            return Ok(false);
        }
        if saw_first {
            self.eat(b',')
                .map_err(|_| self.err("expected ',' or ']' in array"))?;
            self.skip_ws()?;
        }
        *self.containers.last_mut().expect("checked above") = true;
        Ok(true)
    }

    /// Materializes one whole value (scalar or container) as a [`Json`]
    /// tree. Depth is bounded jointly with the structural stack.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    pairs.push((key, self.value()?));
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't' | b'f' | b'n') => self.literal(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Discards one whole value without materializing it.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f' | b'n') => self.literal().map(drop),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Asserts the document is complete: only whitespace remains.
    pub fn end(&mut self) -> Result<(), JsonError> {
        if !self.containers.is_empty() {
            return Err(self.err("document ended inside a container"));
        }
        self.skip_ws()?;
        if self.peek()?.is_some() {
            return Err(self.err("trailing characters after the JSON value"));
        }
        Ok(())
    }

    fn literal(&mut self) -> Result<Json, JsonError> {
        let (word, value) = match self.peek()? {
            Some(b't') => ("true", Json::Bool(true)),
            Some(b'f') => ("false", Json::Bool(false)),
            _ => ("null", Json::Null),
        };
        for expected in word.bytes() {
            if self.bump()? != expected {
                return Err(self.err("invalid literal"));
            }
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        // Unescaped bytes accumulate raw and are UTF-8-validated once at
        // the end; escapes are decoded inline.
        let mut out: Vec<u8> = Vec::new();
        loop {
            let b = self.bump().map_err(|_| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                b'\\' => {
                    let esc = self.bump()?;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                if self.bump()? != b'\\' || self.bump()? != b'u' {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => out.push(b),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let digit = (self.bump()? as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let mut text = String::new();
        if self.peek()? == Some(b'-') {
            text.push(self.bump()? as char);
        }
        let mut is_float = false;
        while let Some(c) = self.peek()? {
            match c {
                b'0'..=b'9' => text.push(self.bump()? as char),
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    text.push(self.bump()? as char);
                }
                _ => break,
            }
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

impl Json {
    /// Appends the compact, deterministic encoding (no whitespace,
    /// insertion order) to `out` — the serializer behind
    /// [`Display`](fmt::Display) and every response body except a batch
    /// answer's, which [`crate::wire::write_response_body`] writes through
    /// the same escape and integer primitives.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(out, *i),
            Json::Float(x) => {
                if x.is_finite() {
                    use fmt::Write;
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no Inf/NaN; null is the least-wrong encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The two-digit decimal strings `"00"` to `"99"`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends the decimal digits of `i`, through a digit buffer rather than
/// the formatting machinery, two digits per division.
pub(crate) fn write_int(out: &mut String, i: i64) {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut n = i.unsigned_abs();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[pos..]).expect("ASCII digits"));
}

/// Whether byte `b` must be escaped inside a JSON string literal.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` as a JSON string literal (quotes included). Runs of bytes
/// that need no escape are copied whole; every byte that does is ASCII, so
/// the runs always split `s` at character boundaries.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Json {
    /// The [`Json::write_into`] encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-42", "9007199254740993"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
        // i64-exact: a value f64 cannot represent survives.
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_i64(),
            Some(9007199254740993)
        );
        assert_eq!(Json::parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn write_int_matches_the_formatter_at_every_digit_count() {
        let mut values = vec![i64::MIN, i64::MAX, i64::MIN + 1];
        let mut power = 1i64;
        for _ in 0..19 {
            values.extend([power - 1, power, power + 1, 5 * power]);
            values.extend([1 - power, -power, -power - 1]);
            power = power.saturating_mul(10);
        }
        values.extend(-1000..1000);
        for v in values {
            let mut out = String::new();
            write_int(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::parse(r#""a\"b\\c\nd\te\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\teAé"));
        // Surrogate pair (clef: U+1D11E).
        let v = Json::parse(r#""\ud834\udd1e""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
        // Encoding escapes what must be escaped and nothing else.
        let s = Json::str("he said \"hi\"\nâ").to_string();
        assert_eq!(s, "\"he said \\\"hi\\\"\\nâ\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("he said \"hi\"\nâ"));
    }

    #[test]
    fn containers_round_trip_in_order() {
        let text = r#"{"b":[1,2,{"x":null}],"a":"y","n":-3.5}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text, "object order is preserved");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("y"));
        assert_eq!(
            v.get("b").and_then(Json::as_array).map(|a| a.len()),
            Some(3)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        // A body of brackets alone fits any byte cap; the depth bound must
        // stop it before the recursion does.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep).is_err());
        // At the bound, parsing still works — and siblings do not
        // accumulate depth.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    /// A `Read` that hands out one byte per call — the worst-case framing
    /// the pull parser can see from a socket.
    struct OneByte<'a>(&'a [u8]);
    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                None => Ok(0),
                Some((b, rest)) => {
                    buf[0] = *b;
                    self.0 = rest;
                    Ok(1)
                }
            }
        }
    }

    #[test]
    fn pull_parser_streams_structurally() {
        let doc = r#" {"name": "Order", "tuples": [[1, "a\n", true], [2, null, false]], "extra": {"deep": [1,2]}} "#;
        let mut p = PullParser::new(OneByte(doc.as_bytes()));
        p.begin_object().unwrap();
        let mut rows = 0;
        while let Some(key) = p.next_key().unwrap() {
            match key.as_str() {
                "name" => assert_eq!(p.value().unwrap(), Json::str("Order")),
                "tuples" => {
                    p.begin_array().unwrap();
                    while p.next_element().unwrap() {
                        p.begin_array().unwrap();
                        let mut cells = Vec::new();
                        while p.next_element().unwrap() {
                            cells.push(p.value().unwrap());
                        }
                        assert_eq!(cells.len(), 3);
                        rows += 1;
                    }
                }
                _ => p.skip_value().unwrap(),
            }
        }
        p.end().unwrap();
        assert_eq!(rows, 2);
    }

    #[test]
    fn pull_parser_matches_the_tree_parser() {
        // Everything the tree parser accepts, byte-for-byte equal results —
        // escapes, surrogate pairs, i64-exact integers, nested containers.
        for doc in [
            r#"{"b":[1,2,{"x":null}],"a":"y","n":-3.5}"#,
            r#""𝄞""#,
            "9007199254740993",
            r#"[true, false, null, "a\"b\\c\ndA"]"#,
            "[]",
            "{}",
        ] {
            let mut p = PullParser::new(doc.as_bytes());
            let streamed = p.value().unwrap();
            p.end().unwrap();
            assert_eq!(streamed, Json::parse(doc).unwrap(), "{doc}");
        }
    }

    #[test]
    fn pull_parser_bounds_depth_and_rejects_garbage() {
        let deep = "[".repeat(100_000);
        let mut p = PullParser::new(deep.as_bytes());
        let err = p.skip_value().unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Trailing garbage and truncation are errors, not hangs.
        let mut p = PullParser::new(&b"{\"a\": 1} x"[..]);
        p.skip_value().unwrap();
        assert!(p.end().is_err());
        let mut p = PullParser::new(&b"{\"a\": "[..]);
        assert!(p.skip_value().is_err());
    }

    #[test]
    fn whitespace_is_tolerated_and_garbage_is_not() {
        let v = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
        for bad in ["", "{", "[1,", "\"abc", "{\"a\":}", "tru", "1 2", "{'a':1}"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.to_string().contains("invalid JSON"), "{bad}: {err}");
        }
    }
}

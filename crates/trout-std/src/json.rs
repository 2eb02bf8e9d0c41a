//! Minimal JSON value, parser and writer plus the [`ToJson`]/[`FromJson`]
//! traits (the workspace's `serde`/`serde_json` replacement).
//!
//! Structs and unit-variant enums get their impls from
//! [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum); data-carrying enum variants
//! are implemented by hand in their defining crates. The wire format
//! follows serde's defaults (struct → object keyed by field name, unit
//! variant → string, data variant → externally tagged object), so
//! checkpoints written by the seed code parse unchanged.
//!
//! Numbers: integers are kept as `i128` so `u64` seeds and job ids round
//! trip exactly; floats write their shortest round-trip decimal form, with
//! `f32` widened to `f64` first so the reparsed value is bit-identical.
//! Non-finite floats serialize as `null` and parse back as NaN.
//!
//! Large documents are written without a tree: [`ToJson::write_json`]
//! appends a value's text to any [`fmt::Write`] sink, and [`write_io`]
//! points such a sink at a file or socket.

use std::fmt::{self, Write as _};
use std::io;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.` or exponent).
    Int(i128),
    /// A floating-point literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, field: &str) -> Self {
        JsonError(format!("{field}: {}", self.0))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to an object's members.
    pub fn as_object_mut(&mut self) -> Option<&mut Vec<(String, Json)>> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Removes (and returns) an object member by key.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let members = self.as_object_mut()?;
        let i = members.iter().position(|(k, _)| k == key)?;
        Some(members.remove(i).1)
    }

    /// The members of an object, or an error naming the expected type.
    pub fn expect_obj(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(members) => Ok(members),
            other => Err(JsonError::new(format!(
                "{what}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array, or an error naming the expected type.
    pub fn expect_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "{what}: expected array, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Writes the compact text into any [`fmt::Write`] sink, formatting
    /// numbers in place: no temporary `String` per value.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(x) => {
                if x.is_finite() {
                    let mut num = FloatMarker { out, marked: false };
                    write!(num, "{x}")?;
                    // Keep a float marker so integral floats stay floats.
                    if !num.marked {
                        out.write_str(".0")?;
                    }
                    Ok(())
                } else {
                    // serde_json refuses NaN/inf; we degrade to null (read
                    // back as NaN) so a poisoned model still checkpoints.
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(k, out)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Build the text with direct `String` writes and hand it over in
        // one piece: cheaper for the short wire lines than a dynamic
        // formatter call per token. Large documents skip the tree and
        // stream through `ToJson::write_json`.
        let mut s = String::new();
        self.write_to(&mut s)?;
        f.write_str(&s)
    }
}

/// Forwards a formatted float and notes whether its text carried a `.` or
/// an exponent — only the float's own text is inspected.
struct FloatMarker<'a, W> {
    out: &'a mut W,
    marked: bool,
}

impl<W: fmt::Write> fmt::Write for FloatMarker<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.marked |= s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
        self.out.write_str(s)
    }
}

/// Adapts an [`io::Write`] to [`fmt::Write`], keeping the I/O error that
/// `fmt::Error` cannot carry. Made by [`write_io`].
pub struct IoSink<'a, W> {
    inner: &'a mut W,
    err: Option<io::Error>,
}

/// Runs `write` against an [`fmt::Write`] view of `w`, so JSON text (see
/// [`ToJson::write_json`]) streams into a file or socket with no in-memory
/// copy of the whole document. Returns the I/O error that stopped it.
pub fn write_io<W: io::Write>(
    w: &mut W,
    write: impl FnOnce(&mut IoSink<'_, W>) -> fmt::Result,
) -> io::Result<()> {
    let mut sink = IoSink {
        inner: w,
        err: None,
    };
    write(&mut sink).map_err(|_| {
        sink.err
            .unwrap_or_else(|| io::Error::other("json formatting failed"))
    })
}

impl<W: io::Write> fmt::Write for IoSink<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.err = Some(e);
            fmt::Error
        })
    }
}

/// Writes `s` as a quoted JSON string. Unescaped runs go out as slices;
/// every byte that needs an escape is ASCII, so each cut is a char boundary.
fn write_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if esc.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(esc)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The document; `bytes` is the same text, indexed bytewise.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.depth += 1;
                self.pos += 1;
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
                            break;
                        }
                        _ => {
                            return Err(JsonError::new(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
                self.depth -= 1;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.depth += 1;
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            break;
                        }
                        _ => {
                            return Err(JsonError::new(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
                self.depth -= 1;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("invalid number '{text}' at byte {start}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                let combined = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| JsonError::new("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "invalid escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Copy the unescaped run up to the next quote or
                    // backslash as one slice. Both are ASCII, so the cut is a
                    // char boundary of the already-valid text.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|_| JsonError::new("invalid \\u escape"))
    }
}

/// Serialization into a [`Json`] value, or straight to its text.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;

    /// Appends the compact text of [`to_json`](ToJson::to_json) to `out`.
    /// Containers and [`impl_json_struct!`](crate::impl_json_struct) types
    /// override it to write their brackets and keys and recurse, so a large
    /// document is written without ever existing as a tree; leaves keep
    /// this default, which keeps number and string formatting in one place.
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.to_json().write_to(out)
    }

    /// Convenience: the compact JSON text.
    fn to_json_string(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s)
            .expect("writing to a String cannot fail");
        s
    }
}

/// Writes `items` as a JSON array, each through [`ToJson::write_json`].
pub fn write_json_array<'a, T, W>(
    items: impl IntoIterator<Item = &'a T>,
    out: &mut W,
) -> fmt::Result
where
    T: ToJson + 'a + ?Sized,
    W: fmt::Write,
{
    out.write_char('[')?;
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        item.write_json(out)?;
    }
    out.write_char(']')
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs a value from JSON.
    fn from_json(j: &Json) -> Result<Self, JsonError>;

    /// Reconstructs from an optional object member. The default requires
    /// the field to be present; `Option<T>` overrides this so missing
    /// members read as `None` (serde's behaviour for `Option` fields).
    fn from_json_field(v: Option<&Json>, ctx: &str) -> Result<Self, JsonError> {
        match v {
            Some(j) => Self::from_json(j).map_err(|e| e.in_field(ctx)),
            None => Err(JsonError::new(format!("missing field {ctx}"))),
        }
    }

    /// Convenience: parse text then convert.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Int(*self as i128)
                }
            }
            impl FromJson for $ty {
                fn from_json(j: &Json) -> Result<Self, JsonError> {
                    match j {
                        Json::Int(i) => <$ty>::try_from(*i)
                            .map_err(|_| JsonError::new(format!("{} out of range for {}", i, stringify!($ty)))),
                        Json::Num(x) if x.fract() == 0.0 => Ok(*x as $ty),
                        other => Err(JsonError::new(format!("expected integer, got {}", other.kind()))),
                    }
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Num(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // Widen so the decimal form is the exact f64 of this f32 — parsing
        // back and narrowing returns the identical bits.
        Json::Num(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        f64::from_json(j).map(|x| x as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_string(self, out)
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_string(self, out)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write_json_array(self, out)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.expect_arr("Vec")?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Some(v) => v.write_json(out),
            None => out.write_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_json_field(v: Option<&Json>, ctx: &str) -> Result<Self, JsonError> {
        match v {
            None => Ok(None),
            Some(j) => Self::from_json(j).map_err(|e| e.in_field(ctx)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_char('[')?;
        self.0.write_json(out)?;
        out.write_char(',')?;
        self.1.write_json(out)?;
        out.write_char(']')
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let items = j.expect_arr("pair")?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-element array, got {}",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

/// Looks up `key` in an object's member list (macro support).
pub fn obj_get<'a>(members: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Implements [`ToJson`]/[`FromJson`] for a struct, serializing the listed
/// fields as a JSON object keyed by field name (serde's default layout).
/// Invoke in the crate that defines the type; private fields are fine.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }

            fn write_json<W: ::std::fmt::Write>(&self, out: &mut W) -> ::std::fmt::Result {
                // Field names are identifiers: they never need escaping.
                let mut open = "{";
                $(
                    out.write_str(open)?;
                    out.write_str(concat!("\"", stringify!($field), "\":"))?;
                    $crate::json::ToJson::write_json(&self.$field, out)?;
                    open = ",";
                )+
                let _ = open;
                out.write_str("}")
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let members = j.expect_obj(stringify!($ty))?;
                Ok($ty {
                    $( $field: $crate::json::FromJson::from_json_field(
                        $crate::json::obj_get(members, stringify!($field)),
                        concat!(stringify!($ty), ".", stringify!($field)),
                    )?, )+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit variants,
/// serializing each as its name string (serde's default layout).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $( $ty::$variant => $crate::json::Json::Str(stringify!($variant).to_string()), )+
                }
            }

            fn write_json<W: ::std::fmt::Write>(&self, out: &mut W) -> ::std::fmt::Result {
                out.write_str(match self {
                    $( $ty::$variant => concat!("\"", stringify!($variant), "\""), )+
                })
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match j {
                    $( $crate::json::Json::Str(s) if s == stringify!($variant) => Ok($ty::$variant), )+
                    other => Err($crate::json::JsonError::new(format!(
                        "invalid {} variant: {}", stringify!($ty), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f32,
        tags: Vec<i64>,
        maybe: Option<f64>,
    }

    impl_json_struct!(Demo {
        name,
        count,
        ratio,
        tags,
        maybe
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Careful,
    }

    impl_json_enum!(Mode { Fast, Careful });

    #[test]
    fn struct_round_trip_is_exact() {
        let d = Demo {
            name: "α \"quoted\"\nline".to_string(),
            count: u64::MAX,
            ratio: 0.1,
            tags: vec![-3, 0, 9_007_199_254_740_993],
            maybe: None,
        };
        let text = d.to_json_string();
        let back = Demo::from_json_str(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        for bits in [
            0x3DCC_CCCDu32,
            0x0000_0001,
            0x7F7F_FFFF,
            0x8000_0000,
            0x4049_0FDB,
        ] {
            let x = f32::from_bits(bits);
            let text = x.to_json_string();
            let back = f32::from_json_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert!(f64::from_json_str("null").unwrap().is_nan());
    }

    #[test]
    fn missing_option_field_reads_as_none() {
        let back = Demo::from_json_str(r#"{"name":"x","count":1,"ratio":2.0,"tags":[]}"#).unwrap();
        assert_eq!(back.maybe, None);
    }

    #[test]
    fn missing_required_field_errors() {
        let err = Demo::from_json_str(r#"{"name":"x"}"#).unwrap_err();
        assert!(err.0.contains("Demo.count"), "{err}");
    }

    #[test]
    fn unit_enum_round_trips() {
        assert_eq!(Mode::Fast.to_json_string(), "\"Fast\"");
        assert_eq!(Mode::from_json_str("\"Careful\"").unwrap(), Mode::Careful);
        assert!(Mode::from_json_str("\"Slow\"").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#""aé\n\t\"\\A 😀""#).unwrap();
        assert_eq!(v, Json::Str("aé\n\t\"\\A 😀".to_string()));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\":}",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_by_shape() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Int(u64::MAX as i128)
        );
    }

    #[test]
    fn object_helpers_work() {
        let mut v = Json::parse(r#"{"a":1,"b":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(1)));
        assert_eq!(v.remove("a"), Some(Json::Int(1)));
        assert_eq!(v.get("a"), None);
        assert_eq!(v.to_string(), r#"{"b":2}"#);
    }

    #[test]
    fn numbers_and_strings_write_the_std_formatted_bytes() {
        for x in [0.0, -0.0, 1.0, 0.1, 1e21, 1e-7, 5e-324, f64::MAX, -2.5e10] {
            let s = x.to_string();
            let want = if s.contains(['.', 'e', 'E']) {
                s
            } else {
                s + ".0"
            };
            assert_eq!(Json::Num(x).to_string(), want);
        }
        for i in [0i128, -1, i64::MIN as i128, u64::MAX as i128, i128::MAX] {
            assert_eq!(Json::Int(i).to_string(), i.to_string());
        }
        let s = Json::Str("a\"b\\c\nd\re\tf\u{1}\u{1f}é😀".into()).to_string();
        assert_eq!(s, r#""a\"b\\c\nd\re\tf\u0001\u001fé😀""#);
    }

    #[test]
    fn write_io_streams_the_display_bytes() {
        let v = Json::parse(r#"{"a":[1,2.5,-0.0,null,true,"x\ny"],"b":{"c":1e300}}"#).unwrap();
        let mut buf = Vec::new();
        write_io(&mut buf, |w| v.write_to(w)).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), v.to_string());
    }

    /// A document of `n` records, each holding strings with escapes and
    /// multi-byte characters, numbers and nesting.
    fn scaling_doc(n: usize) -> String {
        let rec = r#"{"name":"partition-wholenode αβγ \"quoted\" and a long tail of plain text","v":[1,2.5,-3e-4]}"#;
        format!("[{}]", vec![rec; n].join(","))
    }

    #[test]
    fn parse_time_scales_linearly_with_document_size() {
        // Quadratic work would make the 16x document about 256x slower;
        // linear work stays near 16x. Fastest of k runs damps scheduling noise.
        fn fastest(doc: &str) -> f64 {
            (0..7)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(Json::parse(doc).unwrap());
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        }
        let (small, large) = (scaling_doc(64), scaling_doc(64 * 16));
        let ratio = fastest(&large) / fastest(&small);
        assert!(
            ratio <= 40.0,
            "16x document took {ratio:.1}x as long ({} vs {} bytes)",
            large.len(),
            small.len()
        );
    }

    #[test]
    fn nested_value_round_trips_through_text() {
        let text = r#"{"cluster":{"name":"anvil","partitions":[{"name":"shared","whole_node":false}]},"records":[],"x":[1,2.5,null,true,"s"]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}

//! JSON, std only: a value ([`Json`]: object keys keep insertion order,
//! numbers are `f64`), a recursive-descent parser ([`parse`]), one writer
//! with three layouts ([`Json::to_compact`], [`Json::write_line`],
//! [`Json::to_pretty`]) and the two traits the serialized types implement
//! by hand or through [`json_struct!`](crate::json_struct): [`ToJson`] and
//! [`FromJson`], whose errors name the path of the offending value.
//!
//! `f64` is written through `Display`, which prints the shortest digits that
//! parse back to the same bits, so text → value → text is exact. Integers
//! travel as `f64` too: writing asserts, and reading requires, a magnitude
//! below 2⁵³, where every integer is an exact `f64`.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Human-readable reason.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// content is an error).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect the low half next
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe)
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

// ---- writing ---------------------------------------------------------------

/// Append `x` as a JSON number. JSON has no NaN or infinity: both are
/// written as `0.0` (a writer that must not lose them calls
/// [`Json::require_finite`] first).
fn push_num(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < EXACT_INTEGERS && (x != 0.0 || x.is_sign_positive()) {
        // the digits `Display` prints, through the cheaper integer path
        let _ = write!(out, "{}", x as i64);
    } else if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("0.0");
    }
}

/// Append `s` as a JSON string, quoted and escaped; the runs between
/// escapes are copied whole.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| b < b' ' || b == b'"' || b == b'\\') {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// How the writer lays a document out: `Compact` is `{"a":[1,2]}`, `Line`
/// is `{"a": [1, 2]}`, `Pretty(depth)` puts each item on its own line,
/// indented two spaces per level below `depth`.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    Compact,
    Line,
    Pretty(usize),
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// The brackets, separators and line breaks around `len` items; `item`
/// writes item `i` in the layout of the items.
fn write_seq(
    out: &mut String,
    layout: Layout,
    (open, close): (char, char),
    len: usize,
    mut item: impl FnMut(&mut String, usize, Layout),
) {
    out.push(open);
    let inner = match layout {
        Layout::Pretty(depth) => Layout::Pretty(depth + 1),
        flat => flat,
    };
    for i in 0..len {
        if i > 0 {
            out.push_str(if layout == Layout::Line { ", " } else { "," });
        }
        if let Layout::Pretty(depth) = inner {
            newline(out, depth);
        }
        item(out, i, inner);
    }
    if let (Layout::Pretty(depth), true) = (layout, len > 0) {
        newline(out, depth);
    }
    out.push(close);
}

impl Json {
    /// The document with no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    /// Append the document on one line, with a space after each `,` and
    /// `:`: the layout of a JSONL line, written where the line goes.
    pub fn write_line(&self, out: &mut String) {
        self.write(out, Layout::Line);
    }

    /// The document with one member or element per line, indented by two
    /// spaces per level.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Pretty(0));
        out
    }

    fn write(&self, out: &mut String, layout: Layout) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => push_num(out, *x),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => write_seq(out, layout, ('[', ']'), items.len(), |out, i, inner| {
                items[i].write(out, inner)
            }),
            Json::Obj(members) => {
                write_seq(out, layout, ('{', '}'), members.len(), |out, i, inner| {
                    let (key, value) = &members[i];
                    push_str(out, key);
                    out.push_str(if inner == Layout::Compact { ":" } else { ": " });
                    value.write(out, inner);
                })
            }
        }
    }

    /// The error naming the first NaN or infinite number of the document,
    /// for writers that refuse to store one as `0.0`.
    pub fn require_finite(&self) -> Result<(), Error> {
        match self {
            Json::Num(x) if !x.is_finite() => Err(Error::new("a finite number", x.to_string())),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, v)| v.require_finite().map_err(|e| e.at(i))),
            Json::Obj(members) => members
                .iter()
                .try_for_each(|(k, v)| v.require_finite().map_err(|e| e.under(k))),
            _ => Ok(()),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Member `key` of this object read as a `T`, `None` when absent.
    fn optional_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, Error> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .map(|v| T::from_json(v).map_err(|e| e.under(key)))
                .transpose(),
            other => Err(Error::new("object", other.kind())),
        }
    }

    /// Member `key` of this object, read as a `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        self.optional_field(key)?
            .ok_or_else(|| Error::new("a value", "nothing").under(key))
    }

    /// Like [`Json::field`], but an absent member reads as `default`.
    pub fn field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.optional_field(key)?.unwrap_or(default))
    }
}

// ---- typed values ------------------------------------------------------------

/// Why a document could not be read as the type asked for: what was
/// expected at `path` (`hierarchy.patches[3].owner`; empty for the document
/// itself) and what was there.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    pub path: String,
    pub expected: String,
    pub found: String,
}

impl Error {
    /// An error at the value being read; containers extend the path on the
    /// way out with [`Error::under`] and [`Error::at`].
    pub fn new(expected: impl Into<String>, found: impl Into<String>) -> Error {
        Error {
            path: String::new(),
            expected: expected.into(),
            found: found.into(),
        }
    }

    fn prefixed(mut self, mut head: String) -> Error {
        if !self.path.is_empty() && !self.path.starts_with('[') {
            head.push('.');
        }
        head.push_str(&self.path);
        self.path = head;
        self
    }

    /// The same error, seen from the object whose member `key` held it.
    pub fn under(self, key: &str) -> Error {
        self.prefixed(key.to_string())
    }

    /// The same error, seen from the array whose element `i` held it.
    pub fn at(self, i: usize) -> Error {
        self.prefixed(format!("[{i}]"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        write!(f, "expected {}, found {}", self.expected, self.found)
    }
}

impl std::error::Error for Error {}

/// A value with a JSON form.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// A value that can be read back from its JSON form. Input comes from
/// outside the program: every mismatch is an [`Error`], never a panic or a
/// silently substituted default.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, Error>;
}

/// Parse `text` and read a `T` from it.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    let doc = parse(text).map_err(|e| Error::new("a JSON document", e.to_string()))?;
    T::from_json(&doc)
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, Error> {
        v.as_f64().ok_or_else(|| Error::new("number", v.kind()))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new("string", v.kind()))
    }
}

/// Integers at or beyond ±2⁵³ have neighbours that share their `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

macro_rules! integer_json {
    ($($t:ty)+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let x = *self as f64;
                assert!(x.abs() < EXACT_INTEGERS, "{self} has no exact JSON number");
                Json::Num(x)
            }
        }

        impl FromJson for $t {
            /// The number must be this integer exactly: a fraction, a value
            /// outside the type or one too large to be exact is an error,
            /// never rounded.
            fn from_json(v: &Json) -> Result<$t, Error> {
                let x = f64::from_json(v).map_err(|e| Error::new(stringify!($t), e.found))?;
                <$t>::try_from(x as i64)
                    .ok()
                    .filter(|_| x.fract() == 0.0 && x.abs() < EXACT_INTEGERS)
                    .ok_or_else(|| Error::new(stringify!($t), format!("number {x}")))
            }
        }
    )+};
}

integer_json!(u32 u64 usize i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, Error> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, Error> {
        let items = v.as_arr().ok_or_else(|| Error::new("array", v.kind()))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.at(i)))
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<[T; N], Error> {
        Vec::from_json(v)?.try_into().map_err(|items: Vec<T>| {
            Error::new(
                format!("array of {N} elements"),
                format!("{} elements", items.len()),
            )
        })
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<(A, B), Error> {
        match v.as_arr() {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| e.at(0))?,
                B::from_json(b).map_err(|e| e.at(1))?,
            )),
            Some(items) => Err(Error::new(
                "array of 2 elements",
                format!("{} elements", items.len()),
            )),
            None => Err(Error::new("array", v.kind())),
        }
    }
}

/// The object of `members`, in order.
pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The object `{"a": self.a, "b": self.b}` for `json_fields!(self; a, b)`.
#[macro_export]
macro_rules! json_fields {
    ($value:expr; $($field:ident),+ $(,)?) => {
        $crate::json::Json::Obj(vec![$((
            stringify!($field).to_string(),
            $crate::json::ToJson::to_json(&$value.$field),
        )),+])
    };
}

/// `json_struct!(Type: a, b, c or 0.0)` implements [`ToJson`] (an object
/// of the listed fields, in that order) and [`FromJson`] (every listed
/// member required — except `c`, which reads as `0.0` when absent) for a
/// struct with exactly these fields.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty: $($field:ident $(or $default:expr)?),+ $(,)?) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json_fields!(self; $($field),+)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::Error> {
                Ok(Self {
                    $($field: $crate::json_struct!(@read v $field $($default)?)),+
                })
            }
        }
    };
    (@read $v:ident $field:ident) => {
        $v.field(stringify!($field))?
    };
    (@read $v:ident $field:ident $default:expr) => {
        $v.field_or(stringify!($field), $default)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
        let doc = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        id: u64,
        data: Vec<f64>,
    }
    json_struct!(Inner: id, data);

    #[derive(Debug, PartialEq)]
    struct Outer {
        name: String,
        ghost: i64,
        level: u32,
        items: Vec<Inner>,
        pair: (String, f64),
        pos: [f64; 3],
        parent: Option<u64>,
        late: f64,
    }
    json_struct!(Outer: name, ghost, level, items, pair, pos, parent, late or 0.25);

    fn outer() -> Outer {
        Outer {
            name: "a \"quoted\"\n\ttab \u{1} \u{1F600} back\\slash".into(),
            ghost: -2,
            level: 3,
            items: vec![
                Inner {
                    id: 0,
                    data: vec![],
                },
                Inner {
                    id: (1 << 53) - 1,
                    data: vec![0.1, -0.0, 2.0],
                },
            ],
            pair: ("k".into(), 2.5),
            pos: [1.0, 2.0, 3.5],
            parent: None,
            late: 7.0,
        }
    }

    #[test]
    fn both_writers_round_trip_a_nested_struct() {
        let v = outer().to_json();
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
            assert_eq!(from_str::<Outer>(&text).unwrap(), outer());
        }
        assert!(!v.to_compact().contains('\n'));
        let small = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("e".into(), Json::Arr(vec![])),
            ("o".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(small.to_compact(), r#"{"a":[1,null],"e":[],"o":{}}"#);
        assert_eq!(
            small.to_pretty(),
            "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
    }

    #[test]
    fn the_line_layout_is_one_line_with_spaced_separators() {
        // appended to what the buffer already holds
        let line = |v: &Json| {
            let mut out = String::from("> ");
            v.write_line(&mut out);
            out
        };
        let v = outer().to_json();
        let text = line(&v);
        assert!(text.starts_with("> {") && !text.contains('\n'), "{text}");
        assert_eq!(parse(&text[2..]).unwrap(), v);
        let small = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("e".into(), Json::Arr(vec![])),
            ("o".into(), Json::Obj(vec![("k\"".into(), "v".to_json())])),
        ]);
        assert_eq!(line(&small), r#"> {"a": [1, null], "e": [], "o": {"k\"": "v"}}"#);
    }

    #[test]
    fn f64_text_round_trips_to_the_same_bits() {
        let cases = [
            5e-324,                        // smallest subnormal
            f64::from_bits((1 << 52) - 1), // largest subnormal
            -0.0,
            -4096.0,
            1e15,
            9_007_199_254_740_991.0, // 2^53 - 1, the largest integer written as one
            1e-7,
            0.1,
            1.0 / 3.0,
            123_456_789.123_456_79,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for x in cases {
            let text = Json::Num(x).to_compact();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} written as {text}");
            assert_eq!(Json::Num(back).to_compact(), text);
        }
        assert_eq!(Json::Num(f64::NAN).to_compact(), "0.0");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_compact(), "0.0");
        assert_eq!(Json::Num(42.0).to_compact(), "42");
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        let read = |text: &str| from_str::<u64>(text);
        assert_eq!(read("9007199254740991"), Ok((1 << 53) - 1));
        // 2^53 + 1 parses to the f64 2^53: accepting it would round
        for text in ["9007199254740993", "9007199254740992", "1.5", "-1", "1e300"] {
            let e = read(text).unwrap_err();
            assert_eq!(
                (e.path.as_str(), e.expected.as_str()),
                ("", "u64"),
                "{text}"
            );
            assert!(e.found.starts_with("number "), "{text}: {e}");
        }
        assert_eq!(from_str::<u32>("4294967295"), Ok(u32::MAX));
        assert!(from_str::<u32>("4294967296").is_err());
        assert_eq!(from_str::<i64>("-9007199254740991"), Ok(-((1 << 53) - 1)));
        assert!(from_str::<i64>("-9007199254740992").is_err());
        assert_eq!(from_str::<usize>("\"7\"").unwrap_err().found, "string");
    }

    #[test]
    #[should_panic(expected = "no exact JSON number")]
    fn an_integer_that_f64_cannot_hold_is_not_written_rounded() {
        let _ = ((1u64 << 53) + 1).to_json();
    }

    #[test]
    fn errors_name_the_path_of_the_offending_value() {
        let good = outer().to_json().to_compact();
        let err = |text: &str| from_str::<Outer>(text).unwrap_err().to_string();
        assert_eq!(
            err(&good.replace("[0.1,-0,2]", "[0.1,null,2]")),
            "items[1].data[1]: expected number, found null"
        );
        assert_eq!(
            err(&good.replace("\"ghost\":-2", "\"ghost\":-2.5")),
            "ghost: expected i64, found number -2.5"
        );
        assert_eq!(
            err(&good.replace("\"level\":3,", "")),
            "level: expected a value, found nothing"
        );
        assert_eq!(
            err(&good.replace("[\"k\",2.5]", "[\"k\"]")),
            "pair: expected array of 2 elements, found 1 elements"
        );
        assert_eq!(
            err(&good.replace("[1,2,3.5]", "[1,2,true,4]")),
            "pos[2]: expected number, found boolean"
        );
        assert_eq!(
            err(&good.replace("[1,2,3.5]", "[1,2]")),
            "pos: expected array of 3 elements, found 2 elements"
        );
        assert_eq!(err("[]"), "expected object, found array");
        let truncated = err(&good[..good.len() / 2]);
        assert!(
            truncated.starts_with("expected a JSON document, found JSON parse error at byte"),
            "{truncated}"
        );
        // an absent `or` member takes its default, a present one is still typed
        let without_late = good.replace(",\"late\":7", "");
        assert_eq!(from_str::<Outer>(&without_late).unwrap().late, 0.25);
        assert_eq!(
            err(&good.replace("\"late\":7", "\"late\":\"7\"")),
            "late: expected number, found string"
        );
    }

    #[test]
    fn require_finite_names_the_first_non_finite_number() {
        let mut o = outer();
        assert_eq!(o.to_json().require_finite(), Ok(()));
        o.items[1].data[2] = f64::NAN;
        o.late = f64::INFINITY;
        assert_eq!(
            o.to_json().require_finite().unwrap_err().to_string(),
            "items[1].data[2]: expected a finite number, found NaN"
        );
    }
}

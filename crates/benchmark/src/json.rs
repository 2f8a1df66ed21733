//! A small JSON value and its writer — what the benchmark builds its
//! outputs from. Reading (`compare`, `run --all`) goes through the
//! workspace's serializer-free reader, `telemetry::json`, so nothing here
//! depends on a working `serde_json`.

use std::fmt::Write as _;
use telemetry::json::Json;

/// A JSON document. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x as f64)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x as f64)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(xs: Vec<T>) -> Self {
        Value::Arr(xs.into_iter().map(Into::into).collect())
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow `path` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// Add or replace member `key` (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Obj(members) = self {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// One line, no spaces after separators except `": "` and `", "`.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Indented by two spaces; arrays of scalars stay on one line.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(xs) => {
                let flat = indent.is_none() || xs.iter().all(Value::is_scalar);
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    x.write(out, indent, depth + 1);
                }
                if !flat && !xs.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest representation that reads back to the same `f64`; whole numbers
/// below 2^53 print without a fraction. JSON has no NaN/∞: they become null.
fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Parse one JSON document with the workspace's own reader,
/// `telemetry::json` (the one the `report` bin uses).
pub fn parse(text: &str) -> Result<Value, String> {
    telemetry::json::parse(text)
        .map(Value::from)
        .map_err(|e| e.to_string())
}

impl From<Json> for Value {
    fn from(j: Json) -> Self {
        match j {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(b),
            Json::Num(x) => Value::Num(x),
            Json::Str(s) => Value::Str(s),
            Json::Arr(xs) => Value::Arr(xs.into_iter().map(Value::from).collect()),
            Json::Obj(ms) => Value::Obj(ms.into_iter().map(|(k, v)| (k, v.into())).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_both_writers() {
        let v = obj([
            ("name", "a \"quoted\"\nline".into()),
            ("n", 3usize.into()),
            ("x", 0.1f64.into()),
            ("tiny", 1.5e-9f64.into()),
            ("flags", vec![true, false].into()),
            (
                "nested",
                obj([("empty", Value::Arr(vec![])), ("none", Value::Null)]),
            ),
            (
                "rows",
                Value::Arr(vec![obj([("k", 1usize.into())]), obj([])]),
            ),
        ]);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert!(!v.to_compact().contains('\n'));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 1.234_567_890_123_456_7_f64;
        let s = Value::Num(x).to_compact();
        assert_eq!(s.parse::<f64>().unwrap(), x);
        assert_eq!(Value::Num(42.0).to_compact(), "42");
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn paths_and_errors() {
        let v = parse(r#"{"a": {"b": [1, 2.5, "x"]}, "c": null}"#).unwrap();
        assert_eq!(
            v.at(&["a", "b"]).unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert!(v.at(&["a", "zz"]).is_none());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2] x").is_err());
    }
}

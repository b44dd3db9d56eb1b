//! Workspace shim for `serde_json`.
//!
//! A complete-enough JSON implementation on `std` alone: the [`Value`]
//! tree, a recursive-descent [`from_str`] parser (string escapes incl.
//! `\uXXXX` surrogate pairs, scientific-notation numbers, a 128-level
//! nesting limit like the real crate), and [`to_string`] /
//! [`to_string_pretty`] over a [`Value`]. Object keys are stored in a
//! `BTreeMap`, so serialization is deterministically key-ordered.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// Object map type (`serde_json::Map` stand-in; key-ordered).
pub type Map<K, V> = BTreeMap<K, V>;

/// Nesting depth accepted by the parser (matches real serde_json's
/// default recursion limit).
pub const RECURSION_LIMIT: usize = 128;

/// A JSON number: integer when it fits, float otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Number {
    repr: NumberRepr,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum NumberRepr {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl Number {
    /// The value as `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self.repr {
            NumberRepr::I64(i) => Some(i),
            NumberRepr::U64(u) => i64::try_from(u).ok(),
            NumberRepr::F64(_) => None,
        }
    }

    /// The value as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self.repr {
            NumberRepr::I64(i) => u64::try_from(i).ok(),
            NumberRepr::U64(u) => Some(u),
            NumberRepr::F64(_) => None,
        }
    }

    /// The value as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self.repr {
            NumberRepr::I64(i) => Some(i as f64),
            NumberRepr::U64(u) => Some(u as f64),
            NumberRepr::F64(f) => Some(f),
        }
    }

    /// Build from a finite float; `None` for NaN/∞ (not valid JSON).
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number {
            repr: NumberRepr::F64(f),
        })
    }

    /// True when the number is a float representation.
    pub fn is_f64(&self) -> bool {
        matches!(self.repr, NumberRepr::F64(_))
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        Number {
            repr: NumberRepr::I64(i),
        }
    }
}
impl From<u64> for Number {
    fn from(u: u64) -> Self {
        if let Ok(i) = i64::try_from(u) {
            Number {
                repr: NumberRepr::I64(i),
            }
        } else {
            Number {
                repr: NumberRepr::U64(u),
            }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            NumberRepr::I64(i) => write!(f, "{i}"),
            NumberRepr::U64(u) => write!(f, "{u}"),
            NumberRepr::F64(x) => {
                if x == x.trunc() && x.abs() < 1e15 {
                    // Keep floats recognizably float-typed (serde_json
                    // renders 1.0 as "1.0").
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key-ordered).
    Object(Map<String, Value>),
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(Number::from(v as i64))
            }
        }
    )*};
}
value_from_int!(i8, i16, i32, i64, isize);

macro_rules! value_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(Number::from(v as u64))
            }
        }
    )*};
}
value_from_uint!(u8, u16, u32, u64, usize);

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl Value {
    /// Borrow as `&str` when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// As `i64` when the value is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// As `u64` when the value is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// As `f64` for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// As `bool` when boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the array items when the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow the object map when the value is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object-field / array-index lookup (`value.get("k")`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.get(key),
            _ => None,
        }
    }

    /// True when `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(self, &mut out);
        f.write_str(&out)
    }
}

/// A parse or serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset the parser stopped at (0 for serialization errors).
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}
impl std::error::Error for Error {}

/// Parse a JSON document from text.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Serialize compactly.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(value, &mut out);
    Ok(out)
}

/// Serialize with two-space indentation.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(value, &mut out, 0);
    Ok(out)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u16::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("invalid number"));
        }
        // Leading zero may not be followed by digits.
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("leading zero"));
            }
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digits required after '.'"));
            }
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
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Number::from_f64(f)
            .map(Value::Number)
            .ok_or_else(|| self.err("non-finite number"))
    }
}

/// Build a [`Value`] inline (subset of the real `json!` macro: literals,
/// arrays, objects with string-literal keys, and expression values that
/// convert with `Value::from`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:tt),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" 42 ").unwrap().as_i64(), Some(42));
        assert_eq!(from_str("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(from_str("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(from_str("1e300").unwrap().as_f64(), Some(1e300));
        assert_eq!(
            from_str("9223372036854775807").unwrap().as_i64(),
            Some(i64::MAX)
        );
        assert_eq!(
            from_str("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(from_str(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
        assert_eq!(from_str(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(from_str(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn parses_nested() {
        let v = from_str(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert!(arr[1].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{not json",
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"unterminated",
            "1 2",
            "nan",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str(&deep).is_err());
        let ok = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn roundtrips_through_display() {
        let text = r#"{"a":[1,2.5,"x\"y"],"b":{"c":true,"d":null}}"#;
        let v = from_str(text).unwrap();
        let rendered = v.to_string();
        assert_eq!(from_str(&rendered).unwrap(), v);
        assert_eq!(rendered, text);
    }

    #[test]
    fn pretty_parses_back() {
        let v = from_str(r#"{"a":[1,2],"b":{}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn json_macro_builds_values() {
        let v = json!({"k": [1, null, {"n": 2.5}]});
        assert_eq!(v.to_string(), r#"{"k":[1,null,{"n":2.5}]}"#);
    }
}

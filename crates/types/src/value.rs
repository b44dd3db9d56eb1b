//! The heterogeneous [`Value`] type of the instance layer.
//!
//! The paper's instance layer must hold "both structured and unstructured"
//! data (§3.1): numbers, strings, timestamps, raw bytes (standing in for
//! image/audio payloads), and nested JSON documents. Values are totally
//! ordered and hashable so they can serve as keys in every layer above.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::TypeError;

/// The discriminant of a [`Value`], used for schema inference and coercion
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// Absence of a value. The paper extends Codd's "systematic treatment of
    /// nulls" rule: nulls are first-class and interact with the
    /// incompleteness semantics in `scdb-uncertain`.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (totally ordered via `f64::total_cmp`).
    Float,
    /// UTF-8 string (shared, cheap to clone).
    Str,
    /// Raw bytes — a stand-in for unstructured payloads (images, audio).
    Bytes,
    /// Milliseconds since the Unix epoch.
    Timestamp,
    /// A nested document (array/object), the semi-structured case.
    Doc,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "str",
            ValueKind::Bytes => "bytes",
            ValueKind::Timestamp => "timestamp",
            ValueKind::Doc => "doc",
        };
        f.write_str(s)
    }
}

/// A nested semi-structured document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Doc {
    /// Ordered list of values.
    Array(Vec<Value>),
    /// Key/value object with deterministic (sorted) key order.
    Object(Vec<(String, Value)>),
}

impl Doc {
    /// Number of immediate children.
    pub fn len(&self) -> usize {
        match self {
            Doc::Array(v) => v.len(),
            Doc::Object(v) => v.len(),
        }
    }

    /// True when the document has no immediate children.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A heterogeneous value in the instance layer.
///
/// `Value` implements a *total* order across kinds (kind-major, then within
/// kind), which makes it usable as a sort/index key even for mixed-type
/// columns — a direct consequence of the paper's rejection of column
/// homogeneity ("the Boyce-Codd normal forms to some extent already
/// penalize any column heterogeneity", §1).
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Shared string.
    Str(Arc<str>),
    /// Raw bytes.
    Bytes(Arc<[u8]>),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
    /// Nested document.
    Doc(Arc<Doc>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a bytes value.
    pub fn bytes(b: impl AsRef<[u8]>) -> Self {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// The kind discriminant.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::Bytes(_) => ValueKind::Bytes,
            Value::Timestamp(_) => ValueKind::Timestamp,
            Value::Doc(_) => ValueKind::Doc,
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as an integer if possible (floats with zero fraction
    /// coerce).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Interpret as a float if possible (ints coerce losslessly enough for
    /// our statistics paths).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow the string content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A best-effort textual rendering used by entity resolution and
    /// display paths. Numbers render canonically; bytes render as a length
    /// tag; documents render as compact JSON-ish text.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Bool(b) => Cow::Owned(b.to_string()),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format!("{f}")),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Bytes(b) => Cow::Owned(format!("<{} bytes>", b.len())),
            Value::Timestamp(t) => Cow::Owned(format!("@{t}")),
            Value::Doc(d) => Cow::Owned(format!("{}", DocDisplay(d))),
        }
    }

    /// Coerce this value to `target`, failing with [`TypeError::Coercion`]
    /// when the conversion would lose meaning.
    pub fn coerce(&self, target: ValueKind) -> Result<Value, TypeError> {
        if self.kind() == target {
            return Ok(self.clone());
        }
        let out = match (self, target) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Int(i), ValueKind::Float) => Some(Value::Float(*i as f64)),
            (Value::Int(i), ValueKind::Str) => Some(Value::str(i.to_string())),
            (Value::Int(i), ValueKind::Bool) => Some(Value::Bool(*i != 0)),
            (Value::Int(i), ValueKind::Timestamp) => Some(Value::Timestamp(*i)),
            (Value::Float(f), ValueKind::Int) if f.fract() == 0.0 && f.is_finite() => {
                Some(Value::Int(*f as i64))
            }
            (Value::Float(f), ValueKind::Str) => Some(Value::str(format!("{f}"))),
            (Value::Bool(b), ValueKind::Int) => Some(Value::Int(i64::from(*b))),
            (Value::Bool(b), ValueKind::Str) => Some(Value::str(b.to_string())),
            (Value::Str(s), ValueKind::Int) => s.trim().parse::<i64>().ok().map(Value::Int),
            (Value::Str(s), ValueKind::Float) => s.trim().parse::<f64>().ok().map(Value::Float),
            (Value::Str(s), ValueKind::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "yes" | "1" => Some(Value::Bool(true)),
                "false" | "no" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            (Value::Timestamp(t), ValueKind::Int) => Some(Value::Int(*t)),
            (v, ValueKind::Str) => Some(Value::str(v.render())),
            _ => None,
        };
        out.ok_or(TypeError::Coercion {
            from: self.kind(),
            to: target,
        })
    }

    /// Numeric absolute difference when both sides are numeric, used by
    /// fuzzy "closeness" predicates (§4.2: a dosage "close to 5.0 mg").
    pub fn numeric_distance(&self, other: &Value) -> Option<f64> {
        Some((self.as_float()? - other.as_float()?).abs())
    }

    /// An approximate deep size in bytes, used by storage accounting and
    /// the placement simulator's memory-footprint metric (OS.4).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::Bytes(b) => b.len() + 8,
            Value::Doc(d) => {
                8 + match d.as_ref() {
                    Doc::Array(v) => v.iter().map(Value::approx_size).sum::<usize>(),
                    Doc::Object(v) => v
                        .iter()
                        .map(|(k, val)| k.len() + val.approx_size())
                        .sum::<usize>(),
                }
            }
        }
    }
}

struct DocDisplay<'a>(&'a Doc);

impl fmt::Display for DocDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Doc::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str(&v.render())?;
                }
                f.write_str("]")
            }
            Doc::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{k}:{}", v.render())?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            // Ints and floats compare numerically with each other so that a
            // heterogeneous numeric column sorts sensibly.
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Doc(a), Doc(b)) => doc_cmp(a, b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

fn doc_cmp(a: &Doc, b: &Doc) -> Ordering {
    match (a, b) {
        (Doc::Array(x), Doc::Array(y)) => {
            for (vx, vy) in x.iter().zip(y.iter()) {
                let o = vx.cmp(vy);
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        (Doc::Object(x), Doc::Object(y)) => {
            for ((kx, vx), (ky, vy)) in x.iter().zip(y.iter()) {
                let o = kx.cmp(ky).then_with(|| vx.cmp(vy));
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        (Doc::Array(_), Doc::Object(_)) => Ordering::Less,
        (Doc::Object(_), Doc::Array(_)) => Ordering::Greater,
    }
}

impl Value {
    /// Kind-major rank for cross-kind ordering. Int and Float share a rank
    /// because they compare numerically.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Timestamp(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::Doc(_) => 6,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // Keep Int/Float hashing consistent with the numeric Eq above:
            // integral floats hash as their integer value.
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    1u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Timestamp(t) => t.hash(state),
            Value::Doc(d) => hash_doc(d, state),
        }
    }
}

fn hash_doc<H: Hasher>(d: &Doc, state: &mut H) {
    match d {
        Doc::Array(v) => {
            0u8.hash(state);
            v.len().hash(state);
            for item in v {
                item.hash(state);
            }
        }
        Doc::Object(v) => {
            1u8.hash(state);
            v.len().hash(state);
            for (k, item) in v {
                k.hash(state);
                item.hash(state);
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(7),
            Value::Float(2.5),
            Value::str("x"),
            Value::bytes([1u8, 2]),
            Value::Timestamp(123),
            Value::Doc(Arc::new(Doc::Array(vec![Value::Int(1)]))),
        ];
        let kinds: Vec<_> = vals.iter().map(Value::kind).collect();
        assert_eq!(
            kinds,
            vec![
                ValueKind::Null,
                ValueKind::Bool,
                ValueKind::Int,
                ValueKind::Float,
                ValueKind::Str,
                ValueKind::Bytes,
                ValueKind::Timestamp,
                ValueKind::Doc,
            ]
        );
    }

    #[test]
    fn numeric_cross_kind_ordering() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(3.0) > Value::Int(2));
    }

    #[test]
    fn cross_kind_rank_ordering_is_total() {
        let mut vals = [
            Value::str("a"),
            Value::Null,
            Value::Int(1),
            Value::Bool(false),
            Value::Timestamp(5),
            Value::bytes([0u8]),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Timestamp(5));
        assert_eq!(vals[4], Value::str("a"));
    }

    #[test]
    fn int_float_eq_hash_consistent() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(4), Value::Float(4.0));
        assert_eq!(h(&Value::Int(4)), h(&Value::Float(4.0)));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::str("42").coerce(ValueKind::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(1).coerce(ValueKind::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Float(2.0).coerce(ValueKind::Int).unwrap(),
            Value::Int(2)
        );
        assert!(Value::Float(2.5).coerce(ValueKind::Int).is_err());
        assert!(Value::str("abc").coerce(ValueKind::Int).is_err());
        // Everything coerces to Str.
        assert_eq!(
            Value::Timestamp(9).coerce(ValueKind::Str).unwrap(),
            Value::str("@9")
        );
    }

    #[test]
    fn null_coerces_to_anything() {
        for k in [ValueKind::Int, ValueKind::Str, ValueKind::Doc] {
            assert_eq!(Value::Null.coerce(k).unwrap(), Value::Null);
        }
    }

    #[test]
    fn numeric_distance() {
        assert_eq!(
            Value::Float(5.1).numeric_distance(&Value::Float(5.0)),
            Some(0.09999999999999964)
        );
        assert_eq!(Value::Int(3).numeric_distance(&Value::Int(7)), Some(4.0));
        assert_eq!(Value::str("x").numeric_distance(&Value::Int(7)), None);
    }

    #[test]
    fn approx_size_monotone_in_content() {
        assert!(Value::str("longer string").approx_size() > Value::str("s").approx_size());
        let doc = Value::Doc(Arc::new(Doc::Object(vec![(
            "k".to_string(),
            Value::Int(1),
        )])));
        assert!(doc.approx_size() > Value::Int(1).approx_size());
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(-3).render(), "-3");
        assert_eq!(Value::bytes([1, 2, 3]).render(), "<3 bytes>");
        let doc = Value::Doc(Arc::new(Doc::Object(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::str("x")),
        ])));
        assert_eq!(doc.render(), "{a:1,b:x}");
    }
}

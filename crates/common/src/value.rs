//! Typed runtime values.
//!
//! The engine supports three scalar types (64-bit integers, 64-bit floats and
//! strings) plus NULL. Histograms operate on a numeric axis, so every value
//! can be projected onto `f64` via [`Value::to_axis`]; strings use an
//! order-preserving prefix encoding (the "mapping function" the JITS paper
//! mentions for categorical data, enabling interpolation inside histogram
//! buckets).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{JitsError, Result};

/// The type of a column or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (categorical / character data).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STRING"),
        }
    }
}

/// A runtime scalar value.
///
/// `Str` uses `Arc<str>` so cloning values during execution is cheap.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer literal or column value.
    Int(i64),
    /// Float literal or column value.
    Float(f64),
    /// String literal or column value.
    Str(Arc<str>),
}

/// A [`Value`] borrowed in place: what a column slot holds, read without
/// an `Arc` bump. Encoders take it so a stored cell and an owned `Value`
/// share one byte layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(&'a str),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True if the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, coercing Int to Float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value (no coercion from Float).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Projects the value onto the histogram axis.
    ///
    /// * numbers map to themselves (ints exactly up to 2^53),
    /// * strings map through [`lex_code`], which preserves order on the
    ///   first eight bytes — sufficient for bucket placement and
    ///   interpolation over categorical domains,
    /// * NULL has no axis position.
    pub fn to_axis(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => Some(lex_code(s)),
        }
    }

    /// Total-order comparison used by indexes and sort operators.
    ///
    /// NULL sorts first; cross-type numeric comparisons coerce to f64;
    /// comparing a number with a string is a type error surfaced as `None`
    /// by [`Value::try_cmp`] — this infallible variant orders by type tag
    /// instead so collections stay totally ordered.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        self.try_cmp(other).unwrap_or_else(|| {
            fn rank(v: &Value) -> u8 {
                match v {
                    Value::Null => 0,
                    Value::Int(_) | Value::Float(_) => 1,
                    Value::Str(_) => 2,
                }
            }
            rank(self).cmp(&rank(other))
        })
    }

    /// Comparison between compatible values; `None` when types are
    /// incomparable (number vs string).
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (Value::Null, _) => Some(Ordering::Less),
            (_, Value::Null) => Some(Ordering::Greater),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            #[expect(
                clippy::disallowed_methods,
                reason = "SQL semantics: NaN compares with nothing, so `None` is the answer"
            )]
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality respecting SQL semantics for the engine's predicate
    /// evaluation: NULL equals nothing (including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.try_cmp(other) == Some(Ordering::Equal)
    }

    /// Coerces the value to `dtype`, used when loading literals into typed
    /// columns.
    pub fn coerce(self, dtype: DataType) -> Result<Value> {
        match (self, dtype) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), DataType::Int) => Ok(v),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (v @ Value::Float(_), DataType::Float) => Ok(v),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Ok(Value::Int(f as i64)),
            (v @ Value::Str(_), DataType::Str) => Ok(v),
            (v, t) => Err(JitsError::TypeMismatch(format!("cannot coerce {v} to {t}"))),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.try_cmp(other) == Some(Ordering::Equal),
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Int and Float hash consistently with the numeric equality above:
        // integral floats hash as the integer they equal.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 2f64.powi(62) {
                    1u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// Order-preserving numeric encoding of a string.
///
/// The first eight bytes are packed big-endian into a `u64` and converted to
/// `f64`. Ordering is preserved for strings that differ within their first
/// ~6–7 bytes (f64 has a 53-bit mantissa), which is ample for the categorical
/// domains histograms care about (makes, models, cities, countries).
pub fn lex_code(s: &str) -> f64 {
    let mut buf = [0u8; 8];
    let bytes = s.as_bytes();
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(5), Value::Float(5.0));
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Float(5.0)));
        assert_ne!(Value::Int(5), Value::Float(5.5));
    }

    #[test]
    fn null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Int(1).sql_eq(&Value::Null));
        assert_eq!(Value::Null, Value::Null); // engine-level (hashing) equality
        assert!(Value::Null.is_null());
    }

    #[test]
    fn try_cmp_rejects_mixed_string_number() {
        assert_eq!(Value::Int(1).try_cmp(&Value::str("a")), None);
        // but total order is still defined
        assert_eq!(Value::Int(1).cmp_total(&Value::str("a")), Ordering::Less);
    }

    #[test]
    fn coerce_rules() {
        assert_eq!(
            Value::Int(3).coerce(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.0).coerce(DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert!(Value::Float(3.5).coerce(DataType::Int).is_err());
        assert!(Value::str("x").coerce(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn axis_projection() {
        assert_eq!(Value::Int(10).to_axis(), Some(10.0));
        assert_eq!(Value::Null.to_axis(), None);
        assert!(Value::str("Toyota").to_axis().unwrap() > 0.0);
    }

    #[test]
    fn lex_code_orders_common_strings() {
        let names = ["Audi", "BMW", "Camry", "Corolla", "Honda", "Toyota"];
        for w in names.windows(2) {
            assert!(lex_code(w[0]) < lex_code(w[1]), "{} < {}", w[0], w[1]);
        }
    }

    proptest! {
        #[test]
        fn lex_code_preserves_order_on_short_strings(
            a in "[A-Za-z]{0,6}",
            b in "[A-Za-z]{0,6}",
        ) {
            // Within 6 ASCII bytes the 53-bit mantissa is exact, so the
            // encoding must agree with lexicographic order exactly.
            let (ca, cb) = (lex_code(&a), lex_code(&b));
            match a.cmp(&b) {
                Ordering::Less => prop_assert!(ca <= cb),
                Ordering::Greater => prop_assert!(ca >= cb),
                Ordering::Equal => prop_assert_eq!(ca, cb),
            }
        }

        #[test]
        fn cmp_total_is_antisymmetric(x in -1000i64..1000, y in -1000i64..1000) {
            let (a, b) = (Value::Int(x), Value::Int(y));
            prop_assert_eq!(a.cmp_total(&b), b.cmp_total(&a).reverse());
        }

        #[test]
        fn eq_implies_same_hash(x in -100i64..100) {
            let a = Value::Int(x);
            let b = Value::Float(x as f64);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }
}

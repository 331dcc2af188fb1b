//! Value intervals — the normalized form of local predicates.
//!
//! Every local predicate the engine supports (`=`, `<`, `<=`, `>`, `>=`,
//! `BETWEEN`) normalizes to a per-column [`Interval`]. Intervals are what
//! sampling evaluates against rows and what histograms convert to numeric
//! regions, so the whole statistics pipeline speaks one language.

use crate::value::Value;
use std::fmt;

/// One end of an interval.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// Unbounded on this side.
    Unbounded,
    /// Bounded, including the endpoint.
    Inclusive(Value),
    /// Bounded, excluding the endpoint.
    Exclusive(Value),
}

impl Bound {
    /// The endpoint value, if bounded.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Inclusive(v) | Bound::Exclusive(v) => Some(v),
        }
    }
}

/// A one-dimensional constraint `low <=/< x <=/< high`.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub low: Bound,
    /// Upper bound.
    pub high: Bound,
}

impl Interval {
    /// The unconstrained interval `(-inf, +inf)`.
    pub fn unbounded() -> Self {
        Interval {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    /// The point interval `x = v`.
    pub fn point(v: Value) -> Self {
        Interval {
            low: Bound::Inclusive(v.clone()),
            high: Bound::Inclusive(v),
        }
    }

    /// `x >= v` (inclusive) or `x > v`.
    pub fn at_least(v: Value, inclusive: bool) -> Self {
        Interval {
            low: if inclusive {
                Bound::Inclusive(v)
            } else {
                Bound::Exclusive(v)
            },
            high: Bound::Unbounded,
        }
    }

    /// `x <= v` (inclusive) or `x < v`.
    pub fn at_most(v: Value, inclusive: bool) -> Self {
        Interval {
            low: Bound::Unbounded,
            high: if inclusive {
                Bound::Inclusive(v)
            } else {
                Bound::Exclusive(v)
            },
        }
    }

    /// `low <= x <= high` (SQL BETWEEN).
    pub fn between(low: Value, high: Value) -> Self {
        Interval {
            low: Bound::Inclusive(low),
            high: Bound::Inclusive(high),
        }
    }

    /// True if this is a single-point (equality) interval.
    pub fn is_point(&self) -> bool {
        match (&self.low, &self.high) {
            (Bound::Inclusive(a), Bound::Inclusive(b)) => a == b,
            _ => false,
        }
    }

    /// Whether `v` satisfies the constraint. NULL never matches.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        let low_ok = match &self.low {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => matches!(
                v.try_cmp(b),
                Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
            ),
            Bound::Exclusive(b) => matches!(v.try_cmp(b), Some(std::cmp::Ordering::Greater)),
        };
        if !low_ok {
            return false;
        }
        match &self.high {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => matches!(
                v.try_cmp(b),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
            ),
            Bound::Exclusive(b) => matches!(v.try_cmp(b), Some(std::cmp::Ordering::Less)),
        }
    }

    /// Intersects with another interval on the same column (conjunction of
    /// two predicates); returns the tighter combined interval.
    pub fn intersect(&self, other: &Interval) -> Interval {
        /// The tighter of two bounds on one side: `a` when it compares
        /// `keep_a` against `b`; on equal endpoints an exclusive `a`.
        fn tighter(a: &Bound, b: &Bound, keep_a: std::cmp::Ordering) -> Bound {
            match (a.value(), b.value()) {
                (None, _) => b.clone(),
                (_, None) => a.clone(),
                (Some(va), Some(vb)) => match va.try_cmp(vb) {
                    Some(o) if o == keep_a => a.clone(),
                    Some(std::cmp::Ordering::Equal) | None if matches!(a, Bound::Exclusive(_)) => {
                        a.clone()
                    }
                    _ => b.clone(),
                },
            }
        }
        Interval {
            low: tighter(&self.low, &other.low, std::cmp::Ordering::Greater),
            high: tighter(&self.high, &other.high, std::cmp::Ordering::Less),
        }
    }

    /// Converts the interval to a half-open numeric range on the histogram
    /// axis. Point and inclusive bounds are widened by `eps` so the range
    /// has positive measure; the histogram layer treats `[lo, hi)` buckets.
    pub fn to_axis_range(&self, eps: f64) -> (f64, f64) {
        let lo = match &self.low {
            Bound::Unbounded => f64::NEG_INFINITY,
            Bound::Inclusive(v) => v.to_axis().unwrap_or(f64::NEG_INFINITY),
            Bound::Exclusive(v) => v.to_axis().unwrap_or(f64::NEG_INFINITY) + eps,
        };
        let hi = match &self.high {
            Bound::Unbounded => f64::INFINITY,
            Bound::Inclusive(v) => v.to_axis().unwrap_or(f64::INFINITY) + eps,
            Bound::Exclusive(v) => v.to_axis().unwrap_or(f64::INFINITY),
        };
        (lo, hi)
    }

    /// Type-aware variant of [`Interval::to_axis_range`]: the widening
    /// epsilon is chosen per bound so the half-open range has positive width
    /// at the bound's magnitude.
    ///
    /// * `Int` — 1 (so `x <= 5` covers exactly the integers up to 5),
    /// * `Str` — a few ulps of the lexicographic code (string codes are
    ///   huge, so a constant epsilon would vanish in rounding),
    /// * `Float` — a relative sliver.
    pub fn to_axis_range_typed(&self, dtype: crate::value::DataType) -> (f64, f64) {
        let eps_at = |x: f64| axis_eps(dtype, x);
        let lo = match &self.low {
            Bound::Unbounded => f64::NEG_INFINITY,
            Bound::Inclusive(v) => v.to_axis().unwrap_or(f64::NEG_INFINITY),
            Bound::Exclusive(v) => {
                let x = v.to_axis().unwrap_or(f64::NEG_INFINITY);
                x + eps_at(x)
            }
        };
        let hi = match &self.high {
            Bound::Unbounded => f64::INFINITY,
            Bound::Inclusive(v) => {
                let x = v.to_axis().unwrap_or(f64::INFINITY);
                x + eps_at(x)
            }
            Bound::Exclusive(v) => v.to_axis().unwrap_or(f64::INFINITY),
        };
        (lo, hi)
    }
}

/// The axis-widening epsilon for a value of type `dtype` at magnitude `at`.
pub fn axis_eps(dtype: crate::value::DataType, at: f64) -> f64 {
    match dtype {
        crate::value::DataType::Int => 1.0,
        // String codes sit near 2^60; widen by a handful of ulps so the
        // range survives f64 rounding without swallowing neighbors that
        // differ within their first ~6 bytes.
        crate::value::DataType::Str => (at.abs() * f64::EPSILON * 4.0).max(1.0),
        crate::value::DataType::Float => (at.abs() * 1e-9).max(1e-12),
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.low {
            Bound::Unbounded => write!(f, "(-inf")?,
            Bound::Inclusive(v) => write!(f, "[{v}")?,
            Bound::Exclusive(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.high {
            Bound::Unbounded => write!(f, "+inf)"),
            Bound::Inclusive(v) => write!(f, "{v}]"),
            Bound::Exclusive(v) => write!(f, "{v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_contains_only_itself() {
        let i = Interval::point(Value::Int(5));
        assert!(i.is_point());
        assert!(i.contains(&Value::Int(5)));
        assert!(!i.contains(&Value::Int(6)));
        assert!(!i.contains(&Value::Null));
    }

    #[test]
    fn open_and_closed_bounds() {
        let gt = Interval::at_least(Value::Int(10), false);
        assert!(!gt.contains(&Value::Int(10)));
        assert!(gt.contains(&Value::Int(11)));
        let ge = Interval::at_least(Value::Int(10), true);
        assert!(ge.contains(&Value::Int(10)));
        let lt = Interval::at_most(Value::Int(10), false);
        assert!(lt.contains(&Value::Int(9)));
        assert!(!lt.contains(&Value::Int(10)));
    }

    #[test]
    fn between_is_inclusive() {
        let b = Interval::between(Value::Int(1), Value::Int(3));
        assert!(b.contains(&Value::Int(1)));
        assert!(b.contains(&Value::Int(3)));
        assert!(!b.contains(&Value::Int(0)));
        assert!(!b.contains(&Value::Int(4)));
    }

    #[test]
    fn string_intervals() {
        let i = Interval::point(Value::str("Toyota"));
        assert!(i.contains(&Value::str("Toyota")));
        assert!(!i.contains(&Value::str("Honda")));
    }

    #[test]
    fn intersection_tightens() {
        let a = Interval::at_least(Value::Int(5), true);
        let b = Interval::at_most(Value::Int(10), true);
        let c = a.intersect(&b);
        assert!(c.contains(&Value::Int(5)));
        assert!(c.contains(&Value::Int(10)));
        assert!(!c.contains(&Value::Int(4)));
        assert!(!c.contains(&Value::Int(11)));

        // overlapping lows: tighter one wins
        let d = Interval::at_least(Value::Int(7), false).intersect(&a);
        assert!(!d.contains(&Value::Int(7)));
        assert!(d.contains(&Value::Int(8)));
    }

    #[test]
    fn axis_range_orients_correctly() {
        let (lo, hi) = Interval::between(Value::Int(2), Value::Int(4)).to_axis_range(0.5);
        assert_eq!(lo, 2.0);
        assert_eq!(hi, 4.5);
        let (lo, hi) = Interval::at_least(Value::Int(3), false).to_axis_range(0.5);
        assert_eq!(lo, 3.5);
        assert_eq!(hi, f64::INFINITY);
    }

    proptest! {
        #[test]
        fn intersect_agrees_with_conjunction(
            a in -50i64..50, b in -50i64..50, x in -60i64..60
        ) {
            let i1 = Interval::at_least(Value::Int(a), true);
            let i2 = Interval::at_most(Value::Int(b), true);
            let both = i1.intersect(&i2);
            let v = Value::Int(x);
            prop_assert_eq!(
                both.contains(&v),
                i1.contains(&v) && i2.contains(&v)
            );
        }

        #[test]
        fn intersect_is_commutative(
            a in -50i64..50, b in -50i64..50, x in -60i64..60
        ) {
            let i1 = Interval::between(Value::Int(a.min(b)), Value::Int(a.max(b)));
            let i2 = Interval::at_least(Value::Int(b), false);
            let v = Value::Int(x);
            prop_assert_eq!(
                i1.intersect(&i2).contains(&v),
                i2.intersect(&i1).contains(&v)
            );
        }
    }
}

#[cfg(test)]
mod typed_axis_tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn integer_bounds_widen_by_one() {
        let iv = Interval::at_most(Value::Int(5), true);
        let (lo, hi) = iv.to_axis_range_typed(DataType::Int);
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, 6.0, "x <= 5 covers the integers up to 5");
        let iv = Interval::at_least(Value::Int(5), false);
        let (lo, _) = iv.to_axis_range_typed(DataType::Int);
        assert_eq!(lo, 6.0, "x > 5 starts at 6 for integers");
    }

    #[test]
    fn string_point_has_positive_width() {
        let iv = Interval::point(Value::str("Toyota"));
        let (lo, hi) = iv.to_axis_range_typed(DataType::Str);
        assert!(hi > lo, "string point must survive f64 rounding");
        // and the width is small relative to typical inter-string gaps
        let other = Value::str("Toyotb").to_axis().unwrap();
        assert!(hi < other, "epsilon must not swallow a neighbor");
    }

    #[test]
    fn float_point_has_positive_width() {
        let iv = Interval::point(Value::Float(1234.5));
        let (lo, hi) = iv.to_axis_range_typed(DataType::Float);
        assert!(hi > lo);
        assert!(hi - lo < 0.001);
    }

    #[test]
    fn axis_eps_scales_with_magnitude() {
        assert_eq!(axis_eps(DataType::Int, 1e18), 1.0);
        assert!(axis_eps(DataType::Str, 6e18) >= 1.0);
        // at string-code magnitudes the epsilon must exceed one ulp
        let at = 6e18f64;
        let ulp = at.to_bits();
        let next = f64::from_bits(ulp + 1) - at;
        assert!(axis_eps(DataType::Str, at) > next);
    }
}

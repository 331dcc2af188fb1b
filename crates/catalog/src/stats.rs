//! General (catalog) statistics for tables and columns.

use jits_common::{Bound, DataType, Interval, Value};
use jits_histogram::EquiDepth;

/// Table-level general statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live row count at collection time.
    pub row_count: f64,
    /// Logical clock when collected.
    pub collected_at: u64,
}

/// Column-level general statistics: the classic RUNSTATS set.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// The column's type (drives axis-epsilon choices for range estimates).
    pub dtype: DataType,
    /// Minimum non-NULL value.
    pub min: Option<Value>,
    /// Maximum non-NULL value.
    pub max: Option<Value>,
    /// Estimated number of distinct non-NULL values.
    pub distinct: f64,
    /// Number of NULLs.
    pub null_count: f64,
    /// Rows the statistics describe.
    pub row_count: f64,
    /// Most frequent values with their counts (descending by count).
    pub mcv: Vec<(Value, f64)>,
    /// Equi-depth distribution histogram over the axis projection.
    pub histogram: EquiDepth,
    /// Logical clock when collected.
    pub collected_at: u64,
}

impl ColumnStats {
    /// The axis epsilon for half-open range conversion: 1 for integer
    /// domains (so `x <= 5` becomes `[.., 6)`), 1 for the string axis (lex
    /// codes of distinct strings differ by far more), and a relative sliver
    /// for floats.
    pub fn axis_eps(&self) -> f64 {
        match self.dtype {
            DataType::Int => 1.0,
            DataType::Str => 1.0,
            DataType::Float => {
                let span = self
                    .histogram
                    .boundaries()
                    .last()
                    .zip(self.histogram.boundaries().first())
                    .map(|(hi, lo)| hi - lo)
                    .unwrap_or(1.0);
                (span.abs() * 1e-9).max(f64::MIN_POSITIVE)
            }
        }
    }

    /// Estimates the selectivity (fraction of rows) of `interval` on this
    /// column using general statistics only.
    ///
    /// Point predicates consult the MCV list first and fall back to the
    /// histogram's per-bucket distinct spread; range predicates interpolate
    /// in the equi-depth histogram. Returns `None` when the statistics
    /// cannot answer (empty histogram).
    pub fn selectivity(&self, interval: &Interval) -> Option<f64> {
        if self.row_count <= 0.0 {
            return Some(0.0);
        }
        if let (true, Bound::Inclusive(v)) = (interval.is_point(), &interval.low) {
            // exact answer from the MCV list when present
            for (mv, count) in &self.mcv {
                if mv == v {
                    return Some((count / self.row_count).clamp(0.0, 1.0));
                }
            }
            // otherwise: the value is one of the non-MCV distinct values
            let mcv_mass: f64 = self.mcv.iter().map(|(_, c)| c).sum();
            let rest_rows = (self.row_count - self.null_count - mcv_mass).max(0.0);
            let rest_distinct = (self.distinct - self.mcv.len() as f64).max(1.0);
            if !self.mcv.is_empty() {
                return Some((rest_rows / rest_distinct / self.row_count).clamp(0.0, 1.0));
            }
            let axis = v.to_axis()?;
            return self.histogram.estimate_eq(axis);
        }
        let (lo, hi) = interval.to_axis_range(self.axis_eps());
        self.histogram.estimate_range(lo, hi)
    }

    /// The paper's accuracy metric of this column's histogram with respect
    /// to a predicate interval: worst endpoint accuracy.
    pub fn accuracy(&self, interval: &Interval) -> f64 {
        let mut acc = 1.0f64;
        let mut constrained = false;
        for b in [&interval.low, &interval.high] {
            if let Some(v) = b.value() {
                if let Some(axis) = v.to_axis() {
                    acc = acc.min(self.histogram.accuracy(axis));
                    constrained = true;
                }
            }
        }
        if constrained {
            acc
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_uniform_int() -> ColumnStats {
        let values: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        ColumnStats {
            dtype: DataType::Int,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(99)),
            distinct: 100.0,
            null_count: 0.0,
            row_count: 1000.0,
            mcv: vec![],
            histogram: EquiDepth::build(values, 10),
            collected_at: 0,
        }
    }

    #[test]
    fn range_selectivity_uniform() {
        let s = stats_uniform_int();
        // x < 50: half the domain
        let sel = s
            .selectivity(&Interval::at_most(Value::Int(49), true))
            .unwrap();
        assert!((sel - 0.5).abs() < 0.03, "sel {sel}");
        // x >= 90
        let sel = s
            .selectivity(&Interval::at_least(Value::Int(90), true))
            .unwrap();
        assert!((sel - 0.1).abs() < 0.03, "sel {sel}");
    }

    #[test]
    fn point_selectivity_without_mcv_uses_histogram() {
        let s = stats_uniform_int();
        let sel = s.selectivity(&Interval::point(Value::Int(42))).unwrap();
        assert!((sel - 0.01).abs() < 0.005, "sel {sel}");
    }

    #[test]
    fn mcv_answers_exactly() {
        let mut s = stats_uniform_int();
        s.mcv = vec![(Value::Int(7), 500.0), (Value::Int(9), 100.0)];
        let sel = s.selectivity(&Interval::point(Value::Int(7))).unwrap();
        assert!((sel - 0.5).abs() < 1e-9);
        // non-MCV point: remaining mass over remaining distincts
        let sel = s.selectivity(&Interval::point(Value::Int(3))).unwrap();
        let expected = (1000.0 - 600.0) / 98.0 / 1000.0;
        assert!(
            (sel - expected).abs() < 1e-9,
            "sel {sel} expected {expected}"
        );
    }

    #[test]
    fn integer_inclusive_upper_bound_is_covered() {
        let s = stats_uniform_int();
        // x BETWEEN 0 AND 99 covers everything for an integer domain
        let sel = s
            .selectivity(&Interval::between(Value::Int(0), Value::Int(99)))
            .unwrap();
        assert!((sel - 1.0).abs() < 0.01, "sel {sel}");
    }

    #[test]
    fn empty_column_zero_rows() {
        let s = ColumnStats {
            dtype: DataType::Int,
            min: None,
            max: None,
            distinct: 0.0,
            null_count: 0.0,
            row_count: 0.0,
            mcv: vec![],
            histogram: EquiDepth::build(vec![], 10),
            collected_at: 0,
        };
        assert_eq!(s.selectivity(&Interval::point(Value::Int(1))), Some(0.0));
    }

    #[test]
    fn accuracy_of_unconstrained_interval_is_one() {
        let s = stats_uniform_int();
        assert_eq!(s.accuracy(&Interval::unbounded()), 1.0);
        let a = s.accuracy(&Interval::point(Value::Int(55)));
        assert!((0.0..=1.0).contains(&a));
    }
}

//! Columnar frames — dense typed gathers of one column at a list of rows.
//!
//! Where the executor reads values *out* of a table (projections, ORDER
//! BY, aggregates, join keys that are not a single `Int`), it gathers
//! each column it needs once into contiguous typed buffers (`Vec<i64>` /
//! `Vec<f64>` / `Vec<Arc<str>>` plus a validity bitmap) through
//! [`Table::gather_column`]; the per-column axis min/max is folded into
//! the same pass. A [`SampleFrame`] gathers several columns at one list
//! of rows. Predicates do not read frames: scans, DML and statistics
//! collection evaluate them on the column store in place
//! (`executor/src/locate.rs`).
//!
//! The gather is a pure projection: `frame.column(c)` holds exactly the
//! values `table.value(rows[i], c)` would return, in row-list order.

use crate::row::RowId;
use crate::table::Table;
use jits_common::{ColumnId, DataType, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The typed payload of one gathered column (slot order = sample order).
#[derive(Debug, Clone)]
pub enum FrameValues {
    /// Integer column payload.
    Int(Vec<i64>),
    /// Float column payload.
    Float(Vec<f64>),
    /// String column payload.
    Str(Vec<Arc<str>>),
}

/// One gathered column: typed values, validity, and the axis min/max of the
/// non-NULL entries (same axis projection as [`Table::axis_value`]:
/// numbers map to themselves, strings through `lex_code`).
#[derive(Debug, Clone)]
pub struct FrameColumn {
    /// Typed payload; NULL slots hold the type's default.
    pub values: FrameValues,
    /// Per-slot validity (false = NULL).
    pub validity: Vec<bool>,
    /// Minimum axis value over non-NULL slots (`f64::INFINITY` if none).
    pub axis_min: f64,
    /// Maximum axis value over non-NULL slots (`f64::NEG_INFINITY` if none).
    pub axis_max: f64,
    /// Number of non-NULL slots.
    pub non_null: usize,
}

impl FrameColumn {
    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match &self.values {
            FrameValues::Int(_) => DataType::Int,
            FrameValues::Float(_) => DataType::Float,
            FrameValues::Str(_) => DataType::Str,
        }
    }

    /// Number of gathered slots.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Materializes slot `i` as a [`Value`] — the fallback for predicate
    /// kinds without a typed fast path. Identical to what
    /// [`Table::value`] returns for the source row.
    pub fn value(&self, i: usize) -> Value {
        if !self.validity[i] {
            return Value::Null;
        }
        match &self.values {
            FrameValues::Int(v) => Value::Int(v[i]),
            FrameValues::Float(v) => Value::Float(v[i]),
            FrameValues::Str(v) => Value::Str(Arc::clone(&v[i])),
        }
    }
}

/// A columnar gather of selected columns over a sample of rows.
#[derive(Debug, Clone)]
pub struct SampleFrame {
    len: usize,
    columns: BTreeMap<ColumnId, FrameColumn>,
}

impl SampleFrame {
    /// Gathers `cols` of `table` at `rows` (duplicated column ids are
    /// gathered once).
    pub fn gather(table: &Table, rows: &[RowId], cols: &[ColumnId]) -> SampleFrame {
        let mut columns = BTreeMap::new();
        for &cid in cols {
            columns
                .entry(cid)
                .or_insert_with(|| table.gather_column(cid, rows));
        }
        SampleFrame {
            len: rows.len(),
            columns,
        }
    }

    /// Number of sampled rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The gathered column, if `cid` was in the gather list.
    pub fn column(&self, cid: ColumnId) -> Option<&FrameColumn> {
        self.columns.get(&cid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::Schema;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("price", DataType::Float),
        ]);
        let mut t = Table::new("car", schema);
        for (id, make, price) in [
            (1i64, Some("Toyota"), 10.5f64),
            (2, Some("Honda"), 8.25),
            (3, None, 12.0),
            (4, Some("Audi"), 30.0),
        ] {
            let m = match make {
                Some(s) => Value::str(s),
                None => Value::Null,
            };
            t.insert(vec![Value::Int(id), m, Value::Float(price)])
                .unwrap();
        }
        t
    }

    #[test]
    fn gather_matches_table_values() {
        let t = table();
        let rows: Vec<RowId> = vec![3, 0, 2];
        let cols = [ColumnId(0), ColumnId(1), ColumnId(2)];
        let frame = SampleFrame::gather(&t, &rows, &cols);
        assert_eq!(frame.len(), 3);
        for &cid in &cols {
            let fc = frame.column(cid).unwrap();
            assert_eq!(fc.len(), 3);
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(fc.value(i), t.value(r, cid), "col {cid} slot {i}");
            }
        }
    }

    #[test]
    fn axis_minmax_folded_into_gather() {
        let t = table();
        let rows: Vec<RowId> = vec![0, 1, 2, 3];
        let frame = SampleFrame::gather(&t, &rows, &[ColumnId(0), ColumnId(1), ColumnId(2)]);
        let ids = frame.column(ColumnId(0)).unwrap();
        assert_eq!((ids.axis_min, ids.axis_max), (1.0, 4.0));
        assert_eq!(ids.non_null, 4);
        let price = frame.column(ColumnId(2)).unwrap();
        assert_eq!((price.axis_min, price.axis_max), (8.25, 30.0));
        // strings go through the same lex_code axis as Table::axis_value,
        // and the NULL at row 2 is skipped
        let make = frame.column(ColumnId(1)).unwrap();
        assert_eq!(make.non_null, 3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in [0u32, 1, 3] {
            let a = t.axis_value(r, ColumnId(1)).unwrap();
            lo = lo.min(a);
            hi = hi.max(a);
        }
        assert_eq!((make.axis_min, make.axis_max), (lo, hi));
    }

    #[test]
    fn empty_gather_has_sentinel_minmax() {
        let t = table();
        let frame = SampleFrame::gather(&t, &[], &[ColumnId(0)]);
        assert!(frame.is_empty());
        let fc = frame.column(ColumnId(0)).unwrap();
        assert!(fc.is_empty());
        assert_eq!(fc.axis_min, f64::INFINITY);
        assert_eq!(fc.axis_max, f64::NEG_INFINITY);
        assert_eq!(fc.non_null, 0);
    }
}

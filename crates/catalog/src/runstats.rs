//! RUNSTATS: full-scan collection of general statistics.
//!
//! Mirrors the DB2 utility the paper's prototype invokes: scans a table once
//! and produces [`TableStats`] plus a [`ColumnStats`] per column (min/max,
//! distinct count, null count, most-frequent values, equi-depth histogram).

use crate::stats::{ColumnStats, TableStats};
use jits_common::hash::FastMap;
use jits_common::{ColumnId, Value};
use jits_storage::Table;

/// Knobs for RUNSTATS collection.
#[derive(Debug, Clone, Copy)]
pub struct RunstatsOptions {
    /// Buckets per equi-depth histogram.
    pub histogram_buckets: usize,
    /// Entries in each most-frequent-values list.
    pub mcv_entries: usize,
}

impl Default for RunstatsOptions {
    fn default() -> Self {
        RunstatsOptions {
            histogram_buckets: 20,
            mcv_entries: 10,
        }
    }
}

/// Scans `table` and produces general statistics stamped with `clock`.
pub fn runstats(
    table: &Table,
    opts: RunstatsOptions,
    clock: u64,
) -> (TableStats, Vec<ColumnStats>) {
    let n_cols = table.schema().len();
    let mut axis_values: Vec<Vec<f64>> = vec![Vec::with_capacity(table.row_count()); n_cols];
    let mut freq: Vec<FastMap<Value, f64>> = vec![FastMap::default(); n_cols];
    let mut nulls = vec![0f64; n_cols];
    let mut mins: Vec<Option<Value>> = vec![None; n_cols];
    let mut maxs: Vec<Option<Value>> = vec![None; n_cols];

    for row in table.scan() {
        for c in 0..n_cols {
            let cid = ColumnId(c as u32);
            let v = table.value(row, cid);
            if v.is_null() {
                nulls[c] += 1.0;
                continue;
            }
            if let Some(axis) = v.to_axis() {
                axis_values[c].push(axis);
            }
            match &mins[c] {
                None => mins[c] = Some(v.clone()),
                Some(m) if v.cmp_total(m) == std::cmp::Ordering::Less => mins[c] = Some(v.clone()),
                _ => {}
            }
            match &maxs[c] {
                None => maxs[c] = Some(v.clone()),
                Some(m) if v.cmp_total(m) == std::cmp::Ordering::Greater => {
                    maxs[c] = Some(v.clone())
                }
                _ => {}
            }
            *freq[c].entry(v).or_insert(0.0) += 1.0;
        }
    }

    let row_count = table.row_count() as f64;
    let table_stats = TableStats {
        row_count,
        collected_at: clock,
    };
    let column_stats = (0..n_cols)
        .map(|c| {
            // `Value` has no `Ord` impl, so a BTreeMap is unavailable here; the
            // sort on the next line imposes a total order (count desc, then
            // `cmp_total`), which erases the hash order.
            let mut mcv: Vec<(Value, f64)> = freq[c].iter().map(|(v, n)| (v.clone(), *n)).collect();
            mcv.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp_total(&b.0)));
            let distinct = mcv.len() as f64;
            mcv.truncate(opts.mcv_entries);
            // drop MCV entries that are no more frequent than the average --
            // they carry no skew information
            let avg = if distinct > 0.0 {
                (row_count - nulls[c]) / distinct
            } else {
                0.0
            };
            mcv.retain(|(_, n)| *n > avg * 1.5);
            ColumnStats {
                dtype: table.schema().columns()[c].dtype,
                min: mins[c].clone(),
                max: maxs[c].clone(),
                distinct,
                null_count: nulls[c],
                row_count,
                mcv,
                histogram: jits_histogram::EquiDepth::build(
                    std::mem::take(&mut axis_values[c]),
                    opts.histogram_buckets,
                ),
                collected_at: clock,
            }
        })
        .collect();
    (table_stats, column_stats)
}

/// Simulated work units a RUNSTATS invocation costs: one full scan of every
/// cell. Used by the engine to account compile-time statistics work in the
/// same currency as execution work.
pub fn runstats_cost(table: &Table) -> u64 {
    (table.row_count() * table.schema().len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::{DataType, Schema};

    fn cars(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let mut t = Table::new("car", schema);
        let makes = ["Toyota", "Toyota", "Toyota", "Honda", "Audi"];
        for i in 0..n {
            t.insert(vec![
                Value::Int(i as i64),
                Value::str(makes[i % makes.len()]),
                Value::Int(1990 + (i % 17) as i64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn basic_table_and_column_stats() {
        let t = cars(1000);
        let (ts, cs) = runstats(&t, RunstatsOptions::default(), 5);
        assert_eq!(ts.row_count, 1000.0);
        assert_eq!(ts.collected_at, 5);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].distinct, 1000.0);
        assert_eq!(cs[1].distinct, 3.0);
        assert_eq!(cs[2].distinct, 17.0);
        assert_eq!(cs[1].min, Some(Value::str("Audi")));
        assert_eq!(cs[1].max, Some(Value::str("Toyota")));
    }

    #[test]
    fn mcv_captures_skew() {
        let t = cars(1000);
        let (_, cs) = runstats(&t, RunstatsOptions::default(), 0);
        // Toyota is 60% of rows: must appear in MCV with its true count
        let toyota = cs[1]
            .mcv
            .iter()
            .find(|(v, _)| *v == Value::str("Toyota"))
            .expect("Toyota must be an MCV");
        assert_eq!(toyota.1, 600.0);
        // uniform id column should produce no (informative) MCVs
        assert!(cs[0].mcv.is_empty());
    }

    #[test]
    fn nulls_counted() {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..10 {
            let v = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            t.insert(vec![v]).unwrap();
        }
        let (_, cs) = runstats(&t, RunstatsOptions::default(), 0);
        assert_eq!(cs[0].null_count, 5.0);
        assert_eq!(cs[0].distinct, 5.0);
    }

    #[test]
    fn stats_reflect_only_live_rows() {
        let mut t = cars(100);
        for r in 0..50 {
            t.delete(r);
        }
        let (ts, cs) = runstats(&t, RunstatsOptions::default(), 0);
        assert_eq!(ts.row_count, 50.0);
        assert_eq!(cs[0].row_count, 50.0);
    }

    #[test]
    fn cost_scales_with_cells() {
        let t = cars(100);
        assert_eq!(runstats_cost(&t), 300);
    }
}

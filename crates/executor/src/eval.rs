//! Evaluation helpers of the executor: the result type, quantifier and
//! table lookup, cell-by-cell predicate checks, scan bookkeeping, and the
//! aggregate accumulator shared by the plain and grouped aggregations.

use crate::locate::zone_constraints;
use crate::monitor::{ExecStats, NodeKind, NodeObservation, ScanObservation};
use jits_common::{ColumnId, Interval, JitsError, Result, Value};
use jits_optimizer::ScanGroupEstimate;
use jits_query::ast::AggFunc;
use jits_query::{LocalPredicate, QueryBlock};
use jits_storage::{Row, RowId, Table};

/// The result of executing a SELECT block.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Projected result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution statistics (work + observations).
    pub stats: ExecStats,
}

/// Index of `qun` within a covered-quantifier list; a typed error (not a
/// panic) when a malformed plan references an uncovered quantifier.
pub(crate) fn position_in(quns: &[usize], qun: usize) -> Result<usize> {
    quns.iter().position(|q| *q == qun).ok_or_else(|| {
        JitsError::Execution(format!("quantifier q{qun} is not covered by the batch"))
    })
}

pub(crate) fn table_of<'a>(
    tables: &'a [Table],
    block: &QueryBlock,
    qun: usize,
) -> Result<&'a Table> {
    let tid = block.quns[qun].table;
    tables
        .get(tid.index())
        .ok_or_else(|| JitsError::Execution(format!("table {tid} missing from execution context")))
}

/// Whether a row satisfies all the given local predicates.
pub(crate) fn matches_preds(
    table: &Table,
    row: RowId,
    block: &QueryBlock,
    pred_indices: &[usize],
) -> bool {
    pred_indices.iter().all(|&i| {
        let p = &block.local_predicates[i];
        p.matches(&table.value(row, p.column))
    })
}

/// The local predicates a scan applies, in `pred_indices` order.
pub(crate) fn scan_preds<'a>(
    block: &'a QueryBlock,
    pred_indices: &'a [usize],
) -> impl Iterator<Item = &'a LocalPredicate> + Clone {
    pred_indices.iter().map(|&i| &block.local_predicates[i])
}

/// The merged index-driving interval for `column` among the scan's
/// predicates.
pub(crate) fn index_interval(
    block: &QueryBlock,
    pred_indices: &[usize],
    column: ColumnId,
) -> Result<Interval> {
    zone_constraints(scan_preds(block, pred_indices).filter(|p| p.column == column))
        .pop()
        .map(|(_, interval)| interval)
        .ok_or_else(|| {
            JitsError::Execution(format!("index scan on {column} has no interval predicate"))
        })
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn record_scan(
    stats: &mut ExecStats,
    scan: &ScanGroupEstimate,
    kind: NodeKind,
    est_rows: f64,
    actual: usize,
    table: &Table,
    work: f64,
    wall_nanos: u64,
) {
    stats.nodes.push(NodeObservation {
        kind,
        est_rows,
        actual_rows: actual as f64,
        work,
    });
    stats.node_walls.push(wall_nanos);
    if !scan.pred_indices.is_empty() {
        stats.scans.push(ScanObservation {
            qun: scan.qun,
            table: scan.table,
            pred_indices: scan.pred_indices.clone(),
            est_selectivity: scan.selectivity,
            statlist: scan.statlist.clone(),
            source: scan.source,
            actual_rows: actual as f64,
            table_rows: table.row_count() as f64,
        });
    }
}

/// A streaming accumulator for one aggregate.
///
/// Integer inputs additionally accumulate in a checked `i64` so pure-integer
/// `SUM` stays exact past 2^53 (the `f64` mirror still drives `AVG` and the
/// float/overflow fallbacks).
#[derive(Debug, Clone)]
pub(crate) struct AggAcc {
    count: i64,
    sum: f64,
    int_sum: i64,
    int_exact: bool,
    any_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAcc {
    pub(crate) fn new() -> Self {
        AggAcc {
            count: 0,
            sum: 0.0,
            int_sum: 0,
            int_exact: true,
            any_float: false,
            min: None,
            max: None,
        }
    }

    pub(crate) fn push(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.any_float |= matches!(v, Value::Float(_));
            self.sum += x;
        }
        if let Value::Int(i) = v {
            match self.int_sum.checked_add(i) {
                Some(s) => self.int_sum = s,
                None => self.int_exact = false,
            }
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| v.cmp_total(m) == std::cmp::Ordering::Less)
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| v.cmp_total(m) == std::cmp::Ordering::Greater)
        {
            self.max = Some(v);
        }
    }

    pub(crate) fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    // SQL: the sum of no values is NULL, not 0
                    Value::Null
                } else if self.any_float {
                    Value::Float(self.sum)
                } else if self.int_exact {
                    Value::Int(self.int_sum)
                } else {
                    // pure-int input overflowed i64: degrade to the float
                    // mirror rather than wrapping
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Feeds one input value to an accumulator, surfacing the typed error the
/// executor reports for `SUM`/`AVG` over non-numeric input.
pub(crate) fn accumulate(acc: &mut AggAcc, func: AggFunc, col: ColumnId, v: Value) -> Result<()> {
    if matches!(func, AggFunc::Sum | AggFunc::Avg) && !v.is_null() && v.as_f64().is_none() {
        return Err(JitsError::Execution(format!(
            "{func}({col}) over non-numeric value"
        )));
    }
    acc.push(v);
    Ok(())
}

/// Emits one row per group in first-seen order.
pub(crate) fn finish_groups(
    items: &[jits_query::qgm::GroupItem],
    order: Vec<Vec<Value>>,
    accs: Vec<(Vec<AggAcc>, i64)>,
) -> Vec<Row> {
    use jits_query::qgm::GroupItem;
    order
        .into_iter()
        .zip(accs)
        .map(|(key, (group_accs, star))| {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| match item {
                    GroupItem::Key(k) => key[*k].clone(),
                    GroupItem::Agg(a) => match a.col {
                        None => Value::Int(star),
                        Some(_) => group_accs[i].finish(a.func),
                    },
                })
                .collect()
        })
        .collect()
}

//! Plan evaluation.

use crate::locate::zone_constraints;
use crate::monitor::{ExecStats, NodeKind, NodeObservation, ScanObservation};
use jits_common::hash::FastMap;
use jits_common::{ColumnId, Interval, JitsError, Result, Value};
use jits_optimizer::{CostModel, PhysicalPlan, ScanGroupEstimate};
use jits_query::ast::AggFunc;
use jits_query::{LocalPredicate, Projection, QueryBlock};
use jits_storage::{Row, RowId, Table};

/// The result of executing a SELECT block.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Projected result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution statistics (work + observations).
    pub stats: ExecStats,
}

/// Which of the two executors evaluates the plan.
///
/// Both produce bit-identical results, work charges, and observations; the
/// batch executor replaces per-row `Value` materialization with columnar
/// gathers and selection vectors (see [`crate::batch`]). The engine always
/// runs the batch executor; the row executor is the reference the
/// differential test suites compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Row-at-a-time volcano evaluation over row-id tuples. Pruned scans
    /// read every block, so it also checks that skipping is sound.
    Row,
    /// Vectorized evaluation over gathered columns and selection vectors.
    Batch,
}

/// A batch of intermediate tuples: `quns[i]` names the quantifier whose row
/// id sits at position `i` of every tuple.
struct Batch {
    quns: Vec<usize>,
    tuples: Vec<Vec<RowId>>,
}

impl Batch {
    fn position_of(&self, qun: usize) -> Result<usize> {
        position_in(&self.quns, qun)
    }
}

/// Index of `qun` within a covered-quantifier list; a typed error (not a
/// panic) when a malformed plan references an uncovered quantifier.
pub(crate) fn position_in(quns: &[usize], qun: usize) -> Result<usize> {
    quns.iter().position(|q| *q == qun).ok_or_else(|| {
        JitsError::Execution(format!("quantifier q{qun} is not covered by the batch"))
    })
}

/// Executes a physical plan for `block` against `tables` (indexed by
/// `TableId`) on the default (batch) executor.
pub fn execute(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
) -> Result<ExecOutput> {
    execute_with(ExecutorKind::Batch, plan, block, tables, cost)
}

/// Executes a physical plan on the chosen executor. The two executors are
/// differential-tested bit-identical (rows, `ExecStats.work`, node and scan
/// observations); `kind` only selects the evaluation strategy.
pub fn execute_with(
    kind: ExecutorKind,
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
) -> Result<ExecOutput> {
    match kind {
        ExecutorKind::Row => execute_row(plan, block, tables, cost),
        ExecutorKind::Batch => crate::batch::execute_batch(plan, block, tables, cost),
    }
}

fn execute_row(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
) -> Result<ExecOutput> {
    let mut stats = ExecStats::default();
    let mut batch = run(plan, block, tables, cost, &mut stats)?;
    if let Some((qun, col, desc)) = block.order_by {
        let pos = batch.position_of(qun)?;
        let table = table_of(tables, block, qun)?;
        let n = batch.tuples.len() as f64;
        batch.tuples.sort_by(|a, b| {
            let va = table.value(a[pos], col);
            let vb = table.value(b[pos], col);
            let ord = va.cmp_total(&vb);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        stats.work += cost.sort(n);
    }
    let aggregating = matches!(
        block.projection,
        Projection::CountStar | Projection::Aggregates(_) | Projection::GroupBy { .. }
    );
    if let Some(limit) = block.limit {
        if !aggregating {
            // for plain projections LIMIT can truncate the input tuples;
            // aggregations consume every tuple and limit their output rows
            batch.tuples.truncate(limit);
        }
    }
    let mut rows = project(&batch, block, tables)?;
    if let Some(limit) = block.limit {
        rows.truncate(limit);
    }
    stats.work += rows.len() as f64 * cost.output_row;
    Ok(ExecOutput { rows, stats })
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

fn run(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
    stats: &mut ExecStats,
) -> Result<Batch> {
    // inclusive wall per node (children recurse within the arm, so a join's
    // wall covers its inputs); volatile — never part of the bit-compared
    // observation stream
    let t_node = jits_obs::clock::now_nanos();
    match plan {
        PhysicalPlan::SeqScan { scan, est } => {
            let table = table_of(tables, block, scan.qun)?;
            let mut tuples = Vec::new();
            for row in table.scan() {
                if matches_preds(table, row, block, &scan.pred_indices) {
                    tuples.push(vec![row]);
                }
            }
            let work = cost.seq_scan(table.row_count() as f64, tuples.len() as f64);
            stats.work += work;
            record_scan(
                stats,
                scan,
                NodeKind::SeqScan,
                est.rows,
                tuples.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(Batch {
                quns: vec![scan.qun],
                tuples,
            })
        }
        PhysicalPlan::PrunedScan { scan, est, .. } => {
            debug_assert!(
                jits_optimizer::EST_BLOCK_ROWS == jits_storage::BLOCK_SIZE as f64,
                "optimizer block-size assumption diverged from storage"
            );
            let table = table_of(tables, block, scan.qun)?;
            // the reference reads every block: pruning is sound (pruned
            // blocks hold no matching rows) exactly when this full scan
            // yields the batch executor's rows, and charging work from the
            // skip list keeps the stats identical
            let constraints = zone_constraints(scan_preds(block, &scan.pred_indices));
            let skip = table.skip_list(&constraints);
            let mut tuples = Vec::new();
            for row in table.scan() {
                if matches_preds(table, row, block, &scan.pred_indices) {
                    tuples.push(vec![row]);
                }
            }
            let work = cost.pruned_scan(
                skip.blocks_total as f64,
                skip.surviving_rows as f64,
                tuples.len() as f64,
            );
            stats.work += work;
            stats.blocks_total += skip.blocks_total as u64;
            stats.blocks_pruned += skip.blocks_pruned() as u64;
            record_scan(
                stats,
                scan,
                NodeKind::PrunedScan,
                est.rows,
                tuples.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(Batch {
                quns: vec![scan.qun],
                tuples,
            })
        }
        PhysicalPlan::IndexScan {
            scan,
            index_column,
            est,
            ..
        } => {
            let table = table_of(tables, block, scan.qun)?;
            let index = table.index(*index_column).ok_or_else(|| {
                JitsError::Execution(format!(
                    "plan expects an index on {index_column} of '{}'",
                    table.name()
                ))
            })?;
            let interval = index_interval(block, &scan.pred_indices, *index_column)?;
            // equality probes route to the hash twin when one exists; its
            // per-key row vectors are maintained in the same order as the
            // B-tree's, so the candidate stream is identical either way
            let point_key = if interval.is_point() {
                interval.low.value()
            } else {
                None
            };
            let candidates: Vec<RowId> = match (point_key, table.hash_index(*index_column)) {
                (Some(v), Some(hash)) => hash.lookup_eq(v).to_vec(),
                _ => index.lookup_range(&interval),
            };
            let fetched = candidates.len() as f64;
            let mut tuples = Vec::new();
            for row in candidates {
                if table.is_live(row) && matches_preds(table, row, block, &scan.pred_indices) {
                    tuples.push(vec![row]);
                }
            }
            let work = cost.index_scan(fetched, tuples.len() as f64);
            stats.work += work;
            record_scan(
                stats,
                scan,
                NodeKind::IndexScan,
                est.rows,
                tuples.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(Batch {
                quns: vec![scan.qun],
                tuples,
            })
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            keys,
            est,
        } => {
            let build_batch = run(build, block, tables, cost, stats)?;
            let probe_batch = run(probe, block, tables, cost, stats)?;
            if keys.is_empty() {
                return Err(JitsError::Execution("hash join without keys".into()));
            }
            // hash the build side
            let mut ht: FastMap<Vec<Value>, Vec<usize>> = FastMap::default();
            let build_positions: Vec<(usize, ColumnId)> = keys
                .iter()
                .map(|((bq, bc), _)| Ok((build_batch.position_of(*bq)?, *bc)))
                .collect::<Result<_>>()?;
            let build_tables: Vec<&Table> = keys
                .iter()
                .map(|((bq, _), _)| table_of(tables, block, *bq))
                .collect::<Result<_>>()?;
            for (ti, tuple) in build_batch.tuples.iter().enumerate() {
                let key: Vec<Value> = build_positions
                    .iter()
                    .zip(&build_tables)
                    .map(|((pos, col), t)| t.value(tuple[*pos], *col))
                    .collect();
                if key.iter().any(Value::is_null) {
                    continue; // NULL keys never join
                }
                ht.entry(key).or_default().push(ti);
            }
            // probe
            let probe_positions: Vec<(usize, ColumnId)> = keys
                .iter()
                .map(|(_, (pq, pc))| Ok((probe_batch.position_of(*pq)?, *pc)))
                .collect::<Result<_>>()?;
            let probe_tables: Vec<&Table> = keys
                .iter()
                .map(|(_, (pq, _))| table_of(tables, block, *pq))
                .collect::<Result<_>>()?;
            let mut tuples = Vec::new();
            for probe_tuple in &probe_batch.tuples {
                let key: Vec<Value> = probe_positions
                    .iter()
                    .zip(&probe_tables)
                    .map(|((pos, col), t)| t.value(probe_tuple[*pos], *col))
                    .collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = ht.get(&key) {
                    for &bi in matches {
                        let mut combined = build_batch.tuples[bi].clone();
                        combined.extend_from_slice(probe_tuple);
                        tuples.push(combined);
                    }
                }
            }
            let work = cost.hash_join(
                build_batch.tuples.len() as f64,
                probe_batch.tuples.len() as f64,
                tuples.len() as f64,
            );
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::HashJoin,
                est_rows: est.rows,
                actual_rows: tuples.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = build_batch.quns;
            quns.extend(probe_batch.quns);
            Ok(Batch { quns, tuples })
        }
        PhysicalPlan::IndexNLJoin {
            outer,
            inner,
            index_column,
            keys,
            est,
        } => {
            let outer_batch = run(outer, block, tables, cost, stats)?;
            let inner_table = table_of(tables, block, inner.qun)?;
            let index = inner_table.index(*index_column).ok_or_else(|| {
                JitsError::Execution(format!(
                    "plan expects an index on {index_column} of '{}'",
                    inner_table.name()
                ))
            })?;
            let Some(&((drive_oq, drive_oc), _)) = keys.first() else {
                return Err(JitsError::Execution(
                    "index nested-loop join without keys".into(),
                ));
            };
            let drive_pos = outer_batch.position_of(drive_oq)?;
            let drive_table = table_of(tables, block, drive_oq)?;
            // equality probes prefer the hash twin (same per-key row order
            // as the B-tree, so the candidate stream is identical)
            let hash = inner_table.hash_index(*index_column);
            // residual keys beyond the driving one; positions and tables are
            // loop-invariant, so resolve them once before probing
            let residual: Vec<(usize, ColumnId, &Table, ColumnId)> = keys[1..]
                .iter()
                .map(|((oq, oc), (_, ic))| {
                    Ok((
                        outer_batch.position_of(*oq)?,
                        *oc,
                        table_of(tables, block, *oq)?,
                        *ic,
                    ))
                })
                .collect::<Result<_>>()?;
            let mut tuples = Vec::new();
            let mut fetched_total = 0f64;
            for outer_tuple in &outer_batch.tuples {
                let key = drive_table.value(outer_tuple[drive_pos], drive_oc);
                if key.is_null() {
                    continue;
                }
                let candidates = match hash {
                    Some(h) => h.lookup_eq(&key),
                    None => index.lookup_eq(&key),
                };
                fetched_total += candidates.len() as f64;
                'cand: for &irow in candidates {
                    if !inner_table.is_live(irow)
                        || !matches_preds(inner_table, irow, block, &inner.pred_indices)
                    {
                        continue;
                    }
                    for (opos, oc, ot, ic) in &residual {
                        let ov = ot.value(outer_tuple[*opos], *oc);
                        let iv = inner_table.value(irow, *ic);
                        if !ov.sql_eq(&iv) {
                            continue 'cand;
                        }
                    }
                    let mut combined = outer_tuple.clone();
                    combined.push(irow);
                    tuples.push(combined);
                }
            }
            let per_probe = if outer_batch.tuples.is_empty() {
                0.0
            } else {
                fetched_total / outer_batch.tuples.len() as f64
            };
            let work = cost.index_nl_join(
                outer_batch.tuples.len() as f64,
                per_probe,
                tuples.len() as f64,
            );
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::IndexNLJoin,
                est_rows: est.rows,
                actual_rows: tuples.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = outer_batch.quns;
            quns.push(inner.qun);
            Ok(Batch { quns, tuples })
        }
        PhysicalPlan::NLJoin {
            outer,
            inner,
            keys,
            est,
        } => {
            let outer_batch = run(outer, block, tables, cost, stats)?;
            let inner_batch = run(inner, block, tables, cost, stats)?;
            let key_positions: Vec<((usize, ColumnId), (usize, ColumnId))> = keys
                .iter()
                .map(|((oq, oc), (iq, ic))| {
                    Ok((
                        (outer_batch.position_of(*oq)?, *oc),
                        (inner_batch.position_of(*iq)?, *ic),
                    ))
                })
                .collect::<Result<_>>()?;
            let outer_key_tables: Vec<&Table> = keys
                .iter()
                .map(|((oq, _), _)| table_of(tables, block, *oq))
                .collect::<Result<_>>()?;
            let inner_key_tables: Vec<&Table> = keys
                .iter()
                .map(|(_, (iq, _))| table_of(tables, block, *iq))
                .collect::<Result<_>>()?;
            let mut tuples = Vec::new();
            for ot in &outer_batch.tuples {
                'inner: for it in &inner_batch.tuples {
                    for (ki, ((opos, oc), (ipos, ic))) in key_positions.iter().enumerate() {
                        let ov = outer_key_tables[ki].value(ot[*opos], *oc);
                        let iv = inner_key_tables[ki].value(it[*ipos], *ic);
                        if !ov.sql_eq(&iv) {
                            continue 'inner;
                        }
                    }
                    let mut combined = ot.clone();
                    combined.extend_from_slice(it);
                    tuples.push(combined);
                }
            }
            let work = cost.nl_join(
                outer_batch.tuples.len() as f64,
                inner_batch.tuples.len() as f64,
                tuples.len() as f64,
            );
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::NLJoin,
                est_rows: est.rows,
                actual_rows: tuples.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = outer_batch.quns;
            quns.extend(inner_batch.quns);
            Ok(Batch { quns, tuples })
        }
    }
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
                if self.any_float {
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
/// executor reports for `SUM`/`AVG` over non-numeric input. Shared by the
/// row and batch aggregate paths so they cannot diverge.
pub(crate) fn accumulate(acc: &mut AggAcc, func: AggFunc, col: ColumnId, v: Value) -> Result<()> {
    if matches!(func, AggFunc::Sum | AggFunc::Avg) && !v.is_null() && v.as_f64().is_none() {
        return Err(JitsError::Execution(format!(
            "{func}({col}) over non-numeric value"
        )));
    }
    acc.push(v);
    Ok(())
}

/// Hash aggregation: one output row per distinct grouping-key combination,
/// in first-seen order (deterministic given the input order).
fn eval_group_by(
    keys: &[(usize, ColumnId)],
    items: &[jits_query::qgm::GroupItem],
    batch: &Batch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Vec<Row>> {
    use jits_query::qgm::GroupItem;
    let key_pos: Vec<(usize, ColumnId)> = keys
        .iter()
        .map(|(q, c)| Ok((batch.position_of(*q)?, *c)))
        .collect::<Result<_>>()?;
    let key_tables: Vec<&Table> = keys
        .iter()
        .map(|(q, _)| table_of(tables, block, *q))
        .collect::<Result<_>>()?;
    // per-item aggregate inputs (position + column), None for COUNT(*)
    let agg_inputs: Vec<Option<(usize, ColumnId)>> = items
        .iter()
        .map(|it| match it {
            GroupItem::Agg(a) => a
                .col
                .map(|(q, c)| Ok((batch.position_of(q)?, c)))
                .transpose(),
            GroupItem::Key(_) => Ok(None),
        })
        .collect::<Result<_>>()?;
    let agg_tables: Vec<Option<&Table>> = items
        .iter()
        .map(|it| match it {
            GroupItem::Agg(a) => match a.col {
                Some((q, _)) => table_of(tables, block, q).ok(),
                None => None,
            },
            GroupItem::Key(_) => None,
        })
        .collect();

    // `groups` maps key -> group index and is only ever probed (`entry`);
    // output order comes from the first-seen `order`/`accs` vectors, so no
    // hash order is observed
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<(Vec<AggAcc>, i64)> = Vec::new();
    let mut groups: FastMap<Vec<Value>, usize> = FastMap::default();
    for tuple in &batch.tuples {
        let key: Vec<Value> = key_pos
            .iter()
            .zip(&key_tables)
            .map(|((pos, col), t)| t.value(tuple[*pos], *col))
            .collect();
        let n_items = items.len();
        let gi = *groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            accs.push((vec![AggAcc::new(); n_items], 0));
            accs.len() - 1
        });
        let entry = &mut accs[gi];
        entry.1 += 1; // group row count for COUNT(*)
        for (i, item) in items.iter().enumerate() {
            if let GroupItem::Agg(_) = item {
                if let (Some((pos, col)), Some(t)) = (agg_inputs[i], agg_tables[i]) {
                    entry.0[i].push(t.value(tuple[pos], col));
                }
            }
        }
    }
    Ok(finish_groups(items, order, accs))
}

/// Emits one row per group in first-seen order, shared by both executors.
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

/// Evaluates one aggregate over the whole batch (no GROUP BY).
fn eval_aggregate(
    agg: &jits_query::BoundAggregate,
    batch: &Batch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Value> {
    let Some((qun, col)) = agg.col else {
        return Ok(Value::Int(batch.tuples.len() as i64));
    };
    let pos = batch.position_of(qun)?;
    let table = table_of(tables, block, qun)?;
    let mut acc = AggAcc::new();
    for tuple in &batch.tuples {
        accumulate(&mut acc, agg.func, col, table.value(tuple[pos], col))?;
    }
    Ok(acc.finish(agg.func))
}

fn project(batch: &Batch, block: &QueryBlock, tables: &[Table]) -> Result<Vec<Row>> {
    match &block.projection {
        Projection::CountStar => Ok(vec![vec![Value::Int(batch.tuples.len() as i64)]]),
        Projection::Aggregates(aggs) => {
            let row = aggs
                .iter()
                .map(|agg| eval_aggregate(agg, batch, block, tables))
                .collect::<Result<Vec<Value>>>()?;
            Ok(vec![row])
        }
        Projection::GroupBy { keys, items } => eval_group_by(keys, items, batch, block, tables),
        Projection::Wildcard => {
            let mut rows = Vec::with_capacity(batch.tuples.len());
            for tuple in &batch.tuples {
                let mut row = Vec::new();
                for qun in 0..block.quns.len() {
                    let pos = batch.position_of(qun)?;
                    let table = table_of(tables, block, qun)?;
                    for c in 0..table.schema().len() {
                        row.push(table.value(tuple[pos], ColumnId(c as u32)));
                    }
                }
                rows.push(row);
            }
            Ok(rows)
        }
        Projection::Columns(cols) => {
            let mut rows = Vec::with_capacity(batch.tuples.len());
            for tuple in &batch.tuples {
                let row = cols
                    .iter()
                    .map(|(qun, col)| {
                        let pos = batch.position_of(*qun)?;
                        table_of(tables, block, *qun).map(|t| t.value(tuple[pos], *col))
                    })
                    .collect::<Result<Vec<Value>>>()?;
                rows.push(row);
            }
            Ok(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::{runstats, Catalog, RunstatsOptions};
    use jits_common::{DataType, Schema};
    use jits_optimizer::{
        optimize, CardinalityEstimator, CatalogStatisticsProvider, DefaultSelectivities,
    };
    use jits_query::{bind_statement, parse, BoundStatement};

    /// car(1000) with FK ownerid -> owner(100, PK indexed); make correlates
    /// with owner bucket.
    fn setup() -> (Catalog, Vec<Table>) {
        let mut catalog = Catalog::new();
        let car_schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let owner_schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Int),
        ]);
        let car_id = catalog.register_table("car", car_schema.clone()).unwrap();
        let owner_id = catalog
            .register_table("owner", owner_schema.clone())
            .unwrap();

        let mut car = Table::new("car", car_schema);
        for i in 0..1000i64 {
            let make = if i % 5 == 0 { "Toyota" } else { "Honda" };
            car.insert(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::str(make),
                Value::Int(1990 + i % 17),
            ])
            .unwrap();
        }
        let mut owner = Table::new("owner", owner_schema);
        for i in 0..100i64 {
            owner
                .insert(vec![
                    Value::Int(i),
                    Value::str(format!("owner{i}")),
                    Value::Int(i * 1000),
                ])
                .unwrap();
        }
        owner.create_index(ColumnId(0)).unwrap();
        catalog.add_index(owner_id, ColumnId(0)).unwrap();
        car.create_index(ColumnId(0)).unwrap();
        catalog.add_index(car_id, ColumnId(0)).unwrap();

        let (ts, cs) = runstats(&car, RunstatsOptions::default(), 1);
        catalog.set_stats(car_id, ts, cs).unwrap();
        let (ts, cs) = runstats(&owner, RunstatsOptions::default(), 1);
        catalog.set_stats(owner_id, ts, cs).unwrap();
        (catalog, vec![car, owner])
    }

    fn run_sql(catalog: &Catalog, tables: &[Table], sql: &str) -> ExecOutput {
        let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
        else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let cost = CostModel::default();
        let plan = optimize(&block, &est, &cost, catalog).unwrap();
        execute(&plan, &block, tables, &cost).unwrap()
    }

    #[test]
    fn filter_scan_returns_matching_rows() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert_eq!(out.rows.len(), 200);
        assert!(out.stats.work > 0.0);
        // observation recorded with correct actual selectivity
        let scan = &out.stats.scans[0];
        assert_eq!(scan.actual_rows, 200.0);
        assert!((scan.actual_selectivity() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn count_star() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT COUNT(*) FROM car WHERE year > 2000",
        );
        assert_eq!(out.rows.len(), 1);
        let Value::Int(n) = out.rows[0][0] else {
            panic!()
        };
        // years 2001..=2006 -> 6 of 17 buckets
        let expected: i64 = (0..1000).filter(|i| 1990 + i % 17 > 2000).count() as i64;
        assert_eq!(n, expected);
    }

    #[test]
    fn join_results_match_naive_evaluation() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT c.id, o.name FROM car c, owner o \
             WHERE c.ownerid = o.id AND make = 'Toyota' AND salary >= 50000",
        );
        // naive: Toyota cars are ids 0,5,10,...,995; ownerid = id % 100;
        // salary >= 50000 -> owner id >= 50
        let expected = (0..1000i64)
            .filter(|i| i % 5 == 0 && (i % 100) >= 50)
            .count();
        assert_eq!(out.rows.len(), expected);
        // join observation recorded
        assert!(out
            .stats
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::HashJoin | NodeKind::IndexNLJoin)));
    }

    #[test]
    fn projection_wildcard_has_all_columns() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND c.id = 7",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].len(), 4 + 3);
        assert_eq!(out.rows[0][0], Value::Int(7));
        assert_eq!(out.rows[0][4], Value::Int(7)); // owner.id == ownerid
    }

    #[test]
    fn tombstoned_rows_invisible() {
        let (catalog, mut tables) = setup();
        // delete all Toyotas
        let doomed: Vec<RowId> = tables[0]
            .scan()
            .filter(|r| tables[0].value(*r, ColumnId(2)) == Value::str("Toyota"))
            .collect();
        for r in doomed {
            tables[0].delete(r);
        }
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert!(out.rows.is_empty());
    }

    #[test]
    fn observed_error_factor_reflects_stale_stats() {
        let (catalog, mut tables) = setup();
        // churn the data after stats were collected: make everything Toyota
        let all: Vec<RowId> = tables[0].scan().collect();
        for r in all {
            tables[0]
                .update(r, ColumnId(2), Value::str("Toyota"))
                .unwrap();
        }
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert_eq!(out.rows.len(), 1000);
        let scan = &out.stats.scans[0];
        // estimate said ~0.2, actual is 1.0 -> errorFactor ~0.2
        assert!(scan.error_factor() < 0.3, "ef {}", scan.error_factor());
    }
}

#[cfg(test)]
mod additional_tests {
    use super::*;
    use jits_catalog::{runstats, Catalog, RunstatsOptions};
    use jits_common::{DataType, Schema};
    use jits_optimizer::{
        optimize, CardinalityEstimator, CatalogStatisticsProvider, DefaultSelectivities,
    };
    use jits_query::{bind_statement, parse, BoundStatement};

    fn setup() -> (Catalog, Vec<Table>) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("grp", DataType::Int),
            ("v", DataType::Int),
        ]);
        let tid = catalog.register_table("t", schema.clone()).unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..100i64 {
            // rows 10 and 20 carry NULL join keys
            let grp = if i == 10 || i == 20 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            t.insert(vec![Value::Int(i), grp, Value::Int(i * 2)])
                .unwrap();
        }
        let (ts, cs) = runstats(&t, RunstatsOptions::default(), 1);
        catalog.set_stats(tid, ts, cs).unwrap();

        let other = Schema::from_pairs(&[("grp", DataType::Int), ("name", DataType::Str)]);
        let oid = catalog.register_table("g", other.clone()).unwrap();
        let mut o = Table::new("g", other);
        for i in 0..5i64 {
            o.insert(vec![Value::Int(i), Value::str(format!("g{i}"))])
                .unwrap();
        }
        let (ts, cs) = runstats(&o, RunstatsOptions::default(), 1);
        catalog.set_stats(oid, ts, cs).unwrap();
        (catalog, vec![t, o])
    }

    fn run_sql(catalog: &Catalog, tables: &[Table], sql: &str) -> ExecOutput {
        let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
        else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let cost = CostModel::default();
        let plan = optimize(&block, &est, &cost, catalog).unwrap();
        execute(&plan, &block, tables, &cost).unwrap()
    }

    #[test]
    fn null_join_keys_never_match() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT COUNT(*) FROM t, g WHERE t.grp = g.grp",
        );
        // 98 non-NULL rows each match exactly one group row
        assert_eq!(out.rows[0][0], Value::Int(98));
    }

    #[test]
    fn order_by_after_join() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT t.id FROM t, g WHERE t.grp = g.grp AND t.id < 7 ORDER BY t.v DESC LIMIT 3",
        );
        let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![6, 5, 4]);
    }

    #[test]
    fn work_increases_with_sort() {
        let (catalog, tables) = setup();
        let plain = run_sql(&catalog, &tables, "SELECT id FROM t WHERE v > 10");
        let sorted = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM t WHERE v > 10 ORDER BY id",
        );
        assert!(sorted.stats.work > plain.stats.work);
    }
}

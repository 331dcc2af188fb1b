//! Vectorized batch execution over columnar gathers.
//!
//! The row executor ([`crate::exec`]) materializes intermediate results as
//! vectors of row-id tuples and calls [`Table::value`] once per *row ×
//! predicate/key* probe — a `Value` clone (and, for strings, an `Arc` bump)
//! each time. This module evaluates the same physical plans columnar:
//!
//! * operators carry **selection vectors** — one `Vec<RowId>` per covered
//!   quantifier, struct-of-arrays instead of the row path's array-of-structs
//!   tuple vectors;
//! * scan predicates evaluate as **bitsets**: each predicate ANDs its
//!   verdicts into a `Vec<bool>`, integer intervals over a typed dense
//!   gather of their column ([`FrameColumn`], PR 4's collection-path
//!   layout, reused here against live tables) — the filter is
//!   [`crate::locate`]'s, shared with UPDATE and DELETE;
//! * joins gather their key columns once per side and probe/build over the
//!   dense slices; aggregation accumulates over gathered slices.
//!
//! **Bit-identity contract.** For every plan the batch executor produces the
//! same result rows (values and order), the same `ExecStats.work` (same
//! [`CostModel`] formulas applied to the same counts, in the same order —
//! f64-bit-identical), and the same node/scan observations as the row
//! executor. The argument: `FrameColumn::value(i)` is defined to equal
//! `Table::value(rows[i], c)`, predicates and key comparisons run the same
//! `Value` operations (or a typed integer fast path whose outcome equals
//! `Interval::contains` exactly), hash-join output order is probe-order ×
//! build-insertion-order in both paths, and ORDER BY uses the same stable
//! comparator. The contract is enforced by `tests/batch_executor.rs`.

use crate::exec::{
    accumulate, finish_groups, index_interval, matches_preds, position_in, record_scan, scan_preds,
    table_of, AggAcc, ExecOutput,
};
use crate::locate::{filter_rows, probe_index, surviving_rows, zone_constraints};
use crate::monitor::{ExecStats, NodeKind, NodeObservation};
use jits_common::{ColumnId, JitsError, Result, Value};
use jits_optimizer::{CostModel, PhysicalPlan};
use jits_query::{Projection, QueryBlock};
use jits_storage::{FrameColumn, FrameValues, Row, RowId, Table};

/// A batch in struct-of-arrays form: `sel[i]` is the selection vector of
/// quantifier `quns[i]`, and all selection vectors share length `len`
/// (tuple `t` of the row executor corresponds to `sel[..][t]`).
struct ColumnBatch {
    quns: Vec<usize>,
    sel: Vec<Vec<RowId>>,
    len: usize,
}

impl ColumnBatch {
    fn position_of(&self, qun: usize) -> Result<usize> {
        position_in(&self.quns, qun)
    }

    /// The selection vector of `qun`.
    fn sel_of(&self, qun: usize) -> Result<&[RowId]> {
        let pos = self.position_of(qun)?;
        self.sel.get(pos).map(Vec::as_slice).ok_or_else(|| {
            JitsError::Execution(format!("batch carries no selection vector for qun {qun}"))
        })
    }

    /// Reorders every selection vector by `perm` (ORDER BY).
    fn permute(&mut self, perm: &[usize]) {
        debug_assert!(perm.iter().all(|&i| i < self.len));
        for s in &mut self.sel {
            let reordered: Vec<RowId> = perm.iter().map(|&i| s[i]).collect();
            *s = reordered;
        }
    }

    /// Truncates every selection vector (LIMIT on plain projections).
    fn truncate(&mut self, limit: usize) {
        for s in &mut self.sel {
            s.truncate(limit);
        }
        self.len = self.len.min(limit);
    }
}

/// Executes a physical plan on the batch executor (see module docs for the
/// bit-identity contract with [`crate::exec::execute_with`]'s row path).
pub(crate) fn execute_batch(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
) -> Result<ExecOutput> {
    let mut stats = ExecStats::default();
    let mut batch = run_batch(plan, block, tables, cost, &mut stats)?;
    if let Some((qun, col, desc)) = block.order_by {
        let table = table_of(tables, block, qun)?;
        let fc = table.gather_column(col, batch.sel_of(qun)?);
        let n = batch.len as f64;
        let mut perm: Vec<usize> = (0..batch.len).collect();
        // same stable sort and comparator as the row path, over indices
        perm.sort_by(|&a, &b| {
            let ord = fc.value(a).cmp_total(&fc.value(b));
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        batch.permute(&perm);
        stats.work += cost.sort(n);
    }
    let aggregating = matches!(
        block.projection,
        Projection::CountStar | Projection::Aggregates(_) | Projection::GroupBy { .. }
    );
    if let Some(limit) = block.limit {
        if !aggregating {
            batch.truncate(limit);
        }
    }
    let mut rows = project_batch(&batch, block, tables)?;
    if let Some(limit) = block.limit {
        rows.truncate(limit);
    }
    stats.work += rows.len() as f64 * cost.output_row;
    Ok(ExecOutput { rows, stats })
}

/// Runs one operator (recursively) and, in debug builds, validates the
/// produced batch and the work charged at this operator boundary.
fn run_batch(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
    stats: &mut ExecStats,
) -> Result<ColumnBatch> {
    #[cfg(debug_assertions)]
    let (work_before, nodes_before) = (stats.work, stats.nodes.len());
    let batch = run_operator(plan, block, tables, cost, stats)?;
    #[cfg(debug_assertions)]
    debug_validate_batch(plan, &batch, stats, work_before, nodes_before);
    Ok(batch)
}

/// Debug-build runtime validator for the batch executor's structural
/// invariants at operator boundaries (the static `batch-bounds` lint pass
/// covers indexing; this covers what only execution can see):
///
/// - every covered quantifier carries a selection vector, all of the
///   batch's length, with no quantifier covered twice;
/// - scan output preserves ascending row-id order (the row path's scan
///   order — joins and ORDER BY may reorder, scans must not);
/// - the operator charged exactly one node observation whose kind matches
///   the plan node, with finite non-negative work, and the running work
///   total grew by a finite non-negative amount (charged-work parity with
///   the row path is then enforced per node by `tests/batch_executor.rs`,
///   which compares the `NodeObservation.work` streams bit for bit).
#[cfg(debug_assertions)]
fn debug_validate_batch(
    plan: &PhysicalPlan,
    batch: &ColumnBatch,
    stats: &ExecStats,
    work_before: f64,
    nodes_before: usize,
) {
    assert_eq!(
        batch.quns.len(),
        batch.sel.len(),
        "batch executor: quns/sel arity mismatch"
    );
    for (q, s) in batch.quns.iter().zip(&batch.sel) {
        assert_eq!(
            s.len(),
            batch.len,
            "batch executor: selection vector of qun {q} disagrees with batch length"
        );
    }
    let mut sorted_quns = batch.quns.clone();
    sorted_quns.sort_unstable();
    sorted_quns.dedup();
    assert_eq!(
        sorted_quns.len(),
        batch.quns.len(),
        "batch executor: a quantifier is covered by two selection vectors"
    );
    let expect_kind = match plan {
        PhysicalPlan::SeqScan { .. } => NodeKind::SeqScan,
        PhysicalPlan::PrunedScan { .. } => NodeKind::PrunedScan,
        PhysicalPlan::IndexScan { .. } => NodeKind::IndexScan,
        PhysicalPlan::HashJoin { .. } => NodeKind::HashJoin,
        PhysicalPlan::IndexNLJoin { .. } => NodeKind::IndexNLJoin,
        PhysicalPlan::NLJoin { .. } => NodeKind::NLJoin,
    };
    match plan {
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::PrunedScan { .. } => {
            // table scans emit row ids in ascending order and both the
            // bitset filter and block skipping preserve it
            for (q, s) in batch.quns.iter().zip(&batch.sel) {
                assert!(
                    s.windows(2).all(|w| w[0] < w[1]),
                    "batch executor: scan selection vector of qun {q} is not strictly \
                     increasing"
                );
            }
        }
        PhysicalPlan::IndexScan { .. } => {
            // index ranges come back in key order, not row-id order, but a
            // scan must still never emit the same row twice
            for (q, s) in batch.quns.iter().zip(&batch.sel) {
                let mut seen = s.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(
                    seen.len(),
                    s.len(),
                    "batch executor: index-scan selection vector of qun {q} repeats a row"
                );
            }
        }
        _ => {}
    }
    assert_eq!(
        stats.nodes.len(),
        nodes_before + node_count(plan),
        "batch executor: wrong number of node observations for this subtree"
    );
    assert_eq!(
        stats.node_walls.len(),
        stats.nodes.len(),
        "batch executor: node wall-time stream out of step with observations"
    );
    let Some(node) = stats.nodes.last() else {
        return; // unreachable: node_count(plan) >= 1, checked just above
    };
    assert_eq!(
        node.kind, expect_kind,
        "batch executor: last node observation does not match the operator"
    );
    assert!(
        node.work.is_finite() && node.work >= 0.0,
        "batch executor: operator charged non-finite or negative work ({})",
        node.work
    );
    let delta = stats.work - work_before;
    assert!(
        delta.is_finite() && delta >= 0.0,
        "batch executor: running work total moved by a non-finite or negative amount ({delta})"
    );
}

/// Number of observation-charging plan nodes in a subtree. The inner side
/// of an index nested-loop join is probed through the index, not run as an
/// operator, so it charges nothing of its own.
#[cfg(debug_assertions)]
fn node_count(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::PrunedScan { .. }
        | PhysicalPlan::IndexScan { .. } => 1,
        PhysicalPlan::HashJoin { build, probe, .. } => 1 + node_count(build) + node_count(probe),
        PhysicalPlan::IndexNLJoin { outer, .. } => 1 + node_count(outer),
        PhysicalPlan::NLJoin { outer, inner, .. } => 1 + node_count(outer) + node_count(inner),
    }
}

fn run_operator(
    plan: &PhysicalPlan,
    block: &QueryBlock,
    tables: &[Table],
    cost: &CostModel,
    stats: &mut ExecStats,
) -> Result<ColumnBatch> {
    // inclusive wall per node, mirroring the row path's capture points;
    // volatile and excluded from the bit-identity contract
    let t_node = jits_obs::clock::now_nanos();
    match plan {
        PhysicalPlan::SeqScan { scan, est } => {
            let table = table_of(tables, block, scan.qun)?;
            let rows: Vec<RowId> = table.scan().collect();
            let sel = filter_rows(table, rows, scan_preds(block, &scan.pred_indices));
            let work = cost.seq_scan(table.row_count() as f64, sel.len() as f64);
            stats.work += work;
            record_scan(
                stats,
                scan,
                NodeKind::SeqScan,
                est.rows,
                sel.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(ColumnBatch {
                quns: vec![scan.qun],
                len: sel.len(),
                sel: vec![sel],
            })
        }
        PhysicalPlan::PrunedScan { scan, est, .. } => {
            debug_assert!(
                jits_optimizer::EST_BLOCK_ROWS == jits_storage::BLOCK_SIZE as f64,
                "optimizer block-size assumption diverged from storage"
            );
            let table = table_of(tables, block, scan.qun)?;
            // same skip list, work formula, and row order as the row path,
            // which reads every block — pruning is sound, so the surviving
            // blocks contain every matching row
            let preds = scan_preds(block, &scan.pred_indices);
            let skip = table.skip_list(&zone_constraints(preds.clone()));
            let sel = filter_rows(table, surviving_rows(table, &skip), preds);
            let work = cost.pruned_scan(
                skip.blocks_total as f64,
                skip.surviving_rows as f64,
                sel.len() as f64,
            );
            stats.work += work;
            stats.blocks_total += skip.blocks_total as u64;
            stats.blocks_pruned += skip.blocks_pruned() as u64;
            record_scan(
                stats,
                scan,
                NodeKind::PrunedScan,
                est.rows,
                sel.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(ColumnBatch {
                quns: vec![scan.qun],
                len: sel.len(),
                sel: vec![sel],
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
            let (live, fetched) = probe_index(table, index, *index_column, &interval);
            let sel = filter_rows(table, live, scan_preds(block, &scan.pred_indices));
            let work = cost.index_scan(fetched as f64, sel.len() as f64);
            stats.work += work;
            record_scan(
                stats,
                scan,
                NodeKind::IndexScan,
                est.rows,
                sel.len(),
                table,
                work,
                jits_obs::clock::now_nanos().saturating_sub(t_node),
            );
            Ok(ColumnBatch {
                quns: vec![scan.qun],
                len: sel.len(),
                sel: vec![sel],
            })
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            keys,
            est,
        } => {
            let build_batch = run_batch(build, block, tables, cost, stats)?;
            let probe_batch = run_batch(probe, block, tables, cost, stats)?;
            if keys.is_empty() {
                return Err(JitsError::Execution("hash join without keys".into()));
            }
            let build_cols = gather_keys(&build_batch, block, tables, keys.iter().map(|(b, _)| b))?;
            let probe_cols = gather_keys(&probe_batch, block, tables, keys.iter().map(|(_, p)| p))?;
            let pairs = hash_join_pairs(&build_cols, &probe_cols, build_batch.len, probe_batch.len);
            debug_assert!(pairs
                .iter()
                .all(|&(b, p)| b < build_batch.len && p < probe_batch.len));
            let work = cost.hash_join(
                build_batch.len as f64,
                probe_batch.len as f64,
                pairs.len() as f64,
            );
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::HashJoin,
                est_rows: est.rows,
                actual_rows: pairs.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = build_batch.quns;
            quns.extend(probe_batch.quns);
            let mut sel = Vec::with_capacity(quns.len());
            for s in &build_batch.sel {
                sel.push(pairs.iter().map(|&(b, _)| s[b]).collect());
            }
            for s in &probe_batch.sel {
                sel.push(pairs.iter().map(|&(_, p)| s[p]).collect());
            }
            Ok(ColumnBatch {
                quns,
                len: pairs.len(),
                sel,
            })
        }
        PhysicalPlan::IndexNLJoin {
            outer,
            inner,
            index_column,
            keys,
            est,
        } => {
            let outer_batch = run_batch(outer, block, tables, cost, stats)?;
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
            let drive_table = table_of(tables, block, drive_oq)?;
            let drive_col = drive_table.gather_column(drive_oc, outer_batch.sel_of(drive_oq)?);
            // equality probes prefer the hash twin (same per-key row order
            // as the B-tree, so the candidate stream is identical)
            let hash = inner_table.hash_index(*index_column);
            // residual outer key columns, gathered once before the probe loop
            let residual: Vec<(FrameColumn, ColumnId)> = keys[1..]
                .iter()
                .map(|((oq, oc), (_, ic))| {
                    let t = table_of(tables, block, *oq)?;
                    Ok((t.gather_column(*oc, outer_batch.sel_of(*oq)?), *ic))
                })
                .collect::<Result<_>>()?;
            let mut pairs: Vec<(usize, RowId)> = Vec::new();
            let mut fetched_total = 0f64;
            for t in 0..outer_batch.len {
                if !drive_col.validity[t] {
                    continue; // NULL keys never join
                }
                let key = drive_col.value(t);
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
                    for (fc, ic) in &residual {
                        if !fc.value(t).sql_eq(&inner_table.value(irow, *ic)) {
                            continue 'cand;
                        }
                    }
                    pairs.push((t, irow));
                }
            }
            let per_probe = if outer_batch.len == 0 {
                0.0
            } else {
                fetched_total / outer_batch.len as f64
            };
            let work = cost.index_nl_join(outer_batch.len as f64, per_probe, pairs.len() as f64);
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::IndexNLJoin,
                est_rows: est.rows,
                actual_rows: pairs.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = outer_batch.quns;
            quns.push(inner.qun);
            let mut sel = Vec::with_capacity(quns.len());
            for s in &outer_batch.sel {
                sel.push(pairs.iter().map(|&(t, _)| s[t]).collect());
            }
            sel.push(pairs.iter().map(|&(_, irow)| irow).collect());
            Ok(ColumnBatch {
                quns,
                len: pairs.len(),
                sel,
            })
        }
        PhysicalPlan::NLJoin {
            outer,
            inner,
            keys,
            est,
        } => {
            let outer_batch = run_batch(outer, block, tables, cost, stats)?;
            let inner_batch = run_batch(inner, block, tables, cost, stats)?;
            let outer_cols = gather_keys(&outer_batch, block, tables, keys.iter().map(|(o, _)| o))?;
            let inner_cols = gather_keys(&inner_batch, block, tables, keys.iter().map(|(_, i)| i))?;
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for o in 0..outer_batch.len {
                'inner: for i in 0..inner_batch.len {
                    for k in 0..outer_cols.len() {
                        if !outer_cols[k].value(o).sql_eq(&inner_cols[k].value(i)) {
                            continue 'inner;
                        }
                    }
                    pairs.push((o, i));
                }
            }
            let work = cost.nl_join(
                outer_batch.len as f64,
                inner_batch.len as f64,
                pairs.len() as f64,
            );
            stats.work += work;
            stats.nodes.push(NodeObservation {
                kind: NodeKind::NLJoin,
                est_rows: est.rows,
                actual_rows: pairs.len() as f64,
                work,
            });
            stats
                .node_walls
                .push(jits_obs::clock::now_nanos().saturating_sub(t_node));
            let mut quns = outer_batch.quns;
            quns.extend(inner_batch.quns);
            let mut sel = Vec::with_capacity(quns.len());
            for s in &outer_batch.sel {
                sel.push(pairs.iter().map(|&(o, _)| s[o]).collect());
            }
            for s in &inner_batch.sel {
                sel.push(pairs.iter().map(|&(_, i)| s[i]).collect());
            }
            Ok(ColumnBatch {
                quns,
                len: pairs.len(),
                sel,
            })
        }
    }
}

/// Gathers one key column per join key side, in key order.
fn gather_keys<'a>(
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
    sides: impl Iterator<Item = &'a (usize, ColumnId)>,
) -> Result<Vec<FrameColumn>> {
    sides
        .map(|(q, c)| {
            let t = table_of(tables, block, *q)?;
            Ok(t.gather_column(*c, batch.sel_of(*q)?))
        })
        .collect()
}

/// Hash-join pair construction: output is probe-order × build-insertion-
/// order, exactly like the row path's tuple loop. NULL keys never join.
fn hash_join_pairs(
    build_cols: &[FrameColumn],
    probe_cols: &[FrameColumn],
    build_len: usize,
    probe_len: usize,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    // single-Int-key fast path: hash raw i64s, no Value materialization.
    // Output order is unaffected by the hash function (entries keep build
    // insertion order; probes run in probe order).
    if let ([b], [p]) = (build_cols, probe_cols) {
        if let (FrameValues::Int(bv), FrameValues::Int(pv)) = (&b.values, &p.values) {
            let mut ht: std::collections::HashMap<i64, Vec<usize>> =
                std::collections::HashMap::new();
            for (t, &v) in bv.iter().enumerate().take(build_len) {
                if b.validity[t] {
                    ht.entry(v).or_default().push(t);
                }
            }
            for (t, v) in pv.iter().enumerate().take(probe_len) {
                if !p.validity[t] {
                    continue;
                }
                if let Some(matches) = ht.get(v) {
                    for &bi in matches {
                        pairs.push((bi, t));
                    }
                }
            }
            return pairs;
        }
    }
    let mut ht: std::collections::HashMap<Vec<Value>, Vec<usize>> =
        std::collections::HashMap::new();
    for t in 0..build_len {
        if build_cols.iter().any(|fc| !fc.validity[t]) {
            continue;
        }
        let key: Vec<Value> = build_cols.iter().map(|fc| fc.value(t)).collect();
        ht.entry(key).or_default().push(t);
    }
    for t in 0..probe_len {
        if probe_cols.iter().any(|fc| !fc.validity[t]) {
            continue;
        }
        let key: Vec<Value> = probe_cols.iter().map(|fc| fc.value(t)).collect();
        if let Some(matches) = ht.get(&key) {
            for &bi in matches {
                pairs.push((bi, t));
            }
        }
    }
    pairs
}

fn project_batch(batch: &ColumnBatch, block: &QueryBlock, tables: &[Table]) -> Result<Vec<Row>> {
    match &block.projection {
        Projection::CountStar => Ok(vec![vec![Value::Int(batch.len as i64)]]),
        Projection::Aggregates(aggs) => {
            let row = aggs
                .iter()
                .map(|agg| eval_aggregate_batch(agg, batch, block, tables))
                .collect::<Result<Vec<Value>>>()?;
            Ok(vec![row])
        }
        Projection::GroupBy { keys, items } => {
            eval_group_by_batch(keys, items, batch, block, tables)
        }
        Projection::Wildcard => {
            // gather all columns of every quantifier once, then emit rows in
            // the same qun-major / column-minor order as the row path
            let mut frames: Vec<Vec<FrameColumn>> = Vec::with_capacity(block.quns.len());
            for qun in 0..block.quns.len() {
                let table = table_of(tables, block, qun)?;
                let sel = batch.sel_of(qun)?;
                frames.push(
                    (0..table.schema().len())
                        .map(|c| table.gather_column(ColumnId(c as u32), sel))
                        .collect(),
                );
            }
            let width: usize = frames.iter().map(Vec::len).sum();
            let mut rows = Vec::with_capacity(batch.len);
            for t in 0..batch.len {
                let mut row = Vec::with_capacity(width);
                for cols in &frames {
                    for fc in cols {
                        row.push(fc.value(t));
                    }
                }
                rows.push(row);
            }
            Ok(rows)
        }
        Projection::Columns(cols) => {
            let frames: Vec<FrameColumn> = cols
                .iter()
                .map(|(qun, col)| {
                    let t = table_of(tables, block, *qun)?;
                    Ok(t.gather_column(*col, batch.sel_of(*qun)?))
                })
                .collect::<Result<_>>()?;
            let mut rows = Vec::with_capacity(batch.len);
            for t in 0..batch.len {
                rows.push(frames.iter().map(|fc| fc.value(t)).collect());
            }
            Ok(rows)
        }
    }
}

/// Evaluates one aggregate over the whole batch (no GROUP BY), gathering
/// the input column once and streaming it through the shared accumulator.
fn eval_aggregate_batch(
    agg: &jits_query::BoundAggregate,
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Value> {
    let Some((qun, col)) = agg.col else {
        return Ok(Value::Int(batch.len as i64));
    };
    let table = table_of(tables, block, qun)?;
    let fc = table.gather_column(col, batch.sel_of(qun)?);
    let mut acc = AggAcc::new();
    for i in 0..fc.len() {
        accumulate(&mut acc, agg.func, col, fc.value(i))?;
    }
    Ok(acc.finish(agg.func))
}

/// Hash aggregation over gathered key/input columns, one output row per
/// distinct key combination in first-seen order (same as the row path).
fn eval_group_by_batch(
    keys: &[(usize, ColumnId)],
    items: &[jits_query::qgm::GroupItem],
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Vec<Row>> {
    use jits_query::qgm::GroupItem;
    let key_cols: Vec<FrameColumn> = keys
        .iter()
        .map(|(q, c)| {
            let t = table_of(tables, block, *q)?;
            Ok(t.gather_column(*c, batch.sel_of(*q)?))
        })
        .collect::<Result<_>>()?;
    // per-item aggregate input columns, gathered once; None for COUNT(*)
    // and for items whose table is missing (mirroring the row path's `.ok()`)
    let agg_cols: Vec<Option<FrameColumn>> = items
        .iter()
        .map(|it| match it {
            GroupItem::Agg(a) => match a.col {
                Some((q, c)) => {
                    let sel = batch.sel_of(q)?;
                    Ok(table_of(tables, block, q)
                        .ok()
                        .map(|t| t.gather_column(c, sel)))
                }
                None => Ok(None),
            },
            GroupItem::Key(_) => Ok(None),
        })
        .collect::<Result<_>>()?;

    // key -> group index; only probed, never iterated (first-seen `order`
    // carries the output order)
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<(Vec<AggAcc>, i64)> = Vec::new();
    let mut groups: std::collections::HashMap<Vec<Value>, usize> = std::collections::HashMap::new();
    for t in 0..batch.len {
        let key: Vec<Value> = key_cols.iter().map(|fc| fc.value(t)).collect();
        let n_items = items.len();
        let gi = *groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            accs.push((vec![AggAcc::new(); n_items], 0));
            accs.len() - 1
        });
        let entry = &mut accs[gi];
        entry.1 += 1;
        for (i, item) in items.iter().enumerate() {
            if let GroupItem::Agg(_) = item {
                if let Some(fc) = &agg_cols[i] {
                    entry.0[i].push(fc.value(t));
                }
            }
        }
    }
    Ok(finish_groups(items, order, accs))
}

//! Vectorized plan execution over selection vectors and the column store.
//!
//! Intermediate results never materialize rows: each operator evaluates
//! its predicates, join keys and aggregates over typed column slots.
//!
//! * operators carry **selection vectors** — one `Vec<RowId>` per covered
//!   quantifier, struct-of-arrays rather than a vector of row-id tuples;
//! * scans read the column slots **in place**: the filter is
//!   [`crate::locate`]'s, shared with UPDATE and DELETE — typed kernels
//!   (an integer interval over the `i64` slots, a string predicate through
//!   a verdict per dictionary entry) narrow a selection vector seeded block
//!   by block with the live slots;
//! * a hash join on one `Int` key reads both sides' key slots through their
//!   selection vectors, gathering nothing. When the build keys' range
//!   `max − min + 1` is at most `4·(build + probe) + 1024` slots — a bound
//!   on the join's own input, so no knob — a direct-address table
//!   (`heads[key − min]` plus `next` links) replaces hashing; wider ranges
//!   go through the integer hash kernel ([`ChainTable`]). Both walk each
//!   key's build rows in insertion order. Multi-key and string-key joins
//!   gather their key columns and hash `Value` tuples;
//! * GROUP BY on `Int`/`Str` keys hashes per-row tuples of `i64` values and
//!   dictionary codes through [`ChainTable`] instead of building a
//!   `Vec<Value>` per row; aggregation accumulates over gathered slices;
//! * the index nested-loop join reads an `Int` drive key in place through
//!   the outer selection vector and probes the inner index's hash map with
//!   the `i64`.
//!
//! Gathers into a [`FrameColumn`] remain for what reads values out:
//! ORDER BY, projections, aggregates, non-`Int` drive keys and the residual
//! keys of the index nested-loop join, and multi-key or string-key joins.
//!
//! **Determinism.** Result rows (values and order), `ExecStats.work` (the
//! same [`CostModel`] formulas applied to the same counts in the same
//! order, so the same bits) and the node and scan observations depend on
//! the plan and the data only: hash-join output is probe order × build
//! insertion order, groups appear in first-seen order whatever their keys
//! hash to, and ORDER BY is a stable sort. `tests/batch_executor.rs` and
//! `tests/data_skipping.rs` check every answer and every operator's actual
//! cardinality against a brute-force oracle that reads no plan, under
//! forced access paths and join methods, and pin the charged work of
//! their corpora to a hash.

#![deny(clippy::indexing_slicing)]

use crate::eval::{
    accumulate, finish_groups, index_interval, matches_preds, position_in, record_scan, scan_preds,
    table_of, AggAcc, ExecOutput,
};
use crate::locate::{filter_rows, probe_index, zone_constraints, Candidates};
use crate::monitor::{ExecStats, NodeKind, NodeObservation};
use jits_common::{ChainTable, ColumnId, FastHasher, FastMap, JitsError, Result, Value};
use jits_optimizer::plan::JoinKey;
use jits_optimizer::{CostModel, PhysicalPlan};
use jits_query::{Projection, QueryBlock};
use jits_storage::{FrameColumn, FrameValues, Index, Row, RowId, Table};
use std::hash::Hasher;

/// A batch in struct-of-arrays form: `sel[i]` is the selection vector of
/// quantifier `quns[i]`, and all selection vectors share length `len`
/// (tuple `t` of the batch is `sel[..][t]`).
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
    fn permute(&mut self, perm: &[usize]) -> Result<()> {
        debug_assert!(perm.iter().all(|&i| i < self.len));
        for s in &mut self.sel {
            *s = pick(s, perm.iter().copied())?;
        }
        Ok(())
    }

    /// Truncates every selection vector (LIMIT on plain projections).
    fn truncate(&mut self, limit: usize) {
        for s in &mut self.sel {
            s.truncate(limit);
        }
        self.len = self.len.min(limit);
    }
}

/// Executes a physical plan for `block` against `tables` (indexed by
/// `TableId`).
pub fn execute(
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
        // a stable sort over indices, so ties keep the plan's order
        perm.sort_by(|&a, &b| {
            let ord = fc.value(a).cmp_total(&fc.value(b));
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        batch.permute(&perm)?;
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
/// - scan output preserves ascending row-id order (joins and ORDER BY may
///   reorder, scans must not);
/// - the operator charged exactly one node observation whose kind matches
///   the plan node, with finite non-negative work, and the running work
///   total grew by a finite non-negative amount (the charged work itself is
///   pinned per corpus by `tests/batch_executor.rs`, which hashes every
///   `NodeObservation.work` bit pattern).
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
            // selection-vector filter and block skipping preserve it
            for (q, s) in batch.quns.iter().zip(&batch.sel) {
                assert!(
                    s.is_sorted_by(|a, b| a < b),
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
    // inclusive wall per node (children run within the arm, so a join's
    // wall covers its inputs); volatile, never part of a compared stream
    let t_node = jits_obs::clock::now_nanos();
    match plan {
        PhysicalPlan::SeqScan { scan, est } => {
            let table = table_of(tables, block, scan.qun)?;
            let preds = scan_preds(block, &scan.pred_indices);
            let sel = filter_rows(table, Candidates::All, preds);
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
            // pruning is sound, so the surviving blocks contain every
            // matching row, in the order a full scan would find them
            let preds = scan_preds(block, &scan.pred_indices);
            let skip = table.skip_list(&zone_constraints(preds.clone()));
            let sel = filter_rows(table, Candidates::Blocks(&skip), preds);
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
            let (live, fetched) = probe_index(table, index, &interval);
            let preds = scan_preds(block, &scan.pred_indices);
            let sel = filter_rows(table, Candidates::Rows(live), preds);
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
            let pairs = match single_int_keys(keys, &build_batch, &probe_batch, block, tables)? {
                Some((build_keys, probe_keys)) => int_join_pairs(build_keys, probe_keys),
                None => {
                    let build_cols =
                        gather_keys(&build_batch, block, tables, keys.iter().map(|(b, _)| b))?;
                    let probe_cols =
                        gather_keys(&probe_batch, block, tables, keys.iter().map(|(_, p)| p))?;
                    value_join_pairs(&build_cols, &probe_cols, build_batch.len, probe_batch.len)
                }
            };
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
                sel.push(pick(s, pairs.iter().map(|&(b, _)| b))?);
            }
            for s in &probe_batch.sel {
                sel.push(pick(s, pairs.iter().map(|&(_, p)| p))?);
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
            let drive_sel = outer_batch.sel_of(drive_oq)?;
            let drive = match drive_table.int_slots(drive_oc) {
                Some((values, valid)) => DriveKeys::Int { values, valid },
                None => DriveKeys::Gathered(drive_table.gather_column(drive_oc, drive_sel)),
            };
            // residual outer key columns, gathered once before the probe loop
            let residual: Vec<(FrameColumn, ColumnId)> = keys
                .iter()
                .skip(1)
                .map(|((oq, oc), (_, ic))| {
                    let t = table_of(tables, block, *oq)?;
                    Ok((t.gather_column(*oc, outer_batch.sel_of(*oq)?), *ic))
                })
                .collect::<Result<_>>()?;
            let mut pairs: Vec<(usize, RowId)> = Vec::new();
            let mut fetched_total = 0f64;
            for (t, &drow) in drive_sel.iter().enumerate() {
                let Some(candidates) = drive.probe(index, t, drow) else {
                    continue; // NULL keys never join
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
                sel.push(pick(s, pairs.iter().map(|&(t, _)| t))?);
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
                for i in 0..inner_batch.len {
                    let joins = outer_cols
                        .iter()
                        .zip(&inner_cols)
                        .all(|(oc, ic)| oc.value(o).sql_eq(&ic.value(i)));
                    if joins {
                        pairs.push((o, i));
                    }
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
                sel.push(pick(s, pairs.iter().map(|&(o, _)| o))?);
            }
            for s in &inner_batch.sel {
                sel.push(pick(s, pairs.iter().map(|&(_, i)| i))?);
            }
            Ok(ColumnBatch {
                quns,
                len: pairs.len(),
                sel,
            })
        }
    }
}

/// `s[i]` for every `i` of `picks`, in order. Join pairs and sort
/// permutations index the batch they were built from, so an index past the
/// end is an internal error, not a row.
fn pick(s: &[RowId], picks: impl ExactSizeIterator<Item = usize>) -> Result<Vec<RowId>> {
    let mut out = Vec::with_capacity(picks.len());
    for i in picks {
        let row = s.get(i).ok_or_else(|| {
            JitsError::internal(format!(
                "selection index {i} past a batch of {} rows",
                s.len()
            ))
        })?;
        out.push(*row);
    }
    Ok(out)
}

/// The drive keys of an index nested-loop join: an `Int` column read in
/// place, or any other type gathered once through the outer selection.
enum DriveKeys<'a> {
    Int {
        values: &'a [i64],
        valid: &'a [bool],
    },
    Gathered(FrameColumn),
}

impl DriveKeys<'_> {
    /// The inner rows whose key equals outer row `t` (slot `row` of the
    /// drive table): the index's posting list, `None` for a NULL key.
    fn probe<'i>(&self, index: &'i Index, t: usize, row: RowId) -> Option<&'i [RowId]> {
        match self {
            DriveKeys::Int { values, valid } => {
                let r = row as usize;
                match (valid.get(r), values.get(r)) {
                    (Some(true), Some(&key)) => Some(index.lookup_int(key)),
                    _ => None,
                }
            }
            DriveKeys::Gathered(col) => col
                .validity
                .get(t)
                .copied()
                .unwrap_or(false)
                .then(|| index.lookup_eq(&col.value(t))),
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

/// Hash-join pair construction through `Value` tuples, for multi-key and
/// string-key joins: output is probe-order × build-insertion-order, as on
/// the single-`Int`-key kernels. NULL keys never join.
fn value_join_pairs(
    build_cols: &[FrameColumn],
    probe_cols: &[FrameColumn],
    build_len: usize,
    probe_len: usize,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut ht: FastMap<Vec<Value>, Vec<usize>> = FastMap::default();
    for t in 0..build_len {
        if build_cols
            .iter()
            .any(|fc| fc.validity.get(t) != Some(&true))
        {
            continue;
        }
        let key: Vec<Value> = build_cols.iter().map(|fc| fc.value(t)).collect();
        ht.entry(key).or_default().push(t);
    }
    for t in 0..probe_len {
        if probe_cols
            .iter()
            .any(|fc| fc.validity.get(t) != Some(&true))
        {
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

/// One side of a single-`Int`-key join, read in place: batch row `t` has
/// the key in slot `sel[t]` of `vals`, NULL where `valid` says so.
#[derive(Clone, Copy)]
struct IntKeys<'a> {
    sel: &'a [RowId],
    vals: &'a [i64],
    valid: &'a [bool],
}

impl IntKeys<'_> {
    /// `(t, key)` for each batch row whose key is not NULL, in batch order.
    fn keys(&self) -> impl DoubleEndedIterator<Item = (usize, i64)> + '_ {
        self.sel.iter().enumerate().filter_map(|(t, &r)| {
            match (self.valid.get(r as usize), self.vals.get(r as usize)) {
                (Some(true), Some(&k)) => Some((t, k)),
                _ => None,
            }
        })
    }
}

/// Both sides' key slots when the join has one key and it is an `Int`
/// column on both sides; `None` sends the join down the `Value` path.
fn single_int_keys<'a>(
    keys: &[JoinKey],
    build: &'a ColumnBatch,
    probe: &'a ColumnBatch,
    block: &QueryBlock,
    tables: &'a [Table],
) -> Result<Option<(IntKeys<'a>, IntKeys<'a>)>> {
    let [((bq, bc), (pq, pc))] = keys else {
        return Ok(None);
    };
    let side = |batch: &'a ColumnBatch, q: usize, c: ColumnId| -> Result<Option<IntKeys<'a>>> {
        let Some((vals, valid)) = table_of(tables, block, q)?.int_slots(c) else {
            return Ok(None);
        };
        Ok(Some(IntKeys {
            sel: batch.sel_of(q)?,
            vals,
            valid,
        }))
    };
    Ok(side(build, *bq, *bc)?.zip(side(probe, *pq, *pc)?))
}

/// End of a chain in [`direct_join`]'s `heads` and `next`.
const NIL: u32 = u32::MAX;

/// Pairs of a single-`Int`-key join, probe order × build insertion order,
/// NULL keys never joining. Dense build keys ([`dense_span`]) index a
/// direct-address table; the rest go through the [`ChainTable`] kernel.
fn int_join_pairs(build: IntKeys<'_>, probe: IntKeys<'_>) -> Vec<(usize, usize)> {
    match dense_span(build, probe.sel.len()) {
        Some((min, span)) => direct_join(build, probe, min, span),
        None => chain_join(build, probe),
    }
}

/// The slots a direct-address table may spend on a join of `build_len`
/// and `probe_len` rows: a constant times the join's own input, so its
/// size follows from the input alone and needs no knob.
fn direct_slots(build_len: usize, probe_len: usize) -> u64 {
    (build_len as u64)
        .saturating_add(probe_len as u64)
        .saturating_mul(4)
        .saturating_add(1024)
}

/// `(min, max − min + 1)` over the non-NULL build keys when that span is
/// at most [`direct_slots`]; `None` when it is wider, when no build key is
/// non-NULL, or when a build row could not be linked in a `u32`.
fn dense_span(build: IntKeys<'_>, probe_len: usize) -> Option<(i64, usize)> {
    if build.sel.len() >= NIL as usize {
        return None;
    }
    let (min, max) = build.keys().fold(None, |acc, (_, v)| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((v.min(lo), v.max(hi))),
    })?;
    // max − min is at most 2^64 − 1, and the + 1 is checked
    let span = max.abs_diff(min).checked_add(1)?;
    if span > direct_slots(build.sel.len(), probe_len) {
        return None;
    }
    Some((min, usize::try_from(span).ok()?))
}

/// The direct-address join: `heads[k − min]` is the first build row with
/// key `k` and `next` links it to the following one. Building in reverse
/// by prepending leaves every chain in build insertion order.
fn direct_join(
    build: IntKeys<'_>,
    probe: IntKeys<'_>,
    min: i64,
    span: usize,
) -> Vec<(usize, usize)> {
    // `k − min` as an unsigned offset: exact for `k >= min`, and at least
    // 2^63 (no slot) below it
    let slot = |k: i64| usize::try_from(k.wrapping_sub(min) as u64).unwrap_or(usize::MAX);
    let mut heads = vec![NIL; span];
    let mut next = vec![NIL; build.sel.len()];
    for (t, k) in build.keys().rev() {
        if let (Some(head), Some(link)) = (heads.get_mut(slot(k)), next.get_mut(t)) {
            *link = *head;
            *head = t as u32;
        }
    }
    let mut pairs = Vec::new();
    for (t, k) in probe.keys() {
        let mut e = heads.get(slot(k)).copied().unwrap_or(NIL);
        while e != NIL {
            pairs.push((e as usize, t));
            e = next.get(e as usize).copied().unwrap_or(NIL);
        }
    }
    pairs
}

/// The hashed join over the [`ChainTable`] kernel, whose chains walk in
/// append order.
fn chain_join(build: IntKeys<'_>, probe: IntKeys<'_>) -> Vec<(usize, usize)> {
    let mut ht = ChainTable::with_entries(build.sel.len());
    for (t, v) in build.keys() {
        ht.append(v as u64, t);
    }
    let mut pairs = Vec::new();
    for (t, v) in probe.keys() {
        pairs.extend(ht.chain(v as u64).map(|b| (b, t)));
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
            // gather all columns of every quantifier once, then emit rows
            // qun-major, column-minor
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
/// distinct key combination in first-seen order.
/// Rows are first assigned group ids — typed when every key is an Int or
/// Str column ([`group_rows_typed`]), through `Value` tuples otherwise —
/// then each group's accumulators take its rows in input order, and a
/// group's output key is read from its first row.
fn eval_group_by_batch(
    keys: &[(usize, ColumnId)],
    items: &[jits_query::qgm::GroupItem],
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Vec<Row>> {
    use jits_query::qgm::GroupItem;
    let grouped = match group_rows_typed(keys, batch, block, tables)? {
        Some(g) => g,
        None => group_rows_values(keys, batch, block, tables)?,
    };
    // per-item aggregate input columns, gathered once; None for COUNT(*)
    // and for items whose table is missing
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

    let mut accs: Vec<(Vec<AggAcc>, i64)> =
        vec![(vec![AggAcc::new(); items.len()], 0); grouped.firsts.len()];
    for (t, &g) in grouped.group_of.iter().enumerate() {
        let entry = accs
            .get_mut(g as usize)
            .ok_or_else(|| JitsError::internal(format!("group {g} of row {t} was never opened")))?;
        entry.1 += 1;
        // `agg_cols` is `None` for every key item
        for (acc, fc) in entry.0.iter_mut().zip(&agg_cols) {
            if let Some(fc) = fc {
                acc.push(fc.value(t));
            }
        }
    }
    let key_sources: Vec<(&Table, &[RowId], ColumnId)> = keys
        .iter()
        .map(|&(q, c)| Ok((table_of(tables, block, q)?, batch.sel_of(q)?, c)))
        .collect::<Result<_>>()?;
    let order: Vec<Vec<Value>> = grouped
        .firsts
        .iter()
        .map(|&f| {
            key_sources
                .iter()
                .map(|(table, sel, c)| {
                    let row = sel.get(f).ok_or_else(|| {
                        JitsError::internal(format!("group's first row {f} is past the batch"))
                    })?;
                    Ok(table.value(*row, *c))
                })
                .collect()
        })
        .collect::<Result<_>>()?;
    Ok(finish_groups(items, order, accs))
}

/// Rows assigned to groups: `group_of[t]` is row `t`'s group, and groups
/// are numbered in first-seen order, `firsts[g]` being group `g`'s first
/// row.
struct Grouping {
    group_of: Vec<u32>,
    firsts: Vec<usize>,
}

impl Grouping {
    fn new(len: usize) -> Self {
        Grouping {
            group_of: Vec::with_capacity(len),
            firsts: Vec::new(),
        }
    }

    /// Opens a new group whose first row is `t` and assigns `t` to it.
    fn open(&mut self, t: usize) -> u32 {
        let g = self.firsts.len() as u32;
        self.firsts.push(t);
        self.group_of.push(g);
        g
    }
}

/// Typed grouping for keys that are all Int or Str columns: each key
/// contributes one `i64` per row — the value, or the string's dictionary
/// code — and a per-row bitmask flags NULL parts, so NULL is its own key
/// and never equal to a value. Tuples hash into the [`ChainTable`] kernel;
/// a chain holds the groups whose tuples share a hash, compared part by
/// part against each group's first row. Codes decide equality only (one
/// dictionary per column, so equal strings share a code); group order is
/// first-seen. `None` when some key is a Float column (where `-0.0` and
/// `0.0` are one `Value`) or there are more keys than mask bits.
fn group_rows_typed(
    keys: &[(usize, ColumnId)],
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Option<Grouping>> {
    if keys.len() > u64::BITS as usize {
        return Ok(None);
    }
    let n = batch.len;
    let mut nulls = vec![0u64; n];
    let mut parts: Vec<Vec<i64>> = Vec::with_capacity(keys.len());
    for (j, &(q, c)) in keys.iter().enumerate() {
        let table = table_of(tables, block, q)?;
        let sel = batch.sel_of(q)?;
        let mut part = Vec::with_capacity(n);
        if let Some(dict) = table.str_codes(c) {
            let codes = dict.codes;
            for (&r, null) in sel.iter().zip(&mut nulls) {
                let code = *codes.get(r as usize).ok_or_else(|| {
                    JitsError::internal(format!("row {r} past a column of {}", codes.len()))
                })?;
                if code == 0 {
                    *null |= 1 << j;
                }
                part.push(i64::from(code));
            }
        } else {
            let fc = table.gather_column(c, sel);
            let FrameValues::Int(vals) = &fc.values else {
                return Ok(None);
            };
            for ((&v, &valid), null) in vals.iter().zip(&fc.validity).zip(&mut nulls) {
                if valid {
                    part.push(v);
                } else {
                    *null |= 1 << j;
                    part.push(0);
                }
            }
        }
        parts.push(part);
    }
    // row hashes, one key part at a time: the same writes in the same order
    // per row as hashing each row's tuple whole
    let mut hashers = vec![FastHasher::default(); n];
    for part in &parts {
        for (h, &v) in hashers.iter_mut().zip(part) {
            h.write_i64(v);
        }
    }
    let mut grouping = Grouping::new(n);
    let mut ht = ChainTable::with_entries(0);
    for (t, (h, &null)) in hashers.iter_mut().zip(&nulls).enumerate() {
        h.write_u64(null);
        let hash = h.finish();
        let same =
            |f: usize| nulls.get(f) == Some(&null) && parts.iter().all(|p| p.get(f) == p.get(t));
        let found = ht
            .chain(hash)
            .find(|&g| grouping.firsts.get(g).is_some_and(|&f| same(f)));
        match found {
            Some(g) => grouping.group_of.push(g as u32),
            None => {
                let g = grouping.open(t);
                ht.append(hash, g as usize);
            }
        }
    }
    Ok(Some(grouping))
}

/// Grouping through `Value` tuples, for keys the typed path does not take.
fn group_rows_values(
    keys: &[(usize, ColumnId)],
    batch: &ColumnBatch,
    block: &QueryBlock,
    tables: &[Table],
) -> Result<Grouping> {
    let key_cols: Vec<FrameColumn> = keys
        .iter()
        .map(|(q, c)| {
            let t = table_of(tables, block, *q)?;
            Ok(t.gather_column(*c, batch.sel_of(*q)?))
        })
        .collect::<Result<_>>()?;
    // key -> group id; only probed, never iterated
    let mut groups: FastMap<Vec<Value>, u32> = FastMap::default();
    let mut grouping = Grouping::new(batch.len);
    for t in 0..batch.len {
        let key: Vec<Value> = key_cols.iter().map(|fc| fc.value(t)).collect();
        match groups.get(&key) {
            Some(&g) => grouping.group_of.push(g),
            None => {
                let g = grouping.open(t);
                groups.insert(key, g);
            }
        }
    }
    Ok(grouping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::SplitMix64;
    use proptest::prelude::*;

    /// One join side over its own slots: `keys[i]` is slot `i` (`None` =
    /// NULL), and the selection names slots in any order, repeats allowed.
    struct Side {
        sel: Vec<RowId>,
        vals: Vec<i64>,
        valid: Vec<bool>,
    }

    impl Side {
        fn new(keys: &[Option<i64>], sel: Vec<RowId>) -> Side {
            Side {
                sel,
                vals: keys.iter().map(|k| k.unwrap_or(0)).collect(),
                valid: keys.iter().map(Option::is_some).collect(),
            }
        }

        fn keys(&self) -> IntKeys<'_> {
            IntKeys {
                sel: &self.sel,
                vals: &self.vals,
                valid: &self.valid,
            }
        }
    }

    /// A side of `rows` batch rows whose non-NULL keys lie in
    /// `[min, min + span)` and, when `rows >= 2`, reach both ends.
    fn random_side(rng: &mut SplitMix64, rows: usize, min: i64, span: u64) -> Side {
        let slots = rows.max(2);
        let keys: Vec<Option<i64>> = (0..slots)
            .map(|i| {
                let offset = match i {
                    0 => 0,
                    1 => span - 1,
                    _ if rng.next_bounded(6) == 0 => return None,
                    // few distinct keys near the ends, so chains repeat
                    _ => match rng.next_bounded(3) {
                        0 => rng.next_bounded(4.min(span)),
                        1 => span - 1 - rng.next_bounded(4.min(span)),
                        _ => rng.next_bounded(span),
                    },
                };
                Some(min.wrapping_add(offset as i64))
            })
            .collect();
        // the two end slots are selected, the rest at random
        let mut sel: Vec<RowId> = (0..rows)
            .map(|i| match i {
                0 | 1 => i as RowId,
                _ => rng.next_bounded(slots as u64) as RowId,
            })
            .collect();
        rng.shuffle(&mut sel);
        Side::new(&keys, sel)
    }

    /// Every test side's key range starts at `min` or ends at `i64::MAX`.
    fn random_min(rng: &mut SplitMix64, span: u64) -> i64 {
        match rng.next_bounded(4) {
            0 => i64::MIN,
            1 => i64::MAX - (span as i64 - 1),
            _ => rng.next_u64() as i64 / 4,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The direct-address join equals the hashed one pair for pair,
        /// whether the build keys' range is one under, at, or one past the
        /// bound (where `int_join_pairs` switches kernels) or far inside
        /// it, at either extreme of `i64`; NULLs, repeated keys and
        /// repeated selection entries on both sides.
        #[test]
        fn direct_join_equals_chain_join(
            seed in any::<u64>(),
            build_rows in 2usize..200,
            probe_rows in 0usize..200,
            shift in 0u64..4,
        ) {
            let mut rng = SplitMix64::new(seed);
            let bound = direct_slots(build_rows, probe_rows);
            let span = match shift {
                0 => bound - 1,
                1 => bound,
                2 => bound + 1,
                _ => 1 + rng.next_bounded(8),
            };
            let min = random_min(&mut rng, span);
            let build = random_side(&mut rng, build_rows, min, span);
            let probe = random_side(&mut rng, probe_rows, min, span);

            let found = dense_span(build.keys(), probe_rows);
            let expect_span = usize::try_from(span).unwrap();
            prop_assert_eq!(found, (span <= bound).then_some((min, expect_span)));
            let chained = chain_join(build.keys(), probe.keys());
            let direct = direct_join(build.keys(), probe.keys(), min, expect_span);
            prop_assert_eq!(&direct, &chained);
            prop_assert_eq!(int_join_pairs(build.keys(), probe.keys()), chained);
        }
    }

    /// The bound is inclusive: a build range of exactly `direct_slots`
    /// keys is addressed directly, one more is hashed.
    #[test]
    fn dense_span_takes_the_bound_and_not_one_past() {
        let bound = direct_slots(2, 0) as i64;
        assert_eq!(bound, 4 * 2 + 1024);
        for (max, dense) in [(bound - 2, true), (bound - 1, true), (bound, false)] {
            let side = Side::new(&[Some(0), Some(max)], vec![0, 1]);
            assert_eq!(
                dense_span(side.keys(), 0).is_some(),
                dense,
                "keys 0..={max} against a bound of {bound}"
            );
        }
        // the widest range of all overflows the + 1 and is hashed
        let side = Side::new(&[Some(i64::MIN), Some(i64::MAX)], vec![0, 1]);
        assert_eq!(dense_span(side.keys(), 1 << 40), None);
        // no non-NULL build key: nothing to address
        let side = Side::new(&[None], vec![0]);
        assert_eq!(dense_span(side.keys(), 1), None);
    }

    /// Chains walk in build insertion order on both kernels: repeated
    /// build keys come out ascending by build row for every probe row.
    #[test]
    fn chains_walk_in_build_order() {
        let build = Side::new(
            &[Some(7), Some(3), Some(7), None, Some(7)],
            vec![0, 1, 2, 3, 4],
        );
        let probe = Side::new(&[Some(7), Some(3), None], vec![0, 2, 1, 0]);
        let expect = vec![(0, 0), (2, 0), (4, 0), (1, 2), (0, 3), (2, 3), (4, 3)];
        assert_eq!(direct_join(build.keys(), probe.keys(), 3, 5), expect);
        assert_eq!(chain_join(build.keys(), probe.keys()), expect);
    }
}

#[cfg(test)]
mod execute_tests {
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

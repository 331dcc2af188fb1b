//! Row location: which live rows of one table satisfy a conjunction of
//! local predicates, and what finding them costs.
//!
//! Three access paths reach the candidates — an index probe (hash twin for
//! points, B-tree for ranges), a zone-map-pruned scan, a full scan — and
//! one columnar filter (`filter_rows`) applies the predicates to them:
//! integer intervals over a typed gather, string predicates through a
//! verdict per dictionary entry looked up by each row's code, everything
//! else cell by cell.
//! The batch executor's scan operators run the path their plan node names;
//! [`locate_rows`], the entry point of UPDATE and DELETE, picks the path
//! itself by *exact* cost: posting-list lengths and per-block live counts
//! are metadata, so every path's charge is known before a row is read. The
//! choice therefore needs no statistics, is the same under every statistics
//! setting, and touches no archive, history or cache state.

use crate::monitor::NodeKind;
use jits_common::{Bound, ColumnId, DataType, Interval, Value};
use jits_optimizer::CostModel;
use jits_query::{LocalPredicate, PredKind};
use jits_storage::{
    BlockSkipList, FrameColumn, FrameValues, RowId, SecondaryIndex, StrCodes, Table,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The rows a DML statement acts on, and how they were found.
#[derive(Debug, Clone, PartialEq)]
pub struct Located {
    /// Live rows satisfying every predicate, ascending by row id whatever
    /// the path, and complete before the caller mutates anything: the
    /// mutation order — and with it index posting order, zone maps and
    /// every later sample draw — is that of a full scan, and a SET on the
    /// predicate column cannot feed rows back into the search.
    pub rows: Vec<RowId>,
    /// Work charged for locating, in cost-model units: the chosen path's
    /// formula, exact.
    pub work: f64,
    /// The path taken (`IndexScan`, `PrunedScan` or `SeqScan`).
    pub path: NodeKind,
    /// Zone-map blocks probed (0 unless the path is `PrunedScan`).
    pub blocks_total: usize,
    /// Blocks proven to hold no matching row (same).
    pub blocks_pruned: usize,
}

/// Locates the rows of `table` matching all of `preds` along the cheapest
/// of the three paths. Costs are exact, so ties and orderings are
/// deterministic; a path is only taken when strictly cheaper than the full
/// scan, whose charge is `rows · seq_row`.
pub fn locate_rows(table: &Table, preds: &[LocalPredicate], cost: &CostModel) -> Located {
    let mut work = cost.seq_scan(table.row_count() as f64, 0.0);
    let mut path = Path::Seq;
    let constraints = zone_constraints(preds);

    for (column, interval) in &constraints {
        let Some(index) = table.index(*column) else {
            continue;
        };
        // postings an index scan would fetch; a range stops counting once
        // the probe can no longer be the cheapest path
        let affordable = ((work - cost.index_probe) / cost.index_row).max(0.0) as usize;
        let fetched = match (point_key(interval), table.hash_index(*column)) {
            (Some(key), Some(hash)) => hash.lookup_eq(key).len(),
            _ => index
                .range_iter(interval)
                .take(affordable.saturating_add(1))
                .count(),
        };
        let probe = cost.index_scan(fetched as f64, 0.0);
        if fetched <= affordable && probe < work {
            work = probe;
            path = Path::Index(*column, index, interval);
        }
    }
    // every block pays its probe, so the skip list is only worth computing
    // when those alone undercut the best path so far
    let blocks = table.zone_maps().block_count() as f64;
    if !constraints.is_empty() && blocks * cost.block_probe < work {
        let skip = table.skip_list(&constraints);
        let pruned = cost.pruned_scan(blocks, skip.surviving_rows as f64, 0.0);
        if pruned < work {
            work = pruned;
            path = Path::Pruned(skip);
        }
    }

    let (candidates, kind, blocks_total, blocks_pruned) = match path {
        Path::Seq => (table.scan().collect(), NodeKind::SeqScan, 0, 0),
        Path::Pruned(skip) => (
            surviving_rows(table, &skip),
            NodeKind::PrunedScan,
            skip.blocks_total,
            skip.blocks_pruned(),
        ),
        Path::Index(column, index, interval) => {
            let (mut live, _) = probe_index(table, index, column, interval);
            // postings arrive in key, then append/swap order; the scans
            // above are ascending already and the filter keeps input order
            live.sort_unstable();
            (live, NodeKind::IndexScan, 0, 0)
        }
    };
    Located {
        rows: filter_rows(table, candidates, preds),
        work,
        path: kind,
        blocks_total,
        blocks_pruned,
    }
}

enum Path<'a> {
    Seq,
    Pruned(BlockSkipList),
    Index(ColumnId, &'a SecondaryIndex, &'a Interval),
}

fn point_key(interval: &Interval) -> Option<&Value> {
    if interval.is_point() {
        interval.low.value()
    } else {
        None
    }
}

/// Candidates of an index scan over `interval` through `index`, the
/// B-tree on `column`: the live rows among the fetched postings, in index
/// order, and how many postings were fetched. Equality probes route to the
/// hash twin, whose per-key row order mirrors the B-tree's, so the stream
/// is the same either way.
pub(crate) fn probe_index(
    table: &Table,
    index: &SecondaryIndex,
    column: ColumnId,
    interval: &Interval,
) -> (Vec<RowId>, usize) {
    let candidates: Vec<RowId> = match (point_key(interval), table.hash_index(column)) {
        (Some(key), Some(hash)) => hash.lookup_eq(key).to_vec(),
        _ => index.lookup_range(interval),
    };
    let fetched = candidates.len();
    let live = candidates
        .into_iter()
        .filter(|&r| table.is_live(r))
        .collect();
    (live, fetched)
}

/// Live rows of the skip list's surviving blocks, ascending.
pub(crate) fn surviving_rows(table: &Table, skip: &BlockSkipList) -> Vec<RowId> {
    skip.survivors
        .iter()
        .flat_map(|&b| table.block_rows(b as usize))
        .collect()
}

/// The per-column zone-map constraints of a predicate group: every
/// interval predicate, merged per column by intersection. Shared by both
/// executors and by DML so their skip lists (and work charges) agree.
pub(crate) fn zone_constraints<'a>(
    preds: impl IntoIterator<Item = &'a LocalPredicate>,
) -> Vec<(ColumnId, Interval)> {
    let mut merged: BTreeMap<ColumnId, Interval> = BTreeMap::new();
    for p in preds {
        if let PredKind::Interval(iv) = &p.kind {
            let next = match merged.remove(&p.column) {
                Some(existing) => existing.intersect(iv),
                None => iv.clone(),
            };
            merged.insert(p.column, next);
        }
    }
    merged.into_iter().collect()
}

/// Keeps the rows passing all predicates (bitset AND), preserving input
/// order. Integer intervals — the shape with a typed fast path — evaluate
/// over a dense gather of their column, made once per column. Any predicate
/// on a string column is decided once per dictionary entry (and once for
/// NULL) into a verdict table, after which each row costs one lookup by its
/// code ([`eval_code_verdicts`]) — unless the dictionary outnumbers the
/// candidates, as for a high-cardinality column behind an index probe. Every
/// other shape reads the cell of each still-surviving row and asks
/// [`LocalPredicate::matches`], exactly as the row executor does. Every
/// verdict is `matches` on the cell's value, so all paths agree bit for bit.
pub(crate) fn filter_rows<'a>(
    table: &Table,
    rows: Vec<RowId>,
    preds: impl IntoIterator<Item = &'a LocalPredicate>,
) -> Vec<RowId> {
    let mut keep: Option<Vec<bool>> = None;
    let mut gathered: BTreeMap<ColumnId, FrameColumn> = BTreeMap::new();
    for p in preds {
        let keep = keep.get_or_insert_with(|| vec![true; rows.len()]);
        if let Some(bounds) = int_interval(table, p) {
            let fc = gathered
                .entry(p.column)
                .or_insert_with(|| table.gather_column(p.column, &rows));
            if let FrameValues::Int(vals) = &fc.values {
                eval_int_interval(bounds, vals, fc, keep);
                continue;
            }
        }
        if let Some(dict) = table.str_codes(p.column) {
            if dict.entries.len() <= rows.len() {
                eval_code_verdicts(p, dict, &rows, keep);
                continue;
            }
        }
        for (k, &r) in keep.iter_mut().zip(&rows) {
            if *k {
                *k = p.matches(&table.value(r, p.column));
            }
        }
    }
    match keep {
        None => rows,
        Some(keep) => rows
            .into_iter()
            .zip(keep)
            .filter_map(|(r, k)| k.then_some(r))
            .collect(),
    }
}

/// ANDs a predicate on a string column into `keep` through the column's
/// dictionary: `verdict[c]` is `p.matches` on the value code `c` stands for
/// (code 0 = NULL), so `verdict[codes[r]]` is exactly the per-cell verdict.
fn eval_code_verdicts(p: &LocalPredicate, dict: StrCodes<'_>, rows: &[RowId], keep: &mut [bool]) {
    let verdict: Vec<bool> = std::iter::once(p.matches(&Value::Null))
        .chain(
            dict.entries
                .iter()
                .map(|s| p.matches(&Value::Str(Arc::clone(s)))),
        )
        .collect();
    let codes = dict.codes;
    debug_assert!(rows.iter().all(|&r| codes
        .get(r as usize)
        .is_some_and(|&c| (c as usize) < verdict.len())));
    for (k, &r) in keep.iter_mut().zip(rows) {
        if *k {
            *k = verdict[codes[r as usize] as usize];
        }
    }
}

/// `(value, inclusive)` per side, `None` = unbounded.
type IntBounds = (Option<(i64, bool)>, Option<(i64, bool)>);

/// ANDs an integer interval's verdicts over the gathered `vals` into
/// `keep`: exact `i64` compares whose outcome equals `Interval::contains`.
fn eval_int_interval((lo, hi): IntBounds, vals: &[i64], fc: &FrameColumn, keep: &mut [bool]) {
    debug_assert_eq!(vals.len(), keep.len());
    let in_bounds = |v: i64| {
        lo.is_none_or(|(x, inc)| if inc { v >= x } else { v > x })
            && hi.is_none_or(|(x, inc)| if inc { v <= x } else { v < x })
    };
    if fc.non_null == fc.len() {
        // the gather proved the slice NULL-free (for pruned scans the zone
        // map's null count already knew), so the per-row validity re-check
        // is hoisted out of the inner loop
        for (i, k) in keep.iter_mut().enumerate() {
            if *k {
                *k = in_bounds(vals[i]);
            }
        }
    } else {
        for (i, k) in keep.iter_mut().enumerate() {
            if *k {
                // NULL never matches an interval
                *k = fc.validity[i] && in_bounds(vals[i]);
            }
        }
    }
}

/// The predicate's bounds when it is an interval with integer (or open)
/// endpoints over an `Int` column; `None` for every other shape.
fn int_interval(table: &Table, p: &LocalPredicate) -> Option<IntBounds> {
    let PredKind::Interval(iv) = &p.kind else {
        return None;
    };
    let dtype = table.schema().column(p.column)?.dtype;
    if dtype != DataType::Int {
        return None;
    }
    let side = |b: &Bound| match b {
        Bound::Unbounded => Some(None),
        Bound::Inclusive(Value::Int(x)) => Some(Some((*x, true))),
        Bound::Exclusive(Value::Int(x)) => Some(Some((*x, false))),
        _ => None,
    };
    Some((side(&iv.low)?, side(&iv.high)?))
}

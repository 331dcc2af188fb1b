//! Row location: which live rows of one table satisfy a conjunction of
//! local predicates, and what finding them costs.
//!
//! Three access paths reach the candidates — an index probe (hash twin for
//! points, B-tree for ranges), a zone-map-pruned scan, a full scan — and
//! one filter (`filter_rows`) applies the predicates to them, reading the
//! column store in place. The predicates compile once per scan into typed
//! kernels: an integer interval compares the column's `i64` slots under
//! their validity, a string predicate looks each row's code up in a verdict
//! per dictionary entry, everything else asks `LocalPredicate::matches`
//! cell by cell. The kernels narrow a selection vector one predicate at a
//! time, so each reads only the rows the ones before it kept; table scans
//! run them block by block over each block's live slots.
//!
//! Statistics collection asks the same kernels about the slots of a
//! sample ([`sample_bits`]), so scans, DML and collection share one
//! evaluator of local predicates.
//!
//! The batch executor's scan operators run the path their plan node names;
//! [`locate_rows`], the entry point of UPDATE and DELETE, picks the path
//! itself by *exact* cost: posting-list lengths and per-block live counts
//! are metadata, so every path's charge is known before a row is read. The
//! choice therefore needs no statistics, is the same under every statistics
//! setting, and touches no archive, history or cache state.

#![deny(clippy::indexing_slicing)]

use crate::monitor::NodeKind;
use jits_common::{Bound, ColumnId, DataType, Interval, Value};
use jits_optimizer::CostModel;
use jits_query::{LocalPredicate, PredKind};
use jits_storage::{BlockSkipList, RowId, SecondaryIndex, StrCodes, Table, BLOCK_SIZE};
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

    let (rows, kind, blocks_total, blocks_pruned) = match path {
        Path::Seq => (
            filter_rows(table, Candidates::All, preds),
            NodeKind::SeqScan,
            0,
            0,
        ),
        Path::Pruned(skip) => (
            filter_rows(table, Candidates::Blocks(&skip), preds),
            NodeKind::PrunedScan,
            skip.blocks_total,
            skip.blocks_pruned(),
        ),
        Path::Index(column, index, interval) => {
            let (live, _) = probe_index(table, index, column, interval);
            // postings arrive in key, then append/swap order; the filter
            // keeps input order, the scans above are ascending already
            let mut rows = filter_rows(table, Candidates::Rows(live), preds);
            rows.sort_unstable();
            (rows, NodeKind::IndexScan, 0, 0)
        }
    };
    Located {
        rows,
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

/// Where a scan's candidate rows come from.
pub(crate) enum Candidates<'a> {
    /// Every live row of the table (a full scan).
    All,
    /// The live rows of the skip list's surviving blocks (a pruned scan).
    Blocks(&'a BlockSkipList),
    /// Live rows fetched through an index, in any order.
    Rows(Vec<RowId>),
}

/// The candidates that pass every predicate: ascending for the two table
/// scans, in input order for [`Candidates::Rows`]. The predicates compile
/// once into kernels ([`compile`]); a table scan then seeds a selection
/// vector with each block's live slots in turn and narrows it, so the
/// working set stays one block wide. Every kernel's verdict is
/// [`LocalPredicate::matches`] on the cell's value, so the result is the
/// rows a cell-by-cell scan of the candidates keeps, in the same order.
pub(crate) fn filter_rows<'a>(
    table: &'a Table,
    candidates: Candidates<'_>,
    preds: impl IntoIterator<Item = &'a LocalPredicate>,
) -> Vec<RowId> {
    match candidates {
        Candidates::All => {
            let kernels = compile(table, preds, table.row_count());
            scan_blocks(&kernels, table, 0..table.zone_maps().block_count())
        }
        Candidates::Blocks(skip) => {
            let kernels = compile(table, preds, skip.surviving_rows as usize);
            scan_blocks(&kernels, table, skip.survivors.iter().map(|&b| b as usize))
        }
        Candidates::Rows(mut rows) => {
            narrow(&compile(table, preds, rows.len()), &mut rows);
            rows
        }
    }
}

/// One bit per slot of a sample: bit `i % 64` of word `i / 64` is set
/// when `pred` matches the cell of row `rows[i]`, and bits past the end
/// stay clear. The predicate compiles into one kernel for `rows.len()`
/// candidates, as a scan over that many rows would, and reads the column
/// in place; rows need not be live or distinct, since deletes leave their
/// cells behind. This is how statistics collection evaluates each local
/// predicate on a sample, so collection and scans share every verdict.
pub fn sample_bits(table: &Table, pred: &LocalPredicate, rows: &[RowId]) -> Vec<u64> {
    /// Packs `keep` over `rows` into words, with no branch on the verdict.
    fn pack(rows: &[RowId], keep: impl Fn(RowId) -> bool) -> Vec<u64> {
        rows.chunks(64)
            .map(|chunk| {
                (0..)
                    .zip(chunk)
                    .fold(0u64, |word, (bit, &r)| word | (u64::from(keep(r)) << bit))
            })
            .collect()
    }
    match compile(table, [pred], rows.len()).pop() {
        Some(Kernel::Int(k)) => pack(rows, |r| k.passes(r)),
        Some(Kernel::Codes(k)) => pack(rows, |r| k.passes(r)),
        _ => pack(rows, |r| pred.matches(&table.value(r, pred.column))),
    }
}

/// One predicate's verdict on a row, read from the column in place.
enum Kernel<'a> {
    Int(IntRange<'a>),
    Codes(CodeVerdicts<'a>),
    /// `matches` on each cell, read through `Table::value`.
    Cells {
        table: &'a Table,
        pred: &'a LocalPredicate,
    },
}

/// `lo <= v <= hi` over an `Int` column's slots; NULL never passes, and
/// `lo > hi` admits nothing.
struct IntRange<'a> {
    vals: &'a [i64],
    valid: &'a [bool],
    lo: i64,
    hi: i64,
}

impl IntRange<'_> {
    /// Free of branches on the verdict; a slot past the end of the column
    /// (never handed out by storage) does not pass.
    #[inline]
    fn passes(&self, r: RowId) -> bool {
        let v = self.vals.get(r as usize).copied().unwrap_or(0);
        (self.valid.get(r as usize) == Some(&true)) & (self.lo <= v) & (v <= self.hi)
    }
}

/// `verdict[codes[r]]`: `verdict[c]` is `matches` on the value code `c`
/// stands for (code 0 = NULL).
struct CodeVerdicts<'a> {
    codes: &'a [u32],
    verdict: Vec<bool>,
}

impl CodeVerdicts<'_> {
    /// A slot past the end of the column does not pass.
    #[inline]
    fn passes(&self, r: RowId) -> bool {
        self.codes
            .get(r as usize)
            .and_then(|&c| self.verdict.get(c as usize))
            .is_some_and(|&v| v)
    }
}

/// Compiles `preds` against `table` for a scan over `candidates` rows in
/// all: one kernel per predicate, the cell-by-cell ones last. A string
/// predicate is decided per dictionary entry only when the dictionary does
/// not outnumber the scan's candidates, as it does for a unique column
/// behind an index probe; the count is the whole scan's, so every block of
/// one scan takes the same kernel.
fn compile<'a>(
    table: &'a Table,
    preds: impl IntoIterator<Item = &'a LocalPredicate>,
    candidates: usize,
) -> Vec<Kernel<'a>> {
    let mut kernels = preds
        .into_iter()
        .map(|pred| {
            if let (Some((lo, hi)), Some((vals, valid))) =
                (int_range(table, pred), table.int_slots(pred.column))
            {
                return Kernel::Int(IntRange {
                    vals,
                    valid,
                    lo,
                    hi,
                });
            }
            match table.str_codes(pred.column) {
                Some(dict) if dict.entries.len() <= candidates => Kernel::Codes(CodeVerdicts {
                    codes: dict.codes,
                    verdict: code_verdicts(pred, dict),
                }),
                _ => Kernel::Cells { table, pred },
            }
        })
        .collect::<Vec<_>>();
    // verdicts AND together, so the cell-by-cell kernels can wait for
    // the typed ones to narrow the rows they read
    kernels.sort_by_key(|k| matches!(k, Kernel::Cells { .. }));
    kernels
}

/// The live rows of `blocks` (ascending) that pass every kernel,
/// ascending. The first kernel reads each block's slots beside its live
/// flags, the rest narrow what it kept.
fn scan_blocks(
    kernels: &[Kernel<'_>],
    table: &Table,
    blocks: impl Iterator<Item = usize>,
) -> Vec<RowId> {
    let mut out = Vec::new();
    let mut sel = Vec::with_capacity(BLOCK_SIZE);
    for b in blocks {
        let (first, live) = table.block_slots(b);
        let rest = match kernels.split_first() {
            Some((kernel, rest)) if kernel.seed(&mut sel, first, live) => rest,
            _ => {
                seed(&mut sel, first, live, |_| true);
                kernels
            }
        };
        narrow(rest, &mut sel);
        out.extend_from_slice(&sel);
    }
    out
}

/// Keeps the rows of `sel` that pass every kernel, in order. Each kernel
/// compacts the survivors of the ones before it in place.
fn narrow(kernels: &[Kernel<'_>], sel: &mut Vec<RowId>) {
    for kernel in kernels {
        if sel.is_empty() {
            return;
        }
        match kernel {
            Kernel::Int(k) => compact(sel, |r| k.passes(r)),
            Kernel::Codes(k) => compact(sel, |r| k.passes(r)),
            Kernel::Cells { table, pred } => {
                sel.retain(|&r| pred.matches(&table.value(r, pred.column)))
            }
        }
    }
}

impl Kernel<'_> {
    /// Seeds `sel` with the live slots of the block starting at row `first`
    /// that pass this kernel, in one pass over the block; false, leaving
    /// `sel` alone, for a kernel that reads cell by cell.
    fn seed(&self, sel: &mut Vec<RowId>, first: RowId, live: &[bool]) -> bool {
        match self {
            Kernel::Int(k) => seed(sel, first, live, |r| k.passes(r)),
            Kernel::Codes(k) => seed(sel, first, live, |r| k.passes(r)),
            Kernel::Cells { .. } => return false,
        }
        true
    }
}

/// Fills `sel` with the live rows `r` of a block whose first row is
/// `first` for which `keep(r)` holds, ascending, branch-free like
/// [`compact`].
fn seed(sel: &mut Vec<RowId>, first: RowId, live: &[bool], keep: impl Fn(RowId) -> bool) {
    sel.clear();
    sel.resize(live.len(), 0);
    let mut kept = 0;
    for (r, &l) in (first..).zip(live) {
        if let Some(slot) = sel.get_mut(kept) {
            *slot = r;
        }
        kept += usize::from(l & keep(r));
    }
    sel.truncate(kept);
}

/// Keeps the rows of `sel` that pass `keep`, in order, with no branch on
/// the verdict: each row is written to the next free place, which advances
/// only past a kept row, so a scan costs the same however its verdicts
/// fall (a retain that branches mispredicts on every unsorted verdict).
fn compact(sel: &mut Vec<RowId>, keep: impl Fn(RowId) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let Some(&r) = sel.get(i) else { break };
        if let Some(slot) = sel.get_mut(kept) {
            *slot = r;
        }
        kept += usize::from(keep(r));
    }
    sel.truncate(kept);
}

/// `matches` on NULL, then on each dictionary entry in code order.
fn code_verdicts(pred: &LocalPredicate, dict: StrCodes<'_>) -> Vec<bool> {
    std::iter::once(pred.matches(&Value::Null))
        .chain(
            dict.entries
                .iter()
                .map(|s| pred.matches(&Value::Str(Arc::clone(s)))),
        )
        .collect()
}

/// The inclusive `[lo, hi]` an interval with integer (or open) endpoints
/// admits on an `Int` column, whose verdicts then equal
/// `Interval::contains` exactly; `None` for every other shape. An
/// exclusive end at `i64::MAX` below or `i64::MIN` above admits no `i64`,
/// which comes back as `lo > hi`.
fn int_range(table: &Table, pred: &LocalPredicate) -> Option<(i64, i64)> {
    let PredKind::Interval(iv) = &pred.kind else {
        return None;
    };
    if table.schema().column(pred.column)?.dtype != DataType::Int {
        return None;
    }
    // `Some(None)`: the bound excludes every i64
    let lo = match &iv.low {
        Bound::Unbounded => Some(i64::MIN),
        Bound::Inclusive(Value::Int(x)) => Some(*x),
        Bound::Exclusive(Value::Int(x)) => x.checked_add(1),
        _ => return None,
    };
    let hi = match &iv.high {
        Bound::Unbounded => Some(i64::MAX),
        Bound::Inclusive(Value::Int(x)) => Some(*x),
        Bound::Exclusive(Value::Int(x)) => x.checked_sub(1),
        _ => return None,
    };
    Some(lo.zip(hi).unwrap_or((1, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::{Schema, SplitMix64};
    use proptest::prelude::*;

    /// The string alphabet: the empty string, a non-ASCII entry, and two
    /// strings that share an 8-byte prefix.
    const STRS: &[&str] = &["", "a", "Honda", "Hondas", "Toyota", "Zürich"];

    /// A value of column `c` of [`random_table`] (NULL one time in eight).
    fn random_value(rng: &mut SplitMix64, c: u32) -> Value {
        if rng.next_bounded(8) == 0 {
            return Value::Null;
        }
        match c {
            0 => Value::Int(rng.next_bounded(41) as i64 - 20),
            1 => Value::str(STRS[rng.next_index(STRS.len())]),
            _ => match rng.next_bounded(12) {
                0 => Value::Float(-0.0),
                k => Value::Float((k as f64 - 6.0) * 0.5),
            },
        }
    }

    /// An `(Int, Str, Float)` table of `rows` slots with NULLs in every
    /// column; some rows are deleted at random, and with `whole_block`
    /// every row of the second block too.
    fn random_table(rng: &mut SplitMix64, rows: u32, whole_block: bool) -> Table {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("f", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        for _ in 0..rows {
            let row = (0..3).map(|c| random_value(rng, c)).collect();
            t.insert(row).unwrap();
        }
        for r in 0..rows {
            let in_block = (BLOCK_SIZE as u32..2 * BLOCK_SIZE as u32).contains(&r);
            if rng.next_bounded(5) == 0 || (whole_block && in_block) {
                t.delete(r);
            }
        }
        t
    }

    /// A bound of an interval on column `c`: mostly the column's own type,
    /// sometimes an extreme `i64` or another type (which the typed kernels
    /// must leave to the cell-by-cell one).
    fn random_bound(rng: &mut SplitMix64, c: u32) -> Bound {
        let v = match rng.next_bounded(6) {
            0 => return Bound::Unbounded,
            1 => Value::Int(if rng.next_bool(0.5) {
                i64::MIN
            } else {
                i64::MAX
            }),
            2 => {
                let other = rng.next_bounded(3) as u32;
                random_value(rng, other)
            }
            _ => random_value(rng, c),
        };
        if v.is_null() {
            Bound::Unbounded
        } else if rng.next_bool(0.5) {
            Bound::Inclusive(v)
        } else {
            Bound::Exclusive(v)
        }
    }

    fn random_pred(rng: &mut SplitMix64) -> LocalPredicate {
        let c = rng.next_bounded(3) as u32;
        let kind = match rng.next_bounded(5) {
            0 => PredKind::NotEq(random_value(rng, c)),
            1 => PredKind::InList((0..3).map(|_| random_value(rng, c)).collect()),
            2 => PredKind::IsNull(rng.next_bool(0.5)),
            _ => PredKind::Interval(Interval {
                low: random_bound(rng, c),
                high: random_bound(rng, c),
            }),
        };
        LocalPredicate {
            qun: 0,
            column: ColumnId(c),
            kind,
        }
    }

    /// The rows of `rows` every predicate matches, asked cell by cell.
    fn oracle(table: &Table, rows: &[RowId], preds: &[LocalPredicate]) -> Vec<RowId> {
        rows.iter()
            .copied()
            .filter(|&r| preds.iter().all(|p| p.matches(&table.value(r, p.column))))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The filter equals `LocalPredicate::matches` cell by cell on all
        /// three candidate sources: a full scan, an arbitrary set of
        /// surviving blocks (whose candidate count decides between the
        /// dictionary verdicts and the cell-by-cell kernel), and unsorted
        /// live rows as an index probe hands them over. So does
        /// [`sample_bits`] on random slots, repeated and tombstoned ones
        /// included, as a sample served after DELETEs addresses them.
        #[test]
        fn filter_equals_matches_cell_by_cell(
            seed in any::<u64>(),
            rows in prop_oneof![1u32..24, 1000u32..3400],
            npreds in 0usize..4,
            whole_block in any::<bool>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            let table = random_table(&mut rng, rows, whole_block);
            let preds: Vec<LocalPredicate> = (0..npreds).map(|_| random_pred(&mut rng)).collect();
            let live: Vec<RowId> = table.scan().collect();

            prop_assert_eq!(
                filter_rows(&table, Candidates::All, &preds),
                oracle(&table, &live, &preds)
            );

            let blocks = table.zone_maps().block_count();
            let survivors: Vec<u32> =
                (0..blocks as u32).filter(|_| rng.next_bool(0.6)).collect();
            let in_survivors: Vec<RowId> = live
                .iter()
                .copied()
                .filter(|&r| survivors.contains(&(r / BLOCK_SIZE as u32)))
                .collect();
            let skip = BlockSkipList {
                blocks_total: blocks,
                survivors,
                surviving_rows: in_survivors.len() as u64,
            };
            prop_assert_eq!(
                filter_rows(&table, Candidates::Blocks(&skip), &preds),
                oracle(&table, &in_survivors, &preds)
            );

            let mut probed: Vec<RowId> =
                live.iter().copied().filter(|_| rng.next_bool(0.3)).collect();
            rng.shuffle(&mut probed);
            prop_assert_eq!(
                filter_rows(&table, Candidates::Rows(probed.clone()), &preds),
                oracle(&table, &probed, &preds)
            );

            let slots = rows as usize;
            let sample: Vec<RowId> = (0..rng.next_index(2 * slots))
                .map(|_| rng.next_index(slots) as RowId)
                .collect();
            for pred in &preds {
                let bits = sample_bits(&table, pred, &sample);
                prop_assert_eq!(bits.len(), sample.len().div_ceil(64));
                for (i, &r) in sample.iter().enumerate() {
                    let bit = bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
                    prop_assert_eq!(bit, pred.matches(&table.value(r, pred.column)), "slot {}", i);
                }
                let set: u32 = bits.iter().map(|w| w.count_ones()).sum();
                let matching = sample
                    .iter()
                    .filter(|&&r| pred.matches(&table.value(r, pred.column)))
                    .count();
                prop_assert_eq!(set as usize, matching, "no bit past the sample");
            }
        }
    }

    /// An exclusive end at the extreme of `i64` admits no integer; the
    /// opposite extremes, exclusive, admit every one but themselves.
    #[test]
    fn int_range_handles_exclusive_extremes() {
        let schema = Schema::from_pairs(&[("i", DataType::Int)]);
        let table = Table::new("t", schema);
        let range = |low, high| {
            let pred = LocalPredicate {
                qun: 0,
                column: ColumnId(0),
                kind: PredKind::Interval(Interval { low, high }),
            };
            int_range(&table, &pred)
        };
        let ex = |x| Bound::Exclusive(Value::Int(x));
        let empty = |r: Option<(i64, i64)>| r.is_some_and(|(lo, hi)| lo > hi);
        assert!(empty(range(ex(i64::MAX), Bound::Unbounded)));
        assert!(empty(range(Bound::Unbounded, ex(i64::MIN))));
        assert_eq!(
            range(ex(i64::MIN), ex(i64::MAX)),
            Some((i64::MIN + 1, i64::MAX - 1))
        );
        assert_eq!(
            range(Bound::Unbounded, Bound::Unbounded),
            Some((i64::MIN, i64::MAX))
        );
        assert_eq!(range(ex(1), Bound::Inclusive(Value::Float(2.0))), None);
    }
}

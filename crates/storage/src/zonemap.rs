//! Per-block zone maps and block skip lists (stats-driven data skipping).
//!
//! Each table's row space is partitioned into fixed-size blocks of
//! [`BLOCK_SIZE`] consecutive `RowId` slots. For every block and column the
//! table maintains a [`ColumnZone`] — min/max over the non-NULL values ever
//! stored in the block plus an exact NULL count — and per block an exact
//! live-row count. A scan with interval predicates consults the zones to
//! build a [`BlockSkipList`]: the set of blocks that *may* contain a
//! matching row. Pruned blocks provably contain none, so a scan over the
//! surviving blocks returns exactly the rows of a full scan.
//!
//! # Maintenance and conservatism
//!
//! Zones are updated incrementally, O(#columns) per mutation, by the table
//! mutators — always *after* the table's `mutation_epoch` tick, so
//! anything versioned against the epoch (cached samples) can never
//! observe a new summary under an old epoch. Min/max only ever widen:
//! deletes and overwrites leave them in place, so a zone may cover values
//! no longer present (pruning less than possible) but never misses a value
//! that is present (pruning is always sound). NULL counts and live-row
//! counts are exact because every mutator knows the old value it replaces.
//!
//! # Determinism
//!
//! Zone state is a pure function of the mutation history, and
//! [`ZoneMaps::skip_list`] walks blocks in ascending order, so the skip
//! list — and everything charged or recorded from it — is bit-identical
//! across executors, `collect_threads`, and the `data_skipping` knob.

use crate::row::RowId;
use jits_common::{Bound, ColumnId, Interval, Value};
use std::cmp::Ordering;

/// Rows per zone-map block. Fixed so block boundaries (and therefore skip
/// lists) never depend on load order or table size.
pub const BLOCK_SIZE: usize = 1024;

/// The block index a row slot belongs to.
#[inline]
pub fn block_of(row: RowId) -> usize {
    row as usize / BLOCK_SIZE
}

/// Min/max/NULL summary of one column over one block.
#[derive(Debug, Clone, Default)]
pub struct ColumnZone {
    /// Smallest non-NULL value ever stored in the block (widen-only).
    min: Option<Value>,
    /// Largest non-NULL value ever stored in the block (widen-only).
    max: Option<Value>,
    /// Exact NULL count among the block's *live* rows.
    nulls: u32,
}

impl ColumnZone {
    /// Widens the min/max envelope to cover `v` (no-op for NULL).
    fn widen(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match &self.min {
            Some(m) if m.cmp_total(v) != Ordering::Greater => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.cmp_total(v) != Ordering::Less => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Smallest non-NULL value ever stored in the block.
    pub fn min(&self) -> Option<&Value> {
        self.min.as_ref()
    }

    /// Largest non-NULL value ever stored in the block.
    pub fn max(&self) -> Option<&Value> {
        self.max.as_ref()
    }

    /// NULL count among the block's live rows.
    pub fn nulls(&self) -> u32 {
        self.nulls
    }

    /// Whether the interval can possibly match a non-NULL value of this
    /// zone. Conservative: incomparable bounds (type confusion) keep the
    /// block.
    fn may_match(&self, iv: &Interval) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // no non-NULL value was ever stored: nothing an interval
            // predicate could match
            return false;
        };
        // interval entirely above the zone's max?
        match &iv.low {
            Bound::Inclusive(v) => {
                if v.try_cmp(max) == Some(Ordering::Greater) {
                    return false;
                }
            }
            Bound::Exclusive(v) => {
                if matches!(
                    v.try_cmp(max),
                    Some(Ordering::Greater) | Some(Ordering::Equal)
                ) {
                    return false;
                }
            }
            Bound::Unbounded => {}
        }
        // interval entirely below the zone's min?
        match &iv.high {
            Bound::Inclusive(v) => {
                if v.try_cmp(min) == Some(Ordering::Less) {
                    return false;
                }
            }
            Bound::Exclusive(v) => {
                if matches!(v.try_cmp(min), Some(Ordering::Less) | Some(Ordering::Equal)) {
                    return false;
                }
            }
            Bound::Unbounded => {}
        }
        true
    }
}

/// One block's summary: exact live-row count plus one zone per column.
#[derive(Debug, Clone)]
pub struct BlockZone {
    /// Live (non-tombstoned) rows in the block (exact).
    live_rows: u32,
    cols: Vec<ColumnZone>,
}

/// All block summaries of one table.
#[derive(Debug, Clone)]
pub struct ZoneMaps {
    ncols: usize,
    blocks: Vec<BlockZone>,
}

/// The outcome of pruning one scan against a table's zone maps: which
/// blocks survive and the exact bookkeeping both executors charge from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSkipList {
    /// Blocks the table currently spans.
    pub blocks_total: usize,
    /// Indices of blocks that may contain a matching row, ascending.
    pub survivors: Vec<u32>,
    /// Exact live rows across the surviving blocks — the row work a
    /// pruned scan is charged for, whether or not it physically skips.
    pub surviving_rows: u64,
}

impl BlockSkipList {
    /// Blocks proven to contain no matching row.
    pub fn blocks_pruned(&self) -> usize {
        self.blocks_total - self.survivors.len()
    }
}

/// Raw state of one table's zone maps, produced by [`ZoneMaps::snapshot`].
/// Zones are widen-only (deleted values keep widening history), so they are
/// a function of the full mutation history and cannot be recomputed from
/// live rows — a checkpoint must carry them verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSnapshot {
    /// Column count of the owning table.
    pub ncols: usize,
    /// Per block: exact live-row count, then per column zone.
    pub blocks: Vec<(u32, Vec<ZoneBounds>)>,
}

/// One column's zone in a [`ZoneSnapshot`]: `(min, max, null_count)`.
pub type ZoneBounds = (Option<Value>, Option<Value>, u32);

impl ZoneMaps {
    /// Empty zone maps for a table of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        ZoneMaps {
            ncols,
            blocks: Vec::new(),
        }
    }

    /// Raw state dump for checkpointing.
    pub fn snapshot(&self) -> ZoneSnapshot {
        ZoneSnapshot {
            ncols: self.ncols,
            blocks: self
                .blocks
                .iter()
                .map(|b| {
                    (
                        b.live_rows,
                        b.cols
                            .iter()
                            .map(|c| (c.min.clone(), c.max.clone(), c.nulls))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// Rebuilds zone maps from a [`ZoneMaps::snapshot`], field for field.
    pub fn from_snapshot(s: ZoneSnapshot) -> ZoneMaps {
        ZoneMaps {
            ncols: s.ncols,
            blocks: s
                .blocks
                .into_iter()
                .map(|(live_rows, cols)| BlockZone {
                    live_rows,
                    cols: cols
                        .into_iter()
                        .map(|(min, max, nulls)| ColumnZone { min, max, nulls })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Column count of the owning table.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Every block in order: its live-row count and one zone per column
    /// (what [`ZoneMaps::snapshot`] copies, borrowed).
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = (u32, &[ColumnZone])> + '_ {
        self.blocks.iter().map(|b| (b.live_rows, b.cols.as_slice()))
    }

    /// Number of blocks the table's slot space currently spans.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Exact live rows in block `b` (0 for out-of-range blocks).
    pub fn live_rows(&self, b: usize) -> usize {
        self.blocks.get(b).map_or(0, |z| z.live_rows as usize)
    }

    /// Exact NULL count of `column` among block `b`'s live rows.
    pub fn nulls(&self, b: usize, column: ColumnId) -> usize {
        self.blocks
            .get(b)
            .and_then(|z| z.cols.get(column.index()))
            .map_or(0, |c| c.nulls as usize)
    }

    fn block_mut(&mut self, b: usize) -> &mut BlockZone {
        while self.blocks.len() <= b {
            self.blocks.push(BlockZone {
                live_rows: 0,
                cols: vec![ColumnZone::default(); self.ncols],
            });
        }
        &mut self.blocks[b]
    }

    /// Accounts a freshly inserted row (one value per column).
    pub fn note_insert(&mut self, row: RowId, values: &[Value]) {
        debug_assert_eq!(values.len(), self.ncols);
        let zone = self.block_mut(block_of(row));
        zone.live_rows += 1;
        for (cz, v) in zone.cols.iter_mut().zip(values) {
            if v.is_null() {
                cz.nulls += 1;
            } else {
                cz.widen(v);
            }
        }
    }

    /// Accounts a tombstoned row; `was_null` yields, per column in schema
    /// order, whether the row held NULL there. Min/max stay put
    /// (widen-only).
    pub fn note_delete(&mut self, row: RowId, was_null: impl IntoIterator<Item = bool>) {
        let zone = self.block_mut(block_of(row));
        zone.live_rows -= 1;
        let mut flags = 0;
        for (cz, null) in zone.cols.iter_mut().zip(was_null) {
            flags += 1;
            if null {
                cz.nulls -= 1;
            }
        }
        debug_assert_eq!(flags, self.ncols, "one NULL flag per column");
    }

    /// Accounts an in-place overwrite of one cell.
    pub fn note_update(&mut self, row: RowId, column: ColumnId, was_null: bool, new: &Value) {
        let zone = self.block_mut(block_of(row));
        let cz = &mut zone.cols[column.index()];
        match (was_null, new.is_null()) {
            (true, false) => cz.nulls -= 1,
            (false, true) => cz.nulls += 1,
            _ => {}
        }
        cz.widen(new);
    }

    /// Prunes the table's blocks against a conjunction of per-column
    /// interval constraints. With no constraints every non-empty block
    /// survives (a pruned scan degenerates to a full scan plus metadata
    /// probes).
    pub fn skip_list(&self, constraints: &[(ColumnId, Interval)]) -> BlockSkipList {
        let mut survivors = Vec::new();
        let mut surviving_rows = 0u64;
        for (b, zone) in self.blocks.iter().enumerate() {
            if zone.live_rows == 0 {
                continue;
            }
            let survives = constraints.iter().all(|(cid, iv)| {
                let cz = &zone.cols[cid.index()];
                // an interval predicate never matches NULL, so a block
                // whose live rows are all NULL in this column is prunable
                u64::from(cz.nulls) < u64::from(zone.live_rows) && cz.may_match(iv)
            });
            if survives {
                survivors.push(b as u32);
                surviving_rows += u64::from(zone.live_rows);
            }
        }
        BlockSkipList {
            blocks_total: self.blocks.len(),
            survivors,
            surviving_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// 3 blocks of sequential ids: block b holds b*BLOCK_SIZE..(b+1)*BLOCK_SIZE.
    fn sequential(nblocks: usize) -> ZoneMaps {
        let mut z = ZoneMaps::new(1);
        for r in 0..nblocks * BLOCK_SIZE {
            z.note_insert(r as RowId, &[int(r as i64)]);
        }
        z
    }

    #[test]
    fn point_predicate_prunes_to_one_block() {
        let z = sequential(3);
        let skip = z.skip_list(&[(ColumnId(0), Interval::point(int(2048)))]);
        assert_eq!(skip.blocks_total, 3);
        assert_eq!(skip.survivors, vec![2]);
        assert_eq!(skip.blocks_pruned(), 2);
        assert_eq!(skip.surviving_rows, BLOCK_SIZE as u64);
    }

    #[test]
    fn range_predicate_keeps_straddling_blocks() {
        let z = sequential(3);
        let skip = z.skip_list(&[(ColumnId(0), Interval::between(int(1000), int(1100)))]);
        assert_eq!(skip.survivors, vec![0, 1]);
    }

    #[test]
    fn exclusive_bounds_prune_boundary_blocks() {
        let z = sequential(2);
        // x > max of block 0 (=1023): block 0 is prunable only with the
        // exclusive comparison
        let skip = z.skip_list(&[(ColumnId(0), Interval::at_least(int(1023), false))]);
        assert_eq!(skip.survivors, vec![1]);
        let skip = z.skip_list(&[(ColumnId(0), Interval::at_least(int(1023), true))]);
        assert_eq!(skip.survivors, vec![0, 1]);
    }

    #[test]
    fn no_constraints_keeps_everything() {
        let z = sequential(2);
        let skip = z.skip_list(&[]);
        assert_eq!(skip.survivors, vec![0, 1]);
        assert_eq!(skip.surviving_rows, 2 * BLOCK_SIZE as u64);
    }

    #[test]
    fn all_null_block_is_pruned() {
        let mut z = ZoneMaps::new(1);
        for r in 0..10 {
            z.note_insert(r, &[Value::Null]);
        }
        let skip = z.skip_list(&[(ColumnId(0), Interval::at_least(int(0), true))]);
        assert!(skip.survivors.is_empty());
        assert_eq!(skip.blocks_total, 1);
    }

    #[test]
    fn delete_and_update_keep_counts_exact() {
        let mut z = ZoneMaps::new(1);
        z.note_insert(0, &[int(5)]);
        z.note_insert(1, &[Value::Null]);
        assert_eq!(z.live_rows(0), 2);
        assert_eq!(z.nulls(0, ColumnId(0)), 1);
        // NULL -> value
        z.note_update(1, ColumnId(0), true, &int(7));
        assert_eq!(z.nulls(0, ColumnId(0)), 0);
        // value -> NULL
        z.note_update(0, ColumnId(0), false, &Value::Null);
        assert_eq!(z.nulls(0, ColumnId(0)), 1);
        // delete the NULL row
        z.note_delete(0, [true]);
        assert_eq!(z.live_rows(0), 1);
        assert_eq!(z.nulls(0, ColumnId(0)), 0);
    }

    #[test]
    fn minmax_widen_only_is_conservative() {
        let mut z = ZoneMaps::new(1);
        z.note_insert(0, &[int(100)]);
        z.note_insert(1, &[int(200)]);
        z.note_delete(1, [false]);
        // 200 is gone but the envelope still covers it: block survives
        // (conservative), never wrongly pruned
        let skip = z.skip_list(&[(ColumnId(0), Interval::point(int(200)))]);
        assert_eq!(skip.survivors, vec![0]);
        // values outside the widened envelope still prune
        let skip = z.skip_list(&[(ColumnId(0), Interval::point(int(300)))]);
        assert!(skip.survivors.is_empty());
    }

    #[test]
    fn empty_blocks_are_skipped() {
        let mut z = ZoneMaps::new(1);
        z.note_insert(0, &[int(1)]);
        z.note_delete(0, [false]);
        let skip = z.skip_list(&[]);
        assert!(skip.survivors.is_empty());
        assert_eq!(skip.blocks_total, 1);
    }

    #[test]
    fn string_zones_prune_lexicographically() {
        let mut z = ZoneMaps::new(1);
        z.note_insert(0, &[Value::str("Audi")]);
        z.note_insert(1, &[Value::str("Honda")]);
        let keep = z.skip_list(&[(ColumnId(0), Interval::point(Value::str("Honda")))]);
        assert_eq!(keep.survivors, vec![0]);
        let prune = z.skip_list(&[(ColumnId(0), Interval::point(Value::str("Toyota")))]);
        assert!(prune.survivors.is_empty());
    }
}

//! Tables: column vectors + tombstones + UDI counters + indexes.
//!
//! Each indexed column has one [`Index`]; every mutation updates it in the
//! same step as the column, so a key's posting list is always in the order
//! the table's inserts, deletes and updates made it.

use crate::column::{Column, StrCodes};
use crate::index::Index;
use crate::row::{Row, RowId};
use crate::udi::UdiCounter;
use crate::zonemap::{BlockSkipList, ZoneMaps, ZoneSnapshot, BLOCK_SIZE};
use jits_common::{ColumnId, Interval, JitsError, Result, Schema, Value, ValueRef};
use std::collections::BTreeMap;

/// Raw state of one table, produced by [`Table::snapshot`] for
/// checkpointing. Everything history-dependent travels verbatim: dead
/// slots (row ids must stay stable), the UDI triple, the lifetime
/// mutation epoch (versions cached samples), per-key index row order
/// (chronological append / `swap_remove` state), and the widen-only zone
/// envelopes, so [`Table::from_snapshot`] reproduces the table
/// bit-identically for every observable API.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Schema,
    /// Every physical slot in `RowId` order: the row's values and its
    /// live flag (dead slots keep their last values).
    pub slots: Vec<(Vec<Value>, bool)>,
    /// UDI counters as `(inserts, updates, deletes)`.
    pub udi: (u64, u64, u64),
    /// Lifetime mutation epoch.
    pub epoch: u64,
    /// Indexed columns with their entries in
    /// [`Index::entries_in_order`] order.
    pub indexes: Vec<(ColumnId, IndexEntries)>,
    /// Per-block zone-map state.
    pub zones: ZoneSnapshot,
}

/// One index of a [`TableSnapshot`]: each key with its posting list.
pub type IndexEntries = Vec<(Value, Vec<RowId>)>;

/// An in-memory table.
///
/// Rows are appended; DELETE tombstones rows in place so [`RowId`]s stay
/// stable for indexes and samples. All mutations tick the [`UdiCounter`].
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    live: Vec<bool>,
    live_count: usize,
    udi: UdiCounter,
    /// Total mutations over the table's lifetime. Unlike the UDI counter it
    /// is *never* reset, so cached artifacts (samples) can be versioned
    /// against it without racing statistics collection's `reset_udi`.
    epoch: u64,
    /// Keyed by `BTreeMap`: index maintenance and [`Table::indexed_columns`]
    /// iterate this map, and their order must not depend on hash state.
    indexes: BTreeMap<ColumnId, Index>,
    /// Per-block zone maps (min/max/NULLs per column, live rows per
    /// block), updated under the same epoch tick as the data they
    /// summarize.
    zones: ZoneMaps,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::new(c.dtype))
            .collect();
        let ncols = schema.len();
        Table {
            name: name.into(),
            schema,
            columns,
            live: Vec::new(),
            live_count: 0,
            udi: UdiCounter::new(),
            epoch: 0,
            indexes: BTreeMap::new(),
            zones: ZoneMaps::new(ncols),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live (non-deleted) rows.
    pub fn row_count(&self) -> usize {
        self.live_count
    }

    /// Number of physical slots, including tombstones. `RowId`s range over
    /// `0..slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// True if the row id refers to a live row.
    #[inline]
    pub fn is_live(&self, row: RowId) -> bool {
        self.live.get(row as usize).copied().unwrap_or(false)
    }

    /// The UDI activity counter.
    pub fn udi(&self) -> &UdiCounter {
        &self.udi
    }

    /// Resets UDI counters; called by statistics collection. The mutation
    /// epoch is deliberately untouched — it versions cached samples across
    /// collections.
    pub fn reset_udi(&mut self) {
        self.udi.reset();
    }

    /// Lifetime mutation count (never reset). Two equal epochs guarantee the
    /// table's live set and cell values are unchanged between the readings.
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts a row (one value per schema column) and returns its id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        if row.len() != self.schema.len() {
            return Err(JitsError::Execution(format!(
                "INSERT into '{}' supplies {} values for {} columns",
                self.name,
                row.len(),
                self.schema.len()
            )));
        }
        let id = self.live.len() as RowId;
        // Validate all values first so a failed insert leaves columns
        // aligned; coercion works in place, so the row is never copied.
        let mut coerced = row;
        for (v, def) in coerced.iter_mut().zip(self.schema.columns()) {
            if !v.is_null() {
                *v = std::mem::replace(v, Value::Null).coerce(def.dtype)?;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "every value was coerced to its column's type above; a failure \
                      halfway would leave the columns misaligned"
        )]
        for (col, v) in self.columns.iter_mut().zip(coerced.iter()) {
            col.push(v).expect("values were coerced to the column type");
        }
        let before = self.epoch;
        self.live.push(true);
        self.live_count += 1;
        self.udi.inserts += 1;
        self.epoch += 1;
        for (cid, idx) in self.indexes.iter_mut() {
            idx.insert(&coerced[cid.index()], id);
        }
        // Block summaries are versioned by the mutation epoch: they must
        // only change under a fresh tick, or epoch-gated consumers
        // (SampleCache invalidation, skip lists) would read a new summary
        // against stale data.
        debug_assert!(self.epoch == before + 1, "epoch must tick before zones");
        self.zones.note_insert(id, &coerced);
        Ok(id)
    }

    /// Deletes a live row; returns whether anything was deleted.
    pub fn delete(&mut self, row: RowId) -> bool {
        let i = row as usize;
        if i >= self.live.len() || !self.live[i] {
            return false;
        }
        for (cid, idx) in self.indexes.iter_mut() {
            idx.remove(&self.columns[cid.index()].get(i), row);
        }
        let before = self.epoch;
        self.live[i] = false;
        self.live_count -= 1;
        self.udi.deletes += 1;
        self.epoch += 1;
        debug_assert!(self.epoch == before + 1, "epoch must tick before zones");
        // tombstoning leaves the cells in place, so the NULL flags stream
        // straight from the columns
        self.zones
            .note_delete(row, self.columns.iter().map(|c| !c.is_valid(i)));
        true
    }

    /// Updates one column of a live row, coercing `value` to the column
    /// type.
    pub fn update(&mut self, row: RowId, column: ColumnId, value: Value) -> Result<()> {
        let dtype = self.column_type(column)?;
        self.update_typed(row, column, &value.coerce(dtype)?)
    }

    /// [`Table::update`] for a value already of the column's type (or
    /// NULL) — what a bound `UPDATE` carries, so its write loop neither
    /// coerces nor clones per row. Any other type is rejected before
    /// anything is written.
    pub fn update_typed(&mut self, row: RowId, column: ColumnId, value: &Value) -> Result<()> {
        let i = row as usize;
        if !self.is_live(row) {
            return Err(JitsError::Execution(format!(
                "UPDATE of dead row {row} in '{}'",
                self.name
            )));
        }
        let dtype = self.column_type(column)?;
        if value.data_type().is_some_and(|t| t != dtype) {
            return Err(JitsError::TypeMismatch(format!(
                "cannot store {value} in {dtype} column {column} of '{}'",
                self.name
            )));
        }
        if let Some(idx) = self.indexes.get_mut(&column) {
            idx.remove(&self.columns[column.index()].get(i), row);
            idx.insert(value, row);
        }
        let was_null = !self.columns[column.index()].is_valid(i);
        self.columns[column.index()].set(i, value)?;
        let before = self.epoch;
        self.udi.updates += 1;
        self.epoch += 1;
        debug_assert!(self.epoch == before + 1, "epoch must tick before zones");
        self.zones.note_update(row, column, was_null, value);
        Ok(())
    }

    fn column_type(&self, column: ColumnId) -> Result<jits_common::DataType> {
        self.schema
            .column(column)
            .map(|c| c.dtype)
            .ok_or_else(|| JitsError::NotFound(format!("column {column} in '{}'", self.name)))
    }

    /// Reads one cell.
    pub fn value(&self, row: RowId, column: ColumnId) -> Value {
        self.columns[column.index()].get(row as usize)
    }

    /// Reads one cell in place ([`Table::value`] without the `Value`).
    #[inline]
    pub fn cell(&self, row: RowId, column: ColumnId) -> ValueRef<'_> {
        self.columns[column.index()].cell(row as usize)
    }

    /// Axis (numeric) projection of one cell, `None` for NULL.
    pub fn axis_value(&self, row: RowId, column: ColumnId) -> Option<f64> {
        self.columns[column.index()].axis_value(row as usize)
    }

    /// The dictionary encoding of a string column (`None` for other types).
    /// See [`crate::column`] for what a reader may do with codes.
    pub fn str_codes(&self, column: ColumnId) -> Option<StrCodes<'_>> {
        self.columns[column.index()].str_codes()
    }

    /// An integer column's slots in place, `(values, validity)` indexed by
    /// `RowId`, tombstoned slots included ([`Column::int_slots`]); `None`
    /// for other types and unknown columns.
    pub fn int_slots(&self, column: ColumnId) -> Option<(&[i64], &[bool])> {
        self.columns.get(column.index())?.int_slots()
    }

    /// Materializes a full row.
    pub fn row(&self, row: RowId) -> Row {
        self.columns.iter().map(|c| c.get(row as usize)).collect()
    }

    /// Iterator over live row ids.
    pub fn scan(&self) -> impl Iterator<Item = RowId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(i, _)| i as RowId)
    }

    /// Gathers the slots `rows` of one column into a dense typed
    /// [`FrameColumn`](crate::frame::FrameColumn), for an executor that
    /// reads the values out.
    pub fn gather_column(&self, column: ColumnId, rows: &[RowId]) -> crate::frame::FrameColumn {
        self.columns[column.index()].gather(rows)
    }

    /// Whether a live row satisfies a conjunction of per-column intervals.
    pub fn row_matches(&self, row: RowId, constraints: &[(ColumnId, Interval)]) -> bool {
        constraints
            .iter()
            .all(|(cid, iv)| iv.contains(&self.value(row, *cid)))
    }

    /// Builds (or rebuilds) a secondary index on `column`.
    pub fn create_index(&mut self, column: ColumnId) -> Result<()> {
        let mut idx = Index::new(self.column_type(column)?);
        for row in self.scan() {
            idx.insert(&self.value(row, column), row);
        }
        self.indexes.insert(column, idx);
        Ok(())
    }

    /// The index on `column`, if one exists.
    pub fn index(&self, column: ColumnId) -> Option<&Index> {
        self.indexes.get(&column)
    }

    /// Every secondary index with its column, in column order.
    pub fn indexes(&self) -> impl ExactSizeIterator<Item = (ColumnId, &Index)> + '_ {
        self.indexes.iter().map(|(cid, idx)| (*cid, idx))
    }

    /// The index on `column` under the name of its point-probe path: the
    /// same [`Index`] as [`Table::index`], whose `lookup_eq` probes its
    /// hash map.
    pub fn hash_index(&self, column: ColumnId) -> Option<&Index> {
        self.index(column)
    }

    /// The table's per-block zone maps.
    pub fn zone_maps(&self) -> &ZoneMaps {
        &self.zones
    }

    /// Prunes the table's blocks against per-column interval constraints
    /// (see [`ZoneMaps::skip_list`]).
    pub fn skip_list(&self, constraints: &[(ColumnId, Interval)]) -> BlockSkipList {
        self.zones.skip_list(constraints)
    }

    /// Zone-map block `b`'s slots: the row id of its first slot and each
    /// slot's live flag (no slots past the last block).
    pub fn block_slots(&self, b: usize) -> (RowId, &[bool]) {
        let lo = b.saturating_mul(BLOCK_SIZE).min(self.live.len());
        let hi = lo.saturating_add(BLOCK_SIZE).min(self.live.len());
        (lo as RowId, &self.live[lo..hi])
    }

    /// Columns that currently have secondary indexes.
    pub fn indexed_columns(&self) -> Vec<ColumnId> {
        let mut cols: Vec<ColumnId> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Raw state dump for checkpointing. Dead-slot cell values are read
    /// through [`Column::get`], which canonicalizes invalid slots to
    /// `Value::Null` — the only forms any reader of this table observes.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            name: self.name.clone(),
            schema: self.schema.clone(),
            slots: (0..self.live.len())
                .map(|i| {
                    (
                        self.columns.iter().map(|c| c.get(i)).collect(),
                        self.live[i],
                    )
                })
                .collect(),
            udi: (self.udi.inserts, self.udi.updates, self.udi.deletes),
            epoch: self.epoch,
            indexes: self
                .indexes
                .iter()
                .map(|(cid, idx)| {
                    (
                        *cid,
                        idx.entries_in_order()
                            .map(|(v, rows)| (Value::from(v), rows.to_vec()))
                            .collect(),
                    )
                })
                .collect(),
            zones: self.zones.snapshot(),
        }
    }

    /// Rebuilds a table from a [`Table::snapshot`]. Slots are pushed
    /// directly into the column vectors (no epoch ticks, no index or zone
    /// maintenance — those travel in the snapshot verbatim), then each
    /// index is rebuilt by re-inserting the snapshot's entries in stored
    /// order, which reproduces its posting lists exactly.
    pub fn from_snapshot(s: TableSnapshot) -> Result<Table> {
        let ncols = s.schema.len();
        let mut t = Table::new(s.name, s.schema);
        for (row, live) in s.slots {
            if row.len() != ncols {
                return Err(JitsError::Recovery(format!(
                    "table '{}' snapshot slot has {} values for {} columns",
                    t.name,
                    row.len(),
                    ncols
                )));
            }
            for (col, v) in t.columns.iter_mut().zip(&row) {
                col.push(v).map_err(|e| {
                    JitsError::Recovery(format!(
                        "table '{}' snapshot value does not fit its column: {e}",
                        t.name
                    ))
                })?;
            }
            t.live.push(live);
            if live {
                t.live_count += 1;
            }
        }
        t.udi.inserts = s.udi.0;
        t.udi.updates = s.udi.1;
        t.udi.deletes = s.udi.2;
        t.epoch = s.epoch;
        for (cid, entries) in s.indexes {
            let mut idx = Index::new(
                t.column_type(cid)
                    .map_err(|e| JitsError::Recovery(format!("index of '{}': {e}", t.name)))?,
            );
            for (v, rows) in entries {
                for r in rows {
                    idx.insert(&v, r);
                }
            }
            t.indexes.insert(cid, idx);
        }
        t.zones = ZoneMaps::from_snapshot(s.zones);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::DataType;

    fn cars() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let mut t = Table::new("car", schema);
        for (id, make, year) in [
            (1i64, "Toyota", 2001i64),
            (2, "Toyota", 2003),
            (3, "Honda", 2001),
            (4, "Audi", 2005),
        ] {
            t.insert(vec![Value::Int(id), Value::str(make), Value::Int(year)])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_scan_and_counts() {
        let t = cars();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.scan().count(), 4);
        assert_eq!(t.udi().inserts, 4);
        assert_eq!(t.value(0, ColumnId(1)), Value::str("Toyota"));
    }

    #[test]
    fn insert_arity_mismatch() {
        let mut t = cars();
        assert!(t.insert(vec![Value::Int(9)]).is_err());
        assert_eq!(t.row_count(), 4, "failed insert must not add a row");
    }

    #[test]
    fn insert_type_mismatch_keeps_columns_aligned() {
        let mut t = cars();
        let err = t.insert(vec![Value::str("x"), Value::str("y"), Value::Int(1)]);
        assert!(err.is_err());
        assert_eq!(t.slot_count(), 4);
        // subsequent valid insert still works
        t.insert(vec![Value::Int(5), Value::str("BMW"), Value::Int(2000)])
            .unwrap();
        assert_eq!(t.value(4, ColumnId(1)), Value::str("BMW"));
    }

    #[test]
    fn delete_tombstones() {
        let mut t = cars();
        assert!(t.delete(1));
        assert!(!t.delete(1), "double delete is a no-op");
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.slot_count(), 4, "slots are not compacted");
        assert!(!t.is_live(1));
        assert_eq!(t.scan().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(t.udi().deletes, 1);
    }

    #[test]
    fn update_changes_value_and_udi() {
        let mut t = cars();
        t.update(0, ColumnId(2), Value::Int(2010)).unwrap();
        assert_eq!(t.value(0, ColumnId(2)), Value::Int(2010));
        assert_eq!(t.udi().updates, 1);
        assert!(t.update(99, ColumnId(2), Value::Int(1)).is_err());
    }

    #[test]
    fn row_matches_constraints() {
        let t = cars();
        let cs = vec![
            (ColumnId(1), Interval::point(Value::str("Toyota"))),
            (ColumnId(2), Interval::at_least(Value::Int(2002), true)),
        ];
        let matches: Vec<RowId> = t.scan().filter(|r| t.row_matches(*r, &cs)).collect();
        assert_eq!(matches, vec![1]);
    }

    #[test]
    fn index_maintenance_through_dml() {
        let mut t = cars();
        t.create_index(ColumnId(1)).unwrap();
        assert_eq!(
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
            &[0, 1]
        );

        t.insert(vec![Value::Int(5), Value::str("Toyota"), Value::Int(1999)])
            .unwrap();
        assert_eq!(
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
            &[0, 1, 4]
        );

        t.delete(0);
        assert_eq!(
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
            &[4, 1]
        );

        t.update(1, ColumnId(1), Value::str("Honda")).unwrap();
        assert_eq!(
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
            &[4]
        );
        assert_eq!(
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Honda")),
            &[2, 1]
        );
        assert_eq!(t.indexed_columns(), vec![ColumnId(1)]);
    }

    #[test]
    fn reset_udi() {
        let mut t = cars();
        assert!(t.udi().total() > 0);
        t.reset_udi();
        assert_eq!(t.udi().total(), 0);
    }

    #[test]
    fn zone_maps_track_dml() {
        let mut t = cars();
        assert_eq!(t.zone_maps().block_count(), 1);
        assert_eq!(t.zone_maps().live_rows(0), 4);
        // year in [2001, 2005]: a disjoint predicate prunes the block
        let skip = t.skip_list(&[(ColumnId(2), Interval::at_least(Value::Int(2006), true))]);
        assert!(skip.survivors.is_empty());
        assert_eq!(skip.blocks_total, 1);
        let keep = t.skip_list(&[(ColumnId(2), Interval::point(Value::Int(2003)))]);
        assert_eq!(keep.survivors, vec![0]);
        assert_eq!(keep.surviving_rows, 4);
        // an update widens the envelope
        t.update(0, ColumnId(2), Value::Int(2010)).unwrap();
        let keep = t.skip_list(&[(ColumnId(2), Interval::at_least(Value::Int(2006), true))]);
        assert_eq!(keep.survivors, vec![0]);
        // deletes keep live counts exact
        t.delete(0);
        t.delete(1);
        assert_eq!(t.zone_maps().live_rows(0), 2);
        let keep = t.skip_list(&[(ColumnId(2), Interval::point(Value::Int(2001)))]);
        assert_eq!(keep.surviving_rows, 2);
    }

    #[test]
    fn zone_null_counts_stay_exact() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Int)]);
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Int(0), Value::Null]).unwrap();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(t.zone_maps().nulls(0, ColumnId(1)), 2);
        // all live rows NULL in x: any interval on x prunes the block
        let skip = t.skip_list(&[(ColumnId(1), Interval::at_least(Value::Int(0), true))]);
        assert!(skip.survivors.is_empty());
        t.update(0, ColumnId(1), Value::Int(7)).unwrap();
        assert_eq!(t.zone_maps().nulls(0, ColumnId(1)), 1);
        let keep = t.skip_list(&[(ColumnId(1), Interval::point(Value::Int(7)))]);
        assert_eq!(keep.survivors, vec![0]);
        t.delete(1);
        assert_eq!(t.zone_maps().nulls(0, ColumnId(1)), 0);
    }

    #[test]
    fn block_slots_partition_the_scan() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..2500i64 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        t.delete(100);
        t.delete(1500);
        let via_blocks: Vec<RowId> = (0..t.zone_maps().block_count())
            .flat_map(|b| {
                let (first, live) = t.block_slots(b);
                (first..).zip(live).filter(|(_, l)| **l).map(|(r, _)| r)
            })
            .collect();
        assert_eq!(via_blocks, t.scan().collect::<Vec<_>>());
        assert_eq!(t.zone_maps().block_count(), 3);
        assert_eq!(t.block_slots(2), (2048, &[true; 452][..]));
        assert_eq!(t.block_slots(3).1.len(), 0, "past the last block");
    }

    #[test]
    fn point_probes_and_ranges_agree_through_dml() {
        let mut t = cars();
        t.create_index(ColumnId(1)).unwrap();
        t.create_index(ColumnId(2)).unwrap();
        t.insert(vec![Value::Int(5), Value::str("Toyota"), Value::Int(1999)])
            .unwrap();
        t.delete(0);
        t.update(1, ColumnId(1), Value::str("Honda")).unwrap();
        t.update(2, ColumnId(2), Value::Null).unwrap();
        let makes = t.index(ColumnId(1)).unwrap();
        for make in ["Toyota", "Honda", "Audi", "BMW"] {
            let v = Value::str(make);
            let point = makes.lookup_range(&Interval::point(v.clone()));
            assert_eq!(makes.lookup_eq(&v), &point[..], "{make}");
        }
        let years = t.index(ColumnId(2)).unwrap();
        assert_eq!(years.lookup_int(2003), &[1]);
        assert!(
            years.lookup_int(2001).is_empty(),
            "row 0 deleted, row 2 NULL"
        );
        assert_eq!(years.len(), 3, "the NULL is not indexed");
        assert_eq!(
            years.lookup_range(&Interval::at_most(Value::Float(2004.5), true)),
            vec![4, 1]
        );
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut t = cars();
        t.create_index(ColumnId(1)).unwrap();
        // Exercise every history-dependent feature: widened zones, a
        // tombstone, swap_remove'd index vectors, a NULL cell.
        t.insert(vec![Value::Int(5), Value::str("Toyota"), Value::Int(1999)])
            .unwrap();
        t.update(0, ColumnId(2), Value::Int(2010)).unwrap();
        t.update(2, ColumnId(1), Value::Null).unwrap();
        t.delete(1);
        let snap = t.snapshot();
        let r = Table::from_snapshot(snap.clone()).unwrap();
        assert_eq!(r.snapshot(), snap, "snapshot of the restore must match");
        assert_eq!(r.name(), t.name());
        assert_eq!(r.row_count(), t.row_count());
        assert_eq!(r.slot_count(), t.slot_count());
        assert_eq!(r.mutation_epoch(), t.mutation_epoch());
        assert_eq!(r.udi().inserts, t.udi().inserts);
        assert_eq!(r.udi().updates, t.udi().updates);
        assert_eq!(r.udi().deletes, t.udi().deletes);
        for i in 0..t.slot_count() as RowId {
            assert_eq!(r.is_live(i), t.is_live(i));
            assert_eq!(r.row(i), t.row(i), "slot {i} (dead slots included)");
        }
        // per-key index row order survives (swap_remove left [4, 0])
        assert_eq!(
            r.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
            t.index(ColumnId(1))
                .unwrap()
                .lookup_eq(&Value::str("Toyota")),
        );
        // widen-only zone envelope survives even though row 0 was updated
        let skip = r.skip_list(&[(ColumnId(2), Interval::at_least(Value::Int(2006), true))]);
        assert_eq!(skip.survivors, vec![0]);
        assert_eq!(
            r.zone_maps().snapshot(),
            t.zone_maps().snapshot(),
            "zone state is carried verbatim"
        );
    }

    #[test]
    fn mutation_epoch_survives_udi_reset() {
        let mut t = cars();
        assert_eq!(t.mutation_epoch(), 4, "one tick per insert");
        t.reset_udi();
        assert_eq!(t.mutation_epoch(), 4, "epoch is never reset");
        t.update(0, ColumnId(2), Value::Int(2010)).unwrap();
        t.delete(1);
        assert_eq!(t.mutation_epoch(), 6);
        assert!(!t.delete(1), "no-op delete must not tick the epoch");
        assert_eq!(t.mutation_epoch(), 6);
    }
}

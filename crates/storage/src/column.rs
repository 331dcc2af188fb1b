//! Typed column vectors.
//!
//! Integer and float columns are plain vectors. A string column is
//! **dictionary-encoded**: `codes: Vec<u32>` per slot pointing into a
//! per-column, append-only `StrDict` — the distinct strings in first-write
//! order, each with its cached `lex_code` axis position, plus a `&str →
//! code` index (a [`ChainTable`] over the strings' [`fast_hash`]). Code 0
//! is NULL; code `c > 0` is `entries[c - 1]`. A repeated string therefore
//! costs four bytes a slot and no `Arc` bump, and a predicate on the
//! column can be decided once per distinct string ([`StrCodes`]) instead
//! of once per row.
//!
//! Codes are private to storage in the sense that matters: every read
//! ([`Column::get`], [`Column::axis_value`], the gathers behind
//! [`crate::Table::gather_column`], snapshots) returns the string, never
//! the code, and recovery re-interns in slot order, so the same data may
//! carry other codes after a restart. Readers of [`StrCodes`] may compare
//! codes for equality and index tables with them, but no result order,
//! charge, plan or statistic may depend on a code's value.

#![deny(clippy::indexing_slicing)]

use jits_common::{fast_hash, ChainTable, DataType, JitsError, Result, Value, ValueRef};
use std::sync::Arc;

/// A typed column vector with per-slot validity.
///
/// NULLs are stored as a parallel validity bitmap; slot payloads for NULL
/// entries are the type's default (code 0 for strings) and must never be
/// observed through the public API.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Vec<bool>,
}

#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str { codes: Vec<u32>, dict: StrDict },
}

/// The append-only dictionary of one string column (see module docs).
/// Entries are never removed or renumbered while the column lives, so a
/// code read once stays valid for the column's lifetime.
#[derive(Debug, Clone, Default)]
struct StrDict {
    /// Distinct strings; code `c` names `entries[c - 1]`.
    entries: Vec<Arc<str>>,
    /// `lex_code(entries[i])`, computed once at intern time.
    lex: Vec<f64>,
    /// The entries' bytes back to back, entry `i` ending at `ends[i]`.
    /// Interning compares against this dense copy: after a bulk load the
    /// entries' own `Arc`s lie wherever the allocator put them, and
    /// chasing one per stored cell costs a cache miss per inserted string.
    bytes: String,
    ends: Vec<usize>,
    /// Entry indexes chained by string hash: growing the dictionary
    /// rehashes `u64`s, never the strings.
    index: ChainTable,
}

impl StrDict {
    /// The code of `s`, adding it (one `Arc` bump) if it is new.
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        let h = fast_hash(&**s);
        if let Some(e) = self
            .index
            .chain(h)
            .find(|&e| self.entry_str(e) == Some(&**s))
        {
            return e as u32 + 1;
        }
        self.index.append(h, self.entries.len());
        self.entries.push(Arc::clone(s));
        self.lex.push(jits_common::value::lex_code(s));
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
        self.entries.len() as u32
    }

    /// Entry `e`'s string, read from the dense copy.
    fn entry_str(&self, e: usize) -> Option<&str> {
        let start = match e.checked_sub(1) {
            Some(p) => *self.ends.get(p)?,
            None => 0,
        };
        self.bytes.get(start..*self.ends.get(e)?)
    }

    /// The string and cached `lex_code` that `code` names; `None` for
    /// NULL (code 0).
    fn entry(&self, code: u32) -> Option<(&Arc<str>, f64)> {
        let e = (code as usize).checked_sub(1)?;
        Some((self.entries.get(e)?, *self.lex.get(e)?))
    }
}

/// A string column's dictionary encoding, borrowed from the column:
/// `codes[slot]` is 0 for NULL and `c` for the string `entries[c - 1]`, and
/// every code is at most `entries.len()`. See the module docs for what a
/// reader may and may not do with a code.
#[derive(Debug, Clone, Copy)]
pub struct StrCodes<'a> {
    /// One code per slot, tombstoned slots included.
    pub codes: &'a [u32],
    /// The dictionary, in code order (append-only, never deduplicated
    /// against dead slots: an entry may be referenced by no live row).
    pub entries: &'a [Arc<str>],
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        Self::with_capacity(dtype, 0)
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str {
                codes: Vec::with_capacity(cap),
                dict: StrDict::default(),
            },
        };
        Column {
            data,
            validity: Vec::with_capacity(cap),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Number of slots (including tombstoned rows — the table tracks
    /// liveness, not the column).
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if no slots exist.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Appends a value, coercing compatible types (Int into Float columns).
    /// Takes the value by reference: a string already in the dictionary is
    /// stored as its code without touching the caller's `Arc`.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::Int(col), Value::Int(i)) => col.push(*i),
            (ColumnData::Float(col), Value::Float(f)) => col.push(*f),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => codes.push(dict.intern(s)),
            // cross-type numerics coerce (no `Arc` involved); anything
            // else is the coercion's type error, before any slot is written
            (_, v) => {
                let coerced = v.clone().coerce(self.dtype())?;
                return self.push(&coerced);
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Appends a NULL slot.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Int(col) => col.push(0),
            ColumnData::Float(col) => col.push(0.0),
            ColumnData::Str { codes, .. } => codes.push(0),
        }
        self.validity.push(false);
    }

    /// Reads the value at `idx`. Out of bounds is an internal error: it
    /// fails the debug assertion and reads as NULL in release builds.
    pub fn get(&self, idx: usize) -> Value {
        debug_assert!(idx < self.len(), "column index {idx} out of bounds");
        if !self.is_valid(idx) {
            return Value::Null;
        }
        let v = match &self.data {
            ColumnData::Int(col) => col.get(idx).map(|&i| Value::Int(i)),
            ColumnData::Float(col) => col.get(idx).map(|&f| Value::Float(f)),
            ColumnData::Str { codes, dict } => codes
                .get(idx)
                .and_then(|&c| dict.entry(c))
                .map(|(s, _)| Value::Str(Arc::clone(s))),
        };
        v.unwrap_or(Value::Null)
    }

    /// Reads the value at `idx` in place: what [`Column::get`] returns,
    /// without building a [`Value`] (a string is borrowed from the
    /// dictionary's dense copy). Out of bounds reads as NULL, like `get`.
    #[inline]
    pub fn cell(&self, idx: usize) -> ValueRef<'_> {
        debug_assert!(idx < self.len(), "column index {idx} out of bounds");
        if !self.is_valid(idx) {
            return ValueRef::Null;
        }
        let v = match &self.data {
            ColumnData::Int(col) => col.get(idx).map(|&i| ValueRef::Int(i)),
            ColumnData::Float(col) => col.get(idx).map(|&f| ValueRef::Float(f)),
            ColumnData::Str { codes, dict } => codes
                .get(idx)
                .and_then(|&c| dict.entry_str((c as usize).checked_sub(1)?))
                .map(ValueRef::Str),
        };
        v.unwrap_or(ValueRef::Null)
    }

    /// Overwrites the value at `idx` (used by UPDATE), coercing like
    /// [`Column::push`]; a rejected value leaves the slot untouched.
    pub fn set(&mut self, idx: usize, v: &Value) -> Result<()> {
        let len = self.len();
        let out_of_bounds =
            || JitsError::internal(format!("column set index {idx} out of bounds (len {len})"));
        let valid = self.validity.get_mut(idx).ok_or_else(out_of_bounds)?;
        match (&mut self.data, v) {
            (data, Value::Null) => {
                if let ColumnData::Str { codes, .. } = data {
                    *codes.get_mut(idx).ok_or_else(out_of_bounds)? = 0;
                }
                *valid = false;
                return Ok(());
            }
            (ColumnData::Int(col), Value::Int(i)) => {
                *col.get_mut(idx).ok_or_else(out_of_bounds)? = *i;
            }
            (ColumnData::Float(col), Value::Float(f)) => {
                *col.get_mut(idx).ok_or_else(out_of_bounds)? = *f;
            }
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                let slot = codes.get_mut(idx).ok_or_else(out_of_bounds)?;
                *slot = dict.intern(s);
            }
            (_, v) => {
                let coerced = v.clone().coerce(self.dtype())?;
                return self.set(idx, &coerced);
            }
        }
        *valid = true;
        Ok(())
    }

    /// Axis (numeric) projection of the value at `idx`, `None` for NULL.
    /// Hot path for histogram construction; avoids materializing a `Value`
    /// (strings read their dictionary entry's cached `lex_code`).
    pub fn axis_value(&self, idx: usize) -> Option<f64> {
        debug_assert!(idx < self.len(), "column index {idx} out of bounds");
        if !self.is_valid(idx) {
            return None;
        }
        match &self.data {
            ColumnData::Int(col) => col.get(idx).map(|&i| i as f64),
            ColumnData::Float(col) => col.get(idx).copied(),
            ColumnData::Str { codes, dict } => codes
                .get(idx)
                .and_then(|&c| dict.entry(c))
                .map(|(_, lex)| lex),
        }
    }

    /// True if slot `idx` is non-NULL (false out of bounds).
    pub fn is_valid(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len(), "column index {idx} out of bounds");
        self.validity.get(idx) == Some(&true)
    }

    /// The slots of an integer column in place, `(values, validity)`, one
    /// entry per slot; a NULL slot's value is 0 and must be read through
    /// the validity. `None` for other types.
    pub fn int_slots(&self) -> Option<(&[i64], &[bool])> {
        match &self.data {
            ColumnData::Int(col) => Some((col, &self.validity)),
            _ => None,
        }
    }

    /// The dictionary encoding, if this is a string column.
    pub fn str_codes(&self) -> Option<StrCodes<'_>> {
        match &self.data {
            ColumnData::Str { codes, dict } => Some(StrCodes {
                codes,
                entries: &dict.entries,
            }),
            _ => None,
        }
    }

    /// Gathers the slots `rows` into a dense typed
    /// [`FrameColumn`](crate::frame::FrameColumn), folding the axis min/max
    /// accumulation into the same pass (see `crate::frame`). String slots
    /// decode through the dictionary — one `Arc` bump each, the axis fold
    /// on the entry's cached `lex_code`.
    pub(crate) fn gather(&self, rows: &[crate::row::RowId]) -> crate::frame::FrameColumn {
        use crate::frame::{FrameColumn, FrameValues};
        debug_assert!(
            rows.iter().all(|&r| (r as usize) < self.len()),
            "gather row out of bounds"
        );
        let mut validity = Vec::with_capacity(rows.len());
        let mut non_null = 0usize;
        let mut axis_min = f64::INFINITY;
        let mut axis_max = f64::NEG_INFINITY;
        let mut fold = |valid: bool, axis: f64| {
            if valid {
                non_null += 1;
                axis_min = axis_min.min(axis);
                axis_max = axis_max.max(axis);
            }
        };
        let values = match &self.data {
            // an out-of-bounds row (a debug-assertion failure above) gathers
            // as NULL
            ColumnData::Int(col) => {
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    let (valid, v) = match col.get(r as usize) {
                        Some(&v) => (self.is_valid(r as usize), v),
                        None => (false, 0),
                    };
                    validity.push(valid);
                    out.push(v);
                    fold(valid, v as f64);
                }
                FrameValues::Int(out)
            }
            ColumnData::Float(col) => {
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    let (valid, v) = match col.get(r as usize) {
                        Some(&v) => (self.is_valid(r as usize), v),
                        None => (false, 0.0),
                    };
                    validity.push(valid);
                    out.push(v);
                    fold(valid, v);
                }
                FrameValues::Float(out)
            }
            ColumnData::Str { codes, dict } => {
                // NULL slots share one placeholder (never observed)
                let null: Arc<str> = Arc::from("");
                let mut out = Vec::with_capacity(rows.len());
                for &r in rows {
                    match codes.get(r as usize).and_then(|&c| dict.entry(c)) {
                        Some((s, lex)) => {
                            validity.push(true);
                            out.push(Arc::clone(s));
                            fold(true, lex);
                        }
                        None => {
                            validity.push(false);
                            out.push(Arc::clone(&null));
                        }
                    }
                }
                FrameValues::Str(out)
            }
        };
        FrameColumn {
            values,
            validity,
            axis_min,
            axis_max,
            non_null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_roundtrip() {
        let mut c = Column::new(DataType::Int);
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert!(!c.is_valid(1));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
        c.set(0, &Value::Int(5)).unwrap();
        assert_eq!(c.get(0), Value::Float(5.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int);
        assert!(c.push(&Value::str("x")).is_err());
        assert_eq!(c.len(), 0, "failed push must not grow the column");
        let mut s = Column::new(DataType::Str);
        s.push(&Value::str("a")).unwrap();
        assert!(s.set(0, &Value::Int(1)).is_err());
        assert_eq!(s.get(0), Value::str("a"), "failed set must not write");
    }

    #[test]
    fn set_overwrites_and_handles_null() {
        let mut c = Column::new(DataType::Str);
        c.push(&Value::str("a")).unwrap();
        c.set(0, &Value::str("b")).unwrap();
        assert_eq!(c.get(0), Value::str("b"));
        c.set(0, &Value::Null).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.str_codes().unwrap().codes, &[0], "NULL is code 0");
        assert!(c.set(5, &Value::str("x")).is_err());
    }

    #[test]
    fn axis_values() {
        let mut c = Column::new(DataType::Str);
        c.push(&Value::str("Honda")).unwrap();
        c.push_null();
        assert!(c.axis_value(0).is_some());
        assert_eq!(c.axis_value(1), None);
    }

    #[test]
    fn repeated_strings_share_one_entry() {
        let mut c = Column::new(DataType::Str);
        for s in ["Toyota", "Honda", "Toyota", "Toyota", "Honda"] {
            c.push(&Value::str(s)).unwrap();
        }
        let sc = c.str_codes().unwrap();
        assert_eq!(sc.entries.len(), 2);
        assert_eq!(sc.codes, &[1, 2, 1, 1, 2], "codes in first-write order");
        assert!(Column::new(DataType::Int).str_codes().is_none());
    }

    /// Value `k` of the test alphabet.
    fn alphabet(k: usize) -> Value {
        // index 0 is NULL; the empty string and a non-ASCII entry are real
        // strings, and "Honda"/"Hondas" share an 8-byte `lex_code` prefix
        ["", "", "a", "Honda", "Hondas", "Toyota", "Zürich"]
            .get(k)
            .filter(|_| k > 0)
            .map_or(Value::Null, Value::str)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random push / push_null / set sequences over a small alphabet
        /// agree with a `Vec<Value>` model through every read path, and the
        /// dictionary never holds a duplicate.
        #[test]
        fn str_column_matches_value_model(
            ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..7), 1..120),
            picks in proptest::collection::vec(0usize..64, 0..40),
        ) {
            // the same ops drive a bare column and a one-column table, whose
            // snapshot round trip is checked at the end
            let schema = jits_common::Schema::from_pairs(&[("s", DataType::Str)]);
            let mut t = crate::Table::new("t", schema);
            let mut col = Column::new(DataType::Str);
            let mut model: Vec<Value> = Vec::new();
            for (op, slot, k) in ops {
                match op {
                    0 => {
                        col.push(&alphabet(k)).unwrap();
                        t.insert(vec![alphabet(k)]).unwrap();
                        model.push(alphabet(k));
                    }
                    1 => {
                        col.push_null();
                        t.insert(vec![Value::Null]).unwrap();
                        model.push(Value::Null);
                    }
                    _ if !model.is_empty() => {
                        let i = slot % model.len();
                        col.set(i, &alphabet(k)).unwrap();
                        t.update(i as crate::row::RowId, jits_common::ColumnId(0), alphabet(k))
                            .unwrap();
                        model[i] = alphabet(k);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(col.len(), model.len());
            for (i, v) in model.iter().enumerate() {
                prop_assert_eq!(&col.get(i), v);
                prop_assert_eq!(col.cell(i), ValueRef::from(v));
                prop_assert_eq!(col.is_valid(i), !v.is_null());
                prop_assert_eq!(
                    col.axis_value(i).map(f64::to_bits),
                    v.to_axis().map(f64::to_bits)
                );
            }

            let sc = col.str_codes().unwrap();
            let mut distinct: Vec<&str> = sc.entries.iter().map(|e| &**e).collect();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), sc.entries.len(), "duplicate dictionary entry");
            prop_assert!(sc.codes.iter().all(|&c| c as usize <= sc.entries.len()));

            // gather over arbitrary (repeating, unordered) slots
            let rows: Vec<crate::row::RowId> = if model.is_empty() {
                Vec::new()
            } else {
                picks.iter().map(|&p| (p % model.len()) as crate::row::RowId).collect()
            };
            let fc = col.gather(&rows);
            let expect: Vec<&Value> = rows.iter().map(|&r| &model[r as usize]).collect();
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (i, v) in expect.iter().enumerate() {
                prop_assert_eq!(&fc.value(i), *v);
                prop_assert_eq!(fc.validity[i], !v.is_null());
                if let Some(a) = v.to_axis() {
                    lo = lo.min(a);
                    hi = hi.max(a);
                }
            }
            prop_assert_eq!(fc.non_null, expect.iter().filter(|v| !v.is_null()).count());
            prop_assert_eq!(fc.axis_min.to_bits(), lo.to_bits());
            prop_assert_eq!(fc.axis_max.to_bits(), hi.to_bits());

            // snapshot → from_snapshot re-interns in slot order: other codes,
            // the same values and gathers
            let snap = t.snapshot();
            let back = crate::Table::from_snapshot(snap.clone()).unwrap();
            prop_assert_eq!(back.snapshot(), snap);
            let cid = jits_common::ColumnId(0);
            for (i, v) in model.iter().enumerate() {
                prop_assert_eq!(&back.value(i as crate::row::RowId, cid), v);
            }
            let bfc = back.gather_column(cid, &rows);
            prop_assert_eq!(bfc.validity, fc.validity);
            prop_assert_eq!(bfc.axis_min.to_bits(), fc.axis_min.to_bits());
            prop_assert_eq!(bfc.axis_max.to_bits(), fc.axis_max.to_bits());
            for i in 0..rows.len() {
                prop_assert_eq!(bfc.value(i), fc.value(i));
            }
        }
    }
}

//! Secondary indexes: a B-tree for ranges, a hash table for equality keys.
//!
//! Indexes give the optimizer a genuine access-path decision to make:
//! index-nested-loop joins and index range scans look cheap when the
//! estimated outer/matching cardinality is small — which is exactly the
//! decision misestimated selectivities sabotage, the failure mode JITS
//! exists to prevent.
//!
//! [`SecondaryIndex`] (B-tree) answers range probes in key order;
//! [`HashIndex`] answers equality probes in O(1). A table maintains both
//! for every indexed column, with identical per-key row-vector discipline
//! (append on insert, `swap_remove` on delete), so the two structures
//! return bit-identical row lists for any equality key — the executor may
//! route a point probe to either without changing results.

use crate::row::RowId;
use jits_common::hash::FastMap;
use jits_common::{Bound, Interval, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound as RangeBound;
use std::sync::Arc;

/// `Value` wrapper with the total order required by `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
struct OrdValue(Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_total(&other.0)
    }
}

/// Borrowed view of a B-tree key, so a probe compares the caller's `&Value`
/// against the stored keys instead of cloning it into an [`OrdValue`] first.
/// Ordered exactly like [`OrdValue`] (`cmp_total`), as `Borrow` requires.
trait KeyView {
    fn key(&self) -> &Value;
}

impl KeyView for OrdValue {
    fn key(&self) -> &Value {
        &self.0
    }
}

impl KeyView for Value {
    fn key(&self) -> &Value {
        self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for OrdValue {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp_total(other.key())
    }
}

/// A secondary index over one column: value → row ids.
///
/// NULLs are not indexed (no predicate the engine supports matches NULL).
#[derive(Debug, Default)]
pub struct SecondaryIndex {
    map: BTreeMap<OrdValue, Vec<RowId>>,
    entries: usize,
}

impl SecondaryIndex {
    /// An empty index.
    pub fn new() -> Self {
        SecondaryIndex::default()
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Adds a row under `value`.
    pub fn insert(&mut self, value: Value, row: RowId) {
        if value.is_null() {
            return;
        }
        self.map.entry(OrdValue(value)).or_default().push(row);
        self.entries += 1;
    }

    /// Removes a row previously inserted under `value`.
    pub fn remove(&mut self, value: &Value, row: RowId) {
        if value.is_null() {
            return;
        }
        let key: &dyn KeyView = value;
        if let Some(rows) = self.map.get_mut(key) {
            if let Some(pos) = rows.iter().position(|r| *r == row) {
                rows.swap_remove(pos);
                self.entries -= 1;
                if rows.is_empty() {
                    self.map.remove(key);
                }
            }
        }
    }

    /// Rows with exactly `value`.
    pub fn lookup_eq(&self, value: &Value) -> &[RowId] {
        self.map
            .get(value as &dyn KeyView)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates `(key, rows)` in key order, each per-key row vector in its
    /// stored (chronological append / `swap_remove`) order — the raw state
    /// a checkpoint must capture. Re-inserting the pairs in this order into
    /// an empty index (B-tree or hash) reproduces it bit-identically,
    /// because `insert` appends to the per-key vector.
    pub fn entries_in_order(&self) -> impl Iterator<Item = (&Value, &[RowId])> + '_ {
        self.map.iter().map(|(k, v)| (&k.0, v.as_slice()))
    }

    /// Rows whose key falls inside `interval`, in key order, streamed
    /// without materializing per-key vectors. Unbounded-on-both-ends
    /// intervals walk the tree lazily instead of allocating the full key
    /// range up front, and inverted intervals (contradictory predicates,
    /// `low > high`) yield nothing instead of panicking in
    /// `BTreeMap::range`.
    pub fn range_iter<'a>(&'a self, interval: &Interval) -> impl Iterator<Item = RowId> + 'a {
        let lo = match &interval.low {
            Bound::Unbounded => RangeBound::Unbounded,
            Bound::Inclusive(v) => RangeBound::Included(OrdValue(v.clone())),
            Bound::Exclusive(v) => RangeBound::Excluded(OrdValue(v.clone())),
        };
        let hi = match &interval.high {
            Bound::Unbounded => RangeBound::Unbounded,
            Bound::Inclusive(v) => RangeBound::Included(OrdValue(v.clone())),
            Bound::Exclusive(v) => RangeBound::Excluded(OrdValue(v.clone())),
        };
        // `BTreeMap::range` panics on start > end (or equal-and-excluded);
        // a contradictory conjunction is an empty result, not a crash.
        let inverted = match (&lo, &hi) {
            (RangeBound::Included(a), RangeBound::Included(b)) => a > b,
            (
                RangeBound::Included(a) | RangeBound::Excluded(a),
                RangeBound::Included(b) | RangeBound::Excluded(b),
            ) => a >= b,
            _ => false,
        };
        let range = if inverted {
            None
        } else {
            Some(self.map.range((lo, hi)))
        };
        range
            .into_iter()
            .flatten()
            .flat_map(|(_, rows)| rows.iter().copied())
    }

    /// Rows whose key falls inside `interval`, in key order (materialized
    /// convenience wrapper over [`SecondaryIndex::range_iter`]).
    pub fn lookup_range(&self, interval: &Interval) -> Vec<RowId> {
        self.range_iter(interval).collect()
    }
}

/// Hashable projection of an equality key. Floats with an integral value
/// normalize to the integer key so `Int(5)` and `Float(5.0)` collide
/// exactly as `Value::try_cmp` calls them equal (matching the B-tree's
/// total order); other floats key on their bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HashKey {
    Int(i64),
    Float(u64),
    Str(Arc<str>),
}

impl HashKey {
    /// The key for `v`; `None` for NULL (not indexed).
    fn of(v: &Value) -> Option<HashKey> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match v {
            Value::Null => None,
            Value::Int(i) => Some(HashKey::Int(*i)),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= MAX_EXACT => {
                Some(HashKey::Int(*f as i64))
            }
            Value::Float(f) => Some(HashKey::Float(f.to_bits())),
            Value::Str(s) => Some(HashKey::Str(Arc::clone(s))),
        }
    }
}

/// A hash index over one column: equality key → row ids, O(1) probes.
///
/// Maintained beside the B-tree [`SecondaryIndex`] with the same
/// per-key row-vector discipline, so `lookup_eq` on either structure
/// returns the same rows in the same order. The map is probe-only —
/// never iterated — so hash order can't leak into any deterministic
/// output; it keys through the fixed `FastHasher`, as the string
/// dictionaries do.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: FastMap<HashKey, Vec<RowId>>,
    entries: usize,
}

impl HashIndex {
    /// An empty index.
    pub fn new() -> Self {
        HashIndex::default()
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Adds a row under `value`.
    pub fn insert(&mut self, value: &Value, row: RowId) {
        let Some(key) = HashKey::of(value) else {
            return;
        };
        self.map.entry(key).or_default().push(row);
        self.entries += 1;
    }

    /// Removes a row previously inserted under `value` (same
    /// `swap_remove` discipline as the B-tree index).
    pub fn remove(&mut self, value: &Value, row: RowId) {
        let Some(key) = HashKey::of(value) else {
            return;
        };
        if let Some(rows) = self.map.get_mut(&key) {
            if let Some(pos) = rows.iter().position(|r| *r == row) {
                rows.swap_remove(pos);
                self.entries -= 1;
                if rows.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Rows with exactly `value`.
    pub fn lookup_eq(&self, value: &Value) -> &[RowId] {
        HashKey::of(value)
            .and_then(|k| self.map.get(&k))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> SecondaryIndex {
        let mut idx = SecondaryIndex::new();
        for (i, v) in [10i64, 20, 20, 30, 40].iter().enumerate() {
            idx.insert(Value::Int(*v), i as RowId);
        }
        idx
    }

    #[test]
    fn eq_lookup() {
        let idx = build();
        assert_eq!(idx.lookup_eq(&Value::Int(20)), &[1, 2]);
        assert!(idx.lookup_eq(&Value::Int(99)).is_empty());
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.distinct_keys(), 4);
    }

    #[test]
    fn range_lookup() {
        let idx = build();
        let rows = idx.lookup_range(&Interval::between(Value::Int(20), Value::Int(30)));
        assert_eq!(rows, vec![1, 2, 3]);
        let rows = idx.lookup_range(&Interval::at_least(Value::Int(30), false));
        assert_eq!(rows, vec![4]);
        let rows = idx.lookup_range(&Interval::unbounded());
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn remove_entries() {
        let mut idx = build();
        idx.remove(&Value::Int(20), 1);
        assert_eq!(idx.lookup_eq(&Value::Int(20)), &[2]);
        idx.remove(&Value::Int(20), 2);
        assert!(idx.lookup_eq(&Value::Int(20)).is_empty());
        assert_eq!(idx.distinct_keys(), 3);
        // removing a missing entry is a no-op
        idx.remove(&Value::Int(20), 7);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn nulls_not_indexed() {
        let mut idx = SecondaryIndex::new();
        idx.insert(Value::Null, 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn string_keys() {
        let mut idx = SecondaryIndex::new();
        idx.insert(Value::str("Honda"), 0);
        idx.insert(Value::str("Toyota"), 1);
        let rows = idx.lookup_range(&Interval::at_least(Value::str("M"), true));
        assert_eq!(rows, vec![1]);
    }

    #[test]
    fn unbounded_range_streams_without_allocation() {
        let idx = build();
        // both ends unbounded: the iterator walks keys lazily
        let mut it = idx.range_iter(&Interval::unbounded());
        assert_eq!(it.next(), Some(0));
        assert_eq!(idx.range_iter(&Interval::unbounded()).count(), 5);
    }

    #[test]
    fn inverted_range_is_empty_not_a_panic() {
        let idx = build();
        // contradictory conjunction: x >= 30 AND x <= 20
        let iv = Interval::at_least(Value::Int(30), true)
            .intersect(&Interval::at_most(Value::Int(20), true));
        assert!(idx.lookup_range(&iv).is_empty());
        // degenerate exclusive-exclusive point
        let iv = Interval {
            low: Bound::Exclusive(Value::Int(20)),
            high: Bound::Exclusive(Value::Int(20)),
        };
        assert!(idx.lookup_range(&iv).is_empty());
    }

    fn build_hash() -> HashIndex {
        let mut idx = HashIndex::new();
        for (i, v) in [10i64, 20, 20, 30, 40].iter().enumerate() {
            idx.insert(&Value::Int(*v), i as RowId);
        }
        idx
    }

    #[test]
    fn hash_eq_lookup_matches_btree() {
        let (h, b) = (build_hash(), build());
        for v in [10i64, 20, 30, 40, 99] {
            assert_eq!(h.lookup_eq(&Value::Int(v)), b.lookup_eq(&Value::Int(v)));
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.distinct_keys(), 4);
    }

    #[test]
    fn hash_remove_mirrors_btree_order() {
        let (mut h, mut b) = (build_hash(), build());
        h.remove(&Value::Int(20), 1);
        b.remove(&Value::Int(20), 1);
        assert_eq!(h.lookup_eq(&Value::Int(20)), b.lookup_eq(&Value::Int(20)));
        h.remove(&Value::Int(20), 7); // missing entry: no-op
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn hash_numeric_keys_collide_like_try_cmp() {
        let mut h = HashIndex::new();
        h.insert(&Value::Float(5.0), 0);
        assert_eq!(h.lookup_eq(&Value::Int(5)), &[0]);
        h.insert(&Value::Float(5.5), 1);
        assert_eq!(h.lookup_eq(&Value::Float(5.5)), &[1]);
        assert!(h.lookup_eq(&Value::Int(6)).is_empty());
    }

    #[test]
    fn hash_nulls_not_indexed() {
        let mut h = HashIndex::new();
        h.insert(&Value::Null, 0);
        assert!(h.is_empty());
        assert!(h.lookup_eq(&Value::Null).is_empty());
    }
}

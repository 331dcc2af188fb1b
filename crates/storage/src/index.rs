//! Secondary indexes: one [`Index`] per indexed column, an ordered map for
//! ranges beside a hash map for point probes, both keyed on the column's
//! own type.
//!
//! Indexes give the optimizer a genuine access-path decision to make:
//! index-nested-loop joins and index range scans look cheap when the
//! estimated outer/matching cardinality is small — which is exactly the
//! decision misestimated selectivities sabotage, the failure mode JITS
//! exists to prevent.
//!
//! An `Int` column keys both maps on `i64`, a `Float` column on its `f64`
//! (ordered and compared by value), a `Str` column on the dictionary's
//! `Arc<str>`; one implementation, generic over the key, serves all three.
//! A key's rows are a *posting list* in append / `swap_remove` order. Most
//! keys of a key column have one row, so a posting of one row is stored
//! inline in both maps, and only a key with two or more rows owns an
//! overflow list, which both maps name by number. The two maps therefore
//! return the same rows in the same order for every key.
//!
//! `Value`s are translated to keys once, at this API's edge, with the
//! semantics of `Value::cmp_total` and SQL equality: an integral `Float`
//! probe finds its `Int` key (up to 2^53, where every integer is a float),
//! a `Float` range endpoint on an `Int` index rounds inward, an endpoint of
//! another type falls below (NULL, a number against strings) or above (a
//! string against numbers) every key, and an empty or inverted range yields
//! nothing. NULL is never indexed.

use crate::row::RowId;
use jits_common::hash::FastMap;
use jits_common::{Bound, DataType, Interval, Value, ValueRef};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound as RangeBound;
use std::sync::Arc;

/// 2^53: every integer of at most this magnitude is exactly a float.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// 2^63: the first float past `i64::MAX`.
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// Where a range endpoint falls among the keys of one type.
enum Edge<K> {
    /// Below every key.
    Below,
    /// At a key, included or not.
    At(K, bool),
    /// Above every key.
    Above,
}

/// A column type's index key: equal, hashed and ordered as
/// `Value::cmp_total` orders the column's values.
trait Key: Ord + Hash + Clone {
    /// The key a stored value, or a probe, equals; `None` if no key of
    /// this type can equal it (NULL, another type, an inexact float).
    fn of(v: &Value) -> Option<Self>;
    /// Where `v` falls as the low (`low`) or high endpoint of a range.
    fn edge(v: &Value, low: bool, inclusive: bool) -> Edge<Self>;
    /// The key as the value it was stored from.
    fn value(&self) -> ValueRef<'_>;
}

impl Key for i64 {
    fn of(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= MAX_EXACT => Some(*f as i64),
            _ => None,
        }
    }

    fn edge(v: &Value, low: bool, inclusive: bool) -> Edge<i64> {
        match v {
            Value::Null => Edge::Below,
            Value::Str(_) => Edge::Above,
            Value::Int(i) => Edge::At(*i, inclusive),
            // NaN compares with nothing: the range is empty
            Value::Float(f) if f.is_nan() => {
                if low {
                    Edge::Above
                } else {
                    Edge::Below
                }
            }
            Value::Float(f) => {
                // a fractional endpoint rounds inward to the nearest
                // integer, which the range then includes
                let (k, inclusive) = match (f.fract() == 0.0, low) {
                    (true, _) => (*f, inclusive),
                    (false, true) => (f.ceil(), true),
                    (false, false) => (f.floor(), true),
                };
                if k >= I64_END {
                    Edge::Above
                } else if k < -I64_END {
                    Edge::Below
                } else {
                    Edge::At(k as i64, inclusive)
                }
            }
        }
    }

    fn value(&self) -> ValueRef<'_> {
        ValueRef::Int(*self)
    }
}

/// A float key, compared, hashed and ordered by value (`-0.0` is `0.0`),
/// holding the bits it was first stored with.
#[derive(Debug, Clone, Copy)]
struct FloatKey(f64);

impl FloatKey {
    fn canonical(self) -> f64 {
        if self.0 == 0.0 {
            0.0
        } else {
            self.0
        }
    }
}

impl PartialEq for FloatKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FloatKey {}

impl PartialOrd for FloatKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FloatKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical().total_cmp(&other.canonical())
    }
}

impl Hash for FloatKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().to_bits().hash(state);
    }
}

impl Key for FloatKey {
    fn of(v: &Value) -> Option<FloatKey> {
        match v {
            Value::Float(f) => Some(FloatKey(*f)),
            Value::Int(i) if i.unsigned_abs() <= MAX_EXACT as u64 => Some(FloatKey(*i as f64)),
            _ => None,
        }
    }

    fn edge(v: &Value, low: bool, inclusive: bool) -> Edge<FloatKey> {
        match v {
            Value::Null => Edge::Below,
            Value::Str(_) => Edge::Above,
            Value::Float(f) if f.is_nan() => {
                if low {
                    Edge::Above
                } else {
                    Edge::Below
                }
            }
            Value::Float(f) => Edge::At(FloatKey(*f), inclusive),
            // `Value::try_cmp` compares an integer with a float as `f64`
            Value::Int(i) => Edge::At(FloatKey(*i as f64), inclusive),
        }
    }

    fn value(&self) -> ValueRef<'_> {
        ValueRef::Float(self.0)
    }
}

impl Key for Arc<str> {
    fn of(v: &Value) -> Option<Arc<str>> {
        match v {
            Value::Str(s) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    fn edge(v: &Value, _low: bool, inclusive: bool) -> Edge<Arc<str>> {
        match v {
            Value::Str(s) => Edge::At(Arc::clone(s), inclusive),
            // NULL and numbers order below every string
            _ => Edge::Below,
        }
    }

    fn value(&self) -> ValueRef<'_> {
        ValueRef::Str(self)
    }
}

/// One key's rows: its only row inline, or the number of an overflow list
/// holding two or more.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    One(RowId),
    Many(u32),
}

/// The rows `slot` names.
fn rows<'a>(lists: &'a [Vec<RowId>], slot: &'a Slot) -> &'a [RowId] {
    match slot {
        Slot::One(r) => std::slice::from_ref(r),
        Slot::Many(l) => lists.get(*l as usize).map_or(&[], Vec::as_slice),
    }
}

/// The two maps of one index over keys of type `K` (see module docs).
#[derive(Debug)]
struct Postings<K> {
    /// Key order, for ranges and checkpoints.
    tree: BTreeMap<K, Slot>,
    /// Point probes. Probe-only — never iterated — so hash order cannot
    /// leak into any output; it keys through the fixed `FastHasher`.
    hash: FastMap<K, Slot>,
    /// Overflow lists, named by `Slot::Many`; emptied ones are reused.
    lists: Vec<Vec<RowId>>,
    free: Vec<u32>,
    /// Indexed rows (the sum of every key's posting length).
    entries: usize,
}

impl<K: Key> Postings<K> {
    fn new() -> Self {
        Postings {
            tree: BTreeMap::new(),
            hash: FastMap::default(),
            lists: Vec::new(),
            free: Vec::new(),
            entries: 0,
        }
    }

    fn get(&self, key: &K) -> &[RowId] {
        self.hash.get(key).map_or(&[], |s| rows(&self.lists, s))
    }

    /// Appends `row` to `key`'s posting list.
    fn insert(&mut self, key: K, row: RowId) {
        let Postings {
            tree,
            hash,
            lists,
            free,
            entries,
        } = self;
        *entries += 1;
        match hash.entry(key) {
            Entry::Vacant(e) => {
                tree.insert(e.key().clone(), Slot::One(row));
                e.insert(Slot::One(row));
            }
            Entry::Occupied(mut e) => match *e.get() {
                Slot::Many(l) => {
                    if let Some(list) = lists.get_mut(l as usize) {
                        list.push(row);
                    }
                }
                Slot::One(first) => {
                    let list = vec![first, row];
                    let l = match free.pop() {
                        Some(l) => {
                            if let Some(slot) = lists.get_mut(l as usize) {
                                *slot = list;
                            }
                            l
                        }
                        None => {
                            lists.push(list);
                            (lists.len() - 1) as u32
                        }
                    };
                    e.insert(Slot::Many(l));
                    if let Some(s) = tree.get_mut(e.key()) {
                        *s = Slot::Many(l);
                    }
                }
            },
        }
    }

    /// Removes `row` from `key`'s posting list by `swap_remove`; a missing
    /// pair is a no-op.
    fn remove(&mut self, key: &K, row: RowId) {
        let Postings {
            tree,
            hash,
            lists,
            free,
            entries,
        } = self;
        let Some(slot) = hash.get_mut(key) else {
            return;
        };
        match *slot {
            Slot::One(r) => {
                if r == row {
                    hash.remove(key);
                    tree.remove(key);
                    *entries -= 1;
                }
            }
            Slot::Many(l) => {
                let Some(list) = lists.get_mut(l as usize) else {
                    return;
                };
                let Some(pos) = list.iter().position(|&r| r == row) else {
                    return;
                };
                list.swap_remove(pos);
                *entries -= 1;
                if let &[only] = list.as_slice() {
                    *list = Vec::new();
                    free.push(l);
                    *slot = Slot::One(only);
                    if let Some(s) = tree.get_mut(key) {
                        *s = Slot::One(only);
                    }
                }
            }
        }
    }

    /// The keys inside `interval`, in key order; `None` if there are none.
    fn range(&self, interval: &Interval) -> Option<btree_map::Range<'_, K, Slot>> {
        bounds::<K>(interval).map(|b| self.tree.range(b))
    }

    fn entries_in_order(&self) -> impl Iterator<Item = (ValueRef<'_>, &[RowId])> + '_ {
        self.tree
            .iter()
            .map(|(k, s)| (k.value(), rows(&self.lists, s)))
    }
}

/// `interval` as a key range; `None` when no key can fall inside it
/// (`BTreeMap::range` panics on an inverted range).
fn bounds<K: Key>(interval: &Interval) -> Option<(RangeBound<K>, RangeBound<K>)> {
    let at = |k, inclusive| {
        if inclusive {
            RangeBound::Included(k)
        } else {
            RangeBound::Excluded(k)
        }
    };
    let lo = match &interval.low {
        Bound::Unbounded => Edge::Below,
        Bound::Inclusive(v) => K::edge(v, true, true),
        Bound::Exclusive(v) => K::edge(v, true, false),
    };
    let hi = match &interval.high {
        Bound::Unbounded => Edge::Above,
        Bound::Inclusive(v) => K::edge(v, false, true),
        Bound::Exclusive(v) => K::edge(v, false, false),
    };
    let lo = match lo {
        Edge::Below => RangeBound::Unbounded,
        Edge::At(k, inclusive) => at(k, inclusive),
        Edge::Above => return None,
    };
    let hi = match hi {
        Edge::Below => return None,
        Edge::At(k, inclusive) => at(k, inclusive),
        Edge::Above => RangeBound::Unbounded,
    };
    let empty = match (&lo, &hi) {
        (RangeBound::Included(a), RangeBound::Included(b)) => a > b,
        (
            RangeBound::Included(a) | RangeBound::Excluded(a),
            RangeBound::Included(b) | RangeBound::Excluded(b),
        ) => a >= b,
        _ => false,
    };
    (!empty).then_some((lo, hi))
}

/// One index's postings, keyed on its column's type.
#[derive(Debug)]
enum Keys {
    Int(Postings<i64>),
    Float(Postings<FloatKey>),
    Str(Postings<Arc<str>>),
}

/// Runs `$body` on the postings of `$keys`, whatever their key type.
macro_rules! on_postings {
    ($keys:expr, $p:ident => $body:expr) => {
        match $keys {
            Keys::Int($p) => $body,
            Keys::Float($p) => $body,
            Keys::Str($p) => $body,
        }
    };
}

/// A secondary index over one column: key → row ids, for point probes and
/// ranges (see module docs).
#[derive(Debug)]
pub struct Index {
    keys: Keys,
}

impl Index {
    /// An empty index over a column of type `dtype`.
    pub fn new(dtype: DataType) -> Self {
        let keys = match dtype {
            DataType::Int => Keys::Int(Postings::new()),
            DataType::Float => Keys::Float(Postings::new()),
            DataType::Str => Keys::Str(Postings::new()),
        };
        Index { keys }
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        on_postings!(&self.keys, p => p.entries)
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        on_postings!(&self.keys, p => p.tree.len())
    }

    /// Appends `row` to the posting list of `value` (a stored value of the
    /// column's type; NULL is not indexed).
    pub fn insert(&mut self, value: &Value, row: RowId) {
        on_postings!(&mut self.keys, p => {
            if let Some(k) = Key::of(value) {
                p.insert(k, row);
            }
        })
    }

    /// Removes a row previously inserted under `value` (`swap_remove`
    /// within the key's posting list); a missing pair is a no-op.
    pub fn remove(&mut self, value: &Value, row: RowId) {
        on_postings!(&mut self.keys, p => {
            if let Some(k) = Key::of(value) {
                p.remove(&k, row);
            }
        })
    }

    /// Rows whose key equals `value`, through the hash map.
    pub fn lookup_eq(&self, value: &Value) -> &[RowId] {
        on_postings!(&self.keys, p => Key::of(value).map_or(&[][..], |k| p.get(&k)))
    }

    /// [`Index::lookup_eq`] of `Value::Int(key)`, without the `Value` on
    /// an `Int` index.
    #[inline]
    pub fn lookup_int(&self, key: i64) -> &[RowId] {
        match &self.keys {
            Keys::Int(p) => p.get(&key),
            _ => self.lookup_eq(&Value::Int(key)),
        }
    }

    /// Iterates `(key, rows)` in key order, each posting list in its
    /// stored (chronological append / `swap_remove`) order — the raw state
    /// a checkpoint must capture. Re-inserting the pairs in this order into
    /// an empty index reproduces it bit-identically, because `insert`
    /// appends to the posting list.
    pub fn entries_in_order(&self) -> Box<dyn Iterator<Item = (ValueRef<'_>, &[RowId])> + '_> {
        on_postings!(&self.keys, p => Box::new(p.entries_in_order()))
    }

    /// Rows whose key falls inside `interval`, in key order, streamed from
    /// the ordered map. Inverted intervals (contradictory predicates,
    /// `low > high`) yield nothing.
    pub fn range_iter(&self, interval: &Interval) -> RangeIter<'_> {
        let (keys, lists) = match &self.keys {
            Keys::Int(p) => (p.range(interval).map(KeyRange::Int), &p.lists),
            Keys::Float(p) => (p.range(interval).map(KeyRange::Float), &p.lists),
            Keys::Str(p) => (p.range(interval).map(KeyRange::Str), &p.lists),
        };
        RangeIter {
            keys,
            lists,
            rest: [].iter(),
        }
    }

    /// Rows whose key falls inside `interval`, in key order (materialized
    /// convenience wrapper over [`Index::range_iter`]).
    pub fn lookup_range(&self, interval: &Interval) -> Vec<RowId> {
        self.range_iter(interval).collect()
    }
}

/// The keys of one index inside a range, whatever their type.
enum KeyRange<'a> {
    Int(btree_map::Range<'a, i64, Slot>),
    Float(btree_map::Range<'a, FloatKey, Slot>),
    Str(btree_map::Range<'a, Arc<str>, Slot>),
}

/// Rows of the keys inside a range, in key order, each posting list in its
/// stored order ([`Index::range_iter`]).
pub struct RangeIter<'a> {
    keys: Option<KeyRange<'a>>,
    lists: &'a [Vec<RowId>],
    /// The rest of the current key's overflow list.
    rest: std::slice::Iter<'a, RowId>,
}

impl Iterator for RangeIter<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        loop {
            if let Some(&r) = self.rest.next() {
                return Some(r);
            }
            let slot = match self.keys.as_mut()? {
                KeyRange::Int(r) => r.next()?.1,
                KeyRange::Float(r) => r.next()?.1,
                KeyRange::Str(r) => r.next()?.1,
            };
            match slot {
                Slot::One(r) => return Some(*r),
                Slot::Many(_) => self.rest = rows(self.lists, slot).iter(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build() -> Index {
        let mut idx = Index::new(DataType::Int);
        for (i, v) in [10i64, 20, 20, 30, 40].iter().enumerate() {
            idx.insert(&Value::Int(*v), i as RowId);
        }
        idx
    }

    #[test]
    fn eq_lookup() {
        let idx = build();
        assert_eq!(idx.lookup_eq(&Value::Int(20)), &[1, 2]);
        assert_eq!(idx.lookup_int(20), &[1, 2]);
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
    fn float_bounds_on_int_keys_round_inward() {
        let idx = build();
        let between =
            |a: f64, b: f64| idx.lookup_range(&Interval::between(Value::Float(a), Value::Float(b)));
        assert_eq!(between(19.5, 30.5), vec![1, 2, 3]);
        assert_eq!(between(20.0, 30.0), vec![1, 2, 3]);
        assert!(between(20.2, 20.8).is_empty(), "no integer inside");
        let above = idx.lookup_range(&Interval::at_least(Value::Float(30.0), false));
        assert_eq!(above, vec![4]);
        let huge = idx.lookup_range(&Interval::at_most(Value::Float(1e300), true));
        assert_eq!(huge.len(), 5);
        assert!(idx
            .lookup_range(&Interval::at_least(Value::Float(f64::NAN), true))
            .is_empty());
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
    fn overflow_lists_keep_swap_remove_order_and_are_reused() {
        let mut idx = Index::new(DataType::Int);
        for r in 0..4 {
            idx.insert(&Value::Int(7), r);
        }
        idx.remove(&Value::Int(7), 0);
        assert_eq!(idx.lookup_int(7), &[3, 1, 2]);
        idx.remove(&Value::Int(7), 1);
        idx.remove(&Value::Int(7), 3);
        assert_eq!(idx.lookup_int(7), &[2]);
        idx.insert(&Value::Int(8), 10);
        idx.insert(&Value::Int(8), 11);
        assert_eq!(idx.lookup_int(8), &[10, 11]);
        let Keys::Int(p) = &idx.keys else {
            panic!("an Int column keys on i64")
        };
        assert_eq!(p.lists.len(), 1, "the emptied list is reused");
        assert_eq!(p.tree.get(&7), Some(&Slot::One(2)), "both maps agree");
    }

    #[test]
    fn nulls_not_indexed() {
        let mut idx = Index::new(DataType::Int);
        idx.insert(&Value::Null, 0);
        assert!(idx.is_empty());
        assert!(idx.lookup_eq(&Value::Null).is_empty());
    }

    #[test]
    fn string_keys() {
        let mut idx = Index::new(DataType::Str);
        idx.insert(&Value::str("Honda"), 0);
        idx.insert(&Value::str("Toyota"), 1);
        let rows = idx.lookup_range(&Interval::at_least(Value::str("M"), true));
        assert_eq!(rows, vec![1]);
        assert_eq!(idx.lookup_eq(&Value::str("Honda")), &[0]);
        assert!(idx.lookup_int(0).is_empty());
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

    #[test]
    fn hash_numeric_keys_collide_like_try_cmp() {
        let mut h = Index::new(DataType::Float);
        h.insert(&Value::Float(5.0), 0);
        assert_eq!(h.lookup_eq(&Value::Int(5)), &[0]);
        assert_eq!(h.lookup_int(5), &[0]);
        h.insert(&Value::Float(5.5), 1);
        assert_eq!(h.lookup_eq(&Value::Float(5.5)), &[1]);
        assert!(h.lookup_eq(&Value::Int(6)).is_empty());
        h.insert(&Value::Float(-0.0), 2);
        assert_eq!(h.lookup_eq(&Value::Float(0.0)), &[2]);
        let ints = build();
        assert_eq!(ints.lookup_eq(&Value::Float(20.0)), &[1, 2]);
        assert!(ints.lookup_eq(&Value::Float(20.5)).is_empty());
        assert!(ints.lookup_eq(&Value::str("20")).is_empty());
    }

    /// A total-order wrapper for the model's keys: `Value::cmp_total`.
    #[derive(Debug, Clone)]
    struct ModelKey(Value);

    impl PartialEq for ModelKey {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for ModelKey {}

    impl PartialOrd for ModelKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for ModelKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.cmp_total(&other.0)
        }
    }

    /// The `Value`-keyed index an [`Index`] must behave like: a B-tree
    /// under `cmp_total`, one row vector per key, append on insert,
    /// `swap_remove` on delete, NULL never stored. Probes compare by
    /// `cmp_total`, ranges by each endpoint's `cmp_total`.
    #[derive(Default)]
    struct Model {
        map: BTreeMap<ModelKey, Vec<RowId>>,
    }

    impl Model {
        fn insert(&mut self, v: &Value, row: RowId) {
            if !v.is_null() {
                self.map.entry(ModelKey(v.clone())).or_default().push(row);
            }
        }

        fn remove(&mut self, v: &Value, row: RowId) {
            let key = ModelKey(v.clone());
            if let Some(rows) = self.map.get_mut(&key) {
                if let Some(pos) = rows.iter().position(|&r| r == row) {
                    rows.swap_remove(pos);
                    if rows.is_empty() {
                        self.map.remove(&key);
                    }
                }
            }
        }

        fn lookup_eq(&self, v: &Value) -> Vec<RowId> {
            if v.is_null() {
                return Vec::new();
            }
            self.map
                .get(&ModelKey(v.clone()))
                .cloned()
                .unwrap_or_default()
        }

        fn range(&self, iv: &Interval) -> Vec<RowId> {
            let inside = |k: &Value| {
                let low = match &iv.low {
                    Bound::Unbounded => true,
                    Bound::Inclusive(b) => k.cmp_total(b) != Ordering::Less,
                    Bound::Exclusive(b) => k.cmp_total(b) == Ordering::Greater,
                };
                let high = match &iv.high {
                    Bound::Unbounded => true,
                    Bound::Inclusive(b) => k.cmp_total(b) != Ordering::Greater,
                    Bound::Exclusive(b) => k.cmp_total(b) == Ordering::Less,
                };
                low && high
            };
            self.map
                .iter()
                .filter(|(k, _)| inside(&k.0))
                .flat_map(|(_, rows)| rows.iter().copied())
                .collect()
        }
    }

    /// A small domain per type, with duplicates, NULLs and, for floats,
    /// `-0.0` beside `0.0` and integral values an `Int` probe can find.
    fn cell(dtype: DataType, k: u8) -> Value {
        if k.is_multiple_of(8) {
            return Value::Null;
        }
        let k = i64::from(k % 16) - 8;
        match dtype {
            DataType::Int => Value::Int(k),
            DataType::Float if k == 1 => Value::Float(-0.0),
            DataType::Float if k == 2 => Value::Float(0.0),
            DataType::Float => Value::Float(k as f64 / 2.0),
            DataType::Str => Value::str(["a", "b", "bb", "c", "Zürich"][k.rem_euclid(5) as usize]),
        }
    }

    /// A probe or endpoint of any type: the column's own values, NULL,
    /// fractional and integral floats, integers, strings.
    fn probe(dtype: DataType, k: u8) -> Value {
        match k % 5 {
            0 => cell(dtype, k / 5),
            1 => Value::Int(i64::from(k / 5) - 13),
            2 => Value::Float(f64::from(k / 5) / 4.0 - 6.0),
            3 => Value::str(["", "b", "bz", "d"][usize::from(k / 5) % 4]),
            _ => Value::Null,
        }
    }

    fn endpoint(dtype: DataType, kind: u8, k: u8) -> Bound {
        match kind % 3 {
            0 => Bound::Unbounded,
            1 => Bound::Inclusive(probe(dtype, k)),
            _ => Bound::Exclusive(probe(dtype, k)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random insert / remove / update sequences on Int, Float and Str
        /// columns agree with the `Value`-keyed model after every step:
        /// point probes of every type, ranges with mixed-type and inverted
        /// endpoints, every key's rows in order, `len` and `distinct_keys`.
        #[test]
        fn index_matches_the_value_keyed_model(
            t in 0u8..3,
            ops in proptest::collection::vec((0u8..4, 0u32..24, 0u8..64, 0u8..255, 0u8..255), 1..80),
        ) {
            let dtype = [DataType::Int, DataType::Float, DataType::Str][usize::from(t)];
            let mut idx = Index::new(dtype);
            let mut model = Model::default();
            // the column: each row's current cell, `None` once deleted
            let mut slots: Vec<Option<Value>> = Vec::new();
            for (op, pick, k, a, b) in ops {
                let live: Vec<RowId> = (0..slots.len() as RowId)
                    .filter(|&r| slots[r as usize].is_some())
                    .collect();
                let target = (!live.is_empty()).then(|| live[pick as usize % live.len()]);
                match (op, target) {
                    (0 | 1, _) | (_, None) => {
                        let v = cell(dtype, k);
                        let r = slots.len() as RowId;
                        idx.insert(&v, r);
                        model.insert(&v, r);
                        slots.push(Some(v));
                    }
                    (2, Some(r)) => {
                        let old = slots[r as usize].take().unwrap();
                        idx.remove(&old, r);
                        model.remove(&old, r);
                    }
                    (_, Some(r)) => {
                        let v = cell(dtype, k);
                        let old = slots[r as usize].replace(v.clone()).unwrap();
                        idx.remove(&old, r);
                        idx.insert(&v, r);
                        model.remove(&old, r);
                        model.insert(&v, r);
                    }
                }

                prop_assert_eq!(idx.len(), model.map.values().map(Vec::len).sum::<usize>());
                prop_assert_eq!(idx.distinct_keys(), model.map.len());
                let entries: Vec<(Value, Vec<RowId>)> = idx
                    .entries_in_order()
                    .map(|(k, rows)| (Value::from(k), rows.to_vec()))
                    .collect();
                prop_assert_eq!(entries.len(), model.map.len());
                for ((k, rows), (mk, mrows)) in entries.iter().zip(&model.map) {
                    // the stored key keeps the bits it was first inserted with
                    prop_assert_eq!(
                        format!("{k:?}/{:?}", k.as_f64().map(f64::to_bits)),
                        format!("{:?}/{:?}", mk.0, mk.0.as_f64().map(f64::to_bits))
                    );
                    prop_assert_eq!(rows, mrows);
                }
                for v in [probe(dtype, a), probe(dtype, b), cell(dtype, k)] {
                    prop_assert_eq!(idx.lookup_eq(&v), model.lookup_eq(&v).as_slice(), "probe {}", v);
                    if let Value::Int(i) = v {
                        prop_assert_eq!(idx.lookup_int(i), model.lookup_eq(&v).as_slice());
                    }
                }
                let iv = Interval {
                    low: endpoint(dtype, a, b),
                    high: endpoint(dtype, b, a),
                };
                prop_assert_eq!(idx.lookup_range(&iv), model.range(&iv), "range {:?}", iv);
                let iv = Interval {
                    low: iv.high.clone(),
                    high: iv.low.clone(),
                };
                prop_assert_eq!(idx.lookup_range(&iv), model.range(&iv), "range {:?}", iv);
            }
        }
    }
}

//! The auxiliary predicate cache — the paper's §3.4 footnote 1.
//!
//! Some predicate groups have no histogram-region representation (in this
//! engine: groups containing `<>` predicates; in the paper's example,
//! predicates over column expressions). The paper's footnote: "We can store
//! such predicates and the number of tuples that satisfy them separately,
//! and possibly reuse them for later queries. LRU can be used to prune
//! unused predicates." This module is exactly that store: measured
//! selectivities keyed by a canonical predicate fingerprint, pruned by LRU.

use jits_common::TableId;
use jits_query::{PredKind, QueryBlock};
use std::collections::BTreeMap;

/// Predicates the engine's cache holds before LRU pruning.
const DEFAULT_CAPACITY: usize = 256;

/// A cached selectivity for one exact predicate group.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSelectivity {
    /// Measured selectivity.
    pub selectivity: f64,
    /// Logical time of the measurement.
    pub stamp: u64,
    /// Logical time of the last use (LRU).
    pub last_used: u64,
}

/// A [`PredicateCache::snapshot`]: capacity plus every entry in key order.
pub type PredicateCacheSnapshot = (usize, Vec<((TableId, String), CachedSelectivity)>);

/// LRU cache of measured selectivities for non-region predicate groups.
///
/// Keyed by `BTreeMap` so eviction scans visit entries in a deterministic
/// order (the LRU tie-break on the key then needs no hash-order rescue).
#[derive(Debug)]
pub struct PredicateCache {
    entries: BTreeMap<(TableId, String), CachedSelectivity>,
    capacity: usize,
}

impl PredicateCache {
    /// A cache holding at most `capacity` predicates.
    pub fn new(capacity: usize) -> Self {
        PredicateCache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Evicts the least-recently-used entries (ties broken by key, so
    /// eviction is deterministic) until the cache fits its capacity, all
    /// victims selected in one ranking pass.
    fn evict_to_capacity(&mut self) {
        let overflow = self.entries.len().saturating_sub(self.capacity);
        if overflow == 0 {
            return;
        }
        let mut ranked: Vec<(u64, (TableId, String))> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, k.clone()))
            .collect();
        ranked.sort_unstable_by(|(a, ka), (b, kb)| a.cmp(b).then_with(|| ka.cmp(kb)));
        for (_, key) in ranked.into_iter().take(overflow) {
            self.entries.remove(&key);
        }
    }

    /// Number of cached predicates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores (or refreshes) a measured selectivity.
    pub fn insert(&mut self, table: TableId, fingerprint: String, selectivity: f64, stamp: u64) {
        self.entries.insert(
            (table, fingerprint),
            CachedSelectivity {
                selectivity: selectivity.clamp(0.0, 1.0),
                stamp,
                last_used: stamp,
            },
        );
        // LRU pruning, exactly as the footnote suggests
        self.evict_to_capacity();
    }

    /// Looks up a cached selectivity (read-only; call [`Self::touch`] after
    /// the estimate is actually used).
    pub fn get(&self, table: TableId, fingerprint: &str) -> Option<&CachedSelectivity> {
        self.entries.get(&(table, fingerprint.to_string()))
    }

    /// Marks an entry as used at `stamp`.
    pub fn touch(&mut self, table: TableId, fingerprint: &str, stamp: u64) {
        if let Some(e) = self.entries.get_mut(&(table, fingerprint.to_string())) {
            e.last_used = e.last_used.max(stamp);
        }
    }

    /// Drops all entries for one table (after its data churned enough that
    /// the measurements can no longer be trusted).
    pub fn invalidate_table(&mut self, table: TableId) {
        self.entries.retain(|(t, _), _| *t != table);
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Raw state dump for checkpointing: capacity plus every entry in key
    /// order, LRU stamps included (eviction decisions after recovery must
    /// match the never-crashed run).
    pub fn snapshot(&self) -> PredicateCacheSnapshot {
        (
            self.capacity,
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        )
    }

    /// Rebuilds a cache from a [`PredicateCache::snapshot`], field for
    /// field.
    pub fn from_snapshot((capacity, entries): PredicateCacheSnapshot) -> PredicateCache {
        PredicateCache {
            entries: entries.into_iter().collect(),
            capacity: capacity.max(1),
        }
    }
}

impl Default for PredicateCache {
    fn default() -> Self {
        PredicateCache::new(DEFAULT_CAPACITY)
    }
}

/// Canonical fingerprint of a predicate group: stable across predicate
/// order, sensitive to every column, operator, and constant.
pub fn fingerprint(block: &QueryBlock, pred_indices: &[usize]) -> String {
    let mut parts: Vec<String> = pred_indices
        .iter()
        .map(|&i| {
            let p = &block.local_predicates[i];
            match &p.kind {
                PredKind::Interval(iv) => format!("{} in {}", p.column, iv),
                PredKind::NotEq(v) => format!("{} <> {}", p.column, v),
                PredKind::InList(vals) => {
                    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                    format!("{} IN ({})", p.column, items.join(","))
                }
                PredKind::IsNull(true) => format!("{} IS NULL", p.column),
                PredKind::IsNull(false) => format!("{} IS NOT NULL", p.column),
            }
        })
        .collect();
    parts.sort();
    parts.join(" & ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::Catalog;
    use jits_common::{DataType, Schema};
    use jits_query::{bind_statement, parse, BoundStatement};

    fn block(sql: &str) -> QueryBlock {
        let mut catalog = Catalog::new();
        catalog
            .register_table(
                "car",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("make", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        let BoundStatement::Select(b) = bind_statement(&parse(sql).unwrap(), &catalog).unwrap()
        else {
            panic!()
        };
        b
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let b1 = block("SELECT * FROM car WHERE make <> 'Toyota' AND year > 2000");
        let b2 = block("SELECT * FROM car WHERE year > 2000 AND make <> 'Toyota'");
        assert_eq!(fingerprint(&b1, &[0, 1]), fingerprint(&b2, &[0, 1]));
        assert_eq!(fingerprint(&b1, &[0, 1]), fingerprint(&b1, &[1, 0]));
    }

    #[test]
    fn fingerprint_distinguishes_constants_and_ops() {
        let b1 = block("SELECT * FROM car WHERE make <> 'Toyota'");
        let b2 = block("SELECT * FROM car WHERE make <> 'Honda'");
        let b3 = block("SELECT * FROM car WHERE make = 'Toyota'");
        assert_ne!(fingerprint(&b1, &[0]), fingerprint(&b2, &[0]));
        assert_ne!(fingerprint(&b1, &[0]), fingerprint(&b3, &[0]));
    }

    #[test]
    fn insert_get_touch() {
        let mut c = PredicateCache::new(4);
        c.insert(TableId(0), "f1".into(), 0.4, 1);
        let e = c.get(TableId(0), "f1").unwrap();
        assert_eq!(e.selectivity, 0.4);
        assert!(c.get(TableId(1), "f1").is_none());
        c.touch(TableId(0), "f1", 9);
        assert_eq!(c.get(TableId(0), "f1").unwrap().last_used, 9);
        // refresh overwrites
        c.insert(TableId(0), "f1".into(), 0.6, 10);
        assert_eq!(c.get(TableId(0), "f1").unwrap().selectivity, 0.6);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_pruning() {
        let mut c = PredicateCache::new(2);
        c.insert(TableId(0), "a".into(), 0.1, 1);
        c.insert(TableId(0), "b".into(), 0.2, 2);
        c.touch(TableId(0), "a", 5); // b is now the LRU entry
        c.insert(TableId(0), "c".into(), 0.3, 6);
        assert!(c.get(TableId(0), "b").is_none());
        assert!(c.get(TableId(0), "a").is_some());
        assert!(c.get(TableId(0), "c").is_some());
    }

    #[test]
    fn invalidate_table() {
        let mut c = PredicateCache::new(8);
        c.insert(TableId(0), "a".into(), 0.1, 1);
        c.insert(TableId(1), "a".into(), 0.2, 1);
        c.invalidate_table(TableId(0));
        assert!(c.get(TableId(0), "a").is_none());
        assert!(c.get(TableId(1), "a").is_some());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn selectivity_clamped() {
        let mut c = PredicateCache::new(2);
        c.insert(TableId(0), "a".into(), 7.0, 1);
        assert_eq!(c.get(TableId(0), "a").unwrap().selectivity, 1.0);
    }
}

//! Versioned per-table sample cache.
//!
//! The paper's collection strategy re-draws a fixed-size uniform sample for
//! every query that marks a table — the dominant per-query cost of JITS
//! (§4). *Sampling-Based Query Re-Optimization* (Wu et al., VLDB 2016)
//! observes that samples can be **reused** across optimization calls as
//! long as the underlying data has not drifted. [`SampleCache`] memoizes
//! the drawn row ids per table, versioned by the table's never-resetting
//! [`mutation epoch`](crate::Table::mutation_epoch), and invalidates with
//! the same staleness shape as the paper's Algorithm 3 activity signal
//! `s2 = min(UDI / cardinality, 1)`: mutations since the draw, normalized
//! by the cardinality at draw time. A lightly-mutated table serves its
//! cached sample (the staleness is surfaced in the statement record); a
//! churned table re-draws.
//!
//! Row ids are stable (deletes tombstone, never compact), so a cached
//! sample remains addressable no matter how the table has mutated since;
//! serving a slightly-stale sample is exactly the approximation the paper
//! already accepts between collections, and the threshold bounds it.
//!
//! An entry holds row ids, never cell values: collection evaluates its
//! predicates on the cells as they are when the sample is served, so a
//! served sample sees every mutation since its draw.
//!
//! The cache itself is lock-free storage: the engine wraps it in a ranked
//! `RwLock` (rank 6, between `predcache` and `setting`) and performs all
//! lookups **sequentially in quantifier order** before fanning collection
//! out to worker threads, so cache decisions are independent of
//! `collect_threads` and identical across concurrent sessions.

use crate::row::RowId;
use crate::sample::SampleSpec;
use jits_common::TableId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One memoized draw.
#[derive(Debug, Clone)]
pub struct CachedSample {
    /// The spec the sample was drawn under (spec mismatch = miss).
    pub spec: SampleSpec,
    /// Table mutation epoch at draw time.
    pub epoch: u64,
    /// Live row count at draw time (the staleness denominator).
    pub rows_at_draw: u64,
    /// The drawn row ids, in draw order.
    pub rows: Arc<Vec<RowId>>,
    /// Slot probes the draw cost — replayed on hits so the collection-cost
    /// signal stays deterministic whether a sample is fresh or served.
    pub probes: usize,
    /// Times this entry has been served.
    pub hits: u64,
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Staleness below the limit: serve the cached rows.
    Hit {
        /// The cached row ids.
        rows: Arc<Vec<RowId>>,
        /// Slot probes the original draw cost.
        probes: usize,
        /// Mutations since the draw over cardinality at draw, in `[0, 1]`.
        staleness: f64,
    },
    /// No usable entry (cold table or spec mismatch): draw fresh.
    Miss,
    /// Entry exists but drifted past the limit: re-draw.
    Stale {
        /// The staleness that tripped the limit.
        staleness: f64,
    },
}

/// Lifetime counters, surfaced through metrics and the
/// `jits_sample_cache` system view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups with no usable entry.
    pub misses: u64,
    /// Lookups invalidated by staleness.
    pub stale_redraws: u64,
}

/// The cache: table id → memoized sample, deterministically ordered.
#[derive(Debug, Default)]
pub struct SampleCache {
    entries: BTreeMap<TableId, CachedSample>,
    counters: CacheCounters,
}

/// Staleness of an entry drawn at `(entry_epoch, rows_at_draw)` observed at
/// `epoch_now` — the Algorithm 3 `s2` shape: mutations since the draw over
/// cardinality at the draw, clamped to `[0, 1]`.
pub fn sample_staleness(entry_epoch: u64, rows_at_draw: u64, epoch_now: u64) -> f64 {
    let delta = epoch_now.saturating_sub(entry_epoch);
    if rows_at_draw == 0 {
        // sample drawn from an empty table: any mutation invalidates it
        return if delta > 0 { 1.0 } else { 0.0 };
    }
    (delta as f64 / rows_at_draw as f64).min(1.0)
}

impl SampleCache {
    /// An empty cache.
    pub fn new() -> Self {
        SampleCache::default()
    }

    /// Looks up `tid` at the table's current `epoch_now`, serving the entry
    /// if its staleness is below `limit`. Ticks the outcome counters.
    pub fn lookup(
        &mut self,
        tid: TableId,
        spec: SampleSpec,
        epoch_now: u64,
        limit: f64,
    ) -> CacheLookup {
        match self.entries.get_mut(&tid) {
            Some(e) if e.spec == spec => {
                let staleness = sample_staleness(e.epoch, e.rows_at_draw, epoch_now);
                if staleness < limit {
                    e.hits += 1;
                    self.counters.hits += 1;
                    CacheLookup::Hit {
                        rows: Arc::clone(&e.rows),
                        probes: e.probes,
                        staleness,
                    }
                } else {
                    self.counters.stale_redraws += 1;
                    CacheLookup::Stale { staleness }
                }
            }
            _ => {
                self.counters.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Memoizes a fresh draw for `tid`, replacing any previous entry.
    pub fn store(&mut self, tid: TableId, sample: CachedSample) {
        self.entries.insert(tid, sample);
    }

    /// Drops the entry for `tid` (DDL on the table).
    pub fn invalidate(&mut self, tid: TableId) {
        self.entries.remove(&tid);
    }

    /// Drops every entry; counters survive (they are lifetime totals).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime outcome counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Restores the lifetime counters from a checkpoint. The counters are
    /// decision-visible (metrics, `jits_sample_cache` view), so recovery
    /// must resume them rather than restart from zero.
    pub fn restore_counters(&mut self, counters: CacheCounters) {
        self.counters = counters;
    }

    /// Iterates the entries in table-id order (system-view substrate).
    pub fn entries(&self) -> impl Iterator<Item = (TableId, &CachedSample)> + '_ {
        self.entries.iter().map(|(tid, e)| (*tid, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached(epoch: u64, rows_at_draw: u64) -> CachedSample {
        CachedSample {
            spec: SampleSpec::fixed(100),
            epoch,
            rows_at_draw,
            rows: Arc::new(vec![1, 2, 3]),
            probes: 7,
            hits: 0,
        }
    }

    #[test]
    fn staleness_shape_matches_activity_ratio() {
        assert_eq!(sample_staleness(100, 1000, 100), 0.0);
        assert_eq!(sample_staleness(100, 1000, 150), 0.05);
        assert_eq!(sample_staleness(100, 100, 500), 1.0, "clamped");
        assert_eq!(sample_staleness(0, 0, 0), 0.0);
        assert_eq!(sample_staleness(0, 0, 1), 1.0, "empty-table draw");
    }

    #[test]
    fn hit_then_stale_then_redraw() {
        let mut c = SampleCache::new();
        let tid = TableId(3);
        c.store(tid, cached(1000, 1000));
        // 50 mutations over 1000 rows = 5% staleness, below a 10% limit
        match c.lookup(tid, SampleSpec::fixed(100), 1050, 0.1) {
            CacheLookup::Hit {
                rows,
                probes,
                staleness,
            } => {
                assert_eq!(rows.as_slice(), &[1, 2, 3]);
                assert_eq!(probes, 7);
                assert!((staleness - 0.05).abs() < 1e-12);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // 200 mutations = 20% staleness, past the limit
        match c.lookup(tid, SampleSpec::fixed(100), 1200, 0.1) {
            CacheLookup::Stale { staleness } => assert!((staleness - 0.2).abs() < 1e-12),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(
            c.counters(),
            CacheCounters {
                hits: 1,
                misses: 0,
                stale_redraws: 1
            }
        );
    }

    #[test]
    fn spec_mismatch_and_cold_are_misses() {
        let mut c = SampleCache::new();
        let tid = TableId(0);
        assert!(matches!(
            c.lookup(tid, SampleSpec::fixed(100), 0, 1.0),
            CacheLookup::Miss
        ));
        c.store(tid, cached(10, 100));
        assert!(matches!(
            c.lookup(tid, SampleSpec::fixed(50), 10, 1.0),
            CacheLookup::Miss
        ));
        assert_eq!(c.counters().misses, 2);
    }

    #[test]
    fn zero_limit_never_serves() {
        let mut c = SampleCache::new();
        let tid = TableId(1);
        c.store(tid, cached(10, 100));
        // staleness 0.0 is not < 0.0 — a zero limit disables serving
        assert!(matches!(
            c.lookup(tid, SampleSpec::fixed(100), 10, 0.0),
            CacheLookup::Stale { .. }
        ));
    }

    #[test]
    fn clear_and_invalidate() {
        let mut c = SampleCache::new();
        c.store(TableId(0), cached(1, 10));
        c.store(TableId(1), cached(2, 10));
        c.invalidate(TableId(0));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }
}

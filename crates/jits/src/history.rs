//! StatHistory — the statistics-collection history of paper §3.3.1.
//!
//! Each entry is `(T, colgrp, statlist, count, errorFactor)`: the optimizer
//! estimated the selectivity of column group `colgrp` on table `T` using the
//! statistics in `statlist`, `count` times, with `errorFactor` = estimated /
//! actual selectivity (supplied by the LEO-style feedback loop).
//!
//! Table 1 of the paper, as this module stores it:
//!
//! ```
//! use jits::history::StatHistory;
//! use jits_common::{ColGroup, ColumnId, TableId};
//!
//! let t1 = TableId(1);
//! let g = |cols: &[u32]| ColGroup::new(t1, cols.iter().map(|c| ColumnId(*c)).collect());
//! let abc = g(&[0, 1, 2]);
//!
//! let mut h = StatHistory::default();
//! // estimated (a,b,c) from {(a,b), (c)} with errorFactor 0.8
//! h.record(t1, abc.clone(), vec![g(&[0, 1]), g(&[2])], 0.8, 8);
//! // ... and from {(a), (b,c)} with errorFactor 0.6
//! h.record(t1, abc.clone(), vec![g(&[0]), g(&[1, 2])], 0.6, 8);
//!
//! let entries = h.entries_for(t1, &abc);
//! assert_eq!(entries.len(), 2);
//! assert!(h.entries_using(&g(&[0, 1])).count() == 1);
//! ```

use jits_common::{ColGroup, TableId};
use std::collections::BTreeMap;

/// One StatHistory row (sans the key fields, which index the map).
#[derive(Debug, Clone, PartialEq)]
pub struct HistEntry {
    /// The statistics used to estimate the column group's selectivity
    /// (canonically sorted).
    pub statlist: Vec<ColGroup>,
    /// How many times this statlist estimated this group.
    pub count: u64,
    /// Estimated / actual selectivity (EWMA over observations, clamped away
    /// from 0 and infinity).
    pub error_factor: f64,
}

impl HistEntry {
    /// Symmetric accuracy derived from the error factor: `min(ef, 1/ef)`,
    /// in `(0, 1]`. The paper treats errorFactor as an accuracy directly
    /// (its example has ef < 1); the symmetric form extends that to
    /// overestimates.
    pub fn accuracy(&self) -> f64 {
        if self.error_factor <= 0.0 {
            return 0.0;
        }
        self.error_factor.min(1.0 / self.error_factor)
    }
}

/// A [`StatHistory::snapshot`]: every entry list, keyed by table and
/// column group.
pub type HistorySnapshot = Vec<((TableId, ColGroup), Vec<HistEntry>)>;

/// The statistics-collection history.
///
/// Keyed by `BTreeMap`: [`StatHistory::entries_using`] iterates the whole
/// map and its results feed sensitivity scores, so the visit order must be
/// deterministic, never hash order.
#[derive(Debug, Default, Clone)]
pub struct StatHistory {
    entries: BTreeMap<(TableId, ColGroup), Vec<HistEntry>>,
}

/// Error factors are clamped into this range so EWMAs stay finite.
const EF_MIN: f64 = 1e-4;
const EF_MAX: f64 = 1e4;

impl StatHistory {
    /// An empty history.
    pub fn new() -> Self {
        StatHistory::default()
    }

    /// Records an observation: `colgrp` on `table` was estimated using
    /// `statlist` with the given error factor. Observations with an existing
    /// (table, colgrp, statlist) entry bump its count and fold the error
    /// factor in with an EWMA (weight 0.5 on the new observation); new
    /// statlists insert a fresh entry, evicting the least-used entry when
    /// the per-key cap is exceeded.
    pub fn record(
        &mut self,
        table: TableId,
        colgrp: ColGroup,
        mut statlist: Vec<ColGroup>,
        error_factor: f64,
        per_key_cap: usize,
    ) {
        statlist.sort();
        statlist.dedup();
        let ef = error_factor.clamp(EF_MIN, EF_MAX);
        let entries = self.entries.entry((table, colgrp)).or_default();
        if let Some(e) = entries.iter_mut().find(|e| e.statlist == statlist) {
            e.count += 1;
            e.error_factor = 0.5 * e.error_factor + 0.5 * ef;
            return;
        }
        entries.push(HistEntry {
            statlist,
            count: 1,
            error_factor: ef,
        });
        if entries.len() > per_key_cap.max(1) {
            // evict the least-used (ties: worst accuracy) entry
            let victim = entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.count
                        .cmp(&b.count)
                        .then(a.accuracy().total_cmp(&b.accuracy()))
                })
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            entries.swap_remove(victim);
        }
    }

    /// Entries describing estimates *of* this column group (Algorithm 3's
    /// `H ← {h | h.T = t, h.colgrp = g}`).
    pub fn entries_for(&self, table: TableId, colgrp: &ColGroup) -> &[HistEntry] {
        self.entries
            .get(&(table, colgrp.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Entries whose statlist *uses* the given statistic (Algorithm 4's
    /// `H ← {h | g ∈ h.statlist}`).
    pub fn entries_using<'a>(
        &'a self,
        stat: &'a ColGroup,
    ) -> impl Iterator<Item = &'a HistEntry> + 'a {
        self.entries
            .values()
            .flatten()
            .filter(move |e| e.statlist.contains(stat))
    }

    /// Total number of entries across all keys.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all history (used between experiment settings).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Raw state dump for checkpointing: every `(table, colgrp)` key with
    /// its entry vector in stored order. Entry order matters — the
    /// per-key-cap eviction `swap_remove`s, so order is history the
    /// sensitivity scores iterate over.
    pub fn snapshot(&self) -> HistorySnapshot {
        self.entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Rebuilds a history from a [`StatHistory::snapshot`], field for
    /// field.
    pub fn from_snapshot(s: HistorySnapshot) -> StatHistory {
        StatHistory {
            entries: s.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::ColumnId;

    fn g(cols: &[u32]) -> ColGroup {
        ColGroup::new(TableId(1), cols.iter().map(|c| ColumnId(*c)).collect())
    }

    #[test]
    fn record_and_query() {
        let mut h = StatHistory::new();
        h.record(TableId(1), g(&[0, 1]), vec![g(&[0]), g(&[1])], 0.5, 8);
        let entries = h.entries_for(TableId(1), &g(&[0, 1]));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 1);
        assert_eq!(entries[0].error_factor, 0.5);
        assert!(h.entries_for(TableId(2), &g(&[0, 1])).is_empty());
    }

    #[test]
    fn same_statlist_merges_with_ewma() {
        let mut h = StatHistory::new();
        h.record(TableId(1), g(&[0, 1]), vec![g(&[0]), g(&[1])], 0.4, 8);
        // statlist order must not matter
        h.record(TableId(1), g(&[0, 1]), vec![g(&[1]), g(&[0])], 0.8, 8);
        let entries = h.entries_for(TableId(1), &g(&[0, 1]));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 2);
        assert!((entries[0].error_factor - 0.6).abs() < 1e-12);
    }

    #[test]
    fn entries_using_statistic() {
        let mut h = StatHistory::new();
        h.record(TableId(1), g(&[0, 1, 2]), vec![g(&[0, 1]), g(&[2])], 0.8, 8);
        h.record(TableId(1), g(&[0, 1, 3]), vec![g(&[0, 1]), g(&[3])], 0.9, 8);
        h.record(TableId(1), g(&[0, 1, 2]), vec![g(&[0]), g(&[1, 2])], 0.6, 8);
        assert_eq!(h.entries_using(&g(&[0, 1])).count(), 2);
        assert_eq!(h.entries_using(&g(&[1, 2])).count(), 1);
        assert_eq!(h.entries_using(&g(&[9])).count(), 0);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn accuracy_is_symmetric() {
        let e = HistEntry {
            statlist: vec![],
            count: 1,
            error_factor: 0.4,
        };
        assert!((e.accuracy() - 0.4).abs() < 1e-12);
        let e = HistEntry {
            statlist: vec![],
            count: 1,
            error_factor: 2.5,
        };
        assert!((e.accuracy() - 0.4).abs() < 1e-12);
        let e = HistEntry {
            statlist: vec![],
            count: 1,
            error_factor: 1.0,
        };
        assert_eq!(e.accuracy(), 1.0);
    }

    #[test]
    fn per_key_cap_evicts_least_used() {
        let mut h = StatHistory::new();
        for i in 0..4u32 {
            h.record(TableId(1), g(&[0, 1]), vec![g(&[i])], 0.9, 3);
        }
        // bump one entry so it is protected
        h.record(TableId(1), g(&[0, 1]), vec![g(&[3])], 0.9, 3);
        assert_eq!(h.entries_for(TableId(1), &g(&[0, 1])).len(), 3);
    }

    #[test]
    fn extreme_error_factors_clamped() {
        let mut h = StatHistory::new();
        h.record(TableId(1), g(&[0]), vec![g(&[0])], f64::INFINITY, 8);
        let e = &h.entries_for(TableId(1), &g(&[0]))[0];
        assert!(e.error_factor.is_finite());
        h.record(TableId(1), g(&[1]), vec![g(&[1])], 0.0, 8);
        let e = &h.entries_for(TableId(1), &g(&[1]))[0];
        assert!(e.error_factor > 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut h = StatHistory::new();
        h.record(TableId(1), g(&[0]), vec![g(&[0])], 1.0, 8);
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }
}

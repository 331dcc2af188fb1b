//! LEO-style feedback ingestion (paper §3.3.1 and \[14\]).
//!
//! After execution, the executor's per-scan cardinality observations become
//! StatHistory entries: `(T, colgrp, statlist, count, errorFactor)` with
//! `errorFactor = estimated / actual selectivity`. These entries are what
//! Algorithm 3 reads to judge whether existing statistics estimate a group
//! accurately, and what Algorithm 4 reads to judge whether a statistic has
//! been useful. The QSS archive is updated from compile-time samples only,
//! as in the paper.

use crate::history::StatHistory;
use jits_executor::ScanObservation;
use jits_query::QueryBlock;

/// Maximum StatHistory entries (distinct statlists) per (table,
/// column-group) key; past it the least-used entry is evicted.
const HISTORY_ENTRIES_PER_KEY: usize = 8;

/// Ingests one query's scan observations into the StatHistory.
pub fn ingest(block: &QueryBlock, observations: &[ScanObservation], history: &mut StatHistory) {
    for obs in observations {
        if obs.pred_indices.is_empty() {
            continue;
        }
        // Estimates produced purely from textbook defaults used no stored
        // statistic, so there is nothing for Algorithm 3 to judge: recording
        // them would let a lucky default suppress collection forever. The
        // StatHistory only describes statistics-derived estimates.
        if obs.statlist.is_empty() {
            continue;
        }
        history.record(
            obs.table,
            block.colgroup_of(&obs.pred_indices),
            obs.statlist.clone(),
            obs.error_factor(),
            HISTORY_ENTRIES_PER_KEY,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::Catalog;
    use jits_common::{DataType, Schema, TableId};
    use jits_optimizer::StatSource;
    use jits_query::{bind_statement, parse, BoundStatement};

    fn setup() -> QueryBlock {
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
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT * FROM car WHERE make = 'Toyota' AND year > 2000").unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        block
    }

    fn obs(block: &QueryBlock, est: f64, actual: f64) -> ScanObservation {
        ScanObservation {
            qun: 0,
            table: TableId(0),
            pred_indices: vec![0, 1],
            est_selectivity: est,
            statlist: vec![block.colgroup_of(&[0]), block.colgroup_of(&[1])],
            source: StatSource::Catalog,
            actual_rows: actual * 1000.0,
            table_rows: 1000.0,
        }
    }

    #[test]
    fn observations_become_history_entries() {
        let block = setup();
        let mut history = StatHistory::new();
        let o = obs(&block, 0.2, 0.5);
        ingest(&block, &[o], &mut history);
        let colgrp = block.colgroup_of(&[0, 1]);
        let entries = history.entries_for(TableId(0), &colgrp);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].statlist.len(), 2);
        assert!((entries[0].error_factor - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_pred_groups_skipped() {
        let block = setup();
        let mut history = StatHistory::new();
        let mut o = obs(&block, 0.2, 0.5);
        o.pred_indices.clear();
        ingest(&block, &[o], &mut history);
        assert!(history.is_empty());
    }

    #[test]
    fn default_estimates_not_recorded() {
        // an estimate from pure defaults used no statistic -> no entry,
        // so the sensitivity analysis keeps s1 = 1 and samples the table
        let block = setup();
        let mut history = StatHistory::new();
        let mut o = obs(&block, 0.0333, 0.0333);
        o.statlist.clear();
        o.source = StatSource::Default;
        ingest(&block, &[o], &mut history);
        assert!(history.is_empty());
    }
}

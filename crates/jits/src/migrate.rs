//! Statistics migration — folding QSS back into the system catalog.
//!
//! Paper §3.1: "The information in the QSS archive can be used to
//! periodically update the system catalog using the Statistics Migration
//! module." One-dimensional archive histograms translate directly into
//! catalog distribution histograms; multi-dimensional ones have no catalog
//! representation (the catalog stores general statistics only) and are left
//! in the archive.

use crate::archive::QssArchive;
use jits_catalog::{Catalog, ColumnStats, TableStats};
use jits_common::DataType;
use jits_histogram::EquiDepth;

/// Statements between migrations under the JITS setting: the engine runs
/// [`migrate`] whenever its logical clock reaches a multiple of this (paper
/// §3.1: "the information in the QSS archive can be used to periodically
/// update the system catalog").
pub const MIGRATE_EVERY: u64 = 25;

/// Migrates all one-dimensional archive histograms into the catalog's
/// column statistics. Returns the number of columns updated.
pub fn migrate(archive: &QssArchive, catalog: &mut Catalog, clock: u64) -> usize {
    let mut updates = Vec::new();
    for (group, hist) in archive.iter() {
        if group.arity() != 1 {
            continue;
        }
        let boundaries = hist.boundaries()[0].clone();
        let counts = hist.counts().to_vec();
        updates.push((
            group.table(),
            group.columns()[0],
            boundaries,
            counts,
            hist.total(),
        ));
    }
    let mut n = 0;
    for (table, column, boundaries, counts, total) in updates {
        let Some(entry) = catalog.table_mut(table) else {
            continue;
        };
        let Some(dtype) = entry.schema.column(column).map(|c| c.dtype) else {
            continue;
        };
        let histogram = EquiDepth::from_buckets(boundaries, counts);
        let slot = &mut entry.column_stats[column.index()];
        match slot {
            Some(cs) => {
                cs.histogram = histogram;
                cs.row_count = total;
                cs.collected_at = clock;
            }
            None => {
                *slot = Some(ColumnStats {
                    dtype,
                    min: None,
                    max: None,
                    distinct: distinct_guess(&histogram, dtype),
                    null_count: 0.0,
                    row_count: total,
                    mcv: Vec::new(),
                    histogram,
                    collected_at: clock,
                });
            }
        }
        // a migrated histogram also refreshes the table cardinality
        match &mut entry.table_stats {
            Some(ts) if ts.collected_at < clock => {
                ts.row_count = total;
                ts.collected_at = clock;
            }
            None => {
                entry.table_stats = Some(TableStats {
                    row_count: total,
                    collected_at: clock,
                });
            }
            _ => {}
        }
        n += 1;
    }
    n
}

fn distinct_guess(h: &EquiDepth, dtype: DataType) -> f64 {
    match dtype {
        DataType::Int => h.distinct_total(),
        _ => h.distinct_total().max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::{ColGroup, ColumnId, Schema, TableId, Value};
    use jits_histogram::Region;

    fn setup() -> (Catalog, QssArchive) {
        let mut catalog = Catalog::new();
        catalog
            .register_table(
                "car",
                Schema::from_pairs(&[("id", DataType::Int), ("year", DataType::Int)]),
            )
            .unwrap();
        let mut archive = QssArchive::default();
        // 1-D histogram on year: 80% of 1000 rows have year < 2000
        archive.apply_observation(
            ColGroup::single(TableId(0), ColumnId(1)),
            &Region::new(vec![(1990.0, 2010.0)]),
            &Region::new(vec![(1990.0, 2000.0)]),
            800.0,
            1000.0,
            5,
        );
        // 2-D histogram: must NOT migrate
        archive.apply_observation(
            ColGroup::new(TableId(0), vec![ColumnId(0), ColumnId(1)]),
            &Region::new(vec![(0.0, 100.0), (1990.0, 2010.0)]),
            &Region::new(vec![(0.0, 50.0), (1990.0, 2000.0)]),
            100.0,
            1000.0,
            5,
        );
        (catalog, archive)
    }

    #[test]
    fn one_dimensional_histograms_migrate() {
        let (mut catalog, archive) = setup();
        let n = migrate(&archive, &mut catalog, 9);
        assert_eq!(n, 1);
        let cs = catalog.column_stats(TableId(0), ColumnId(1)).unwrap();
        assert_eq!(cs.collected_at, 9);
        assert_eq!(cs.row_count, 1000.0);
        // the migrated histogram answers range queries with QSS knowledge
        let sel = cs
            .selectivity(&jits_common::Interval::at_most(Value::Int(1999), true))
            .unwrap();
        assert!((sel - 0.8).abs() < 0.05, "sel {sel}");
        // table stats refreshed too
        assert_eq!(catalog.row_count(TableId(0)), Some(1000.0));
    }

    #[test]
    fn multi_dimensional_histograms_stay_in_archive() {
        let (mut catalog, archive) = setup();
        migrate(&archive, &mut catalog, 9);
        assert!(catalog.column_stats(TableId(0), ColumnId(0)).is_none());
        assert_eq!(archive.len(), 2, "archive itself is untouched");
    }

    #[test]
    fn unknown_tables_ignored() {
        let mut catalog = Catalog::new();
        let (_, archive) = setup();
        assert_eq!(migrate(&archive, &mut catalog, 1), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use jits_common::{ColGroup, ColumnId, Schema, TableId};
    use jits_histogram::Region;

    #[test]
    fn newer_catalog_stats_not_overwritten() {
        let mut catalog = Catalog::new();
        catalog
            .register_table("t", Schema::from_pairs(&[("v", DataType::Int)]))
            .unwrap();
        // catalog already holds stats stamped at clock 100
        catalog
            .set_stats(
                TableId(0),
                TableStats {
                    row_count: 555.0,
                    collected_at: 100,
                },
                vec![ColumnStats {
                    dtype: DataType::Int,
                    min: None,
                    max: None,
                    distinct: 1.0,
                    null_count: 0.0,
                    row_count: 555.0,
                    mcv: vec![],
                    histogram: EquiDepth::build(vec![1.0, 2.0, 3.0], 2),
                    collected_at: 100,
                }],
            )
            .unwrap();
        let mut archive = QssArchive::default();
        archive.apply_observation(
            ColGroup::single(TableId(0), ColumnId(0)),
            &Region::new(vec![(0.0, 10.0)]),
            &Region::new(vec![(0.0, 5.0)]),
            10.0,
            20.0,
            5,
        );
        // migrating at clock 50 (older than the catalog's 100): the column
        // histogram updates, but the newer table stats stay
        migrate(&archive, &mut catalog, 50);
        let ts = catalog
            .table(TableId(0))
            .unwrap()
            .table_stats
            .clone()
            .unwrap();
        assert_eq!(ts.row_count, 555.0, "newer table stats preserved");
        let cs = catalog.column_stats(TableId(0), ColumnId(0)).unwrap();
        assert_eq!(cs.collected_at, 50, "column histogram migrated");
        assert_eq!(cs.row_count, 20.0);
    }
}

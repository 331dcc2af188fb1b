//! The JITS statistics provider: fresh sample → QSS archive → catalog.

use crate::archive::QssArchive;
use crate::collect::{group_region, CollectedStats};
use crate::predcache::{fingerprint, PredicateCache};
use jits_catalog::Catalog;
use jits_common::{ColGroup, ColumnId, DataType, TableId};
use jits_optimizer::{CatalogStatisticsProvider, SelEstimate, StatSource, StatisticsProvider};
use jits_query::QueryBlock;
use jits_storage::Table;
use std::cell::RefCell;

/// Minimum boundary accuracy (the paper's §3.3.2 metric) an archive
/// histogram must score on a query region before its estimate is used.
/// Guards against volume-interpolating equality predicates on categorical
/// axes far from any observed boundary, where interpolation is
/// meaningless.
pub const ARCHIVE_ACCURACY_GATE: f64 = 0.3;

/// Layers query-specific statistics over the general catalog:
///
/// 1. **fresh** — selectivities measured on this query's compile-time
///    sample (exact for the query's own predicate groups);
/// 2. **archive** — QSS histograms materialized by earlier queries;
/// 3. **catalog** — general 1-D statistics (via
///    [`CatalogStatisticsProvider`]).
///
/// Archive histograms consulted during costing are recorded so the engine
/// can LRU-touch them after optimization (`take_used_archive_groups`).
pub struct JitsStatisticsProvider<'a> {
    fresh: &'a CollectedStats,
    archive: &'a QssArchive,
    catalog: &'a Catalog,
    /// Storage tables (indexed by `TableId`) for index metadata: an index
    /// knows its distinct key count for free, and a real DBMS exposes
    /// it without any RUNSTATS pass.
    tables: &'a [Table],
    predcache: &'a PredicateCache,
    fallback: CatalogStatisticsProvider<'a>,
    used_archive: RefCell<Vec<ColGroup>>,
    used_cache: RefCell<Vec<(TableId, String)>>,
}

impl<'a> JitsStatisticsProvider<'a> {
    /// Builds the layered provider.
    pub fn new(
        fresh: &'a CollectedStats,
        archive: &'a QssArchive,
        catalog: &'a Catalog,
        tables: &'a [Table],
    ) -> Self {
        static EMPTY_CACHE: std::sync::OnceLock<PredicateCache> = std::sync::OnceLock::new();
        JitsStatisticsProvider {
            fresh,
            archive,
            catalog,
            tables,
            predcache: EMPTY_CACHE.get_or_init(|| PredicateCache::new(1)),
            fallback: CatalogStatisticsProvider::new(catalog),
            used_archive: RefCell::new(Vec::new()),
            used_cache: RefCell::new(Vec::new()),
        }
    }

    /// Attaches the auxiliary predicate cache (paper §3.4 footnote 1).
    pub fn with_predicate_cache(mut self, cache: &'a PredicateCache) -> Self {
        self.predcache = cache;
        self
    }

    /// Archive groups whose histograms served estimates (drained).
    pub fn take_used_archive_groups(&self) -> Vec<ColGroup> {
        std::mem::take(&mut self.used_archive.borrow_mut())
    }

    /// Predicate-cache entries that served estimates (drained).
    pub fn take_used_cache_entries(&self) -> Vec<(TableId, String)> {
        std::mem::take(&mut self.used_cache.borrow_mut())
    }

    fn column_type(&self, table: TableId, col: ColumnId) -> DataType {
        self.catalog
            .table(table)
            .and_then(|t| t.schema.column(col))
            .map(|c| c.dtype)
            .unwrap_or(DataType::Float)
    }

    /// Finds the tightest archive histogram over a strict superset of the
    /// group's columns that passes the usability gate, and answers by
    /// marginalizing the extra dimensions.
    fn infer_from_superset(
        &self,
        block: &QueryBlock,
        qun: usize,
        pred_indices: &[usize],
        colgroup: &ColGroup,
    ) -> Option<SelEstimate> {
        // quantifier indices come from the caller; an out-of-range index
        // (e.g. a stale candidate after degradation) means "no estimate",
        // never a panic
        let table = block.quns.get(qun)?.table;
        let types = |c: ColumnId| self.column_type(table, c);
        let mut best: Option<&ColGroup> = None;
        for (candidate, _) in self.archive.iter() {
            if candidate.table() != table || candidate == colgroup || !candidate.contains(colgroup)
            {
                continue;
            }
            if best.is_some_and(|b| b.arity() <= candidate.arity()) {
                continue;
            }
            let acc = crate::gate::archive_accuracy_for(
                self.archive,
                block,
                pred_indices,
                candidate,
                &types,
            );
            if acc.is_some_and(|a| a >= ARCHIVE_ACCURACY_GATE) {
                best = Some(candidate);
            }
        }
        let superset = best?;
        let region = crate::gate::project_onto(block, pred_indices, superset, &types)?;
        let sel = self.archive.selectivity(superset, &region)?;
        self.used_archive.borrow_mut().push(superset.clone());
        Some(SelEstimate::from_stat(
            sel,
            superset.clone(),
            StatSource::Qss,
        ))
    }
}

impl StatisticsProvider for JitsStatisticsProvider<'_> {
    fn table_cardinality(&self, table: TableId) -> Option<f64> {
        self.fresh
            .table_rows
            .get(&table)
            .copied()
            .or_else(|| self.fallback.table_cardinality(table))
            // physical storage metadata: live row counts are maintained by
            // the storage layer and need no statistics collection
            .or_else(|| self.tables.get(table.index()).map(|t| t.row_count() as f64))
    }

    fn group_selectivity(
        &self,
        block: &QueryBlock,
        qun: usize,
        pred_indices: &[usize],
    ) -> Option<SelEstimate> {
        if pred_indices.is_empty() {
            return None;
        }
        // 1. fresh sample statistics: exact for this query's groups
        if let Some(stat) = self.fresh.group(qun, pred_indices) {
            return Some(SelEstimate::from_stat(
                stat.selectivity,
                stat.colgroup.clone(),
                StatSource::Qss,
            ));
        }
        let colgroup = block.colgroup_of(pred_indices);
        // tolerate out-of-range quantifiers (see infer_from_superset): a
        // missing lookup degrades to "no estimate", the optimizer's default
        let table = block.quns.get(qun)?.table;
        let types = |c: ColumnId| self.column_type(table, c);

        // 2. the auxiliary predicate cache: exact matches for groups with
        // no region form (paper §3.4 footnote 1)
        if !block.group_is_region(pred_indices) {
            let fp = fingerprint(block, pred_indices);
            if let Some(entry) = self.predcache.get(table, &fp) {
                self.used_cache.borrow_mut().push((table, fp));
                return Some(SelEstimate::from_stat(
                    entry.selectivity,
                    colgroup,
                    StatSource::Qss,
                ));
            }
        }

        // 3. the QSS archive — only where the shared usability gate says the
        // histogram can actually answer the region (see [`crate::gate`])
        let usable =
            crate::gate::archive_accuracy_for(self.archive, block, pred_indices, &colgroup, &types)
                .is_some_and(|a| a >= ARCHIVE_ACCURACY_GATE);
        if usable {
            if let Some(region) = group_region(block, pred_indices, &types) {
                if let Some(sel) = self.archive.selectivity(&colgroup, &region) {
                    self.used_archive.borrow_mut().push(colgroup.clone());
                    return Some(SelEstimate::from_stat(sel, colgroup, StatSource::Qss));
                }
            }
        }

        // 4. superset inference (future-work extension): a histogram over a
        // superset of the group's columns answers the group by
        // marginalizing the unconstrained dimensions
        if block.group_is_region(pred_indices) {
            if let Some(est) = self.infer_from_superset(block, qun, pred_indices, &colgroup) {
                return Some(est);
            }
        }

        // 5. general catalog statistics
        self.fallback.group_selectivity(block, qun, pred_indices)
    }

    fn distinct(&self, table: TableId, column: ColumnId) -> Option<f64> {
        self.fallback
            .distinct(table, column)
            .or_else(|| {
                // index metadata: exact distinct key count, maintained live
                let idx = self.tables.get(table.index())?.index(column)?;
                Some(idx.distinct_keys() as f64)
            })
            .or_else(|| {
                // a declared primary key has one row per value, so its
                // distinct count is the table cardinality
                let is_pk = self.catalog.table(table)?.primary_key == Some(column);
                if is_pk {
                    self.table_cardinality(table)
                } else {
                    None
                }
            })
    }
}

/// The "no statistics" provider a real DBMS actually has: nothing from any
/// statistics subsystem, but table cardinalities still come from physical
/// storage metadata (DB2 derives a default CARD from the table's page
/// count even before any RUNSTATS). Selectivities all fall to textbook
/// defaults.
pub struct PhysicalMetadataProvider<'a> {
    /// Storage tables, indexed by `TableId`.
    pub tables: &'a [Table],
}

impl StatisticsProvider for PhysicalMetadataProvider<'_> {
    fn table_cardinality(&self, table: TableId) -> Option<f64> {
        self.tables.get(table.index()).map(|t| t.row_count() as f64)
    }

    fn group_selectivity(
        &self,
        _block: &QueryBlock,
        _qun: usize,
        _pred_indices: &[usize],
    ) -> Option<SelEstimate> {
        None
    }

    fn distinct(&self, table: TableId, column: ColumnId) -> Option<f64> {
        // index metadata (key cardinality) is also physical, not statistical
        let idx = self.tables.get(table.index())?.index(column)?;
        Some(idx.distinct_keys() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::query_analysis;
    use crate::collect::collect_for_tables;
    use jits_common::{Schema, SplitMix64, Value};
    use jits_histogram::Region;
    use jits_query::{bind_statement, parse, BoundStatement};
    use jits_storage::{SampleSpec, Table};

    fn setup() -> (Catalog, Vec<Table>, QueryBlock) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
        ]);
        catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..1000i64 {
            let (make, model) = if i % 10 < 3 {
                ("Toyota", "Camry")
            } else if i % 10 < 6 {
                ("Toyota", "Corolla")
            } else {
                ("Honda", "Civic")
            };
            t.insert(vec![Value::Int(i), Value::str(make), Value::str(model)])
                .unwrap();
        }
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT * FROM car WHERE make = 'Toyota' AND model = 'Camry'").unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        (catalog, vec![t], block)
    }

    #[test]
    fn fresh_stats_take_priority() {
        let (catalog, tables, block) = setup();
        let candidates = query_analysis(&block);
        let mut rng = SplitMix64::new(1);
        let fresh = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(5000),
            &mut rng,
        );
        let archive = QssArchive::default();
        let p = JitsStatisticsProvider::new(&fresh, &archive, &catalog, &tables);
        let est = p.group_selectivity(&block, 0, &[0, 1]).unwrap();
        assert!((est.selectivity - 0.3).abs() < 1e-9);
        assert_eq!(est.source, StatSource::Qss);
        assert_eq!(p.table_cardinality(block.quns[0].table), Some(1000.0));
        assert!(p.take_used_archive_groups().is_empty());
    }

    #[test]
    fn archive_answers_when_no_fresh_stats() {
        let (catalog, tables, block) = setup();
        let candidates = query_analysis(&block);
        // build the archive from a previous "collection"
        let mut rng = SplitMix64::new(1);
        let collected = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(5000),
            &mut rng,
        );
        let mut archive = QssArchive::default();
        let joint = collected.group(0, &[0, 1]).unwrap();
        let frame = collected.frames.get(&joint.colgroup).unwrap();
        archive.apply_observation(
            joint.colgroup.clone(),
            frame,
            joint.region.as_ref().unwrap(),
            joint.selectivity * 1000.0,
            1000.0,
            1,
        );
        // now a new query with NO fresh stats
        let empty = CollectedStats::default();
        let p = JitsStatisticsProvider::new(&empty, &archive, &catalog, &tables);
        let est = p.group_selectivity(&block, 0, &[0, 1]).unwrap();
        assert!(
            (est.selectivity - 0.3).abs() < 0.02,
            "sel {}",
            est.selectivity
        );
        assert_eq!(est.source, StatSource::Qss);
        let used = p.take_used_archive_groups();
        assert_eq!(used, vec![joint.colgroup.clone()]);
        let _ = Region::unbounded(1);
    }

    #[test]
    fn falls_back_to_catalog() {
        let (mut catalog, tables, block) = setup();
        let (ts, cs) =
            jits_catalog::runstats(&tables[0], jits_catalog::RunstatsOptions::default(), 1);
        catalog.set_stats(block.quns[0].table, ts, cs).unwrap();
        let empty = CollectedStats::default();
        let archive = QssArchive::default();
        let p = JitsStatisticsProvider::new(&empty, &archive, &catalog, &tables);
        // single-column group answered by the catalog
        let est = p.group_selectivity(&block, 0, &[0]).unwrap();
        assert_eq!(est.source, StatSource::Catalog);
        assert!((est.selectivity - 0.6).abs() < 0.02);
        // multi-column unanswered anywhere
        assert!(p.group_selectivity(&block, 0, &[0, 1]).is_none());
        assert!(p.distinct(block.quns[0].table, ColumnId(1)).is_some());
    }
}

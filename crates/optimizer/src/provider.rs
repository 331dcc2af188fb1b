//! The statistics seam between the optimizer and whoever owns statistics.

use jits_catalog::Catalog;
use jits_common::{ColGroup, ColumnId, TableId};
use jits_query::{PredKind, QueryBlock};

/// Provenance of a selectivity estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatSource {
    /// Textbook default constants (no statistics at all).
    Default,
    /// General catalog statistics (with independence across columns).
    Catalog,
    /// Query-specific statistics (fresh sample or QSS archive).
    Qss,
}

/// A selectivity estimate with the provenance the feedback loop needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SelEstimate {
    /// Estimated fraction of rows satisfying the predicate group.
    pub selectivity: f64,
    /// The column groups whose stored statistics produced the estimate —
    /// the paper's `statlist`.
    pub statlist: Vec<ColGroup>,
    /// Where the estimate came from.
    pub source: StatSource,
}

impl SelEstimate {
    /// An estimate from a single stored statistic.
    pub fn from_stat(selectivity: f64, group: ColGroup, source: StatSource) -> Self {
        SelEstimate {
            selectivity: selectivity.clamp(0.0, 1.0),
            statlist: vec![group],
            source,
        }
    }
}

/// What the optimizer asks of a statistics subsystem.
///
/// A provider answers only what its statistics answer *directly*; the
/// cardinality estimator ([`crate::card`]) composes partial answers with
/// independence when a joint answer is unavailable — mirroring how the
/// paper's optimizer "can estimate the selectivity of conjuncts ... by using
/// partial selectivities".
pub trait StatisticsProvider {
    /// Estimated live row count of a table, if known.
    fn table_cardinality(&self, table: TableId) -> Option<f64>;

    /// Joint selectivity of the predicate-index group `pred_indices` (into
    /// `block.local_predicates`, all on quantifier `qun`) — `None` unless
    /// the provider holds a statistic that answers the group as a whole.
    fn group_selectivity(
        &self,
        block: &QueryBlock,
        qun: usize,
        pred_indices: &[usize],
    ) -> Option<SelEstimate>;

    /// Estimated distinct count of a column, if known.
    fn distinct(&self, table: TableId, column: ColumnId) -> Option<f64>;
}

/// The "no statistics" provider: knows nothing, forcing the estimator onto
/// textbook defaults (the paper's "no initial statistics" setting).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStatisticsProvider;

impl StatisticsProvider for NoStatisticsProvider {
    fn table_cardinality(&self, _table: TableId) -> Option<f64> {
        None
    }

    fn group_selectivity(
        &self,
        _block: &QueryBlock,
        _qun: usize,
        _pred_indices: &[usize],
    ) -> Option<SelEstimate> {
        None
    }

    fn distinct(&self, _table: TableId, _column: ColumnId) -> Option<f64> {
        None
    }
}

/// General-statistics provider: answers single-*column* groups from the
/// catalog's 1-D histograms/MCVs. Multi-column groups return `None`, which
/// makes the estimator fall back to independence — exactly the assumption
/// the paper blames for large errors on correlated columns.
#[derive(Debug, Clone, Copy)]
pub struct CatalogStatisticsProvider<'a> {
    catalog: &'a Catalog,
}

impl<'a> CatalogStatisticsProvider<'a> {
    /// Wraps a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        CatalogStatisticsProvider { catalog }
    }
}

impl StatisticsProvider for CatalogStatisticsProvider<'_> {
    fn table_cardinality(&self, table: TableId) -> Option<f64> {
        self.catalog.row_count(table)
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
        let group = block.colgroup_of(pred_indices);
        if group.arity() != 1 {
            return None; // no multi-dimensional general statistics
        }
        let table = block.quns[qun].table;
        let column = group.columns()[0];
        let stats = self.catalog.column_stats(table, column)?;

        let (intervals, residuals) = block.constraints_of(pred_indices);
        let mut sel = 1.0;
        if let Some((_, iv)) = intervals.first() {
            sel *= stats.selectivity(iv)?;
        }
        for r in residuals {
            match &r.kind {
                PredKind::NotEq(v) => {
                    let eq = stats.selectivity(&jits_common::Interval::point(v.clone()))?;
                    sel *= (1.0 - eq).clamp(0.0, 1.0);
                }
                PredKind::InList(vals) => {
                    // disjunction of points: sum of the point selectivities
                    let mut total = 0.0;
                    for v in vals {
                        total += stats.selectivity(&jits_common::Interval::point(v.clone()))?;
                    }
                    sel *= total.clamp(0.0, 1.0);
                }
                PredKind::IsNull(want_null) => {
                    let null_frac = if stats.row_count > 0.0 {
                        (stats.null_count / stats.row_count).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    sel *= if *want_null {
                        null_frac
                    } else {
                        1.0 - null_frac
                    };
                }
                PredKind::Interval(iv) => sel *= stats.selectivity(iv)?,
            }
        }
        Some(SelEstimate::from_stat(sel, group, StatSource::Catalog))
    }

    fn distinct(&self, table: TableId, column: ColumnId) -> Option<f64> {
        self.catalog.column_stats(table, column).map(|s| s.distinct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::{runstats, RunstatsOptions};
    use jits_common::{DataType, Schema, Value};
    use jits_query::{bind_statement, parse, BoundStatement};
    use jits_storage::Table;

    fn setup() -> (Catalog, QueryBlock) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let tid = catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..1000i64 {
            let make = if i % 10 < 6 { "Toyota" } else { "Honda" };
            t.insert(vec![
                Value::Int(i),
                Value::str(make),
                Value::Int(1990 + (i % 17)),
            ])
            .unwrap();
        }
        let (ts, cs) = runstats(&t, RunstatsOptions::default(), 1);
        catalog.set_stats(tid, ts, cs).unwrap();

        let stmt = parse("SELECT * FROM car WHERE make = 'Toyota' AND year > 2000").unwrap();
        let BoundStatement::Select(block) = bind_statement(&stmt, &catalog).unwrap() else {
            panic!()
        };
        (catalog, block)
    }

    #[test]
    fn no_stats_provider_knows_nothing() {
        let (_, block) = setup();
        let p = NoStatisticsProvider;
        assert_eq!(p.table_cardinality(TableId(0)), None);
        assert_eq!(p.group_selectivity(&block, 0, &[0]), None);
        assert_eq!(p.distinct(TableId(0), ColumnId(1)), None);
    }

    #[test]
    fn catalog_provider_answers_single_columns() {
        let (catalog, block) = setup();
        let p = CatalogStatisticsProvider::new(&catalog);
        assert_eq!(p.table_cardinality(TableId(0)), Some(1000.0));
        let est = p.group_selectivity(&block, 0, &[0]).unwrap();
        assert!((est.selectivity - 0.6).abs() < 0.02, "{}", est.selectivity);
        assert_eq!(est.source, StatSource::Catalog);
        assert_eq!(est.statlist.len(), 1);
        // multi-column group: unanswered
        assert_eq!(p.group_selectivity(&block, 0, &[0, 1]), None);
        assert_eq!(p.distinct(TableId(0), ColumnId(2)), Some(17.0));
    }

    #[test]
    fn catalog_provider_merges_same_column_predicates() {
        let (catalog, _) = setup();
        let stmt = parse("SELECT * FROM car WHERE year > 1995 AND year <= 2000").unwrap();
        let BoundStatement::Select(block) = bind_statement(&stmt, &catalog).unwrap() else {
            panic!()
        };
        let p = CatalogStatisticsProvider::new(&catalog);
        // both predicates form a single-column group -> answered jointly
        let est = p.group_selectivity(&block, 0, &[0, 1]).unwrap();
        // years 1996..=2000 out of 1990..=2006 ~ 5/17
        assert!(
            (est.selectivity - 5.0 / 17.0).abs() < 0.05,
            "{}",
            est.selectivity
        );
    }
}

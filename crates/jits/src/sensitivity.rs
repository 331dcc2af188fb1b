//! Sensitivity analysis — the paper's Algorithms 2, 3 and 4.
//!
//! Per table, Algorithm 3 combines two scores:
//!
//! * `s1 = 1 − MaxAcc`, where `MaxAcc` is the best historical accuracy of
//!   estimating the table's *full* predicate group: over StatHistory entries
//!   for that group, `errorFactor × Π accuracy(statlist[i], g)` — the
//!   error factor of the estimate times the boundary accuracy of each
//!   statistic it used;
//! * `s2 = min(UDI / cardinality, 1)` — the data-activity signal.
//!
//! If `f(s1, s2) ≥ s_max` the table is marked for sampling, with `f` the
//! average of the two scores, as in the paper's prototype (§3.3.2).
//! Algorithm 4 then decides, per collected group, whether to materialize it
//! into the QSS archive: existing histograms always update; otherwise the
//! group's usage-weighted historical usefulness must clear `s_max`.

use crate::analysis::CandidateGroup;
use crate::archive::QssArchive;
use crate::config::JitsConfig;
use crate::history::StatHistory;
use crate::predcache::{fingerprint, PredicateCache};
use jits_catalog::Catalog;
use jits_common::{ColGroup, ColumnId, DataType, Interval, TableId};
use jits_query::QueryBlock;
use jits_storage::Table;
use std::collections::BTreeMap;
use std::fmt;

/// Scan-level q-error above which a table counts as *mispredicted*. Feeds
/// two places: the engine's `jits.qerror.*` misprediction metrics and
/// anomaly marker, and the `s1` floor of
/// [`sensitivity_analysis_with_feedback`].
pub const QERROR_THRESHOLD: f64 = 2.0;

/// Diagnostic scores for one quantifier's table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableScore {
    /// Quantifier index.
    pub qun: usize,
    /// Base table.
    pub table: TableId,
    /// `1 − MaxAcc`: how badly existing statistics estimated this table's
    /// full group historically.
    pub s1: f64,
    /// UDI activity ratio.
    pub s2: f64,
    /// Aggregated score compared against `s_max`.
    pub score: f64,
    /// The verdict.
    pub collect: bool,
}

/// Why Algorithm 4 did (or did not) materialize a candidate group.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterializeReason {
    /// An archive histogram on the group already exists and is refreshed.
    RefreshArchive,
    /// A predicate-cache entry for the fingerprint exists and is refreshed.
    RefreshCache,
    /// `s_max = 0`: the configuration materializes everything collected.
    AlwaysCollects,
    /// Usage-weighted historical usefulness cleared `s_max` (the score).
    Useful(f64),
    /// The group was never used by a recorded estimate, so usefulness is
    /// unknowable.
    NoUsageHistory,
    /// Usage-weighted usefulness fell below `s_max` (the score).
    BelowThreshold(f64),
}

impl fmt::Display for MaterializeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeReason::RefreshArchive => write!(f, "refresh existing archive histogram"),
            MaterializeReason::RefreshCache => write!(f, "refresh existing predicate-cache entry"),
            MaterializeReason::AlwaysCollects => write!(f, "s_max = 0: always materialize"),
            MaterializeReason::Useful(s) => write!(f, "usefulness {s:.3} >= s_max"),
            MaterializeReason::NoUsageHistory => write!(f, "no usage history"),
            MaterializeReason::BelowThreshold(s) => write!(f, "usefulness {s:.3} < s_max"),
        }
    }
}

/// One Algorithm 4 verdict, with its rationale (for the statement record).
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializeDecision {
    /// Quantifier index the candidate belongs to.
    pub qun: usize,
    /// The candidate's column group.
    pub colgroup: ColGroup,
    /// Whether the group will be materialized.
    pub materialize: bool,
    /// Why.
    pub reason: MaterializeReason,
}

/// The outcome of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityDecision {
    /// Per-quantifier scores (diagnostics and experiment logging).
    pub table_scores: Vec<TableScore>,
    /// Quantifiers whose tables should be sampled.
    pub sample_quns: Vec<usize>,
    /// Collected groups to materialize into the QSS archive.
    pub materialize: Vec<CandidateGroup>,
    /// Per-candidate Algorithm 4 verdicts with rationale, for every
    /// candidate of every sampled table (for the statement record).
    pub materialize_log: Vec<MaterializeDecision>,
}

/// Algorithm 2: mark tables for collection and groups for materialization.
#[allow(clippy::too_many_arguments)]
pub fn sensitivity_analysis(
    block: &QueryBlock,
    candidates: &[CandidateGroup],
    history: &StatHistory,
    archive: &QssArchive,
    predcache: &PredicateCache,
    catalog: &Catalog,
    tables: &[Table],
    config: &JitsConfig,
) -> SensitivityDecision {
    sensitivity_analysis_with_feedback(
        block,
        candidates,
        history,
        archive,
        predcache,
        catalog,
        tables,
        config,
        &BTreeMap::new(),
    )
}

/// [`sensitivity_analysis`] with execution-time estimation-quality feedback:
/// `qerror` maps tables to the last scan-level q-error observed when
/// executing a query over them. A table whose q-error exceeds
/// [`QERROR_THRESHOLD`] has its accuracy score `s1` floored at
/// `1 − 1/q` — StatHistory may believe its statistics are fine, but the
/// executor just proved otherwise, so re-collection is prioritized for
/// tables that are *actually* mispredicted. Q-errors derive purely from
/// estimated vs. actual row counts, so the boost is deterministic across
/// replay and thread counts.
#[allow(clippy::too_many_arguments)]
pub fn sensitivity_analysis_with_feedback(
    block: &QueryBlock,
    candidates: &[CandidateGroup],
    history: &StatHistory,
    archive: &QssArchive,
    predcache: &PredicateCache,
    catalog: &Catalog,
    tables: &[Table],
    config: &JitsConfig,
    qerror: &BTreeMap<TableId, f64>,
) -> SensitivityDecision {
    let mut decision = SensitivityDecision {
        table_scores: Vec::new(),
        sample_quns: Vec::new(),
        materialize: Vec::new(),
        materialize_log: Vec::new(),
    };
    if config.never_collects() {
        return decision;
    }
    for qun in 0..block.quns.len() {
        let quns_candidates: Vec<&CandidateGroup> =
            candidates.iter().filter(|c| c.qun == qun).collect();
        // g <- the group with the maximum number of predicates
        let Some(full) = quns_candidates
            .iter()
            .copied()
            .max_by_key(|c| c.pred_indices.len())
        else {
            continue;
        };
        let score = should_collect_stats(
            block, qun, full, history, archive, predcache, catalog, tables, config, qerror,
        );
        let collect = score.collect;
        decision.table_scores.push(score);
        if !collect {
            continue;
        }
        decision.sample_quns.push(qun);
        for cand in quns_candidates {
            let (materialize, reason) =
                materialize_verdict(block, cand, history, archive, predcache, config);
            if materialize {
                decision.materialize.push(cand.clone());
            }
            decision.materialize_log.push(MaterializeDecision {
                qun,
                colgroup: cand.colgroup.clone(),
                materialize,
                reason,
            });
        }
    }
    decision
}

/// Algorithm 3: is this table's statistics situation bad enough to sample?
#[allow(clippy::too_many_arguments)]
fn should_collect_stats(
    block: &QueryBlock,
    qun: usize,
    full: &CandidateGroup,
    history: &StatHistory,
    archive: &QssArchive,
    predcache: &PredicateCache,
    catalog: &Catalog,
    tables: &[Table],
    config: &JitsConfig,
    qerror: &BTreeMap<TableId, f64>,
) -> TableScore {
    let table_id = block.quns[qun].table;

    let mut max_acc = 0.0f64;
    for h in history.entries_for(table_id, &full.colgroup) {
        let mut acc = h.accuracy();
        for stat in &h.statlist {
            acc *= statistic_accuracy(
                block,
                qun,
                &full.pred_indices,
                stat,
                archive,
                predcache,
                catalog,
            );
        }
        max_acc = max_acc.max(acc);
    }
    let s1 = 1.0 - max_acc.clamp(0.0, 1.0);
    // Estimation-quality feedback: the executor's last observed q-error on
    // this table overrides an optimistic history — a misprediction just
    // happened, whatever the bookkeeping says. `1 − 1/q` maps q=2 to a 0.5
    // floor and grows toward 1 as mispredictions worsen.
    let s1 = match qerror.get(&table_id) {
        Some(&q) if q > QERROR_THRESHOLD => s1.max(1.0 - 1.0 / q),
        _ => s1,
    };

    let s2 = tables
        .get(table_id.index())
        .map(|t| t.udi().activity_ratio(t.row_count() as u64))
        .unwrap_or(1.0);

    // paper §3.3.2: "In our implemented prototype, the aggregate function
    // is the average of the two scores"
    let score = (s1 + s2) / 2.0;
    let collect = config.always_collects() || score >= config.s_max;
    TableScore {
        qun,
        table: table_id,
        s1,
        s2,
        score,
        collect,
    }
}

/// The accuracy of one stored statistic with respect to (its projection of)
/// the full predicate group — the `accuracy(h.statlist[i], g)` term of
/// Algorithm 3.
///
/// * archive histogram on the statistic's columns → the paper's boundary
///   accuracy over the group's region projected onto those columns;
/// * single-column catalog statistics → the 1-D boundary accuracy;
/// * statistic no longer stored anywhere → 0 (it cannot help at all).
#[allow(clippy::too_many_arguments)]
fn statistic_accuracy(
    block: &QueryBlock,
    qun: usize,
    group_preds: &[usize],
    stat: &ColGroup,
    archive: &QssArchive,
    predcache: &PredicateCache,
    catalog: &Catalog,
) -> f64 {
    // a statlist may record "estimated with defaults" as an empty group
    // list; individual stats are judged here.
    let table = block.quns[qun].table;
    // the auxiliary predicate cache answers an *identical* predicate group
    // exactly (staleness is the UDI signal's job, not accuracy's)
    if stat.table() == table && stat == &block.colgroup_of(group_preds) {
        let fp = fingerprint(block, group_preds);
        if predcache.get(table, &fp).is_some() {
            return 1.0;
        }
    }
    let schema = catalog.table(table).map(|t| t.schema.clone());
    if let Some(schema) = &schema {
        let types = |col: ColumnId| {
            schema
                .column(col)
                .map(|c| c.dtype)
                .unwrap_or(DataType::Float)
        };
        if let Some(acc) =
            crate::gate::archive_accuracy_for(archive, block, group_preds, stat, &types)
        {
            return acc;
        }
    }
    if stat.arity() == 1 {
        if let Some(cs) = catalog.column_stats(table, stat.columns()[0]) {
            let iv = merged_interval(block, group_preds, stat.columns()[0]);
            return match iv {
                Some(iv) => cs.accuracy(&iv),
                None => 1.0, // statistic exists but the group leaves the
                             // column unconstrained
            };
        }
    }
    0.0
}

/// Merged interval the group imposes on one column, if any.
fn merged_interval(block: &QueryBlock, group_preds: &[usize], col: ColumnId) -> Option<Interval> {
    let (intervals, _) = block.constraints_of(group_preds);
    intervals
        .into_iter()
        .find(|(c, _)| *c == col)
        .map(|(_, iv)| iv)
}

/// Algorithm 4: is this statistic worth materializing for future queries?
/// Region-representable groups go to the QSS archive; groups without a
/// region form (e.g. containing `<>`) go to the auxiliary predicate cache
/// (paper §3.4 footnote 1) under the same usefulness rule.
fn materialize_verdict(
    block: &QueryBlock,
    cand: &CandidateGroup,
    history: &StatHistory,
    archive: &QssArchive,
    predcache: &PredicateCache,
    config: &JitsConfig,
) -> (bool, MaterializeReason) {
    // line 2: an existing stored statistic is always refreshed
    if cand.is_region {
        if archive.histogram(&cand.colgroup).is_some() {
            return (true, MaterializeReason::RefreshArchive);
        }
    } else {
        let fp = fingerprint(block, &cand.pred_indices);
        if predcache.get(cand.colgroup.table(), &fp).is_some() {
            return (true, MaterializeReason::RefreshCache);
        }
    }
    if config.always_collects() {
        return (true, MaterializeReason::AlwaysCollects);
    }
    // usage-count-weighted average error factor of entries that *used* this
    // statistic
    let entries: Vec<_> = history.entries_using(&cand.colgroup).collect();
    let f: u64 = entries.iter().map(|e| e.count).sum();
    if f == 0 {
        return (false, MaterializeReason::NoUsageHistory);
    }
    let score: f64 = entries
        .iter()
        .map(|e| e.accuracy() * e.count as f64 / f as f64)
        .sum();
    if score >= config.s_max {
        (true, MaterializeReason::Useful(score))
    } else {
        (false, MaterializeReason::BelowThreshold(score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::query_analysis;
    use crate::collect::group_region;
    use jits_common::{Schema, Value};
    use jits_histogram::Region;
    use jits_query::{bind_statement, parse, BoundStatement};

    fn setup() -> (Catalog, Vec<Table>, QueryBlock, Vec<CandidateGroup>) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
        ]);
        catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..100i64 {
            t.insert(vec![
                Value::Int(i),
                Value::str("Toyota"),
                Value::str("Camry"),
            ])
            .unwrap();
        }
        t.reset_udi(); // pretend stats were just collected
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT * FROM car WHERE make = 'Toyota' AND model = 'Camry'").unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        let candidates = query_analysis(&block);
        (catalog, vec![t], block, candidates)
    }

    fn cfg(s_max: f64) -> JitsConfig {
        JitsConfig {
            s_max,
            ..JitsConfig::default()
        }
    }

    #[test]
    fn no_history_means_collect() {
        let (catalog, tables, block, candidates) = setup();
        let history = StatHistory::new();
        let archive = QssArchive::default();
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &history,
            &archive,
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.5),
        );
        // s1 = 1 (no history), s2 = 0 (no UDI) -> score 0.5 >= 0.5
        assert_eq!(d.sample_quns, vec![0]);
        assert_eq!(d.table_scores[0].s1, 1.0);
        assert_eq!(d.table_scores[0].s2, 0.0);
        // but nothing to materialize yet (no usefulness history)
        assert!(d.materialize.is_empty());
    }

    #[test]
    fn smax_one_never_collects() {
        let (catalog, tables, block, candidates) = setup();
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &StatHistory::new(),
            &QssArchive::default(),
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(1.0),
        );
        assert!(d.sample_quns.is_empty());
        assert!(d.table_scores.is_empty());
    }

    #[test]
    fn smax_zero_collects_and_materializes_everything_region() {
        let (catalog, tables, block, candidates) = setup();
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &StatHistory::new(),
            &QssArchive::default(),
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.0),
        );
        assert_eq!(d.sample_quns, vec![0]);
        assert_eq!(d.materialize.len(), 3); // all groups are regions
    }

    #[test]
    fn accurate_history_suppresses_collection() {
        let (catalog, tables, block, candidates) = setup();
        let mut history = StatHistory::new();
        let full = candidates
            .iter()
            .max_by_key(|c| c.pred_indices.len())
            .unwrap();
        // a perfectly accurate prior estimate using... itself (a QSS stat
        // whose accuracy comes from the archive)
        let mut archive = QssArchive::default();
        // seed the archive with a histogram whose boundaries sit exactly on
        // the query constants -> accuracy 1
        let types = |col: ColumnId| {
            catalog
                .table(block.quns[0].table)
                .unwrap()
                .schema
                .column(col)
                .unwrap()
                .dtype
        };
        let region = group_region(&block, &full.pred_indices, &types).unwrap();
        let frame = Region::new(
            region
                .ranges()
                .iter()
                .map(|&(lo, hi)| (lo - 1e6, hi + 1e6))
                .collect(),
        );
        archive.apply_observation(full.colgroup.clone(), &frame, &region, 100.0, 100.0, 1);
        history.record(
            block.quns[0].table,
            full.colgroup.clone(),
            vec![full.colgroup.clone()],
            1.0,
            8,
        );
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &history,
            &archive,
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.5),
        );
        // MaxAcc = 1 -> s1 = 0; s2 = 0 -> score 0 < 0.5: skip the table
        assert!(d.sample_quns.is_empty(), "scores: {:?}", d.table_scores);

        // Same accurate history, but the executor just observed a 10x
        // misprediction on the table: the q-error feedback floors s1 at
        // 1 - 1/10 = 0.9, overriding the optimistic history.
        let mut feedback = BTreeMap::new();
        feedback.insert(block.quns[0].table, 10.0);
        let d = sensitivity_analysis_with_feedback(
            &block,
            &candidates,
            &history,
            &archive,
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.4),
            &feedback,
        );
        assert_eq!(d.sample_quns, vec![0], "scores: {:?}", d.table_scores);
        assert!((d.table_scores[0].s1 - 0.9).abs() < 1e-12);

        // A q-error at or below the threshold leaves the decision alone.
        feedback.insert(block.quns[0].table, 1.5);
        let d = sensitivity_analysis_with_feedback(
            &block,
            &candidates,
            &history,
            &archive,
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.4),
            &feedback,
        );
        assert!(d.sample_quns.is_empty(), "scores: {:?}", d.table_scores);
    }

    #[test]
    fn udi_churn_forces_recollection() {
        let (catalog, mut tables, block, candidates) = setup();
        // same accurate history as above, but now churn the table heavily
        let mut history = StatHistory::new();
        let full = candidates
            .iter()
            .max_by_key(|c| c.pred_indices.len())
            .unwrap();
        history.record(block.quns[0].table, full.colgroup.clone(), vec![], 1.0, 8);
        // an entry with an empty statlist and ef=1 gives MaxAcc=1 -> s1=0
        for r in 0..100u32 {
            let _ = tables[0].update(r, ColumnId(1), Value::str("Honda"));
        }
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &history,
            &QssArchive::default(),
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.5),
        );
        // s1 = 0 but s2 = 1 -> score 0.5 >= 0.5: collect
        assert_eq!(d.sample_quns, vec![0]);
        assert_eq!(d.table_scores[0].s2, 1.0);
    }

    #[test]
    fn materialize_when_statistic_proved_useful() {
        let (catalog, tables, block, candidates) = setup();
        let mut history = StatHistory::new();
        let joint = candidates
            .iter()
            .find(|c| c.pred_indices.len() == 2)
            .unwrap();
        // the joint stat was used twice with near-perfect error factors
        history.record(
            block.quns[0].table,
            joint.colgroup.clone(),
            vec![joint.colgroup.clone()],
            0.98,
            8,
        );
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &history,
            &QssArchive::default(),
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.5),
        );
        assert!(
            d.materialize.iter().any(|c| c.colgroup == joint.colgroup),
            "useful joint group should be materialized: {:?}",
            d.materialize
        );
    }

    #[test]
    fn existing_archive_histogram_always_refreshed() {
        let (catalog, tables, block, candidates) = setup();
        let joint = candidates
            .iter()
            .find(|c| c.pred_indices.len() == 2)
            .unwrap();
        let mut archive = QssArchive::default();
        archive.apply_observation(
            joint.colgroup.clone(),
            &Region::new(vec![(0.0, 1e19), (0.0, 1e19)]),
            &Region::new(vec![(0.0, 1e18), (0.0, 1e18)]),
            10.0,
            100.0,
            1,
        );
        let d = sensitivity_analysis(
            &block,
            &candidates,
            &StatHistory::new(),
            &archive,
            &PredicateCache::default(),
            &catalog,
            &tables,
            &cfg(0.5),
        );
        assert!(d.materialize.iter().any(|c| c.colgroup == joint.colgroup));
    }
}

//! `EXPLAIN`-style introspection of the JITS compile-phase decisions.
//!
//! [`crate::Database::explain_jits`] / [`crate::Session::explain_jits`]
//! run Algorithms 1–4 against the *current* engine state without executing
//! the statement, bumping the query clock, or drawing from the sampling
//! RNG — so the reported scores and verdicts are exactly what the next
//! `execute` of the same SQL would compute.

use crate::observe;
use crate::settings::StatsSetting;
use jits::{query_analysis, sensitivity_analysis_with_feedback, TableScore};
use jits_catalog::Catalog;
use jits_common::TableId;
use jits_obs::{GroupVerdict, ScoreRow};
use jits_query::QueryBlock;
use jits_storage::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The full JITS decision trace for one statement, without executing it.
#[derive(Debug, Clone, PartialEq)]
pub struct JitsExplain {
    /// The statement.
    pub sql: String,
    /// False when the active setting never collects (non-JITS settings,
    /// or `s_max = 1`): the remaining fields are then empty.
    pub enabled: bool,
    /// The sensitivity threshold in force.
    pub s_max: f64,
    /// Candidate predicate groups Algorithm 1 enumerated.
    pub candidate_groups: usize,
    /// Raw per-table sensitivity scores, bit-for-bit what `execute` would
    /// report in [`crate::QueryMetrics::table_scores`].
    pub table_scores: Vec<TableScore>,
    /// The same scores resolved to table names — the rows the statement's
    /// record would carry.
    pub scores: Vec<ScoreRow>,
    /// Names of the tables that would be sampled.
    pub sample_tables: Vec<String>,
    /// Per-candidate materialization verdicts for every sampled table.
    pub materialize: Vec<GroupVerdict>,
}

impl JitsExplain {
    /// Renders the decision trace as indented text (one line per decision).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "JITS decision trace for: {}", self.sql);
        if !self.enabled {
            out.push_str("  statistics setting does not collect at compile time\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  s_max = {:.3} | candidate groups: {}",
            self.s_max, self.candidate_groups
        );
        for s in &self.scores {
            let _ = writeln!(out, "  {}", s.line(self.s_max));
        }
        for m in &self.materialize {
            let _ = writeln!(out, "  {m}");
        }
        if self.sample_tables.is_empty() {
            out.push_str("  tables to sample: none\n");
        } else {
            let _ = writeln!(out, "  tables to sample: {}", self.sample_tables.join(", "));
        }
        out
    }
}

/// Replays the compile-phase decisions for one bound block against a
/// consistent snapshot of the engine state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explain_block(
    sql: &str,
    block: &QueryBlock,
    setting: &StatsSetting,
    catalog: &Catalog,
    tables: &[Table],
    archive: &jits::QssArchive,
    history: &jits::StatHistory,
    predcache: &jits::PredicateCache,
    qerror: &BTreeMap<TableId, f64>,
) -> JitsExplain {
    let mut out = JitsExplain {
        sql: sql.to_string(),
        enabled: false,
        s_max: 1.0,
        candidate_groups: 0,
        table_scores: Vec::new(),
        scores: Vec::new(),
        sample_tables: Vec::new(),
        materialize: Vec::new(),
    };
    let StatsSetting::Jits(cfg) = setting else {
        return out;
    };
    if cfg.never_collects() {
        return out;
    }
    out.enabled = true;
    out.s_max = cfg.s_max;
    let candidates = query_analysis(block);
    out.candidate_groups = candidates.len();
    // the same q-error feedback `execute` applies, so the preview stays
    // bit-for-bit what the next execution would decide
    let decision = sensitivity_analysis_with_feedback(
        block,
        &candidates,
        history,
        archive,
        predcache,
        catalog,
        tables,
        cfg,
        qerror,
    );
    out.scores = observe::score_rows(catalog, &decision.table_scores);
    out.table_scores = decision.table_scores;
    out.sample_tables = decision
        .sample_quns
        .iter()
        .map(|&qun| observe::table_name(catalog, block.quns[qun].table))
        .collect();
    out.materialize = observe::group_verdicts(&decision.materialize_log);
    out
}

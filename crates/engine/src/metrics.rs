//! Per-query timing and diagnostics.

use jits::TableScore;
use jits_optimizer::PlanSummary;
use std::time::Duration;

/// Wall-clock elapsed since a [`jits_obs::clock::now_nanos`] reading.
///
/// Every engine wall measurement goes through this helper (and thus through
/// `obs::clock`), so the determinism lint can pin OS-clock reads to a
/// single file.
pub(crate) fn wall_since(start_nanos: u64) -> Duration {
    Duration::from_nanos(jits_obs::clock::now_nanos().saturating_sub(start_nanos))
}

/// The rate converting cost-model work units into simulated seconds.
///
/// Calibrated so the single-query experiment at default scale lands in the
/// same order of magnitude as the paper's DB2 numbers (seconds); all
/// experiment *shapes* are rate-invariant.
pub const WORK_UNITS_PER_SIM_SECOND: f64 = 250_000.0;

/// Wall-clock durations of the JITS compile-phase stages of one statement.
///
/// The same measurements decorate the statement's trace spans — flat
/// metrics and spans are populated from a single reading, so they cannot
/// disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWalls {
    /// Query analysis (Algorithm 1 group enumeration).
    pub analyze: Duration,
    /// Sensitivity analysis (Algorithms 2–4).
    pub sensitivity: Duration,
    /// Sampling / statistics collection.
    pub collect: Duration,
    /// Archive materialization and max-entropy refinement.
    pub refine: Duration,
}

/// Everything measured about one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Wall-clock compilation time (parse + bind + JITS + optimize).
    pub compile_wall: Duration,
    /// Wall-clock execution time.
    pub exec_wall: Duration,
    /// Wall-clock time of query analysis (Algorithm 1).
    pub analyze_wall: Duration,
    /// Wall-clock time of sensitivity analysis (Algorithms 2–4).
    pub sensitivity_wall: Duration,
    /// Wall-clock time of sampling / statistics collection.
    pub collect_wall: Duration,
    /// Wall-clock time of archive materialization and refinement.
    pub refine_wall: Duration,
    /// Compile-side work in cost-model units (JITS sampling).
    pub compile_work: f64,
    /// Execution work in cost-model units.
    pub exec_work: f64,
    /// Chosen plan. For UPDATE/DELETE a one-table summary of the exact
    /// locate: rows affected and charged work (None for INSERT).
    pub plan: Option<PlanSummary>,
    /// Result rows returned (or rows affected, for DML).
    pub result_rows: usize,
    /// Tables JITS sampled for this query.
    pub sampled_tables: usize,
    /// Predicate groups materialized into the QSS archive.
    pub materialized_groups: usize,
    /// Sensitivity-analysis diagnostics.
    pub table_scores: Vec<TableScore>,
    /// Worker threads the JITS collection pass of this statement ran on
    /// (0 when nothing was collected, 1 when sequential).
    pub collect_threads: usize,
    /// Time this statement spent blocked acquiring engine locks (always
    /// zero on the single-session [`crate::Database`] path).
    pub lock_wait: Duration,
    /// True when any part of the JITS pipeline degraded for this statement
    /// (budget abort, fault-isolated table, quarantined archive group, …).
    /// The statement still returns a plan — degradation trades statistics
    /// quality, never availability.
    pub degraded: bool,
    /// One `"<fault-point> -> <fallback>"` entry per degradation, in the
    /// deterministic order they were recorded.
    pub degraded_reasons: Vec<String>,
    /// Per-operator profile of the executed plan; for UPDATE/DELETE the one
    /// node naming the access path that located the rows (None for INSERT,
    /// EXPLAIN and system views). Captured at execution time so
    /// `explain_analyze` never races other sessions for the flight ring.
    pub profile: Option<jits_obs::QueryProfile>,
}

impl QueryMetrics {
    /// Total wall-clock time.
    pub fn total_wall(&self) -> Duration {
        self.compile_wall + self.exec_wall
    }

    /// Copies the per-stage compile-phase durations into the flat fields
    /// (the single write point keeping flat fields and spans in agreement).
    pub fn set_stage_walls(&mut self, walls: StageWalls) {
        self.analyze_wall = walls.analyze;
        self.sensitivity_wall = walls.sensitivity;
        self.collect_wall = walls.collect;
        self.refine_wall = walls.refine;
    }

    /// Simulated compilation seconds (work-unit based, machine-independent).
    pub fn compile_sim(&self) -> f64 {
        self.compile_work / WORK_UNITS_PER_SIM_SECOND
    }

    /// Simulated execution seconds.
    pub fn exec_sim(&self) -> f64 {
        self.exec_work / WORK_UNITS_PER_SIM_SECOND
    }

    /// Simulated total seconds.
    pub fn total_sim(&self) -> f64 {
        self.compile_sim() + self.exec_sim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_times() {
        let m = QueryMetrics {
            compile_wall: Duration::from_millis(10),
            exec_wall: Duration::from_millis(30),
            compile_work: 250_000.0,
            exec_work: 500_000.0,
            ..QueryMetrics::default()
        };
        assert_eq!(m.total_wall(), Duration::from_millis(40));
        assert!((m.compile_sim() - 1.0).abs() < 1e-12);
        assert!((m.exec_sim() - 2.0).abs() < 1e-12);
        assert!((m.total_sim() - 3.0).abs() < 1e-12);
    }
}

//! Per-query timing and diagnostics.

use jits::TableScore;
use jits_obs::QueryProfile;
use jits_optimizer::PlanSummary;
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock nanoseconds elapsed since a [`jits_obs::clock::now_nanos`]
/// reading.
///
/// Every engine wall measurement goes through this helper (and thus through
/// `obs::clock`), so the determinism lint can pin OS-clock reads to a
/// single file.
pub(crate) fn nanos_since(start_nanos: u64) -> u64 {
    jits_obs::clock::now_nanos().saturating_sub(start_nanos)
}

/// The rate converting cost-model work units into simulated seconds.
///
/// Calibrated so the single-query experiment at default scale lands in the
/// same order of magnitude as the paper's DB2 numbers (seconds); all
/// experiment *shapes* are rate-invariant.
pub const WORK_UNITS_PER_SIM_SECOND: f64 = 250_000.0;

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
    /// The statement's record — the same `Arc` the flight ring holds: stage
    /// walls, JITS decisions, and the operator tree (for UPDATE/DELETE the
    /// one node naming the access path that located the rows; no nodes for
    /// INSERT and EXPLAIN). None for system views, which record nothing.
    /// Carried here so `explain_analyze` never races other sessions for
    /// the ring.
    pub profile: Option<Arc<QueryProfile>>,
}

impl QueryMetrics {
    /// Total wall-clock time.
    pub fn total_wall(&self) -> Duration {
        self.compile_wall + self.exec_wall
    }

    /// Fills the walls, rows and degradations of a finished statement from
    /// its record (their single source) and attaches the record.
    pub(crate) fn with_record(self, rec: &Arc<QueryProfile>, lock_wait: Duration) -> Self {
        let wall = Duration::from_nanos;
        QueryMetrics {
            compile_wall: wall(rec.compile_wall_nanos),
            exec_wall: wall(rec.stages.execute),
            analyze_wall: wall(rec.stages.analyze),
            sensitivity_wall: wall(rec.stages.sensitivity),
            collect_wall: wall(rec.stages.collect),
            refine_wall: wall(rec.stages.refine),
            result_rows: rec.result_rows,
            lock_wait,
            degraded: rec.degraded(),
            degraded_reasons: rec
                .degradations
                .iter()
                .map(|d| format!("{} -> {}", d.fault_point, d.fallback))
                .collect(),
            profile: Some(Arc::clone(rec)),
            ..self
        }
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

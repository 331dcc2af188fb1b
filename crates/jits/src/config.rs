//! JITS tuning knobs.
//!
//! Only what a caller varies is a field; every other constant of the
//! pipeline is a named `const` beside the code that reads it.

use crate::epsilon::EpsilonConfig;
use jits_storage::SampleSpec;

/// Which sensitivity analysis decides what to collect.
#[derive(Debug, Clone, PartialEq)]
pub enum SensitivityStrategy {
    /// The paper's lightweight heuristic (Algorithms 2–4): StatHistory
    /// accuracy + UDI activity, no optimizer calls.
    PaperHeuristic,
    /// The \[6\]-style ε-planning analysis (double-optimize with unknowns
    /// at ε and 1−ε) — the related-work baseline, far more expensive per
    /// query.
    EpsilonPlanning(EpsilonConfig),
}

/// Configuration of the JITS pipeline.
#[derive(Debug, Clone)]
pub struct JitsConfig {
    /// Which sensitivity analysis runs (the paper's heuristic by default).
    /// The `ablations` bin varies it.
    pub strategy: SensitivityStrategy,
    /// The sensitivity threshold `s_max` (paper §3.3.2 and Figure 6):
    /// statistics are collected/materialized when a score **≥ s_max**.
    /// `0.0` collects everything ("no actual sensitivity analysis");
    /// `>= 1.0` never collects. The Figure 6 bin, the benchmark and the
    /// examples vary it.
    pub s_max: f64,
    /// Fixed sample size per table (independent of table size, per the
    /// paper's citations [1, 8, 12]). The `ablations` bin varies it.
    pub sample: SampleSpec,
    /// Reuse memoized per-table samples across queries when the table has
    /// barely mutated since the draw (the versioned sample cache). Purely a
    /// wall-clock optimization on unmutated tables; on mutated tables it
    /// trades bounded staleness for skipping the re-draw. Off is the
    /// reference path `tests/sample_cache.rs` replays the cache against.
    pub sample_cache: bool,
    /// Per-table work-unit budget for one collection pass (slot probes for
    /// the draw plus row×group evaluations), `0` = unlimited. When the
    /// budget binds mid-draw the partial probe-phase sample is kept if it
    /// is still uniform; otherwise (or when evaluation would blow the
    /// remaining budget) the table degrades to archive/catalog statistics.
    /// The budget is counted in deterministic work units — never wall
    /// clock — so budgeted runs replay bit-identically at any thread count.
    /// Only tests set it: it is the one way into the budget-degradation
    /// path they cover.
    pub collect_budget: u64,
    /// Worker threads for per-table statistics collection (1 = sequential).
    /// Any value yields bit-identical statistics — per-table RNG streams
    /// derive from (seed, table, quantifier), not from a shared sequence —
    /// so this is purely a wall-clock knob. The `concurrency` bin and the
    /// workload driver vary it.
    pub collect_threads: usize,
    /// QSS archive space budget: total buckets across all histograms. The
    /// `ablations` bin varies it.
    pub archive_bucket_budget: usize,
    /// Uniformity above which a histogram is an eviction candidate before
    /// LRU kicks in (paper §3.4: evict "histograms that are almost uniformly
    /// distributed ... as they are close to the optimizer's assumptions").
    /// The `ablations` bin varies it.
    pub eviction_uniformity: f64,
    /// Run the statistics-migration module every this many statements,
    /// folding one-dimensional QSS histograms into the catalog's general
    /// statistics (paper §3.1: "the information in the QSS archive can be
    /// used to periodically update the system catalog"). 0 disables. Only
    /// tests vary it: it is the one way to move or disable the cadence they
    /// cover.
    pub migrate_every: u64,
}

impl Default for JitsConfig {
    fn default() -> Self {
        JitsConfig {
            strategy: SensitivityStrategy::PaperHeuristic,
            s_max: 0.5,
            sample: SampleSpec::default(),
            sample_cache: true,
            collect_budget: 0,
            collect_threads: 1,
            archive_bucket_budget: 4096,
            eviction_uniformity: 0.9,
            migrate_every: 25,
        }
    }
}

impl JitsConfig {
    /// True if the threshold disables collection entirely.
    pub fn never_collects(&self) -> bool {
        self.s_max >= 1.0
    }

    /// True if the threshold forces collection on every query.
    pub fn always_collects(&self) -> bool {
        self.s_max <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_extremes() {
        let mut c = JitsConfig::default();
        assert!(!c.never_collects());
        assert!(!c.always_collects());
        c.s_max = 1.0;
        assert!(c.never_collects());
        c.s_max = 0.0;
        assert!(c.always_collects());
    }
}

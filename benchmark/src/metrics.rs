//! The catalogue of metrics: every name the benchmark prints, with its unit,
//! its direction, and — what `BENCHMARK.json` has no key for — the
//! end-to-end metric a per-layer number is expected to move, and whether the
//! number repeats exactly for one seed.
//!
//! `BENCHMARK.json` lists the same names in the same order;
//! `tests/manifest.rs` fails when the two disagree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may get worse
    /// before `--compare` calls a change a regression; 0 for a number that
    /// only explains one. The end-to-end metrics carry the same bound in
    /// `BENCHMARK.json`.
    pub bound: f64,
    /// A count made by the program, or derived from counts alone: equal for
    /// equal `--seed`, `--rounds` and shape.
    pub exact: bool,
    /// Per-layer only: `metric@workload` pairs the number should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
        moves: "",
    }
}

const fn timed(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
        moves,
    }
}

const fn counted(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
        moves,
    }
}

/// A ratio of wall times: it has a direction but does not repeat exactly.
const fn derived(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        exact: false,
        ..counted(name, unit, better, moves)
    }
}

use Better::{Higher, Lower};

/// What a user of the database sees on every workload. Two of the issue's
/// ten are not in this list. `failed_ops` is the result line's `failed`
/// against `attempted`, and its bound is zero: one failed statement or
/// answer check fails the run. `recovery_s` exists on `durable_churn` only,
/// and `BENCHMARK.json` wants every end-to-end metric on every workload and
/// never 0, so it is listed with the `wal` layer and keeps its bound here.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("stmts_per_s", "1/s", Higher, 0.25),
    e2e("select_p50_ms", "ms", Lower, 0.25),
    e2e("select_p99_ms", "ms", Lower, 0.25),
    e2e("dml_p50_ms", "ms", Lower, 0.25),
    e2e("dml_p90_ms", "ms", Lower, 0.25),
    MetricDef {
        exact: true,
        ..e2e("sim_total_s", "s", Lower, 0.10)
    },
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

const FIXED: &str = "select_p50_ms@point_lookup";
const CHURN: &str = "stmts_per_s,select_p50_ms@stats_churn";
const SCAN: &str = "select_p50_ms,select_p99_ms,stmts_per_s@paper_mix";
const WRITE: &str = "dml_p50_ms@durable_churn,point_lookup";
const DURABLE: &str = "stmts_per_s,select_p99_ms,recovery_s@durable_churn";
const PLAN: &str = "sim_total_s@paper_mix";

/// One list per layer (layer = crate), in the order they are printed.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    // engine
    derived("engine.compile_share", "ratio", Lower, CHURN),
    derived("engine.exec_share", "ratio", Higher, SCAN),
    timed("engine.fixed_overhead_us_p50", "us", FIXED),
    timed("engine.dml_insert_ms_p50", "ms", WRITE),
    timed("engine.dml_update_ms_p50", "ms", WRITE),
    timed("engine.dml_delete_ms_p50", "ms", WRITE),
    timed("engine.checkpoint_stall_ms_p50", "ms", "select_p99_ms@durable_churn"),
    counted("engine.checkpoints", "count", Lower, "select_p99_ms@durable_churn"),
    timed("engine.lock_wait_us", "us", "stmts_per_s@all"),
    counted("engine.degraded_stmts", "count", Lower, "sim_total_s@all"),
    // query
    timed("query.parse_us_p50", "us", FIXED),
    timed("query.bind_us_p50", "us", FIXED),
    // jits
    timed("jits.analyze_us_p50", "us", CHURN),
    timed("jits.sensitivity_us_p50", "us", CHURN),
    timed("jits.collect_us_p50", "us", CHURN),
    timed("jits.collect_us_p99", "us", CHURN),
    timed("jits.refine_us_p50", "us", CHURN),
    timed("jits.refine_us_p99", "us", CHURN),
    counted("jits.sampled_select_ratio", "ratio", Lower, "stmts_per_s@stats_churn;sim_total_s@paper_mix"),
    counted("jits.tables_sampled", "count", Lower, "sim_total_s@paper_mix"),
    counted("jits.materialized_groups", "count", Lower, "stmts_per_s@stats_churn"),
    counted("jits.candidate_groups", "count", Lower, "stmts_per_s@stats_churn"),
    counted("jits.feedback_observations", "count", Higher, PLAN),
    counted("jits.compile_sim_s", "s", Lower, PLAN),
    counted("jits.exec_sim_s", "s", Lower, PLAN),
    // storage
    counted("storage.samplecache_hit_ratio", "ratio", Higher, "stmts_per_s@stats_churn"),
    counted("storage.rows_sampled", "count", Lower, "stmts_per_s@stats_churn"),
    counted("storage.slot_probes", "count", Lower, "stmts_per_s@stats_churn"),
    counted("storage.blocks_pruned_ratio", "ratio", Higher, FIXED),
    timed("storage.sample_draw_us_p50", "us", "stmts_per_s@stats_churn"),
    timed("storage.frame_gather_us_p50", "us", "stmts_per_s@stats_churn"),
    timed("storage.skip_list_us_p50", "us", FIXED),
    timed("storage.hash_probe_ns_p50", "ns", FIXED),
    timed("storage.btree_probe_ns_p50", "ns", FIXED),
    timed("storage.row_update_us_p50", "us", "dml_p50_ms@durable_churn;peak_rss_mb@point_lookup"),
    timed("storage.row_insert_us_p50", "us", "dml_p50_ms@durable_churn;peak_rss_mb@point_lookup"),
    // histogram
    timed("histogram.fit_us_p50", "us", "jits.refine_us_p50 -> stmts_per_s@stats_churn"),
    timed("histogram.fit_us_p99", "us", "jits.refine_us_p99 -> stmts_per_s@stats_churn"),
    timed("histogram.selectivity_ns_p50", "ns", CHURN),
    counted("histogram.ipf_iterations", "count", Lower, "jits.refine_us_p50 -> stmts_per_s@stats_churn"),
    counted("histogram.buckets_split", "count", Lower, "jits.refine_us_p50 -> stmts_per_s@stats_churn"),
    counted("histogram.nonconverged", "count", Lower, PLAN),
    counted("histogram.archive_buckets", "count", Lower, "peak_rss_mb@stats_churn"),
    counted("histogram.archive_evictions", "count", Lower, PLAN),
    // optimizer
    timed("optimizer.optimize_us_p50", "us", "select_p50_ms@point_lookup,stats_churn"),
    timed("optimizer.optimize_us_p99", "us", "select_p99_ms@point_lookup,stats_churn"),
    timed("optimizer.optimize_4way_us_p50", "us", "select_p99_ms@stats_churn"),
    counted("optimizer.qerror_mispredict_ratio", "ratio", Lower, PLAN),
    counted("optimizer.index_scan_ratio", "ratio", Higher, FIXED),
    counted("optimizer.pruned_scan_ratio", "ratio", Higher, FIXED),
    // executor
    timed("executor.execute_ms_p50", "ms", SCAN),
    timed("executor.execute_ms_p99", "ms", SCAN),
    timed("executor.exec_1t_ms_p50", "ms", SCAN),
    timed("executor.exec_2t_ms_p50", "ms", SCAN),
    timed("executor.exec_4t_ms_p50", "ms", SCAN),
    derived("executor.work_units_per_us", "1/us", Higher, SCAN),
    // catalog
    timed("catalog.runstats_ms", "ms", "setup_s@all"),
    // wal
    timed("wal.append_us_p50", "us", DURABLE),
    counted("wal.bytes_per_stmt", "B", Lower, DURABLE),
    counted("wal.checkpoint_mb", "MB", Lower, DURABLE),
    timed("wal.checkpoint_ms_p50", "ms", DURABLE),
    counted("wal.disk_mb", "MB", Lower, "recovery_s@durable_churn"),
    counted("wal.replayed_records", "count", Lower, "recovery_s@durable_churn"),
    counted("wal.replay_errors", "count", Lower, "failed@durable_churn"),
    MetricDef {
        moves: "itself: end-to-end on durable_churn, the one workload that restarts",
        ..e2e("recovery_s", "s", Lower, 0.10)
    },
    // bench
    timed("bench.trace_overhead_pct", "%", "none: the cost of the traced pass itself"),
];

/// A measured value with the unit its catalogue entry gives it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

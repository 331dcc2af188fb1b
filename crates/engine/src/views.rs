//! Virtual system views over the observability state.
//!
//! Eight read-only views answer plain `SELECT * FROM <view>` statements
//! without touching user data, bumping the query clock, or drawing from
//! the sampling RNG. The five over per-statement data (`jits_table_scores`,
//! `jits_query_log`, `jits_degradation`, `jits_profile`, `jits_flight`) all
//! read the statement records in the flight ring:
//!
//! | View                 | Row layout                                         |
//! |----------------------|----------------------------------------------------|
//! | `jits_archive_stats` | colgroup, buckets, total, uniformity, last_used    |
//! | `jits_table_scores`  | clock, qun, table, s1, s2, score, collect, reason  |
//! | `jits_query_log`     | clock, session, sql, rows, compile_ns, exec_ns, sampled |
//! | `jits_sample_cache`  | table, spec_size, epoch, rows_at_draw, sample_rows, probes, hits |
//! | `jits_degradation`   | clock, table, fault_point, fallback                |
//! | `jits_profile`       | clock, depth, kind, table, est_rows, actual_rows, q_error, work, wall_ns |
//! | `jits_flight`        | clock, kind, detail                                |
//! | `jits_access_paths`  | path, uses, blocks_total, blocks_pruned            |
//!
//! A user table with the same name shadows the view (the interception only
//! fires when the name does not resolve in the catalog).

use jits::QssArchive;
use jits_catalog::Catalog;
use jits_common::Value;
use jits_obs::Observability;
use jits_query::Statement;
use jits_storage::SampleCache;

/// `SELECT * FROM jits_archive_stats` — one row per archived histogram.
pub const VIEW_ARCHIVE_STATS: &str = "jits_archive_stats";
/// `SELECT * FROM jits_table_scores` — the newest retained sensitivity
/// scores.
pub const VIEW_TABLE_SCORES: &str = "jits_table_scores";
/// `SELECT * FROM jits_query_log` — the retained statement records.
pub const VIEW_QUERY_LOG: &str = "jits_query_log";
/// `SELECT * FROM jits_sample_cache` — one row per memoized table sample.
pub const VIEW_SAMPLE_CACHE: &str = "jits_sample_cache";
/// `SELECT * FROM jits_degradation` — the retained records' degradations.
pub const VIEW_DEGRADATION: &str = "jits_degradation";
/// `SELECT * FROM jits_profile` — the operator tree of the newest record
/// that has one.
pub const VIEW_PROFILE: &str = "jits_profile";
/// `SELECT * FROM jits_flight` — the flight-recorder event ring.
pub const VIEW_FLIGHT: &str = "jits_flight";
/// `SELECT * FROM jits_access_paths` — cumulative per-access-path usage and
/// zone-map skip totals.
pub const VIEW_ACCESS_PATHS: &str = "jits_access_paths";

/// Returns the canonical view name if `stmt` is a single-table SELECT from
/// one of the virtual system views (matched case-insensitively).
pub(crate) fn system_view_name(stmt: &Statement) -> Option<&'static str> {
    let Statement::Select(sel) = stmt else {
        return None;
    };
    if sel.from.len() != 1 {
        return None;
    }
    match sel.from[0].table.to_ascii_lowercase().as_str() {
        VIEW_ARCHIVE_STATS => Some(VIEW_ARCHIVE_STATS),
        VIEW_TABLE_SCORES => Some(VIEW_TABLE_SCORES),
        VIEW_QUERY_LOG => Some(VIEW_QUERY_LOG),
        VIEW_SAMPLE_CACHE => Some(VIEW_SAMPLE_CACHE),
        VIEW_DEGRADATION => Some(VIEW_DEGRADATION),
        VIEW_PROFILE => Some(VIEW_PROFILE),
        VIEW_FLIGHT => Some(VIEW_FLIGHT),
        VIEW_ACCESS_PATHS => Some(VIEW_ACCESS_PATHS),
        _ => None,
    }
}

/// Rows of `jits_archive_stats`, in the archive's deterministic key order.
pub(crate) fn archive_stats_rows(archive: &QssArchive) -> Vec<Vec<Value>> {
    archive
        .iter()
        .map(|(group, hist)| {
            vec![
                Value::str(group.to_string()),
                Value::Int(hist.n_buckets() as i64),
                Value::Float(hist.total()),
                Value::Float(hist.uniformity()),
                Value::Int(hist.last_used() as i64),
            ]
        })
        .collect()
}

/// Rows of `jits_table_scores`: the newest retained record with scores
/// (so DML, which scores nothing, does not clobber them).
pub(crate) fn table_scores_rows(obs: &Observability) -> Vec<Vec<Value>> {
    let records = obs.flight.statements();
    let Some(p) = records.iter().rev().find(|p| !p.scores.is_empty()) else {
        return Vec::new();
    };
    p.scores
        .iter()
        .map(|r| {
            vec![
                Value::Int(p.clock as i64),
                Value::Int(r.qun as i64),
                Value::str(&r.table),
                Value::Float(r.s1),
                Value::Float(r.s2),
                Value::Float(r.score),
                Value::Int(r.collect as i64),
                Value::str(r.reason(p.s_max)),
            ]
        })
        .collect()
}

/// Rows of `jits_sample_cache`, in table-id order: one row per memoized
/// sample with its version (mutation epoch and cardinality at draw time)
/// and serve count.
pub(crate) fn sample_cache_rows(cache: &SampleCache, catalog: &Catalog) -> Vec<Vec<Value>> {
    cache
        .entries()
        .map(|(tid, e)| {
            vec![
                Value::str(crate::observe::table_name(catalog, tid)),
                Value::Int(e.spec.size as i64),
                Value::Int(e.epoch as i64),
                Value::Int(e.rows_at_draw as i64),
                Value::Int(e.rows.len() as i64),
                Value::Int(e.probes as i64),
                Value::Int(e.hits as i64),
            ]
        })
        .collect()
}

/// Rows of `jits_degradation`, oldest first: every retained record's
/// fallbacks (budget abort, fault-isolated table, quarantined archive
/// group).
pub(crate) fn degradation_rows(obs: &Observability) -> Vec<Vec<Value>> {
    let records = obs.flight.statements();
    records
        .iter()
        .flat_map(|p| {
            p.degradations.iter().map(|d| {
                vec![
                    Value::Int(p.clock as i64),
                    Value::str(&d.table),
                    Value::str(d.fault_point),
                    Value::str(d.fallback),
                ]
            })
        })
        .collect()
}

/// Rows of `jits_profile`: the operator tree of the newest record that has
/// one, one row per node in pre-order.
pub(crate) fn profile_rows(obs: &Observability) -> Vec<Vec<Value>> {
    let records = obs.flight.statements();
    let Some(p) = records.iter().rev().find(|p| !p.nodes.is_empty()) else {
        return Vec::new();
    };
    p.nodes
        .iter()
        .map(|n| {
            vec![
                Value::Int(p.clock as i64),
                Value::Int(n.depth as i64),
                Value::str(&n.kind),
                Value::str(&n.table),
                Value::Float(n.est_rows),
                Value::Float(n.actual_rows),
                Value::Float(n.q_error),
                Value::Float(n.work),
                Value::Int(n.wall_nanos as i64),
            ]
        })
        .collect()
}

/// Rows of `jits_flight`, oldest first: one row per retained event with a
/// one-line deterministic summary.
pub(crate) fn flight_rows(obs: &Observability) -> Vec<Vec<Value>> {
    use jits_obs::FlightEvent;
    obs.flight
        .recent()
        .into_iter()
        .map(|e| {
            let detail = match &e {
                FlightEvent::Profile(p) => format!(
                    "{} ({}, {} rows, max q-error {:.2}{})",
                    p.sql,
                    p.kind,
                    p.result_rows,
                    p.max_q_error,
                    if p.degraded() { ", degraded" } else { "" },
                ),
                FlightEvent::Note { label, detail, .. } => format!("{label}: {detail}"),
            };
            vec![
                Value::Int(e.clock() as i64),
                Value::str(e.kind()),
                Value::str(detail),
            ]
        })
        .collect()
}

/// Rows of `jits_access_paths`: one row per base-table access path with its
/// cumulative use count; the `pruned_scan` row additionally carries the
/// zone-map block totals. Backed by the deterministic `jits.skip.*`
/// counters, so the view is identical with data skipping on or off.
pub(crate) fn access_paths_rows(obs: &Observability) -> Vec<Vec<Value>> {
    use jits_obs::Volatility;
    let reg = &obs.registry;
    let get = |name: &str| reg.counter(name, Volatility::Deterministic).get() as i64;
    vec![
        vec![
            Value::str("seq_scan"),
            Value::Int(get("jits.skip.seq_scans")),
            Value::Int(0),
            Value::Int(0),
        ],
        vec![
            Value::str("pruned_scan"),
            Value::Int(get("jits.skip.pruned_scans")),
            Value::Int(get("jits.skip.blocks_total")),
            Value::Int(get("jits.skip.blocks_pruned")),
        ],
        vec![
            Value::str("index_scan"),
            Value::Int(get("jits.skip.index_scans")),
            Value::Int(0),
            Value::Int(0),
        ],
    ]
}

/// Rows of `jits_query_log`, oldest first: one per retained record.
pub(crate) fn query_log_rows(obs: &Observability) -> Vec<Vec<Value>> {
    obs.flight
        .statements()
        .iter()
        .map(|p| {
            vec![
                Value::Int(p.clock as i64),
                Value::Int(p.session as i64),
                Value::str(&p.sql),
                Value::Int(p.result_rows as i64),
                Value::Int(p.compile_wall_nanos as i64),
                Value::Int(p.stages.execute as i64),
                Value::Int(p.samples.len() as i64),
            ]
        })
        .collect()
}

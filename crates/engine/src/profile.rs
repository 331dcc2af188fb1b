//! Per-operator query profiles: the estimation-quality observatory.
//!
//! After every executed SELECT the engine zips the physical plan with the
//! executor's post-order observation stream ([`jits_executor::ExecStats`])
//! into the operator tree of the statement's [`QueryProfile`]: one row per
//! operator carrying estimated vs. actual cardinality, q-error, charged
//! work, and inclusive wall time.
//! (UPDATE and DELETE build their one-node profile in [`crate::dml`].)
//! The deterministic fields (kind, table, rows, q-error, work) are the
//! executor's observations, bit for bit: each node's actual rows equal a
//! brute-force oracle's count for the quantifiers it covers
//! (`tests/profile_observatory.rs`). They do not depend on
//! `collect_threads`; only `wall_nanos` is volatile, and every dump path
//! can mask it.
//!
//! Profiles feed three consumers: `EXPLAIN ANALYZE`
//! ([`crate::Database::explain_analyze`]), the `jits_profile` /
//! `jits_flight` system views, and the per-table q-error aggregates the
//! sensitivity loop reads to prioritize re-collection of tables the
//! optimizer actually mispredicted.

use crate::observe;
use jits_catalog::Catalog;
use jits_executor::ExecStats;
use jits_obs::{clamp_q_error, ProfileNodeRow, QueryProfile};
use jits_optimizer::PhysicalPlan;
use std::fmt::Write as _;

/// Fills the operator tree of one executed statement into its record:
/// nodes, total work and the largest q-error.
///
/// The walker visits the plan in the executor's push order (post-order,
/// children before self) to consume `stats.nodes` / `stats.node_walls`,
/// but emits rows in pre-order with depths so the profile reads as an
/// indented tree.
pub(crate) fn fill_profile(
    rec: &mut QueryProfile,
    plan: &PhysicalPlan,
    stats: &ExecStats,
    catalog: &Catalog,
) {
    let mut nodes = Vec::with_capacity(stats.nodes.len());
    let mut cursor = 0usize;
    flatten(plan, stats, catalog, 0, &mut cursor, &mut nodes);
    debug_assert_eq!(
        cursor,
        stats.nodes.len(),
        "profile walker out of step with the observation stream"
    );
    rec.max_q_error = nodes.iter().map(|n| n.q_error).fold(1.0f64, f64::max);
    rec.total_work = stats.work;
    rec.nodes = nodes;
}

/// Consumes this subtree's observations from the post-order stream and
/// appends its rows in pre-order (self before children) at `depth`.
fn flatten(
    plan: &PhysicalPlan,
    stats: &ExecStats,
    catalog: &Catalog,
    depth: usize,
    cursor: &mut usize,
    out: &mut Vec<ProfileNodeRow>,
) {
    match plan {
        PhysicalPlan::SeqScan { scan, .. }
        | PhysicalPlan::PrunedScan { scan, .. }
        | PhysicalPlan::IndexScan { scan, .. } => {
            push_row(
                stats,
                *cursor,
                depth,
                observe::table_name(catalog, scan.table),
                out,
            );
            *cursor += 1;
        }
        PhysicalPlan::HashJoin { build, probe, .. } => {
            let mut kids = Vec::new();
            flatten(build, stats, catalog, depth + 1, cursor, &mut kids);
            flatten(probe, stats, catalog, depth + 1, cursor, &mut kids);
            push_row(stats, *cursor, depth, String::new(), out);
            *cursor += 1;
            out.append(&mut kids);
        }
        PhysicalPlan::IndexNLJoin { outer, inner, .. } => {
            // the inner side is a per-probe index access inside the join
            // operator itself (the executor pushes no separate node for
            // it), so its table labels the join row
            let mut kids = Vec::new();
            flatten(outer, stats, catalog, depth + 1, cursor, &mut kids);
            push_row(
                stats,
                *cursor,
                depth,
                observe::table_name(catalog, inner.table),
                out,
            );
            *cursor += 1;
            out.append(&mut kids);
        }
        PhysicalPlan::NLJoin { outer, inner, .. } => {
            let mut kids = Vec::new();
            flatten(outer, stats, catalog, depth + 1, cursor, &mut kids);
            flatten(inner, stats, catalog, depth + 1, cursor, &mut kids);
            push_row(stats, *cursor, depth, String::new(), out);
            *cursor += 1;
            out.append(&mut kids);
        }
    }
}

/// Emits the row for the observation at `i` (no-op if the stream is
/// shorter than the plan, which the debug assertion above would flag).
fn push_row(
    stats: &ExecStats,
    i: usize,
    depth: usize,
    table: String,
    out: &mut Vec<ProfileNodeRow>,
) {
    let Some(obs) = stats.nodes.get(i) else {
        return;
    };
    out.push(ProfileNodeRow {
        depth,
        kind: obs.kind.label().to_string(),
        table,
        est_rows: obs.est_rows,
        actual_rows: obs.actual_rows,
        q_error: clamp_q_error(obs.q_error()),
        work: obs.work,
        wall_nanos: stats.node_walls.get(i).copied().unwrap_or(0),
        blocks_total: 0,
        blocks_pruned: 0,
    });
}

/// Renders a profile as an indented operator tree (the `EXPLAIN ANALYZE`
/// output format).
pub(crate) fn render_profile(p: &QueryProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN ANALYZE ({}): {} rows, work {:.0}, max q-error {:.2}{}",
        p.kind,
        p.result_rows,
        p.total_work,
        p.max_q_error,
        if p.degraded() { ", DEGRADED" } else { "" },
    );
    for n in &p.nodes {
        let on = if n.table.is_empty() {
            String::new()
        } else {
            format!(" on {}", n.table)
        };
        let blocks = if n.blocks_total > 0 {
            format!(" blocks_pruned={}/{}", n.blocks_pruned, n.blocks_total)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{}{}{} (est={:.1} actual={:.1} q-error={:.2} work={:.0}{} wall={}ns)",
            "  ".repeat(n.depth + 1),
            n.kind,
            on,
            n.est_rows,
            n.actual_rows,
            n.q_error,
            n.work,
            blocks,
            n.wall_nanos,
        );
    }
    out
}

//! UPDATE and DELETE, shared by [`crate::Database`] and [`crate::Session`].
//!
//! Both statements find their rows through the executor's
//! [`locate_rows`] — the same index probes and zone-map pruning SELECT
//! uses, chosen by exact cost — and are charged `locate cost + rows
//! affected`. What the statement did is reported as a one-node record
//! (`index_scan` / `pruned_scan` / `seq_scan` on the table) in the flight
//! ring and on its [`QueryMetrics`], never through the SELECT-only q-error
//! aggregates or `jits.skip.*` counters.

use crate::metrics::{nanos_since, QueryMetrics};
use jits_common::Result;
use jits_executor::{locate_rows, Located};
use jits_obs::{Observability, ProfileNodeRow, QueryProfile};
use jits_optimizer::{CostModel, PlanSummary};
use jits_query::{BoundDelete, BoundUpdate};
use jits_storage::Table;
use std::time::Duration;

/// Applies a bound UPDATE to its table and reports it as a profile node.
/// The SET values were typed at bind, so the write loop cannot fail half
/// way through a row.
pub(crate) fn update(
    table: &mut Table,
    upd: &BoundUpdate,
    cost: &CostModel,
) -> Result<ProfileNodeRow> {
    let located = locate_rows(table, &upd.predicates, cost);
    for &row in &located.rows {
        for (column, value) in &upd.sets {
            table.update_typed(row, *column, value)?;
        }
    }
    Ok(charged_node(table, &located))
}

/// Applies a bound DELETE to its table and reports it as a profile node.
pub(crate) fn delete(table: &mut Table, del: &BoundDelete, cost: &CostModel) -> ProfileNodeRow {
    let located = locate_rows(table, &del.predicates, cost);
    for &row in &located.rows {
        table.delete(row);
    }
    charged_node(table, &located)
}

/// The statement's single operator: the path taken, rows affected (exact,
/// so estimate = actual), and the charge — locating plus one unit per
/// affected row.
fn charged_node(table: &Table, located: &Located) -> ProfileNodeRow {
    let affected = located.rows.len() as f64;
    ProfileNodeRow {
        depth: 0,
        kind: located.path.label().to_string(),
        table: table.name().to_string(),
        est_rows: affected,
        actual_rows: affected,
        q_error: 1.0,
        work: located.work + affected,
        wall_nanos: 0,
        blocks_total: located.blocks_total as u64,
        blocks_pruned: located.blocks_pruned as u64,
    }
}

/// The metrics of a finished UPDATE/DELETE whose execution began at
/// `exec_start` (an `obs::clock` reading). Its record — `rec` plus the one
/// node — lands in the flight ring.
pub(crate) fn finish(
    mut node: ProfileNodeRow,
    mut rec: QueryProfile,
    obs: &Observability,
    exec_start: u64,
    lock_wait: Duration,
) -> QueryMetrics {
    node.wall_nanos = nanos_since(exec_start);
    let plan = PlanSummary {
        qun_order: vec![0],
        est_rows: node.actual_rows,
        est_cost: node.work,
    };
    rec.stages.execute = node.wall_nanos;
    rec.result_rows = node.actual_rows as usize;
    rec.total_work = node.work;
    rec.nodes = vec![node];
    let rec = obs.flight.record_statement(rec);
    QueryMetrics {
        exec_work: rec.total_work,
        plan: Some(plan),
        ..QueryMetrics::default()
    }
    .with_record(&rec, lock_wait)
}

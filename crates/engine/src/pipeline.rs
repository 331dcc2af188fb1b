//! The statement pipeline, written once for every front-end.
//!
//! Every statement follows the paper's compile-time loop (§1, Fig. 1):
//! query analysis (Alg. 1) → sensitivity (Alg. 2–4) → one sample per marked
//! table → QSS archive refinement → optimize → execute → LEO feedback →
//! periodic migration. The functions here run that loop, the DML arms, the
//! explain trio, the system views, DDL and the admin calls, and the
//! checkpoint — each over one statement's [`Locked`] store, which carries
//! the engine configuration and hands out the ranked guards. A
//! [`crate::Session`] and a [`crate::SharedDatabase`] admin call pass their
//! own; a [`crate::Database`] passes session 0 of the stack `Shared` it
//! lends its state to.

use crate::dml;
use crate::explain::{explain_block, JitsExplain};
use crate::metrics::{nanos_since, QueryMetrics};
use crate::persist;
use crate::profile::{fill_profile, render_profile};
use crate::settings::StatsSetting;
use crate::store::{Locked, Logged};
use crate::{observe, views};
use jits::{
    collect_for_tables, collect_for_tables_sourced, commit_drawn_samples, ingest,
    materialize_group, query_analysis, resolve_sample_sources, sensitivity_analysis_with_feedback,
    CandidateGroup, CollectedStats, JitsConfig, JitsStatisticsProvider, MaterializeOutcome,
    PhysicalMetadataProvider, SensitivityStrategy, StatHistory, MIGRATE_EVERY,
};
use jits_catalog::{runstats, Catalog};
use jits_common::fault::{
    FP_ARCHIVE_READ, FP_ARCHIVE_WRITE, FP_HISTORY_READ, FP_SAMPLECACHE_COMMIT,
};
use jits_common::{fault_key, ColumnId, FaultPlane, JitsError, Result, Schema, TableId, Value};
use jits_executor::execute as execute_plan;
use jits_obs::clock::now_nanos;
use jits_obs::{FlightEvent, ProfileNodeRow, QueryProfile};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, PhysicalPlan, PlanSummary,
};
use jits_query::{bind_statement, parse, BoundInsert, BoundStatement, QueryBlock, Statement};
use jits_storage::{SampleCache, Table};
use jits_wal::WalRecord;
use std::sync::Arc;
use std::time::Duration;

/// Result of executing one SQL statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows (empty for DML).
    pub rows: Vec<Vec<Value>>,
    /// Timing, work, and JITS diagnostics.
    pub metrics: QueryMetrics,
}

/// Simulated work units one optimizer invocation costs — charged by the
/// ε-planning sensitivity baseline for each of its extra plan enumerations
/// (the lightweight heuristic makes none).
const OPTIMIZER_CALL_WORK: f64 = 2_000.0;

// ---- statements ------------------------------------------------------------

/// Parses, optimizes and executes one SQL statement.
pub(crate) fn execute(s: &mut Locked<'_>, sql: &str) -> Result<QueryResult> {
    let t0 = now_nanos();
    let stmt = parse(sql)?;
    if let Some(rows) = system_view_rows(s, &stmt) {
        return Ok(QueryResult {
            metrics: QueryMetrics {
                compile_wall: Duration::from_nanos(nanos_since(t0)),
                result_rows: rows.len(),
                lock_wait: s.lock_wait(),
                ..QueryMetrics::default()
            },
            rows,
        });
    }
    // Logged after parse (parse errors mutate nothing) and before bind: a
    // bind error happens after the record is durable, and replays to the
    // identical error without ticking the clock. Checkpoint first, so this
    // statement lands in the fresh log generation.
    maybe_checkpoint(s)?;
    let logged = s.wal_append(&WalRecord::Statement {
        sql: sql.to_string(),
    })?;
    match s.with_catalog(|catalog| bind_statement(&stmt, catalog))? {
        BoundStatement::Select(block) => run_select(s, logged, block, t0, sql),
        BoundStatement::Explain(block) => {
            let (plan, collected, rec) = compile_and_plan(s, logged, &block, t0, sql)?;
            let metrics = QueryMetrics {
                compile_work: collected.work,
                plan: Some(PlanSummary::from(&plan)),
                collect_threads: collected.collect_threads,
                ..QueryMetrics::default()
            }
            .with_record(&rec, s.lock_wait());
            let rows = plan
                .explain()
                .lines()
                .map(|l| vec![Value::str(l)])
                .collect();
            Ok(QueryResult { rows, metrics })
        }
        BoundStatement::Insert(ins) => run_insert(s, &logged, ins, t0, sql),
        BoundStatement::Update(upd) => run_dml(s, &logged, t0, sql, |tables, cost| {
            dml::update(&mut tables[upd.table.index()], &upd, cost)
        }),
        BoundStatement::Delete(del) => run_dml(s, &logged, t0, sql, |tables, cost| {
            Ok(dml::delete(&mut tables[del.table.index()], &del, cost))
        }),
    }
}

/// Compiles a query and renders its plan (EXPLAIN). Logged like a
/// statement: compiling ticks the clock and can draw samples and refine the
/// archive.
pub(crate) fn explain(s: &mut Locked<'_>, sql: &str) -> Result<String> {
    let t0 = now_nanos();
    let stmt = parse(sql)?;
    maybe_checkpoint(s)?;
    let logged = s.wal_append(&WalRecord::Explain {
        sql: sql.to_string(),
    })?;
    let (BoundStatement::Select(block) | BoundStatement::Explain(block)) =
        s.with_catalog(|catalog| bind_statement(&stmt, catalog))?
    else {
        return Err(JitsError::Plan("EXPLAIN supports SELECT only".into()));
    };
    Ok(compile_and_plan(s, logged, &block, t0, sql)?.0.explain())
}

/// Replays the JITS compile-phase decisions for `sql` without executing
/// it, bumping the clock, or drawing from the sampling RNG: the reported
/// scores and verdicts are bit-for-bit what the next execution of the same
/// statement would compute.
pub(crate) fn explain_jits(s: &mut Locked<'_>, sql: &str) -> Result<JitsExplain> {
    let env = s.env();
    let stmt = parse(sql)?;
    let setting = s.setting();
    s.with_reads(|r| {
        let (BoundStatement::Select(block) | BoundStatement::Explain(block)) =
            bind_statement(&stmt, r.catalog)?
        else {
            return Err(JitsError::Plan("EXPLAIN JITS supports SELECT only".into()));
        };
        Ok(explain_block(
            sql,
            &block,
            &setting,
            r.catalog,
            r.tables,
            r.archive,
            r.history,
            r.predcache,
            &observe::qerror_feedback(&env.obs, r.catalog),
        ))
    })
}

/// Executes `sql` and renders its per-operator profile tree. The profile
/// rides on the statement's own metrics, never read back from the shared
/// flight ring, so concurrent sessions cannot swap profiles.
pub(crate) fn explain_analyze(s: &mut Locked<'_>, sql: &str) -> Result<String> {
    match execute(s, sql)?.metrics.profile {
        Some(profile) if !profile.nodes.is_empty() => Ok(render_profile(&profile)),
        _ => Err(JitsError::Plan(
            "EXPLAIN ANALYZE supports SELECT, UPDATE and DELETE only".into(),
        )),
    }
}

/// Answers a `SELECT` from one of the virtual system views, unless a user
/// table shadows the name.
fn system_view_rows(s: &mut Locked<'_>, stmt: &Statement) -> Option<Vec<Vec<Value>>> {
    let env = s.env();
    let view = views::system_view_name(stmt)?;
    let obs = &env.obs;
    s.with_views(|catalog, archive, samplecache| {
        if catalog.resolve(view).is_some() {
            return None;
        }
        Some(match view {
            views::VIEW_ARCHIVE_STATS => views::archive_stats_rows(archive),
            views::VIEW_TABLE_SCORES => views::table_scores_rows(obs),
            views::VIEW_SAMPLE_CACHE => views::sample_cache_rows(samplecache, catalog),
            views::VIEW_DEGRADATION => views::degradation_rows(obs),
            views::VIEW_PROFILE => views::profile_rows(obs),
            views::VIEW_FLIGHT => views::flight_rows(obs),
            views::VIEW_ACCESS_PATHS => views::access_paths_rows(obs),
            _ => views::query_log_rows(obs),
        })
    })
}

/// What one compiling statement runs under: its logged record, its clock
/// tick and snapshots of the setting and the fault plane.
struct Stmt {
    logged: Logged,
    clock: u64,
    setting: StatsSetting,
    fault: FaultPlane,
}

impl Stmt {
    /// Ticks the clock and takes the snapshots.
    fn begin(s: &mut Locked<'_>, logged: Logged) -> Stmt {
        Stmt {
            clock: s.tick(&logged),
            logged,
            setting: s.setting(),
            fault: s.fault(),
        }
    }
}

/// The statement's record, opened once the clock has ticked: parse, bind,
/// log and tick count as its `parse_bind` stage.
fn open_record(s: &Locked<'_>, clock: u64, sql: &str, kind: &'static str, t0: u64) -> QueryProfile {
    let mut rec = QueryProfile::new(clock, s.session_id(), sql, kind);
    rec.stages.parse_bind = nanos_since(t0);
    rec
}

/// Runs `f`, adding its wall nanoseconds to `stage`.
fn timed<T>(stage: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = now_nanos();
    let out = f();
    *stage += nanos_since(t);
    out
}

/// The compile half of EXPLAIN: tick, JITS compile phase, plan. The record
/// (no operator tree) is stored even when planning fails, so its
/// compile-phase degradations still reach `jits_degradation`.
fn compile_and_plan(
    s: &mut Locked<'_>,
    logged: Logged,
    block: &QueryBlock,
    t0: u64,
    sql: &str,
) -> Result<(PhysicalPlan, CollectedStats, Arc<QueryProfile>)> {
    let env = s.env();
    let stmt = Stmt::begin(s, logged);
    let mut rec = open_record(s, stmt.clock, sql, "explain", t0);
    let compiled = compile_phase(s, block, &stmt, &mut rec);
    let plan = timed(&mut rec.stages.optimize, || {
        plan_for(s, block, &compiled.collected, &stmt)
    });
    rec.compile_wall_nanos = nanos_since(t0);
    let rec = env.obs.flight.record_statement(rec);
    Ok((plan?, compiled.collected, rec))
}

fn run_select(
    s: &mut Locked<'_>,
    logged: Logged,
    block: QueryBlock,
    t0: u64,
    sql: &str,
) -> Result<QueryResult> {
    let env = s.env();
    let obs = &env.obs;
    let stmt = Stmt::begin(s, logged);
    let mut rec = open_record(s, stmt.clock, sql, "select", t0);
    let ran = select_phases(s, &block, &stmt, &mut rec, t0);
    // stored even when planning or execution fails, so the compile-phase
    // decisions and degradations stay on record
    let rec = obs.flight.record_statement(rec);
    let QueryResult { rows, metrics } = ran?;
    Ok(QueryResult {
        rows,
        metrics: metrics.with_record(&rec, s.lock_wait()),
    })
}

/// A SELECT's stages after the tick, filling `rec`: JITS compile phase,
/// optimize, execute, profile, feedback, periodic migration. The metrics
/// returned lack what [`QueryMetrics::with_record`] adds.
fn select_phases(
    s: &mut Locked<'_>,
    block: &QueryBlock,
    stmt: &Stmt,
    rec: &mut QueryProfile,
    t0: u64,
) -> Result<QueryResult> {
    let env = s.env();
    let obs = &env.obs;
    let clock = stmt.clock;
    let compiled = compile_phase(s, block, stmt, rec);
    let plan = timed(&mut rec.stages.optimize, || {
        plan_for(s, block, &compiled.collected, stmt)
    })?;
    rec.compile_wall_nanos = nanos_since(t0);

    let out = timed(&mut rec.stages.execute, || {
        s.with_tables(|tables| execute_plan(&plan, block, tables, &env.cost))
    })?;
    rec.result_rows = out.rows.len();
    observe::note_access_paths(obs, &out.stats);

    // -- profile (estimation-quality observatory) --
    s.with_catalog(|catalog| fill_profile(rec, &plan, &out.stats, catalog));
    observe::note_profile(obs, rec);
    observe::note_stage_latencies(obs, rec);

    // -- feedback (LEO) --
    timed(&mut rec.stages.feedback, || {
        s.with_feedback(&stmt.logged, |history| {
            ingest(block, &out.stats.scans, history)
        });
    });
    observe::note_feedback(obs, rec, out.stats.scans.len());

    // -- periodic statistics migration (paper Figure 1) --
    if matches!(stmt.setting, StatsSetting::Jits(_)) && clock.is_multiple_of(MIGRATE_EVERY) {
        s.with_migrate(&stmt.logged, |catalog, archive| {
            jits::migrate::migrate(archive, catalog, clock)
        });
    }
    observe::note_statement(obs, rec);
    Ok(QueryResult {
        rows: out.rows,
        metrics: QueryMetrics {
            compile_work: compiled.collected.work,
            exec_work: out.stats.work,
            plan: Some(PlanSummary::from(&plan)),
            sampled_tables: compiled.sampled,
            materialized_groups: compiled.materialized,
            table_scores: compiled.scores,
            collect_threads: compiled.collected.collect_threads,
            ..QueryMetrics::default()
        },
    })
}

/// What the JITS compile phase produced for one statement.
#[derive(Default)]
struct Compiled {
    /// Fresh statistics for the optimizer.
    collected: CollectedStats,
    /// Tables sampled.
    sampled: usize,
    /// Groups materialized into the archive or predicate cache.
    materialized: usize,
    /// Sensitivity scores.
    scores: Vec<jits::TableScore>,
}

/// Runs query analysis, sensitivity analysis, sampling and archive
/// materialization, if JITS is enabled, filling the stage walls and
/// decisions into `rec`.
///
/// Degradations (fault-isolated tables, budget aborts, quarantined archive
/// groups) are recorded onto `rec` and the registry as they happen; the
/// statement always proceeds to planning.
fn compile_phase(
    s: &mut Locked<'_>,
    block: &QueryBlock,
    stmt: &Stmt,
    rec: &mut QueryProfile,
) -> Compiled {
    let env = s.env();
    let StatsSetting::Jits(cfg) = &stmt.setting else {
        return Compiled::default();
    };
    let (clock, fault) = (stmt.clock, &stmt.fault);
    if cfg.never_collects() {
        return Compiled::default();
    }
    let obs = &env.obs;

    // -- query analysis (Algorithm 1) --
    let candidates = timed(&mut rec.stages.analyze, || query_analysis(block));
    observe::note_analysis(obs, rec, candidates.len());

    let (sample_quns, materialize, scores, collected, rebuild_due, cand_tables) =
        s.with_collect(&stmt.logged, |r, mut c| {
            // -- sensitivity analysis (Algorithms 2-4) --
            let t = now_nanos();
            let (sample_quns, materialize, scores, extra_work, mat_log) = match &cfg.strategy {
                SensitivityStrategy::PaperHeuristic => {
                    // history.read fault: a failed (post-retry) history read
                    // degrades to an empty StatHistory — every table scores
                    // s1 = 1 (no accuracy evidence), so sensitivity errs
                    // toward collecting, never toward serving stale stats.
                    let (history_ok, _) = fault.retry(FP_HISTORY_READ, clock);
                    let empty_history = (!history_ok).then(StatHistory::new);
                    if !history_ok {
                        observe::note_degradation(
                            obs,
                            rec,
                            String::new(),
                            FP_HISTORY_READ,
                            "empty_history",
                        );
                    }
                    let decision = sensitivity_analysis_with_feedback(
                        block,
                        &candidates,
                        empty_history.as_ref().unwrap_or(r.history),
                        r.archive,
                        r.predcache,
                        r.catalog,
                        r.tables,
                        cfg,
                        &observe::qerror_feedback(obs, r.catalog),
                    );
                    (
                        decision.sample_quns,
                        decision.materialize,
                        decision.table_scores,
                        0.0,
                        decision.materialize_log,
                    )
                }
                SensitivityStrategy::EpsilonPlanning(eps) => {
                    // the [6]-style baseline: decide by double-optimizing; it
                    // neither consults the history nor materializes anything
                    // for reuse — exactly the contrast the paper draws
                    let outcome = jits::epsilon::epsilon_sensitivity_default(
                        block, r.archive, r.catalog, r.tables, &env.cost, eps,
                    )
                    .unwrap_or(jits::EpsilonOutcome {
                        sample_quns: Vec::new(),
                        optimizer_calls: 0,
                        final_gap: 0.0,
                    });
                    // each extra optimizer invocation costs real compile work
                    let work = outcome.optimizer_calls as f64 * OPTIMIZER_CALL_WORK;
                    (
                        outcome.sample_quns,
                        Vec::new(),
                        Vec::new(),
                        work,
                        Vec::new(),
                    )
                }
            };
            rec.stages.sensitivity = nanos_since(t);
            observe::note_sensitivity(obs, rec, r.catalog, &scores, &mat_log, cfg);

            // -- statistics collection (sampling) --
            let t = now_nanos();
            // Phase A: resolve each quantifier's sample source.
            let (sources, draw_meta, cache_before) = c.samplecache.write(|cache| {
                let before = cache.counters();
                let (sources, draw_meta) =
                    resolve_sample_sources(cache, block, &sample_quns, r.tables, cfg);
                (sources, draw_meta, before)
            });
            // Phase B: collect, with no cache window open.
            let (mut collected, timings, drawn) = collect_for_tables_sourced(
                block,
                &sample_quns,
                &candidates,
                r.tables,
                cfg.sample,
                c.rng,
                cfg.collect_threads,
                Some(&now_nanos),
                &sources,
                cfg.collect_budget,
                fault,
                clock,
            );
            for d in &collected.degraded {
                let table = observe::table_name(r.catalog, d.table);
                observe::note_degradation(obs, rec, table, d.fault_point, d.fallback);
            }
            // Phase C: memoize the fresh draws. A failed (post-retry)
            // commit skips the memoization — the draw is still used for
            // this statement's stats, only its reuse by later statements
            // is lost.
            let (commit_ok, _) = fault.retry(FP_SAMPLECACHE_COMMIT, clock);
            let cache_after = if commit_ok {
                c.samplecache.write(|cache| {
                    commit_drawn_samples(cache, cfg, &drawn, &draw_meta);
                    cache.counters()
                })
            } else {
                observe::note_degradation(
                    obs,
                    rec,
                    String::new(),
                    FP_SAMPLECACHE_COMMIT,
                    "skip_commit",
                );
                c.samplecache.read(SampleCache::counters)
            };
            collected.work += extra_work;
            rec.stages.collect = nanos_since(t);
            observe::note_collect(obs, rec, block, r.catalog, &timings);
            observe::note_samplecache(obs, cache_before, cache_after);

            // Table names for quarantine notes, resolved now: the catalog
            // is not part of the refine window. Only faults quarantine, so
            // without a fault plane there is nothing to name.
            let cand_tables: Vec<String> = if fault.is_enabled() {
                candidates
                    .iter()
                    .map(|c| observe::table_name(r.catalog, block.quns[c.qun].table))
                    .collect()
            } else {
                Vec::new()
            };
            let rebuild_due = r.archive.pending_rebuilds().next().is_some();
            (
                sample_quns,
                materialize,
                scores,
                collected,
                rebuild_due,
                cand_tables,
            )
        });
    if collected.collect_threads > 1 {
        observe::note_parallel_collection(obs);
    }
    if !sample_quns.is_empty() {
        s.with_tables_mut(&stmt.logged, |tables| {
            for &qun in &sample_quns {
                tables[block.quns[qun].table.index()].reset_udi();
            }
        });
    }

    // -- archive materialization / max-entropy refinement --
    let t = now_nanos();
    // The window opens when there is something to write, a quarantined
    // group awaits its rebuild, or the fault plane can tear a write or fail
    // a read. Otherwise the archive is left alone: without faults every
    // stored checksum verifies, so verification could change nothing.
    let mut materialized = 0;
    if !materialize.is_empty() || rebuild_due || (fault.is_enabled() && !candidates.is_empty()) {
        s.with_stats_mut(&stmt.logged, |archive, predcache| {
            // Quarantined groups rebuild on the next collection that covers
            // them, regardless of the sensitivity verdict (the verdict may
            // be "skip" precisely because the group *was* archived).
            let rebuilds: Vec<&CandidateGroup> = candidates
                .iter()
                .filter(|c| {
                    archive.pending_rebuild(&c.colgroup)
                        && !materialize
                            .iter()
                            .any(|m| m.qun == c.qun && m.colgroup == c.colgroup)
                })
                .collect();
            for (i, cand) in materialize.iter().chain(rebuilds).enumerate() {
                let outcome = materialize_group(block, cand, &collected, clock, archive, predcache);
                if !matches!(outcome, MaterializeOutcome::Skipped) {
                    materialized += 1;
                }
                observe::note_materialize_outcome(obs, rec, &cand.colgroup, &outcome);
                // archive.write fault: a torn write lands a histogram whose
                // stored checksum no longer matches — detected (and
                // quarantined) by the verification pass below.
                let (write_ok, _) = fault.retry(FP_ARCHIVE_WRITE, fault_key(clock, i as u64));
                if !write_ok {
                    archive.corrupt_checksum(&cand.colgroup);
                }
            }
            // Verify every group the optimizer may read for this block: a
            // failed read or checksum mismatch quarantines the bucket set,
            // so the estimate falls back to default selectivities instead
            // of serving poisoned statistics.
            for (i, cand) in candidates.iter().enumerate() {
                if archive.histogram(&cand.colgroup).is_none() {
                    continue;
                }
                let (read_ok, _) = fault.retry(FP_ARCHIVE_READ, fault_key(clock, i as u64));
                if !read_ok || !archive.validate(&cand.colgroup) {
                    // flight-note the failing checksum pair *before*
                    // quarantine drops it, so --dump-flight shows exactly
                    // which group and which mismatch triggered the rebuild
                    obs.flight.record(FlightEvent::Note {
                        clock,
                        label: "quarantine".to_string(),
                        detail: format!(
                            "group {:?}: stored checksum {:?} vs computed {:?} ({}); \
                             rebuild scheduled",
                            cand.colgroup,
                            archive.stored_checksum(&cand.colgroup),
                            archive.computed_checksum(&cand.colgroup),
                            if read_ok { "mismatch" } else { "read fault" },
                        ),
                    });
                    archive.quarantine(&cand.colgroup);
                    observe::note_degradation(
                        obs,
                        rec,
                        cand_tables.get(i).cloned().unwrap_or_default(),
                        FP_ARCHIVE_READ,
                        "default_selectivity",
                    );
                }
            }
            observe::note_archive_gauges(obs, archive);
        });
    }
    rec.stages.refine = nanos_since(t);

    Compiled {
        collected,
        sampled: sample_quns.len(),
        materialized,
        scores,
    }
}

/// Optimizes a block under the statement's statistics setting.
fn plan_for(
    s: &mut Locked<'_>,
    block: &QueryBlock,
    collected: &CollectedStats,
    stmt: &Stmt,
) -> Result<PhysicalPlan> {
    let env = s.env();
    let (cost, defaults, clock) = (&env.cost, env.defaults, stmt.clock);
    match &stmt.setting {
        StatsSetting::NoStatistics => {
            return s.with_reads(|r| {
                let provider = PhysicalMetadataProvider { tables: r.tables };
                let est = CardinalityEstimator::new(&provider, defaults);
                optimize(block, &est, cost, r.catalog)
            })
        }
        StatsSetting::CatalogOnly => {
            return s.with_catalog(|catalog| {
                let provider = CatalogStatisticsProvider::new(catalog);
                let est = CardinalityEstimator::new(&provider, defaults);
                optimize(block, &est, cost, catalog)
            })
        }
        StatsSetting::ArchiveReadOnly | StatsSetting::Jits(_) => {}
    }
    let (plan, used, used_cache) = s.with_reads(|r| {
        let provider = JitsStatisticsProvider::new(collected, r.archive, r.catalog, r.tables)
            .with_predicate_cache(r.predcache);
        let est = CardinalityEstimator::new(&provider, defaults);
        let plan = optimize(block, &est, cost, r.catalog)?;
        Ok::<_, JitsError>((
            plan,
            provider.take_used_archive_groups(),
            provider.take_used_cache_entries(),
        ))
    })?;
    if !used.is_empty() || !used_cache.is_empty() {
        s.with_stats_mut(&stmt.logged, |archive, predcache| {
            for g in used {
                archive.touch(&g, clock);
            }
            for (t, fp) in used_cache {
                predcache.touch(t, &fp, clock);
            }
        });
    }
    Ok(plan)
}

fn run_insert(
    s: &mut Locked<'_>,
    logged: &Logged,
    ins: BoundInsert,
    t0: u64,
    sql: &str,
) -> Result<QueryResult> {
    let env = s.env();
    let clock = s.tick(logged);
    let mut rec = open_record(s, clock, sql, "insert", t0);
    rec.compile_wall_nanos = rec.stages.parse_bind;
    let n = ins.rows.len();
    timed(&mut rec.stages.execute, || {
        s.with_tables_mut(logged, |tables| {
            let t = &mut tables[ins.table.index()];
            for row in ins.rows {
                t.insert(row)?;
            }
            Ok::<_, JitsError>(())
        })
    })?;
    rec.result_rows = n;
    rec.total_work = n as f64;
    let rec = env.obs.flight.record_statement(rec);
    Ok(QueryResult {
        rows: Vec::new(),
        metrics: QueryMetrics {
            exec_work: n as f64,
            ..QueryMetrics::default()
        }
        .with_record(&rec, s.lock_wait()),
    })
}

/// UPDATE or DELETE: `apply` locates and mutates the rows under the tables
/// write and reports the one profile node.
fn run_dml(
    s: &mut Locked<'_>,
    logged: &Logged,
    t0: u64,
    sql: &str,
    apply: impl FnOnce(&mut [Table], &CostModel) -> Result<ProfileNodeRow>,
) -> Result<QueryResult> {
    let env = s.env();
    let clock = s.tick(logged);
    let mut rec = open_record(s, clock, sql, "dml", t0);
    rec.compile_wall_nanos = rec.stages.parse_bind;
    let t1 = now_nanos();
    let node = s.with_tables_mut(logged, |tables| apply(tables, &env.cost))?;
    Ok(QueryResult {
        rows: Vec::new(),
        metrics: dml::finish(node, rec, &env.obs, t1, s.lock_wait()),
    })
}

// ---- DDL, bulk loading, statistics administration --------------------------

/// Creates a table.
pub(crate) fn create_table(s: &mut Locked<'_>, name: &str, schema: Schema) -> Result<TableId> {
    let rec = WalRecord::CreateTable {
        name: name.to_string(),
        schema: schema.clone(),
    };
    s.with_ddl(rec, |catalog, tables, _| {
        let id = catalog.register_table(name, schema.clone())?;
        debug_assert_eq!(id.index(), tables.len());
        tables.push(Table::new(name, schema));
        Ok(id)
    })
}

/// Creates a secondary index.
pub(crate) fn create_index(s: &mut Locked<'_>, table: &str, column: &str) -> Result<()> {
    let rec = WalRecord::CreateIndex {
        table: table.to_string(),
        column: column.to_string(),
    };
    s.with_ddl(rec, |catalog, tables, _| {
        let (tid, col) = resolve_column(catalog, table, column)?;
        tables[tid.index()].create_index(col)?;
        catalog.add_index(tid, col)
    })
}

/// Declares a primary key (also builds its index).
pub(crate) fn set_primary_key(s: &mut Locked<'_>, table: &str, column: &str) -> Result<()> {
    let rec = WalRecord::SetPrimaryKey {
        table: table.to_string(),
        column: column.to_string(),
    };
    s.with_ddl(rec, |catalog, tables, _| {
        let (tid, col) = resolve_column(catalog, table, column)?;
        catalog.set_primary_key(tid, col)?;
        tables[tid.index()].create_index(col)?;
        catalog.add_index(tid, col)
    })
}

fn resolve_column(catalog: &Catalog, table: &str, column: &str) -> Result<(TableId, ColumnId)> {
    let tid = catalog.require(table)?;
    let col = catalog.schema(tid)?.require_column(column)?;
    Ok((tid, col))
}

/// Bulk-loads rows (bypasses SQL parsing; used by data generators).
pub(crate) fn load_rows(s: &mut Locked<'_>, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
    // encode into the record, append, then take the rows back — the append
    // borrows them, so bulk loads cost no extra copy
    let rec = WalRecord::LoadRows {
        table: table.to_string(),
        rows,
    };
    s.with_ddl(rec, |catalog, tables, rec| {
        let WalRecord::LoadRows { rows, .. } = rec else {
            return Err(JitsError::internal("with_ddl returned a different record"));
        };
        let t = &mut tables[catalog.require(table)?.index()];
        let n = rows.len();
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    })
}

/// Resets a table's UDI counter (bulk loads are initial state, not churn).
pub(crate) fn reset_udi(s: &mut Locked<'_>, id: TableId) {
    let logged = s.wal_append_lossy(&WalRecord::ResetUdi { table: id.0 });
    s.with_tables_mut(&logged, |tables| {
        if let Some(t) = tables.get_mut(id.index()) {
            t.reset_udi();
        }
    });
}

/// Runs RUNSTATS over every table: populates the catalog's general
/// statistics and resets UDI counters.
pub(crate) fn runstats_all(s: &mut Locked<'_>) -> Result<()> {
    let env = s.env();
    let logged = s.wal_append(&WalRecord::RunstatsAll)?;
    let clock = s.tick(&logged);
    s.with_admin(&logged, |a| {
        for (i, t) in a.tables.iter_mut().enumerate() {
            let (ts, cs) = runstats(t, env.runstats_opts, clock);
            a.catalog.set_stats(TableId(i as u32), ts, cs)?;
            t.reset_udi();
        }
        Ok(())
    })
}

/// Analyzes a query and collects *all* its candidate predicate groups into
/// the QSS archive (the paper's "workload statistics" preparation). Does not
/// count toward any query's compile time.
pub(crate) fn precollect_query_stats(s: &mut Locked<'_>, sql: &str) -> Result<()> {
    let env = s.env();
    let stmt = parse(sql)?;
    let logged = s.wal_append(&WalRecord::Precollect {
        sql: sql.to_string(),
    })?;
    let BoundStatement::Select(block) = s.with_catalog(|catalog| bind_statement(&stmt, catalog))?
    else {
        return Ok(()); // only SELECTs carry predicate groups
    };
    let clock = s.tick(&logged);
    let cfg = JitsConfig::default();
    let candidates = query_analysis(&block);
    let all_quns: Vec<usize> = (0..block.quns.len())
        .filter(|&q| candidates.iter().any(|c| c.qun == q))
        .collect();
    let collected = s.with_collect(&logged, |r, c| {
        collect_for_tables(&block, &all_quns, &candidates, r.tables, cfg.sample, c.rng)
    });
    s.with_stats_mut(&logged, |archive, predcache| {
        for cand in &candidates {
            let outcome = materialize_group(&block, cand, &collected, clock, archive, predcache);
            // no statement record: preparation is not a statement
            let rec = &mut QueryProfile::default();
            observe::note_materialize_outcome(&env.obs, rec, &cand.colgroup, &outcome);
        }
    });
    Ok(())
}

/// Migrates one-dimensional QSS histograms into the catalog.
pub(crate) fn migrate_statistics(s: &mut Locked<'_>) -> usize {
    let logged = s.wal_append_lossy(&WalRecord::MigrateStats);
    let clock = s.tick(&logged);
    s.with_migrate(&logged, |catalog, archive| {
        jits::migrate::migrate(archive, catalog, clock)
    })
}

/// Drops catalog statistics, the archive, the history and both caches.
pub(crate) fn clear_statistics(s: &mut Locked<'_>) {
    let logged = s.wal_append_lossy(&WalRecord::ClearStats);
    s.with_admin(&logged, |a| {
        a.catalog.clear_stats();
        a.archive.clear();
        a.history.clear();
        a.predcache.clear();
        a.samplecache.clear();
    });
}

/// Selects the statistics setting for subsequent statements. Accumulated
/// statistics survive the switch; the archive limits follow the new JITS
/// config, and turning the sample cache off clears it.
pub(crate) fn set_setting(s: &mut Locked<'_>, setting: StatsSetting) {
    let logged = s.wal_append_lossy(&WalRecord::SetSetting {
        payload: persist::encode_setting(&setting),
    });
    s.with_admin(&logged, |a| {
        if let StatsSetting::Jits(cfg) = &setting {
            a.archive
                .set_limits(cfg.archive_bucket_budget, cfg.eviction_uniformity);
            if !cfg.sample_cache {
                a.samplecache.clear();
            }
        }
        *a.setting = setting;
    });
}

// ---- checkpoints -----------------------------------------------------------

/// Folds the entire engine state into a new checkpoint segment and
/// truncates the log. Returns the covered LSN, or `None` without a log.
/// The snapshot is taken between statements (under read guards on a
/// shared database), so it is consistent; "fuzzy" refers to its placement
/// at an arbitrary point of the workload, not to torn in-flight state.
pub(crate) fn checkpoint(s: &mut Locked<'_>) -> Result<Option<u64>> {
    let env = s.env();
    s.with_snapshot(|state, wal| {
        let Some(log) = wal.wal else {
            return Ok(None);
        };
        let payload = persist::encode_state(&state, &env.obs);
        let lsn = log.checkpoint(&payload, wal.fault, state.clock)?;
        observe::note_checkpoint(&env.obs, state.clock, lsn, payload.len());
        Ok(Some(lsn))
    })
}

/// Checkpoints when enough records have accumulated since the last one.
/// Runs *before* the next statement is logged, so the statement lands in
/// the fresh log generation. Two sessions racing the trigger at worst
/// checkpoint twice, which is harmless.
fn maybe_checkpoint(s: &mut Locked<'_>) -> Result<()> {
    let every = s.checkpoint_every();
    if every > 0 && s.with_wal(|wal| wal.wal.is_some_and(|w| w.since_checkpoint() >= every)) {
        checkpoint(s)?;
    }
    Ok(())
}

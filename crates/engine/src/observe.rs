//! Bridges engine/JITS types into the statement record and the metrics
//! registry.
//!
//! Both execution paths — the single-owner [`crate::Database`] and the
//! locked [`crate::Session`] — funnel their instrumentation through these
//! helpers so the record's contents, metric names
//! (`jits.<component>.<name>`), and volatility classification are defined in
//! exactly one place. Every statement fills one [`QueryProfile`] and stores
//! it once, in the flight ring.
//!
//! The obs registry lock ranks *above* every engine lock, so calling these
//! helpers while holding engine guards is always rank-safe.

use jits::{CollectTiming, JitsConfig, MaterializeDecision, TableScore, QERROR_THRESHOLD};
use jits_catalog::Catalog;
use jits_common::{ColGroup, TableId};
use jits_obs::{
    clamp_q_error, Degradation, FlightEvent, GroupVerdict, Observability, QueryProfile, RefineRow,
    SampleRow, ScoreRow, Volatility,
};
use jits_query::QueryBlock;
use jits_storage::CacheCounters;
use std::collections::BTreeMap;

/// Resolves a table id to its name for record rows.
pub(crate) fn table_name(catalog: &Catalog, tid: TableId) -> String {
    catalog
        .table(tid)
        .map(|t| t.name.clone())
        .unwrap_or_else(|| format!("table{}", tid.0))
}

/// The Algorithm 3 score rows of one sensitivity pass, resolved to table
/// names — shared by the statement record and `explain_jits`.
pub(crate) fn score_rows(catalog: &Catalog, scores: &[TableScore]) -> Vec<ScoreRow> {
    scores
        .iter()
        .map(|s| ScoreRow {
            qun: s.qun,
            table: table_name(catalog, s.table),
            s1: s.s1,
            s2: s.s2,
            score: s.score,
            collect: s.collect,
        })
        .collect()
}

/// The Algorithm 4 verdicts of one sensitivity pass.
pub(crate) fn group_verdicts(log: &[MaterializeDecision]) -> Vec<GroupVerdict> {
    log.iter()
        .map(|d| GroupVerdict {
            colgroup: d.colgroup.clone(),
            materialize: d.materialize,
            reason: d.reason.to_string(),
        })
        .collect()
}

/// Records the query-analysis stage (Algorithm 1).
pub(crate) fn note_analysis(obs: &Observability, rec: &mut QueryProfile, candidate_groups: usize) {
    obs.registry
        .counter("jits.analysis.candidate_groups", Volatility::Deterministic)
        .add(candidate_groups as u64);
    rec.candidate_groups = candidate_groups;
}

/// Records the sensitivity stage (Algorithms 2–4): per-table scores and
/// per-candidate materialize verdicts.
pub(crate) fn note_sensitivity(
    obs: &Observability,
    rec: &mut QueryProfile,
    catalog: &Catalog,
    scores: &[TableScore],
    materialize_log: &[MaterializeDecision],
    cfg: &JitsConfig,
) {
    let marked = scores.iter().filter(|s| s.collect).count();
    obs.registry
        .counter("jits.sensitivity.tables_scored", Volatility::Deterministic)
        .add(scores.len() as u64);
    obs.registry
        .counter("jits.sensitivity.tables_marked", Volatility::Deterministic)
        .add(marked as u64);
    rec.s_max = cfg.s_max;
    rec.scores = score_rows(catalog, scores);
    rec.verdicts = group_verdicts(materialize_log);
}

/// Records the collection stage: deterministic row/probe counters,
/// volatile per-table sampling wall times, and one record row per table.
pub(crate) fn note_collect(
    obs: &Observability,
    rec: &mut QueryProfile,
    block: &QueryBlock,
    catalog: &Catalog,
    timings: &[CollectTiming],
) {
    if timings.is_empty() {
        return;
    }
    let reg = &obs.registry;
    reg.counter("jits.collect.tables_sampled", Volatility::Deterministic)
        .add(timings.len() as u64);
    reg.counter("jits.collect.rows_sampled", Volatility::Deterministic)
        .add(timings.iter().map(|t| t.rows_sampled as u64).sum());
    reg.counter("jits.collect.slot_probes", Volatility::Deterministic)
        .add(timings.iter().map(|t| t.slot_probes as u64).sum());
    let hist = reg.histogram("jits.collect.table_nanos", Volatility::Volatile);
    let kernel = reg.histogram("jits.collect.kernel_nanos", Volatility::Volatile);
    let eval = reg.histogram("jits.collect.eval_nanos", Volatility::Volatile);
    for t in timings {
        if t.wall_nanos > 0 {
            hist.observe(t.wall_nanos);
        }
        if t.kernel_nanos > 0 {
            kernel.observe(t.kernel_nanos);
        }
        if t.eval_nanos > 0 {
            eval.observe(t.eval_nanos);
        }
    }
    rec.samples = timings
        .iter()
        .map(|t| SampleRow {
            qun: t.qun,
            table: table_name(catalog, block.quns[t.qun].table),
            rows: t.rows_sampled,
            probes: t.slot_probes,
            origin: t.origin,
            worker: t.worker,
            wall_nanos: t.wall_nanos,
        })
        .collect();
}

/// Records one collect pass's sample-cache outcomes as counter deltas.
/// The lookups run sequentially in quantifier order before collection fans
/// out, so these counters are deterministic at any `collect_threads`.
pub(crate) fn note_samplecache(obs: &Observability, before: CacheCounters, after: CacheCounters) {
    if before == after {
        return;
    }
    let reg = &obs.registry;
    reg.counter("jits.samplecache.hits", Volatility::Deterministic)
        .add(after.hits - before.hits);
    reg.counter("jits.samplecache.misses", Volatility::Deterministic)
        .add(after.misses - before.misses);
    reg.counter("jits.samplecache.stale_redraws", Volatility::Deterministic)
        .add(after.stale_redraws - before.stale_redraws);
}

/// Records one materialization's outcome: cache insert, or archive refine
/// (bucket growth, IPF fit, forced evictions).
pub(crate) fn note_materialize_outcome(
    obs: &Observability,
    rec: &mut QueryProfile,
    colgroup: &ColGroup,
    outcome: &jits::MaterializeOutcome,
) {
    let reg = &obs.registry;
    match outcome {
        jits::MaterializeOutcome::Skipped => {}
        jits::MaterializeOutcome::Cache => {
            reg.counter("jits.archive.cached_groups", Volatility::Deterministic)
                .inc();
            rec.refines.push(RefineRow {
                colgroup: colgroup.clone(),
                target: "predcache",
                buckets_before: 0,
                buckets_after: 0,
                ipf_iterations: 0,
                max_residual: 0.0,
                converged: true,
            });
        }
        jits::MaterializeOutcome::Histogram(r) => {
            reg.counter(
                "jits.archive.materialized_groups",
                Volatility::Deterministic,
            )
            .inc();
            reg.counter("jits.refine.ipf_iterations", Volatility::Deterministic)
                .add(r.fit.iterations as u64);
            if r.buckets_after > r.buckets_before {
                reg.counter("jits.refine.buckets_split", Volatility::Deterministic)
                    .add((r.buckets_after - r.buckets_before) as u64);
            }
            if !r.fit.converged {
                reg.counter("jits.refine.nonconverged", Volatility::Deterministic)
                    .inc();
            }
            reg.counter("jits.archive.evictions", Volatility::Deterministic)
                .add(r.evicted.len() as u64);
            rec.refines.push(RefineRow {
                colgroup: colgroup.clone(),
                target: "archive",
                buckets_before: r.buckets_before,
                buckets_after: r.buckets_after,
                ipf_iterations: r.fit.iterations,
                max_residual: r.fit.max_residual,
                converged: r.fit.converged,
            });
            rec.evictions.extend(r.evicted.iter().cloned());
        }
    }
}

/// Refreshes the archive-size gauges.
pub(crate) fn note_archive_gauges(obs: &Observability, archive: &jits::QssArchive) {
    obs.registry
        .gauge("jits.archive.histograms", Volatility::Deterministic)
        .set(archive.len() as u64);
    obs.registry
        .gauge("jits.archive.total_buckets", Volatility::Deterministic)
        .set(archive.total_buckets() as u64);
}

/// Registry counter fed by one fault point's degradations. Static names so
/// the registry key set stays closed (and the export surface predictable).
fn degraded_counter_name(point: &str) -> &'static str {
    match point {
        jits_common::fault::FP_SAMPLE_DRAW => "jits.degraded.sample_draw",
        jits_common::fault::FP_SAMPLECACHE_COMMIT => "jits.degraded.samplecache_commit",
        jits_common::fault::FP_COLLECT_WORKER => "jits.degraded.collect_worker",
        jits_common::fault::FP_ARCHIVE_READ => "jits.degraded.archive_read",
        jits_common::fault::FP_ARCHIVE_WRITE => "jits.degraded.archive_write",
        jits_common::fault::FP_HISTORY_READ => "jits.degraded.history_read",
        jits::FP_COLLECT_BUDGET => "jits.degraded.collect_budget",
        _ => "jits.degraded.other",
    }
}

/// Records one degradation event: per-fault-point counter and the
/// record's degradation row (which backs `jits_degradation` and the
/// statement's `degraded` flag). Degradation counters are deterministic —
/// every decision derives from the fault seed or a work-unit budget, never
/// wall clock.
pub(crate) fn note_degradation(
    obs: &Observability,
    rec: &mut QueryProfile,
    table: String,
    fault_point: &'static str,
    fallback: &'static str,
) {
    obs.registry
        .counter(
            degraded_counter_name(fault_point),
            Volatility::Deterministic,
        )
        .inc();
    obs.registry
        .counter("jits.degraded.total", Volatility::Deterministic)
        .inc();
    rec.degradations.push(Degradation {
        table,
        fault_point,
        fallback,
    });
}

/// A q-error in integer milli-units, clamped: the registry speaks `u64`,
/// and thousandths are plenty of resolution for accuracy aggregates.
fn qerror_milli(q: f64) -> u64 {
    (clamp_q_error(q) * 1000.0) as u64
}

/// Records one SELECT's operator profile: the `jits.qerror.*` accuracy
/// metrics, the per-table q-error aggregates the sensitivity loop reads,
/// and — on a misprediction above [`QERROR_THRESHOLD`] or a degraded
/// statement — the record's anomaly reason, which triggers an automatic
/// flight dump. Everything recorded here derives from estimated vs. actual
/// row counts, never timing, so the metrics are deterministic at any
/// `collect_threads`.
pub(crate) fn note_profile(obs: &Observability, profile: &mut QueryProfile) {
    let reg = &obs.registry;
    reg.counter("jits.profile.statements", Volatility::Deterministic)
        .inc();
    let qhist = reg.histogram("jits.qerror.scan_milli", Volatility::Deterministic);
    let mut scans = 0u64;
    let mut mispredicted = 0u64;
    for n in &profile.nodes {
        let is_scan = n.kind == "seq_scan" || n.kind == "pruned_scan" || n.kind == "index_scan";
        if !is_scan || n.table.is_empty() {
            continue;
        }
        obs.record_qerror(&n.table, n.q_error, QERROR_THRESHOLD);
        qhist.observe(qerror_milli(n.q_error));
        scans += 1;
        if n.q_error > QERROR_THRESHOLD {
            mispredicted += 1;
        }
    }
    reg.counter("jits.qerror.scans", Volatility::Deterministic)
        .add(scans);
    reg.counter("jits.qerror.mispredicted_scans", Volatility::Deterministic)
        .add(mispredicted);
    reg.gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
        .set(qerror_milli(profile.max_q_error));
    let max_q = profile.max_q_error;
    if max_q > QERROR_THRESHOLD {
        profile.anomaly = Some(format!(
            "q-error {max_q:.3} above threshold {QERROR_THRESHOLD:.3}"
        ));
    } else if profile.degraded() {
        profile.anomaly = Some("degraded statement".to_string());
    }
}

/// Observes one statement's per-stage wall latencies into the fixed-bucket
/// log-scale sketches behind the `jits.stage.*` p50/p99/p999 exports.
/// Volatile by definition — masked out of deterministic metric dumps.
pub(crate) fn note_stage_latencies(obs: &Observability, rec: &QueryProfile) {
    let reg = &obs.registry;
    reg.histogram("jits.stage.plan_nanos", Volatility::Volatile)
        .observe(rec.stages.optimize);
    if rec.stages.collect > 0 {
        reg.histogram("jits.stage.collect_nanos", Volatility::Volatile)
            .observe(rec.stages.collect);
    }
    reg.histogram("jits.stage.execute_nanos", Volatility::Volatile)
        .observe(rec.stages.execute);
}

/// The last observed per-table q-errors resolved to table ids — the
/// feedback [`jits::sensitivity_analysis_with_feedback`] uses to boost
/// re-collection of tables the optimizer actually mispredicted. Tables
/// whose names no longer resolve are dropped.
pub(crate) fn qerror_feedback(obs: &Observability, catalog: &Catalog) -> BTreeMap<TableId, f64> {
    obs.qerror_last()
        .into_iter()
        .filter_map(|(name, q)| catalog.resolve(&name).map(|tid| (tid, q)))
        .collect()
}

/// Records one SELECT's access-path usage: zone-map skip counters plus a
/// per-path tally of how base tables were reached. Everything derives from
/// the skip lists and the plan shape — never from which blocks were
/// physically read — so the counters are deterministic, the same whether
/// or not pruned blocks are skipped, and identical at any thread count.
pub(crate) fn note_access_paths(obs: &Observability, stats: &jits_executor::ExecStats) {
    use jits_executor::NodeKind;
    let (mut seq, mut pruned, mut index) = (0u64, 0u64, 0u64);
    for n in &stats.nodes {
        match n.kind {
            NodeKind::SeqScan => seq += 1,
            NodeKind::PrunedScan => pruned += 1,
            NodeKind::IndexScan | NodeKind::IndexNLJoin => index += 1,
            NodeKind::HashJoin | NodeKind::NLJoin => {}
        }
    }
    let reg = &obs.registry;
    reg.counter("jits.skip.seq_scans", Volatility::Deterministic)
        .add(seq);
    reg.counter("jits.skip.pruned_scans", Volatility::Deterministic)
        .add(pruned);
    reg.counter("jits.skip.index_scans", Volatility::Deterministic)
        .add(index);
    reg.counter("jits.skip.blocks_total", Volatility::Deterministic)
        .add(stats.blocks_total);
    reg.counter("jits.skip.blocks_pruned", Volatility::Deterministic)
        .add(stats.blocks_pruned);
}

/// Records the feedback stage (LEO ingest).
pub(crate) fn note_feedback(obs: &Observability, rec: &mut QueryProfile, observations: usize) {
    obs.registry
        .counter("jits.feedback.observations", Volatility::Deterministic)
        .add(observations as u64);
    rec.feedback_observations = observations;
}

/// Counts one finished SELECT and its compile/execute latencies.
pub(crate) fn note_statement(obs: &Observability, rec: &QueryProfile) {
    let reg = &obs.registry;
    reg.counter("jits.query.statements", Volatility::Deterministic)
        .inc();
    reg.histogram("jits.query.compile_nanos", Volatility::Volatile)
        .observe(rec.compile_wall_nanos);
    reg.histogram("jits.query.exec_nanos", Volatility::Volatile)
        .observe(rec.stages.execute);
}

/// Charges one lock acquisition that blocked for `nanos` of wall-clock. A
/// shared database calls this on the contended branch only, so an
/// uncontended acquisition — and every [`crate::Database`] statement —
/// touches no `jits.engine.*` counter.
pub(crate) fn note_lock_wait(obs: &Observability, nanos: u64) {
    let reg = &obs.registry;
    reg.counter("jits.engine.lock_wait_nanos", Volatility::Volatile)
        .add(nanos);
    reg.counter("jits.engine.contended_acquisitions", Volatility::Volatile)
        .inc();
}

/// Counts one collection pass that fanned out over more than one worker.
pub(crate) fn note_parallel_collection(obs: &Observability) {
    obs.registry
        .counter("jits.engine.parallel_collections", Volatility::Volatile)
        .inc();
}

/// Records one WAL append: kind-tagged count plus the running byte total.
/// All `jits.wal.*` metrics are volatile — a durable run and an in-memory
/// run of the same workload must still produce identical deterministic
/// metric digests, which is exactly what the recovery tests compare.
pub(crate) fn note_wal_append(obs: &Observability, kind: &str, bytes_appended: u64) {
    let reg = &obs.registry;
    reg.counter("jits.wal.appends", Volatility::Volatile).inc();
    reg.counter(&format!("jits.wal.appends.{kind}"), Volatility::Volatile)
        .inc();
    reg.gauge("jits.wal.bytes", Volatility::Volatile)
        .set(bytes_appended);
}

/// Records a swallowed append failure on an infallible-signature knob
/// (setting/flag flips): the log has poisoned itself, so every subsequent
/// fallible durable operation will error loudly — this counter plus the
/// flight note are how the swallowed trigger stays diagnosable.
pub(crate) fn note_wal_append_error(obs: &Observability, clock: u64, kind: &str, err: &str) {
    obs.registry
        .counter("jits.wal.append_errors", Volatility::Volatile)
        .inc();
    obs.flight.record(FlightEvent::Note {
        clock,
        label: "wal_append_error".to_string(),
        detail: format!("append of {kind} record failed (log poisoned): {err}"),
    });
}

/// Records one completed checkpoint.
pub(crate) fn note_checkpoint(obs: &Observability, clock: u64, lsn: u64, payload_bytes: usize) {
    obs.registry
        .counter("jits.wal.checkpoints", Volatility::Volatile)
        .inc();
    obs.registry
        .gauge("jits.wal.checkpoint_bytes", Volatility::Volatile)
        .set(payload_bytes as u64);
    obs.flight.record(FlightEvent::Note {
        clock,
        label: "checkpoint".to_string(),
        detail: format!("checkpoint at lsn {lsn}, {payload_bytes} payload bytes"),
    });
}

/// Records what recovery did at open (volatile counters + a flight note,
/// so `--dump-flight` shows the recovery story post-mortem).
pub(crate) fn note_recovery(obs: &Observability, report: &crate::persist::RecoveryReport) {
    let reg = &obs.registry;
    reg.counter("jits.recovery.opens", Volatility::Volatile)
        .inc();
    reg.counter("jits.recovery.replayed_records", Volatility::Volatile)
        .add(report.replayed_records);
    reg.counter("jits.recovery.replay_errors", Volatility::Volatile)
        .add(report.replay_errors);
    reg.counter("jits.recovery.torn_bytes", Volatility::Volatile)
        .add(report.torn_bytes);
    reg.counter("jits.recovery.corrupt_checkpoints", Volatility::Volatile)
        .add(report.corrupt_checkpoints as u64);
    obs.flight.record(FlightEvent::Note {
        clock: 0,
        label: "recovery".to_string(),
        detail: format!(
            "opened: checkpoint_lsn={:?} replayed={} replay_errors={} torn_bytes={} corrupt_checkpoints={}",
            report.checkpoint_lsn,
            report.replayed_records,
            report.replay_errors,
            report.torn_bytes,
            report.corrupt_checkpoints
        ),
    });
}

//! The `Database` facade.

use crate::dml::{self, DmlContext};
use crate::explain::{explain_block, JitsExplain};
use crate::metrics::{wall_since, QueryMetrics, StageWalls};
use crate::persist::{self, RecoveryReport, RestoredState, StateRefs};
use crate::profile::{build_profile, render_profile, ProfileContext};
use crate::settings::StatsSetting;
use crate::{observe, views};
use jits::{
    collect_for_tables, collect_for_tables_sourced, ingest, query_analysis,
    sensitivity_analysis_with_feedback, CollectedStats, JitsConfig, JitsStatisticsProvider,
    PredicateCache, QssArchive, RefineOutcome, SampleSource, SensitivityStrategy, StatHistory,
};
use jits_catalog::{runstats, Catalog, RunstatsOptions};
use jits_common::fault::{
    FP_ARCHIVE_READ, FP_ARCHIVE_WRITE, FP_HISTORY_READ, FP_SAMPLECACHE_COMMIT,
};
use jits_common::{
    fault_key, ColumnId, FaultPlane, JitsError, Result, Schema, SplitMix64, TableId, Value,
};
use jits_executor::{execute_with_opts, ExecOptions, ExecutorKind};
use jits_obs::clock::now_nanos;
use jits_obs::{FlightEvent, Observability, QueryLogEntry, TraceBuilder};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    PhysicalPlan, PlanSummary, SelEstimate, StatisticsProvider,
};
use jits_query::{
    bind_statement, parse, BoundDelete, BoundInsert, BoundStatement, BoundUpdate, QueryBlock,
    Statement,
};
use jits_storage::{CacheLookup, CachedSample, SampleCache, Table};
use jits_wal::{Wal, WalRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Default number of WAL records between automatic fuzzy checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

/// Result of executing one SQL statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows (empty for DML).
    pub rows: Vec<Vec<Value>>,
    /// Timing, work, and JITS diagnostics.
    pub metrics: QueryMetrics,
}

/// An in-memory database with a cost-based optimizer and the JITS pipeline.
///
/// ```
/// use jits::JitsConfig;
/// use jits_common::{DataType, Schema, Value};
/// use jits_engine::{Database, StatsSetting};
///
/// let mut db = Database::new(42);
/// db.create_table("t", Schema::from_pairs(&[
///     ("id", DataType::Int),
///     ("tag", DataType::Str),
/// ]))?;
/// db.load_rows("t", (0..100i64).map(|i| vec![
///     Value::Int(i),
///     Value::str(if i % 4 == 0 { "hot" } else { "cold" }),
/// ]).collect())?;
///
/// db.set_setting(StatsSetting::Jits(JitsConfig::default()));
/// let result = db.execute("SELECT COUNT(*) FROM t WHERE tag = 'hot'")?;
/// assert_eq!(result.rows[0][0], Value::Int(25));
/// # jits_common::Result::Ok(())
/// ```
pub struct Database {
    tables: Vec<Table>,
    catalog: Catalog,
    archive: QssArchive,
    history: StatHistory,
    predcache: PredicateCache,
    samplecache: SampleCache,
    setting: StatsSetting,
    clock: u64,
    rng: SplitMix64,
    cost: CostModel,
    defaults: DefaultSelectivities,
    runstats_opts: RunstatsOptions,
    /// Groups materialized by the most recent JITS compile phase.
    last_materialized: usize,
    /// Evaluate SELECTs on the vectorized batch executor (default) or the
    /// row-at-a-time path; bit-identical either way, kept for A/B runs.
    batch_executor: bool,
    /// Physically skip zone-map-pruned blocks during pruned scans (default
    /// on). Results, work, and observations are bit-identical either way —
    /// the skip list is always consulted for charging — so this is another
    /// wall-clock-only A/B knob.
    data_skipping: bool,
    /// Build per-operator profiles of executed SELECTs (default on; see
    /// `crate::profile`). Off disables the q-error observatory and the
    /// flight-recorder profile events, for overhead A/B runs.
    profiling: bool,
    /// Tracer, metrics registry, and query log.
    obs: Arc<Observability>,
    /// Deterministic fault-injection plane (disabled by default: every
    /// check is a constant `false`).
    fault: FaultPlane,
    /// Write-ahead log when the database is durable ([`Database::open`]);
    /// `None` for in-memory databases and during recovery replay (replay
    /// must never re-append the records it is re-executing).
    wal: Option<Wal>,
    /// WAL records between automatic fuzzy checkpoints (0 disables the
    /// automatic trigger; explicit [`Database::checkpoint`] still works).
    checkpoint_every: u64,
    /// What recovery did at the last [`Database::open`] (all zeros for a
    /// fresh or in-memory database).
    recovery: RecoveryReport,
}

impl Database {
    /// Creates an empty database; `seed` drives all sampling decisions, so
    /// equal seeds give bit-identical runs.
    pub fn new(seed: u64) -> Self {
        Database {
            tables: Vec::new(),
            catalog: Catalog::new(),
            archive: QssArchive::default(),
            history: StatHistory::new(),
            predcache: PredicateCache::default(),
            samplecache: SampleCache::new(),
            setting: StatsSetting::default(),
            clock: 0,
            rng: SplitMix64::new(seed),
            cost: CostModel::default(),
            defaults: DefaultSelectivities::default(),
            runstats_opts: RunstatsOptions::default(),
            last_materialized: 0,
            batch_executor: true,
            data_skipping: true,
            profiling: true,
            obs: Arc::new(Observability::new()),
            fault: FaultPlane::disabled(),
            wal: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (or creates) a durable database rooted at `dir`: restores the
    /// newest intact checkpoint segment, replays the post-checkpoint WAL
    /// tail through the normal engine paths, and only then attaches the
    /// log so subsequent operations append. `seed` is used only when no
    /// checkpoint exists — a restored database continues the checkpointed
    /// RNG stream, which is what makes recovery bit-identical.
    ///
    /// Replayed statements that error do so deterministically (the
    /// original execution failed the same way), so statement-level replay
    /// errors are counted, not fatal. A checkpoint that fails to *decode*
    /// after passing its CRC is real corruption and aborts the open with
    /// [`JitsError::Recovery`].
    pub fn open(seed: u64, dir: &Path) -> Result<Database> {
        let opened = Wal::open(dir)?;
        let mut report = RecoveryReport {
            checkpoint_lsn: opened.checkpoint.as_ref().map(|c| c.lsn),
            replayed_records: 0,
            replay_errors: 0,
            torn_bytes: opened.torn_bytes,
            corrupt_checkpoints: opened.corrupt_checkpoints,
        };
        let mut db = Database::new(seed);
        if let Some(ckpt) = &opened.checkpoint {
            db.restore(persist::decode_state(&ckpt.payload)?);
        }
        for (_lsn, rec) in &opened.records {
            report.replayed_records += 1;
            if db.replay(rec).is_err() {
                report.replay_errors += 1;
            }
        }
        db.wal = Some(opened.wal);
        db.recovery = report.clone();
        observe::note_recovery(&db.obs, &report);
        Ok(db)
    }

    /// Installs checkpointed state verbatim. Unlike
    /// [`Database::set_setting`], the setting is assigned directly: the
    /// archive limits and cache capacities it would re-derive are already
    /// inside the restored snapshots, and re-deriving them could clear a
    /// restored sample cache.
    fn restore(&mut self, s: RestoredState) {
        self.clock = s.clock;
        self.rng = s.rng;
        self.batch_executor = s.batch_executor;
        self.data_skipping = s.data_skipping;
        self.profiling = s.profiling;
        self.setting = s.setting;
        self.catalog = s.catalog;
        self.tables = s.tables;
        self.archive = s.archive;
        self.history = s.history;
        self.predcache = s.predcache;
        self.samplecache = s.samplecache;
        self.obs.registry.restore(&s.metrics);
        self.obs.restore_qerror(s.qerror);
    }

    /// Re-executes one WAL record through the normal engine path. Only
    /// called while `self.wal` is `None`, so nothing re-appends.
    fn replay(&mut self, rec: &WalRecord) -> Result<()> {
        debug_assert!(self.wal.is_none(), "replay must not re-append");
        match rec {
            WalRecord::Statement { sql } => self.execute(sql).map(|_| ()),
            WalRecord::Explain { sql } => self.explain(sql).map(|_| ()),
            WalRecord::CreateTable { name, schema } => {
                self.create_table(name, schema.clone()).map(|_| ())
            }
            WalRecord::CreateIndex { table, column } => self.create_index(table, column),
            WalRecord::SetPrimaryKey { table, column } => self.set_primary_key(table, column),
            WalRecord::LoadRows { table, rows } => self.load_rows(table, rows.clone()).map(|_| ()),
            WalRecord::ResetUdi { table } => {
                self.reset_udi(TableId(*table));
                Ok(())
            }
            WalRecord::RunstatsAll => self.runstats_all(),
            WalRecord::Precollect { sql } => self.precollect_query_stats(sql),
            WalRecord::MigrateStats => {
                self.migrate_statistics();
                Ok(())
            }
            WalRecord::ClearStats => {
                self.clear_statistics();
                Ok(())
            }
            WalRecord::SetSetting { payload } => {
                self.set_setting(persist::decode_setting(payload)?);
                Ok(())
            }
            WalRecord::SetFlag { name, on } => {
                match name.as_str() {
                    "profiling" => self.set_profiling(*on),
                    "batch_executor" => self.set_batch_executor(*on),
                    "data_skipping" => self.set_data_skipping(*on),
                    other => {
                        return Err(JitsError::Recovery(format!(
                            "wal replay: unknown flag '{other}'"
                        )))
                    }
                }
                Ok(())
            }
        }
    }

    /// Appends one record to the WAL, if one is attached. Errors poison
    /// the log (no further durable operations succeed), so a caller that
    /// propagates this error fails the triggering operation before any
    /// in-memory mutation happens — write-ahead in the strict sense.
    fn wal_append(&mut self, rec: &WalRecord) -> Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        wal.append(rec, &self.fault, self.clock)?;
        let bytes = wal.bytes_appended();
        observe::note_wal_append(&self.obs, rec.kind(), bytes);
        Ok(())
    }

    /// [`Database::wal_append`] for infallible-signature knobs (setting and
    /// flag flips): a failure is counted and flight-noted instead of
    /// propagated. The log has poisoned itself, so the very next fallible
    /// durable operation errors loudly — the knob's effect is never
    /// silently lost past that point (DESIGN.md §14).
    fn wal_append_lossy(&mut self, rec: &WalRecord) {
        let kind = rec.kind();
        if let Err(e) = self.wal_append(rec) {
            observe::note_wal_append_error(&self.obs, self.clock, kind, &e.to_string());
        }
    }

    /// Folds the entire engine state into a new checkpoint segment and
    /// truncates the log. Returns the covered LSN, or `None` for an
    /// in-memory database. The snapshot is taken synchronously between
    /// statements, so it is trivially consistent; "fuzzy" refers to its
    /// placement at an arbitrary point of the workload, not to torn
    /// in-flight state.
    pub fn checkpoint(&mut self) -> Result<Option<u64>> {
        if self.wal.is_none() {
            return Ok(None);
        }
        let payload = persist::encode_state(&StateRefs {
            clock: self.clock,
            rng_state: self.rng.state(),
            batch_executor: self.batch_executor,
            data_skipping: self.data_skipping,
            profiling: self.profiling,
            setting: &self.setting,
            catalog: &self.catalog,
            tables: &self.tables,
            archive: &self.archive,
            history: &self.history,
            predcache: &self.predcache,
            samplecache: &self.samplecache,
            obs: &self.obs,
        });
        // jits-lint: allow(panic-surface) -- the None case returned above
        let wal = self.wal.as_mut().expect("checked above");
        let lsn = wal.checkpoint(&payload, &self.fault, self.clock)?;
        observe::note_checkpoint(&self.obs, self.clock, lsn, payload.len());
        Ok(Some(lsn))
    }

    /// Checkpoints when enough records have accumulated since the last
    /// one. Runs *before* the next statement is logged, so the statement
    /// lands in the fresh log generation.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        let due = self.checkpoint_every > 0
            && self
                .wal
                .as_ref()
                .is_some_and(|w| w.since_checkpoint() >= self.checkpoint_every);
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Sets the automatic checkpoint cadence (records since the last
    /// checkpoint; 0 disables the automatic trigger).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.checkpoint_every = every;
    }

    /// What recovery did at the last [`Database::open`].
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Whether a WAL is attached (durable mode).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// RNG stream position (recovery tests compare it across crashes).
    #[doc(hidden)]
    pub fn rng_state_for_test(&self) -> u64 {
        self.rng.state()
    }

    /// The predicate cache (recovery tests snapshot it).
    #[doc(hidden)]
    pub fn predcache_for_test(&self) -> &PredicateCache {
        &self.predcache
    }

    /// Selects the executor for subsequent SELECTs: the vectorized batch
    /// engine (`true`, the default) or the row-at-a-time path. The two are
    /// differential-tested bit-identical in result rows, work, and
    /// observations, so this only affects wall-clock speed.
    pub fn set_batch_executor(&mut self, on: bool) {
        if self.batch_executor != on {
            self.wal_append_lossy(&WalRecord::SetFlag {
                name: "batch_executor".to_string(),
                on,
            });
        }
        self.batch_executor = on;
    }

    /// Whether SELECTs run on the vectorized batch executor.
    pub fn batch_executor(&self) -> bool {
        self.batch_executor
    }

    /// Enables or disables physical block skipping in pruned scans (default
    /// on). The plan still chooses the pruned-scan access path and charges
    /// pruned-scan work either way; off forces the executor to read every
    /// block, which is the baseline arm of the data-skipping benchmark.
    pub fn set_data_skipping(&mut self, on: bool) {
        if self.data_skipping != on {
            self.wal_append_lossy(&WalRecord::SetFlag {
                name: "data_skipping".to_string(),
                on,
            });
        }
        self.data_skipping = on;
    }

    /// Whether pruned scans physically skip pruned blocks.
    pub fn data_skipping(&self) -> bool {
        self.data_skipping
    }

    /// Enables or disables per-operator profiling of SELECTs (default on).
    /// When off, executed statements carry no [`QueryMetrics::profile`],
    /// record no flight-recorder profile events, and feed no q-error
    /// aggregates — the knob the profiling-overhead benchmark flips.
    pub fn set_profiling(&mut self, on: bool) {
        if self.profiling != on {
            self.wal_append_lossy(&WalRecord::SetFlag {
                name: "profiling".to_string(),
                on,
            });
        }
        self.profiling = on;
    }

    /// Whether per-operator profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Installs the deterministic fault-injection plane (chaos testing).
    /// Every fault decision is a pure function of the plane's seed, the
    /// fault point, and the statement clock — never wall time — so a
    /// faulted run replays bit-identically at any `collect_threads`.
    /// [`FaultPlane::disabled`] (the default) restores normal operation.
    pub fn set_fault_plane(&mut self, fault: FaultPlane) {
        self.fault = fault;
    }

    /// The observability state: tracer, metrics registry, and query log.
    pub fn obs(&self) -> &Arc<Observability> {
        &self.obs
    }

    /// Exports the metrics registry as JSON (see `jits-obs` for the
    /// format). Pass `include_volatile = false` for the deterministic
    /// subset, which is byte-identical for equal workloads and seeds at
    /// any `collect_threads`.
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        observe::note_archive_gauges(&self.obs, &self.archive);
        self.obs.metrics_json(include_volatile)
    }

    /// Exports the metrics registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        observe::note_archive_gauges(&self.obs, &self.archive);
        self.obs.metrics_prometheus(true)
    }

    /// Selects the statistics setting for subsequent queries.
    ///
    /// Accumulated statistics (archive, predicate cache, history) survive
    /// the switch — tuning `s_max` mid-session must not discard what JITS
    /// has learned. Use [`Database::clear_statistics`] for a clean slate.
    pub fn set_setting(&mut self, setting: StatsSetting) {
        self.wal_append_lossy(&WalRecord::SetSetting {
            payload: persist::encode_setting(&setting),
        });
        if let StatsSetting::Jits(cfg) = &setting {
            self.archive
                .set_limits(cfg.archive_bucket_budget, cfg.eviction_uniformity);
            self.predcache.set_capacity(cfg.predicate_cache_capacity);
            if !cfg.sample_cache {
                self.samplecache.clear();
            }
        }
        self.setting = setting;
    }

    /// The current statistics setting.
    pub fn setting(&self) -> &StatsSetting {
        &self.setting
    }

    // ---- DDL -----------------------------------------------------------

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.wal_append(&WalRecord::CreateTable {
            name: name.to_string(),
            schema: schema.clone(),
        })?;
        let id = self.catalog.register_table(name, schema.clone())?;
        debug_assert_eq!(id.index(), self.tables.len());
        self.tables.push(Table::new(name, schema));
        Ok(id)
    }

    /// Creates a secondary index.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.wal_append(&WalRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        let tid = self.catalog.require(table)?;
        let col = self
            .catalog
            .table(tid)
            .ok_or_else(|| JitsError::internal(format!("catalog entry missing for {tid:?}")))?
            .schema
            .require_column(column)?;
        self.tables[tid.index()].create_index(col)?;
        self.catalog.add_index(tid, col)
    }

    /// Declares a primary key (also builds its index).
    pub fn set_primary_key(&mut self, table: &str, column: &str) -> Result<()> {
        self.wal_append(&WalRecord::SetPrimaryKey {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        let tid = self.catalog.require(table)?;
        let col = self
            .catalog
            .table(tid)
            .ok_or_else(|| JitsError::internal(format!("catalog entry missing for {tid:?}")))?
            .schema
            .require_column(column)?;
        self.catalog.set_primary_key(tid, col)?;
        self.tables[tid.index()].create_index(col)?;
        self.catalog.add_index(tid, col)
    }

    // ---- bulk loading and direct access ---------------------------------

    /// Bulk-loads rows (bypasses SQL parsing; used by data generators).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        // encode into the record, append, then take the rows back — the
        // append borrows them, so bulk loads cost no extra copy
        let rec = WalRecord::LoadRows {
            table: table.to_string(),
            rows,
        };
        self.wal_append(&rec)?;
        let WalRecord::LoadRows { rows, .. } = rec else {
            // jits-lint: allow(panic-surface) -- variant constructed above
            unreachable!("constructed two lines up")
        };
        let tid = self.catalog.require(table)?;
        let t = &mut self.tables[tid.index()];
        let n = rows.len();
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }

    /// Storage handle of a table.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id.index())
    }

    /// All storage tables, indexed by `TableId` (read access — used by
    /// benchmarks and diagnostics that drive JITS components directly).
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Resets a table's UDI counter (bulk loads are initial state, not
    /// churn).
    pub fn reset_udi(&mut self, id: TableId) {
        self.wal_append_lossy(&WalRecord::ResetUdi { table: id.0 });
        if let Some(t) = self.tables.get_mut(id.index()) {
            t.reset_udi();
        }
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.catalog.resolve(name)
    }

    /// The catalog (read access).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The QSS archive (read access, for diagnostics).
    pub fn archive(&self) -> &QssArchive {
        &self.archive
    }

    /// The StatHistory (read access, for diagnostics).
    pub fn history(&self) -> &StatHistory {
        &self.history
    }

    /// The versioned sample cache (read access, for diagnostics).
    pub fn sample_cache(&self) -> &SampleCache {
        &self.samplecache
    }

    /// The logical clock (statements executed).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    // ---- statistics management ------------------------------------------

    /// Runs RUNSTATS over every table: populates the catalog's general
    /// statistics and resets UDI counters (the paper's "general (basic and
    /// distribution) statistics about all tables and columns").
    pub fn runstats_all(&mut self) -> Result<()> {
        self.wal_append(&WalRecord::RunstatsAll)?;
        self.clock += 1;
        for tid in 0..self.tables.len() {
            let (ts, cs) = runstats(&self.tables[tid], self.runstats_opts, self.clock);
            self.catalog.set_stats(TableId(tid as u32), ts, cs)?;
            self.tables[tid].reset_udi();
        }
        Ok(())
    }

    /// Analyzes a query and collects *all* its candidate predicate groups
    /// into the QSS archive (the paper's "workload statistics" preparation:
    /// "all column groups that occur in all the queries" collected
    /// beforehand). Does not count toward any query's compile time.
    pub fn precollect_query_stats(&mut self, sql: &str) -> Result<()> {
        let stmt = parse(sql)?;
        self.wal_append(&WalRecord::Precollect {
            sql: sql.to_string(),
        })?;
        let BoundStatement::Select(block) = bind_statement(&stmt, &self.catalog)? else {
            return Ok(()); // only SELECTs carry predicate groups
        };
        self.clock += 1;
        let cfg = JitsConfig::default();
        let candidates = query_analysis(&block, cfg.max_group_enumeration);
        let all_quns: Vec<usize> = (0..block.quns.len())
            .filter(|&q| candidates.iter().any(|c| c.qun == q))
            .collect();
        let collected = collect_for_tables(
            &block,
            &all_quns,
            &candidates,
            &self.tables,
            cfg.sample,
            &mut self.rng,
        );
        for cand in &candidates {
            self.materialize_group(&block, cand, &collected);
        }
        Ok(())
    }

    /// Migrates one-dimensional QSS histograms into the catalog.
    pub fn migrate_statistics(&mut self) -> usize {
        self.wal_append_lossy(&WalRecord::MigrateStats);
        self.clock += 1;
        jits::migrate::migrate(&self.archive, &mut self.catalog, self.clock)
    }

    /// Drops catalog statistics, the archive, and the history (the paper's
    /// "no initial statistics" baseline).
    pub fn clear_statistics(&mut self) {
        self.wal_append_lossy(&WalRecord::ClearStats);
        self.catalog.clear_stats();
        self.archive.clear();
        self.history.clear();
        self.predcache.clear();
        self.samplecache.clear();
    }

    /// Converts this single-owner database into a [`crate::SharedDatabase`]
    /// whose sessions can execute concurrently. The master RNG state moves
    /// over verbatim, so the first session replays exactly where this
    /// `Database` would have continued.
    pub fn into_shared(self) -> crate::SharedDatabase {
        crate::session::SharedDatabase::from_database_parts(
            self.tables,
            self.catalog,
            self.archive,
            self.history,
            self.predcache,
            self.samplecache,
            self.setting,
            self.clock,
            self.rng,
            self.cost,
            self.defaults,
            self.runstats_opts,
            self.batch_executor,
            self.data_skipping,
            self.profiling,
            self.obs,
            self.fault,
            self.wal,
            self.checkpoint_every,
            self.recovery,
        )
    }

    // ---- query execution --------------------------------------------------

    /// Parses, optimizes and executes one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let t0 = now_nanos();
        let stmt = parse(sql)?;
        if let Some(rows) = self.system_view_rows(&stmt) {
            return Ok(QueryResult {
                metrics: QueryMetrics {
                    compile_wall: wall_since(t0),
                    result_rows: rows.len(),
                    ..QueryMetrics::default()
                },
                rows,
            });
        }
        // Logged after parse (parse errors mutate nothing) and before bind:
        // a bind error happens after the record is durable, and replays to
        // the identical error without ticking the clock. Checkpoint first,
        // so this statement lands in the fresh log generation.
        self.maybe_checkpoint()?;
        self.wal_append(&WalRecord::Statement {
            sql: sql.to_string(),
        })?;
        let bound = bind_statement(&stmt, &self.catalog)?;
        match bound {
            BoundStatement::Select(block) => self.run_select(block, t0, sql),
            BoundStatement::Explain(block) => {
                self.clock += 1;
                let (collected, _, _, _) = self.jits_compile_phase(
                    &block,
                    &mut TraceBuilder::off(),
                    &mut QueryMetrics::default(),
                );
                let plan = self.plan_for(&block, &collected)?;
                let metrics = QueryMetrics {
                    compile_wall: wall_since(t0),
                    compile_work: collected.work,
                    plan: Some(PlanSummary::from(&plan)),
                    ..QueryMetrics::default()
                };
                let rows = plan
                    .explain()
                    .lines()
                    .map(|l| vec![Value::str(l)])
                    .collect();
                Ok(QueryResult { rows, metrics })
            }
            BoundStatement::Insert(ins) => self.run_insert(ins, t0),
            BoundStatement::Update(upd) => self.run_update(upd, t0, sql),
            BoundStatement::Delete(del) => self.run_delete(del, t0, sql),
        }
    }

    /// Compiles a query and renders its plan (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let stmt = parse(sql)?;
        self.maybe_checkpoint()?;
        self.wal_append(&WalRecord::Explain {
            sql: sql.to_string(),
        })?;
        let (BoundStatement::Select(block) | BoundStatement::Explain(block)) =
            bind_statement(&stmt, &self.catalog)?
        else {
            return Err(JitsError::Plan("EXPLAIN supports SELECT only".into()));
        };
        self.clock += 1;
        let (collected, _, _, _) = self.jits_compile_phase(
            &block,
            &mut TraceBuilder::off(),
            &mut QueryMetrics::default(),
        );
        let plan = self.plan_for(&block, &collected)?;
        Ok(plan.explain())
    }

    /// Replays the JITS compile-phase decisions for `sql` without
    /// executing it, bumping the clock, or drawing from the sampling RNG:
    /// the reported scores and verdicts are bit-for-bit what the next
    /// [`Database::execute`] of the same statement would compute.
    pub fn explain_jits(&self, sql: &str) -> Result<JitsExplain> {
        let stmt = parse(sql)?;
        let (BoundStatement::Select(block) | BoundStatement::Explain(block)) =
            bind_statement(&stmt, &self.catalog)?
        else {
            return Err(JitsError::Plan("EXPLAIN JITS supports SELECT only".into()));
        };
        Ok(explain_block(
            sql,
            &block,
            &self.setting,
            &self.catalog,
            &self.tables,
            &self.archive,
            &self.history,
            &self.predcache,
            &observe::qerror_feedback(&self.obs, &self.catalog),
        ))
    }

    /// Executes `sql` with profiling forced on and renders the per-operator
    /// profile tree: estimated vs. actual cardinality, q-error, charged
    /// work, and wall time for every node of the executed plan.
    ///
    /// An UPDATE or DELETE is executed too, and renders the one node that
    /// located its rows. Errors for statements that execute no plan
    /// (INSERT, EXPLAIN, system views).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        // the flips route through set_profiling so they are WAL-logged:
        // replay must profile (and feed the q-error aggregates) exactly as
        // the original run did
        let was = self.profiling;
        self.set_profiling(true);
        let result = self.execute(sql);
        self.set_profiling(was);
        let profile = result?.metrics.profile.ok_or_else(|| {
            JitsError::Plan("EXPLAIN ANALYZE supports SELECT, UPDATE and DELETE only".into())
        })?;
        Ok(render_profile(&profile))
    }

    /// Answers a `SELECT` from one of the virtual system views, unless a
    /// user table shadows the name.
    fn system_view_rows(&self, stmt: &Statement) -> Option<Vec<Vec<Value>>> {
        let view = views::system_view_name(stmt)?;
        if self.catalog.resolve(view).is_some() {
            return None;
        }
        Some(match view {
            views::VIEW_ARCHIVE_STATS => views::archive_stats_rows(&self.archive),
            views::VIEW_TABLE_SCORES => views::table_scores_rows(&self.obs),
            views::VIEW_SAMPLE_CACHE => views::sample_cache_rows(&self.samplecache, &self.catalog),
            views::VIEW_DEGRADATION => views::degradation_rows(&self.obs),
            views::VIEW_PROFILE => views::profile_rows(&self.obs),
            views::VIEW_FLIGHT => views::flight_rows(&self.obs),
            views::VIEW_ACCESS_PATHS => views::access_paths_rows(&self.obs),
            _ => views::query_log_rows(&self.obs),
        })
    }

    fn run_select(&mut self, block: QueryBlock, t0: u64, sql: &str) -> Result<QueryResult> {
        self.clock += 1;
        let obs = Arc::clone(&self.obs);
        let cfg = self.setting.jits_config().cloned().unwrap_or_default();
        let mut tb = obs.tracer.start(sql, self.clock, 0);
        tb.begin("parse_bind");
        tb.end(now_nanos().saturating_sub(t0));
        let mut metrics = QueryMetrics::default();

        // -- JITS compile-time pipeline --
        let (collected, sampled, scores, walls) =
            self.jits_compile_phase(&block, &mut tb, &mut metrics);
        metrics.set_stage_walls(walls);
        metrics.compile_work = collected.work;
        metrics.sampled_tables = sampled;
        metrics.materialized_groups = self.last_materialized;
        metrics.table_scores = scores;
        metrics.collect_threads = collected.collect_threads;

        // -- optimize --
        tb.begin("optimize");
        let topt = now_nanos();
        let plan = self.plan_for(&block, &collected)?;
        let plan_nanos = now_nanos().saturating_sub(topt);
        tb.end(plan_nanos);
        metrics.plan = Some(PlanSummary::from(&plan));
        metrics.compile_wall = wall_since(t0);

        // -- execute --
        tb.begin("execute");
        let t1 = now_nanos();
        let kind = if self.batch_executor {
            ExecutorKind::Batch
        } else {
            ExecutorKind::Row
        };
        let out = execute_with_opts(
            kind,
            &plan,
            &block,
            &self.tables,
            &self.cost,
            ExecOptions {
                data_skipping: self.data_skipping,
            },
        )?;
        metrics.exec_wall = wall_since(t1);
        let exec_nanos = metrics.exec_wall.as_nanos() as u64;
        tb.end(exec_nanos);
        metrics.exec_work = out.stats.work;
        metrics.result_rows = out.rows.len();
        metrics.batch_executor = self.batch_executor;
        observe::note_executor(&obs, self.batch_executor);
        observe::note_access_paths(&obs, &out.stats);

        // -- profile (estimation-quality observatory) --
        if self.profiling {
            let profile = build_profile(
                &plan,
                &out.stats,
                &self.catalog,
                &ProfileContext {
                    clock: self.clock,
                    session: 0,
                    sql,
                    batch_executor: self.batch_executor,
                    result_rows: out.rows.len(),
                    degraded: metrics.degraded,
                    exec_wall_nanos: exec_nanos,
                },
            );
            observe::note_profile(&obs, &profile, cfg.qerror_threshold);
            metrics.profile = Some(profile);
        }
        observe::note_stage_latencies(
            &obs,
            plan_nanos,
            metrics.collect_wall.as_nanos() as u64,
            exec_nanos,
        );

        // -- feedback (LEO) --
        tb.begin("feedback");
        let tf = now_nanos();
        ingest(
            &block,
            &out.stats.scans,
            &mut self.history,
            &mut self.archive,
            &self.catalog,
            &cfg,
            self.clock,
        );
        observe::note_feedback(&obs, &mut tb, out.stats.scans.len());
        tb.end(now_nanos().saturating_sub(tf));

        // -- periodic statistics migration (paper Figure 1) --
        if matches!(self.setting, StatsSetting::Jits(_))
            && cfg.migrate_every > 0
            && self.clock.is_multiple_of(cfg.migrate_every)
        {
            jits::migrate::migrate(&self.archive, &mut self.catalog, self.clock);
        }

        observe::note_statement(
            &obs,
            QueryLogEntry {
                clock: self.clock,
                session: 0,
                sql: sql.to_string(),
                result_rows: metrics.result_rows,
                compile_nanos: metrics.compile_wall.as_nanos() as u64,
                exec_nanos: metrics.exec_wall.as_nanos() as u64,
                sampled_tables: sampled,
            },
        );
        obs.tracer.finish(tb, now_nanos().saturating_sub(t0));

        Ok(QueryResult {
            rows: out.rows,
            metrics,
        })
    }

    /// Runs query analysis, sensitivity analysis, sampling and archive
    /// materialization, if JITS is enabled. Returns the fresh statistics,
    /// the number of sampled tables, the sensitivity scores, and the
    /// per-stage wall times (which also decorate `tb`'s spans).
    ///
    /// Degradations (fault-isolated tables, budget aborts, quarantined
    /// archive groups) are recorded onto `metrics` and the obs state as
    /// they happen; the statement always proceeds to planning.
    fn jits_compile_phase(
        &mut self,
        block: &QueryBlock,
        tb: &mut TraceBuilder,
        metrics: &mut QueryMetrics,
    ) -> (CollectedStats, usize, Vec<jits::TableScore>, StageWalls) {
        self.last_materialized = 0;
        let mut walls = StageWalls::default();
        let StatsSetting::Jits(cfg) = self.setting.clone() else {
            return (CollectedStats::default(), 0, Vec::new(), walls);
        };
        if cfg.never_collects() {
            return (CollectedStats::default(), 0, Vec::new(), walls);
        }

        // -- query analysis (Algorithm 1) --
        tb.begin("analyze");
        let t = now_nanos();
        let candidates = query_analysis(block, cfg.max_group_enumeration);
        walls.analyze = wall_since(t);
        observe::note_analysis(&self.obs, tb, block.quns.len(), candidates.len());
        tb.end(walls.analyze.as_nanos() as u64);

        // -- sensitivity analysis (Algorithms 2-4) --
        tb.begin("sensitivity");
        let t = now_nanos();
        let (sample_quns, materialize, table_scores, extra_work, mat_log) = match &cfg.strategy {
            SensitivityStrategy::PaperHeuristic => {
                // history.read fault: a failed (post-retry) history read
                // degrades to an empty StatHistory — every table scores
                // s1 = 1 (no accuracy evidence), so sensitivity errs
                // toward collecting, never toward serving stale stats.
                let (history_ok, _) = self.fault.retry(FP_HISTORY_READ, self.clock);
                let empty_history = (!history_ok).then(StatHistory::new);
                if !history_ok {
                    observe::note_degradation(
                        &self.obs,
                        tb,
                        metrics,
                        self.clock,
                        String::new(),
                        FP_HISTORY_READ,
                        "empty_history",
                    );
                }
                let decision = sensitivity_analysis_with_feedback(
                    block,
                    &candidates,
                    empty_history.as_ref().unwrap_or(&self.history),
                    &self.archive,
                    &self.predcache,
                    &self.catalog,
                    &self.tables,
                    &cfg,
                    &observe::qerror_feedback(&self.obs, &self.catalog),
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
                    block,
                    &self.archive,
                    &self.catalog,
                    &self.tables,
                    &self.cost,
                    eps,
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
        walls.sensitivity = wall_since(t);
        observe::note_sensitivity(
            &self.obs,
            tb,
            &self.catalog,
            &table_scores,
            &mat_log,
            &cfg,
            self.clock,
        );
        tb.end(walls.sensitivity.as_nanos() as u64);

        // -- statistics collection (sampling) --
        tb.begin("collect");
        let t = now_nanos();
        let clock_fn: Option<&(dyn Fn() -> u64 + Sync)> = if tb.enabled() {
            Some(&jits_obs::clock::now_nanos)
        } else {
            None
        };
        let cache_before = self.samplecache.counters();
        let (sources, draw_meta) = resolve_sample_sources(
            &mut self.samplecache,
            block,
            &sample_quns,
            &self.tables,
            &cfg,
        );
        let (mut collected, timings, drawn) = collect_for_tables_sourced(
            block,
            &sample_quns,
            &candidates,
            &self.tables,
            cfg.sample,
            &mut self.rng,
            cfg.collect_threads,
            clock_fn,
            &sources,
            cfg.collect_budget,
            &self.fault,
            self.clock,
        );
        for d in &collected.degraded {
            let table = observe::table_name(&self.catalog, d.table);
            observe::note_degradation(
                &self.obs,
                tb,
                metrics,
                self.clock,
                table,
                d.fault_point,
                d.fallback,
            );
        }
        // samplecache.commit fault: a failed (post-retry) commit skips the
        // memoization — the draw is still used for this statement's stats,
        // only its reuse by later statements is lost.
        let (commit_ok, _) = self.fault.retry(FP_SAMPLECACHE_COMMIT, self.clock);
        if commit_ok {
            commit_drawn_samples(&mut self.samplecache, &cfg, &drawn, &draw_meta);
        } else {
            observe::note_degradation(
                &self.obs,
                tb,
                metrics,
                self.clock,
                String::new(),
                FP_SAMPLECACHE_COMMIT,
                "skip_commit",
            );
        }
        collected.work += extra_work;
        walls.collect = wall_since(t);
        observe::note_collect(&self.obs, tb, block, &self.catalog, &timings);
        observe::note_samplecache(&self.obs, tb, cache_before, self.samplecache.counters());
        tb.end(walls.collect.as_nanos() as u64);

        for &qun in &sample_quns {
            let tid = block.quns[qun].table;
            self.tables[tid.index()].reset_udi();
        }

        // -- archive materialization / max-entropy refinement --
        tb.begin("refine");
        let t = now_nanos();
        // Quarantined groups rebuild on the next collection that covers
        // them, regardless of the sensitivity verdict (the verdict may be
        // "skip" precisely because the group *was* archived).
        let rebuilds: Vec<&jits::CandidateGroup> = candidates
            .iter()
            .filter(|c| {
                self.archive.pending_rebuild(&c.colgroup)
                    && !materialize
                        .iter()
                        .any(|m| m.qun == c.qun && m.colgroup == c.colgroup)
            })
            .collect();
        for (i, cand) in materialize.iter().chain(rebuilds).enumerate() {
            self.materialize_group_traced(block, cand, &collected, tb);
            // archive.write fault: a torn write lands a histogram whose
            // stored checksum no longer matches — detected (and
            // quarantined) by the verification pass below.
            let (write_ok, _) = self
                .fault
                .retry(FP_ARCHIVE_WRITE, fault_key(self.clock, i as u64));
            if !write_ok {
                self.archive.corrupt_checksum(&cand.colgroup);
            }
        }
        // Verify every group the optimizer may read for this block before
        // planning: a failed read or checksum mismatch quarantines the
        // bucket set, so the estimate falls back to default selectivities
        // instead of serving poisoned statistics.
        for (i, cand) in candidates.iter().enumerate() {
            if self.archive.histogram(&cand.colgroup).is_none() {
                continue;
            }
            let (read_ok, _) = self
                .fault
                .retry(FP_ARCHIVE_READ, fault_key(self.clock, i as u64));
            if !read_ok || !self.archive.validate(&cand.colgroup) {
                // flight-note the failing checksum pair *before* quarantine
                // drops it, so --dump-flight shows exactly which group and
                // which mismatch triggered the rebuild
                self.obs.flight.record(FlightEvent::Note {
                    clock: self.clock,
                    label: "quarantine".to_string(),
                    detail: format!(
                        "group {:?}: stored checksum {:?} vs computed {:?} ({}); rebuild scheduled",
                        cand.colgroup,
                        self.archive.stored_checksum(&cand.colgroup),
                        self.archive.computed_checksum(&cand.colgroup),
                        if read_ok { "mismatch" } else { "read fault" },
                    ),
                });
                self.archive.quarantine(&cand.colgroup);
                let table = observe::table_name(&self.catalog, block.quns[cand.qun].table);
                observe::note_degradation(
                    &self.obs,
                    tb,
                    metrics,
                    self.clock,
                    table,
                    FP_ARCHIVE_READ,
                    "default_selectivity",
                );
            }
        }
        walls.refine = wall_since(t);
        observe::note_archive_gauges(&self.obs, &self.archive);
        tb.end(walls.refine.as_nanos() as u64);

        (collected, sample_quns.len(), table_scores, walls)
    }

    /// Pushes one collected group into the archive (if it was actually
    /// collected and has a region form).
    fn materialize_group(
        &mut self,
        block: &QueryBlock,
        cand: &jits::CandidateGroup,
        collected: &CollectedStats,
    ) {
        self.materialize_group_traced(block, cand, collected, &mut TraceBuilder::off());
    }

    /// [`Database::materialize_group`] with trace/metric recording.
    fn materialize_group_traced(
        &mut self,
        block: &QueryBlock,
        cand: &jits::CandidateGroup,
        collected: &CollectedStats,
        tb: &mut TraceBuilder,
    ) {
        let outcome = materialize_group_into(
            block,
            cand,
            collected,
            self.clock,
            &mut self.archive,
            &mut self.predcache,
        );
        if !matches!(outcome, MaterializeOutcome::Skipped) {
            self.last_materialized += 1;
        }
        observe::note_materialize_outcome(&self.obs, tb, &cand.colgroup, &outcome);
    }

    /// Optimizes a block under the session's statistics setting.
    fn plan_for(&mut self, block: &QueryBlock, collected: &CollectedStats) -> Result<PhysicalPlan> {
        match &self.setting {
            StatsSetting::NoStatistics => {
                let provider = PhysicalMetadataProvider {
                    tables: &self.tables,
                };
                let est = CardinalityEstimator::new(&provider, self.defaults);
                optimize(block, &est, &self.cost, &self.catalog)
            }
            StatsSetting::CatalogOnly => {
                let provider = CatalogStatisticsProvider::new(&self.catalog);
                let est = CardinalityEstimator::new(&provider, self.defaults);
                optimize(block, &est, &self.cost, &self.catalog)
            }
            StatsSetting::ArchiveReadOnly | StatsSetting::Jits(_) => {
                let cfg = self.setting.jits_config().cloned().unwrap_or_default();
                let (plan, used, used_cache) = {
                    let provider = JitsStatisticsProvider::new(
                        collected,
                        &self.archive,
                        &self.catalog,
                        &self.tables,
                    )
                    .with_accuracy_gate(cfg.archive_accuracy_gate)
                    .with_predicate_cache(&self.predcache)
                    .with_superset_inference(cfg.infer_from_supersets);
                    let est = CardinalityEstimator::new(&provider, self.defaults);
                    let plan = optimize(block, &est, &self.cost, &self.catalog)?;
                    (
                        plan,
                        provider.take_used_archive_groups(),
                        provider.take_used_cache_entries(),
                    )
                };
                for g in used {
                    self.archive.touch(&g, self.clock);
                }
                for (t, fp) in used_cache {
                    self.predcache.touch(t, &fp, self.clock);
                }
                Ok(plan)
            }
        }
    }

    fn run_insert(&mut self, ins: BoundInsert, t0: u64) -> Result<QueryResult> {
        self.clock += 1;
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let t = &mut self.tables[ins.table.index()];
        let n = ins.rows.len();
        for row in ins.rows {
            t.insert(row)?;
        }
        Ok(QueryResult {
            rows: Vec::new(),
            metrics: QueryMetrics {
                compile_wall,
                exec_wall: wall_since(t1),
                exec_work: n as f64,
                result_rows: n,
                ..QueryMetrics::default()
            },
        })
    }

    fn run_update(&mut self, upd: BoundUpdate, t0: u64, sql: &str) -> Result<QueryResult> {
        self.clock += 1;
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let node = dml::update(&mut self.tables[upd.table.index()], &upd, &self.cost)?;
        Ok(self.dml_result(node, sql, compile_wall, t1))
    }

    fn run_delete(&mut self, del: BoundDelete, t0: u64, sql: &str) -> Result<QueryResult> {
        self.clock += 1;
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let node = dml::delete(&mut self.tables[del.table.index()], &del, &self.cost);
        Ok(self.dml_result(node, sql, compile_wall, t1))
    }

    fn dml_result(
        &self,
        node: jits_obs::ProfileNodeRow,
        sql: &str,
        compile_wall: std::time::Duration,
        exec_start: u64,
    ) -> QueryResult {
        let ctx = DmlContext {
            clock: self.clock,
            session: 0,
            sql,
            profiling: self.profiling,
        };
        QueryResult {
            rows: Vec::new(),
            metrics: dml::finish(
                node,
                &ctx,
                &self.obs,
                compile_wall,
                exec_start,
                std::time::Duration::ZERO,
            ),
        }
    }
}

/// Simulated work units one optimizer invocation costs — charged by the
/// ε-planning sensitivity baseline for each of its extra plan enumerations
/// (the lightweight heuristic makes none).
pub(crate) const OPTIMIZER_CALL_WORK: f64 = 2_000.0;

/// What [`materialize_group_into`] did with one collected group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MaterializeOutcome {
    /// Nothing was materialized (group not collected, or no frame/total).
    Skipped,
    /// The measured selectivity went into the predicate cache.
    Cache,
    /// The observation refined (or created) an archive histogram.
    Histogram(RefineOutcome),
}

/// Pushes one collected group into the archive or the predicate cache.
/// Returns what happened. Shared by the single-owner [`Database`] path and
/// the locked [`crate::SharedDatabase`] path, which holds narrow write
/// guards on `archive`/`predcache` around the call.
pub(crate) fn materialize_group_into(
    block: &QueryBlock,
    cand: &jits::CandidateGroup,
    collected: &CollectedStats,
    clock: u64,
    archive: &mut QssArchive,
    predcache: &mut PredicateCache,
) -> MaterializeOutcome {
    let Some(stat) = collected.group(cand.qun, &cand.pred_indices) else {
        return MaterializeOutcome::Skipped;
    };
    let tid = block.quns[cand.qun].table;
    let Some(region) = &stat.region else {
        // no region form (e.g. a `<>` predicate): the auxiliary
        // predicate cache stores the measured selectivity instead
        // (paper §3.4 footnote 1)
        let fp = jits::fingerprint(block, &cand.pred_indices);
        predcache.insert(tid, fp, stat.selectivity, clock);
        return MaterializeOutcome::Cache;
    };
    // collected.frames is this statement's own draw (single epoch by
    // construction); the epoch comparison happens at SampleCache
    // commit/lookup, not at archive materialization
    // jits-lint: allow(epoch-safety)
    let Some(frame) = collected.frames.get(&cand.colgroup) else {
        return MaterializeOutcome::Skipped;
    };
    let Some(total) = collected.table_rows.get(&tid).copied() else {
        return MaterializeOutcome::Skipped;
    };
    let outcome = archive.apply_observation(
        cand.colgroup.clone(),
        frame,
        region,
        stat.selectivity * total,
        total,
        clock,
    );
    MaterializeOutcome::Histogram(outcome)
}

/// Phase A of the collection fast path: decide, per marked quantifier,
/// whether to serve a cached sample or draw fresh, and capture each table's
/// mutation epoch and cardinality *at resolve time* (the version a fresh
/// draw will be committed under). Decisions are made sequentially in
/// quantifier order, so they are independent of `collect_threads`. With the
/// cache disabled both maps come back empty — exactly the cold path.
///
/// Shared by the single-owner [`Database`] path and the locked
/// [`crate::SharedDatabase`] path, which holds the `samplecache` write
/// guard (rank 6) around the call.
pub(crate) fn resolve_sample_sources(
    cache: &mut jits_storage::SampleCache,
    block: &QueryBlock,
    sample_quns: &[usize],
    tables: &[Table],
    cfg: &JitsConfig,
) -> (BTreeMap<usize, SampleSource>, BTreeMap<TableId, (u64, u64)>) {
    let mut sources = BTreeMap::new();
    let mut draw_meta = BTreeMap::new();
    if !cfg.sample_cache {
        return (sources, draw_meta);
    }
    for &qun in sample_quns {
        let tid = block.quns[qun].table;
        let Some(table) = tables.get(tid.index()) else {
            continue;
        };
        let epoch = table.mutation_epoch();
        draw_meta.insert(tid, (epoch, table.row_count() as u64));
        let source = match cache.lookup(tid, cfg.sample, epoch, cfg.sample_cache_staleness) {
            CacheLookup::Hit {
                rows,
                probes,
                staleness,
                frames,
                bitsets,
            } => SampleSource::Served {
                rows,
                probes,
                staleness,
                frames,
                bitsets,
            },
            CacheLookup::Stale { staleness } => SampleSource::Draw {
                staleness: Some(staleness),
            },
            CacheLookup::Miss => SampleSource::Draw { staleness: None },
        };
        sources.insert(qun, source);
    }
    (sources, draw_meta)
}

/// Phase C of the collection fast path: memoize the fresh draws (with their
/// columnar gathers) under the epoch captured at resolve time, and merge
/// frame-only deposits — columns gathered on top of a served sample — into
/// the existing entry. When several quantifiers of a self-join drew from
/// the same table, the first quantifier's draw wins (lowest qun — `drawn`
/// arrives in quantifier order), keeping the committed entry deterministic.
/// Frame merges carry the resolve-time epoch, so a gather made over a
/// stale-but-served sample (newer cell values than the entry's version)
/// is rejected by the cache rather than contaminating the older sample.
pub(crate) fn commit_drawn_samples(
    cache: &mut jits_storage::SampleCache,
    cfg: &JitsConfig,
    drawn: &[jits::DrawnSample],
    draw_meta: &BTreeMap<TableId, (u64, u64)>,
) {
    if !cfg.sample_cache {
        return;
    }
    let mut committed = BTreeSet::new();
    for d in drawn {
        let Some(&(epoch, rows_at_draw)) = draw_meta.get(&d.table) else {
            continue;
        };
        if !d.fresh {
            cache.merge_artifacts(d.table, cfg.sample, epoch, &d.frames, &d.bitsets);
            continue;
        }
        if !committed.insert(d.table) {
            continue;
        }
        cache.store(
            d.table,
            CachedSample {
                spec: cfg.sample,
                epoch,
                rows_at_draw,
                rows: Arc::clone(&d.rows),
                probes: d.probes,
                hits: 0,
                frames: d.frames.iter().cloned().collect(),
                bitsets: d.bitsets.iter().cloned().collect(),
            },
        );
    }
}

/// The "no statistics" provider a real DBMS actually has: nothing from any
/// statistics subsystem, but table cardinalities still come from physical
/// storage metadata (DB2 derives a default CARD from the table's page
/// count even before any RUNSTATS). Selectivities all fall to textbook
/// defaults.
pub(crate) struct PhysicalMetadataProvider<'a> {
    pub(crate) tables: &'a [Table],
}

impl StatisticsProvider for PhysicalMetadataProvider<'_> {
    fn table_cardinality(&self, table: TableId) -> Option<f64> {
        self.tables.get(table.index()).map(|t| t.row_count() as f64)
    }

    fn group_selectivity(
        &self,
        _block: &QueryBlock,
        _qun: usize,
        _pred_indices: &[usize],
    ) -> Option<SelEstimate> {
        None
    }

    fn distinct(&self, table: TableId, column: jits_common::ColumnId) -> Option<f64> {
        // index metadata (key cardinality) is also physical, not statistical
        let idx = self.tables.get(table.index())?.index(column)?;
        Some(idx.distinct_keys() as f64)
    }
}

// Field added after the struct definition for clarity of the compile phase:
// the count of groups materialized by the last jits_compile_phase call.
// (Declared here to keep the struct body focused on long-lived state.)
impl Database {
    /// Columns of a table by name (test/diagnostic convenience).
    pub fn column_id(&self, table: &str, column: &str) -> Option<(TableId, ColumnId)> {
        let tid = self.catalog.resolve(table)?;
        let col = self.catalog.table(tid)?.schema.column_id(column)?;
        Some((tid, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::DataType;

    fn demo_db() -> Database {
        let mut db = Database::new(42);
        db.create_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("ownerid", DataType::Int),
                ("make", DataType::Str),
                ("model", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "owner",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("salary", DataType::Int),
            ]),
        )
        .unwrap();
        db.set_primary_key("owner", "id").unwrap();
        db.create_index("car", "ownerid").unwrap();

        let mut rows = Vec::new();
        for i in 0..2000i64 {
            let (make, model) = match i % 10 {
                0..=2 => ("Toyota", "Camry"),
                3..=5 => ("Toyota", "Corolla"),
                6..=7 => ("Honda", "Civic"),
                _ => ("Audi", "A4"),
            };
            rows.push(vec![
                Value::Int(i),
                Value::Int(i % 200),
                Value::str(make),
                Value::str(model),
                Value::Int(1990 + i % 17),
            ]);
        }
        db.load_rows("car", rows).unwrap();
        let rows = (0..200i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("owner{i}")),
                    Value::Int(i * 500),
                ]
            })
            .collect();
        db.load_rows("owner", rows).unwrap();
        db
    }

    #[test]
    fn end_to_end_select_with_general_stats() {
        let mut db = demo_db();
        db.runstats_all().unwrap();
        db.set_setting(StatsSetting::CatalogOnly);
        let r = db
            .execute("SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'")
            .unwrap();
        assert_eq!(r.rows.len(), 600);
        assert!(r.metrics.exec_work > 0.0);
        assert_eq!(r.metrics.compile_work, 0.0, "no JITS sampling");
        assert_eq!(r.metrics.sampled_tables, 0);
    }

    #[test]
    fn jits_collects_and_improves_estimates() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        // first query: no history -> s1=1, sampling happens
        let r = db
            .execute("SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'")
            .unwrap();
        assert_eq!(r.rows.len(), 600);
        assert_eq!(r.metrics.sampled_tables, 1);
        assert!(r.metrics.compile_work > 0.0);
        // with fresh exact stats, the estimate must be near-perfect
        let plan = r.metrics.plan.as_ref().unwrap();
        assert!(
            (plan.est_rows - 600.0).abs() < 100.0,
            "estimated {} for actual 600",
            plan.est_rows
        );
        // history recorded
        assert!(!db.history().is_empty());
    }

    #[test]
    fn jits_skips_collection_once_history_is_accurate() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
        // query 1: no history -> sample, but nothing has proven useful yet
        let r1 = db.execute(sql).unwrap();
        assert_eq!(r1.metrics.sampled_tables, 1);
        assert_eq!(r1.metrics.materialized_groups, 0);
        // query 2: the fresh QSS statistic proved accurate (errorFactor 1)
        // -> Algorithm 4 now materializes it; the table is still sampled
        // because the statistic was not yet stored anywhere
        let r2 = db.execute(sql).unwrap();
        assert_eq!(r2.metrics.sampled_tables, 1);
        assert!(
            r2.metrics.materialized_groups > 0,
            "proven-useful groups must be materialized"
        );
        // query 3: the archive histogram has boundaries exactly at the
        // query constants -> MaxAcc = 1, s1 = 0, no UDI -> skip sampling
        let r3 = db.execute(sql).unwrap();
        assert_eq!(
            r3.metrics.sampled_tables, 0,
            "scores: {:?}",
            r3.metrics.table_scores
        );
        assert_eq!(r3.rows.len(), 600);
    }

    #[test]
    fn dml_statements_and_udi() {
        let mut db = demo_db();
        let (tid, _) = db.column_id("car", "make").unwrap();
        let before = db.table(tid).unwrap().row_count();
        let r = db
            .execute("INSERT INTO car VALUES (9999, 1, 'BMW', 'M3', 2006)")
            .unwrap();
        assert_eq!(r.metrics.result_rows, 1);
        assert_eq!(db.table(tid).unwrap().row_count(), before + 1);

        let r = db
            .execute("UPDATE car SET year = 2007 WHERE make = 'BMW'")
            .unwrap();
        assert_eq!(r.metrics.result_rows, 1);

        let r = db.execute("DELETE FROM car WHERE make = 'BMW'").unwrap();
        assert_eq!(r.metrics.result_rows, 1);
        assert_eq!(db.table(tid).unwrap().row_count(), before);
        assert!(db.table(tid).unwrap().udi().total() >= 3);
    }

    #[test]
    fn udi_churn_triggers_recollection() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
        db.execute(sql).unwrap();
        db.execute(sql).unwrap();
        let r = db.execute(sql).unwrap();
        assert_eq!(r.metrics.sampled_tables, 0);
        // with a perfectly accurate history (s1 = 0) and the paper's
        // average aggregate, only full churn pushes the score to s_max:
        // s2 = 1 -> score = 0.5 >= 0.5
        db.execute("UPDATE car SET year = 1980").unwrap();
        let r = db.execute(sql).unwrap();
        assert_eq!(
            r.metrics.sampled_tables, 1,
            "churn must trigger recollection: {:?}",
            r.metrics.table_scores
        );
    }

    #[test]
    fn explain_renders_plan() {
        let mut db = demo_db();
        db.runstats_all().unwrap();
        db.set_setting(StatsSetting::CatalogOnly);
        let plan = db
            .explain("SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND salary > 50000")
            .unwrap();
        assert!(plan.contains("Join"), "{plan}");
        assert!(plan.contains("Scan"), "{plan}");
    }

    #[test]
    fn workload_stats_setting_uses_prepopulated_archive() {
        let mut db = demo_db();
        db.runstats_all().unwrap();
        let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
        db.precollect_query_stats(sql).unwrap();
        assert!(!db.archive().is_empty());
        db.set_setting(StatsSetting::ArchiveReadOnly);
        let r = db.execute(sql).unwrap();
        assert_eq!(r.metrics.sampled_tables, 0, "read-only never samples");
        let plan = r.metrics.plan.unwrap();
        // archive answers the correlated group: estimate near truth
        assert!(
            (plan.est_rows - 600.0).abs() < 120.0,
            "estimated {}",
            plan.est_rows
        );
    }

    #[test]
    fn statistics_migration_flows_to_catalog() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }));
        db.execute("SELECT id FROM car WHERE year > 2000").unwrap();
        assert!(!db.archive().is_empty());
        let migrated = db.migrate_statistics();
        assert!(migrated >= 1);
        let (tid, col) = db.column_id("car", "year").unwrap();
        assert!(db.catalog().column_stats(tid, col).is_some());
    }

    #[test]
    fn explain_jits_matches_next_execution_bit_for_bit() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
        // across the full lifecycle (first sample, materialize, then skip)
        // the preview must equal what execute() then actually decides
        for _ in 0..4 {
            let ex = db.explain_jits(sql).unwrap();
            assert!(ex.enabled);
            let r = db.execute(sql).unwrap();
            assert_eq!(ex.table_scores, r.metrics.table_scores);
            assert_eq!(ex.sample_tables.len(), r.metrics.sampled_tables);
        }
        let rendered = db.explain_jits(sql).unwrap().render();
        assert!(rendered.contains("s1="), "{rendered}");
        assert!(rendered.contains("s_max"), "{rendered}");
        // non-JITS settings report a disabled trace
        db.set_setting(StatsSetting::CatalogOnly);
        assert!(!db.explain_jits(sql).unwrap().enabled);
    }

    #[test]
    fn tracer_spans_system_views_and_exports() {
        let mut db = demo_db();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        db.obs().tracer.set_enabled(true);
        let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
        db.execute(sql).unwrap();
        let trace = db.obs().tracer.latest().unwrap();
        let text = trace.render();
        for span in ["analyze", "sensitivity", "collect", "optimize", "execute"] {
            assert!(text.contains(span), "missing span {span} in:\n{text}");
        }
        assert!(text.contains("car"), "{text}");

        // system views answer without executing user plans
        let scores = db.execute("SELECT * FROM jits_table_scores").unwrap();
        assert!(!scores.rows.is_empty());
        let log = db.execute("SELECT * FROM jits_query_log").unwrap();
        assert_eq!(log.rows.len(), 1, "views must not log themselves");
        db.execute(sql).unwrap();
        db.execute(sql).unwrap(); // second run materializes proven groups
        let arch = db.execute("SELECT * FROM jits_archive_stats").unwrap();
        assert!(!arch.rows.is_empty());

        // both exporters produce grammatically valid output
        jits_obs::export::validate_json(&db.metrics_json(true)).unwrap();
        jits_obs::export::validate_prometheus(&db.metrics_prometheus()).unwrap();
    }

    #[test]
    fn errors_propagate() {
        let mut db = demo_db();
        assert!(db.execute("SELECT * FROM nosuch").is_err());
        assert!(db.execute("garbage").is_err());
        assert!(db
            .create_table("car", Schema::from_pairs(&[("x", DataType::Int)]))
            .is_err());
    }
}

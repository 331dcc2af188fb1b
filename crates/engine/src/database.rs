//! The single-owner `Database` front-end: the statement pipeline
//! (`pipeline.rs`) over engine state it owns outright.

use crate::explain::JitsExplain;
use crate::observe;
use crate::persist::{self, RecoveryReport, RestoredState, StateRefs};
use crate::pipeline::{self, QueryResult};
use crate::settings::StatsSetting;
use crate::store::{Admin, CacheWindow, Collect, EngineState, Env, Logged, Reads, Store, WalSlot};
use jits::{PredicateCache, QssArchive, StatHistory};
use jits_catalog::Catalog;
use jits_common::{ColumnId, FaultPlane, Result, Schema, TableId, Value};
use jits_obs::Observability;
use jits_storage::{SampleCache, Table};
use jits_wal::{Wal, WalRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Default number of WAL records between automatic fuzzy checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

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
    env: Env,
    store: Owned,
    /// What recovery did at the last [`Database::open`] (all zeros for a
    /// fresh or in-memory database).
    recovery: RecoveryReport,
}

/// The single-owner [`Store`]: every bundle is a split borrow of these
/// fields, with no lock and no atomic on the way.
pub(crate) struct Owned {
    pub state: EngineState,
    /// Deterministic fault-injection plane (disabled by default: every
    /// check is a constant `false`).
    pub fault: FaultPlane,
    /// Write-ahead log when the database is durable ([`Database::open`]);
    /// `None` for in-memory databases and during recovery replay (replay
    /// must never re-append the records it is re-executing).
    pub wal: Option<Wal>,
    /// WAL records between automatic fuzzy checkpoints (0 disables the
    /// automatic trigger; explicit [`Database::checkpoint`] still works).
    pub checkpoint_every: u64,
}

impl Store for Owned {
    fn session_id(&self) -> u64 {
        0
    }

    fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    fn fault(&mut self) -> FaultPlane {
        self.fault.clone()
    }

    fn setting(&mut self) -> StatsSetting {
        self.state.setting.clone()
    }

    fn clock(&mut self) -> u64 {
        self.state.clock
    }

    fn tick(&mut self, _: &Logged) -> u64 {
        self.state.clock += 1;
        self.state.clock
    }

    fn lock_wait(&self) -> Duration {
        Duration::ZERO
    }

    fn with_catalog<R>(&mut self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.state.catalog)
    }

    fn with_tables<R>(&mut self, f: impl FnOnce(&[Table]) -> R) -> R {
        f(&self.state.tables)
    }

    fn with_reads<R>(&mut self, f: impl FnOnce(Reads<'_>) -> R) -> R {
        let s = &self.state;
        f(Reads {
            catalog: &s.catalog,
            tables: &s.tables,
            archive: &s.archive,
            history: &s.history,
            predcache: &s.predcache,
        })
    }

    fn with_collect<R>(&mut self, _: &Logged, f: impl FnOnce(Reads<'_>, Collect<'_>) -> R) -> R {
        let s = &mut self.state;
        f(
            Reads {
                catalog: &s.catalog,
                tables: &s.tables,
                archive: &s.archive,
                history: &s.history,
                predcache: &s.predcache,
            },
            Collect {
                samplecache: CacheWindow::Owned(&mut s.samplecache),
                rng: &mut s.rng,
            },
        )
    }

    fn with_views<R>(&mut self, f: impl FnOnce(&Catalog, &QssArchive, &SampleCache) -> R) -> R {
        f(
            &self.state.catalog,
            &self.state.archive,
            &self.state.samplecache,
        )
    }

    fn with_tables_mut<R>(&mut self, _: &Logged, f: impl FnOnce(&mut [Table]) -> R) -> R {
        f(&mut self.state.tables)
    }

    fn with_stats_mut<R>(
        &mut self,
        _: &Logged,
        f: impl FnOnce(&mut QssArchive, &mut PredicateCache) -> R,
    ) -> R {
        f(&mut self.state.archive, &mut self.state.predcache)
    }

    fn with_feedback<R>(&mut self, _: &Logged, f: impl FnOnce(&mut StatHistory) -> R) -> R {
        f(&mut self.state.history)
    }

    fn with_migrate<R>(&mut self, _: &Logged, f: impl FnOnce(&mut Catalog, &QssArchive) -> R) -> R {
        f(&mut self.state.catalog, &self.state.archive)
    }

    fn with_ddl<R>(
        &mut self,
        obs: &Observability,
        rec: WalRecord,
        f: impl FnOnce(&mut Catalog, &mut Vec<Table>, WalRecord) -> Result<R>,
    ) -> Result<R> {
        self.with_wal(|mut wal| wal.append(obs, &rec))?;
        f(&mut self.state.catalog, &mut self.state.tables, rec)
    }

    fn with_admin<R>(&mut self, _: &Logged, f: impl FnOnce(Admin<'_>) -> R) -> R {
        let s = &mut self.state;
        f(Admin {
            catalog: &mut s.catalog,
            tables: &mut s.tables,
            archive: &mut s.archive,
            history: &mut s.history,
            predcache: &mut s.predcache,
            samplecache: &mut s.samplecache,
            setting: &mut s.setting,
        })
    }

    fn with_wal<R>(&mut self, f: impl FnOnce(WalSlot<'_>) -> R) -> R {
        f(WalSlot {
            wal: self.wal.as_mut(),
            fault: &self.fault,
            clock: self.state.clock,
        })
    }

    fn with_snapshot<R>(&mut self, f: impl FnOnce(StateRefs<'_>, WalSlot<'_>) -> R) -> R {
        f(
            self.state.refs(),
            WalSlot {
                wal: self.wal.as_mut(),
                fault: &self.fault,
                clock: self.state.clock,
            },
        )
    }
}

impl Database {
    /// Creates an empty database; `seed` drives all sampling decisions, so
    /// equal seeds give bit-identical runs.
    pub fn new(seed: u64) -> Self {
        Database {
            env: Env::default(),
            store: Owned {
                state: EngineState::new(seed),
                fault: FaultPlane::disabled(),
                wal: None,
                checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            },
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
    /// after passing its CRC is real corruption (or a segment of an older
    /// format) and aborts the open with [`jits_common::JitsError::Recovery`].
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
        db.store.wal = Some(opened.wal);
        db.recovery = report.clone();
        observe::note_recovery(&db.env.obs, &report);
        Ok(db)
    }

    /// Installs checkpointed state verbatim. Unlike
    /// [`Database::set_setting`], the setting is assigned directly: the
    /// archive limits and cache capacities it would re-derive are already
    /// inside the restored snapshots, and re-deriving them could clear a
    /// restored sample cache.
    fn restore(&mut self, s: RestoredState) {
        self.store.state = s.state;
        self.env.obs.registry.restore(&s.metrics);
        self.env.obs.restore_qerror(s.qerror);
    }

    /// Re-executes one WAL record through the normal engine path. Only
    /// called while no log is attached, so nothing re-appends.
    fn replay(&mut self, rec: &WalRecord) -> Result<()> {
        debug_assert!(self.store.wal.is_none(), "replay must not re-append");
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
        }
    }

    /// Folds the entire engine state into a new checkpoint segment and
    /// truncates the log. Returns the covered LSN, or `None` for an
    /// in-memory database.
    pub fn checkpoint(&mut self) -> Result<Option<u64>> {
        pipeline::checkpoint(&self.env, &mut self.store)
    }

    /// Sets the automatic checkpoint cadence (records since the last
    /// checkpoint; 0 disables the automatic trigger).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.store.checkpoint_every = every;
    }

    /// What recovery did at the last [`Database::open`].
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Whether a WAL is attached (durable mode).
    pub fn is_durable(&self) -> bool {
        self.store.wal.is_some()
    }

    /// RNG stream position (recovery tests compare it across crashes).
    #[doc(hidden)]
    pub fn rng_state_for_test(&self) -> u64 {
        self.store.state.rng.state()
    }

    /// The whole engine state (codec tests snapshot it).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &EngineState {
        &self.store.state
    }

    /// Installs the deterministic fault-injection plane (chaos testing).
    /// Every fault decision is a pure function of the plane's seed, the
    /// fault point, and the statement clock — never wall time — so a
    /// faulted run replays bit-identically at any `collect_threads`.
    /// [`FaultPlane::disabled`] (the default) restores normal operation.
    pub fn set_fault_plane(&mut self, fault: FaultPlane) {
        self.store.fault = fault;
    }

    /// The observability state: tracer, metrics registry, and query log.
    pub fn obs(&self) -> &Arc<Observability> {
        &self.env.obs
    }

    /// Exports the metrics registry as JSON (see `jits-obs` for the
    /// format). Pass `include_volatile = false` for the deterministic
    /// subset, which is byte-identical for equal workloads and seeds at
    /// any `collect_threads`.
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        observe::note_archive_gauges(&self.env.obs, &self.store.state.archive);
        self.env.obs.metrics_json(include_volatile)
    }

    /// Exports the metrics registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        observe::note_archive_gauges(&self.env.obs, &self.store.state.archive);
        self.env.obs.metrics_prometheus(true)
    }

    /// Selects the statistics setting for subsequent queries.
    ///
    /// Accumulated statistics (archive, predicate cache, history) survive
    /// the switch — tuning `s_max` mid-session must not discard what JITS
    /// has learned. Use [`Database::clear_statistics`] for a clean slate.
    pub fn set_setting(&mut self, setting: StatsSetting) {
        pipeline::set_setting(&self.env, &mut self.store, setting)
    }

    /// The current statistics setting.
    pub fn setting(&self) -> &StatsSetting {
        &self.store.state.setting
    }

    // ---- DDL, bulk loading, direct access --------------------------------

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        pipeline::create_table(&self.env, &mut self.store, name, schema)
    }

    /// Creates a secondary index.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        pipeline::create_index(&self.env, &mut self.store, table, column)
    }

    /// Declares a primary key (also builds its index).
    pub fn set_primary_key(&mut self, table: &str, column: &str) -> Result<()> {
        pipeline::set_primary_key(&self.env, &mut self.store, table, column)
    }

    /// Bulk-loads rows (bypasses SQL parsing; used by data generators).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        pipeline::load_rows(&self.env, &mut self.store, table, rows)
    }

    /// Resets a table's UDI counter (bulk loads are initial state, not
    /// churn).
    pub fn reset_udi(&mut self, id: TableId) {
        pipeline::reset_udi(&self.env, &mut self.store, id)
    }

    /// Storage handle of a table.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.store.state.tables.get(id.index())
    }

    /// All storage tables, indexed by `TableId` (read access — used by
    /// benchmarks and diagnostics that drive JITS components directly).
    pub fn tables(&self) -> &[Table] {
        &self.store.state.tables
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.store.state.catalog.resolve(name)
    }

    /// Columns of a table by name (test/diagnostic convenience).
    pub fn column_id(&self, table: &str, column: &str) -> Option<(TableId, ColumnId)> {
        let tid = self.table_id(table)?;
        let col = self.catalog().table(tid)?.schema.column_id(column)?;
        Some((tid, col))
    }

    /// The catalog (read access).
    pub fn catalog(&self) -> &Catalog {
        &self.store.state.catalog
    }

    /// The QSS archive (read access, for diagnostics).
    pub fn archive(&self) -> &QssArchive {
        &self.store.state.archive
    }

    /// The StatHistory (read access, for diagnostics).
    pub fn history(&self) -> &StatHistory {
        &self.store.state.history
    }

    /// The versioned sample cache (read access, for diagnostics).
    pub fn sample_cache(&self) -> &SampleCache {
        &self.store.state.samplecache
    }

    /// The logical clock (statements executed).
    pub fn clock(&self) -> u64 {
        self.store.state.clock
    }

    // ---- statistics management -------------------------------------------

    /// Runs RUNSTATS over every table: populates the catalog's general
    /// statistics and resets UDI counters (the paper's "general (basic and
    /// distribution) statistics about all tables and columns").
    pub fn runstats_all(&mut self) -> Result<()> {
        pipeline::runstats_all(&self.env, &mut self.store)
    }

    /// Analyzes a query and collects *all* its candidate predicate groups
    /// into the QSS archive (the paper's "workload statistics" preparation:
    /// "all column groups that occur in all the queries" collected
    /// beforehand). Does not count toward any query's compile time.
    pub fn precollect_query_stats(&mut self, sql: &str) -> Result<()> {
        pipeline::precollect_query_stats(&self.env, &mut self.store, sql)
    }

    /// Migrates one-dimensional QSS histograms into the catalog.
    pub fn migrate_statistics(&mut self) -> usize {
        pipeline::migrate_statistics(&self.env, &mut self.store)
    }

    /// Drops catalog statistics, the archive, and the history (the paper's
    /// "no initial statistics" baseline).
    pub fn clear_statistics(&mut self) {
        pipeline::clear_statistics(&self.env, &mut self.store)
    }

    /// Converts this single-owner database into a [`crate::SharedDatabase`]
    /// whose sessions can execute concurrently. The master RNG state moves
    /// over verbatim, so the first session replays exactly where this
    /// `Database` would have continued.
    pub fn into_shared(self) -> crate::SharedDatabase {
        crate::SharedDatabase::from_parts(self.env, self.store, self.recovery)
    }

    // ---- statements --------------------------------------------------------

    /// Parses, optimizes and executes one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        pipeline::execute(&self.env, &mut self.store, sql)
    }

    /// Compiles a query and renders its plan (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        pipeline::explain(&self.env, &mut self.store, sql)
    }

    /// Replays the JITS compile-phase decisions for `sql` without
    /// executing it, bumping the clock, or drawing from the sampling RNG:
    /// the reported scores and verdicts are bit-for-bit what the next
    /// [`Database::execute`] of the same statement would compute.
    pub fn explain_jits(&mut self, sql: &str) -> Result<JitsExplain> {
        pipeline::explain_jits(&self.env, &mut self.store, sql)
    }

    /// Executes `sql` and renders its per-operator profile tree: estimated
    /// vs. actual cardinality, q-error, charged work, and wall time for
    /// every node of the executed plan.
    ///
    /// An UPDATE or DELETE is executed too, and renders the one node that
    /// located its rows. Errors for statements that execute no plan
    /// (INSERT, EXPLAIN, system views).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        pipeline::explain_analyze(&self.env, &mut self.store, sql)
    }
}

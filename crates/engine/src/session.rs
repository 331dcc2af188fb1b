//! Concurrent query sessions over one shared database.
//!
//! [`SharedDatabase`] wraps every piece of engine state a statement touches
//! — catalog, storage tables, QSS archive, StatHistory, predicate cache,
//! statistics setting — in `parking_lot` locks so that N [`Session`]s on N
//! threads can run [`Session::execute`] concurrently. The read-mostly query
//! path (bind, sensitivity analysis, sampling, plan costing, execution)
//! takes shared read guards; only the narrow mutation windows (DML, UDI
//! reset, archive materialization, feedback ingest, migration) take write
//! guards.
//!
//! # Lock ordering
//!
//! Whenever a statement holds more than one lock, it acquires them in this
//! fixed order (and never acquires an earlier lock while holding a later
//! one), which makes deadlock impossible:
//!
//! ```text
//! catalog < tables < archive < history < predcache < samplecache < setting < wal
//! ```
//!
//! (The write-ahead log, rank 8, is always acquired last: a durable
//! mutation takes its component guards first and appends while holding
//! them, so log order matches mutation order. The observability locks sit
//! above the whole engine — registry at rank 9, flight ring at rank 10 —
//! and are therefore usable from any point of the statement path,
//! including under the WAL guard.)
//!
//! The order is load-bearing and enforced twice: statically by
//! `jits-lint`'s lock-order pass over this crate's source, and dynamically
//! by the rank tracker in the `parking_lot` shim — every component lock is
//! built with [`parking_lot::RwLock::with_rank`] using the `RANK_*`
//! constants below, so in debug/test builds any out-of-order acquisition
//! panics with both lock names instead of deadlocking.
//!
//! # Determinism
//!
//! Each session carries its own `SplitMix64` sampling stream. The first
//! session of a [`Database::into_shared`] conversion continues the master
//! stream exactly where the `Database` left it, so a single-session
//! `SharedDatabase` run is bit-identical to the `Database` run it replaces.
//! Later sessions fork independent streams. Within any one statement,
//! parallel statistics collection is bit-identical to sequential regardless
//! of `collect_threads` (see `jits::collect`), so concurrency knobs never
//! change *what* is computed — only wall-clock time.
//!
//! Every acquisition that actually blocks is charged to
//! [`EngineCounters::lock_wait_nanos`] and to the statement's
//! [`QueryMetrics::lock_wait`].

use crate::database::{
    commit_drawn_samples, materialize_group_into, resolve_sample_sources, MaterializeOutcome,
    PhysicalMetadataProvider, OPTIMIZER_CALL_WORK,
};
use crate::dml::{self, DmlContext};
use crate::explain::{explain_block, JitsExplain};
use crate::metrics::{wall_since, CountersSnapshot, EngineCounters, QueryMetrics, StageWalls};
use crate::persist::{self, RecoveryReport, StateRefs};
use crate::profile::{build_profile, render_profile, ProfileContext};
use crate::settings::StatsSetting;
use crate::{observe, views, Database, QueryResult};
use jits::{
    collect_for_tables_sourced, ingest, query_analysis, sensitivity_analysis_with_feedback,
    CollectedStats, JitsStatisticsProvider, PredicateCache, QssArchive, SensitivityStrategy,
    StatHistory,
};
use jits_catalog::{runstats, Catalog, RunstatsOptions};
use jits_common::fault::{
    FP_ARCHIVE_READ, FP_ARCHIVE_WRITE, FP_HISTORY_READ, FP_SAMPLECACHE_COMMIT,
};
use jits_common::{fault_key, FaultPlane, JitsError, Result, Schema, SplitMix64, TableId, Value};
use jits_executor::{execute_with_opts, ExecOptions, ExecutorKind};
use jits_obs::clock::now_nanos;
use jits_obs::{FlightEvent, Observability, QueryLogEntry, TraceBuilder};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    PhysicalPlan, PlanSummary,
};
use jits_query::{
    bind_statement, parse, BoundDelete, BoundInsert, BoundStatement, BoundUpdate, QueryBlock,
};
use jits_storage::{SampleCache, Table};
use jits_wal::{Wal, WalRecord};
use parking_lot::rank::LockRank;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rank of the catalog lock — first in the acquisition order.
pub const RANK_CATALOG: LockRank = LockRank::new(1, "catalog");
/// Rank of the storage-tables lock.
pub const RANK_TABLES: LockRank = LockRank::new(2, "tables");
/// Rank of the QSS-archive lock.
pub const RANK_ARCHIVE: LockRank = LockRank::new(3, "archive");
/// Rank of the StatHistory lock.
pub const RANK_HISTORY: LockRank = LockRank::new(4, "history");
/// Rank of the predicate-cache lock.
pub const RANK_PREDCACHE: LockRank = LockRank::new(5, "predcache");
/// Rank of the versioned sample-cache lock.
pub const RANK_SAMPLECACHE: LockRank = LockRank::new(6, "samplecache");
/// Rank of the statistics-setting lock — last of the component locks.
pub const RANK_SETTING: LockRank = LockRank::new(7, "setting");
/// Rank of the write-ahead-log lock — last in the acquisition order, so a
/// durable mutation can append while still holding its component guards.
pub const RANK_WAL: LockRank = LockRank::new(8, "wal");

/// Engine state shared by all sessions, each component behind its own lock
/// (see the module docs for the acquisition order).
struct Shared {
    catalog: RwLock<Catalog>,
    tables: RwLock<Vec<Table>>,
    archive: RwLock<QssArchive>,
    history: RwLock<StatHistory>,
    predcache: RwLock<PredicateCache>,
    samplecache: RwLock<SampleCache>,
    setting: RwLock<StatsSetting>,
    /// Logical statement clock, global across sessions so archive/history
    /// timestamps stay monotone.
    clock: AtomicU64,
    /// Master RNG: the first session takes its state verbatim (and writes
    /// the advanced state back after each sampling phase so checkpoints
    /// snapshot the live stream); later sessions fork independent streams
    /// from it.
    rng_source: Mutex<SplitMix64>,
    /// Sessions handed out so far.
    sessions: AtomicU64,
    cost: CostModel,
    defaults: DefaultSelectivities,
    runstats_opts: RunstatsOptions,
    /// Evaluate SELECTs on the vectorized batch executor (default) or the
    /// row-at-a-time A/B path; lock-free, togglable at any time.
    batch_executor: AtomicBool,
    /// Physically skip zone-map-pruned blocks in pruned scans (default on);
    /// bit-identical results either way, lock-free, togglable at any time.
    data_skipping: AtomicBool,
    /// Build per-operator profiles of executed SELECTs (default on);
    /// lock-free, togglable at any time.
    profiling: AtomicBool,
    counters: EngineCounters,
    /// Tracer, metrics registry, and query log (lock-free or rank-9/10
    /// internally, so usable while holding any engine lock — including the
    /// rank-8 WAL guard).
    obs: Arc<Observability>,
    /// Deterministic fault-injection plane. Like `rng_source`, guarded by a
    /// plain mutex outside the ranked hierarchy: sessions clone the handle
    /// (an `Arc` bump) once per statement before taking any engine lock.
    fault: Mutex<FaultPlane>,
    /// Write-ahead log, `None` for in-memory databases. Rank 8: acquired
    /// last, so durable mutations append while holding their component
    /// guards and log order matches mutation order.
    wal: RwLock<Option<Wal>>,
    /// WAL records between automatic fuzzy checkpoints (0 disables the
    /// automatic trigger; explicit [`SharedDatabase::checkpoint`] still
    /// works).
    checkpoint_every: AtomicU64,
    /// What recovery did when this database was opened (all zeros for a
    /// fresh or in-memory database).
    recovery: RecoveryReport,
}

impl Shared {
    /// Appends one record to the WAL, if one is attached (the shared
    /// counterpart of `Database::wal_append`). Legal while holding any
    /// component guard — the WAL lock is rank 8, above them all — which is
    /// how durable mutations keep log order consistent with mutation
    /// order. Errors poison the log, so propagating callers fail before
    /// mutating.
    fn wal_append(&self, rec: &WalRecord, waited: &mut u64) -> Result<()> {
        // plain mutexes (fault, outside the ranked hierarchy) are cloned
        // before the ranked acquisition, as everywhere else in this module
        let fault = self.fault.lock().clone();
        let clock = self.clock.load(Ordering::SeqCst);
        let mut wal = timed_write(&self.wal, &self.counters, waited);
        let Some(w) = wal.as_mut() else {
            return Ok(());
        };
        w.append(rec, &fault, clock)?;
        let bytes = w.bytes_appended();
        observe::note_wal_append(&self.obs, rec.kind(), bytes);
        Ok(())
    }

    /// [`Shared::wal_append`] for infallible-signature knobs: failures are
    /// counted and flight-noted, and the poisoned log makes the next
    /// fallible durable operation error loudly (DESIGN.md §14).
    fn wal_append_lossy(&self, rec: &WalRecord, waited: &mut u64) {
        let kind = rec.kind();
        if let Err(e) = self.wal_append(rec, waited) {
            let clock = self.clock.load(Ordering::SeqCst);
            observe::note_wal_append_error(&self.obs, clock, kind, &e.to_string());
        }
    }

    /// Flips a lock-free boolean knob, logging a `SetFlag` record only
    /// when the value actually changes (idempotent re-sets stay silent, as
    /// on `Database`).
    fn set_flag_logged(&self, flag: &AtomicBool, name: &str, on: bool) {
        let was = flag.swap(on, Ordering::SeqCst);
        if was != on {
            let mut w = 0u64;
            self.wal_append_lossy(
                &WalRecord::SetFlag {
                    name: name.to_string(),
                    on,
                },
                &mut w,
            );
        }
    }

    /// Folds the entire shared state into a new checkpoint segment and
    /// truncates the log (the shared counterpart of
    /// `Database::checkpoint`). Takes read guards over every component in
    /// rank order, so the snapshot is consistent even with concurrent
    /// sessions; "fuzzy" refers to its placement in the workload, not to
    /// torn state.
    fn checkpoint(&self, waited: &mut u64) -> Result<Option<u64>> {
        {
            if timed_read(&self.wal, &self.counters, waited).is_none() {
                return Ok(None);
            }
        }
        // un-ranked snapshots first, then guards in rank order 1..=7
        let fault = self.fault.lock().clone();
        let rng_state = self.rng_source.lock().state();
        let catalog = timed_read(&self.catalog, &self.counters, waited);
        let tables = timed_read(&self.tables, &self.counters, waited);
        let archive = timed_read(&self.archive, &self.counters, waited);
        let history = timed_read(&self.history, &self.counters, waited);
        let predcache = timed_read(&self.predcache, &self.counters, waited);
        let samplecache = timed_read(&self.samplecache, &self.counters, waited);
        let setting = timed_read(&self.setting, &self.counters, waited);
        let clock = self.clock.load(Ordering::SeqCst);
        let payload = persist::encode_state(&StateRefs {
            clock,
            rng_state,
            batch_executor: self.batch_executor.load(Ordering::SeqCst),
            data_skipping: self.data_skipping.load(Ordering::SeqCst),
            profiling: self.profiling.load(Ordering::SeqCst),
            setting: &setting,
            catalog: &catalog,
            tables: &tables,
            archive: &archive,
            history: &history,
            predcache: &predcache,
            samplecache: &samplecache,
            obs: &self.obs,
        });
        let mut wal = timed_write(&self.wal, &self.counters, waited);
        let Some(w) = wal.as_mut() else {
            return Ok(None); // detached between the check and now
        };
        let lsn = w.checkpoint(&payload, &fault, clock)?;
        observe::note_checkpoint(&self.obs, clock, lsn, payload.len());
        Ok(Some(lsn))
    }

    /// Checkpoints when enough records have accumulated since the last
    /// one; runs before the next statement is logged. Two sessions racing
    /// the trigger at worst checkpoint twice, which is harmless.
    fn maybe_checkpoint(&self, waited: &mut u64) -> Result<()> {
        let every = self.checkpoint_every.load(Ordering::SeqCst);
        if every == 0 {
            return Ok(());
        }
        let due = timed_read(&self.wal, &self.counters, waited)
            .as_ref()
            .is_some_and(|w| w.since_checkpoint() >= every);
        if due {
            self.checkpoint(waited)?;
        }
        Ok(())
    }
}

/// A database whose state is shareable across threads; spawn one
/// [`Session`] per thread with [`SharedDatabase::session`].
///
/// ```
/// use jits_common::{DataType, Schema, Value};
/// use jits_engine::SharedDatabase;
///
/// let db = SharedDatabase::new(42);
/// db.create_table("t", Schema::from_pairs(&[("id", DataType::Int)]))?;
/// db.load_rows("t", (0..10i64).map(|i| vec![Value::Int(i)]).collect())?;
///
/// let mut a = db.session();
/// let mut b = db.session();
/// std::thread::scope(|s| {
///     s.spawn(|| a.execute("SELECT id FROM t WHERE id > 4").unwrap());
///     s.spawn(|| b.execute("SELECT id FROM t WHERE id < 5").unwrap());
/// });
/// # jits_common::Result::Ok(())
/// ```
pub struct SharedDatabase {
    shared: Arc<Shared>,
}

/// One thread's handle onto a [`SharedDatabase`]: owns a private sampling
/// RNG and executes statements against the shared state.
pub struct Session {
    shared: Arc<Shared>,
    rng: SplitMix64,
    id: u64,
}

/// Reads a lock, charging any blocked time to the counters and the
/// statement's running wait tally (uncontended acquisitions cost nothing).
fn timed_read<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    counters: &EngineCounters,
    waited: &mut u64,
) -> RwLockReadGuard<'a, T> {
    if let Some(g) = lock.try_read() {
        return g;
    }
    let t = now_nanos();
    let g = lock.read();
    let ns = now_nanos().saturating_sub(t);
    counters.charge_lock_wait(ns);
    *waited += ns;
    g
}

/// Write-lock counterpart of [`timed_read`].
fn timed_write<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    counters: &EngineCounters,
    waited: &mut u64,
) -> RwLockWriteGuard<'a, T> {
    if let Some(g) = lock.try_write() {
        return g;
    }
    let t = now_nanos();
    let g = lock.write();
    let ns = now_nanos().saturating_sub(t);
    counters.charge_lock_wait(ns);
    *waited += ns;
    g
}

impl SharedDatabase {
    /// Creates an empty shared database; equal seeds give bit-identical
    /// single-session runs (and statistically independent per-session
    /// streams under concurrency).
    pub fn new(seed: u64) -> Self {
        Database::new(seed).into_shared()
    }

    /// Opens (or creates) a durable shared database rooted at `dir`:
    /// recovery runs on the single-owner [`Database`] (see
    /// [`Database::open`]), which is then converted, WAL attached and all.
    /// Subsequent sessions append durably and [`SharedDatabase::checkpoint`]
    /// folds the shared state into a new segment.
    pub fn open(seed: u64, dir: &Path) -> Result<SharedDatabase> {
        Ok(Database::open(seed, dir)?.into_shared())
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_database_parts(
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
        batch_executor: bool,
        data_skipping: bool,
        profiling: bool,
        obs: Arc<Observability>,
        fault: FaultPlane,
        wal: Option<Wal>,
        checkpoint_every: u64,
        recovery: RecoveryReport,
    ) -> Self {
        SharedDatabase {
            shared: Arc::new(Shared {
                catalog: RwLock::with_rank(catalog, RANK_CATALOG),
                tables: RwLock::with_rank(tables, RANK_TABLES),
                archive: RwLock::with_rank(archive, RANK_ARCHIVE),
                history: RwLock::with_rank(history, RANK_HISTORY),
                predcache: RwLock::with_rank(predcache, RANK_PREDCACHE),
                samplecache: RwLock::with_rank(samplecache, RANK_SAMPLECACHE),
                setting: RwLock::with_rank(setting, RANK_SETTING),
                clock: AtomicU64::new(clock),
                rng_source: Mutex::new(rng),
                sessions: AtomicU64::new(0),
                cost,
                defaults,
                runstats_opts,
                batch_executor: AtomicBool::new(batch_executor),
                data_skipping: AtomicBool::new(data_skipping),
                profiling: AtomicBool::new(profiling),
                counters: EngineCounters::default(),
                obs,
                fault: Mutex::new(fault),
                wal: RwLock::with_rank(wal, RANK_WAL),
                checkpoint_every: AtomicU64::new(checkpoint_every),
                recovery,
            }),
        }
    }

    /// Folds the entire shared state into a new checkpoint segment and
    /// truncates the log. Returns the covered LSN, or `None` for an
    /// in-memory database.
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        let mut w = 0u64;
        self.shared.checkpoint(&mut w)
    }

    /// Sets the automatic checkpoint cadence (records since the last
    /// checkpoint; 0 disables the automatic trigger).
    pub fn set_checkpoint_every(&self, every: u64) {
        self.shared.checkpoint_every.store(every, Ordering::SeqCst);
    }

    /// What recovery did when this database was opened (all zeros for a
    /// fresh or in-memory database).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.shared.recovery.clone()
    }

    /// Whether a WAL is attached (durable mode).
    pub fn is_durable(&self) -> bool {
        let mut w = 0u64;
        timed_read(&self.shared.wal, &self.shared.counters, &mut w).is_some()
    }

    /// Installs the deterministic fault-injection plane for every session
    /// (see [`Database::set_fault_plane`]). Takes effect at each session's
    /// next statement.
    pub fn set_fault_plane(&self, fault: FaultPlane) {
        *self.shared.fault.lock() = fault;
    }

    /// Selects the executor for every session's subsequent SELECTs (see
    /// [`Database::set_batch_executor`]); lock-free, takes effect at each
    /// session's next statement.
    pub fn set_batch_executor(&self, on: bool) {
        self.shared
            .set_flag_logged(&self.shared.batch_executor, "batch_executor", on);
    }

    /// Whether SELECTs run on the vectorized batch executor.
    pub fn batch_executor(&self) -> bool {
        self.shared.batch_executor.load(Ordering::SeqCst)
    }

    /// Enables or disables physical block skipping in pruned scans for
    /// every session (see [`Database::set_data_skipping`]); lock-free,
    /// takes effect at each session's next statement.
    pub fn set_data_skipping(&self, on: bool) {
        self.shared
            .set_flag_logged(&self.shared.data_skipping, "data_skipping", on);
    }

    /// Whether pruned scans physically skip pruned blocks.
    pub fn data_skipping(&self) -> bool {
        self.shared.data_skipping.load(Ordering::SeqCst)
    }

    /// Enables or disables per-operator profiling for every session (see
    /// [`Database::set_profiling`]); lock-free, takes effect at each
    /// session's next statement.
    pub fn set_profiling(&self, on: bool) {
        self.shared
            .set_flag_logged(&self.shared.profiling, "profiling", on);
    }

    /// Whether per-operator profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.shared.profiling.load(Ordering::SeqCst)
    }

    /// Opens a new session. The first session continues the master RNG
    /// stream verbatim (single-session replay parity with [`Database`]);
    /// every later session forks an independent stream.
    pub fn session(&self) -> Session {
        let id = self.shared.sessions.fetch_add(1, Ordering::SeqCst);
        let rng = {
            let mut src = self.shared.rng_source.lock();
            if id == 0 {
                src.clone()
            } else {
                src.fork()
            }
        };
        Session {
            shared: Arc::clone(&self.shared),
            rng,
            id,
        }
    }

    /// Selects the statistics setting for subsequent statements (all
    /// sessions). Accumulated statistics survive, as on [`Database`].
    pub fn set_setting(&self, setting: StatsSetting) {
        let mut w = 0u64;
        self.shared.wal_append_lossy(
            &WalRecord::SetSetting {
                payload: persist::encode_setting(&setting),
            },
            &mut w,
        );
        if let StatsSetting::Jits(cfg) = &setting {
            let mut archive = timed_write(&self.shared.archive, &self.shared.counters, &mut w);
            archive.set_limits(cfg.archive_bucket_budget, cfg.eviction_uniformity);
            let mut predcache = timed_write(&self.shared.predcache, &self.shared.counters, &mut w);
            predcache.set_capacity(cfg.predicate_cache_capacity);
            if !cfg.sample_cache {
                timed_write(&self.shared.samplecache, &self.shared.counters, &mut w).clear();
            }
        }
        *timed_write(&self.shared.setting, &self.shared.counters, &mut w) = setting;
    }

    // ---- DDL and bulk loading (admin path; narrow write locks) -----------

    /// Creates a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        let mut w = 0u64;
        let mut catalog = timed_write(&self.shared.catalog, &self.shared.counters, &mut w);
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        // append under the write guards (wal is rank 8, above them): log
        // order matches mutation order, and a failed append aborts before
        // any in-memory mutation
        self.shared.wal_append(
            &WalRecord::CreateTable {
                name: name.to_string(),
                schema: schema.clone(),
            },
            &mut w,
        )?;
        let id = catalog.register_table(name, schema.clone())?;
        debug_assert_eq!(id.index(), tables.len());
        tables.push(Table::new(name, schema));
        Ok(id)
    }

    /// Creates a secondary index.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut w = 0u64;
        let mut catalog = timed_write(&self.shared.catalog, &self.shared.counters, &mut w);
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        self.shared.wal_append(
            &WalRecord::CreateIndex {
                table: table.to_string(),
                column: column.to_string(),
            },
            &mut w,
        )?;
        let tid = catalog.require(table)?;
        let col = catalog
            .table(tid)
            .ok_or_else(|| JitsError::internal(format!("catalog entry missing for {tid:?}")))?
            .schema
            .require_column(column)?;
        tables[tid.index()].create_index(col)?;
        catalog.add_index(tid, col)
    }

    /// Declares a primary key (also builds its index).
    pub fn set_primary_key(&self, table: &str, column: &str) -> Result<()> {
        let mut w = 0u64;
        let mut catalog = timed_write(&self.shared.catalog, &self.shared.counters, &mut w);
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        self.shared.wal_append(
            &WalRecord::SetPrimaryKey {
                table: table.to_string(),
                column: column.to_string(),
            },
            &mut w,
        )?;
        let tid = catalog.require(table)?;
        let col = catalog
            .table(tid)
            .ok_or_else(|| JitsError::internal(format!("catalog entry missing for {tid:?}")))?
            .schema
            .require_column(column)?;
        catalog.set_primary_key(tid, col)?;
        tables[tid.index()].create_index(col)?;
        catalog.add_index(tid, col)
    }

    /// Bulk-loads rows (bypasses SQL parsing; used by data generators).
    pub fn load_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let mut w = 0u64;
        let tid = {
            let catalog = timed_read(&self.shared.catalog, &self.shared.counters, &mut w);
            catalog.require(table)?
        };
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        // encode into the record, append, then take the rows back — the
        // append borrows them, so bulk loads cost no extra copy
        let rec = WalRecord::LoadRows {
            table: table.to_string(),
            rows,
        };
        self.shared.wal_append(&rec, &mut w)?;
        let WalRecord::LoadRows { rows, .. } = rec else {
            // jits-lint: allow(panic-surface) -- variant constructed above
            unreachable!("constructed two lines up")
        };
        let t = &mut tables[tid.index()];
        let n = rows.len();
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }

    /// Resets a table's UDI counter (bulk loads are initial state, not
    /// churn).
    pub fn reset_udi(&self, id: TableId) {
        let mut w = 0u64;
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        self.shared
            .wal_append_lossy(&WalRecord::ResetUdi { table: id.0 }, &mut w);
        if let Some(t) = tables.get_mut(id.index()) {
            t.reset_udi();
        }
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        let mut w = 0u64;
        timed_read(&self.shared.catalog, &self.shared.counters, &mut w).resolve(name)
    }

    // ---- statistics management -------------------------------------------

    /// Runs RUNSTATS over every table (see [`Database::runstats_all`]).
    pub fn runstats_all(&self) -> Result<()> {
        let mut w = 0u64;
        self.shared.wal_append(&WalRecord::RunstatsAll, &mut w)?;
        let clock = self.shared.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut catalog = timed_write(&self.shared.catalog, &self.shared.counters, &mut w);
        let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut w);
        for tid in 0..tables.len() {
            let (ts, cs) = runstats(&tables[tid], self.shared.runstats_opts, clock);
            catalog.set_stats(TableId(tid as u32), ts, cs)?;
            tables[tid].reset_udi();
        }
        Ok(())
    }

    /// Migrates one-dimensional QSS histograms into the catalog.
    pub fn migrate_statistics(&self) -> usize {
        let mut w = 0u64;
        self.shared
            .wal_append_lossy(&WalRecord::MigrateStats, &mut w);
        let clock = self.shared.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut catalog = timed_write(&self.shared.catalog, &self.shared.counters, &mut w);
        let archive = timed_read(&self.shared.archive, &self.shared.counters, &mut w);
        jits::migrate::migrate(&archive, &mut catalog, clock)
    }

    /// Drops catalog statistics, the archive, and the history.
    pub fn clear_statistics(&self) {
        let mut w = 0u64;
        self.shared
            .wal_append_lossy(&WalRecord::ClearStats, &mut w);
        timed_write(&self.shared.catalog, &self.shared.counters, &mut w).clear_stats();
        timed_write(&self.shared.archive, &self.shared.counters, &mut w).clear();
        timed_write(&self.shared.history, &self.shared.counters, &mut w).clear();
        timed_write(&self.shared.predcache, &self.shared.counters, &mut w).clear();
        timed_write(&self.shared.samplecache, &self.shared.counters, &mut w).clear();
    }

    // ---- observation ------------------------------------------------------

    /// The logical clock (statements executed so far).
    pub fn clock(&self) -> u64 {
        self.shared.clock.load(Ordering::SeqCst)
    }

    /// Point-in-time copy of the engine-wide concurrency counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.shared.counters.snapshot()
    }

    /// The observability state: tracer, metrics registry, and query log
    /// (shared by every session).
    pub fn obs(&self) -> &Arc<Observability> {
        &self.shared.obs
    }

    /// Exports the metrics registry as JSON, after mirroring the engine
    /// counters and archive gauges into it. Pass `include_volatile =
    /// false` for the deterministic subset, which is byte-identical for
    /// equal workloads and seeds at any `collect_threads`.
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        self.sync_observability();
        self.shared.obs.metrics_json(include_volatile)
    }

    /// Exports the metrics registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.sync_observability();
        self.shared.obs.metrics_prometheus(true)
    }

    /// Mirrors point-in-time engine state (counters, archive size) into
    /// the registry so exports are coherent.
    fn sync_observability(&self) {
        observe::sync_engine_counters(&self.shared.obs, &self.shared.counters.snapshot());
        let mut w = 0u64;
        let archive = timed_read(&self.shared.archive, &self.shared.counters, &mut w);
        observe::note_archive_gauges(&self.shared.obs, &archive);
    }

    /// Runs `f` under a read guard on the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.catalog,
            &self.shared.counters,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the storage tables.
    pub fn with_tables<R>(&self, f: impl FnOnce(&[Table]) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.tables,
            &self.shared.counters,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the QSS archive.
    pub fn with_archive<R>(&self, f: impl FnOnce(&QssArchive) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.archive,
            &self.shared.counters,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the StatHistory.
    pub fn with_history<R>(&self, f: impl FnOnce(&StatHistory) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.history,
            &self.shared.counters,
            &mut w,
        ))
    }
}

impl Session {
    /// This session's id (0 for the first session opened).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Parses, optimizes and executes one SQL statement. Mirrors
    /// [`Database::execute`] statement-for-statement, but against shared
    /// state under the module's lock discipline.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let t0 = now_nanos();
        let mut waited = 0u64;
        self.shared
            .counters
            .statements
            .fetch_add(1, Ordering::Relaxed);
        let stmt = parse(sql)?;
        if let Some(rows) = self.system_view_rows(&stmt, &mut waited) {
            return Ok(QueryResult {
                metrics: QueryMetrics {
                    compile_wall: wall_since(t0),
                    result_rows: rows.len(),
                    lock_wait: Duration::from_nanos(waited),
                    ..QueryMetrics::default()
                },
                rows,
            });
        }
        // checkpoint first so the statement lands in the fresh log
        // generation, then log it before binding (statement-level logical
        // WAL: even failed statements replay to the same failure)
        self.shared.maybe_checkpoint(&mut waited)?;
        self.shared.wal_append(
            &WalRecord::Statement {
                sql: sql.to_string(),
            },
            &mut waited,
        )?;
        let bound = {
            let catalog = timed_read(&self.shared.catalog, &self.shared.counters, &mut waited);
            bind_statement(&stmt, &catalog)?
        };
        match bound {
            BoundStatement::Select(block) => self.run_select(block, t0, waited, sql),
            BoundStatement::Explain(block) => {
                let clock = self.shared.clock.fetch_add(1, Ordering::SeqCst) + 1;
                let setting =
                    timed_read(&self.shared.setting, &self.shared.counters, &mut waited).clone();
                let (collected, _, _, _, _) = self.compile_phase(
                    &block,
                    &setting,
                    clock,
                    &mut waited,
                    &mut TraceBuilder::off(),
                    &mut QueryMetrics::default(),
                );
                let plan = self.plan_for(&block, &collected, &setting, clock, &mut waited)?;
                let metrics = QueryMetrics {
                    compile_wall: wall_since(t0),
                    compile_work: collected.work,
                    plan: Some(PlanSummary::from(&plan)),
                    collect_threads: collected.collect_threads,
                    lock_wait: Duration::from_nanos(waited),
                    ..QueryMetrics::default()
                };
                let rows = plan
                    .explain()
                    .lines()
                    .map(|l| vec![Value::str(l)])
                    .collect();
                Ok(QueryResult { rows, metrics })
            }
            BoundStatement::Insert(ins) => self.run_insert(ins, t0, waited),
            BoundStatement::Update(upd) => self.run_update(upd, t0, waited, sql),
            BoundStatement::Delete(del) => self.run_delete(del, t0, waited, sql),
        }
    }

    /// Compiles a query and renders its plan (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let mut waited = 0u64;
        let stmt = parse(sql)?;
        // logged like a statement: EXPLAIN compiles, which mutates the
        // statistics plane (clock, archive touches, sample draws)
        self.shared.maybe_checkpoint(&mut waited)?;
        self.shared.wal_append(
            &WalRecord::Explain {
                sql: sql.to_string(),
            },
            &mut waited,
        )?;
        let bound = {
            let catalog = timed_read(&self.shared.catalog, &self.shared.counters, &mut waited);
            bind_statement(&stmt, &catalog)?
        };
        let (BoundStatement::Select(block) | BoundStatement::Explain(block)) = bound else {
            return Err(JitsError::Plan("EXPLAIN supports SELECT only".into()));
        };
        let clock = self.shared.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let setting = timed_read(&self.shared.setting, &self.shared.counters, &mut waited).clone();
        let (collected, _, _, _, _) = self.compile_phase(
            &block,
            &setting,
            clock,
            &mut waited,
            &mut TraceBuilder::off(),
            &mut QueryMetrics::default(),
        );
        let plan = self.plan_for(&block, &collected, &setting, clock, &mut waited)?;
        Ok(plan.explain())
    }

    /// Replays the JITS compile-phase decisions for `sql` against a
    /// consistent snapshot of the shared state, without executing,
    /// bumping the clock, or drawing from this session's sampling RNG
    /// (the locked counterpart of [`Database::explain_jits`]).
    pub fn explain_jits(&self, sql: &str) -> Result<JitsExplain> {
        let mut waited = 0u64;
        let sh = &self.shared;
        let stmt = parse(sql)?;
        // guards in rank order; all reads, held together for a coherent
        // snapshot of the decision inputs
        let catalog = timed_read(&sh.catalog, &sh.counters, &mut waited);
        let (BoundStatement::Select(block) | BoundStatement::Explain(block)) =
            bind_statement(&stmt, &catalog)?
        else {
            return Err(JitsError::Plan("EXPLAIN JITS supports SELECT only".into()));
        };
        let tables = timed_read(&sh.tables, &sh.counters, &mut waited);
        let archive = timed_read(&sh.archive, &sh.counters, &mut waited);
        let history = timed_read(&sh.history, &sh.counters, &mut waited);
        let predcache = timed_read(&sh.predcache, &sh.counters, &mut waited);
        let setting = timed_read(&sh.setting, &sh.counters, &mut waited).clone();
        Ok(explain_block(
            sql,
            &block,
            &setting,
            &catalog,
            &tables,
            &archive,
            &history,
            &predcache,
            &observe::qerror_feedback(&sh.obs, &catalog),
        ))
    }

    /// Executes `sql` with profiling forced on and renders the per-operator
    /// profile tree (the locked counterpart of
    /// [`Database::explain_analyze`]). The statement's own profile is
    /// rendered — never another session's — because the profile rides on
    /// the returned metrics, not on the shared flight ring.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        // flips route through the logged setter so a durable log replays
        // the same profiling state around the statement
        let was = self.shared.profiling.load(Ordering::SeqCst);
        self.shared
            .set_flag_logged(&self.shared.profiling, "profiling", true);
        let result = self.execute(sql);
        self.shared
            .set_flag_logged(&self.shared.profiling, "profiling", was);
        let profile = result?.metrics.profile.ok_or_else(|| {
            JitsError::Plan("EXPLAIN ANALYZE supports SELECT, UPDATE and DELETE only".into())
        })?;
        Ok(render_profile(&profile))
    }

    /// Answers a `SELECT` from one of the virtual system views, unless a
    /// user table shadows the name.
    fn system_view_rows(
        &self,
        stmt: &jits_query::Statement,
        waited: &mut u64,
    ) -> Option<Vec<Vec<Value>>> {
        let view = views::system_view_name(stmt)?;
        let sh = &self.shared;
        {
            let catalog = timed_read(&sh.catalog, &sh.counters, waited);
            if catalog.resolve(view).is_some() {
                return None;
            }
        }
        Some(match view {
            views::VIEW_ARCHIVE_STATS => {
                let archive = timed_read(&sh.archive, &sh.counters, waited);
                views::archive_stats_rows(&archive)
            }
            views::VIEW_TABLE_SCORES => views::table_scores_rows(&sh.obs),
            views::VIEW_SAMPLE_CACHE => {
                let catalog = timed_read(&sh.catalog, &sh.counters, waited);
                let samplecache = timed_read(&sh.samplecache, &sh.counters, waited);
                views::sample_cache_rows(&samplecache, &catalog)
            }
            views::VIEW_DEGRADATION => views::degradation_rows(&sh.obs),
            views::VIEW_PROFILE => views::profile_rows(&sh.obs),
            views::VIEW_FLIGHT => views::flight_rows(&sh.obs),
            views::VIEW_ACCESS_PATHS => views::access_paths_rows(&sh.obs),
            _ => views::query_log_rows(&sh.obs),
        })
    }

    fn run_select(
        &mut self,
        block: QueryBlock,
        t0: u64,
        mut waited: u64,
        sql: &str,
    ) -> Result<QueryResult> {
        let sh = Arc::clone(&self.shared);
        let clock = sh.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut tb = sh.obs.tracer.start(sql, clock, self.id);
        tb.begin("parse_bind");
        tb.end(now_nanos().saturating_sub(t0));
        let setting = timed_read(&sh.setting, &sh.counters, &mut waited).clone();
        let cfg = setting.jits_config().cloned().unwrap_or_default();
        let mut metrics = QueryMetrics::default();

        // -- JITS compile-time pipeline --
        let (collected, sampled, materialized, scores, walls) =
            self.compile_phase(&block, &setting, clock, &mut waited, &mut tb, &mut metrics);
        metrics.set_stage_walls(walls);
        metrics.compile_work = collected.work;
        metrics.sampled_tables = sampled;
        metrics.materialized_groups = materialized;
        metrics.table_scores = scores;
        metrics.collect_threads = collected.collect_threads;

        // -- optimize --
        tb.begin("optimize");
        let topt = now_nanos();
        let plan = self.plan_for(&block, &collected, &setting, clock, &mut waited)?;
        let plan_nanos = now_nanos().saturating_sub(topt);
        tb.end(plan_nanos);
        metrics.plan = Some(PlanSummary::from(&plan));
        metrics.compile_wall = wall_since(t0);

        // -- execute --
        tb.begin("execute");
        let t1 = now_nanos();
        let batch_exec = sh.batch_executor.load(Ordering::SeqCst);
        let kind = if batch_exec {
            ExecutorKind::Batch
        } else {
            ExecutorKind::Row
        };
        let skipping = sh.data_skipping.load(Ordering::SeqCst);
        let out = {
            let tables = timed_read(&sh.tables, &sh.counters, &mut waited);
            execute_with_opts(
                kind,
                &plan,
                &block,
                &tables,
                &sh.cost,
                ExecOptions {
                    data_skipping: skipping,
                },
            )?
        };
        metrics.exec_wall = wall_since(t1);
        let exec_nanos = metrics.exec_wall.as_nanos() as u64;
        tb.end(exec_nanos);
        metrics.exec_work = out.stats.work;
        metrics.result_rows = out.rows.len();
        metrics.batch_executor = batch_exec;
        observe::note_executor(&sh.obs, batch_exec);
        observe::note_access_paths(&sh.obs, &out.stats);

        // -- profile (estimation-quality observatory) --
        if sh.profiling.load(Ordering::SeqCst) {
            let profile = {
                let catalog = timed_read(&sh.catalog, &sh.counters, &mut waited);
                build_profile(
                    &plan,
                    &out.stats,
                    &catalog,
                    &ProfileContext {
                        clock,
                        session: self.id,
                        sql,
                        batch_executor: batch_exec,
                        result_rows: out.rows.len(),
                        degraded: metrics.degraded,
                        exec_wall_nanos: exec_nanos,
                    },
                )
            };
            observe::note_profile(&sh.obs, &profile, cfg.qerror_threshold);
            metrics.profile = Some(profile);
        }
        observe::note_stage_latencies(
            &sh.obs,
            plan_nanos,
            metrics.collect_wall.as_nanos() as u64,
            exec_nanos,
        );

        // -- feedback (LEO) --
        tb.begin("feedback");
        let tf = now_nanos();
        {
            let catalog = timed_read(&sh.catalog, &sh.counters, &mut waited);
            let mut archive = timed_write(&sh.archive, &sh.counters, &mut waited);
            let mut history = timed_write(&sh.history, &sh.counters, &mut waited);
            ingest(
                &block,
                &out.stats.scans,
                &mut history,
                &mut archive,
                &catalog,
                &cfg,
                clock,
            );
        }
        observe::note_feedback(&sh.obs, &mut tb, out.stats.scans.len());
        tb.end(now_nanos().saturating_sub(tf));

        // -- periodic statistics migration (paper Figure 1) --
        if matches!(setting, StatsSetting::Jits(_))
            && cfg.migrate_every > 0
            && clock.is_multiple_of(cfg.migrate_every)
        {
            let mut catalog = timed_write(&sh.catalog, &sh.counters, &mut waited);
            let archive = timed_read(&sh.archive, &sh.counters, &mut waited);
            jits::migrate::migrate(&archive, &mut catalog, clock);
        }

        metrics.lock_wait = Duration::from_nanos(waited);
        observe::note_statement(
            &sh.obs,
            QueryLogEntry {
                clock,
                session: self.id,
                sql: sql.to_string(),
                result_rows: metrics.result_rows,
                compile_nanos: metrics.compile_wall.as_nanos() as u64,
                exec_nanos: metrics.exec_wall.as_nanos() as u64,
                sampled_tables: sampled,
            },
        );
        sh.obs.tracer.finish(tb, now_nanos().saturating_sub(t0));
        Ok(QueryResult {
            rows: out.rows,
            metrics,
        })
    }

    /// Runs query analysis, sensitivity analysis, sampling and archive
    /// materialization under read guards, with two narrow write windows
    /// (UDI reset, materialization). Returns the fresh statistics, the
    /// sampled-table count, the materialized-group count, the scores,
    /// and the per-stage wall times (which also decorate `tb`'s spans).
    fn compile_phase(
        &mut self,
        block: &QueryBlock,
        setting: &StatsSetting,
        clock: u64,
        waited: &mut u64,
        tb: &mut TraceBuilder,
        metrics: &mut QueryMetrics,
    ) -> (
        CollectedStats,
        usize,
        usize,
        Vec<jits::TableScore>,
        StageWalls,
    ) {
        // Snapshot the fault plane before any ranked lock is taken (the
        // handle is an Arc clone; decisions stay pure functions of the
        // plane's seed and the statement clock).
        let fault = self.shared.fault.lock().clone();
        let mut walls = StageWalls::default();
        let StatsSetting::Jits(cfg) = setting.clone() else {
            return (CollectedStats::default(), 0, 0, Vec::new(), walls);
        };
        if cfg.never_collects() {
            return (CollectedStats::default(), 0, 0, Vec::new(), walls);
        }

        // -- query analysis (Algorithm 1; no locks needed) --
        tb.begin("analyze");
        let t = now_nanos();
        let candidates = query_analysis(block, cfg.max_group_enumeration);
        walls.analyze = wall_since(t);
        let sh = &self.shared;
        observe::note_analysis(&sh.obs, tb, block.quns.len(), candidates.len());
        tb.end(walls.analyze.as_nanos() as u64);

        let (sample_quns, materialize, table_scores, collected) = {
            let catalog = timed_read(&sh.catalog, &sh.counters, waited);
            let tables = timed_read(&sh.tables, &sh.counters, waited);
            let archive = timed_read(&sh.archive, &sh.counters, waited);
            let history = timed_read(&sh.history, &sh.counters, waited);

            // -- sensitivity analysis (Algorithms 2-4) --
            tb.begin("sensitivity");
            let t = now_nanos();
            let (sample_quns, materialize, table_scores, extra_work, mat_log) = match &cfg.strategy
            {
                SensitivityStrategy::PaperHeuristic => {
                    let predcache = timed_read(&sh.predcache, &sh.counters, waited);
                    // history.read fault: degrade to an empty StatHistory,
                    // biasing sensitivity toward collecting (see the
                    // single-owner path in `database.rs`).
                    let (history_ok, _) = fault.retry(FP_HISTORY_READ, clock);
                    let empty_history = (!history_ok).then(StatHistory::new);
                    if !history_ok {
                        observe::note_degradation(
                            &sh.obs,
                            tb,
                            metrics,
                            clock,
                            String::new(),
                            FP_HISTORY_READ,
                            "empty_history",
                        );
                    }
                    let decision = sensitivity_analysis_with_feedback(
                        block,
                        &candidates,
                        empty_history.as_ref().unwrap_or(&history),
                        &archive,
                        &predcache,
                        &catalog,
                        &tables,
                        &cfg,
                        &observe::qerror_feedback(&sh.obs, &catalog),
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
                    let outcome = jits::epsilon::epsilon_sensitivity_default(
                        block, &archive, &catalog, &tables, &sh.cost, eps,
                    )
                    .unwrap_or(jits::EpsilonOutcome {
                        sample_quns: Vec::new(),
                        optimizer_calls: 0,
                        final_gap: 0.0,
                    });
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
            observe::note_sensitivity(&sh.obs, tb, &catalog, &table_scores, &mat_log, &cfg, clock);
            tb.end(walls.sensitivity.as_nanos() as u64);

            // -- statistics collection (sampling) --
            tb.begin("collect");
            let t = now_nanos();
            let clock_fn: Option<&(dyn Fn() -> u64 + Sync)> = if tb.enabled() {
                Some(&jits_obs::clock::now_nanos)
            } else {
                None
            };
            // Phase A: resolve each quantifier's sample source under a short
            // samplecache write window (rank 6, legal above the held reads).
            let (sources, draw_meta, cache_before) = {
                let mut samplecache = timed_write(&sh.samplecache, &sh.counters, waited);
                let before = samplecache.counters();
                let (sources, draw_meta) =
                    resolve_sample_sources(&mut samplecache, block, &sample_quns, &tables, &cfg);
                (sources, draw_meta, before)
            };
            // Phase B: collect with no cache lock held.
            let (mut collected, timings, drawn) = collect_for_tables_sourced(
                block,
                &sample_quns,
                &candidates,
                &tables,
                cfg.sample,
                &mut self.rng,
                cfg.collect_threads,
                clock_fn,
                &sources,
                cfg.collect_budget,
                &fault,
                clock,
            );
            // The master session carries the checkpoint-visible RNG stream:
            // publish the advanced state so a later fuzzy checkpoint
            // snapshots the draws just consumed. Forked streams (sessions
            // after the first) are not recoverable through single-stream
            // replay and are intentionally not published.
            if self.id == 0 {
                *self.shared.rng_source.lock() = self.rng.clone();
            }
            for d in &collected.degraded {
                let table = observe::table_name(&catalog, d.table);
                observe::note_degradation(
                    &sh.obs,
                    tb,
                    metrics,
                    clock,
                    table,
                    d.fault_point,
                    d.fallback,
                );
            }
            // Phase C: commit freshly drawn samples for future queries. A
            // failed (post-retry) commit skips the memoization; the draw is
            // still used for this statement's statistics.
            let (commit_ok, _) = fault.retry(FP_SAMPLECACHE_COMMIT, clock);
            let cache_after = if commit_ok {
                let mut samplecache = timed_write(&sh.samplecache, &sh.counters, waited);
                commit_drawn_samples(&mut samplecache, &cfg, &drawn, &draw_meta);
                samplecache.counters()
            } else {
                observe::note_degradation(
                    &sh.obs,
                    tb,
                    metrics,
                    clock,
                    String::new(),
                    FP_SAMPLECACHE_COMMIT,
                    "skip_commit",
                );
                // still account the Phase A lookup outcomes
                timed_read(&sh.samplecache, &sh.counters, waited).counters()
            };
            collected.work += extra_work;
            walls.collect = wall_since(t);
            observe::note_collect(&sh.obs, tb, block, &catalog, &timings);
            observe::note_samplecache(&sh.obs, tb, cache_before, cache_after);
            tb.end(walls.collect.as_nanos() as u64);

            (sample_quns, materialize, table_scores, collected)
        };
        if collected.collect_threads > 1 {
            sh.counters
                .parallel_collections
                .fetch_add(1, Ordering::Relaxed);
        }
        sh.counters
            .tables_sampled
            .fetch_add(sample_quns.len() as u64, Ordering::Relaxed);
        if !sample_quns.is_empty() {
            let mut tables = timed_write(&sh.tables, &sh.counters, waited);
            for &qun in &sample_quns {
                let tid = block.quns[qun].table;
                tables[tid.index()].reset_udi();
            }
        }

        // -- archive materialization / max-entropy refinement --
        tb.begin("refine");
        let t = now_nanos();
        let mut materialized = 0usize;
        // With the fault plane enabled the write window also runs the
        // rebuild scan and checksum verification; disabled, neither can
        // have any effect (quarantines only originate from faults), so the
        // guard is skipped exactly as before.
        if !materialize.is_empty() || (fault.is_enabled() && !candidates.is_empty()) {
            // Candidate table names resolved up front: the catalog (rank 1)
            // must not be acquired under the archive guard (rank 3).
            let cand_tables: Vec<String> = {
                let catalog = timed_read(&sh.catalog, &sh.counters, waited);
                candidates
                    .iter()
                    .map(|c| observe::table_name(&catalog, block.quns[c.qun].table))
                    .collect()
            };
            let mut archive = timed_write(&sh.archive, &sh.counters, waited);
            let mut predcache = timed_write(&sh.predcache, &sh.counters, waited);
            // Quarantined groups rebuild on the next collection covering
            // them, regardless of the sensitivity verdict.
            let rebuilds: Vec<&jits::CandidateGroup> = candidates
                .iter()
                .filter(|c| {
                    archive.pending_rebuild(&c.colgroup)
                        && !materialize
                            .iter()
                            .any(|m| m.qun == c.qun && m.colgroup == c.colgroup)
                })
                .collect();
            for (i, cand) in materialize.iter().chain(rebuilds).enumerate() {
                let outcome = materialize_group_into(
                    block,
                    cand,
                    &collected,
                    clock,
                    &mut archive,
                    &mut predcache,
                );
                if !matches!(outcome, MaterializeOutcome::Skipped) {
                    materialized += 1;
                }
                observe::note_materialize_outcome(&sh.obs, tb, &cand.colgroup, &outcome);
                // archive.write fault: a torn write is detected (and
                // quarantined) by the verification pass below.
                let (write_ok, _) = fault.retry(FP_ARCHIVE_WRITE, fault_key(clock, i as u64));
                if !write_ok {
                    archive.corrupt_checksum(&cand.colgroup);
                }
            }
            // Verify every group the optimizer may read for this block: a
            // failed read or checksum mismatch quarantines the bucket set,
            // so planning falls back to default selectivities instead of
            // serving poisoned statistics.
            for (i, cand) in candidates.iter().enumerate() {
                if archive.histogram(&cand.colgroup).is_none() {
                    continue;
                }
                let (read_ok, _) = fault.retry(FP_ARCHIVE_READ, fault_key(clock, i as u64));
                if !read_ok || !archive.validate(&cand.colgroup) {
                    // flight-note the failing checksum pair *before*
                    // quarantine drops it, so --dump-flight shows exactly
                    // which group and which mismatch triggered the rebuild
                    sh.obs.flight.record(FlightEvent::Note {
                        clock,
                        label: "quarantine".to_string(),
                        detail: format!(
                            "group {:?}: stored checksum {:?} vs computed {:?} ({}); rebuild scheduled",
                            cand.colgroup,
                            archive.stored_checksum(&cand.colgroup),
                            archive.computed_checksum(&cand.colgroup),
                            if read_ok { "mismatch" } else { "read fault" },
                        ),
                    });
                    archive.quarantine(&cand.colgroup);
                    observe::note_degradation(
                        &sh.obs,
                        tb,
                        metrics,
                        clock,
                        cand_tables[i].clone(),
                        FP_ARCHIVE_READ,
                        "default_selectivity",
                    );
                }
            }
            observe::note_archive_gauges(&sh.obs, &archive);
        }
        walls.refine = wall_since(t);
        tb.end(walls.refine.as_nanos() as u64);

        (
            collected,
            sample_quns.len(),
            materialized,
            table_scores,
            walls,
        )
    }

    /// Optimizes a block under the given statistics setting (the locked
    /// counterpart of `Database::plan_for`).
    fn plan_for(
        &self,
        block: &QueryBlock,
        collected: &CollectedStats,
        setting: &StatsSetting,
        clock: u64,
        waited: &mut u64,
    ) -> Result<PhysicalPlan> {
        let sh = &self.shared;
        match setting {
            StatsSetting::NoStatistics => {
                let catalog = timed_read(&sh.catalog, &sh.counters, waited);
                let tables = timed_read(&sh.tables, &sh.counters, waited);
                let provider = PhysicalMetadataProvider { tables: &tables };
                let est = CardinalityEstimator::new(&provider, sh.defaults);
                optimize(block, &est, &sh.cost, &catalog)
            }
            StatsSetting::CatalogOnly => {
                let catalog = timed_read(&sh.catalog, &sh.counters, waited);
                let provider = CatalogStatisticsProvider::new(&catalog);
                let est = CardinalityEstimator::new(&provider, sh.defaults);
                optimize(block, &est, &sh.cost, &catalog)
            }
            StatsSetting::ArchiveReadOnly | StatsSetting::Jits(_) => {
                let cfg = setting.jits_config().cloned().unwrap_or_default();
                let (plan, used, used_cache) = {
                    let catalog = timed_read(&sh.catalog, &sh.counters, waited);
                    let tables = timed_read(&sh.tables, &sh.counters, waited);
                    let archive = timed_read(&sh.archive, &sh.counters, waited);
                    let predcache = timed_read(&sh.predcache, &sh.counters, waited);
                    let provider =
                        JitsStatisticsProvider::new(collected, &archive, &catalog, &tables)
                            .with_accuracy_gate(cfg.archive_accuracy_gate)
                            .with_predicate_cache(&predcache)
                            .with_superset_inference(cfg.infer_from_supersets);
                    let est = CardinalityEstimator::new(&provider, sh.defaults);
                    let plan = optimize(block, &est, &sh.cost, &catalog)?;
                    (
                        plan,
                        provider.take_used_archive_groups(),
                        provider.take_used_cache_entries(),
                    )
                };
                if !used.is_empty() {
                    let mut archive = timed_write(&sh.archive, &sh.counters, waited);
                    for g in used {
                        archive.touch(&g, clock);
                    }
                }
                if !used_cache.is_empty() {
                    let mut predcache = timed_write(&sh.predcache, &sh.counters, waited);
                    for (t, fp) in used_cache {
                        predcache.touch(t, &fp, clock);
                    }
                }
                Ok(plan)
            }
        }
    }

    fn run_insert(&mut self, ins: BoundInsert, t0: u64, mut waited: u64) -> Result<QueryResult> {
        self.shared.clock.fetch_add(1, Ordering::SeqCst);
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let n = ins.rows.len();
        {
            let mut tables = timed_write(&self.shared.tables, &self.shared.counters, &mut waited);
            let t = &mut tables[ins.table.index()];
            for row in ins.rows {
                t.insert(row)?;
            }
        }
        Ok(QueryResult {
            rows: Vec::new(),
            metrics: QueryMetrics {
                compile_wall,
                exec_wall: wall_since(t1),
                exec_work: n as f64,
                result_rows: n,
                lock_wait: Duration::from_nanos(waited),
                ..QueryMetrics::default()
            },
        })
    }

    fn run_update(
        &mut self,
        upd: BoundUpdate,
        t0: u64,
        mut waited: u64,
        sql: &str,
    ) -> Result<QueryResult> {
        let sh = &self.shared;
        let clock = sh.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let node = {
            let mut tables = timed_write(&sh.tables, &sh.counters, &mut waited);
            dml::update(&mut tables[upd.table.index()], &upd, &sh.cost)?
        };
        Ok(self.dml_result(node, clock, sql, compile_wall, t1, waited))
    }

    fn run_delete(
        &mut self,
        del: BoundDelete,
        t0: u64,
        mut waited: u64,
        sql: &str,
    ) -> Result<QueryResult> {
        let sh = &self.shared;
        let clock = sh.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let compile_wall = wall_since(t0);
        let t1 = now_nanos();
        let node = {
            let mut tables = timed_write(&sh.tables, &sh.counters, &mut waited);
            dml::delete(&mut tables[del.table.index()], &del, &sh.cost)
        };
        Ok(self.dml_result(node, clock, sql, compile_wall, t1, waited))
    }

    fn dml_result(
        &self,
        node: jits_obs::ProfileNodeRow,
        clock: u64,
        sql: &str,
        compile_wall: Duration,
        exec_start: u64,
        waited: u64,
    ) -> QueryResult {
        let sh = &self.shared;
        let ctx = DmlContext {
            clock,
            session: self.id,
            sql,
            profiling: sh.profiling.load(Ordering::SeqCst),
        };
        QueryResult {
            rows: Vec::new(),
            metrics: dml::finish(
                node,
                &ctx,
                &sh.obs,
                compile_wall,
                exec_start,
                Duration::from_nanos(waited),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits::JitsConfig;
    use jits_common::DataType;

    fn seed_shared(seed: u64) -> SharedDatabase {
        let db = SharedDatabase::new(seed);
        db.create_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        let rows = (0..1500i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                    Value::Int(1990 + i % 17),
                ]
            })
            .collect();
        db.load_rows("car", rows).unwrap();
        db
    }

    fn seed_database(seed: u64) -> Database {
        let mut db = Database::new(seed);
        db.create_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        let rows = (0..1500i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                    Value::Int(1990 + i % 17),
                ]
            })
            .collect();
        db.load_rows("car", rows).unwrap();
        db
    }

    const QUERIES: &[&str] = &[
        "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000",
        "SELECT id FROM car WHERE year > 1995",
        "SELECT id FROM car WHERE make = 'Honda' AND year > 1992",
    ];

    #[test]
    fn single_session_replays_database_exactly() {
        let mut db = seed_database(7);
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let shared = seed_shared(7);
        shared.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let mut s = shared.session();
        for sql in QUERIES.iter().chain(QUERIES.iter()) {
            let a = db.execute(sql).unwrap();
            let b = s.execute(sql).unwrap();
            assert_eq!(a.rows, b.rows, "{sql}");
            assert_eq!(a.metrics.sampled_tables, b.metrics.sampled_tables, "{sql}");
            assert_eq!(
                a.metrics.materialized_groups, b.metrics.materialized_groups,
                "{sql}"
            );
            assert_eq!(
                a.metrics.compile_work.to_bits(),
                b.metrics.compile_work.to_bits(),
                "{sql}"
            );
            let (pa, pb) = (a.metrics.plan.unwrap(), b.metrics.plan.unwrap());
            assert_eq!(pa.est_rows.to_bits(), pb.est_rows.to_bits(), "{sql}");
        }
        // the learned state converged identically too
        assert_eq!(db.clock(), shared.clock());
        let mut db_sel = db
            .archive()
            .iter()
            .map(|(g, _)| format!("{g:?}"))
            .collect::<Vec<_>>();
        let mut sh_sel =
            shared.with_archive(|a| a.iter().map(|(g, _)| format!("{g:?}")).collect::<Vec<_>>());
        db_sel.sort();
        sh_sel.sort();
        assert_eq!(db_sel, sh_sel);
    }

    #[test]
    fn concurrent_sessions_make_progress_and_stay_consistent() {
        let shared = seed_shared(11);
        shared.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let n_threads = 4;
        let per_thread = 12;
        let sessions: Vec<Session> = (0..n_threads).map(|_| shared.session()).collect();
        std::thread::scope(|scope| {
            for mut s in sessions {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let sql = QUERIES[i % QUERIES.len()];
                        let r = s.execute(sql).unwrap();
                        assert!(!r.rows.is_empty(), "{sql}");
                        if i % 5 == 4 {
                            s.execute("UPDATE car SET year = 2001 WHERE id = 3")
                                .unwrap();
                        }
                    }
                });
            }
        });
        let snap = shared.counters();
        let expected = (n_threads * per_thread) as u64 + (n_threads * (per_thread / 5)) as u64;
        assert_eq!(snap.statements, expected);
        assert_eq!(shared.clock(), expected);
        // the unmutated predicate still answers exactly
        let mut s = shared.session();
        let r = s
            .execute("SELECT id FROM car WHERE make = 'Toyota'")
            .unwrap();
        assert_eq!(r.rows.len(), 500);
    }

    #[test]
    fn blocked_acquisitions_are_charged() {
        let shared = seed_shared(3);
        let inner = Arc::clone(&shared.shared);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _guard = inner.tables.write();
            tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(30));
        });
        rx.recv().unwrap(); // writer certainly holds the lock now
        let mut s = shared.session();
        let r = s.execute("SELECT id FROM car WHERE year > 2004").unwrap();
        holder.join().unwrap();
        assert!(r.metrics.lock_wait > Duration::ZERO);
        let snap = shared.counters();
        assert!(snap.contended_acquisitions >= 1);
        assert!(snap.lock_wait > Duration::ZERO);
    }

    #[test]
    fn dml_and_ddl_through_shared_paths() {
        let shared = seed_shared(5);
        shared.runstats_all().unwrap();
        let mut s = shared.session();
        let r = s
            .execute("INSERT INTO car VALUES (9000, 'BMW', 2006)")
            .unwrap();
        assert_eq!(r.metrics.result_rows, 1);
        let r = s
            .execute("UPDATE car SET year = 2007 WHERE make = 'BMW'")
            .unwrap();
        assert_eq!(r.metrics.result_rows, 1);
        let r = s.execute("DELETE FROM car WHERE make = 'BMW'").unwrap();
        assert_eq!(r.metrics.result_rows, 1);
        let plan = s.explain("SELECT id FROM car WHERE year > 2000").unwrap();
        assert!(plan.contains("Scan"), "{plan}");
        assert!(s.execute("SELECT * FROM nosuch").is_err());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracker compiles out in release")]
    fn shared_database_locks_are_rank_tracked() {
        // Holding `tables` (rank 2) and then taking `catalog` (rank 1) on
        // the same thread must panic — proof the runtime validator guards
        // the real SharedDatabase locks, not just synthetic ones.
        let shared = seed_shared(1);
        let inner = Arc::clone(&shared.shared);
        let _tables = inner.tables.read();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _catalog = inner.catalog.read();
        }))
        .expect_err("catalog after tables must violate the rank order");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-rank violation"), "{msg}");
        assert!(msg.contains("catalog") && msg.contains("tables"), "{msg}");
        // in-order acquisition still works on this thread
        drop(_tables);
        let _catalog = inner.catalog.read();
        let _tables = inner.tables.read();
    }

    #[test]
    fn sessions_get_distinct_streams() {
        let shared = seed_shared(9);
        let a = shared.session();
        let b = shared.session();
        let c = shared.session();
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(c.id(), 2);
        let (mut ra, mut rb, mut rc) = (a.rng.clone(), b.rng.clone(), c.rng.clone());
        let (xa, xb, xc) = (ra.next_u64(), rb.next_u64(), rc.next_u64());
        assert_ne!(xa, xb);
        assert_ne!(xb, xc);
        assert_ne!(xa, xc);
    }
}

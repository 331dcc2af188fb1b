//! Concurrent query sessions over one shared database.
//!
//! [`SharedDatabase`] puts every component of the engine state — catalog,
//! storage tables, QSS archive, StatHistory, predicate cache, sample cache,
//! statistics setting — behind its own `parking_lot` lock, so that N
//! [`Session`]s on N threads can run [`Session::execute`] concurrently.
//! Sessions run the same statement pipeline as [`Database`]
//! (`pipeline.rs`); what differs is the store underneath, which
//! takes each bundle a phase needs as guards: shared reads for bind,
//! sensitivity analysis, sampling, planning and execution, narrow write
//! windows for DML, UDI reset, materialization, feedback and migration.
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
//! (The write-ahead log, rank 8, is always acquired last: DDL takes its
//! component guards first and appends while holding them, so log order
//! matches mutation order. The observability locks sit above the whole
//! engine — registry at rank 9, flight ring at rank 10 — and are therefore
//! usable from any point of the statement path, including under the WAL
//! guard.) A phase holds one bundle at a time (see `store.rs`), so
//! the order reduces to the order inside each bundle method below.
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
//! [`QueryMetrics::lock_wait`](crate::QueryMetrics::lock_wait).

use crate::database::Owned;
use crate::explain::JitsExplain;
use crate::metrics::{CountersSnapshot, EngineCounters};
use crate::persist::{RecoveryReport, StateRefs};
use crate::pipeline::{self, QueryResult};
use crate::settings::StatsSetting;
use crate::store::{Admin, CacheWindow, Collect, EngineState, Env, Reads, Store, WalSlot};
use crate::{observe, Database};
use jits::{PredicateCache, QssArchive, StatHistory};
use jits_catalog::Catalog;
use jits_common::{FaultPlane, Result, Schema, SplitMix64, TableId, Value};
use jits_obs::clock::now_nanos;
use jits_obs::Observability;
use jits_storage::{SampleCache, Table};
use jits_wal::Wal;
use parking_lot::rank::LockRank;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
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
    env: Env,
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
    /// Master RNG: the first session and the admin calls draw from it
    /// (so checkpoints snapshot the live stream); later sessions fork
    /// independent streams from it. A plain mutex outside the ranked
    /// hierarchy, held only while a collection pass draws.
    rng_source: Mutex<SplitMix64>,
    /// Sessions handed out so far.
    sessions: AtomicU64,
    counters: EngineCounters,
    /// Deterministic fault-injection plane. Like `rng_source`, guarded by a
    /// plain mutex outside the ranked hierarchy: a statement clones the
    /// handle (an `Arc` bump) before taking any engine lock.
    fault: Mutex<FaultPlane>,
    /// Write-ahead log, `None` for in-memory databases (rank 8).
    wal: RwLock<Option<Wal>>,
    /// WAL records between automatic fuzzy checkpoints (0 disables the
    /// automatic trigger; explicit [`SharedDatabase::checkpoint`] still
    /// works).
    checkpoint_every: AtomicU64,
    /// What recovery did when this database was opened (all zeros for a
    /// fresh or in-memory database).
    recovery: RecoveryReport,
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

/// One thread's handle onto a [`SharedDatabase`]: executes statements
/// against the shared state, sampling from a private RNG stream (the first
/// session samples from the master stream).
pub struct Session {
    shared: Arc<Shared>,
    rng: Option<SplitMix64>,
    id: u64,
}

/// Reads a lock, charging any blocked time to the counters and the
/// statement's running wait tally (uncontended acquisitions cost nothing).
pub(crate) fn timed_read<'a, T: ?Sized>(
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
pub(crate) fn timed_write<'a, T: ?Sized>(
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

/// The [`Store`] one statement runs against on a shared database: every
/// bundle is a set of guards taken in rank order, and blocked time accrues
/// to `waited`.
struct Locked<'a> {
    sh: &'a Shared,
    /// A forked sampling stream; `None` draws from the master stream.
    rng: Option<&'a mut SplitMix64>,
    id: u64,
    waited: u64,
}

impl Store for Locked<'_> {
    fn session_id(&self) -> u64 {
        self.id
    }

    fn checkpoint_every(&self) -> u64 {
        self.sh.checkpoint_every.load(Ordering::SeqCst)
    }

    fn fault(&mut self) -> FaultPlane {
        self.sh.fault.lock().clone()
    }

    fn setting(&mut self) -> StatsSetting {
        timed_read(&self.sh.setting, &self.sh.counters, &mut self.waited).clone()
    }

    fn clock(&mut self) -> u64 {
        self.sh.clock.load(Ordering::SeqCst)
    }

    fn tick(&mut self) -> u64 {
        self.sh.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn lock_wait(&self) -> Duration {
        Duration::from_nanos(self.waited)
    }

    fn note_statement(&mut self) {
        self.sh.counters.statements.fetch_add(1, Ordering::Relaxed);
    }

    fn note_collection(&mut self, threads: usize, tables: usize) {
        let c = &self.sh.counters;
        if threads > 1 {
            c.parallel_collections.fetch_add(1, Ordering::Relaxed);
        }
        c.tables_sampled.fetch_add(tables as u64, Ordering::Relaxed);
    }

    fn with_catalog<R>(&mut self, f: impl FnOnce(&Catalog) -> R) -> R {
        let sh = self.sh;
        let catalog = timed_read(&sh.catalog, &sh.counters, &mut self.waited);
        f(&catalog)
    }

    fn with_tables<R>(&mut self, f: impl FnOnce(&[Table]) -> R) -> R {
        let sh = self.sh;
        let tables = timed_read(&sh.tables, &sh.counters, &mut self.waited);
        f(&tables)
    }

    fn with_reads<R>(&mut self, f: impl FnOnce(Reads<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let catalog = timed_read(&sh.catalog, &sh.counters, w);
        let tables = timed_read(&sh.tables, &sh.counters, w);
        let archive = timed_read(&sh.archive, &sh.counters, w);
        let history = timed_read(&sh.history, &sh.counters, w);
        let predcache = timed_read(&sh.predcache, &sh.counters, w);
        f(Reads {
            catalog: &catalog,
            tables: &tables,
            archive: &archive,
            history: &history,
            predcache: &predcache,
        })
    }

    fn with_collect<R>(&mut self, f: impl FnOnce(Reads<'_>, Collect<'_>) -> R) -> R {
        let Locked {
            sh, rng, waited, ..
        } = self;
        let sh: &Shared = sh;
        let catalog = timed_read(&sh.catalog, &sh.counters, waited);
        let tables = timed_read(&sh.tables, &sh.counters, waited);
        let archive = timed_read(&sh.archive, &sh.counters, waited);
        let history = timed_read(&sh.history, &sh.counters, waited);
        let predcache = timed_read(&sh.predcache, &sh.counters, waited);
        let mut master = None;
        let stream = match rng {
            Some(r) => &mut **r,
            None => &mut **master.insert(sh.rng_source.lock()),
        };
        f(
            Reads {
                catalog: &catalog,
                tables: &tables,
                archive: &archive,
                history: &history,
                predcache: &predcache,
            },
            Collect {
                samplecache: CacheWindow::Locked {
                    samplecache: &sh.samplecache,
                    counters: &sh.counters,
                    waited,
                },
                rng: stream,
            },
        )
    }

    fn with_views<R>(&mut self, f: impl FnOnce(&Catalog, &QssArchive, &SampleCache) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let catalog = timed_read(&sh.catalog, &sh.counters, w);
        let archive = timed_read(&sh.archive, &sh.counters, w);
        let samplecache = timed_read(&sh.samplecache, &sh.counters, w);
        f(&catalog, &archive, &samplecache)
    }

    fn with_tables_mut<R>(&mut self, f: impl FnOnce(&mut [Table]) -> R) -> R {
        let sh = self.sh;
        let mut tables = timed_write(&sh.tables, &sh.counters, &mut self.waited);
        f(&mut tables)
    }

    fn with_stats_mut<R>(
        &mut self,
        f: impl FnOnce(&mut QssArchive, &mut PredicateCache) -> R,
    ) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut archive = timed_write(&sh.archive, &sh.counters, w);
        let mut predcache = timed_write(&sh.predcache, &sh.counters, w);
        f(&mut archive, &mut predcache)
    }

    fn with_feedback<R>(
        &mut self,
        f: impl FnOnce(&Catalog, &mut QssArchive, &mut StatHistory) -> R,
    ) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let catalog = timed_read(&sh.catalog, &sh.counters, w);
        let mut archive = timed_write(&sh.archive, &sh.counters, w);
        let mut history = timed_write(&sh.history, &sh.counters, w);
        f(&catalog, &mut archive, &mut history)
    }

    fn with_migrate<R>(&mut self, f: impl FnOnce(&mut Catalog, &QssArchive) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut catalog = timed_write(&sh.catalog, &sh.counters, w);
        let archive = timed_read(&sh.archive, &sh.counters, w);
        f(&mut catalog, &archive)
    }

    fn with_ddl<R>(
        &mut self,
        f: impl FnOnce(&mut Catalog, &mut Vec<Table>, WalSlot<'_>) -> R,
    ) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let fault = sh.fault.lock().clone();
        let mut catalog = timed_write(&sh.catalog, &sh.counters, w);
        let mut tables = timed_write(&sh.tables, &sh.counters, w);
        let mut wal = timed_write(&sh.wal, &sh.counters, w);
        let slot = WalSlot {
            wal: wal.as_mut(),
            fault: &fault,
            clock: sh.clock.load(Ordering::SeqCst),
        };
        f(&mut catalog, &mut tables, slot)
    }

    fn with_admin<R>(&mut self, f: impl FnOnce(Admin<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut catalog = timed_write(&sh.catalog, &sh.counters, w);
        let mut archive = timed_write(&sh.archive, &sh.counters, w);
        let mut history = timed_write(&sh.history, &sh.counters, w);
        let mut predcache = timed_write(&sh.predcache, &sh.counters, w);
        let mut samplecache = timed_write(&sh.samplecache, &sh.counters, w);
        let mut setting = timed_write(&sh.setting, &sh.counters, w);
        f(Admin {
            catalog: &mut catalog,
            archive: &mut archive,
            history: &mut history,
            predcache: &mut predcache,
            samplecache: &mut samplecache,
            setting: &mut setting,
        })
    }

    fn with_wal<R>(&mut self, f: impl FnOnce(WalSlot<'_>) -> R) -> R {
        let sh = self.sh;
        let fault = sh.fault.lock().clone();
        let clock = sh.clock.load(Ordering::SeqCst);
        let mut wal = timed_write(&sh.wal, &sh.counters, &mut self.waited);
        f(WalSlot {
            wal: wal.as_mut(),
            fault: &fault,
            clock,
        })
    }

    fn with_snapshot<R>(&mut self, f: impl FnOnce(StateRefs<'_>, WalSlot<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        // un-ranked snapshots first, then guards in rank order 1..=8
        let fault = sh.fault.lock().clone();
        let rng_state = sh.rng_source.lock().state();
        let catalog = timed_read(&sh.catalog, &sh.counters, w);
        let tables = timed_read(&sh.tables, &sh.counters, w);
        let archive = timed_read(&sh.archive, &sh.counters, w);
        let history = timed_read(&sh.history, &sh.counters, w);
        let predcache = timed_read(&sh.predcache, &sh.counters, w);
        let samplecache = timed_read(&sh.samplecache, &sh.counters, w);
        let setting = timed_read(&sh.setting, &sh.counters, w);
        let mut wal = timed_write(&sh.wal, &sh.counters, w);
        let clock = sh.clock.load(Ordering::SeqCst);
        f(
            StateRefs {
                clock,
                rng_state,
                setting: &setting,
                catalog: &catalog,
                tables: &tables,
                archive: &archive,
                history: &history,
                predcache: &predcache,
                samplecache: &samplecache,
            },
            WalSlot {
                wal: wal.as_mut(),
                fault: &fault,
                clock,
            },
        )
    }
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
    pub fn open(seed: u64, dir: &Path) -> Result<SharedDatabase> {
        Ok(Database::open(seed, dir)?.into_shared())
    }

    /// Puts a single-owner database's state behind the locks.
    pub(crate) fn from_parts(env: Env, owned: Owned, recovery: RecoveryReport) -> Self {
        let Owned {
            state,
            fault,
            wal,
            checkpoint_every,
        } = owned;
        let EngineState {
            catalog,
            tables,
            archive,
            history,
            predcache,
            samplecache,
            setting,
            clock,
            rng,
        } = state;
        SharedDatabase {
            shared: Arc::new(Shared {
                env,
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
                counters: EngineCounters::default(),
                fault: Mutex::new(fault),
                wal: RwLock::with_rank(wal, RANK_WAL),
                checkpoint_every: AtomicU64::new(checkpoint_every),
                recovery,
            }),
        }
    }

    /// Runs one admin call of the pipeline. Admin calls belong to no
    /// session; the one that samples draws from the master stream.
    fn admin<R>(&self, f: impl FnOnce(&Env, &mut Locked<'_>) -> R) -> R {
        let sh = &*self.shared;
        f(
            &sh.env,
            &mut Locked {
                sh,
                rng: None,
                id: 0,
                waited: 0,
            },
        )
    }

    /// Folds the entire shared state into a new checkpoint segment and
    /// truncates the log. Returns the covered LSN, or `None` for an
    /// in-memory database.
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        self.admin(|env, s| pipeline::checkpoint(env, s))
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

    /// Opens a new session. The first session samples from the master RNG
    /// stream, as the admin calls do (single-session replay parity with
    /// [`Database`]); every later session forks an independent stream,
    /// which is not recoverable through single-stream replay.
    pub fn session(&self) -> Session {
        let id = self.shared.sessions.fetch_add(1, Ordering::SeqCst);
        let rng = (id > 0).then(|| self.shared.rng_source.lock().fork());
        Session {
            shared: Arc::clone(&self.shared),
            rng,
            id,
        }
    }

    /// Selects the statistics setting for subsequent statements (all
    /// sessions). Accumulated statistics survive, as on [`Database`].
    pub fn set_setting(&self, setting: StatsSetting) {
        self.admin(|env, s| pipeline::set_setting(env, s, setting))
    }

    // ---- DDL, bulk loading, statistics management -------------------------

    /// Creates a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.admin(|env, s| pipeline::create_table(env, s, name, schema))
    }

    /// Creates a secondary index.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        self.admin(|env, s| pipeline::create_index(env, s, table, column))
    }

    /// Declares a primary key (also builds its index).
    pub fn set_primary_key(&self, table: &str, column: &str) -> Result<()> {
        self.admin(|env, s| pipeline::set_primary_key(env, s, table, column))
    }

    /// Bulk-loads rows (bypasses SQL parsing; used by data generators).
    pub fn load_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.admin(|env, s| pipeline::load_rows(env, s, table, rows))
    }

    /// Resets a table's UDI counter (bulk loads are initial state, not
    /// churn).
    pub fn reset_udi(&self, id: TableId) {
        self.admin(|env, s| pipeline::reset_udi(env, s, id))
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.with_catalog(|c| c.resolve(name))
    }

    /// Runs RUNSTATS over every table (see [`Database::runstats_all`]).
    pub fn runstats_all(&self) -> Result<()> {
        self.admin(|env, s| pipeline::runstats_all(env, s))
    }

    /// Collects all candidate groups of a query into the archive (see
    /// [`Database::precollect_query_stats`]), drawing from the master
    /// sampling stream.
    pub fn precollect_query_stats(&self, sql: &str) -> Result<()> {
        self.admin(|env, s| pipeline::precollect_query_stats(env, s, sql))
    }

    /// Migrates one-dimensional QSS histograms into the catalog.
    pub fn migrate_statistics(&self) -> usize {
        self.admin(|env, s| pipeline::migrate_statistics(env, s))
    }

    /// Drops catalog statistics, the archive, and the history.
    pub fn clear_statistics(&self) {
        self.admin(|env, s| pipeline::clear_statistics(env, s))
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
        &self.shared.env.obs
    }

    /// Exports the metrics registry as JSON, after mirroring the engine
    /// counters and archive gauges into it. Pass `include_volatile =
    /// false` for the deterministic subset, which is byte-identical for
    /// equal workloads and seeds at any `collect_threads`.
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        self.sync_observability();
        self.obs().metrics_json(include_volatile)
    }

    /// Exports the metrics registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.sync_observability();
        self.obs().metrics_prometheus(true)
    }

    /// Mirrors point-in-time engine state (counters, archive size) into
    /// the registry so exports are coherent.
    fn sync_observability(&self) {
        observe::sync_engine_counters(self.obs(), &self.shared.counters.snapshot());
        self.with_archive(|archive| observe::note_archive_gauges(self.obs(), archive));
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

    /// The store this session's next statement runs against.
    fn store(&mut self) -> (&Env, Locked<'_>) {
        let sh = &*self.shared;
        (
            &sh.env,
            Locked {
                sh,
                rng: self.rng.as_mut(),
                id: self.id,
                waited: 0,
            },
        )
    }

    /// Parses, optimizes and executes one SQL statement (see
    /// [`Database::execute`]).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let (env, mut s) = self.store();
        pipeline::execute(env, &mut s, sql)
    }

    /// Compiles a query and renders its plan (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let (env, mut s) = self.store();
        pipeline::explain(env, &mut s, sql)
    }

    /// Replays the JITS compile-phase decisions for `sql` against a
    /// consistent snapshot of the shared state, without executing,
    /// bumping the clock, or drawing from this session's sampling RNG
    /// (see [`Database::explain_jits`]).
    pub fn explain_jits(&mut self, sql: &str) -> Result<JitsExplain> {
        let (env, mut s) = self.store();
        pipeline::explain_jits(env, &mut s, sql)
    }

    /// Executes `sql` and renders its per-operator profile tree (see
    /// [`Database::explain_analyze`]). The statement's own profile is
    /// rendered — never another session's.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let (env, mut s) = self.store();
        pipeline::explain_analyze(env, &mut s, sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(
            a.rng.is_none(),
            "the first session samples from the master stream"
        );
        let mut ra = shared.shared.rng_source.lock().clone();
        let (mut rb, mut rc) = (b.rng.clone().unwrap(), c.rng.clone().unwrap());
        let (xa, xb, xc) = (ra.next_u64(), rb.next_u64(), rc.next_u64());
        assert_ne!(xa, xb);
        assert_ne!(xb, xc);
        assert_ne!(xa, xc);
    }
}

//! Concurrent query sessions over one shared database.
//!
//! [`SharedDatabase`] keeps the engine state behind ranked locks in an
//! `Arc` (`store::Shared`), so that N [`Session`]s on N threads can run
//! [`Session::execute`] concurrently. Every statement — a session's, an
//! admin call's, or a single-owner [`Database`]'s, which lends its state
//! to session 0 of a stack `Shared` — runs the one pipeline (`pipeline.rs`)
//! over `store::Locked`: shared reads for bind, sensitivity analysis,
//! sampling, planning and execution, narrow write windows for DML, UDI
//! reset, materialization, feedback and migration, taken in the rank order
//! `store.rs` documents.
//!
//! # Determinism
//!
//! Each session carries its own `SplitMix64` sampling stream. Session 0
//! draws from the master stream, exactly where a [`Database`] converted by
//! [`Database::into_shared`] left it — the same stream the `Database`
//! itself draws from as session 0 — so a single-session `SharedDatabase`
//! run is bit-identical to the `Database` run it replaces. Later sessions
//! fork independent streams. Within any one statement, each marked table
//! draws from its own (table, quantifier) stream (see `jits::collect`), so
//! the statistics a statement collects replay bit for bit per seed.
//!
//! Every acquisition that actually blocks is charged to the volatile
//! registry counters `jits.engine.lock_wait_nanos` and
//! `jits.engine.contended_acquisitions`, and to the statement's
//! [`QueryMetrics::lock_wait`](crate::QueryMetrics::lock_wait).

use crate::explain::JitsExplain;
use crate::persist::RecoveryReport;
use crate::pipeline::{self, QueryResult};
use crate::settings::StatsSetting;
use crate::store::{timed_read, Locked, Shared};
use crate::{observe, Database};
use jits::{QssArchive, StatHistory};
use jits_catalog::Catalog;
use jits_common::{FaultPlane, Result, Schema, SplitMix64, TableId, Value};
use jits_obs::Observability;
use jits_storage::Table;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Sessions handed out so far.
    sessions: AtomicU64,
    /// What recovery did when this database was opened (all zeros for a
    /// fresh or in-memory database).
    recovery: RecoveryReport,
}

/// One thread's handle onto a [`SharedDatabase`]: executes statements
/// against the shared state, sampling from a private RNG stream (the first
/// session samples from the master stream).
pub struct Session {
    shared: Arc<Shared>,
    rng: Option<SplitMix64>,
    id: u64,
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

    /// Shares state a single-owner database put behind the locks.
    pub(crate) fn from_parts(shared: Shared, recovery: RecoveryReport) -> Self {
        SharedDatabase {
            shared: Arc::new(shared),
            sessions: AtomicU64::new(0),
            recovery,
        }
    }

    /// Runs one admin call of the pipeline. Admin calls belong to no
    /// session; the one that samples draws from the master stream.
    fn admin<R>(&self, f: impl FnOnce(&mut Locked<'_>) -> R) -> R {
        f(&mut Locked::new(&self.shared, None, 0))
    }

    /// Folds the entire shared state into a new checkpoint segment and
    /// truncates the log. Returns the covered LSN, or `None` for an
    /// in-memory database.
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        self.admin(pipeline::checkpoint)
    }

    /// Sets the automatic checkpoint cadence (records since the last
    /// checkpoint; 0 disables the automatic trigger).
    pub fn set_checkpoint_every(&self, every: u64) {
        self.shared.checkpoint_every.store(every, Ordering::SeqCst);
    }

    /// What recovery did when this database was opened (all zeros for a
    /// fresh or in-memory database).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery.clone()
    }

    /// Whether a WAL is attached (durable mode).
    pub fn is_durable(&self) -> bool {
        let mut w = 0u64;
        timed_read(&self.shared.wal, &self.shared.env.obs, &mut w).is_some()
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
        let id = self.sessions.fetch_add(1, Ordering::SeqCst);
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
        self.admin(|s| pipeline::set_setting(s, setting))
    }

    // ---- DDL, bulk loading, statistics management -------------------------

    /// Creates a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.admin(|s| pipeline::create_table(s, name, schema))
    }

    /// Creates a secondary index.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        self.admin(|s| pipeline::create_index(s, table, column))
    }

    /// Declares a primary key (also builds its index).
    pub fn set_primary_key(&self, table: &str, column: &str) -> Result<()> {
        self.admin(|s| pipeline::set_primary_key(s, table, column))
    }

    /// Bulk-loads rows (bypasses SQL parsing; used by data generators).
    pub fn load_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.admin(|s| pipeline::load_rows(s, table, rows))
    }

    /// Resets a table's UDI counter (bulk loads are initial state, not
    /// churn).
    pub fn reset_udi(&self, id: TableId) {
        self.admin(|s| pipeline::reset_udi(s, id))
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.with_catalog(|c| c.resolve(name))
    }

    /// Runs RUNSTATS over every table (see [`Database::runstats_all`]).
    pub fn runstats_all(&self) -> Result<()> {
        self.admin(pipeline::runstats_all)
    }

    /// Collects all candidate groups of a query into the archive (see
    /// [`Database::precollect_query_stats`]), drawing from the master
    /// sampling stream.
    pub fn precollect_query_stats(&self, sql: &str) -> Result<()> {
        self.admin(|s| pipeline::precollect_query_stats(s, sql))
    }

    /// Migrates one-dimensional QSS histograms into the catalog.
    pub fn migrate_statistics(&self) -> usize {
        self.admin(pipeline::migrate_statistics)
    }

    /// Drops catalog statistics, the archive, and the history.
    pub fn clear_statistics(&self) {
        self.admin(pipeline::clear_statistics)
    }

    // ---- observation ------------------------------------------------------

    /// The logical clock (statements executed so far).
    pub fn clock(&self) -> u64 {
        self.shared.clock.load(Ordering::SeqCst)
    }

    /// The observability state: metrics registry and the flight ring of
    /// statement records (shared by every session).
    pub fn obs(&self) -> &Arc<Observability> {
        &self.shared.env.obs
    }

    /// Exports the metrics registry as JSON, after mirroring the archive
    /// gauges into it. Pass `include_volatile =
    /// false` for the deterministic subset, which is byte-identical for
    /// equal workloads and seeds.
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        self.sync_observability();
        self.obs().metrics_json(include_volatile)
    }

    /// Exports the metrics registry in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.sync_observability();
        self.obs().metrics_prometheus(true)
    }

    /// Mirrors point-in-time archive size into the registry so exports are
    /// coherent.
    fn sync_observability(&self) {
        self.with_archive(|archive| observe::note_archive_gauges(self.obs(), archive));
    }

    /// Runs `f` under a read guard on the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.catalog,
            &self.shared.env.obs,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the storage tables.
    pub fn with_tables<R>(&self, f: impl FnOnce(&[Table]) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.tables,
            &self.shared.env.obs,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the QSS archive.
    pub fn with_archive<R>(&self, f: impl FnOnce(&QssArchive) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.archive,
            &self.shared.env.obs,
            &mut w,
        ))
    }

    /// Runs `f` under a read guard on the StatHistory.
    pub fn with_history<R>(&self, f: impl FnOnce(&StatHistory) -> R) -> R {
        let mut w = 0u64;
        f(&timed_read(
            &self.shared.history,
            &self.shared.env.obs,
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
    pub(crate) fn store(&mut self) -> Locked<'_> {
        Locked::new(&self.shared, self.rng.as_mut(), self.id)
    }

    /// Parses, optimizes and executes one SQL statement (see
    /// [`Database::execute`]).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        pipeline::execute(&mut self.store(), sql)
    }

    /// Compiles a query and renders its plan (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        pipeline::explain(&mut self.store(), sql)
    }

    /// Replays the JITS compile-phase decisions for `sql` against a
    /// consistent snapshot of the shared state, without executing,
    /// bumping the clock, or drawing from this session's sampling RNG
    /// (see [`Database::explain_jits`]).
    pub fn explain_jits(&mut self, sql: &str) -> Result<JitsExplain> {
        pipeline::explain_jits(&mut self.store(), sql)
    }

    /// Executes `sql` and renders its per-operator profile tree (see
    /// [`Database::explain_analyze`]). The statement's own profile is
    /// rendered — never another session's.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        pipeline::explain_analyze(&mut self.store(), sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use jits_common::DataType;
    use std::time::Duration;

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
        let reg = &shared.obs().registry;
        let counter = |name| reg.counter(name, jits_obs::Volatility::Volatile).get();
        assert!(counter("jits.engine.contended_acquisitions") >= 1);
        assert!(counter("jits.engine.lock_wait_nanos") > 0);
        // volatile: the deterministic export never shows them
        assert!(!shared.metrics_json(false).contains("jits.engine."));
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

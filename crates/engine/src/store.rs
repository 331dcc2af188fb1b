//! Engine state, and the [`Store`] trait through which the one statement
//! pipeline ([`crate::pipeline`]) reaches it.
//!
//! A statement's phases each need a fixed bundle of components — sensitivity
//! and sampling read five of them, feedback writes one, DDL writes catalog
//! and tables under the log. A `Store` hands out one bundle at a time as the
//! argument of a closure:
//!
//! * [`crate::Database`] builds each bundle from split borrows of its own
//!   fields — no lock, no atomic;
//! * [`crate::Session`] takes the same bundle as guards, in rank order, and
//!   charges any blocked time to the statement.
//!
//! Every bundle method takes `&mut self`, so a phase can never hold two
//! bundles at once: lock ordering reduces to the acquisition order inside
//! each bundle method. None of them branches, so the debug-build rank
//! tracker sees every order there is when a test calls each one
//! (`session::tests::every_bundle_acquires_in_rank_order`).
//!
//! Write-ahead logging is a type: [`Store::tick`] and every bundle that
//! mutates take a [`Logged`], which only appending a record makes, so a
//! mutation that runs before its record is appended does not compile.

use crate::observe;
use crate::persist::StateRefs;
use crate::session::{timed_read, timed_write};
use crate::settings::StatsSetting;
use jits::{PredicateCache, QssArchive, StatHistory};
use jits_catalog::{Catalog, RunstatsOptions};
use jits_common::{FaultPlane, Result, SplitMix64};
use jits_obs::Observability;
use jits_optimizer::{CostModel, DefaultSelectivities};
use jits_storage::{SampleCache, Table};
use jits_wal::{Wal, WalRecord};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration fixed at construction: read by every phase, never
/// written by a statement.
pub(crate) struct Env {
    pub cost: CostModel,
    pub defaults: DefaultSelectivities,
    pub runstats_opts: RunstatsOptions,
    /// Tracer, metrics registry, query log and flight ring (lock-free or
    /// ranked above every engine component, so usable from any phase).
    pub obs: Arc<Observability>,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            cost: CostModel::default(),
            defaults: DefaultSelectivities::default(),
            runstats_opts: RunstatsOptions::default(),
            obs: Arc::new(Observability::new()),
        }
    }
}

/// The engine state a checkpoint captures: what [`crate::Database`] owns,
/// what [`crate::SharedDatabase`] puts behind its locks, and what recovery
/// restores.
pub(crate) struct EngineState {
    pub catalog: Catalog,
    pub tables: Vec<Table>,
    pub archive: QssArchive,
    pub history: StatHistory,
    pub predcache: PredicateCache,
    pub samplecache: SampleCache,
    pub setting: StatsSetting,
    /// Logical statement clock.
    pub clock: u64,
    /// The master sampling stream.
    pub rng: SplitMix64,
}

impl EngineState {
    /// Empty state; `seed` starts the sampling stream.
    pub fn new(seed: u64) -> Self {
        EngineState {
            catalog: Catalog::new(),
            tables: Vec::new(),
            archive: QssArchive::default(),
            history: StatHistory::new(),
            predcache: PredicateCache::default(),
            samplecache: SampleCache::new(),
            setting: StatsSetting::default(),
            clock: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Borrowed view for the checkpoint encoder.
    pub fn refs(&self) -> StateRefs<'_> {
        StateRefs {
            clock: self.clock,
            rng_state: self.rng.state(),
            setting: &self.setting,
            catalog: &self.catalog,
            tables: &self.tables,
            archive: &self.archive,
            history: &self.history,
            predcache: &self.predcache,
            samplecache: &self.samplecache,
        }
    }
}

/// The read set of sensitivity analysis, sampling and planning.
pub(crate) struct Reads<'a> {
    pub catalog: &'a Catalog,
    pub tables: &'a [Table],
    pub archive: &'a QssArchive,
    pub history: &'a StatHistory,
    pub predcache: &'a PredicateCache,
}

/// What sampling writes beside [`Reads`]: the statement's RNG stream and
/// short windows on the sample cache.
pub(crate) struct Collect<'a> {
    pub samplecache: CacheWindow<'a>,
    pub rng: &'a mut SplitMix64,
}

/// Access to the sample cache while the [`Reads`] are held. On a shared
/// database each window takes the cache lock (rank 6, above every held
/// read) for its own duration only, so collection itself runs unlocked.
pub(crate) enum CacheWindow<'a> {
    Owned(&'a mut SampleCache),
    Locked {
        samplecache: &'a RwLock<SampleCache>,
        obs: &'a Observability,
        waited: &'a mut u64,
    },
}

impl CacheWindow<'_> {
    /// Runs `f` with write access to the cache.
    pub fn write<R>(&mut self, f: impl FnOnce(&mut SampleCache) -> R) -> R {
        match self {
            CacheWindow::Owned(cache) => f(cache),
            CacheWindow::Locked {
                samplecache,
                obs,
                waited,
            } => f(&mut timed_write(samplecache, obs, waited)),
        }
    }

    /// Runs `f` with read access to the cache.
    pub fn read<R>(&mut self, f: impl FnOnce(&SampleCache) -> R) -> R {
        match self {
            CacheWindow::Owned(cache) => f(cache),
            CacheWindow::Locked {
                samplecache,
                obs,
                waited,
            } => f(&timed_read(samplecache, obs, waited)),
        }
    }
}

/// Every statistics component, the tables and the setting, for the admin
/// calls that recompute, reconfigure or wipe statistics.
pub(crate) struct Admin<'a> {
    pub catalog: &'a mut Catalog,
    pub tables: &'a mut [Table],
    pub archive: &'a mut QssArchive,
    pub history: &'a mut StatHistory,
    pub predcache: &'a mut PredicateCache,
    pub samplecache: &'a mut SampleCache,
    pub setting: &'a mut StatsSetting,
}

/// The write-ahead log (absent on in-memory databases) with the fault plane
/// and clock an append is decided under.
pub(crate) struct WalSlot<'a> {
    pub wal: Option<&'a mut Wal>,
    pub fault: &'a FaultPlane,
    pub clock: u64,
}

impl WalSlot<'_> {
    /// Appends one record, if a log is attached. An error poisons the log,
    /// so a caller that propagates it fails before mutating anything.
    pub fn append(&mut self, obs: &Observability, rec: &WalRecord) -> Result<Logged> {
        if let Some(wal) = self.wal.as_deref_mut() {
            wal.append(rec, self.fault, self.clock)?;
            observe::note_wal_append(obs, rec.kind(), wal.bytes_appended());
        }
        Ok(Logged(()))
    }
}

/// Proof that an operation's write-ahead-log record is appended, or that no
/// log is attached (an in-memory database, or recovery replay, which must
/// not re-append). [`Store::tick`] and every bundle that mutates take one;
/// only [`WalSlot::append`] and [`wal_append_lossy`] make one.
pub(crate) struct Logged(());

/// Appends one record to the WAL, if one is attached. Errors poison the
/// log (no further durable operations succeed), so a caller that
/// propagates this error fails the triggering operation before any
/// in-memory mutation happens — write-ahead in the strict sense.
pub(crate) fn wal_append<S: Store>(env: &Env, s: &mut S, rec: &WalRecord) -> Result<Logged> {
    s.with_wal(|mut wal| wal.append(&env.obs, rec))
}

/// [`wal_append`] for infallible-signature admin calls: a failure is
/// counted and flight-noted instead of propagated. The log has poisoned
/// itself, so the very next fallible durable operation errors loudly — the
/// call's effect is never silently lost past that point (DESIGN.md §14).
pub(crate) fn wal_append_lossy<S: Store>(env: &Env, s: &mut S, rec: &WalRecord) -> Logged {
    wal_append(env, s, rec).unwrap_or_else(|e| {
        let clock = s.clock();
        observe::note_wal_append_error(&env.obs, clock, rec.kind(), &e.to_string());
        Logged(())
    })
}

/// How the pipeline reaches engine state (see the module docs).
pub(crate) trait Store {
    /// Session id stamped on traces, query-log entries and profiles.
    fn session_id(&self) -> u64;
    /// WAL records between automatic checkpoints (0: never).
    fn checkpoint_every(&self) -> u64;
    /// The fault plane, snapshotted once per statement.
    fn fault(&mut self) -> FaultPlane;
    /// The statistics setting; a statement runs under one snapshot of it.
    fn setting(&mut self) -> StatsSetting;
    /// The logical clock.
    fn clock(&mut self) -> u64;
    /// Advances the logical clock and returns the new value.
    fn tick(&mut self, logged: &Logged) -> u64;
    /// Time this statement has spent blocked on engine locks.
    fn lock_wait(&self) -> Duration;

    /// Catalog read (bind, profiles, plans on catalog statistics).
    fn with_catalog<R>(&mut self, f: impl FnOnce(&Catalog) -> R) -> R;
    /// Tables read (execution).
    fn with_tables<R>(&mut self, f: impl FnOnce(&[Table]) -> R) -> R;
    /// The [`Reads`] (planning, `explain_jits`).
    fn with_reads<R>(&mut self, f: impl FnOnce(Reads<'_>) -> R) -> R;
    /// The [`Reads`] plus the sampling writes (sensitivity and collection).
    fn with_collect<R>(
        &mut self,
        logged: &Logged,
        f: impl FnOnce(Reads<'_>, Collect<'_>) -> R,
    ) -> R;
    /// Catalog, archive and sample-cache reads (system views).
    fn with_views<R>(&mut self, f: impl FnOnce(&Catalog, &QssArchive, &SampleCache) -> R) -> R;
    /// Tables write (UDI reset, INSERT, UPDATE, DELETE).
    fn with_tables_mut<R>(&mut self, logged: &Logged, f: impl FnOnce(&mut [Table]) -> R) -> R;
    /// Archive and predicate-cache writes (materialization, plan-time
    /// touches).
    fn with_stats_mut<R>(
        &mut self,
        logged: &Logged,
        f: impl FnOnce(&mut QssArchive, &mut PredicateCache) -> R,
    ) -> R;
    /// History write (LEO feedback).
    fn with_feedback<R>(&mut self, logged: &Logged, f: impl FnOnce(&mut StatHistory) -> R) -> R;
    /// Catalog write with an archive read (migration).
    fn with_migrate<R>(
        &mut self,
        logged: &Logged,
        f: impl FnOnce(&mut Catalog, &QssArchive) -> R,
    ) -> R;
    /// Catalog and tables writes for DDL: appends `rec` under the write
    /// guards, so log order matches mutation order, then hands the record
    /// back to `f` (a bulk load moves its rows out of it). A failed append
    /// returns before `f` runs.
    fn with_ddl<R>(
        &mut self,
        obs: &Observability,
        rec: WalRecord,
        f: impl FnOnce(&mut Catalog, &mut Vec<Table>, WalRecord) -> Result<R>,
    ) -> Result<R>;
    /// Every statistics component, the tables and the setting, written
    /// (admin calls).
    fn with_admin<R>(&mut self, logged: &Logged, f: impl FnOnce(Admin<'_>) -> R) -> R;
    /// The log alone.
    fn with_wal<R>(&mut self, f: impl FnOnce(WalSlot<'_>) -> R) -> R;
    /// A consistent view of the whole state plus the log (checkpoint).
    fn with_snapshot<R>(&mut self, f: impl FnOnce(StateRefs<'_>, WalSlot<'_>) -> R) -> R;
}

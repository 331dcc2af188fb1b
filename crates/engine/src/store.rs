//! Engine state behind ranked locks, and [`Locked`], the one store through
//! which the statement pipeline ([`crate::pipeline`]) reaches it.
//!
//! [`Shared`] puts every component of the engine state — catalog, storage
//! tables, QSS archive, StatHistory, predicate cache, sample cache,
//! statistics setting, write-ahead log — behind its own lock.
//! [`crate::SharedDatabase`] keeps one in an `Arc` for its sessions;
//! [`crate::Database`] lends its plain fields to one on the stack for the
//! length of each `&mut self` call and takes them back afterwards, so both
//! front-ends run the same pipeline over the same guards.
//!
//! A statement's phases each need a fixed bundle of components — sensitivity
//! and sampling read five of them, feedback writes one, DDL writes catalog
//! and tables under the log. [`Locked`] hands out one bundle at a time as the
//! argument of a closure, taking its guards in rank order and charging any
//! blocked time to the statement.
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
//! The write-ahead log, rank 8, is always acquired last: DDL takes its
//! component guards first and appends while holding them, so log order
//! matches mutation order. The observability locks sit above the whole
//! engine — registry at rank 9, flight ring at rank 10 — and are therefore
//! usable from any point of the statement path, including under the WAL
//! guard.
//!
//! Every bundle method takes `&mut self`, so a phase can never hold two
//! bundles at once: lock ordering reduces to the acquisition order inside
//! each bundle method. None of them branches, so the debug-build rank
//! tracker of the `parking_lot` shim sees every order there is when a test
//! calls each one (`store::tests::every_bundle_acquires_in_rank_order`);
//! an out-of-order acquisition panics with both lock names instead of
//! deadlocking.
//!
//! Write-ahead logging is a type: [`Locked::tick`] and every bundle that
//! mutates take a [`Logged`], which only appending a record makes, so a
//! mutation that runs before its record is appended does not compile.

use crate::observe;
use crate::persist::StateRefs;
use crate::settings::StatsSetting;
use jits::{PredicateCache, QssArchive, StatHistory};
use jits_catalog::{Catalog, RunstatsOptions};
use jits_common::{FaultPlane, Result, SplitMix64};
use jits_obs::clock::now_nanos;
use jits_obs::Observability;
use jits_optimizer::{CostModel, DefaultSelectivities};
use jits_storage::{SampleCache, Table};
use jits_wal::{Wal, WalRecord};
use parking_lot::rank::LockRank;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RANK_CATALOG: LockRank = LockRank::new(1, "catalog");
const RANK_TABLES: LockRank = LockRank::new(2, "tables");
const RANK_ARCHIVE: LockRank = LockRank::new(3, "archive");
const RANK_HISTORY: LockRank = LockRank::new(4, "history");
const RANK_PREDCACHE: LockRank = LockRank::new(5, "predcache");
const RANK_SAMPLECACHE: LockRank = LockRank::new(6, "samplecache");
const RANK_SETTING: LockRank = LockRank::new(7, "setting");
const RANK_WAL: LockRank = LockRank::new(8, "wal");

/// Engine configuration fixed at construction: read by every phase, never
/// written by a statement.
#[derive(Clone)]
pub(crate) struct Env {
    pub cost: CostModel,
    pub defaults: DefaultSelectivities,
    pub runstats_opts: RunstatsOptions,
    /// Metrics registry and flight ring (lock-free or ranked above every
    /// engine component, so usable from any phase).
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
/// what [`Shared`] puts behind its locks, and what recovery restores.
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
    /// Empty state; `seed` starts the sampling stream. Allocates nothing.
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
    #[cfg(test)]
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

/// Engine state with each component behind its own lock (see the module
/// docs for the acquisition order).
pub(crate) struct Shared {
    pub env: Env,
    pub catalog: RwLock<Catalog>,
    pub tables: RwLock<Vec<Table>>,
    pub archive: RwLock<QssArchive>,
    pub history: RwLock<StatHistory>,
    predcache: RwLock<PredicateCache>,
    samplecache: RwLock<SampleCache>,
    setting: RwLock<StatsSetting>,
    /// Logical statement clock, global across sessions so archive/history
    /// timestamps stay monotone.
    pub clock: AtomicU64,
    /// Master RNG: session 0 and the admin calls draw from it (so
    /// checkpoints snapshot the live stream); later sessions fork
    /// independent streams from it. A plain mutex outside the ranked
    /// hierarchy, held only while a collection pass draws.
    pub rng_source: Mutex<SplitMix64>,
    /// Deterministic fault-injection plane. Like `rng_source`, guarded by a
    /// plain mutex outside the ranked hierarchy: a statement clones the
    /// handle (an `Arc` bump) once, before taking any engine lock.
    pub fault: Mutex<FaultPlane>,
    /// Write-ahead log, `None` for in-memory databases and during recovery
    /// replay (rank 8).
    pub wal: RwLock<Option<Wal>>,
    /// WAL records between automatic fuzzy checkpoints (0 disables the
    /// automatic trigger; an explicit checkpoint still works).
    pub checkpoint_every: AtomicU64,
}

impl Shared {
    /// Puts engine state behind the ranked locks.
    pub fn from_parts(
        env: Env,
        state: EngineState,
        fault: FaultPlane,
        wal: Option<Wal>,
        checkpoint_every: u64,
    ) -> Shared {
        Shared {
            env,
            catalog: RwLock::with_rank(state.catalog, RANK_CATALOG),
            tables: RwLock::with_rank(state.tables, RANK_TABLES),
            archive: RwLock::with_rank(state.archive, RANK_ARCHIVE),
            history: RwLock::with_rank(state.history, RANK_HISTORY),
            predcache: RwLock::with_rank(state.predcache, RANK_PREDCACHE),
            samplecache: RwLock::with_rank(state.samplecache, RANK_SAMPLECACHE),
            setting: RwLock::with_rank(state.setting, RANK_SETTING),
            clock: AtomicU64::new(state.clock),
            rng_source: Mutex::new(state.rng),
            fault: Mutex::new(fault),
            wal: RwLock::with_rank(wal, RANK_WAL),
            checkpoint_every: AtomicU64::new(checkpoint_every),
        }
    }

    /// The inverse of [`Shared::from_parts`] for what a statement can
    /// change: the engine state and the log.
    pub fn into_parts(self) -> (EngineState, Option<Wal>) {
        let state = EngineState {
            catalog: self.catalog.into_inner(),
            tables: self.tables.into_inner(),
            archive: self.archive.into_inner(),
            history: self.history.into_inner(),
            predcache: self.predcache.into_inner(),
            samplecache: self.samplecache.into_inner(),
            setting: self.setting.into_inner(),
            clock: self.clock.into_inner(),
            rng: self.rng_source.into_inner(),
        };
        (state, self.wal.into_inner())
    }
}

/// Reads a lock, charging any blocked time to the registry and the
/// statement's running wait tally (uncontended acquisitions cost nothing).
pub(crate) fn timed_read<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    obs: &Observability,
    waited: &mut u64,
) -> RwLockReadGuard<'a, T> {
    if let Some(g) = lock.try_read() {
        return g;
    }
    let t = now_nanos();
    let g = lock.read();
    let ns = now_nanos().saturating_sub(t);
    observe::note_lock_wait(obs, ns);
    *waited += ns;
    g
}

/// Write-lock counterpart of [`timed_read`].
pub(crate) fn timed_write<'a, T: ?Sized>(
    lock: &'a RwLock<T>,
    obs: &Observability,
    waited: &mut u64,
) -> RwLockWriteGuard<'a, T> {
    if let Some(g) = lock.try_write() {
        return g;
    }
    let t = now_nanos();
    let g = lock.write();
    let ns = now_nanos().saturating_sub(t);
    observe::note_lock_wait(obs, ns);
    *waited += ns;
    g
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

/// Access to the sample cache while the [`Reads`] are held. Each window
/// takes the cache lock (rank 6, above every held read) for its own
/// duration only, so collection itself runs unlocked.
pub(crate) struct CacheWindow<'a> {
    samplecache: &'a RwLock<SampleCache>,
    obs: &'a Observability,
    waited: &'a mut u64,
}

impl CacheWindow<'_> {
    /// Runs `f` with write access to the cache.
    pub fn write<R>(&mut self, f: impl FnOnce(&mut SampleCache) -> R) -> R {
        f(&mut timed_write(self.samplecache, self.obs, self.waited))
    }

    /// Runs `f` with read access to the cache.
    pub fn read<R>(&mut self, f: impl FnOnce(&SampleCache) -> R) -> R {
        f(&timed_read(self.samplecache, self.obs, self.waited))
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
/// not re-append). [`Locked::tick`] and every bundle that mutates take one;
/// only [`WalSlot::append`] and [`Locked::wal_append_lossy`] make one.
pub(crate) struct Logged(());

/// The store one statement runs against: every bundle is a set of guards
/// taken in rank order, and blocked time accrues to `waited`.
pub(crate) struct Locked<'a> {
    sh: &'a Shared,
    /// A forked sampling stream; `None` draws from the master stream.
    rng: Option<&'a mut SplitMix64>,
    id: u64,
    waited: u64,
    /// The fault plane, snapshotted when the statement starts.
    fault: FaultPlane,
}

impl<'a> Locked<'a> {
    /// A statement of session `id` over `sh`, sampling from `rng` (`None`:
    /// the master stream).
    pub fn new(sh: &'a Shared, rng: Option<&'a mut SplitMix64>, id: u64) -> Self {
        Locked {
            sh,
            rng,
            id,
            waited: 0,
            fault: sh.fault.lock().clone(),
        }
    }

    /// The engine configuration, borrowed for as long as the state is, so
    /// a phase can keep it across bundles.
    pub fn env(&self) -> &'a Env {
        &self.sh.env
    }

    /// Session id stamped on traces, query-log entries and profiles.
    pub fn session_id(&self) -> u64 {
        self.id
    }

    /// WAL records between automatic checkpoints (0: never).
    pub fn checkpoint_every(&self) -> u64 {
        self.sh.checkpoint_every.load(Ordering::SeqCst)
    }

    /// The fault plane, snapshotted once per statement.
    pub fn fault(&self) -> FaultPlane {
        self.fault.clone()
    }

    /// The statistics setting; a statement runs under one snapshot of it.
    pub fn setting(&mut self) -> StatsSetting {
        timed_read(&self.sh.setting, &self.sh.env.obs, &mut self.waited).clone()
    }

    /// Advances the logical clock and returns the new value.
    pub fn tick(&mut self, _: &Logged) -> u64 {
        self.sh.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Time this statement has spent blocked on engine locks.
    pub fn lock_wait(&self) -> Duration {
        Duration::from_nanos(self.waited)
    }

    /// Appends one record to the WAL, if one is attached. Errors poison the
    /// log (no further durable operations succeed), so a caller that
    /// propagates this error fails the triggering operation before any
    /// in-memory mutation happens — write-ahead in the strict sense.
    pub fn wal_append(&mut self, rec: &WalRecord) -> Result<Logged> {
        let sh = self.sh;
        self.with_wal(|mut wal| wal.append(&sh.env.obs, rec))
    }

    /// [`Locked::wal_append`] for infallible-signature admin calls: a
    /// failure is counted and flight-noted instead of propagated. The log
    /// has poisoned itself, so the very next fallible durable operation
    /// errors loudly — the call's effect is never silently lost past that
    /// point (DESIGN.md §14).
    pub fn wal_append_lossy(&mut self, rec: &WalRecord) -> Logged {
        self.wal_append(rec).unwrap_or_else(|e| {
            let clock = self.sh.clock.load(Ordering::SeqCst);
            observe::note_wal_append_error(&self.sh.env.obs, clock, rec.kind(), &e.to_string());
            Logged(())
        })
    }

    /// Catalog read (bind, profiles, plans on catalog statistics).
    pub fn with_catalog<R>(&mut self, f: impl FnOnce(&Catalog) -> R) -> R {
        let sh = self.sh;
        f(&timed_read(&sh.catalog, &sh.env.obs, &mut self.waited))
    }

    /// Tables read (execution).
    pub fn with_tables<R>(&mut self, f: impl FnOnce(&[Table]) -> R) -> R {
        let sh = self.sh;
        f(&timed_read(&sh.tables, &sh.env.obs, &mut self.waited))
    }

    /// The [`Reads`] (planning, `explain_jits`).
    pub fn with_reads<R>(&mut self, f: impl FnOnce(Reads<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let catalog = timed_read(&sh.catalog, &sh.env.obs, w);
        let tables = timed_read(&sh.tables, &sh.env.obs, w);
        let archive = timed_read(&sh.archive, &sh.env.obs, w);
        let history = timed_read(&sh.history, &sh.env.obs, w);
        let predcache = timed_read(&sh.predcache, &sh.env.obs, w);
        f(Reads {
            catalog: &catalog,
            tables: &tables,
            archive: &archive,
            history: &history,
            predcache: &predcache,
        })
    }

    /// The [`Reads`] plus the sampling writes (sensitivity and collection).
    pub fn with_collect<R>(
        &mut self,
        _: &Logged,
        f: impl FnOnce(Reads<'_>, Collect<'_>) -> R,
    ) -> R {
        let Locked {
            sh, rng, waited, ..
        } = self;
        let sh: &Shared = sh;
        let catalog = timed_read(&sh.catalog, &sh.env.obs, waited);
        let tables = timed_read(&sh.tables, &sh.env.obs, waited);
        let archive = timed_read(&sh.archive, &sh.env.obs, waited);
        let history = timed_read(&sh.history, &sh.env.obs, waited);
        let predcache = timed_read(&sh.predcache, &sh.env.obs, waited);
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
                samplecache: CacheWindow {
                    samplecache: &sh.samplecache,
                    obs: &sh.env.obs,
                    waited,
                },
                rng: stream,
            },
        )
    }

    /// Catalog, archive and sample-cache reads (system views).
    pub fn with_views<R>(&mut self, f: impl FnOnce(&Catalog, &QssArchive, &SampleCache) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let catalog = timed_read(&sh.catalog, &sh.env.obs, w);
        let archive = timed_read(&sh.archive, &sh.env.obs, w);
        let samplecache = timed_read(&sh.samplecache, &sh.env.obs, w);
        f(&catalog, &archive, &samplecache)
    }

    /// Tables write (UDI reset, INSERT, UPDATE, DELETE).
    pub fn with_tables_mut<R>(&mut self, _: &Logged, f: impl FnOnce(&mut [Table]) -> R) -> R {
        let sh = self.sh;
        f(&mut timed_write(&sh.tables, &sh.env.obs, &mut self.waited))
    }

    /// Archive and predicate-cache writes (materialization, plan-time
    /// touches).
    pub fn with_stats_mut<R>(
        &mut self,
        _: &Logged,
        f: impl FnOnce(&mut QssArchive, &mut PredicateCache) -> R,
    ) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut archive = timed_write(&sh.archive, &sh.env.obs, w);
        let mut predcache = timed_write(&sh.predcache, &sh.env.obs, w);
        f(&mut archive, &mut predcache)
    }

    /// History write (LEO feedback).
    pub fn with_feedback<R>(&mut self, _: &Logged, f: impl FnOnce(&mut StatHistory) -> R) -> R {
        let sh = self.sh;
        f(&mut timed_write(&sh.history, &sh.env.obs, &mut self.waited))
    }

    /// Catalog write with an archive read (migration).
    pub fn with_migrate<R>(
        &mut self,
        _: &Logged,
        f: impl FnOnce(&mut Catalog, &QssArchive) -> R,
    ) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut catalog = timed_write(&sh.catalog, &sh.env.obs, w);
        let archive = timed_read(&sh.archive, &sh.env.obs, w);
        f(&mut catalog, &archive)
    }

    /// Catalog and tables writes for DDL: appends `rec` under the write
    /// guards, so log order matches mutation order, then hands the record
    /// back to `f` (a bulk load moves its rows out of it). A failed append
    /// returns before `f` runs.
    pub fn with_ddl<R>(
        &mut self,
        rec: WalRecord,
        f: impl FnOnce(&mut Catalog, &mut Vec<Table>, WalRecord) -> Result<R>,
    ) -> Result<R> {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut catalog = timed_write(&sh.catalog, &sh.env.obs, w);
        let mut tables = timed_write(&sh.tables, &sh.env.obs, w);
        let mut wal = timed_write(&sh.wal, &sh.env.obs, w);
        WalSlot {
            wal: wal.as_mut(),
            fault: &self.fault,
            clock: sh.clock.load(Ordering::SeqCst),
        }
        .append(&sh.env.obs, &rec)?;
        f(&mut catalog, &mut tables, rec)
    }

    /// Every statistics component, the tables and the setting, written
    /// (admin calls).
    pub fn with_admin<R>(&mut self, _: &Logged, f: impl FnOnce(Admin<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        let mut catalog = timed_write(&sh.catalog, &sh.env.obs, w);
        let mut tables = timed_write(&sh.tables, &sh.env.obs, w);
        let mut archive = timed_write(&sh.archive, &sh.env.obs, w);
        let mut history = timed_write(&sh.history, &sh.env.obs, w);
        let mut predcache = timed_write(&sh.predcache, &sh.env.obs, w);
        let mut samplecache = timed_write(&sh.samplecache, &sh.env.obs, w);
        let mut setting = timed_write(&sh.setting, &sh.env.obs, w);
        f(Admin {
            catalog: &mut catalog,
            tables: &mut tables,
            archive: &mut archive,
            history: &mut history,
            predcache: &mut predcache,
            samplecache: &mut samplecache,
            setting: &mut setting,
        })
    }

    /// The log alone.
    pub fn with_wal<R>(&mut self, f: impl FnOnce(WalSlot<'_>) -> R) -> R {
        let sh = self.sh;
        let clock = sh.clock.load(Ordering::SeqCst);
        let mut wal = timed_write(&sh.wal, &sh.env.obs, &mut self.waited);
        f(WalSlot {
            wal: wal.as_mut(),
            fault: &self.fault,
            clock,
        })
    }

    /// A consistent view of the whole state plus the log (checkpoint).
    pub fn with_snapshot<R>(&mut self, f: impl FnOnce(StateRefs<'_>, WalSlot<'_>) -> R) -> R {
        let (sh, w) = (self.sh, &mut self.waited);
        // the un-ranked RNG snapshot first, then guards in rank order 1..=8
        let rng_state = sh.rng_source.lock().state();
        let catalog = timed_read(&sh.catalog, &sh.env.obs, w);
        let tables = timed_read(&sh.tables, &sh.env.obs, w);
        let archive = timed_read(&sh.archive, &sh.env.obs, w);
        let history = timed_read(&sh.history, &sh.env.obs, w);
        let predcache = timed_read(&sh.predcache, &sh.env.obs, w);
        let samplecache = timed_read(&sh.samplecache, &sh.env.obs, w);
        let setting = timed_read(&sh.setting, &sh.env.obs, w);
        let mut wal = timed_write(&sh.wal, &sh.env.obs, w);
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
                fault: &self.fault,
                clock,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::SharedDatabase;
    use jits_common::TestDir;
    use jits_obs::{FlightEvent, Observability, Volatility};
    use jits_wal::WalRecord;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracker compiles out in release")]
    fn every_bundle_acquires_in_rank_order() {
        // Every ranked engine lock is taken inside one of these bundle
        // methods and none of them branches, so one call of each under the
        // rank tracker checks every acquisition order the engine has. The
        // database is durable, so `wal` is among the locks; every closure
        // also takes the registry and flight locks, which rank above all.
        let dir = TestDir::new("store::every_bundle_acquires_in_rank_order");
        let shared = SharedDatabase::open(5, dir.path()).unwrap();
        assert!(shared.is_durable());
        let note = |obs: &Observability| {
            obs.registry
                .counter("test.bundle_calls", Volatility::Volatile)
                .inc();
            obs.flight.record(FlightEvent::Note {
                clock: 0,
                label: "bundle".into(),
                detail: String::new(),
            });
        };
        // session 0 samples from the master stream, session 1 from a fork
        for mut session in [shared.session(), shared.session()] {
            let mut s = session.store();
            let obs = &*s.env().obs;
            let logged = s.wal_append(&WalRecord::MigrateStats).unwrap();
            s.setting();
            s.tick(&logged);
            s.with_catalog(|_| note(obs));
            s.with_tables(|_| note(obs));
            s.with_reads(|_| note(obs));
            s.with_collect(&logged, |_, mut c| {
                note(obs);
                c.samplecache.write(|_| note(obs));
                c.samplecache.read(|_| note(obs));
            });
            s.with_views(|_, _, _| note(obs));
            s.with_tables_mut(&logged, |_| note(obs));
            s.with_stats_mut(&logged, |_, _| note(obs));
            s.with_feedback(&logged, |_| note(obs));
            s.with_migrate(&logged, |_, _| note(obs));
            s.with_ddl(WalRecord::MigrateStats, |_, _, _| {
                note(obs);
                Ok(())
            })
            .unwrap();
            s.with_admin(&logged, |_| note(obs));
            s.with_wal(|_| note(obs));
            s.with_snapshot(|_, _| note(obs));
        }
        let calls = shared
            .obs()
            .registry
            .counter("test.bundle_calls", Volatility::Volatile)
            .get();
        assert_eq!(calls, 2 * 15);

        // and the tracker does fire on the log taken before the catalog
        let mut session = shared.session();
        let inner = session.store().sh;
        let _wal = inner.wal.read();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _catalog = inner.catalog.read();
        }))
        .expect_err("catalog after wal must violate the rank order");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("`catalog`") && msg.contains("`wal`"), "{msg}");
    }
}

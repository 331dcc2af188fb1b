//! Engine state, and the [`Store`] trait through which the one statement
//! pipeline ([`crate::pipeline`]) reaches it.
//!
//! A statement's phases each need a fixed bundle of components — sensitivity
//! and sampling read five of them, feedback writes two, DDL writes catalog
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
//! each bundle method, which `jits-lint`'s lock-order pass checks.

use crate::metrics::EngineCounters;
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
        counters: &'a EngineCounters,
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
                counters,
                waited,
            } => f(&mut timed_write(samplecache, counters, waited)),
        }
    }

    /// Runs `f` with read access to the cache.
    pub fn read<R>(&mut self, f: impl FnOnce(&SampleCache) -> R) -> R {
        match self {
            CacheWindow::Owned(cache) => f(cache),
            CacheWindow::Locked {
                samplecache,
                counters,
                waited,
            } => f(&timed_read(samplecache, counters, waited)),
        }
    }
}

/// Every statistics component plus the setting, for the admin calls that
/// reconfigure or wipe them.
pub(crate) struct Admin<'a> {
    pub catalog: &'a mut Catalog,
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
    pub fn append(&mut self, obs: &Observability, rec: &WalRecord) -> Result<()> {
        let Some(wal) = self.wal.as_deref_mut() else {
            return Ok(());
        };
        wal.append(rec, self.fault, self.clock)?;
        crate::observe::note_wal_append(obs, rec.kind(), wal.bytes_appended());
        Ok(())
    }
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
    fn tick(&mut self) -> u64;
    /// Time this statement has spent blocked on engine locks.
    fn lock_wait(&self) -> Duration;
    /// Counts one statement in the engine-wide counters.
    fn note_statement(&mut self);
    /// Counts one collection pass in the engine-wide counters.
    fn note_collection(&mut self, threads: usize, tables: usize);

    /// Catalog read (bind, profiles, plans on catalog statistics).
    fn with_catalog<R>(&mut self, f: impl FnOnce(&Catalog) -> R) -> R;
    /// Tables read (execution).
    fn with_tables<R>(&mut self, f: impl FnOnce(&[Table]) -> R) -> R;
    /// The [`Reads`] (planning, `explain_jits`).
    fn with_reads<R>(&mut self, f: impl FnOnce(Reads<'_>) -> R) -> R;
    /// The [`Reads`] plus the sampling writes (sensitivity and collection).
    fn with_collect<R>(&mut self, f: impl FnOnce(Reads<'_>, Collect<'_>) -> R) -> R;
    /// Catalog, archive and sample-cache reads (system views).
    fn with_views<R>(&mut self, f: impl FnOnce(&Catalog, &QssArchive, &SampleCache) -> R) -> R;
    /// Tables write (UDI reset, INSERT, UPDATE, DELETE).
    fn with_tables_mut<R>(&mut self, f: impl FnOnce(&mut [Table]) -> R) -> R;
    /// Archive and predicate-cache writes (materialization, plan-time
    /// touches).
    fn with_stats_mut<R>(&mut self, f: impl FnOnce(&mut QssArchive, &mut PredicateCache) -> R)
        -> R;
    /// Catalog read with archive and history writes (LEO feedback).
    fn with_feedback<R>(
        &mut self,
        f: impl FnOnce(&Catalog, &mut QssArchive, &mut StatHistory) -> R,
    ) -> R;
    /// Catalog write with an archive read (migration).
    fn with_migrate<R>(&mut self, f: impl FnOnce(&mut Catalog, &QssArchive) -> R) -> R;
    /// Catalog and tables writes with the log, so DDL appends under its
    /// guards and log order matches mutation order.
    fn with_ddl<R>(&mut self, f: impl FnOnce(&mut Catalog, &mut Vec<Table>, WalSlot<'_>) -> R)
        -> R;
    /// Every statistics component and the setting, written (admin calls).
    fn with_admin<R>(&mut self, f: impl FnOnce(Admin<'_>) -> R) -> R;
    /// The log alone.
    fn with_wal<R>(&mut self, f: impl FnOnce(WalSlot<'_>) -> R) -> R;
    /// A consistent view of the whole state plus the log (checkpoint).
    fn with_snapshot<R>(&mut self, f: impl FnOnce(StateRefs<'_>, WalSlot<'_>) -> R) -> R;
}

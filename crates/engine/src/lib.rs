//! The database engine facade.
//!
//! [`Database`] owns the storage tables, the catalog, the QSS archive and
//! the StatHistory; [`SharedDatabase`] puts the same state behind ranked
//! locks for concurrent [`Session`]s. Both run one statement pipeline:
//!
//! ```text
//! SQL → parse → bind → [JITS: analyze → sensitivity → sample → archive]
//!     → optimize (provider = defaults | catalog | JITS layers)
//!     → execute (work counters + cardinality observations)
//!     → feedback (StatHistory)
//! ```
//!
//! Each query returns [`QueryMetrics`] carrying wall-clock *and* simulated
//! (cost-unit) compile/execution times — the quantities every experiment in
//! the paper's evaluation section reports.
//!
//! Observability (see `jits-obs` and DESIGN.md §8): every statement can be
//! traced span-by-span, counters/histograms accumulate in a metrics
//! registry, [`Database::explain_jits`] previews the JITS decisions
//! without executing, and virtual system views (`jits_archive_stats`,
//! `jits_table_scores`, `jits_query_log`, `jits_degradation`) expose the
//! collected state through plain SQL.
//!
//! Fault injection and graceful degradation (DESIGN.md §10): install a
//! [`jits_common::FaultPlane`] with [`Database::set_fault_plane`] to
//! deterministically fail named pipeline points; every failure degrades to
//! a weaker statistics source — the statement always returns a plan.
//!
//! Durability (DESIGN.md §14): [`Database::open`] attaches a write-ahead
//! log and restores the newest checkpoint + record tail, recovering tables
//! *and* the statistics plane — archive, history, caches, clock, RNG —
//! bit-identically, so a restarted engine answers its first query from
//! warm statistics instead of re-degrading to cold defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
mod dml;
pub mod explain;
pub mod metrics;
mod observe;
mod persist;
mod pipeline;
mod profile;
pub mod session;
pub mod settings;
mod store;
pub mod views;

pub use database::{Database, DEFAULT_CHECKPOINT_EVERY};
pub use explain::{JitsExplain, MaterializeExplain};
pub use metrics::{QueryMetrics, StageWalls};
pub use persist::RecoveryReport;
pub use pipeline::QueryResult;
pub use session::{Session, SharedDatabase};
pub use settings::StatsSetting;
pub use views::{
    VIEW_ARCHIVE_STATS, VIEW_DEGRADATION, VIEW_FLIGHT, VIEW_PROFILE, VIEW_QUERY_LOG,
    VIEW_TABLE_SCORES,
};

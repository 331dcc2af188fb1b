//! JITS — Just-in-Time Statistics (El-Helw, Ilyas, Lau, Markl, Zuzarte;
//! ICDE 2007).
//!
//! The paper's contribution, reproduced module-for-module against Figure 1's
//! architecture:
//!
//! | Paper module          | This crate                                  |
//! |-----------------------|---------------------------------------------|
//! | Query Analysis        | [`analysis`] (Algorithm 1)                  |
//! | Sensitivity Analysis  | [`sensitivity`] (Algorithms 2, 3, 4)        |
//! | UDI counters          | `jits-storage` ([`jits_storage::UdiCounter`]) |
//! | StatHistory           | [`history`]                                 |
//! | Statistics Collection | [`collect`] (fixed-size sampling)           |
//! | QSS archive           | [`archive`] (max-entropy grid histograms,   |
//! |                       | uniformity-then-LRU eviction)               |
//! | Statistics Migration  | [`migrate`]                                 |
//! | LEO-style feedback    | [`feedback`]                                |
//! | Plan gen & costing    | `jits-optimizer`, fed through [`provider`]  |
//!
//! The flow during query compilation (driven by `jits-engine`):
//!
//! 1. [`analysis::query_analysis`] enumerates candidate predicate groups.
//! 2. [`sensitivity::sensitivity_analysis`] marks tables whose statistics
//!    are stale or inaccurate for sampling, and decides which collected
//!    groups deserve materialization into the archive.
//! 3. [`collect::collect_for_tables`] samples each marked table once and
//!    computes every candidate group's selectivity from the sample.
//! 4. [`provider::JitsStatisticsProvider`] layers fresh sample statistics
//!    over the QSS archive over the catalog during plan costing.
//! 5. After execution, [`feedback::ingest`] turns the executor's
//!    cardinality observations into StatHistory `errorFactor` entries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod collect;
pub mod config;
pub mod epsilon;
pub mod feedback;
pub mod gate;
pub mod history;
pub mod materialize;
pub mod migrate;
pub mod predcache;
pub mod provider;
pub mod sensitivity;

pub use analysis::{query_analysis, CandidateGroup};
pub use archive::{ArchiveSnapshot, QssArchive, RefineOutcome};
pub use collect::{
    collect_for_tables, collect_for_tables_parallel, collect_for_tables_sourced, CollectTiming,
    CollectedStats, DegradedTable, DrawnSample, SampleOrigin, SampleSource, FB_ARCHIVE_STATS,
    FB_PARTIAL_SAMPLE, FP_COLLECT_BUDGET,
};
pub use config::{JitsConfig, SensitivityStrategy};
pub use epsilon::{epsilon_sensitivity, EpsilonConfig, EpsilonOutcome};
pub use feedback::ingest;
pub use history::{HistEntry, HistorySnapshot, StatHistory};
pub use materialize::{
    commit_drawn_samples, materialize_group, resolve_sample_sources, MaterializeOutcome,
};
pub use predcache::{fingerprint, CachedSelectivity, PredicateCache, PredicateCacheSnapshot};
pub use provider::{JitsStatisticsProvider, PhysicalMetadataProvider};
pub use sensitivity::{
    sensitivity_analysis, sensitivity_analysis_with_feedback, MaterializeDecision,
    MaterializeReason, SensitivityDecision, TableScore, QERROR_THRESHOLD,
};

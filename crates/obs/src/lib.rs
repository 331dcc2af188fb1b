//! Observability for the JITS engine: the per-statement record, the flight
//! ring that stores it, a metrics registry, and exporters.
//!
//! The crate is deliberately engine-agnostic — it knows nothing about
//! blocks, candidate groups, or archives. The engine translates its own
//! types into the generic records defined here, which keeps the dependency
//! arrow pointing one way (engine → obs) and lets obs stay free of
//! statistics-bearing state. The only OS-clock read in the crate lives in
//! [`clock`]; everything else receives timings from callers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod record;
pub mod registry;

pub use export::{to_json, to_prometheus, validate_json, validate_prometheus};
pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY, RANK_FLIGHT};
pub use record::{
    clamp_q_error, Degradation, GroupVerdict, ProfileNodeRow, QueryProfile, RefineRow, SampleRow,
    ScoreRow, StageNanos, Q_ERROR_CAP,
};
pub use registry::{
    histogram_quantile, Counter, Gauge, Histogram, MetricSample, MetricsRegistry, SampleValue,
    Volatility, RANK_REGISTRY,
};

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Per-table estimation-accuracy aggregate fed by query profiles. All
/// fields are deterministic: q-errors derive from estimated vs. actual row
/// counts, never from timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QErrorStat {
    /// Most recent per-table q-error (scan-level, clamped).
    pub last: f64,
    /// Largest q-error observed so far.
    pub max: f64,
    /// Observations recorded.
    pub count: u64,
    /// Observations whose q-error exceeded the misprediction threshold
    /// passed to [`Observability::record_qerror`].
    pub mispredicted: u64,
}

/// Engine-wide observability state: metrics registry, flight recorder
/// (the one store of statement records), and the q-error accuracy
/// aggregates.
#[derive(Debug)]
pub struct Observability {
    /// The metrics registry.
    pub registry: MetricsRegistry,
    /// The flight recorder (bounded ring of statement records and notes).
    pub flight: FlightRecorder,
    qerror: Mutex<BTreeMap<String, QErrorStat>>,
}

impl Observability {
    /// Fresh state: empty registry, ring and aggregates.
    pub fn new() -> Self {
        Observability {
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::new(),
            qerror: Mutex::new(BTreeMap::new()),
        }
    }

    /// Folds one per-table q-error observation into the accuracy
    /// aggregates. `q` is clamped by [`clamp_q_error`]; observations above
    /// `misprediction_threshold` additionally bump the misprediction count.
    pub fn record_qerror(&self, table: &str, q: f64, misprediction_threshold: f64) {
        let q = clamp_q_error(q);
        let mut map = self.qerror.lock();
        let stat = map.entry(table.to_string()).or_insert(QErrorStat {
            last: 1.0,
            max: 1.0,
            count: 0,
            mispredicted: 0,
        });
        stat.last = q;
        stat.max = stat.max.max(q);
        stat.count += 1;
        if q > misprediction_threshold {
            stat.mispredicted += 1;
        }
    }

    /// The latest q-error per table, in table-name order — the feedback the
    /// JITS scoring loop reads to prioritize actually-mispredicted tables.
    pub fn qerror_last(&self) -> BTreeMap<String, f64> {
        self.qerror
            .lock()
            .iter()
            .map(|(t, s)| (t.clone(), s.last))
            .collect()
    }

    /// Restores the per-table q-error aggregates from a recovery snapshot
    /// (the inverse of [`Observability::qerror_stats`]). The aggregates are
    /// decision-bearing — sensitivity scoring reads them to prioritize
    /// mispredicted tables — so recovery must rebuild them exactly.
    pub fn restore_qerror(&self, stats: Vec<(String, QErrorStat)>) {
        *self.qerror.lock() = stats.into_iter().collect();
    }

    /// Every per-table accuracy aggregate, in table-name order.
    pub fn qerror_stats(&self) -> Vec<(String, QErrorStat)> {
        self.qerror
            .lock()
            .iter()
            .map(|(t, s)| (t.clone(), *s))
            .collect()
    }

    /// Registry snapshot rendered as JSON (see [`export::to_json`]).
    pub fn metrics_json(&self, include_volatile: bool) -> String {
        to_json(&self.registry.snapshot(), include_volatile)
    }

    /// Registry snapshot rendered in Prometheus text format.
    pub fn metrics_prometheus(&self, include_volatile: bool) -> String {
        to_prometheus(&self.registry.snapshot(), include_volatile)
    }
}

impl Default for Observability {
    fn default() -> Self {
        Observability::new()
    }
}

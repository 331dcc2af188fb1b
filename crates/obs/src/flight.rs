//! The flight recorder: a bounded black box of recent query profiles and
//! pipeline events, dumped to JSON on demand or automatically on anomaly.
//!
//! The ring holds the last [`FLIGHT_CAPACITY`] events — operator profile
//! trees ([`QueryProfile`]), degradations, cache/fault notes, and anomaly
//! markers — behind a lock registered at [`RANK_FLIGHT`], above every
//! engine lock and the metrics registry, so recording is legal from
//! anywhere in the pipeline and no other lock may be taken while holding
//! the ring.
//!
//! Every record splits deterministic fields (counts, rows, q-error, work)
//! from timing fields; [`FlightRecorder::to_json`] masks the timing fields
//! when called with `include_volatile = false`, which makes dumps
//! byte-comparable across collect-thread counts in the determinism tests.

use parking_lot::rank::LockRank;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::path::PathBuf;

/// Rank of the flight-recorder ring lock: above the registry (9), so the
/// recorder can be fed while holding any engine guard or registry handle,
/// and nothing may be acquired while holding the ring.
pub const RANK_FLIGHT: LockRank = LockRank::new(10, "flight");

/// Retained events in the flight ring.
pub const FLIGHT_CAPACITY: usize = 256;

/// Cap applied to q-errors before they are recorded or serialized: an
/// unbounded miss (zero actual against a non-zero estimate) reports as this
/// finite ceiling so JSON stays representable and aggregates stay total.
pub const Q_ERROR_CAP: f64 = 1.0e9;

/// Clamps a q-error to `[1, Q_ERROR_CAP]` (NaN reports the cap: a q-error
/// that cannot be computed is treated as a maximal miss, not a perfect hit).
pub fn clamp_q_error(q: f64) -> f64 {
    if q.is_nan() {
        Q_ERROR_CAP
    } else {
        q.clamp(1.0, Q_ERROR_CAP)
    }
}

/// One operator of a flattened profile tree, preorder with an explicit
/// depth (children follow their parent at `depth + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNodeRow {
    /// Depth in the operator tree (root = 0).
    pub depth: usize,
    /// Operator kind label (`seq_scan`, `hash_join`, …).
    pub kind: String,
    /// Base table name for scans; empty for joins.
    pub table: String,
    /// Optimizer's cardinality estimate.
    pub est_rows: f64,
    /// Rows the operator actually produced.
    pub actual_rows: f64,
    /// `max(est/act, act/est)`, clamped by [`clamp_q_error`].
    pub q_error: f64,
    /// Work charged by the operator, in cost-model units.
    pub work: f64,
    /// Inclusive wall time of the operator in nanoseconds. Volatile: masked
    /// to zero in deterministic dumps.
    pub wall_nanos: u64,
    /// Zone-map blocks the operator probed: set on the `pruned_scan` node
    /// of an UPDATE/DELETE, zero elsewhere (a SELECT's pruned scans report
    /// through `jits.skip.*`).
    pub blocks_total: u64,
    /// Of those, blocks proven to hold no matching row.
    pub blocks_pruned: u64,
}

/// One query's operator profile: the deterministic skeleton of a statement
/// post-mortem (plus volatile walls, masked on demand).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Logical statement clock.
    pub clock: u64,
    /// Session id (0 on the single-owner path).
    pub session: u64,
    /// Statement text.
    pub sql: String,
    /// Which executor evaluated the plan (`row` or `batch`; `dml` for the
    /// one-node profile of an UPDATE or DELETE).
    pub executor: String,
    /// Rows the statement returned.
    pub result_rows: usize,
    /// Total charged work in cost-model units.
    pub total_work: f64,
    /// Largest per-operator q-error in the tree (1.0 for a perfect plan).
    pub max_q_error: f64,
    /// Whether the statement degraded (fault fallback / budget abort).
    pub degraded: bool,
    /// Execute-phase wall nanoseconds. Volatile: masked in deterministic
    /// dumps.
    pub exec_wall_nanos: u64,
    /// The operator tree, flattened preorder.
    pub nodes: Vec<ProfileNodeRow>,
}

/// One entry of the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A finished statement's operator profile.
    Profile(QueryProfile),
    /// A pipeline degradation (mirrors the `jits_degradation` view row).
    Degradation {
        /// Logical statement clock.
        clock: u64,
        /// Affected table (empty when not table-scoped).
        table: String,
        /// The fault point (or budget) that tripped.
        fault_point: String,
        /// The fallback served instead.
        fallback: String,
    },
    /// A free-form cache/fault note.
    Note {
        /// Logical statement clock.
        clock: u64,
        /// Short category label.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// An anomaly marker: why an automatic dump fired.
    Anomaly {
        /// Logical statement clock.
        clock: u64,
        /// What tripped the anomaly (q-error threshold, degradation, …).
        reason: String,
    },
}

impl FlightEvent {
    /// Short kind tag used in JSON dumps and the `jits_flight` view.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Profile(_) => "profile",
            FlightEvent::Degradation { .. } => "degradation",
            FlightEvent::Note { .. } => "note",
            FlightEvent::Anomaly { .. } => "anomaly",
        }
    }

    /// The logical clock the event was recorded at.
    pub fn clock(&self) -> u64 {
        match self {
            FlightEvent::Profile(p) => p.clock,
            FlightEvent::Degradation { clock, .. }
            | FlightEvent::Note { clock, .. }
            | FlightEvent::Anomaly { clock, .. } => *clock,
        }
    }
}

/// The bounded flight ring plus its auto-dump configuration.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Named `flight` so the static lock-order pass attributes acquisitions
    /// to the rank-10 `flight` component.
    flight: RwLock<VecDeque<FlightEvent>>,
    /// Where anomaly-triggered dumps land (none = no automatic dumps). Held
    /// in its own small mutex, never while the ring is held.
    auto_dump: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// An empty recorder; its ring lock carries [`RANK_FLIGHT`].
    pub fn new() -> Self {
        FlightRecorder {
            flight: RwLock::with_rank(VecDeque::new(), RANK_FLIGHT),
            auto_dump: Mutex::new(None),
        }
    }

    /// Appends one event to the bounded ring.
    pub fn record(&self, event: FlightEvent) {
        let mut ring = self.flight.write();
        if ring.len() == FLIGHT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Records an anomaly marker and, when an auto-dump path is configured,
    /// writes a full-fidelity JSON dump there (best effort: a dump that
    /// cannot be written never fails the query that tripped the anomaly).
    pub fn record_anomaly(&self, clock: u64, reason: String) {
        self.record(FlightEvent::Anomaly { clock, reason });
        let path = self.auto_dump.lock().clone();
        if let Some(path) = path {
            let _ = std::fs::write(&path, self.to_json(true));
        }
    }

    /// Configures (or clears) the anomaly auto-dump path.
    pub fn set_auto_dump(&self, path: Option<PathBuf>) {
        *self.auto_dump.lock() = path;
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<FlightEvent> {
        self.flight.read().iter().cloned().collect()
    }

    /// The most recently recorded query profile, if any (backs the
    /// `jits_profile` system view).
    pub fn latest_profile(&self) -> Option<QueryProfile> {
        self.flight.read().iter().rev().find_map(|e| match e {
            FlightEvent::Profile(p) => Some(p.clone()),
            _ => None,
        })
    }

    /// Renders the ring as one JSON document (validated by
    /// [`crate::export::validate_json`] in tests). With `include_volatile =
    /// false` every wall-time field is masked to zero, leaving a pure
    /// function of workload + seed.
    pub fn to_json(&self, include_volatile: bool) -> String {
        let events = self.recent();
        let mut out = String::from("{\"events\": [");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            event_json(&mut out, e, include_volatile);
        }
        out.push_str("]}\n");
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// Formats an f64 for JSON: finite values print exactly (round-trip `{:?}`),
/// non-finite values clamp to the q-error cap with the sign preserved.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else if x.is_sign_negative() {
        format!("{:?}", -Q_ERROR_CAP)
    } else {
        format!("{Q_ERROR_CAP:?}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn event_json(out: &mut String, e: &FlightEvent, include_volatile: bool) {
    let mask = |nanos: u64| if include_volatile { nanos } else { 0 };
    match e {
        FlightEvent::Profile(p) => {
            out.push_str(&format!(
                "{{\"type\": \"profile\", \"clock\": {}, \"session\": {}, \"sql\": {}, \
                 \"executor\": {}, \"result_rows\": {}, \"total_work\": {}, \
                 \"max_q_error\": {}, \"degraded\": {}, \"exec_wall_nanos\": {}, \"nodes\": [",
                p.clock,
                p.session,
                json_str(&p.sql),
                json_str(&p.executor),
                p.result_rows,
                json_f64(p.total_work),
                json_f64(p.max_q_error),
                p.degraded,
                mask(p.exec_wall_nanos),
            ));
            for (i, n) in p.nodes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"depth\": {}, \"kind\": {}, \"table\": {}, \"est_rows\": {}, \
                     \"actual_rows\": {}, \"q_error\": {}, \"work\": {}, \"wall_nanos\": {}, \
                     \"blocks_total\": {}, \"blocks_pruned\": {}}}",
                    n.depth,
                    json_str(&n.kind),
                    json_str(&n.table),
                    json_f64(n.est_rows),
                    json_f64(n.actual_rows),
                    json_f64(n.q_error),
                    json_f64(n.work),
                    mask(n.wall_nanos),
                    n.blocks_total,
                    n.blocks_pruned,
                ));
            }
            out.push_str("]}");
        }
        FlightEvent::Degradation {
            clock,
            table,
            fault_point,
            fallback,
        } => {
            out.push_str(&format!(
                "{{\"type\": \"degradation\", \"clock\": {clock}, \"table\": {}, \
                 \"fault_point\": {}, \"fallback\": {}}}",
                json_str(table),
                json_str(fault_point),
                json_str(fallback),
            ));
        }
        FlightEvent::Note {
            clock,
            label,
            detail,
        } => {
            out.push_str(&format!(
                "{{\"type\": \"note\", \"clock\": {clock}, \"label\": {}, \"detail\": {}}}",
                json_str(label),
                json_str(detail),
            ));
        }
        FlightEvent::Anomaly { clock, reason } => {
            out.push_str(&format!(
                "{{\"type\": \"anomaly\", \"clock\": {clock}, \"reason\": {}}}",
                json_str(reason),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    fn profile(clock: u64) -> QueryProfile {
        QueryProfile {
            clock,
            session: 0,
            sql: format!("SELECT {clock} -- \"quoted\"\nline two"),
            executor: "batch".to_string(),
            result_rows: 3,
            total_work: 120.5,
            max_q_error: 2.0,
            degraded: false,
            exec_wall_nanos: 987,
            nodes: vec![
                ProfileNodeRow {
                    depth: 0,
                    kind: "hash_join".to_string(),
                    table: String::new(),
                    est_rows: 10.0,
                    actual_rows: 5.0,
                    q_error: 2.0,
                    work: 100.0,
                    wall_nanos: 900,
                    blocks_total: 0,
                    blocks_pruned: 0,
                },
                ProfileNodeRow {
                    depth: 1,
                    kind: "seq_scan".to_string(),
                    table: "cars".to_string(),
                    est_rows: 5.0,
                    actual_rows: 5.0,
                    q_error: 1.0,
                    work: 20.5,
                    wall_nanos: 300,
                    blocks_total: 0,
                    blocks_pruned: 0,
                },
            ],
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 4) {
            fr.record(FlightEvent::Profile(profile(i)));
        }
        let events = fr.recent();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events[0].clock(), 4);
        assert_eq!(events.last().unwrap().clock(), FLIGHT_CAPACITY as u64 + 3);
    }

    #[test]
    fn dump_is_valid_json_with_and_without_volatile() {
        let fr = FlightRecorder::new();
        fr.record(FlightEvent::Profile(profile(1)));
        fr.record(FlightEvent::Degradation {
            clock: 2,
            table: "cars".to_string(),
            fault_point: "sample.draw".to_string(),
            fallback: "archive_or_catalog_stats".to_string(),
        });
        fr.record(FlightEvent::Note {
            clock: 2,
            label: "samplecache".to_string(),
            detail: "hit".to_string(),
        });
        fr.record_anomaly(3, "q-error 5.0 above threshold".to_string());
        for include_volatile in [false, true] {
            let json = fr.to_json(include_volatile);
            validate_json(&json).expect("flight dump must parse");
            assert_eq!(json.contains("987"), include_volatile);
        }
    }

    #[test]
    fn masked_dump_is_reproducible() {
        let make = || {
            let fr = FlightRecorder::new();
            let mut p = profile(7);
            p.exec_wall_nanos = 123456; // differs per "run"
            fr.record(FlightEvent::Profile(p));
            fr
        };
        let a = make();
        let mut p2 = profile(7);
        p2.exec_wall_nanos = 999; // a different timing, same determinism
        let b = FlightRecorder::new();
        b.record(FlightEvent::Profile(p2));
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_ne!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn anomaly_auto_dump_writes_file() {
        let fr = FlightRecorder::new();
        fr.record(FlightEvent::Profile(profile(1)));
        let path = std::env::temp_dir().join("jits_flight_autodump_test.json");
        let _ = std::fs::remove_file(&path);
        fr.set_auto_dump(Some(path.clone()));
        fr.record_anomaly(2, "degraded".to_string());
        let dumped = std::fs::read_to_string(&path).expect("auto dump written");
        validate_json(&dumped).expect("auto dump must parse");
        assert!(dumped.contains("\"anomaly\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn q_error_clamp_is_total() {
        assert_eq!(clamp_q_error(f64::INFINITY), Q_ERROR_CAP);
        assert_eq!(clamp_q_error(f64::NAN), Q_ERROR_CAP);
        assert_eq!(clamp_q_error(0.5), 1.0);
        assert_eq!(clamp_q_error(3.5), 3.5);
    }
}

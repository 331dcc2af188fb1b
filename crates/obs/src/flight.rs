//! The flight recorder: the one store of per-statement records, a bounded
//! black box dumped to JSON on demand or automatically on anomaly.
//!
//! The ring holds the last [`FLIGHT_CAPACITY`] events — one statement
//! record ([`QueryProfile`]) per statement, plus cache/fault notes —
//! behind a lock registered at [`RANK_FLIGHT`], above every engine lock and
//! the metrics registry, so recording is legal from anywhere in the
//! pipeline and no other lock may be taken while holding the ring.
//!
//! Every record splits deterministic fields (counts, rows, q-error, work)
//! from timing fields; [`FlightRecorder::to_json`] masks the timing fields
//! when called with `include_volatile = false`, which makes dumps
//! byte-comparable across collect-thread counts in the determinism tests.

use crate::export::json_str;
use crate::QueryProfile;
use parking_lot::rank::LockRank;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Rank of the flight-recorder ring lock: above the registry (9), so the
/// recorder can be fed while holding any engine guard or registry handle,
/// and nothing may be acquired while holding the ring.
pub const RANK_FLIGHT: LockRank = LockRank::new(10, "flight");

/// Retained events in the flight ring.
pub const FLIGHT_CAPACITY: usize = 256;

/// One entry of the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A finished statement's record (the same `Arc` its metrics carry).
    Profile(Arc<QueryProfile>),
    /// A free-form note: checkpoint, recovery, quarantine, WAL error.
    Note {
        /// Logical statement clock.
        clock: u64,
        /// Short category label.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl FlightEvent {
    /// Short kind tag used in JSON dumps and the `jits_flight` view.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Profile(_) => "profile",
            FlightEvent::Note { .. } => "note",
        }
    }

    /// The logical clock the event was recorded at.
    pub fn clock(&self) -> u64 {
        match self {
            FlightEvent::Profile(p) => p.clock,
            FlightEvent::Note { clock, .. } => *clock,
        }
    }
}

/// The bounded flight ring plus its auto-dump configuration.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Ranked [`RANK_FLIGHT`], above the registry.
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

    /// Stores one finished statement's record and returns the shared
    /// handle. A record carrying an anomaly rewrites the auto-dump when a
    /// path is configured (best effort: a dump that cannot be written never
    /// fails the statement that tripped it).
    pub fn record_statement(&self, mut profile: QueryProfile) -> Arc<QueryProfile> {
        profile.shrink_to_fit();
        let profile = Arc::new(profile);
        self.record(FlightEvent::Profile(Arc::clone(&profile)));
        if profile.anomaly.is_some() {
            let path = self.auto_dump.lock().clone();
            if let Some(path) = path {
                let _ = std::fs::write(&path, self.to_json(true));
            }
        }
        profile
    }

    /// Configures (or clears) the anomaly auto-dump path.
    pub fn set_auto_dump(&self, path: Option<PathBuf>) {
        *self.auto_dump.lock() = path;
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<FlightEvent> {
        self.flight.read().iter().cloned().collect()
    }

    /// The retained statement records, oldest first.
    pub fn statements(&self) -> Vec<Arc<QueryProfile>> {
        let ring = self.flight.read();
        ring.iter()
            .filter_map(|e| match e {
                FlightEvent::Profile(p) => Some(Arc::clone(p)),
                FlightEvent::Note { .. } => None,
            })
            .collect()
    }

    /// Renders the ring as one JSON document (validated by
    /// [`crate::export::validate_json`] in tests). With `include_volatile =
    /// false` every wall-time field is masked to zero, leaving a pure
    /// function of workload + seed.
    pub fn to_json(&self, include_volatile: bool) -> String {
        let mut out = String::from("{\"events\": [");
        for (i, e) in self.recent().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match e {
                FlightEvent::Profile(p) => p.write_json(&mut out, include_volatile),
                FlightEvent::Note {
                    clock,
                    label,
                    detail,
                } => out.push_str(&format!(
                    "{{\"type\": \"note\", \"clock\": {clock}, \"label\": {}, \"detail\": {}}}",
                    json_str(label),
                    json_str(detail),
                )),
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;
    use crate::{clamp_q_error, Degradation, ProfileNodeRow, ScoreRow, Q_ERROR_CAP};

    fn profile(clock: u64) -> QueryProfile {
        let mut p = QueryProfile::new(clock, 0, "SELECT 1 -- \"quoted\"\nline two", "select");
        p.result_rows = 3;
        p.total_work = 120.5;
        p.stages.execute = 987;
        p.scores.push(ScoreRow {
            qun: 0,
            table: "cars".to_string(),
            s1: 1.0,
            s2: 0.0,
            score: 0.5,
            collect: true,
        });
        p.nodes.push(ProfileNodeRow {
            depth: 0,
            kind: "seq_scan".to_string(),
            table: "cars".to_string(),
            est_rows: 5.0,
            actual_rows: 5.0,
            q_error: 1.0,
            work: 20.5,
            wall_nanos: 300,
            blocks_total: 0,
            blocks_pruned: 0,
        });
        p
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 4) {
            fr.record_statement(profile(i));
        }
        let events = fr.recent();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events[0].clock(), 4);
        assert_eq!(events.last().unwrap().clock(), FLIGHT_CAPACITY as u64 + 3);
    }

    #[test]
    fn dump_is_valid_json_with_and_without_volatile() {
        let fr = FlightRecorder::new();
        let mut p = profile(1);
        p.degradations.push(Degradation {
            table: "cars".to_string(),
            fault_point: "sample.draw",
            fallback: "archive_or_catalog_stats",
        });
        p.anomaly = Some("degraded statement".to_string());
        fr.record_statement(p);
        fr.record(FlightEvent::Note {
            clock: 2,
            label: "checkpoint".to_string(),
            detail: "lsn 4".to_string(),
        });
        for include_volatile in [false, true] {
            let json = fr.to_json(include_volatile);
            validate_json(&json).expect("flight dump must parse");
            assert_eq!(json.contains("987"), include_volatile);
        }
    }

    #[test]
    fn masked_dump_is_reproducible() {
        let dump = |execute_nanos: u64| {
            let fr = FlightRecorder::new();
            let mut p = profile(7);
            p.stages.execute = execute_nanos; // differs per "run"
            fr.record_statement(p);
            fr
        };
        let (a, b) = (dump(123456), dump(999));
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_ne!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn anomaly_auto_dump_writes_file() {
        let fr = FlightRecorder::new();
        let path = std::env::temp_dir().join("jits_flight_autodump_test.json");
        let _ = std::fs::remove_file(&path);
        fr.set_auto_dump(Some(path.clone()));
        fr.record_statement(profile(1));
        assert!(!path.exists(), "no anomaly, no dump");
        let mut p = profile(2);
        p.anomaly = Some("q-error 5.0 above threshold".to_string());
        fr.record_statement(p);
        let dumped = std::fs::read_to_string(&path).expect("auto dump written");
        validate_json(&dumped).expect("auto dump must parse");
        assert!(dumped.contains("\"anomaly\": \"q-error"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn render_lists_stages_and_decisions() {
        let mut p = profile(3);
        let text = p.render();
        // a stage with a wall or a decision line is listed; one the
        // statement did not run is left out
        for stage in ["sensitivity", "execute (0.001 ms)", "max q-error 1.00"] {
            assert!(text.contains(stage), "{text}");
        }
        for stage in ["parse_bind", "collect", "feedback"] {
            assert!(!text.contains(&format!("  {stage} (")), "{text}");
        }
        assert!(
            text.contains("q0 cars: s1=1.000 s2=0.000 score=0.500 -> sample"),
            "{text}"
        );
        p.stages.collect = 2_500_000;
        assert!(p.render().contains("  collect (2.500 ms)\n"));
    }

    #[test]
    fn q_error_clamp_is_total() {
        assert_eq!(clamp_q_error(f64::INFINITY), Q_ERROR_CAP);
        assert_eq!(clamp_q_error(f64::NAN), Q_ERROR_CAP);
        assert_eq!(clamp_q_error(0.5), 1.0);
        assert_eq!(clamp_q_error(3.5), 3.5);
    }
}

//! Deterministic fault-injection plane.
//!
//! Chaos testing a statistics pipeline only pays off when a failing run can
//! be replayed bit-identically, so fault decisions here are *pure functions*
//! of `(fault seed, fault point, decision key, attempt)` — never wall clock,
//! never mutable counters shared across threads. A collection pass that
//! degrades table 3 at statement 17 degrades exactly that table at exactly
//! that statement on every replay, whatever order the tables are collected
//! in.
//!
//! A [`FaultPlane`] is either *disabled* (the default: an `Option::None`
//! that inlines to a constant-false check, so production paths pay nothing)
//! or *enabled* with a seed and a set of [`FaultSpec`] schedules parsed from
//! a compact text grammar:
//!
//! ```text
//! point=mode:arg[:attempts][,point=mode:arg[:attempts]...]
//!
//! sample.draw=once:5          fire when the decision key equals 5
//! archive.read=every:3        fire on ~1/3 of keys (salted by the seed)
//! collect.worker=after:10     fire on every key >= 10
//! history.read=once:2:inf     persistent: retries never clear it
//! ```
//!
//! The optional `attempts` suffix bounds how many retry attempts observe the
//! fault (default 1: the fault is transient and the first retry succeeds);
//! `inf` makes it persistent so bounded retry exhausts and the caller must
//! degrade. The `every:k` schedule hashes the key with a per-point salt
//! derived from the seeded RNG stream, so different points firing "every 3"
//! do not fire on the same keys.
//!
//! Decision keys are supplied by the caller and must themselves be
//! deterministic: statement-scoped points use the statement clock, while
//! table- or group-scoped points combine the clock with the quantifier or
//! candidate ordinal via [`fault_key`].

use crate::rng::SplitMix64;

/// Fault point: a sample draw inside table collection.
pub const FP_SAMPLE_DRAW: &str = "sample.draw";
/// Fault point: committing drawn samples into the sample cache.
pub const FP_SAMPLECACHE_COMMIT: &str = "samplecache.commit";
/// Fault point: one table's collection failing as a whole (the table
/// degrades to archive statistics; the name predates sequential
/// collection and stays because fault specs use it).
pub const FP_COLLECT_WORKER: &str = "collect.worker";
/// Fault point: reading (validating) an archive entry.
pub const FP_ARCHIVE_READ: &str = "archive.read";
/// Fault point: writing (refining) an archive entry.
pub const FP_ARCHIVE_WRITE: &str = "archive.write";
/// Fault point: reading the feedback history.
pub const FP_HISTORY_READ: &str = "history.read";
/// Fault point: a crash before any byte of a WAL record is written. The
/// statement's effects are durably absent; re-running it after recovery
/// reproduces the never-crashed state.
pub const FP_WAL_BEFORE_APPEND: &str = "wal.before_append";
/// Fault point: a crash after the record bytes reached the file but before
/// `fsync` made them durable — the unsynced tail is lost, so on disk this
/// is indistinguishable from [`FP_WAL_BEFORE_APPEND`].
pub const FP_WAL_AFTER_APPEND: &str = "wal.after_append_before_fsync";
/// Fault point: a crash mid-record — a torn tail of partial record bytes is
/// left in the log for recovery's truncation scan to find.
pub const FP_WAL_TORN_TAIL: &str = "wal.torn_tail";
/// Fault point: a crash while writing a checkpoint segment, leaving a
/// partial temp segment that recovery must ignore in favor of the previous
/// complete checkpoint.
pub const FP_WAL_MID_CHECKPOINT: &str = "wal.mid_checkpoint";

/// All fault points the pipeline exposes, in a fixed order (used by tests
/// and by spec validation).
pub const FAULT_POINTS: [&str; 10] = [
    FP_SAMPLE_DRAW,
    FP_SAMPLECACHE_COMMIT,
    FP_COLLECT_WORKER,
    FP_ARCHIVE_READ,
    FP_ARCHIVE_WRITE,
    FP_HISTORY_READ,
    FP_WAL_BEFORE_APPEND,
    FP_WAL_AFTER_APPEND,
    FP_WAL_TORN_TAIL,
    FP_WAL_MID_CHECKPOINT,
];

/// Upper bound on retry attempts at transient fault points. Attempt numbers
/// run `0..RETRY_LIMIT`; a fault that still fires at attempt
/// `RETRY_LIMIT - 1` exhausts the retry budget and the caller degrades.
pub const RETRY_LIMIT: u32 = 3;

/// Builds the decision key for a point scoped below the statement level:
/// `clock` identifies the statement, `unit` the quantifier / candidate
/// ordinal within it. The multiplier keeps per-statement units disjoint for
/// any realistic unit count.
#[inline]
pub fn fault_key(clock: u64, unit: u64) -> u64 {
    clock.wrapping_mul(1024).wrapping_add(unit)
}

/// When, within the key stream of one fault point, the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Fire exactly when the decision key equals `n`.
    Once(u64),
    /// Fire on roughly one key in `k`, selected by a salted hash of the key
    /// so distinct points (and distinct seeds) pick distinct key sets.
    EveryK(u64),
    /// Fire on every key `>= n`.
    AfterN(u64),
}

/// One parsed `point=mode:arg[:attempts]` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The named fault point this clause arms.
    pub point: String,
    /// When the fault fires within the point's key stream.
    pub schedule: FaultSchedule,
    /// How many retry attempts observe the fault before it clears.
    /// `u32::MAX` (spelled `inf` in the grammar) never clears.
    pub max_attempts: u32,
}

#[derive(Debug)]
struct ArmedPoint {
    spec: FaultSpec,
    /// Per-point salt drawn from the seeded RNG stream; decorrelates
    /// `every:k` key selection across points sharing a seed.
    salt: u64,
}

#[derive(Debug)]
struct Inner {
    points: Vec<ArmedPoint>,
}

/// Handle threaded through the pipeline's context structs. Cloning is an
/// `Option<Arc>` copy; the disabled plane is a `None` whose checks compile
/// to constant false.
#[derive(Debug, Clone, Default)]
pub struct FaultPlane {
    inner: Option<std::sync::Arc<Inner>>,
}

/// FNV-1a over the point name: stable, dependency-free hash for deriving
/// per-point salt streams from the plane seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Mixes a decision key through SplitMix64's finalizer (one fixed step of
/// the stream seeded at `key ^ salt`), giving `every:k` selection that is
/// uniform and point-specific.
fn mix(key: u64, salt: u64) -> u64 {
    SplitMix64::new(key ^ salt).next_u64()
}

impl FaultPlane {
    /// The no-op plane: every `fires` check is constant false.
    #[inline]
    pub fn disabled() -> Self {
        FaultPlane { inner: None }
    }

    /// Arms the plane with parsed specs. Per-point salts are drawn from the
    /// seeded RNG stream (`SplitMix64::new(seed ^ fnv(point))`), keeping
    /// every downstream decision a pure function of the seed.
    pub fn enabled(seed: u64, specs: Vec<FaultSpec>) -> Self {
        let points = specs
            .into_iter()
            .map(|spec| {
                let salt = SplitMix64::new(seed ^ fnv1a(&spec.point)).next_u64();
                ArmedPoint { spec, salt }
            })
            .collect();
        FaultPlane {
            inner: Some(std::sync::Arc::new(Inner { points })),
        }
    }

    /// Parses a comma-separated spec string and arms the plane. Returns a
    /// human-readable error naming the offending clause on bad input.
    pub fn from_spec(seed: u64, spec: &str) -> Result<Self, String> {
        Ok(FaultPlane::enabled(seed, parse_spec(spec)?))
    }

    /// True when at least one fault point is armed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Does `point` fail on `key` at retry `attempt`? Pure in all three
    /// arguments (plus the construction seed); thread-count independent by
    /// construction. Attempt numbers start at 0; transient faults (default
    /// `max_attempts` 1) clear on the first retry, persistent faults
    /// (`inf`) never clear.
    #[inline]
    pub fn fires(&self, point: &str, key: u64, attempt: u32) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        inner.points.iter().any(|p| {
            p.spec.point == point
                && attempt < p.spec.max_attempts
                && match p.spec.schedule {
                    FaultSchedule::Once(n) => key == n,
                    FaultSchedule::EveryK(k) => mix(key, p.salt).is_multiple_of(k),
                    FaultSchedule::AfterN(n) => key >= n,
                }
        })
    }

    /// Runs the bounded-retry protocol for a transient point: returns
    /// `(cleared, attempts_used)` where `attempts_used` counts the failed
    /// attempts (0 when the point never fired). `cleared == false` means
    /// the fault persisted through [`RETRY_LIMIT`] attempts and the caller
    /// must take its degradation path. Deterministic backoff is the
    /// caller's job: charge `1 << attempt` work units per failed attempt —
    /// never sleep.
    #[inline]
    pub fn retry(&self, point: &str, key: u64) -> (bool, u32) {
        if self.inner.is_none() {
            return (true, 0);
        }
        for attempt in 0..RETRY_LIMIT {
            if !self.fires(point, key, attempt) {
                return (true, attempt);
            }
        }
        (false, RETRY_LIMIT)
    }
}

/// Parses the `point=mode:arg[:attempts]` grammar (comma-separated
/// clauses). Unknown points, modes, and malformed numbers are errors; the
/// message names the offending clause so CLI users can fix their flag.
pub fn parse_spec(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (point, rest) = clause
            .split_once('=')
            .ok_or_else(|| format!("fault clause `{clause}`: expected point=mode:arg"))?;
        let point = point.trim();
        if !FAULT_POINTS.contains(&point) {
            return Err(format!(
                "fault clause `{clause}`: unknown point `{point}` (expected one of {})",
                FAULT_POINTS.join(", ")
            ));
        }
        let mut parts = rest.split(':');
        let mode = parts.next().unwrap_or("").trim();
        let arg = parts
            .next()
            .ok_or_else(|| format!("fault clause `{clause}`: missing `:arg` after mode"))?
            .trim();
        let n: u64 = arg
            .parse()
            .map_err(|_| format!("fault clause `{clause}`: bad number `{arg}`"))?;
        let schedule = match mode {
            "once" => FaultSchedule::Once(n),
            "every" => {
                if n == 0 {
                    return Err(format!("fault clause `{clause}`: every:k needs k >= 1"));
                }
                FaultSchedule::EveryK(n)
            }
            "after" => FaultSchedule::AfterN(n),
            other => {
                return Err(format!(
                    "fault clause `{clause}`: unknown mode `{other}` (expected once/every/after)"
                ))
            }
        };
        let max_attempts = match parts.next().map(str::trim) {
            None => 1,
            Some("inf") => u32::MAX,
            Some(a) => a
                .parse::<u32>()
                .map_err(|_| format!("fault clause `{clause}`: bad attempts `{a}`"))?,
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "fault clause `{clause}`: trailing `:{extra}` not understood"
            ));
        }
        out.push(FaultSpec {
            point: point.to_string(),
            schedule,
            max_attempts,
        });
    }
    if out.is_empty() {
        return Err("fault spec is empty".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_fires() {
        let plane = FaultPlane::disabled();
        assert!(!plane.is_enabled());
        for point in FAULT_POINTS {
            for key in 0..64 {
                assert!(!plane.fires(point, key, 0));
            }
        }
        assert_eq!(plane.retry(FP_SAMPLE_DRAW, 7), (true, 0));
    }

    #[test]
    fn once_fires_on_exact_key_only() {
        let plane = FaultPlane::from_spec(1, "sample.draw=once:5").unwrap();
        for key in 0..32 {
            assert_eq!(plane.fires(FP_SAMPLE_DRAW, key, 0), key == 5);
        }
        // other points untouched
        assert!(!plane.fires(FP_ARCHIVE_READ, 5, 0));
    }

    #[test]
    fn after_fires_from_threshold_on() {
        let plane = FaultPlane::from_spec(1, "collect.worker=after:10").unwrap();
        for key in 0..32 {
            assert_eq!(plane.fires(FP_COLLECT_WORKER, key, 0), key >= 10);
        }
    }

    #[test]
    fn every_k_is_seed_stable_and_roughly_one_in_k() {
        let a = FaultPlane::from_spec(42, "archive.read=every:4").unwrap();
        let b = FaultPlane::from_spec(42, "archive.read=every:4").unwrap();
        let mut hits = 0;
        for key in 0..4000 {
            let fa = a.fires(FP_ARCHIVE_READ, key, 0);
            assert_eq!(fa, b.fires(FP_ARCHIVE_READ, key, 0), "key {key}");
            hits += fa as u32;
        }
        // expect ~1000; tolerate wide slack (hash, not stratified)
        assert!((700..1300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn every_k_decorrelates_across_points_and_seeds() {
        let plane = FaultPlane::from_spec(7, "sample.draw=every:3,archive.read=every:3").unwrap();
        let other_seed = FaultPlane::from_spec(8, "sample.draw=every:3").unwrap();
        let mut same_point = 0;
        let mut same_seed = 0;
        for key in 0..512 {
            let s = plane.fires(FP_SAMPLE_DRAW, key, 0);
            same_point += (s == plane.fires(FP_ARCHIVE_READ, key, 0)) as u32;
            same_seed += (s == other_seed.fires(FP_SAMPLE_DRAW, key, 0)) as u32;
        }
        // identical salts would agree on all 512 keys
        assert!(same_point < 512, "points share firing keys");
        assert!(same_seed < 512, "seeds share firing keys");
    }

    #[test]
    fn transient_fault_clears_on_first_retry() {
        let plane = FaultPlane::from_spec(3, "history.read=once:2").unwrap();
        assert!(plane.fires(FP_HISTORY_READ, 2, 0));
        assert!(!plane.fires(FP_HISTORY_READ, 2, 1));
        assert_eq!(plane.retry(FP_HISTORY_READ, 2), (true, 1));
        assert_eq!(plane.retry(FP_HISTORY_READ, 3), (true, 0));
    }

    #[test]
    fn persistent_fault_exhausts_retry() {
        let plane = FaultPlane::from_spec(3, "history.read=once:2:inf").unwrap();
        for attempt in 0..10 {
            assert!(plane.fires(FP_HISTORY_READ, 2, attempt));
        }
        assert_eq!(plane.retry(FP_HISTORY_READ, 2), (false, RETRY_LIMIT));
    }

    #[test]
    fn bounded_attempts_clear_exactly_when_specified() {
        let plane = FaultPlane::from_spec(3, "archive.read=once:4:2").unwrap();
        assert!(plane.fires(FP_ARCHIVE_READ, 4, 0));
        assert!(plane.fires(FP_ARCHIVE_READ, 4, 1));
        assert!(!plane.fires(FP_ARCHIVE_READ, 4, 2));
        assert_eq!(plane.retry(FP_ARCHIVE_READ, 4), (true, 2));
    }

    #[test]
    fn spec_parser_rejects_malformed_clauses() {
        for bad in [
            "",
            "sample.draw",
            "sample.draw=once",
            "sample.draw=sometimes:3",
            "sample.draw=once:x",
            "sample.draw=every:0",
            "sample.draw=once:1:maybe",
            "sample.draw=once:1:2:3",
            "nosuch.point=once:1",
        ] {
            assert!(parse_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn spec_parser_accepts_full_grammar() {
        let specs =
            parse_spec("sample.draw=once:5, archive.write=every:3:inf,history.read=after:2:2")
                .unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].schedule, FaultSchedule::Once(5));
        assert_eq!(specs[0].max_attempts, 1);
        assert_eq!(specs[1].schedule, FaultSchedule::EveryK(3));
        assert_eq!(specs[1].max_attempts, u32::MAX);
        assert_eq!(specs[2].schedule, FaultSchedule::AfterN(2));
        assert_eq!(specs[2].max_attempts, 2);
    }

    #[test]
    fn fault_key_separates_statement_and_unit() {
        assert_ne!(fault_key(1, 0), fault_key(2, 0));
        assert_ne!(fault_key(1, 0), fault_key(1, 1));
        assert_eq!(fault_key(3, 7), 3 * 1024 + 7);
    }
}

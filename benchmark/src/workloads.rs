//! The four workloads: what one round runs, and why each exists.
//!
//! A run is a number of *rounds*. Round `r` builds a fresh database from
//! `seed + r`, replays its statement stream once, and is dropped. Rounds are
//! required: the `workload` crate sizes insert bursts as `table_rows / 150`,
//! so one long stream grows the tables geometrically, and thousands of
//! single-row UPDATEs against one database grow its memory without bound.
//! A round stays within 1 680 statements of the paper mix and 2 000 DML.

use crate::layers::{self, Rng, Stats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    Insert,
    Update,
    Delete,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub sql: String,
    pub kind: Kind,
}

impl Op {
    fn new(sql: String) -> Op {
        let kind = match sql.as_bytes().first() {
            Some(b'I') => Kind::Insert,
            Some(b'U') => Kind::Update,
            Some(b'D') => Kind::Delete,
            _ => Kind::Select,
        };
        Op { sql, kind }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The `workload` crate's stream: the paper's twelve query templates and
    /// six DML batches, every `dml_every`-th statement a DML batch.
    Paper { dml_every: usize },
    /// Benchmark-generated key lookups on the same schema.
    Lookup,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Fraction of the paper's Table 2 row counts.
    pub scale: f64,
    /// Statements per round.
    pub ops: usize,
    pub mix: Mix,
    pub stats: Stats,
    /// `Database::open` on a directory, then drop and open again.
    pub durable: bool,
    /// Seconds one round's statements take on the 2-core sizing box; turns
    /// `--seconds` into a number of rounds, so that the work of a run is
    /// fixed by its arguments and not by the speed of the commit under test.
    pub round_seconds: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_mix",
        why: "The paper's Fig. 3 experiment in wall-clock: scans and joins in executor/storage \
              do ~97% of the work, the JITS compile pipeline ~2%.",
        scale: 0.05,
        ops: 840,
        mix: Mix::Paper { dml_every: 12 },
        stats: Stats::Jits { s_max: None },
        durable: false,
        round_seconds: 8.0,
    },
    Workload {
        name: "stats_churn",
        why: "Fig. 6's always-collect end (s_max = 0) on tiny tables: compile layers do the \
              work, so histogram/jits/sample-cache changes show here and not on paper_mix.",
        scale: 0.001,
        ops: 840,
        mix: Mix::Paper { dml_every: 4 },
        stats: Stats::Jits { s_max: Some(0.0) },
        durable: false,
        round_seconds: 0.4,
    },
    Workload {
        name: "point_lookup",
        why: "Index and hash probes and zone-map pruning, not scans: SELECT latency is \
              fixed per-statement cost, DML ~55% of the wall. A kernel speed-up must not move \
              it; removing hash twins must not slow it.",
        scale: 0.05,
        ops: 40_000,
        mix: Mix::Lookup,
        stats: Stats::Jits { s_max: None },
        durable: false,
        round_seconds: 2.6,
    },
    Workload {
        name: "durable_churn",
        why: "Writes beside reads on a durable database: WAL append, fuzzy checkpoints, index \
              and zone-map upkeep, restart. A read-path gain that costs the write path shows \
              here.",
        scale: 0.02,
        ops: 1_680,
        mix: Mix::Paper { dml_every: 3 },
        stats: Stats::Jits { s_max: None },
        durable: true,
        round_seconds: 7.5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` shape: a tenth of the statements on a tenth of the data
    /// (tables never smaller than `stats_churn`'s).
    pub fn quick(mut self) -> Workload {
        self.ops = (self.ops / 10).max(40);
        self.scale = (self.scale / 10.0).max(0.001);
        self.round_seconds /= 10.0;
        self
    }

    /// The warm-up shape: the full data, a tenth of the statements.
    pub fn warm_up(mut self) -> Workload {
        self.ops = (self.ops / 10).max(40);
        self
    }

    /// The fewest rounds that fill `seconds` on the sizing box.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        ((seconds / self.round_seconds).ceil() as usize).max(1)
    }

    /// The statements of the round with this seed.
    pub fn statements(&self, seed: u64) -> Vec<Op> {
        match self.mix {
            Mix::Paper { dml_every } => layers::paper_stream(self.scale, self.ops, dml_every, seed)
                .into_iter()
                .map(Op::new)
                .collect(),
            Mix::Lookup => lookup_stream(self.scale, self.ops, seed),
        }
    }
}

/// Key lookups with uniformly drawn keys. Every 20th statement is DML: 48 in
/// 50 a primary-key `UPDATE`, the others a single-row `INSERT` into
/// `accidents` and the `DELETE` of a row inserted earlier, so the tables
/// keep their size and `dml_p90_ms` stays well inside the UPDATEs. One select
/// in sixteen is a key-bound four-table join, so that every statement class
/// the per-layer metrics split by occurs here.
///
/// One select in fifty asks for a seventh of the ids (30 000) and not for
/// 2 000, and takes about 0.25 ms, so that `select_p99_ms` is the median of
/// that class. Without it the 99th percentile of 20 us statements is the tail
/// that timer ticks and the neighbours on a shared host put on them: 55 us in
/// a quiet round, 130 us in a noisy round of the same run. The wide range is
/// a sequential scan of the blocks the zone maps leave, the work whose time
/// the host moves least: between the fastest and the slowest of ten runs the
/// 2 000-id range moved 9%, a join by 200 index probes 30%.
fn lookup_stream(scale: f64, ops: usize, seed: u64) -> Vec<Op> {
    let [cars, owners, _, accidents] = layers::row_counts(scale);
    let wide = accidents / 7;
    let mut rng = Rng::new(seed);
    let mut next_accident = accidents as i64;
    let mut inserted: Vec<i64> = Vec::new();
    let mut dml = 0usize;
    (0..ops)
        .map(|i| {
            if i % 20 == 19 {
                dml += 1;
                return Op::new(match dml % 50 {
                    4 => {
                        let id = next_accident;
                        next_accident += 1;
                        inserted.push(id);
                        let car = rng.below(cars);
                        let damage = 500 + rng.below(20_000);
                        format!(
                            "INSERT INTO accidents VALUES ({id}, {car}, 'driver{}', {damage}, 2006)",
                            id % 997
                        )
                    }
                    49 if !inserted.is_empty() => {
                        format!("DELETE FROM accidents WHERE id = {}", inserted.remove(0))
                    }
                    _ => format!(
                        "UPDATE owner SET salary = {} WHERE id = {}",
                        20_000 + rng.below(80_000),
                        rng.below(owners)
                    ),
                });
            }
            if rng.below(50) == 0 {
                let lo = rng.below(accidents - wide);
                return Op::new(format!(
                    "SELECT COUNT(*) FROM accidents WHERE id BETWEEN {lo} AND {}",
                    lo + wide as i64 - 1
                ));
            }
            Op::new(match rng.below(16) {
                0..=3 => format!("SELECT name, salary FROM owner WHERE id = {}", rng.below(owners)),
                4..=6 => {
                    let lo = rng.below(accidents.saturating_sub(2_000));
                    format!(
                        "SELECT COUNT(*) FROM accidents WHERE id BETWEEN {lo} AND {}",
                        lo + 1_999
                    )
                }
                7..=9 => format!(
                    "SELECT c.make, o.name FROM car c, owner o \
                     WHERE c.ownerid = o.id AND c.id = {}",
                    rng.below(cars)
                ),
                10..=12 => format!(
                    "SELECT COUNT(*), AVG(damage) FROM accidents WHERE carid = {}",
                    rng.below(cars)
                ),
                13..=14 => {
                    let lo = rng.below(cars.saturating_sub(50));
                    format!("SELECT make, model FROM car WHERE id BETWEEN {lo} AND {}", lo + 49)
                }
                _ => format!(
                    "SELECT o.name, d.city, a.damage \
                     FROM car c, owner o, demographics d, accidents a \
                     WHERE c.ownerid = o.id AND d.ownerid = o.id AND a.carid = c.id \
                     AND c.id = {}",
                    rng.below(cars)
                ),
            })
        })
        .collect()
}

/// Twenty fixed SELECTs a durable round answers before it closes and again
/// after it restarts; the answers must be the same.
pub fn verification_selects() -> Vec<String> {
    let mut out = Vec::new();
    for year in 2000..2007 {
        out.push(format!(
            "SELECT COUNT(*), SUM(damage) FROM accidents WHERE year = {year}"
        ));
    }
    for year in [1992, 1995, 1998, 2001, 2004, 2006] {
        out.push(format!(
            "SELECT COUNT(*), AVG(price) FROM car WHERE year = {year}"
        ));
    }
    for salary in [30_000, 50_000, 70_000, 90_000] {
        out.push(format!(
            "SELECT COUNT(*), SUM(age) FROM owner WHERE salary > {salary}"
        ));
    }
    out.push("SELECT country, COUNT(*) FROM demographics GROUP BY country".into());
    out.push("SELECT make, COUNT(*) FROM car GROUP BY make".into());
    out.push("SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND o.age > 60".into());
    out
}

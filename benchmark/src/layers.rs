//! The only file of the benchmark that calls into `crates/*`.
//!
//! Everything else works on the plain types defined here, so a signature
//! change in the repository is a one-file fix. Only API the ROADMAP does not
//! plan to delete is used: no `set_batch_executor`, `set_data_skipping`,
//! `set_profiling`, no `*_for_test`.
//!
//! The program under test never sees the benchmark's seed. It gets a fixed
//! engine seed, data made by the `workload` crate's generator, and SQL text.

use crate::trace::Recorder;
use jits::JitsConfig;
use jits_catalog::{runstats, RunstatsOptions};
use jits_common::{ColumnId, FaultPlane, Interval, SplitMix64, TestDir, Value};
use jits_engine::Database;
use jits_histogram::{GridHistogram, Region};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
};
use jits_query::{bind_statement, parse, BoundStatement};
use jits_storage::{sample_rows_budgeted, SampleFrame, SampleSpec, Table};
use jits_wal::{Wal, WalRecord};
use jits_workload::{
    create_schema, generate_workload, populate, prepare, DataGenConfig, Setting, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seed of the engine's own sampling RNG, the same in every run.
const ENGINE_SEED: u64 = 0xD1B;

/// Which statistics the database under test plans with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stats {
    /// `Setting::Jits` with the default configuration, or with `s_max`
    /// replaced.
    Jits { s_max: Option<f64> },
    /// RUNSTATS on every table, JITS off: other plans, the same answers.
    General,
}

/// Row counts of the four tables at `scale`, in `car, owner, demographics,
/// accidents` order; ids run from 0.
pub fn row_counts(scale: f64) -> [usize; 4] {
    DataGenConfig { scale, seed: 0 }.row_counts()
}

/// The `workload` crate's statement stream (the paper's query and DML mix).
pub fn paper_stream(scale: f64, ops: usize, dml_every: usize, seed: u64) -> Vec<String> {
    let spec = WorkloadSpec {
        total_ops: ops,
        dml_every,
        seed,
    };
    generate_workload(&spec, &DataGenConfig { scale, seed })
        .into_iter()
        .map(|op| op.sql)
        .collect()
}

/// The repository's SplitMix64, for the statement streams the benchmark
/// generates itself.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(SplitMix64::new(seed))
    }

    /// Uniform in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: usize) -> i64 {
        self.0.next_bounded(n.max(1) as u64) as i64
    }
}

/// What one result set looked like, compared between two databases that ran
/// the same statements with different plans: row count, an order-insensitive
/// hash of every non-float cell, and the sum of the float cells (compared
/// with a relative tolerance, because summation order follows the plan).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
    pub float_sum: f64,
}

impl Digest {
    fn of(rows: &[Vec<Value>], affected: usize) -> Digest {
        let mut d = Digest {
            rows: affected as u64,
            ..Digest::default()
        };
        for row in rows {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut eat = |bytes: &[u8]| {
                for b in bytes {
                    h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for cell in row {
                match cell {
                    Value::Null => eat(&[0]),
                    Value::Int(i) => {
                        eat(&[1]);
                        eat(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        eat(&[2]);
                        d.float_sum += f;
                    }
                    Value::Str(s) => {
                        eat(&[3]);
                        eat(s.as_bytes());
                        eat(&[0xff]);
                    }
                }
            }
            d.hash = d.hash.wrapping_add(h);
        }
        d
    }

    pub fn matches(&self, other: &Digest) -> bool {
        let tol = 1e-9 * self.float_sum.abs().max(other.float_sum.abs());
        self.rows == other.rows
            && self.hash == other.hash
            && (self.float_sum - other.float_sum).abs() <= tol
    }
}

/// One executed statement: the benchmark's own wall time around
/// `Database::execute`, and the `QueryMetrics` the call returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stmt {
    pub ok: bool,
    pub wall_ns: u64,
    pub compile_ns: u64,
    pub exec_ns: u64,
    pub analyze_ns: u64,
    pub sensitivity_ns: u64,
    pub collect_ns: u64,
    pub refine_ns: u64,
    pub lock_wait_ns: u64,
    pub compile_sim: f64,
    pub exec_sim: f64,
    pub exec_work: f64,
    /// Tables in the chosen plan (0 for DML).
    pub tables: u32,
    pub sampled_tables: u32,
    pub degraded: bool,
    pub digest: Digest,
}

impl Stmt {
    /// `QueryMetrics::total_sim()`, the paper's unit.
    pub fn total_sim(&self) -> f64 {
        self.compile_sim + self.exec_sim
    }
}

/// What a restart of a durable database cost and found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Restart {
    /// Dropping the database: the final group-commit flush and fsync.
    pub close_s: f64,
    /// `Database::open` on the directory: checkpoint load and log replay.
    pub open_s: f64,
    pub replayed_records: u64,
    pub replay_errors: u64,
}

/// A database under test, in memory or durable in a scratch directory.
pub struct Engine {
    db: Option<Database>,
    dir: Option<TestDir>,
}

impl Engine {
    /// Creates the schema, loads the generated data and applies the
    /// statistics setting. `durable` names the scratch directory; `TestDir`
    /// puts it under `CARGO_TARGET_DIR`, inside the checkout, and removes it
    /// on drop.
    pub fn build(
        scale: f64,
        data_seed: u64,
        stats: Stats,
        durable: Option<&str>,
    ) -> Result<Engine, String> {
        let dir = durable.map(TestDir::new);
        let mut db = match &dir {
            Some(d) => Database::open(ENGINE_SEED, d.path()).map_err(|e| e.to_string())?,
            None => Database::new(ENGINE_SEED),
        };
        create_schema(&mut db).map_err(|e| e.to_string())?;
        let data = DataGenConfig {
            scale,
            seed: data_seed,
        };
        populate(&mut db, &data).map_err(|e| e.to_string())?;
        let setting = match stats {
            Stats::Jits { s_max: None } => Setting::Jits(JitsConfig::default()),
            Stats::Jits { s_max: Some(s_max) } => Setting::Jits(JitsConfig {
                s_max,
                ..JitsConfig::default()
            }),
            Stats::General => Setting::GeneralStats,
        };
        prepare(&mut db, &setting, &[]).map_err(|e| e.to_string())?;
        Ok(Engine { db: Some(db), dir })
    }

    fn db(&self) -> &Database {
        self.db.as_ref().expect("database is open")
    }

    fn db_mut(&mut self) -> &mut Database {
        self.db.as_mut().expect("database is open")
    }

    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// Runs one statement. The clock stops when `execute` returns; the
    /// digest is computed after that.
    pub fn exec(&mut self, sql: &str, digest: bool) -> Stmt {
        let db = self.db_mut();
        let start = Instant::now();
        let result = db.execute(black_box(sql));
        let wall_ns = start.elapsed().as_nanos() as u64;
        let Ok(result) = result else {
            return Stmt {
                wall_ns,
                ..Stmt::default()
            };
        };
        let m = &result.metrics;
        Stmt {
            ok: true,
            wall_ns,
            compile_ns: m.compile_wall.as_nanos() as u64,
            exec_ns: m.exec_wall.as_nanos() as u64,
            analyze_ns: m.analyze_wall.as_nanos() as u64,
            sensitivity_ns: m.sensitivity_wall.as_nanos() as u64,
            collect_ns: m.collect_wall.as_nanos() as u64,
            refine_ns: m.refine_wall.as_nanos() as u64,
            lock_wait_ns: m.lock_wait.as_nanos() as u64,
            compile_sim: m.compile_sim(),
            exec_sim: m.exec_sim(),
            exec_work: m.exec_work,
            tables: m.plan.as_ref().map_or(0, |p| p.qun_order.len() as u32),
            sampled_tables: m.sampled_tables as u32,
            degraded: m.degraded,
            digest: if digest {
                Digest::of(&result.rows, m.result_rows)
            } else {
                Digest::default()
            },
        }
    }

    /// The metrics registry as a flat map: counters and gauges by name,
    /// histograms as `<name>.count` and `<name>.sum`.
    pub fn registry(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let Ok(doc) = crate::stats::Json::parse(&self.db().metrics_json(true)) else {
            return out;
        };
        for (name, m) in doc.as_obj().into_iter().flatten() {
            let field = |k: &str| m.get(k).and_then(|v| v.as_f64()).map(|v| v as u64);
            if let Some(v) = field("value") {
                out.insert(name.clone(), v);
            } else {
                out.insert(format!("{name}.count"), field("count").unwrap_or(0));
                out.insert(format!("{name}.sum"), field("sum").unwrap_or(0));
            }
        }
        out
    }

    /// An explicit checkpoint; returns its wall seconds.
    pub fn checkpoint(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        self.db_mut().checkpoint().map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// Bytes the durable database holds on disk (log plus checkpoints).
    pub fn disk_bytes(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        std::fs::read_dir(dir.path())
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Drops the durable database and opens its directory again.
    pub fn restart(&mut self) -> Result<Restart, String> {
        let dir = self
            .dir
            .as_ref()
            .ok_or("restart needs a durable database")?;
        let start = Instant::now();
        drop(self.db.take());
        let close_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let db = Database::open(ENGINE_SEED, dir.path()).map_err(|e| e.to_string())?;
        let open_s = start.elapsed().as_secs_f64();
        let report = db.recovery_report().clone();
        self.db = Some(db);
        Ok(Restart {
            close_s,
            open_s,
            replayed_records: report.replayed_records,
            replay_errors: report.replay_errors,
        })
    }

    /// Times public functions of the crates below `engine` on this
    /// database's tables, catalog and archive, and on `sqls`, the statements
    /// it has just run. One or two calls per layer; each span is named after
    /// the per-layer metric it feeds.
    pub fn probe_layers(&self, sqls: &[&str], scratch: &str, rec: &mut Recorder) {
        let db = self.db();
        probe_query_and_optimizer(db, sqls, rec);
        probe_storage(db.tables(), rec);
        probe_histogram(db, rec);
        let clock = db.clock();
        rec.time("catalog.runstats", 1, || {
            for t in db.tables() {
                black_box(runstats(t, RunstatsOptions::default(), clock));
            }
        });
        probe_wal(sqls, TestDir::new(scratch).path(), rec);
    }
}

/// At most `cap` items of `all`, evenly spaced, so a probe costs the same on
/// a 40 000-statement round as on an 840-statement one.
fn strided<T>(all: &[T], cap: usize) -> impl Iterator<Item = &T> {
    all.iter().step_by(all.len().div_ceil(cap).max(1))
}

fn probe_query_and_optimizer(db: &Database, sqls: &[&str], rec: &mut Recorder) {
    let catalog = db.catalog();
    let mut seen = BTreeSet::new();
    let mut blocks = Vec::new();
    for sql in strided(sqls, 2_000) {
        let Ok(stmt) = rec.time("query.parse", 1, || parse(black_box(sql))) else {
            continue;
        };
        let bound = rec.time("query.bind", 1, || bind_statement(&stmt, catalog));
        if let Ok(BoundStatement::Select(block)) = bound {
            if blocks.len() < 400 && seen.insert(*sql) {
                blocks.push(block);
            }
        }
    }
    let provider = CatalogStatisticsProvider::new(catalog);
    let estimator = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
    let cost = CostModel::default();
    for block in &blocks {
        let start = Instant::now();
        black_box(optimize(block, &estimator, &cost, catalog)).ok();
        let dur = start.elapsed().as_nanos() as u64;
        rec.push("optimizer.optimize", dur);
        if block.quns.len() >= 4 {
            rec.push("optimizer.optimize_4way", dur);
        }
    }
}

fn probe_storage(tables: &[Table], rec: &mut Recorder) {
    let mut rng = SplitMix64::new(ENGINE_SEED);
    for t in tables {
        let cols: Vec<ColumnId> = (0..t.schema().len() as u32).map(ColumnId).collect();
        for _ in 0..8 {
            let draw = rec.time("storage.sample_draw", 1, || {
                sample_rows_budgeted(t, SampleSpec::default(), &mut rng, 0)
            });
            rec.time("storage.frame_gather", 1, || {
                black_box(SampleFrame::gather(t, &draw.rows, &cols));
            });
        }
    }

    // `accidents.id` is loaded in ascending order, so a 2 000-id range
    // leaves two or three 1 024-row blocks and prunes the rest.
    if let Some(acc) = tables.iter().find(|t| t.name() == "accidents") {
        let slots = acc.slot_count() as u64;
        for _ in 0..256 {
            let lo = rng.next_bounded(slots.max(1)) as i64;
            let constraint = [(
                ColumnId(0),
                Interval::between(Value::Int(lo), Value::Int(lo + 1_999)),
            )];
            rec.time("storage.skip_list", 1, || {
                black_box(acc.skip_list(&constraint));
            });
        }
    }

    if let Some(car) = tables.iter().find(|t| t.name() == "car") {
        let slots = car.slot_count() as u64;
        let keys: Vec<Value> = (0..1_024)
            .map(|_| Value::Int(rng.next_bounded(slots.max(1)) as i64))
            .collect();
        if let (Some(hash), Some(btree)) = (car.hash_index(ColumnId(0)), car.index(ColumnId(0))) {
            for _ in 0..64 {
                rec.time("storage.hash_probe", keys.len() as u32, || {
                    for k in &keys {
                        black_box(hash.lookup_eq(black_box(k)));
                    }
                });
                rec.time("storage.btree_probe", keys.len() as u32, || {
                    for k in &keys {
                        black_box(btree.lookup_eq(black_box(k)));
                    }
                });
            }
        }
    }

    // Row writes go to a copy, so the database under test keeps the state
    // the statements left.
    if let Some(owner) = tables.iter().find(|t| t.name() == "owner") {
        let Ok(mut copy) = Table::from_snapshot(owner.snapshot()) else {
            return;
        };
        let slots = copy.slot_count() as u64;
        for i in 0..1_024 {
            let row = rng.next_bounded(slots.max(1)) as u32;
            let salary = Value::Int(20_000 + i);
            rec.time("storage.row_update", 1, || {
                black_box(copy.update(row, ColumnId(3), salary).ok());
            });
        }
        for i in 0..1_024 {
            let id = slots as i64 + i;
            let row = vec![
                Value::Int(id),
                Value::str(format!("owner{id}")),
                Value::Int(40),
                Value::Int(50_000),
            ];
            rec.time("storage.row_insert", 1, || {
                black_box(copy.insert(row).ok());
            });
        }
    }
}

fn probe_histogram(db: &Database, rec: &mut Recorder) {
    for (_, h) in db.archive().iter() {
        let mut copy = GridHistogram::from_snapshot(h.snapshot());
        rec.time("histogram.fit", 1, || {
            black_box(copy.fit());
        });
        // the lower half of the histogram's frame in every dimension
        let half = Region::new(
            h.frame()
                .ranges()
                .iter()
                .map(|(lo, hi)| (*lo, lo + (hi - lo) / 2.0))
                .collect(),
        );
        rec.time("histogram.selectivity", 256, || {
            for _ in 0..256 {
                black_box(h.selectivity(black_box(&half)));
            }
        });
    }
}

fn probe_wal(sqls: &[&str], dir: &Path, rec: &mut Recorder) {
    let Ok(opened) = Wal::open(dir) else { return };
    let mut wal = opened.wal;
    let fault = FaultPlane::disabled();
    for sql in strided(sqls, 2_000) {
        let record = WalRecord::Statement {
            sql: (*sql).to_string(),
        };
        rec.time("wal.append", 1, || {
            black_box(wal.append(&record, &fault, 0).ok());
        });
    }
}

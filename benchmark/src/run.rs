//! One run of one workload: warm-up, measured rounds, answer checks, and the
//! traced pass that yields the per-layer numbers.
//!
//! One closed-loop client on one thread sends each statement after the
//! previous one returned (`collect_threads` stays at its default of 1).
//! End-to-end numbers come from untraced rounds timed around
//! `Database::execute`; the traced pass replays round 0 on a fresh database.

use crate::layers::{Engine, Restart, Stats, Stmt};
use crate::metrics::{Metric, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;
use crate::workloads::{verification_selects, Kind, Op, Workload};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics.
    Layers,
    /// No `--trace`: both, end-to-end first.
    Both,
}

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub rounds: usize,
    pub pass: Pass,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured rounds; none when only the traced pass ran.
    pub rounds: usize,
    /// Statements run in measured rounds plus answer checks made.
    pub attempted: u64,
    /// Statements that returned `Err` plus answer checks that failed.
    pub failed: u64,
    /// What failed, for the reader of the log.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Counts statement errors and answer-check misses against attempts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    fn statements(&mut self, scope: &str, round: &Round) {
        for (i, (op, s)) in round.ops.iter().zip(&round.stmts).enumerate() {
            self.check(s.ok, || {
                format!("{scope}: statement {i} failed: {}", op.sql)
            });
        }
    }
}

/// What the traced pass records about a round beyond its statements.
struct Traced {
    rec: Recorder,
    before: BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
    explicit_checkpoint_s: f64,
    /// Payload of the newest checkpoint.
    checkpoint_bytes: u64,
    disk_bytes: u64,
}

impl Traced {
    fn delta(&self, name: &str) -> f64 {
        let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    fn after(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0) as f64
    }
}

#[derive(Clone, Copy)]
struct RoundSpec<'a> {
    shape: Workload,
    seed: u64,
    stats: Stats,
    durable: bool,
    digest: bool,
    /// Run every DML statement but only every n-th SELECT (1 = all of them).
    select_every: usize,
    /// Record spans and registry snapshots, and run the per-layer probes on
    /// the database the round leaves.
    trace: bool,
    scope: &'a str,
}

/// A finished round.
struct Round {
    /// The statements that ran, and where each sits in the round's stream.
    ops: Vec<Op>,
    positions: Vec<usize>,
    stmts: Vec<Stmt>,
    setup_s: f64,
    /// Wall of the statement loop as a whole, digests and tracing included.
    loop_s: f64,
    /// The close and reopen at the end of a durable round.
    restart: Option<Restart>,
    traced: Option<Traced>,
}

impl Round {
    fn sim_total(&self) -> f64 {
        self.stmts.iter().map(Stmt::total_sim).sum()
    }
}

/// A round in progress: its database, and what it has run so far.
struct Live<'a> {
    spec: RoundSpec<'a>,
    eng: Engine,
    dir: String,
    round: Round,
}

/// Databases a run sets up at least; `setup_s` is the median.
const MIN_SETUPS: usize = 5;

/// Blocks the traced pass cuts round 0 into; see `run_traced_pair`.
const TRACE_BLOCKS: usize = 16;

/// Spans of one statement: the benchmark's own wall around `execute`, and
/// the stages `QueryMetrics` reports. A stage that did not run has no span.
fn record_statement(rec: &mut Recorder, kind: Kind, s: &Stmt) {
    let name = match kind {
        Kind::Select => "stmt.select",
        Kind::Insert => "stmt.insert",
        Kind::Update => "stmt.update",
        Kind::Delete => "stmt.delete",
    };
    rec.push(name, s.wall_ns);
    for (name, dur) in [
        ("jits.analyze", s.analyze_ns),
        ("jits.sensitivity", s.sensitivity_ns),
        ("jits.collect", s.collect_ns),
        ("jits.refine", s.refine_ns),
    ] {
        if dur > 0 {
            rec.push(name, dur);
        }
    }
    if kind == Kind::Select {
        rec.push("exec.select", s.exec_ns);
        rec.push(
            match s.tables {
                1 => "exec.1t",
                2 => "exec.2t",
                4 => "exec.4t",
                _ => "exec.other",
            },
            s.exec_ns,
        );
        // what `execute` spends outside its two phases
        rec.push(
            "engine.fixed_overhead",
            s.wall_ns.saturating_sub(s.compile_ns + s.exec_ns),
        );
    }
}

fn open_round<'a>(spec: &RoundSpec<'a>) -> Result<Live<'a>, String> {
    let mut selects = 0;
    let (positions, ops): (Vec<usize>, Vec<Op>) = spec
        .shape
        .statements(spec.seed)
        .into_iter()
        .enumerate()
        .filter(|(_, op)| {
            if op.kind != Kind::Select {
                return true;
            }
            selects += 1;
            (selects - 1) % spec.select_every == 0
        })
        .unzip();
    let dir = format!("jits-benchmark-{}-{}", std::process::id(), spec.scope);

    let start = Instant::now();
    let eng = Engine::build(
        spec.shape.scale,
        spec.seed,
        spec.stats,
        spec.durable.then_some(dir.as_str()),
    )?;
    let setup_s = start.elapsed().as_secs_f64();

    let traced = spec.trace.then(|| Traced {
        rec: Recorder::default(),
        before: eng.registry(),
        after: BTreeMap::new(),
        explicit_checkpoint_s: 0.0,
        checkpoint_bytes: 0,
        disk_bytes: 0,
    });
    Ok(Live {
        spec: *spec,
        eng,
        dir,
        round: Round {
            stmts: Vec::with_capacity(ops.len()),
            ops,
            positions,
            setup_s,
            loop_s: 0.0,
            restart: None,
            traced,
        },
    })
}

impl Live<'_> {
    /// Runs the statements at `block` of the round's stream.
    fn run(&mut self, block: Range<usize>) {
        let round = &mut self.round;
        let start = Instant::now();
        for op in &round.ops[block] {
            let s = self.eng.exec(&op.sql, self.spec.digest);
            if let Some(t) = &mut round.traced {
                record_statement(&mut t.rec, op.kind, &s);
            }
            round.stmts.push(s);
        }
        round.loop_s += start.elapsed().as_secs_f64();
    }

    fn close(self, tally: &mut Tally) -> Result<Round, String> {
        let Live {
            spec,
            mut eng,
            dir,
            mut round,
        } = self;
        if let Some(t) = &mut round.traced {
            t.after = eng.registry();
            t.disk_bytes = eng.disk_bytes();
            let sqls: Vec<&str> = round.ops.iter().map(|o| o.sql.as_str()).collect();
            eng.probe_layers(&sqls, &format!("{dir}-wal-probe"), &mut t.rec);
        }

        // A durable round ends with a restart: the same fixed SELECTs must
        // answer the same before the database closes and after it recovers.
        // A round without statements only measures setup.
        if eng.is_durable() && !round.ops.is_empty() {
            let selects = verification_selects();
            let answer = |eng: &mut Engine| -> Vec<Stmt> {
                selects.iter().map(|q| eng.exec(q, true)).collect()
            };
            let before = answer(&mut eng);
            let restart = eng.restart()?;
            tally.check(restart.replay_errors == 0, || {
                format!("{}: {} replay errors", spec.scope, restart.replay_errors)
            });
            round.restart = Some(restart);
            let after = answer(&mut eng);
            for (q, (b, a)) in selects.iter().zip(before.iter().zip(&after)) {
                tally.check(b.ok && a.ok && b.digest.matches(&a.digest), || {
                    format!("{}: answer changed across restart: {q}", spec.scope)
                });
            }
        }

        // Last, so that the restart above recovers what an untraced round
        // leaves.
        if let Some(t) = round.traced.as_mut().filter(|_| eng.is_durable()) {
            t.explicit_checkpoint_s = eng.checkpoint()?;
            t.checkpoint_bytes = eng
                .registry()
                .get("jits.wal.checkpoint_bytes")
                .copied()
                .unwrap_or(0);
        }
        Ok(round)
    }
}

fn run_round(spec: &RoundSpec, tally: &mut Tally) -> Result<Round, String> {
    let mut live = open_round(spec)?;
    live.run(0..live.round.ops.len());
    live.close(tally)
}

/// The traced pass: round 0 on two identical databases at once, one untraced
/// and one traced, the stream cut into `TRACE_BLOCKS` blocks that the two run
/// in turn, taking turns at going first. Both run every statement in order,
/// so each is a complete round 0; and because their blocks alternate, drift
/// of the box over the seconds a round takes hits both loops alike, and the
/// difference of their walls is what the recorder costs.
fn run_traced_pair(base: &RoundSpec, tally: &mut Tally) -> Result<(Round, Round), String> {
    let mut untraced = open_round(&RoundSpec {
        digest: true,
        scope: "untraced",
        ..*base
    })?;
    let mut traced = open_round(&RoundSpec {
        digest: true,
        trace: true,
        scope: "traced",
        ..*base
    })?;
    let n = traced.round.ops.len();
    let step = n.div_ceil(TRACE_BLOCKS).max(1);
    for (k, lo) in (0..n).step_by(step).enumerate() {
        let block = lo..(lo + step).min(n);
        if k % 2 == 0 {
            untraced.run(block.clone());
            traced.run(block);
        } else {
            traced.run(block.clone());
            untraced.run(block);
        }
    }
    Ok((untraced.close(tally)?, traced.close(tally)?))
}

/// `VmHWM` of this process in MB: the peak resident set so far.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills the catalogue's entries from computed values; a name without a
/// value reads 0, "no samples on this workload".
fn fill(defs: &[MetricDef], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    defs.iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: values.get(d.name).copied().unwrap_or(0.0),
        })
        .collect()
}

pub fn run(plan: &Plan) -> Result<Report, String> {
    let w = plan.workload;
    let mut tally = Tally::default();
    // An untraced round of the workload itself; the others vary it.
    let base = RoundSpec {
        shape: w,
        seed: plan.seed,
        stats: w.stats,
        durable: w.durable,
        digest: false,
        select_every: 1,
        trace: false,
        scope: "",
    };

    // Warm-up, discarded: seed - 1, the full data, a tenth of the statements.
    let warm = run_round(
        &RoundSpec {
            shape: w.warm_up(),
            seed: plan.seed.wrapping_sub(1),
            scope: "warm-up",
            ..base
        },
        &mut tally,
    )?;
    let mut setups = vec![warm.setup_s];

    // Measured rounds; the traced pass alone has none.
    let rounds = if plan.pass == Pass::Layers {
        0
    } else {
        plan.rounds
    };
    let mut measured = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let scope = format!("round-{r}");
        let round = run_round(
            &RoundSpec {
                seed: plan.seed.wrapping_add(r as u64),
                digest: r == 0,
                scope: &scope,
                ..base
            },
            &mut tally,
        )?;
        tally.statements(&scope, &round);
        setups.push(round.setup_s);
        measured.push(round);
    }
    // Read before anything but the workload's own rounds has run.
    let peak_rss = peak_rss_mb();
    while plan.pass != Pass::Layers && setups.len() < MIN_SETUPS {
        let round = run_round(
            &RoundSpec {
                shape: Workload { ops: 0, ..w },
                scope: "setup",
                ..base
            },
            &mut tally,
        )?;
        setups.push(round.setup_s);
    }
    let end_to_end = if plan.pass == Pass::Layers {
        Vec::new()
    } else {
        fill(END_TO_END, &end_to_end_values(&measured, &setups, peak_rss))
    };

    let pair = if plan.pass == Pass::EndToEnd {
        None
    } else {
        let (untraced, traced) = run_traced_pair(&base, &mut tally)?;
        tally.statements("untraced", &untraced);
        Some((untraced, traced))
    };
    // Round 0 as a measured round ran it, or as the traced pass's untraced
    // half did.
    let round0 = match (measured.first(), &pair) {
        (Some(round), _) => round,
        (None, Some((untraced, _))) => untraced,
        (None, None) => return Err("a run needs at least one round".into()),
    };

    // Answer check: round 0 again on a fresh database that plans from
    // general statistics. Other plans, the same answers. SELECTs do not
    // change the data, so the replay keeps the tables in step with every
    // DML statement and every fourth SELECT, at a quarter of the cost.
    let check = run_round(
        &RoundSpec {
            stats: Stats::General,
            durable: false,
            digest: true,
            select_every: 4,
            scope: "answer-check",
            ..base
        },
        &mut tally,
    )?;
    for (&i, b) in check.positions.iter().zip(&check.stmts) {
        let a = &round0.stmts[i];
        tally.check(a.ok && b.ok && a.digest.matches(&b.digest), || {
            format!(
                "answer-check: statement {i} differs between JITS and general statistics \
                 ({:?} vs {:?}): {}",
                a.digest, b.digest, round0.ops[i].sql
            )
        });
    }

    let per_layer = match &pair {
        None => Vec::new(),
        Some((untraced, traced)) => {
            tally.check(
                traced.sim_total().to_bits() == round0.sim_total().to_bits(),
                || {
                    format!(
                        "traced round 0 charged {} simulated seconds, untraced round 0 {}",
                        traced.sim_total(),
                        round0.sim_total()
                    )
                },
            );
            let recoveries = measured
                .iter()
                .chain([untraced, traced])
                .filter_map(|round| round.restart.map(|r| r.open_s))
                .collect();
            fill(
                PER_LAYER,
                &per_layer_values(traced, untraced.loop_s, recoveries),
            )
        }
    };

    Ok(Report {
        workload: w.name,
        seed: plan.seed,
        rounds,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer,
    })
}

fn end_to_end_values(
    measured: &[Round],
    setups: &[f64],
    peak_rss: f64,
) -> BTreeMap<&'static str, f64> {
    let mut select = Vec::new();
    let mut dml = Vec::new();
    let mut wall_ns = 0.0;
    let mut statements = 0usize;
    for round in measured {
        for (op, s) in round.ops.iter().zip(&round.stmts) {
            let lat = s.wall_ns as f64;
            wall_ns += lat;
            if op.kind == Kind::Select {
                select.push(lat);
            } else {
                dml.push(lat);
            }
        }
        statements += round.stmts.len();
        // acknowledged writes are durable only once the database is closed,
        // so the closing flush belongs to the measured phase
        wall_ns += round.restart.map_or(0.0, |r| r.close_s * 1e9);
    }
    let (select, dml) = (sorted(select), sorted(dml));
    BTreeMap::from([
        ("setup_s", median(setups.to_vec())),
        ("stmts_per_s", ratio(statements as f64, wall_ns / 1e9)),
        ("select_p50_ms", ms(percentile(&select, 0.5))),
        ("select_p99_ms", ms(percentile(&select, 0.99))),
        ("dml_p50_ms", ms(percentile(&dml, 0.5))),
        ("dml_p90_ms", ms(percentile(&dml, 0.9))),
        ("sim_total_s", measured.iter().map(Round::sim_total).sum()),
        ("peak_rss_mb", peak_rss),
    ])
}

/// Per-layer metrics that are a percentile of the spans of one name:
/// metric, span, percentile, nanoseconds per unit of the metric.
#[rustfmt::skip]
const SPAN_METRICS: &[(&str, &str, f64, f64)] = &[
    ("engine.fixed_overhead_us_p50", "engine.fixed_overhead", 0.5, 1e3),
    ("engine.dml_insert_ms_p50", "stmt.insert", 0.5, 1e6),
    ("engine.dml_update_ms_p50", "stmt.update", 0.5, 1e6),
    ("engine.dml_delete_ms_p50", "stmt.delete", 0.5, 1e6),
    ("query.parse_us_p50", "query.parse", 0.5, 1e3),
    ("query.bind_us_p50", "query.bind", 0.5, 1e3),
    ("jits.analyze_us_p50", "jits.analyze", 0.5, 1e3),
    ("jits.sensitivity_us_p50", "jits.sensitivity", 0.5, 1e3),
    ("jits.collect_us_p50", "jits.collect", 0.5, 1e3),
    ("jits.collect_us_p99", "jits.collect", 0.99, 1e3),
    ("jits.refine_us_p50", "jits.refine", 0.5, 1e3),
    ("jits.refine_us_p99", "jits.refine", 0.99, 1e3),
    ("storage.sample_draw_us_p50", "storage.sample_draw", 0.5, 1e3),
    ("storage.frame_gather_us_p50", "storage.frame_gather", 0.5, 1e3),
    ("storage.skip_list_us_p50", "storage.skip_list", 0.5, 1e3),
    ("storage.hash_probe_ns_p50", "storage.hash_probe", 0.5, 1.0),
    ("storage.btree_probe_ns_p50", "storage.btree_probe", 0.5, 1.0),
    ("storage.row_update_us_p50", "storage.row_update", 0.5, 1e3),
    ("storage.row_insert_us_p50", "storage.row_insert", 0.5, 1e3),
    ("histogram.fit_us_p50", "histogram.fit", 0.5, 1e3),
    ("histogram.fit_us_p99", "histogram.fit", 0.99, 1e3),
    ("histogram.selectivity_ns_p50", "histogram.selectivity", 0.5, 1.0),
    ("optimizer.optimize_us_p50", "optimizer.optimize", 0.5, 1e3),
    ("optimizer.optimize_us_p99", "optimizer.optimize", 0.99, 1e3),
    ("optimizer.optimize_4way_us_p50", "optimizer.optimize_4way", 0.5, 1e3),
    ("executor.execute_ms_p50", "exec.select", 0.5, 1e6),
    ("executor.execute_ms_p99", "exec.select", 0.99, 1e6),
    ("executor.exec_1t_ms_p50", "exec.1t", 0.5, 1e6),
    ("executor.exec_2t_ms_p50", "exec.2t", 0.5, 1e6),
    ("executor.exec_4t_ms_p50", "exec.4t", 0.5, 1e6),
    ("catalog.runstats_ms", "catalog.runstats", 0.5, 1e6),
    ("wal.append_us_p50", "wal.append", 0.5, 1e3),
];

/// Per-layer metrics that are the growth of one registry counter across the
/// traced round.
#[rustfmt::skip]
const COUNTER_METRICS: &[(&str, &str)] = &[
    ("jits.tables_sampled", "jits.collect.tables_sampled"),
    ("jits.materialized_groups", "jits.archive.materialized_groups"),
    ("jits.candidate_groups", "jits.analysis.candidate_groups"),
    ("jits.feedback_observations", "jits.feedback.observations"),
    ("storage.rows_sampled", "jits.collect.rows_sampled"),
    ("storage.slot_probes", "jits.collect.slot_probes"),
    ("histogram.ipf_iterations", "jits.refine.ipf_iterations"),
    ("histogram.buckets_split", "jits.refine.buckets_split"),
    ("histogram.nonconverged", "jits.refine.nonconverged"),
    ("histogram.archive_evictions", "jits.archive.evictions"),
];

/// `round` is the traced half of the traced pass, `untraced_loop_s` the wall
/// of the other half's statement loop, `recoveries` the seconds each durable
/// round of the run took to open its directory again.
fn per_layer_values(
    round: &Round,
    untraced_loop_s: f64,
    recoveries: Vec<f64>,
) -> BTreeMap<&'static str, f64> {
    let Some(t) = &round.traced else {
        return BTreeMap::new();
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(metric, span, q, ns_per_unit) in SPAN_METRICS {
        let durations = sorted(t.rec.durations(span));
        v.insert(metric, percentile(&durations, q) / ns_per_unit);
    }
    for &(metric, counter) in COUNTER_METRICS {
        v.insert(metric, t.delta(counter));
    }

    // engine
    let sum = |f: fn(&Stmt) -> f64| round.stmts.iter().map(f).sum::<f64>();
    let wall = sum(|s| s.wall_ns as f64);
    v.insert(
        "engine.compile_share",
        ratio(sum(|s| s.compile_ns as f64), wall),
    );
    v.insert("engine.exec_share", ratio(sum(|s| s.exec_ns as f64), wall));
    // A checkpoint runs inside the statement that fills the interval, and
    // at 100 ms and more makes it the slowest statement far and wide: the
    // stalls are the slowest statements, as many as checkpoints were taken.
    let checkpoints = t.delta("jits.wal.checkpoints");
    let walls = sorted(round.stmts.iter().map(|s| s.wall_ns as f64).collect());
    let stalls = &walls[walls.len().saturating_sub(checkpoints as usize)..];
    v.insert(
        "engine.checkpoint_stall_ms_p50",
        ms(percentile(stalls, 0.5)),
    );
    v.insert("engine.checkpoints", checkpoints);
    v.insert("engine.lock_wait_us", sum(|s| s.lock_wait_ns as f64) / 1e3);
    v.insert(
        "engine.degraded_stmts",
        sum(|s| f64::from(u8::from(s.degraded))),
    );

    // jits
    let selects: Vec<&Stmt> = round
        .ops
        .iter()
        .zip(&round.stmts)
        .filter(|(op, _)| op.kind == Kind::Select)
        .map(|(_, s)| s)
        .collect();
    let sampled = selects.iter().filter(|s| s.sampled_tables > 0).count();
    v.insert(
        "jits.sampled_select_ratio",
        ratio(sampled as f64, selects.len() as f64),
    );
    v.insert("jits.compile_sim_s", sum(|s| s.compile_sim));
    v.insert("jits.exec_sim_s", sum(|s| s.exec_sim));

    // storage
    let (hits, misses, stale) = (
        t.delta("jits.samplecache.hits"),
        t.delta("jits.samplecache.misses"),
        t.delta("jits.samplecache.stale_redraws"),
    );
    v.insert(
        "storage.samplecache_hit_ratio",
        ratio(hits, hits + misses + stale),
    );
    v.insert(
        "storage.blocks_pruned_ratio",
        ratio(
            t.delta("jits.skip.blocks_pruned"),
            t.delta("jits.skip.blocks_total"),
        ),
    );

    // histogram
    v.insert(
        "histogram.archive_buckets",
        t.after("jits.archive.total_buckets"),
    );

    // optimizer
    v.insert(
        "optimizer.qerror_mispredict_ratio",
        ratio(
            t.delta("jits.qerror.mispredicted_scans"),
            t.delta("jits.qerror.scans"),
        ),
    );
    let (seq, pruned, index) = (
        t.delta("jits.skip.seq_scans"),
        t.delta("jits.skip.pruned_scans"),
        t.delta("jits.skip.index_scans"),
    );
    v.insert(
        "optimizer.index_scan_ratio",
        ratio(index, seq + pruned + index),
    );
    v.insert(
        "optimizer.pruned_scan_ratio",
        ratio(pruned, seq + pruned + index),
    );

    // executor: charged work per microsecond, the cost-model calibration
    v.insert(
        "executor.work_units_per_us",
        ratio(
            selects.iter().map(|s| s.exec_work).sum(),
            selects.iter().map(|s| s.exec_ns as f64).sum::<f64>() / 1e3,
        ),
    );

    // wal: all 0 on a workload that runs in memory, but for the append probe
    v.insert(
        "wal.bytes_per_stmt",
        ratio(t.delta("jits.wal.bytes"), t.delta("jits.wal.appends")),
    );
    v.insert("wal.checkpoint_mb", t.checkpoint_bytes as f64 / 1e6);
    v.insert("wal.checkpoint_ms_p50", t.explicit_checkpoint_s * 1e3);
    v.insert("wal.disk_mb", t.disk_bytes as f64 / 1e6);
    let restart = round.restart.unwrap_or_default();
    v.insert("wal.replayed_records", restart.replayed_records as f64);
    v.insert("wal.replay_errors", restart.replay_errors as f64);
    v.insert("recovery_s", median(recoveries));

    // bench
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * ratio(round.loop_s - untraced_loop_s, untraced_loop_s),
    );
    v
}

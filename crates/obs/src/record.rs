//! The statement record: one [`QueryProfile`] per statement.
//!
//! The engine fills the record while the statement runs — stage walls, the
//! Algorithm 3 score rows and Algorithm 4 verdicts, what was sampled and
//! refined, the operator tree, feedback, degradations — and stores it in
//! exactly one place, the flight ring ([`crate::FlightRecorder`]), sharing
//! the same `Arc` with the statement's own metrics. Every system view, the
//! CLI's `--trace` print, `EXPLAIN ANALYZE` and the JSON dumps read it back.
//!
//! Values are recorded typed and formatted only when rendered. The wall
//! times and the collect worker index depend on the machine and the
//! scheduler; [`QueryProfile::write_json`] masks them on request, leaving a
//! pure function of workload and seed.

use crate::export::json_str;
use jits_common::{ColGroup, SampleOrigin};
use std::fmt::{self, Write as _};

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

/// Wall nanoseconds of each pipeline stage of one statement (zero for a
/// stage the statement did not run). Volatile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Parse and bind.
    pub parse_bind: u64,
    /// Query analysis (Algorithm 1).
    pub analyze: u64,
    /// Sensitivity analysis (Algorithms 2–4).
    pub sensitivity: u64,
    /// Sampling.
    pub collect: u64,
    /// Archive materialization and max-entropy refinement.
    pub refine: u64,
    /// Plan enumeration.
    pub optimize: u64,
    /// Execution.
    pub execute: u64,
    /// Execution feedback (LEO) ingest.
    pub feedback: u64,
}

impl StageNanos {
    /// `(stage name, nanos)` in pipeline order.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("parse_bind", self.parse_bind),
            ("analyze", self.analyze),
            ("sensitivity", self.sensitivity),
            ("collect", self.collect),
            ("refine", self.refine),
            ("optimize", self.optimize),
            ("execute", self.execute),
            ("feedback", self.feedback),
        ]
    }
}

/// One Algorithm 3 verdict: a table's sensitivity score and whether the
/// statement samples it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Quantifier index within the query block.
    pub qun: usize,
    /// Table name.
    pub table: String,
    /// `1 − MaxAcc` (historical estimate badness).
    pub s1: f64,
    /// UDI activity ratio.
    pub s2: f64,
    /// Aggregated score compared against `s_max`.
    pub score: f64,
    /// Whether the table is sampled.
    pub collect: bool,
}

impl ScoreRow {
    /// Why the verdict went the way it did under threshold `s_max`.
    pub fn reason(&self, s_max: f64) -> String {
        if s_max <= 0.0 {
            "s_max = 0: always collect".to_string()
        } else {
            let cmp = if self.collect { ">=" } else { "<" };
            format!("score {:.3} {cmp} s_max {s_max:.3}", self.score)
        }
    }

    /// The decision line `q0 car: s1=… s2=… score=… -> sample (reason)`.
    pub fn line(&self, s_max: f64) -> String {
        format!(
            "q{} {}: s1={:.3} s2={:.3} score={:.3} -> {} ({})",
            self.qun,
            self.table,
            self.s1,
            self.s2,
            self.score,
            if self.collect { "sample" } else { "skip" },
            self.reason(s_max)
        )
    }
}

/// One Algorithm 4 verdict: whether a candidate group is materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupVerdict {
    /// The candidate column group.
    pub colgroup: ColGroup,
    /// Whether the group is pushed into the archive or predicate cache.
    pub materialize: bool,
    /// Why.
    pub reason: String,
}

impl fmt::Display for GroupVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.materialize {
            "materialize"
        } else {
            "skip"
        };
        write!(f, "{}: {verdict} ({})", self.colgroup, self.reason)
    }
}

/// One table the collection pass sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Quantifier index.
    pub qun: usize,
    /// Table name.
    pub table: String,
    /// Rows drawn into (or served from cache for) the sample.
    pub rows: usize,
    /// Storage slot probes the draw cost.
    pub probes: usize,
    /// Fresh, served from the sample cache, or redrawn as stale.
    pub origin: SampleOrigin,
    /// Collect worker that handled the table. Volatile.
    pub worker: usize,
    /// Wall nanoseconds of the table's collection. Volatile.
    pub wall_nanos: u64,
}

impl fmt::Display for SampleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (qun, table, rows, probes) = (self.qun, &self.table, self.rows, self.probes);
        write!(
            f,
            "q{qun} {table}: sampled {rows} row(s) ({probes} probe(s), "
        )?;
        match self.origin {
            SampleOrigin::Fresh => write!(f, "fresh")?,
            SampleOrigin::Cached { staleness } => write!(f, "cached, staleness {staleness:.3}")?,
            SampleOrigin::Redrawn { staleness } => write!(f, "redrawn, staleness {staleness:.3}")?,
        }
        let wall = ms(self.wall_nanos);
        write!(f, ") on worker {} in {wall:.3} ms", self.worker)
    }
}

/// One materialized observation: a predicate-cache insert or an archive
/// histogram refit.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineRow {
    /// Column-group identity.
    pub colgroup: ColGroup,
    /// `"archive"` (grid histogram) or `"predcache"` (no region form).
    pub target: &'static str,
    /// Histogram buckets before the observation.
    pub buckets_before: usize,
    /// Histogram buckets after splitting on the observation boundaries.
    pub buckets_after: usize,
    /// IPF sweeps the max-entropy refit performed.
    pub ipf_iterations: usize,
    /// Largest relative constraint residual at exit.
    pub max_residual: f64,
    /// Whether the refit reached tolerance.
    pub converged: bool,
}

impl fmt::Display for RefineRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}: buckets {} -> {}, {} IPF sweep(s), residual {:.2e}{}",
            self.colgroup,
            self.target,
            self.buckets_before,
            self.buckets_after,
            self.ipf_iterations,
            self.max_residual,
            if self.converged {
                ""
            } else {
                " (NOT converged)"
            }
        )
    }
}

/// One pipeline degradation: which table fell back, at which fault point
/// (or budget), to which fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Affected table (empty when not table-scoped, e.g. an archive
    /// bucket-set quarantine without a resolved table).
    pub table: String,
    /// The fault point (or budget) that tripped.
    pub fault_point: &'static str,
    /// The fallback the pipeline served instead.
    pub fallback: &'static str,
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
    /// Inclusive wall time of the operator in nanoseconds. Volatile.
    pub wall_nanos: u64,
    /// Zone-map blocks the operator probed: set on the `pruned_scan` node
    /// of an UPDATE/DELETE, zero elsewhere (a SELECT's pruned scans report
    /// through `jits.skip.*`).
    pub blocks_total: u64,
    /// Of those, blocks proven to hold no matching row.
    pub blocks_pruned: u64,
}

/// The one per-statement record: what the statement decided, did and cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Logical statement clock.
    pub clock: u64,
    /// Session id (0 on the single-owner path).
    pub session: u64,
    /// Statement text.
    pub sql: String,
    /// The statement kind: `select`, `dml` (UPDATE or DELETE), `insert`,
    /// or `explain` (compiled, not executed).
    pub kind: &'static str,
    /// Rows returned (or affected, for DML).
    pub result_rows: usize,
    /// Charged execution work in cost-model units.
    pub total_work: f64,
    /// Largest per-operator q-error in the tree (1.0 for a perfect plan).
    pub max_q_error: f64,
    /// Compile-phase wall nanoseconds (parse through optimize). Volatile.
    pub compile_wall_nanos: u64,
    /// Per-stage wall nanoseconds. Volatile.
    pub stages: StageNanos,
    /// Candidate predicate groups Algorithm 1 enumerated.
    pub candidate_groups: usize,
    /// The sensitivity threshold the scores were judged against.
    pub s_max: f64,
    /// Algorithm 3 score rows, one per table.
    pub scores: Vec<ScoreRow>,
    /// Algorithm 4 verdicts, one per candidate group of a sampled table.
    pub verdicts: Vec<GroupVerdict>,
    /// Tables the collection pass sampled, in quantifier order.
    pub samples: Vec<SampleRow>,
    /// Materialized observations, in materialization order.
    pub refines: Vec<RefineRow>,
    /// Archive histograms evicted to honour the bucket budget.
    pub evictions: Vec<ColGroup>,
    /// Scan cardinality observations fed back into the StatHistory.
    pub feedback_observations: usize,
    /// This statement's degradations, in the order they happened.
    pub degradations: Vec<Degradation>,
    /// Why the statement tripped an anomaly (q-error over threshold, or a
    /// degraded statement); an anomaly triggers the flight auto-dump.
    pub anomaly: Option<String>,
    /// The operator tree, flattened preorder (empty for INSERT and EXPLAIN).
    pub nodes: Vec<ProfileNodeRow>,
}

impl QueryProfile {
    /// An empty record for the statement at `clock`.
    pub fn new(clock: u64, session: u64, sql: &str, kind: &'static str) -> Self {
        QueryProfile {
            clock,
            session,
            sql: sql.to_string(),
            kind,
            max_q_error: 1.0,
            ..QueryProfile::default()
        }
    }

    /// Whether any stage degraded.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Drops the spare capacity of every list. A stored record outlives its
    /// statement by up to [`crate::FLIGHT_CAPACITY`] statements, and the
    /// slack of push-grown lists raises peak RSS: on the benchmark's
    /// `durable_churn` (seed 1, 20 s, 2-core AMD EPYC) untrimmed builds read
    /// 205 MB in 5 of 14 runs, trimmed ones never above 188 MB, at the same
    /// latency.
    pub fn shrink_to_fit(&mut self) {
        self.sql.shrink_to_fit();
        self.scores.shrink_to_fit();
        self.verdicts.shrink_to_fit();
        self.samples.shrink_to_fit();
        self.refines.shrink_to_fit();
        self.evictions.shrink_to_fit();
        self.degradations.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }

    /// Renders the stage walls and every decision line as indented text. A
    /// stage the statement did not run (zero wall, nothing decided) is left
    /// out.
    pub fn render(&self) -> String {
        let mut out = format!(
            "statement [clock {} session {}] {}\n  {}: {} row(s), work {:.0}, \
             compile {:.3} ms\n",
            self.clock,
            self.session,
            self.sql,
            self.kind,
            self.result_rows,
            self.total_work,
            ms(self.compile_wall_nanos)
        );
        let s = &self.stages;
        let mut stage = |name: &str, nanos: u64, lines: Vec<String>| {
            if nanos > 0 || !lines.is_empty() {
                let _ = writeln!(out, "  {name} ({:.3} ms)", ms(nanos));
                for line in lines {
                    let _ = writeln!(out, "    - {line}");
                }
            }
        };
        stage("parse_bind", s.parse_bind, Vec::new());
        let groups = self.candidate_groups;
        let analysis = (groups > 0).then(|| format!("analysis: {groups} candidate group(s)"));
        stage("analyze", s.analyze, analysis.into_iter().collect());
        let scores = self.scores.iter().map(|r| r.line(self.s_max));
        let verdicts = self.verdicts.iter().map(GroupVerdict::to_string);
        stage(
            "sensitivity",
            s.sensitivity,
            scores.chain(verdicts).collect(),
        );
        stage(
            "collect",
            s.collect,
            self.samples.iter().map(SampleRow::to_string).collect(),
        );
        let refines = self.refines.iter().map(RefineRow::to_string);
        let evictions = self.evictions.iter().map(|g| format!("evicted {g}"));
        stage("refine", s.refine, refines.chain(evictions).collect());
        stage("optimize", s.optimize, Vec::new());
        let q_error =
            (!self.nodes.is_empty()).then(|| format!("max q-error {:.2}", self.max_q_error));
        stage("execute", s.execute, q_error.into_iter().collect());
        let fed = self.feedback_observations;
        let feedback = (fed > 0).then(|| format!("ingested {fed} cardinality observation(s)"));
        stage("feedback", s.feedback, feedback.into_iter().collect());
        for d in &self.degradations {
            let _ = writeln!(
                out,
                "  degraded: {} -> {} (table '{}')",
                d.fault_point, d.fallback, d.table
            );
        }
        if let Some(reason) = &self.anomaly {
            let _ = writeln!(out, "  anomaly: {reason}");
        }
        out
    }

    /// Appends the record as one JSON object. With `include_volatile =
    /// false` every wall time and the collect worker index read zero.
    pub fn write_json(&self, out: &mut String, include_volatile: bool) {
        let vol = |x: u64| if include_volatile { x } else { 0 };
        let _ = write!(
            out,
            "{{\"type\": \"profile\", \"clock\": {}, \"session\": {}, \"sql\": {}, \
             \"kind\": {}, \"result_rows\": {}, \"total_work\": {}, \"max_q_error\": {}, \
             \"degraded\": {}, \"anomaly\": {}, \"compile_wall_nanos\": {}, \"stages\": {{",
            self.clock,
            self.session,
            json_str(&self.sql),
            json_str(self.kind),
            self.result_rows,
            json_f64(self.total_work),
            json_f64(self.max_q_error),
            self.degraded(),
            self.anomaly.as_deref().map_or("null".to_string(), json_str),
            vol(self.compile_wall_nanos),
        );
        for (i, (stage, nanos)) in self.stages.named().into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{stage}\": {}", vol(nanos));
        }
        let _ = write!(
            out,
            "}}, \"candidate_groups\": {}, \"s_max\": {}, \"feedback_observations\": {}",
            self.candidate_groups,
            json_f64(self.s_max),
            self.feedback_observations
        );
        json_list(out, "scores", &self.scores, |out, s| {
            let _ = write!(
                out,
                "{{\"qun\": {}, \"table\": {}, \"s1\": {}, \"s2\": {}, \"score\": {}, \
                 \"collect\": {}}}",
                s.qun,
                json_str(&s.table),
                json_f64(s.s1),
                json_f64(s.s2),
                json_f64(s.score),
                s.collect
            );
        });
        json_list(out, "verdicts", &self.verdicts, |out, v| {
            let _ = write!(
                out,
                "{{\"colgroup\": {}, \"materialize\": {}, \"reason\": {}}}",
                json_str(&v.colgroup.to_string()),
                v.materialize,
                json_str(&v.reason)
            );
        });
        json_list(out, "samples", &self.samples, |out, s| {
            let (origin, staleness) = match s.origin {
                SampleOrigin::Fresh => ("fresh", 0.0),
                SampleOrigin::Cached { staleness } => ("cached", staleness),
                SampleOrigin::Redrawn { staleness } => ("redrawn", staleness),
            };
            let _ = write!(
                out,
                "{{\"qun\": {}, \"table\": {}, \"rows\": {}, \"probes\": {}, \"origin\": \
                 \"{origin}\", \"staleness\": {}, \"worker\": {}, \"wall_nanos\": {}}}",
                s.qun,
                json_str(&s.table),
                s.rows,
                s.probes,
                json_f64(staleness),
                vol(s.worker as u64),
                vol(s.wall_nanos)
            );
        });
        json_list(out, "refines", &self.refines, |out, r| {
            let _ = write!(
                out,
                "{{\"colgroup\": {}, \"target\": \"{}\", \"buckets_before\": {}, \
                 \"buckets_after\": {}, \"ipf_iterations\": {}, \"max_residual\": {}, \
                 \"converged\": {}}}",
                json_str(&r.colgroup.to_string()),
                r.target,
                r.buckets_before,
                r.buckets_after,
                r.ipf_iterations,
                json_f64(r.max_residual),
                r.converged
            );
        });
        json_list(out, "evictions", &self.evictions, |out, g| {
            out.push_str(&json_str(&g.to_string()));
        });
        json_list(out, "degradations", &self.degradations, |out, d| {
            let _ = write!(
                out,
                "{{\"table\": {}, \"fault_point\": {}, \"fallback\": {}}}",
                json_str(&d.table),
                json_str(d.fault_point),
                json_str(d.fallback)
            );
        });
        json_list(out, "nodes", &self.nodes, |out, n| {
            let _ = write!(
                out,
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
                vol(n.wall_nanos),
                n.blocks_total,
                n.blocks_pruned
            );
        });
        out.push('}');
    }
}

/// Nanoseconds as milliseconds, for rendering.
fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Appends `, "key": [item, item, …]`.
fn json_list<T>(out: &mut String, key: &str, items: &[T], item: impl Fn(&mut String, &T)) {
    let _ = write!(out, ", \"{key}\": [");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
    out.push(']');
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

//! Allocation-lean span/event tracing of the JITS pipeline.
//!
//! The engine carries a [`TraceBuilder`] through each statement. When the
//! [`Tracer`] is disabled the builder is [`TraceBuilder::Off`] — a niche-
//! packed one-word enum whose methods are `#[inline]` early returns, so the
//! disabled path costs one pointer-null test per call site and allocates
//! nothing (event payloads are built inside closures that are never
//! invoked). Nothing measures the residual cost today: the benchmark runs
//! with the tracer off.
//! Finished traces land in a bounded ring buffer of the last N statements.
//!
//! Span wall times are *supplied by the caller* (read through
//! [`crate::clock`]); this module never reads a clock itself, which keeps every timestamp quarantined from
//! statistics-bearing state.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// One instrumentation event inside a span.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Query analysis (Algorithm 1) finished enumerating candidate groups.
    Analysis {
        /// Quantifiers in the block.
        tables: usize,
        /// Candidate predicate groups enumerated.
        candidate_groups: usize,
    },
    /// Sensitivity analysis (Algorithm 3) scored one table.
    TableSensitivity {
        /// Quantifier index.
        qun: usize,
        /// Table name.
        table: String,
        /// `1 − MaxAcc` (historical estimate badness).
        s1: f64,
        /// UDI activity ratio.
        s2: f64,
        /// Aggregated score compared against `s_max`.
        score: f64,
        /// Whether the table was marked for sampling.
        collect: bool,
        /// Human-readable decision rationale.
        reason: String,
    },
    /// One marked table was sampled by the collection pass.
    SampleTable {
        /// Quantifier index.
        qun: usize,
        /// Table name.
        table: String,
        /// Rows drawn into the sample.
        rows_sampled: usize,
        /// Storage slot probes the draw cost (≥ rows when tombstones were
        /// hit or the scan fallback triggered).
        slot_probes: usize,
        /// Worker thread index that sampled this table.
        worker: usize,
        /// Wall-clock nanoseconds of this table's sampling (0 when tracing
        /// supplied no clock).
        wall_nanos: u64,
    },
    /// Algorithm 4 decided whether to materialize one candidate group.
    MaterializeDecision {
        /// Column-group identity.
        colgroup: String,
        /// Whether the group will be pushed into archive/cache.
        materialize: bool,
        /// Human-readable decision rationale.
        reason: String,
    },
    /// A materialized observation refined an archive histogram.
    Refine {
        /// Column-group identity.
        colgroup: String,
        /// `"archive"` (grid histogram) or `"predcache"` (no region form).
        target: &'static str,
        /// Histogram buckets before the observation.
        buckets_before: usize,
        /// Histogram buckets after splitting on the observation boundaries.
        buckets_after: usize,
        /// IPF sweeps the max-entropy refit performed.
        ipf_iterations: usize,
        /// Largest relative constraint residual at exit.
        max_residual: f64,
        /// Whether the refit reached tolerance.
        converged: bool,
    },
    /// The archive evicted a histogram to honour its bucket budget.
    Evicted {
        /// Column-group identity of the victim.
        colgroup: String,
    },
    /// Execution feedback (LEO) was ingested into the StatHistory.
    Feedback {
        /// Scan cardinality observations ingested.
        observations: usize,
    },
    /// Free-form annotation.
    Note {
        /// Short label.
        label: &'static str,
        /// Detail text.
        detail: String,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Analysis {
                tables,
                candidate_groups,
            } => write!(f, "analysis: {tables} table(s), {candidate_groups} candidate group(s)"),
            TraceEvent::TableSensitivity {
                qun,
                table,
                s1,
                s2,
                score,
                collect,
                reason,
            } => write!(
                f,
                "q{qun} {table}: s1={s1:.3} s2={s2:.3} score={score:.3} -> {} ({reason})",
                if *collect { "sample" } else { "skip" }
            ),
            TraceEvent::SampleTable {
                qun,
                table,
                rows_sampled,
                slot_probes,
                worker,
                wall_nanos,
            } => write!(
                f,
                "q{qun} {table}: sampled {rows_sampled} row(s) ({slot_probes} probe(s)) on worker {worker} in {:.3} ms",
                *wall_nanos as f64 / 1e6
            ),
            TraceEvent::MaterializeDecision {
                colgroup,
                materialize,
                reason,
            } => write!(
                f,
                "{colgroup}: {} ({reason})",
                if *materialize { "materialize" } else { "skip" }
            ),
            TraceEvent::Refine {
                colgroup,
                target,
                buckets_before,
                buckets_after,
                ipf_iterations,
                max_residual,
                converged,
            } => write!(
                f,
                "{colgroup} -> {target}: buckets {buckets_before} -> {buckets_after}, \
                 {ipf_iterations} IPF sweep(s), residual {max_residual:.2e}{}",
                if *converged { "" } else { " (NOT converged)" }
            ),
            TraceEvent::Evicted { colgroup } => write!(f, "evicted {colgroup}"),
            TraceEvent::Feedback { observations } => {
                write!(f, "ingested {observations} cardinality observation(s)")
            }
            TraceEvent::Note { label, detail } => write!(f, "{label}: {detail}"),
        }
    }
}

/// One node of a statement's trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Stage name (`parse_bind`, `analyze`, `sensitivity`, `collect`,
    /// `refine`, `optimize`, `execute`, `feedback`).
    pub name: &'static str,
    /// Wall-clock nanoseconds the stage took.
    pub wall_nanos: u64,
    /// Events recorded inside this span.
    pub events: Vec<TraceEvent>,
    /// Nested spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &'static str) -> Self {
        SpanNode {
            name,
            wall_nanos: 0,
            events: Vec::new(),
            children: Vec::new(),
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} ({:.3} ms)\n",
            self.name,
            self.wall_nanos as f64 / 1e6
        ));
        for e in &self.events {
            out.push_str(&format!("{indent}  - {e}\n"));
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A finished per-statement trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The statement text.
    pub sql: String,
    /// Logical statement clock when the statement ran.
    pub clock: u64,
    /// Session id (0 on the single-owner `Database` path).
    pub session: u64,
    /// Root span (the whole statement); stages are its children.
    pub root: SpanNode,
}

impl QueryTrace {
    /// Pretty-prints the trace tree.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace [clock {} session {}] {}\n",
            self.clock, self.session, self.sql
        );
        self.root.render_into(&mut out, 1);
        out
    }
}

/// Live trace state of one statement (heap side of [`TraceBuilder::On`]).
#[derive(Debug)]
pub struct ActiveTrace {
    sql: String,
    clock: u64,
    session: u64,
    /// `stack[0]` is the root span; deeper entries are open nested spans.
    stack: Vec<SpanNode>,
}

/// Per-statement trace handle. [`TraceBuilder::Off`] is the zero-cost path.
#[derive(Debug)]
pub enum TraceBuilder {
    /// Tracing disabled: every method is an inlined early return.
    Off,
    /// Tracing enabled: spans and events accumulate on the heap.
    On(Box<ActiveTrace>),
}

// Compile-time check of the fast path: the builder must stay one pointer
// wide (`Box` niche), so the disabled branch is a single null-test and the
// builder never grows hidden inline state that disabled statements would
// still have to initialise.
const _: [(); std::mem::size_of::<usize>()] = [(); std::mem::size_of::<TraceBuilder>()];

impl TraceBuilder {
    /// A disabled builder (what every statement gets when tracing is off).
    #[inline]
    pub fn off() -> Self {
        TraceBuilder::Off
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, TraceBuilder::On(_))
    }

    /// Opens a nested span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if let TraceBuilder::On(t) = self {
            t.stack.push(SpanNode::new(name));
        }
    }

    /// Closes the innermost open span, recording its wall time.
    #[inline]
    pub fn end(&mut self, wall_nanos: u64) {
        if let TraceBuilder::On(t) = self {
            if t.stack.len() > 1 {
                if let Some(mut done) = t.stack.pop() {
                    done.wall_nanos = wall_nanos;
                    if let Some(parent) = t.stack.last_mut() {
                        parent.children.push(done);
                    }
                }
            }
        }
    }

    /// Records an event in the innermost open span. The payload closure is
    /// only invoked when tracing is on — disabled statements build nothing.
    #[inline]
    pub fn event(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let TraceBuilder::On(t) = self {
            if let Some(top) = t.stack.last_mut() {
                top.events.push(make());
            }
        }
    }
}

/// Engine-wide tracer: an enable flag plus a ring buffer of the most recent
/// per-statement trace trees.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    capacity: usize,
    ring: Mutex<VecDeque<QueryTrace>>,
}

impl Tracer {
    /// A disabled tracer retaining the last `capacity` statement traces.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns tracing on or off for subsequent statements.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether statements are currently traced.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Starts a builder for one statement ([`TraceBuilder::Off`] when
    /// tracing is disabled).
    pub fn start(&self, sql: &str, clock: u64, session: u64) -> TraceBuilder {
        if !self.enabled() {
            return TraceBuilder::Off;
        }
        TraceBuilder::On(Box::new(ActiveTrace {
            sql: sql.to_string(),
            clock,
            session,
            stack: vec![SpanNode::new("statement")],
        }))
    }

    /// Completes a builder, pushing its trace into the ring. `total_nanos`
    /// becomes the root span's wall time. No-op for disabled builders.
    pub fn finish(&self, builder: TraceBuilder, total_nanos: u64) {
        let TraceBuilder::On(t) = builder else {
            return;
        };
        let ActiveTrace {
            sql,
            clock,
            session,
            mut stack,
        } = *t;
        // fold any unclosed spans into their parents
        while stack.len() > 1 {
            if let Some(done) = stack.pop() {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(done);
                }
            }
        }
        let Some(mut root) = stack.pop() else {
            return;
        };
        root.wall_nanos = total_nanos;
        let trace = QueryTrace {
            sql,
            clock,
            session,
            root,
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The most recent trace, if any.
    pub fn latest(&self) -> Option<QueryTrace> {
        self.ring.lock().back().cloned()
    }

    /// Drops all retained traces.
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_builder_records_nothing() {
        let tracer = Tracer::new(4);
        let mut b = tracer.start("SELECT 1", 1, 0);
        assert!(!b.enabled());
        b.begin("analyze");
        b.event(|| panic!("payload closure must not run when tracing is off"));
        b.end(5);
        tracer.finish(b, 10);
        assert!(tracer.recent().is_empty());
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let tracer = Tracer::new(4);
        tracer.set_enabled(true);
        let mut b = tracer.start("SELECT 1", 7, 2);
        b.begin("analyze");
        b.event(|| TraceEvent::Analysis {
            tables: 1,
            candidate_groups: 3,
        });
        b.end(1000);
        b.begin("collect");
        b.end(2000);
        tracer.finish(b, 5000);
        let t = tracer.latest().expect("trace stored");
        assert_eq!(t.clock, 7);
        assert_eq!(t.session, 2);
        assert_eq!(t.root.wall_nanos, 5000);
        assert_eq!(t.root.children.len(), 2);
        assert_eq!(t.root.children[0].name, "analyze");
        assert_eq!(t.root.children[0].events.len(), 1);
        let rendered = t.render();
        assert!(rendered.contains("analyze"), "{rendered}");
        assert!(rendered.contains("candidate group"), "{rendered}");
    }

    #[test]
    fn ring_is_bounded() {
        let tracer = Tracer::new(2);
        tracer.set_enabled(true);
        for i in 0..5u64 {
            let b = tracer.start(&format!("q{i}"), i, 0);
            tracer.finish(b, 1);
        }
        let recent = tracer.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].sql, "q3");
        assert_eq!(recent[1].sql, "q4");
    }

    #[test]
    fn unclosed_spans_fold_into_root() {
        let tracer = Tracer::new(2);
        tracer.set_enabled(true);
        let mut b = tracer.start("q", 1, 0);
        b.begin("outer");
        b.begin("inner");
        tracer.finish(b, 9);
        let t = tracer.latest().expect("trace stored");
        assert_eq!(t.root.children.len(), 1);
        assert_eq!(t.root.children[0].children.len(), 1);
    }
}

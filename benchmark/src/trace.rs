//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program under test: around calls into
//! each crate's public functions, and — for the stages inside
//! `Database::execute` — from the `QueryMetrics` the call returns. They stay
//! in memory. The measured pass never touches this module; what the recorder
//! costs the traced pass is reported as `bench.trace_overhead_pct`.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    dur_ns: u64,
    /// Operations the span covers; >1 where one operation is too short to
    /// time on its own.
    batch: u32,
}

#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Records a span of one operation that was timed elsewhere.
    pub fn push(&mut self, name: &'static str, dur_ns: u64) {
        self.spans.push(Span {
            name,
            dur_ns,
            batch: 1,
        });
    }

    /// Times `f` as one span covering `batch` operations.
    pub fn time<T>(&mut self, name: &'static str, batch: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            dur_ns,
            batch,
        });
        out
    }

    /// Per-operation durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / f64::from(s.batch))
            .collect()
    }
}

//! Golden-file conformance tests for both exporters.
//!
//! A fixed registry (counters, gauges, and latency histograms spanning
//! several log2 buckets) is rendered to JSON and Prometheus text and
//! byte-compared against checked-in golden files, pinning metric ordering,
//! `# HELP`/`# TYPE` comments, cumulative bucket series, and the derived
//! p50/p99/p999 quantile gauges. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p jits-obs --test exporter_golden`.

// test code: the workspace's panic lints cover library code only
#![allow(clippy::expect_used, clippy::panic)]

use jits_obs::{
    to_json, to_prometheus, validate_json, validate_prometheus, MetricsRegistry, Volatility,
};

fn golden_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter("jits.query.statements", Volatility::Deterministic)
        .add(42);
    reg.gauge("jits.archive.histograms", Volatility::Deterministic)
        .set(7);
    reg.counter("jits.qerror.mispredicted_scans", Volatility::Deterministic)
        .add(3);
    let stage = reg.histogram("jits.stage.execute_nanos", Volatility::Volatile);
    for v in [500, 900, 1_500, 40_000, 40_001, 2_000_000] {
        stage.observe(v);
    }
    let plan = reg.histogram("jits.stage.plan_nanos", Volatility::Volatile);
    for v in [100, 200, 300] {
        plan.observe(v);
    }
    reg
}

fn compare(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            rel
        )
    });
    assert_eq!(
        expected, actual,
        "{rel} drifted from the exporter output; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn prometheus_output_matches_golden() {
    let text = to_prometheus(&golden_registry().snapshot(), true);
    validate_prometheus(&text).expect("golden output must match the exposition grammar");
    compare("tests/golden/metrics.prom", &text);
}

#[test]
fn json_output_matches_golden() {
    let json = to_json(&golden_registry().snapshot(), true);
    validate_json(&json).expect("golden output must parse as JSON");
    compare("tests/golden/metrics.json", &json);
}

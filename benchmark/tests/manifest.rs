//! `BENCHMARK.json` against the driver's contract and against what the
//! program prints. PR 11's manifest was refused before a single run; this
//! test is the check that would have caught it.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;
#[path = "../src/stats.rs"]
#[allow(dead_code)]
mod stats;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::Json;
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(a)) => a,
        _ => panic!("{key} is an array"),
    }
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_meets_the_contract_and_the_catalogue() {
    let doc = manifest();
    let mut top = keys(&doc);
    top.sort_unstable();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let command = array(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(array(&doc, "paths"), [Json::Str("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = array(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(text(w, "name")) && names.insert(text(w, "name").to_string()));
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "a why is one line of at most 200"
        );
    }

    let mut check = |key: &str, defs: &[MetricDef], bounded: bool| {
        let listed = array(&doc, key);
        assert_eq!(listed.len(), defs.len(), "{key} lists the catalogue");
        for (m, def) in listed.iter().zip(defs) {
            let expect: &[&str] = if bounded {
                &["better", "bound", "name", "unit"]
            } else {
                &["better", "name", "unit"]
            };
            assert_eq!(keys(m), expect, "{}", def.name);
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(m, "better"), def.better.as_str(), "{}", def.name);
            assert!(is_name(def.name) && is_unit(def.unit), "{}", def.name);
            assert!(
                names.insert(def.name.to_string()),
                "{} is used once",
                def.name
            );
            if bounded {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                assert_eq!(bound, def.bound, "{}", def.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
            } else {
                assert!(!def.moves.is_empty(), "{} names what it moves", def.name);
            }
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better.as_str()),
        ("setup_s", "s", "lower")
    );
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

/// Runs every workload of the manifest the way the driver does and checks
/// the result line: exactly four keys, and exactly the listed metrics.
#[test]
fn result_lines_carry_exactly_the_listed_metrics() {
    let doc = manifest();
    for w in array(&doc, "workloads") {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_jits-benchmark"))
                .args([
                    "--workload",
                    text(w, "name"),
                    "--seed",
                    "11",
                    "--seconds",
                    "1",
                ])
                .args(["--quick", "--trace", trace])
                .output()
                .expect("the benchmark starts");
            assert!(
                out.status.success(),
                "{} --trace {trace} exits 0",
                text(w, "name")
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let line = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(
                line.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = line.get("metrics").expect("metrics");
            let mut expect: Vec<&str> = defs.iter().map(|d| d.name).collect();
            expect.sort_unstable();
            assert_eq!(keys(metrics), expect);
            for def in defs {
                let m = metrics.get(def.name).expect("listed");
                assert_eq!(keys(m), ["unit", "value"]);
                assert_eq!(text(m, "unit"), def.unit);
            }
        }
    }
}

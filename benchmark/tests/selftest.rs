//! `--all --quick` twice with one seed: everything the program counts, the
//! simulated seconds and the failure count must repeat exactly, and nothing
//! may fail.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;
#[path = "../src/stats.rs"]
#[allow(dead_code)]
mod stats;

use metrics::{END_TO_END, PER_LAYER};
use stats::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn compare_passes(a: &Path, b: &Path) -> bool {
    Command::new(env!("CARGO_BIN_EXE_jits-benchmark"))
        .arg("--compare")
        .args([a, b])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark starts")
        .success()
}

fn quick_all(out: &Path) -> Vec<Json> {
    let _ = std::fs::remove_file(out);
    let status = Command::new(env!("CARGO_BIN_EXE_jits-benchmark"))
        .args(["--all", "--quick", "--seed", "7", "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "--all --quick exits 0");
    std::fs::read_to_string(out)
        .expect("--out was written")
        .lines()
        .map(|l| Json::parse(l).expect("an --out line is JSON"))
        .collect()
}

fn value(run: &Json, section: &str, name: &str) -> f64 {
    run.get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{section}.{name} is reported"))
}

#[test]
fn quick_runs_repeat_exactly() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (a_path, b_path) = (tmp.join("selftest-a.jsonl"), tmp.join("selftest-b.jsonl"));
    let a = quick_all(&a_path);
    let b = quick_all(&b_path);

    // `--compare`: a set of runs is no worse than itself, and a set that
    // lacks a workload does not pass for one that has it.
    assert!(compare_passes(&a_path, &a_path));
    let text = std::fs::read_to_string(&a_path).expect("--out was written");
    let short = tmp.join("selftest-short.jsonl");
    std::fs::write(&short, text.lines().next().expect("a line")).expect("writable");
    assert!(!compare_passes(&a_path, &short));

    assert_eq!(a.len(), 4, "one line per workload");
    assert_eq!(b.len(), 4);
    for (ra, rb) in a.iter().zip(&b) {
        let workload = ra.get("workload").and_then(Json::as_str).expect("workload");
        assert_eq!(rb.get("workload").and_then(Json::as_str), Some(workload));
        for run in [ra, rb] {
            assert_eq!(
                run.get("failed"),
                Some(&Json::Num(0.0)),
                "{workload}: failed_ops"
            );
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)));
        }
        assert_eq!(ra.get("attempted"), rb.get("attempted"));
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for def in defs {
                let (x, y) = (value(ra, section, def.name), value(rb, section, def.name));
                if def.exact {
                    assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {} repeats", def.name);
                }
            }
        }
        for def in END_TO_END {
            assert!(
                value(ra, "end_to_end", def.name) > 0.0,
                "{workload}: {} is never 0",
                def.name
            );
        }
    }
}

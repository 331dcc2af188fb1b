//! `--compare a.jsonl b.jsonl`: the regression rule, one row per workload
//! and end-to-end metric.
//!
//! Each file holds the `--out` lines of one or more runs of one commit. A
//! metric is `worse` when b's median is worse than a's by more than the
//! metric's bound, and `unresolved` when the runs of either side spread
//! (quartile distance over median) wider than the bound, because then the
//! medians cannot tell. A failed statement or answer check in b, and a
//! workload or metric that a reports and b does not, fail the comparison too.
//! Which counts moved between same-seed runs is printed for the reader.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread, Json};
use std::collections::BTreeMap;
use std::path::Path;

struct RunLine {
    workload: String,
    seed: u64,
    rounds: u64,
    failed: f64,
    values: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Vec<RunLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let mut values = BTreeMap::new();
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in doc
                .get(section)
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.insert(name.clone(), v);
                }
            }
        }
        runs.push(RunLine {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            seed: num("seed") as u64,
            rounds: num("rounds") as u64,
            failed: num("failed"),
            values,
        });
    }
    if runs.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    Ok(runs)
}

fn runs_of<'a>(runs: &'a [RunLine], workload: &str) -> Vec<&'a RunLine> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// The runs' values of one metric; 0 reads "no samples on this workload".
fn values_of(runs: &[&RunLine], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.values.get(metric).copied())
        .filter(|v| *v != 0.0)
        .collect()
}

/// `sim_total_s` repeats bit for bit per seed. Where both sides ran the same
/// seeds it is held to the issue's 1%, not to the bound that the spread
/// between different seeds forces on `BENCHMARK.json`.
const SAME_SEED_BOUND: f64 = 0.01;

/// Prints the table; `Ok(false)` when any row is `worse` or `missing`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut pass = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    for w in &workloads {
        let (ra, rb) = (runs_of(&a, w), runs_of(&b, w));
        if rb.is_empty() {
            println!("{w:<14} no run in b  missing");
            pass = false;
            continue;
        }
        let seeds = |runs: &[&RunLine]| {
            let mut s: Vec<(u64, u64)> = runs.iter().map(|r| (r.seed, r.rounds)).collect();
            s.sort_unstable();
            s
        };
        let same_seeds = seeds(&ra) == seeds(&rb);

        // bound 0, absolute: a failed statement or answer check in b fails
        let failed = |runs: &[&RunLine]| runs.iter().map(|r| r.failed).sum::<f64>();
        let verdict = if failed(&rb) > 0.0 {
            pass = false;
            "worse"
        } else {
            "ok"
        };
        println!(
            "{w:<14} {:<14} {:>14} {:>14}  {verdict}",
            "failed_ops",
            failed(&ra),
            failed(&rb)
        );

        for def in END_TO_END.iter().chain(PER_LAYER).filter(|d| d.bound > 0.0) {
            let (va, vb) = (values_of(&ra, def.name), values_of(&rb, def.name));
            if va.is_empty() {
                continue;
            }
            if vb.is_empty() {
                println!("{w:<14} {:<14} not reported by b  missing", def.name);
                pass = false;
                continue;
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let worse_by = match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let (bound, spread) = if def.exact && same_seeds {
                (SAME_SEED_BOUND, 0.0)
            } else {
                let spread = quartile_spread(&va)
                    .into_iter()
                    .chain(quartile_spread(&vb))
                    .fold(0.0, f64::max);
                (def.bound, spread)
            };
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                pass = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>9.4} {:>6.0}% {:>7.1}%  {verdict} (n={}/{})",
                w,
                def.name,
                ma,
                mb,
                mb / ma,
                bound * 100.0,
                spread * 100.0,
                va.len(),
                vb.len()
            );
        }

        // For the reader, not for the exit code: on one commit, counts repeat
        // exactly for one seed and number of rounds (`tests/selftest.rs`
        // asserts it); between two commits they say what the change moved.
        let mut moved = Vec::new();
        for (x, y) in ra.iter().flat_map(|x| {
            rb.iter()
                .filter(|y| (y.seed, y.rounds) == (x.seed, x.rounds))
                .map(move |y| (x, y))
        }) {
            for def in END_TO_END.iter().chain(PER_LAYER).filter(|d| d.exact) {
                if let (Some(p), Some(q)) = (x.values.get(def.name), y.values.get(def.name)) {
                    if p.to_bits() != q.to_bits() {
                        moved.push(format!("seed {}: {} {p} -> {q}", x.seed, def.name));
                    }
                }
            }
        }
        if same_seeds {
            println!(
                "{w:<14} sim_total_s and counts of same-seed runs: {}",
                if moved.is_empty() {
                    "exact".to_string()
                } else {
                    moved.join("; ")
                }
            );
        }
    }
    Ok(pass)
}

//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **sample size** — collection cost vs. estimate quality vs. end-to-end
//!    workload time (the paper cites sample sufficiency results [1, 8, 12]);
//! 2. **archive eviction policy** — uniform-first + LRU (the paper's §3.4)
//!    vs. pure LRU, under a tight bucket budget;
//! 3. **max-entropy refit** vs. naive overwrite of the newest constraint
//!    (what ISOMER-style consistency buys);
//! 4. **table-granularity collection** (the paper's simplification) vs.
//!    hypothetical per-group decisions, measured as sampling volume.

use jits::{EpsilonConfig, JitsConfig, SensitivityStrategy};
use jits_bench::{print_markdown_table, secs, BenchArgs};
use jits_histogram::{GridHistogram, Region};
use jits_obs::clock::now_nanos;
use jits_storage::SampleSpec;
use jits_workload::{generate_workload, prepare, run_workload, setup_database, Setting};

fn main() {
    let args = BenchArgs::parse();
    sample_size_ablation(&args);
    eviction_ablation(&args);
    maxent_ablation();
    strategy_ablation(&args);
}

/// The paper's lightweight heuristic vs. the \[6\]-style ε-planning
/// baseline: per-query decision overhead and end-to-end totals.
fn strategy_ablation(args: &BenchArgs) {
    println!(
        "## Ablation — sensitivity strategy: paper heuristic vs [6] ε-planning
"
    );
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    for (label, strategy) in [
        (
            "paper heuristic (Alg. 2-4)",
            SensitivityStrategy::PaperHeuristic,
        ),
        (
            "epsilon planning [6]",
            SensitivityStrategy::EpsilonPlanning(EpsilonConfig::default()),
        ),
    ] {
        let mut db = setup_database(&args.datagen()).expect("db");
        let setting = Setting::Jits(JitsConfig {
            strategy,
            ..JitsConfig::default()
        });
        prepare(&mut db, &setting, &ops).expect("prepare");
        let t0 = now_nanos();
        let records = run_workload(&mut db, &ops).expect("run");
        let wall = now_nanos().saturating_sub(t0) as f64 / 1e9;
        let queries: Vec<_> = records.iter().filter(|r| r.is_query).collect();
        let compile: f64 = queries.iter().map(|r| r.metrics.compile_sim()).sum();
        let exec: f64 = queries.iter().map(|r| r.metrics.exec_sim()).sum();
        let sampled: usize = queries.iter().map(|r| r.metrics.sampled_tables).sum();
        rows.push(vec![
            label.to_string(),
            secs(compile),
            secs(exec),
            secs(compile + exec),
            sampled.to_string(),
            format!("{wall:.2}"),
        ]);
    }
    print_markdown_table(
        &[
            "strategy",
            "compile (sim s)",
            "exec (sim s)",
            "total",
            "tables sampled",
            "wall (s)",
        ],
        &rows,
    );
    println!(
        "
expected: the heuristic decides without optimizer calls; ε-planning"
    );
    println!("pays two or more plan enumerations per query (the paper's criticism of");
    println!("[6]) and cannot reuse anything it collects (no archive).");
}

/// Workload totals as the per-table sample size varies.
fn sample_size_ablation(args: &BenchArgs) {
    println!(
        "## Ablation — sample size (scale {}, {} ops)\n",
        args.scale, args.ops
    );
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    for sample in [250usize, 500, 1_000, 2_000, 4_000] {
        let mut db = setup_database(&args.datagen()).expect("db");
        let setting = Setting::Jits(JitsConfig {
            sample: SampleSpec::fixed(sample),
            ..JitsConfig::default()
        });
        prepare(&mut db, &setting, &ops).expect("prepare");
        let records = run_workload(&mut db, &ops).expect("run");
        let queries: Vec<_> = records.iter().filter(|r| r.is_query).collect();
        let compile: f64 = queries.iter().map(|r| r.metrics.compile_sim()).sum();
        let exec: f64 = queries.iter().map(|r| r.metrics.exec_sim()).sum();
        rows.push(vec![
            sample.to_string(),
            secs(compile),
            secs(exec),
            secs(compile + exec),
        ]);
    }
    print_markdown_table(
        &["sample rows", "compile (sim s)", "exec (sim s)", "total"],
        &rows,
    );
    println!("\nexpected: compile grows ~linearly with the sample; execution is flat");
    println!("once the sample is large enough — the paper's size-independence claim.\n");
}

/// Workload totals under the paper's eviction policy vs pure LRU, with a
/// bucket budget small enough to force evictions.
fn eviction_ablation(args: &BenchArgs) {
    println!("## Ablation — archive eviction policy (tight budget)\n");
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    for (label, uniformity) in [
        ("uniform-first + LRU (paper)", 0.9),
        ("pure LRU", f64::INFINITY), // nothing qualifies as "almost uniform"
    ] {
        let mut db = setup_database(&args.datagen()).expect("db");
        let setting = Setting::Jits(JitsConfig {
            archive_bucket_budget: 192,
            eviction_uniformity: uniformity,
            ..JitsConfig::default()
        });
        prepare(&mut db, &setting, &ops).expect("prepare");
        let records = run_workload(&mut db, &ops).expect("run");
        let queries: Vec<_> = records.iter().filter(|r| r.is_query).collect();
        let total: f64 = queries.iter().map(|r| r.metrics.total_sim()).sum();
        let sampled: usize = queries.iter().map(|r| r.metrics.sampled_tables).sum();
        rows.push(vec![label.to_string(), secs(total), sampled.to_string()]);
    }
    print_markdown_table(
        &["policy", "workload total (sim s)", "tables sampled"],
        &rows,
    );
    println!("\nexpected: evicting near-uniform histograms first preserves the");
    println!("informative ones, so fewer re-collections are needed.\n");
}

/// Estimate error on overlapping observations: max-entropy refit vs
/// keeping only the newest observation.
fn maxent_ablation() {
    println!("## Ablation — max-entropy refit vs naive overwrite\n");
    // ground truth: 100k rows over [0, 100); 70% below 40, uniform within
    // each side. Observations arrive as overlapping ranges.
    let truth = |lo: f64, hi: f64| -> f64 {
        let below = (hi.min(40.0) - lo.min(40.0)).max(0.0) / 40.0 * 0.7;
        let above = (hi.max(40.0) - lo.max(40.0)).max(0.0) / 60.0 * 0.3;
        below + above
    };
    let observations = [
        (0.0, 40.0),
        (20.0, 60.0),
        (40.0, 100.0),
        (10.0, 50.0),
        (30.0, 70.0),
    ];
    // max-entropy: retain all constraints
    let mut maxent = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100_000.0, 0);
    for (t, (lo, hi)) in observations.iter().enumerate() {
        maxent.apply_observation(
            &Region::new(vec![(*lo, *hi)]),
            truth(*lo, *hi) * 100_000.0,
            100_000.0,
            t as u64,
        );
    }
    // naive: a fresh histogram every time keeps only the newest observation
    let mut naive = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100_000.0, 0);
    let (lo, hi) = *observations.last().unwrap();
    naive.apply_observation(
        &Region::new(vec![(lo, hi)]),
        truth(lo, hi) * 100_000.0,
        100_000.0,
        99,
    );

    let probes = [
        (0.0, 20.0),
        (20.0, 40.0),
        (40.0, 60.0),
        (60.0, 100.0),
        (0.0, 50.0),
    ];
    let mut rows = Vec::new();
    let mut err_m = 0.0;
    let mut err_n = 0.0;
    for (lo, hi) in probes {
        let t = truth(lo, hi);
        let m = maxent.selectivity(&Region::new(vec![(lo, hi)]));
        let n = naive.selectivity(&Region::new(vec![(lo, hi)]));
        err_m += (m - t).abs();
        err_n += (n - t).abs();
        rows.push(vec![
            format!("[{lo}, {hi})"),
            format!("{t:.3}"),
            format!("{m:.3}"),
            format!("{n:.3}"),
        ]);
    }
    print_markdown_table(&["range", "truth", "max-entropy", "newest-only"], &rows);
    println!(
        "\nmean absolute error: max-entropy {:.4}, newest-only {:.4}",
        err_m / probes.len() as f64,
        err_n / probes.len() as f64
    );
}

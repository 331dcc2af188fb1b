//! Concurrency harness — beyond the paper: wall-clock behavior of the
//! engine's two parallelism axes on the §4 evaluation database.
//!
//! 1. **Parallel statistics collection** (deterministic): per-table
//!    sampling for a two-marked-table query fanned over 1/2/4/8 worker
//!    threads. Per-table RNG streams derive from (seed, table, quantifier),
//!    so the collected statistics are bit-identical at every thread count —
//!    asserted here — and only wall-clock changes.
//! 2. **Concurrent sessions** (throughput): the full workload driven
//!    through 1/2/4/8 sessions of one `SharedDatabase`, reporting
//!    wall-clock, blocked lock time, and contended acquisitions.
//!
//! Also replays the workload single-session at each `collect_threads`
//! setting and asserts the final archive digest never changes.

use jits::{collect_for_tables_parallel, query_analysis, JitsConfig};
use jits_bench::{print_markdown_table, BenchArgs};
use jits_common::SplitMix64;
use jits_engine::Database;
use jits_obs::clock::now_nanos;
use jits_obs::Volatility;
use jits_query::{bind_statement, parse, BoundStatement};
use jits_storage::SampleSpec;
use jits_workload::{
    generate_workload, prepare, run_workload_concurrent, run_workload_session, setup_database,
    Setting,
};
use std::time::Duration;

/// Two tables of equal size (OWNER, DEMOGRAPHICS), one local predicate on
/// each, so `s_max = 0` marks exactly two tables for sampling.
const TWO_TABLE_QUERY: &str = "SELECT o.name FROM owner as o, demographics as d \
    WHERE d.ownerid = o.id AND salary > 5000 AND city = 'Ottawa'";

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args = BenchArgs::parse();
    println!("## Concurrency harness (scale {})\n", args.scale);

    collection_speedup(&args);
    workload_collect_threads(&args);
    workload_concurrent_sessions(&args);
}

/// Times the collection stage alone for the two-marked-table query. Runs
/// at 10x the harness scale: per-table sampling must be milliseconds-long
/// for worker fan-out to beat its spawn cost.
fn collection_speedup(args: &BenchArgs) {
    println!("### Parallel statistics collection — two marked tables\n");
    let mut datagen = args.datagen();
    datagen.scale *= 10.0;
    println!("(data scale {} for this section)\n", datagen.scale);
    let db: Database = setup_database(&datagen).expect("database builds");
    let stmt = parse(TWO_TABLE_QUERY).expect("query parses");
    let BoundStatement::Select(block) = bind_statement(&stmt, db.catalog()).expect("query binds")
    else {
        unreachable!("a SELECT statement");
    };
    let candidates = query_analysis(&block);
    let sample_quns: Vec<usize> = (0..block.quns.len())
        .filter(|&q| candidates.iter().any(|c| c.qun == q))
        .collect();
    assert_eq!(sample_quns.len(), 2, "the query must mark two tables");
    // a large sample makes the per-table stage substantial enough to time
    let spec = SampleSpec::fixed(50_000);
    let reps = 20;

    let mut rows = Vec::new();
    let mut baseline_ns = 0u64;
    let mut baseline_bits = 0u64;
    for threads in THREAD_COUNTS {
        let mut best_ns = u64::MAX;
        let mut work_bits = 0u64;
        for _ in 0..reps {
            // identical RNG every rep and thread count => identical stats
            let mut rng = SplitMix64::new(args.seed ^ 0x5EED);
            let t0 = now_nanos();
            let collected = collect_for_tables_parallel(
                &block,
                &sample_quns,
                &candidates,
                db.tables(),
                spec,
                &mut rng,
                threads,
            );
            best_ns = best_ns.min(now_nanos().saturating_sub(t0));
            work_bits = collected.work.to_bits();
        }
        if threads == 1 {
            baseline_ns = best_ns;
            baseline_bits = work_bits;
        }
        assert_eq!(
            work_bits, baseline_bits,
            "collection must be bit-identical at {threads} threads"
        );
        let speedup = baseline_ns as f64 / best_ns as f64;
        rows.push(vec![
            threads.to_string(),
            format!("{:.2}", best_ns as f64 / 1e6),
            format!("{speedup:.2}x"),
            "identical".into(),
        ]);
        if threads == 4 {
            println!(
                "4-thread speedup on 2 marked tables: {:.2}x ({})\n",
                speedup,
                if speedup > 1.5 {
                    "PASS >1.5x"
                } else {
                    "below 1.5x"
                }
            );
        }
    }
    print_markdown_table(
        &["collect threads", "best ms", "speedup", "statistics"],
        &rows,
    );
    println!();
}

/// Replays the full workload single-session at each `collect_threads`
/// setting; the statement stream and the final archive must never change.
fn workload_collect_threads(args: &BenchArgs) {
    println!("### Workload, one session, collect_threads = 1/2/4/8\n");
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    let mut baseline_digest: Option<Vec<String>> = None;
    for threads in THREAD_COUNTS {
        let mut db = setup_database(&args.datagen()).expect("database builds");
        let cfg = JitsConfig {
            collect_threads: threads,
            ..JitsConfig::default()
        };
        prepare(&mut db, &Setting::Jits(cfg), &ops).expect("prepare");
        let shared = db.into_shared();
        let mut session = shared.session();
        let t0 = now_nanos();
        let records = run_workload_session(&mut session, &ops).expect("workload runs");
        let wall = Duration::from_nanos(now_nanos().saturating_sub(t0));
        let mut digest = shared.with_archive(|a| {
            a.iter()
                .map(|(g, h)| format!("{g:?}={h:?}"))
                .collect::<Vec<String>>()
        });
        digest.sort();
        match &baseline_digest {
            None => baseline_digest = Some(digest),
            Some(base) => assert_eq!(
                base, &digest,
                "archive diverged at collect_threads={threads}"
            ),
        }
        let sampled: usize = records.iter().map(|r| r.metrics.sampled_tables).sum();
        rows.push(vec![
            threads.to_string(),
            format!("{:.0} ms", wall.as_secs_f64() * 1e3),
            sampled.to_string(),
            "identical".into(),
        ]);
    }
    print_markdown_table(
        &["collect threads", "wall", "tables sampled", "archive"],
        &rows,
    );
    println!();
}

/// Drives the workload through 1/2/4/8 concurrent sessions.
fn workload_concurrent_sessions(args: &BenchArgs) {
    println!("### Workload across concurrent sessions\n");
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let mut db = setup_database(&args.datagen()).expect("database builds");
        prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).expect("prepare");
        let shared = db.into_shared();
        let t0 = now_nanos();
        let records = run_workload_concurrent(&shared, &ops, threads).expect("workload runs");
        let wall = Duration::from_nanos(now_nanos().saturating_sub(t0));
        assert_eq!(records.len(), ops.len());
        let engine = |name| {
            shared
                .obs()
                .registry
                .counter(name, Volatility::Volatile)
                .get()
        };
        rows.push(vec![
            threads.to_string(),
            format!("{:.0} ms", wall.as_secs_f64() * 1e3),
            format!(
                "{:.2} ms",
                engine("jits.engine.lock_wait_nanos") as f64 / 1e6
            ),
            engine("jits.engine.contended_acquisitions").to_string(),
            records.len().to_string(),
        ]);
    }
    print_markdown_table(
        &[
            "sessions",
            "wall",
            "blocked lock time",
            "contended acquisitions",
            "statements",
        ],
        &rows,
    );
    println!();
}

//! Concurrency harness — beyond the paper: the full workload driven
//! through 1/2/4/8 concurrent sessions of one `SharedDatabase` on the §4
//! evaluation database, reporting wall-clock, blocked lock time, and
//! contended acquisitions.

use jits::JitsConfig;
use jits_bench::{print_markdown_table, BenchArgs};
use jits_obs::clock::now_nanos;
use jits_obs::Volatility;
use jits_workload::{generate_workload, prepare, run_workload_concurrent, setup_database, Setting};
use std::time::Duration;

const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args = BenchArgs::parse();
    println!("## Concurrency harness (scale {})\n", args.scale);
    workload_concurrent_sessions(&args);
}

/// Drives the workload through 1/2/4/8 concurrent sessions.
fn workload_concurrent_sessions(args: &BenchArgs) {
    println!("### Workload across concurrent sessions\n");
    let ops = generate_workload(&args.workload(), &args.datagen());
    let mut rows = Vec::new();
    for sessions in SESSION_COUNTS {
        let mut db = setup_database(&args.datagen()).expect("database builds");
        prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).expect("prepare");
        let shared = db.into_shared();
        let t0 = now_nanos();
        let records = run_workload_concurrent(&shared, &ops, sessions).expect("workload runs");
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
            sessions.to_string(),
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

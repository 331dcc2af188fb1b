//! The JITS benchmark. See `benchmark/README.md`.
//!
//! ```text
//! jits-benchmark --all --seed <u64> [--rounds N | --seconds S] [--quick] [--out FILE]
//! jits-benchmark --workload <name> --seed <u64> --seconds <S> --trace <0|1>
//! jits-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER};
use run::{Pass, Plan, Report};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  jits-benchmark --all [--seed N] [--seconds S | --rounds R] [--quick] [--out FILE]
  jits-benchmark --workload NAME [--seed N] [--seconds S | --rounds R] [--quick]
                 [--trace 0|1] [--out FILE]
  jits-benchmark --compare A.jsonl B.jsonl
workloads: paper_mix stats_churn point_lookup durable_churn";

#[derive(Default)]
struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    rounds: Option<usize>,
    quick: bool,
    trace: Option<u8>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
        }
        match flag.as_str() {
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = Some(num(flag, value()?)?),
            "--rounds" => args.rounds = Some(num(flag, value()?)?),
            "--trace" => args.trace = Some(num(flag, value()?)?),
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.rounds == Some(0) || args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--rounds and --seconds must be positive".into());
    }
    Ok(args)
}

fn json_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                // every digit as measured; JSON has no NaN or infinity
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(report.end_to_end.iter().chain(&report.per_layer))
    )
}

/// One line of an `--out` file: the result line's content plus what run it
/// was, for `--compare`.
fn out_line(report: &Report) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"rounds\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
        report.workload,
        report.seed,
        report.rounds,
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&report.end_to_end),
        json_metrics(&report.per_layer)
    )
}

fn print_table(report: &Report, why: &str) {
    println!(
        "== {} (seed {}, {} round(s)) ==",
        report.workload, report.seed, report.rounds
    );
    println!("  {why}");
    println!(
        "  {:<36} {:>16} of {} attempted",
        "failed_ops", report.failed, report.attempted
    );
    for f in &report.failures {
        println!("    FAILED {}", stats::json_escape(f));
    }
    for (metrics, defs) in [
        (&report.end_to_end, END_TO_END),
        (&report.per_layer, PER_LAYER),
    ] {
        for (m, d) in metrics.iter().zip(defs) {
            let note = if d.bound > 0.0 {
                format!(
                    "{} is better, bound {:.0}%",
                    d.better.as_str(),
                    d.bound * 100.0
                )
            } else {
                format!("moves {}", d.moves)
            };
            println!("  {:<36} {:>16.6} {:<6} {note}", m.name, m.value, m.unit);
        }
    }
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let full =
        workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let workload = if args.quick { full.quick() } else { *full };
    let pass = match args.trace {
        None => Pass::Both,
        Some(0) => Pass::EndToEnd,
        Some(1) => Pass::Layers,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let rounds = match (args.quick, args.rounds) {
        (true, _) => 1,
        (false, Some(r)) => r,
        (false, None) => workload.rounds_for(args.seconds.unwrap_or(DEFAULT_SECONDS)),
    };
    let started = std::time::Instant::now();
    let report = run::run(&Plan {
        workload,
        seed: args.seed,
        rounds,
        pass,
    })?;
    print_table(&report, workload.why);
    println!("  ran in {:.1} s", started.elapsed().as_secs_f64());
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", out_line(&report)).map_err(|e| e.to_string())?;
    }
    println!("{}", result_line(&report));
    Ok(report.failed == 0)
}

/// Runs every workload in a child process of its own, so that `peak_rss_mb`
/// is the workload's and not the sum of what ran before it.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let rest: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&rest)
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare::compare(a, b)
        } else if args.all {
            run_all(&argv)
        } else if let Some(name) = &args.workload {
            run_workload(&args, name)
        } else {
            Err(USAGE.into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

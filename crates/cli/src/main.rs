//! `jits-sql` — an interactive SQL shell over the JITS engine.
//!
//! ```sh
//! cargo run --release -p jits-cli [-- --scale 0.002]
//! ```
//!
//! Boots the paper's car-insurance database and reads statements from stdin.
//! Besides SQL (`SELECT`/`INSERT`/`UPDATE`/`DELETE`/`EXPLAIN ...`), the
//! shell understands:
//!
//! ```text
//! \setting no-stats | general | workload | jits [s_max]
//! \runstats           collect general statistics on all tables
//! \migrate            fold 1-D QSS histograms into the catalog
//! \stats              show archive / history / catalog status
//! \checkpoint         force a durability checkpoint (needs --data-dir)
//! \trace on|off       print each statement's record (also: --trace flag)
//! \metrics [prom]     dump the metrics registry (JSON or Prometheus)
//! \analyze <stmt>     execute a SELECT/UPDATE/DELETE and print its per-operator profile
//!                     (est/actual rows, q-error, work, wall)
//! \flight [path]      dump the flight recorder as JSON (stdout or file)
//! \help, \quit
//! ```
//!
//! Durability: `--data-dir <path>` opens (or creates) a write-ahead-logged
//! database under `<path>`. A fresh directory is seeded with the
//! car-insurance schema and data; an existing one is *recovered* — last
//! checkpoint plus WAL tail replay — so the statistics plane (QSS archive,
//! history, catalog stats) comes back warm and the first query does not
//! re-sample. Every statement is logged before it runs; `\checkpoint`
//! forces a fuzzy checkpoint on demand.
//!
//! With `--trace`, each statement prints its record — the stage walls
//! (parse/bind, analyze, sensitivity, collect, refine, optimize, execute,
//! feedback) and the decisions made in each — to stderr; the record is
//! kept either way, so the flag only toggles printing. `--metrics` dumps
//! the registry as JSON on exit.
//!
//! `--dump-flight <path>` writes the flight-recorder ring (the last 256
//! statement records and notes, `FLIGHT_CAPACITY` in `jits-obs`) to
//! `<path>` as JSON on exit, and also arms anomaly auto-dump:
//! any statement whose max q-error crosses `jits::QERROR_THRESHOLD`, or
//! that degrades, rewrites the dump immediately — so the black box survives
//! even a crash later in the session.
//!
//! Chaos testing: `--fault-spec 'point=mode:arg[:attempts],...'` installs
//! the deterministic fault plane (e.g. `--fault-spec
//! 'sample.draw=every:3:inf,archive.write=once:2049'`), and `--fault-seed
//! <u64>` (default 0) keys its schedules; replaying with the same seed,
//! spec, and workload reproduces every fault bit-identically. Degradations
//! show up in `SELECT * FROM jits_degradation` and the `jits.degraded.*`
//! counters.

use jits::JitsConfig;
use jits_common::FaultPlane;
use jits_engine::{Database, StatsSetting};
use jits_workload::{create_schema, populate, DataGenConfig};
use std::io::{BufRead, Write};

fn main() {
    let mut scale = 0.002f64;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        scale = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(scale);
    }
    let mut trace = args.iter().any(|a| a == "--trace");
    let metrics = args.iter().any(|a| a == "--metrics");
    let dump_flight: Option<String> = match args.iter().position(|a| a == "--dump-flight") {
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("--dump-flight requires a file path");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let fault_seed: u64 = match args.iter().position(|a| a == "--fault-seed") {
        Some(i) => match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(seed) => seed,
            None => {
                eprintln!("--fault-seed requires an unsigned integer");
                std::process::exit(2);
            }
        },
        None => 0,
    };
    let fault = match args.iter().position(|a| a == "--fault-spec") {
        Some(i) => {
            let Some(spec) = args.get(i + 1) else {
                eprintln!("--fault-spec requires a specification string");
                std::process::exit(2);
            };
            match FaultPlane::from_spec(fault_seed, spec) {
                Ok(plane) => plane,
                Err(e) => {
                    eprintln!("invalid --fault-spec: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => FaultPlane::disabled(),
    };
    let data_dir: Option<String> = match args.iter().position(|a| a == "--data-dir") {
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("--data-dir requires a directory path");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let cfg = DataGenConfig {
        scale,
        ..DataGenConfig::default()
    };
    let mut db = match &data_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create --data-dir {dir}: {e}");
                std::process::exit(2);
            }
            match Database::open(cfg.seed, std::path::Path::new(dir)) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("cannot recover {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Database::new(cfg.seed),
    };
    if db.tables().is_empty() {
        // fresh database (in-memory, or an empty data directory)
        eprintln!("loading the car-insurance database at scale {scale} ...");
        create_schema(&mut db).expect("schema");
        let counts = populate(&mut db, &cfg).expect("populate");
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        eprintln!(
            "tables: car={} owner={} demographics={} accidents={}",
            counts[0], counts[1], counts[2], counts[3]
        );
    } else {
        // recovered: schema, data, and warm statistics come from the log
        let r = db.recovery_report();
        eprintln!(
            "recovered {} (checkpoint lsn {}, {} record(s) replayed, {} replay error(s), \
             {} torn byte(s) discarded); statistics are warm: archive has {} histogram(s)",
            data_dir.as_deref().unwrap_or("?"),
            r.checkpoint_lsn
                .map_or("none".to_string(), |l| l.to_string()),
            r.replayed_records,
            r.replay_errors,
            r.torn_bytes,
            db.archive().len(),
        );
    }
    if let Some(path) = &dump_flight {
        // arm anomaly auto-dump so the black box is on disk even if the
        // process dies before the exit-time dump
        db.obs().flight.set_auto_dump(Some(path.clone().into()));
    }
    if fault.is_enabled() {
        eprintln!(
            "fault plane enabled (seed {fault_seed}); degradations: SELECT * FROM jits_degradation"
        );
        db.set_fault_plane(fault);
    }
    eprintln!("ready (JITS enabled; \\help for commands)");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("jits> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            if !meta_command(&mut db, cmd, &mut trace) {
                break;
            }
            continue;
        }
        match db.execute(line) {
            Ok(result) => {
                let shown = result.rows.len().min(40);
                for row in result.rows.iter().take(shown) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    let _ = writeln!(out, "{}", cells.join(" | "));
                }
                if result.rows.len() > shown {
                    let _ = writeln!(out, "... ({} rows total)", result.rows.len());
                }
                if let Some(rec) = result.metrics.profile.as_ref().filter(|_| trace) {
                    eprint!("{}", rec.render());
                }
                let m = &result.metrics;
                eprintln!(
                    "-- {} rows, compile {:.2} ms (work {:.0}), exec {:.2} ms (work {:.0}), sampled {} table(s)",
                    result.rows.len(),
                    m.compile_wall.as_secs_f64() * 1e3,
                    m.compile_work,
                    m.exec_wall.as_secs_f64() * 1e3,
                    m.exec_work,
                    m.sampled_tables,
                );
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if metrics {
        println!("{}", db.metrics_json(true));
    }
    if let Some(path) = &dump_flight {
        match std::fs::write(path, db.obs().flight.to_json(true)) {
            Ok(()) => eprintln!("flight recorder dumped to {path}"),
            Err(e) => eprintln!("cannot dump flight recorder to {path}: {e}"),
        }
    }
}

/// Handles a `\...` meta command; returns false to quit.
fn meta_command(db: &mut Database, cmd: &str, trace: &mut bool) -> bool {
    let parts: Vec<&str> = cmd.split_whitespace().collect();
    match parts.first().copied() {
        Some("q") | Some("quit") | Some("exit") => return false,
        Some("help") => {
            eprintln!("SQL: SELECT / INSERT / UPDATE / DELETE / EXPLAIN SELECT ...");
            eprintln!("\\setting no-stats|general|workload|jits [s_max]");
            eprintln!("\\runstats   \\migrate   \\stats   \\checkpoint   \\quit");
            eprintln!("\\trace on|off   \\metrics [prom]");
            eprintln!("\\analyze <stmt>     \\flight [path]");
        }
        Some("analyze") => {
            let sql = cmd.trim_start_matches("analyze").trim();
            if sql.is_empty() {
                eprintln!("usage: \\analyze <SELECT | UPDATE | DELETE ...>");
            } else {
                match db.explain_analyze(sql) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        Some("flight") => match parts.get(1).copied() {
            Some(path) => match std::fs::write(path, db.obs().flight.to_json(true)) {
                Ok(()) => eprintln!("flight recorder dumped to {path}"),
                Err(e) => eprintln!("cannot dump flight recorder to {path}: {e}"),
            },
            None => println!("{}", db.obs().flight.to_json(true)),
        },
        Some("trace") => match parts.get(1).copied() {
            Some("on") => *trace = true,
            Some("off") => *trace = false,
            _ => eprintln!("tracing is {}", if *trace { "on" } else { "off" }),
        },
        Some("metrics") => {
            if parts.get(1).copied() == Some("prom") {
                print!("{}", db.metrics_prometheus());
            } else {
                println!("{}", db.metrics_json(true));
            }
        }
        Some("checkpoint") => match db.checkpoint() {
            Ok(Some(lsn)) => eprintln!("checkpoint written through lsn {lsn}"),
            Ok(None) => eprintln!("in-memory database (start with --data-dir to enable the WAL)"),
            Err(e) => eprintln!("checkpoint failed: {e}"),
        },
        Some("runstats") => match db.runstats_all() {
            Ok(()) => eprintln!("general statistics collected on all tables"),
            Err(e) => eprintln!("error: {e}"),
        },
        Some("migrate") => {
            let n = db.migrate_statistics();
            eprintln!("migrated {n} one-dimensional histogram(s) into the catalog");
        }
        Some("stats") => {
            eprintln!(
                "archive: {} histogram(s), {} bucket(s); history: {} entr(ies); clock {}",
                db.archive().len(),
                db.archive().total_buckets(),
                db.history().len(),
                db.clock()
            );
        }
        Some("setting") => {
            let setting = match parts.get(1).copied() {
                Some("no-stats") => Some(StatsSetting::NoStatistics),
                Some("general") => Some(StatsSetting::CatalogOnly),
                Some("workload") => Some(StatsSetting::ArchiveReadOnly),
                Some("jits") => {
                    let s_max = parts
                        .get(2)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(JitsConfig::default().s_max);
                    Some(StatsSetting::Jits(JitsConfig {
                        s_max,
                        ..JitsConfig::default()
                    }))
                }
                other => {
                    eprintln!("unknown setting {other:?} (no-stats|general|workload|jits)");
                    None
                }
            };
            if let Some(s) = setting {
                let needs_runstats = matches!(s, StatsSetting::CatalogOnly)
                    && db
                        .table_id("car")
                        .and_then(|t| db.catalog().row_count(t))
                        .is_none();
                eprintln!("setting -> {}", s.label());
                if needs_runstats {
                    eprintln!("(catalog is empty — run \\runstats to collect general statistics)");
                }
                db.set_setting(s);
            }
        }
        other => eprintln!("unknown command {other:?} (try \\help)"),
    }
    true
}

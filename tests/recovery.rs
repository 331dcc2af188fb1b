//! Crash-consistency integration tests (DESIGN.md §14): the WAL crash
//! matrix, warm-statistics restarts, and torn-log recovery.
//!
//! The central claim under test: recovering a durable database — newest
//! checkpoint segment + WAL tail replay — produces **bit-identical**
//! in-memory state to a never-crashed replay of the same statement prefix,
//! at any `collect_threads`. "Bit-identical" is checked over everything
//! decision-bearing: tables (slots, epochs, UDI, indexes), catalog stats,
//! archive contents, StatHistory, predicate/sample caches, the RNG stream
//! position, the logical clock, and the deterministic metrics subset.

use jits::JitsConfig;
use jits_common::{DataType, FaultPlane, JitsError, Schema, TestDir, Value};
use jits_engine::{Database, StatsSetting};

const SEED: u64 = 0xD15C;

/// Names must match `jits_common::fault`'s `wal.*` points; each entry is
/// (point, spec): `once:6` keys on the append-time statement clock, so the
/// crash lands mid-workload; the checkpoint point fires on the first
/// auto-checkpoint attempt instead (its key stream is sparser).
const CRASH_SPECS: &[(&str, &str)] = &[
    ("wal.before_append", "wal.before_append=once:6"),
    (
        "wal.after_append_before_fsync",
        "wal.after_append_before_fsync=once:6",
    ),
    ("wal.torn_tail", "wal.torn_tail=once:6"),
    ("wal.mid_checkpoint", "wal.mid_checkpoint=after:0:inf"),
];

const OPS: &[&str] = &[
    "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000",
    "SELECT id FROM car WHERE year > 1995",
    "INSERT INTO car VALUES (9000, 'BMW', 2006)",
    "SELECT id FROM car WHERE make = 'Honda' AND year > 1992",
    "UPDATE car SET year = 2001 WHERE id = 3",
    "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000",
    "SELECT id FROM car WHERE year > 1999",
    "DELETE FROM car WHERE id = 9000",
    "SELECT id FROM car WHERE make = 'Honda'",
    // keyed DML: rows located through the primary-key and `year` indexes
    // (point, range, a SET on the probed column), so replay must rebuild
    // the same per-key posting order the probes then read
    "UPDATE car SET year = 1991 WHERE year = 1990",
    "DELETE FROM car WHERE id BETWEEN 20 AND 24",
    "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000",
    "UPDATE car SET make = 'Audi' WHERE year = 1991 AND id < 200",
    "SELECT id FROM car WHERE year > 1995",
    "DELETE FROM car WHERE year = 2006",
    "SELECT id FROM car WHERE make = 'Honda' AND year > 1992",
    "SELECT id FROM car WHERE year > 2002",
    "SELECT id FROM car WHERE make = 'Toyota'",
];

fn cfg(collect_threads: usize) -> JitsConfig {
    JitsConfig {
        s_max: 0.0, // collect on every query: maximal statistics churn
        collect_threads,
        ..JitsConfig::default()
    }
}

/// DDL + data + setting, identical for in-memory and durable databases.
fn setup(db: &mut Database, threads: usize) {
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]),
    )
    .unwrap();
    let rows = (0..400i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", rows).unwrap();
    db.set_primary_key("car", "id").unwrap();
    db.create_index("car", "year").unwrap();
    db.set_setting(StatsSetting::Jits(cfg(threads)));
}

/// Executes `ops[from..]`, returning the first failure (index + error).
fn run_ops(db: &mut Database, from: usize) -> Option<(usize, JitsError)> {
    for (i, sql) in OPS.iter().enumerate().skip(from) {
        if let Err(e) = db.execute(sql) {
            return Some((i, e));
        }
    }
    None
}

/// Everything decision-bearing, rendered to comparable lines. Sample-cache
/// entries are compared whole (spec, epoch, rows, draw cost, hit counts).
fn digest(db: &Database) -> Vec<String> {
    let mut d = vec![
        format!("clock={}", db.clock()),
        format!("rng={:#x}", db.rng_state_for_test()),
        format!("catalog={:?}", db.catalog()),
    ];
    for t in db.tables() {
        d.push(format!("table={:?}", t.snapshot()));
    }
    let mut arch: Vec<String> = db
        .archive()
        .iter()
        .map(|(g, h)| format!("archive {g:?}={h:?}"))
        .collect();
    arch.sort();
    d.extend(arch);
    d.push(format!("history={:?}", db.history().snapshot()));
    d.push(format!(
        "samplecache_counters={:?}",
        db.sample_cache().counters()
    ));
    let mut sc: Vec<String> = db
        .sample_cache()
        .entries()
        .map(|(t, s)| {
            format!(
                "sample {t:?}: spec={:?} epoch={} rows_at_draw={} rows={:?} probes={} hits={}",
                s.spec, s.epoch, s.rows_at_draw, s.rows, s.probes, s.hits
            )
        })
        .collect();
    sc.sort();
    d.extend(sc);
    d.push(db.metrics_json(false));
    d
}

fn assert_digests_eq(a: &[String], b: &[String], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: digest line counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: digest line {i} diverged");
    }
}

/// The crash matrix: every named WAL crash point × {1, 8} collect threads.
/// At each combination: the recovered state is bit-identical to a
/// never-crashed in-memory replay of the pre-crash prefix, and finishing
/// the workload lands bit-identically to a full never-crashed run.
#[test]
fn crash_matrix_recovers_bit_identical_state() {
    for &threads in &[1usize, 8] {
        for (point, spec) in CRASH_SPECS {
            let dir = TestDir::new(&format!("recovery-crash-{point}-t{threads}"));

            // crashed run
            let mut db = Database::open(SEED, dir.path()).unwrap();
            setup(&mut db, threads);
            db.set_checkpoint_every(4);
            db.set_fault_plane(FaultPlane::from_spec(7, spec).unwrap());
            let (failed_at, err) = run_ops(&mut db, 0)
                .unwrap_or_else(|| panic!("{point} (threads {threads}): crash never fired"));
            assert!(
                matches!(err, JitsError::Recovery(_)),
                "{point}: crash must surface as a typed Recovery error, got {err:?}"
            );
            // the poisoned log fails all further durable statements fast
            let (again, err2) =
                run_ops(&mut db, failed_at).expect("poisoned log must keep failing");
            assert_eq!(again, failed_at);
            assert!(matches!(err2, JitsError::Recovery(_)));
            drop(db); // the simulated crash

            // recover, and compare against a never-crashed in-memory replay
            // of the same statement prefix
            let mut recovered = Database::open(SEED, dir.path()).unwrap();
            if *point == "wal.torn_tail" {
                assert!(
                    recovered.recovery_report().torn_bytes > 0,
                    "torn-tail crash must leave (and recovery must cut) a torn frame"
                );
            }
            let mut prefix_control = Database::new(SEED);
            setup(&mut prefix_control, threads);
            for sql in &OPS[..failed_at] {
                prefix_control.execute(sql).unwrap();
            }
            assert_digests_eq(
                &digest(&recovered),
                &digest(&prefix_control),
                &format!("{point} (threads {threads}): recovered vs prefix control"),
            );

            // finish the workload on the recovered database: bit-identical
            // to a full never-crashed run
            recovered.set_checkpoint_every(4);
            assert_eq!(run_ops(&mut recovered, failed_at).map(|(i, _)| i), None);
            let mut full_control = Database::new(SEED);
            setup(&mut full_control, threads);
            assert_eq!(run_ops(&mut full_control, 0).map(|(i, _)| i), None);
            assert_digests_eq(
                &digest(&recovered),
                &digest(&full_control),
                &format!("{point} (threads {threads}): resumed vs full control"),
            );
        }
    }
}

/// A durable run (auto-checkpoints included) is bit-identical to an
/// in-memory run of the same workload — the WAL is invisible to the
/// deterministic state, which is what makes statement replay sound.
#[test]
fn durable_run_is_bit_identical_to_in_memory() {
    let dir = TestDir::new("recovery-durable-ab");
    let mut durable = Database::open(SEED, dir.path()).unwrap();
    setup(&mut durable, 1);
    durable.set_checkpoint_every(3);
    assert_eq!(run_ops(&mut durable, 0).map(|(i, _)| i), None);
    let mut memory = Database::new(SEED);
    setup(&mut memory, 1);
    assert_eq!(run_ops(&mut memory, 0).map(|(i, _)| i), None);
    assert_digests_eq(&digest(&durable), &digest(&memory), "durable vs in-memory");
}

/// The headline behavior: a restarted engine answers its first query from
/// the persisted QSS archive — warm, no re-sampling — instead of
/// re-degrading to cold defaults.
#[test]
fn restart_answers_first_query_from_warm_statistics() {
    let dir = TestDir::new("recovery-warm-restart");
    let q = "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000";
    let warm_rows;
    {
        let mut db = Database::open(SEED, dir.path()).unwrap();
        db.create_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        let rows = (0..400i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                    Value::Int(1990 + i % 17),
                ]
            })
            .collect();
        db.load_rows("car", rows).unwrap();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        // repeat until the statistics plane is warm for q
        let mut warmed = None;
        for _ in 0..6 {
            let r = db.execute(q).unwrap();
            if r.metrics.sampled_tables == 0 {
                warmed = Some(r.rows);
                break;
            }
        }
        warm_rows = warmed.expect("the workload must warm up within a few repetitions");
        assert!(
            !db.archive().is_empty(),
            "warm state must include archive groups"
        );
    } // drop = clean shutdown; state lives in the checkpoint + log

    let mut db = Database::open(SEED, dir.path()).unwrap();
    assert!(db.is_durable());
    assert!(
        !db.archive().is_empty(),
        "recovery must restore the QSS archive"
    );
    let r = db.execute(q).unwrap();
    assert_eq!(
        r.metrics.sampled_tables, 0,
        "first query after restart must be answered from persisted statistics"
    );
    assert_eq!(r.rows, warm_rows, "and it must answer correctly");
}

/// Satellite: a WAL prefix cut at **every** byte boundary either recovers
/// cleanly to the last whole record or fails with a typed
/// [`JitsError::Recovery`] — never a panic. Exhaustive over all boundaries
/// (strictly stronger than sampling them).
#[test]
fn wal_prefix_cut_at_every_byte_recovers_or_errors_typed() {
    let dir = TestDir::new("recovery-prefix-cut-source");
    let mut db = Database::open(SEED, dir.path()).unwrap();
    setup(&mut db, 1);
    db.set_checkpoint_every(0); // manual cadence
    for sql in &OPS[..4] {
        db.execute(sql).unwrap();
    }
    db.checkpoint()
        .unwrap()
        .expect("durable databases checkpoint");
    for sql in &OPS[4..8] {
        db.execute(sql).unwrap();
    }
    let full_clock = db.clock();
    drop(db);

    let wal_bytes = std::fs::read(dir.path().join("wal.log")).unwrap();
    let segs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".seg")
                .then(|| (name.clone(), std::fs::read(e.path()).unwrap()))
        })
        .collect();
    assert!(
        !segs.is_empty(),
        "the manual checkpoint must leave a segment"
    );

    let cuts = TestDir::new("recovery-prefix-cut-cuts");
    let mut clean_recoveries = 0usize;
    for cut in 0..=wal_bytes.len() {
        let cut_dir = cuts.file(&format!("cut-{cut}"));
        std::fs::create_dir_all(&cut_dir).unwrap();
        for (name, bytes) in &segs {
            std::fs::write(cut_dir.join(name), bytes).unwrap();
        }
        std::fs::write(cut_dir.join("wal.log"), &wal_bytes[..cut]).unwrap();
        match Database::open(SEED, &cut_dir) {
            Ok(db) => {
                clean_recoveries += 1;
                assert!(
                    db.clock() <= full_clock,
                    "cut {cut}: recovered clock must not exceed the uncut run"
                );
                assert_eq!(
                    db.recovery_report().replay_errors,
                    0,
                    "cut {cut}: prefix replay must not error"
                );
            }
            Err(JitsError::Recovery(_)) => {} // typed refusal is acceptable
            Err(other) => panic!("cut {cut}: expected Ok or Recovery, got {other:?}"),
        }
    }
    assert!(
        clean_recoveries > wal_bytes.len() / 2,
        "most prefix cuts are torn tails and must recover cleanly \
         ({clean_recoveries}/{} recovered)",
        wal_bytes.len() + 1
    );
}

/// A single-session durable [`jits_engine::SharedDatabase`] run recovers
/// (via the single-owner opener) bit-identically to a never-crashed
/// single-owner run — shared-mode appends hit the same log records.
#[test]
fn shared_database_durability_round_trips() {
    let dir = TestDir::new("recovery-shared-roundtrip");
    {
        let mut db = Database::open(SEED, dir.path()).unwrap();
        setup(&mut db, 1);
        let shared = db.into_shared();
        shared.set_checkpoint_every(4);
        let mut s = shared.session();
        for sql in OPS {
            s.execute(sql).unwrap();
        }
        assert!(shared.is_durable());
        assert!(shared.checkpoint().unwrap().is_some());
    }
    let recovered = Database::open(SEED, dir.path()).unwrap();
    let mut control = Database::new(SEED);
    setup(&mut control, 1);
    assert_eq!(run_ops(&mut control, 0).map(|(i, _)| i), None);
    assert_digests_eq(
        &digest(&recovered),
        &digest(&control),
        "shared durable run vs single-owner control",
    );
}

/// String columns are dictionary-encoded, and recovery re-interns them in
/// slot order, so after a restart the same strings carry other codes — and
/// strings that only dead dictionary entries held are gone. None of that may
/// show: a GROUP BY on a string, an `IN` list and a string range answer the
/// same rows in the same order, with the same `exec_work` bits, before the
/// drop and after `Database::open`.
#[test]
fn string_codes_are_not_observable_across_restart() {
    const QUERIES: &[&str] = &[
        "SELECT make, COUNT(*), MIN(id), MAX(year) FROM car GROUP BY make",
        "SELECT id, make FROM car WHERE make IN ('Zephyr', 'Honda', 'Lada') AND year > 2003",
        "SELECT id, make FROM car WHERE make >= 'H' AND make < 'W'",
    ];
    type Answers = Vec<(Vec<Vec<Value>>, u64)>;
    fn answer(db: &mut Database) -> Answers {
        QUERIES
            .iter()
            .map(|q| {
                let r = db.execute(q).unwrap();
                assert!(!r.rows.is_empty(), "vacuous query: {q}");
                (r.rows, r.metrics.exec_work.to_bits())
            })
            .collect()
    }
    let codes = |db: &Database| -> Vec<u32> {
        db.tables()[0]
            .str_codes(jits_common::ColumnId(1))
            .expect("make is a string column")
            .codes
            .to_vec()
    };
    let dir = TestDir::new("recovery-string-codes");
    let (before, codes_before) = {
        let mut db = Database::open(SEED, dir.path()).unwrap();
        setup(&mut db, 1);
        // values first written by UPDATE, and one ("Toyota") that then
        // survives only as a dead dictionary entry
        for sql in [
            "UPDATE car SET make = 'Zephyr' WHERE id < 40",
            "UPDATE car SET make = 'Audi' WHERE make = 'Toyota'",
            "UPDATE car SET make = 'Volvo' WHERE year = 2004",
        ] {
            db.execute(sql).unwrap();
        }
        db.runstats_all().unwrap();
        db.set_setting(StatsSetting::CatalogOnly);
        assert!(db.checkpoint().unwrap().is_some());
        (answer(&mut db), codes(&db))
    };
    let mut db = Database::open(SEED, dir.path()).unwrap();
    db.set_setting(StatsSetting::CatalogOnly);
    assert_ne!(
        codes(&db),
        codes_before,
        "recovery must have renumbered the dictionary"
    );
    assert_eq!(answer(&mut db), before);
}

/// A checkpoint segment in the version-1 format (which still carried the
/// engine's executor, skipping and profiling flags) is refused with a typed
/// error on both front-ends, never decoded as the current format.
#[test]
fn version_one_checkpoint_is_refused_with_a_typed_error() {
    let dir = TestDir::new("recovery-version-one-checkpoint");
    let mut opened = jits_wal::Wal::open(dir.path()).unwrap();
    opened
        .wal
        .checkpoint(&[1, 0, 0, 0], &FaultPlane::disabled(), 0)
        .unwrap();
    drop(opened);
    for err in [
        Database::open(SEED, dir.path()).err(),
        jits_engine::SharedDatabase::open(SEED, dir.path()).err(),
    ] {
        match err {
            Some(JitsError::Recovery(m)) => assert!(m.contains("version 1"), "{m}"),
            other => panic!("expected a Recovery error, got {other:?}"),
        }
    }
}

//! Concurrency integration tests: one session must replay the single-owner
//! database step for step, and concurrent sessions must keep the engine
//! consistent under a mixed query/DML workload.

use jits::JitsConfig;
use jits_common::{DataType, FaultPlane, Schema, TestDir, Value};
use jits_engine::{Database, QueryResult, Session, SharedDatabase, StatsSetting};
use jits_obs::Volatility;
use jits_storage::BLOCK_SIZE;
use jits_workload::{
    create_schema, generate_workload, populate, prepare, run_workload_concurrent, setup_database,
    DataGenConfig, Setting, WorkloadSpec,
};

fn tiny() -> (DataGenConfig, WorkloadSpec) {
    (
        DataGenConfig {
            scale: 0.002,
            seed: 0xC0FFEE,
        },
        WorkloadSpec {
            total_ops: 36,
            dml_every: 6,
            seed: 0xBEEF,
        },
    )
}

// ---------------------------------------------------------------------------
// Replay parity of the two stores
// ---------------------------------------------------------------------------

/// One step of the replay-parity script.
enum Step {
    Sql(String),
    Explain(&'static str),
    ExplainJits(&'static str),
    Analyze(&'static str),
    /// DDL and a bulk load: the `ev` table of the DML access-path suite.
    CreateEv,
    LoadUnknown,
    Runstats,
    Precollect(&'static str),
    Migrate,
    Clear,
    Setting(StatsSetting),
    Faults(&'static str),
    Checkpoint,
}

const EV_BLOCKS: i64 = 5;

fn ev_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int),
        ("grp", DataType::Int),
        ("seq", DataType::Int),
        ("val", DataType::Int),
        ("tag", DataType::Str),
        ("opt", DataType::Int),
    ])
}

fn ev_rows() -> Vec<Vec<Value>> {
    (0..EV_BLOCKS * BLOCK_SIZE as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Int(2 * i),
                Value::Int((i * 7919) % 1000),
                Value::str(["a", "b", "c", "d"][(i % 4) as usize]),
                if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                },
            ]
        })
        .collect()
}

/// Keyed, zone-pruned and full-scan DML on `ev`, with queries between.
const EV_SCRIPT: &[&str] = &[
    "SELECT COUNT(*) FROM ev WHERE grp = 7 AND val < 300",
    "UPDATE ev SET val = 999 WHERE id = 4000",
    "DELETE FROM ev WHERE id BETWEEN 200 AND 260",
    "SELECT COUNT(*) FROM ev WHERE seq BETWEEN 300 AND 700",
    "UPDATE ev SET seq = 0 WHERE seq BETWEEN 2000 AND 2100",
    "DELETE FROM ev WHERE opt = 3 AND val < 100",
    "UPDATE ev SET tag = 'v' WHERE val <> 5 AND tag IN ('a', 'b')",
    "INSERT INTO ev VALUES (9000, 7, 18000, 5, 'a', NULL)",
    "UPDATE ev SET opt = 1 WHERE opt IS NULL AND id > 4000",
    "SELECT COUNT(*) FROM ev WHERE grp = 7 AND val < 300",
];

const PAPER_QUERY: &str = "SELECT o.name, driver, damage \
    FROM car as c, accidents as a, demographics as d, owner as o \
    WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id \
    AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' \
    AND country = 'CA' AND salary > 5000";

/// The union of the workload stream, keyed and scanned DML, EXPLAIN in
/// all three forms, DDL, statistics administration, a fault-plane window
/// and an explicit checkpoint.
fn parity_script() -> Vec<Step> {
    let (dg, ws) = tiny();
    let always = || {
        StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        })
    };
    let mut script: Vec<Step> = generate_workload(&ws, &dg)
        .into_iter()
        .map(|op| Step::Sql(op.sql))
        .collect();
    for sql in [
        "SELECT id FROM car WHERE make = 'Toyota' AND year > 2000",
        "SELECT id FROM car WHERE year > 1995",
        "SELECT id FROM car WHERE make = 'Honda' AND year > 1992",
    ] {
        script.push(Step::Sql(sql.into()));
        script.push(Step::Sql(sql.into()));
    }
    script.extend([
        Step::Explain(PAPER_QUERY),
        Step::Sql(format!("EXPLAIN {PAPER_QUERY}")),
        Step::ExplainJits(PAPER_QUERY),
        Step::Analyze(PAPER_QUERY),
        Step::Analyze("UPDATE owner SET salary = 1 WHERE id = 5"),
        Step::CreateEv,
        Step::Setting(always()),
    ]);
    script.extend(EV_SCRIPT.iter().map(|sql| Step::Sql(sql.to_string())));
    script.extend([
        Step::Runstats,
        Step::Migrate,
        Step::Sql("SELECT * FROM jits_archive_stats".into()),
        Step::Sql("SELECT * FROM jits_sample_cache".into()),
        Step::Precollect("SELECT COUNT(*) FROM car WHERE make = 'Audi' AND year > 2001"),
        Step::Faults("archive.write=every:2:inf,sample.draw=every:3:inf,history.read=every:4"),
        Step::Sql(PAPER_QUERY.into()),
        Step::Sql("SELECT COUNT(*) FROM ev WHERE grp = 8 AND tag = 'v'".into()),
        Step::Sql(PAPER_QUERY.into()),
        Step::Faults(""),
        Step::Sql(PAPER_QUERY.into()),
        Step::Checkpoint,
        Step::Sql("SELECT COUNT(*) FROM car WHERE make = 'Toyota'".into()),
        Step::Clear,
        Step::Sql(PAPER_QUERY.into()),
        Step::Sql("SELECT * FROM nosuch".into()),
        Step::LoadUnknown,
    ]);
    script
}

/// One step's observable outcome, bit-exact.
fn trace(r: jits_common::Result<QueryResult>) -> String {
    let Ok(r) = r else {
        return format!("{:?}", r.err());
    };
    let m = &r.metrics;
    format!(
        "{:?} n={} exec={:x} compile={:x} sampled={} mat={} plan={:?} degraded={:?} \
         profile={:?}",
        r.rows,
        m.result_rows,
        m.exec_work.to_bits(),
        m.compile_work.to_bits(),
        m.sampled_tables,
        m.materialized_groups,
        m.plan
            .as_ref()
            .map(|p| (&p.qun_order, p.est_rows.to_bits())),
        m.degraded_reasons,
        m.profile.as_ref().map(|p| {
            p.nodes
                .iter()
                .map(|n| (n.kind.clone(), n.work.to_bits()))
                .collect::<Vec<_>>()
        }),
    )
}

/// The same script step through either front-end.
trait Front {
    fn step(&mut self, step: &Step) -> String;
}

impl Front for Database {
    fn step(&mut self, step: &Step) -> String {
        match step {
            Step::Sql(sql) => trace(self.execute(sql)),
            Step::Explain(sql) => format!("{:?}", self.explain(sql)),
            Step::ExplainJits(sql) => format!("{:?}", self.explain_jits(sql).map(|e| e.render())),
            Step::Analyze(sql) => format!("{:?}", self.explain_analyze(sql).map(|t| mask(&t))),
            Step::CreateEv => format!(
                "{:?}",
                (
                    self.create_table("ev", ev_schema()),
                    self.load_rows("ev", ev_rows()),
                    self.set_primary_key("ev", "id"),
                    self.create_index("ev", "grp"),
                    self.create_index("ev", "opt"),
                )
            ),
            Step::LoadUnknown => format!("{:?}", self.load_rows("nosuch", vec![])),
            Step::Runstats => format!("{:?}", self.runstats_all()),
            Step::Precollect(sql) => format!("{:?}", self.precollect_query_stats(sql)),
            Step::Migrate => format!("{}", self.migrate_statistics()),
            Step::Clear => format!("{:?}", self.clear_statistics()),
            Step::Setting(s) => format!("{:?}", self.set_setting(s.clone())),
            Step::Faults(spec) => format!("{:?}", self.set_fault_plane(plane(spec))),
            Step::Checkpoint => format!("{:?}", self.checkpoint().map(|l| l.is_some())),
        }
    }
}

impl Front for (SharedDatabase, Session) {
    fn step(&mut self, step: &Step) -> String {
        let (db, s) = self;
        match step {
            Step::Sql(sql) => trace(s.execute(sql)),
            Step::Explain(sql) => format!("{:?}", s.explain(sql)),
            Step::ExplainJits(sql) => format!("{:?}", s.explain_jits(sql).map(|e| e.render())),
            Step::Analyze(sql) => format!("{:?}", s.explain_analyze(sql).map(|t| mask(&t))),
            Step::CreateEv => format!(
                "{:?}",
                (
                    db.create_table("ev", ev_schema()),
                    db.load_rows("ev", ev_rows()),
                    db.set_primary_key("ev", "id"),
                    db.create_index("ev", "grp"),
                    db.create_index("ev", "opt"),
                )
            ),
            Step::LoadUnknown => format!("{:?}", db.load_rows("nosuch", vec![])),
            Step::Runstats => format!("{:?}", db.runstats_all()),
            Step::Precollect(sql) => format!("{:?}", db.precollect_query_stats(sql)),
            Step::Migrate => format!("{}", db.migrate_statistics()),
            Step::Clear => format!("{:?}", db.clear_statistics()),
            Step::Setting(set) => format!("{:?}", db.set_setting(set.clone())),
            Step::Faults(spec) => format!("{:?}", db.set_fault_plane(plane(spec))),
            Step::Checkpoint => format!("{:?}", db.checkpoint().map(|l| l.is_some())),
        }
    }
}

fn plane(spec: &str) -> FaultPlane {
    if spec.is_empty() {
        FaultPlane::disabled()
    } else {
        FaultPlane::from_spec(0xFA17, spec).unwrap()
    }
}

/// `EXPLAIN ANALYZE` with the volatile `wall=<n>ns` readings masked.
fn mask(text: &str) -> String {
    text.split(" wall=")
        .map(|part| part.trim_start_matches(char::is_numeric))
        .collect()
}

/// A durable database in `dir`, loaded and under JITS.
fn durable(dir: &TestDir) -> Database {
    let (dg, _) = tiny();
    let mut db = Database::open(0x5EED, dir.path()).unwrap();
    create_schema(&mut db).unwrap();
    populate(&mut db, &dg).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
    db
}

/// Everything the script leaves behind that a statement could read next.
fn digest(tables: &[jits_storage::Table], archive: &jits::QssArchive, clock: u64) -> String {
    format!(
        "clock={clock} tables={:?} archive={:?}",
        tables.iter().map(|t| t.snapshot()).collect::<Vec<_>>(),
        archive.snapshot()
    )
}

/// A one-session `SharedDatabase` replays the single-owner `Database`
/// step for step — statements, EXPLAIN in all three forms, DDL, statistics
/// administration, faults, a checkpoint — and both logs recover to the
/// same state.
#[test]
fn session_stream_replays_single_owner_database() {
    let (dir_a, dir_b) = (
        TestDir::new("parity-database"),
        TestDir::new("parity-session"),
    );
    let mut single = durable(&dir_a);
    let shared = durable(&dir_b).into_shared();
    let session = shared.session();
    let mut shared = (shared, session);
    let script = parity_script();
    let mut dml_paths = Vec::new();
    for (i, step) in script.iter().enumerate() {
        let (a, b) = (single.step(step), shared.step(step));
        assert_eq!(a, b, "step {i} diverged");
        if matches!(step, Step::Sql(sql) if sql.starts_with("UPDATE ev") || sql.starts_with("DELETE FROM ev"))
        {
            dml_paths.push(a);
        }
    }
    // the DML of the script took all three access paths
    for path in ["index_scan", "pruned_scan", "seq_scan"] {
        assert!(
            dml_paths.iter().any(|t| t.contains(path)),
            "no DML statement of the script took {path}"
        );
    }
    let (db, _) = &shared;
    let a = digest(single.tables(), single.archive(), single.clock());
    let b = db.with_tables(|t| db.with_archive(|ar| digest(t, ar, db.clock())));
    assert_eq!(a, b, "final state diverged");
    assert_eq!(
        single.obs().flight.to_json(false),
        db.obs().flight.to_json(false)
    );
    drop((single, shared));
    let (a, b) = (
        Database::open(1, dir_a.path()).unwrap(),
        SharedDatabase::open(1, dir_b.path()).unwrap(),
    );
    assert_eq!(*a.recovery_report(), b.recovery_report());
    // a failed statement and a bulk load into an unknown table were both
    // logged before they failed, and replay to the same errors
    assert_eq!(a.recovery_report().replay_errors, 2);
    let b_digest = b.with_tables(|t| b.with_archive(|ar| digest(t, ar, b.clock())));
    assert_eq!(digest(a.tables(), a.archive(), a.clock()), b_digest);
}

/// An EXPLAIN statement reports its collection work and lock wait on the
/// single-owner store too.
#[test]
fn explain_statement_reports_collection_and_lock_wait() {
    let (dg, _) = tiny();
    let mut db = setup_database(&dg).unwrap();
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    let r = db.execute(&format!("EXPLAIN {PAPER_QUERY}")).unwrap();
    assert!(r.metrics.compile_work > 0.0, "{:?}", r.metrics);
    assert_eq!(r.metrics.lock_wait, std::time::Duration::ZERO);
}

/// Reads one volatile `jits.engine.*` registry counter.
fn engine_counter(shared: &SharedDatabase, name: &str) -> u64 {
    shared
        .obs()
        .registry
        .counter(name, Volatility::Volatile)
        .get()
}

/// The engine counters describe sharing: volatile registry counters a
/// shared database charges only when an acquisition blocks. A `Database`
/// statement touches none, and none reaches either store's deterministic
/// export.
#[test]
fn engine_counters_belong_to_the_shared_database() {
    let (dg, ws) = tiny();
    let ops = generate_workload(&ws, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).unwrap();
    db.execute(&ops[0].sql).unwrap();
    assert!(!db.metrics_json(true).contains("jits.engine."));
    let shared = db.into_shared();
    let records = run_workload_concurrent(&shared, &ops, 4).unwrap();
    assert_eq!(records.len(), ops.len());
    assert!(!shared.metrics_json(false).contains("jits.engine."));
    let contended = engine_counter(&shared, "jits.engine.contended_acquisitions");
    let waited = engine_counter(&shared, "jits.engine.lock_wait_nanos");
    assert!(
        contended > 0 || waited == 0,
        "{waited} ns waited in no acquisition"
    );
}

/// `precollect_query_stats` runs on both stores and, drawing from the
/// master stream on both, fills the archive identically.
#[test]
fn shared_database_precollects_like_database() {
    let (dg, ws) = tiny();
    let ops = generate_workload(&ws, &dg);
    let mut db = setup_database(&dg).unwrap();
    db.runstats_all().unwrap();
    let shared = setup_database(&dg).unwrap().into_shared();
    shared.runstats_all().unwrap();
    for op in ops.iter().filter(|o| o.is_query).take(6) {
        db.precollect_query_stats(&op.sql).unwrap();
        shared.precollect_query_stats(&op.sql).unwrap();
    }
    assert!(!db.archive().is_empty());
    assert_eq!(
        format!("{:?}", db.archive().snapshot()),
        shared.with_archive(|a| format!("{:?}", a.snapshot()))
    );
}

#[test]
fn concurrent_sessions_complete_a_mixed_workload() {
    for round in 0..3 {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).unwrap();
        let shared = db.into_shared();

        let records = run_workload_concurrent(&shared, &ops, 4).unwrap();
        assert_eq!(records.len(), ops.len(), "round {round}");
        for r in &records {
            if r.is_query {
                assert!(r.metrics.exec_work > 0.0, "round {round} op {}", r.index);
            }
        }
        assert_eq!(shared.clock(), ops.len() as u64, "round {round}");

        // the engine stays fully usable afterwards
        let mut session = shared.session();
        let r = session.execute("SELECT COUNT(*) FROM owner").unwrap();
        assert_eq!(r.rows.len(), 1, "round {round}");
    }
}

#[test]
fn concurrent_sessions_under_non_jits_settings() {
    let (dg, ws) = tiny();
    let ops = generate_workload(&ws, &dg);
    for setting in [Setting::NoStats, Setting::GeneralStats] {
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &setting, &ops).unwrap();
        let shared = db.into_shared();
        let records = run_workload_concurrent(&shared, &ops, 4).unwrap();
        assert_eq!(records.len(), ops.len(), "{}", setting.label());
        assert!(
            records
                .iter()
                .filter(|r| r.is_query)
                .all(|r| r.metrics.exec_work > 0.0),
            "{}",
            setting.label()
        );
    }
}

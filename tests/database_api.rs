//! The `Database` API end to end on a small car/owner schema: settings,
//! the JITS lifecycle, DML and UDI churn, EXPLAIN in all three forms,
//! migration, system views and exports.

use jits::JitsConfig;
use jits_common::{DataType, Schema, Value};
use jits_engine::{Database, StatsSetting};
use jits_obs::FLIGHT_CAPACITY;

fn demo_db() -> Database {
    let mut db = Database::new(42);
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
            ("year", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "owner",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Int),
        ]),
    )
    .unwrap();
    db.set_primary_key("owner", "id").unwrap();
    db.create_index("car", "ownerid").unwrap();

    let mut rows = Vec::new();
    for i in 0..2000i64 {
        let (make, model) = match i % 10 {
            0..=2 => ("Toyota", "Camry"),
            3..=5 => ("Toyota", "Corolla"),
            6..=7 => ("Honda", "Civic"),
            _ => ("Audi", "A4"),
        };
        rows.push(vec![
            Value::Int(i),
            Value::Int(i % 200),
            Value::str(make),
            Value::str(model),
            Value::Int(1990 + i % 17),
        ]);
    }
    db.load_rows("car", rows).unwrap();
    let rows = (0..200i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(format!("owner{i}")),
                Value::Int(i * 500),
            ]
        })
        .collect();
    db.load_rows("owner", rows).unwrap();
    db
}

#[test]
fn end_to_end_select_with_general_stats() {
    let mut db = demo_db();
    db.runstats_all().unwrap();
    db.set_setting(StatsSetting::CatalogOnly);
    let r = db
        .execute("SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'")
        .unwrap();
    assert_eq!(r.rows.len(), 600);
    assert!(r.metrics.exec_work > 0.0);
    assert_eq!(r.metrics.compile_work, 0.0, "no JITS sampling");
    assert_eq!(r.metrics.sampled_tables, 0);
}

#[test]
fn jits_collects_and_improves_estimates() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    // first query: no history -> s1=1, sampling happens
    let r = db
        .execute("SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'")
        .unwrap();
    assert_eq!(r.rows.len(), 600);
    assert_eq!(r.metrics.sampled_tables, 1);
    assert!(r.metrics.compile_work > 0.0);
    // with fresh exact stats, the estimate must be near-perfect
    let plan = r.metrics.plan.as_ref().unwrap();
    assert!(
        (plan.est_rows - 600.0).abs() < 100.0,
        "estimated {} for actual 600",
        plan.est_rows
    );
    // history recorded
    assert!(!db.history().is_empty());
}

#[test]
fn jits_skips_collection_once_history_is_accurate() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    // query 1: no history -> sample, but nothing has proven useful yet
    let r1 = db.execute(sql).unwrap();
    assert_eq!(r1.metrics.sampled_tables, 1);
    assert_eq!(r1.metrics.materialized_groups, 0);
    // query 2: the fresh QSS statistic proved accurate (errorFactor 1)
    // -> Algorithm 4 now materializes it; the table is still sampled
    // because the statistic was not yet stored anywhere
    let r2 = db.execute(sql).unwrap();
    assert_eq!(r2.metrics.sampled_tables, 1);
    assert!(
        r2.metrics.materialized_groups > 0,
        "proven-useful groups must be materialized"
    );
    // query 3: the archive histogram has boundaries exactly at the
    // query constants -> MaxAcc = 1, s1 = 0, no UDI -> skip sampling
    let r3 = db.execute(sql).unwrap();
    assert_eq!(
        r3.metrics.sampled_tables, 0,
        "scores: {:?}",
        r3.metrics.table_scores
    );
    assert_eq!(r3.rows.len(), 600);
}

#[test]
fn dml_statements_and_udi() {
    let mut db = demo_db();
    let (tid, _) = db.column_id("car", "make").unwrap();
    let before = db.table(tid).unwrap().row_count();
    let r = db
        .execute("INSERT INTO car VALUES (9999, 1, 'BMW', 'M3', 2006)")
        .unwrap();
    assert_eq!(r.metrics.result_rows, 1);
    assert_eq!(db.table(tid).unwrap().row_count(), before + 1);

    let r = db
        .execute("UPDATE car SET year = 2007 WHERE make = 'BMW'")
        .unwrap();
    assert_eq!(r.metrics.result_rows, 1);

    let r = db.execute("DELETE FROM car WHERE make = 'BMW'").unwrap();
    assert_eq!(r.metrics.result_rows, 1);
    assert_eq!(db.table(tid).unwrap().row_count(), before);
    assert!(db.table(tid).unwrap().udi().total() >= 3);
}

#[test]
fn udi_churn_triggers_recollection() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    db.execute(sql).unwrap();
    db.execute(sql).unwrap();
    let r = db.execute(sql).unwrap();
    assert_eq!(r.metrics.sampled_tables, 0);
    // with a perfectly accurate history (s1 = 0) and the paper's
    // average aggregate, only full churn pushes the score to s_max:
    // s2 = 1 -> score = 0.5 >= 0.5
    db.execute("UPDATE car SET year = 1980").unwrap();
    let r = db.execute(sql).unwrap();
    assert_eq!(
        r.metrics.sampled_tables, 1,
        "churn must trigger recollection: {:?}",
        r.metrics.table_scores
    );
}

#[test]
fn explain_renders_plan() {
    let mut db = demo_db();
    db.runstats_all().unwrap();
    db.set_setting(StatsSetting::CatalogOnly);
    let plan = db
        .explain("SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND salary > 50000")
        .unwrap();
    assert!(plan.contains("Join"), "{plan}");
    assert!(plan.contains("Scan"), "{plan}");
}

#[test]
fn workload_stats_setting_uses_prepopulated_archive() {
    let mut db = demo_db();
    db.runstats_all().unwrap();
    let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    db.precollect_query_stats(sql).unwrap();
    assert!(!db.archive().is_empty());
    db.set_setting(StatsSetting::ArchiveReadOnly);
    let r = db.execute(sql).unwrap();
    assert_eq!(r.metrics.sampled_tables, 0, "read-only never samples");
    let plan = r.metrics.plan.unwrap();
    // archive answers the correlated group: estimate near truth
    assert!(
        (plan.est_rows - 600.0).abs() < 120.0,
        "estimated {}",
        plan.est_rows
    );
}

#[test]
fn statistics_migration_flows_to_catalog() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    db.execute("SELECT id FROM car WHERE year > 2000").unwrap();
    assert!(!db.archive().is_empty());
    let migrated = db.migrate_statistics();
    assert!(migrated >= 1);
    let (tid, col) = db.column_id("car", "year").unwrap();
    assert!(db.catalog().column_stats(tid, col).is_some());
}

#[test]
fn explain_jits_matches_next_execution_bit_for_bit() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    // across the full lifecycle (first sample, materialize, then skip)
    // the preview must equal what execute() then actually decides
    for _ in 0..4 {
        let ex = db.explain_jits(sql).unwrap();
        assert!(ex.enabled);
        let r = db.execute(sql).unwrap();
        assert_eq!(ex.table_scores, r.metrics.table_scores);
        assert_eq!(ex.sample_tables.len(), r.metrics.sampled_tables);
        // the statement's record carries the same score rows and verdicts
        let rec = r.metrics.profile.as_ref().unwrap();
        assert_eq!(ex.scores, rec.scores);
        assert_eq!(ex.materialize, rec.verdicts);
        assert_eq!(ex.candidate_groups, rec.candidate_groups);
    }
    let rendered = db.explain_jits(sql).unwrap().render();
    assert!(rendered.contains("s1="), "{rendered}");
    assert!(rendered.contains("s_max"), "{rendered}");
    // non-JITS settings report a disabled trace
    db.set_setting(StatsSetting::CatalogOnly);
    assert!(!db.explain_jits(sql).unwrap().enabled);
}

#[test]
fn tracer_spans_system_views_and_exports() {
    let mut db = demo_db();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let sql = "SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    db.execute(sql).unwrap();
    // the newest statement record in the flight ring renders the stages
    let record = db.obs().flight.statements().pop().unwrap();
    let text = record.render();
    for span in ["analyze", "sensitivity", "collect", "optimize", "execute"] {
        assert!(text.contains(span), "missing span {span} in:\n{text}");
    }
    assert!(text.contains("car"), "{text}");
    // lines only an engine-filled record carries: Algorithm 1's group
    // count, the Algorithm 3 verdict, and the collect pass's draw
    assert!(text.contains("candidate group(s)"), "{text}");
    assert!(text.contains("q0 car: s1="), "{text}");
    assert!(text.contains("-> sample ("), "{text}");
    assert!(text.contains("q0 car: sampled "), "{text}");
    assert!(text.contains(" probe(s), fresh)"), "{text}");

    // system views answer without executing user plans
    let scores = db.execute("SELECT * FROM jits_table_scores").unwrap();
    assert!(!scores.rows.is_empty());
    let log = db.execute("SELECT * FROM jits_query_log").unwrap();
    assert_eq!(log.rows.len(), 1, "views must not log themselves");
    db.execute(sql).unwrap();
    db.execute(sql).unwrap(); // second run materializes proven groups
    let arch = db.execute("SELECT * FROM jits_archive_stats").unwrap();
    assert!(!arch.rows.is_empty());
    // DML scores nothing, so it must not clobber the latest scores
    let latest = db.execute("SELECT * FROM jits_table_scores").unwrap().rows;
    db.execute("UPDATE car SET year = 2001 WHERE id = 1")
        .unwrap();
    let after = db.execute("SELECT * FROM jits_table_scores").unwrap().rows;
    assert_eq!(latest, after);

    // both exporters produce grammatically valid output
    jits_obs::export::validate_json(&db.metrics_json(true)).unwrap();
    jits_obs::export::validate_prometheus(&db.metrics_prometheus()).unwrap();
}

#[test]
fn record_views_keep_the_flight_window() {
    let mut db = demo_db();
    // a 64-unit collection budget trips on car: the SELECT scores and degrades
    db.set_setting(StatsSetting::Jits(JitsConfig {
        collect_budget: 64,
        ..JitsConfig::default()
    }));
    db.execute("SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'")
        .unwrap();
    let view = |db: &mut Database, name: &str| {
        db.execute(&format!("SELECT * FROM {name}"))
            .unwrap()
            .rows
            .len()
    };
    let scores = view(&mut db, "jits_table_scores");
    let degradations = view(&mut db, "jits_degradation");
    assert!(scores > 0 && degradations > 0, "{scores} {degradations}");
    // The views keep no state of their own: DML leaves both standing while
    // the scored record is in the flight ring, and once the ring has
    // evicted it they are empty.
    for i in 0..FLIGHT_CAPACITY {
        if i == FLIGHT_CAPACITY - 1 {
            assert_eq!(view(&mut db, "jits_table_scores"), scores);
            assert_eq!(view(&mut db, "jits_degradation"), degradations);
        }
        db.execute(&format!("UPDATE owner SET salary = {i} WHERE id = 1"))
            .unwrap();
    }
    assert_eq!(view(&mut db, "jits_table_scores"), 0);
    assert_eq!(view(&mut db, "jits_degradation"), 0);
}

#[test]
fn errors_propagate() {
    let mut db = demo_db();
    assert!(db.execute("SELECT * FROM nosuch").is_err());
    assert!(db.execute("garbage").is_err());
    assert!(db
        .create_table("car", Schema::from_pairs(&[("x", DataType::Int)]))
        .is_err());
}

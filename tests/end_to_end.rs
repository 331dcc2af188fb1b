//! Cross-crate integration tests: correctness of query results across all
//! statistics settings, and the JITS lifecycle end to end.

mod oracle;
mod plans;

use jits_repro::common::{DataType, Schema, Value};
use jits_repro::core::{JitsConfig, MIGRATE_EVERY};
use jits_repro::engine::{Database, StatsSetting};

/// A database with a model→make functional dependency and an FK join.
fn build_db(seed: u64) -> Database {
    let mut db = Database::new(seed);
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
    db.set_primary_key("car", "id").unwrap();
    db.set_primary_key("owner", "id").unwrap();
    db.create_index("car", "ownerid").unwrap();

    let car_rows = (0..5000i64)
        .map(|i| {
            let (make, model) = match i % 10 {
                0..=2 => ("Toyota", "Camry"),
                3..=5 => ("Toyota", "Corolla"),
                6..=7 => ("Honda", "Civic"),
                _ => ("Audi", "A4"),
            };
            vec![
                Value::Int(i),
                Value::Int(i % 500),
                Value::str(make),
                Value::str(model),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", car_rows).unwrap();
    let owner_rows = (0..500i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(format!("owner{i}")),
                Value::Int(i * 200),
            ]
        })
        .collect();
    db.load_rows("owner", owner_rows).unwrap();
    db
}

fn all_settings() -> Vec<StatsSetting> {
    vec![
        StatsSetting::NoStatistics,
        StatsSetting::CatalogOnly,
        StatsSetting::ArchiveReadOnly,
        StatsSetting::Jits(JitsConfig::default()),
        StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }),
    ]
}

/// Plans may differ per setting; results must not.
#[test]
fn results_identical_across_settings() {
    let queries = [
        "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'",
        "SELECT COUNT(*) FROM car WHERE year BETWEEN 1995 AND 2000 AND make <> 'Audi'",
        "SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id \
         AND make = 'Honda' AND salary > 50000",
        "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND model = 'A4' \
         AND salary < 20000",
    ];
    let mut reference: Vec<Option<Vec<Vec<Value>>>> = vec![None; queries.len()];
    for setting in all_settings() {
        let mut db = build_db(7);
        if matches!(setting, StatsSetting::CatalogOnly) {
            db.runstats_all().unwrap();
        }
        db.set_setting(setting.clone());
        for (qi, sql) in queries.iter().enumerate() {
            let mut rows = db.execute(sql).unwrap().rows;
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            match &reference[qi] {
                None => reference[qi] = Some(rows),
                Some(expected) => assert_eq!(
                    &rows,
                    expected,
                    "setting {:?} disagrees on query {qi}",
                    setting.label()
                ),
            }
        }
    }
}

/// Query results stay correct while DML churns the data, under JITS.
#[test]
fn correctness_under_churn_with_jits() {
    let mut db = build_db(11);
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let count = |db: &mut Database, sql: &str| -> i64 {
        db.execute(sql).unwrap().rows[0][0].as_i64().unwrap()
    };
    let sql = "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    assert_eq!(count(&mut db, sql), 1500);
    db.execute("DELETE FROM car WHERE model = 'Camry' AND year < 1995")
        .unwrap();
    let expected = (0..5000i64)
        .filter(|i| i % 10 <= 2 && 1990 + i % 17 >= 1995)
        .count() as i64;
    assert_eq!(count(&mut db, sql), expected);
    db.execute("INSERT INTO car VALUES (9001, 1, 'Toyota', 'Camry', 2006)")
        .unwrap();
    assert_eq!(count(&mut db, sql), expected + 1);
    db.execute("UPDATE car SET model = 'Corolla' WHERE id = 9001")
        .unwrap();
    assert_eq!(count(&mut db, sql), expected);
}

/// The full JITS lifecycle: sample → materialize → archive reuse → skip.
#[test]
fn jits_lifecycle_converges() {
    let mut db = build_db(3);
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let sql = "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Corolla'";

    let r1 = db.execute(sql).unwrap();
    assert_eq!(r1.metrics.sampled_tables, 1, "first query samples");

    let r2 = db.execute(sql).unwrap();
    assert!(
        r2.metrics.materialized_groups > 0,
        "second query materializes the proven-useful groups"
    );
    assert!(!db.archive().is_empty());

    let r3 = db.execute(sql).unwrap();
    assert_eq!(
        r3.metrics.sampled_tables, 0,
        "third query reuses the archive: {:?}",
        r3.metrics.table_scores
    );
    // and the archived estimate stays accurate
    let plan = r3.metrics.plan.unwrap();
    assert!(
        (plan.est_rows - 1500.0).abs() < 150.0,
        "archived estimate {} for actual 1500",
        plan.est_rows
    );
}

/// Statistics migration carries QSS knowledge into the catalog.
#[test]
fn migration_improves_catalog_only_estimates() {
    let mut db = build_db(5);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    // a 1-D group on year, sampled exactly
    db.execute("SELECT COUNT(*) FROM car WHERE year > 2000")
        .unwrap();
    let migrated = db.migrate_statistics();
    assert!(migrated >= 1);
    // catalog-only mode now answers from the migrated histogram
    db.set_setting(StatsSetting::CatalogOnly);
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE year > 2000")
        .unwrap();
    let truth = (0..5000i64).filter(|i| 1990 + i % 17 > 2000).count() as f64;
    let est = r.metrics.plan.unwrap().est_rows;
    assert!(
        (est - truth).abs() / truth < 0.25,
        "migrated estimate {est} vs truth {truth}"
    );
}

/// Work accounting: every query charges execution work, and JITS charges
/// compile work exactly when it samples.
#[test]
fn work_accounting_invariants() {
    let mut db = build_db(13);
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    for sql in [
        "SELECT COUNT(*) FROM car WHERE make = 'Audi'",
        "SELECT COUNT(*) FROM owner WHERE salary > 10000",
        "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND year > 2003",
    ] {
        let r = db.execute(sql).unwrap();
        assert!(r.metrics.exec_work > 0.0, "{sql}");
        assert_eq!(
            r.metrics.compile_work > 0.0,
            r.metrics.sampled_tables > 0,
            "compile work iff sampling: {sql}"
        );
    }
}

/// Errors are reported, never panics, and leave the engine usable.
#[test]
fn error_paths_leave_engine_usable() {
    let mut db = build_db(17);
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELECT nosuch FROM car").is_err());
    assert!(db.execute("DELETE FROM car WHERE bogus = 1").is_err());
    assert!(db.execute("INSERT INTO car VALUES (1)").is_err());
    // still fully functional
    let r = db.execute("SELECT COUNT(*) FROM car").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5000));
}

/// The §3.4 footnote-1 predicate cache: a `<>` group (no histogram region)
/// is materialized into the auxiliary cache and reused by later queries.
#[test]
fn predicate_cache_serves_noteq_groups() {
    let mut db = build_db(23);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0, // collect + materialize unconditionally
        ..JitsConfig::default()
    }));
    let sql = "SELECT COUNT(*) FROM car WHERE make <> 'Toyota' AND year > 2000";
    let r1 = db.execute(sql).unwrap();
    assert_eq!(r1.metrics.sampled_tables, 1);
    // switch to read-only archive mode: no sampling, yet the cached
    // measurement still answers the non-region group
    db.set_setting(StatsSetting::ArchiveReadOnly);
    // the setting switch rebuilt the archive, so re-prime via a JITS pass
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    db.execute(sql).unwrap();
    db.execute(sql).unwrap();
    let truth = (0..5000i64)
        .filter(|i| !(0..=5).contains(&(i % 10)) && 1990 + i % 17 > 2000)
        .count() as f64;
    // now a high-threshold config: never samples, must rely on the cache
    let r = db.execute(sql).unwrap();
    let est = r.metrics.plan.as_ref().unwrap().est_rows;
    assert!(
        (est - truth).abs() / truth < 0.2,
        "cached estimate {est} vs truth {truth}"
    );
}

/// Superset inference: a histogram on (make, model) answers a make-only
/// query by marginalizing the model dimension.
#[test]
fn superset_histograms_answer_subgroups() {
    let mut db = build_db(29);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    // build the (make, model) histogram
    db.execute("SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'")
        .unwrap();
    let joint = db
        .archive()
        .iter()
        .find(|(g, _)| g.arity() == 2)
        .map(|(g, _)| g.clone())
        .expect("joint histogram materialized");

    // a make-only query under a config that never samples: the only path
    // to a QSS answer is marginalizing the joint histogram
    db.set_setting(StatsSetting::ArchiveReadOnly);
    // (ArchiveReadOnly resets nothing; the archive survives setting swaps
    // that are not Jits(..))
    assert!(db.archive().histogram(&joint).is_some());
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make = 'Toyota'")
        .unwrap();
    let est = r.metrics.plan.as_ref().unwrap().est_rows;
    assert!(
        (est - 3000.0).abs() < 450.0,
        "marginalized estimate {est} for actual 3000"
    );
}

/// The [6]-style ε-planning strategy runs end to end and pays its optimizer
/// calls as compile work; the paper's heuristic decides for free.
#[test]
fn epsilon_strategy_pays_optimizer_calls() {
    use jits_repro::core::{EpsilonConfig, SensitivityStrategy};
    let sql = "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id \
               AND make = 'Toyota' AND model = 'Camry' AND salary > 40000";

    let mut db = build_db(31);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        strategy: SensitivityStrategy::EpsilonPlanning(EpsilonConfig::default()),
        ..JitsConfig::default()
    }));
    let r_eps = db.execute(sql).unwrap();
    assert!(
        r_eps.metrics.sampled_tables > 0,
        "unknown selectivities force collection"
    );
    // correctness unaffected
    let expected = (0..5000i64)
        .filter(|i| i % 10 <= 2 && (i % 500) * 200 > 40000)
        .count() as i64;
    assert_eq!(r_eps.rows[0][0].as_i64().unwrap(), expected);

    let mut db = build_db(31);
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let r_heur = db.execute(sql).unwrap();
    assert_eq!(r_heur.rows[0][0].as_i64().unwrap(), expected);
    assert!(
        r_eps.metrics.compile_work > r_heur.metrics.compile_work,
        "epsilon ({}) must charge the double-optimization overhead vs heuristic ({})",
        r_eps.metrics.compile_work,
        r_heur.metrics.compile_work
    );
    // and it never populates the archive (no reuse, the paper's criticism)
    let mut db = build_db(31);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        strategy: SensitivityStrategy::EpsilonPlanning(EpsilonConfig::default()),
        ..JitsConfig::default()
    }));
    db.execute(sql).unwrap();
    db.execute(sql).unwrap();
    assert!(db.archive().is_empty());
}

/// Periodic statistics migration fires on its cadence: every
/// `MIGRATE_EVERY` statements.
#[test]
fn migration_cadence_populates_catalog() {
    let mut db = build_db(37);
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    let (tid, col) = db.column_id("car", "year").unwrap();
    assert!(db.catalog().column_stats(tid, col).is_none());
    // run past the next multiple of the cadence
    let next = (db.clock() / MIGRATE_EVERY + 1) * MIGRATE_EVERY;
    while db.clock() < next {
        assert!(db.catalog().column_stats(tid, col).is_none());
        db.execute("SELECT COUNT(*) FROM car WHERE year > 2000")
            .unwrap();
    }
    assert!(
        db.catalog().column_stats(tid, col).is_some(),
        "migration must have folded the 1-D year histogram into the catalog"
    );
}

/// A multi-row INSERT with a bad row is rejected atomically: nothing lands.
#[test]
fn insert_is_all_or_nothing() {
    let mut db = build_db(41);
    let (tid, _) = db.column_id("car", "make").unwrap();
    let before = db.table(tid).unwrap().row_count();
    let err = db.execute(
        "INSERT INTO car VALUES (9000, 1, 'BMW', 'M3', 2006), (9001, 1, 'BMW', 'M3', 'oops')",
    );
    assert!(err.is_err());
    assert_eq!(
        db.table(tid).unwrap().row_count(),
        before,
        "a failed multi-row INSERT must not leave partial rows"
    );
}

/// The SELECTs of this file's tests.
const SELECTS: &[&str] = &[
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'",
    "SELECT COUNT(*) FROM car WHERE year BETWEEN 1995 AND 2000 AND make <> 'Audi'",
    "SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id \
     AND make = 'Honda' AND salary > 50000",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND model = 'A4' \
     AND salary < 20000",
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Corolla'",
    "SELECT COUNT(*) FROM car WHERE year > 2000",
    "SELECT COUNT(*) FROM car WHERE make = 'Audi'",
    "SELECT COUNT(*) FROM owner WHERE salary > 10000",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND year > 2003",
    "SELECT COUNT(*) FROM car",
    "SELECT COUNT(*) FROM car WHERE make <> 'Toyota' AND year > 2000",
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota'",
];

/// Every SELECT above returns the oracle's answer through the engine under
/// JITS, and on every forced plan extreme of its catalog plan — before and
/// after the churn of `correctness_under_churn_with_jits`.
#[test]
fn selects_match_the_oracle_under_forced_plans() {
    let mut db = build_db(11);
    db.runstats_all().unwrap();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let check = |db: &mut Database| {
        for sql in SELECTS {
            let rows = db.execute(sql).unwrap().rows;
            plans::answer(db.catalog(), db.tables(), sql)
                .check(&rows)
                .unwrap_or_else(|m| panic!("{sql}: {m}"));
            plans::sweep(db.catalog(), db.tables(), sql);
        }
    };
    check(&mut db);
    for dml in [
        "DELETE FROM car WHERE model = 'Camry' AND year < 1995",
        "INSERT INTO car VALUES (9001, 1, 'Toyota', 'Camry', 2006)",
        "UPDATE car SET model = 'Corolla' WHERE id = 9001",
    ] {
        db.execute(dml).unwrap();
    }
    check(&mut db);
}

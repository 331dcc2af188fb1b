//! End-to-end tests of the extended SQL surface: aggregates, ORDER BY,
//! LIMIT, EXPLAIN.

mod oracle;
mod plans;

use jits_repro::common::{DataType, Schema, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};

fn db() -> Database {
    let mut db = Database::new(99);
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("price", DataType::Float),
            ("year", DataType::Int),
        ]),
    )
    .unwrap();
    let rows = (0..1000i64)
        .map(|i| {
            let make = if i % 4 == 0 { "Toyota" } else { "Honda" };
            vec![
                Value::Int(i),
                Value::str(make),
                Value::Float(1000.0 + i as f64),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", rows).unwrap();
    db.runstats_all().unwrap();
    db.set_setting(StatsSetting::CatalogOnly);
    db
}

#[test]
fn aggregates_compute_correctly() {
    let mut db = db();
    let r = db
        .execute(
            "SELECT COUNT(*), COUNT(id), SUM(id), AVG(id), MIN(id), MAX(id) \
             FROM car WHERE make = 'Toyota'",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let row = &r.rows[0];
    // Toyotas are ids 0, 4, 8, ..., 996 (250 rows)
    assert_eq!(row[0], Value::Int(250));
    assert_eq!(row[1], Value::Int(250));
    let expected_sum: i64 = (0..1000).filter(|i| i % 4 == 0).sum();
    assert_eq!(row[2], Value::Int(expected_sum));
    let Value::Float(avg) = row[3] else { panic!() };
    assert!((avg - expected_sum as f64 / 250.0).abs() < 1e-9);
    assert_eq!(row[4], Value::Int(0));
    assert_eq!(row[5], Value::Int(996));
}

#[test]
fn aggregates_over_empty_input() {
    let mut db = db();
    let r = db
        .execute("SELECT COUNT(*), SUM(id), AVG(id), MIN(id) FROM car WHERE year > 3000")
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Int(0));
    // SQL: the sum of no values is NULL, like their average and minimum
    assert_eq!(row[1], Value::Null);
    assert_eq!(row[2], Value::Null);
    assert_eq!(row[3], Value::Null);
}

#[test]
fn sum_of_float_column_stays_float() {
    let mut db = db();
    let r = db
        .execute("SELECT SUM(price) FROM car WHERE id < 2")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Float(2001.0));
}

#[test]
fn order_by_and_limit() {
    let mut db = db();
    let r = db
        .execute("SELECT id FROM car WHERE id < 50 ORDER BY id DESC LIMIT 3")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![49, 48, 47]);

    let r = db
        .execute("SELECT id FROM car WHERE id < 50 ORDER BY id ASC LIMIT 2")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![0, 1]);

    // LIMIT without ORDER BY
    let r = db.execute("SELECT id FROM car LIMIT 5").unwrap();
    assert_eq!(r.rows.len(), 5);

    // LIMIT 0
    let r = db.execute("SELECT id FROM car LIMIT 0").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn order_by_string_column() {
    let mut db = db();
    let r = db
        .execute("SELECT make FROM car WHERE id < 8 ORDER BY make LIMIT 3")
        .unwrap();
    let makes: Vec<String> = r
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(makes, vec!["Honda", "Honda", "Honda"]);
}

#[test]
fn explain_statement_returns_plan_text() {
    let mut db = db();
    let r = db
        .execute("EXPLAIN SELECT COUNT(*) FROM car WHERE make = 'Toyota'")
        .unwrap();
    assert!(!r.rows.is_empty());
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Scan"), "{text}");
    // EXPLAIN never executes
    assert_eq!(r.metrics.exec_work, 0.0);
}

#[test]
fn explain_under_jits_shows_collection() {
    let mut db = db();
    db.clear_statistics();
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    let r = db
        .execute("EXPLAIN SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND year > 2000")
        .unwrap();
    assert!(r.metrics.compile_work > 0.0, "EXPLAIN still runs JITS");
}

#[test]
fn invalid_aggregate_usage_rejected() {
    let mut db = db();
    // mixing plain columns with aggregates (no GROUP BY support)
    assert!(db.execute("SELECT make, COUNT(*) FROM car").is_err());
    // ORDER BY with aggregates
    assert!(db.execute("SELECT COUNT(*) FROM car ORDER BY id").is_err());
    // SUM over a string column
    assert!(db.execute("SELECT SUM(make) FROM car").is_err());
    // SUM(*) is not a thing
    assert!(db.execute("SELECT SUM(*) FROM car").is_err());
    // negative / non-integer limits
    assert!(db.execute("SELECT id FROM car LIMIT -1").is_err());
    assert!(db.execute("SELECT id FROM car LIMIT x").is_err());
}

#[test]
fn results_consistent_across_settings_with_new_features() {
    let sql = "SELECT AVG(price), MAX(year) FROM car WHERE make = 'Toyota' AND year > 1999";
    let mut reference: Option<Vec<Value>> = None;
    for jits in [false, true] {
        let mut db = db();
        if jits {
            db.clear_statistics();
            db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        }
        let r = db.execute(sql).unwrap();
        match &reference {
            None => reference = Some(r.rows[0].clone()),
            Some(exp) => assert_eq!(&r.rows[0], exp),
        }
    }
}

#[test]
fn group_by_counts_per_make() {
    let mut db = db();
    let r = db
        .execute("SELECT make, COUNT(*), MIN(year), MAX(price) FROM car GROUP BY make")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let find = |make: &str| {
        r.rows
            .iter()
            .find(|row| row[0].as_str() == Some(make))
            .unwrap()
            .clone()
    };
    let toyota = find("Toyota");
    assert_eq!(toyota[1], Value::Int(250));
    assert_eq!(toyota[2], Value::Int(1990));
    let honda = find("Honda");
    assert_eq!(honda[1], Value::Int(750));
}

#[test]
fn group_by_with_where_and_limit() {
    let mut db = db();
    let r = db
        .execute("SELECT year, COUNT(*) FROM car WHERE make = 'Toyota' GROUP BY year LIMIT 5")
        .unwrap();
    assert_eq!(r.rows.len(), 5, "LIMIT applies to group rows");
    // every group is complete despite the limit (limit is post-aggregation)
    for row in &r.rows {
        let y = row[0].as_i64().unwrap();
        let expected = (0..1000i64)
            .filter(|i| i % 4 == 0 && 1990 + i % 17 == y)
            .count() as i64;
        assert_eq!(row[1], Value::Int(expected), "year {y}");
    }
}

#[test]
fn limit_does_not_truncate_aggregate_input() {
    let mut db = db();
    // regression: LIMIT must not clip the rows feeding an aggregate
    let r = db.execute("SELECT COUNT(*) FROM car LIMIT 5").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1000));
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn group_by_validation() {
    let mut db = db();
    // non-grouped column in projection
    assert!(db
        .execute("SELECT year, COUNT(*) FROM car GROUP BY make")
        .is_err());
    // wildcard with group by
    assert!(db.execute("SELECT * FROM car GROUP BY make").is_err());
    // ORDER BY with group by (unsupported)
    assert!(db
        .execute("SELECT make, COUNT(*) FROM car GROUP BY make ORDER BY make")
        .is_err());
    // unknown grouping column
    assert!(db
        .execute("SELECT nope, COUNT(*) FROM car GROUP BY nope")
        .is_err());
}

#[test]
fn sum_and_avg_of_a_string_column_are_binding_errors_with_group_by() {
    use jits_repro::common::JitsError;

    let mut db = db();
    for sql in [
        "SELECT make, SUM(make), AVG(make) FROM car GROUP BY make",
        "SELECT year, AVG(make) FROM car GROUP BY year",
        "SELECT SUM(make) FROM car",
    ] {
        let err = db.execute(sql).unwrap_err();
        assert!(matches!(err, JitsError::Binding(_)), "{sql}: {err:?}");
    }
    // MIN and MAX order strings; numeric SUM still binds under GROUP BY
    assert!(db
        .execute("SELECT year, MIN(make), MAX(make), SUM(price) FROM car GROUP BY year")
        .is_ok());
}

#[test]
fn group_by_join() {
    let mut db = db();
    db.create_table(
        "owner",
        Schema::from_pairs(&[("id", DataType::Int), ("city", DataType::Str)]),
    )
    .unwrap();
    db.load_rows(
        "owner",
        (0..10i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i < 5 { "Ottawa" } else { "Boston" }),
                ]
            })
            .collect(),
    )
    .unwrap();
    // join each car to owner (id % 10) via a synthetic join on year? use
    // id-mod mapping through a second table instead: here simply join on
    // owner.id = car.id for the first 10 cars
    let r = db
        .execute(
            "SELECT city, COUNT(*) FROM car c, owner o \
             WHERE c.id = o.id GROUP BY city",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    for row in &r.rows {
        assert_eq!(row[1], Value::Int(5));
    }
}

#[test]
fn in_list_predicates() {
    let mut db = db();
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE year IN (1990, 1995, 2000)")
        .unwrap();
    let expected = (0..1000i64)
        .filter(|i| matches!(1990 + i % 17, 1990 | 1995 | 2000))
        .count() as i64;
    assert_eq!(r.rows[0][0], Value::Int(expected));

    // string IN list
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IN ('Toyota', 'Nope')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(250));

    // single-element list folds to equality (region form preserved)
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IN ('Toyota')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(250));

    // duplicates are tolerated
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IN ('Toyota', 'Toyota')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(250));

    // empty and NULL lists rejected
    assert!(db
        .execute("SELECT COUNT(*) FROM car WHERE make IN ()")
        .is_err());
    assert!(db
        .execute("SELECT COUNT(*) FROM car WHERE make IN ('a', NULL)")
        .is_err());
}

#[test]
fn is_null_predicates() {
    let mut db = db();
    db.execute("INSERT INTO car VALUES (5000, NULL, 999.0, 2001)")
        .unwrap();
    db.execute("INSERT INTO car VALUES (5001, NULL, 998.0, 2002)")
        .unwrap();
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IS NULL")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IS NOT NULL")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1000));
    // IS NULL composes with other predicates
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE make IS NULL AND year > 2001")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn in_list_estimated_from_catalog() {
    let mut db = db();
    // catalog stats: each year ~ 1000/17 rows; IN of 3 years ~ 176
    let r = db
        .execute("SELECT COUNT(*) FROM car WHERE year IN (1991, 1994, 2003)")
        .unwrap();
    let est = r.metrics.plan.unwrap().est_rows;
    let actual = r.rows[0][0].as_i64().unwrap() as f64;
    assert!(
        (est - actual).abs() / actual < 0.5,
        "IN estimate {est} vs actual {actual}"
    );
}

#[test]
fn jits_measures_in_list_groups() {
    use jits_repro::core::SensitivityStrategy;
    let _ = SensitivityStrategy::PaperHeuristic;
    let mut db = db();
    db.clear_statistics();
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    // IN + range: non-region group measured exactly by sampling
    let sql = "SELECT COUNT(*) FROM car WHERE make IN ('Toyota', 'Honda') AND year > 2000";
    let r = db.execute(sql).unwrap();
    let actual = r.rows[0][0].as_i64().unwrap() as f64;
    let est = r.metrics.plan.unwrap().est_rows;
    assert!(
        (est - actual).abs() / actual < 0.15,
        "sampled estimate {est} vs actual {actual}"
    );
}

/// An UPDATE whose second assignment cannot be typed must fail as a
/// whole: the first assignment stays unapplied (it used to be written to
/// every matching row before the bad value was reached), and the error is
/// a binding error, as for INSERT.
#[test]
fn update_with_a_mistyped_assignment_changes_nothing() {
    use jits_repro::common::JitsError;

    let sql = "UPDATE car SET price = 999, year = 'x' WHERE id = 1";
    let probe = "SELECT price, year FROM car WHERE id = 1";
    let untouched = vec![vec![Value::Float(1001.0), Value::Int(1991)]];

    let mut single = db();
    let before = single.tables()[0].snapshot();
    let err = single.execute(sql).unwrap_err();
    assert_eq!(single.tables()[0].snapshot(), before);
    assert!(matches!(err, JitsError::Binding(_)), "{err:?}");
    assert_eq!(single.execute(probe).unwrap().rows, untouched);
    // the well-typed spelling goes through, the Int literal widened to Float
    let r = single
        .execute("UPDATE car SET price = 999, year = 2007 WHERE id = 1")
        .unwrap();
    assert_eq!(r.metrics.result_rows, 1);
    assert_eq!(
        single.execute(probe).unwrap().rows,
        vec![vec![Value::Float(999.0), Value::Int(2007)]]
    );

    let shared = db().into_shared();
    let mut session = shared.session();
    let before = shared.with_tables(|t| t[0].snapshot());
    let err = session.execute(sql).unwrap_err();
    assert_eq!(shared.with_tables(|t| t[0].snapshot()), before);
    assert!(matches!(err, JitsError::Binding(_)), "{err:?}");
    assert_eq!(session.execute(probe).unwrap().rows, untouched);
}

/// The SELECTs of this file that bind, over one database holding what each
/// test adds (the NULL makes, the `owner` table).
const SELECTS: &[&str] = &[
    "SELECT COUNT(*), COUNT(id), SUM(id), AVG(id), MIN(id), MAX(id) FROM car \
     WHERE make = 'Toyota'",
    "SELECT COUNT(*), SUM(id), AVG(id), MIN(id) FROM car WHERE year > 3000",
    "SELECT SUM(price) FROM car WHERE id < 2",
    "SELECT id FROM car WHERE id < 50 ORDER BY id DESC LIMIT 3",
    "SELECT id FROM car WHERE id < 50 ORDER BY id ASC LIMIT 2",
    "SELECT id FROM car LIMIT 5",
    "SELECT id FROM car LIMIT 0",
    "SELECT make FROM car WHERE id < 8 ORDER BY make LIMIT 3",
    "SELECT AVG(price), MAX(year) FROM car WHERE make = 'Toyota' AND year > 1999",
    "SELECT make, COUNT(*), MIN(year), MAX(price) FROM car GROUP BY make",
    "SELECT year, COUNT(*) FROM car WHERE make = 'Toyota' GROUP BY year LIMIT 5",
    "SELECT COUNT(*) FROM car LIMIT 5",
    "SELECT city, COUNT(*) FROM car c, owner o WHERE c.id = o.id GROUP BY city",
    "SELECT COUNT(*) FROM car WHERE year IN (1990, 1995, 2000)",
    "SELECT COUNT(*) FROM car WHERE make IN ('Toyota', 'Nope')",
    "SELECT COUNT(*) FROM car WHERE make IN ('Toyota')",
    "SELECT COUNT(*) FROM car WHERE make IS NULL",
    "SELECT COUNT(*) FROM car WHERE make IS NOT NULL",
    "SELECT COUNT(*) FROM car WHERE make IS NULL AND year > 2001",
    "SELECT COUNT(*) FROM car WHERE make IN ('Toyota', 'Honda') AND year > 2000",
    "SELECT price, year FROM car WHERE id = 1",
];

/// Every SELECT above returns the oracle's answer through the engine, and
/// on every forced plan extreme of its catalog plan.
#[test]
fn selects_match_the_oracle_under_forced_plans() {
    let mut db = db();
    db.execute("INSERT INTO car VALUES (5000, NULL, 999.0, 2001)")
        .unwrap();
    db.execute("INSERT INTO car VALUES (5001, NULL, 998.0, 2002)")
        .unwrap();
    db.create_table(
        "owner",
        Schema::from_pairs(&[("id", DataType::Int), ("city", DataType::Str)]),
    )
    .unwrap();
    db.load_rows(
        "owner",
        (0..10i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i < 5 { "Ottawa" } else { "Boston" }),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.set_primary_key("car", "id").unwrap();
    db.runstats_all().unwrap();
    for sql in SELECTS {
        let rows = db.execute(sql).unwrap().rows;
        plans::answer(db.catalog(), db.tables(), sql)
            .check(&rows)
            .unwrap_or_else(|m| panic!("{sql}: {m}"));
        plans::sweep(db.catalog(), db.tables(), sql);
    }
}

//! Versioned sample-cache integration tests: serving, invalidation, the
//! `jits_sample_cache` view, cross-session coherence, and the bit-identity
//! contract (the cache may only change wall-clock, never any statistic).

use jits_repro::common::{DataType, Schema, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};

/// A car/owner database large enough that a small UPDATE stays far below
/// the staleness threshold while a full UPDATE blows way past it.
fn build_db(seed: u64) -> Database {
    let mut db = Database::new(seed);
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "owner",
        Schema::from_pairs(&[("id", DataType::Int), ("salary", DataType::Int)]),
    )
    .unwrap();
    db.set_primary_key("car", "id").unwrap();
    db.set_primary_key("owner", "id").unwrap();
    let car_rows = (0..4000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 400),
                Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", car_rows).unwrap();
    let owner_rows = (0..400i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 250)])
        .collect();
    db.load_rows("owner", owner_rows).unwrap();
    db
}

/// Collect on every query so repeated statements exercise the cache.
fn always_collect() -> JitsConfig {
    JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }
}

const Q: &str = "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND year > 1995";

/// Per-statement trace: result rows plus the bit patterns of the two
/// deterministic work counters.
type OpTrace = Vec<(Vec<Vec<Value>>, u64, u64)>;

#[test]
fn light_churn_serves_cached_sample() {
    let mut db = build_db(42);
    db.set_setting(StatsSetting::Jits(always_collect()));

    db.execute(Q).unwrap();
    let cold = db.sample_cache().counters();
    assert_eq!(cold.hits, 0, "first collection must draw fresh");
    assert!(cold.misses >= 1);

    db.execute(Q).unwrap();
    let warm = db.sample_cache().counters();
    assert!(warm.hits > cold.hits, "identical re-query must be served");
    assert_eq!(warm.stale_redraws, 0);

    // one mutated row out of 4000 is far below the 10% staleness limit
    db.execute("UPDATE car SET year = 2007 WHERE id = 3")
        .unwrap();
    db.execute(Q).unwrap();
    let churned = db.sample_cache().counters();
    assert!(churned.hits > warm.hits, "light churn must still serve");
    assert_eq!(churned.stale_redraws, 0);
}

#[test]
fn mass_churn_triggers_redraw() {
    let mut db = build_db(43);
    db.set_setting(StatsSetting::Jits(always_collect()));
    db.execute(Q).unwrap();
    db.execute(Q).unwrap();
    assert!(db.sample_cache().counters().hits >= 1);

    // every row mutates: staleness reaches 1.0, far past the 0.1 limit
    db.execute("UPDATE car SET make = 'Audi'").unwrap();
    db.execute(Q).unwrap();
    let after = db.sample_cache().counters();
    assert!(after.stale_redraws >= 1, "mass churn must force a redraw");

    // the redraw recached the sample at the new epoch, so it serves again
    let count = db.execute(Q).unwrap().rows[0][0].as_i64().unwrap();
    assert_eq!(count, 0, "no Toyotas survive the mass update");
    assert!(db.sample_cache().counters().hits > after.hits);
}

#[test]
fn cache_entries_visible_in_system_view() {
    let mut db = build_db(44);
    db.set_setting(StatsSetting::Jits(always_collect()));
    db.execute(Q).unwrap();
    db.execute(Q).unwrap();

    let rows = db.execute("SELECT * FROM jits_sample_cache").unwrap().rows;
    let car = rows
        .iter()
        .find(|r| r[0] == Value::str("car"))
        .expect("car sample must be cached");
    // columns: table, spec_size, epoch, rows_at_draw, sample_rows, probes,
    // hits
    assert_eq!(car.len(), 7);
    assert_eq!(car[3].as_i64().unwrap(), 4000, "cardinality at draw time");
    assert!(car[4].as_i64().unwrap() > 0, "sample must hold rows");
    assert!(car[6].as_i64().unwrap() >= 1, "serve count is tracked");
}

#[test]
fn cross_session_cache_coherence() {
    let mut db = build_db(45);
    db.set_setting(StatsSetting::Jits(always_collect()));
    let shared = db.into_shared();

    let mut a = shared.session();
    let mut b = shared.session();
    let ra = a.execute(Q).unwrap();
    let rb = b.execute(Q).unwrap();
    assert_eq!(ra.rows, rb.rows);
    // served samples charge the same work as fresh draws, so the two
    // sessions' compile efforts agree bit-for-bit
    assert_eq!(
        ra.metrics.compile_work.to_bits(),
        rb.metrics.compile_work.to_bits()
    );

    // session B was served the sample session A committed
    let view = b.execute("SELECT * FROM jits_sample_cache").unwrap().rows;
    let car = view.iter().find(|r| r[0] == Value::str("car")).unwrap();
    assert!(car[6].as_i64().unwrap() >= 1, "cross-session serve");
    assert!(shared.metrics_json(false).contains("jits.samplecache.hits"));
}

#[test]
fn disabling_the_cache_clears_and_bypasses_it() {
    let mut db = build_db(46);
    db.set_setting(StatsSetting::Jits(always_collect()));
    db.execute(Q).unwrap();
    assert!(!db.sample_cache().is_empty());

    db.set_setting(StatsSetting::Jits(JitsConfig {
        sample_cache: false,
        ..always_collect()
    }));
    assert!(db.sample_cache().is_empty(), "disable must clear");
    let frozen = db.sample_cache().counters();
    db.execute(Q).unwrap();
    db.execute(Q).unwrap();
    assert_eq!(
        db.sample_cache().counters(),
        frozen,
        "disabled cache is never probed"
    );
    assert!(db.sample_cache().is_empty());
}

/// The cache must be invisible in every statistic: a full query+DML
/// sequence replays bit-for-bit with the cache off.
#[test]
fn cache_off_replays_cache_on_bit_for_bit() {
    let script = [
        Q,
        Q,
        "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 50000",
        "UPDATE car SET year = 1991 WHERE id = 7",
        Q,
        "UPDATE car SET make = 'Audi'",
        Q,
        Q,
    ];
    let run = |cache: bool| -> OpTrace {
        let mut db = build_db(47);
        db.set_setting(StatsSetting::Jits(JitsConfig {
            sample_cache: cache,
            ..always_collect()
        }));
        script
            .iter()
            .map(|sql| {
                let r = db.execute(sql).unwrap();
                (
                    r.rows,
                    r.metrics.compile_work.to_bits(),
                    r.metrics.exec_work.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(run(true), run(false));
}

/// Warm-cache collections must stay bit-deterministic at any fan-out: the
/// served-sample path and the parallel draw path share one RNG discipline.
#[test]
fn warm_cache_bit_identical_at_1_and_8_collect_threads() {
    let drive = |threads: usize| -> (OpTrace, String) {
        let mut db = build_db(48);
        db.set_setting(StatsSetting::Jits(JitsConfig {
            collect_threads: threads,
            ..always_collect()
        }));
        let shared = db.into_shared();
        let mut session = shared.session();
        let script = [
            Q,
            Q, // warm single-table serve
            "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 50000",
            "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 50000",
            "UPDATE car SET year = 2001 WHERE id = 11",
            Q, // still warm after light churn
        ];
        let traces = script
            .iter()
            .map(|sql| {
                let r = session.execute(sql).unwrap();
                (
                    r.rows,
                    r.metrics.compile_work.to_bits(),
                    r.metrics.exec_work.to_bits(),
                )
            })
            .collect();
        (traces, shared.metrics_json(false))
    };
    let one = drive(1);
    let eight = drive(8);
    assert_eq!(one.0, eight.0, "per-op traces diverged across fan-out");
    assert_eq!(one.1, eight.1, "deterministic metrics diverged");
    assert!(one.1.contains("jits.samplecache.hits"));
}

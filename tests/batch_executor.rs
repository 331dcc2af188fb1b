//! Executor integration tests: on the optimizer's plan and on every forced
//! plan extreme, each corpus query must equal the brute-force oracle —
//! rows, every node's actual rows, every scan observation — and the
//! corpus's charged work is pinned to a hash. The engine must answer what
//! the oracle answers statement for statement under every statistics
//! setting, and replay bit for bit at any collection fan-out.

mod oracle;
mod plans;

use jits_repro::catalog::{runstats, Catalog, RunstatsOptions};
use jits_repro::common::{ColumnId, DataType, JitsError, Schema, TableId, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};
use jits_repro::executor::execute;
use jits_repro::optimizer::{NodeEst, PhysicalPlan, ScanGroupEstimate, StatSource};
use jits_repro::storage::Table;
use plans::{assert_pinned, check_run, digest_rows, digest_run, plan_of, FNV_START};

/// Car models, one per `i % 8`; `model` is NULL on every seventh row.
const MODELS: &[&str] = &[
    "Civic", "Corolla", "Model S", "Mustang", "Prius", "Q5", "RAV4", "A4",
];

/// Rows loaded into `car`: four zone-map blocks (`BLOCK_SIZE` = 1024).
const CAR_ROWS: i64 = 3600;

/// Owners; `owner.id` runs densely over `0..OWNERS`.
const OWNERS: i64 = 100;

/// `car.tag` / `owner.tag`: a sparse join key whose values lie a million
/// apart (negative ones included), so its range is far past what a
/// direct-address join may spend and the join hashes.
fn tag(k: i64) -> i64 {
    (k - 30) * 1_000_003
}

/// car(3600, some NULL join keys) joins owner(100) on `ownerid = id` and —
/// for the multi-key corpus entries — additionally on `year`; `delta`
/// (dense, negative, repeating on the car side, NULL on both) and `tag`
/// (sparse) are further `Int` join keys. `car.model` holds NULLs and a
/// value (`Roadster`) first written by UPDATE after the load; `car.price`
/// holds NULLs and both zeros; `owner.name` is unique and indexed, so its
/// dictionary outnumbers any index probe's candidates. `car` spans four
/// blocks: the second is deleted whole, and every 29th row elsewhere.
fn setup() -> (Catalog, Vec<Table>) {
    let mut catalog = Catalog::new();
    let car_schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("ownerid", DataType::Int),
        ("make", DataType::Str),
        ("year", DataType::Int),
        ("model", DataType::Str),
        ("price", DataType::Float),
        ("delta", DataType::Int),
        ("tag", DataType::Int),
    ]);
    let owner_schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("salary", DataType::Int),
        ("year", DataType::Int),
        ("delta", DataType::Int),
        ("tag", DataType::Int),
    ]);
    let car_id = catalog.register_table("car", car_schema.clone()).unwrap();
    let owner_id = catalog
        .register_table("owner", owner_schema.clone())
        .unwrap();

    let mut car = Table::new("car", car_schema);
    for i in 0..CAR_ROWS {
        let owner = if i % 11 == 0 {
            Value::Null // NULL join keys must match nothing on either path
        } else {
            Value::Int(i % OWNERS)
        };
        let make = ["Toyota", "Honda", "Audi"][(i % 3) as usize];
        let model = if i % 7 == 0 {
            Value::Null
        } else {
            Value::str(MODELS[(i % 8) as usize])
        };
        let price = match i % 5 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            2 => Value::Float(0.0),
            _ => Value::Float((i % 13) as f64 * 1.5),
        };
        let delta = if i % 19 == 0 {
            Value::Null
        } else {
            Value::Int(i % 120 - 60)
        };
        let tag_key = if i % 17 == 0 {
            Value::Null
        } else {
            Value::Int(tag(i % 50))
        };
        car.insert(vec![
            Value::Int(i),
            owner,
            Value::str(make),
            Value::Int(1990 + i % 17),
            model,
            price,
            delta,
            tag_key,
        ])
        .unwrap();
    }
    for r in (5..CAR_ROWS as u32).step_by(97) {
        car.update(r, ColumnId(4), Value::str("Roadster")).unwrap();
    }
    for r in 0..CAR_ROWS as u32 {
        if (1024..2048).contains(&r) || r % 29 == 3 {
            assert!(car.delete(r));
        }
    }
    let mut owner = Table::new("owner", owner_schema);
    for i in 0..OWNERS {
        let nullable = |null: bool, v: i64| if null { Value::Null } else { Value::Int(v) };
        owner
            .insert(vec![
                Value::Int(i),
                Value::str(format!("owner{i}")),
                Value::Int(i * 1000),
                Value::Int(1990 + i % 17),
                nullable(i % 13 == 5, i - 50),
                nullable(i % 23 == 4, tag(i)),
            ])
            .unwrap();
    }
    owner.create_index(ColumnId(0)).unwrap();
    catalog.add_index(owner_id, ColumnId(0)).unwrap();
    owner.create_index(ColumnId(1)).unwrap();
    catalog.add_index(owner_id, ColumnId(1)).unwrap();
    car.create_index(ColumnId(0)).unwrap();
    catalog.add_index(car_id, ColumnId(0)).unwrap();

    let (ts, cs) = runstats(&car, RunstatsOptions::default(), 1);
    catalog.set_stats(car_id, ts, cs).unwrap();
    let (ts, cs) = runstats(&owner, RunstatsOptions::default(), 1);
    catalog.set_stats(owner_id, ts, cs).unwrap();
    (catalog, vec![car, owner])
}

/// Every plan shape the optimizer can emit, plus the epilogue combinations:
/// ORDER BY + LIMIT, GROUP BY, NULL join keys, and a multi-key join; and
/// every string-predicate kind the dictionary verdicts decide, and GROUP BY
/// on Str, (Str, Int) and Float keys.
const CORPUS: &[&str] = &[
    "SELECT id FROM car WHERE make = 'Toyota'",
    "SELECT id, year FROM car WHERE id >= 100 AND id < 300 ORDER BY year DESC LIMIT 7",
    "SELECT make FROM car WHERE year > 2000 ORDER BY make LIMIT 5",
    "SELECT id FROM car LIMIT 0",
    "SELECT COUNT(*) FROM car WHERE year > 2000",
    "SELECT COUNT(*), SUM(year), AVG(year), MIN(id), MAX(id) FROM car WHERE make = 'Audi'",
    "SELECT make, COUNT(*), SUM(year), MIN(id), MAX(id) FROM car GROUP BY make",
    "SELECT year, COUNT(*) FROM car WHERE make = 'Toyota' GROUP BY year LIMIT 4",
    "SELECT COUNT(*) FROM car WHERE ownerid IS NULL",
    "SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id AND salary >= 50000",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND c.year = o.year",
    "SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND c.id = 7",
    "SELECT c.make, COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id \
     GROUP BY c.make LIMIT 2",
    "SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id AND c.year > 2002 \
     ORDER BY o.name LIMIT 9",
    "SELECT id FROM car WHERE make <> 'Audi' AND year = 1995",
    "SELECT id, make FROM car WHERE make IN ('Honda', 'Tesla') AND year < 1993",
    "SELECT COUNT(*) FROM car WHERE make IN ('Tesla', 'Lada')",
    "SELECT id, model FROM car WHERE model >= 'M' AND model < 'R'",
    "SELECT COUNT(*) FROM car WHERE model IS NULL",
    "SELECT id FROM car WHERE model IS NOT NULL AND year = 2001",
    "SELECT id, model FROM car WHERE model = 'Roadster'",
    "SELECT COUNT(*) FROM car WHERE model <> 'Civic'",
    "SELECT id, salary FROM owner WHERE name = 'owner7'",
    "SELECT model, COUNT(*), MIN(id) FROM car GROUP BY model",
    "SELECT model, ownerid, COUNT(*), SUM(year) FROM car WHERE year > 2000 \
     GROUP BY model, ownerid",
    "SELECT price, COUNT(*), MAX(id) FROM car GROUP BY price",
    // single-Int-key joins: dense `owner.id`, sparse `tag`, and `delta`
    // (negative, repeated on the car side, NULL on both)
    "SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id AND o.salary < 30000",
    "SELECT c.id, o.id FROM car c, owner o WHERE c.tag = o.tag",
    "SELECT c.id, o.id, c.delta FROM car c, owner o WHERE c.delta = o.delta AND c.year > 2000",
    "SELECT o.id, COUNT(*) FROM car c, owner o WHERE c.delta = o.delta GROUP BY o.id",
    // integer intervals with exclusive ends at the extremes of i64
    "SELECT COUNT(*) FROM car WHERE delta > 9223372036854775807",
    "SELECT COUNT(*) FROM car WHERE delta < -9223372036854775808",
    "SELECT id FROM car WHERE delta > -9223372036854775808 AND delta < 9223372036854775807 \
     AND year = 1999",
    "SELECT COUNT(*) FROM car WHERE tag >= -30000090 AND tag < -29000087",
    "SELECT id FROM car WHERE delta >= -3 AND delta < 0 AND make <> 'Audi'",
    // an indexed interval with residual predicates on other columns
    "SELECT id, make, year FROM car WHERE id >= 100 AND id < 400 AND make = 'Audi' \
     AND year > 2000",
];

/// The digest of the corpus's runs ([`plans::sweep`]), taken when a
/// row-at-a-time executor still ran beside this one and agreed with it bit
/// for bit on every one of these plans.
const CORPUS_WORK: u64 = 0x9050_cdf5_38d3_c141;

/// Every corpus query, on the chosen plan and on every forced variant of
/// it, equals the oracle: rows, each node's actual rows, and each scan
/// observation's actual and live rows.
#[test]
fn corpus_matches_the_oracle_under_forced_plans() {
    let (catalog, tables) = setup();
    for sql in CORPUS {
        plans::sweep(&catalog, &tables, sql);
    }
}

/// The corpus's rows in order, total `ExecStats.work` bits and per-node
/// (kind, work bits), forced variants included, hash to the pinned value;
/// every node's work is finite and non-negative, and the node slices
/// account for no more than the total (the rest is the sort and output
/// epilogue).
#[test]
fn corpus_charged_work_matches_the_pinned_hash() {
    let (catalog, tables) = setup();
    let mut digests = Vec::new();
    for sql in CORPUS {
        let (block, chosen, cost) = plan_of(&catalog, sql);
        let mut h = FNV_START;
        for plan in plans::variants(&chosen, &block, &tables) {
            let out = execute(&plan, &block, &tables, &cost).unwrap();
            h = digest_run(h, &out);
            for n in &out.stats.nodes {
                assert!(
                    n.work.is_finite() && n.work >= 0.0,
                    "non-finite or negative node work: {sql} ({:?})",
                    n.kind
                );
            }
            let node_sum: f64 = out.stats.nodes.iter().map(|n| n.work).sum();
            assert!(
                node_sum <= out.stats.work * (1.0 + 1e-12) + 1e-9,
                "node work slices exceed the total: {sql} ({node_sum} > {})",
                out.stats.work
            );
        }
        digests.push((sql.to_string(), h));
    }
    assert_pinned("batch_executor corpus", &digests, CORPUS_WORK);
}

/// The corpus holds the string cases the dictionary path must get right,
/// and they are not vacuous on this data.
#[test]
fn string_corpus_cases_select_rows() {
    let (catalog, tables) = setup();
    let count = |sql: &str| {
        let (block, plan, cost) = plan_of(&catalog, sql);
        execute(&plan, &block, &tables, &cost).unwrap().rows.len()
    };
    assert!(count("SELECT id, model FROM car WHERE model = 'Roadster'") > 0);
    assert!(count("SELECT id, model FROM car WHERE model >= 'M' AND model < 'R'") > 0);
    assert!(count("SELECT id FROM car WHERE model IS NOT NULL AND year = 2001") > 0);
    // NULL is its own group; -0.0 and 0.0 are one
    let groups = count("SELECT model, COUNT(*), MIN(id) FROM car GROUP BY model");
    assert_eq!(groups, MODELS.len() + 2, "models, Roadster, NULL");
    assert_eq!(
        count("SELECT price, COUNT(*), MAX(id) FROM car GROUP BY price"),
        14,
        "NULL, one group for both zeros, twelve nonzero multiples of 1.5"
    );
}

/// The integer corpus cases are not vacuous, and the intervals with
/// exclusive ends at the extremes of `i64` select what they must: nothing
/// past an extreme, every non-NULL value short of both.
#[test]
fn int_corpus_cases_select_what_they_must() {
    let (catalog, tables) = setup();
    let run = |sql: &str| {
        let (block, plan, cost) = plan_of(&catalog, sql);
        execute(&plan, &block, &tables, &cost).unwrap().rows
    };
    for sql in CORPUS
        .iter()
        .filter(|q| q.contains(".delta = o.delta") || q.contains(".tag"))
    {
        assert!(!run(sql).is_empty(), "{sql}");
    }
    let car = &tables[0];
    let live_where = |keep: &dyn Fn(u32) -> bool| car.scan().filter(|&r| keep(r)).count() as i64;
    let cell = |r: u32, c: u32| car.value(r, ColumnId(c));
    assert_eq!(
        run("SELECT COUNT(*) FROM car WHERE delta > 9223372036854775807"),
        vec![vec![Value::Int(0)]]
    );
    assert_eq!(
        run("SELECT COUNT(*) FROM car WHERE delta < -9223372036854775808"),
        vec![vec![Value::Int(0)]]
    );
    let open = run(
        "SELECT id FROM car WHERE delta > -9223372036854775808 AND delta < 9223372036854775807 \
         AND year = 1999",
    );
    let expect = live_where(&|r| !cell(r, 6).is_null() && cell(r, 3) == Value::Int(1999));
    assert!(expect > 0);
    assert_eq!(open.len() as i64, expect);
    let first_tag = live_where(&|r| cell(r, 7) == Value::Int(tag(0)));
    assert!(first_tag > 0);
    assert_eq!(
        run("SELECT COUNT(*) FROM car WHERE tag >= -30000090 AND tag < -29000087"),
        vec![vec![Value::Int(first_tag)]]
    );
}

/// `owner.name` is unique, so its 100-entry dictionary outnumbers the one
/// candidate of an index probe (the filter decides that row cell by cell)
/// but not a full scan's 100 rows (the filter decides by code). Both plans
/// return the oracle's row.
#[test]
fn string_equality_agrees_on_scan_and_index_paths() {
    let (catalog, tables) = setup();
    let (block, chosen, cost) =
        plan_of(&catalog, "SELECT id, name FROM owner WHERE name = 'owner7'");
    let PhysicalPlan::IndexScan { scan, est, .. } = &chosen else {
        panic!("expected an index scan on owner.name, got {chosen:?}")
    };
    let seq = PhysicalPlan::SeqScan {
        scan: scan.clone(),
        est: *est,
    };
    let answer = oracle::evaluate(&block, &tables);
    for plan in [&chosen, &seq] {
        let out = execute(plan, &block, &tables, &cost).unwrap();
        check_run(&answer, plan, &out).unwrap_or_else(|m| panic!("{plan:?}: {m}"));
        assert_eq!(
            out.rows,
            vec![vec![Value::Int(7), Value::str("owner7")]],
            "{plan:?}"
        );
    }
}

/// A hash join whose build side repeats every key (car builds on
/// `ownerid`, about twelve cars per owner) emits probe order × build
/// insertion order: within one owner, car ids ascend. A chain walked in
/// reverse would emit them descending. The rows are the oracle's, and the
/// run's charged work is pinned.
/// The digest of that run, taken when a row-at-a-time executor agreed
/// with this one bit for bit on the plan.
const DUPLICATE_KEYS_WORK: u64 = 0x5c47_83b6_901b_91f8;

#[test]
fn hash_join_walks_duplicate_build_keys_in_insertion_order() {
    let (catalog, tables) = setup();
    let (block, _, cost) = plan_of(
        &catalog,
        "SELECT o.id, c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.salary < 5000",
    );
    let scan = |qun: usize, table: u32, base_rows: f64| ScanGroupEstimate {
        qun,
        table: TableId(table),
        pred_indices: block.local_predicates_of(qun),
        selectivity: 1.0,
        base_rows,
        statlist: vec![],
        source: StatSource::Default,
    };
    let est = NodeEst {
        rows: 60.0,
        cost: 1.0,
    };
    let plan = PhysicalPlan::HashJoin {
        build: Box::new(PhysicalPlan::SeqScan {
            scan: scan(0, 0, CAR_ROWS as f64),
            est,
        }),
        probe: Box::new(PhysicalPlan::SeqScan {
            scan: scan(1, 1, 100.0),
            est,
        }),
        keys: vec![((0, ColumnId(1)), (1, ColumnId(0)))],
        est,
    };
    let batch = execute(&plan, &block, &tables, &cost).unwrap();
    check_run(&oracle::evaluate(&block, &tables), &plan, &batch).unwrap();
    assert_pinned(
        "duplicate build keys",
        &[("hash join".to_string(), digest_run(FNV_START, &batch))],
        DUPLICATE_KEYS_WORK,
    );
    let pairs: Vec<(i64, i64)> = batch
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    let repeats = pairs.windows(2).filter(|w| w[0].0 == w[1].0).count();
    assert!(repeats > 10, "build keys must repeat: {pairs:?}");
    for w in pairs.windows(2) {
        assert!(
            w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
            "owners in probe order, each owner's cars in insertion order: {w:?}"
        );
    }
}

/// The range a direct-address hash join may index for a join of these
/// input sizes (`batch.rs`): wider build keys fall back to the hashed
/// kernel.
fn direct_slots(build: usize, probe: usize) -> i64 {
    4 * (build + probe) as i64 + 1024
}

/// `max − min + 1` over the non-NULL values of an `Int` column's live rows.
fn key_span(table: &Table, col: ColumnId) -> i64 {
    let keys: Vec<i64> = table
        .scan()
        .filter_map(|r| table.value(r, col).as_i64())
        .collect();
    keys.iter().max().unwrap() - keys.iter().min().unwrap() + 1
}

/// Every single-`Int`-key join shape, forced into a hash join over two
/// full scans with each table on the build side in turn, against the
/// oracle, with the runs' charged work pinned: dense keys with repeats on the build side (`ownerid`/`id`),
/// dense negative keys with NULLs on both sides (`delta`), and sparse keys
/// whose range is past the direct-address bound (`tag`). The spans are
/// checked so that the data keeps exercising both kernels.
#[test]
fn int_key_hash_joins_match_the_oracle_on_both_kernels() {
    let (catalog, tables) = setup();
    let mut digests = Vec::new();
    let (car, owner) = (&tables[0], &tables[1]);
    let bound = direct_slots(car.row_count(), owner.row_count());
    let cases = [
        ("ownerid", ColumnId(1), "id", ColumnId(0), true),
        ("delta", ColumnId(6), "delta", ColumnId(4), true),
        ("tag", ColumnId(7), "tag", ColumnId(5), false),
    ];
    for (car_key, car_col, owner_key, owner_col, dense) in cases {
        for span in [key_span(car, car_col), key_span(owner, owner_col)] {
            assert_eq!(
                span <= bound,
                dense,
                "{car_key}: span {span}, bound {bound}"
            );
        }
        let sql = format!(
            "SELECT c.id, o.id, c.{car_key} FROM car c, owner o WHERE c.{car_key} = o.{owner_key}"
        );
        let (block, _, cost) = plan_of(&catalog, &sql);
        let answer = oracle::evaluate(&block, &tables);
        let scan = |qun: usize, base_rows: f64| PhysicalPlan::SeqScan {
            scan: ScanGroupEstimate {
                qun,
                table: TableId(qun as u32),
                pred_indices: vec![],
                selectivity: 1.0,
                base_rows,
                statlist: vec![],
                source: StatSource::Default,
            },
            est: NodeEst {
                rows: base_rows,
                cost: 1.0,
            },
        };
        let car_side = || (scan(0, CAR_ROWS as f64), (0, car_col));
        let owner_side = || (scan(1, OWNERS as f64), (1, owner_col));
        for (build, probe) in [(car_side(), owner_side()), (owner_side(), car_side())] {
            let plan = PhysicalPlan::HashJoin {
                build: Box::new(build.0),
                probe: Box::new(probe.0),
                keys: vec![(build.1, probe.1)],
                est: NodeEst {
                    rows: 1000.0,
                    cost: 1.0,
                },
            };
            let batch = execute(&plan, &block, &tables, &cost).unwrap();
            assert!(!batch.rows.is_empty(), "{sql}: the join must match rows");
            check_run(&answer, &plan, &batch).unwrap_or_else(|m| panic!("{sql}, {plan:?}: {m}"));
            digests.push((sql.clone(), digest_run(FNV_START, &batch)));
        }
    }
    assert_pinned("int-key hash joins", &digests, INT_KEY_JOINS_WORK);
}

/// The digest of those runs, taken when a row-at-a-time executor agreed
/// with this one bit for bit on every one of these plans.
const INT_KEY_JOINS_WORK: u64 = 0x9e01_d9b0_65f6_a454;

/// A malformed index nested-loop plan (no equality keys) must fail with a
/// typed execution error, never a panic.
#[test]
fn keyless_index_nl_join_is_a_typed_error() {
    let (catalog, tables) = setup();
    let (block, _, cost) = plan_of(
        &catalog,
        "SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id",
    );
    let scan = |qun: usize, table: u32, base_rows: f64| ScanGroupEstimate {
        qun,
        table: TableId(table),
        pred_indices: vec![],
        selectivity: 1.0,
        base_rows,
        statlist: vec![],
        source: StatSource::Default,
    };
    let est = NodeEst {
        rows: CAR_ROWS as f64,
        cost: 1.0,
    };
    let plan = PhysicalPlan::IndexNLJoin {
        outer: Box::new(PhysicalPlan::SeqScan {
            scan: scan(0, 0, CAR_ROWS as f64),
            est,
        }),
        inner: scan(1, 1, 100.0),
        index_column: ColumnId(0),
        keys: vec![], // malformed: nothing to probe the index with
        est,
    };
    match execute(&plan, &block, &tables, &cost) {
        Err(JitsError::Execution(m)) => assert!(m.contains("without keys"), "{m}"),
        other => panic!("expected typed execution error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Engine against the oracle, and fan-out replay
// ---------------------------------------------------------------------------

fn build_engine_db(seed: u64) -> Database {
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
    let car_rows = (0..2000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 200)
                },
                Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", car_rows).unwrap();
    let owner_rows = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 250)])
        .collect();
    db.load_rows("owner", owner_rows).unwrap();
    db
}

fn always_collect() -> JitsConfig {
    JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }
}

const SCRIPT: &[&str] = &[
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND year > 1995",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 25000",
    "SELECT make, COUNT(*) FROM car GROUP BY make",
    "SELECT id FROM car WHERE year > 2003 ORDER BY id DESC LIMIT 5",
    "UPDATE car SET year = 2007 WHERE id = 3",
    "SELECT COUNT(*) FROM car WHERE ownerid IS NULL",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 25000",
];

/// Per-statement trace: result rows plus the bit patterns of the two
/// deterministic work counters.
type OpTrace = Vec<(Vec<Vec<Value>>, u64, u64)>;

/// The statistics settings the engine scripts run under.
fn settings() -> [StatsSetting; 4] {
    [
        StatsSetting::NoStatistics,
        StatsSetting::CatalogOnly,
        StatsSetting::ArchiveReadOnly,
        StatsSetting::Jits(always_collect()),
    ]
}

/// The digest of the script's SELECTs under `CatalogOnly` — rows and
/// `exec_work` bits — taken when the engine's answers still equalled a
/// row-at-a-time executor's run of the same plans bit for bit.
const SCRIPT_WORK: u64 = 0x6c64_2ded_7fe7_70bd;

/// At the engine level, under every statistics setting, every SELECT of
/// the query+DML script returns the oracle's rows, with the UPDATE applied
/// in between; under `CatalogOnly` the rows and `exec_work` bits are
/// pinned.
#[test]
fn engine_ab_replays_bit_for_bit() {
    for setting in settings() {
        let catalog_only = matches!(setting, StatsSetting::CatalogOnly);
        let mut db = build_engine_db(52);
        db.runstats_all().unwrap();
        db.set_setting(setting.clone());
        let mut digests = Vec::new();
        for sql in SCRIPT {
            let r = db.execute(sql).unwrap();
            if sql.starts_with("UPDATE") {
                continue;
            }
            plans::answer(db.catalog(), db.tables(), sql)
                .check(&r.rows)
                .unwrap_or_else(|m| panic!("{} {sql}: {m}", setting.label()));
            let digest = digest_rows(FNV_START, &r.rows, r.metrics.exec_work);
            digests.push((sql.to_string(), digest));
        }
        if catalog_only {
            assert_pinned("engine script", &digests, SCRIPT_WORK);
        }
    }
}

/// Replaying through a shared session stays bit-deterministic, and the
/// profile counters land in the deterministic metrics export.
#[test]
fn batch_executor_replays_bit_identically_through_a_session() {
    let drive = || -> (OpTrace, String) {
        let mut db = build_engine_db(53);
        db.set_setting(StatsSetting::Jits(always_collect()));
        let shared = db.into_shared();
        let mut session = shared.session();
        let traces = SCRIPT
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
    let (first, again) = (drive(), drive());
    assert_eq!(first.0, again.0, "per-op traces diverged on replay");
    assert_eq!(first.1, again.1, "deterministic metrics diverged on replay");
    assert!(first.1.contains("jits.profile.statements"));
}

// ---------------------------------------------------------------------------
// Integer SUM precision
// ---------------------------------------------------------------------------

fn nums_db(rows: &[i64]) -> Database {
    let mut db = Database::new(7);
    db.create_table(
        "nums",
        Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]),
    )
    .unwrap();
    db.load_rows(
        "nums",
        rows.iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), Value::Int(*v)])
            .collect(),
    )
    .unwrap();
    db
}

/// The engine's answer to `sql`, checked against the oracle, whose `SUM`
/// adds in `i128`.
fn checked(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    let rows = db.execute(sql).unwrap().rows;
    plans::answer(db.catalog(), db.tables(), sql)
        .check(&rows)
        .unwrap_or_else(|m| panic!("{sql}: {m}"));
    rows
}

/// 2^53 is where f64 stops representing every integer: an f64 accumulator
/// would return 2^53 for this sum, losing the +1. A sum that fits `i64`
/// is an exact `Int`.
#[test]
fn int_sum_is_exact_past_the_f64_boundary() {
    const B: i64 = 1 << 53;
    let mut db = nums_db(&[B - 1, 1, 1, 1]);
    let rows = checked(&mut db, "SELECT SUM(v) FROM nums");
    assert_eq!(rows[0][0], Value::Int(B + 2));

    // the same digits through GROUP BY accumulation
    let rows = checked(
        &mut db,
        "SELECT id, SUM(v) FROM nums WHERE id < 2 GROUP BY id",
    );
    assert!(
        rows.contains(&vec![Value::Int(0), Value::Int(B - 1)]),
        "{rows:?}"
    );

    // AVG stays floating-point
    let rows = checked(&mut db, "SELECT AVG(v) FROM nums WHERE id > 0");
    assert_eq!(rows[0][0], Value::Float(1.0));
}

/// Overflowing i64 must not wrap or panic: the sum degrades to a `Float`,
/// within the oracle's tolerance of the exact `i128` sum.
#[test]
fn int_sum_overflow_promotes_to_float() {
    let mut db = nums_db(&[i64::MAX, i64::MAX, 5]);
    let rows = checked(&mut db, "SELECT SUM(v) FROM nums");
    let Value::Float(f) = rows[0][0] else {
        panic!("overflowed SUM must promote to Float, got {:?}", rows[0][0])
    };
    assert!((f - (i64::MAX as f64) * 2.0).abs() / f < 1e-9);
}

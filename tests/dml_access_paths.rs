//! UPDATE and DELETE locate their rows through index probes and zone-map
//! pruning (DESIGN.md §13, "DML access paths"). Whatever path the exact
//! cost comparison picks, the statement must behave as the full scan it
//! replaced: the same rows, mutated in the same ascending order, leaving a
//! table that is bit-identical — cells, live set, per-key index row order,
//! zone maps, UDI counters, `mutation_epoch` — to a twin mutated through a
//! brute-force `scan().filter(matches)` oracle.

mod oracle;
mod plans;

use jits_repro::common::{DataType, Schema, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, SharedDatabase, StatsSetting};
use jits_repro::executor::{locate_rows, NodeKind};
use jits_repro::optimizer::CostModel;
use jits_repro::query::{bind_statement, parse, BoundStatement, LocalPredicate};
use jits_repro::storage::{RowId, Table, BLOCK_SIZE};
use proptest::prelude::*;

const BLOCKS: usize = 5;
const ROWS: i64 = (BLOCKS * BLOCK_SIZE) as i64;

fn ev_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int),  // primary key, clustered (= row id)
        ("grp", DataType::Int), // secondary index, i % 50: every block holds every key
        ("seq", DataType::Int), // 2 * i: clustered but not indexed, so only zone maps help
        ("val", DataType::Int), // scattered in [0, 1000): neither path helps
        ("tag", DataType::Str), // a/b/c/d
        ("opt", DataType::Int), // indexed, NULL every tenth row
        ("f", DataType::Float), // i / 2, clustered
    ])
}

fn ev_rows() -> Vec<Vec<Value>> {
    (0..ROWS)
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
                Value::Float(i as f64 / 2.0),
            ]
        })
        .collect()
}

fn ev_database(seed: u64) -> Database {
    let mut db = Database::new(seed);
    db.create_table("ev", ev_schema()).unwrap();
    db.load_rows("ev", ev_rows()).unwrap();
    db.set_primary_key("ev", "id").unwrap();
    db.create_index("ev", "grp").unwrap();
    db.create_index("ev", "opt").unwrap();
    db
}

/// The statement's WHERE predicates, bound against `db`'s catalog.
fn bound(db: &Database, sql: &str) -> BoundStatement {
    bind_statement(&parse(sql).unwrap(), db.catalog()).unwrap()
}

fn predicates(stmt: &BoundStatement) -> &[LocalPredicate] {
    match stmt {
        BoundStatement::Update(u) => &u.predicates,
        BoundStatement::Delete(d) => &d.predicates,
        other => panic!("not an UPDATE or DELETE: {other:?}"),
    }
}

/// The oracle: the rows a full scan with row-at-a-time predicate
/// evaluation finds, ascending.
fn oracle_rows(t: &Table, preds: &[LocalPredicate]) -> Vec<RowId> {
    t.scan()
        .filter(|&r| preds.iter().all(|p| p.matches(&t.value(r, p.column))))
        .collect()
}

/// Applies the statement to `twin` the way the engine did before it had
/// access paths: oracle rows, ascending, one cell at a time.
fn oracle_apply(twin: &mut Table, stmt: &BoundStatement) -> usize {
    let rows = oracle_rows(twin, predicates(stmt));
    match stmt {
        BoundStatement::Update(u) => {
            for &r in &rows {
                for (c, v) in &u.sets {
                    twin.update(r, *c, v.clone()).unwrap();
                }
            }
        }
        BoundStatement::Delete(_) => {
            for &r in &rows {
                assert!(twin.delete(r));
            }
        }
        other => panic!("not an UPDATE or DELETE: {other:?}"),
    }
    rows.len()
}

fn twin_of(t: &Table) -> Table {
    Table::from_snapshot(t.snapshot()).unwrap()
}

/// WHERE clauses with the path the exact costs must pick on the 5-block
/// fixture under the default cost model (`seq_row` 1, `block_probe` 2,
/// `index_probe` 40, `index_row` 4; full scan = 5120).
const CASES: &[(&str, NodeKind)] = &[
    // point on the primary key: 40 + 1·4
    ("id = 77", NodeKind::IndexScan),
    // point on a secondary index: 40 + 103·4 = 452; nothing prunes
    ("grp = 7", NodeKind::IndexScan),
    // narrow range on an indexed column: 40 + 41·4 = 204 < 10 + 1024
    ("id BETWEEN 100 AND 140", NodeKind::IndexScan),
    // wide range on the same column: 40 + 801·4 = 3244 > 10 + 1024, so the
    // zone maps beat the index that exists
    ("id BETWEEN 100 AND 900", NodeKind::PrunedScan),
    // range on a clustered un-indexed column: one block survives
    ("seq BETWEEN 2000 AND 2100", NodeKind::PrunedScan),
    ("f < 10.0", NodeKind::PrunedScan),
    // nothing to prune: 10 + 5120 > 5120
    ("seq >= 0", NodeKind::SeqScan),
    ("val < 500", NodeKind::SeqScan),
    // non-sargable shapes
    ("val <> 5", NodeKind::SeqScan),
    ("tag IN ('a', 'c')", NodeKind::SeqScan),
    ("opt IS NULL", NodeKind::SeqScan),
    ("opt IS NOT NULL", NodeKind::SeqScan),
    // conjunctions: the cheapest sargable conjunct drives, the rest filter
    ("id BETWEEN 100 AND 140 AND tag = 'a'", NodeKind::IndexScan),
    ("grp = 7 AND seq < 3000 AND val <> 5", NodeKind::IndexScan),
    (
        "seq < 3000 AND opt IS NULL AND tag IN ('a')",
        NodeKind::PrunedScan,
    ),
    ("grp = 7 AND id BETWEEN 0 AND 60", NodeKind::IndexScan),
    (
        "val <> 5 AND tag IN ('a', 'b') AND opt IS NOT NULL",
        NodeKind::SeqScan,
    ),
    // empty matches: every block pruned (10 beats even the 40 of an index
    // miss), and a contradiction (inverted interval) probing the index
    ("id = -5", NodeKind::PrunedScan),
    ("seq > 1000000", NodeKind::PrunedScan),
    ("val = 5000", NodeKind::PrunedScan),
    ("id > 10 AND id < 5", NodeKind::IndexScan),
    // NULL keys are not indexed and never match an interval
    ("opt = 3", NodeKind::IndexScan),
    // numeric keys compare across Int/Float; a string never equals an Int
    ("id = 5.0", NodeKind::IndexScan),
    ("id = 5.5", NodeKind::IndexScan),
    ("id = 'x'", NodeKind::IndexScan),
];

/// UPDATE statements whose SET column is (one of) the predicate columns:
/// the located set must be complete before the first write.
const SELF_UPDATES: &[(&str, NodeKind)] = &[
    ("UPDATE ev SET grp = 8 WHERE grp = 7", NodeKind::IndexScan),
    ("UPDATE ev SET grp = 7 WHERE grp = 7", NodeKind::IndexScan),
    (
        "UPDATE ev SET id = 100 WHERE id BETWEEN 100 AND 140",
        NodeKind::IndexScan,
    ),
    (
        "UPDATE ev SET seq = 2050 WHERE seq BETWEEN 2000 AND 2100",
        NodeKind::PrunedScan,
    ),
    ("UPDATE ev SET val = 1 WHERE val < 500", NodeKind::SeqScan),
    (
        "UPDATE ev SET opt = NULL WHERE opt = 3",
        NodeKind::IndexScan,
    ),
    ("UPDATE ev SET opt = 3 WHERE opt IS NULL", NodeKind::SeqScan),
    (
        "UPDATE ev SET opt = 3, grp = 3 WHERE opt = 3 AND grp = 3",
        NodeKind::IndexScan,
    ),
];

/// Runs one statement on a fresh fixture and checks it against the oracle.
fn check_statement(sql: &str, expect: NodeKind) {
    check_statement_after(&[], sql, expect);
}

/// [`check_statement`] on a fixture that first ran `prelude`.
fn check_statement_after(prelude: &[&str], sql: &str, expect: NodeKind) {
    let cost = CostModel::default();
    let mut db = ev_database(11);
    for p in prelude {
        db.execute(p).unwrap();
    }
    let stmt = bound(&db, sql);
    let table = &db.tables()[0];
    let mut twin = twin_of(table);

    let located = locate_rows(table, predicates(&stmt), &cost);
    assert_eq!(
        located.rows,
        oracle_rows(table, predicates(&stmt)),
        "{sql}: rows"
    );
    assert_eq!(located.path, expect, "{sql}: path (work {})", located.work);
    assert!(
        located.work <= table.row_count() as f64,
        "{sql}: locating may never cost more than the full scan"
    );
    match located.path {
        NodeKind::SeqScan => {
            assert_eq!(located.work, table.row_count() as f64, "{sql}");
            assert_eq!((located.blocks_total, located.blocks_pruned), (0, 0));
        }
        NodeKind::PrunedScan => {
            assert_eq!(located.blocks_total, BLOCKS, "{sql}");
            let surviving = BLOCKS - located.blocks_pruned;
            // blocks_total·block_probe + surviving_rows·seq_row (full blocks)
            assert_eq!(
                located.work,
                (BLOCKS * 2 + surviving * BLOCK_SIZE) as f64,
                "{sql}"
            );
        }
        _ => assert_eq!((located.blocks_total, located.blocks_pruned), (0, 0)),
    }

    let r = db.execute(sql).unwrap();
    let affected = oracle_apply(&mut twin, &stmt);
    assert_eq!(r.metrics.result_rows, affected, "{sql}: rows affected");
    // exec_work = locate cost + one unit per affected row
    assert_eq!(
        r.metrics.exec_work.to_bits(),
        (located.work + affected as f64).to_bits(),
        "{sql}: exec_work"
    );
    let profile = r.metrics.profile.expect("profiling is on by default");
    assert_eq!(profile.nodes.len(), 1);
    assert_eq!(profile.nodes[0].kind, expect.label(), "{sql}: profile node");
    assert_eq!(profile.nodes[0].table, "ev");
    assert_eq!(profile.nodes[0].actual_rows, affected as f64);
    assert_eq!(profile.nodes[0].blocks_total, located.blocks_total as u64);
    assert_eq!(profile.nodes[0].blocks_pruned, located.blocks_pruned as u64);
    assert_eq!(r.metrics.plan.unwrap().est_cost, r.metrics.exec_work);
    assert_eq!(
        db.tables()[0].snapshot(),
        twin.snapshot(),
        "{sql}: table diverged from the oracle twin"
    );
}

#[test]
fn delete_locates_like_the_full_scan_oracle() {
    for (pred, expect) in CASES {
        check_statement(&format!("DELETE FROM ev WHERE {pred}"), *expect);
    }
    check_statement("DELETE FROM ev", NodeKind::SeqScan);
}

#[test]
fn update_locates_like_the_full_scan_oracle() {
    for (pred, expect) in CASES {
        check_statement(
            &format!("UPDATE ev SET val = 7, tag = 'z' WHERE {pred}"),
            *expect,
        );
    }
    check_statement("UPDATE ev SET val = 7", NodeKind::SeqScan);
}

#[test]
fn update_of_its_own_predicate_column_sees_a_frozen_row_set() {
    for (sql, expect) in SELF_UPDATES {
        check_statement(sql, *expect);
    }
}

/// Index order is not row order once keys move: a deleted posting is
/// `swap_remove`d (the key's last row jumps to the front) and an updated
/// key files its row under a new B-tree position. The statement must still
/// mutate in ascending row order, or the postings it rewrites — and every
/// later probe of them — would differ from the full-scan engine's.
#[test]
fn index_order_does_not_leak_into_mutation_order() {
    let scramble = [
        // grp key 7 held rows [7, 57, .., 5107]; now [5107, 57, ..]
        "DELETE FROM ev WHERE id = 7",
        // row 50 now sorts before row 6 in the primary-key B-tree
        "UPDATE ev SET id = 5 WHERE id = 50",
        // an early row appended after the late ones of key 7
        "UPDATE ev SET grp = 7 WHERE id = 13",
    ];
    for (sql, expect) in [
        ("UPDATE ev SET grp = 9 WHERE grp = 7", NodeKind::IndexScan),
        ("DELETE FROM ev WHERE grp = 7", NodeKind::IndexScan),
        (
            "UPDATE ev SET id = 1 WHERE id BETWEEN 0 AND 60",
            NodeKind::IndexScan,
        ),
        (
            "DELETE FROM ev WHERE id BETWEEN 0 AND 60 AND tag <> 'a'",
            NodeKind::IndexScan,
        ),
    ] {
        check_statement_after(&scramble, sql, expect);
    }
}

/// The path is chosen from live metadata, so it moves with the data: the
/// same predicate that probes the index on a sparse key falls back to the
/// scan when most of the table shares the key, and tombstones count.
#[test]
fn path_choice_follows_the_data() {
    let cost = CostModel::default();
    let mut db = ev_database(3);
    // 1500 postings: 40 + 1500·4 > 5120
    db.execute("UPDATE ev SET grp = 7 WHERE id < 1500").unwrap();
    let stmt = bound(&db, "DELETE FROM ev WHERE grp = 7");
    let located = locate_rows(&db.tables()[0], predicates(&stmt), &cost);
    assert_eq!(located.path, NodeKind::SeqScan);
    assert_eq!(
        located.rows,
        oracle_rows(&db.tables()[0], predicates(&stmt))
    );
    // tombstoning the block the range lives in empties it: zero live rows,
    // and the range costs its block probes alone
    db.execute("DELETE FROM ev WHERE id < 1024").unwrap();
    let stmt = bound(&db, "DELETE FROM ev WHERE seq BETWEEN 100 AND 300");
    let located = locate_rows(&db.tables()[0], predicates(&stmt), &cost);
    assert_eq!(located.path, NodeKind::PrunedScan);
    assert_eq!(located.work, (BLOCKS * 2) as f64);
    assert!(located.rows.is_empty());
}

// ---------------------------------------------------------------------------
// (b) random tables, random statement interleavings, random predicates
// ---------------------------------------------------------------------------

/// SplitMix64: the test's own generator, seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n.max(1)) as i64
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// `r(k, c, u, s, n)`: key (indexed), clustered, scattered, string,
/// nullable-indexed. Values stay in small domains so random predicates hit.
fn random_row(g: &mut Gen, next_key: &mut i64, span: i64) -> String {
    let k = *next_key;
    *next_key += 1;
    let n = if g.below(5) == 0 {
        "NULL".to_string()
    } else {
        g.below(6).to_string()
    };
    format!(
        "({k}, {}, {}, '{}', {n})",
        k / 3,
        g.below(span.max(1) as u64),
        g.pick(&["p", "q", "r"]),
    )
}

fn random_predicate(g: &mut Gen, keys: i64, span: i64) -> String {
    let keys = keys.max(1) as u64;
    let lo = g.below(keys);
    match g.below(12) {
        0 => format!("k = {lo}"),
        1 => format!("k BETWEEN {lo} AND {}", lo + g.below(40)),
        2 => format!("k BETWEEN {lo} AND {}", lo + g.below(keys)),
        3 => format!("c BETWEEN {} AND {}", lo / 3, lo / 3 + g.below(30)),
        4 => format!("c > {}", lo / 3),
        5 => format!("u < {}", g.below(span.max(1) as u64)),
        6 => format!("u <> {}", g.below(span.max(1) as u64)),
        7 => format!("s IN ('p', '{}')", g.pick(&["q", "r", "zz"])),
        8 => format!("n = {}", g.below(7)),
        9 => format!("n IS {}NULL", if g.below(2) == 0 { "" } else { "NOT " }),
        10 => format!("k = {lo}.0"),
        _ => format!("s = '{}'", g.pick(&["p", "q", "r"])),
    }
}

fn random_where(g: &mut Gen, keys: i64, span: i64) -> String {
    let n = 1 + g.below(3);
    (0..n)
        .map(|_| random_predicate(g, keys, span))
        .collect::<Vec<_>>()
        .join(" AND ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every statement of a random INSERT/UPDATE/DELETE interleaving
    /// the engine's table equals the oracle twin's. A row the skip list or
    /// an index probe wrongly left out would be missed here and found by
    /// the oracle, so this is the soundness property of pruning ("the skip
    /// list is a superset of the blocks holding qualifying rows") exercised
    /// through DML, over zone maps widened and indexes reshuffled by the
    /// earlier statements.
    #[test]
    fn random_dml_streams_match_the_oracle(
        seed in any::<u64>(),
        rows in 0usize..2600,
        statements in 4usize..12,
        indexed in any::<bool>(),
    ) {
        let mut g = Gen(seed);
        let span = 1 + g.below(400);
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("c", DataType::Int),
            ("u", DataType::Int),
            ("s", DataType::Str),
            ("n", DataType::Int),
        ]);
        let mut db = Database::new(seed);
        db.create_table("r", schema).unwrap();
        if indexed {
            db.set_primary_key("r", "k").unwrap();
            db.create_index("r", "n").unwrap();
            db.create_index("r", "c").unwrap();
        }
        let mut next_key = 0i64;
        for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
            let values: Vec<String> =
                chunk.iter().map(|_| random_row(&mut g, &mut next_key, span)).collect();
            db.execute(&format!("INSERT INTO r VALUES {}", values.join(", "))).unwrap();
        }
        let mut twin = twin_of(&db.tables()[0]);

        for _ in 0..statements {
            let sql = match g.below(5) {
                0 => {
                    let values: Vec<String> = (0..1 + g.below(40))
                        .map(|_| random_row(&mut g, &mut next_key, span))
                        .collect();
                    format!("INSERT INTO r VALUES {}", values.join(", "))
                }
                1 | 2 => format!("DELETE FROM r WHERE {}", random_where(&mut g, next_key, span)),
                _ => {
                    let set = match g.below(5) {
                        0 => format!("k = {}", g.below(next_key.max(1) as u64)),
                        1 => format!("c = {}", g.below(next_key.max(1) as u64)),
                        2 => format!("u = {}, s = 'q'", g.below(span as u64)),
                        3 => "n = NULL".to_string(),
                        _ => format!("n = {}", g.below(6)),
                    };
                    format!("UPDATE r SET {set} WHERE {}", random_where(&mut g, next_key, span))
                }
            };
            let stmt = bound(&db, &sql);
            let affected = match &stmt {
                BoundStatement::Insert(ins) => {
                    for row in &ins.rows {
                        twin.insert(row.clone()).unwrap();
                    }
                    ins.rows.len()
                }
                _ => {
                    let located =
                        locate_rows(&db.tables()[0], predicates(&stmt), &CostModel::default());
                    prop_assert_eq!(
                        &located.rows,
                        &oracle_rows(&db.tables()[0], predicates(&stmt)),
                        "{}", sql
                    );
                    oracle_apply(&mut twin, &stmt)
                }
            };
            let r = db.execute(&sql).unwrap();
            prop_assert_eq!(r.metrics.result_rows, affected, "{}", sql);
            prop_assert_eq!(db.tables()[0].snapshot(), twin.snapshot(), "{}", sql);
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Replay (Database ↔ Session parity lives in tests/concurrency.rs)
// ---------------------------------------------------------------------------

/// Queries and keyed DML interleaved: every access path, on data the
/// earlier statements have already changed.
const SCRIPT: &[&str] = &[
    "SELECT COUNT(*) FROM ev WHERE grp = 7 AND val < 300",
    "UPDATE ev SET val = 999 WHERE id = 4000",
    "SELECT id FROM ev WHERE val = 999",
    "DELETE FROM ev WHERE id BETWEEN 200 AND 260",
    "SELECT COUNT(*) FROM ev WHERE seq BETWEEN 300 AND 700",
    "UPDATE ev SET grp = 8, tag = 'w' WHERE grp = 7",
    "SELECT COUNT(*) FROM ev WHERE grp = 8 AND tag = 'w'",
    "UPDATE ev SET seq = 0 WHERE seq BETWEEN 2000 AND 2100",
    "DELETE FROM ev WHERE opt = 3 AND val < 100",
    "SELECT COUNT(*) FROM ev WHERE opt = 3",
    "UPDATE ev SET tag = 'v' WHERE val <> 5 AND tag IN ('a', 'b')",
    "INSERT INTO ev VALUES (9000, 7, 18000, 5, 'a', NULL, 4500.0)",
    "UPDATE ev SET opt = 1 WHERE opt IS NULL AND id > 5000",
    "DELETE FROM ev WHERE val <> 5 AND id BETWEEN 4090 AND 4100",
    "SELECT COUNT(*) FROM ev WHERE grp = 7 AND val < 300",
    "DELETE FROM ev WHERE id = 9000",
    "UPDATE ev SET f = 1.5 WHERE f < 10.0",
    "SELECT COUNT(*) FROM ev WHERE f < 10.0",
];

fn jits() -> StatsSetting {
    StatsSetting::Jits(JitsConfig {
        s_max: 0.0, // sample on every query, so DML-moved epochs matter
        ..JitsConfig::default()
    })
}

/// Per statement: result rows, rows affected, `exec_work` and
/// `compile_work` bits, and the profile's path label.
type Trace = Vec<(Vec<Vec<Value>>, usize, u64, u64, String)>;

fn trace_of(r: jits_repro::engine::QueryResult) -> (Vec<Vec<Value>>, usize, u64, u64, String) {
    let path = r
        .metrics
        .profile
        .as_ref()
        .and_then(|p| p.nodes.first())
        .map(|n| n.kind.clone())
        .unwrap_or_default();
    (
        r.rows,
        r.metrics.result_rows,
        r.metrics.exec_work.to_bits(),
        r.metrics.compile_work.to_bits(),
        path,
    )
}

fn run_database() -> (Trace, Database) {
    let mut db = ev_database(42);
    db.set_setting(jits());
    let trace = SCRIPT
        .iter()
        .map(|sql| trace_of(db.execute(sql).unwrap()))
        .collect();
    (trace, db)
}

fn run_session() -> (Trace, SharedDatabase) {
    let db = ev_database(42).into_shared();
    db.set_setting(jits());
    let mut session = db.session();
    let trace = SCRIPT
        .iter()
        .map(|sql| trace_of(session.execute(sql).unwrap()))
        .collect();
    drop(session);
    (trace, db)
}

#[test]
fn database_and_session_agree_statement_for_statement() {
    let (single, db) = run_database();
    let (shared, sdb) = run_session();
    assert_eq!(single, shared);
    let tables = sdb.with_tables(|t| t[0].snapshot());
    assert_eq!(db.tables()[0].snapshot(), tables);
    // the DML statements took all three paths
    for path in ["index_scan", "pruned_scan", "seq_scan"] {
        assert!(
            SCRIPT
                .iter()
                .zip(&single)
                .any(|(sql, t)| !sql.starts_with("SELECT") && t.4 == path),
            "no DML statement of the script took {path}"
        );
    }
}

#[test]
fn replay_is_bit_identical() {
    let (first, db1) = run_database();
    let (again, db2) = run_database();
    assert_eq!(first, again);
    assert_eq!(db1.tables()[0].snapshot(), db2.tables()[0].snapshot());
    assert_eq!(db1.metrics_json(false), db2.metrics_json(false));
    assert_eq!(
        db1.obs().flight.to_json(false),
        db2.obs().flight.to_json(false),
        "flight ring (DML profiles included) must replay byte for byte"
    );
}

/// The choice is statistics-free: the same DML stream charges the same
/// work under every statistics setting.
#[test]
fn dml_work_is_the_same_under_every_statistics_setting() {
    let dml: Vec<&str> = SCRIPT
        .iter()
        .copied()
        .filter(|s| !s.starts_with("SELECT"))
        .collect();
    let run = |setting: Option<StatsSetting>, runstats: bool| -> Vec<(usize, u64)> {
        let mut db = ev_database(9);
        if runstats {
            db.runstats_all().unwrap();
        }
        if let Some(s) = setting {
            db.set_setting(s);
        }
        dml.iter()
            .map(|sql| {
                let m = db.execute(sql).unwrap().metrics;
                (m.result_rows, m.exec_work.to_bits())
            })
            .collect()
    };
    let base = run(Some(StatsSetting::NoStatistics), false);
    assert_eq!(base, run(Some(StatsSetting::CatalogOnly), true));
    assert_eq!(base, run(Some(StatsSetting::ArchiveReadOnly), true));
    assert_eq!(base, run(Some(jits()), false));
}

/// Every SELECT of the script, on data the DML before it changed, returns
/// the oracle's answer through the engine and on every forced plan extreme
/// of its catalog plan.
#[test]
fn script_selects_match_the_oracle_under_forced_plans() {
    let mut db = ev_database(42);
    db.set_setting(jits());
    for sql in SCRIPT {
        let rows = db.execute(sql).unwrap().rows;
        if !sql.starts_with("SELECT") {
            continue;
        }
        plans::answer(db.catalog(), db.tables(), sql)
            .check(&rows)
            .unwrap_or_else(|m| panic!("{sql}: {m}"));
        plans::sweep(db.catalog(), db.tables(), sql);
    }
}

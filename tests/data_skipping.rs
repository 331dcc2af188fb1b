//! Data-skipping integration tests: the pruned scan skips the blocks its
//! zone maps rule out, and must still return what the brute-force oracle,
//! which reads every live row, returns — on the optimizer's plans and on
//! every forced plan extreme (each scan forced sequential, pruned, or
//! through an index), with every node's actual rows equal to the oracle's
//! counts and the corpus's charged work pinned to a hash. The engine must
//! answer what the oracle answers statement for statement under every
//! statistics setting, and replay bit for bit at any collection fan-out.

mod oracle;
mod plans;

use jits_repro::catalog::{runstats, Catalog, RunstatsOptions};
use jits_repro::common::{ColumnId, DataType, Schema, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};
use jits_repro::executor::{execute, ExecOutput, NodeKind};
use jits_repro::optimizer::PhysicalPlan;
use jits_repro::storage::{Table, BLOCK_SIZE};
use plans::{assert_pinned, check_run, digest_rows, plan_of, FNV_START};

/// `log` spans 16 zone-map blocks with `ts` perfectly clustered (row i has
/// ts = i), so a selective `ts` interval prunes most blocks; `level` and
/// `msg` repeat within every block, so their predicates can never prune.
/// `src` is a small indexed dimension table for join shapes.
fn setup() -> (Catalog, Vec<Table>) {
    const ROWS: i64 = 16 * BLOCK_SIZE as i64;
    let mut catalog = Catalog::new();
    let log_schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("ts", DataType::Int),
        ("level", DataType::Int),
        ("msg", DataType::Str),
        ("srcid", DataType::Int),
    ]);
    let src_schema = Schema::from_pairs(&[("id", DataType::Int), ("kind", DataType::Int)]);
    let log_id = catalog.register_table("log", log_schema.clone()).unwrap();
    let src_id = catalog.register_table("src", src_schema.clone()).unwrap();

    let mut log = Table::new("log", log_schema);
    for i in 0..ROWS {
        let level = if i % 97 == 0 {
            Value::Null // zone null counts must agree with IS NULL scans
        } else {
            Value::Int(i % 5)
        };
        let msg = ["info", "warn", "error", "debug"][(i % 4) as usize];
        log.insert(vec![
            Value::Int(i),
            Value::Int(i),
            level,
            Value::str(msg),
            Value::Int(i % 64),
        ])
        .unwrap();
    }
    let mut src = Table::new("src", src_schema);
    for i in 0..64i64 {
        src.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
    }
    log.create_index(ColumnId(0)).unwrap();
    catalog.add_index(log_id, ColumnId(0)).unwrap();
    src.create_index(ColumnId(0)).unwrap();
    catalog.add_index(src_id, ColumnId(0)).unwrap();

    let (ts, cs) = runstats(&log, RunstatsOptions::default(), 1);
    catalog.set_stats(log_id, ts, cs).unwrap();
    let (ts, cs) = runstats(&src, RunstatsOptions::default(), 1);
    catalog.set_stats(src_id, ts, cs).unwrap();
    (catalog, vec![log, src])
}

/// Every access-path shape the data-skipping work touches: selective and
/// degenerate pruned scans (all blocks pruned, none prunable), full scans,
/// hash-routed point index probes, joins over pruned outers, and the
/// aggregate/ORDER BY/GROUP BY epilogues on top of each.
const CORPUS: &[&str] = &[
    "SELECT id FROM log WHERE ts < 100",
    "SELECT COUNT(*) FROM log WHERE ts >= 16000",
    "SELECT id, level FROM log WHERE ts >= 5000 AND ts < 5050 ORDER BY id DESC LIMIT 7",
    "SELECT COUNT(*) FROM log WHERE ts < 0",
    "SELECT COUNT(*) FROM log WHERE ts >= 0",
    "SELECT level, COUNT(*) FROM log WHERE ts < 2048 GROUP BY level",
    "SELECT COUNT(*) FROM log WHERE level = 2",
    "SELECT COUNT(*) FROM log WHERE level = 3 AND ts < 1000",
    "SELECT COUNT(*) FROM log WHERE level IS NULL",
    "SELECT * FROM log WHERE id = 12345",
    "SELECT MIN(ts), MAX(ts), AVG(ts) FROM log WHERE ts >= 8192 AND ts < 9216",
    "SELECT COUNT(*) FROM log l, src s WHERE l.srcid = s.id AND l.ts < 500",
    "SELECT s.kind, COUNT(*) FROM log l, src s WHERE l.srcid = s.id AND l.ts < 300 \
     GROUP BY s.kind",
    "SELECT COUNT(*) FROM log WHERE msg = 'warn' AND ts < 512",
];

fn has_pruned_scan(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::PrunedScan { .. } => true,
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::IndexScan { .. } => false,
        PhysicalPlan::HashJoin { build, probe, .. } => {
            has_pruned_scan(build) || has_pruned_scan(probe)
        }
        PhysicalPlan::IndexNLJoin { outer, .. } => has_pruned_scan(outer),
        PhysicalPlan::NLJoin { outer, inner, .. } => {
            has_pruned_scan(outer) || has_pruned_scan(inner)
        }
    }
}

/// The digest of the corpus's runs ([`plans::sweep`]), taken when a
/// row-at-a-time executor that read every block still ran beside this one
/// and agreed with it bit for bit on every one of these plans.
const CORPUS_WORK: u64 = 0xa81c_55d6_7f77_df66;

/// Skipping pruned blocks changes no answer: every corpus query, on the
/// chosen plan and with every scan forced sequential, pruned or indexed,
/// equals the oracle — rows, each node's actual rows, each scan
/// observation — and the runs' rows, total work bits and per-node work
/// bits hash to the pinned value.
#[test]
fn pruning_on_off_bit_identical_across_corpus() {
    let (catalog, tables) = setup();
    let mut pruned_plans = 0;
    let mut digests = Vec::new();
    for sql in CORPUS {
        let (_, plan, _) = plan_of(&catalog, sql);
        if has_pruned_scan(&plan) {
            pruned_plans += 1;
        }
        digests.push((sql.to_string(), plans::sweep(&catalog, &tables, sql)));
    }
    assert!(
        pruned_plans >= 5,
        "corpus must exercise pruned scans, got {pruned_plans}"
    );
    assert_pinned("data_skipping corpus", &digests, CORPUS_WORK);
}

/// Spot-checks of the plans and runtime skip totals the corpus relies on:
/// a selective clustered interval prunes almost everything, an unclustered
/// equality prunes nothing, an empty interval prunes every block, and a
/// point lookup still prefers the index.
#[test]
fn skip_totals_match_the_zone_layout() {
    let (catalog, tables) = setup();
    let run = |sql: &str| {
        let (block, plan, cost) = plan_of(&catalog, sql);
        let out = execute(&plan, &block, &tables, &cost).unwrap();
        (plan, out)
    };

    let (plan, out) = run("SELECT id FROM log WHERE ts < 100");
    assert!(matches!(plan, PhysicalPlan::PrunedScan { .. }), "{plan:?}");
    assert_eq!(out.rows.len(), 100);
    assert_eq!(out.stats.blocks_total, 16);
    assert_eq!(out.stats.blocks_pruned, 15, "ts < 100 lives in one block");

    let (plan, out) = run("SELECT COUNT(*) FROM log WHERE level = 2");
    assert!(matches!(plan, PhysicalPlan::PrunedScan { .. }), "{plan:?}");
    assert_eq!(out.stats.blocks_pruned, 0, "level repeats in every block");

    let (_, out) = run("SELECT COUNT(*) FROM log WHERE ts < 0");
    assert_eq!(out.rows[0][0], Value::Int(0));
    assert_eq!(out.stats.blocks_pruned, 16, "empty interval prunes all");

    let (plan, out) = run("SELECT * FROM log WHERE id = 12345");
    assert!(matches!(plan, PhysicalPlan::IndexScan { .. }), "{plan:?}");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.stats.blocks_total, 0, "index scans probe no zones");

    let (plan, _) = run("SELECT COUNT(*) FROM log WHERE ts >= 0");
    assert!(matches!(plan, PhysicalPlan::SeqScan { .. }), "{plan:?}");
}

// ---------------------------------------------------------------------------
// Engine against the oracle, and fan-out replay
// ---------------------------------------------------------------------------

fn build_engine_db(seed: u64) -> Database {
    let mut db = Database::new(seed);
    db.create_table(
        "log",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ts", DataType::Int),
            ("level", DataType::Int),
        ]),
    )
    .unwrap();
    db.set_primary_key("log", "id").unwrap();
    let rows = (0..12288i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i),
                if i % 89 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                },
            ]
        })
        .collect();
    db.load_rows("log", rows).unwrap();
    db
}

fn always_collect() -> JitsConfig {
    JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }
}

/// SELECTs across the pruning spectrum interleaved with the UDI statements
/// that must keep the zone maps (and therefore the skip lists) current.
const SCRIPT: &[&str] = &[
    "SELECT COUNT(*) FROM log WHERE ts < 400",
    "UPDATE log SET level = 9 WHERE id = 5000",
    "SELECT level, COUNT(*) FROM log WHERE ts < 2048 GROUP BY level",
    "DELETE FROM log WHERE ts >= 11000",
    "SELECT COUNT(*) FROM log WHERE ts >= 10000",
    "SELECT * FROM log WHERE id = 2345",
    "SELECT COUNT(*) FROM log WHERE level IS NULL",
    "SELECT id FROM log WHERE ts >= 6000 AND ts < 6010 ORDER BY id DESC",
];

/// Per-statement trace: result rows plus the bit patterns of the two
/// deterministic work counters.
type OpTrace = Vec<(Vec<Vec<Value>>, u64, u64)>;

/// The statistics settings the script runs under.
fn settings() -> [StatsSetting; 4] {
    [
        StatsSetting::NoStatistics,
        StatsSetting::CatalogOnly,
        StatsSetting::ArchiveReadOnly,
        StatsSetting::Jits(always_collect()),
    ]
}

/// Runs the script under every statistics setting, checking each SELECT's
/// rows against the oracle. Under `CatalogOnly` it also re-plans each
/// SELECT from the catalog — the engine's own plan — runs that plan, and
/// checks the run against the oracle node for node and against the
/// engine's rows and `exec_work` bits. Returns that database, those runs,
/// and per SELECT the digest of the engine's rows and `exec_work` bits.
fn script_against_the_oracle(seed: u64) -> (Database, Vec<ExecOutput>, Vec<(String, u64)>) {
    let mut catalog_only = None;
    for setting in settings() {
        let replan = matches!(setting, StatsSetting::CatalogOnly);
        let mut db = build_engine_db(seed);
        db.runstats_all().unwrap();
        db.set_setting(setting.clone());
        let mut runs = Vec::new();
        let mut digests = Vec::new();
        for sql in SCRIPT {
            let r = db.execute(sql).unwrap();
            if !sql.starts_with("SELECT") {
                continue;
            }
            let answer = plans::answer(db.catalog(), db.tables(), sql);
            answer
                .check(&r.rows)
                .unwrap_or_else(|m| panic!("{} {sql}: {m}", setting.label()));
            if !replan {
                continue;
            }
            let (block, plan, cost) = plan_of(db.catalog(), sql);
            let run = execute(&plan, &block, db.tables(), &cost).unwrap();
            check_run(&answer, &plan, &run).unwrap_or_else(|m| panic!("{sql}: {m}"));
            assert_eq!(r.rows, run.rows, "{sql}");
            assert_eq!(
                r.metrics.exec_work.to_bits(),
                run.stats.work.to_bits(),
                "{sql}"
            );
            let digest = digest_rows(FNV_START, &r.rows, r.metrics.exec_work);
            digests.push((sql.to_string(), digest));
            runs.push(run);
        }
        if replan {
            catalog_only = Some((db, runs, digests));
        }
    }
    catalog_only.unwrap()
}

/// The script's digest under `CatalogOnly` at seed 61, taken when the
/// engine's answers still equalled a row-at-a-time executor's run of the
/// same plans, reading every block, bit for bit.
const SCRIPT_WORK: u64 = 0x2ea3_c0fd_7f49_5c77;

/// At the engine level across the skipping flip: the engine skips pruned
/// blocks, the oracle reads every row, and the full query+UDI script
/// agrees statement for statement under every statistics setting, with
/// the `CatalogOnly` rows and `exec_work` bits pinned.
#[test]
fn engine_ab_replays_bit_for_bit_across_the_skipping_flip() {
    let (_, runs, digests) = script_against_the_oracle(61);
    assert!(runs
        .iter()
        .any(|r| r.stats.blocks_pruned > 0 && r.stats.blocks_pruned < r.stats.blocks_total));
    assert_pinned("data_skipping engine script", &digests, SCRIPT_WORK);
}

/// Replaying through shared sessions stays
/// bit-deterministic at any collection fan-out, and the skip counters land
/// in the deterministic metrics export.
#[test]
fn pruned_scans_bit_identical_at_1_and_8_collect_threads() {
    let drive = |threads: usize| -> (OpTrace, String) {
        let mut db = build_engine_db(62);
        db.set_setting(StatsSetting::Jits(JitsConfig {
            collect_threads: threads,
            ..always_collect()
        }));
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
    let one = drive(1);
    let eight = drive(8);
    assert_eq!(one.0, eight.0, "per-op traces diverged across fan-out");
    assert_eq!(one.1, eight.1, "deterministic metrics diverged");
    assert!(one.1.contains("jits.skip.blocks_pruned"));
    assert!(one.1.contains("jits.skip.pruned_scans"));
}

/// `jits_access_paths` summarizes the skip counters per access path, and
/// equals the same tally over the runs of the engine's plans, each checked
/// against the oracle.
#[test]
fn access_paths_view_is_knob_independent() {
    let (mut db, references, _) = script_against_the_oracle(63);
    let on = db.execute("SELECT * FROM jits_access_paths").unwrap().rows;
    let uses = |kinds: &[NodeKind]| -> i64 {
        references
            .iter()
            .flat_map(|r| &r.stats.nodes)
            .filter(|n| kinds.contains(&n.kind))
            .count() as i64
    };
    let blocks = |f: fn(&jits_repro::executor::ExecStats) -> u64| -> i64 {
        references.iter().map(|r| f(&r.stats) as i64).sum()
    };
    let tally = vec![
        vec![
            Value::str("seq_scan"),
            Value::Int(uses(&[NodeKind::SeqScan])),
            Value::Int(0),
            Value::Int(0),
        ],
        vec![
            Value::str("pruned_scan"),
            Value::Int(uses(&[NodeKind::PrunedScan])),
            Value::Int(blocks(|s| s.blocks_total)),
            Value::Int(blocks(|s| s.blocks_pruned)),
        ],
        vec![
            Value::str("index_scan"),
            Value::Int(uses(&[NodeKind::IndexScan, NodeKind::IndexNLJoin])),
            Value::Int(0),
            Value::Int(0),
        ],
    ];
    assert_eq!(on.len(), 3, "one row per access path");
    assert_eq!(on[0][0], Value::str("seq_scan"));
    assert_eq!(on[1][0], Value::str("pruned_scan"));
    assert_eq!(on[2][0], Value::str("index_scan"));
    let Value::Int(pruned_uses) = on[1][1] else {
        panic!("uses column must be Int: {:?}", on[1])
    };
    let Value::Int(blocks_pruned) = on[1][3] else {
        panic!("blocks_pruned column must be Int: {:?}", on[1])
    };
    assert!(pruned_uses >= 1, "script must use pruned scans: {on:?}");
    assert!(blocks_pruned >= 1, "script must prune blocks: {on:?}");
    let Value::Int(index_uses) = on[2][1] else {
        panic!("uses column must be Int: {:?}", on[2])
    };
    assert!(index_uses >= 1, "script must use index scans: {on:?}");
    assert_eq!(on, tally, "view must equal the tally over the runs");
}

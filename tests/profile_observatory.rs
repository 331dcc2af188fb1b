//! The estimation-quality observatory, end to end: per-operator profile
//! trees whose actual rows are checked against a brute-force oracle, the
//! q-error metrics they aggregate into, the flight recorder that retains
//! them, and the system views / dumps that surface both (DESIGN.md §12).

mod oracle;
mod plans;

use jits::JitsConfig;
use jits_engine::StatsSetting;
use jits_obs::Volatility;
use jits_workload::{
    generate_workload, prepare, setup_database, DataGenConfig, Setting, WorkloadSpec,
};

/// The paper's §4.1 four-table query: three joins plus five predicates,
/// enough plan to make a profile tree worth reading.
const PAPER_QUERY: &str = "SELECT o.name, driver, damage \
    FROM car as c, accidents as a, demographics as d, owner as o \
    WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id \
    AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' \
    AND country = 'CA' AND salary > 5000";

fn datagen() -> DataGenConfig {
    DataGenConfig {
        scale: 0.002,
        seed: 0x0B5E,
    }
}

/// Masks the volatile part of a rendered `EXPLAIN ANALYZE`: the per-node
/// `wall=<n>ns` readings.
fn mask_render(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("wall=") {
        out.push_str(&rest[..at]);
        out.push_str("wall=_");
        let tail = &rest[at + 5..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The digest of the paper query's runs ([`plans::sweep`]) on this data,
/// taken when a row-at-a-time executor still ran beside this one and
/// agreed with it bit for bit on every one of these plans.
const PAPER_QUERY_WORK: u64 = 0x2bb8_e361_76c1_9bf7;

/// The engine's profile tree carries, node for node, the observations of
/// a run of the same plan, and that run's every node reports the oracle's
/// row count for the quantifiers it covers. The paper query also equals
/// the oracle under every forced plan extreme, with the runs' charged work
/// pinned.
#[test]
fn profile_trees_match_the_oracle() {
    let mut db = setup_database(&datagen()).unwrap();
    prepare(&mut db, &Setting::GeneralStats, &[]).unwrap();
    let profile = db.execute(PAPER_QUERY).unwrap().metrics.profile.unwrap();
    assert_eq!(profile.kind, "select");
    let joins = profile
        .nodes
        .iter()
        .filter(|n| n.kind.contains("join"))
        .count();
    assert!(
        joins >= 3,
        "four tables need three joins: {:#?}",
        profile.nodes
    );
    assert!(
        profile.nodes.iter().all(|n| n.q_error >= 1.0),
        "q-errors are clamped to [1, cap]"
    );
    // general statistics live in the catalog, so re-planning from it
    // reproduces the engine's plan
    let (block, plan, cost) = plans::plan_of(db.catalog(), PAPER_QUERY);
    let run = jits_executor::execute(&plan, &block, db.tables(), &cost).unwrap();
    let answer = oracle::evaluate(&block, db.tables());
    plans::check_run(&answer, &plan, &run).unwrap();
    // the deterministic skeleton must agree bit for bit with the run
    // (profile rows are pre-order, observations post-order: compare sorted)
    let skeleton = |kind: &str, est: f64, actual: f64, work: f64| {
        format!(
            "{kind} {} {} {}",
            est.to_bits(),
            actual.to_bits(),
            work.to_bits()
        )
    };
    let mut from_profile: Vec<String> = profile
        .nodes
        .iter()
        .map(|n| skeleton(&n.kind, n.est_rows, n.actual_rows, n.work))
        .collect();
    let mut from_run: Vec<String> = run
        .stats
        .nodes
        .iter()
        .map(|n| skeleton(n.kind.label(), n.est_rows, n.actual_rows, n.work))
        .collect();
    from_profile.sort();
    from_run.sort();
    assert_eq!(from_profile, from_run);
    assert_eq!(profile.total_work.to_bits(), run.stats.work.to_bits());
    assert_eq!(profile.result_rows, answer.expected_len());

    let digest = plans::sweep(db.catalog(), db.tables(), PAPER_QUERY);
    plans::assert_pinned(
        "paper query",
        &[(PAPER_QUERY.to_string(), digest)],
        PAPER_QUERY_WORK,
    );
}

#[test]
fn explain_analyze_shows_per_operator_rows_bit_identically() {
    let run = || {
        let mut db = setup_database(&datagen()).unwrap();
        prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
        db.explain_analyze(PAPER_QUERY).unwrap()
    };
    let first = run();
    let second = run();
    assert!(first.contains("EXPLAIN ANALYZE (select)"), "{first}");
    for text in [&first, &second] {
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("max q-error"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("q-error="), "{text}");
        assert!(text.contains("_scan"), "scans must appear: {text}");
        assert!(text.contains("join"), "joins must appear: {text}");
    }
    // with walls masked, a replay renders bit-identically
    assert_eq!(mask_render(&first), mask_render(&second));
}

#[test]
fn qerror_metrics_shrink_after_collection_pass() {
    let mut db = setup_database(&datagen()).unwrap();

    // pass 1: no statistics — the optimizer guesses, and the observatory
    // must record how badly
    db.set_setting(StatsSetting::NoStatistics);
    db.execute(PAPER_QUERY).unwrap();
    let before = db
        .obs()
        .registry
        .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
        .get();
    let scans_before: Vec<(String, f64)> = db.obs().qerror_last().into_iter().collect();
    assert!(!scans_before.is_empty(), "scan q-errors must be recorded");
    assert!(
        before > 2_000,
        "without statistics the paper query must mispredict (got {before} milli-q)"
    );

    // pass 2: JITS collects just-in-time for the same query — estimates
    // (and the recorded q-errors) must improve
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    db.execute(PAPER_QUERY).unwrap();
    let after = db
        .obs()
        .registry
        .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
        .get();
    assert!(
        after < before,
        "a collection pass must shrink the recorded q-error: {before} -> {after}"
    );

    let statements = db
        .obs()
        .registry
        .counter("jits.profile.statements", Volatility::Deterministic)
        .get();
    assert_eq!(statements, 2, "both executions were profiled");
    // the second (JITS) plan may be fully index-driven, where inner index
    // probes ride inside the join nodes — only the no-stats pass is
    // guaranteed to expose all four base scans
    let scans = db
        .obs()
        .registry
        .counter("jits.qerror.scans", Volatility::Deterministic)
        .get();
    assert!(scans >= 4, "the no-stats pass scans four tables: {scans}");
}

#[test]
fn profile_and_flight_views_return_rows() {
    let mut db = setup_database(&datagen()).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
    db.execute(PAPER_QUERY).unwrap();

    let profile = db.execute("SELECT * FROM jits_profile").unwrap().rows;
    assert!(
        !profile.is_empty(),
        "jits_profile must show the last profile"
    );
    assert!(profile.iter().all(|r| r.len() == 9), "{profile:#?}");

    let flight = db.execute("SELECT * FROM jits_flight").unwrap().rows;
    assert!(!flight.is_empty(), "jits_flight must retain events");
    assert!(flight.iter().all(|r| r.len() == 3), "{flight:#?}");
    let kinds: Vec<String> = flight.iter().map(|r| r[1].to_string()).collect();
    assert!(
        kinds.iter().any(|k| k.contains("profile")),
        "the executed statement's profile must be in the ring: {kinds:?}"
    );

    // system-view reads must not themselves pollute the ring with profiles
    // (they bypass planning entirely)
    let again = db.execute("SELECT * FROM jits_flight").unwrap().rows;
    assert_eq!(flight.len(), again.len());
}

#[test]
fn flight_and_qerror_accounting_replay_at_1_and_8_collect_threads() {
    let run = |threads: usize| {
        let dg = datagen();
        let ws = WorkloadSpec {
            total_ops: 24,
            dml_every: 6,
            seed: 0xF11,
        };
        let ops = generate_workload(&ws, &dg);
        let cfg = JitsConfig {
            collect_threads: threads,
            ..JitsConfig::default()
        };
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &Setting::Jits(cfg), &ops).unwrap();
        let shared = db.into_shared();
        let mut session = shared.session();
        for op in &ops {
            session.execute(&op.sql).unwrap();
        }
        let obs = shared.obs().clone();
        let flight = obs.flight.to_json(false);
        let scans = obs
            .registry
            .counter("jits.qerror.scans", Volatility::Deterministic)
            .get();
        let mispredicted = obs
            .registry
            .counter("jits.qerror.mispredicted_scans", Volatility::Deterministic)
            .get();
        let last_max = obs
            .registry
            .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
            .get();
        (flight, scans, mispredicted, last_max)
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(
        one.0, eight.0,
        "masked flight dumps must be byte-equal at any collection parallelism"
    );
    assert_eq!((one.1, one.2, one.3), (eight.1, eight.2, eight.3));
    assert!(one.1 > 0, "the workload must profile some scans");
}

#[test]
fn anomaly_auto_dump_writes_flight_json() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("flight");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("observatory-anomaly.json");
    let _ = std::fs::remove_file(&path);

    let mut db = setup_database(&datagen()).unwrap();
    db.set_setting(StatsSetting::NoStatistics);
    db.obs().flight.set_auto_dump(Some(path.clone()));
    // without statistics the paper query's q-error crosses the default
    // threshold, which must trip an anomaly and the auto-dump
    db.execute(PAPER_QUERY).unwrap();

    let dump = std::fs::read_to_string(&path).expect("anomaly must write the dump");
    assert!(dump.contains("\"anomaly\""), "{dump}");
    assert!(dump.contains("q-error"), "{dump}");
    assert!(dump.contains("\"profile\""), "{dump}");
    let _ = std::fs::remove_file(&path);
}

/// Scan q-error percentiles over a fixed-seed paper-mix stream under JITS:
/// the distribution selectivity-estimation work judges estimators by. The
/// run is deterministic, so any estimator change must update these pins
/// visibly.
#[test]
fn scan_qerror_percentiles_are_pinned() {
    let dg = datagen();
    let spec = WorkloadSpec {
        total_ops: 96,
        dml_every: 12,
        seed: 0x9E7,
    };
    let ops = generate_workload(&spec, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).unwrap();
    let mut q = Vec::new();
    for op in &ops {
        let profile = db.execute(&op.sql).unwrap().metrics.profile.unwrap();
        if profile.kind != "select" {
            continue; // DML locates rows exactly: its one node is always 1.0
        }
        q.extend(
            profile
                .nodes
                .iter()
                .filter(|n| n.kind.ends_with("_scan"))
                .map(|n| n.q_error),
        );
    }
    q.sort_by(f64::total_cmp);
    // nearest-rank percentile
    let pct = |p: f64| q[((p * q.len() as f64).ceil() as usize).max(1) - 1];
    let got = [pct(0.50), pct(0.90), pct(0.99), q[q.len() - 1]];
    assert_eq!(q.len(), 134, "scan nodes profiled");
    assert_eq!(
        got,
        [
            1.1033842887946232,
            1.358876661959447,
            2.0782819535850363,
            2.862
        ],
        "scan q-error p50 / p90 / p99 / max"
    );
}

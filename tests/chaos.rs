//! Chaos integration tests: the deterministic fault plane (DESIGN.md §10)
//! exercised end to end. Every injected failure must degrade to a weaker
//! statistics source — never fail the statement — and a faulted run must
//! replay bit-identically regardless of collection parallelism.

use jits::JitsConfig;
use jits::QssArchive;
use jits_common::fault::FAULT_POINTS;
use jits_common::{ColGroup, FaultPlane, Value};
use jits_engine::{Database, QueryResult, Session, SharedDatabase, StatsSetting};
use jits_workload::{
    generate_workload, prepare, setup_database, DataGenConfig, Setting, WorkloadSpec,
};

fn tiny(total_ops: usize) -> (DataGenConfig, WorkloadSpec) {
    (
        DataGenConfig {
            scale: 0.002,
            seed: 0xC0FFEE,
        },
        WorkloadSpec {
            total_ops,
            dml_every: 6,
            seed: 0xBEEF,
        },
    )
}

/// One op's observable outcome, bit-exact, including the degradation
/// surface: rows, work bits, sampling decisions, degraded flag + reasons.
type OpTrace = (Vec<Vec<Value>>, u64, u64, usize, usize, bool, Vec<String>);

/// Everything a chaos run exposes: per-op traces, the canonical archive
/// digest, and the `jits_degradation` view rendered row by row.
struct ChaosRun {
    traces: Vec<OpTrace>,
    archive: Vec<String>,
    degradations: Vec<String>,
}

/// Runs the tiny workload on one session of a shared database with the
/// given fault plane / budget / parallelism.
fn drive(total_ops: usize, cfg: JitsConfig, plane: FaultPlane) -> ChaosRun {
    let (dg, ws) = tiny(total_ops);
    let ops = generate_workload(&ws, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, &Setting::Jits(cfg), &ops).unwrap();
    db.set_fault_plane(plane);
    let shared = db.into_shared();
    let mut session = shared.session();
    let mut traces = Vec::with_capacity(ops.len());
    for op in &ops {
        let r = session.execute(&op.sql).unwrap_or_else(|e| {
            // leave the black box behind for CI to upload as an artifact
            let dump = dump_flight_on_failure(shared.obs());
            panic!(
                "op `{}` failed under faults: {e} (flight recorder: {dump})",
                op.sql
            )
        });
        traces.push((
            r.rows,
            r.metrics.exec_work.to_bits(),
            r.metrics.compile_work.to_bits(),
            r.metrics.sampled_tables,
            r.metrics.materialized_groups,
            r.metrics.degraded,
            r.metrics.degraded_reasons,
        ));
    }
    let mut archive = shared.with_archive(|a| {
        a.iter()
            .map(|(g, h)| format!("{g:?}={h:?}"))
            .collect::<Vec<String>>()
    });
    archive.sort();
    let degradations = session
        .execute("SELECT * FROM jits_degradation")
        .unwrap()
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(Value::to_string)
                .collect::<Vec<String>>()
                .join("|")
        })
        .collect();
    ChaosRun {
        traces,
        archive,
        degradations,
    }
}

/// Writes a full-fidelity flight-recorder dump to `target/flight/` so a CI
/// failure ships the last [`jits_obs::FLIGHT_CAPACITY`] profiles and events
/// alongside the panic message. Returns a description of where it went.
fn dump_flight_on_failure(obs: &jits_obs::Observability) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("flight");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return format!("not dumped: {e}");
    }
    let path = dir.join("chaos-failure.json");
    match std::fs::write(&path, obs.flight.to_json(true)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not dumped: {e}"),
    }
}

/// The fault points the `jits_degradation` view attributes rows to for each
/// armed point. An `archive.write` fault corrupts the checksum silently;
/// the *read-side* validation detects it, so its rows carry `archive.read`.
fn expected_view_point(armed: &str) -> &str {
    match armed {
        "archive.write" => "archive.read",
        p => p,
    }
}

#[test]
fn fault_matrix_every_query_still_returns_a_plan() {
    for point in FAULT_POINTS {
        for mode in ["once:2", "every:2:inf", "after:3:inf"] {
            let spec = format!("{point}={mode}");
            let plane = FaultPlane::from_spec(0xFA17, &spec).unwrap();
            let run = drive(18, JitsConfig::default(), plane);
            assert_eq!(run.traces.len(), 18, "spec `{spec}`");
            // drive() already panics on any failed statement; the matrix
            // point is that every combination completes the whole workload.
        }
    }
}

#[test]
fn persistent_faults_degrade_and_are_attributed_in_the_view() {
    for point in FAULT_POINTS {
        if point.starts_with("wal.") {
            // WAL points only fire with a log attached; the recovery
            // crash matrix (tests/recovery.rs) covers them.
            continue;
        }
        let spec = format!("{point}=after:0:inf");
        let plane = FaultPlane::from_spec(7, &spec).unwrap();
        // s_max = 0: collect on every query so each point is exercised
        let cfg = JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        };
        let run = drive(18, cfg, plane);
        let expect = expected_view_point(point);
        assert!(
            run.degradations
                .iter()
                .any(|row| row.contains(&format!("'{expect}'"))),
            "point `{point}` produced no `{expect}` rows: {:#?}",
            run.degradations
        );
        // degradations surfaced on the per-statement metrics too
        assert!(
            run.traces
                .iter()
                .any(|t| t.5 && t.6.iter().any(|r| r.starts_with(expect))),
            "point `{point}` never set QueryMetrics::degraded"
        );
    }
}

#[test]
fn faulted_workload_replays_bit_identically() {
    let spec = "sample.draw=every:4:inf,collect.worker=every:5,archive.write=every:3:inf,\
                history.read=every:6,samplecache.commit=every:7:inf,archive.read=every:9:inf";
    let run = || {
        let cfg = JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        };
        drive(36, cfg, FaultPlane::from_spec(0xFA17, spec).unwrap())
    };
    let (first, again) = (run(), run());
    assert_eq!(first.traces.len(), again.traces.len());
    for (i, (a, b)) in first.traces.iter().zip(&again.traces).enumerate() {
        assert_eq!(a, b, "op {i} diverged on replay");
    }
    assert_eq!(first.archive, again.archive, "archive diverged");
    assert_eq!(
        first.degradations, again.degradations,
        "degradation log diverged"
    );
    assert!(
        !first.degradations.is_empty(),
        "the chaos spec must actually fire"
    );
}

#[test]
fn armed_plane_that_never_fires_changes_nothing() {
    let baseline = drive(24, JitsConfig::default(), FaultPlane::disabled());
    // `once:u64::MAX` can never match a real decision key
    let inert = FaultPlane::from_spec(1, "sample.draw=once:18446744073709551615").unwrap();
    let armed = drive(24, JitsConfig::default(), inert);
    assert_eq!(baseline.traces, armed.traces);
    assert_eq!(baseline.archive, armed.archive);
    assert!(armed.degradations.is_empty());
}

#[test]
fn budget_disabled_and_unreachable_are_bit_identical() {
    let unlimited = JitsConfig {
        collect_budget: 0,
        s_max: 0.0,
        ..JitsConfig::default()
    };
    let huge = JitsConfig {
        collect_budget: u64::MAX,
        ..unlimited.clone()
    };
    let a = drive(24, unlimited, FaultPlane::disabled());
    let b = drive(24, huge, FaultPlane::disabled());
    assert_eq!(a.traces, b.traces, "an unreachable budget must be free");
    assert_eq!(a.archive, b.archive);
    assert!(a.degradations.is_empty() && b.degradations.is_empty());
}

#[test]
fn tight_budget_degrades_but_completes_the_workload() {
    let cfg = JitsConfig {
        collect_budget: 64,
        s_max: 0.0,
        ..JitsConfig::default()
    };
    let run = drive(24, cfg, FaultPlane::disabled());
    assert_eq!(run.traces.len(), 24);
    assert!(
        run.degradations
            .iter()
            .any(|row| row.contains("'collect.budget'")),
        "a 64-unit budget must trip on the car table: {:#?}",
        run.degradations
    );
}

/// The statistical content of one archive entry, stamp-free: boundaries,
/// bucket counts, and total are compared bit-exactly (via `Debug`, which
/// round-trips f64), while logical stamps — which necessarily differ when
/// the rebuild happens at a later statement clock — are excluded. Literal
/// byte-identity of a rebuild at the *same* stamp is covered by the
/// archive's own unit tests.
fn archive_stats(archive: &QssArchive) -> Vec<String> {
    let mut stats: Vec<String> = archive
        .iter()
        .map(|(g, h)| {
            format!(
                "{g:?}: boundaries={:?} counts={:?} total={:?}",
                h.boundaries(),
                h.counts(),
                h.total()
            )
        })
        .collect();
    stats.sort();
    stats
}

/// The quarantine round trip needs statements, the fault plane, the archive
/// and the flight ring: the same on both stores.
trait Front {
    fn exec(&mut self, sql: &str) -> QueryResult;
    fn plane(&mut self, plane: FaultPlane);
    fn archive<R>(&self, f: impl FnOnce(&QssArchive) -> R) -> R;
    fn flight(&self) -> String;
}

impl Front for Database {
    fn exec(&mut self, sql: &str) -> QueryResult {
        self.execute(sql).unwrap()
    }
    fn plane(&mut self, plane: FaultPlane) {
        self.set_fault_plane(plane)
    }
    fn archive<R>(&self, f: impl FnOnce(&QssArchive) -> R) -> R {
        f(Database::archive(self))
    }
    fn flight(&self) -> String {
        self.obs().flight.to_json(true)
    }
}

impl Front for (SharedDatabase, Session) {
    fn exec(&mut self, sql: &str) -> QueryResult {
        self.1.execute(sql).unwrap()
    }
    fn plane(&mut self, plane: FaultPlane) {
        self.0.set_fault_plane(plane)
    }
    fn archive<R>(&self, f: impl FnOnce(&QssArchive) -> R) -> R {
        self.0.with_archive(f)
    }
    fn flight(&self) -> String {
        self.0.obs().flight.to_json(true)
    }
}

fn quarantine_round_trip(db: &mut impl Front) {
    let q = "SELECT COUNT(*) FROM car WHERE year > 1990";

    // 1. clean statement materializes the predicate group
    db.exec(q);
    let before = db.archive(archive_stats);
    assert!(!before.is_empty(), "the query must materialize a group");
    let groups: Vec<ColGroup> = db.archive(|a| a.iter().map(|(g, _)| g.clone()).collect());

    // 2. a persistent read fault quarantines every candidate group
    db.plane(FaultPlane::from_spec(9, "archive.read=after:0:inf").unwrap());
    let r = db.exec(q);
    assert!(r.metrics.degraded, "the read fault must degrade the query");
    assert!(
        r.metrics
            .degraded_reasons
            .iter()
            .any(|reason| reason.starts_with("archive.read")),
        "{:?}",
        r.metrics.degraded_reasons
    );
    for g in &groups {
        assert!(
            db.archive(|a| a.histogram(g).is_none()),
            "quarantine must drop the bucket set"
        );
        assert!(
            db.archive(|a| a.pending_rebuild(g)),
            "quarantine must schedule a rebuild"
        );
    }
    // the flight recorder names the quarantined group and its checksum
    // pair, so a --dump-flight after the fact explains the rebuild
    let flight = db.flight();
    assert!(
        flight.contains("quarantine"),
        "quarantine must be flight-noted: {flight}"
    );
    assert!(
        flight.contains("stored checksum") && flight.contains("rebuild scheduled"),
        "the note must carry the checksum pair and the scheduled rebuild: {flight}"
    );

    // 3. with the plane gone, the next collection rebuilds the group from
    //    the (unchanged) table and the stats come back bit-identical — even
    //    when nothing else materializes, the pending rebuild opens the
    //    refine window
    db.plane(FaultPlane::disabled());
    db.exec(q);
    for g in &groups {
        assert!(
            db.archive(|a| a.histogram(g).is_some()),
            "rebuild must land"
        );
        assert!(db.archive(|a| a.validate(g)), "rebuilt entry must checksum");
        assert!(
            !db.archive(|a| a.pending_rebuild(g)),
            "rebuild flag must clear"
        );
    }
    assert_eq!(
        db.archive(archive_stats),
        before,
        "rebuilt statistics must match the pre-quarantine statistics"
    );
}

#[test]
fn quarantine_and_rebuild_round_trip_restores_archive_stats() {
    let (dg, _) = tiny(1);
    let setup = || {
        let mut db = setup_database(&dg).unwrap();
        db.set_setting(StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }));
        db
    };
    quarantine_round_trip(&mut setup());
    let shared = setup().into_shared();
    let session = shared.session();
    quarantine_round_trip(&mut (shared, session));
}

/// Plain EXPLAIN compiles — and so can degrade — without executing; its
/// statement record still carries the degradation to `jits_degradation`.
#[test]
fn explain_degradations_reach_the_degradation_view() {
    let (dg, _) = tiny(0);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
    db.set_fault_plane(FaultPlane::from_spec(1, "history.read=after:0:inf").unwrap());
    db.explain("SELECT COUNT(*) FROM car WHERE year > 1990")
        .unwrap();
    let rows = db.execute("SELECT * FROM jits_degradation").unwrap().rows;
    assert!(
        rows.iter().any(|r| r[2] == Value::str("history.read")),
        "{rows:?}"
    );
}

//! Full-stack determinism: everything is seeded, so identical configurations
//! must produce bit-identical runs — the property every experiment harness
//! in `crates/bench` relies on.

use jits_repro::core::JitsConfig;
use jits_repro::workload::{
    generate_workload, prepare, run_workload, run_workload_session, setup_database, DataGenConfig,
    Setting, WorkloadSpec,
};

fn run_once(setting: &Setting) -> Vec<(f64, f64, usize)> {
    let dg = DataGenConfig {
        scale: 0.002,
        seed: 123,
    };
    let spec = WorkloadSpec {
        total_ops: 48,
        dml_every: 8,
        seed: 321,
    };
    let ops = generate_workload(&spec, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, setting, &ops).unwrap();
    run_workload(&mut db, &ops)
        .unwrap()
        .into_iter()
        .map(|r| {
            (
                r.metrics.exec_work,
                r.metrics.compile_work,
                r.metrics.result_rows,
            )
        })
        .collect()
}

#[test]
fn general_stats_runs_are_identical() {
    assert_eq!(
        run_once(&Setting::GeneralStats),
        run_once(&Setting::GeneralStats)
    );
}

#[test]
fn jits_runs_are_identical() {
    let setting = Setting::Jits(JitsConfig::default());
    assert_eq!(run_once(&setting), run_once(&setting));
}

/// Runs the JITS workload through one session at the given collection
/// fan-out (every statement filling its record, wall clock included), and
/// returns the deterministic (non-volatile) metrics-registry export.
fn metrics_json_at(collect_threads: usize) -> String {
    let dg = DataGenConfig {
        scale: 0.002,
        seed: 123,
    };
    let spec = WorkloadSpec {
        total_ops: 48,
        dml_every: 8,
        seed: 321,
    };
    let ops = generate_workload(&spec, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(
        &mut db,
        &Setting::Jits(JitsConfig {
            collect_threads,
            ..JitsConfig::default()
        }),
        &ops,
    )
    .unwrap();
    let shared = db.into_shared();
    let mut session = shared.session();
    run_workload_session(&mut session, &ops).unwrap();
    shared.metrics_json(false)
}

#[test]
fn deterministic_metrics_are_byte_identical_across_collect_threads() {
    // same workload + seed => the non-volatile registry export is
    // byte-for-byte identical no matter how many collection workers run,
    // with every statement recorded and timed throughout (observability
    // must not perturb the computation it observes)
    let one = metrics_json_at(1);
    let eight = metrics_json_at(8);
    assert!(
        one.contains("jits.collect.rows_sampled"),
        "export must carry collection counters:\n{one}"
    );
    assert_eq!(one, eight);
    // and the export stays deterministic across repeated identical runs
    assert_eq!(one, metrics_json_at(1));
}

#[test]
fn different_smax_changes_compile_work_only_sensibly() {
    let aggressive = run_once(&Setting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    let lazy = run_once(&Setting::Jits(JitsConfig {
        s_max: 1.0,
        ..JitsConfig::default()
    }));
    let compile_aggressive: f64 = aggressive.iter().map(|r| r.1).sum();
    let compile_lazy: f64 = lazy.iter().map(|r| r.1).sum();
    assert!(compile_aggressive > 0.0);
    assert_eq!(compile_lazy, 0.0, "s_max = 1 never collects");
    // results identical regardless
    let rows_a: Vec<usize> = aggressive.iter().map(|r| r.2).collect();
    let rows_l: Vec<usize> = lazy.iter().map(|r| r.2).collect();
    assert_eq!(rows_a, rows_l);
}

//! Scenario tests tied to specific passages of the paper.

use jits_repro::core::{query_analysis, JitsConfig};
use jits_repro::engine::StatsSetting;
use jits_repro::query::{bind_statement, parse, BoundStatement};
use jits_repro::workload::{
    generate_workload, prepare, run_workload, setup_database, DataGenConfig, Setting, WorkloadSpec,
};

fn datagen() -> DataGenConfig {
    DataGenConfig {
        scale: 0.002,
        ..DataGenConfig::default()
    }
}

/// §3.2's example: the three-predicate car query yields exactly the
/// predicate groups the paper enumerates (3 singles, 3 pairs, 1 triple).
#[test]
fn section_3_2_group_enumeration() {
    let mut db = setup_database(&datagen()).unwrap();
    let _ = &mut db;
    let stmt =
        parse("SELECT price FROM car WHERE make = 'Toyota' AND model = 'Corolla' AND year > 2000")
            .unwrap();
    let BoundStatement::Select(block) = bind_statement(&stmt, db.catalog()).unwrap() else {
        panic!("expected a SELECT");
    };
    let groups = query_analysis(&block);
    assert_eq!(groups.len(), 7);
    let sizes: Vec<usize> = groups.iter().map(|g| g.pred_indices.len()).collect();
    assert_eq!(sizes, vec![1, 1, 1, 2, 2, 2, 3]);
}

/// §4.1's experiment query parses, binds and runs against the evaluation
/// schema under every setting.
#[test]
fn section_4_1_query_runs_everywhere() {
    let paper_query = "SELECT o.name, driver, damage \
        FROM car as c, accidents as a, demographics as d, owner as o \
        WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id \
        AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' \
        AND country = 'CA' AND salary > 5000";
    let mut reference: Option<usize> = None;
    for setting in [
        Setting::NoStats,
        Setting::GeneralStats,
        Setting::Jits(JitsConfig::default()),
    ] {
        let mut db = setup_database(&datagen()).unwrap();
        prepare(&mut db, &setting, &[]).unwrap();
        let rows = db.execute(paper_query).unwrap().rows.len();
        match reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(rows, r, "setting {}", setting.label()),
        }
    }
    assert!(reference.unwrap() > 0, "the paper query should match rows");
}

/// §4.1 Table 3's headline: with no initial statistics, enabling JITS
/// reduces execution work for the paper's query (the overhead buys a
/// better plan).
#[test]
fn table_3_shape_jits_beats_no_stats() {
    let paper_query = "SELECT o.name, driver, damage \
        FROM car as c, accidents as a, demographics as d, owner as o \
        WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id \
        AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' \
        AND country = 'CA' AND salary > 5000";

    // case 1-a: no statistics, JITS disabled
    let mut db = setup_database(&datagen()).unwrap();
    db.set_setting(StatsSetting::NoStatistics);
    let without = db.execute(paper_query).unwrap().metrics;

    // case 1-b: JITS enabled (sensitivity off, like the paper's single-query
    // experiment: s_max = 0 collects unconditionally)
    let mut db = setup_database(&datagen()).unwrap();
    db.set_setting(StatsSetting::Jits(JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }));
    let with = db.execute(paper_query).unwrap().metrics;

    assert!(with.compile_work > 0.0, "JITS pays compile overhead");
    assert!(
        with.exec_work < without.exec_work / 2.0,
        "JITS execution {} should be far below no-stats {}",
        with.exec_work,
        without.exec_work
    );
    assert!(
        with.exec_work + with.compile_work < without.exec_work,
        "total with JITS must win overall (Table 3, case 1)"
    );
}

/// §4.2 Figure 3's ordering on a miniature workload: no-stats is worst;
/// JITS has the lowest execution work of all settings.
#[test]
fn figure_3_shape_miniature() {
    let dg = datagen();
    let spec = WorkloadSpec {
        total_ops: 60,
        dml_every: 10,
        seed: 5,
    };
    let ops = generate_workload(&spec, &dg);
    let mut exec_by_setting = Vec::new();
    for setting in [
        Setting::NoStats,
        Setting::GeneralStats,
        Setting::Jits(JitsConfig::default()),
    ] {
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &setting, &ops).unwrap();
        let records = run_workload(&mut db, &ops).unwrap();
        let exec: f64 = records
            .iter()
            .filter(|r| r.is_query)
            .map(|r| r.metrics.exec_work)
            .sum();
        exec_by_setting.push((setting.label(), exec));
    }
    let no_stats = exec_by_setting[0].1;
    let general = exec_by_setting[1].1;
    let jits = exec_by_setting[2].1;
    // the paper's Figure 3 ordering: general statistics are "a slight
    // benefit" over nothing; JITS execution work is the lowest
    assert!(
        no_stats > general,
        "no-stats ({no_stats}) must be worse than general ({general})"
    );
    assert!(
        jits < no_stats,
        "JITS ({jits}) must beat no-stats ({no_stats})"
    );
}

/// §4.2: the workload-statistics setting pre-populates the archive with
/// every query's column groups and never samples at run time.
#[test]
fn workload_stats_setting_is_read_only() {
    let dg = datagen();
    let spec = WorkloadSpec {
        total_ops: 30,
        dml_every: 6,
        seed: 9,
    };
    let ops = generate_workload(&spec, &dg);
    let mut db = setup_database(&dg).unwrap();
    prepare(&mut db, &Setting::WorkloadStats, &ops).unwrap();
    let archived_before = db.archive().len();
    assert!(archived_before > 0, "precollection fills the archive");
    let records = run_workload(&mut db, &ops).unwrap();
    assert!(records
        .iter()
        .all(|r| r.metrics.sampled_tables == 0 && r.metrics.compile_work == 0.0));
}

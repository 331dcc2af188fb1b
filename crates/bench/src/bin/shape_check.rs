//! Quick shape validation: per-setting totals on a small workload.
use jits::JitsConfig;
use jits_workload::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.005);
    let dg = DataGenConfig {
        scale,
        seed: 0x2007_1CDE,
    };
    let total_ops: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let ws = WorkloadSpec {
        total_ops,
        dml_every: 12,
        seed: 77,
    };
    let ops = generate_workload(&ws, &dg);
    for setting in [
        Setting::NoStats,
        Setting::GeneralStats,
        Setting::WorkloadStats,
        Setting::Jits(JitsConfig::default()),
        Setting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }),
        Setting::Jits(JitsConfig {
            s_max: 0.7,
            ..JitsConfig::default()
        }),
    ] {
        let t0 = jits_obs::clock::now_nanos();
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &setting, &ops).unwrap();
        let recs = run_workload(&mut db, &ops).unwrap();
        let q: Vec<&RunRecord> = recs.iter().filter(|r| r.is_query).collect();
        let exec: f64 = q.iter().map(|r| r.metrics.exec_work).sum();
        let comp: f64 = q.iter().map(|r| r.metrics.compile_work).sum();
        let wall: f64 = q.iter().map(|r| r.metrics.total_wall().as_secs_f64()).sum();
        let sampled: usize = q.iter().map(|r| r.metrics.sampled_tables).sum();
        println!(
            "{:<22} exec_work={:>12.0} compile_work={:>10.0} total={:>12.0} wall={:>6.2}s sampled={} total_runtime={:.1}s",
            setting.label(), exec, comp, exec + comp, wall, sampled, jits_obs::clock::now_nanos().saturating_sub(t0) as f64 / 1e9
        );
    }
}

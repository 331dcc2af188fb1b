//! Experiment driver: builds the database, prepares a statistics setting,
//! runs the workload, and summarizes.

use crate::datagen::{populate, DataGenConfig};
use crate::queries::WorkloadOp;
use crate::schema::create_schema;
use jits::JitsConfig;
use jits_common::Result;
use jits_engine::{Database, QueryMetrics, Session, SharedDatabase, StatsSetting};

/// The four experiment settings of the paper's §4.2.
#[derive(Debug, Clone)]
pub enum Setting {
    /// JITS disabled, no initial statistics.
    NoStats,
    /// JITS disabled, general statistics on all tables and columns.
    GeneralStats,
    /// JITS disabled, general statistics plus pre-collected column-group
    /// statistics for every query in the workload.
    WorkloadStats,
    /// JITS enabled (optionally with a tuned config), no initial statistics.
    Jits(JitsConfig),
}

impl Setting {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Setting::NoStats => "no-stats".into(),
            Setting::GeneralStats => "general-stats".into(),
            Setting::WorkloadStats => "workload-stats".into(),
            Setting::Jits(cfg) => format!("jits(s_max={})", cfg.s_max),
        }
    }
}

/// Creates and populates the evaluation database.
pub fn setup_database(cfg: &DataGenConfig) -> Result<Database> {
    let mut db = Database::new(cfg.seed ^ 0xD1B);
    create_schema(&mut db)?;
    populate(&mut db, cfg)?;
    Ok(db)
}

/// Applies a setting to a freshly populated database: clears or collects
/// statistics as the setting demands. Preparation time is not charged to
/// any query (the paper treats it as prior knowledge).
pub fn prepare(db: &mut Database, setting: &Setting, workload: &[WorkloadOp]) -> Result<()> {
    db.clear_statistics();
    match setting {
        Setting::NoStats => db.set_setting(StatsSetting::NoStatistics),
        Setting::GeneralStats => {
            db.runstats_all()?;
            db.set_setting(StatsSetting::CatalogOnly);
        }
        Setting::WorkloadStats => {
            db.runstats_all()?;
            // "all column groups that occur in all the queries" (§4.2):
            // analyze every workload query and collect its groups up front
            for op in workload.iter().filter(|o| o.is_query) {
                db.precollect_query_stats(&op.sql)?;
            }
            db.set_setting(StatsSetting::ArchiveReadOnly);
        }
        Setting::Jits(cfg) => db.set_setting(StatsSetting::Jits(cfg.clone())),
    }
    Ok(())
}

/// One executed operation's outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position in the workload.
    pub index: usize,
    /// Whether the op was a read query.
    pub is_query: bool,
    /// Measured metrics.
    pub metrics: QueryMetrics,
}

/// Executes the workload, returning one record per operation.
pub fn run_workload(db: &mut Database, ops: &[WorkloadOp]) -> Result<Vec<RunRecord>> {
    let mut records = Vec::with_capacity(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let result = db.execute(&op.sql)?;
        records.push(RunRecord {
            index,
            is_query: op.is_query,
            metrics: result.metrics,
        });
    }
    Ok(records)
}

/// Executes the workload through one [`Session`] of a [`SharedDatabase`] —
/// the shared-state equivalent of [`run_workload`]. With a session opened
/// first on a fresh conversion ([`Database::into_shared`]), the statement
/// stream replays the `Database` run bit-for-bit.
pub fn run_workload_session(session: &mut Session, ops: &[WorkloadOp]) -> Result<Vec<RunRecord>> {
    let mut records = Vec::with_capacity(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let result = session.execute(&op.sql)?;
        records.push(RunRecord {
            index,
            is_query: op.is_query,
            metrics: result.metrics,
        });
    }
    Ok(records)
}

/// Executes the workload across `threads` concurrent sessions of a
/// [`SharedDatabase`], partitioning the operations round-robin. Returns one
/// record per operation, ordered by workload index.
///
/// Unlike a single session, concurrent sessions interleave statements
/// nondeterministically, so learned statistics (and therefore
/// plans) can differ run to run — query answers on tables the workload's
/// DML does not touch stay exact.
pub fn run_workload_concurrent(
    db: &SharedDatabase,
    ops: &[WorkloadOp],
    threads: usize,
) -> Result<Vec<RunRecord>> {
    let threads = threads.max(1).min(ops.len().max(1));
    let sessions: Vec<Session> = (0..threads).map(|_| db.session()).collect();
    let mut outcomes: Vec<Result<Vec<RunRecord>>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(t, mut session)| {
                scope.spawn(move || -> Result<Vec<RunRecord>> {
                    let mut records = Vec::new();
                    for (index, op) in ops.iter().enumerate().skip(t).step_by(threads) {
                        let result = session.execute(&op.sql)?;
                        records.push(RunRecord {
                            index,
                            is_query: op.is_query,
                            metrics: result.metrics,
                        });
                    }
                    Ok(records)
                })
            })
            .collect();
        for h in handles {
            outcomes.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    let mut all = Vec::with_capacity(ops.len());
    for outcome in outcomes {
        all.extend(outcome?);
    }
    all.sort_by_key(|r| r.index);
    Ok(all)
}

/// Five-number summary for the paper's Figure 3 box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// Smallest observation.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

/// Computes the five-number summary (linear-interpolated quantiles).
pub fn boxplot(values: &[f64]) -> Option<Boxplot> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Some(Boxplot {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: v[v.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{generate_workload, WorkloadSpec};

    fn tiny() -> (DataGenConfig, WorkloadSpec) {
        (
            DataGenConfig {
                scale: 0.001,
                seed: 3,
            },
            WorkloadSpec {
                total_ops: 24,
                dml_every: 6,
                seed: 9,
            },
        )
    }

    #[test]
    fn boxplot_five_numbers() {
        let b = boxplot(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
        assert!(boxplot(&[]).is_none());
        let single = boxplot(&[7.0]).unwrap();
        assert_eq!(single.median, 7.0);
        assert_eq!(single.min, single.max);
    }

    #[test]
    fn workload_runs_under_all_settings() {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        for setting in [
            Setting::NoStats,
            Setting::GeneralStats,
            Setting::WorkloadStats,
            Setting::Jits(JitsConfig::default()),
        ] {
            let mut db = setup_database(&dg).unwrap();
            prepare(&mut db, &setting, &ops).unwrap();
            let records = run_workload(&mut db, &ops).unwrap();
            assert_eq!(records.len(), ops.len(), "{}", setting.label());
            assert!(
                records
                    .iter()
                    .filter(|r| r.is_query)
                    .all(|r| r.metrics.exec_work > 0.0),
                "{}",
                setting.label()
            );
        }
    }

    #[test]
    fn workload_stats_prepopulates_archive() {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &Setting::WorkloadStats, &ops).unwrap();
        assert!(!db.archive().is_empty());
    }

    #[test]
    fn jits_setting_actually_samples() {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).unwrap();
        let records = run_workload(&mut db, &ops).unwrap();
        let sampled: usize = records.iter().map(|r| r.metrics.sampled_tables).sum();
        assert!(sampled > 0, "JITS must sample at least once");
    }

    #[test]
    fn masked_flight_dump_replays_bit_identically() {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        let run = |()| {
            let mut db = setup_database(&dg).unwrap();
            prepare(&mut db, &Setting::Jits(JitsConfig::default()), &ops).unwrap();
            run_workload(&mut db, &ops).unwrap();
            db.obs().flight.to_json(false)
        };
        let a = run(());
        assert!(!a.is_empty());
        assert_eq!(a, run(()), "masked flight dumps must be byte-equal");
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let (dg, ws) = tiny();
        let ops = generate_workload(&ws, &dg);
        let run = |()| {
            let mut db = setup_database(&dg).unwrap();
            prepare(&mut db, &Setting::GeneralStats, &ops).unwrap();
            run_workload(&mut db, &ops)
                .unwrap()
                .iter()
                .map(|r| r.metrics.exec_work)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(()), run(()));
    }
}

#[cfg(test)]
mod boxplot_edge_tests {
    use super::*;

    #[test]
    fn boxplot_filters_non_finite() {
        let b = boxplot(&[1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 3.0);
        assert!(boxplot(&[f64::NAN]).is_none());
    }

    #[test]
    fn boxplot_interpolates_quartiles() {
        let b = boxplot(&[0.0, 10.0]).unwrap();
        assert_eq!(b.q1, 2.5);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q3, 7.5);
    }
}

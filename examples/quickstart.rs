//! Quickstart: build a database, watch JITS fix a correlated estimate.
//!
//! ```sh
//! cargo run --release --example quickstart [-- --trace --metrics]
//! ```
//!
//! Creates a car table in which `model` functionally determines `make`
//! (every Camry is a Toyota — the paper's running example), then runs the
//! same query under general statistics and under JITS. General statistics
//! multiply the two selectivities (independence) and under-estimate ~3x;
//! JITS samples the table at compile time and nails the joint selectivity.
//!
//! With `--trace`, the JITS run's statement record (stage walls parse/bind
//! → analyze → sensitivity → collect → refine → optimize → execute →
//! feedback, with the decisions made in each) is printed; with
//! `--metrics`, the metrics registry is exported as both JSON and
//! Prometheus text and each export is checked against its grammar.

use jits::JitsConfig;
use jits_common::{DataType, Schema, Value};
use jits_engine::{Database, StatsSetting};
use jits_obs::{validate_json, validate_prometheus};

fn main() -> jits_common::Result<()> {
    let argv: Vec<String> = std::env::args().collect();
    let trace = argv.iter().any(|a| a == "--trace");
    let metrics = argv.iter().any(|a| a == "--metrics");

    // -- build a small correlated table --------------------------------
    let mut db = Database::new(42);
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
            ("year", DataType::Int),
        ]),
    )?;
    let rows = (0..50_000i64)
        .map(|i| {
            let (make, model) = match i % 10 {
                0..=2 => ("Toyota", "Camry"),
                3..=5 => ("Toyota", "Corolla"),
                6..=7 => ("Honda", "Civic"),
                _ => ("Audi", "A4"),
            };
            vec![
                Value::Int(i),
                Value::str(make),
                Value::str(model),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", rows)?;

    let sql = "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND model = 'Camry'";
    println!("query: {sql}");
    println!("truth: 15000 of 50000 rows (30%)\n");

    // -- general statistics: independence under-estimates ---------------
    db.runstats_all()?;
    db.set_setting(StatsSetting::CatalogOnly);
    let r = db.execute(sql)?;
    let plan = r.metrics.plan.as_ref().expect("SELECT has a plan");
    println!(
        "general statistics : estimated {:>8.0} rows (independence: 0.6 x 0.3)",
        plan.est_rows
    );

    // -- JITS: compile-time sampling measures the joint group -----------
    // start from a clean statistics state, like the paper's "no initial
    // statistics" JITS runs
    db.clear_statistics();
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    let r = db.execute(sql)?;
    let plan = r.metrics.plan.as_ref().expect("SELECT has a plan");
    println!(
        "JITS               : estimated {:>8.0} rows ({} table sampled, {:.1} ms compile)",
        plan.est_rows,
        r.metrics.sampled_tables,
        r.metrics.compile_wall.as_secs_f64() * 1e3,
    );
    println!("\nactual result      : {}", r.rows[0][0]);
    println!(
        "QSS archive        : {} histogram(s), StatHistory: {} entr(ies)",
        db.archive().len(),
        db.history().len()
    );

    if trace {
        let rec = r
            .metrics
            .profile
            .as_ref()
            .expect("every statement has a record");
        println!("\n-- statement record of the JITS run ------------------------");
        print!("{}", rec.render());
    }
    if metrics {
        let json = db.metrics_json(true);
        validate_json(&json).expect("metrics JSON export must parse");
        let prom = db.metrics_prometheus();
        validate_prometheus(&prom).expect("metrics Prometheus export must match the grammar");
        println!("\n-- metrics registry (JSON, validated) ----------------------");
        print!("{json}");
        println!("-- metrics registry (Prometheus, validated) ----------------");
        print!("{prom}");
    }
    Ok(())
}

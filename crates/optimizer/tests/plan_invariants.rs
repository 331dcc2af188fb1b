//! Property tests on plan enumeration invariants: whatever the statistics
//! say, the optimizer must produce a plan covering every quantifier with
//! sane estimates.

// test code: the workspace's panic lints cover library code only
#![allow(clippy::unwrap_used)]

use jits_catalog::{runstats, Catalog, RunstatsOptions};
use jits_common::{ColumnId, DataType, Schema, SplitMix64, Value};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    NoStatisticsProvider, PhysicalPlan,
};
use jits_query::{bind_statement, parse, BoundStatement};
use jits_storage::Table;
use proptest::prelude::*;

fn setup(seed: u64, n_cars: usize, n_owners: usize) -> (Catalog, Vec<Table>) {
    let mut rng = SplitMix64::new(seed);
    let mut catalog = Catalog::new();
    let car_schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("ownerid", DataType::Int),
        ("make", DataType::Str),
        ("year", DataType::Int),
    ]);
    let owner_schema = Schema::from_pairs(&[("id", DataType::Int), ("salary", DataType::Int)]);
    let car_id = catalog.register_table("car", car_schema.clone()).unwrap();
    let owner_id = catalog
        .register_table("owner", owner_schema.clone())
        .unwrap();

    let makes = ["Toyota", "Honda", "Audi"];
    let mut car = Table::new("car", car_schema);
    for i in 0..n_cars {
        car.insert(vec![
            Value::Int(i as i64),
            Value::Int(rng.next_bounded(n_owners.max(1) as u64) as i64),
            Value::str(makes[rng.next_index(makes.len())]),
            Value::Int(1990 + rng.next_bounded(17) as i64),
        ])
        .unwrap();
    }
    let mut owner = Table::new("owner", owner_schema);
    for i in 0..n_owners {
        owner
            .insert(vec![
                Value::Int(i as i64),
                Value::Int(rng.next_bounded(100_000) as i64),
            ])
            .unwrap();
    }
    owner.create_index(ColumnId(0)).unwrap();
    catalog.add_index(owner_id, ColumnId(0)).unwrap();
    let (ts, cs) = runstats(&car, RunstatsOptions::default(), 1);
    catalog.set_stats(car_id, ts, cs).unwrap();
    let (ts, cs) = runstats(&owner, RunstatsOptions::default(), 1);
    catalog.set_stats(owner_id, ts, cs).unwrap();
    (catalog, vec![car, owner])
}

fn check_plan_invariants(p: &PhysicalPlan, expected_quns: usize) {
    let mut quns = p.quns();
    quns.sort_unstable();
    quns.dedup();
    assert_eq!(
        quns.len(),
        expected_quns,
        "plan must cover every quantifier"
    );
    assert!(p.est().rows >= 0.0, "negative row estimate");
    assert!(p.est().cost > 0.0, "non-positive cost");
    assert!(p.est().cost.is_finite() && p.est().rows.is_finite());
    // every scan estimate is a valid selectivity
    for s in p.scan_estimates() {
        assert!(
            (0.0..=1.0).contains(&s.selectivity),
            "sel {}",
            s.selectivity
        );
        assert!(s.base_rows >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn plans_cover_all_quantifiers_and_estimate_sanely(
        seed in any::<u64>(),
        n_cars in 1usize..400,
        n_owners in 1usize..80,
        year in 1985i64..2010,
        salary in 0i64..120_000,
        use_catalog in any::<bool>(),
    ) {
        let (catalog, _tables) = setup(seed, n_cars, n_owners);
        let sql = format!(
            "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id \
             AND make = 'Toyota' AND year > {year} AND salary <= {salary}"
        );
        let BoundStatement::Select(block) =
            bind_statement(&parse(&sql).unwrap(), &catalog).unwrap()
        else {
            panic!()
        };
        let cost = CostModel::default();
        let plan = if use_catalog {
            let provider = CatalogStatisticsProvider::new(&catalog);
            let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
            optimize(&block, &est, &cost, &catalog).unwrap()
        } else {
            let provider = NoStatisticsProvider;
            let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
            optimize(&block, &est, &cost, &catalog).unwrap()
        };
        check_plan_invariants(&plan, 2);
    }

    #[test]
    fn estimated_rows_never_exceed_cross_product(
        seed in any::<u64>(),
        n_cars in 1usize..300,
        n_owners in 1usize..60,
    ) {
        let (catalog, _tables) = setup(seed, n_cars, n_owners);
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id").unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(&catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let plan = optimize(&block, &est, &CostModel::default(), &catalog).unwrap();
        let cross = (n_cars * n_owners) as f64;
        prop_assert!(
            plan.est().rows <= cross * 1.0001,
            "estimate {} exceeds cross product {cross}",
            plan.est().rows
        );
    }

    #[test]
    fn explain_renders_for_any_plan(
        seed in any::<u64>(),
        n_cars in 1usize..200,
    ) {
        let (catalog, _tables) = setup(seed, n_cars, 20);
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT COUNT(*) FROM car WHERE make = 'Audi' AND year BETWEEN 1995 AND 2000")
                .unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(&catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let plan = optimize(&block, &est, &CostModel::default(), &catalog).unwrap();
        let text = plan.explain();
        prop_assert!(text.contains("Scan"));
        prop_assert!(!text.is_empty());
    }
}

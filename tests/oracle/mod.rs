//! The row-at-a-time reference executor, run on the plan the engine itself
//! chooses under `StatsSetting::CatalogOnly`: the optimizer sees only the
//! catalog, so re-planning a statement from the same catalog reproduces
//! the engine's plan exactly, and the engine's answer, charged work and
//! observations can be compared with the reference bit for bit.

use jits_engine::Database;
use jits_executor::{execute_with, ExecOutput, ExecutorKind};
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
};
use jits_query::{bind_statement, parse, BoundStatement};

/// The row executor's run, over `db`'s tables, of the plan `db` picks for
/// the SELECT `sql` under `CatalogOnly`.
pub fn row_oracle(db: &Database, sql: &str) -> ExecOutput {
    let catalog = db.catalog();
    let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
    else {
        panic!("not a SELECT: {sql}")
    };
    let provider = CatalogStatisticsProvider::new(catalog);
    let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
    let cost = CostModel::default();
    let plan = optimize(&block, &est, &cost, catalog).unwrap();
    execute_with(ExecutorKind::Row, &plan, &block, db.tables(), &cost).unwrap()
}

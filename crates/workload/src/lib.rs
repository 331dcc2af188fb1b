//! The paper's evaluation database and workload.
//!
//! §4 of the paper evaluates JITS on a four-table car-insurance database
//! (CAR 1,430,798 rows / OWNER 1,000,000 / DEMOGRAPHICS 1,000,000 /
//! ACCIDENTS 4,289,980 — Table 2) with "several primary-key-to-foreign-key
//! relationships ... as well as a number of correlations between attributes,
//! such as Make and Model", driven by "a workload of 840 queries, including
//! data updates to simulate a real-world operational database" (§4.2).
//!
//! The data is proprietary, so this crate synthesizes an equivalent:
//! the same four tables and key relationships, deliberate functional
//! dependencies (Model → Make, City → Country) and correlations (price ↔
//! make tier ↔ year, damage ↔ car age proxy) that make the independence
//! assumption fail exactly where the paper needs it to, Zipf-like skew, and
//! a seeded 840-operation workload mixing SPJ queries with UPDATE / DELETE /
//! INSERT batches that *shift* the distributions over time so pre-collected
//! statistics go stale.

#![forbid(unsafe_code)]

pub mod datagen;
pub mod driver;
pub mod queries;
pub mod schema;

pub use datagen::{populate, DataGenConfig};
pub use driver::{
    boxplot, prepare, run_workload, run_workload_concurrent, run_workload_session, setup_database,
    Boxplot, RunRecord, Setting,
};
pub use queries::{generate_workload, WorkloadOp, WorkloadSpec};
pub use schema::{create_schema, paper_row_counts, TABLE_NAMES};

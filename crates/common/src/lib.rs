//! Shared substrate for the JITS engine.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace: typed [`Value`]s, [`Schema`] descriptions, identifier newtypes,
//! numeric [`Interval`] constraints, canonical [`ColGroup`] column-group
//! identities (the unit of statistics in the JITS paper), error types, and a
//! small dependency-free deterministic RNG used wherever reproducibility
//! matters.
//!
//! [`Value`]: value::Value
//! [`Schema`]: schema::Schema
//! [`Interval`]: interval::Interval
//! [`ColGroup`]: colgroup::ColGroup

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colgroup;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod interval;
pub mod rng;
pub mod schema;
pub mod testpath;
pub mod value;

pub use colgroup::ColGroup;
pub use error::{JitsError, Result};
pub use fault::{fault_key, FaultPlane, FaultSchedule, FaultSpec};
pub use hash::{fast_hash, ChainTable, FastHasher, FastMap, FastState};
pub use ids::{ColumnId, TableId};
pub use interval::{Bound, Interval};
pub use rng::SplitMix64;
pub use schema::{ColumnDef, Schema};
pub use testpath::TestDir;
pub use value::{DataType, Value, ValueRef};

/// How a quantifier's sample rows were obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleOrigin {
    /// Drawn fresh (cold cache or no cache in play).
    Fresh,
    /// Drawn fresh because the cached sample had drifted past the
    /// staleness limit.
    Redrawn {
        /// The staleness that invalidated the cached sample.
        staleness: f64,
    },
    /// Served from the sample cache.
    Cached {
        /// The (below-limit) staleness the sample was served at.
        staleness: f64,
    },
}

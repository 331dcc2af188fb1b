//! Plan execution with cardinality monitoring.
//!
//! [`execute`] runs a physical plan vectorized ([`batch`]): each operator
//! keeps one selection vector per quantifier and evaluates predicates, join
//! keys, and aggregates over the column store. Two byproducts matter to
//! JITS:
//!
//! * **work accounting** — every operator charges the same
//!   [`CostModel`](jits_optimizer::CostModel) constants the optimizer used
//!   to *estimate* cost, so "actual work" and "estimated cost" are in one
//!   currency and simulated time is machine-independent;
//! * **cardinality observations** — each base-table access records the
//!   actual number of rows satisfying its predicate group next to the
//!   optimizer's estimate and the statistics (`statlist`) that produced it.
//!   This is the LEO-style feedback (paper §5.1, \[14\]) that fills the JITS
//!   StatHistory with `errorFactor` entries.

#![forbid(unsafe_code)]

pub mod batch;
mod eval;
pub mod locate;
pub mod monitor;

pub use batch::execute;
pub use eval::ExecOutput;
pub use locate::{locate_rows, Located};
pub use monitor::{ExecStats, NodeKind, NodeObservation, ScanObservation};

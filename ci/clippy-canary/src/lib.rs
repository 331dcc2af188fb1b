//! Deliberate violations of every ban in the root `clippy.toml`, one each.
//! Clippy ignores a ban whose path does not resolve, without a warning;
//! `check.sh` fails unless each of these is reported.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::RandomState;
use std::time::{Instant, SystemTime};

/// Wall-clock reads.
pub fn clocks() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

/// A per-process hasher seed and the two std hash containers.
pub fn hashing() -> (RandomState, HashMap<u8, u8>, HashSet<u8>) {
    (RandomState::new(), HashMap::new(), HashSet::new())
}

/// A float comparison without a total order.
pub fn float_order(a: f64, b: f64) -> Option<Ordering> {
    a.partial_cmp(&b)
}

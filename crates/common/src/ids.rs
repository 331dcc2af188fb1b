//! Identifier newtypes.
//!
//! Tables and columns are referred to by dense integer ids throughout the
//! engine; newtypes prevent accidentally mixing the two.

use std::cmp::Ordering;
use std::fmt;

/// Identifies a base table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Identifies a column *within* a table (its ordinal position in the schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnId(pub u32);

// `Ord` and `PartialOrd` are written out, not derived: a derived
// `PartialOrd` calls `partial_cmp`, which `clippy.toml` bans, and a derived
// `Ord` beside a hand-written `PartialOrd` is a clippy error.
impl Ord for TableId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for TableId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ColumnId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for ColumnId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TableId {
    /// Ordinal as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ColumnId {
    /// Ordinal as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_and_display() {
        assert!(TableId(1) < TableId(2));
        assert!(ColumnId(0) < ColumnId(5));
        assert_eq!(TableId(3).to_string(), "T3");
        assert_eq!(ColumnId(7).to_string(), "c7");
        assert_eq!(TableId(3).index(), 3);
    }
}

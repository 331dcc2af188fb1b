//! Canonical column-group identity.
//!
//! A *column group* — a table plus a sorted set of its columns — is the unit
//! of statistics in the JITS paper: candidate predicate groups, StatHistory
//! entries, and QSS-archive histograms are all keyed by one. Keeping the
//! identity canonical (columns sorted, deduplicated) lets every layer agree
//! that the group for `make = 'Toyota' AND model = 'Camry'` is the same
//! regardless of predicate order.

use crate::ids::{ColumnId, TableId};
use std::cmp::Ordering;
use std::fmt;

/// A table and a canonical (sorted, deduplicated) set of its columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColGroup {
    table: TableId,
    columns: Vec<ColumnId>,
}

// Written out, not derived: a derived `PartialOrd` calls `partial_cmp`,
// which `clippy.toml` bans. By table, then column list — the derive's order.
impl Ord for ColGroup {
    fn cmp(&self, other: &Self) -> Ordering {
        self.table
            .cmp(&other.table)
            .then_with(|| self.columns.cmp(&other.columns))
    }
}

impl PartialOrd for ColGroup {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ColGroup {
    /// Builds a canonical group from any column ordering.
    pub fn new(table: TableId, mut columns: Vec<ColumnId>) -> Self {
        columns.sort_unstable();
        columns.dedup();
        ColGroup { table, columns }
    }

    /// Single-column group.
    pub fn single(table: TableId, column: ColumnId) -> Self {
        ColGroup {
            table,
            columns: vec![column],
        }
    }

    /// The owning table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The sorted column set.
    pub fn columns(&self) -> &[ColumnId] {
        &self.columns
    }

    /// Number of columns in the group.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True if `other` covers a subset of this group's columns
    /// (same table required).
    pub fn contains(&self, other: &ColGroup) -> bool {
        self.table == other.table
            && other
                .columns
                .iter()
                .all(|c| self.columns.binary_search(c).is_ok())
    }

    /// True if the two groups share no columns (same table required for a
    /// meaningful answer; different tables are trivially disjoint).
    pub fn is_disjoint(&self, other: &ColGroup) -> bool {
        self.table != other.table
            || other
                .columns
                .iter()
                .all(|c| self.columns.binary_search(c).is_err())
    }

    /// Columns of `self` not present in `other`.
    pub fn difference(&self, other: &ColGroup) -> Vec<ColumnId> {
        if self.table != other.table {
            return self.columns.clone();
        }
        self.columns
            .iter()
            .filter(|c| other.columns.binary_search(c).is_err())
            .copied()
            .collect()
    }
}

impl fmt::Display for ColGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.table)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(t: u32, cols: &[u32]) -> ColGroup {
        ColGroup::new(TableId(t), cols.iter().map(|c| ColumnId(*c)).collect())
    }

    #[test]
    fn canonicalization() {
        assert_eq!(g(1, &[3, 1, 2]), g(1, &[1, 2, 3]));
        assert_eq!(g(1, &[2, 2, 1]), g(1, &[1, 2]));
        assert_ne!(g(1, &[1]), g(2, &[1]));
    }

    #[test]
    fn containment() {
        assert!(g(1, &[1, 2, 3]).contains(&g(1, &[2])));
        assert!(g(1, &[1, 2, 3]).contains(&g(1, &[1, 3])));
        assert!(!g(1, &[1, 2]).contains(&g(1, &[3])));
        assert!(!g(1, &[1, 2]).contains(&g(2, &[1])));
        // every group contains itself and the empty group
        assert!(g(1, &[1, 2]).contains(&g(1, &[1, 2])));
        assert!(g(1, &[1, 2]).contains(&g(1, &[])));
    }

    #[test]
    fn disjointness_and_difference() {
        assert!(g(1, &[1, 2]).is_disjoint(&g(1, &[3, 4])));
        assert!(!g(1, &[1, 2]).is_disjoint(&g(1, &[2, 3])));
        assert!(g(1, &[1]).is_disjoint(&g(2, &[1])));
        assert_eq!(
            g(1, &[1, 2, 3]).difference(&g(1, &[2])),
            vec![ColumnId(1), ColumnId(3)]
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(g(1, &[2, 0]).to_string(), "T1(c0,c2)");
    }
}

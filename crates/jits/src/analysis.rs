//! Query analysis — the paper's Algorithm 1.
//!
//! For every query block, for every table `t` involved, with `P_t` the local
//! predicates on `t`: enumerate all i-predicate groups for
//! `i = 1, 2, ..., |P_t|` — i.e. the non-empty power set of `P_t`. Each
//! group is a *candidate statistic*: the joint selectivity the optimizer
//! would ideally know.
//!
//! The enumeration is exponential in `|P_t|`; real queries rarely have more
//! than a handful of local predicates per table, and beyond
//! [`MAX_GROUP_ENUMERATION`] the enumeration degrades gracefully to
//! singletons, pairs, and the full group (the groups the estimator and the
//! sensitivity analysis actually consume).

use jits_common::ColGroup;
use jits_query::QueryBlock;

/// One candidate predicate group produced by query analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateGroup {
    /// Quantifier the group is local to.
    pub qun: usize,
    /// Sorted indices into `block.local_predicates`.
    pub pred_indices: Vec<usize>,
    /// Canonical column-group identity.
    pub colgroup: ColGroup,
    /// Whether every predicate has an interval form (the group can be
    /// materialized as a histogram region).
    pub is_region: bool,
}

/// Local predicates per table up to which Algorithm 1 enumerates the full
/// power set (63 groups); beyond it only singletons, pairs, and the full
/// group are enumerated, bounding the candidate count.
pub const MAX_GROUP_ENUMERATION: usize = 6;

/// Algorithm 1: enumerate candidate predicate groups for a block.
///
/// Groups are returned in (quantifier, size, lexicographic) order, so output
/// is deterministic.
pub fn query_analysis(block: &QueryBlock) -> Vec<CandidateGroup> {
    let mut out = Vec::new();
    for qun in 0..block.quns.len() {
        let preds = block.local_predicates_of(qun);
        if preds.is_empty() {
            continue;
        }
        let subsets = if preds.len() <= MAX_GROUP_ENUMERATION {
            power_set(&preds)
        } else {
            capped_subsets(&preds)
        };
        for pred_indices in subsets {
            let colgroup = block.colgroup_of(&pred_indices);
            let is_region = block.group_is_region(&pred_indices);
            out.push(CandidateGroup {
                qun,
                pred_indices,
                colgroup,
                is_region,
            });
        }
    }
    out
}

/// All non-empty subsets, ordered by size then lexicographically.
fn power_set(preds: &[usize]) -> Vec<Vec<usize>> {
    let n = preds.len();
    let mut subsets: Vec<Vec<usize>> = (1u32..(1 << n))
        .map(|mask| {
            (0..n)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| preds[b])
                .collect()
        })
        .collect();
    subsets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    subsets
}

/// Bounded enumeration for very wide predicate sets: singletons, pairs, and
/// the full group.
fn capped_subsets(preds: &[usize]) -> Vec<Vec<usize>> {
    let mut subsets: Vec<Vec<usize>> = preds.iter().map(|&p| vec![p]).collect();
    for i in 0..preds.len() {
        for j in i + 1..preds.len() {
            subsets.push(vec![preds[i], preds[j]]);
        }
    }
    subsets.push(preds.to_vec());
    subsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::Catalog;
    use jits_common::{DataType, Schema};
    use jits_query::{bind_statement, parse, BoundStatement};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("model", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        c.register_table(
            "owner",
            Schema::from_pairs(&[("id", DataType::Int), ("salary", DataType::Int)]),
        )
        .unwrap();
        c
    }

    fn block(sql: &str) -> QueryBlock {
        let BoundStatement::Select(b) = bind_statement(&parse(sql).unwrap(), &catalog()).unwrap()
        else {
            panic!()
        };
        b
    }

    #[test]
    fn paper_example_enumeration() {
        // §3.2: make/model/year on car -> 3 singletons + 3 pairs + 1 triple
        let b =
            block("SELECT * FROM car WHERE make = 'Toyota' AND model = 'Corolla' AND year > 2000");
        let groups = query_analysis(&b);
        assert_eq!(groups.len(), 7);
        assert_eq!(
            groups.iter().filter(|g| g.pred_indices.len() == 1).count(),
            3
        );
        assert_eq!(
            groups.iter().filter(|g| g.pred_indices.len() == 2).count(),
            3
        );
        assert_eq!(
            groups.iter().filter(|g| g.pred_indices.len() == 3).count(),
            1
        );
        assert!(groups.iter().all(|g| g.qun == 0 && g.is_region));
    }

    #[test]
    fn groups_enumerated_per_table() {
        let b = block(
            "SELECT * FROM car c, owner o WHERE c.id = o.id \
             AND make = 'Toyota' AND year > 2000 AND salary > 5000",
        );
        let groups = query_analysis(&b);
        // car: 2 preds -> 3 groups; owner: 1 pred -> 1 group
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().filter(|g| g.qun == 0).count(), 3);
        assert_eq!(groups.iter().filter(|g| g.qun == 1).count(), 1);
        // join predicates contribute no candidate groups
    }

    #[test]
    fn tables_without_local_predicates_skipped() {
        let b = block("SELECT * FROM car c, owner o WHERE c.id = o.id");
        assert!(query_analysis(&b).is_empty());
    }

    #[test]
    fn noteq_groups_flagged_as_non_region() {
        let b = block("SELECT * FROM car WHERE make <> 'Toyota' AND year > 2000");
        let groups = query_analysis(&b);
        let full = groups.iter().find(|g| g.pred_indices.len() == 2).unwrap();
        assert!(!full.is_region);
        let year_only = groups.iter().find(|g| g.pred_indices == vec![1]).unwrap();
        assert!(year_only.is_region);
    }

    #[test]
    fn wide_predicate_sets_are_capped() {
        let b = block(
            "SELECT * FROM car WHERE id > 0 AND id < 100 AND make = 'a' AND model = 'b' \
             AND year > 1 AND year < 9 AND id <> 5 AND make <> 'c'",
        );
        // 8 predicates, past the cap: 8 singles + 28 pairs + 1 full = 37,
        // where the full power set would be 255 groups
        const { assert!(8 > MAX_GROUP_ENUMERATION) };
        assert_eq!(query_analysis(&b).len(), 37);
        assert_eq!(power_set(&(0..8).collect::<Vec<_>>()).len(), 255);
        // at the cap the power set is still enumerated in full
        let b = block(
            "SELECT * FROM car WHERE id > 0 AND id < 100 AND make = 'a' AND model = 'b' \
             AND year > 1 AND year < 9",
        );
        assert_eq!(query_analysis(&b).len(), (1 << MAX_GROUP_ENUMERATION) - 1);
    }

    #[test]
    fn deterministic_ordering() {
        let b =
            block("SELECT * FROM car WHERE make = 'Toyota' AND model = 'Corolla' AND year > 2000");
        let a = query_analysis(&b);
        let c = query_analysis(&b);
        assert_eq!(a, c);
        // sizes non-decreasing within a quantifier
        for w in a.windows(2) {
            if w[0].qun == w[1].qun {
                assert!(w[0].pred_indices.len() <= w[1].pred_indices.len());
            }
        }
    }
}

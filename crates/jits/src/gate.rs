//! The archive usability gate, shared by estimation and sensitivity.
//!
//! The paper's boundary-distance accuracy (§3.3.2) rates a constant near
//! *any* bucket boundary as accurately estimable. That is right for numeric
//! interpolation but wrong for equality on categorical axes: a string code
//! that merely lands near another string's boundary cannot be interpolated
//! out of a bucket. This module computes the accuracy an archive histogram
//! *actually* offers for a predicate group:
//!
//! * `None` — no histogram on the group;
//! * `Some(0.0)` — a string-equality constant in the group was never
//!   observed (no boundary at its code): the histogram cannot answer;
//! * `Some(acc)` — the paper's region accuracy otherwise.
//!
//! Both the JITS statistics provider (deciding whether to *use* the
//! histogram) and Algorithm 3 (deciding whether existing statistics are
//! good enough to *skip sampling*) consult this single function, so the
//! system never believes a statistic it would refuse to use.

use crate::archive::QssArchive;
use crate::collect::group_region;
use jits_common::{ColGroup, ColumnId, DataType};
use jits_query::QueryBlock;

/// Accuracy the archive offers for `pred_indices` (all on one quantifier), projected
/// onto the statistic `stat` (pass the group's own colgroup to rate the full
/// group). `types` maps columns to their data types.
pub fn archive_accuracy_for(
    archive: &QssArchive,
    block: &QueryBlock,
    pred_indices: &[usize],
    stat: &ColGroup,
    types: &dyn Fn(ColumnId) -> DataType,
) -> Option<f64> {
    let hist = archive.histogram(stat)?;
    // restrict the predicates to the statistic's columns
    let restricted: Vec<usize> = pred_indices
        .iter()
        .copied()
        .filter(|&i| stat.columns().contains(&block.local_predicates[i].column))
        .collect();
    if restricted.is_empty() {
        // the statistic exists but the group does not constrain its columns:
        // the total count answers trivially
        return Some(1.0);
    }
    // string-equality constants must sit on observed boundaries
    let (intervals, _) = block.constraints_of(&restricted);
    for (d, col) in stat.columns().iter().enumerate() {
        if types(*col) != DataType::Str {
            continue;
        }
        let Some((_, iv)) = intervals.iter().find(|(c, _)| c == col) else {
            continue;
        };
        if !iv.is_point() {
            continue;
        }
        match iv.low.value().and_then(|v| v.to_axis()) {
            Some(axis) if hist.has_boundary(d, axis) => {}
            _ => return Some(0.0),
        }
    }
    // otherwise: the paper's region accuracy, over the statistic's dims
    let region = project_onto(block, &restricted, stat, types)?;
    Some(jits_histogram::region_accuracy(hist.boundaries(), &region))
}

/// The group's region projected onto `stat`'s columns; unconstrained columns
/// become unbounded dimensions.
pub fn project_onto(
    block: &QueryBlock,
    restricted: &[usize],
    stat: &ColGroup,
    types: &dyn Fn(ColumnId) -> DataType,
) -> Option<jits_histogram::Region> {
    let sub = group_region(block, restricted, types)?;
    let sub_group = block.colgroup_of(restricted);
    let mut ranges = Vec::with_capacity(stat.arity());
    for col in stat.columns() {
        match sub_group.columns().iter().position(|c| c == col) {
            Some(i) => ranges.push(sub.range(i)),
            None => ranges.push((f64::NEG_INFINITY, f64::INFINITY)),
        }
    }
    Some(jits_histogram::Region::new(ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::Catalog;
    use jits_common::{Schema, TableId};
    use jits_histogram::Region;
    use jits_query::{bind_statement, parse, BoundStatement};

    fn setup(sql: &str) -> (Catalog, QueryBlock) {
        let mut catalog = Catalog::new();
        catalog
            .register_table(
                "car",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("make", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), &catalog).unwrap()
        else {
            panic!()
        };
        (catalog, block)
    }

    fn types(_c: ColumnId) -> DataType {
        DataType::Str
    }

    #[test]
    fn no_histogram_is_none() {
        let (_, block) = setup("SELECT * FROM car WHERE make = 'Toyota'");
        let archive = QssArchive::default();
        let g = block.colgroup_of(&[0]);
        assert_eq!(
            archive_accuracy_for(&archive, &block, &[0], &g, &types),
            None
        );
    }

    #[test]
    fn unobserved_string_point_scores_zero() {
        let (_, block) = setup("SELECT * FROM car WHERE make = 'Toyota'");
        let g = block.colgroup_of(&[0]);
        let mut archive = QssArchive::default();
        // histogram observed a DIFFERENT make's sliver
        let honda = jits_common::Value::str("Honda").to_axis().unwrap();
        archive.apply_observation(
            g.clone(),
            &Region::new(vec![(4e18, 7e18)]),
            &Region::new(vec![(honda, honda + 4096.0)]),
            40.0,
            100.0,
            1,
        );
        let acc = archive_accuracy_for(&archive, &block, &[0], &g, &types).unwrap();
        assert_eq!(acc, 0.0, "Toyota was never observed");
    }

    #[test]
    fn observed_string_point_scores_high() {
        let (_, block) = setup("SELECT * FROM car WHERE make = 'Toyota'");
        let g = block.colgroup_of(&[0]);
        let mut archive = QssArchive::default();
        let toyota = jits_common::Value::str("Toyota").to_axis().unwrap();
        let eps = jits_common::interval::axis_eps(DataType::Str, toyota);
        archive.apply_observation(
            g.clone(),
            &Region::new(vec![(4e18, 7e18)]),
            &Region::new(vec![(toyota, toyota + eps)]),
            40.0,
            100.0,
            1,
        );
        let acc = archive_accuracy_for(&archive, &block, &[0], &g, &types).unwrap();
        assert_eq!(acc, 1.0, "exact boundary hit");
        let _ = TableId(0);
    }

    #[test]
    fn numeric_ranges_interpolate() {
        let (_, block) = setup("SELECT * FROM car WHERE year > 2000");
        let g = block.colgroup_of(&[0]);
        let mut archive = QssArchive::default();
        archive.apply_observation(
            g.clone(),
            &Region::new(vec![(1990.0, 2007.0)]),
            &Region::new(vec![(1998.0, f64::INFINITY)]),
            60.0,
            100.0,
            1,
        );
        let int_types = |_c: ColumnId| DataType::Int;
        let acc = archive_accuracy_for(&archive, &block, &[0], &g, &int_types).unwrap();
        assert!(acc > 0.3, "numeric interpolation stays usable: {acc}");
    }
}

//! Execution statistics and cardinality observations.

use jits_common::{ColGroup, TableId};
use jits_optimizer::StatSource;

/// What kind of node an observation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Sequential scan.
    SeqScan,
    /// Zone-map-pruned scan.
    PrunedScan,
    /// Index scan.
    IndexScan,
    /// Hash join.
    HashJoin,
    /// Index nested-loop join.
    IndexNLJoin,
    /// Nested-loop join.
    NLJoin,
}

impl NodeKind {
    /// Stable lowercase label for profiles, views, and JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::SeqScan => "seq_scan",
            NodeKind::PrunedScan => "pruned_scan",
            NodeKind::IndexScan => "index_scan",
            NodeKind::HashJoin => "hash_join",
            NodeKind::IndexNLJoin => "index_nl_join",
            NodeKind::NLJoin => "nl_join",
        }
    }
}

/// The q-error of a cardinality estimate: `max(est/act, act/est)`, the
/// symmetric multiplicative error used throughout the estimation-quality
/// literature. Guarded so it is total: both sides zero (a correct empty
/// estimate) is a perfect 1.0; exactly one side zero is an unbounded miss.
pub fn q_error(est_rows: f64, actual_rows: f64) -> f64 {
    let est = est_rows.max(0.0);
    let act = actual_rows.max(0.0);
    if est <= 0.0 && act <= 0.0 {
        1.0
    } else if est <= 0.0 || act <= 0.0 {
        f64::INFINITY
    } else {
        (est / act).max(act / est)
    }
}

/// Estimated vs. actual output cardinality of one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObservation {
    /// Node kind.
    pub kind: NodeKind,
    /// Optimizer's estimate.
    pub est_rows: f64,
    /// What actually came out.
    pub actual_rows: f64,
    /// Work this node charged, in cost-model units: the per-node slice of
    /// [`ExecStats::work`], a [`CostModel`](jits_optimizer::CostModel)
    /// formula of this node's input and output counts.
    pub work: f64,
}

impl NodeObservation {
    /// The q-error of this node's estimate (see [`q_error`]).
    pub fn q_error(&self) -> f64 {
        q_error(self.est_rows, self.actual_rows)
    }
}

/// Actual selectivity of a base-table predicate group, paired with how it
/// was estimated — the raw material for StatHistory `errorFactor` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanObservation {
    /// Quantifier index in the block.
    pub qun: usize,
    /// Base table.
    pub table: TableId,
    /// Indices of the applied local predicates.
    pub pred_indices: Vec<usize>,
    /// Estimated joint selectivity.
    pub est_selectivity: f64,
    /// Statistics used for the estimate (the `statlist`).
    pub statlist: Vec<ColGroup>,
    /// Estimate provenance.
    pub source: StatSource,
    /// Rows that actually satisfied the group.
    pub actual_rows: f64,
    /// Live rows in the table at execution time.
    pub table_rows: f64,
}

impl ScanObservation {
    /// Actual selectivity (0 when the table is empty).
    pub fn actual_selectivity(&self) -> f64 {
        if self.table_rows <= 0.0 {
            0.0
        } else {
            (self.actual_rows / self.table_rows).clamp(0.0, 1.0)
        }
    }

    /// The paper's `errorFactor` = estimated / actual selectivity, guarded
    /// against division by zero (an actual of zero with a non-zero estimate
    /// reports a large over-estimate factor).
    pub fn error_factor(&self) -> f64 {
        let actual = self.actual_selectivity();
        if actual > 0.0 {
            self.est_selectivity / actual
        } else if self.est_selectivity > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Work and observations accumulated during one execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Total work in cost-model units (same currency as plan cost).
    pub work: f64,
    /// Per-node estimated-vs-actual cardinalities.
    pub nodes: Vec<NodeObservation>,
    /// Inclusive wall time per node, in nanoseconds, parallel to `nodes`
    /// (same push order). Kept out of [`NodeObservation`] on purpose: the
    /// observation stream is the deterministic, bit-compared half of the
    /// profile, while walls are volatile and masked in replay comparisons.
    pub node_walls: Vec<u64>,
    /// Base-table predicate-group observations for the feedback loop.
    pub scans: Vec<ScanObservation>,
    /// Zone-map block summaries probed by pruned scans. Computed from the
    /// skip list whether or not blocks are physically skipped, so the pair
    /// is part of the bit-compared half of the stats.
    pub blocks_total: u64,
    /// Blocks whose summaries proved no row could match.
    pub blocks_pruned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(est: f64, actual_rows: f64, table_rows: f64) -> ScanObservation {
        ScanObservation {
            qun: 0,
            table: TableId(0),
            pred_indices: vec![0],
            est_selectivity: est,
            statlist: vec![],
            source: StatSource::Default,
            actual_rows,
            table_rows,
        }
    }

    #[test]
    fn actual_selectivity_and_error_factor() {
        let o = obs(0.2, 500.0, 1000.0);
        assert_eq!(o.actual_selectivity(), 0.5);
        assert!((o.error_factor() - 0.4).abs() < 1e-12); // the paper's example
    }

    #[test]
    fn zero_actual_guard() {
        let o = obs(0.2, 0.0, 1000.0);
        assert_eq!(o.actual_selectivity(), 0.0);
        assert!(o.error_factor().is_infinite());
        let o = obs(0.0, 0.0, 1000.0);
        assert_eq!(o.error_factor(), 1.0);
    }

    #[test]
    fn empty_table_guard() {
        let o = obs(0.5, 0.0, 0.0);
        assert_eq!(o.actual_selectivity(), 0.0);
    }

    #[test]
    fn q_error_is_symmetric_and_guarded() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(200.0, 100.0), 2.0);
        assert_eq!(q_error(100.0, 200.0), 2.0); // under-estimates count too
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert!(q_error(5.0, 0.0).is_infinite());
        assert!(q_error(0.0, 5.0).is_infinite());
        assert_eq!(q_error(-3.0, -7.0), 1.0); // negative inputs clamp to 0
    }
}

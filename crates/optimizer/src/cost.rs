//! The cost model.
//!
//! Costs are in *tuples processed* — the same unit the executor's work
//! counters report — so estimated and actual work are directly comparable
//! and the simulated-time experiments are machine-independent.

/// Rows per zone-map block assumed when costing a pruned scan. Must match
/// the storage layout (`jits_storage::BLOCK_SIZE`); the executor
/// debug-asserts the two constants agree.
pub const EST_BLOCK_ROWS: f64 = 1024.0;

/// Per-operation cost constants.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Reading one row during a sequential scan.
    pub seq_row: f64,
    /// Probing one block's zone-map summary during a pruned scan
    /// (metadata only — pruned blocks are charged this instead of their
    /// row cost).
    pub block_probe: f64,
    /// One index probe (tree descent), amortized.
    pub index_probe: f64,
    /// Fetching one matching row through an index.
    pub index_row: f64,
    /// Inserting one row into a hash table.
    pub hash_build_row: f64,
    /// Probing the hash table with one row.
    pub hash_probe_row: f64,
    /// Emitting one output row from any operator.
    pub output_row: f64,
    /// Evaluating one (outer, inner) pair in a nested-loop join.
    pub nl_pair: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // The ratios mirror a disk-resident system (the paper's DB2
        // testbed): a random index probe costs tens of sequential rows, so
        // an index nested-loop driven by an underestimated outer is exactly
        // the expensive mistake misestimated selectivities cause.
        CostModel {
            seq_row: 1.0,
            block_probe: 2.0,
            index_probe: 40.0,
            index_row: 4.0,
            hash_build_row: 2.0,
            hash_probe_row: 1.0,
            output_row: 0.5,
            nl_pair: 0.25,
        }
    }
}

impl CostModel {
    /// Full scan of `table_rows`, emitting `out_rows`.
    pub fn seq_scan(&self, table_rows: f64, out_rows: f64) -> f64 {
        table_rows * self.seq_row + out_rows * self.output_row
    }

    /// Index access fetching `index_rows` then filtering to `out_rows`.
    pub fn index_scan(&self, index_rows: f64, out_rows: f64) -> f64 {
        self.index_probe + index_rows * self.index_row + out_rows * self.output_row
    }

    /// Zone-map-pruned scan: every block pays a metadata probe, only the
    /// rows of surviving blocks pay row cost. One formula shared by plan
    /// costing and by the executor's work charging, so charged work stays
    /// bit-identical whether or not pruned blocks are physically skipped.
    pub fn pruned_scan(&self, blocks_total: f64, surviving_rows: f64, out_rows: f64) -> f64 {
        blocks_total * self.block_probe + surviving_rows * self.seq_row + out_rows * self.output_row
    }

    /// Hash join on already-costed inputs.
    pub fn hash_join(&self, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
        build_rows * self.hash_build_row
            + probe_rows * self.hash_probe_row
            + out_rows * self.output_row
    }

    /// Index nested-loop join: one probe per outer row, fetching
    /// `rows_per_probe` matching inner rows each.
    pub fn index_nl_join(&self, outer_rows: f64, rows_per_probe: f64, out_rows: f64) -> f64 {
        outer_rows * (self.index_probe + rows_per_probe * self.index_row)
            + out_rows * self.output_row
    }

    /// Plain nested-loop join over materialized inputs.
    pub fn nl_join(&self, outer_rows: f64, inner_rows: f64, out_rows: f64) -> f64 {
        outer_rows * inner_rows * self.nl_pair + out_rows * self.output_row
    }

    /// Comparison sort of `n` rows (ORDER BY). One formula shared by the
    /// row and batch executors so their work charges stay bit-identical.
    pub fn sort(&self, n: f64) -> f64 {
        n * n.max(2.0).log2() * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_beats_scan_when_selective() {
        let m = CostModel::default();
        // 1% of 100k rows through an index vs scanning everything
        assert!(m.index_scan(1_000.0, 1_000.0) < m.seq_scan(100_000.0, 1_000.0));
        // 90% through an index is worse than a scan
        assert!(m.index_scan(90_000.0, 90_000.0) > m.seq_scan(100_000.0, 90_000.0));
    }

    #[test]
    fn pruned_scan_sits_between_index_and_full_scan() {
        let m = CostModel::default();
        // 100k rows = ~98 blocks; a clustered 0.5% predicate survives ~1
        // block. Pruning must beat the full scan by a wide margin...
        let (blocks, surviving, out) = (98.0, 1024.0, 500.0);
        assert!(m.pruned_scan(blocks, surviving, out) < m.seq_scan(100_000.0, out) / 3.0);
        // ...but a near-zero selectivity still favors the index
        assert!(m.index_scan(50.0, 50.0) < m.pruned_scan(blocks, 1024.0, 50.0));
        // and with nothing pruned it degenerates to scan + probe overhead
        assert!(m.pruned_scan(blocks, 100_000.0, out) > m.seq_scan(100_000.0, out));
    }

    #[test]
    fn hash_join_beats_nl_on_large_inputs() {
        let m = CostModel::default();
        let (l, r, out) = (10_000.0, 10_000.0, 5_000.0);
        assert!(m.hash_join(l, r, out) < m.nl_join(l, r, out));
    }

    #[test]
    fn index_nl_wins_with_tiny_outer() {
        let m = CostModel::default();
        // 10 outer rows, each matching ~5 of 1M inner rows
        let inl = m.index_nl_join(10.0, 5.0, 50.0);
        // hash join must at least build or probe the 1M-row side
        let hash = m.hash_join(1_000_000.0, 10.0, 50.0);
        assert!(inl < hash);
        // with a huge outer the index NL loses
        let inl = m.index_nl_join(500_000.0, 5.0, 2_500_000.0);
        let hash = m.hash_join(1_000_000.0, 500_000.0, 2_500_000.0);
        assert!(hash < inl);
    }
}

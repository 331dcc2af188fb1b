//! Known-bad fixture for the batch-bounds pass. Never compiled — the
//! integration test feeds it to the analyzer and expects violations.

fn gather_pairs(batch: &Batch, pairs: &[(usize, usize)]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in &batch.sel {
        // BAD: join pair positions index the selection vector unchecked
        out.extend(pairs.iter().map(|&(b, _)| s[b]));
    }
    out
}

fn read_column(fc: &FrameColumn, t: usize) -> bool {
    // BAD: no validity probe, assert, or bounded loop dominates `t`
    fc.validity[t]
}

fn gather_values(values: &FrameValues, positions: &[usize]) -> Vec<i64> {
    match values {
        // BAD: `positions` came from far away; nothing bounds `p`
        FrameValues::Int(vals) => positions.iter().map(|&p| vals[p]).collect(),
        _ => Vec::new(),
    }
}

fn filter_by_code(dict: StrCodes<'_>, verdict: &[bool], rows: &[u32], keep: &mut [bool]) {
    for (k, &r) in keep.iter_mut().zip(rows) {
        // BAD: row ids index the codes, codes index the verdicts, unchecked
        *k = verdict[dict.codes[r as usize] as usize];
    }
}

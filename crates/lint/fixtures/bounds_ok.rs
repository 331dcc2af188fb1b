//! Clean twin of `bounds_bad.rs`: every index is dominated by a guard —
//! a length assert, an explicit comparison, or a bounded-range loop
//! variable. Must produce zero findings.

fn gather_pairs(batch: &Batch, pairs: &[(usize, usize)], len: usize) -> Vec<u64> {
    // a length assert dominates the pair positions
    debug_assert!(pairs.iter().all(|&(b, _)| b < len));
    let mut out = Vec::new();
    for s in &batch.sel {
        out.extend(pairs.iter().map(|&(b, _)| s[b]));
    }
    out
}

fn read_column(fc: &FrameColumn, t: usize) -> bool {
    // the bound is checked before the index
    if t >= fc.len() {
        return false;
    }
    fc.validity[t]
}

fn gather_values(values: &FrameValues, n: usize) -> Vec<i64> {
    let mut out = Vec::new();
    match values {
        FrameValues::Int(vals) => {
            // the loop variable is range-bounded
            for p in 0..n {
                out.push(vals[p]);
            }
        }
        _ => {}
    }
    out
}

fn filter_by_code(dict: StrCodes<'_>, verdict: &[bool], rows: &[u32], keep: &mut [bool]) {
    let codes = dict.codes;
    // every candidate row has a code, and every code a verdict
    debug_assert!(rows
        .iter()
        .all(|&r| codes.get(r as usize).is_some_and(|&c| (c as usize) < verdict.len())));
    for (k, &r) in keep.iter_mut().zip(rows) {
        *k = verdict[codes[r as usize] as usize];
    }
}

//! Work-charging conservation pass.
//!
//! The collection budget (paper §4: bound the just-in-time collection cost
//! per statement) only works if every sampled-row touch is *charged*: a
//! loop over sampled rows that forgets `work +=` makes the budget check
//! pass while the real cost grows unbounded — and the bit-identity replay
//! contract breaks, because budget-aborted runs abort at different points.
//!
//! The same holds for DML row location (`locate*`): the work it reports is
//! the statement's charged `exec_work`, so a row loop it reaches must be
//! paid for on the same terms.
//!
//! The rule: in any function **reachable from a charging root** (a `fn`
//! whose name starts with `collect` or `locate`, or contains `sample`), a
//! `for` loop
//! whose iterated expression names sampled-row state (`rows`, `sample`,
//! `vals`, `validity`, …) must be paid for — either
//!
//! - **locally**: the function body bumps a charge counter (`work +=`,
//!   `probes +=`) or calls a `*charge*` API, or
//! - **by every caller**: the function is a helper like `pred_bitset`
//!   whose callers charge `n × preds` on its behalf. Coverage propagates
//!   through the call graph: a helper is covered when *all* of its callers
//!   are covered (computed to a fixed point; a reachable function with no
//!   callers must charge locally).
//!
//! Waive with `// jits-lint: allow(work-charging)`.

use crate::{Severity, Violation, Workspace};

/// The rule slug for waivers.
pub const RULE: &str = "work-charging";

/// Substrings marking a loop expression as iterating sampled rows.
const ROW_HINTS: &[&str] = &["rows", "sample", "sampled", "vals", "validity"];

/// Counter identifiers whose `+=` counts as charging.
const CHARGE_COUNTERS: &[&str] = &["work", "probes", "probed", "charged"];

/// Runs the pass. `scope` restricts *findings* (not graph construction) to
/// the given repo-relative paths; `None` checks every file (fixture mode).
/// Returns every finding, including waived ones (flagged `waived: true`).
pub fn run(ws: &Workspace, scope: Option<&[&str]>) -> Vec<Violation> {
    let n = ws.graph.nodes.len();
    let roots: Vec<usize> = (0..n)
        .filter(|&i| {
            let l = ws.graph.nodes[i].name.to_ascii_lowercase();
            l.starts_with("collect") || l.starts_with("locate") || l.contains("sample")
        })
        .collect();
    let reach = ws.graph.reachable(roots);
    let charges: Vec<bool> = (0..n).map(|i| node_charges(ws, i)).collect();

    // coverage fixed point: charged locally, or all callers covered
    let callers = ws.graph.callers();
    let mut covered = charges.clone();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !covered[i] && !callers[i].is_empty() && callers[i].iter().all(|&c| covered[c]) {
                covered[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for i in 0..n {
        if !reach[i] || covered[i] {
            continue;
        }
        let node = &ws.graph.nodes[i];
        let file = ws.files[node.file];
        if let Some(paths) = scope {
            if !paths.contains(&file.path.as_str()) {
                continue;
            }
        }
        let pf = &ws.parsed[node.file];
        let src = &file.raw;
        let f = &pf.fns[node.fn_idx];
        let Some((open, close)) = f.body else {
            continue;
        };
        if file.is_test_line(f.line) {
            continue;
        }
        for lp in pf.for_loops(src, open, close) {
            if pf.enclosing_fn(lp.body.0) != Some(node.fn_idx) {
                continue; // a nested fn owns this loop
            }
            let expr: String = (lp.expr.0..lp.expr.1)
                .map(|k| pf.text(src, k))
                .collect::<Vec<_>>()
                .join("")
                .to_ascii_lowercase();
            if !ROW_HINTS.iter().any(|h| expr.contains(h)) {
                continue;
            }
            if file.is_test_line(lp.line) {
                continue;
            }
            out.push(Violation {
                rule: RULE,
                path: file.path.clone(),
                line: lp.line,
                message: format!(
                    "`{}` is reachable from a collection root and iterates sampled rows \
                     (`for … in {}`) without charging the collect budget on this path \
                     (`work +=` / `probes +=` / a `*charge*` call), and not every caller \
                     charges on its behalf",
                    f.name,
                    (lp.expr.0..lp.expr.1)
                        .map(|k| pf.text(src, k))
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                severity: Severity::Error,
                waived: file.is_waived(lp.line, RULE),
            });
        }
    }
    out
}

/// Does the node's body charge work itself?
fn node_charges(ws: &Workspace, node_id: usize) -> bool {
    let node = &ws.graph.nodes[node_id];
    let pf = &ws.parsed[node.file];
    let src = &ws.files[node.file].raw;
    let Some((open, close)) = pf.fns[node.fn_idx].body else {
        return false;
    };
    // `work +=` / `probes +=` counter bumps
    for i in open..close.min(pf.toks.len()) {
        if pf.toks[i].kind == crate::tokens::TokKind::Ident
            && CHARGE_COUNTERS.contains(&pf.text(src, i))
            && pf.is_punct(src, i + 1, "+=")
        {
            return true;
        }
    }
    // `charge_*()` / `*_charge()` calls
    pf.call_sites(src, open, close)
        .iter()
        .any(|c| c.name.to_ascii_lowercase().contains("charge"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lint(srcs: &[&str]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| SourceFile::from_source(format!("f{i}.rs"), s.to_string()))
            .collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        let ws = Workspace::new(&refs);
        run(&ws, None).into_iter().filter(|v| !v.waived).collect()
    }

    #[test]
    fn uncharged_row_loop_on_collection_path_fires() {
        let v = lint(&["fn collect_stats(rows: &[u64]) -> u64 {\n\
             let mut acc = 0;\n\
             for r in rows { acc += *r; }\n\
             acc\n}\n"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("collect_stats"), "{v:?}");
    }

    #[test]
    fn local_charge_is_clean() {
        let v = lint(
            &["fn collect_stats(rows: &[u64], work: &mut f64) -> u64 {\n\
             let mut acc = 0;\n\
             for r in rows { acc += *r; }\n\
             *work += rows.len() as f64;\n\
             acc\n}\n"],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn helper_covered_when_all_callers_charge() {
        let v = lint(&["fn collect_stats(rows: &[u64]) -> u64 {\n\
             let r = eval_rows(rows);\n\
             charge_budget(rows.len());\n\
             r\n}\n\
             fn eval_rows(rows: &[u64]) -> u64 {\n\
             let mut acc = 0;\n\
             for r in rows { acc += *r; }\n\
             acc\n}\n"]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn helper_with_an_uncharged_caller_fires() {
        let v = lint(&[
            "fn collect_stats(rows: &[u64]) -> u64 { eval_rows(rows) }\n\
             fn eval_rows(rows: &[u64]) -> u64 {\n\
             let mut acc = 0;\n\
             for r in rows { acc += *r; }\n\
             acc\n}\n",
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("eval_rows"), "{v:?}");
    }

    #[test]
    fn unreachable_fns_are_ignored() {
        let v = lint(&["fn render(rows: &[u64]) { for r in rows { show(*r); } }\n"]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_flags_but_suppresses() {
        let v = lint(&["fn collect_stats(rows: &[u64]) -> u64 {\n\
             let mut acc = 0;\n\
             // jits-lint: allow(work-charging) -- cost is O(1), rows.len() <= 2\n\
             for r in rows { acc += *r; }\n\
             acc\n}\n"]);
        assert!(v.is_empty(), "{v:?}");
    }
}

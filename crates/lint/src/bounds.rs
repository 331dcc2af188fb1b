//! Batch-executor bounds pass.
//!
//! The batch executor indexes dense `FrameColumn` buffers (`vals`,
//! `validity`) and selection vectors (`sel`) with row positions computed
//! far from the buffers themselves — pair lists from joins, permutations
//! from ORDER BY. An out-of-range position is a panic in debug and a
//! logic bomb under `get_unchecked`-style future optimizations, so every
//! such index must be *dominated by a guard*:
//!
//! - the index variable is bound by a `for … in 0..len` / `.enumerate()`
//!   loop in the same function (a bounded range — accepted by variable
//!   name, a deliberate shadowing heuristic);
//! - the same statement already indexed the validity bitmap (`validity[i]
//!   && vals[i]` — the bitmap access proves the bound);
//! - an earlier `assert!`/`debug_assert!` in the function mentions the
//!   index variable with a `<`/`<=` bound;
//! - an earlier `idx < …` / `idx >= …` comparison guards the path.
//!
//! Suspicious buffers are: identifiers destructured from `FrameValues::`
//! patterns, loop variables iterating `…sel` collections, `.vals` /
//! `.validity` / `.sel` field accesses, and — as locals or fields — the
//! dictionary `codes` of a string column and the `verdict` tables indexed
//! by them (a code is as far from its table as a join's pair position).
//!
//! Waive with `// jits-lint: allow(batch-bounds)`.

use crate::tokens::TokKind;
use crate::{Severity, Violation, Workspace};
use std::collections::BTreeSet;

/// The rule slug for waivers.
pub const RULE: &str = "batch-bounds";

/// Field names that are FrameColumn buffers / selection vectors.
const BUFFER_FIELDS: &[&str] = &["validity", "sel", "vals"];

/// Names that are suspicious as locals and as fields alike: a string
/// column's dictionary `codes` (indexed by row id) and the per-entry
/// `verdict` tables filters index with those codes.
const CODE_BUFFERS: &[&str] = &["codes", "verdict"];

/// Runs the pass. `scope` restricts findings to the given repo-relative
/// paths (`None` checks every file — fixture mode). Returns every finding,
/// including waived ones (flagged `waived: true`).
pub fn run(ws: &Workspace, scope: Option<&[&str]>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, pf) in ws.parsed.iter().enumerate() {
        let file = ws.files[fi];
        if let Some(paths) = scope {
            if !paths.contains(&file.path.as_str()) {
                continue;
            }
        }
        let src = &file.raw;
        for (gi, f) in pf.fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            if file.is_test_line(f.line) {
                continue;
            }
            let loops = pf.for_loops(src, open, close);

            // buffers this function can index out of bounds
            let mut buffers: BTreeSet<String> = BTreeSet::new();
            // `FrameValues::Int(vals)` destructures
            for i in open..close.min(pf.toks.len()) {
                if pf.toks[i].kind == TokKind::Ident
                    && pf.text(src, i) == "FrameValues"
                    && pf.is_punct(src, i + 1, "::")
                    && pf.toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                    && pf.is_punct(src, i + 3, "(")
                {
                    let mut k = i + 4;
                    while k < close && !pf.is_punct(src, k, ")") {
                        if pf.toks[k].kind == TokKind::Ident {
                            buffers.insert(pf.text(src, k).to_string());
                        }
                        k += 1;
                    }
                }
            }
            // loop variables iterating a `…sel` collection
            for lp in &loops {
                let over_sel = (lp.expr.0..lp.expr.1)
                    .any(|k| pf.toks[k].kind == TokKind::Ident && pf.text(src, k) == "sel");
                if over_sel {
                    buffers.extend(lp.vars.iter().cloned());
                }
            }

            for site in pf.index_sites(src, open, close) {
                if pf.enclosing_fn(site.tok) != Some(gi) {
                    continue; // a nested fn owns this site
                }
                let suspicious = buffers.contains(&site.base)
                    || (site.base_is_field && BUFFER_FIELDS.contains(&site.base.as_str()))
                    || CODE_BUFFERS.contains(&site.base.as_str());
                if !suspicious {
                    continue;
                }
                if file.is_test_line(site.line) {
                    continue;
                }
                // index identifiers (for the guard checks)
                let idx_idents: Vec<&str> = (site.index.0..site.index.1)
                    .filter(|&k| pf.toks[k].kind == TokKind::Ident)
                    .map(|k| pf.text(src, k))
                    .collect();

                // guard 1: single-ident index bound by a range/enumerate loop
                let single = (site.index.1 - site.index.0 == 1)
                    .then(|| idx_idents.first().copied())
                    .flatten();
                if let Some(v) = single {
                    let bounded = loops.iter().any(|lp| {
                        (lp.is_range || lp.has_enumerate)
                            && lp.vars.iter().any(|x| x == v)
                            && lp.body.0 < site.tok
                    });
                    if bounded {
                        continue;
                    }
                }
                // guard 2: same statement already probed the validity bitmap
                let st = pf.stmt_start(src, site.tok, open);
                let validity_first = (st..site.tok).any(|k| {
                    pf.toks[k].kind == TokKind::Ident
                        && pf.text(src, k) == "validity"
                        && pf.is_punct(src, k + 1, "[")
                });
                if validity_first && site.base != "validity" {
                    continue;
                }
                // guard 3: earlier assert mentioning the index ident with </<=
                if assert_guards(pf, src, open, site.tok, &idx_idents) {
                    continue;
                }
                // guard 4: earlier explicit `idx <` / `idx <=` / `idx >=`
                let compared = !idx_idents.is_empty()
                    && (open..site.tok).any(|k| {
                        pf.toks[k].kind == TokKind::Ident
                            && idx_idents.contains(&pf.text(src, k))
                            && (pf.is_punct(src, k + 1, "<")
                                || pf.is_punct(src, k + 1, "<=")
                                || pf.is_punct(src, k + 1, ">="))
                    });
                if compared {
                    continue;
                }
                out.push(Violation {
                    rule: RULE,
                    path: file.path.clone(),
                    line: site.line,
                    message: format!(
                        "unchecked index `{}[…]` into a FrameColumn buffer / selection \
                         vector in `{}`; dominate it with a validity-bitmap probe, a \
                         length assert, or a bounded-range loop variable",
                        site.base, f.name,
                    ),
                    severity: Severity::Error,
                    waived: file.is_waived(site.line, RULE),
                });
            }
        }
    }
    out
}

/// True if an `assert!`-family macro earlier in the body (tokens
/// `[open, before)`) mentions one of the index identifiers together with a
/// `<` / `<=` bound.
fn assert_guards(
    pf: &crate::parse::ParsedFile,
    src: &str,
    open: usize,
    before: usize,
    idx_idents: &[&str],
) -> bool {
    if idx_idents.is_empty() {
        return false;
    }
    for i in open..before {
        if pf.toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = pf.text(src, i);
        if !matches!(
            name,
            "assert" | "debug_assert" | "assert_eq" | "debug_assert_eq"
        ) || !pf.is_punct(src, i + 1, "!")
            || !pf.is_punct(src, i + 2, "(")
        {
            continue;
        }
        // matching close paren of the macro args
        let mut depth = 0i32;
        let mut end = None;
        for k in i + 2..before.max(i + 3).min(pf.toks.len()) {
            match pf.toks[k].text(src) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { continue };
        let mentions = (i + 3..end)
            .any(|k| pf.toks[k].kind == TokKind::Ident && idx_idents.contains(&pf.text(src, k)));
        let bounded = (i + 3..end).any(|k| pf.is_punct(src, k, "<") || pf.is_punct(src, k, "<="));
        if mentions && bounded {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lint(src: &str) -> Vec<Violation> {
        let files = [SourceFile::from_source("f0.rs".into(), src.to_string())];
        let refs: Vec<&SourceFile> = files.iter().collect();
        let ws = Workspace::new(&refs);
        run(&ws, None).into_iter().filter(|v| !v.waived).collect()
    }

    #[test]
    fn unchecked_closure_index_into_sel_fires() {
        let v = lint(
            "fn pick(batch: &Batch, pairs: &[(usize, usize)]) -> Vec<u64> {\n\
             let mut out = Vec::new();\n\
             for s in &batch.sel {\n\
             out.extend(pairs.iter().map(|&(b, _)| s[b]));\n\
             }\n\
             out\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`s[…]`"), "{v:?}");
    }

    #[test]
    fn range_loop_variable_is_accepted() {
        let v = lint(
            "fn pick(fc: &FrameColumn, n: usize) -> usize {\n\
             let mut live = 0;\n\
             for t in 0..n {\n\
             if fc.validity[t] { live += 1; }\n\
             }\n\
             live\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn validity_probe_in_same_statement_accepts_vals() {
        let v = lint(
            "fn read(fc: &FrameColumn, s: usize) -> bool {\n\
             match &fc.values {\n\
             FrameValues::Int(vals) => fc.validity[s] && vals[s] > 0,\n\
             _ => false,\n\
             }\n}\n",
        );
        // `vals[s]` rides on the same-statement `validity[s]` probe, but the
        // `validity[s]` probe itself has no bound on `s` and must fire
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`validity[…]`"), "{v:?}");
    }

    #[test]
    fn length_assert_is_accepted() {
        let v = lint(
            "fn permute(sel: &mut Vec<Vec<u64>>, perm: &[usize], len: usize) {\n\
             debug_assert!(perm.iter().all(|&i| i < len));\n\
             for s in sel.iter_mut() {\n\
             let r: Vec<u64> = perm.iter().map(|&i| s[i]).collect();\n\
             *s = r;\n\
             }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn explicit_comparison_is_accepted() {
        let v = lint(
            "fn read(fc: &FrameColumn, t: usize) -> bool {\n\
             if t >= fc.len() { return false; }\n\
             fc.validity[t]\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn code_lookups_fire_as_locals_and_fields() {
        let v = lint(
            "fn filter(dict: &Dict, verdict: &[bool], rows: &[u32], keep: &mut [bool]) {\n\
             let codes = dict.codes;\n\
             for (k, &r) in keep.iter_mut().zip(rows) {\n\
             *k = verdict[codes[r as usize] as usize] && dict.codes[r as usize] > 0;\n\
             }\n\
             }\n",
        );
        let bases: Vec<&str> = v
            .iter()
            .filter_map(|x| x.message.split('`').nth(1))
            .collect();
        assert_eq!(bases, ["verdict[…]", "codes[…]", "codes[…]"], "{v:?}");
    }

    #[test]
    fn code_lookups_accept_a_row_bound_assert() {
        let v = lint(
            "fn filter(codes: &[u32], verdict: &[bool], rows: &[u32], keep: &mut [bool]) {\n\
             debug_assert!(rows.iter().all(|&r| codes\n\
             .get(r as usize).is_some_and(|&c| (c as usize) < verdict.len())));\n\
             for (k, &r) in keep.iter_mut().zip(rows) {\n\
             *k = verdict[codes[r as usize] as usize];\n\
             }\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_limits_to_paths() {
        let files = [SourceFile::from_source(
            "crates/executor/src/exec.rs".into(),
            "fn pick(batch: &Batch, pairs: &[(usize, usize)]) -> Vec<u64> {\n\
             let mut out = Vec::new();\n\
             for s in &batch.sel {\n\
             out.extend(pairs.iter().map(|&(b, _)| s[b]));\n\
             }\n\
             out\n}\n"
                .into(),
        )];
        let refs: Vec<&SourceFile> = files.iter().collect();
        let ws = Workspace::new(&refs);
        let v: Vec<Violation> = run(&ws, Some(&["crates/executor/src/batch.rs"]))
            .into_iter()
            .filter(|x| !x.waived)
            .collect();
        assert!(v.is_empty(), "{v:?}");
    }
}

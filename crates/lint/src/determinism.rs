//! Determinism pass: hash-order iteration.
//!
//! The paper's premise is that statistics collected just-in-time make plans
//! *reproducible*: the same workload against the same data must collect the
//! same statistics and pick the same plans. Iterating a `HashMap`/`HashSet`
//! in stats-bearing crates leaks hash order into statistics. Lookups
//! (`get`/`contains_key`/`entry`) are fine; `iter`/`keys`/`values`/`drain`/
//! `retain`/`for … in` are not. Stats containers use `BTreeMap`, or sort
//! before iterating (with a waiver).
//!
//! The other determinism guarantees are clippy's: `clippy.toml` disallows
//! wall-clock reads (`Instant::now`, `SystemTime::now`) and the
//! entropy-seeded `RandomState`.
//!
//! Waive with `// jits-lint: allow(hash-iteration)`.

use crate::source::SourceFile;
use crate::{Severity, Violation};
use std::collections::BTreeSet;

/// Rule slug.
pub const RULE_HASH_ITERATION: &str = "hash-iteration";

/// Runs the pass over the files under `crates/<k>/src` for one of
/// `hash_crates` (`None`: every file given). Returns every finding,
/// including waived ones (flagged `waived: true`).
pub fn run(files: &[&SourceFile], hash_crates: Option<&[&str]>) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        let in_scope = hash_crates.is_none_or(|crates| {
            crates
                .iter()
                .any(|k| file.path.starts_with(&format!("crates/{k}/src")))
        });
        if in_scope {
            hash_iteration(file, &mut out);
        }
    }
    out
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Methods whose results depend on hash iteration order.
const ITERATING_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Finds identifiers declared with a `HashMap`/`HashSet` type in this file,
/// then flags order-observing uses of them.
fn hash_iteration(file: &SourceFile, out: &mut Vec<Violation>) {
    let names = hash_typed_names(&file.code);
    if names.is_empty() {
        return;
    }
    let code = &file.code;
    let b = code.as_bytes();
    for name in &names {
        let mut search = 0usize;
        while let Some(rel) = code[search..].find(name.as_str()) {
            let at = search + rel;
            search = at + name.len();
            let end = at + name.len();
            // a preceding `.` is fine: `s.counts.iter()` is a field access
            let before_ok = at == 0 || !is_ident(b[at - 1]);
            let after_ok = end >= b.len() || !is_ident(b[end]);
            if !before_ok || !after_ok {
                continue;
            }
            // allow an index expression between the name and the method:
            // `freq[c].iter()`
            let mut q = end;
            if q < b.len() && b[q] == b'[' {
                let mut depth = 0i32;
                while q < b.len() {
                    match b[q] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                q += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    q += 1;
                }
            }
            let method = ITERATING_METHODS.iter().find(|m| code[q..].starts_with(*m));
            let for_loop = method.is_none() && is_for_in_target(code, at);
            let Some(kind) = method
                .map(|m| m.trim_matches(['.', '(', ')']))
                .or(if for_loop { Some("for … in") } else { None })
            else {
                continue;
            };
            let line = file.line_of(at);
            if file.is_test_line(line) {
                continue;
            }
            out.push(Violation {
                rule: RULE_HASH_ITERATION,
                path: file.path.clone(),
                line,
                message: format!(
                    "`{name}` is declared as a HashMap/HashSet in this file and `{kind}` \
                     observes its hash order; use a BTreeMap/BTreeSet or sort first",
                ),
                severity: Severity::Error,
                waived: file.is_waived(line, RULE_HASH_ITERATION),
            });
        }
    }
}

/// True if the identifier at `at` is the target of a `for … in` loop
/// (possibly behind `&` / `&mut`).
fn is_for_in_target(code: &str, at: usize) -> bool {
    let b = code.as_bytes();
    let mut j = at;
    // skip backward over whitespace, `&`, and `mut`
    loop {
        while j > 0 && (b[j - 1].is_ascii_whitespace() || b[j - 1] == b'&') {
            j -= 1;
        }
        if j >= 3 && &code[j - 3..j] == "mut" && (j == 3 || !is_ident(b[j - 4])) {
            j -= 3;
            continue;
        }
        break;
    }
    j >= 2 && &code[j - 2..j] == "in" && (j == 2 || !is_ident(b[j - 3]))
}

/// Identifiers declared in this file with a hash-ordered collection type
/// (shared with the float-determinism pass, which flags float reductions
/// over the same containers).
///
/// Heuristic, line-based: a line mentioning `HashMap`/`HashSet` declares the
/// identifier bound by its `let`, or annotated by the nearest preceding
/// `name:` on the line (covering struct fields and fn parameters). Values
/// produced by function calls are not tracked — keeping declarations local
/// is part of the contract.
pub(crate) fn hash_typed_names(code: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in code.lines() {
        let Some(pos) = line.find("HashMap").or_else(|| line.find("HashSet")) else {
            continue;
        };
        let head = &line[..pos];
        if head.trim_end().ends_with("use") || head.contains("use ") {
            continue; // `use std::collections::HashMap;`
        }
        let lb = head.as_bytes();
        if let Some(let_pos) = head.find("let ") {
            // `let mut name = HashMap::new()` / `let name: HashMap<…> = …`
            let rest = head[let_pos + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
            }
            continue;
        }
        // `name: HashMap<…>` (field or parameter): nearest single `:` before
        // the type, identifier right before it
        let mut colon = None;
        for (i, &c) in lb.iter().enumerate().rev() {
            if c == b':' {
                let double = (i > 0 && lb[i - 1] == b':') || lb.get(i + 1) == Some(&b':');
                if !double {
                    colon = Some(i);
                    break;
                }
            }
        }
        let Some(colon) = colon else { continue };
        let mut j = colon;
        while j > 0 && lb[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        let mut s = j;
        while s > 0 && is_ident(lb[s - 1]) {
            s -= 1;
        }
        if s < j {
            names.insert(head[s..j].to_string());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        let f = SourceFile::from_source("crates/jits/src/t.rs".into(), src.into());
        run(&[&f], None).into_iter().filter(|v| !v.waived).collect()
    }

    fn run_repo_scope(path: &str, src: &str) -> Vec<Violation> {
        let f = SourceFile::from_source(path.into(), src.into());
        run(&[&f], Some(crate::HASH_ORDER_CRATES))
            .into_iter()
            .filter(|v| !v.waived)
            .collect()
    }

    #[test]
    fn hash_iteration_flagged_for_let_and_field() {
        let v = lint(
            "struct S { counts: HashMap<u32, f64> }\n\
             fn f(s: &S) { for (k, c) in s.counts.iter() { use_(k, c); } }\n\
             fn g() { let mut m = HashMap::new(); m.insert(1, 2); for k in m.keys() {} }\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == RULE_HASH_ITERATION));
    }

    #[test]
    fn hash_lookup_is_fine() {
        let v = lint(
            "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); m.insert(1, 2); \
             let _ = m.get(&1); let _ = m.entry(3).or_default(); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn for_in_with_reference_flagged() {
        let v = lint("fn f(m: &HashMap<u32, u32>) { for (k, v) in m { use_(k, v); } }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn indexed_vec_of_hashmaps_flagged() {
        let v = lint(
            "fn f(freq: &[HashMap<u32, f64>], c: usize) { let freq = freq; \
             for e in freq[c].iter() { use_(e); } }\n",
        );
        // `freq` is declared via the parameter annotation
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn waiver_suppresses_hash_iteration() {
        let v = lint(
            "fn f(m: &HashMap<u32, u32>) {\n\
             // jits-lint: allow(hash-iteration) -- sorted below\n\
             let mut v: Vec<_> = m.iter().collect();\n\
             v.sort();\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn btreemap_is_not_flagged() {
        let v = lint("fn f(m: &BTreeMap<u32, u32>) { for (k, v) in m.iter() { use_(k, v); } }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hash_scope_limits_to_crates() {
        let v = run_repo_scope(
            "crates/query/src/parse.rs",
            "fn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hash_scope_covers_executor() {
        let v = run_repo_scope(
            "crates/executor/src/batch.rs",
            "fn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }
}

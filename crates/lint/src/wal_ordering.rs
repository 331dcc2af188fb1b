//! WAL-ordering pass.
//!
//! Durability is write-ahead or it is nothing: every engine entry point
//! that mutates durable state (catalog, tables, the statistics plane's
//! logical clock) must put its log record on disk *before* the first
//! in-memory mutation, so a crash between the two leaves a log that
//! replays to a superset — never a subset — of the surviving state
//! (DESIGN §14). `cargo test` can only probe the crash points it injects;
//! this pass proves the ordering for every durable entry point statically:
//!
//! - **functions in scope**: the named durable entry points
//!   ([`DURABLE_FNS`]) — the `Database` / `SharedDatabase` / `Session`
//!   mutator surface. A new durable mutator must be added to the list when
//!   it is introduced (the DESIGN §14 checklist), and is then held to the
//!   same contract forever.
//! - **append markers**: a call to `wal_append(` / `wal_append_lossy(`, or
//!   `append(` / `append_lossy(` / `checkpoint(` invoked on a receiver whose
//!   name contains `wal`. A front-end that delegates to a durable entry
//!   point by path (`pipeline::execute(…)`) inherits that function's
//!   contract, so the delegating call counts as its append: the callee is in
//!   scope and held to the rule itself.
//! - **mutation markers**: method calls that change durable components
//!   (`create`, `add_index`, `set_primary_key`, `insert`, `reset_udi`,
//!   `clear`, `migrate`, `push`), and logical-clock bumps (`clock += …`,
//!   `clock.fetch_add(`, a store's `tick(`). Guard *acquisition* (`timed_write(`) is not a
//!   mutation: shared-mode entry points deliberately take their write
//!   guards first and append under them, so log order matches mutation
//!   order.
//! - **the rule**: each in-scope function must contain an append marker,
//!   and its first append marker must precede its first mutation marker.
//!
//! Waive with `// jits-lint: allow(wal-ordering)` — e.g. for a mutator
//! that is deliberately volatile (never logged, rebuilt on recovery).

use crate::parse::CallKind;
use crate::{Severity, Violation, Workspace};

/// The rule slug for waivers.
pub const RULE: &str = "wal-ordering";

/// The durable mutator surface of the engine. Every function with one of
/// these names (in scope) must log before it mutates.
pub const DURABLE_FNS: &[&str] = &[
    "execute",
    "explain",
    "create_table",
    "create_index",
    "set_primary_key",
    "load_rows",
    "set_setting",
    "reset_udi",
    "runstats_all",
    "precollect_query_stats",
    "migrate_statistics",
    "clear_statistics",
];

/// Calls that put (or schedule) a record in the write-ahead log.
const APPEND_FNS: &[&str] = &["wal_append", "wal_append_lossy"];

/// Calls that append when invoked on a WAL receiver (`wal.append(…)`).
const APPEND_METHODS_ON_WAL: &[&str] = &["append", "append_lossy", "checkpoint"];

/// Method calls that mutate durable components.
const MUTATION_CALLS: &[&str] = &[
    "create",
    "add_index",
    "set_primary_key",
    "insert",
    "reset_udi",
    "clear",
    "migrate",
    "push",
    "tick",
];

/// Runs the pass. `scope` limits which files are *reported on* (repo mode:
/// the engine crate); `None` means every file (fixture mode).
pub fn run(ws: &Workspace, scope: Option<&[&str]>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, pf) in ws.parsed.iter().enumerate() {
        let file = ws.files[fi];
        if let Some(prefixes) = scope {
            if !prefixes.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
        }
        let src = &file.raw;
        for f in &pf.fns {
            if !DURABLE_FNS.contains(&f.name.as_str()) {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            if file.is_test_line(f.line) {
                continue;
            }
            let first_append = first_append_tok(ws, fi, open, close);
            let first_mutation = first_mutation_tok(ws, fi, open, close);
            let (line, message) = match (first_append, first_mutation) {
                (None, _) => (
                    f.line,
                    format!(
                        "durable mutator `{}` never appends to the write-ahead log; \
                         a crash after it runs silently loses the mutation on replay \
                         — append a WAL record first, or waive a deliberately \
                         volatile mutator",
                        f.name
                    ),
                ),
                (Some(a), Some(m)) if m < a => (
                    pf.toks[m].line,
                    format!(
                        "durable mutator `{}` mutates state (`{}`, line {}) before \
                         its first WAL append (line {}); a crash between the two \
                         loses the mutation — the append must dominate every \
                         durable write",
                        f.name,
                        pf.text(src, m),
                        pf.toks[m].line,
                        pf.toks[a].line,
                    ),
                ),
                _ => continue,
            };
            out.push(Violation {
                rule: RULE,
                path: file.path.clone(),
                line,
                message,
                severity: Severity::Error,
                waived: file.is_waived(line, RULE) || file.is_waived(f.line, RULE),
            });
        }
    }
    out
}

/// Token index of the first append marker in the body, if any.
fn first_append_tok(ws: &Workspace, fi: usize, open: usize, close: usize) -> Option<usize> {
    let pf = &ws.parsed[fi];
    let src = &ws.files[fi].raw;
    pf.call_sites(src, open, close)
        .into_iter()
        .find(|c| {
            if APPEND_FNS.contains(&c.name.as_str()) {
                return true;
            }
            if DURABLE_FNS.contains(&c.name.as_str()) && matches!(c.kind, CallKind::Path(_)) {
                return true; // delegation to a durable entry point
            }
            if APPEND_METHODS_ON_WAL.contains(&c.name.as_str()) {
                if let CallKind::Method(Some(recv)) = &c.kind {
                    return recv.contains("wal");
                }
            }
            false
        })
        .map(|c| c.tok)
}

/// Token index of the first mutation marker in the body, if any: a method
/// call from [`MUTATION_CALLS`], a `clock += …`, or a `clock.fetch_add(`.
fn first_mutation_tok(ws: &Workspace, fi: usize, open: usize, close: usize) -> Option<usize> {
    let pf = &ws.parsed[fi];
    let src = &ws.files[fi].raw;
    let call = pf
        .call_sites(src, open, close)
        .into_iter()
        .find(|c| {
            let on_clock = matches!(&c.kind, CallKind::Method(Some(r)) if r.contains("clock"));
            if c.name == "fetch_add" {
                return on_clock;
            }
            // mutation verbs count only as method calls: a free `insert(`
            // or `clear(` helper is not necessarily a component write
            MUTATION_CALLS.contains(&c.name.as_str()) && matches!(c.kind, CallKind::Method(_))
        })
        .map(|c| c.tok);
    let bump = (open..close.min(pf.toks.len())).find(|&i| {
        pf.toks[i].kind == crate::tokens::TokKind::Ident
            && pf.text(src, i).contains("clock")
            && pf.is_punct(src, i + 1, "+=")
    });
    match (call, bump) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

//! `jits-lint` — static invariant analyzer for the JITS workspace.
//!
//! The analyzer is built on a real (if deliberately small) analysis core:
//! a hand-rolled Rust tokenizer ([`tokens`]), a lightweight item/expression
//! parser ([`parse`]) producing per-function summaries, and a workspace
//! call graph with transitive closure ([`callgraph`]). The passes enforce
//! the contracts `cargo test` can only probe:
//!
//! 1. **lock-order** ([`lock_order`]): `SharedDatabase` components acquire
//!    in rank order, no guard held across a call that re-acquires the same
//!    component — propagated *interprocedurally* through helpers and
//!    closures via the call graph.
//! 2. **determinism** ([`determinism`]): no wall clocks, hash-order
//!    iteration, unseeded randomness, or wall-time budgets in
//!    statistics-bearing code.
//! 3. **panic-surface** ([`panics`]): `unwrap()`/`expect(`/`panic!` sites
//!    ratcheted against a checked-in allowlist.
//! 4. **epoch-safety** ([`epoch`]): SampleCache-derived artifacts (frame
//!    gathers, predicate bitsets) never deposited or merged without an
//!    exact `mutation_epoch` comparison dominating the site.
//! 5. **work-charging** ([`charging`]): every sampled-row loop reachable
//!    from a collection root charges the collect budget, locally or via
//!    all callers.
//! 6. **float-determinism** ([`float_det`]): no `partial_cmp` comparators
//!    or order-sensitive float accumulation over unordered containers in
//!    stats-bearing crates.
//! 7. **batch-bounds** ([`bounds`]): unchecked indexing into FrameColumn
//!    buffers / selection vectors in the batch executor, and into string
//!    dictionary codes and the verdict tables they index, must be
//!    dominated by a validity or length guard.
//! 8. **wal-ordering** ([`wal_ordering`]): durable engine mutators must
//!    append their write-ahead-log record before the first in-memory
//!    mutation, so a crash between the two never loses a logged change.
//!
//! Individual findings can be waived with an inline comment on the same or
//! previous line: `// jits-lint: allow(rule-name) -- justification`. Every
//! waiver must earn its keep: waivers that suppress nothing are reported as
//! `unused-waiver` warnings and fail `--deny-all`.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod callgraph;
pub mod charging;
pub mod determinism;
pub mod epoch;
pub mod float_det;
pub mod lock_order;
pub mod panics;
pub mod parse;
pub mod source;
pub mod tokens;
pub mod wal_ordering;

use callgraph::CallGraph;
use parse::ParsedFile;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported; fails only under `--deny-all`.
    Warning,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule slug (see [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path (or the literal path given on the command line).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
    /// Suppressed by an inline `jits-lint: allow(…)` waiver. Waived
    /// findings don't fail the run but are kept for `--format json` so
    /// machine consumers see the full picture.
    pub waived: bool,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let waived = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}: {sev}[{}]{waived} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One rule's documentation, served by `--explain` and the DESIGN table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The slug used in findings and waiver comments.
    pub slug: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// Why the invariant exists (what breaks when it is violated).
    pub rationale: &'static str,
}

/// Every rule the analyzer can emit, in stable order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        slug: "lock-order",
        summary: "SharedDatabase components must lock in rank order, and no \
                  guard may be held across a call that re-acquires the same \
                  component (interprocedural, via the call graph)",
        rationale: "two threads acquiring `catalog` and `tables` in opposite \
                    orders deadlock; the runtime rank tracker only catches \
                    orders that tests actually execute, the static pass \
                    catches the rest — including acquisitions reached through \
                    helpers and closures",
    },
    RuleInfo {
        slug: "wall-clock",
        summary: "`Instant::now` / `SystemTime::now` outside the metrics \
                  whitelist",
        rationale: "statistics and plan choices must replay bit-identically; \
                    wall time differs per run, so it may only feed volatile \
                    metrics, never statistics",
    },
    RuleInfo {
        slug: "hash-iteration",
        summary: "iterating a HashMap/HashSet in statistics-bearing crates",
        rationale: "hash iteration order varies per process; any stat or \
                    output derived from it stops being reproducible",
    },
    RuleInfo {
        slug: "unseeded-rng",
        summary: "environment-seeded randomness (thread_rng, OsRng, …)",
        rationale: "sampling must replay exactly from an explicit seed; \
                    entropy-seeded RNGs make every run unique",
    },
    RuleInfo {
        slug: "timed-budget",
        summary: "wall-time reads inside budget/retry/backoff functions",
        rationale: "budgets counted in elapsed time abort at different points \
                    on different machines; counting deterministic work units \
                    keeps budgeted runs replayable",
    },
    RuleInfo {
        slug: "panic-surface",
        summary: "unwrap/expect/panic sites ratcheted against \
                  crates/lint/panic_allowlist.txt",
        rationale: "library crates surface errors as `Result`; the allowlist \
                    freezes the legacy surface so it can only shrink",
    },
    RuleInfo {
        slug: "epoch-safety",
        summary: "SampleCache artifacts (frames, bitsets) deposited or merged \
                  without an exact mutation_epoch comparison dominating the \
                  site",
        rationale: "artifacts are snapshots of a table at one epoch; mixing \
                    epochs silently blends statistics of two table versions \
                    — no test reliably catches it because the rows may agree",
    },
    RuleInfo {
        slug: "work-charging",
        summary: "sampled-row loops reachable from collection roots that \
                  never charge the collect budget (locally or via all \
                  callers)",
        rationale: "an uncharged loop makes the collection budget a lie: the \
                    bound check passes while real cost grows, and budget-\
                    aborted replays diverge",
    },
    RuleInfo {
        slug: "float-determinism",
        summary: "`partial_cmp` comparators, or float accumulation over \
                  hash-ordered containers, in stats-bearing crates",
        rationale: "partial_cmp is not a total order (NaN panics or compares \
                    equal-to-everything) and float addition does not \
                    associate — both leak data- or hash-order into stat bits; \
                    use `f64::total_cmp` and sorted iteration",
    },
    RuleInfo {
        slug: "batch-bounds",
        summary: "unchecked indexing into FrameColumn buffers / selection \
                  vectors / dictionary codes in the batch executor",
        rationale: "join pair lists, sort permutations and dictionary codes \
                    index buffers computed far away; a guard (validity \
                    probe, length assert, bounded loop) must dominate every \
                    such index",
    },
    RuleInfo {
        slug: "wal-ordering",
        summary: "durable engine mutators (execute, DDL, bulk load, stats \
                  admin) must append their WAL record before the first \
                  in-memory mutation",
        rationale: "write-ahead means *ahead*: a mutation applied before its \
                    record is durable vanishes on crash while the engine \
                    believed it was logged; recovery then replays to a state \
                    that never existed — the crash matrix probes injected \
                    points, the static pass proves the ordering everywhere",
    },
    RuleInfo {
        slug: "unused-waiver",
        summary: "a `jits-lint: allow(…)` comment that suppresses nothing",
        rationale: "stale waivers hide future violations at their site; the \
                    audit ratchets the waiver surface the way the panic \
                    allowlist ratchets panic sites (`--prune-waivers` lists \
                    them)",
    },
];

/// Looks up a rule by slug.
pub fn rule_info(slug: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.slug == slug)
}

/// Library crates whose source the determinism and panic passes cover.
/// `bench` and `cli` are measurement/driver binaries (wall-clock timing and
/// `main`-adjacent exits are their job); `proptest`, `criterion` and
/// `parking_lot` are vendored third-party shims; `lint` is this tool.
pub const PRODUCT_CRATES: &[&str] = &[
    "catalog",
    "common",
    "engine",
    "executor",
    "histogram",
    "jits",
    "obs",
    "optimizer",
    "query",
    "storage",
    "workload",
];

/// Crates whose data feeds statistics: `HashMap`/`HashSet` iteration order
/// must never be observable here. `obs` qualifies because its exporters must
/// emit byte-identical output for identical runs (`BTreeMap` only), and
/// `executor` because result rows, work charges, and observations must be
/// bit-identical between the row and batch executors at any thread count.
pub const HASH_ORDER_CRATES: &[&str] =
    &["catalog", "executor", "histogram", "jits", "obs", "storage"];

/// Crates where float comparison and accumulation order reach statistics:
/// the hash-order crates plus `workload`, whose drift detector ranks
/// candidate tables by f64 scores.
pub const FLOAT_ORDER_CRATES: &[&str] = &[
    "catalog",
    "executor",
    "histogram",
    "jits",
    "obs",
    "storage",
    "workload",
];

/// The lock-order pass covers the crate that owns `SharedDatabase` plus the
/// observability crate, whose `registry` lock ranks above every engine
/// component (it may be taken while any engine guard is held, never the
/// reverse).
pub const LOCK_ORDER_CRATES: &[&str] = &["engine", "obs"];

/// Files the work-charging pass reports on in repo mode: the collection
/// driver, the budgeted sampler, and the row-location core whose charge
/// is DML's `exec_work` (the call graph still spans the whole workspace,
/// so coverage-by-caller crosses crates).
pub const CHARGING_SCOPE: &[&str] = &[
    "crates/jits/src/collect.rs",
    "crates/storage/src/sample.rs",
    "crates/executor/src/locate.rs",
];

/// Files the batch-bounds pass reports on in repo mode: the batch executor,
/// the columnar filter it shares with DML row location, and the column
/// store whose dictionary codes both index.
pub const BOUNDS_SCOPE: &[&str] = &[
    "crates/executor/src/batch.rs",
    "crates/executor/src/locate.rs",
    "crates/storage/src/column.rs",
];

/// Files the wal-ordering pass reports on in repo mode: the crate that owns
/// the durable mutator surface.
pub const WAL_ORDER_SCOPE: &[&str] = &["crates/engine/src"];

/// Files allowed to read wall clocks: only the observability clock. Every
/// other wall measurement (lock waits, stage latencies, span durations)
/// goes through `jits_obs::clock::now_nanos`, so OS-clock reads are pinned
/// to a single audited file and can never leak into statistics or plans.
pub const WALL_CLOCK_WHITELIST: &[&str] = &["crates/obs/src/clock.rs"];

/// Files allowed to seed randomness from the environment (none currently:
/// all RNG flows through `jits_common::rng` with explicit seeds).
pub const RNG_WHITELIST: &[&str] = &["crates/common/src/rng.rs"];

/// Shared analysis state for the call-graph passes: the files, their
/// parses, and the workspace call graph — built once per run so every pass
/// sees the same [`SourceFile`] instances (waiver-usage tracking depends on
/// that).
pub struct Workspace<'a> {
    /// The files under analysis.
    pub files: &'a [&'a SourceFile],
    /// `parsed[i]` is the parse of `files[i]`.
    pub parsed: Vec<ParsedFile>,
    /// Name-resolved call graph over every parsed function.
    pub graph: CallGraph,
}

impl<'a> Workspace<'a> {
    /// Parses every file and builds the call graph.
    pub fn new(files: &'a [&'a SourceFile]) -> Workspace<'a> {
        let parsed: Vec<ParsedFile> = files.iter().map(|f| ParsedFile::parse(f)).collect();
        let graph = CallGraph::build(files, &parsed);
        Workspace {
            files,
            parsed,
            graph,
        }
    }
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Active findings (not waived), in file/line order.
    pub violations: Vec<Violation>,
    /// Findings suppressed by inline waivers, same order. Never fail the
    /// run; surfaced by `--format json`.
    pub waived: Vec<Violation>,
}

impl Report {
    /// Number of hard errors.
    pub fn errors(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    pub fn warnings(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warning)
            .count()
    }

    /// True if the run should fail: any error, or any finding at all under
    /// `deny_all`.
    pub fn failed(&self, deny_all: bool) -> bool {
        if deny_all {
            !self.violations.is_empty()
        } else {
            self.errors() > 0
        }
    }

    /// Partitions raw pass output into active/waived, appends the
    /// unused-waiver audit (which must run after every pass has had the
    /// chance to mark its waivers used), and sorts.
    fn finish(mut raw: Vec<Violation>, files: &[&SourceFile]) -> Report {
        for file in files {
            for (line, rule) in file.unused_waivers() {
                raw.push(Violation {
                    rule: "unused-waiver",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "waiver `jits-lint: allow({rule})` suppresses nothing; remove it \
                         (or run `--prune-waivers` to list all stale waivers)"
                    ),
                    severity: Severity::Warning,
                    waived: false,
                });
            }
        }
        let mut report = Report::default();
        for v in raw {
            if v.waived {
                report.waived.push(v);
            } else {
                report.violations.push(v);
            }
        }
        let key = |v: &Violation| (v.path.clone(), v.line, v.rule);
        report.violations.sort_by_key(key);
        report.waived.sort_by_key(key);
        report
    }
}

/// Locates the workspace root from the lint crate's own manifest dir.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// All `.rs` files under `dir`, recursively, sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn load_crate_sources(root: &Path, crates: &[&str]) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        for path in rust_files(&src) {
            let display = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            // binaries may time and exit as they please
            if display.contains("/src/bin/") || display.ends_with("/main.rs") {
                continue;
            }
            if let Ok(f) = SourceFile::load(&path, display) {
                files.push(f);
            }
        }
    }
    files
}

/// Loads every in-scope product-crate source file (used by the CLI's
/// `--update-allowlist` so the inventory matches exactly what the panic
/// pass sees).
pub fn product_sources(root: &Path) -> Vec<SourceFile> {
    load_crate_sources(root, PRODUCT_CRATES)
}

/// True if `file` lives under `crates/<k>/src` for one of `crates`.
fn in_crates(file: &SourceFile, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|k| file.path.starts_with(&format!("crates/{k}/src")))
}

/// Runs all passes over the workspace at `root`.
///
/// `allowlist` is the parsed panic allowlist (path → permitted count); pass
/// the result of [`panics::load_allowlist`]. All passes run over one shared
/// set of [`SourceFile`] instances so waiver usage accumulates across them
/// for the unused-waiver audit.
pub fn run_repo(root: &Path, allowlist: &panics::Allowlist) -> Report {
    let owned = product_sources(root);
    let files: Vec<&SourceFile> = owned.iter().collect();
    let lock_files: Vec<&SourceFile> = files
        .iter()
        .copied()
        .filter(|f| in_crates(f, LOCK_ORDER_CRATES))
        .collect();
    let ws = Workspace::new(&files);

    let mut raw = Vec::new();
    raw.extend(lock_order::run(&lock_files));
    raw.extend(determinism::run(&files, determinism::Config::repo()));
    raw.extend(panics::run(&files, allowlist));
    raw.extend(epoch::run(&ws));
    raw.extend(charging::run(&ws, Some(CHARGING_SCOPE)));
    raw.extend(float_det::run(&ws, Some(FLOAT_ORDER_CRATES)));
    raw.extend(bounds::run(&ws, Some(BOUNDS_SCOPE)));
    raw.extend(wal_ordering::run(&ws, Some(WAL_ORDER_SCOPE)));
    Report::finish(raw, &files)
}

/// Runs all passes over explicitly-given files (fixture mode): every rule
/// applies with no whitelists or scopes, and the panic pass allows nothing.
pub fn run_paths(paths: &[PathBuf]) -> Report {
    let mut io = Vec::new();
    let mut owned = Vec::new();
    for path in paths {
        match SourceFile::load(path, path.to_string_lossy().into_owned()) {
            Ok(f) => owned.push(f),
            Err(e) => io.push(Violation {
                rule: "io",
                path: path.to_string_lossy().into_owned(),
                line: 0,
                message: format!("cannot read file: {e}"),
                severity: Severity::Error,
                waived: false,
            }),
        }
    }
    let files: Vec<&SourceFile> = owned.iter().collect();
    let ws = Workspace::new(&files);

    let mut raw = io;
    raw.extend(lock_order::run(&files));
    raw.extend(determinism::run(&files, determinism::Config::strict()));
    raw.extend(panics::run(&files, &panics::Allowlist::default()));
    raw.extend(epoch::run(&ws));
    raw.extend(charging::run(&ws, None));
    raw.extend(float_det::run(&ws, None));
    raw.extend(bounds::run(&ws, None));
    raw.extend(wal_ordering::run(&ws, None));
    Report::finish(raw, &files)
}

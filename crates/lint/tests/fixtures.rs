//! The fixture suite: every checked-in bad fixture must be flagged, and the
//! repository itself must lint clean. Running this under `cargo test` keeps
//! the analyzer honest in both directions — it cannot silently stop firing
//! (fixtures would pass) and it cannot drift into noise (the repo would
//! fail).

#![forbid(unsafe_code)]

use jits_lint::{
    bounds, charging, epoch, float_det, lock_order, panics, repo_root, run_paths, run_repo,
    wal_ordering, Report, Severity,
};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    repo_root().join("crates/lint/fixtures").join(name)
}

/// Asserts a clean twin produces nothing at all: no active findings, no
/// waived findings, and no stale waivers.
fn assert_totally_clean(report: &Report, name: &str) {
    assert!(
        report.violations.is_empty(),
        "{name} must lint clean: {:#?}",
        report.violations
    );
    assert!(
        report.waived.is_empty(),
        "{name} must not need waivers: {:#?}",
        report.waived
    );
}

#[test]
fn lock_order_fixture_is_flagged() {
    let report = run_paths(&[fixture("lock_order_bad.rs")]);
    let lock: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == lock_order::RULE)
        .collect();
    // out-of-order, re-acquire, direct-method out-of-order, and the
    // interprocedural re-acquire
    assert!(
        lock.len() >= 4,
        "expected >= 4 lock-order findings: {lock:#?}"
    );
    assert!(
        lock.iter().any(|v| v.message.contains("re-acquires")),
        "{lock:#?}"
    );
    assert!(lock.iter().any(|v| v.message.contains("rank")), "{lock:#?}");
    assert!(
        lock.iter().any(|v| v.message.contains("locks_predcache")),
        "interprocedural finding missing: {lock:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn lock_order_registry_fixture_is_flagged() {
    let report = run_paths(&[fixture("lock_order_registry_bad.rs")]);
    let lock: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == lock_order::RULE)
        .collect();
    // registry held across an engine acquisition + registry re-acquire;
    // the metric-under-engine-guard function must stay clean
    assert_eq!(lock.len(), 2, "expected 2 registry findings: {lock:#?}");
    assert!(
        lock.iter()
            .any(|v| v.message.contains("`setting`") && v.message.contains("`registry`")),
        "rank-order finding missing: {lock:#?}"
    );
    assert!(
        lock.iter()
            .any(|v| v.message.contains("re-acquires `registry`")),
        "re-acquire finding missing: {lock:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn lock_order_samplecache_fixture_is_flagged() {
    let report = run_paths(&[fixture("lock_order_samplecache_bad.rs")]);
    let lock: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == lock_order::RULE)
        .collect();
    // samplecache under a held setting guard + samplecache re-acquire; the
    // resolve-window function (tables/history reads first) must stay clean
    assert_eq!(lock.len(), 2, "expected 2 samplecache findings: {lock:#?}");
    assert!(
        lock.iter()
            .any(|v| v.message.contains("`samplecache`") && v.message.contains("`setting`")),
        "rank-order finding missing: {lock:#?}"
    );
    assert!(
        lock.iter()
            .any(|v| v.message.contains("re-acquires `samplecache`")),
        "re-acquire finding missing: {lock:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn determinism_fixture_is_flagged() {
    let report = run_paths(&[fixture("determinism_bad.rs")]);
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"wall-clock"), "{:#?}", report.violations);
    assert!(
        rules.contains(&"hash-iteration"),
        "{:#?}",
        report.violations
    );
    assert!(rules.contains(&"unseeded-rng"), "{:#?}", report.violations);
    assert!(report.failed(false));
}

#[test]
fn wall_clock_fixture_is_flagged() {
    let report = run_paths(&[fixture("wall_clock_bad.rs")]);
    let wall: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "wall-clock")
        .collect();
    // one Instant::now and one SystemTime::now, both outside the
    // single-file obs clock whitelist
    assert_eq!(wall.len(), 2, "{wall:#?}");
    assert!(
        wall.iter().any(|v| v.message.contains("Instant::now")),
        "{wall:#?}"
    );
    assert!(
        wall.iter().any(|v| v.message.contains("SystemTime::now")),
        "{wall:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn wall_clock_clean_twin_passes() {
    let report = run_paths(&[fixture("wall_clock_ok.rs")]);
    assert_totally_clean(&report, "wall_clock_ok.rs");
}

#[test]
fn determinism_hash_executor_fixture_is_flagged() {
    let report = run_paths(&[fixture("determinism_hash_executor_bad.rs")]);
    let hash: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "hash-iteration")
        .collect();
    // the group-by drain (`into_iter`) and the work accumulation (`values`)
    assert_eq!(hash.len(), 2, "{hash:#?}");
    assert!(report.failed(false));
}

#[test]
fn timed_budget_fixture_is_flagged() {
    let report = run_paths(&[fixture("budget_timer_bad.rs")]);
    let timed: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "timed-budget")
        .collect();
    // Instant::now + .elapsed( + Duration::from_ in charge_collect_budget,
    // Duration::from_ in retry_with_backoff; SystemTime::now in
    // unrelated_timing must NOT be flagged by this rule.
    assert_eq!(timed.len(), 4, "{timed:#?}");
    assert!(
        timed
            .iter()
            .all(|v| v.message.contains("budget") || v.message.contains("backoff")),
        "{timed:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn panic_fixture_is_flagged() {
    let report = run_paths(&[fixture("panic_bad.rs")]);
    let sites: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == panics::RULE)
        .collect();
    assert_eq!(sites.len(), 1, "{sites:#?}"); // one per-file count violation
    assert!(
        sites[0].message.contains("3 panic site(s)"),
        "unwrap + panic! + unimplemented!: {}",
        sites[0].message
    );
    assert!(report.failed(false));
}

#[test]
fn lock_order_transitive_fixture_is_flagged() {
    let report = run_paths(&[fixture("lock_order_transitive_bad.rs")]);
    let lock: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == lock_order::RULE)
        .collect();
    // the acquisition is two helpers and a closure away from the holder;
    // the message names both the direct callee and the true origin
    assert_eq!(lock.len(), 1, "expected 1 transitive finding: {lock:#?}");
    assert!(lock[0].message.contains("`rebuild`"), "{lock:#?}");
    assert!(lock[0].message.contains("via `locks_catalog`"), "{lock:#?}");
    assert!(lock[0].message.contains("catalog"), "{lock:#?}");
    assert!(report.failed(false));
}

#[test]
fn lock_order_clean_twin_passes() {
    let report = run_paths(&[fixture("lock_order_ok.rs")]);
    assert_totally_clean(&report, "lock_order_ok.rs");
}

#[test]
fn epoch_fixture_is_flagged() {
    let report = run_paths(&[fixture("epoch_bad.rs")]);
    let ep: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == epoch::RULE)
        .collect();
    // unguarded `.frames.insert(`, `.bitsets.extend(`, and a bare
    // `merge_artifacts` call with no internally-guarded callee in scope
    assert_eq!(ep.len(), 3, "expected 3 epoch findings: {ep:#?}");
    assert!(
        ep.iter().any(|v| v.message.contains("`.frames.insert(`")),
        "{ep:#?}"
    );
    assert!(
        ep.iter().any(|v| v.message.contains("`.bitsets.extend(`")),
        "{ep:#?}"
    );
    assert!(
        ep.iter().any(|v| v.message.contains("`merge_artifacts`")),
        "{ep:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn epoch_clean_twin_passes() {
    let report = run_paths(&[fixture("epoch_ok.rs")]);
    assert_totally_clean(&report, "epoch_ok.rs");
}

#[test]
fn epoch_zonemap_fixture_is_flagged() {
    let report = run_paths(&[fixture("epoch_zonemap_bad.rs")]);
    let ep: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == epoch::RULE)
        .collect();
    // unguarded `.zones.note_insert(` and `.zones.note_delete(`
    assert_eq!(ep.len(), 2, "expected 2 zone-map findings: {ep:#?}");
    assert!(
        ep.iter()
            .any(|v| v.message.contains("`.zones.note_insert(`")),
        "{ep:#?}"
    );
    assert!(
        ep.iter()
            .any(|v| v.message.contains("`.zones.note_delete(`")),
        "{ep:#?}"
    );
    assert!(
        ep.iter().all(|v| v.message.contains("mutation_epoch tick")),
        "{ep:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn epoch_zonemap_clean_twin_passes() {
    let report = run_paths(&[fixture("epoch_zonemap_ok.rs")]);
    assert_totally_clean(&report, "epoch_zonemap_ok.rs");
}

#[test]
fn charging_fixture_is_flagged() {
    let report = run_paths(&[fixture("charging_bad.rs")]);
    let ch: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == charging::RULE)
        .collect();
    // the root's own loop, and the helper whose only caller never charges
    assert_eq!(ch.len(), 2, "expected 2 charging findings: {ch:#?}");
    assert!(
        ch.iter().any(|v| v.message.contains("`collect_group`")),
        "{ch:#?}"
    );
    assert!(
        ch.iter().any(|v| v.message.contains("`eval_rows`")),
        "{ch:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn charging_clean_twin_passes() {
    let report = run_paths(&[fixture("charging_ok.rs")]);
    assert_totally_clean(&report, "charging_ok.rs");
}

#[test]
fn float_det_fixture_is_flagged() {
    let report = run_paths(&[fixture("float_det_bad.rs")]);
    let fd: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == float_det::RULE)
        .collect();
    // a partial_cmp comparator, a `.sum()` over a HashMap, and a `+=`
    // inside a hash-ordered loop
    assert_eq!(fd.len(), 3, "expected 3 float findings: {fd:#?}");
    assert!(
        fd.iter().any(|v| v.message.contains("total_cmp")),
        "{fd:#?}"
    );
    assert!(
        fd.iter().any(|v| v.message.contains("order-sensitive")),
        "{fd:#?}"
    );
    assert!(
        fd.iter().any(|v| v.message.contains("does not associate")),
        "{fd:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn float_det_clean_twin_passes() {
    let report = run_paths(&[fixture("float_det_ok.rs")]);
    assert_totally_clean(&report, "float_det_ok.rs");
}

#[test]
fn bounds_fixture_is_flagged() {
    let report = run_paths(&[fixture("bounds_bad.rs")]);
    let bd: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == bounds::RULE)
        .collect();
    // a selection vector indexed by join pairs, a bare validity probe, a
    // destructured vals buffer indexed by far-away positions, and a verdict
    // table indexed by dictionary codes indexed by row ids
    assert_eq!(bd.len(), 5, "expected 5 bounds findings: {bd:#?}");
    assert!(
        bd.iter().any(|v| v.message.contains("`verdict[…]`")),
        "{bd:#?}"
    );
    assert!(
        bd.iter().any(|v| v.message.contains("`codes[…]`")),
        "{bd:#?}"
    );
    assert!(bd.iter().any(|v| v.message.contains("`s[…]`")), "{bd:#?}");
    assert!(
        bd.iter().any(|v| v.message.contains("`validity[…]`")),
        "{bd:#?}"
    );
    assert!(
        bd.iter().any(|v| v.message.contains("`vals[…]`")),
        "{bd:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn bounds_clean_twin_passes() {
    let report = run_paths(&[fixture("bounds_ok.rs")]);
    assert_totally_clean(&report, "bounds_ok.rs");
}

#[test]
fn wal_ordering_fixture_is_flagged() {
    let report = run_paths(&[fixture("wal_ordering_bad.rs")]);
    let wo: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == wal_ordering::RULE)
        .collect();
    // mutate-then-log DDL, mutate-then-log bulk load, a statement path
    // that never logs, and a clock bump and a store tick ahead of their
    // records
    assert_eq!(wo.len(), 5, "expected 5 wal-ordering findings: {wo:#?}");
    assert!(
        wo.iter()
            .any(|v| v.message.contains("`create_table`") && v.message.contains("before")),
        "{wo:#?}"
    );
    assert!(
        wo.iter()
            .any(|v| v.message.contains("`execute`") && v.message.contains("never appends")),
        "{wo:#?}"
    );
    assert!(
        wo.iter().any(|v| v.message.contains("`runstats_all`")),
        "{wo:#?}"
    );
    assert!(
        wo.iter()
            .any(|v| v.message.contains("`migrate_statistics`") && v.message.contains("`tick`")),
        "{wo:#?}"
    );
    assert!(report.failed(false));
}

#[test]
fn wal_ordering_clean_twin_passes() {
    let report = run_paths(&[fixture("wal_ordering_ok.rs")]);
    assert_totally_clean(&report, "wal_ordering_ok.rs");
}

#[test]
fn stale_waiver_fixture_is_flagged() {
    let report = run_paths(&[fixture("unused_waiver_bad.rs")]);
    let stale: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "unused-waiver")
        .collect();
    assert_eq!(stale.len(), 1, "expected 1 stale waiver: {stale:#?}");
    assert!(
        stale[0].message.contains("suppresses nothing"),
        "{stale:#?}"
    );
    assert_eq!(stale[0].severity, Severity::Warning);
    // warnings pass by default but fail --deny-all
    assert!(!report.failed(false));
    assert!(report.failed(true));
}

#[test]
fn missing_fixture_path_is_an_io_error() {
    let report = run_paths(&[fixture("does_not_exist.rs")]);
    assert!(report.failed(false));
    assert_eq!(report.violations[0].rule, "io");
}

#[test]
fn repository_lints_clean() {
    let root = repo_root();
    let allowlist = panics::load_allowlist(&root.join("crates/lint/panic_allowlist.txt"))
        .expect("panic_allowlist.txt must exist and parse");
    let report = run_repo(&root, &allowlist);
    let errors: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "the workspace must lint clean; fix the findings or waive them with \
         `// jits-lint: allow(rule)` and a justification:\n{errors:#?}"
    );
    // warnings mean the allowlist is stale; keep it tight
    assert!(
        report.warnings() == 0,
        "stale panic allowlist — run `cargo run -p jits-lint -- --update-allowlist`:\n{:#?}",
        report.violations
    );
}

//! What a compile phase writes back around collection: the sample-cache
//! phases before and after a collection pass (resolve which quantifiers
//! are served from the cache, commit fresh draws), and the materialization
//! of collected groups into the QSS archive or the predicate cache.

use crate::analysis::CandidateGroup;
use crate::archive::{QssArchive, RefineOutcome};
use crate::collect::{CollectedStats, DrawnSample, SampleSource};
use crate::config::JitsConfig;
use crate::predcache::{fingerprint, PredicateCache};
use jits_common::TableId;
use jits_query::QueryBlock;
use jits_storage::{CacheLookup, CachedSample, SampleCache, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Staleness limit for serving a cached sample: mutations since the draw
/// over cardinality at the draw (the Algorithm 3 `s2` shape) must be
/// **strictly below** this to serve; past it the caller redraws.
pub const SAMPLE_CACHE_STALENESS: f64 = 0.1;

/// What [`materialize_group`] did with one collected group.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterializeOutcome {
    /// Nothing was materialized (group not collected, or no frame/total).
    Skipped,
    /// The measured selectivity went into the predicate cache.
    Cache,
    /// The observation refined (or created) an archive histogram.
    Histogram(RefineOutcome),
}

/// Pushes one collected group into the archive or the predicate cache.
pub fn materialize_group(
    block: &QueryBlock,
    cand: &CandidateGroup,
    collected: &CollectedStats,
    clock: u64,
    archive: &mut QssArchive,
    predcache: &mut PredicateCache,
) -> MaterializeOutcome {
    let Some(stat) = collected.group(cand.qun, &cand.pred_indices) else {
        return MaterializeOutcome::Skipped;
    };
    let tid = block.quns[cand.qun].table;
    let Some(region) = &stat.region else {
        // no region form (e.g. a `<>` predicate): the auxiliary predicate
        // cache stores the measured selectivity instead (paper §3.4
        // footnote 1)
        let fp = fingerprint(block, &cand.pred_indices);
        predcache.insert(tid, fp, stat.selectivity, clock);
        return MaterializeOutcome::Cache;
    };
    // collected.frames is this statement's own draw (single epoch by
    // construction); the epoch comparison happens at SampleCache
    // commit/lookup, not at archive materialization
    let Some(frame) = collected.frames.get(&cand.colgroup) else {
        return MaterializeOutcome::Skipped;
    };
    let Some(total) = collected.table_rows.get(&tid).copied() else {
        return MaterializeOutcome::Skipped;
    };
    let outcome = archive.apply_observation(
        cand.colgroup.clone(),
        frame,
        region,
        stat.selectivity * total,
        total,
        clock,
    );
    MaterializeOutcome::Histogram(outcome)
}

/// Phase A of the collection fast path: decide, per marked quantifier,
/// whether to serve a cached sample or draw fresh, and capture each table's
/// mutation epoch and cardinality *at resolve time* (the version a fresh
/// draw will be committed under). Decisions are made sequentially in
/// quantifier order, so they are independent of `collect_threads`. With the
/// cache disabled both maps come back empty — exactly the cold path.
pub fn resolve_sample_sources(
    cache: &mut SampleCache,
    block: &QueryBlock,
    sample_quns: &[usize],
    tables: &[Table],
    cfg: &JitsConfig,
) -> (BTreeMap<usize, SampleSource>, BTreeMap<TableId, (u64, u64)>) {
    let mut sources = BTreeMap::new();
    let mut draw_meta = BTreeMap::new();
    if !cfg.sample_cache {
        return (sources, draw_meta);
    }
    for &qun in sample_quns {
        let tid = block.quns[qun].table;
        let Some(table) = tables.get(tid.index()) else {
            continue;
        };
        let epoch = table.mutation_epoch();
        draw_meta.insert(tid, (epoch, table.row_count() as u64));
        let source = match cache.lookup(tid, cfg.sample, epoch, SAMPLE_CACHE_STALENESS) {
            CacheLookup::Hit {
                rows,
                probes,
                staleness,
            } => SampleSource::Served {
                rows,
                probes,
                staleness,
            },
            CacheLookup::Stale { staleness } => SampleSource::Draw {
                staleness: Some(staleness),
            },
            CacheLookup::Miss => SampleSource::Draw { staleness: None },
        };
        sources.insert(qun, source);
    }
    (sources, draw_meta)
}

/// Phase C of the collection fast path: memoize the fresh draws under the
/// epoch captured at resolve time. When several quantifiers of a self-join
/// drew from the same table, the first quantifier's draw wins (lowest qun —
/// `drawn` arrives in quantifier order), keeping the committed entry
/// deterministic.
pub fn commit_drawn_samples(
    cache: &mut SampleCache,
    cfg: &JitsConfig,
    drawn: &[DrawnSample],
    draw_meta: &BTreeMap<TableId, (u64, u64)>,
) {
    if !cfg.sample_cache {
        return;
    }
    let mut committed = BTreeSet::new();
    for d in drawn {
        let Some(&(epoch, rows_at_draw)) = draw_meta.get(&d.table) else {
            continue;
        };
        if !committed.insert(d.table) {
            continue;
        }
        cache.store(
            d.table,
            CachedSample {
                spec: cfg.sample,
                epoch,
                rows_at_draw,
                rows: Arc::clone(&d.rows),
                probes: d.probes,
                hits: 0,
            },
        );
    }
}

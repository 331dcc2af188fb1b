//! Checkpoint payload codec: the full engine state, bytes in and bytes out.
//!
//! A checkpoint must capture everything a replayed record could read —
//! tables, catalog statistics, the QSS archive, StatHistory, predicate and
//! sample caches, the deterministic substrate (clock, RNG stream, setting),
//! the deterministic metric counters, and the q-error aggregates
//! that feed sensitivity scoring. What it deliberately does *not* capture
//! is the flight ring of statement records: those are bounded post-mortem
//! diagnostics, not decision-bearing state, and the durability contract in
//! DESIGN.md §14 excludes them — a recovered engine plans, collects, and
//! scores identically with an empty ring.
//!
//! Sample-cache entries persist whole: spec, row ids, epoch, cardinality
//! at draw, probe cost and hit counts.
//!
//! Archive checksums are likewise not persisted — recovery recomputes them
//! from the restored bucket sets (the checksum is a pure function of
//! logical content), so a corrupt segment fails its CRC instead of
//! resurrecting a poisoned histogram with a matching stored checksum.

use crate::settings::StatsSetting;
use crate::store::EngineState;
use jits::{
    ArchiveSnapshot, CachedSelectivity, EpsilonConfig, HistEntry, HistorySnapshot, JitsConfig,
    PredicateCache, PredicateCacheSnapshot, QssArchive, SensitivityStrategy, StatHistory,
};
use jits_catalog::{Catalog, ColumnStats, TableStats};
use jits_common::{ColGroup, ColumnId, JitsError, Result, SplitMix64, TableId, Value};
use jits_histogram::{EquiDepth, GridLimits, GridSnapshot};
use jits_obs::{MetricSample, Observability, QErrorStat, SampleValue};
use jits_storage::{
    CacheCounters, CachedSample, RowId, SampleCache, SampleSpec, Table, TableSnapshot, ZoneSnapshot,
};
use jits_wal::{Decoder, Encoder};
use std::sync::Arc;

/// Checkpoint payload format version. Version 1 also carried three engine
/// flags that no longer exist; versions 2, 3 and 4 wrote the JITS setting
/// in its 19-, nine- and eight-field layouts (see [`RETIRED_19_FIELD_TAG`],
/// [`RETIRED_NINE_FIELD_TAG`] and [`RETIRED_EIGHT_FIELD_TAG`]). Segments of
/// any of them are refused, not reinterpreted.
const STATE_VERSION: u8 = 5;

/// Setting tag of the retired 19-field `JitsConfig` layout. A payload
/// carrying it (a version-2 checkpoint, or a `SetSetting` record logged
/// before the cut) is refused with a typed error: the layout under
/// [`JITS_TAG`] would misread it.
const RETIRED_19_FIELD_TAG: u8 = 3;

/// Setting tag of the retired nine-field `JitsConfig` layout, which ended
/// in `migrate_every` (now `jits::MIGRATE_EVERY`). Refused like
/// [`RETIRED_19_FIELD_TAG`].
const RETIRED_NINE_FIELD_TAG: u8 = 4;

/// Setting tag of the retired eight-field `JitsConfig` layout, which
/// carried a collection thread count between `collect_budget` and
/// `archive_bucket_budget`. Refused like [`RETIRED_19_FIELD_TAG`].
const RETIRED_EIGHT_FIELD_TAG: u8 = 5;

/// Setting tag of a [`StatsSetting::Jits`] in the seven-field layout.
const JITS_TAG: u8 = 6;

/// What recovery did, surfaced through `Database::recovery_report` and the
/// `jits.recovery.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the checkpoint restored, if one existed.
    pub checkpoint_lsn: Option<u64>,
    /// WAL records re-executed on top of the checkpoint.
    pub replayed_records: u64,
    /// Replayed records whose re-execution returned a statement-level
    /// error (deterministic — the original execution failed identically).
    pub replay_errors: u64,
    /// Bytes of torn WAL tail physically truncated at open.
    pub torn_bytes: u64,
    /// Checkpoint segments that failed validation and were skipped.
    pub corrupt_checkpoints: u32,
}

/// Borrowed view of the [`EngineState`] that [`encode_state`] folds into a
/// checkpoint (a shared database lends it from read guards).
pub(crate) struct StateRefs<'a> {
    pub clock: u64,
    pub rng_state: u64,
    pub setting: &'a StatsSetting,
    pub catalog: &'a Catalog,
    pub tables: &'a [Table],
    pub archive: &'a QssArchive,
    pub history: &'a StatHistory,
    pub predcache: &'a PredicateCache,
    pub samplecache: &'a SampleCache,
}

/// Owned engine state decoded from a checkpoint payload.
pub(crate) struct RestoredState {
    pub state: EngineState,
    /// Deterministic metric readings to restore into the registry.
    pub metrics: Vec<MetricSample>,
    /// Q-error aggregates to restore into the observability state.
    pub qerror: Vec<(String, QErrorStat)>,
}

// ---- small shared helpers ----------------------------------------------

fn put_opt_u32(e: &mut Encoder, v: Option<u32>) {
    match v {
        None => e.put_bool(false),
        Some(v) => {
            e.put_bool(true);
            e.put_u32(v);
        }
    }
}

fn opt_u32(d: &mut Decoder) -> Result<Option<u32>> {
    Ok(if d.bool()? { Some(d.u32()?) } else { None })
}

fn put_opt_value(e: &mut Encoder, v: Option<&Value>) {
    match v {
        None => e.put_bool(false),
        Some(v) => {
            e.put_bool(true);
            e.put_value(v);
        }
    }
}

fn opt_value(d: &mut Decoder) -> Result<Option<Value>> {
    Ok(if d.bool()? { Some(d.value()?) } else { None })
}

fn put_f64s(e: &mut Encoder, vs: &[f64]) {
    e.put_u32(vs.len() as u32);
    for &v in vs {
        e.put_f64(v);
    }
}

fn f64s(d: &mut Decoder) -> Result<Vec<f64>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(d.f64()?);
    }
    Ok(out)
}

fn put_u64s(e: &mut Encoder, vs: &[u64]) {
    e.put_u32(vs.len() as u32);
    for &v in vs {
        e.put_u64(v);
    }
}

fn u64s(d: &mut Decoder) -> Result<Vec<u64>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(d.u64()?);
    }
    Ok(out)
}

fn put_colgroup(e: &mut Encoder, g: &ColGroup) {
    e.put_u32(g.table().0);
    e.put_u32(g.columns().len() as u32);
    for c in g.columns() {
        e.put_u32(c.0);
    }
}

fn colgroup(d: &mut Decoder) -> Result<ColGroup> {
    let table = TableId(d.u32()?);
    let n = d.u32()? as usize;
    let mut cols = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        cols.push(ColumnId(d.u32()?));
    }
    Ok(ColGroup::new(table, cols))
}

// ---- statistics setting -------------------------------------------------

/// Encodes a [`StatsSetting`] — also the payload of the `SetSetting` WAL
/// record, so a replayed setting switch restores the exact configuration.
pub(crate) fn encode_setting(setting: &StatsSetting) -> Vec<u8> {
    let mut e = Encoder::new();
    put_setting(&mut e, setting);
    e.into_bytes()
}

/// Decodes a [`StatsSetting`] payload.
pub(crate) fn decode_setting(bytes: &[u8]) -> Result<StatsSetting> {
    let mut d = Decoder::new(bytes);
    let s = setting(&mut d)?;
    d.finish()?;
    Ok(s)
}

fn put_setting(e: &mut Encoder, s: &StatsSetting) {
    match s {
        StatsSetting::NoStatistics => e.put_u8(0),
        StatsSetting::CatalogOnly => e.put_u8(1),
        StatsSetting::ArchiveReadOnly => e.put_u8(2),
        StatsSetting::Jits(cfg) => {
            e.put_u8(JITS_TAG);
            put_jits_config(e, cfg);
        }
    }
}

fn setting(d: &mut Decoder) -> Result<StatsSetting> {
    Ok(match d.u8()? {
        0 => StatsSetting::NoStatistics,
        1 => StatsSetting::CatalogOnly,
        2 => StatsSetting::ArchiveReadOnly,
        JITS_TAG => StatsSetting::Jits(jits_config(d)?),
        RETIRED_19_FIELD_TAG => {
            return Err(JitsError::Recovery(
                "checkpoint: retired 19-field JITS setting layout".to_string(),
            ))
        }
        RETIRED_NINE_FIELD_TAG => {
            return Err(JitsError::Recovery(
                "checkpoint: retired nine-field JITS setting layout".to_string(),
            ))
        }
        RETIRED_EIGHT_FIELD_TAG => {
            return Err(JitsError::Recovery(
                "checkpoint: retired eight-field JITS setting layout".to_string(),
            ))
        }
        t => {
            return Err(JitsError::Recovery(format!(
                "checkpoint: bad setting tag {t}"
            )))
        }
    })
}

fn put_jits_config(e: &mut Encoder, c: &JitsConfig) {
    match &c.strategy {
        SensitivityStrategy::PaperHeuristic => e.put_u8(0),
        SensitivityStrategy::EpsilonPlanning(eps) => {
            e.put_u8(1);
            e.put_f64(eps.epsilon);
            e.put_f64(eps.threshold);
            e.put_u64(eps.max_iterations as u64);
        }
    }
    e.put_f64(c.s_max);
    e.put_u64(c.sample.size as u64);
    e.put_bool(c.sample_cache);
    e.put_u64(c.collect_budget);
    e.put_u64(c.archive_bucket_budget as u64);
    e.put_f64(c.eviction_uniformity);
}

fn jits_config(d: &mut Decoder) -> Result<JitsConfig> {
    let strategy = match d.u8()? {
        0 => SensitivityStrategy::PaperHeuristic,
        1 => SensitivityStrategy::EpsilonPlanning(EpsilonConfig {
            epsilon: d.f64()?,
            threshold: d.f64()?,
            max_iterations: d.u64()? as usize,
        }),
        t => {
            return Err(JitsError::Recovery(format!(
                "checkpoint: bad strategy tag {t}"
            )))
        }
    };
    Ok(JitsConfig {
        strategy,
        s_max: d.f64()?,
        sample: SampleSpec {
            size: d.u64()? as usize,
        },
        sample_cache: d.bool()?,
        collect_budget: d.u64()?,
        archive_bucket_budget: d.u64()? as usize,
        eviction_uniformity: d.f64()?,
    })
}

// ---- catalog ------------------------------------------------------------

fn put_equidepth(e: &mut Encoder, h: &EquiDepth) {
    put_f64s(e, h.boundaries());
    put_f64s(e, h.counts());
    put_f64s(e, h.distincts());
    e.put_f64(h.total());
}

fn equidepth(d: &mut Decoder) -> Result<EquiDepth> {
    let boundaries = f64s(d)?;
    let counts = f64s(d)?;
    let distincts = f64s(d)?;
    let total = d.f64()?;
    Ok(EquiDepth::from_raw_parts(
        boundaries, counts, distincts, total,
    ))
}

fn put_column_stats(e: &mut Encoder, cs: &ColumnStats) {
    e.put_dtype(cs.dtype);
    put_opt_value(e, cs.min.as_ref());
    put_opt_value(e, cs.max.as_ref());
    e.put_f64(cs.distinct);
    e.put_f64(cs.null_count);
    e.put_f64(cs.row_count);
    e.put_u32(cs.mcv.len() as u32);
    for (v, n) in &cs.mcv {
        e.put_value(v);
        e.put_f64(*n);
    }
    put_equidepth(e, &cs.histogram);
    e.put_u64(cs.collected_at);
}

fn column_stats(d: &mut Decoder) -> Result<ColumnStats> {
    let dtype = d.dtype()?;
    let min = opt_value(d)?;
    let max = opt_value(d)?;
    let distinct = d.f64()?;
    let null_count = d.f64()?;
    let row_count = d.f64()?;
    let nmcv = d.u32()? as usize;
    let mut mcv = Vec::with_capacity(nmcv.min(1024));
    for _ in 0..nmcv {
        let v = d.value()?;
        let n = d.f64()?;
        mcv.push((v, n));
    }
    let histogram = equidepth(d)?;
    let collected_at = d.u64()?;
    Ok(ColumnStats {
        dtype,
        min,
        max,
        distinct,
        null_count,
        row_count,
        mcv,
        histogram,
        collected_at,
    })
}

fn put_catalog(e: &mut Encoder, c: &Catalog) {
    e.put_u32(c.len() as u32);
    for t in c.table_ids().filter_map(|id| c.table(id)) {
        e.put_str(&t.name);
        e.put_schema(&t.schema);
        put_opt_u32(e, t.primary_key.map(|c| c.0));
        e.put_u32(t.indexed_columns.len() as u32);
        for col in &t.indexed_columns {
            e.put_u32(col.0);
        }
        match &t.table_stats {
            None => e.put_bool(false),
            Some(ts) => {
                e.put_bool(true);
                e.put_f64(ts.row_count);
                e.put_u64(ts.collected_at);
            }
        }
        e.put_u32(t.column_stats.len() as u32);
        for cs in &t.column_stats {
            match cs {
                None => e.put_bool(false),
                Some(cs) => {
                    e.put_bool(true);
                    put_column_stats(e, cs);
                }
            }
        }
    }
}

fn catalog(d: &mut Decoder) -> Result<Catalog> {
    let n = d.u32()? as usize;
    let mut c = Catalog::new();
    for _ in 0..n {
        let name = d.str()?;
        let schema = d.schema()?;
        let primary_key = opt_u32(d)?.map(ColumnId);
        let nidx = d.u32()? as usize;
        let mut indexed = Vec::with_capacity(nidx.min(64));
        for _ in 0..nidx {
            indexed.push(ColumnId(d.u32()?));
        }
        let table_stats = if d.bool()? {
            Some(TableStats {
                row_count: d.f64()?,
                collected_at: d.u64()?,
            })
        } else {
            None
        };
        let ncols = d.u32()? as usize;
        let mut column_stats = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            column_stats.push(if d.bool()? {
                Some(self::column_stats(d)?)
            } else {
                None
            });
        }
        let id = c
            .register_table(&name, schema)
            .map_err(|e| JitsError::Recovery(format!("checkpoint: catalog rebuild: {e}")))?;
        let entry = c
            .table_mut(id)
            .ok_or_else(|| JitsError::Recovery("checkpoint: fresh table vanished".into()))?;
        // fields assigned verbatim rather than via set_stats/add_index: the
        // checkpoint may legitimately hold mixed Some/None column stats
        // (statistics migration fills columns one at a time)
        entry.primary_key = primary_key;
        entry.indexed_columns = indexed;
        entry.table_stats = table_stats;
        entry.column_stats = column_stats;
    }
    Ok(c)
}

// ---- storage tables -----------------------------------------------------

/// One table, written straight from its columns, index postings and zone
/// maps by borrowed iteration — no per-row `Vec<Value>`, no `Arc` bump.
/// The bytes are exactly those of the [`TableSnapshot`] layout that
/// [`table_snapshot`] reads back (`tests::put_table_snapshot` is the
/// oracle): slots in `RowId` order, each its cells then its live flag;
/// the UDI triple and epoch; each index in column order with its keys in
/// key order; each zone-map block with its live-row count and per
/// column `(min, max, nulls)`.
fn put_table(e: &mut Encoder, t: &Table) {
    e.put_str(t.name());
    e.put_schema(t.schema());
    let ncols = t.schema().len() as u32;
    e.put_u32(t.slot_count() as u32);
    for row in 0..t.slot_count() as RowId {
        for c in 0..ncols {
            e.put_value_ref(t.cell(row, ColumnId(c)));
        }
        e.put_bool(t.is_live(row));
    }
    let udi = t.udi();
    e.put_u64(udi.inserts);
    e.put_u64(udi.updates);
    e.put_u64(udi.deletes);
    e.put_u64(t.mutation_epoch());
    e.put_u32(t.indexes().len() as u32);
    for (col, idx) in t.indexes() {
        e.put_u32(col.0);
        e.put_u32(idx.distinct_keys() as u32);
        for (key, rows) in idx.entries_in_order() {
            e.put_value_ref(key);
            e.put_u32(rows.len() as u32);
            for &r in rows {
                e.put_u32(r);
            }
        }
    }
    let zones = t.zone_maps();
    e.put_u32(zones.ncols() as u32);
    e.put_u32(zones.block_count() as u32);
    for (live_rows, cols) in zones.blocks() {
        e.put_u32(live_rows);
        e.put_u32(cols.len() as u32);
        for z in cols {
            put_opt_value(e, z.min());
            put_opt_value(e, z.max());
            e.put_u32(z.nulls());
        }
    }
}

fn table_snapshot(d: &mut Decoder) -> Result<TableSnapshot> {
    let name = d.str()?;
    let schema = d.schema()?;
    let ncols = schema.len();
    let nslots = d.u32()? as usize;
    let mut slots = Vec::with_capacity(nslots.min(1 << 20));
    for _ in 0..nslots {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(d.value()?);
        }
        slots.push((row, d.bool()?));
    }
    let udi = (d.u64()?, d.u64()?, d.u64()?);
    let epoch = d.u64()?;
    let nindexes = d.u32()? as usize;
    let mut indexes = Vec::with_capacity(nindexes.min(64));
    for _ in 0..nindexes {
        let col = ColumnId(d.u32()?);
        let nentries = d.u32()? as usize;
        let mut entries = Vec::with_capacity(nentries.min(1 << 20));
        for _ in 0..nentries {
            let key = d.value()?;
            let nrows = d.u32()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                rows.push(d.u32()?);
            }
            entries.push((key, rows));
        }
        indexes.push((col, entries));
    }
    let zncols = d.u32()? as usize;
    let nblocks = d.u32()? as usize;
    let mut blocks = Vec::with_capacity(nblocks.min(1 << 20));
    for _ in 0..nblocks {
        let block = d.u32()?;
        let nbcols = d.u32()? as usize;
        let mut cols = Vec::with_capacity(nbcols.min(1024));
        for _ in 0..nbcols {
            let min = opt_value(d)?;
            let max = opt_value(d)?;
            cols.push((min, max, d.u32()?));
        }
        blocks.push((block, cols));
    }
    Ok(TableSnapshot {
        name,
        schema,
        slots,
        udi,
        epoch,
        indexes,
        zones: ZoneSnapshot {
            ncols: zncols,
            blocks,
        },
    })
}

// ---- QSS archive --------------------------------------------------------

fn put_grid(e: &mut Encoder, g: &GridSnapshot) {
    e.put_u32(g.boundaries.len() as u32);
    for dim in &g.boundaries {
        put_f64s(e, dim);
    }
    put_f64s(e, &g.counts);
    put_u64s(e, &g.stamps);
    e.put_f64(g.total);
    e.put_u32(g.constraints.len() as u32);
    for (ranges, count, stamp) in &g.constraints {
        e.put_u32(ranges.len() as u32);
        for (lo, hi) in ranges {
            e.put_f64(*lo);
            e.put_f64(*hi);
        }
        e.put_f64(*count);
        e.put_u64(*stamp);
    }
    e.put_u64(g.last_used);
    e.put_u64(g.limits.max_boundaries_per_dim as u64);
    e.put_u64(g.limits.max_constraints as u64);
}

fn grid(d: &mut Decoder) -> Result<GridSnapshot> {
    let ndims = d.u32()? as usize;
    let mut boundaries = Vec::with_capacity(ndims.min(64));
    for _ in 0..ndims {
        boundaries.push(f64s(d)?);
    }
    let counts = f64s(d)?;
    let stamps = u64s(d)?;
    let total = d.f64()?;
    let nconstraints = d.u32()? as usize;
    let mut constraints = Vec::with_capacity(nconstraints.min(1 << 12));
    for _ in 0..nconstraints {
        let nranges = d.u32()? as usize;
        let mut ranges = Vec::with_capacity(nranges.min(64));
        for _ in 0..nranges {
            let lo = d.f64()?;
            ranges.push((lo, d.f64()?));
        }
        let count = d.f64()?;
        constraints.push((ranges, count, d.u64()?));
    }
    let last_used = d.u64()?;
    let limits = GridLimits {
        max_boundaries_per_dim: d.u64()? as usize,
        max_constraints: d.u64()? as usize,
    };
    Ok(GridSnapshot {
        boundaries,
        counts,
        stamps,
        total,
        constraints,
        last_used,
        limits,
    })
}

fn put_archive(e: &mut Encoder, s: &ArchiveSnapshot) {
    e.put_u32(s.histograms.len() as u32);
    for (g, grid) in &s.histograms {
        put_colgroup(e, g);
        put_grid(e, grid);
    }
    e.put_u32(s.rebuild.len() as u32);
    for g in &s.rebuild {
        put_colgroup(e, g);
    }
    e.put_u64(s.bucket_budget as u64);
    e.put_f64(s.eviction_uniformity);
}

fn archive(d: &mut Decoder) -> Result<ArchiveSnapshot> {
    let n = d.u32()? as usize;
    let mut histograms = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let g = colgroup(d)?;
        histograms.push((g, grid(d)?));
    }
    let nrebuild = d.u32()? as usize;
    let mut rebuild = Vec::with_capacity(nrebuild.min(1 << 12));
    for _ in 0..nrebuild {
        rebuild.push(colgroup(d)?);
    }
    let bucket_budget = d.u64()? as usize;
    let eviction_uniformity = d.f64()?;
    Ok(ArchiveSnapshot {
        histograms,
        rebuild,
        bucket_budget,
        eviction_uniformity,
    })
}

// ---- history, predicate cache, sample cache -----------------------------

fn put_history(e: &mut Encoder, s: &HistorySnapshot) {
    e.put_u32(s.len() as u32);
    for ((tid, g), entries) in s {
        e.put_u32(tid.0);
        put_colgroup(e, g);
        e.put_u32(entries.len() as u32);
        for h in entries {
            e.put_u32(h.statlist.len() as u32);
            for g in &h.statlist {
                put_colgroup(e, g);
            }
            e.put_u64(h.count);
            e.put_f64(h.error_factor);
        }
    }
}

fn history(d: &mut Decoder) -> Result<HistorySnapshot> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let tid = TableId(d.u32()?);
        let g = colgroup(d)?;
        let nentries = d.u32()? as usize;
        let mut entries = Vec::with_capacity(nentries.min(1 << 12));
        for _ in 0..nentries {
            let nstats = d.u32()? as usize;
            let mut statlist = Vec::with_capacity(nstats.min(64));
            for _ in 0..nstats {
                statlist.push(colgroup(d)?);
            }
            let count = d.u64()?;
            entries.push(HistEntry {
                statlist,
                count,
                error_factor: d.f64()?,
            });
        }
        out.push(((tid, g), entries));
    }
    Ok(out)
}

fn put_predcache(e: &mut Encoder, (capacity, entries): &PredicateCacheSnapshot) {
    e.put_u64(*capacity as u64);
    e.put_u32(entries.len() as u32);
    for ((tid, fp), v) in entries {
        e.put_u32(tid.0);
        e.put_str(fp);
        e.put_f64(v.selectivity);
        e.put_u64(v.stamp);
        e.put_u64(v.last_used);
    }
}

fn predcache(d: &mut Decoder) -> Result<PredicateCacheSnapshot> {
    let capacity = d.u64()? as usize;
    let n = d.u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let tid = TableId(d.u32()?);
        let fp = d.str()?;
        let selectivity = d.f64()?;
        let stamp = d.u64()?;
        entries.push((
            (tid, fp),
            CachedSelectivity {
                selectivity,
                stamp,
                last_used: d.u64()?,
            },
        ));
    }
    Ok((capacity, entries))
}

fn put_samplecache(e: &mut Encoder, c: &SampleCache) {
    let counters = c.counters();
    e.put_u64(counters.hits);
    e.put_u64(counters.misses);
    e.put_u64(counters.stale_redraws);
    let entries: Vec<_> = c.entries().collect();
    e.put_u32(entries.len() as u32);
    for (tid, s) in entries {
        e.put_u32(tid.0);
        e.put_u64(s.spec.size as u64);
        e.put_u64(s.epoch);
        e.put_u64(s.rows_at_draw);
        e.put_u32(s.rows.len() as u32);
        for &r in s.rows.iter() {
            e.put_u32(r);
        }
        e.put_u64(s.probes as u64);
        e.put_u64(s.hits);
    }
}

fn samplecache(d: &mut Decoder) -> Result<SampleCache> {
    let counters = CacheCounters {
        hits: d.u64()?,
        misses: d.u64()?,
        stale_redraws: d.u64()?,
    };
    let n = d.u32()? as usize;
    let mut cache = SampleCache::new();
    for _ in 0..n {
        let tid = TableId(d.u32()?);
        let size = d.u64()? as usize;
        let epoch = d.u64()?;
        let rows_at_draw = d.u64()?;
        let nrows = d.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            rows.push(d.u32()?);
        }
        let probes = d.u64()? as usize;
        let hits = d.u64()?;
        cache.store(
            tid,
            CachedSample {
                spec: SampleSpec { size },
                epoch,
                rows_at_draw,
                rows: Arc::new(rows),
                probes,
                hits,
            },
        );
    }
    cache.restore_counters(counters);
    Ok(cache)
}

// ---- deterministic metrics and q-error aggregates -----------------------

fn put_metrics(e: &mut Encoder, samples: &[MetricSample]) {
    let deterministic: Vec<_> = samples.iter().filter(|s| !s.volatile).collect();
    e.put_u32(deterministic.len() as u32);
    for s in deterministic {
        e.put_str(&s.name);
        match &s.value {
            SampleValue::Counter(v) => {
                e.put_u8(0);
                e.put_u64(*v);
            }
            SampleValue::Gauge(v) => {
                e.put_u8(1);
                e.put_u64(*v);
            }
            SampleValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                e.put_u8(2);
                e.put_u64(*count);
                e.put_u64(*sum);
                e.put_u32(buckets.len() as u32);
                for &(bound, n) in buckets {
                    e.put_u64(bound);
                    e.put_u64(n);
                }
            }
        }
    }
}

fn metrics(d: &mut Decoder) -> Result<Vec<MetricSample>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = d.str()?;
        let value = match d.u8()? {
            0 => SampleValue::Counter(d.u64()?),
            1 => SampleValue::Gauge(d.u64()?),
            2 => {
                let count = d.u64()?;
                let sum = d.u64()?;
                let nbuckets = d.u32()? as usize;
                let mut buckets = Vec::with_capacity(nbuckets.min(64));
                for _ in 0..nbuckets {
                    let bound = d.u64()?;
                    buckets.push((bound, d.u64()?));
                }
                SampleValue::Histogram {
                    count,
                    sum,
                    buckets,
                }
            }
            t => {
                return Err(JitsError::Recovery(format!(
                    "checkpoint: bad metric tag {t}"
                )))
            }
        };
        out.push(MetricSample {
            name,
            volatile: false,
            value,
        });
    }
    Ok(out)
}

fn put_qerror(e: &mut Encoder, stats: &[(String, QErrorStat)]) {
    e.put_u32(stats.len() as u32);
    for (table, s) in stats {
        e.put_str(table);
        e.put_f64(s.last);
        e.put_f64(s.max);
        e.put_u64(s.count);
        e.put_u64(s.mispredicted);
    }
}

fn qerror(d: &mut Decoder) -> Result<Vec<(String, QErrorStat)>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let table = d.str()?;
        let last = d.f64()?;
        let max = d.f64()?;
        let count = d.u64()?;
        out.push((
            table,
            QErrorStat {
                last,
                max,
                count,
                mispredicted: d.u64()?,
            },
        ));
    }
    Ok(out)
}

// ---- top level ----------------------------------------------------------

/// Folds the full engine state, plus the deterministic metrics and q-error
/// aggregates of `obs`, into one checkpoint payload.
pub(crate) fn encode_state(s: &StateRefs, obs: &Observability) -> Vec<u8> {
    encode_state_with(s, obs, put_table)
}

/// [`encode_state`] with the table writer as a parameter, so the tests
/// can hold the borrowed walk against the snapshot-based oracle.
fn encode_state_with(
    s: &StateRefs,
    obs: &Observability,
    put_table: fn(&mut Encoder, &Table),
) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(STATE_VERSION);
    e.put_u64(s.clock);
    e.put_u64(s.rng_state);
    put_setting(&mut e, s.setting);
    put_catalog(&mut e, s.catalog);
    e.put_u32(s.tables.len() as u32);
    for t in s.tables {
        put_table(&mut e, t);
    }
    put_archive(&mut e, &s.archive.snapshot());
    put_history(&mut e, &s.history.snapshot());
    put_predcache(&mut e, &s.predcache.snapshot());
    put_samplecache(&mut e, s.samplecache);
    put_metrics(&mut e, &obs.registry.snapshot());
    put_qerror(&mut e, &obs.qerror_stats());
    e.into_bytes()
}

/// Decodes a checkpoint payload back into owned engine state. Any
/// malformation is typed [`JitsError::Recovery`] — never a panic — so a
/// torn or truncated segment quarantines instead of crashing recovery.
pub(crate) fn decode_state(bytes: &[u8]) -> Result<RestoredState> {
    let mut d = Decoder::new(bytes);
    let version = d.u8()?;
    if version != STATE_VERSION {
        return Err(JitsError::Recovery(format!(
            "checkpoint: unsupported format version {version}"
        )));
    }
    let clock = d.u64()?;
    let rng = SplitMix64::from_state(d.u64()?);
    let setting = setting(&mut d)?;
    let catalog = catalog(&mut d)?;
    let ntables = d.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 12));
    for _ in 0..ntables {
        tables.push(Table::from_snapshot(table_snapshot(&mut d)?)?);
    }
    let archive = QssArchive::from_snapshot(archive(&mut d)?);
    let history = StatHistory::from_snapshot(history(&mut d)?);
    let predcache = PredicateCache::from_snapshot(predcache(&mut d)?);
    let samplecache = samplecache(&mut d)?;
    let metrics = metrics(&mut d)?;
    let qerror = qerror(&mut d)?;
    d.finish()?;
    if tables.len() != catalog.len() {
        return Err(JitsError::Recovery(format!(
            "checkpoint: {} storage tables for {} catalog entries",
            tables.len(),
            catalog.len()
        )));
    }
    Ok(RestoredState {
        state: EngineState {
            catalog,
            tables,
            archive,
            history,
            predcache,
            samplecache,
            setting,
            clock,
            rng,
        },
        metrics,
        qerror,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::{DataType, Schema};

    /// The table layout as written before tables were encoded straight
    /// from their columns: through [`Table::snapshot`]. Kept as the byte
    /// oracle for [`put_table`].
    fn put_table_snapshot(e: &mut Encoder, s: &TableSnapshot) {
        e.put_str(&s.name);
        e.put_schema(&s.schema);
        e.put_u32(s.slots.len() as u32);
        for (row, live) in &s.slots {
            for v in row {
                e.put_value(v);
            }
            e.put_bool(*live);
        }
        e.put_u64(s.udi.0);
        e.put_u64(s.udi.1);
        e.put_u64(s.udi.2);
        e.put_u64(s.epoch);
        e.put_u32(s.indexes.len() as u32);
        for (col, entries) in &s.indexes {
            e.put_u32(col.0);
            e.put_u32(entries.len() as u32);
            for (key, rows) in entries {
                e.put_value(key);
                e.put_u32(rows.len() as u32);
                for r in rows {
                    e.put_u32(*r);
                }
            }
        }
        e.put_u32(s.zones.ncols as u32);
        e.put_u32(s.zones.blocks.len() as u32);
        for (live_rows, cols) in &s.zones.blocks {
            e.put_u32(*live_rows);
            e.put_u32(cols.len() as u32);
            for (min, max, nulls) in cols {
                put_opt_value(e, min.as_ref());
                put_opt_value(e, max.as_ref());
                e.put_u32(*nulls);
            }
        }
    }

    fn seeded_refs_roundtrip(db: &crate::Database) -> RestoredState {
        decode_state(&encode_state(&db.state().refs(), db.obs())).unwrap()
    }

    #[test]
    fn full_state_roundtrips_bit_identically() {
        let mut db = crate::Database::new(7);
        db.create_table(
            "t",
            Schema::from_pairs(&[("id", DataType::Int), ("tag", DataType::Str)]),
        )
        .unwrap();
        db.load_rows(
            "t",
            (0..300i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(if i % 3 == 0 { "hot" } else { "cold" }),
                    ]
                })
                .collect(),
        )
        .unwrap();
        db.create_index("t", "id").unwrap();
        db.runstats_all().unwrap();
        db.set_setting(StatsSetting::Jits(jits::JitsConfig::default()));
        for _ in 0..3 {
            db.execute("SELECT id FROM t WHERE tag = 'hot'").unwrap();
        }
        db.execute("DELETE FROM t WHERE id = 5").unwrap();

        let RestoredState {
            state: restored,
            metrics,
            qerror,
        } = seeded_refs_roundtrip(&db);
        assert_eq!(restored.clock, db.clock());
        assert_eq!(restored.rng.state(), db.rng_state_for_test());
        assert_eq!(restored.tables.len(), 1);
        assert_eq!(
            restored.tables[0].snapshot(),
            db.tables()[0].snapshot(),
            "storage state must survive the codec verbatim"
        );
        assert_eq!(restored.archive.snapshot(), db.archive().snapshot());
        assert_eq!(restored.history.snapshot(), db.history().snapshot());
        assert_eq!(
            restored.samplecache.counters(),
            db.sample_cache().counters()
        );
        assert_eq!(qerror, db.obs().qerror_stats());
        let det: Vec<_> = db
            .obs()
            .registry
            .snapshot()
            .into_iter()
            .filter(|s| !s.volatile)
            .map(|s| MetricSample {
                volatile: false,
                ..s
            })
            .collect();
        assert_eq!(metrics, det);
    }

    /// A `JitsConfig` with every field set away from its default (and
    /// `EpsilonPlanning` away from its default config).
    fn every_field_jits() -> JitsConfig {
        JitsConfig {
            strategy: SensitivityStrategy::EpsilonPlanning(EpsilonConfig {
                epsilon: 0.02,
                threshold: 0.4,
                max_iterations: 3,
            }),
            s_max: 0.25,
            sample: SampleSpec { size: 777 },
            sample_cache: false,
            collect_budget: 12_345,
            archive_bucket_budget: 99,
            eviction_uniformity: 0.75,
        }
    }

    /// With every field away from its default, a field the codec drops or
    /// misorders fails the comparison.
    #[test]
    fn setting_payload_roundtrips() {
        let d = JitsConfig::default();
        let every_field = every_field_jits();
        assert_ne!(format!("{every_field:?}"), format!("{d:?}"));
        for setting in [
            StatsSetting::NoStatistics,
            StatsSetting::CatalogOnly,
            StatsSetting::ArchiveReadOnly,
            StatsSetting::Jits(d),
            StatsSetting::Jits(every_field),
        ] {
            let bytes = encode_setting(&setting);
            let back = decode_setting(&bytes).unwrap();
            assert_eq!(format!("{back:?}"), format!("{setting:?}"));
        }
    }

    /// The default `JitsConfig` in the retired 19-field layout, byte for
    /// byte as the version-2 codec wrote it.
    fn retired_jits_setting() -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(RETIRED_19_FIELD_TAG);
        e.put_u8(0); // strategy: paper heuristic
        e.put_f64(0.5); // s_max
        e.put_u8(0); // aggregate: average
        e.put_u64(SampleSpec::default().size as u64);
        e.put_bool(true); // sample_cache
        e.put_f64(0.1); // sample_cache_staleness
        e.put_u64(0); // collect_budget
        e.put_u64(1); // collection thread count
        e.put_u64(6); // max_group_enumeration
        e.put_u64(4096); // archive_bucket_budget
        e.put_f64(0.9); // eviction_uniformity
        e.put_u64(8); // history_entries_per_key
        e.put_f64(0.5); // history_ewma
        e.put_f64(0.3); // archive_accuracy_gate
        e.put_bool(true); // infer_from_supersets
        e.put_u64(256); // predicate_cache_capacity
        e.put_u64(25); // migrate_every
        e.put_bool(false); // feedback_to_archive
        e.put_f64(2.0); // qerror_threshold
        e.into_bytes()
    }

    /// The default `JitsConfig` in the retired nine-field layout, byte for
    /// byte as the version-3 codec wrote it.
    fn nine_field_jits_setting() -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(RETIRED_NINE_FIELD_TAG);
        e.put_u8(0); // strategy: paper heuristic
        e.put_f64(0.5); // s_max
        e.put_u64(SampleSpec::default().size as u64);
        e.put_bool(true); // sample_cache
        e.put_u64(0); // collect_budget
        e.put_u64(1); // collection thread count
        e.put_u64(4096); // archive_bucket_budget
        e.put_f64(0.9); // eviction_uniformity
        e.put_u64(25); // migrate_every
        e.into_bytes()
    }

    /// A `SetSetting` payload logged in the retired layout is refused with
    /// a typed error, never read as the current layout.
    #[test]
    fn retired_setting_payload_is_a_typed_recovery_error() {
        match decode_setting(&retired_jits_setting()) {
            Err(JitsError::Recovery(m)) => assert!(m.contains("retired"), "{m}"),
            Err(other) => panic!("expected Recovery error, got {other:?}"),
            Ok(s) => panic!("expected Recovery error, got {s:?}"),
        }
    }

    /// Likewise a payload in the nine-field layout, which carried
    /// `migrate_every`: read as the seven-field layout it would be two
    /// words too long.
    #[test]
    fn nine_field_setting_payload_is_a_typed_recovery_error() {
        match decode_setting(&nine_field_jits_setting()) {
            Err(JitsError::Recovery(m)) => assert!(m.contains("nine-field"), "{m}"),
            Err(other) => panic!("expected Recovery error, got {other:?}"),
            Ok(s) => panic!("expected Recovery error, got {s:?}"),
        }
    }

    /// The default `JitsConfig` in the retired eight-field layout, byte for
    /// byte as the version-4 codec wrote it.
    fn eight_field_jits_setting() -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(RETIRED_EIGHT_FIELD_TAG);
        e.put_u8(0); // strategy: paper heuristic
        e.put_f64(0.5); // s_max
        e.put_u64(SampleSpec::default().size as u64);
        e.put_bool(true); // sample_cache
        e.put_u64(0); // collect_budget
        e.put_u64(1); // collection thread count
        e.put_u64(4096); // archive_bucket_budget
        e.put_f64(0.9); // eviction_uniformity
        e.into_bytes()
    }

    /// Hex of a byte string, for pinning payloads.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A payload in the eight-field layout, which carried the collection
    /// thread count: read as the seven-field layout it would be one word
    /// too long. The helper's bytes are pinned to what the version-4 codec
    /// wrote for the default setting.
    #[test]
    fn eight_field_setting_payload_is_a_typed_recovery_error() {
        assert_eq!(
            hex(&eight_field_jits_setting()),
            "0500000000000000e03fe80300000000000001000000000000000001000000000000\
             000010000000000000cdccccccccccec3f"
        );
        match decode_setting(&eight_field_jits_setting()) {
            Err(JitsError::Recovery(m)) => assert!(m.contains("eight-field"), "{m}"),
            Err(other) => panic!("expected Recovery error, got {other:?}"),
            Ok(s) => panic!("expected Recovery error, got {s:?}"),
        }
    }

    /// The default setting in the seven-field layout, byte for byte: the
    /// eight-field payload above with a new tag and no thread-count word.
    #[test]
    fn default_setting_payload_is_pinned() {
        let bytes = encode_setting(&StatsSetting::Jits(JitsConfig::default()));
        assert_eq!(
            hex(&bytes),
            "0600000000000000e03fe80300000000000001000000000000000000100000000000\
             00cdccccccccccec3f"
        );
    }

    #[test]
    fn truncated_payload_is_a_typed_recovery_error() {
        let db = crate::Database::new(1);
        let bytes = encode_state(&db.state().refs(), db.obs());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            match decode_state(&bytes[..cut]) {
                Err(JitsError::Recovery(_)) => {}
                Err(other) => panic!("cut at {cut}: expected Recovery error, got {other:?}"),
                Ok(_) => panic!("cut at {cut}: expected Recovery error, got Ok"),
            }
        }
        // trailing garbage is corruption too
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode_state(&padded), Err(JitsError::Recovery(_))));
    }

    /// A checkpoint of [`populated_engine`], encoded once.
    fn populated_checkpoint() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let db = populated_engine();
            encode_state(&db.state().refs(), db.obs())
        })
    }

    /// A populated engine: two tables with indexes and several zone-map
    /// blocks, catalog statistics, archive histograms, StatHistory, a
    /// predicate-cache entry and a sample cache whose entries carry frames
    /// (which the codec drops).
    fn populated_engine() -> crate::Database {
        let mut db = crate::Database::new(11);
        db.create_table(
            "car",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("price", DataType::Float),
            ]),
        )
        .unwrap();
        db.create_table(
            "owner",
            Schema::from_pairs(&[("id", DataType::Int), ("car", DataType::Int)]),
        )
        .unwrap();
        let makes = ["Toyota", "Honda", "Ford"];
        db.load_rows(
            "car",
            (0..2500i64)
                .map(|i| {
                    let price = if i % 50 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 * 1.5)
                    };
                    vec![Value::Int(i), Value::str(makes[i as usize % 3]), price]
                })
                .collect(),
        )
        .unwrap();
        db.load_rows(
            "owner",
            (0..600i64)
                .map(|i| vec![Value::Int(i), Value::Int(i * 4 % 2500)])
                .collect(),
        )
        .unwrap();
        db.create_index("car", "id").unwrap();
        db.create_index("owner", "car").unwrap();
        db.runstats_all().unwrap();
        // s_max 0: every statement collects and materializes
        db.set_setting(StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }));
        for sql in [
            "SELECT COUNT(*) FROM car WHERE make <> 'Ford' AND price > 300",
            "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND price < 900",
            "SELECT COUNT(*) FROM car, owner WHERE car.id = owner.car AND car.make = 'Honda'",
            "UPDATE car SET price = 1 WHERE id = 7",
            "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND price < 900",
        ] {
            db.execute(sql).unwrap();
        }
        let state = db.state();
        assert!(!state.archive.is_empty());
        assert!(!state.history.snapshot().is_empty());
        assert!(!state.predcache.snapshot().1.is_empty());
        assert!(!state.samplecache.is_empty());
        db
    }

    /// The payload [`encode_state`] writes for `db`, and the one the
    /// snapshot-based oracle writes.
    fn payload_and_oracle(db: &crate::Database) -> (Vec<u8>, Vec<u8>) {
        let refs = db.state().refs();
        (
            encode_state(&refs, db.obs()),
            encode_state_with(&refs, db.obs(), |e, t| put_table_snapshot(e, &t.snapshot())),
        )
    }

    #[test]
    fn populated_payload_matches_the_snapshot_oracle() {
        let db = populated_engine();
        let (payload, oracle) = payload_and_oracle(&db);
        assert!(payload == oracle, "table encoding drifted from the oracle");
        assert_eq!(payload, populated_checkpoint());
    }

    /// After a durable workload stream with UPDATE, DELETE and INSERT —
    /// NULL cells, dead slots, strings first written by an UPDATE, index
    /// postings reordered by `swap_remove`, zones widened past live
    /// values — the checkpoint payload equals the oracle byte for byte,
    /// the segment on disk is the hand-built layout around it, and it
    /// opens to the same tables.
    #[test]
    fn durable_payload_and_segment_match_the_snapshot_oracle() {
        let dir = jits_common::TestDir::new("persist-byte-oracle");
        let mut db = crate::Database::open(5, dir.path()).unwrap();
        db.set_checkpoint_every(0);
        db.create_table(
            "t",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("tag", DataType::Str),
                ("score", DataType::Float),
            ]),
        )
        .unwrap();
        db.load_rows(
            "t",
            (0..2100i64)
                .map(|i| {
                    let tag = match i % 7 {
                        0 => Value::Null,
                        k => Value::str(format!("tag{k}")),
                    };
                    let score = if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 * 0.5)
                    };
                    vec![Value::Int(i), tag, score]
                })
                .collect(),
        )
        .unwrap();
        db.create_index("t", "id").unwrap();
        db.create_index("t", "tag").unwrap();
        db.runstats_all().unwrap();
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        for sql in [
            "SELECT COUNT(*) FROM t WHERE tag = 'tag3' AND score > 100",
            "UPDATE t SET tag = 'first-by-update' WHERE id = 3",
            "UPDATE t SET tag = 'Zürich' WHERE id BETWEEN 1500 AND 1510",
            "UPDATE t SET score = NULL WHERE id = 4",
            "UPDATE t SET tag = NULL WHERE id = 8",
            "UPDATE t SET score = 99999.5 WHERE id = 2000",
            "DELETE FROM t WHERE id = 5",
            "DELETE FROM t WHERE id BETWEEN 1020 AND 1040",
            "DELETE FROM t WHERE tag = 'tag2' AND id < 200",
            "INSERT INTO t VALUES (5000, 'late', NULL)",
            "INSERT INTO t VALUES (5001, NULL, 1.25)",
            "SELECT COUNT(*) FROM t WHERE tag = 'first-by-update'",
            "SELECT COUNT(*) FROM t WHERE tag = 'tag3' AND score > 100",
        ] {
            db.execute(sql).unwrap();
        }
        let t = &db.tables()[0];
        assert!(t.row_count() < t.slot_count(), "dead slots exist");

        let (payload, oracle) = payload_and_oracle(&db);
        assert!(payload == oracle, "table encoding drifted from the oracle");

        let lsn = db.checkpoint().unwrap().unwrap();
        let seg_path = dir.path().join(format!("ckpt-{lsn:020}.seg"));
        let mut covered = lsn.to_le_bytes().to_vec();
        covered.extend_from_slice(&oracle);
        let mut hand_built = jits_wal::CKPT_MAGIC.to_vec();
        hand_built.extend_from_slice(&lsn.to_le_bytes());
        hand_built.extend_from_slice(&jits_wal::crc32(&covered).to_le_bytes());
        hand_built.extend_from_slice(&(oracle.len() as u64).to_le_bytes());
        hand_built.extend_from_slice(&oracle);
        assert!(
            std::fs::read(&seg_path).unwrap() == hand_built,
            "the segment is the hand-built layout around the oracle payload"
        );

        let before: Vec<TableSnapshot> = db.tables().iter().map(Table::snapshot).collect();
        drop(db);
        let db = crate::Database::open(5, dir.path()).unwrap();
        assert_eq!(db.recovery_report().checkpoint_lsn, Some(lsn));
        let after: Vec<TableSnapshot> = db.tables().iter().map(Table::snapshot).collect();
        assert_eq!(after, before);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Flipping 1–4 bytes of a populated checkpoint, or overwriting a
        /// 4-byte word with a large length, decodes or fails typed: never
        /// a panic, never another error kind.
        #[test]
        fn corrupted_checkpoint_decodes_or_fails_typed(
            overwrite in proptest::prelude::any::<bool>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..255),
                1..5,
            ),
            word in proptest::prelude::any::<u32>(),
        ) {
            let mut bytes = populated_checkpoint().to_vec();
            if overwrite {
                let at = flips[0].0 % (bytes.len() - 3);
                let len = match flips[0].1 % 3 {
                    0 => u32::MAX,
                    1 => word,
                    _ => word % 4096,
                };
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            } else {
                for &(at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
            }
            match decode_state(&bytes) {
                Ok(_) | Err(JitsError::Recovery(_)) => {}
                Err(other) => panic!("expected Ok or a Recovery error, got {other:?}"),
            }
        }

        /// A `SetSetting` payload — the current layout with either strategy
        /// or a retired one — with 1–4 bytes flipped, a 4-byte word
        /// overwritten or a cut at a random offset decodes or fails typed.
        #[test]
        fn mutated_setting_payload_decodes_or_fails_typed(
            which in 0usize..5,
            mutation in 0u8..3,
            flips in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..255),
                1..5,
            ),
            word in proptest::prelude::any::<u32>(),
        ) {
            let mut bytes = match which {
                0 => encode_setting(&StatsSetting::Jits(JitsConfig::default())),
                1 => encode_setting(&StatsSetting::Jits(every_field_jits())),
                2 => nine_field_jits_setting(),
                3 => eight_field_jits_setting(),
                _ => retired_jits_setting(),
            };
            let (at, pick) = flips[0];
            match mutation {
                0 => {
                    for &(at, mask) in &flips {
                        let at = at % bytes.len();
                        bytes[at] ^= mask;
                    }
                }
                1 => {
                    let at = at % (bytes.len() - 3);
                    let w = match pick % 3 {
                        0 => u32::MAX,
                        1 => word,
                        _ => word % 4096,
                    };
                    bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
                }
                _ => bytes.truncate(at % bytes.len()),
            }
            match decode_setting(&bytes) {
                Ok(_) | Err(JitsError::Recovery(_)) => {}
                Err(other) => panic!("expected Ok or a Recovery error, got {other:?}"),
            }
        }
    }

    /// A version-1 segment (which carried three engine flags after the RNG
    /// state) is refused with a typed error, never decoded as the current
    /// version.
    #[test]
    fn version_one_segment_is_a_typed_recovery_error() {
        let db = crate::Database::new(1);
        let mut bytes = encode_state(&db.state().refs(), db.obs());
        bytes[0] = 1;
        bytes.splice(17..17, [1, 1, 1]);
        match decode_state(&bytes) {
            Err(JitsError::Recovery(m)) => assert!(m.contains("version 1"), "{m}"),
            Err(other) => panic!("expected Recovery error, got {other:?}"),
            Ok(_) => panic!("expected Recovery error, got Ok"),
        }
    }

    /// A segment of `version` whose JITS setting is `setting` (that
    /// version's layout) is refused with a typed error naming the version,
    /// and so is the same setting under the current version byte.
    fn assert_old_segment_refused(version: u8, setting: Vec<u8>) {
        let mut db = crate::Database::new(1);
        db.set_setting(StatsSetting::Jits(JitsConfig::default()));
        let bytes = encode_state(&db.state().refs(), db.obs());
        // header: version, clock, RNG state; then the setting
        let setting_at = 17;
        let new_len = encode_setting(db.setting()).len();
        let mut old = bytes.clone();
        old[0] = version;
        old.splice(setting_at..setting_at + new_len, setting);
        match decode_state(&old) {
            Err(JitsError::Recovery(m)) => {
                assert!(m.contains(&format!("version {version}")), "{m}")
            }
            Err(other) => panic!("expected Recovery error, got {other:?}"),
            Ok(_) => panic!("expected Recovery error, got Ok"),
        }
        // even under the current version byte, the retired setting is refused
        old[0] = STATE_VERSION;
        assert!(matches!(decode_state(&old), Err(JitsError::Recovery(_))));
        assert!(decode_state(&bytes).is_ok());
    }

    /// A version-2 segment (the JITS setting in its 19-field layout) is
    /// refused with a typed error, never decoded as the current version.
    #[test]
    fn version_two_segment_is_a_typed_recovery_error() {
        assert_old_segment_refused(2, retired_jits_setting());
    }

    /// A version-3 segment (the JITS setting in its nine-field layout) is
    /// refused with a typed error, never decoded as the current version.
    #[test]
    fn version_three_segment_is_a_typed_recovery_error() {
        assert_old_segment_refused(3, nine_field_jits_setting());
    }

    /// A version-4 segment (the JITS setting in its eight-field layout) is
    /// refused with a typed error, never decoded as the current version.
    #[test]
    fn version_four_segment_is_a_typed_recovery_error() {
        assert_old_segment_refused(4, eight_field_jits_setting());
    }
}

//! Statistics collection: sample once per marked table, evaluate every
//! candidate group on the sample.
//!
//! This is the paper's simplification heuristic in action (§3.3): "most of
//! the cost of computing the statistics is in the sampling process. Once a
//! table is sampled, it is relatively cheap to collect the selectivities of
//! all predicate groups that belong to this table." Single predicates are
//! evaluated once per sampled row into bitsets; every group's joint count is
//! then a bitwise AND.
//!
//! Collection is independent per marked table, so
//! [`collect_for_tables_parallel`] fans the per-table work out across scoped
//! worker threads. Each table draws from its own [`SplitMix64`] stream
//! derived from the caller's RNG state and the (table id, quantifier) pair —
//! never from a shared sequential stream — so the collected statistics are
//! bit-identical whatever the thread count or scheduling order.
//!
//! # The collection fast path
//!
//! Three layers keep the per-query collection tax low without changing any
//! output bit on the cold path:
//!
//! 1. **Versioned sample reuse** ([`SampleSource`]): the engine resolves,
//!    per marked quantifier, whether to draw a fresh sample or serve row
//!    ids memoized in a [`jits_storage::SampleCache`]; the decision is made
//!    sequentially before the parallel fan-out, so it cannot depend on
//!    thread count. When the cache entry is at the table's **exact**
//!    mutation epoch the memoized columnar gathers and per-predicate
//!    bitsets (keyed by predicate fingerprint) ride along too, so a
//!    repeated query skips the draw, the gather, *and* the predicate
//!    evaluation. Fresh draws and freshly derived artifacts flow back as
//!    [`DrawnSample`]s for the engine to commit.
//! 2. **Columnar sample frames** ([`jits_storage::SampleFrame`]): the
//!    sample's used columns are gathered once into dense typed buffers;
//!    predicate bitsets are built over typed slices (with a
//!    `Value`-materializing fallback for exotic kind/type combinations)
//!    and the per-column min/max frame falls out of the same gather pass.
//! 3. **Lattice-incremental group evaluation**: candidate groups arrive in
//!    (size, lexicographic) order, so a k-predicate group's bitset is its
//!    (k−1)-prefix parent's bitset AND one more predicate bitset — O(words)
//!    per group instead of O(k·words) — and descendants of zero-count
//!    groups short-circuit to zero. AND is associative and commutative and
//!    single-predicate bitsets never set bits past the sample tail, so the
//!    incremental result is bit-identical to the full re-AND.

use crate::analysis::CandidateGroup;
use crate::predcache::fingerprint;
use jits_common::fault::{FP_COLLECT_WORKER, FP_SAMPLE_DRAW};
use jits_common::interval::Bound;
use jits_common::{
    fault_key, ColGroup, ColumnId, DataType, FaultPlane, SplitMix64, TableId, Value,
};
use jits_histogram::Region;
use jits_query::{LocalPredicate, PredKind, QueryBlock};
use jits_storage::{
    sample::sample_rows_budgeted, FrameColumn, FrameValues, RowId, SampleSpec, Table,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fallback label: the table's statistics come from the QSS archive /
/// catalog chain instead of a fresh sample.
pub const FB_ARCHIVE_STATS: &str = "archive_or_catalog_stats";
/// Fallback label: a budget-truncated (still uniform) partial sample was
/// kept and statistics were measured on it.
pub const FB_PARTIAL_SAMPLE: &str = "partial_sample";
/// Pseudo fault point recorded when the deterministic work-unit budget —
/// not an injected fault — degraded a table.
pub const FP_COLLECT_BUDGET: &str = "collect.budget";

/// How a quantifier's sample rows were obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleOrigin {
    /// Drawn fresh (cold cache or no cache in play).
    Fresh,
    /// Drawn fresh because the cached sample had drifted past the
    /// staleness limit.
    Redrawn {
        /// The staleness that invalidated the cached sample.
        staleness: f64,
    },
    /// Served from the sample cache.
    Cached {
        /// The (below-limit) staleness the sample was served at.
        staleness: f64,
    },
}

/// Per-table collection telemetry — trace decoration only, deliberately
/// kept *out* of [`CollectedStats`] so wall-clock readings can never reach
/// statistics-bearing state. `rows_sampled`, `slot_probes` and `origin` are
/// deterministic; `worker` and the nanosecond fields depend on scheduling
/// and the caller's clock (all 0 when no clock is supplied).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectTiming {
    /// Quantifier index the table was sampled for.
    pub qun: usize,
    /// Rows drawn into (or served from cache for) the sample.
    pub rows_sampled: usize,
    /// Storage slot probes the draw cost (replayed from the original draw
    /// when the sample was served from cache).
    pub slot_probes: usize,
    /// Worker thread index that handled the table.
    pub worker: usize,
    /// Wall nanoseconds the table's collection took (0 without a clock).
    pub wall_nanos: u64,
    /// Where the sample rows came from.
    pub origin: SampleOrigin,
    /// Wall nanoseconds of the columnar gather + predicate bitset phase.
    pub gather_nanos: u64,
    /// Wall nanoseconds of the lattice group-evaluation phase.
    pub eval_nanos: u64,
}

/// One table whose collection degraded instead of failing the statement:
/// which quantifier, what tripped it, and which fallback the pipeline took.
/// The qun-ordered merge proceeds with the remaining tables; the provider
/// chain (fresh → predcache → archive → superset → catalog) serves this
/// table from whatever older statistics exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedTable {
    /// Quantifier whose collection degraded.
    pub qun: usize,
    /// The quantifier's table.
    pub table: TableId,
    /// The fault point (or [`FP_COLLECT_BUDGET`]) that tripped.
    pub fault_point: &'static str,
    /// The fallback the pipeline served instead.
    pub fallback: &'static str,
}

/// Joint statistics of one candidate group, measured on a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStat {
    /// Canonical column group.
    pub colgroup: ColGroup,
    /// Measured selectivity (matches / sample size).
    pub selectivity: f64,
    /// Matching sample rows.
    pub matches: usize,
    /// Sample size the selectivity was measured on.
    pub sample_size: usize,
    /// The group's axis region (present iff every predicate has an interval
    /// form), in colgroup column order.
    pub region: Option<Region>,
}

/// Everything one compile-time collection pass produced.
///
/// The maps are `BTreeMap`s, not `HashMap`s, so that any iteration over
/// collected statistics (materialization, migration, diagnostics) visits
/// entries in a deterministic order — hash-iteration order must never leak
/// into what the optimizer sees.
#[derive(Debug, Clone, Default)]
pub struct CollectedStats {
    /// Group statistics keyed by (quantifier, sorted predicate indices).
    pub groups: BTreeMap<(usize, Vec<usize>), GroupStat>,
    /// Exact live row counts of the sampled tables.
    pub table_rows: BTreeMap<TableId, f64>,
    /// Per-column-group finite frames observed from the sample (min/max per
    /// column, slightly widened) — used to seed new archive histograms.
    pub frames: BTreeMap<ColGroup, Region>,
    /// Work charged for the collection, in cost-model units.
    pub work: f64,
    /// Marked tables actually sampled by this pass.
    pub tables_sampled: usize,
    /// Worker threads the pass fanned sampling out across (1 = sequential).
    pub collect_threads: usize,
    /// Tables whose collection degraded this pass (quantifier order). A
    /// table in this list contributes no fresh group stats — unless the
    /// fallback was [`FB_PARTIAL_SAMPLE`], where stats were measured on the
    /// kept partial — and the optimizer falls through to older statistics.
    pub degraded: Vec<DegradedTable>,
}

impl CollectedStats {
    /// Looks up a group's stats by quantifier and predicate indices.
    pub fn group(&self, qun: usize, pred_indices: &[usize]) -> Option<&GroupStat> {
        let mut key = pred_indices.to_vec();
        key.sort_unstable();
        self.groups.get(&(qun, key))
    }
}

/// The axis region of a predicate group, in canonical colgroup column order.
/// `None` if any predicate lacks an interval form.
pub fn group_region(
    block: &QueryBlock,
    pred_indices: &[usize],
    schema_types: &dyn Fn(ColumnId) -> DataType,
) -> Option<Region> {
    if !block.group_is_region(pred_indices) {
        return None;
    }
    let colgroup = block.colgroup_of(pred_indices);
    let (intervals, _residuals) = block.constraints_of(pred_indices);
    let mut ranges = Vec::with_capacity(colgroup.arity());
    for &col in colgroup.columns() {
        let iv = intervals
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, iv)| iv)?;
        ranges.push(iv.to_axis_range_typed(schema_types(col)));
    }
    Some(Region::new(ranges))
}

/// Pre-resolved sample provenance for one marked quantifier — the engine
/// makes cache decisions sequentially (under the `samplecache` lock) before
/// collection fans out, then hands the outcome here.
#[derive(Debug, Clone)]
pub enum SampleSource {
    /// Draw a fresh sample from the quantifier's RNG stream.
    Draw {
        /// `Some(s)` when the draw replaces a cache entry that drifted past
        /// the staleness limit (`None` = cold miss).
        staleness: Option<f64>,
    },
    /// Serve these previously-drawn rows instead of drawing.
    Served {
        /// The cached row ids.
        rows: Arc<Vec<RowId>>,
        /// Slot probes the original draw cost (replayed for telemetry).
        probes: usize,
        /// The (below-limit) staleness at serve time.
        staleness: f64,
        /// Columnar gathers memoized with the sample. Only valid — and only
        /// provided by the engine — when the cache entry sits at the
        /// table's exact mutation epoch, where a cached gather is
        /// bit-identical to re-gathering from the table. Columns a query
        /// uses that are absent here are gathered fresh.
        frames: BTreeMap<ColumnId, Arc<FrameColumn>>,
        /// Predicate bitsets memoized with the sample, keyed by the
        /// single-predicate [`fingerprint`]. Same exact-epoch validity as
        /// `frames` (a bitset is a pure function of the gather it came
        /// from); predicates absent here are evaluated fresh.
        bitsets: BTreeMap<String, Arc<Vec<u64>>>,
    },
}

/// One cache deposit produced during collection, handed back so the engine
/// can commit it. A `fresh` deposit is a complete draw (rows + gathers —
/// first quantifier wins per table); a non-fresh deposit carries only the
/// columns gathered on top of a served sample, for the engine to merge into
/// the existing entry when the epochs still match.
#[derive(Debug, Clone)]
pub struct DrawnSample {
    /// Quantifier the collection pass ran for.
    pub qun: usize,
    /// Table the rows belong to.
    pub table: TableId,
    /// The sample's row ids, in draw order.
    pub rows: Arc<Vec<RowId>>,
    /// Slot probes the draw cost.
    pub probes: usize,
    /// True when the rows were drawn fresh this pass; false when they were
    /// served and only `frames` is new.
    pub fresh: bool,
    /// Columns gathered from the table this pass (cached frames that were
    /// served are not repeated here).
    pub frames: Vec<(ColumnId, Arc<FrameColumn>)>,
    /// Predicate bitsets evaluated this pass, keyed by single-predicate
    /// [`fingerprint`] (served bitsets are not repeated here).
    pub bitsets: Vec<(String, Arc<Vec<u64>>)>,
}

/// Everything collecting one marked quantifier produced. Accumulated into
/// [`CollectedStats`] in quantifier order, so the merged result is
/// independent of which worker thread produced which partial.
struct TablePartial {
    qun: usize,
    groups: Vec<((usize, Vec<usize>), GroupStat)>,
    frames: Vec<(ColGroup, Region)>,
    work: f64,
    timing: CollectTiming,
    drawn: Option<DrawnSample>,
    degraded: Option<DegradedTable>,
}

impl TablePartial {
    /// A partial that collected nothing because the table degraded: no
    /// groups, no frames, no cache deposit — just the degradation record
    /// (plus any deterministic backoff work already charged).
    fn degraded(
        qun: usize,
        table: TableId,
        fault_point: &'static str,
        fallback: &'static str,
        work: f64,
    ) -> TablePartial {
        TablePartial {
            qun,
            groups: Vec::new(),
            frames: Vec::new(),
            work,
            timing: CollectTiming {
                qun,
                rows_sampled: 0,
                slot_probes: 0,
                worker: 0,
                wall_nanos: 0,
                origin: SampleOrigin::Fresh,
                gather_nanos: 0,
                eval_nanos: 0,
            },
            drawn: None,
            degraded: Some(DegradedTable {
                qun,
                table,
                fault_point,
                fallback,
            }),
        }
    }
}

/// Derives the independent RNG stream of one (table, quantifier) pair.
///
/// The stream depends only on the caller's RNG state and the pair identity —
/// not on how many draws other tables made — which is what makes parallel
/// collection bit-identical to sequential collection.
fn table_stream(base: u64, tid: TableId, qun: usize) -> SplitMix64 {
    let mix = (tid.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((qun as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    SplitMix64::new(base ^ mix)
}

/// One bound of an interval compiled against a typed column: `Free` always
/// passes, `Never` always fails (incomparable bound type — `try_cmp`
/// returns `None`, which `Interval::contains` treats as unsatisfied).
enum NumBound {
    Free,
    InclI(i64),
    ExclI(i64),
    InclF(f64),
    ExclF(f64),
    Never,
}

impl NumBound {
    /// Compiles one bound for an Int column. Int bounds compare exactly as
    /// i64 (matching `try_cmp`'s Int/Int arm); Float bounds compare through
    /// f64 (matching the mixed-numeric arm); Str bounds are incomparable;
    /// a NULL bound sorts below every non-NULL value.
    fn for_int(b: &Bound, is_low: bool) -> NumBound {
        match b {
            Bound::Unbounded => NumBound::Free,
            Bound::Inclusive(Value::Int(x)) => NumBound::InclI(*x),
            Bound::Exclusive(Value::Int(x)) => NumBound::ExclI(*x),
            Bound::Inclusive(Value::Float(x)) => NumBound::InclF(*x),
            Bound::Exclusive(Value::Float(x)) => NumBound::ExclF(*x),
            // try_cmp(non-null, Null) = Greater: a NULL low bound passes
            // everything, a NULL high bound passes nothing
            Bound::Inclusive(Value::Null) | Bound::Exclusive(Value::Null) => {
                if is_low {
                    NumBound::Free
                } else {
                    NumBound::Never
                }
            }
            Bound::Inclusive(Value::Str(_)) | Bound::Exclusive(Value::Str(_)) => NumBound::Never,
        }
    }

    /// Compiles one bound for a Float column — all numeric comparisons go
    /// through f64, exactly like `try_cmp`'s mixed arm.
    fn for_float(b: &Bound, is_low: bool) -> NumBound {
        match NumBound::for_int(b, is_low) {
            NumBound::InclI(x) => NumBound::InclF(x as f64),
            NumBound::ExclI(x) => NumBound::ExclF(x as f64),
            other => other,
        }
    }

    #[inline]
    fn low_ok_int(&self, v: i64) -> bool {
        match self {
            NumBound::Free => true,
            NumBound::InclI(b) => v >= *b,
            NumBound::ExclI(b) => v > *b,
            NumBound::InclF(b) => (v as f64) >= *b,
            NumBound::ExclF(b) => (v as f64) > *b,
            NumBound::Never => false,
        }
    }

    #[inline]
    fn high_ok_int(&self, v: i64) -> bool {
        match self {
            NumBound::Free => true,
            NumBound::InclI(b) => v <= *b,
            NumBound::ExclI(b) => v < *b,
            NumBound::InclF(b) => (v as f64) <= *b,
            NumBound::ExclF(b) => (v as f64) < *b,
            NumBound::Never => false,
        }
    }

    /// f64 comparison operators agree with `partial_cmp`: any NaN operand
    /// fails every ordered comparison, which is exactly `try_cmp = None`.
    #[inline]
    fn low_ok_f64(&self, v: f64) -> bool {
        match self {
            NumBound::Free => true,
            NumBound::InclF(b) => v >= *b,
            NumBound::ExclF(b) => v > *b,
            NumBound::InclI(b) => v >= *b as f64,
            NumBound::ExclI(b) => v > *b as f64,
            NumBound::Never => false,
        }
    }

    #[inline]
    fn high_ok_f64(&self, v: f64) -> bool {
        match self {
            NumBound::Free => true,
            NumBound::InclF(b) => v <= *b,
            NumBound::ExclF(b) => v < *b,
            NumBound::InclI(b) => v <= *b as f64,
            NumBound::ExclI(b) => v < *b as f64,
            NumBound::Never => false,
        }
    }
}

/// One bound compiled against a Str column: only Str bounds are comparable
/// (`try_cmp` compares strings bytewise and yields `None` against numbers);
/// a NULL low bound passes every non-NULL string.
enum StrBound {
    Free,
    Incl(Arc<str>),
    Excl(Arc<str>),
    Never,
}

impl StrBound {
    fn compile(b: &Bound, is_low: bool) -> StrBound {
        match b {
            Bound::Unbounded => StrBound::Free,
            Bound::Inclusive(Value::Str(s)) => StrBound::Incl(Arc::clone(s)),
            Bound::Exclusive(Value::Str(s)) => StrBound::Excl(Arc::clone(s)),
            Bound::Inclusive(Value::Null) | Bound::Exclusive(Value::Null) => {
                if is_low {
                    StrBound::Free
                } else {
                    StrBound::Never
                }
            }
            _ => StrBound::Never,
        }
    }

    #[inline]
    fn low_ok(&self, v: &str) -> bool {
        match self {
            StrBound::Free => true,
            StrBound::Incl(b) => v >= b.as_ref(),
            StrBound::Excl(b) => v > b.as_ref(),
            StrBound::Never => false,
        }
    }

    #[inline]
    fn high_ok(&self, v: &str) -> bool {
        match self {
            StrBound::Free => true,
            StrBound::Incl(b) => v <= b.as_ref(),
            StrBound::Excl(b) => v < b.as_ref(),
            StrBound::Never => false,
        }
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Builds the bitset of sample slots satisfying `p` over a gathered frame
/// column. Typed fast paths cover `IS [NOT] NULL` and interval predicates
/// on every column type; other kinds fall back to per-slot `Value`
/// materialization, which is semantically identical to the row-oriented
/// `table.value()` path (the frame is a pure projection of the table).
fn pred_bitset(p: &LocalPredicate, fc: &FrameColumn, words: usize) -> Vec<u64> {
    let n = fc.len();
    let mut bits = vec![0u64; words];
    match (&p.kind, &fc.values) {
        (PredKind::IsNull(want_null), _) => {
            for (i, valid) in fc.validity.iter().enumerate() {
                // matches() is `v.is_null() == want_null`
                if valid != want_null {
                    set_bit(&mut bits, i);
                }
            }
        }
        (PredKind::Interval(iv), FrameValues::Int(vals)) => {
            let low = NumBound::for_int(&iv.low, true);
            let high = NumBound::for_int(&iv.high, false);
            for (i, &v) in vals.iter().enumerate() {
                if fc.validity[i] && low.low_ok_int(v) && high.high_ok_int(v) {
                    set_bit(&mut bits, i);
                }
            }
        }
        (PredKind::Interval(iv), FrameValues::Float(vals)) => {
            let low = NumBound::for_float(&iv.low, true);
            let high = NumBound::for_float(&iv.high, false);
            for (i, &v) in vals.iter().enumerate() {
                if fc.validity[i] && low.low_ok_f64(v) && high.high_ok_f64(v) {
                    set_bit(&mut bits, i);
                }
            }
        }
        (PredKind::Interval(iv), FrameValues::Str(vals)) => {
            let low = StrBound::compile(&iv.low, true);
            let high = StrBound::compile(&iv.high, false);
            for (i, v) in vals.iter().enumerate() {
                if fc.validity[i] && low.low_ok(v) && high.high_ok(v) {
                    set_bit(&mut bits, i);
                }
            }
        }
        // NotEq / InList carry SQL three-valued equality against arbitrary
        // literal lists; the fallback materializes each slot as the same
        // Value `table.value()` would return and asks the predicate itself.
        _ => {
            for i in 0..n {
                if p.matches(&fc.value(i)) {
                    set_bit(&mut bits, i);
                }
            }
        }
    }
    bits
}

fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Samples one marked quantifier's table (or serves a cached sample) and
/// evaluates every candidate group on that quantifier against it.
#[allow(clippy::too_many_arguments)]
fn collect_one_table(
    block: &QueryBlock,
    qun: usize,
    candidates: &[CandidateGroup],
    tid: TableId,
    table: &Table,
    spec: SampleSpec,
    source: SampleSource,
    mut rng: SplitMix64,
    worker: usize,
    clock: Option<&(dyn Fn() -> u64 + Sync)>,
    budget: u64,
    fault: &FaultPlane,
    stmt_clock: u64,
) -> TablePartial {
    let started = clock.map(|c| c()).unwrap_or(0);
    // Fault decisions key off (statement clock, quantifier) — both fixed
    // before the parallel fan-out — so which tables degrade is independent
    // of worker count and scheduling order.
    let key = fault_key(stmt_clock, qun as u64);
    if fault.fires(FP_COLLECT_WORKER, key, 0) {
        return TablePartial::degraded(qun, tid, FP_COLLECT_WORKER, FB_ARCHIVE_STATS, 0.0);
    }
    let mut backoff_work = 0.0;
    let mut budget_abort = false;
    let (rows, probes, origin, fresh_draw, cached_frames, cached_bitsets) = match source {
        SampleSource::Draw { staleness } => {
            // Transient draw failures get bounded retry with deterministic
            // backoff: each failed attempt charges 1 << attempt work units
            // to the pass (an attempt counter, never a sleep).
            let (cleared, attempts) = fault.retry(FP_SAMPLE_DRAW, key);
            if attempts > 0 {
                backoff_work = ((1u64 << attempts) - 1) as f64;
            }
            if !cleared {
                return TablePartial::degraded(
                    qun,
                    tid,
                    FP_SAMPLE_DRAW,
                    FB_ARCHIVE_STATS,
                    backoff_work,
                );
            }
            let draw = sample_rows_budgeted(table, spec, &mut rng, budget);
            if draw.aborted && draw.rows.is_empty() {
                // a truncated reservoir scan would be biased, so nothing was
                // kept — fall back to archive/catalog statistics
                return TablePartial::degraded(
                    qun,
                    tid,
                    FP_COLLECT_BUDGET,
                    FB_ARCHIVE_STATS,
                    backoff_work,
                );
            }
            budget_abort = draw.aborted;
            let origin = match staleness {
                Some(s) => SampleOrigin::Redrawn { staleness: s },
                None => SampleOrigin::Fresh,
            };
            (
                Arc::new(draw.rows),
                draw.probes,
                origin,
                true,
                BTreeMap::new(),
                BTreeMap::new(),
            )
        }
        SampleSource::Served {
            rows,
            probes,
            staleness,
            frames,
            bitsets,
        } => (
            rows,
            probes,
            SampleOrigin::Cached { staleness },
            false,
            frames,
            bitsets,
        ),
    };
    let n = rows.len();
    let drawn = if fresh_draw {
        // frames and bitsets are attached after the gather below
        Some(DrawnSample {
            qun,
            table: tid,
            rows: Arc::clone(&rows),
            probes,
            fresh: true,
            frames: Vec::new(),
            bitsets: Vec::new(),
        })
    } else {
        None
    };
    let mut out = TablePartial {
        qun,
        groups: Vec::new(),
        frames: Vec::new(),
        work: 0.0,
        timing: CollectTiming {
            qun,
            rows_sampled: n,
            slot_probes: probes,
            worker,
            wall_nanos: 0,
            origin,
            gather_nanos: 0,
            eval_nanos: 0,
        },
        drawn,
        degraded: if budget_abort {
            // the budget stopped the draw but the partial stayed uniform:
            // keep it, measure on it, and record the degradation
            Some(DegradedTable {
                qun,
                table: tid,
                fault_point: FP_COLLECT_BUDGET,
                fallback: FB_PARTIAL_SAMPLE,
            })
        } else {
            None
        },
    };
    // random-probe sampling costs O(sample), independent of table size
    // (paper §4, citing [1, 8, 12]); charge a random-access fetch per
    // sampled row. Cache hits charge the same units: `work` feeds the
    // machine-independent cost model the paper's experiments replay, so it
    // stays invariant to the (wall-clock-only) fast path. Retry backoff is
    // charged first (zero when no fault fired, leaving the sum untouched).
    if backoff_work > 0.0 {
        out.work += backoff_work;
    }
    out.work += n as f64 * 2.0;
    if n == 0 {
        out.timing.wall_nanos = clock.map(|c| c().saturating_sub(started)).unwrap_or(0);
        return out;
    }

    // gather the used columns once into dense typed buffers, folding the
    // per-column axis min/max into the same pass, then evaluate each single
    // local predicate into a bitset over the sample. Columns already
    // memoized with a served sample (exact-epoch cache hit) are reused
    // as-is — a cached gather is a pure projection of an unchanged table,
    // so its buffers are bit-identical to what this gather would produce.
    let gather_started = clock.map(|c| c()).unwrap_or(0);
    let local = block.local_predicates_of(qun);
    // Post-draw evaluation budget: a full draw can still blow the budget in
    // the row×predicate evaluation phase (probes already spent plus one
    // unit per row×predicate). Degrade to older statistics rather than
    // exceed the bound. A budget-aborted partial is exempt — its draw
    // consumed the budget by construction, and evaluating the (small)
    // partial is the whole point of keeping it.
    if budget != 0
        && !budget_abort
        && (probes as u64).saturating_add((n * local.len()) as u64) > budget
    {
        let mut d = TablePartial::degraded(qun, tid, FP_COLLECT_BUDGET, FB_ARCHIVE_STATS, out.work);
        d.timing = out.timing;
        d.timing.wall_nanos = clock.map(|c| c().saturating_sub(started)).unwrap_or(0);
        return d;
    }
    let used_cols: Vec<ColumnId> = {
        let mut cols: Vec<ColumnId> = local
            .iter()
            .map(|&pi| block.local_predicates[pi].column)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    };
    let mut frame: BTreeMap<ColumnId, Arc<FrameColumn>> = BTreeMap::new();
    let mut gathered: Vec<(ColumnId, Arc<FrameColumn>)> = Vec::new();
    for &col in &used_cols {
        let fc = match cached_frames.get(&col) {
            Some(fc) => Arc::clone(fc),
            None => {
                let fc = Arc::new(table.gather_column(col, &rows));
                gathered.push((col, Arc::clone(&fc)));
                fc
            }
        };
        frame.insert(col, fc);
    }
    let words = n.div_ceil(64);
    let mut bitsets: BTreeMap<usize, Arc<Vec<u64>>> = BTreeMap::new();
    let mut evaluated: Vec<(String, Arc<Vec<u64>>)> = Vec::new();
    for &pi in &local {
        let p = &block.local_predicates[pi];
        let key = fingerprint(block, &[pi]);
        let bits = match cached_bitsets.get(&key) {
            Some(b) => Arc::clone(b),
            None => match frame.get(&p.column) {
                Some(fc) => {
                    let b = Arc::new(pred_bitset(p, fc, words));
                    evaluated.push((key, Arc::clone(&b)));
                    b
                }
                None => continue,
            },
        };
        bitsets.insert(pi, bits);
    }
    out.work += (n * local.len()) as f64;

    // per-column frames from the gather, for seeding archive histograms
    let mut col_minmax: BTreeMap<ColumnId, (f64, f64)> = BTreeMap::new();
    for &col in &used_cols {
        if let Some(fc) = frame.get(&col) {
            let (lo, hi) = (fc.axis_min, fc.axis_max);
            if lo.is_finite() && hi >= lo {
                let pad = ((hi - lo).abs() * 0.05).max(1.0);
                col_minmax.insert(col, (lo - pad, hi + pad));
            }
        }
    }
    // hand freshly derived artifacts back for cache commit: attached to the
    // fresh draw, or as an artifact-only deposit on top of a served sample
    if !gathered.is_empty() || !evaluated.is_empty() {
        match out.drawn.as_mut() {
            Some(d) => {
                d.frames = gathered;
                d.bitsets = evaluated;
            }
            None => {
                out.drawn = Some(DrawnSample {
                    qun,
                    table: tid,
                    rows: Arc::clone(&rows),
                    probes,
                    fresh: false,
                    frames: gathered,
                    bitsets: evaluated,
                })
            }
        }
    }
    out.timing.gather_nanos = clock
        .map(|c| c().saturating_sub(gather_started))
        .unwrap_or(0);

    // Lattice-incremental AND per candidate group. Candidates arrive in
    // (size, lexicographic) order, so the (k−1)-prefix of a group was
    // evaluated before the group itself whenever it was enumerated; single
    // predicate bitsets never set bits past the sample tail, so no
    // re-masking is needed along the lattice.
    let eval_started = clock.map(|c| c()).unwrap_or(0);
    let types = |col: ColumnId| {
        table
            .schema()
            .column(col)
            .map(|c| c.dtype)
            .unwrap_or(DataType::Float)
    };
    let mut computed: BTreeMap<&[usize], (Vec<u64>, usize)> = BTreeMap::new();
    for cand in candidates.iter().filter(|c| c.qun == qun) {
        let preds = &cand.pred_indices;
        let k = preds.len();
        let (acc, matches) = if k == 1 {
            match bitsets.get(&preds[0]) {
                Some(b) => {
                    let bits = (**b).clone();
                    let m = popcount(&bits);
                    (bits, m)
                }
                None => (vec![0u64; words], 0),
            }
        } else {
            match computed.get(&preds[..k - 1]) {
                // a zero-count parent zeroes every descendant: AND with the
                // all-zero bitset is the all-zero bitset, no work needed
                Some((_, 0)) => (vec![0u64; words], 0),
                Some((pbits, _)) => {
                    let mut acc = pbits.clone();
                    if let Some(last) = bitsets.get(&preds[k - 1]) {
                        for (w, b) in acc.iter_mut().zip(last.iter()) {
                            *w &= b;
                        }
                    }
                    let m = popcount(&acc);
                    (acc, m)
                }
                // capped enumeration skipped the (k−1)-parent (singletons +
                // pairs + full group): fall back to the full AND
                None => {
                    let mut acc = vec![u64::MAX; words];
                    for &pi in preds {
                        if let Some(b) = bitsets.get(&pi) {
                            for (w, bb) in acc.iter_mut().zip(b.iter()) {
                                *w &= bb;
                            }
                        }
                    }
                    // mask the tail beyond n (the all-ones seed set it)
                    if !n.is_multiple_of(64) {
                        let last = words - 1;
                        acc[last] &= (1u64 << (n % 64)) - 1;
                    }
                    let m = popcount(&acc);
                    (acc, m)
                }
            }
        };
        out.work += words as f64 / 8.0;

        let region = group_region(block, &cand.pred_indices, &types);
        let mut key = cand.pred_indices.clone();
        key.sort_unstable();
        out.groups.push((
            (qun, key),
            GroupStat {
                colgroup: cand.colgroup.clone(),
                selectivity: matches as f64 / n as f64,
                matches,
                sample_size: n,
                region,
            },
        ));

        // frame for this colgroup (sample min/max per column)
        let ranges: Option<Vec<(f64, f64)>> = cand
            .colgroup
            .columns()
            .iter()
            .map(|c| col_minmax.get(c).copied())
            .collect();
        if let Some(ranges) = ranges {
            out.frames
                .push((cand.colgroup.clone(), Region::new(ranges)));
        }
        computed.insert(preds.as_slice(), (acc, matches));
    }
    out.timing.eval_nanos = clock.map(|c| c().saturating_sub(eval_started)).unwrap_or(0);
    out.timing.wall_nanos = clock.map(|c| c().saturating_sub(started)).unwrap_or(0);
    out
}

/// Samples each marked quantifier's table once and computes the selectivity
/// of every candidate group on that quantifier (sequential collection).
pub fn collect_for_tables(
    block: &QueryBlock,
    sample_quns: &[usize],
    candidates: &[CandidateGroup],
    tables: &[Table],
    spec: SampleSpec,
    rng: &mut SplitMix64,
) -> CollectedStats {
    collect_for_tables_parallel(block, sample_quns, candidates, tables, spec, rng, 1)
}

/// [`collect_for_tables`] with the per-table sampling fanned out across up
/// to `threads` scoped worker threads.
///
/// Results are **bit-identical** to the sequential path for any `threads`
/// value: every (table, quantifier) pair draws from its own RNG stream
/// derived via `table_stream`, and partials merge in quantifier order
/// (fixing the f64 `work` summation order too).
pub fn collect_for_tables_parallel(
    block: &QueryBlock,
    sample_quns: &[usize],
    candidates: &[CandidateGroup],
    tables: &[Table],
    spec: SampleSpec,
    rng: &mut SplitMix64,
    threads: usize,
) -> CollectedStats {
    collect_for_tables_sourced(
        block,
        sample_quns,
        candidates,
        tables,
        spec,
        rng,
        threads,
        None,
        &BTreeMap::new(),
        0,
        &FaultPlane::disabled(),
        0,
    )
    .0
}

/// [`collect_for_tables_parallel`] with per-table [`CollectTiming`]
/// telemetry and per-quantifier [`SampleSource`]s from the engine's
/// sample-cache resolution. `clock` supplies monotonic nanoseconds (pass
/// `None` when not tracing — timings then carry zero wall time but still
/// report deterministic row/probe counts); the statistics returned are
/// identical whether or not a clock is supplied. Quantifiers absent from
/// `sources` draw fresh (so an empty map is exactly the cold path). Returns
/// every cache deposit — fresh draws plus columns gathered on top of served
/// samples — as [`DrawnSample`]s (in quantifier order) for the caller to
/// commit back to its cache.
///
/// `budget` is the per-table work-unit budget (`0` = unlimited), `fault`
/// the injection plane (pass [`FaultPlane::disabled`] outside chaos runs),
/// and `stmt_clock` the statement clock fault decisions key off. Per-table
/// failures — injected or budget-driven — are isolated: the failing table
/// lands in [`CollectedStats::degraded`] and the qun-ordered merge proceeds
/// with the remaining tables.
#[allow(clippy::too_many_arguments)]
pub fn collect_for_tables_sourced(
    block: &QueryBlock,
    sample_quns: &[usize],
    candidates: &[CandidateGroup],
    tables: &[Table],
    spec: SampleSpec,
    rng: &mut SplitMix64,
    threads: usize,
    clock: Option<&(dyn Fn() -> u64 + Sync)>,
    sources: &BTreeMap<usize, SampleSource>,
    budget: u64,
    fault: &FaultPlane,
    stmt_clock: u64,
) -> (CollectedStats, Vec<CollectTiming>, Vec<DrawnSample>) {
    let mut out = CollectedStats::default();
    // Table statistics (row counts) are "needed for every table involved in
    // the query" (paper §3.2) and are cheap metadata — collect them for all
    // quantifiers, not just the sampled ones.
    for qun in &block.quns {
        if let Some(table) = tables.get(qun.table.index()) {
            out.table_rows.insert(qun.table, table.row_count() as f64);
        }
    }

    // one deterministic stream per marked (table, qun) pair; the base is
    // drawn unconditionally so the caller's RNG state evolves identically
    // whether samples are drawn or served from cache
    let stream_base = rng.next_u64();
    type Job<'t> = (usize, TableId, &'t Table, SplitMix64, SampleSource);
    let jobs: Vec<Job<'_>> = sample_quns
        .iter()
        .filter_map(|&qun| {
            let tid = block.quns[qun].table;
            tables.get(tid.index()).map(|t| {
                let source = sources
                    .get(&qun)
                    .cloned()
                    .unwrap_or(SampleSource::Draw { staleness: None });
                (qun, tid, t, table_stream(stream_base, tid, qun), source)
            })
        })
        .collect();

    let workers = threads.max(1).min(jobs.len().max(1));
    out.collect_threads = workers;
    out.tables_sampled = jobs.len();

    let mut partials: Vec<TablePartial> = if workers <= 1 || jobs.len() <= 1 {
        jobs.into_iter()
            .map(|(qun, tid, table, rng, source)| {
                collect_one_table(
                    block, qun, candidates, tid, table, spec, source, rng, 0, clock, budget, fault,
                    stmt_clock,
                )
            })
            .collect()
    } else {
        // round-robin the jobs across scoped workers; assignment does not
        // affect the result, only the wall clock
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let worker_jobs: Vec<Job<'_>> = jobs
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .map(|(qun, tid, table, rng, source)| {
                        (*qun, *tid, *table, rng.clone(), source.clone())
                    })
                    .collect();
                // remember the worker's job identities so a poisoned worker
                // degrades exactly its tables instead of the whole pass
                let idents: Vec<(usize, TableId)> =
                    worker_jobs.iter().map(|(q, t, ..)| (*q, *t)).collect();
                let handle = scope.spawn(move || {
                    worker_jobs
                        .into_iter()
                        .map(|(qun, tid, table, rng, source)| {
                            collect_one_table(
                                block, qun, candidates, tid, table, spec, source, rng, w, clock,
                                budget, fault, stmt_clock,
                            )
                        })
                        .collect::<Vec<TablePartial>>()
                });
                handles.push((idents, handle));
            }
            let mut all = Vec::new();
            for (idents, h) in handles {
                match h.join() {
                    Ok(worker_partials) => all.extend(worker_partials),
                    // worker isolation: a panicked worker marks its tables
                    // degraded and the merge proceeds with the rest
                    Err(_) => all.extend(idents.into_iter().map(|(qun, tid)| {
                        TablePartial::degraded(qun, tid, FP_COLLECT_WORKER, FB_ARCHIVE_STATS, 0.0)
                    })),
                }
            }
            all
        })
    };

    // deterministic merge in quantifier order
    partials.sort_by_key(|p| p.qun);
    let mut timings = Vec::with_capacity(partials.len());
    let mut drawn = Vec::new();
    for p in partials {
        out.work += p.work;
        for (key, stat) in p.groups {
            out.groups.insert(key, stat);
        }
        for (cg, frame) in p.frames {
            // merging worker partials of one collection call: every partial
            // gathered under this statement's guards at a single epoch, so
            // no boundary can be crossed here
            // jits-lint: allow(epoch-safety)
            out.frames.entry(cg).or_insert(frame);
        }
        timings.push(p.timing);
        if let Some(d) = p.drawn {
            drawn.push(d);
        }
        if let Some(d) = p.degraded {
            out.degraded.push(d);
        }
    }
    (out, timings, drawn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::query_analysis;
    use jits_catalog::Catalog;
    use jits_common::{Schema, Value};
    use jits_query::{bind_statement, parse, BoundStatement};

    /// 1000 cars; make and model perfectly correlated (30% Toyota Camry).
    fn setup() -> (Catalog, Vec<Table>, QueryBlock) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
            ("year", DataType::Int),
        ]);
        catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..1000i64 {
            let (make, model) = match i % 10 {
                0..=2 => ("Toyota", "Camry"),
                3..=5 => ("Toyota", "Corolla"),
                _ => ("Honda", "Civic"),
            };
            t.insert(vec![
                Value::Int(i),
                Value::str(make),
                Value::str(model),
                Value::Int(1990 + i % 17),
            ])
            .unwrap();
        }
        let BoundStatement::Select(block) = bind_statement(
            &parse("SELECT * FROM car WHERE make = 'Toyota' AND model = 'Camry'").unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        (catalog, vec![t], block)
    }

    #[test]
    fn joint_selectivities_measured_exactly_on_full_sample() {
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let mut rng = SplitMix64::new(1);
        // sample larger than the table: all rows examined
        let stats = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(5000),
            &mut rng,
        );
        // 3 groups: {make}, {model}, {make, model}
        assert_eq!(stats.groups.len(), 3);
        let joint = stats.group(0, &[0, 1]).unwrap();
        assert!((joint.selectivity - 0.3).abs() < 1e-9);
        let make = stats.group(0, &[0]).unwrap();
        assert!((make.selectivity - 0.6).abs() < 1e-9);
        assert_eq!(stats.table_rows[&block.quns[0].table], 1000.0);
        assert!(stats.work > 0.0);
    }

    #[test]
    fn sampled_selectivities_approximate() {
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let mut rng = SplitMix64::new(7);
        let stats = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(400),
            &mut rng,
        );
        let joint = stats.group(0, &[0, 1]).unwrap();
        assert_eq!(joint.sample_size, 400);
        assert!(
            (joint.selectivity - 0.3).abs() < 0.08,
            "sel {}",
            joint.selectivity
        );
    }

    #[test]
    fn regions_and_frames_produced() {
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let mut rng = SplitMix64::new(1);
        let stats = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(5000),
            &mut rng,
        );
        let joint = stats.group(0, &[0, 1]).unwrap();
        let region = joint.region.as_ref().expect("equality group is a region");
        assert_eq!(region.dims(), 2);
        assert!(!region.is_empty());
        let frame = stats.frames.get(&joint.colgroup).expect("frame exists");
        assert_eq!(frame.dims(), 2);
        // frame must contain the region (string codes of observed makes)
        assert!(frame.intersect(region).volume() > 0.0);
    }

    /// Two correlated tables joined, both quantifiers marked.
    fn setup_join() -> (Catalog, Vec<Table>, QueryBlock) {
        let mut catalog = Catalog::new();
        let car_schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let owner_schema = Schema::from_pairs(&[("id", DataType::Int), ("salary", DataType::Int)]);
        catalog.register_table("car", car_schema.clone()).unwrap();
        catalog
            .register_table("owner", owner_schema.clone())
            .unwrap();
        let mut car = Table::new("car", car_schema);
        for i in 0..1200i64 {
            car.insert(vec![
                Value::Int(i),
                Value::Int(i % 300),
                Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                Value::Int(1990 + i % 17),
            ])
            .unwrap();
        }
        let mut owner = Table::new("owner", owner_schema);
        for i in 0..300i64 {
            owner
                .insert(vec![Value::Int(i), Value::Int(i * 400)])
                .unwrap();
        }
        let BoundStatement::Select(block) = bind_statement(
            &parse(
                "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id \
                 AND make = 'Toyota' AND year > 2000 AND salary > 50000",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        (catalog, vec![car, owner], block)
    }

    #[test]
    fn parallel_collection_is_bit_identical_to_sequential() {
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        let seq = collect_for_tables(
            &block,
            &[0, 1],
            &candidates,
            &tables,
            SampleSpec::fixed(400),
            &mut SplitMix64::new(99),
        );
        for threads in [2, 4, 8] {
            let par = collect_for_tables_parallel(
                &block,
                &[0, 1],
                &candidates,
                &tables,
                SampleSpec::fixed(400),
                &mut SplitMix64::new(99),
                threads,
            );
            assert_eq!(par.groups, seq.groups, "groups differ at {threads} threads");
            assert_eq!(par.frames, seq.frames, "frames differ at {threads} threads");
            assert_eq!(par.table_rows, seq.table_rows);
            assert_eq!(
                par.work.to_bits(),
                seq.work.to_bits(),
                "work must sum in the same order"
            );
            assert_eq!(par.tables_sampled, 2);
        }
    }

    #[test]
    fn per_table_streams_are_independent_of_marking_order() {
        // sampling table B alone must give the same rows for B as sampling
        // A and B together — streams derive from identity, not draw order
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        let both = collect_for_tables(
            &block,
            &[0, 1],
            &candidates,
            &tables,
            SampleSpec::fixed(200),
            &mut SplitMix64::new(7),
        );
        let only_owner = collect_for_tables(
            &block,
            &[1],
            &candidates,
            &tables,
            SampleSpec::fixed(200),
            &mut SplitMix64::new(7),
        );
        let key_both: Vec<_> = both
            .groups
            .iter()
            .filter(|((q, _), _)| *q == 1)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let key_only: Vec<_> = only_owner
            .groups
            .iter()
            .filter(|((q, _), _)| *q == 1)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let sorted = |mut v: Vec<((usize, Vec<usize>), GroupStat)>| {
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(sorted(key_both), sorted(key_only));
    }

    #[test]
    fn unmarked_tables_not_sampled() {
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let mut rng = SplitMix64::new(1);
        let stats = collect_for_tables(
            &block,
            &[],
            &candidates,
            &tables,
            SampleSpec::default(),
            &mut rng,
        );
        assert!(stats.groups.is_empty());
        // table cardinalities are metadata, collected for every block table
        assert_eq!(stats.table_rows.len(), 1);
        assert_eq!(stats.work, 0.0);
    }

    /// Table mixing every column type, NULLs included, for semantics tests.
    fn setup_mixed() -> (Catalog, Vec<Table>, QueryBlock) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("price", DataType::Float),
            ("year", DataType::Int),
        ]);
        catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..600i64 {
            let make = match i % 7 {
                0 | 1 => Value::str("Toyota"),
                2 => Value::str("Honda"),
                3 => Value::Null,
                _ => Value::str("Audi"),
            };
            let price = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Float(5.0 + (i % 50) as f64 * 0.75)
            };
            t.insert(vec![Value::Int(i), make, price, Value::Int(1990 + i % 25)])
                .unwrap();
        }
        let BoundStatement::Select(block) = bind_statement(
            &parse(
                "SELECT * FROM car WHERE make = 'Toyota' AND year > 2000 \
                 AND year <= 2012 AND price <= 30.5 AND id <> 7",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        (catalog, vec![t], block)
    }

    #[test]
    fn columnar_lattice_eval_matches_row_oriented_reference() {
        // full-table sample: every group's matches must equal a row-by-row
        // reference evaluation through LocalPredicate::matches + Table::value
        let (_, tables, block) = setup_mixed();
        let candidates = query_analysis(&block);
        let stats = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &tables,
            SampleSpec::fixed(5000),
            &mut SplitMix64::new(5),
        );
        let t = &tables[0];
        for cand in &candidates {
            let expected = t
                .scan()
                .filter(|&r| {
                    cand.pred_indices.iter().all(|&pi| {
                        let p = &block.local_predicates[pi];
                        p.matches(&t.value(r, p.column))
                    })
                })
                .count();
            let got = stats.group(0, &cand.pred_indices).unwrap();
            assert_eq!(
                got.matches, expected,
                "group {:?} disagrees with the reference",
                cand.pred_indices
            );
        }
    }

    #[test]
    fn capped_enumeration_falls_back_to_full_and() {
        // 8 predicates past MAX_GROUP_ENUMERATION: candidates are capped
        // to singletons + pairs + the full 8-group, whose 7-parent is never
        // enumerated — the full-AND fallback must agree with the reference
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("model", DataType::Str),
            ("year", DataType::Int),
        ]);
        catalog.register_table("car", schema.clone()).unwrap();
        let mut t = Table::new("car", schema);
        for i in 0..400i64 {
            t.insert(vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "a" } else { "b" }),
                Value::str(if i % 3 == 0 { "x" } else { "y" }),
                Value::Int(i % 10),
            ])
            .unwrap();
        }
        let BoundStatement::Select(block) = bind_statement(
            &parse(
                "SELECT * FROM car WHERE id > 0 AND id < 300 AND make = 'a' AND model = 'y' \
                 AND year > 1 AND year < 9 AND id <> 5 AND make <> 'c'",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap() else {
            panic!()
        };
        let candidates = query_analysis(&block);
        assert!(candidates.iter().any(|c| c.pred_indices.len() == 8));
        let stats = collect_for_tables(
            &block,
            &[0],
            &candidates,
            &[t],
            SampleSpec::fixed(5000),
            &mut SplitMix64::new(3),
        );
        // rebuild the reference on the same (full) sample
        let tables_ref = {
            let schema = Schema::from_pairs(&[
                ("id", DataType::Int),
                ("make", DataType::Str),
                ("model", DataType::Str),
                ("year", DataType::Int),
            ]);
            let mut t = Table::new("car", schema);
            for i in 0..400i64 {
                t.insert(vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "a" } else { "b" }),
                    Value::str(if i % 3 == 0 { "x" } else { "y" }),
                    Value::Int(i % 10),
                ])
                .unwrap();
            }
            t
        };
        for cand in &candidates {
            let expected = tables_ref
                .scan()
                .filter(|&r| {
                    cand.pred_indices.iter().all(|&pi| {
                        let p = &block.local_predicates[pi];
                        p.matches(&tables_ref.value(r, p.column))
                    })
                })
                .count();
            let got = stats.group(0, &cand.pred_indices).unwrap();
            assert_eq!(got.matches, expected, "group {:?}", cand.pred_indices);
        }
    }

    #[test]
    fn served_sample_reproduces_draw_exactly() {
        // collecting with a Served source over the rows a fresh draw
        // produced must yield bit-identical group statistics, and mark the
        // timing as cache-served
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let spec = SampleSpec::fixed(400);
        let (cold, cold_timings, drawn) = collect_for_tables_sourced(
            &block,
            &[0],
            &candidates,
            &tables,
            spec,
            &mut SplitMix64::new(42),
            1,
            None,
            &BTreeMap::new(),
            0,
            &FaultPlane::disabled(),
            0,
        );
        assert_eq!(drawn.len(), 1);
        assert!(drawn[0].fresh);
        assert!(
            !drawn[0].frames.is_empty(),
            "a fresh draw deposits its gathered columns"
        );
        assert_eq!(cold_timings[0].origin, SampleOrigin::Fresh);
        let mut sources = BTreeMap::new();
        sources.insert(
            0usize,
            SampleSource::Served {
                rows: Arc::clone(&drawn[0].rows),
                probes: drawn[0].probes,
                staleness: 0.0,
                frames: BTreeMap::new(),
                bitsets: BTreeMap::new(),
            },
        );
        let (warm, warm_timings, warm_drawn) = collect_for_tables_sourced(
            &block,
            &[0],
            &candidates,
            &tables,
            spec,
            &mut SplitMix64::new(42),
            1,
            None,
            &sources,
            0,
            &FaultPlane::disabled(),
            0,
        );
        assert!(
            warm_drawn.iter().all(|d| !d.fresh),
            "served samples draw nothing"
        );
        assert_eq!(
            warm_drawn.len(),
            1,
            "columns gathered over a served sample come back as a deposit"
        );
        assert_eq!(warm.groups, cold.groups);
        assert_eq!(warm.frames, cold.frames);
        assert_eq!(warm.work.to_bits(), cold.work.to_bits());
        assert_eq!(
            warm_timings[0].origin,
            SampleOrigin::Cached { staleness: 0.0 }
        );
        assert_eq!(warm_timings[0].rows_sampled, cold_timings[0].rows_sampled);
        assert_eq!(warm_timings[0].slot_probes, cold_timings[0].slot_probes);

        // serving the memoized gathers as well must change nothing but the
        // work done: same groups, same frames, same charged work, and no
        // deposit at all (every used column was already cached)
        let mut hot_sources = BTreeMap::new();
        hot_sources.insert(
            0usize,
            SampleSource::Served {
                rows: Arc::clone(&drawn[0].rows),
                probes: drawn[0].probes,
                staleness: 0.0,
                frames: drawn[0].frames.iter().cloned().collect(),
                bitsets: drawn[0].bitsets.iter().cloned().collect(),
            },
        );
        let (hot, hot_timings, hot_drawn) = collect_for_tables_sourced(
            &block,
            &[0],
            &candidates,
            &tables,
            spec,
            &mut SplitMix64::new(42),
            1,
            None,
            &hot_sources,
            0,
            &FaultPlane::disabled(),
            0,
        );
        assert!(hot_drawn.is_empty(), "nothing left to deposit");
        assert_eq!(hot.groups, cold.groups);
        assert_eq!(hot.frames, cold.frames);
        assert_eq!(hot.work.to_bits(), cold.work.to_bits());
        assert_eq!(hot_timings[0].rows_sampled, cold_timings[0].rows_sampled);
    }

    #[test]
    fn sourced_draw_consumes_rng_identically_to_cold_path() {
        // the stream base must be drawn from the session RNG whether or not
        // samples are served, so RNG evolution is cache-independent
        let (_, tables, block) = setup();
        let candidates = query_analysis(&block);
        let spec = SampleSpec::fixed(100);
        let mut rng_cold = SplitMix64::new(9);
        let _ = collect_for_tables(&block, &[0], &candidates, &tables, spec, &mut rng_cold);
        let mut rng_warm = SplitMix64::new(9);
        let mut sources = BTreeMap::new();
        sources.insert(
            0usize,
            SampleSource::Served {
                rows: Arc::new(vec![0, 1, 2]),
                probes: 3,
                staleness: 0.0,
                frames: BTreeMap::new(),
                bitsets: BTreeMap::new(),
            },
        );
        let _ = collect_for_tables_sourced(
            &block,
            &[0],
            &candidates,
            &tables,
            spec,
            &mut rng_warm,
            1,
            None,
            &sources,
            0,
            &FaultPlane::disabled(),
            0,
        );
        assert_eq!(rng_cold.next_u64(), rng_warm.next_u64());
    }

    fn collect_faulted(
        block: &QueryBlock,
        tables: &[Table],
        candidates: &[CandidateGroup],
        threads: usize,
        budget: u64,
        fault: &FaultPlane,
        stmt_clock: u64,
    ) -> CollectedStats {
        collect_for_tables_sourced(
            block,
            &[0, 1],
            candidates,
            tables,
            SampleSpec::fixed(200),
            &mut SplitMix64::new(21),
            threads,
            None,
            &BTreeMap::new(),
            budget,
            fault,
            stmt_clock,
        )
        .0
    }

    #[test]
    fn persistent_draw_fault_degrades_only_its_table() {
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        // key = clock*1024 + qun: arm qun 0 of statement 1 persistently
        let fault = FaultPlane::from_spec(5, "sample.draw=once:1024:inf").unwrap();
        let stats = collect_faulted(&block, &tables, &candidates, 1, 0, &fault, 1);
        assert_eq!(stats.degraded.len(), 1);
        let d = &stats.degraded[0];
        assert_eq!(d.qun, 0);
        assert_eq!(d.fault_point, FP_SAMPLE_DRAW);
        assert_eq!(d.fallback, FB_ARCHIVE_STATS);
        // qun 0 contributed no groups; qun 1's stats survived the merge
        assert!(stats.groups.keys().all(|(q, _)| *q == 1));
        assert!(stats.groups.keys().any(|(q, _)| *q == 1));
        // both tables still report row counts (cheap metadata)
        assert_eq!(stats.table_rows.len(), 2);
    }

    #[test]
    fn transient_draw_fault_retries_and_charges_backoff() {
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        let clean = collect_faulted(
            &block,
            &tables,
            &candidates,
            1,
            0,
            &FaultPlane::disabled(),
            1,
        );
        // default 1 attempt: fires at attempt 0, clears at attempt 1
        let fault = FaultPlane::from_spec(5, "sample.draw=once:1024").unwrap();
        let stats = collect_faulted(&block, &tables, &candidates, 1, 0, &fault, 1);
        assert!(stats.degraded.is_empty(), "transient fault must clear");
        assert_eq!(stats.groups, clean.groups, "retry must not perturb stats");
        // one failed attempt charges 1 << 0 = 1 backoff work unit
        assert_eq!(stats.work, clean.work + 1.0);
    }

    #[test]
    fn worker_fault_and_degradation_replay_identically_across_threads() {
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        let fault = FaultPlane::from_spec(77, "collect.worker=once:2049:inf").unwrap();
        let one = collect_faulted(&block, &tables, &candidates, 1, 0, &fault, 2);
        assert_eq!(one.degraded.len(), 1);
        assert_eq!(one.degraded[0].qun, 1);
        assert_eq!(one.degraded[0].fault_point, FP_COLLECT_WORKER);
        for threads in [2, 8] {
            let par = collect_faulted(&block, &tables, &candidates, threads, 0, &fault, 2);
            assert_eq!(par.degraded, one.degraded, "at {threads} threads");
            assert_eq!(par.groups, one.groups, "at {threads} threads");
            assert_eq!(
                par.work.to_bits(),
                one.work.to_bits(),
                "at {threads} threads"
            );
        }
    }

    #[test]
    fn budget_degrades_deterministically_at_any_thread_count() {
        let (_, tables, block) = setup_join();
        let candidates = query_analysis(&block);
        // a tight budget binds on both tables' draws
        let one = collect_faulted(
            &block,
            &tables,
            &candidates,
            1,
            150,
            &FaultPlane::disabled(),
            3,
        );
        assert!(!one.degraded.is_empty(), "tight budget must degrade");
        for d in &one.degraded {
            assert_eq!(d.fault_point, FP_COLLECT_BUDGET);
        }
        for threads in [2, 8] {
            let par = collect_faulted(
                &block,
                &tables,
                &candidates,
                threads,
                150,
                &FaultPlane::disabled(),
                3,
            );
            assert_eq!(par.degraded, one.degraded);
            assert_eq!(par.groups, one.groups);
            assert_eq!(par.work.to_bits(), one.work.to_bits());
        }
        // unlimited budget: no degradation at all
        let clean = collect_faulted(
            &block,
            &tables,
            &candidates,
            1,
            0,
            &FaultPlane::disabled(),
            3,
        );
        assert!(clean.degraded.is_empty());
    }
}

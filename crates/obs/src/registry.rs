//! Named-metric registry: counters, gauges, and log2 latency histograms.
//!
//! Metrics are registered under dotted names following the
//! `jits.<component>.<name>` scheme and live in a `BTreeMap`, so snapshots
//! enumerate in a deterministic lexicographic order (no hash iteration —
//! lint-clean). Handles returned by [`MetricsRegistry::counter`] & friends
//! are cloned `Arc`s over atomics: hot-path updates never touch the
//! registry lock, which is only taken to register or snapshot.
//!
//! Every metric declares a [`Volatility`]. `Deterministic` metrics are pure
//! functions of the workload and seed (statement counts, rows sampled,
//! evictions, …) and must be byte-identical across `collect_threads`
//! settings; `Volatile` metrics carry wall-clock or scheduling noise
//! (latency histograms, lock waits) and are excluded from determinism
//! comparisons by exporting with `include_volatile = false`.

use parking_lot::rank::LockRank;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rank of the registry lock in the engine's global acquisition order: it
/// sits *above* every engine lock (`catalog(1)` … `setting(7)`) and above
/// the WAL lock (8), so metric registration/snapshot is always legal while
/// holding engine or durability guards, and no engine lock may be acquired
/// while holding the registry lock.
pub const RANK_REGISTRY: LockRank = LockRank::new(9, "registry");

/// Whether a metric is reproducible across runs and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volatility {
    /// Pure function of workload + seed; byte-identical at any thread count.
    Deterministic,
    /// Carries wall-clock or scheduling noise; excluded from determinism
    /// comparisons.
    Volatile,
}

/// Number of log2 latency buckets: bucket `i` holds observations in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended. 40
/// buckets reach ~18 minutes, far beyond any statement.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Shared storage of one log2 histogram.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a nanosecond observation: `floor(log2(v))`, clamped.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let idx = 63 - value.leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2 latency histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one nanosecond observation.
    #[inline]
    pub fn observe(&self, nanos: u64) {
        let core = &self.0;
        core.buckets[HistogramCore::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug, Clone)]
struct Registered {
    volatility: Volatility,
    instrument: Instrument,
}

/// Snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram reading: total count, nanosecond sum, and the non-empty
    /// buckets as `(upper_bound_nanos_exclusive, count)` pairs.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed nanoseconds.
        sum: u64,
        /// Non-empty buckets as `(exclusive upper bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Dotted metric name (`jits.<component>.<name>`).
    pub name: String,
    /// Whether the value carries wall-clock/scheduling noise.
    pub volatile: bool,
    /// The reading.
    pub value: SampleValue,
}

/// Upper-bound quantile estimate from a snapshot's non-empty bucket list
/// (`(exclusive upper bound, count)` pairs, ascending): the bound of the
/// first bucket at which the cumulative count reaches `ceil(q * count)`.
/// Returns 0 for an empty histogram. Because buckets are log2-spaced the
/// estimate is within 2× of the true quantile — the right fidelity for a
/// latency sketch, and exactly reproducible from any exported snapshot.
pub fn histogram_quantile(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for &(bound, n) in buckets {
        cumulative += n;
        if cumulative >= target {
            return bound;
        }
    }
    buckets.last().map(|&(bound, _)| bound).unwrap_or(0)
}

/// The registry: name → instrument, deterministically ordered.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Ranked [`RANK_REGISTRY`], above every engine lock.
    registry: RwLock<BTreeMap<String, Registered>>,
}

impl MetricsRegistry {
    /// An empty registry; its lock carries [`RANK_REGISTRY`].
    pub fn new() -> Self {
        MetricsRegistry {
            registry: RwLock::with_rank(BTreeMap::new(), RANK_REGISTRY),
        }
    }

    /// Gets or registers the counter `name`. If the name is already taken
    /// by a different instrument kind, returns a detached handle (updates
    /// go nowhere) rather than panicking.
    pub fn counter(&self, name: &str, volatility: Volatility) -> Counter {
        let mut reg = self.registry.write();
        let entry = reg.entry(name.to_string()).or_insert_with(|| Registered {
            volatility,
            instrument: Instrument::Counter(Arc::new(AtomicU64::new(0))),
        });
        match &entry.instrument {
            Instrument::Counter(cell) => Counter(Arc::clone(cell)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Gets or registers the gauge `name` (same kind-mismatch policy as
    /// [`Self::counter`]).
    pub fn gauge(&self, name: &str, volatility: Volatility) -> Gauge {
        let mut reg = self.registry.write();
        let entry = reg.entry(name.to_string()).or_insert_with(|| Registered {
            volatility,
            instrument: Instrument::Gauge(Arc::new(AtomicU64::new(0))),
        });
        match &entry.instrument {
            Instrument::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => Gauge(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Gets or registers the histogram `name` (same kind-mismatch policy as
    /// [`Self::counter`]).
    pub fn histogram(&self, name: &str, volatility: Volatility) -> Histogram {
        let mut reg = self.registry.write();
        let entry = reg.entry(name.to_string()).or_insert_with(|| Registered {
            volatility,
            instrument: Instrument::Histogram(Arc::new(HistogramCore::new())),
        });
        match &entry.instrument {
            Instrument::Histogram(core) => Histogram(Arc::clone(core)),
            _ => Histogram(Arc::new(HistogramCore::new())),
        }
    }

    /// Restores metrics to absolute snapshot values (crash recovery only —
    /// the inverse of [`MetricsRegistry::snapshot`] for the deterministic
    /// subset). Each sample is registered under its recorded volatility and
    /// overwritten with the snapshot reading; histogram buckets are rebuilt
    /// from their `(exclusive upper bound, count)` pairs, which is exact
    /// because bounds are the powers of two the log2 sketch emits.
    pub fn restore(&self, samples: &[MetricSample]) {
        for s in samples {
            let vol = if s.volatile {
                Volatility::Volatile
            } else {
                Volatility::Deterministic
            };
            match &s.value {
                SampleValue::Counter(v) => self.counter(&s.name, vol).add(*v),
                SampleValue::Gauge(v) => self.gauge(&s.name, vol).set(*v),
                SampleValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let h = self.histogram(&s.name, vol);
                    for &(bound, n) in buckets {
                        let idx = if bound == u64::MAX {
                            HISTOGRAM_BUCKETS - 1
                        } else {
                            (bound.trailing_zeros() as usize)
                                .saturating_sub(1)
                                .min(HISTOGRAM_BUCKETS - 1)
                        };
                        h.0.buckets[idx].fetch_add(n, Ordering::Relaxed);
                    }
                    h.0.count.fetch_add(*count, Ordering::Relaxed);
                    h.0.sum.fetch_add(*sum, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reads every metric, in lexicographic name order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let reg = self.registry.read();
        reg.iter()
            .map(|(name, r)| MetricSample {
                name: name.clone(),
                volatile: r.volatility == Volatility::Volatile,
                value: match &r.instrument {
                    Instrument::Counter(cell) => SampleValue::Counter(cell.load(Ordering::Relaxed)),
                    Instrument::Gauge(cell) => SampleValue::Gauge(cell.load(Ordering::Relaxed)),
                    Instrument::Histogram(core) => {
                        let buckets = core
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let n = b.load(Ordering::Relaxed);
                                if n == 0 {
                                    None
                                } else {
                                    // exclusive upper bound of bucket i is 2^(i+1)
                                    let bound = if i + 1 >= 64 {
                                        u64::MAX
                                    } else {
                                        1u64 << (i + 1)
                                    };
                                    Some((bound, n))
                                }
                            })
                            .collect();
                        SampleValue::Histogram {
                            count: core.count.load(Ordering::Relaxed),
                            sum: core.sum.load(Ordering::Relaxed),
                            buckets,
                        }
                    }
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jits.test.hits", Volatility::Deterministic);
        let b = reg.counter("jits.test.hits", Volatility::Deterministic);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("jits.b.gauge", Volatility::Volatile).set(9);
        reg.counter("jits.a.count", Volatility::Deterministic).inc();
        reg.histogram("jits.c.lat", Volatility::Volatile)
            .observe(1500);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["jits.a.count", "jits.b.gauge", "jits.c.lat"]);
        assert_eq!(snap[0].value, SampleValue::Counter(1));
        assert!(!snap[0].volatile);
        assert!(snap[1].volatile);
        match &snap[2].value {
            SampleValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, 1);
                assert_eq!(*sum, 1500);
                // 1500 falls in [1024, 2048)
                assert_eq!(buckets.as_slice(), &[(2048, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("jits.x", Volatility::Deterministic).inc();
        let g = reg.gauge("jits.x", Volatility::Deterministic);
        g.set(42);
        // the registered counter is untouched
        assert_eq!(reg.snapshot()[0].value, SampleValue::Counter(1),);
    }

    #[test]
    fn quantiles_from_bucket_list() {
        // 10 obs in [1024,2048), 89 in [2048,4096), 1 in [8192,16384)
        let buckets = [(2048u64, 10u64), (4096, 89), (16384, 1)];
        assert_eq!(histogram_quantile(&buckets, 100, 0.50), 4096);
        assert_eq!(histogram_quantile(&buckets, 100, 0.05), 2048);
        assert_eq!(histogram_quantile(&buckets, 100, 0.99), 4096);
        assert_eq!(histogram_quantile(&buckets, 100, 0.999), 16384);
        assert_eq!(histogram_quantile(&[], 0, 0.5), 0);
    }

    #[test]
    fn bucket_index_clamps() {
        assert_eq!(HistogramCore::bucket_index(0), 0);
        assert_eq!(HistogramCore::bucket_index(1), 0);
        assert_eq!(HistogramCore::bucket_index(2), 1);
        assert_eq!(HistogramCore::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}

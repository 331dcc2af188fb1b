//! Adaptive N-dimensional grid histograms — the QSS archive's storage form.
//!
//! A [`GridHistogram`] partitions a finite frame into an axis-aligned grid
//! (per-dimension boundary lists, row-major bucket counts). It *adapts* to
//! the queries it serves, exactly as the paper's Figure 2 illustrates:
//! every observed predicate region inserts its endpoints as new boundaries
//! (splitting bucket counts proportionally, i.e. assuming uniformity within
//! the old bucket), and the observed count becomes a max-entropy constraint
//! fitted by iterative proportional fitting ([`maxent`]). Constraint regions
//! and queries are walked per axis over the boundary lists, so no lookup
//! allocates per bucket. Each bucket carries the **timestamp** of the
//! last observation that touched it, which the sensitivity analysis uses to
//! judge recentness.

use crate::maxent::{self, Constraint, FitResult, Lowered};
use crate::region::Region;
use std::collections::VecDeque;

/// Hard caps keeping adaptive histograms bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridLimits {
    /// Maximum boundaries per dimension (buckets per dim = boundaries − 1).
    pub max_boundaries_per_dim: usize,
    /// Maximum retained max-entropy constraints.
    pub max_constraints: usize,
}

impl Default for GridLimits {
    fn default() -> Self {
        GridLimits {
            // categorical axes need two boundaries per observed value, so
            // the cap must exceed twice the expected distinct constants
            max_boundaries_per_dim: 65, // 64 buckets per dimension
            max_constraints: 24,
        }
    }
}

/// Raw state of one [`GridHistogram`], produced by
/// [`GridHistogram::snapshot`] and consumed by
/// [`GridHistogram::from_snapshot`]. Plain data (ranges as `(lo, hi)`
/// pairs, constraints as `(ranges, count, stamp)` triples) so the
/// durability layer can encode it without knowing histogram internals.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSnapshot {
    /// Per-dimension sorted boundary lists.
    pub boundaries: Vec<Vec<f64>>,
    /// Row-major bucket counts.
    pub counts: Vec<f64>,
    /// Per-bucket last-touch stamps.
    pub stamps: Vec<u64>,
    /// Total rows represented.
    pub total: f64,
    /// Retained constraints, FIFO order.
    pub constraints: Vec<ConstraintSnapshot>,
    /// LRU stamp of the histogram itself.
    pub last_used: u64,
    /// Size caps in force.
    pub limits: GridLimits,
}

/// One retained constraint of a [`GridSnapshot`]: (region ranges, count,
/// stamp).
pub type ConstraintSnapshot = (Vec<(f64, f64)>, f64, u64);

/// An adaptive N-dimensional histogram.
///
/// ```
/// use jits_histogram::{GridHistogram, Region};
///
/// // paper Figure 2: a in [0,50], b in [0,100], 100 tuples
/// let frame = Region::new(vec![(0.0, 50.0), (0.0, 100.0)]);
/// let mut h = GridHistogram::new(&frame, 100.0, 0);
///
/// // observe: 20 tuples satisfy (a > 20 AND b > 60)
/// let inf = f64::INFINITY;
/// h.apply_observation(&Region::new(vec![(20.0, inf), (60.0, inf)]), 20.0, 100.0, 1);
///
/// // the observed region now answers exactly
/// let sel = h.selectivity(&Region::new(vec![(20.0, inf), (60.0, inf)]));
/// assert!((sel - 0.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct GridHistogram {
    /// Per-dimension sorted boundaries; dimension `d` has
    /// `boundaries[d].len() - 1` buckets.
    boundaries: Vec<Vec<f64>>,
    /// Row-major bucket counts (`prod(buckets per dim)` entries).
    counts: Vec<f64>,
    /// Per-bucket timestamp of the last constraint that covered the bucket.
    stamps: Vec<u64>,
    /// Total rows represented.
    total: f64,
    /// Retained constraints (FIFO, newest at the back).
    constraints: VecDeque<Constraint>,
    /// Logical time this histogram last served the optimizer (LRU input).
    last_used: u64,
    limits: GridLimits,
}

impl GridHistogram {
    /// A single-bucket histogram over a finite frame holding `total` rows.
    ///
    /// The frame must be finite and non-degenerate in every dimension;
    /// degenerate dimensions are widened by an epsilon.
    pub fn new(frame: &Region, total: f64, stamp: u64) -> Self {
        let boundaries: Vec<Vec<f64>> = frame
            .ranges()
            .iter()
            .map(|&(lo, hi)| {
                let lo = if lo.is_finite() { lo } else { 0.0 };
                let mut hi = if hi.is_finite() { hi } else { lo + 1.0 };
                if hi <= lo {
                    hi = lo + 1.0;
                }
                vec![lo, hi]
            })
            .collect();
        GridHistogram {
            boundaries,
            counts: vec![total.max(0.0)],
            stamps: vec![stamp],
            total: total.max(0.0),
            constraints: VecDeque::new(),
            last_used: stamp,
            limits: GridLimits::default(),
        }
    }

    /// Overrides the default size limits.
    pub fn with_limits(mut self, limits: GridLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.boundaries.len()
    }

    /// Total bucket count.
    pub fn n_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total rows represented.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Per-dimension boundary lists (for the accuracy metric).
    pub fn boundaries(&self) -> &[Vec<f64>] {
        &self.boundaries
    }

    /// Row-major bucket counts (for one-dimensional histograms this is one
    /// count per bucket, in boundary order) — used by statistics migration.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Whether dimension `d` has a boundary at `x` (within a relative
    /// tolerance). Used to decide if an equality constant on a categorical
    /// axis was *observed* — interpolating such a point from a wide bucket
    /// would be meaningless.
    pub fn has_boundary(&self, d: usize, x: f64) -> bool {
        let tol = (x.abs() * 1e-12).max(1e-12);
        let b = &self.boundaries[d];
        let pos = b.partition_point(|p| *p < x - tol);
        pos < b.len() && (b[pos] - x).abs() <= tol
    }

    /// The finite frame covered by the grid.
    pub fn frame(&self) -> Region {
        Region::new(
            self.boundaries
                .iter()
                .map(|b| (b[0], b[b.len() - 1]))
                .collect(),
        )
    }

    /// Logical time the histogram last served an estimate.
    pub fn last_used(&self) -> u64 {
        self.last_used
    }

    /// Records a use (LRU bookkeeping).
    pub fn touch(&mut self, stamp: u64) {
        self.last_used = self.last_used.max(stamp);
    }

    /// Newest per-bucket observation stamp inside `region` (clamped to the
    /// frame); `None` if the region misses the frame entirely.
    pub fn newest_stamp_in(&self, region: &Region) -> Option<u64> {
        let clamped = |d| self.clamped_range(region, d);
        if (0..self.dims()).any(|d| is_empty(clamped(d))) {
            return None;
        }
        let mut newest = None;
        for_each_overlapping(&self.boundaries, &clamped, |flat, _| {
            newest = Some(newest.map_or(self.stamps[flat], |n: u64| n.max(self.stamps[flat])));
        });
        newest
    }

    /// Estimated fraction of rows inside `region` (uniformity within
    /// buckets). Regions outside the frame contribute nothing.
    pub fn selectivity(&self, region: &Region) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let clamped = |d| self.clamped_range(region, d);
        if (0..self.dims()).any(|d| is_empty(clamped(d))) {
            return 0.0;
        }
        let mut rows = 0.0;
        for_each_overlapping(&self.boundaries, &clamped, |flat, overlap| {
            rows += self.counts[flat] * overlap;
        });
        (rows / self.total).clamp(0.0, 1.0)
    }

    /// Applies an observation: `count` rows fall in `region` out of
    /// `new_total` rows overall, observed at `stamp`.
    ///
    /// The frame extends to cover the region's finite endpoints, the region's
    /// endpoints become boundaries (paper Figure 2), the constraint joins the
    /// retained set, and IPF re-fits all retained constraints.
    pub fn apply_observation(
        &mut self,
        region: &Region,
        count: f64,
        new_total: f64,
        stamp: u64,
    ) -> FitResult {
        debug_assert_eq!(region.dims(), self.dims());
        self.set_total(new_total.max(0.0));
        self.extend_frame(region);
        let inserted = self.refine(region);
        let clamped = region.clamp_to(&self.frame());
        // Stamp the buckets the observation covers, plus the buckets on both
        // sides of every freshly inserted boundary (paper Figure 2: "the
        // time stamp of the 4 new buckets (on both sides of the dotted
        // line) is updated").
        let (boundaries, stamps) = (&self.boundaries, &mut self.stamps);
        let mut stamp_covered = |range: &dyn Fn(usize) -> (f64, f64)| {
            for_each_overlapping(boundaries, range, |flat, overlap| {
                if overlap > COVERED {
                    stamps[flat] = stamps[flat].max(stamp);
                }
            });
        };
        stamp_covered(&|d| clamped.range(d));
        for (d, x) in inserted {
            let b = &boundaries[d];
            // the two slabs adjacent to x along dimension d
            // x now sits at index `pos`; the adjacent slabs span
            // [b[pos-1], x] and [x, b[pos+1]]
            let pos = b.partition_point(|p| *p < x);
            let lo = if pos >= 1 { b[pos - 1] } else { b[0] };
            let hi = if pos + 1 < b.len() {
                b[pos + 1]
            } else {
                b[b.len() - 1]
            };
            stamp_covered(&|dd| {
                if dd == d {
                    (lo, hi)
                } else {
                    frame_range(&boundaries[dd])
                }
            });
        }
        // Replace any retained constraint over the same region.
        self.constraints.retain(|c| c.region != clamped);
        self.constraints.push_back(Constraint {
            region: clamped,
            count: count.clamp(0.0, self.total),
            stamp,
        });
        while self.constraints.len() > self.limits.max_constraints {
            self.constraints.pop_front();
        }
        self.fit()
    }

    /// Rescales all counts so the histogram represents `total` rows
    /// (table cardinality changed).
    pub fn set_total(&mut self, total: f64) {
        if self.total > 0.0 && total > 0.0 {
            let f = total / self.total;
            for c in &mut self.counts {
                *c *= f;
            }
        } else if total > 0.0 {
            // was empty: spread uniformly by volume
            let frame_vol = self.frame_volume().max(f64::MIN_POSITIVE);
            let counts = &mut self.counts;
            walk_buckets(
                &self.boundaries,
                &|d| frame_range(&self.boundaries[d]),
                |flat, vol, _| {
                    counts[flat] = total * vol / frame_vol;
                },
            );
        } else {
            for c in &mut self.counts {
                *c = 0.0;
            }
        }
        self.total = total;
    }

    /// How close the distribution is to uniform-by-volume, in `[0, 1]`
    /// (1 = exactly uniform). This drives the archive's eviction policy:
    /// near-uniform histograms add nothing over the optimizer's assumptions.
    pub fn uniformity(&self) -> f64 {
        if self.total <= 0.0 || self.counts.len() <= 1 {
            return 1.0;
        }
        let frame_vol = self.frame_volume();
        if frame_vol <= 0.0 || frame_vol.is_nan() {
            return 1.0;
        }
        // total-variation distance between bucket-mass distribution and the
        // volume-proportional (uniform) distribution
        let mut tv = 0.0;
        walk_buckets(
            &self.boundaries,
            &|d| frame_range(&self.boundaries[d]),
            |flat, vol, _| {
                let mass = self.counts[flat] / self.total;
                let unif = vol / frame_vol;
                tv += (mass - unif).abs();
            },
        );
        (1.0 - 0.5 * tv).clamp(0.0, 1.0)
    }

    /// Re-runs IPF over the retained constraint set.
    ///
    /// Each constraint is lowered once: constraints that no longer cover
    /// any bucket (e.g. a boundary merge removed their sliver) are dropped
    /// first, since fitting an orphaned constraint would only dilute mass.
    pub fn fit(&mut self) -> FitResult {
        let mut lowered: Vec<Lowered> = self.constraints.iter().map(|c| self.lower(c)).collect();
        let mut covers = lowered.iter().map(|l| l.len > 0);
        self.constraints.retain(|_| covers.next().unwrap_or(false));
        lowered.retain(|l| l.len > 0);
        let result = maxent::fit(&mut self.counts, self.total, &lowered);
        if !result.converged && self.constraints.len() > 1 {
            // Inconsistent observations (data changed under us): drop the
            // oldest constraints and retry with the most recent half.
            let dropped = self.constraints.len() / 2;
            self.constraints.drain(..dropped);
            return maxent::fit(&mut self.counts, self.total, &lowered[dropped..]);
        }
        result
    }

    /// Number of retained constraints (test/diagnostic).
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Raw state dump for checkpointing. Captures *every* field — including
    /// per-bucket stamps, the retained constraint queue, and the LRU stamp —
    /// because they are all history-dependent: none can be recomputed from
    /// the bucket counts alone, and recovery must reproduce the histogram
    /// bit-identically (same future refinements, same eviction order).
    pub fn snapshot(&self) -> GridSnapshot {
        GridSnapshot {
            boundaries: self.boundaries.clone(),
            counts: self.counts.clone(),
            stamps: self.stamps.clone(),
            total: self.total,
            constraints: self
                .constraints
                .iter()
                .map(|c| (c.region.ranges().to_vec(), c.count, c.stamp))
                .collect(),
            last_used: self.last_used,
            limits: self.limits,
        }
    }

    /// Rebuilds a histogram from a [`GridHistogram::snapshot`], field for
    /// field.
    pub fn from_snapshot(s: GridSnapshot) -> GridHistogram {
        GridHistogram {
            boundaries: s.boundaries,
            counts: s.counts,
            stamps: s.stamps,
            total: s.total,
            constraints: s
                .constraints
                .into_iter()
                .map(|(ranges, count, stamp)| Constraint {
                    region: Region::new(ranges),
                    count,
                    stamp,
                })
                .collect(),
            last_used: s.last_used,
            limits: s.limits,
        }
    }

    // ---- geometry ----------------------------------------------------

    /// `region.clamp_to(&self.frame())` along dimension `d`, except that an
    /// inverted range stays inverted (and so still empty).
    fn clamped_range(&self, region: &Region, d: usize) -> (f64, f64) {
        let (flo, fhi) = frame_range(&self.boundaries[d]);
        let (lo, hi) = region.range(d);
        (lo.max(flo), hi.min(fhi))
    }

    /// `self.frame().volume()`.
    fn frame_volume(&self) -> f64 {
        self.boundaries
            .iter()
            .map(|b| {
                let (lo, hi) = frame_range(b);
                (hi - lo).max(0.0)
            })
            .product()
    }

    /// `(outer, n, inner)`: the grid seen along dimension `d` as `outer`
    /// slabs of `n` rows of `inner` contiguous buckets each.
    fn split_at(&self, d: usize) -> (usize, usize, usize) {
        let buckets = |b: &Vec<f64>| b.len() - 1;
        (
            self.boundaries[..d].iter().map(buckets).product(),
            buckets(&self.boundaries[d]),
            self.boundaries[d + 1..].iter().map(buckets).product(),
        )
    }

    /// Lowers a retained constraint onto the grid: the row-major runs of the
    /// buckets its region covers by more than [`COVERED`] of their volume.
    /// After refinement constraint regions align with boundaries, so
    /// overlap is all-or-nothing (modulo frame clamping).
    fn lower(&self, c: &Constraint) -> Lowered {
        let mut lowered = Lowered {
            target: c.count,
            ..Lowered::default()
        };
        for_each_overlapping(&self.boundaries, &|d| c.region.range(d), |flat, overlap| {
            if overlap > COVERED {
                lowered.push(flat);
            }
        });
        lowered
    }

    // ---- refinement ----------------------------------------------------

    /// Widens the frame so every finite endpoint of `region` fits inside.
    fn extend_frame(&mut self, region: &Region) {
        for d in 0..self.dims() {
            let (lo, hi) = region.range(d);
            let b = &mut self.boundaries[d];
            if lo.is_finite() && lo < b[0] {
                b[0] = lo;
            }
            let last = b.len() - 1;
            if hi.is_finite() && hi > b[last] {
                b[last] = hi;
            }
        }
    }

    /// Inserts the region's finite endpoints as boundaries (Figure 2),
    /// splitting bucket counts proportionally to volume. Returns the
    /// boundaries actually inserted, so the caller can stamp the buckets on
    /// both sides of each cut — the paper stamps "the new buckets (on both
    /// sides of the dotted line)".
    fn refine(&mut self, region: &Region) -> Vec<(usize, f64)> {
        let mut inserted = Vec::new();
        for d in 0..self.dims() {
            let (lo, hi) = region.range(d);
            for x in [lo, hi] {
                if x.is_finite() && self.insert_boundary(d, x) {
                    inserted.push((d, x));
                }
            }
        }
        inserted
    }

    /// Inserts boundary `x` into dimension `d` (no-op if present or outside
    /// the frame), splitting the covering slab of buckets proportionally.
    /// Enforces the per-dimension boundary cap by merging the least
    /// informative existing boundary first. Returns whether a boundary was
    /// actually inserted.
    fn insert_boundary(&mut self, d: usize, x: f64) -> bool {
        let b = &self.boundaries[d];
        if x <= b[0] || x >= b[b.len() - 1] || b.binary_search_by(|p| p.total_cmp(&x)).is_ok() {
            return false;
        }
        if b.len() >= self.limits.max_boundaries_per_dim {
            self.merge_least_informative_boundary(d, x);
            if self.boundaries[d].len() >= self.limits.max_boundaries_per_dim {
                return false; // could not make room (all boundaries protected)
            }
        }
        let b = &self.boundaries[d];
        let pos = b.partition_point(|p| *p < x); // insert before boundaries[pos]
        let slab = pos - 1; // bucket index being split
        let (slab_lo, slab_hi) = (b[slab], b[pos]);
        let f_low = (x - slab_lo) / (slab_hi - slab_lo);

        // copy row by row in the new row-major order; the split row becomes
        // two (uniformity within the old bucket)
        let (outer, n, inner) = self.split_at(d);
        let mut counts = Vec::with_capacity(outer * (n + 1) * inner);
        let mut stamps = Vec::with_capacity(outer * (n + 1) * inner);
        for o in 0..outer {
            for i in 0..n {
                let row = (o * n + i) * inner..(o * n + i + 1) * inner;
                let (c, s) = (&self.counts[row.clone()], &self.stamps[row]);
                if i == slab {
                    counts.extend(c.iter().map(|v| v * f_low));
                    stamps.extend_from_slice(s);
                    counts.extend(c.iter().map(|v| v * (1.0 - f_low)));
                } else {
                    counts.extend_from_slice(c);
                }
                stamps.extend_from_slice(s);
            }
        }
        self.boundaries[d].insert(pos, x);
        self.counts = counts;
        self.stamps = stamps;
        true
    }

    /// Removes the interior boundary of dimension `d` whose removal loses
    /// the least information (smallest density discontinuity), merging the
    /// two adjacent bucket slabs. Boundaries appearing in retained
    /// constraints or equal to `protect` are kept.
    fn merge_least_informative_boundary(&mut self, d: usize, protect: f64) {
        let b = &self.boundaries[d];
        let near = |p: f64, bi: f64| (p - bi).abs() < 1e-12;
        let protected = |bi: f64| {
            near(protect, bi)
                || self.constraints.iter().any(|c| {
                    let (lo, hi) = c.region.range(d);
                    near(lo, bi) || near(hi, bi)
                })
        };
        let mut best: Option<(usize, f64)> = None;
        for (i, bi) in b.iter().enumerate().take(b.len() - 1).skip(1) {
            if protected(*bi) {
                continue;
            }
            // density difference across the boundary, aggregated over the slab
            let score = self.slab_density_discontinuity(d, i);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((i, score));
            }
        }
        if let Some((i, _)) = best {
            self.remove_boundary(d, i);
        }
    }

    /// Aggregate |density_left − density_right| across the boundary at
    /// index `i` of dimension `d`.
    fn slab_density_discontinuity(&self, d: usize, i: usize) -> f64 {
        let (outer, n, inner) = self.split_at(d);
        let b = &self.boundaries[d];
        let w_left = b[i] - b[i - 1];
        let w_right = b[i + 1] - b[i];
        let mut score = 0.0;
        // every bucket of the left slab against its right neighbour
        for o in 0..outer {
            let row = (o * n + i - 1) * inner;
            for flat in row..row + inner {
                let dl = self.counts[flat] / w_left.max(f64::MIN_POSITIVE);
                let dr = self.counts[flat + inner] / w_right.max(f64::MIN_POSITIVE);
                score += (dl - dr).abs();
            }
        }
        score
    }

    /// Removes the interior boundary at index `i` of dimension `d`, merging
    /// adjacent slabs (counts summed, stamps maxed).
    fn remove_boundary(&mut self, d: usize, i: usize) {
        debug_assert!(i > 0 && i < self.boundaries[d].len() - 1);
        let (outer, n, inner) = self.split_at(d);
        let mut counts = Vec::with_capacity(outer * (n - 1) * inner);
        let mut stamps: Vec<u64> = Vec::with_capacity(outer * (n - 1) * inner);
        for o in 0..outer {
            for k in 0..n {
                let row = (o * n + k) * inner..(o * n + k + 1) * inner;
                let (c, s) = (&self.counts[row.clone()], &self.stamps[row]);
                if k == i {
                    // fold row `i` into row `i - 1`, pushed just before
                    let merged = counts.len() - inner..counts.len();
                    for ((acc, last), (v, t)) in counts[merged.clone()]
                        .iter_mut()
                        .zip(&mut stamps[merged])
                        .zip(c.iter().zip(s))
                    {
                        *acc += v;
                        *last = (*last).max(*t);
                    }
                } else {
                    counts.extend_from_slice(c);
                    stamps.extend_from_slice(s);
                }
            }
        }
        self.boundaries[d].remove(i);
        self.counts = counts;
        self.stamps = stamps;
    }
}

/// Share of a bucket's volume a region must cover for the bucket to count
/// as inside it (stamping, constraint lowering).
const COVERED: f64 = 1e-9;

/// The frame's extent along one dimension's boundary list.
fn frame_range(b: &[f64]) -> (f64, f64) {
    (b[0], b[b.len() - 1])
}

/// `Region::is_empty` along one dimension.
fn is_empty((lo, hi): (f64, f64)) -> bool {
    hi <= lo
}

/// Visits, in row-major order, every bucket of the grid `boundaries` whose
/// index box meets the ranges `range(d)` (which must lie inside the frame),
/// passing the flat index and the fraction of the bucket's volume inside —
/// bit for bit `bucket.overlap_fraction(&region)`.
fn for_each_overlapping<R, F>(boundaries: &[Vec<f64>], range: &R, mut f: F)
where
    R: Fn(usize) -> (f64, f64) + ?Sized,
    F: FnMut(usize, f64),
{
    walk_buckets(boundaries, range, |flat, volume, inside| {
        let overlap = if volume <= 0.0 || !volume.is_finite() {
            0.0
        } else {
            inside / volume
        };
        f(flat, overlap);
    });
}

/// Visits, in row-major order, every bucket of the grid `boundaries` whose
/// index box meets the ranges `range(d)`, passing the flat index, the
/// bucket's volume and the volume of its intersection with the ranges.
/// Both volumes fold the per-dimension widths in dimension order from 1.0,
/// as [`Region::volume`] does, so they equal the allocating
/// `bucket.volume()` and `bucket.intersect(&region).volume()` to the bit.
fn walk_buckets<R, F>(boundaries: &[Vec<f64>], range: &R, mut f: F)
where
    R: Fn(usize) -> (f64, f64) + ?Sized,
    F: FnMut(usize, f64, f64),
{
    walk_dim(boundaries, range, &mut f, 0, 0, 1.0, 1.0);
}

fn walk_dim<R, F>(
    boundaries: &[Vec<f64>],
    range: &R,
    f: &mut F,
    d: usize,
    flat: usize,
    volume: f64,
    inside: f64,
) where
    R: Fn(usize) -> (f64, f64) + ?Sized,
    F: FnMut(usize, f64, f64),
{
    let Some(b) = boundaries.get(d) else {
        f(flat, volume, inside);
        return;
    };
    let (lo, hi) = range(d);
    // buckets whose high boundary exceeds lo and whose low boundary is
    // below hi
    let end = b[..b.len() - 1].partition_point(|x| *x < hi);
    let start = b[1..].partition_point(|x| *x <= lo).min(end);
    let n = b.len() - 1;
    for i in start..end {
        let (blo, bhi) = (b[i], b[i + 1]);
        // an inverted intersection has zero width, as `Region::new` makes it
        let width = (bhi.min(hi) - blo.max(lo)).max(0.0);
        walk_dim(
            boundaries,
            range,
            f,
            d + 1,
            flat * n + i,
            volume * (bhi - blo).max(0.0),
            inside * width,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_2d() -> Region {
        // paper Figure 2: a in [0, 50], b in [0, 100], 100 tuples
        Region::new(vec![(0.0, 50.0), (0.0, 100.0)])
    }

    #[test]
    fn paper_figure2_walkthrough() {
        // Figure 2(a): one bucket with 100 tuples.
        let mut h = GridHistogram::new(&frame_2d(), 100.0, 0);
        assert_eq!(h.n_buckets(), 1);

        // Query 1: (a > 20 AND b > 60), joint = 20, marginals 70 and 30.
        let t1 = 1u64;
        h.apply_observation(
            &Region::new(vec![
                (20.0, f64::INFINITY),
                (f64::NEG_INFINITY, f64::INFINITY),
            ]),
            70.0,
            100.0,
            t1,
        );
        h.apply_observation(
            &Region::new(vec![
                (f64::NEG_INFINITY, f64::INFINITY),
                (60.0, f64::INFINITY),
            ]),
            30.0,
            100.0,
            t1,
        );
        h.apply_observation(
            &Region::new(vec![(20.0, f64::INFINITY), (60.0, f64::INFINITY)]),
            20.0,
            100.0,
            t1,
        );
        assert_eq!(h.n_buckets(), 4, "Figure 2(b): 2x2 grid");
        // Figure 2(b) bucket values: 20 / 10 / 50 / 20
        fn sel(h: &GridHistogram, alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
            h.selectivity(&Region::new(vec![(alo, ahi), (blo, bhi)])) * 100.0
        }
        assert!((sel(&h, 0.0, 20.0, 0.0, 60.0) - 20.0).abs() < 0.1);
        assert!((sel(&h, 0.0, 20.0, 60.0, 100.0) - 10.0).abs() < 0.1);
        assert!((sel(&h, 20.0, 50.0, 0.0, 60.0) - 50.0).abs() < 0.1);
        assert!((sel(&h, 20.0, 50.0, 60.0, 100.0) - 20.0).abs() < 0.1);

        // Query 2 (Figure 2(c)): a > 40, 14 tuples; uniformity splits the
        // previous buckets.
        let t2 = 2u64;
        h.apply_observation(
            &Region::new(vec![
                (40.0, f64::INFINITY),
                (f64::NEG_INFINITY, f64::INFINITY),
            ]),
            14.0,
            100.0,
            t2,
        );
        assert_eq!(h.n_buckets(), 6, "Figure 2(c): 3x2 grid");
        // the a>40 slice now holds exactly 14
        assert!((sel(&h, 40.0, 50.0, 0.0, 100.0) - 14.0).abs() < 0.1);
        // total preserved
        assert!((sel(&h, 0.0, 50.0, 0.0, 100.0) - 100.0).abs() < 0.1);
        // new buckets carry the new stamp; untouched ones keep the old
        let new_stamp = h
            .newest_stamp_in(&Region::new(vec![(40.0, 50.0), (0.0, 100.0)]))
            .unwrap();
        assert_eq!(new_stamp, t2);
        let old_stamp = h
            .newest_stamp_in(&Region::new(vec![(0.0, 20.0), (0.0, 60.0)]))
            .unwrap();
        assert_eq!(old_stamp, t1);
    }

    #[test]
    fn selectivity_interpolates_within_buckets() {
        let h = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 1000.0, 0);
        let s = h.selectivity(&Region::new(vec![(0.0, 25.0)]));
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn observation_outside_frame_extends_it() {
        let mut h = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0);
        h.apply_observation(&Region::new(vec![(150.0, 200.0)]), 10.0, 110.0, 1);
        let f = h.frame();
        assert_eq!(f.range(0).1, 200.0);
        let s = h.selectivity(&Region::new(vec![(150.0, 200.0)]));
        assert!((s - 10.0 / 110.0).abs() < 1e-6, "sel {s}");
    }

    #[test]
    fn set_total_rescales() {
        let mut h = GridHistogram::new(&Region::new(vec![(0.0, 10.0)]), 100.0, 0);
        h.apply_observation(&Region::new(vec![(0.0, 5.0)]), 80.0, 100.0, 1);
        h.set_total(200.0);
        assert_eq!(h.total(), 200.0);
        let s = h.selectivity(&Region::new(vec![(0.0, 5.0)]));
        assert!((s - 0.8).abs() < 1e-6);
    }

    #[test]
    fn uniformity_scores() {
        let mut uniform = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0);
        uniform.apply_observation(&Region::new(vec![(0.0, 50.0)]), 50.0, 100.0, 1);
        assert!(uniform.uniformity() > 0.99, "{}", uniform.uniformity());

        let mut skewed = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0);
        skewed.apply_observation(&Region::new(vec![(0.0, 50.0)]), 95.0, 100.0, 1);
        assert!(skewed.uniformity() < 0.6, "{}", skewed.uniformity());
    }

    #[test]
    fn boundary_cap_enforced() {
        let limits = GridLimits {
            max_boundaries_per_dim: 5,
            max_constraints: 4,
        };
        let mut h =
            GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0).with_limits(limits);
        for i in 1..40 {
            let lo = (i as f64 * 2.3) % 100.0;
            h.apply_observation(
                &Region::new(vec![(lo, (lo + 7.0).min(100.0))]),
                5.0,
                100.0,
                i as u64,
            );
        }
        assert!(
            h.boundaries()[0].len() <= 5 + 1,
            "len {}",
            h.boundaries()[0].len()
        );
        assert!(h.constraint_count() <= 4);
        // mass stays non-negative and totals ~100
        let s = h.selectivity(&Region::new(vec![(0.0, 100.0)]));
        assert!((s - 1.0).abs() < 1e-3, "sel {s}");
    }

    #[test]
    fn repeated_same_observation_replaces_constraint() {
        let mut h = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0);
        for t in 1..10u64 {
            h.apply_observation(&Region::new(vec![(0.0, 50.0)]), 30.0, 100.0, t);
        }
        assert_eq!(h.constraint_count(), 1);
        let s = h.selectivity(&Region::new(vec![(0.0, 50.0)]));
        assert!((s - 0.3).abs() < 1e-6);
    }

    #[test]
    fn inconsistent_history_recovers_with_recent_data() {
        let mut h = GridHistogram::new(&Region::new(vec![(0.0, 100.0)]), 100.0, 0);
        h.apply_observation(&Region::new(vec![(0.0, 50.0)]), 90.0, 100.0, 1);
        // data churned: same region now holds 10
        let r = h.apply_observation(&Region::new(vec![(0.0, 50.0)]), 10.0, 100.0, 2);
        assert!(r.converged);
        let s = h.selectivity(&Region::new(vec![(0.0, 50.0)]));
        assert!((s - 0.1).abs() < 1e-3, "sel {s}");
    }

    #[test]
    fn three_dimensional_grid() {
        let frame = Region::new(vec![(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]);
        let mut h = GridHistogram::new(&frame, 1000.0, 0);
        h.apply_observation(
            &Region::new(vec![(5.0, 10.0), (5.0, 10.0), (5.0, 10.0)]),
            500.0,
            1000.0,
            1,
        );
        assert_eq!(h.n_buckets(), 8);
        let s = h.selectivity(&Region::new(vec![(5.0, 10.0), (5.0, 10.0), (5.0, 10.0)]));
        assert!((s - 0.5).abs() < 1e-6);
        // a sub-cube of the corner octant interpolates uniformly
        let s = h.selectivity(&Region::new(vec![(5.0, 7.5), (5.0, 10.0), (5.0, 10.0)]));
        assert!((s - 0.25).abs() < 1e-6);
    }

    #[test]
    fn lru_touch() {
        let mut h = GridHistogram::new(&Region::new(vec![(0.0, 1.0)]), 10.0, 3);
        assert_eq!(h.last_used(), 3);
        h.touch(7);
        assert_eq!(h.last_used(), 7);
        h.touch(5);
        assert_eq!(h.last_used(), 7, "touch never moves time backwards");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use jits_common::SplitMix64;
    use proptest::prelude::*;

    /// Random observation sequences over a 2-D grid.
    fn random_observations(seed: u64, n: usize) -> (GridHistogram, Vec<(Region, f64)>) {
        let mut rng = SplitMix64::new(seed);
        let frame = Region::new(vec![(0.0, 1000.0), (0.0, 1000.0)]);
        let mut h = GridHistogram::new(&frame, 10_000.0, 0);
        let mut obs = Vec::new();
        for t in 0..n {
            let alo = rng.next_f64() * 900.0;
            let blo = rng.next_f64() * 900.0;
            let region = Region::new(vec![
                (alo, alo + 1.0 + rng.next_f64() * 99.0),
                (blo, blo + 1.0 + rng.next_f64() * 99.0),
            ]);
            let count = rng.next_f64() * 10_000.0;
            h.apply_observation(&region, count, 10_000.0, t as u64 + 1);
            obs.push((region, count));
        }
        (h, obs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn selectivity_is_always_a_fraction(seed in any::<u64>(), n in 1usize..12) {
            let (h, _) = random_observations(seed, n);
            let mut rng = SplitMix64::new(seed ^ 0xABCD);
            for _ in 0..16 {
                let alo = rng.next_f64() * 1000.0;
                let blo = rng.next_f64() * 1000.0;
                let q = Region::new(vec![
                    (alo, alo + rng.next_f64() * 500.0),
                    (blo, blo + rng.next_f64() * 500.0),
                ]);
                let s = h.selectivity(&q);
                prop_assert!((0.0..=1.0).contains(&s), "sel {s}");
            }
        }

        #[test]
        fn full_frame_mass_is_total(seed in any::<u64>(), n in 1usize..12) {
            let (h, _) = random_observations(seed, n);
            let full = h.frame();
            let s = h.selectivity(&full);
            prop_assert!((s - 1.0).abs() < 1e-3, "full-frame selectivity {s}");
        }

        #[test]
        fn counts_stay_nonnegative(seed in any::<u64>(), n in 1usize..12) {
            let (h, _) = random_observations(seed, n);
            prop_assert!(h.counts().iter().all(|c| *c >= -1e-9));
        }

        #[test]
        fn latest_consistent_observation_is_honored(seed in any::<u64>()) {
            // a single (thus trivially consistent) observation must be
            // answered exactly
            let frame = Region::new(vec![(0.0, 100.0)]);
            let mut h = GridHistogram::new(&frame, 1000.0, 0);
            let mut rng = SplitMix64::new(seed);
            let lo = rng.next_f64() * 90.0;
            let region = Region::new(vec![(lo, lo + 1.0 + rng.next_f64() * 9.0)]);
            let count = rng.next_f64() * 1000.0;
            h.apply_observation(&region, count, 1000.0, 1);
            let s = h.selectivity(&region);
            prop_assert!(
                (s - count / 1000.0).abs() < 1e-6,
                "sel {s} vs observed {}",
                count / 1000.0
            );
        }

        #[test]
        fn monotone_in_region_growth(seed in any::<u64>(), n in 1usize..10) {
            let (h, _) = random_observations(seed, n);
            let mut rng = SplitMix64::new(seed ^ 0x5555);
            let alo = rng.next_f64() * 500.0;
            let blo = rng.next_f64() * 500.0;
            let small = Region::new(vec![(alo, alo + 100.0), (blo, blo + 100.0)]);
            let big = Region::new(vec![(alo, alo + 400.0), (blo, blo + 400.0)]);
            prop_assert!(h.selectivity(&small) <= h.selectivity(&big) + 1e-9);
        }
    }
}

/// The allocating geometry the grid used before it walked per-axis
/// boundaries — one `Region` per bucket, flat-index lists, strides decoded
/// per bucket — kept as the oracle the walks must match to the bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use jits_common::SplitMix64;
    use proptest::prelude::*;

    fn shape(h: &GridHistogram) -> Vec<usize> {
        h.boundaries.iter().map(|b| b.len() - 1).collect()
    }

    fn strides(nb: &[usize]) -> Vec<usize> {
        let mut strides = vec![0usize; nb.len()];
        let mut s = 1;
        for d in (0..nb.len()).rev() {
            strides[d] = s;
            s *= nb[d];
        }
        strides
    }

    fn bucket_region(h: &GridHistogram, flat: usize) -> Region {
        let strides = strides(&shape(h));
        let mut rest = flat;
        Region::new(
            (0..h.dims())
                .map(|d| {
                    let i = rest / strides[d];
                    rest %= strides[d];
                    (h.boundaries[d][i], h.boundaries[d][i + 1])
                })
                .collect(),
        )
    }

    fn for_each_overlapping<F: FnMut(usize, f64)>(h: &GridHistogram, region: &Region, mut f: F) {
        let ranges: Vec<(usize, usize)> = (0..h.dims())
            .map(|d| {
                let (lo, hi) = region.range(d);
                let b = &h.boundaries[d];
                let start = b[1..].partition_point(|x| *x <= lo);
                let end = b[..b.len() - 1].partition_point(|x| *x < hi);
                (start.min(end), end)
            })
            .collect();
        if ranges.iter().any(|(lo, hi)| hi <= lo) {
            return;
        }
        let strides = strides(&shape(h));
        let mut idx: Vec<usize> = ranges.iter().map(|(lo, _)| *lo).collect();
        loop {
            let flat: usize = idx.iter().zip(&strides).map(|(i, s)| i * s).sum();
            let bucket = Region::new(
                idx.iter()
                    .enumerate()
                    .map(|(d, &i)| (h.boundaries[d][i], h.boundaries[d][i + 1]))
                    .collect(),
            );
            f(flat, bucket.overlap_fraction(region));
            let mut d = h.dims();
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < ranges[d].1 {
                    break;
                }
                idx[d] = ranges[d].0;
                if d == 0 {
                    return;
                }
            }
        }
    }

    fn buckets_in(h: &GridHistogram, region: &Region) -> Vec<usize> {
        let mut out = Vec::new();
        for_each_overlapping(h, region, |flat, overlap| {
            if overlap > 1e-9 {
                out.push(flat);
            }
        });
        out
    }

    fn selectivity(h: &GridHistogram, region: &Region) -> f64 {
        if h.total <= 0.0 {
            return 0.0;
        }
        let clamped = region.clamp_to(&h.frame());
        if clamped.is_empty() {
            return 0.0;
        }
        let mut rows = 0.0;
        for_each_overlapping(h, &clamped, |flat, overlap| {
            rows += h.counts[flat] * overlap
        });
        (rows / h.total).clamp(0.0, 1.0)
    }

    fn newest_stamp_in(h: &GridHistogram, region: &Region) -> Option<u64> {
        let clamped = region.clamp_to(&h.frame());
        if clamped.is_empty() {
            return None;
        }
        let mut newest = None;
        for_each_overlapping(h, &clamped, |flat, _| {
            newest = Some(newest.map_or(h.stamps[flat], |n: u64| n.max(h.stamps[flat])));
        });
        newest
    }

    fn uniformity(h: &GridHistogram) -> f64 {
        if h.total <= 0.0 || h.counts.len() <= 1 {
            return 1.0;
        }
        let frame_vol = h.frame().volume();
        if frame_vol <= 0.0 || frame_vol.is_nan() {
            return 1.0;
        }
        let mut tv = 0.0;
        for (i, c) in h.counts.iter().enumerate() {
            tv += (c / h.total - bucket_region(h, i).volume() / frame_vol).abs();
        }
        (1.0 - 0.5 * tv).clamp(0.0, 1.0)
    }

    /// Splits the slab of dimension `d` containing `x` (strictly inside the
    /// frame, not a boundary), decoding every flat index.
    fn split(h: &GridHistogram, d: usize, x: f64) -> (Vec<f64>, Vec<u64>) {
        let b = &h.boundaries[d];
        let pos = b.partition_point(|p| *p < x);
        let slab = pos - 1;
        let f_low = (x - b[slab]) / (b[pos] - b[slab]);
        let old_strides = strides(&shape(h));
        let mut nb = shape(h);
        nb[d] += 1;
        let new_strides = strides(&nb);
        let n: usize = nb.iter().product();
        let (mut counts, mut stamps) = (vec![0.0; n], vec![0u64; n]);
        let at =
            |idx: &[usize]| -> usize { idx.iter().zip(&new_strides).map(|(i, s)| i * s).sum() };
        for flat in 0..h.counts.len() {
            let mut rest = flat;
            let mut idx: Vec<usize> = old_strides
                .iter()
                .map(|s| {
                    let i = rest / s;
                    rest %= s;
                    i
                })
                .collect();
            if idx[d] < slab {
                counts[at(&idx)] = h.counts[flat];
                stamps[at(&idx)] = h.stamps[flat];
            } else if idx[d] > slab {
                idx[d] += 1;
                counts[at(&idx)] = h.counts[flat];
                stamps[at(&idx)] = h.stamps[flat];
            } else {
                counts[at(&idx)] = h.counts[flat] * f_low;
                stamps[at(&idx)] = h.stamps[flat];
                idx[d] += 1;
                counts[at(&idx)] = h.counts[flat] * (1.0 - f_low);
                stamps[at(&idx)] = h.stamps[flat];
            }
        }
        (counts, stamps)
    }

    /// Merges the slabs on both sides of interior boundary `i` of `d`.
    fn merge(h: &GridHistogram, d: usize, i: usize) -> (Vec<f64>, Vec<u64>) {
        let old_strides = strides(&shape(h));
        let mut nb = shape(h);
        nb[d] -= 1;
        let new_strides = strides(&nb);
        let n: usize = nb.iter().product();
        let (mut counts, mut stamps) = (vec![0.0; n], vec![0u64; n]);
        for flat in 0..h.counts.len() {
            let mut rest = flat;
            let mut nf = 0;
            for (dd, s) in old_strides.iter().enumerate() {
                let mut idx = rest / s;
                rest %= s;
                if dd == d && idx > i - 1 {
                    idx -= 1;
                }
                nf += idx * new_strides[dd];
            }
            counts[nf] += h.counts[flat];
            stamps[nf] = stamps[nf].max(h.stamps[flat]);
        }
        (counts, stamps)
    }

    fn slab_density_discontinuity(h: &GridHistogram, d: usize, i: usize) -> f64 {
        let strides = strides(&shape(h));
        let nb = shape(h);
        let b = &h.boundaries[d];
        let (w_left, w_right) = (b[i] - b[i - 1], b[i + 1] - b[i]);
        let mut score = 0.0;
        for flat in 0..h.counts.len() {
            if (flat / strides[d]) % nb[d] == i - 1 {
                let dl = h.counts[flat] / w_left.max(f64::MIN_POSITIVE);
                let dr = h.counts[flat + strides[d]] / w_right.max(f64::MIN_POSITIVE);
                score += (dl - dr).abs();
            }
        }
        score
    }

    /// The stamps `apply_observation(region, _, _, stamp)` must leave: the
    /// buckets the clamped region covers and both slabs beside every
    /// inserted boundary, collected as flat-index lists.
    fn stamps_after(h: &GridHistogram, region: &Region, stamp: u64) -> Vec<u64> {
        let mut h = h.clone();
        h.extend_frame(region);
        let inserted = h.refine(region);
        let frame = h.frame();
        let mut touched = buckets_in(&h, &region.clamp_to(&frame));
        for (d, x) in inserted {
            let b = &h.boundaries[d];
            let pos = b.partition_point(|p| *p < x);
            let lo = if pos >= 1 { b[pos - 1] } else { b[0] };
            let hi = if pos + 1 < b.len() {
                b[pos + 1]
            } else {
                b[b.len() - 1]
            };
            let mut ranges = Region::unbounded(h.dims())
                .clamp_to(&frame)
                .ranges()
                .to_vec();
            ranges[d] = (lo, hi);
            touched.extend(buckets_in(&h, &Region::new(ranges)));
        }
        for b in touched {
            h.stamps[b] = h.stamps[b].max(stamp);
        }
        h.stamps
    }

    /// A random point or bound on one axis: mostly inside the starting
    /// frame `[0, 100)`, sometimes outside it (frame extension), sometimes
    /// an existing boundary (aligned regions), sometimes infinite.
    fn coordinate(rng: &mut SplitMix64, h: &GridHistogram, d: usize) -> f64 {
        let u = rng.next_f64();
        if u < 0.2 {
            let b = &h.boundaries[d];
            b[(rng.next_f64() * b.len() as f64) as usize % b.len()]
        } else if u < 0.3 {
            rng.next_f64() * 300.0 - 100.0
        } else {
            rng.next_f64() * 100.0
        }
    }

    fn random_region(rng: &mut SplitMix64, h: &GridHistogram) -> Region {
        Region::new(
            (0..h.dims())
                .map(|d| {
                    let (a, b) = (coordinate(rng, h, d), coordinate(rng, h, d));
                    let (lo, hi) = (a.min(b), a.max(b));
                    match (rng.next_f64() * 10.0) as usize {
                        0 => (f64::NEG_INFINITY, hi),
                        1 => (lo, f64::INFINITY),
                        2 => (lo, lo), // zero width
                        _ => (lo, hi),
                    }
                })
                .collect(),
        )
    }

    /// Every geometry walk against its allocating original on `h`, with
    /// `queries` random query regions.
    fn check_geometry(rng: &mut SplitMix64, h: &GridHistogram, queries: usize) {
        for c in &h.constraints {
            let runs = h.lower(c).runs;
            let flat: Vec<usize> = runs.into_iter().flatten().collect();
            assert_eq!(flat, buckets_in(h, &c.region), "lowering of {}", c.region);
        }
        assert_eq!(h.uniformity().to_bits(), uniformity(h).to_bits());
        for _ in 0..queries {
            let q = random_region(rng, h);
            assert_eq!(
                h.selectivity(&q).to_bits(),
                selectivity(h, &q).to_bits(),
                "selectivity of {q}"
            );
            assert_eq!(
                h.newest_stamp_in(&q),
                newest_stamp_in(h, &q),
                "stamp of {q}"
            );
        }
        for d in 0..h.dims() {
            let b = &h.boundaries[d];
            for i in 1..b.len() - 1 {
                assert_eq!(
                    h.slab_density_discontinuity(d, i).to_bits(),
                    slab_density_discontinuity(h, d, i).to_bits()
                );
                let mut merged = h.clone();
                merged.remove_boundary(d, i);
                let (counts, stamps) = merge(h, d, i);
                assert_eq!((merged.counts, merged.stamps), (counts, stamps));
            }
            let x = b[0] + (b[b.len() - 1] - b[0]) * rng.next_f64();
            if x > b[0] && b.binary_search_by(|p| p.total_cmp(&x)).is_err() {
                let mut split_h = h.clone().with_limits(GridLimits {
                    max_boundaries_per_dim: usize::MAX,
                    ..h.limits
                });
                assert!(split_h.insert_boundary(d, x));
                let (counts, stamps) = split(h, d, x);
                assert_eq!((split_h.counts, split_h.stamps), (counts, stamps));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walks_match_the_allocating_geometry(seed in any::<u64>(), n in 1usize..16) {
            // 1–3 dimensions and a small boundary cap, so observations
            // extend the frame, merge boundaries and leave constraints
            // unaligned
            let mut rng = SplitMix64::new(seed);
            let dims = 1 + (rng.next_f64() * 3.0) as usize;
            let limits = GridLimits {
                max_boundaries_per_dim: 3 + (rng.next_f64() * 6.0) as usize,
                max_constraints: 2 + (rng.next_f64() * 5.0) as usize,
            };
            let frame = Region::new(vec![(0.0, 100.0); dims]);
            let mut h = GridHistogram::new(&frame, 1000.0, 0).with_limits(limits);
            for t in 1..=n as u64 {
                let region = random_region(&mut rng, &h);
                let count = rng.next_f64() * 1000.0;
                let stamps = stamps_after(&h, &region, t);
                h.apply_observation(&region, count, 1000.0, t);
                prop_assert_eq!(&h.stamps, &stamps);
                check_geometry(&mut rng, &h, 8);
            }
        }
    }
}

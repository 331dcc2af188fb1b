//! The QSS archive — "a repository of adaptive single- and
//! multi-dimensional histograms" (paper §3.1).
//!
//! Histograms are keyed by [`ColGroup`]. Observations from compile-time
//! sampling update them through the max-entropy machinery in
//! `jits-histogram`. A bucket budget bounds total space; when exceeded, the
//! paper's eviction policy applies (§3.4): "we remove the histograms that
//! are almost uniformly distributed (as they are close to the optimizer's
//! assumptions). In case more than one histogram satisfies this property, we
//! use LRU".

use jits_common::ColGroup;
use jits_histogram::{region_accuracy, FitResult, GridHistogram, GridSnapshot, Region};
use std::collections::{BTreeMap, BTreeSet};

/// Raw archive state for checkpointing, produced by
/// [`QssArchive::snapshot`]. Histograms travel as [`GridSnapshot`]s
/// (stamps, constraint FIFO and LRU bookkeeping included — all of it
/// eviction-decision-bearing); write-time checksums deliberately do
/// **not** travel: [`QssArchive::from_snapshot`] recomputes them from the
/// restored contents, so a checkpoint torn inside a histogram fails
/// restore-side CRC checks rather than resurrecting as "valid".
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveSnapshot {
    /// Stored histograms in group order.
    pub histograms: Vec<(ColGroup, GridSnapshot)>,
    /// Groups quarantined and awaiting rebuild.
    pub rebuild: Vec<ColGroup>,
    /// Total-bucket budget.
    pub bucket_budget: usize,
    /// Uniformity threshold for eviction.
    pub eviction_uniformity: f64,
}

/// What one [`QssArchive::apply_observation`] call did — the refine trail
/// observability reports (created vs refreshed, bucket growth, IPF fit
/// quality, evictions the budget forced).
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOutcome {
    /// Whether the histogram was created by this observation.
    pub created: bool,
    /// Buckets before the observation (0 when `created`).
    pub buckets_before: usize,
    /// Buckets after splitting on the observation's region boundaries.
    pub buckets_after: usize,
    /// The max-entropy refit result (IPF iterations, residual, convergence).
    pub fit: FitResult,
    /// Groups the budget enforcement evicted, in eviction order.
    pub evicted: Vec<ColGroup>,
}

/// The archive.
///
/// ```
/// use jits::QssArchive;
/// use jits_common::{ColGroup, ColumnId, TableId};
/// use jits_histogram::Region;
///
/// let mut archive = QssArchive::default();
/// let group = ColGroup::single(TableId(0), ColumnId(2));
/// archive.apply_observation(
///     group.clone(),
///     &Region::new(vec![(0.0, 100.0)]),   // frame
///     &Region::new(vec![(0.0, 30.0)]),    // observed region
///     600.0,                               // rows inside
///     1000.0,                              // table rows
///     1,                                   // logical time
/// );
/// let sel = archive.selectivity(&group, &Region::new(vec![(0.0, 30.0)])).unwrap();
/// assert!((sel - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct QssArchive {
    /// Keyed by `BTreeMap` so [`QssArchive::iter`] (which feeds statistics
    /// migration and superset inference) walks groups in a deterministic
    /// order regardless of insertion history.
    histograms: BTreeMap<ColGroup, GridHistogram>,
    /// Write-time checksums, one per stored histogram. Recomputed on every
    /// [`QssArchive::apply_observation`]; [`QssArchive::validate`] compares
    /// against the live contents to detect torn writes before an estimate
    /// is served.
    checksums: BTreeMap<ColGroup, u64>,
    /// Groups whose stored histogram failed validation: the bucket set was
    /// dropped (served as "no stats" → optimizer default selectivities) and
    /// the next collection covering the group must rebuild it.
    rebuild: BTreeSet<ColGroup>,
    /// Total-bucket budget across all histograms.
    bucket_budget: usize,
    /// Uniformity above which a histogram is "almost uniform" and evictable
    /// ahead of LRU.
    eviction_uniformity: f64,
}

/// Order-dependent hash over the histogram's full logical content
/// (boundary and count f64 bits, total, bucket count), one
/// xor-multiply-rotate step per 64-bit word. For a fixed word a step is a
/// bijection of the state, and for a fixed state a bijection of the word,
/// so a change to any single word always changes the result.
/// Dependency-free and platform-stable, which is all a torn-write detector
/// needs.
fn histogram_checksum(h: &GridHistogram) -> u64 {
    let mut sum: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        sum = (sum ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    };
    eat(h.n_buckets() as u64);
    eat(h.total().to_bits());
    for dim in h.boundaries() {
        eat(dim.len() as u64);
        for x in dim {
            eat(x.to_bits());
        }
    }
    for c in h.counts() {
        eat(c.to_bits());
    }
    sum
}

impl QssArchive {
    /// An empty archive with the given space budget.
    pub fn new(bucket_budget: usize, eviction_uniformity: f64) -> Self {
        QssArchive {
            histograms: BTreeMap::new(),
            checksums: BTreeMap::new(),
            rebuild: BTreeSet::new(),
            bucket_budget: bucket_budget.max(1),
            eviction_uniformity,
        }
    }

    /// Adjusts the space budget and eviction threshold in place (keeps the
    /// stored histograms, evicting only if the new budget is tighter).
    /// Returns the groups evicted to honour the tighter budget.
    pub fn set_limits(&mut self, bucket_budget: usize, eviction_uniformity: f64) -> Vec<ColGroup> {
        self.bucket_budget = bucket_budget.max(1);
        self.eviction_uniformity = eviction_uniformity;
        self.enforce_budget()
    }

    /// Number of stored histograms.
    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    /// True if the archive holds nothing.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// Total buckets across all histograms.
    pub fn total_buckets(&self) -> usize {
        self.histograms.values().map(GridHistogram::n_buckets).sum()
    }

    /// The histogram stored for a column group, if any.
    pub fn histogram(&self, group: &ColGroup) -> Option<&GridHistogram> {
        self.histograms.get(group)
    }

    /// Iterates over all (group, histogram) pairs (for migration).
    pub fn iter(&self) -> impl Iterator<Item = (&ColGroup, &GridHistogram)> {
        self.histograms.iter()
    }

    /// Estimated selectivity of `region` under the group's histogram.
    pub fn selectivity(&self, group: &ColGroup, region: &Region) -> Option<f64> {
        self.histograms.get(group).map(|h| h.selectivity(region))
    }

    /// Marks a histogram as used at `stamp` (LRU bookkeeping — call after
    /// the optimizer consumed an estimate from it).
    pub fn touch(&mut self, group: &ColGroup, stamp: u64) {
        if let Some(h) = self.histograms.get_mut(group) {
            h.touch(stamp);
        }
    }

    /// The paper's accuracy of the group's histogram w.r.t. a region, or
    /// `None` when no histogram exists.
    pub fn accuracy(&self, group: &ColGroup, region: &Region) -> Option<f64> {
        self.histograms
            .get(group)
            .map(|h| region_accuracy(h.boundaries(), region))
    }

    /// Applies an observation (`count` of `total` rows in `region`) to the
    /// group's histogram, creating it over `frame` first if absent, then
    /// enforces the space budget. Returns the refine trail for
    /// observability; callers that only maintain the archive may ignore it.
    pub fn apply_observation(
        &mut self,
        group: ColGroup,
        frame: &Region,
        region: &Region,
        count: f64,
        total: f64,
        stamp: u64,
    ) -> RefineOutcome {
        // A quarantined group rebuilds from scratch: the poisoned bucket set
        // is already gone, so this observation creates a fresh histogram and
        // clears the rebuild flag.
        self.rebuild.remove(&group);
        let created = !self.histograms.contains_key(&group);
        let hist = self
            .histograms
            .entry(group.clone())
            .or_insert_with(|| GridHistogram::new(frame, total, stamp));
        let buckets_before = if created { 0 } else { hist.n_buckets() };
        let fit = hist.apply_observation(region, count, total, stamp);
        hist.touch(stamp);
        let buckets_after = hist.n_buckets();
        let sum = histogram_checksum(hist);
        self.checksums.insert(group, sum);
        let evicted = self.enforce_budget();
        RefineOutcome {
            created,
            buckets_before,
            buckets_after,
            fit,
            evicted,
        }
    }

    /// Recomputes the group's checksum against the write-time record.
    /// `true` means the entry is intact (or absent — nothing to serve,
    /// nothing to validate). `false` means a torn write: the caller should
    /// [`QssArchive::quarantine`] the group.
    pub fn validate(&self, group: &ColGroup) -> bool {
        match self.histograms.get(group) {
            None => true,
            Some(h) => self.checksums.get(group) == Some(&histogram_checksum(h)),
        }
    }

    /// The write-time checksum recorded for a stored group, if any — what
    /// [`QssArchive::validate`] compares against. Surfaced so quarantine
    /// diagnostics can report the failing pair.
    pub fn stored_checksum(&self, group: &ColGroup) -> Option<u64> {
        self.checksums.get(group).copied()
    }

    /// The checksum of the group's current bucket set, recomputed from its
    /// logical content, if a histogram is stored.
    pub fn computed_checksum(&self, group: &ColGroup) -> Option<u64> {
        self.histograms.get(group).map(histogram_checksum)
    }

    /// Drops the group's bucket set and schedules a rebuild on the next
    /// collection covering it. Until then the group is served as "no
    /// stats", so the optimizer falls back to default selectivities (the
    /// paper's no-statistics path). Returns whether a histogram was
    /// actually dropped.
    pub fn quarantine(&mut self, group: &ColGroup) -> bool {
        let had = self.histograms.remove(group).is_some();
        self.checksums.remove(group);
        self.rebuild.insert(group.clone());
        had
    }

    /// True when the group was quarantined and awaits its rebuild: the next
    /// collection that produces stats for it must materialize regardless of
    /// the sensitivity verdict.
    pub fn pending_rebuild(&self, group: &ColGroup) -> bool {
        self.rebuild.contains(group)
    }

    /// The groups currently awaiting a rebuild, in deterministic order.
    pub fn pending_rebuilds(&self) -> impl Iterator<Item = &ColGroup> {
        self.rebuild.iter()
    }

    /// Corrupts the stored checksum of a group (fault injection: simulates
    /// a torn archive write — the next [`QssArchive::validate`] fails).
    /// Returns whether the group had a stored entry to corrupt.
    pub fn corrupt_checksum(&mut self, group: &ColGroup) -> bool {
        match self.checksums.get_mut(group) {
            Some(s) => {
                *s ^= 0xDEAD_BEEF;
                true
            }
            None => false,
        }
    }

    /// Rescales a group's histogram to a new table cardinality (e.g. after
    /// heavy churn was detected).
    pub fn set_total(&mut self, group: &ColGroup, total: f64) {
        if let Some(h) = self.histograms.get_mut(group) {
            h.set_total(total);
        }
    }

    /// Evicts histograms until the bucket budget holds: almost-uniform
    /// histograms first (LRU among them), then pure LRU. Returns the
    /// evicted groups in eviction order.
    fn enforce_budget(&mut self) -> Vec<ColGroup> {
        let mut evicted = Vec::new();
        while self.total_buckets() > self.bucket_budget && self.histograms.len() > 1 {
            let victim = self.pick_victim();
            if let Some(v) = victim {
                self.histograms.remove(&v);
                self.checksums.remove(&v);
                evicted.push(v);
            } else {
                break;
            }
        }
        evicted
    }

    fn pick_victim(&self) -> Option<ColGroup> {
        // almost-uniform candidates, least recently used first
        let uniform = self
            .histograms
            .iter()
            .filter(|(_, h)| h.uniformity() >= self.eviction_uniformity)
            .min_by(|(ga, a), (gb, b)| a.last_used().cmp(&b.last_used()).then_with(|| ga.cmp(gb)))
            .map(|(g, _)| g.clone());
        if uniform.is_some() {
            return uniform;
        }
        self.histograms
            .iter()
            .min_by(|(ga, a), (gb, b)| a.last_used().cmp(&b.last_used()).then_with(|| ga.cmp(gb)))
            .map(|(g, _)| g.clone())
    }

    /// Drops everything (used between experiment settings).
    pub fn clear(&mut self) {
        self.histograms.clear();
        self.checksums.clear();
        self.rebuild.clear();
    }

    /// Raw state dump for checkpointing.
    pub fn snapshot(&self) -> ArchiveSnapshot {
        ArchiveSnapshot {
            histograms: self
                .histograms
                .iter()
                .map(|(g, h)| (g.clone(), h.snapshot()))
                .collect(),
            rebuild: self.rebuild.iter().cloned().collect(),
            bucket_budget: self.bucket_budget,
            eviction_uniformity: self.eviction_uniformity,
        }
    }

    /// Rebuilds an archive from a [`QssArchive::snapshot`], recomputing
    /// each histogram's write-time checksum from the restored contents
    /// (deterministic, so it matches the pre-crash value bit for bit).
    pub fn from_snapshot(s: ArchiveSnapshot) -> QssArchive {
        let mut histograms = BTreeMap::new();
        let mut checksums = BTreeMap::new();
        for (g, hs) in s.histograms {
            let h = GridHistogram::from_snapshot(hs);
            checksums.insert(g.clone(), histogram_checksum(&h));
            histograms.insert(g, h);
        }
        QssArchive {
            histograms,
            checksums,
            rebuild: s.rebuild.into_iter().collect(),
            bucket_budget: s.bucket_budget.max(1),
            eviction_uniformity: s.eviction_uniformity,
        }
    }
}

impl Default for QssArchive {
    fn default() -> Self {
        QssArchive::new(4096, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::{ColumnId, TableId};

    fn group(t: u32, cols: &[u32]) -> ColGroup {
        ColGroup::new(TableId(t), cols.iter().map(|c| ColumnId(*c)).collect())
    }

    fn frame1d() -> Region {
        Region::new(vec![(0.0, 100.0)])
    }

    #[test]
    fn store_and_estimate() {
        let mut a = QssArchive::default();
        let g = group(0, &[1]);
        a.apply_observation(
            g.clone(),
            &frame1d(),
            &Region::new(vec![(0.0, 30.0)]),
            90.0,
            100.0,
            1,
        );
        assert_eq!(a.len(), 1);
        let sel = a.selectivity(&g, &Region::new(vec![(0.0, 30.0)])).unwrap();
        assert!((sel - 0.9).abs() < 1e-6);
        assert!(a.selectivity(&group(0, &[2]), &frame1d()).is_none());
    }

    #[test]
    fn accuracy_reflects_boundaries() {
        let mut a = QssArchive::default();
        let g = group(0, &[1]);
        a.apply_observation(
            g.clone(),
            &frame1d(),
            &Region::new(vec![(0.0, 30.0)]),
            50.0,
            100.0,
            1,
        );
        // exactly at the observed boundary: perfect accuracy
        let acc = a
            .accuracy(&g, &Region::new(vec![(30.0, f64::INFINITY)]))
            .unwrap();
        assert_eq!(acc, 1.0);
        // mid-bucket: worse
        let acc = a
            .accuracy(&g, &Region::new(vec![(55.0, f64::INFINITY)]))
            .unwrap();
        assert!(acc < 1.0);
        assert!(a.accuracy(&group(9, &[9]), &frame1d()).is_none());
    }

    #[test]
    fn budget_evicts_uniform_first() {
        // 7 histograms of 2 buckets each will exceed this budget by one
        // histogram, forcing exactly one eviction
        let mut a = QssArchive::new(12, 0.9);
        let skewed = group(0, &[1]);
        let uniform = group(0, &[2]);
        // skewed histogram: heavily non-uniform, recently used
        a.apply_observation(
            skewed.clone(),
            &frame1d(),
            &Region::new(vec![(0.0, 10.0)]),
            95.0,
            100.0,
            10,
        );
        // uniform histogram, also recently used
        a.apply_observation(
            uniform.clone(),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            11,
        );
        assert_eq!(a.len(), 2);
        // now push several more groups to blow the budget
        for c in 3..8u32 {
            a.apply_observation(
                group(0, &[c]),
                &frame1d(),
                &Region::new(vec![(0.0, 10.0)]),
                90.0,
                100.0,
                12 + c as u64,
            );
        }
        // the uniform histogram must be gone; the skewed one must survive
        assert!(a.histogram(&uniform).is_none(), "uniform should be evicted");
        assert!(a.histogram(&skewed).is_some(), "skewed should survive");
        assert!(a.total_buckets() <= 12);
    }

    #[test]
    fn lru_breaks_ties() {
        let mut a = QssArchive::new(4, 0.0); // everything is "uniform enough"
        a.apply_observation(
            group(0, &[1]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            1,
        );
        a.apply_observation(
            group(0, &[2]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            2,
        );
        a.touch(&group(0, &[1]), 10); // make g1 the most recent
        a.apply_observation(
            group(0, &[3]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            3,
        );
        // g2 (last_used 2) is the LRU victim
        assert!(a.histogram(&group(0, &[2])).is_none());
        assert!(a.histogram(&group(0, &[1])).is_some());
    }

    #[test]
    fn validate_detects_corruption_and_quarantine_hides_stats() {
        let mut a = QssArchive::default();
        let g = group(0, &[1]);
        a.apply_observation(
            g.clone(),
            &frame1d(),
            &Region::new(vec![(0.0, 30.0)]),
            90.0,
            100.0,
            1,
        );
        assert!(a.validate(&g), "fresh write must validate");
        assert!(a.validate(&group(9, &[9])), "absent group trivially valid");
        assert!(a.corrupt_checksum(&g));
        assert!(!a.validate(&g), "torn write must fail validation");
        assert!(a.quarantine(&g));
        // served as "no stats" across every read surface
        assert!(a.histogram(&g).is_none());
        assert!(a.selectivity(&g, &frame1d()).is_none());
        assert!(a.accuracy(&g, &frame1d()).is_none());
        assert_eq!(a.iter().count(), 0);
        assert!(a.pending_rebuild(&g));
        assert_eq!(a.pending_rebuilds().count(), 1);
    }

    #[test]
    fn validate_catches_every_single_bit_flip() {
        let mut a = QssArchive::default();
        let g = group(0, &[1, 2]);
        let frame = Region::new(vec![(0.0, 100.0), (0.0, 50.0)]);
        a.apply_observation(
            g.clone(),
            &frame,
            &Region::new(vec![(10.0, 30.0), (5.0, 20.0)]),
            40.0,
            100.0,
            1,
        );
        let intact = a.histograms[&g].snapshot();
        let mut flipped = 0;
        let mut check = |flip: &dyn Fn(&mut GridSnapshot)| {
            let mut s = intact.clone();
            flip(&mut s);
            a.histograms
                .insert(g.clone(), GridHistogram::from_snapshot(s));
            assert!(!a.validate(&g), "flip #{flipped} went unnoticed");
            flipped += 1;
        };
        for bit in 0..64 {
            let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ (1 << bit));
            for i in 0..intact.counts.len() {
                check(&|s| flip(&mut s.counts[i]));
            }
            for (d, b) in intact.boundaries.iter().enumerate() {
                for i in 0..b.len() {
                    check(&|s| flip(&mut s.boundaries[d][i]));
                }
            }
        }
        assert_eq!(flipped, 64 * (9 + 4 + 4));
        a.histograms
            .insert(g.clone(), GridHistogram::from_snapshot(intact));
        assert!(a.validate(&g));
    }

    #[test]
    fn rebuild_after_quarantine_restores_byte_identical_stats() {
        // two archives receive the same observation; one is corrupted,
        // quarantined, and rebuilt from the same observation — the rebuilt
        // histogram must be bit-identical to the untouched control
        let g = group(0, &[1]);
        let region = Region::new(vec![(0.0, 30.0)]);
        let mut control = QssArchive::default();
        control.apply_observation(g.clone(), &frame1d(), &region, 90.0, 100.0, 1);
        let mut faulty = QssArchive::default();
        faulty.apply_observation(g.clone(), &frame1d(), &region, 90.0, 100.0, 1);
        faulty.corrupt_checksum(&g);
        assert!(!faulty.validate(&g));
        faulty.quarantine(&g);
        let out = faulty.apply_observation(g.clone(), &frame1d(), &region, 90.0, 100.0, 1);
        assert!(out.created, "rebuild creates a fresh histogram");
        assert!(!faulty.pending_rebuild(&g), "rebuild clears the flag");
        assert!(faulty.validate(&g), "rebuild recomputes the checksum");
        let (c, f) = (
            control.histogram(&g).unwrap(),
            faulty.histogram(&g).unwrap(),
        );
        assert_eq!(c.boundaries(), f.boundaries());
        let cb: Vec<u64> = c.counts().iter().map(|x| x.to_bits()).collect();
        let fb: Vec<u64> = f.counts().iter().map(|x| x.to_bits()).collect();
        assert_eq!(cb, fb, "rebuilt counts must match bit-for-bit");
        assert_eq!(c.total().to_bits(), f.total().to_bits());
    }

    #[test]
    fn eviction_keeps_checksums_in_sync() {
        let mut a = QssArchive::new(4, 0.0);
        a.apply_observation(
            group(0, &[1]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            1,
        );
        a.apply_observation(
            group(0, &[2]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            2,
        );
        a.apply_observation(
            group(0, &[3]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            3,
        );
        // every surviving histogram still validates after forced evictions
        let survivors: Vec<ColGroup> = a.iter().map(|(g, _)| g.clone()).collect();
        assert!(!survivors.is_empty());
        for g in &survivors {
            assert!(a.validate(g));
        }
        // evicted groups validate trivially (absent) and are not quarantined
        assert!(a.validate(&group(0, &[1])));
        assert!(!a.pending_rebuild(&group(0, &[1])));
    }

    #[test]
    fn clear_empties() {
        let mut a = QssArchive::default();
        a.apply_observation(
            group(0, &[1]),
            &frame1d(),
            &Region::new(vec![(0.0, 50.0)]),
            50.0,
            100.0,
            1,
        );
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.total_buckets(), 0);
    }
}

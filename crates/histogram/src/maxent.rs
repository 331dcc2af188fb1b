//! Maximum-entropy fitting of bucket counts to region constraints.
//!
//! The QSS archive update (paper §3.4) must find "a distribution that
//! satisfies the knowledge gained by the new statistics without assuming any
//! further knowledge of the data, i.e., assuming uniformity unless more
//! information is known". For a set of observed region counts over a grid
//! whose buckets align with every region (the grid refines itself before
//! fitting), the maximum-entropy distribution is reached by **iterative
//! proportional fitting** (IPF / raking): repeatedly scale the mass inside
//! each constraint region to its observed count and the mass outside to the
//! remainder, until all constraints hold.
//!
//! A constraint region is a hyper-rectangle of the row-major grid, handed
//! over as the contiguous runs of flat indices it covers, and a sweep costs
//! `O(buckets + Σ |inside|)` rather than `O(buckets × constraints)`:
//!
//! * **Lazy scale.** The outside of a constraint is never walked. Every
//!   bucket's mass is `s · counts[i]` for one grid-wide scale `s`; scaling
//!   the inside by `f` and the outside by `g` scales the inside runs by
//!   `f / g` and `s` by `g`.
//! * **Measured total.** Each sweep starts with one pass that folds `s` into
//!   the counts and re-sums the measured total `M`. A constraint's outside
//!   mass is `M − inside`, never the nominal `total − inside`: with
//!   inconsistent constraints the two drift apart, and inferring from
//!   `total` would compound the drift each sweep.
//! * **Degenerate steps.** An empty inside (re-seeded uniformly), an outside
//!   that is zero or lost in the rounding of `M` (re-seeded uniformly when
//!   it must hold mass), a constraint covering every bucket, a zero outside
//!   target, and a rescale that would overflow or take `s` out of range
//!   cannot be expressed as a rescale of `s`. Those steps fold `s` in,
//!   measure inside and outside exactly (the outside over the gaps between
//!   the runs), rescale both, and re-sum `M`. An inside or outside too small
//!   to rescale without overflow is re-seeded like an empty one.

use crate::region::Region;
use std::ops::Range;

/// Maximum raking sweeps over the constraint set.
pub(crate) const MAX_SWEEPS: usize = 60;

/// A fit has converged once every constraint's residual, relative to the
/// total, is at most this.
pub(crate) const TOLERANCE: f64 = 1e-6;

/// An outside mass at or below this share of the measured total is taken
/// as lost in the rounding of `M − inside` and measured exactly instead: at
/// this floor the subtraction keeps ~12 significant digits.
const OUTSIDE_FLOOR: f64 = 1e-4;

/// A lazy step that would take the scale out of this range is taken
/// exactly instead, so the stored counts (mass / scale) never drift
/// towards overflow or subnormals.
const SCALE_RANGE: std::ops::RangeInclusive<f64> = 1e-100..=1e100;

/// An observed fact: `count` rows fall in `region`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The predicate region (finite after clamping to the grid frame).
    pub region: Region,
    /// Observed (or sample-extrapolated) number of rows inside.
    pub count: f64,
    /// Logical time the observation was made; newer constraints win when the
    /// retained set must shrink.
    pub stamp: u64,
}

/// Outcome of a fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Sweeps performed.
    pub iterations: usize,
    /// Largest relative constraint residual at exit (0 = exact).
    pub max_residual: f64,
    /// Whether the tolerance was reached (false means the constraint set is
    /// inconsistent — e.g. observations from different data versions).
    pub converged: bool,
}

impl std::fmt::Display for FitResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sweep(s), residual {:.2e}{}",
            self.iterations,
            self.max_residual,
            if self.converged {
                ""
            } else {
                " (not converged)"
            }
        )
    }
}

/// A constraint lowered onto the grid: the buckets its region covers, as
/// row-major runs of flat indices, and its target mass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lowered {
    /// Ascending, disjoint, non-adjacent `start..end` runs.
    pub(crate) runs: Vec<Range<usize>>,
    /// Buckets covered (the runs' total length).
    pub(crate) len: usize,
    /// Target mass of the covered buckets.
    pub(crate) target: f64,
}

impl Lowered {
    /// Adds flat bucket `flat`, which must exceed every bucket added so far.
    pub(crate) fn push(&mut self, flat: usize) {
        self.len += 1;
        match self.runs.last_mut() {
            Some(run) if run.end == flat => run.end += 1,
            _ => self.runs.push(flat..flat + 1),
        }
    }

    fn sum(&self, counts: &[f64]) -> f64 {
        let mut sum = 0.0;
        for run in &self.runs {
            for v in &counts[run.clone()] {
                sum += v;
            }
        }
        sum
    }

    fn scale(&self, counts: &mut [f64], f: f64) {
        for run in &self.runs {
            for v in &mut counts[run.clone()] {
                *v *= f;
            }
        }
    }

    fn fill(&self, counts: &mut [f64], per: f64) {
        for run in &self.runs {
            counts[run.clone()].fill(per);
        }
    }

    /// The complement of the runs in `0..n`, in ascending order (empty
    /// gaps included).
    fn gaps(&self, n: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|r| r.end));
        let ends = self.runs.iter().map(|r| r.start).chain(std::iter::once(n));
        starts.zip(ends).map(|(start, end)| start..end)
    }
}

/// Runs IPF over `counts` (total mass `total`) for the lowered constraints,
/// at most [`MAX_SWEEPS`] sweeps to [`TOLERANCE`].
///
/// Each sweep visits every constraint and rescales the inside mass to the
/// target and the outside mass to `total - target`, preserving the grand
/// total. Zero inside-mass is re-seeded uniformly across the constraint's
/// buckets so constraints over previously-empty regions still take effect.
pub(crate) fn fit(counts: &mut [f64], total: f64, constraints: &[Lowered]) -> FitResult {
    if constraints.is_empty() || counts.is_empty() || total <= 0.0 {
        return FitResult {
            iterations: 0,
            max_residual: 0.0,
            converged: true,
        };
    }
    let mut scale = 1.0;
    let mut max_residual = 0.0;
    for iter in 0..MAX_SWEEPS {
        let mut measured = fold(counts, &mut scale);
        max_residual = 0.0f64;
        for c in constraints {
            if c.runs.is_empty() {
                continue; // orphaned constraint: nothing to scale
            }
            let target = c.target.clamp(0.0, total);
            let inside = scale * c.sum(counts);
            let residual = relative_residual(inside, target, total);
            max_residual = max_residual.max(residual);
            if residual <= TOLERANCE {
                continue;
            }
            let outside = measured - inside;
            let new_outside_target = (total - target).max(0.0);
            let g = new_outside_target / outside;
            let inside_factor = target / inside / g;
            if outside > measured * OUTSIDE_FLOOR
                && c.len < counts.len()
                && inside_factor.is_finite()
                && SCALE_RANGE.contains(&(scale * g))
            {
                c.scale(counts, inside_factor);
                scale *= g;
                measured = target + new_outside_target;
            } else {
                fold(counts, &mut scale);
                exact_step(counts, c, target, new_outside_target);
                measured = counts.iter().sum();
            }
        }
        if max_residual <= TOLERANCE {
            fold(counts, &mut scale);
            return FitResult {
                iterations: iter + 1,
                max_residual,
                converged: true,
            };
        }
    }
    fold(counts, &mut scale);
    FitResult {
        iterations: MAX_SWEEPS,
        max_residual,
        converged: max_residual <= TOLERANCE,
    }
}

/// Folds the lazy scale into `counts`, resets it to 1, and returns the
/// measured total — one pass over the grid.
fn fold(counts: &mut [f64], scale: &mut f64) -> f64 {
    if *scale == 1.0 {
        return counts.iter().sum();
    }
    let mut measured = 0.0;
    for v in counts.iter_mut() {
        *v *= *scale;
        measured += *v;
    }
    *scale = 1.0;
    measured
}

/// One IPF step with inside and outside both measured bucket by bucket; the
/// outside is walked over the gaps between the constraint's runs. Used for
/// the degenerate cases the lazy scale cannot express.
fn exact_step(counts: &mut [f64], c: &Lowered, target: f64, new_outside_target: f64) {
    let n = counts.len();
    let inside = c.sum(counts);
    let mut outside = 0.0;
    for gap in c.gaps(n) {
        for v in &counts[gap] {
            outside += v;
        }
    }
    // an empty inside (or one so small the rescale overflows) is re-seeded
    // uniformly
    let f = target / inside;
    if f.is_finite() {
        c.scale(counts, f);
    } else if target > 0.0 {
        c.fill(counts, target / c.len as f64);
    }
    // if the outside mass has been squeezed to zero (conflicting
    // constraints can do that) but the target requires some, re-seed it
    // uniformly — otherwise the grand total would silently collapse to
    // `target`
    let n_outside = n - c.len;
    let f = new_outside_target / outside;
    if f.is_finite() {
        for gap in c.gaps(n) {
            for v in &mut counts[gap] {
                *v *= f;
            }
        }
    } else if new_outside_target > 0.0 && n_outside > 0 {
        let per = new_outside_target / n_outside as f64;
        for gap in c.gaps(n) {
            counts[gap].fill(per);
        }
    }
}

fn relative_residual(actual: f64, target: f64, total: f64) -> f64 {
    (actual - target).abs() / total.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::SplitMix64;
    use proptest::prelude::*;

    fn sum(c: &[f64]) -> f64 {
        c.iter().sum()
    }

    /// A constraint as its (ascending) flat buckets and target.
    type Listed = (Vec<usize>, f64);

    /// A constraint over the listed (ascending) flat buckets.
    fn lowered(buckets: &[usize], target: f64) -> Lowered {
        let mut l = Lowered {
            target,
            ..Lowered::default()
        };
        for &b in buckets {
            l.push(b);
        }
        l
    }

    /// The mask-based IPF every sweep of which walks the whole grid per
    /// constraint: the definition [`fit`] must reproduce.
    fn oracle_fit(counts: &mut [f64], total: f64, constraints: &[Listed]) -> FitResult {
        if constraints.is_empty() || counts.is_empty() || total <= 0.0 {
            return FitResult {
                iterations: 0,
                max_residual: 0.0,
                converged: true,
            };
        }
        let masks: Vec<Vec<bool>> = constraints
            .iter()
            .map(|(buckets, _)| {
                let mut m = vec![false; counts.len()];
                for &b in buckets {
                    m[b] = true;
                }
                m
            })
            .collect();
        let mut max_residual = 0.0;
        for iter in 0..MAX_SWEEPS {
            max_residual = 0.0f64;
            for ((buckets, target), mask) in constraints.iter().zip(&masks) {
                if buckets.is_empty() {
                    continue;
                }
                let target = target.clamp(0.0, total);
                let inside: f64 = buckets.iter().map(|&b| counts[b]).sum();
                let outside: f64 = counts
                    .iter()
                    .zip(mask.iter())
                    .filter(|(_, m)| !**m)
                    .map(|(v, _)| *v)
                    .sum();
                let residual = relative_residual(inside, target, total);
                max_residual = max_residual.max(residual);
                if residual <= TOLERANCE {
                    continue;
                }
                if inside > 0.0 {
                    let f = target / inside;
                    for &b in buckets {
                        counts[b] *= f;
                    }
                } else if target > 0.0 {
                    let per = target / buckets.len() as f64;
                    for &b in buckets {
                        counts[b] = per;
                    }
                }
                let new_outside_target = (total - target).max(0.0);
                let n_outside = counts.len() - buckets.len();
                if outside > 0.0 {
                    let f = new_outside_target / outside;
                    for (v, inside_bucket) in counts.iter_mut().zip(mask) {
                        if !inside_bucket {
                            *v *= f;
                        }
                    }
                } else if new_outside_target > 0.0 && n_outside > 0 {
                    let per = new_outside_target / n_outside as f64;
                    for (v, inside_bucket) in counts.iter_mut().zip(mask) {
                        if !inside_bucket {
                            *v = per;
                        }
                    }
                }
            }
            if max_residual <= TOLERANCE {
                return FitResult {
                    iterations: iter + 1,
                    max_residual,
                    converged: true,
                };
            }
        }
        FitResult {
            iterations: MAX_SWEEPS,
            max_residual,
            converged: max_residual <= TOLERANCE,
        }
    }

    /// Runs [`fit`] and the oracle on the same problem, asserts they agree
    /// bucket for bucket to 1e-9 relative with equal sweep counts and
    /// convergence, and returns the fitted counts and result.
    fn fit_against_oracle(
        counts: &[f64],
        total: f64,
        constraints: &[Listed],
    ) -> (Vec<f64>, FitResult) {
        let lowered_set: Vec<Lowered> = constraints.iter().map(|(b, t)| lowered(b, *t)).collect();
        let mut fast = counts.to_vec();
        let r = fit(&mut fast, total, &lowered_set);
        let mut slow = counts.to_vec();
        let o = oracle_fit(&mut slow, total, constraints);
        assert_eq!(
            (r.iterations, r.converged),
            (o.iterations, o.converged),
            "fit {r:?} vs oracle {o:?}"
        );
        // subnormal buckets (inconsistent sets can squeeze mass that far)
        // carry fewer significant bits, so they compare against the
        // smallest normal number instead
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE),
                "bucket {i}: fit {a} vs oracle {b}\nfit    {fast:?}\noracle {slow:?}"
            );
        }
        (fast, r)
    }

    #[test]
    fn single_constraint_splits_mass() {
        // 4 buckets, total 100, constraint: buckets {2,3} hold 20
        let (counts, r) = fit_against_oracle(&[25.0; 4], 100.0, &[(vec![2, 3], 20.0)]);
        assert!(r.converged);
        assert!((counts[2] + counts[3] - 20.0).abs() < 1e-6);
        assert!((sum(&counts) - 100.0).abs() < 1e-6);
        // outside mass distributed proportionally (stays uniform)
        assert!((counts[0] - 40.0).abs() < 1e-6);
        assert!((counts[1] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn paper_figure2_marginals() {
        // Figure 2(b): 2x2 grid over a in {<=20, >20}, b in {<=60, >60},
        // total 100, constraints: a>20 -> 70, b>60 -> 30, joint -> 20.
        // flat layout: [a0b0, a0b1, a1b0, a1b1]
        let (counts, r) = fit_against_oracle(
            &[25.0; 4],
            100.0,
            &[(vec![2, 3], 70.0), (vec![1, 3], 30.0), (vec![3], 20.0)],
        );
        assert!(r.converged, "residual {}", r.max_residual);
        // the unique solution given all three constraints:
        // a1b1=20, a1b0=50, a0b1=10, a0b0=20  (matches Figure 2(b))
        assert!((counts[3] - 20.0).abs() < 1e-3, "{counts:?}");
        assert!((counts[2] - 50.0).abs() < 1e-3, "{counts:?}");
        assert!((counts[1] - 10.0).abs() < 1e-3, "{counts:?}");
        assert!((counts[0] - 20.0).abs() < 1e-3, "{counts:?}");
    }

    #[test]
    fn zero_inside_reseeded() {
        let (counts, r) = fit_against_oracle(&[100.0, 0.0, 0.0, 0.0], 100.0, &[(vec![1, 2], 40.0)]);
        assert!(r.converged);
        assert!((counts[1] - 20.0).abs() < 1e-6);
        assert!((counts[2] - 20.0).abs() < 1e-6);
        assert!((sum(&counts) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_outside_reseeded() {
        // all mass sits inside; the constraint moves 60 rows out, which the
        // empty outside receives uniformly
        let (counts, r) = fit_against_oracle(&[0.0, 50.0, 50.0, 0.0], 100.0, &[(vec![1, 2], 40.0)]);
        assert!(r.converged);
        assert!((counts[1] - 20.0).abs() < 1e-6, "{counts:?}");
        assert!((counts[0] - 30.0).abs() < 1e-6, "{counts:?}");
        assert!((counts[3] - 30.0).abs() < 1e-6, "{counts:?}");
        assert!((sum(&counts) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn outside_lost_in_rounding_is_measured() {
        // the outside holds 1e-13 of the mass: `M - inside` cannot resolve
        // it, so the step measures it bucket by bucket
        let (counts, r) =
            fit_against_oracle(&[5e-12, 50.0, 50.0, 5e-12], 100.0, &[(vec![1, 2], 40.0)]);
        assert!(r.converged);
        assert!((counts[0] - 30.0).abs() < 1e-6, "{counts:?}");
        assert!((sum(&counts) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn near_total_targets_stay_finite() {
        // 24 single-bucket constraints each claiming all but 1e-14 of the
        // mass squeeze the other buckets by ~1e-14 a step, through the
        // subnormal range. Every lazy step also multiplies the scale by
        // ~1e-14, so steps that would take it out of range go exact; and an
        // inside so small that its rescale overflows is re-seeded. (The
        // mask-based oracle fills buckets with NaN and inf here.)
        let target = 32.0 * (1.0 - 1e-14);
        let constraints: Vec<Lowered> = (0..24).map(|b| lowered(&[b], target)).collect();
        let mut counts = vec![1.0; 32];
        let r = fit(&mut counts, 32.0, &constraints);
        assert!(!r.converged);
        assert!(
            counts.iter().all(|c| c.is_finite() && *c >= 0.0),
            "{counts:?}"
        );
        assert!((sum(&counts) - 32.0).abs() < 1e-9, "{counts:?}");
        // the last step of the last sweep left its constraint exact
        assert!((counts[23] - target).abs() < 1e-12, "{counts:?}");
    }

    #[test]
    fn alternating_near_total_targets_keep_the_scale_in_range() {
        // two buckets take turns claiming all but 1e-14 of the mass: every
        // lazy step multiplies the scale by ~1e-14, which would underflow
        // within one sweep of 24 steps unless out-of-range steps go exact
        let target = 4.0 * (1.0 - 1e-14);
        let constraints: Vec<Listed> = (0..24).map(|k| (vec![k % 2], target)).collect();
        let (counts, r) = fit_against_oracle(&[1.0; 4], 4.0, &constraints);
        assert!(!r.converged);
        assert!((counts[1] - target).abs() < 1e-12, "{counts:?}");
    }

    #[test]
    fn whole_grid_constraint() {
        // a constraint over every bucket has no outside to balance: the
        // grid is scaled to the target, and the shape is kept
        let (counts, r) = fit_against_oracle(&[10.0, 30.0, 60.0], 100.0, &[(vec![0, 1, 2], 50.0)]);
        assert!(r.converged);
        assert!((counts[0] - 5.0).abs() < 1e-9, "{counts:?}");
        assert!((counts[2] - 30.0).abs() < 1e-9, "{counts:?}");
        assert!((sum(&counts) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn target_zero_empties_the_inside() {
        let (counts, r) =
            fit_against_oracle(&[10.0, 20.0, 30.0, 40.0], 100.0, &[(vec![1, 2], 0.0)]);
        assert!(r.converged);
        assert_eq!((counts[1], counts[2]), (0.0, 0.0));
        assert!((counts[0] - 20.0).abs() < 1e-9, "{counts:?}");
        assert!((counts[3] - 80.0).abs() < 1e-9, "{counts:?}");
    }

    #[test]
    fn target_equal_to_total_empties_the_outside() {
        let (counts, r) =
            fit_against_oracle(&[10.0, 20.0, 30.0, 40.0], 100.0, &[(vec![1, 2], 100.0)]);
        assert!(r.converged);
        assert_eq!((counts[0], counts[3]), (0.0, 0.0));
        assert!((counts[1] - 40.0).abs() < 1e-9, "{counts:?}");
        assert!((counts[2] - 60.0).abs() < 1e-9, "{counts:?}");
    }

    #[test]
    fn inconsistent_constraints_flagged() {
        // two constraints on the same bucket demanding different masses
        let (counts, r) =
            fit_against_oracle(&[50.0, 50.0], 100.0, &[(vec![0], 10.0), (vec![0], 90.0)]);
        assert!(!r.converged);
        assert_eq!(r.iterations, MAX_SWEEPS);
        assert!(sum(&counts) > 0.0);
        assert!(counts.iter().all(|c| *c >= 0.0));
    }

    #[test]
    fn target_clamped_to_total() {
        let (counts, r) = fit_against_oracle(&[50.0, 50.0], 100.0, &[(vec![0], 500.0)]);
        assert!(r.converged);
        assert!((counts[0] - 100.0).abs() < 1e-6);
        assert!(counts[1].abs() < 1e-6);
    }

    #[test]
    fn no_constraints_is_noop() {
        let mut counts = vec![30.0, 70.0];
        let r = fit(&mut counts, 100.0, &[]);
        assert!(r.converged);
        assert_eq!(counts, vec![30.0, 70.0]);
    }

    #[test]
    fn counts_stay_nonnegative_and_total_preserved() {
        let (counts, r) = fit_against_oracle(
            &[10.0, 20.0, 30.0, 40.0],
            100.0,
            &[(vec![0, 1], 80.0), (vec![1, 2], 15.0)],
        );
        assert!(counts.iter().all(|c| *c >= -1e-9), "{counts:?}");
        assert!((sum(&counts) - 100.0).abs() < 1e-3, "{counts:?}");
        assert!(r.iterations >= 1);
    }

    #[test]
    fn runs_coalesce_and_gaps_complement() {
        let l = lowered(&[1, 2, 3, 6, 8, 9], 0.0);
        assert_eq!(l.runs, vec![1..4, 6..7, 8..10]);
        assert_eq!(l.len, 6);
        let gaps: Vec<_> = l.gaps(10).collect();
        assert_eq!(gaps, vec![0..1, 4..6, 7..8, 10..10]);
    }

    /// A random fitting problem on a 1–3-D grid of 1–6 buckets per axis:
    /// bucket counts (one in eight empty) and 1–5 hyper-rectangle
    /// constraints, listed as their row-major flat buckets. Targets are
    /// fractions of the total, with zero, the total and over-total targets
    /// mixed in; constraints may cover the whole grid. Returns the counts,
    /// their total and the constraints.
    fn problem(seed: u64) -> (Vec<f64>, f64, Vec<Listed>) {
        let mut rng = SplitMix64::new(seed);
        let mut pick = |n: usize| (rng.next_f64() * n as f64) as usize % n;
        let dims = 1 + pick(3);
        let shape: Vec<usize> = (0..dims).map(|_| 1 + pick(6)).collect();
        let n: usize = shape.iter().product();
        let mut rng = SplitMix64::new(seed ^ 0x9E37);
        let mut counts: Vec<f64> = (0..n)
            .map(|_| {
                if rng.next_f64() < 0.125 {
                    0.0
                } else {
                    0.01 + rng.next_f64() * 100.0
                }
            })
            .collect();
        if counts.iter().all(|c| *c == 0.0) {
            counts[0] = 1.0;
        }
        let total: f64 = counts.iter().sum();
        let k = 1 + (rng.next_f64() * 5.0) as usize;
        let constraints = (0..k)
            .map(|_| {
                let boxes: Vec<(usize, usize)> = shape
                    .iter()
                    .map(|&nb| {
                        let a = (rng.next_f64() * nb as f64) as usize % nb;
                        let b = (rng.next_f64() * nb as f64) as usize % nb;
                        (a.min(b), a.max(b) + 1)
                    })
                    .collect();
                let buckets: Vec<usize> = (0..n)
                    .filter(|&flat| {
                        let mut rest = flat;
                        let mut inside = true;
                        for (d, &(lo, hi)) in boxes.iter().enumerate().rev() {
                            let i = rest % shape[d];
                            rest /= shape[d];
                            inside &= lo <= i && i < hi;
                        }
                        inside
                    })
                    .collect();
                let u = rng.next_f64();
                let target = match (u * 16.0) as usize {
                    0 => 0.0,
                    1 => total,
                    2 => 2.0 * total,
                    _ => u * total,
                };
                (buckets, target)
            })
            .collect();
        (counts, total, constraints)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rectangle_fit_matches_the_mask_oracle(seed in any::<u64>()) {
            let (counts, total, constraints) = problem(seed);
            fit_against_oracle(&counts, total, &constraints);
        }

        #[test]
        fn converged_fit_reproduces_every_constraint(seed in any::<u64>()) {
            let (counts, total, constraints) = problem(seed);
            let (fitted, r) = fit_against_oracle(&counts, total, &constraints);
            if r.converged {
                for (buckets, target) in &constraints {
                    let inside: f64 = buckets.iter().map(|&b| fitted[b]).sum();
                    let target = target.clamp(0.0, total);
                    prop_assert!(
                        (inside - target).abs() <= TOLERANCE * total * (1.0 + 1e-9),
                        "constraint missed: inside {inside} target {target}"
                    );
                }
            }
        }

        #[test]
        fn fit_never_makes_a_bucket_negative_or_non_finite(seed in any::<u64>()) {
            let (counts, total, constraints) = problem(seed);
            let (fitted, _) = fit_against_oracle(&counts, total, &constraints);
            for (i, c) in fitted.iter().enumerate() {
                prop_assert!(
                    c.is_finite() && *c >= 0.0,
                    "bucket {i} went negative or non-finite: {c} in {fitted:?}"
                );
            }
        }

        #[test]
        fn fit_keeps_measured_mass_at_total(seed in any::<u64>()) {
            // a constraint over every bucket sets the mass to its own
            // target, so it is left out here
            let (counts, total, mut constraints) = problem(seed);
            constraints.retain(|(buckets, _)| buckets.len() < counts.len());
            prop_assume!(!constraints.is_empty());
            let (fitted, _) = fit_against_oracle(&counts, total, &constraints);
            let mass: f64 = fitted.iter().sum();
            prop_assert!(
                (mass - total).abs() <= 1e-9 * total,
                "total mass drifted: {mass} vs {total} ({fitted:?})"
            );
        }
    }
}

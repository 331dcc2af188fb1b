//! Adaptive histograms for the JITS QSS archive and the system catalog.
//!
//! Two histogram families live here:
//!
//! * [`EquiDepth`] — the classic one-dimensional equi-depth histogram
//!   RUNSTATS-style general statistics are stored as (paper §1's "general
//!   statistics ... the distribution of data values, usually stored as a
//!   histogram").
//! * [`GridHistogram`] — the QSS archive's "adaptive single- and
//!   multi-dimensional histograms" (paper §3.1): an axis-aligned grid whose
//!   buckets carry **timestamps** and whose counts are refined by the
//!   **maximum-entropy principle** (paper §3.4, extending ISOMER \[13\]): each
//!   newly observed predicate-region count becomes a constraint; boundaries
//!   are inserted so the region is bucket-aligned, and iterative proportional
//!   fitting re-distributes mass to satisfy all retained constraints while
//!   assuming nothing else (uniformity unless more is known).
//!
//! The crate also implements the paper's §3.3.2 histogram **accuracy**
//! metric (distance of a predicate constant from the nearest bucket
//! boundary, scaled by relative bucket width) used by the sensitivity
//! analysis.
//!
//! [`EquiDepth`]: equidepth::EquiDepth
//! [`GridHistogram`]: grid::GridHistogram

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod equidepth;
pub mod grid;
pub mod maxent;
pub mod region;

pub use accuracy::{boundary_accuracy, region_accuracy};
pub use equidepth::EquiDepth;
pub use grid::{ConstraintSnapshot, GridHistogram, GridLimits, GridSnapshot};
pub use maxent::{Constraint, FitResult};
pub use region::Region;

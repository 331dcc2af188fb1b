//! In-memory column store for the JITS engine.
//!
//! Tables are append-only column vectors with a tombstone bitmap for
//! deletions. Every mutation ticks the table's **UDI counter** (updates /
//! deletions / insertions since the last statistics collection), which the
//! JITS sensitivity analysis consults as its data-activity signal `s2`.
//!
//! The crate also provides the sampling primitive statistics collection is
//! built on (fixed-size uniform samples of live rows — the paper cites
//! [1, 8, 12] for sample sizes being independent of table size) and simple
//! B-tree secondary indexes that give the optimizer real access-path choices.

#![forbid(unsafe_code)]

pub mod column;
pub mod frame;
pub mod index;
pub mod row;
pub mod sample;
pub mod samplecache;
pub mod table;
pub mod udi;
pub mod zonemap;

pub use column::{Column, StrCodes};
pub use frame::{FrameColumn, FrameValues, SampleFrame};
pub use index::{HashIndex, SecondaryIndex};
pub use row::{Row, RowId};
pub use sample::{sample_rows_budgeted, BudgetedDraw, SampleSpec};
pub use samplecache::{sample_staleness, CacheCounters, CacheLookup, CachedSample, SampleCache};
pub use table::{IndexEntries, Table, TableSnapshot};
pub use udi::UdiCounter;
pub use zonemap::{
    block_of, BlockSkipList, ColumnZone, ZoneBounds, ZoneMaps, ZoneSnapshot, BLOCK_SIZE,
};

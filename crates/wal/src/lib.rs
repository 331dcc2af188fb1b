//! Durability plane for the JITS engine: a write-ahead log with CRC-framed
//! records and monotonic LSNs, plus checkpoint segments carrying full
//! engine-state snapshots.
//!
//! The paper's statistics plane (QSS archive, StatHistory, sample cache)
//! is as much engine state as the tables themselves — losing it on restart
//! silently re-degrades every estimate back to cold defaults. This crate
//! makes both planes crash-consistent: the engine appends one logical
//! record per durably-mutating operation ([`WalRecord`]), periodically
//! folds everything into a checkpoint segment, and on open gets back the
//! newest intact checkpoint plus the post-checkpoint record tail to
//! replay ([`Wal::open`]).
//!
//! Recovery is **redo-only** and **bit-identical**: records re-execute
//! through the normal engine paths against the restored deterministic
//! substrate (clock, RNG, setting), so the recovered process is
//! indistinguishable — mutation epochs, archive contents, metric counters
//! — from one that never crashed. The crash matrix in the repository's
//! recovery tests asserts exactly that at every injected crash point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod log;
pub mod record;

pub use codec::{crc32, Crc32, Decoder, Encoder};
pub use log::{Checkpoint, Wal, WalOpen, CKPT_KEEP, CKPT_MAGIC, WAL_FILE, WAL_MAGIC};
pub use record::WalRecord;

//! Logical WAL records — one per durably-mutating engine operation.
//!
//! The log is **statement-level** (command logging): a record carries the
//! operation, not the page deltas, and recovery re-executes it through the
//! normal engine paths. That is only sound because the engine is
//! deterministic given its restored substrate (logical clock, RNG stream,
//! statistics setting) — which the checkpoint carries and the
//! record set below completes. Two consequences worth stating:
//!
//! * **SELECT and EXPLAIN are logged.** In this engine a read is a write:
//!   every statement ticks the logical clock and can refine the QSS
//!   archive, touch LRU stamps, and record StatHistory entries. Replaying
//!   only DML would recover the tables but desync the statistics plane.
//! * **Failed statements are logged too.** A statement that errors after
//!   mutating state (a bind error after the clock tick, a partial
//!   multi-row insert) must replay so the mutation it did make recurs;
//!   the error itself is deterministic and reproduces identically, so
//!   replay executes and ignores statement-level errors.

use crate::codec::{Decoder, Encoder};
use jits_common::{JitsError, Result, Schema, Value};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Any SQL statement run through `execute` — SELECT included (reads
    /// mutate the statistics plane).
    Statement {
        /// The statement text, verbatim.
        sql: String,
    },
    /// An `explain` call: it compiles the query, which ticks the clock and
    /// can refine the archive, without executing it.
    Explain {
        /// The explained statement text.
        sql: String,
    },
    /// `create_table`.
    CreateTable {
        /// New table's name.
        name: String,
        /// New table's schema.
        schema: Schema,
    },
    /// `create_index`.
    CreateIndex {
        /// Table name.
        table: String,
        /// Indexed column name.
        column: String,
    },
    /// `set_primary_key`.
    SetPrimaryKey {
        /// Table name.
        table: String,
        /// Key column name.
        column: String,
    },
    /// `load_rows` (bulk load outside SQL).
    LoadRows {
        /// Table name.
        table: String,
        /// The loaded rows, verbatim.
        rows: Vec<Vec<Value>>,
    },
    /// `reset_udi` on one table (id = registration ordinal, which replay
    /// reproduces).
    ResetUdi {
        /// Target table id ordinal.
        table: u32,
    },
    /// `runstats_all` — full RUNSTATS over every table.
    RunstatsAll,
    /// `precollect_query_stats` — warm statistics for one query shape.
    Precollect {
        /// The query whose statistics were pre-collected.
        sql: String,
    },
    /// `migrate_statistics` (the periodic trigger inside `execute` is
    /// covered by the `Statement` record that caused it; this covers the
    /// explicit admin call).
    MigrateStats,
    /// `clear_statistics`.
    ClearStats,
    /// `set_setting` — the statistics configuration changes how every
    /// later statement collects, so replay under the wrong setting would
    /// diverge. The payload is the engine's own encoding of the setting
    /// (opaque at this layer).
    SetSetting {
        /// Engine-encoded setting bytes.
        payload: Vec<u8>,
    },
}

impl WalRecord {
    /// Short kind label for observability and flight-recorder events.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Statement { .. } => "statement",
            WalRecord::Explain { .. } => "explain",
            WalRecord::CreateTable { .. } => "create_table",
            WalRecord::CreateIndex { .. } => "create_index",
            WalRecord::SetPrimaryKey { .. } => "set_primary_key",
            WalRecord::LoadRows { .. } => "load_rows",
            WalRecord::ResetUdi { .. } => "reset_udi",
            WalRecord::RunstatsAll => "runstats_all",
            WalRecord::Precollect { .. } => "precollect",
            WalRecord::MigrateStats => "migrate_stats",
            WalRecord::ClearStats => "clear_stats",
            WalRecord::SetSetting { .. } => "set_setting",
        }
    }

    /// Encodes the record payload (tag byte + fields; no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::Statement { sql } => {
                e.put_u8(1);
                e.put_str(sql);
            }
            WalRecord::Explain { sql } => {
                e.put_u8(2);
                e.put_str(sql);
            }
            WalRecord::CreateTable { name, schema } => {
                e.put_u8(3);
                e.put_str(name);
                e.put_schema(schema);
            }
            WalRecord::CreateIndex { table, column } => {
                e.put_u8(4);
                e.put_str(table);
                e.put_str(column);
            }
            WalRecord::SetPrimaryKey { table, column } => {
                e.put_u8(5);
                e.put_str(table);
                e.put_str(column);
            }
            WalRecord::LoadRows { table, rows } => {
                e.put_u8(6);
                e.put_str(table);
                e.put_u32(rows.len() as u32);
                for row in rows {
                    e.put_u32(row.len() as u32);
                    for v in row {
                        e.put_value(v);
                    }
                }
            }
            WalRecord::ResetUdi { table } => {
                e.put_u8(7);
                e.put_u32(*table);
            }
            WalRecord::RunstatsAll => e.put_u8(8),
            WalRecord::Precollect { sql } => {
                e.put_u8(9);
                e.put_str(sql);
            }
            WalRecord::MigrateStats => e.put_u8(10),
            WalRecord::ClearStats => e.put_u8(11),
            WalRecord::SetSetting { payload } => {
                e.put_u8(12);
                e.put_bytes(payload);
            }
        }
        e.into_bytes()
    }

    /// Decodes a record payload. The payload has already passed its CRC, so
    /// any failure here is real corruption (or a format version mismatch),
    /// reported as [`JitsError::Recovery`] — never a panic.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut d = Decoder::new(payload);
        let rec = match d.u8()? {
            1 => WalRecord::Statement { sql: d.str()? },
            2 => WalRecord::Explain { sql: d.str()? },
            3 => WalRecord::CreateTable {
                name: d.str()?,
                schema: d.schema()?,
            },
            4 => WalRecord::CreateIndex {
                table: d.str()?,
                column: d.str()?,
            },
            5 => WalRecord::SetPrimaryKey {
                table: d.str()?,
                column: d.str()?,
            },
            6 => {
                let table = d.str()?;
                let nrows = d.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(1 << 16));
                for _ in 0..nrows {
                    let ncols = d.u32()? as usize;
                    let mut row = Vec::with_capacity(ncols.min(1024));
                    for _ in 0..ncols {
                        row.push(d.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::LoadRows { table, rows }
            }
            7 => WalRecord::ResetUdi { table: d.u32()? },
            8 => WalRecord::RunstatsAll,
            9 => WalRecord::Precollect { sql: d.str()? },
            10 => WalRecord::MigrateStats,
            11 => WalRecord::ClearStats,
            12 => WalRecord::SetSetting {
                payload: d.bytes()?,
            },
            t => {
                return Err(JitsError::Recovery(format!(
                    "wal record: unknown tag {t} (format version mismatch?)"
                )))
            }
        };
        d.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::DataType;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Statement {
                sql: "SELECT * FROM car WHERE year > 2000".into(),
            },
            WalRecord::Explain {
                sql: "SELECT 1".into(),
            },
            WalRecord::CreateTable {
                name: "car".into(),
                schema: Schema::from_pairs(&[("id", DataType::Int), ("make", DataType::Str)]),
            },
            WalRecord::CreateIndex {
                table: "car".into(),
                column: "make".into(),
            },
            WalRecord::SetPrimaryKey {
                table: "car".into(),
                column: "id".into(),
            },
            WalRecord::LoadRows {
                table: "car".into(),
                rows: vec![
                    vec![Value::Int(1), Value::str("Toyota")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::ResetUdi { table: 3 },
            WalRecord::RunstatsAll,
            WalRecord::Precollect {
                sql: "SELECT * FROM car".into(),
            },
            WalRecord::MigrateStats,
            WalRecord::ClearStats,
            WalRecord::SetSetting {
                payload: vec![9, 8, 7],
            },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in samples() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec, "{}", rec.kind());
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_recovery_errors() {
        assert!(matches!(
            WalRecord::decode(&[99]),
            Err(JitsError::Recovery(_))
        ));
        let mut bytes = WalRecord::RunstatsAll.encode();
        bytes.push(0);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(JitsError::Recovery(_))
        ));
        assert!(matches!(
            WalRecord::decode(&[]),
            Err(JitsError::Recovery(_))
        ));
    }

    /// Tag 13 carried engine flag flips, which no longer exist: a log that
    /// still holds one is refused, never replayed.
    #[test]
    fn retired_flag_record_is_a_recovery_error() {
        let mut bytes = vec![13];
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(b"profiling");
        bytes.push(1);
        assert!(matches!(
            WalRecord::decode(&bytes),
            Err(JitsError::Recovery(_))
        ));
    }

    /// Decoding `bytes` returns a record or a typed recovery error.
    fn assert_decodes_or_fails_typed(bytes: &[u8]) {
        match WalRecord::decode(bytes) {
            Ok(_) | Err(JitsError::Recovery(_)) => {}
            Err(other) => panic!("{bytes:?}: expected Ok or a Recovery error, got {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every sample record with 1–4 bytes flipped, a 4-byte word
        /// overwritten (with `u32::MAX`, a random value or a small one), or
        /// cut at a random offset decodes or fails typed: never a panic,
        /// never another error kind.
        #[test]
        fn mutated_record_decodes_or_fails_typed(
            which in proptest::prelude::any::<usize>(),
            mutation in 0u8..3,
            flips in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..255),
                1..5,
            ),
            word in proptest::prelude::any::<u32>(),
        ) {
            let samples = samples();
            let mut bytes = samples[which % samples.len()].encode();
            let (at, pick) = flips[0];
            // too short for a word: flip bytes instead
            let mutation = if mutation == 1 && bytes.len() < 4 { 0 } else { mutation };
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
            assert_decodes_or_fails_typed(&bytes);
        }

        /// Arbitrary strings of 0–64 bytes, bare or behind a known tag so
        /// the field decoders see them, likewise.
        #[test]
        fn arbitrary_bytes_decode_or_fail_typed(
            tag in 0u8..14,
            raw in proptest::collection::vec(0u32..256, 0..65),
        ) {
            let mut bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            assert_decodes_or_fails_typed(&bytes);
            if tag > 0 {
                bytes.insert(0, tag);
                assert_decodes_or_fails_typed(&bytes);
            }
        }
    }
}

//! The append-only log and its checkpoint segments.
//!
//! On-disk layout inside the data directory:
//!
//! ```text
//! wal.log            magic "JITSWAL1", then records:
//!                    [len: u32][crc32: u32][lsn: u64][payload: len bytes]
//!                    crc over lsn bytes ++ payload
//! ckpt-<lsn>.seg     magic "JITSCKP1", then
//!                    [lsn: u64][crc32: u32][len: u64][payload: len bytes]
//!                    crc over lsn bytes ++ payload
//! *.tmp              in-flight checkpoint writes (debris after a crash;
//!                    removed on open)
//! ```
//!
//! **Checkpoint protocol** (fuzzy only in the sense that it runs between
//! statements; the engine holds its state locks while producing the
//! payload): write `ckpt-<lsn>.seg.tmp`, fsync, atomically rename to
//! `ckpt-<lsn>.seg`, fsync the directory, then truncate `wal.log` back to
//! its magic. A crash between the rename and the truncate leaves records
//! with `lsn <= checkpoint lsn` in the log; recovery skips them. The two
//! newest segments are kept so a checkpoint torn *after* the rename (a
//! corrupt newest segment) still falls back to the previous one.
//!
//! **Torn-tail scan**: on open, records are read until the first frame
//! whose header overruns the file or whose CRC fails; everything from
//! that offset on is physically truncated (a crash mid-append is expected
//! state, not corruption). A frame whose CRC passes but whose payload
//! does not decode is the opposite — real corruption — and surfaces as
//! [`JitsError::Recovery`].
//!
//! **Durability contract (group commit)**: appends `write` their frame to
//! the OS (page cache) but do not fsync; the log is synced at every
//! checkpoint, on drop, and after recovery truncations. A power cut
//! therefore loses at most the statements since the last sync — exactly
//! the window the `wal.after_append_before_fsync` fault injects — and the
//! torn-tail scan turns any half-written frame back into that clean
//! prefix. Per-statement fsync costs more than the entire statistics
//! plane (measured >15% end-to-end; `wal_overhead` gates the relaxed
//! policy under 5%), which is why group commit is the default and only
//! policy here.
//!
//! **Poisoning**: any append or checkpoint failure (injected or real)
//! poisons the handle; every later durable operation fails fast with
//! [`JitsError::Recovery`]. This models the real-world rule that a
//! process which cannot write its log must stop accepting writes — the
//! caller reopens (recovering to the last durable state) to continue.

use crate::codec::array_at;
use crate::record::WalRecord;
use jits_common::fault::{
    FaultPlane, FP_WAL_AFTER_APPEND, FP_WAL_BEFORE_APPEND, FP_WAL_MID_CHECKPOINT, FP_WAL_TORN_TAIL,
};
use jits_common::{JitsError, Result};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of `wal.log`.
pub const WAL_MAGIC: &[u8; 8] = b"JITSWAL1";
/// Magic prefix of checkpoint segments.
pub const CKPT_MAGIC: &[u8; 8] = b"JITSCKP1";
/// Log file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// How many checkpoint segments are retained (newest first).
pub const CKPT_KEEP: usize = 2;

/// Per-record framing overhead: len (4) + crc (4) + lsn (8).
const FRAME_HEADER: usize = 16;

fn io_err(what: &str, e: std::io::Error) -> JitsError {
    JitsError::Recovery(format!("wal: {what}: {e}"))
}

/// The newest intact checkpoint found on open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// LSN the snapshot covers (every record with `lsn <=` this is
    /// reflected in the payload).
    pub lsn: u64,
    /// Engine-encoded state snapshot (opaque at this layer).
    pub payload: Vec<u8>,
}

/// Result of [`Wal::open`]: the live handle plus everything recovery needs.
#[derive(Debug)]
pub struct WalOpen {
    /// The opened log, positioned for appending.
    pub wal: Wal,
    /// Newest intact checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Records to replay on top of the checkpoint, in LSN order (records
    /// the checkpoint already covers are filtered out).
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes of torn tail physically truncated from the log.
    pub torn_bytes: u64,
    /// Checkpoint segments that failed validation and were discarded.
    pub corrupt_checkpoints: u32,
    /// `.tmp` debris files removed.
    pub tmp_removed: u32,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// LSN the next append will carry (LSNs start at 1).
    next_lsn: u64,
    /// Records appended since the last durable checkpoint (counts records
    /// recovered from the log tail on open).
    since_checkpoint: u64,
    /// Current physical length of `wal.log` — the rollback point for the
    /// lost-unsynced-tail fault.
    log_len: u64,
    /// Lifetime bytes appended through this handle (metrics).
    bytes_appended: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir`, scanning checkpoint
    /// segments and the log tail. See the module docs for the recovery
    /// rules applied here.
    pub fn open(dir: &Path) -> Result<WalOpen> {
        fs::create_dir_all(dir).map_err(|e| io_err("create data dir", e))?;

        // 1. Sweep in-flight checkpoint debris.
        let mut tmp_removed = 0u32;
        for entry in fs::read_dir(dir).map_err(|e| io_err("read data dir", e))? {
            let entry = entry.map_err(|e| io_err("read data dir entry", e))?;
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".tmp") {
                fs::remove_file(entry.path()).map_err(|e| io_err("remove tmp debris", e))?;
                tmp_removed += 1;
            }
        }

        // 2. Load the newest intact checkpoint, discarding corrupt ones.
        let mut seg_lsns: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| io_err("read data dir", e))? {
            let entry = entry.map_err(|e| io_err("read data dir entry", e))?;
            if let Some(lsn) = parse_segment_name(&entry.file_name().to_string_lossy()) {
                seg_lsns.push(lsn);
            }
        }
        seg_lsns.sort_unstable_by(|a, b| b.cmp(a));
        let mut checkpoint = None;
        let mut corrupt_checkpoints = 0u32;
        for lsn in seg_lsns {
            let path = dir.join(segment_name(lsn));
            match read_segment(&path, lsn) {
                Ok(payload) => {
                    checkpoint = Some(Checkpoint { lsn, payload });
                    break;
                }
                Err(_) => {
                    corrupt_checkpoints += 1;
                    fs::remove_file(&path).map_err(|e| io_err("remove corrupt segment", e))?;
                }
            }
        }
        let ckpt_lsn = checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);

        // 3. Open the log, scan records, truncate any torn tail.
        let log_path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(|e| io_err("open wal.log", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read wal.log", e))?;

        let mut torn_bytes = 0u64;
        let mut records: Vec<(u64, WalRecord)> = Vec::new();
        let keep: usize;
        if bytes.len() < WAL_MAGIC.len() {
            // A prefix cut inside the magic itself: an empty log.
            torn_bytes = bytes.len() as u64;
            keep = 0;
            file.set_len(0)
                .map_err(|e| io_err("truncate torn magic", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek wal.log", e))?;
            file.write_all(WAL_MAGIC)
                .map_err(|e| io_err("write magic", e))?;
            file.sync_data().map_err(|e| io_err("fsync magic", e))?;
        } else if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(JitsError::Recovery(format!(
                "wal.log has bad magic {:02x?} (not a JITS wal)",
                &bytes[..WAL_MAGIC.len()]
            )));
        } else {
            let mut pos = WAL_MAGIC.len();
            let mut last_lsn = 0u64;
            loop {
                let remaining = bytes.len() - pos;
                if remaining == 0 {
                    break;
                }
                if remaining < FRAME_HEADER {
                    torn_bytes = remaining as u64;
                    break;
                }
                let len = u32::from_le_bytes(array_at(&bytes, pos, "frame length")?) as usize;
                let crc = u32::from_le_bytes(array_at(&bytes, pos + 4, "frame crc")?);
                if remaining - FRAME_HEADER < len {
                    torn_bytes = remaining as u64;
                    break;
                }
                let lsn_and_payload = &bytes[pos + 8..pos + FRAME_HEADER + len];
                if crate::codec::crc32(lsn_and_payload) != crc {
                    torn_bytes = remaining as u64;
                    break;
                }
                let lsn = u64::from_le_bytes(array_at(lsn_and_payload, 0, "frame lsn")?);
                if lsn <= last_lsn {
                    return Err(JitsError::Recovery(format!(
                        "wal.log LSNs not strictly increasing ({last_lsn} then {lsn})"
                    )));
                }
                // CRC passed: a decode failure now is corruption, not a torn
                // tail, and must not be silently dropped.
                let rec = WalRecord::decode(&lsn_and_payload[8..])?;
                last_lsn = lsn;
                if lsn > ckpt_lsn {
                    records.push((lsn, rec));
                }
                pos += FRAME_HEADER + len;
            }
            keep = pos;
            if torn_bytes > 0 {
                file.set_len(keep as u64)
                    .map_err(|e| io_err("truncate torn tail", e))?;
                file.sync_data()
                    .map_err(|e| io_err("fsync truncation", e))?;
            }
            last_lsn = last_lsn.max(ckpt_lsn);
            let wal = Wal {
                dir: dir.to_path_buf(),
                file: reopen_at_end(file, &log_path)?,
                next_lsn: last_lsn + 1,
                since_checkpoint: records.len() as u64,
                log_len: keep as u64,
                bytes_appended: 0,
                poisoned: false,
            };
            return Ok(WalOpen {
                wal,
                checkpoint,
                records,
                torn_bytes,
                corrupt_checkpoints,
                tmp_removed,
            });
        }
        // Fresh (or magic-torn) log.
        let _ = keep;
        let wal = Wal {
            dir: dir.to_path_buf(),
            file: reopen_at_end(file, &log_path)?,
            next_lsn: ckpt_lsn + 1,
            since_checkpoint: 0,
            log_len: WAL_MAGIC.len() as u64,
            bytes_appended: 0,
            poisoned: false,
        };
        Ok(WalOpen {
            wal,
            checkpoint,
            records,
            torn_bytes,
            corrupt_checkpoints,
            tmp_removed,
        })
    }

    /// The data directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended since the last durable checkpoint.
    pub fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Lifetime bytes appended through this handle.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// True once a durable operation has failed; all further ones fail
    /// fast until the log is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(JitsError::Recovery(
                "wal is poisoned by an earlier append/checkpoint failure; \
                 reopen to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Appends one record (group commit: written to the OS now, fsynced at
    /// the next checkpoint / drop — see the module docs), returning its
    /// LSN.
    ///
    /// The three WAL crash points fire here, keyed by the statement clock
    /// so crash schedules are statement-addressable. Each leaves the disk
    /// in the state a real crash at that instant would: nothing
    /// (`before_append`), nothing durable (`after_append_before_fsync` —
    /// the unsynced tail is rolled back, as a power cut would), or a torn
    /// prefix of the frame (`torn_tail`). All three poison the handle.
    pub fn append(&mut self, rec: &WalRecord, fault: &FaultPlane, clock: u64) -> Result<u64> {
        self.check_poisoned()?;
        if fault.fires(FP_WAL_BEFORE_APPEND, clock, 0) {
            self.poisoned = true;
            return Err(JitsError::Recovery(format!(
                "injected crash at {FP_WAL_BEFORE_APPEND} (clock {clock})"
            )));
        }
        let lsn = self.next_lsn;
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut covered = Vec::with_capacity(8 + payload.len());
        covered.extend_from_slice(&lsn.to_le_bytes());
        covered.extend_from_slice(&payload);
        frame.extend_from_slice(&crate::codec::crc32(&covered).to_le_bytes());
        frame.extend_from_slice(&covered);

        if fault.fires(FP_WAL_TORN_TAIL, clock, 0) {
            // Crash mid-write: half the frame reaches the disk.
            let cut = frame.len() / 2;
            self.file
                .write_all(&frame[..cut])
                .map_err(|e| io_err("torn write", e))?;
            self.file.sync_data().map_err(|e| io_err("torn fsync", e))?;
            self.poisoned = true;
            return Err(JitsError::Recovery(format!(
                "injected crash at {FP_WAL_TORN_TAIL} (clock {clock})"
            )));
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append record", e))?;
        if fault.fires(FP_WAL_AFTER_APPEND, clock, 0) {
            // Crash before fsync: the OS never persisted the tail. Model
            // it by rolling the file back to its pre-append length.
            self.file
                .set_len(self.log_len)
                .map_err(|e| io_err("rollback unsynced tail", e))?;
            self.file
                .seek(SeekFrom::Start(self.log_len))
                .map_err(|e| io_err("seek after rollback", e))?;
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync rollback", e))?;
            self.poisoned = true;
            return Err(JitsError::Recovery(format!(
                "injected crash at {FP_WAL_AFTER_APPEND} (clock {clock})"
            )));
        }
        self.log_len += frame.len() as u64;
        self.bytes_appended += frame.len() as u64;
        self.next_lsn += 1;
        self.since_checkpoint += 1;
        Ok(lsn)
    }

    /// Writes a checkpoint segment covering every appended record, then
    /// truncates the log. Returns the checkpoint LSN.
    pub fn checkpoint(&mut self, payload: &[u8], fault: &FaultPlane, clock: u64) -> Result<u64> {
        self.check_poisoned()?;
        let lsn = self.next_lsn - 1;
        let final_path = self.dir.join(segment_name(lsn));
        let tmp_path = self.dir.join(format!("{}.tmp", segment_name(lsn)));

        let mut seg = Vec::with_capacity(CKPT_MAGIC.len() + 20 + payload.len());
        seg.extend_from_slice(CKPT_MAGIC);
        seg.extend_from_slice(&lsn.to_le_bytes());
        let mut covered = Vec::with_capacity(8 + payload.len());
        covered.extend_from_slice(&lsn.to_le_bytes());
        covered.extend_from_slice(payload);
        seg.extend_from_slice(&crate::codec::crc32(&covered).to_le_bytes());
        seg.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        seg.extend_from_slice(payload);

        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("create ckpt tmp", e))?;
        if fault.fires(FP_WAL_MID_CHECKPOINT, clock, 0) {
            // Crash mid-segment-write: partial tmp file left as debris.
            tmp.write_all(&seg[..seg.len() / 2])
                .map_err(|e| io_err("torn ckpt write", e))?;
            tmp.sync_data().map_err(|e| io_err("torn ckpt fsync", e))?;
            self.poisoned = true;
            return Err(JitsError::Recovery(format!(
                "injected crash at {FP_WAL_MID_CHECKPOINT} (clock {clock})"
            )));
        }
        tmp.write_all(&seg).map_err(|e| io_err("write ckpt", e))?;
        tmp.sync_data().map_err(|e| io_err("fsync ckpt", e))?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename ckpt", e))?;
        // Make the rename durable before the log is truncated, or a crash
        // could lose both the segment and the records it covers.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| io_err("truncate log after ckpt", e))?;
        self.file
            .seek(SeekFrom::Start(WAL_MAGIC.len() as u64))
            .map_err(|e| io_err("seek after ckpt", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync truncation", e))?;
        self.log_len = WAL_MAGIC.len() as u64;
        self.since_checkpoint = 0;
        self.prune_segments(lsn)?;
        Ok(lsn)
    }

    /// Removes checkpoint segments older than the [`CKPT_KEEP`] newest.
    fn prune_segments(&self, _newest: u64) -> Result<()> {
        let mut lsns: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err("read data dir", e))? {
            let entry = entry.map_err(|e| io_err("read data dir entry", e))?;
            if let Some(lsn) = parse_segment_name(&entry.file_name().to_string_lossy()) {
                lsns.push(lsn);
            }
        }
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        for lsn in lsns.into_iter().skip(CKPT_KEEP) {
            fs::remove_file(self.dir.join(segment_name(lsn)))
                .map_err(|e| io_err("prune old segment", e))?;
        }
        Ok(())
    }
}

impl Drop for Wal {
    /// Clean shutdown syncs the group-committed tail; a crash instead
    /// loses at most the records since the last sync (see module docs).
    fn drop(&mut self) {
        let _ = self.file.sync_data();
    }
}

fn segment_name(lsn: u64) -> String {
    format!("ckpt-{lsn:020}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Re-opens `file` positioned at its (possibly truncated) end for appends.
fn reopen_at_end(mut file: File, _path: &Path) -> Result<File> {
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_err("seek to log end", e))?;
    Ok(file)
}

/// Reads and validates one checkpoint segment.
fn read_segment(path: &Path, expect_lsn: u64) -> Result<Vec<u8>> {
    let bytes = fs::read(path).map_err(|e| io_err("read ckpt segment", e))?;
    let header = CKPT_MAGIC.len() + 8 + 4 + 8;
    if bytes.len() < header || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(JitsError::Recovery("ckpt segment: bad header".into()));
    }
    let mut pos = CKPT_MAGIC.len();
    let lsn = u64::from_le_bytes(array_at(&bytes, pos, "ckpt lsn")?);
    pos += 8;
    let crc = u32::from_le_bytes(array_at(&bytes, pos, "ckpt crc")?);
    pos += 4;
    let len = u64::from_le_bytes(array_at(&bytes, pos, "ckpt length")?) as usize;
    pos += 8;
    if lsn != expect_lsn || bytes.len() - pos != len {
        return Err(JitsError::Recovery(
            "ckpt segment: bad lsn or length".into(),
        ));
    }
    let mut covered = Vec::with_capacity(8 + len);
    covered.extend_from_slice(&lsn.to_le_bytes());
    covered.extend_from_slice(&bytes[pos..]);
    if crate::codec::crc32(&covered) != crc {
        return Err(JitsError::Recovery("ckpt segment: CRC mismatch".into()));
    }
    Ok(bytes[pos..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::TestDir;

    fn rec(sql: &str) -> WalRecord {
        WalRecord::Statement { sql: sql.into() }
    }

    fn none() -> FaultPlane {
        FaultPlane::disabled()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = TestDir::new("wal-append-reopen");
        let mut w = Wal::open(dir.path()).unwrap().wal;
        assert_eq!(w.append(&rec("a"), &none(), 1).unwrap(), 1);
        assert_eq!(w.append(&rec("b"), &none(), 2).unwrap(), 2);
        drop(w);
        let o = Wal::open(dir.path()).unwrap();
        assert!(o.checkpoint.is_none());
        assert_eq!(o.torn_bytes, 0);
        let sqls: Vec<&str> = o
            .records
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Statement { sql } => sql.as_str(),
                other => panic!("expected a statement, got {other:?}"),
            })
            .collect();
        assert_eq!(sqls, vec!["a", "b"]);
        assert_eq!(o.wal.next_lsn(), 3);
        assert_eq!(o.wal.since_checkpoint(), 2);
    }

    #[test]
    fn checkpoint_truncates_and_survives_reopen() {
        let dir = TestDir::new("wal-ckpt");
        let mut w = Wal::open(dir.path()).unwrap().wal;
        w.append(&rec("a"), &none(), 1).unwrap();
        w.append(&rec("b"), &none(), 2).unwrap();
        let lsn = w.checkpoint(b"state-at-2", &none(), 3).unwrap();
        assert_eq!(lsn, 2);
        assert_eq!(w.since_checkpoint(), 0);
        w.append(&rec("c"), &none(), 4).unwrap();
        drop(w);
        let o = Wal::open(dir.path()).unwrap();
        let c = o.checkpoint.unwrap();
        assert_eq!(c.lsn, 2);
        assert_eq!(c.payload, b"state-at-2");
        assert_eq!(o.records.len(), 1, "only the post-checkpoint record");
        assert_eq!(o.records[0].0, 3);
        assert_eq!(o.wal.next_lsn(), 4);
    }

    #[test]
    fn only_two_segments_are_kept_and_corrupt_newest_falls_back() {
        let dir = TestDir::new("wal-seg-retention");
        let mut w = Wal::open(dir.path()).unwrap().wal;
        for i in 0..4u64 {
            w.append(&rec(&format!("s{i}")), &none(), i).unwrap();
            w.checkpoint(format!("state-{i}").as_bytes(), &none(), 100 + i)
                .unwrap();
        }
        let segs: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| {
                let n = e.unwrap().file_name().to_string_lossy().into_owned();
                n.ends_with(".seg").then_some(n)
            })
            .collect();
        assert_eq!(segs.len(), CKPT_KEEP);
        drop(w);
        // corrupt the newest segment: recovery must fall back to the older
        let newest = dir.path().join(segment_name(4));
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let o = Wal::open(dir.path()).unwrap();
        assert_eq!(o.corrupt_checkpoints, 1);
        assert_eq!(o.checkpoint.unwrap().payload, b"state-2");
    }

    #[test]
    fn torn_tail_is_truncated_to_last_whole_record() {
        let dir = TestDir::new("wal-torn");
        let mut w = Wal::open(dir.path()).unwrap().wal;
        w.append(&rec("whole"), &none(), 1).unwrap();
        w.append(&rec("torn-away"), &none(), 2).unwrap();
        drop(w);
        let log = dir.path().join(WAL_FILE);
        let bytes = std::fs::read(&log).unwrap();
        // cut 3 bytes into the second record's frame
        let first_frame_end = {
            let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            8 + FRAME_HEADER + len
        };
        std::fs::write(&log, &bytes[..first_frame_end + 3]).unwrap();
        let o = Wal::open(dir.path()).unwrap();
        assert_eq!(o.torn_bytes, 3);
        assert_eq!(o.records.len(), 1);
        assert_eq!(o.wal.next_lsn(), 2);
        // the tail is physically gone
        assert_eq!(
            std::fs::metadata(&log).unwrap().len(),
            first_frame_end as u64
        );
    }

    #[test]
    fn injected_crashes_leave_recoverable_state_and_poison() {
        for (point, spec) in [
            (FP_WAL_BEFORE_APPEND, "wal.before_append=once:5"),
            (FP_WAL_AFTER_APPEND, "wal.after_append_before_fsync=once:5"),
            (FP_WAL_TORN_TAIL, "wal.torn_tail=once:5"),
        ] {
            let dir = TestDir::new(&format!("wal-crash-{point}"));
            let fault = FaultPlane::from_spec(1, spec).unwrap();
            let mut w = Wal::open(dir.path()).unwrap().wal;
            w.append(&rec("ok"), &fault, 4).unwrap();
            let err = w.append(&rec("doomed"), &fault, 5).unwrap_err();
            assert!(matches!(err, JitsError::Recovery(_)), "{point}");
            assert!(w.is_poisoned());
            // poisoned: even a clean clock fails fast
            assert!(w.append(&rec("after"), &fault, 6).is_err());
            assert!(w.checkpoint(b"x", &fault, 7).is_err());
            drop(w);
            // reopen recovers exactly the pre-crash durable state
            let o = Wal::open(dir.path()).unwrap();
            assert_eq!(o.records.len(), 1, "{point}: only the synced record");
            assert_eq!(o.records[0].0, 1);
            assert_eq!(o.wal.next_lsn(), 2, "{point}");
            if point == FP_WAL_TORN_TAIL {
                assert!(o.torn_bytes > 0, "torn tail must be found and cut");
            } else {
                assert_eq!(o.torn_bytes, 0, "{point}");
            }
        }
    }

    #[test]
    fn mid_checkpoint_crash_keeps_previous_checkpoint_and_log() {
        let dir = TestDir::new("wal-crash-mid-ckpt");
        let fault = FaultPlane::from_spec(1, "wal.mid_checkpoint=once:9").unwrap();
        let mut w = Wal::open(dir.path()).unwrap().wal;
        w.append(&rec("a"), &fault, 1).unwrap();
        w.checkpoint(b"good", &fault, 2).unwrap();
        w.append(&rec("b"), &fault, 3).unwrap();
        assert!(w.checkpoint(b"doomed", &fault, 9).is_err());
        assert!(w.is_poisoned());
        drop(w);
        let o = Wal::open(dir.path()).unwrap();
        assert_eq!(o.tmp_removed, 1, "partial tmp segment swept");
        assert_eq!(o.checkpoint.unwrap().payload, b"good");
        assert_eq!(o.records.len(), 1, "post-checkpoint record survives");
        assert_eq!(o.records[0].0, 2);
    }

    #[test]
    fn crash_between_rename_and_truncate_skips_covered_records() {
        // Simulate: checkpoint segment landed, but the log truncate never
        // happened. Recovery must not replay records the checkpoint covers.
        let dir = TestDir::new("wal-ckpt-no-truncate");
        let mut w = Wal::open(dir.path()).unwrap().wal;
        w.append(&rec("a"), &none(), 1).unwrap();
        w.append(&rec("b"), &none(), 2).unwrap();
        // write the segment by hand, exactly as checkpoint() would
        let mut covered = Vec::new();
        covered.extend_from_slice(&2u64.to_le_bytes());
        covered.extend_from_slice(b"state");
        let mut seg = Vec::new();
        seg.extend_from_slice(CKPT_MAGIC);
        seg.extend_from_slice(&2u64.to_le_bytes());
        seg.extend_from_slice(&crate::codec::crc32(&covered).to_le_bytes());
        seg.extend_from_slice(&(5u64).to_le_bytes());
        seg.extend_from_slice(b"state");
        std::fs::write(dir.path().join(segment_name(2)), seg).unwrap();
        drop(w);
        let o = Wal::open(dir.path()).unwrap();
        assert_eq!(o.checkpoint.unwrap().lsn, 2);
        assert!(o.records.is_empty(), "covered records are skipped");
        assert_eq!(o.wal.next_lsn(), 3);
    }

    #[test]
    fn empty_and_magic_torn_logs_open_clean() {
        let dir = TestDir::new("wal-fresh");
        let o = Wal::open(dir.path()).unwrap();
        assert!(o.records.is_empty());
        assert_eq!(o.wal.next_lsn(), 1);
        drop(o);
        // cut the log inside the magic
        std::fs::write(dir.path().join(WAL_FILE), b"JIT").unwrap();
        let o = Wal::open(dir.path()).unwrap();
        assert_eq!(o.torn_bytes, 3);
        assert!(o.records.is_empty());
    }

    #[test]
    fn foreign_file_is_a_typed_error() {
        let dir = TestDir::new("wal-foreign");
        std::fs::write(dir.path().join(WAL_FILE), b"NOTAWAL!extra").unwrap();
        let err = Wal::open(dir.path()).unwrap_err();
        assert!(matches!(err, JitsError::Recovery(_)));
    }
}

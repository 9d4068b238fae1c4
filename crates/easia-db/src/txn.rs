//! The write-ahead log.
//!
//! SQL/MED's headline guarantee is *transaction consistency*: "changes
//! affecting both the database and external files are executed within a
//! transaction. This ensures consistency between a file and its metadata."
//! The engine therefore gives every statement (or explicit BEGIN..COMMIT
//! block) atomicity and durability:
//!
//! * DML is buffered per transaction as logical records; nothing reaches
//!   the WAL until COMMIT, so the on-disk log contains only committed
//!   work and recovery is a single forward replay (snapshot + log),
//! * every commit marker carries the transaction's commit sequence
//!   number (CSN), and transactions are written in CSN order — within a
//!   group-commit flush and across flushes — so replay reproduces the
//!   exact commit order the live run used,
//! * group commit: transactions committing inside an open commit window
//!   stage their records and are flushed together by one write + one
//!   `sync_data` (see `Database::commit_window`), instead of one fsync
//!   per committer,
//! * ROLLBACK undoes the transaction's version stamps and heap inserts,
//! * external-file actions (link/unlink) ride along via the
//!   [`crate::db::LinkObserver`] two-phase hooks, driven by the same
//!   commit/rollback decision.
//!
//! # On-disk format (v3, checksummed)
//!
//! A v3 log is the 8-byte magic `EAWAL3\0\0` followed by *batch frames*,
//! one per `sync_data` (one group-commit flush or one solo commit):
//!
//! ```text
//! [0xB5][len: u32 LE][hcrc: u32][pcrc: u32][payload: len bytes]
//! ```
//!
//! `hcrc` is the CRC32 of the 5 header bytes `[0xB5][len]`; `pcrc` is the
//! CRC32 of the payload. The payload is a sequence of *record frames*
//! `[rlen: u32][rcrc: u32][record bytes]`, each CRC-checked individually
//! (the unit the scrub pass verifies). The double checksum makes the
//! torn-write/bit-rot distinction exact: a torn write is a *prefix* of a
//! real frame, so a fully-present batch header is always intact — if the
//! header is present but its checksum fails, the bytes were *changed*,
//! not merely cut short. See [`Wal::parse`] for the classification rules
//! and DESIGN.md §12 for the model. A file that opens with anything but
//! the magic (or a torn prefix of it) is corruption at offset 0: no byte
//! is ever replayed without a checksum over it.
//!
//! A record is a tag byte and its fields: a DDL statement's text; an
//! insert's table and row; a delete's table and row; an update's table,
//! old row and new row; a commit's CSN. A row is its `encode_row`
//! record and a table its length-prefixed name. No record carries a row
//! id: replay finds the row a delete or an update names by its value.

use crate::crc::{crc32, crc32_update};
use crate::error::{DbError, Result};
use crate::mvcc::Csn;
use crate::storage::{put_str, Cursor};
use crate::value::{decode_row, encode_row, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// A logical redo record. Replay finds the row a `Delete` or an
/// `Update` names by its value (`apply_wal`), so no record carries a
/// row id.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Raw DDL statement text, re-executed on replay.
    Ddl(String),
    /// Row inserted.
    Insert {
        /// Target table.
        table: String,
        /// Row values.
        row: Vec<Value>,
    },
    /// Row deleted.
    Delete {
        /// Target table.
        table: String,
        /// The deleted row, which replay finds by value.
        row: Vec<Value>,
    },
    /// Row updated (old version delete-stamped, new version inserted).
    Update {
        /// Target table.
        table: String,
        /// Old values, which replay finds the row by.
        old: Vec<Value>,
        /// New values.
        new: Vec<Value>,
    },
    /// Transaction committed at `csn` (marks the end of a replayable
    /// unit and pins the global commit order for replay).
    Commit {
        /// Commit sequence number assigned at commit time.
        csn: Csn,
    },
}

const TAG_DDL: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_COMMIT: u8 = 5;

/// The log's file name in a database's directory.
pub(crate) const WAL_FILE: &str = "wal.log";
/// File magic opening every v3 (checksummed) log. A v2 log carried a
/// row id in each delete and update that nothing read; it is named and
/// refused as corruption at offset 0, never read.
pub const WAL_MAGIC: [u8; 8] = *b"EAWAL3\0\0";
/// First byte of every batch frame. Chosen so no single-bit flip of
/// the magic's first byte collides with it.
pub const BATCH_MAGIC: u8 = 0xB5;
/// Bytes in a batch frame header: magic, len, header CRC, payload CRC.
pub const BATCH_HEADER_LEN: usize = 13;

impl WalRecord {
    /// Append the binary form to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Ddl(sql) => {
                out.push(TAG_DDL);
                put_str(out, sql);
            }
            WalRecord::Insert { table, row } => {
                out.push(TAG_INSERT);
                put_str(out, table);
                encode_row(row, out);
            }
            WalRecord::Delete { table, row } => {
                out.push(TAG_DELETE);
                put_str(out, table);
                encode_row(row, out);
            }
            WalRecord::Update { table, old, new } => {
                out.push(TAG_UPDATE);
                put_str(out, table);
                encode_row(old, out);
                encode_row(new, out);
            }
            WalRecord::Commit { csn } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&csn.to_le_bytes());
            }
        }
    }

    /// Append the record frame (`[rlen][rcrc][bytes]`) to `out`: the
    /// unit transactions stage into a group-commit window buffer.
    pub fn encode_framed(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        self.encode(out);
        let body = &out[at + 8..];
        let (len, crc) = (body.len() as u32, crc32(body));
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Decode one record, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<WalRecord> {
        let mut c = Cursor::new("wal", buf, *pos);
        let row = |c: &mut Cursor| decode_row(c.buf, &mut c.pos);
        let rec = match c.take(1)?[0] {
            TAG_DDL => WalRecord::Ddl(c.str()?),
            TAG_INSERT => WalRecord::Insert {
                table: c.str()?,
                row: row(&mut c)?,
            },
            TAG_DELETE => WalRecord::Delete {
                table: c.str()?,
                row: row(&mut c)?,
            },
            TAG_UPDATE => WalRecord::Update {
                table: c.str()?,
                old: row(&mut c)?,
                new: row(&mut c)?,
            },
            TAG_COMMIT => WalRecord::Commit { csn: c.u64()? },
            t => return Err(c.error(&format!("bad tag {t}"))),
        };
        *pos = c.pos;
        Ok(rec)
    }
}

/// Where and why a WAL image is damaged (distinct from a clean torn
/// tail, which is silently and safely dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct WalCorruption {
    /// File offset of the damaged batch frame's first byte (0 when the
    /// file header itself is damaged).
    pub offset: u64,
    /// Highest commit CSN replayable from the clean prefix before the
    /// damage: nothing at or past `offset` is ever replayed.
    pub csn_horizon: Csn,
    /// Classification detail (bad magic, header CRC, payload CRC...).
    pub detail: String,
}

/// Outcome of parsing a WAL image: the replayable committed records of
/// the clean prefix, plus everything recovery needs to classify what it
/// found (batch/frame counts, torn bytes, corruption).
#[derive(Debug, Clone, PartialEq)]
pub struct WalParse {
    /// Committed records of the clean prefix, in CSN order, including
    /// the `Commit` markers.
    pub records: Vec<WalRecord>,
    /// Complete, checksum-verified batch frames.
    pub batches: usize,
    /// Record frames whose individual CRCs verified.
    pub frames: u64,
    /// Highest commit CSN in `records` (0 if none).
    pub last_csn: Csn,
    /// Bytes dropped as a clean torn tail (crash mid-`sync_data`).
    pub torn_bytes: u64,
    /// Mid-file damage, if any: `records` stops strictly before it.
    pub corruption: Option<WalCorruption>,
}

/// The write-ahead log file (or an in-memory stand-in).
///
/// Both variants count *sync points* — the `sync_data` calls a
/// file-backed log issues, or would issue for the in-memory stand-in —
/// so group-commit batching is observable (and testable) regardless of
/// backing. One `append_*` call = one sync, however many transactions
/// it carries.
#[derive(Debug)]
pub enum Wal {
    /// No durability: records are discarded (pure in-memory database).
    Memory {
        /// Simulated `sync_data` calls (one per append).
        syncs: u64,
    },
    /// File-backed log.
    File {
        /// Log file path.
        path: PathBuf,
        /// Open handle in append mode.
        file: File,
        /// `sync_data` calls issued.
        syncs: u64,
    },
}

impl Wal {
    /// An in-memory no-durability log.
    pub fn memory() -> Wal {
        Wal::Memory { syncs: 0 }
    }

    /// Open (creating if needed) the WAL at `path`. A fresh (empty) file
    /// gets the magic; an existing file is appended to as-is.
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| DbError::Storage(format!("open wal {path:?}: {e}")))?;
        let mut wal = Wal::File {
            path: path.to_path_buf(),
            file,
            syncs: 0,
        };
        if let Wal::File { file, path, .. } = &mut wal {
            let len = file
                .metadata()
                .map_err(|e| DbError::Storage(format!("stat wal {path:?}: {e}")))?
                .len();
            if len == 0 {
                file.write_all(&WAL_MAGIC)
                    .and_then(|()| file.sync_data())
                    .map_err(|e| DbError::Storage(format!("init wal {path:?}: {e}")))?;
            }
        }
        Ok(wal)
    }

    /// Total sync points issued since this handle was opened.
    pub fn syncs(&self) -> u64 {
        match self {
            Wal::Memory { syncs } | Wal::File { syncs, .. } => *syncs,
        }
    }

    /// One write + one `sync_data` for `buf` (the group-commit unit).
    /// `buf` must already be a sealed batch frame — see [`seal_batch`].
    pub fn append_raw(&mut self, buf: &[u8]) -> Result<()> {
        match self {
            Wal::Memory { syncs } => {
                *syncs += 1;
                Ok(())
            }
            Wal::File { file, path, syncs } => {
                *syncs += 1;
                file.write_all(buf)
                    .and_then(|()| file.sync_data())
                    .map_err(|e| DbError::Storage(format!("append wal {path:?}: {e}")))
            }
        }
    }

    /// Append one committed transaction (records + `Commit { csn }`
    /// marker) as a single batch frame and flush: the solo-commit path,
    /// costing one sync. The payload is never held whole: one pass frames
    /// the records for the header's length and CRC, a second writes them
    /// behind it (DESIGN.md §12, "Writing a commit").
    pub fn append_committed(&mut self, records: &[WalRecord], csn: Csn) -> Result<()> {
        let Wal::File { file, path, syncs } = self else {
            return self.append_raw(&[]); // in memory, only the sync counts
        };
        let commit = WalRecord::Commit { csn };
        let frames = || records.iter().chain([&commit]);
        let (mut frame, mut len, mut crc) = (Vec::new(), 0, 0);
        for r in frames() {
            frame.clear();
            r.encode_framed(&mut frame);
            (len, crc) = (len + frame.len(), crc32_update(crc, &frame));
        }
        *syncs += 1;
        let mut out = BufWriter::new(&*file);
        let written = out.write_all(&batch_header(len, crc)).and_then(|()| {
            for r in frames() {
                frame.clear();
                r.encode_framed(&mut frame);
                out.write_all(&frame)?;
            }
            out.flush()
        });
        written
            .and_then(|()| file.sync_data())
            .map_err(|e| DbError::Storage(format!("append wal {path:?}: {e}")))
    }

    /// Classify a WAL image and extract the clean committed prefix.
    ///
    /// Never panics, never returns a record at or past damage. The
    /// torn-tail/corruption distinction:
    ///
    /// * file shorter than the magic, but a prefix of it → torn header,
    ///   empty log; any other opening bytes → corruption at offset 0;
    /// * trailing bytes shorter than a batch header, starting with the
    ///   batch magic → torn tail (the header was cut mid-write);
    /// * complete, CRC-valid batch header whose payload runs past EOF →
    ///   torn tail (the header proves the intended length; the payload
    ///   simply never hit the disk);
    /// * anything else — bad batch magic, header CRC mismatch, payload
    ///   CRC mismatch, malformed record frame inside a CRC-valid
    ///   payload — is corruption: bytes were changed, not cut short.
    ///
    /// A torn tail drops the *whole* incomplete batch (group commit is
    /// only acknowledged after its single `sync_data`, so no transaction
    /// in a torn batch was ever reported durable).
    pub fn parse(buf: &[u8]) -> WalParse {
        let mut out = WalParse {
            records: Vec::new(),
            batches: 0,
            frames: 0,
            last_csn: 0,
            torn_bytes: 0,
            corruption: None,
        };
        if buf.len() < WAL_MAGIC.len() && WAL_MAGIC.starts_with(buf) {
            // Empty, or a crash while writing the magic of a fresh log:
            // nothing was ever committed.
            out.torn_bytes = buf.len() as u64;
        } else if buf.starts_with(&WAL_MAGIC) {
            Self::parse_frames(buf, &mut out);
        } else {
            // A log of another format (`EAWAL` and another digit) is
            // named, not read: its records are laid out otherwise.
            let other = buf.len() >= WAL_MAGIC.len()
                && buf[..5] == WAL_MAGIC[..5]
                && buf[5].is_ascii_digit()
                && buf[6..8] == WAL_MAGIC[6..];
            let detail = match other {
                true => format!(
                    "wal format {}, and this build reads {} only",
                    String::from_utf8_lossy(&buf[..6]),
                    String::from_utf8_lossy(&WAL_MAGIC[..6])
                ),
                false => "unrecognised wal header".into(),
            };
            out.corruption = Some(WalCorruption {
                offset: 0,
                csn_horizon: 0,
                detail,
            });
        }
        out
    }

    /// Batch-frame walk over an image that opens with the magic.
    fn parse_frames(buf: &[u8], out: &mut WalParse) {
        let mut pos = WAL_MAGIC.len();
        let mut pending: Vec<WalRecord> = Vec::new();
        let corrupt = |out: &mut WalParse, offset: usize, detail: String| {
            out.corruption = Some(WalCorruption {
                offset: offset as u64,
                csn_horizon: out.last_csn,
                detail,
            });
        };
        while pos < buf.len() {
            let (payload, len) = match frame_at(buf, pos) {
                Frame::Whole(payload) => (payload, payload.len()),
                Frame::Torn => {
                    // Every byte present is a genuine prefix of the frame
                    // the writer was appending.
                    out.torn_bytes = (buf.len() - pos) as u64;
                    return;
                }
                Frame::Damaged(detail) => {
                    corrupt(out, pos, detail);
                    return;
                }
            };
            // The batch is checksum-verified; walk its record frames.
            let mut c = Cursor::new("wal", payload, 0);
            let mut recs = Vec::new();
            while c.pos < payload.len() {
                let Some(rec) = record_frame(&mut c) else {
                    // The payload CRC passed but a record frame inside it
                    // is malformed: still damage, never a torn tail (torn
                    // writes cannot produce a CRC-valid payload).
                    corrupt(out, pos, "malformed record frame in batch".into());
                    return;
                };
                recs.push(rec);
            }
            out.frames += recs.len() as u64;
            for r in recs {
                if let WalRecord::Commit { csn } = r {
                    out.records.append(&mut pending);
                    out.last_csn = csn;
                    out.records.push(r);
                } else {
                    pending.push(r);
                }
            }
            out.batches += 1;
            pos += BATCH_HEADER_LEN + len;
        }
        // Records staged without a commit marker (writer crash between
        // frames of a multi-batch transaction) are not replayable.
    }

    /// Read and classify the log at `path`. IO failures (other than the
    /// file not existing, which yields an empty parse) are errors;
    /// corruption is *data*, reported inside the [`WalParse`].
    pub fn read_with_info(path: &Path) -> Result<WalParse> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)
                    .map_err(|e| DbError::Storage(format!("read wal {path:?}: {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Wal::parse(&[])),
            Err(e) => return Err(DbError::Storage(format!("read wal {path:?}: {e}"))),
        }
        Ok(Wal::parse(&buf))
    }

    /// Read every complete committed transaction from the log at `path`,
    /// including the `Commit` markers (so recovery can track the CSN it
    /// replayed to). A trailing torn batch — crash mid-`sync_data` — is
    /// dropped whole; mid-file damage is a typed [`DbError::WalCorrupt`]
    /// naming the offset and the CSN horizon of the clean prefix.
    pub fn read_committed(path: &Path) -> Result<Vec<WalRecord>> {
        let parse = Self::read_with_info(path)?;
        if let Some(c) = parse.corruption {
            return Err(DbError::WalCorrupt {
                offset: c.offset,
                csn_horizon: c.csn_horizon,
                detail: c.detail,
            });
        }
        Ok(parse.records)
    }

    /// Truncate the log (after a checkpoint) and re-stamp the magic.
    pub fn truncate(&mut self) -> Result<()> {
        match self {
            Wal::Memory { .. } => Ok(()),
            Wal::File { path, file, .. } => {
                *file = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&*path)
                    .map_err(|e| DbError::Storage(format!("truncate wal {path:?}: {e}")))?;
                file.write_all(&WAL_MAGIC)
                    .and_then(|()| file.sync_data())
                    .map_err(|e| DbError::Storage(format!("init wal {path:?}: {e}")))?;
                Ok(())
            }
        }
    }
}

/// The record frame at `c`, `[rlen][rcrc][record bytes]`: its record,
/// if its CRC verifies and the record decodes to its last byte.
fn record_frame(c: &mut Cursor) -> Option<WalRecord> {
    let (len, crc) = (c.u32().ok()?, c.u32().ok()?);
    let body = c.take(len).ok()?;
    if crc32(body) as usize != crc {
        return None;
    }
    let mut pos = 0;
    let rec = WalRecord::decode(body, &mut pos).ok()?;
    (pos == body.len()).then_some(rec)
}

/// Wrap `payload` (a run of record frames) in a checksummed batch frame.
pub fn seal_batch(payload: &[u8]) -> Vec<u8> {
    [&batch_header(payload.len(), crc32(payload))[..], payload].concat()
}

/// What the bytes at `pos` of a run of batch frames hold. The log and
/// the checkpoint file both sort their frames by this one classifier.
pub(crate) enum Frame<'a> {
    /// A whole frame whose two checksums verify: its payload.
    Whole(&'a [u8]),
    /// A prefix of a frame ends the input: a crash cut the write short.
    Torn,
    /// Bytes were changed, not cut short: what failed to verify.
    Damaged(String),
}

/// Classify the frame at `pos` (under `buf.len()`):
///
/// * fewer bytes than a header, opening with the batch magic → torn;
/// * a complete, CRC-valid header whose payload runs past the end →
///   torn (the header proves the intended length);
/// * a bad magic, a header CRC or a payload CRC mismatch → damaged.
pub(crate) fn frame_at(buf: &[u8], pos: usize) -> Frame<'_> {
    let rest = &buf[pos..];
    if rest[0] != BATCH_MAGIC {
        return Frame::Damaged(format!("bad batch magic 0x{:02x}", rest[0]));
    }
    let Some(header) = rest.get(..BATCH_HEADER_LEN) else {
        return Frame::Torn;
    };
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    if crc32(&header[..5]) != u32_at(5) {
        return Frame::Damaged("batch header checksum mismatch".into());
    }
    let Some(payload) = rest[BATCH_HEADER_LEN..].get(..u32_at(1) as usize) else {
        return Frame::Torn;
    };
    match crc32(payload) == u32_at(9) {
        true => Frame::Whole(payload),
        false => Frame::Damaged("batch payload checksum mismatch".into()),
    }
}

/// The header of a batch frame over `len` payload bytes with CRC `pcrc`.
pub(crate) fn batch_header(len: usize, pcrc: u32) -> [u8; BATCH_HEADER_LEN] {
    let mut h = [BATCH_MAGIC; BATCH_HEADER_LEN];
    h[1..5].copy_from_slice(&(len as u32).to_le_bytes());
    let hcrc = crc32(&h[..5]);
    h[5..9].copy_from_slice(&hcrc.to_le_bytes());
    h[9..].copy_from_slice(&pcrc.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Ddl("CREATE TABLE T (A INTEGER)".into()),
            WalRecord::Insert {
                table: "T".into(),
                row: vec![Value::Int(1), Value::Str("x".into())],
            },
            WalRecord::Delete {
                table: "T".into(),
                row: vec![Value::Int(1)],
            },
            WalRecord::Update {
                table: "T".into(),
                old: vec![Value::Int(1)],
                new: vec![Value::Int(2)],
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("easia-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_codec_round_trip() {
        let mut all = sample_records();
        all.push(WalRecord::Commit { csn: 99 });
        for r in all {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(WalRecord::decode(&buf, &mut pos).unwrap(), r);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn file_wal_round_trip() {
        let path = temp_path("wal-round-trip.log");
        let mut wal = Wal::open(&path).unwrap();
        let recs = sample_records();
        wal.append_committed(&recs[..2], 1).unwrap();
        wal.append_committed(&recs[2..], 2).unwrap();
        assert_eq!(wal.syncs(), 2);
        let got = Wal::read_committed(&path).unwrap();
        let mut want = recs[..2].to_vec();
        want.push(WalRecord::Commit { csn: 1 });
        want.extend(recs[2..].to_vec());
        want.push(WalRecord::Commit { csn: 2 });
        assert_eq!(got, want);
        let info = Wal::read_with_info(&path).unwrap();
        assert_eq!(info.batches, 2);
        assert_eq!(info.frames, 6);
        assert_eq!(info.last_csn, 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// A solo commit streams its frames, through several buffer flushes
    /// for a large one, and writes exactly the batch sealing the whole
    /// payload would: the reference frames each encoded record by hand.
    #[test]
    fn a_streamed_commit_is_the_sealed_batch() {
        let path = temp_path("wal-streamed.log");
        let mut wal = Wal::open(&path).unwrap();
        let big: Vec<WalRecord> = (0..3_000)
            .map(|i| WalRecord::Insert {
                table: "RESULT_FILE".into(),
                row: vec![Value::Int(i), Value::Str(format!("t{i:05}.edf"))],
            })
            .collect();
        let small = sample_records();
        wal.append_committed(&big, 1).unwrap();
        wal.append_committed(&small, 2).unwrap();
        assert_eq!(wal.syncs(), 2);

        let mut want = WAL_MAGIC.to_vec();
        for (recs, csn) in [(&big, 1), (&small, 2)] {
            let mut payload = Vec::new();
            for r in recs.iter().chain([&WalRecord::Commit { csn }]) {
                let mut body = Vec::new();
                r.encode(&mut body);
                payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
                payload.extend_from_slice(&crc32(&body).to_le_bytes());
                payload.extend_from_slice(&body);
            }
            assert_eq!(
                csn == 1,
                payload.len() > 16 << 10,
                "larger than a write buffer"
            );
            want.extend_from_slice(&seal_batch(&payload));
        }
        assert!(
            std::fs::read(&path).unwrap() == want,
            "streamed bytes differ"
        );
        let info = Wal::read_with_info(&path).unwrap();
        assert_eq!((info.batches, info.last_csn), (2, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_drops_whole_batch() {
        let path = temp_path("wal-torn.log");
        let mut wal = Wal::open(&path).unwrap();
        let recs = sample_records();
        wal.append_committed(&recs[..2], 1).unwrap();
        // Simulate a crash mid-append: seal a full second batch, then
        // cut the write short at every possible point. The whole torn
        // batch must be dropped, never an error, never a partial replay.
        let mut payload = Vec::new();
        recs[2].encode_framed(&mut payload);
        WalRecord::Commit { csn: 2 }.encode_framed(&mut payload);
        let sealed = seal_batch(&payload);
        let base = std::fs::read(&path).unwrap();
        let mut want = recs[..2].to_vec();
        want.push(WalRecord::Commit { csn: 1 });
        for cut in 0..sealed.len() {
            let mut img = base.clone();
            img.extend_from_slice(&sealed[..cut]);
            let parse = Wal::parse(&img);
            assert!(parse.corruption.is_none(), "cut at {cut} misclassified");
            assert_eq!(parse.records, want, "cut at {cut}");
            assert_eq!(parse.torn_bytes, cut as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_transactions_not_replayed() {
        // A complete batch whose records carry no Commit marker is
        // verified but not replayed.
        let path = temp_path("wal-uncommitted.log");
        let recs = sample_records();
        let mut img = WAL_MAGIC.to_vec();
        let mut p1 = Vec::new();
        recs[0].encode_framed(&mut p1);
        WalRecord::Commit { csn: 1 }.encode_framed(&mut p1);
        img.extend_from_slice(&seal_batch(&p1));
        let mut p2 = Vec::new();
        recs[1].encode_framed(&mut p2); // no commit marker
        img.extend_from_slice(&seal_batch(&p2));
        std::fs::write(&path, &img).unwrap();
        let got = Wal::read_committed(&path).unwrap();
        assert_eq!(got, vec![recs[0].clone(), WalRecord::Commit { csn: 1 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_flush_is_one_sync_in_csn_order() {
        let path = temp_path("wal-group.log");
        let mut wal = Wal::open(&path).unwrap();
        let recs = sample_records();
        // Three committers staged into one buffer, flushed together.
        let mut buf = Vec::new();
        for (i, r) in recs[1..4].iter().enumerate() {
            r.encode_framed(&mut buf);
            WalRecord::Commit {
                csn: (i + 1) as u64,
            }
            .encode_framed(&mut buf);
        }
        wal.append_raw(&seal_batch(&buf)).unwrap();
        assert_eq!(wal.syncs(), 1, "one flush for three committers");
        let got = Wal::read_committed(&path).unwrap();
        let csns: Vec<u64> = got
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { csn } => Some(*csn),
                _ => None,
            })
            .collect();
        assert_eq!(csns, vec![1, 2, 3], "replay sees commits in CSN order");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_log() {
        let path = temp_path("wal-truncate.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_committed(&sample_records(), 1).unwrap();
        wal.truncate().unwrap();
        assert_eq!(Wal::read_committed(&path).unwrap(), vec![]);
        // Still usable after truncation.
        wal.append_committed(&sample_records()[..1], 2).unwrap();
        assert_eq!(Wal::read_committed(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = std::env::temp_dir().join("easia-wal-definitely-missing.log");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Wal::read_committed(&path).unwrap(), vec![]);
    }

    /// A log of the format before this one — its deletes and updates
    /// carried row ids — is corruption at offset 0 that names the
    /// format, not bytes read by this build's record layout; a magic
    /// rotted elsewhere stays "unrecognised".
    #[test]
    fn a_log_of_another_format_is_named_not_read() {
        let mut img = WAL_MAGIC.to_vec();
        img.extend_from_slice(&seal_batch(&[]));
        img[5] = b'2';
        let parse = Wal::parse(&img);
        let c = parse.corruption.expect("refused");
        assert_eq!((c.offset, parse.records.len()), (0, 0));
        assert_eq!(
            c.detail,
            "wal format EAWAL2, and this build reads EAWAL3 only"
        );
        img[5] = b'3';
        img[7] = b'x';
        let c = Wal::parse(&img).corruption.expect("refused");
        assert_eq!(
            (c.offset, c.detail.as_str()),
            (0, "unrecognised wal header")
        );
    }

    #[test]
    fn memory_wal_counts_syncs() {
        let mut wal = Wal::memory();
        wal.append_committed(&sample_records(), 1).unwrap();
        wal.append_committed(&sample_records(), 2).unwrap();
        assert_eq!(wal.syncs(), 2);
        wal.truncate().unwrap();
    }

    #[test]
    fn mid_file_corruption_is_typed_not_swallowed() {
        // Regression: damage in batch 2 of 3 must surface as WalCorrupt
        // at batch 2's offset — not be silently treated as a torn tail
        // that also discards the valid batch 3 behind it.
        let path = temp_path("wal-midfile.log");
        let mut wal = Wal::open(&path).unwrap();
        let recs = sample_records();
        wal.append_committed(&recs[..2], 1).unwrap();
        let b2_offset = std::fs::metadata(&path).unwrap().len();
        wal.append_committed(&recs[2..3], 2).unwrap();
        wal.append_committed(&recs[3..], 3).unwrap();
        let mut img = std::fs::read(&path).unwrap();
        // Flip one bit inside batch 2's payload.
        let flip = b2_offset as usize + BATCH_HEADER_LEN + 2;
        img[flip] ^= 0x10;
        std::fs::write(&path, &img).unwrap();
        let err = Wal::read_committed(&path).unwrap_err();
        match err {
            DbError::WalCorrupt {
                offset,
                csn_horizon,
                ..
            } => {
                assert_eq!(offset, b2_offset, "damage attributed to batch 2");
                assert_eq!(csn_horizon, 1, "clean prefix ends at csn 1");
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        // The parse still exposes the clean prefix for salvage.
        let parse = Wal::read_with_info(&path).unwrap();
        assert_eq!(parse.records.len(), 3);
        assert_eq!(parse.last_csn, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_single_bit_flip_in_a_complete_log_is_detected() {
        // Exhaustive: a complete image with 3 batches; flipping any
        // single bit anywhere must be classified as corruption (a
        // complete file has no torn tail to hide behind) and must never
        // panic or replay records past the damage.
        let recs = sample_records();
        let mut img = WAL_MAGIC.to_vec();
        for (i, r) in recs.iter().enumerate().take(3) {
            let mut p = Vec::new();
            r.encode_framed(&mut p);
            WalRecord::Commit {
                csn: (i + 1) as u64,
            }
            .encode_framed(&mut p);
            img.extend_from_slice(&seal_batch(&p));
        }
        let clean = Wal::parse(&img);
        assert!(clean.corruption.is_none());
        assert_eq!(clean.batches, 3);
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut flipped = img.clone();
                flipped[byte] ^= 1 << bit;
                let parse = Wal::parse(&flipped);
                let c = parse
                    .corruption
                    .unwrap_or_else(|| panic!("flip at {byte}:{bit} undetected"));
                assert!(
                    c.offset as usize <= byte,
                    "flip at {byte}:{bit}: offset {} past damage",
                    c.offset
                );
                assert!(parse.records.len() <= clean.records.len());
            }
        }
    }
}

//! Checksum scrub: proactive verification of everything behind the
//! commit horizon.
//!
//! Archive-scale stores treat silent on-disk corruption as a
//! when-not-if event; waiting for recovery to trip over a rotted byte
//! means discovering the damage at the worst possible moment. The scrub
//! pass re-reads the durable artifacts — the checkpoint file and the
//! write-ahead log — and verifies every checksum the formats carry:
//! the header and payload CRCs of the checkpoint's base and of each
//! frame appended after it, each WAL batch frame's header and payload
//! CRCs, and each record frame inside. Only complete frames are
//! checked: they are exactly the bytes behind the commit horizon (a
//! torn tail, by construction, was never acknowledged).
//!
//! Drive it with [`crate::Database::scrub`], which also feeds the
//! `easia_db_scrub_frames_verified_total` / `easia_db_scrub_errors_total`
//! metric families. See DESIGN.md §12.

use crate::error::{DbError, Result};
use crate::storage::snapshot;
use crate::txn::{Wal, WAL_FILE};
use std::path::Path;

/// One checksum failure found by the scrub pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubError {
    /// Which durable artifact (`snapshot.db` or `wal.log`).
    pub file: String,
    /// Byte offset of the damaged frame (0 for a damaged file header).
    pub offset: u64,
    /// What failed to verify.
    pub detail: String,
}

/// Outcome of one scrub pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// A snapshot file exists.
    pub snapshot_present: bool,
    /// The snapshot's base and every whole frame after it verified
    /// (false when absent or damaged — damaged additionally reports an
    /// error).
    pub snapshot_verified: bool,
    /// Whole snapshot frames, the base first, whose checksums verified.
    pub snapshot_frames_verified: usize,
    /// Complete WAL batch frames whose checksums verified.
    pub wal_batches_verified: usize,
    /// WAL record frames whose individual CRCs verified.
    pub wal_frames_verified: u64,
    /// Every checksum failure found (empty = all clean).
    pub errors: Vec<ScrubError>,
}

/// Scrub the durable artifacts in `dir`. IO failures are errors;
/// checksum failures are *findings*, reported inside the [`ScrubReport`].
pub(crate) fn scrub_dir(dir: &Path) -> Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let snap = dir.join(snapshot::FILE);
    if snap.exists() {
        report.snapshot_present = true;
        let bytes =
            std::fs::read(&snap).map_err(|e| DbError::Storage(format!("scrub snapshot: {e}")))?;
        scrub_snapshot(&bytes, &mut report);
    }
    let wal = dir.join(WAL_FILE);
    if wal.exists() {
        let bytes = std::fs::read(&wal).map_err(|e| DbError::Storage(format!("scrub wal: {e}")))?;
        scrub_wal(&bytes, &mut report);
    }
    Ok(report)
}

/// Verify a checkpoint file in memory by the frame walk `open` makes:
/// the base and every whole frame must verify, a finding names the
/// damaged frame's offset, and a torn last frame is not a finding.
fn scrub_snapshot(bytes: &[u8], report: &mut ScrubReport) {
    let (frames, _, damage) = snapshot::frames(bytes);
    report.snapshot_frames_verified = frames.len();
    match damage {
        None => report.snapshot_verified = true,
        Some((offset, detail)) => report.errors.push(ScrubError {
            file: snapshot::FILE.into(),
            offset: offset as u64,
            detail,
        }),
    }
}

/// Verify a WAL image in memory via the same classifier recovery uses:
/// every complete batch (header CRC, payload CRC, per-record CRCs) is
/// behind the commit horizon and must verify; a clean torn tail is not
/// a finding.
fn scrub_wal(bytes: &[u8], report: &mut ScrubReport) {
    let parse = Wal::parse(bytes);
    report.wal_batches_verified = parse.batches;
    report.wal_frames_verified = parse.frames;
    if let Some(c) = parse.corruption {
        report.errors.push(ScrubError {
            file: WAL_FILE.into(),
            offset: c.offset,
            detail: c.detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{seal_batch, WalRecord, WAL_MAGIC_V2};
    use crate::value::Value;

    fn wal_image() -> Vec<u8> {
        let mut img = WAL_MAGIC_V2.to_vec();
        for csn in 1..=3u64 {
            let mut p = Vec::new();
            WalRecord::Insert {
                table: "T".into(),
                row: vec![Value::Int(csn as i64)],
            }
            .encode_framed(&mut p);
            WalRecord::Commit { csn }.encode_framed(&mut p);
            img.extend_from_slice(&seal_batch(&p));
        }
        img
    }

    #[test]
    fn clean_wal_scrubs_clean() {
        let mut report = ScrubReport::default();
        scrub_wal(&wal_image(), &mut report);
        assert_eq!(report.wal_batches_verified, 3);
        assert_eq!(report.wal_frames_verified, 6);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn rotted_wal_is_a_finding() {
        let mut img = wal_image();
        let mid = img.len() / 2;
        img[mid] ^= 0x01;
        let mut report = ScrubReport::default();
        scrub_wal(&img, &mut report);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].file, "wal.log");
        assert!(report.errors[0].offset <= mid as u64);
    }

    #[test]
    fn torn_tail_is_not_a_finding() {
        let mut img = wal_image();
        img.truncate(img.len() - 7);
        let mut report = ScrubReport::default();
        scrub_wal(&img, &mut report);
        assert_eq!(report.wal_batches_verified, 2);
        assert!(report.errors.is_empty());
    }

    /// A checkpoint file of a base and two frames, sealed as the writer
    /// seals them.
    fn snapshot_image() -> (Vec<u8>, Vec<usize>) {
        let mut img = snapshot::MAGIC.to_vec();
        let mut starts = Vec::new();
        for body in [
            &b"a base, crc'd all the same"[..],
            b"frame one",
            b"frame two",
        ] {
            starts.push(img.len());
            img.extend_from_slice(&seal_batch(body));
        }
        (img, starts)
    }

    #[test]
    fn snapshot_crc_checked() {
        let (img, starts) = snapshot_image();
        let mut report = ScrubReport::default();
        scrub_snapshot(&img, &mut report);
        assert!(report.snapshot_verified);
        assert_eq!(report.snapshot_frames_verified, 3);
        assert!(report.errors.is_empty());
        // Rot in the base, or in a frame, is a finding at that frame.
        for (i, &at) in starts.iter().enumerate() {
            let mut rotted = img.clone();
            rotted[at + 20] ^= 0x80;
            let mut report = ScrubReport::default();
            scrub_snapshot(&rotted, &mut report);
            assert!(!report.snapshot_verified);
            assert_eq!(report.snapshot_frames_verified, i);
            assert_eq!(report.errors.len(), 1);
            assert_eq!(report.errors[0].offset, at as u64);
        }
        // A torn last frame is not.
        let mut report = ScrubReport::default();
        scrub_snapshot(&img[..img.len() - 3], &mut report);
        assert!(report.snapshot_verified && report.errors.is_empty());
        assert_eq!(report.snapshot_frames_verified, 2);
    }
}

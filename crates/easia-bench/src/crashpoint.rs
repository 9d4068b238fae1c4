//! The crash-point torture harness behind `exp_e16_crashpoint`.
//!
//! The hub database plus a DLFM-controlled file server run a fixed
//! link-ingest workload; then the WAL is attacked three ways and every
//! outcome is checked against a serial oracle:
//!
//! 1. **Exhaustive crash points** — the workload is re-run fresh and its
//!    log truncated at *every* byte offset. Each prefix must classify
//!    as a clean torn tail (never corruption), replay exactly the
//!    batches wholly on disk, and `reconcile()` must return the file
//!    server to full agreement with the salvaged catalog.
//! 2. **Bit rot** — every single-bit flip of the complete image must be
//!    detected by `Wal::parse` (in memory, exhaustively), and a seeded
//!    sample of flips runs the full on-disk pipeline: strict open
//!    refuses with `WalCorrupt`, `open_recovering` salvages the clean
//!    committed prefix, quarantines the log, and reconcile releases
//!    every link past the corruption horizon.
//! 3. **Scrub** — the background verifier walks a healthy store without
//!    findings, then pinpoints an injected flip behind the commit
//!    horizon, with `easia_db_scrub_*` metrics to match.
//!
//! Same seed, bit-for-bit same transcript digest.

use crate::rig::Transcript;
use easia_crypto::TokenIssuer;
use easia_datalink::{ArchiveClock, DataLinkManager};
use easia_db::txn::Wal;
use easia_db::{Database, DbError, DiskFault, DiskFaultInjector};
use easia_fs::{FileContent, FileServer};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;

/// Parameters of one torture run.
#[derive(Debug, Clone)]
pub struct CrashpointConfig {
    /// Seed for the rot sample draws (the workload itself is fixed).
    pub seed: u64,
    /// Committed link batches after the DDL batch.
    pub link_batches: usize,
    /// Seeded on-disk rot runs through the full recovery pipeline.
    pub rot_samples: usize,
}

impl CrashpointConfig {
    /// The default scenario: 4 group-committed links, 24 rot samples.
    pub fn standard(seed: u64) -> Self {
        CrashpointConfig {
            seed,
            link_batches: 4,
            rot_samples: 24,
        }
    }
}

/// Everything a torture run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct CrashpointResult {
    /// Bytes in the clean WAL image (crash points = this + 1).
    pub wal_bytes: usize,
    /// Prefix lengths exercised (every byte offset, 0..=wal_bytes).
    pub crash_points: usize,
    /// Crash points classified as clean torn tails (must equal
    /// `crash_points`: truncation is never corruption).
    pub torn_classified: usize,
    /// Crash points whose replayed rows differed from the serial
    /// oracle's committed-batch prefix (must be 0).
    pub replay_mismatches: usize,
    /// Crash points where reconcile failed to reach agreement (must
    /// be 0).
    pub reconcile_failures: usize,
    /// Single-bit flips checked in memory (wal_bytes * 8).
    pub flips_checked: usize,
    /// Flips `Wal::parse` reported as corruption (must equal
    /// `flips_checked`).
    pub flips_detected: usize,
    /// Seeded on-disk rot runs through open/quarantine/reconcile.
    pub rot_runs: usize,
    /// Rot runs that salvaged the exact pre-damage prefix and
    /// reconciled to agreement (must equal `rot_runs`).
    pub rot_salvaged: usize,
    /// Record frames verified by the clean scrub pass.
    pub scrub_frames: u64,
    /// Findings on the healthy store (must be 0).
    pub scrub_errors_clean: u64,
    /// Findings after the injected flip (must be 1).
    pub scrub_errors_after_rot: u64,
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript.
    pub digest: String,
}

/// A fresh DLFM + file server holding the workload's source files.
fn fresh_env(cfg: &CrashpointConfig) -> (Rc<DataLinkManager>, Rc<RefCell<FileServer>>) {
    let issuer = TokenIssuer::new(b"e16-secret", 600);
    let mgr = DataLinkManager::new(issuer.clone(), ArchiveClock::new());
    let fs1 = Rc::new(RefCell::new(FileServer::new("fs1", issuer)));
    for i in 0..cfg.link_batches {
        fs1.borrow_mut().ingest(
            &format!("/data/t{i}.edf"),
            FileContent::Bytes(format!("E16 DATA {i}").into_bytes()),
        );
    }
    mgr.register_server(fs1.clone());
    (mgr, fs1)
}

const DDL: &str = "CREATE TABLE result_file (
    file_name VARCHAR(100) PRIMARY KEY,
    download_result DATALINK LINKTYPE URL FILE LINK CONTROL
        INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
        RECOVERY YES ON UNLINK RESTORE
)";

/// Run the fixed workload into `dir`: the DDL batch, then one
/// group-commit batch per link. The DLFM observes every commit, so the
/// file server ends up holding all `link_batches` links.
fn run_workload(dir: &Path, mgr: &Rc<DataLinkManager>, cfg: &CrashpointConfig) {
    let mut db = Database::open(dir).expect("workload open");
    db.add_observer(mgr.clone());
    db.execute(DDL).expect("workload ddl");
    for i in 0..cfg.link_batches {
        let t = db.begin_txn();
        db.txn_execute(
            t,
            &format!("INSERT INTO result_file VALUES ('t{i}.edf', 'http://fs1/data/t{i}.edf')"),
            &[],
        )
        .expect("workload insert");
        db.begin_commit_window();
        db.commit_txn(t).expect("workload commit");
        db.end_commit_window().expect("workload flush");
    }
}

/// Rows currently in the catalog, or None if the table itself is gone.
fn catalog_rows(db: &mut Database) -> Option<Vec<String>> {
    let rs = db
        .execute("SELECT file_name FROM result_file ORDER BY file_name")
        .ok()?;
    Some(
        rs.rows
            .iter()
            .map(|r| match &r[0] {
                easia_db::Value::Str(s) => s.clone(),
                other => panic!("unexpected catalog value {other:?}"),
            })
            .collect(),
    )
}

/// The serial oracle for `complete` wholly-durable batches: batch 0 is
/// the DDL, batches 1..=k are the links in order.
fn oracle_rows(complete: usize) -> Option<Vec<String>> {
    if complete == 0 {
        return None; // not even the DDL survived
    }
    Some((0..complete - 1).map(|i| format!("t{i}.edf")).collect())
}

/// Reconcile until agreement (one pass releases orphans, the second
/// verifies); returns false if two passes were not enough.
fn reconcile_to_agreement(mgr: &DataLinkManager, db: &mut Database) -> (usize, bool) {
    let first = mgr.reconcile(db);
    let released = first.orphans_unlinked.len();
    if first.in_agreement() {
        return (released, true);
    }
    let second = mgr.reconcile(db);
    (released, second.in_agreement() && second.actions() == 0)
}

/// Run the full torture suite for `cfg`.
pub fn run_crashpoint(cfg: &CrashpointConfig) -> CrashpointResult {
    let mut log = Transcript::default();
    let _ = writeln!(
        log,
        "crashpoint seed={} link_batches={} rot_samples={}",
        cfg.seed, cfg.link_batches, cfg.rot_samples
    );

    let scratch = std::env::temp_dir().join(format!("easia-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut dir_seq = 0usize;
    let mut next_dir = || {
        dir_seq += 1;
        scratch.join(format!("run-{dir_seq}"))
    };

    // Reference run: capture the clean image and its batch geometry.
    let (mgr, _fs) = fresh_env(cfg);
    let ref_dir = next_dir();
    run_workload(&ref_dir, &mgr, cfg);
    let img = std::fs::read(ref_dir.join("wal.log")).expect("clean image");
    let parse = Wal::parse(&img);
    assert!(parse.corruption.is_none(), "reference image is clean");
    assert_eq!(parse.batches, cfg.link_batches + 1, "ddl + links");
    let mut batch_ends = Vec::new();
    let mut pos = 8usize; // past the file magic
    for _ in 0..parse.batches {
        let len = u32::from_le_bytes(img[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 13 + len;
        batch_ends.push(pos);
    }
    assert_eq!(pos, img.len(), "batch walk covers the image");
    let _ = writeln!(
        log,
        "reference image: {} bytes, {} batches, ends={:?}",
        img.len(),
        parse.batches,
        batch_ends
    );

    // ---- phase 1: crash at every WAL byte offset ----
    let mut torn_classified = 0usize;
    let mut replay_mismatches = 0usize;
    let mut reconcile_failures = 0usize;
    let mut last_complete = usize::MAX;
    for keep in 0..=img.len() {
        let complete = batch_ends.iter().filter(|&&e| e <= keep).count();
        let (mgr, _fs) = fresh_env(cfg);
        let dir = next_dir();
        run_workload(&dir, &mgr, cfg);
        let mut inj = DiskFaultInjector::new(cfg.seed);
        inj.apply(
            &dir.join("wal.log"),
            &DiskFault::TornWrite { keep: keep as u64 },
        )
        .expect("truncate");
        let (mut db, report) = Database::open_recovering(&dir).expect("torn prefix always reopens");
        if report.corruption.is_none() {
            torn_classified += 1;
        } else {
            let _ = writeln!(
                log,
                "crash keep={keep} MISCLASSIFIED as corruption: {:?}",
                report.corruption
            );
        }
        let got = catalog_rows(&mut db);
        let want = oracle_rows(complete);
        if got != want {
            replay_mismatches += 1;
            let _ = writeln!(
                log,
                "crash keep={keep} REPLAY MISMATCH got={got:?} want={want:?}"
            );
        }
        db.add_observer(mgr.clone());
        let (released, agreed) = reconcile_to_agreement(&mgr, &mut db);
        let lost = cfg.link_batches - complete.saturating_sub(1);
        if !agreed || released != lost {
            reconcile_failures += 1;
            let _ = writeln!(
                log,
                "crash keep={keep} RECONCILE FAILED released={released} want={lost} \
                 agreed={agreed}"
            );
        }
        if complete != last_complete {
            last_complete = complete;
            let _ = writeln!(
                log,
                "crash keep={keep}: torn tail, {complete} whole batches, rows={}, \
                 orphans released={released}",
                want.as_ref().map(Vec::len).unwrap_or(0)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let crash_points = img.len() + 1;
    let _ = writeln!(
        log,
        "phase1: {crash_points} crash points, {torn_classified} clean torn, \
         {replay_mismatches} replay mismatches, {reconcile_failures} reconcile failures"
    );

    // ---- phase 2a: every single-bit flip, in memory ----
    let mut flips_detected = 0usize;
    let flips_checked = img.len() * 8;
    let mut rotted = img.clone();
    for off in 0..img.len() {
        for bit in 0..8u8 {
            rotted[off] ^= 1 << bit;
            if Wal::parse(&rotted).corruption.is_some() {
                flips_detected += 1;
            } else {
                let _ = writeln!(log, "flip {off}:{bit} UNDETECTED");
            }
            rotted[off] ^= 1 << bit; // restore
        }
    }
    let _ = writeln!(
        log,
        "phase2a: {flips_detected}/{flips_checked} single-bit flips detected"
    );

    // ---- phase 2b: seeded rot through the full on-disk pipeline ----
    let mut rot_salvaged = 0usize;
    let mut inj = DiskFaultInjector::new(cfg.seed ^ 0xE16_0000);
    for sample in 0..cfg.rot_samples {
        let fault = inj.draw_rot(img.len() as u64);
        let (off, bit) = match fault {
            DiskFault::BitRot { offset, bit } => (offset as usize, bit),
            ref other => panic!("draw_rot returned {other:?}"),
        };
        // Damage attribution: the batch frame holding the flipped byte
        // (or the file header, batch index 0 with nothing replayable).
        let damaged = batch_ends.iter().filter(|&&e| e <= off).count();
        let (mgr, _fs) = fresh_env(cfg);
        let dir = next_dir();
        run_workload(&dir, &mgr, cfg);
        inj.apply(&dir.join("wal.log"), &fault).expect("rot");

        let strict_refused = matches!(
            Database::open(&dir).map(|_| ()),
            Err(DbError::WalCorrupt { .. })
        );
        let (mut db, report) = Database::open_recovering(&dir).expect("salvage never panics");
        let quarantined = report
            .quarantined
            .as_ref()
            .map(|q| q.exists())
            .unwrap_or(false);
        let got = catalog_rows(&mut db);
        let want = oracle_rows(damaged);
        db.add_observer(mgr.clone());
        let (released, agreed) = reconcile_to_agreement(&mgr, &mut db);
        let lost = cfg.link_batches - damaged.saturating_sub(1);
        let ok = strict_refused
            && report.corruption.is_some()
            && quarantined
            && got == want
            && agreed
            && released == lost;
        if ok {
            rot_salvaged += 1;
        }
        let _ = writeln!(
            log,
            "rot sample={sample} off={off} bit={bit} damaged_batch={damaged} \
             salvaged_rows={} released={released} ok={ok}",
            want.as_ref().map(Vec::len).unwrap_or(0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = writeln!(
        log,
        "phase2b: {rot_salvaged}/{} rot samples salvaged and reconciled",
        cfg.rot_samples
    );

    // ---- phase 3: scrub a healthy store, then a rotted one ----
    let registry = easia_obs::Registry::new();
    let (mgr, _fs) = fresh_env(cfg);
    let dir = next_dir();
    run_workload(&dir, &mgr, cfg);
    let mut db = Database::open(&dir).expect("scrub open");
    db.attach_metrics(&registry);
    db.checkpoint().expect("scrub checkpoint");
    db.execute("INSERT INTO result_file VALUES ('extra.edf', NULL)")
        .expect("post-checkpoint traffic");
    let clean = db.scrub().expect("clean scrub");
    let scrub_frames = clean.wal_frames_verified;
    let scrub_errors_clean = clean.errors.len() as u64;
    let _ = writeln!(
        log,
        "scrub clean: snapshot_verified={} batches={} frames={} errors={}",
        clean.snapshot_verified,
        clean.wal_batches_verified,
        clean.wal_frames_verified,
        clean.errors.len()
    );
    let wal_len = std::fs::metadata(dir.join("wal.log"))
        .expect("wal meta")
        .len();
    let mut inj = DiskFaultInjector::new(cfg.seed ^ 0x5C_12B);
    inj.apply(
        &dir.join("wal.log"),
        &DiskFault::BitRot {
            offset: wal_len - 2,
            bit: 3,
        },
    )
    .expect("scrub rot");
    let dirty = db.scrub().expect("dirty scrub");
    let scrub_errors_after_rot = dirty.errors.len() as u64;
    for e in &dirty.errors {
        let _ = writeln!(
            log,
            "scrub finding: {} offset={} {}",
            e.file, e.offset, e.detail
        );
    }
    for m in [
        "easia_db_wal_corruption_detected_total",
        "easia_db_scrub_frames_verified_total",
        "easia_db_scrub_errors_total",
    ] {
        let _ = writeln!(log, "metric {m}={}", registry.value(m, &[]).unwrap_or(0.0));
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&scratch);

    let (digest, _, transcript) = log.seal(None);
    CrashpointResult {
        wal_bytes: img.len(),
        crash_points,
        torn_classified,
        replay_mismatches,
        reconcile_failures,
        flips_checked,
        flips_detected,
        rot_runs: cfg.rot_samples,
        rot_salvaged,
        scrub_frames,
        scrub_errors_clean,
        scrub_errors_after_rot,
        transcript,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> CrashpointConfig {
        CrashpointConfig {
            seed,
            link_batches: 2,
            rot_samples: 4,
        }
    }

    #[test]
    fn reduced_torture_run_is_exhaustive_and_deterministic() {
        let a = run_crashpoint(&small(16));
        assert_eq!(a.torn_classified, a.crash_points, "{}", a.transcript);
        assert_eq!(a.replay_mismatches, 0, "{}", a.transcript);
        assert_eq!(a.reconcile_failures, 0, "{}", a.transcript);
        assert_eq!(a.flips_detected, a.flips_checked, "{}", a.transcript);
        assert_eq!(a.rot_salvaged, a.rot_runs, "{}", a.transcript);
        assert_eq!(a.scrub_errors_clean, 0);
        assert_eq!(a.scrub_errors_after_rot, 1);
        assert!(a.scrub_frames > 0);
        let b = run_crashpoint(&small(16));
        assert_eq!(a.digest, b.digest, "same seed, same transcript");
    }
}

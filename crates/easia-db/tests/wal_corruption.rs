//! Corruption-aware durability: bit-rot property test, quarantined
//! recovery, non-blocking checkpoints, lost-checkpoint behaviour, and
//! the scrub pass (ISSUE 9 / DESIGN.md §12).

use easia_db::txn::Wal;
use easia_db::{Database, DbError, DiskFault, DiskFaultInjector, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easia-walcorrupt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a durable DB with a DDL batch plus `n` single-commit batches
/// (insert K=i), close it, and return the clean WAL image plus the
/// byte offset of every batch frame.
fn build_fixture(dir: &Path, n: usize) -> (Vec<u8>, Vec<u64>) {
    {
        let mut db = Database::open(dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        for i in 0..n {
            let t = db.begin_txn();
            db.txn_execute(t, &format!("INSERT INTO T VALUES ({i}, {})", i * 10), &[])
                .unwrap();
            db.begin_commit_window();
            db.commit_txn(t).unwrap();
            db.end_commit_window().unwrap();
        }
    }
    let img = std::fs::read(dir.join("wal.log")).unwrap();
    let parse = Wal::parse(&img);
    assert!(parse.corruption.is_none());
    assert_eq!(parse.batches, n + 1, "ddl batch + {n} commit batches");
    let mut offsets = Vec::new();
    let mut pos = 8u64;
    for _ in 0..parse.batches {
        offsets.push(pos);
        let len =
            u32::from_le_bytes(img[pos as usize + 1..pos as usize + 5].try_into().unwrap()) as u64;
        pos += 13 + len;
    }
    assert_eq!(pos, img.len() as u64);
    (img, offsets)
}

fn keys(db: &mut Database) -> Result<Vec<i64>, DbError> {
    Ok(db
        .execute("SELECT K FROM T ORDER BY K")?
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(k) => *k,
            other => panic!("unexpected {other:?}"),
        })
        .collect())
}

proptest! {
    /// Satellite: flip any single bit at any offset in a multi-batch
    /// WAL. Recovery never panics, never replays a record at or past
    /// the damage, and either recovers a clean committed prefix or
    /// reports `WalCorrupt` with the right offset (the start of the
    /// damaged batch frame, or 0 for file-header damage).
    #[test]
    fn single_bit_rot_recovers_prefix_or_reports_corruption(
        raw_off in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let dir = temp_dir("prop");
        let (img, offsets) = build_fixture(&dir, 3);
        let flip = raw_off % img.len();
        let damaged_batch = offsets.iter().rposition(|&o| o as usize <= flip);
        // Expected damage attribution: the batch frame containing the
        // flipped byte, or offset 0 when the file magic itself rots.
        let want_offset = match damaged_batch {
            Some(i) => offsets[i],
            None => 0,
        };
        let mut inj = DiskFaultInjector::new(1);
        inj.apply(
            &dir.join("wal.log"),
            &DiskFault::BitRot { offset: flip as u64, bit },
        )
        .unwrap();

        // Strict open: a typed error naming the damaged frame.
        let err = Database::open(&dir).map(|_| ()).unwrap_err();
        match err {
            DbError::WalCorrupt { offset, .. } => {
                prop_assert_eq!(offset, want_offset);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected WalCorrupt for flip at {flip}:{bit}, got {other:?}"
            ))),
        }

        // Salvage: exactly the batches strictly before the damage.
        let (mut db, report) = Database::open_recovering(&dir).unwrap();
        let c = report.corruption.as_ref().expect("corruption reported");
        prop_assert_eq!(c.offset, want_offset);
        prop_assert!(report.quarantined.as_ref().expect("quarantined").exists());
        match damaged_batch {
            None | Some(0) => {
                // DDL batch (or the file header) damaged: nothing at
                // all is replayable — the table must not exist.
                prop_assert!(db.execute("SELECT K FROM T").is_err());
                prop_assert_eq!(report.records_replayed, 0);
            }
            Some(i) => {
                // Batches 1..i are the commit batches that survive:
                // rows 0..i-1.
                let got = keys(&mut db).unwrap();
                let want: Vec<i64> = (0..i as i64 - 1).collect();
                prop_assert_eq!(got, want);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_runs_under_open_snapshots_and_transactions() {
    let dir = temp_dir("nonblocking");
    let mut db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        .unwrap();
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();

    // An open snapshot pins an old read view; the checkpoint must not
    // refuse (ROADMAP follow-on from the group-commit PR) and must not
    // disturb the snapshot's repeatable reads.
    let snap = db.begin_snapshot();
    db.execute("INSERT INTO T VALUES (2, 20)").unwrap();
    db.checkpoint().expect("checkpoint under open snapshot");
    let rs = db.snapshot_query(snap, "SELECT K FROM T", &[]).unwrap();
    assert_eq!(rs.rows.len(), 1, "snapshot still sees only K=1");
    assert!(db.release_snapshot(snap));

    // An in-flight transaction's uncommitted row must not leak into the
    // checkpoint image (it commits — or rolls back — on its own later).
    let t = db.begin_txn();
    db.txn_execute(t, "INSERT INTO T VALUES (3, 30)", &[])
        .unwrap();
    db.checkpoint().expect("checkpoint under in-flight txn");
    db.rollback_txn(t).unwrap();

    // A transaction committing *after* the checkpoint reaches the fresh
    // WAL and survives restart on top of the snapshot image.
    let t = db.begin_txn();
    db.txn_execute(t, "INSERT INTO T VALUES (4, 40)", &[])
        .unwrap();
    db.commit_txn(t).unwrap();

    // Only an open commit window still refuses (its staged commits are
    // visible in memory but not yet synced: they would persist twice).
    db.begin_commit_window();
    assert!(matches!(db.checkpoint(), Err(DbError::Txn(_))));
    db.end_commit_window().unwrap();

    drop(db);
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(
        keys(&mut db).unwrap(),
        vec![1, 2, 4],
        "committed rows survive; the rolled-back 3 never persisted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lost_checkpoint_file_is_a_typed_error_not_a_panic() {
    let dir = temp_dir("lost-snap");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint WAL traffic references tables that now live
        // only in the snapshot.
        db.execute("INSERT INTO T VALUES (2, 20)").unwrap();
    }
    let mut inj = DiskFaultInjector::new(2);
    inj.apply(&dir.join("snapshot.db"), &DiskFault::LoseFile)
        .unwrap();
    // Replay finds INSERTs into a table whose DDL vanished with the
    // snapshot: a typed storage error, never a panic.
    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err:?}");
    let err2 = Database::open_recovering(&dir).map(|_| ()).unwrap_err();
    assert!(matches!(err2, DbError::Storage(_)), "{err2:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotted_snapshot_is_refused_by_its_crc() {
    let dir = temp_dir("rot-snap");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
        db.checkpoint().unwrap();
    }
    let snap = dir.join("snapshot.db");
    let len = std::fs::metadata(&snap).unwrap().len();
    let mut inj = DiskFaultInjector::new(3);
    // Flip a bit in the body (past the 12-byte header).
    inj.apply(
        &snap,
        &DiskFault::BitRot {
            offset: len - 9,
            bit: 2,
        },
    )
    .unwrap();
    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    match err {
        DbError::Storage(m) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("expected checksum refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_verifies_clean_stores_and_finds_rot() {
    let dir = temp_dir("scrub");
    let registry = easia_obs::Registry::new();
    {
        let mut db = Database::open(&dir).unwrap();
        db.attach_metrics(&registry);
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO T VALUES (2, 20)").unwrap();

        // Clean store: everything behind the commit horizon verifies.
        let report = db.scrub().unwrap();
        assert!(report.snapshot_present && report.snapshot_verified);
        assert_eq!(report.wal_batches_verified, 1);
        assert!(report.wal_frames_verified >= 2);
        assert!(report.errors.is_empty(), "{report:?}");
        assert!(
            registry
                .value("easia_db_scrub_frames_verified_total", &[])
                .unwrap()
                >= 2.0
        );
        assert_eq!(
            registry.value("easia_db_scrub_errors_total", &[]).unwrap(),
            0.0
        );

        // Rot a WAL byte behind the horizon: scrub finds it and the
        // corruption counter records the detection.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let mut inj = DiskFaultInjector::new(4);
        inj.apply(
            &wal,
            &DiskFault::BitRot {
                offset: len - 3,
                bit: 7,
            },
        )
        .unwrap();
        let report = db.scrub().unwrap();
        assert_eq!(report.errors.len(), 1, "{report:?}");
        assert_eq!(report.errors[0].file, "wal.log");
        assert_eq!(
            registry.value("easia_db_scrub_errors_total", &[]).unwrap(),
            1.0
        );
        assert_eq!(
            registry
                .value("easia_db_wal_corruption_detected_total", &[])
                .unwrap(),
            1.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_corruption_count_folds_into_metrics_attached_later() {
    let dir = temp_dir("fold");
    let (img, offsets) = build_fixture(&dir, 2);
    let _ = img;
    let mut inj = DiskFaultInjector::new(5);
    inj.apply(
        &dir.join("wal.log"),
        &DiskFault::BitRot {
            offset: offsets[1] + 9,
            bit: 0,
        },
    )
    .unwrap();
    let (mut db, report) = Database::open_recovering(&dir).unwrap();
    assert!(report.corruption.is_some());
    // Metrics attach after recovery (the webapp order): the detection
    // made before attachment must still reach the counter.
    let registry = easia_obs::Registry::new();
    db.attach_metrics(&registry);
    assert_eq!(
        registry
            .value("easia_db_wal_corruption_detected_total", &[])
            .unwrap(),
        1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `img`, written as the whole log, must be refused at offset 0 by the
/// strict open and left byte-for-byte in place; the recovering open
/// replays nothing from it and moves it aside intact.
fn assert_header_damage_is_refused(dir: &Path, img: &[u8]) {
    let wal = dir.join("wal.log");
    std::fs::write(&wal, img).unwrap();
    let err = Database::open(dir).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, DbError::WalCorrupt { offset: 0, .. }),
        "{err:?}"
    );
    assert_eq!(std::fs::read(&wal).unwrap(), img, "strict open wrote");
    let (mut db, report) = Database::open_recovering(dir).unwrap();
    assert_eq!(report.corruption.as_ref().map(|c| c.offset), Some(0));
    assert_eq!(report.records_replayed, 0);
    assert!(db.execute("SELECT K FROM T").is_err());
    let q = report.quarantined.expect("quarantined");
    assert_eq!(std::fs::read(q).unwrap(), img, "quarantine keeps the bytes");
}

#[test]
fn magic_rotted_into_a_record_tag_is_corruption_at_offset_zero() {
    // Two flipped bits take the magic's first byte 0x45 into 0x01..=0x04,
    // the redo-record tags an unframed log would open with. Such bytes
    // carry no checksum, so none of them may be replayed: opening must
    // not succeed with zero tables and then checkpoint the log away.
    let dir = temp_dir("tag-rot");
    let (img, _) = build_fixture(&dir, 5);
    for tag in 0x01..=0x04u8 {
        let mut rotted = img.clone();
        rotted[0] = tag;
        assert_header_damage_is_refused(&dir, &rotted);
        assert_header_damage_is_refused(&dir, &[tag, 0, 0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_without_a_checksum_is_refused_and_flagged_by_scrub() {
    let dir = temp_dir("snap-magic");
    let mut db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        .unwrap();
    db.checkpoint().unwrap();
    // Version digit '1' in the magic announced an image with no body
    // checksum; nothing reads those any more.
    let snap = dir.join("snapshot.db");
    let mut img = std::fs::read(&snap).unwrap();
    assert_eq!(img[6], b'6');
    img[6] = b'1';
    std::fs::write(&snap, &img).unwrap();

    let report = db.scrub().unwrap();
    assert!(!report.snapshot_verified);
    assert_eq!(report.errors.len(), 1, "{report:?}");
    assert_eq!(report.errors[0].file, "snapshot.db");
    assert_eq!(report.errors[0].detail, "bad snapshot magic");
    drop(db);
    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    match err {
        DbError::Storage(m) => assert!(m.contains("bad snapshot magic"), "{m}"),
        other => panic!("expected a magic refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum only proves the bytes are the ones written: a snapshot
/// whose CRC is *right* over a body that lies — about a record's tag, a
/// slot's place in its page, how many pages, overflow records or live
/// rows follow — is a typed storage error from `open` and from
/// `open_recovering`, never a panic and never a reservation sized by the
/// lie.
#[test]
fn a_lying_snapshot_body_under_a_valid_checksum_is_a_typed_error() {
    let dir = temp_dir("hostile-snap");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR(40), B BLOB)")
            .unwrap();
        for k in 0..300 {
            let blob = if k == 7 { vec![k as u8; 6000] } else { vec![] };
            db.execute_with_params(
                "INSERT INTO T VALUES (?, ?, ?)",
                &[
                    Value::Int(k),
                    Value::Str(format!("row {k}")),
                    Value::Blob(blob),
                ],
            )
            .unwrap();
        }
        db.checkpoint().unwrap();
    }
    let snap = dir.join("snapshot.db");
    let good = std::fs::read(&snap).unwrap();
    let u32_at = |img: &[u8], at: usize| u32::from_le_bytes(img[at..at + 4].try_into().unwrap());
    let u16_at = |img: &[u8], at: usize| u16::from_le_bytes(img[at..at + 2].try_into().unwrap());
    // magic 8, frame header 13 | CSN 8, table count 4, DDL
    // (length-prefixed), extra-index count 4 | page count 4, listed 4,
    // (number 4, page) each | overflow count 4, listed 4, (number 4,
    // length + 1 4, record) each | rows 8 | the primary key's order.
    let npages_at = 21 + 8 + 4 + 4 + u32_at(&good, 33) as usize + 4;
    let page0 = npages_at + 12;
    let npages = u32_at(&good, npages_at) as usize;
    assert!(npages >= 2, "the fixture spans pages");
    assert_eq!(
        u32_at(&good, npages_at + 4),
        npages as u32,
        "a base lists them all"
    );
    let nover_at = page0 + npages * (4 + 8192) - 4;
    assert_eq!(u32_at(&good, nover_at), 1, "one overflow record");
    assert_eq!(u32_at(&good, nover_at + 4), 1, "listed");
    let marker = nover_at + 12;
    assert_eq!(u32_at(&good, marker), 1 + 4 + 9 + 5 + 5 + 5 + 6000);
    let rows_at = good.len() - 4 * 300 - 8;
    assert_eq!(u32_at(&good, rows_at), 300);
    let slot0 = page0 + 6;
    let rec0 = page0 + u16_at(&good, slot0) as usize;

    // The base frame sealed again over whatever its payload now is.
    let reseal = |img: Vec<u8>| [&img[..8], &easia_db::txn::seal_batch(&img[21..])[..]].concat();
    let patch = |at: usize, bytes: &[u8]| {
        let mut img = good.clone();
        img[at..at + bytes.len()].copy_from_slice(bytes);
        img
    };
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "a tag that is no tag inside a page",
            patch(rec0 + 4, &[0xEE]),
        ),
        (
            "fewer cells than the record holds",
            patch(rec0, &2u32.to_le_bytes()),
        ),
        (
            "more cells than the record holds",
            patch(rec0, &4u32.to_le_bytes()),
        ),
        (
            "a slot past the page end",
            patch(slot0, &8190u16.to_le_bytes()),
        ),
        (
            "a slot length past the page end",
            patch(slot0 + 2, &u16::MAX.to_le_bytes()),
        ),
        (
            "a slot directory larger than the page",
            patch(page0, &u16::MAX.to_le_bytes()),
        ),
        (
            "free space that ends outside the page",
            patch(page0 + 4, &u16::MAX.to_le_bytes()),
        ),
        (
            "four thousand million pages",
            patch(npages_at, &u32::MAX.to_le_bytes()),
        ),
        (
            "one page more than there is",
            patch(npages_at, &(npages as u32 + 1).to_le_bytes()),
        ),
        (
            "four thousand million pages listed",
            patch(npages_at + 4, &u32::MAX.to_le_bytes()),
        ),
        (
            "a page numbered past the table",
            patch(page0 - 4, &(npages as u32).to_le_bytes()),
        ),
        (
            "a page listed twice",
            patch(page0 + 8192, &0u32.to_le_bytes()),
        ),
        (
            "four thousand million overflow records",
            patch(nover_at, &u32::MAX.to_le_bytes()),
        ),
        (
            "an overflow record longer than the input",
            patch(marker, &u32::MAX.to_le_bytes()),
        ),
        (
            "an overflow record cut short",
            good[..marker + 4 + 100].to_vec(),
        ),
        (
            "a bad tag inside the overflow record",
            patch(marker + 4 + 4, &[0x7F]),
        ),
        (
            "a row count the records do not bear out",
            patch(rows_at, &301u64.to_le_bytes()),
        ),
        (
            "a row count of 2^64 - 1",
            patch(rows_at, &u64::MAX.to_le_bytes()),
        ),
    ];
    for (what, img) in hostile {
        std::fs::write(&snap, reseal(img)).unwrap();
        for recovering in [false, true] {
            let answer = if recovering {
                Database::open_recovering(&dir).map(|_| ())
            } else {
                Database::open(&dir).map(|_| ())
            };
            match answer {
                Err(DbError::Storage(m)) => assert!(!m.contains("checksum"), "{what}: {m}"),
                other => panic!("{what} (recovering: {recovering}): {other:?}"),
            }
        }
    }
    // The same surgery with nothing changed is the image it was.
    std::fs::write(&snap, reseal(good.clone())).unwrap();
    assert_eq!(std::fs::read(&snap).unwrap(), good);
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(keys(&mut db).unwrap(), (0..300).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after a checkpoint is published and before the log is
/// truncated leaves the log's commits beside an image that holds them.
/// The image's CSN keeps them from being replayed: no row is filed twice,
/// and a `CREATE TABLE` in that log does not fail the open. Once through
/// a whole rewrite (DDL ran since the last checkpoint) and once through a
/// frame appended to a base.
#[test]
fn a_log_the_image_already_holds_is_not_replayed() {
    for framed in [false, true] {
        let dir = temp_dir(if framed { "held-frame" } else { "held-base" });
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        if framed {
            db.checkpoint().unwrap();
        }
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
        db.execute("INSERT INTO T VALUES (2, 20)").unwrap();
        let wal = dir.join("wal.log");
        let log = std::fs::read(&wal).unwrap();
        let snap_before = std::fs::metadata(dir.join("snapshot.db")).map_or(0, |m| m.len());
        db.checkpoint().unwrap();
        drop(db);
        let snap_after = std::fs::metadata(dir.join("snapshot.db")).unwrap().len();
        assert_eq!(
            framed,
            snap_before > 0 && snap_after > snap_before,
            "framed: {framed}"
        );
        // The crash: the image is on disk, the log was never truncated.
        std::fs::write(&wal, &log).unwrap();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(keys(&mut db).unwrap(), vec![1, 2], "framed: {framed}");
        assert_eq!(db.table("T").unwrap().indexes[0].tree.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Reopened onto an empty log, the CSN counter continues past the
/// image's CSN: a commit made then is numbered above it, so the next
/// recovery replays it instead of taking it for one the image holds.
#[test]
fn a_commit_after_a_reopen_onto_an_empty_log_survives_a_crash() {
    let dir = temp_dir("csn-after-reopen");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
        db.execute("INSERT INTO T VALUES (2, 20)").unwrap();
        db.checkpoint().unwrap();
    }
    {
        let mut db = Database::open(&dir).unwrap();
        assert!(db.last_csn() >= 3, "the counter starts past the image");
        db.execute("INSERT INTO T VALUES (3, 30)").unwrap();
        // A crash: the log keeps the commit, nothing is checkpointed.
    }
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(keys(&mut db).unwrap(), vec![1, 2, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

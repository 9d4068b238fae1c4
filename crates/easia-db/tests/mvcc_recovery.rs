//! MVCC snapshot isolation, group-commit WAL, and crash recovery.
//!
//! The paper's archive hub mediates every statement, so browse/scan
//! queries must not block behind metadata ingest. These tests pin the
//! semantics that make that safe: snapshot reads are repeatable while
//! writers commit, first committer wins on write-write conflicts,
//! vacuum only reclaims behind the oldest open snapshot, a group-commit
//! window turns N committers into one sync, and replay after a torn
//! group-commit tail recovers exactly the committed prefix.

use std::collections::BTreeMap;

use easia_db::{Database, Value};
use proptest::prelude::*;

fn mk(db: &mut Database) {
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        .unwrap();
}

fn keys(db: &Database, rs: &easia_db::ResultSet) -> Vec<i64> {
    let _ = db;
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(k) => *k,
            other => panic!("non-integer key {other:?}"),
        })
        .collect()
}

#[test]
fn snapshot_reads_are_pinned_while_writers_commit() {
    let mut db = Database::new_in_memory();
    mk(&mut db);
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
    db.execute("INSERT INTO T VALUES (2, 20)").unwrap();

    let snap = db.begin_snapshot();

    // A logically concurrent writer inserts, updates, and deletes.
    let w = db.begin_txn();
    db.txn_execute(w, "INSERT INTO T VALUES (3, 30)", &[])
        .unwrap();
    db.txn_execute(w, "UPDATE T SET V = 11 WHERE K = 1", &[])
        .unwrap();
    db.txn_execute(w, "DELETE FROM T WHERE K = 2", &[]).unwrap();
    db.commit_txn(w).unwrap();

    // The snapshot still sees the pre-write world...
    let rs = db
        .snapshot_query(snap, "SELECT K, V FROM T ORDER BY K", &[])
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
    // ...while latest reads see the committed writer.
    let rs = db.execute("SELECT K, V FROM T ORDER BY K").unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1), Value::Int(11)],
            vec![Value::Int(3), Value::Int(30)],
        ]
    );

    assert!(db.release_snapshot(snap));
    assert!(!db.release_snapshot(snap), "double release must fail");
}

#[test]
fn first_committer_wins_on_write_conflicts() {
    let mut db = Database::new_in_memory();
    mk(&mut db);
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();

    let a = db.begin_txn();
    let b = db.begin_txn();
    db.txn_execute(a, "UPDATE T SET V = 100 WHERE K = 1", &[])
        .unwrap();
    // B touches the same row while A's update is in flight.
    let err = db
        .txn_execute(b, "UPDATE T SET V = 200 WHERE K = 1", &[])
        .unwrap_err();
    assert!(
        err.to_string().contains("write conflict"),
        "expected write conflict, got: {err}"
    );
    db.commit_txn(a).unwrap();
    db.rollback_txn(b).unwrap();

    let rs = db.execute("SELECT V FROM T WHERE K = 1").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(100)));
}

#[test]
fn vacuum_respects_the_snapshot_horizon() {
    let mut db = Database::new_in_memory();
    mk(&mut db);
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();

    let snap = db.begin_snapshot();
    db.execute("DELETE FROM T WHERE K = 1").unwrap();

    // The dead version is invisible to latest readers but still pinned
    // physically for the snapshot.
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 0);
    assert_eq!(
        db.snapshot_query(snap, "SELECT K FROM T", &[])
            .unwrap()
            .rows
            .len(),
        1
    );
    let stats = db.vacuum();
    assert_eq!(stats.versions_removed, 0, "snapshot pins the horizon");
    assert_eq!(db.table("T").unwrap().heap.len(), 1);

    // Releasing the last snapshot auto-vacuums the dead version away.
    db.release_snapshot(snap);
    assert_eq!(db.table("T").unwrap().heap.len(), 0);
}

#[test]
fn group_commit_batches_n_committers_into_one_sync() {
    let mut db = Database::new_in_memory();
    mk(&mut db);

    // Ablation: three solo committers cost three syncs.
    let before = db.wal_syncs();
    for k in 0..3 {
        let t = db.begin_txn();
        db.txn_execute(t, &format!("INSERT INTO T VALUES ({k}, 0)"), &[])
            .unwrap();
        db.commit_txn(t).unwrap();
    }
    assert_eq!(db.wal_syncs() - before, 3);

    // Group window: three committers share one sync.
    let txns: Vec<_> = (10..13)
        .map(|k| {
            let t = db.begin_txn();
            db.txn_execute(t, &format!("INSERT INTO T VALUES ({k}, 0)"), &[])
                .unwrap();
            t
        })
        .collect();
    let before = db.wal_syncs();
    db.begin_commit_window();
    let mut csns = Vec::new();
    for t in txns {
        csns.push(db.commit_txn(t).unwrap());
    }
    assert_eq!(db.end_commit_window().unwrap(), 3);
    assert_eq!(db.wal_syncs() - before, 1, "one sync for the whole batch");
    assert!(csns.windows(2).all(|w| w[0] < w[1]), "CSN order pinned");

    // An empty window costs nothing.
    let before = db.wal_syncs();
    db.begin_commit_window();
    assert_eq!(db.end_commit_window().unwrap(), 0);
    assert_eq!(db.wal_syncs() - before, 0);

    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 6);
}

#[test]
fn crash_mid_group_commit_recovers_the_committed_prefix() {
    let dir = std::env::temp_dir().join(format!("easia-db-mvcc-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let mut db = Database::open(&dir).unwrap();
        mk(&mut db);
        // Batch 1: fully durable.
        let a = db.begin_txn();
        let b = db.begin_txn();
        db.txn_execute(a, "INSERT INTO T VALUES (1, 10)", &[])
            .unwrap();
        db.txn_execute(b, "INSERT INTO T VALUES (2, 20)", &[])
            .unwrap();
        db.begin_commit_window();
        db.commit_txn(a).unwrap();
        db.commit_txn(b).unwrap();
        assert_eq!(db.end_commit_window().unwrap(), 2);
        // Batch 2: the crash will tear off its tail mid-flush.
        let c = db.begin_txn();
        let d = db.begin_txn();
        db.txn_execute(c, "INSERT INTO T VALUES (3, 30)", &[])
            .unwrap();
        db.txn_execute(d, "INSERT INTO T VALUES (4, 40)", &[])
            .unwrap();
        db.begin_commit_window();
        db.commit_txn(c).unwrap();
        db.commit_txn(d).unwrap();
        db.end_commit_window().unwrap();
    }

    // Simulate the crash: chop bytes off the WAL tail so batch 2's
    // frame is incomplete. Group commit acknowledges c and d only after
    // the batch's single sync_data, so neither was ever reported
    // durable — recovery drops the torn batch *whole* (the
    // committed-batch-prefix invariant), never a partial batch.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    {
        let mut db = Database::open(&dir).unwrap();
        let rs = db.execute("SELECT K FROM T ORDER BY K").unwrap();
        // Batch 1 only: the torn batch 2 (c and d) is dropped whole.
        assert_eq!(keys(&db, &rs), vec![1, 2]);

        // The recovered CSN counter continues past the replayed prefix:
        // a fresh commit must order after everything recovered.
        let before = db.last_csn();
        let t = db.begin_txn();
        db.txn_execute(t, "INSERT INTO T VALUES (5, 50)", &[])
            .unwrap();
        let csn = db.commit_txn(t).unwrap();
        assert!(csn > before);
        let rs = db.execute("SELECT K FROM T ORDER BY K").unwrap();
        assert_eq!(keys(&db, &rs), vec![1, 2, 5]);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- serial-oracle interleaving ----

/// One step of a randomized schedule of logically concurrent writers
/// and snapshot readers. Writers are of every kind of transaction: API
/// transactions in three slots, one SQL session driven by `BEGIN`,
/// `COMMIT` and `ROLLBACK`, and autocommit statements.
#[derive(Debug, Clone)]
enum Op {
    Begin,
    /// kind 0 = insert, 1 = update, 2 = delete.
    Write {
        w: usize,
        kind: u8,
        k: i64,
        v: i64,
    },
    Commit {
        w: usize,
    },
    Rollback {
        w: usize,
    },
    Snap,
    ReadSnap {
        s: usize,
    },
    ReleaseSnap {
        s: usize,
    },
    Vacuum,
    LatestRead,
    /// A write statement outside any transaction (kinds as in `Write`).
    AutoWrite {
        kind: u8,
        k: i64,
        v: i64,
    },
    SessionBegin,
    /// A write statement inside the SQL session (kinds as in `Write`).
    SessionWrite {
        kind: u8,
        k: i64,
        v: i64,
    },
    SessionEnd {
        commit: bool,
    },
    SessionRead,
}

/// A buffered write that succeeded against the engine; replayed into
/// the oracle map when its transaction commits.
#[derive(Debug, Clone)]
enum BufOp {
    Put(i64, i64),
    Del(i64),
}

/// Decode one raw generated tuple into an [`Op`]. The vendored
/// proptest stub has no `prop_oneof`/`prop_map`, so weighting lives in
/// the opcode ranges here (writes get the biggest share).
fn decode_op((opcode, slot, kind, k, v): (u8, u8, u8, i64, i64)) -> Op {
    let s = slot as usize % 3;
    match opcode % 32 {
        0 | 1 => Op::Begin,
        2..=9 => Op::Write {
            w: s,
            kind: kind % 3,
            k,
            v,
        },
        10..=13 => Op::Commit { w: s },
        14 => Op::Rollback { w: s },
        15 | 16 => Op::Snap,
        17..=19 => Op::ReadSnap { s },
        20 | 21 => Op::ReleaseSnap { s },
        22 => Op::Vacuum,
        23 => Op::LatestRead,
        24..=26 => Op::AutoWrite {
            kind: kind % 3,
            k,
            v,
        },
        27 => Op::SessionBegin,
        28 | 29 => Op::SessionWrite {
            kind: kind % 3,
            k,
            v,
        },
        30 => Op::SessionEnd { commit: s != 0 },
        _ => Op::SessionRead,
    }
}

/// The statement of write `kind` on key `k`, and what it does to the
/// oracle when the engine accepts it.
fn write_sql(kind: u8, k: i64, v: i64) -> (String, BufOp) {
    match kind {
        0 => (format!("INSERT INTO T VALUES ({k}, {v})"), BufOp::Put(k, v)),
        1 => (
            format!("UPDATE T SET V = {v} WHERE K = {k}"),
            BufOp::Put(k, v),
        ),
        _ => (format!("DELETE FROM T WHERE K = {k}"), BufOp::Del(k)),
    }
}

/// Whether the engine accepted a write: an INSERT that succeeded, or an
/// UPDATE or DELETE that matched a row. A conflict or duplicate is
/// rejected on both sides.
fn accepted(kind: u8, result: &Result<easia_db::ResultSet, easia_db::DbError>) -> bool {
    matches!(result, Ok(rs) if kind == 0 || rs.affected > 0)
}

fn apply(map: &mut BTreeMap<i64, i64>, op: &BufOp) {
    match *op {
        BufOp::Put(k, v) => {
            map.insert(k, v);
        }
        BufOp::Del(k) => {
            map.remove(&k);
        }
    }
}

fn oracle_rows(map: &BTreeMap<i64, i64>) -> Vec<Vec<Value>> {
    map.iter()
        .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
        .collect()
}

proptest! {
    /// Any interleaving of snapshot readers and committing writers
    /// yields reader rows identical to a serial oracle that applies
    /// each transaction's successful writes atomically at its commit
    /// point, and snapshot reads that are repeatable (pinned at the
    /// commit horizon when the snapshot was taken). The SQL session
    /// reads the state at its `BEGIN` plus its own writes, like an API
    /// transaction; an autocommit write commits at once.
    #[test]
    fn interleaved_snapshots_match_serial_oracle(
        raw in proptest::collection::vec(
            (0u8..32, 0u8..3, 0u8..3, 0i64..8, 0i64..1000), 1..80)
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        let mut db = Database::new_in_memory();
        mk(&mut db);

        // Engine-side writer slots and their oracle-side write buffers.
        let mut writers: Vec<Option<(easia_db::TxnId, Vec<BufOp>)>> =
            vec![None, None, None];
        // Snapshot slots: engine snapshot id + the oracle state frozen
        // when the snapshot was taken.
        let mut snaps: Vec<Option<(easia_db::SnapshotId, BTreeMap<i64, i64>)>> =
            vec![None, None, None];
        // The SQL session: the oracle state it reads (committed at its
        // BEGIN, plus its own writes) and its write buffer.
        let mut session: Option<(BTreeMap<i64, i64>, Vec<BufOp>)> = None;
        // Serial oracle: the committed state.
        let mut committed: BTreeMap<i64, i64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Begin => {
                    if let Some(slot) = writers.iter_mut().find(|w| w.is_none()) {
                        *slot = Some((db.begin_txn(), Vec::new()));
                    }
                }
                Op::Write { w, kind, k, v } => {
                    let Some((t, buf)) = writers[w].as_mut() else { continue };
                    let (sql, ok_buf) = write_sql(kind, k, v);
                    // Mirror outcomes: the engine decides (uniqueness,
                    // visibility, first-committer-wins); the oracle
                    // buffers exactly the writes the engine accepted.
                    if accepted(kind, &db.txn_execute(*t, &sql, &[])) {
                        buf.push(ok_buf);
                    }
                }
                Op::Commit { w } => {
                    if let Some((t, buf)) = writers[w].take() {
                        db.commit_txn(t).unwrap();
                        // Serial point: apply the buffer atomically.
                        buf.iter().for_each(|b| apply(&mut committed, b));
                    }
                }
                Op::Rollback { w } => {
                    if let Some((t, _)) = writers[w].take() {
                        db.rollback_txn(t).unwrap();
                    }
                }
                Op::Snap => {
                    if let Some(slot) = snaps.iter_mut().find(|s| s.is_none()) {
                        *slot = Some((db.begin_snapshot(), committed.clone()));
                    }
                }
                Op::ReadSnap { s } => {
                    let Some((snap, frozen)) = snaps[s].as_ref() else { continue };
                    let rs = db
                        .snapshot_query(*snap, "SELECT K, V FROM T ORDER BY K", &[])
                        .unwrap();
                    prop_assert_eq!(&rs.rows, &oracle_rows(frozen));
                }
                Op::ReleaseSnap { s } => {
                    if let Some((snap, _)) = snaps[s].take() {
                        prop_assert!(db.release_snapshot(snap));
                    }
                }
                Op::Vacuum => {
                    // Vacuum at arbitrary points must never disturb a
                    // snapshot or latest read (checked by later ops).
                    db.vacuum();
                }
                Op::LatestRead | Op::SessionRead => {
                    // Outside the session a read sees exactly the
                    // oracle's committed state; inside it, the session's.
                    let rs = db.execute("SELECT K, V FROM T ORDER BY K").unwrap();
                    let want = session.as_ref().map_or(&committed, |(seen, _)| seen);
                    prop_assert_eq!(&rs.rows, &oracle_rows(want));
                }
                Op::AutoWrite { kind, k, v } => {
                    if session.is_some() {
                        continue;
                    }
                    let (sql, op) = write_sql(kind, k, v);
                    let result = db.execute(&sql);
                    // A committed key no open writer has touched is the
                    // statement's to change: no conflict, one row.
                    let touched = writers.iter().flatten().flat_map(|(_, buf)| buf).any(
                        |b| matches!(*b, BufOp::Put(j, _) | BufOp::Del(j) if j == k),
                    );
                    if kind != 0 && committed.contains_key(&k) && !touched {
                        prop_assert_eq!(result.as_ref().map(|rs| rs.affected).ok(), Some(1));
                    }
                    if accepted(kind, &result) {
                        apply(&mut committed, &op);
                    }
                }
                Op::SessionBegin => {
                    if session.is_none() {
                        db.execute("BEGIN").unwrap();
                        session = Some((committed.clone(), Vec::new()));
                    }
                }
                Op::SessionWrite { kind, k, v } => {
                    let Some((seen, buf)) = session.as_mut() else { continue };
                    let (sql, op) = write_sql(kind, k, v);
                    if accepted(kind, &db.execute(&sql)) {
                        apply(seen, &op);
                        buf.push(op);
                    }
                }
                Op::SessionEnd { commit } => {
                    if let Some((_, buf)) = session.take() {
                        if commit {
                            db.execute("COMMIT").unwrap();
                            buf.iter().for_each(|b| apply(&mut committed, b));
                        } else {
                            db.execute("ROLLBACK").unwrap();
                        }
                    }
                }
            }
        }

        // Drain: roll back in-flight writers, release snapshots, vacuum
        // to the clean steady state, and check the final image.
        if session.take().is_some() {
            db.execute("ROLLBACK").unwrap();
        }
        for w in writers.iter_mut() {
            if let Some((t, _)) = w.take() {
                db.rollback_txn(t).unwrap();
            }
        }
        for s in snaps.iter_mut() {
            if let Some((snap, _)) = s.take() {
                db.release_snapshot(snap);
            }
        }
        db.vacuum();
        let rs = db.execute("SELECT K, V FROM T ORDER BY K").unwrap();
        prop_assert_eq!(&rs.rows, &oracle_rows(&committed));
        // Steady state: no snapshots, no txns, so the version map must
        // have been fully frozen/reclaimed and the heap holds exactly
        // the live rows.
        prop_assert_eq!(db.open_snapshots(), 0);
        prop_assert_eq!(db.active_txns(), 0);
        prop_assert_eq!(db.table("T").unwrap().heap.len(), committed.len());
    }
}

// ---- replay finds rows by their bytes; reopened indexes are the heap ----

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("easia-db-mvcc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `NaN != NaN`, so a replay that looked the logged row up with `==`
/// could not find it: the database could be written but never reopened.
#[test]
fn a_log_that_deletes_or_updates_a_nan_row_reopens() {
    let dir = temp_dir("nan-replay");
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, X DOUBLE)")
            .unwrap();
        db.execute("CREATE TABLE U (K INTEGER, X DOUBLE)").unwrap();
        for table in ["T", "U"] {
            for k in 1..=3 {
                db.execute_with_params(
                    &format!("INSERT INTO {table} VALUES (?, ?)"),
                    &[Value::Int(k), Value::Double(f64::NAN)],
                )
                .unwrap();
            }
            db.execute(&format!("DELETE FROM {table} WHERE K = 1"))
                .unwrap();
            db.execute(&format!("UPDATE {table} SET K = 20 WHERE K = 2"))
                .unwrap();
        }
    }
    let mut db = Database::open(&dir).unwrap();
    for table in ["T", "U"] {
        let rs = db
            .execute(&format!("SELECT K, X FROM {table} ORDER BY K"))
            .unwrap();
        assert_eq!(keys(&db, &rs), vec![3, 20], "{table}");
        assert!(rs
            .rows
            .iter()
            .all(|r| matches!(r[1], Value::Double(x) if x.is_nan())));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every index of every table answers as a filter over the table's own
/// full scan does: each stored key's point lookup, the walk under each
/// leading column value, and a range between two stored keys.
fn assert_indexes_are_the_heap(db: &Database, table: &str) {
    use easia_db::index::btree::has_prefix;
    use easia_db::value::decode_row;
    use std::cmp::Ordering;
    let t = db.table(table).unwrap();
    let rows: Vec<_> = (t.heap.records())
        .map(|(rid, rec)| (rid, decode_row(rec, &mut 0).unwrap()))
        .collect();
    assert_eq!(rows.len(), t.heap.len());
    let cmp = |a: &[Value], b: &[Value]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(a.len().cmp(&b.len()))
    };
    for ix in &t.indexes {
        let key_of = |row: &[Value]| -> Vec<Value> {
            ix.col_indices.iter().map(|&i| row[i].clone()).collect()
        };
        assert_eq!(ix.tree.len(), rows.len(), "{table}.{}", ix.name);
        let filter = |keep: &dyn Fn(&[Value]) -> bool| {
            let mut hits: Vec<_> = rows
                .iter()
                .filter(|(_, row)| keep(&key_of(row)))
                .map(|(rid, _)| *rid)
                .collect();
            hits.sort();
            hits
        };
        let walk = |lo: &[Value], keep: &dyn Fn(&[Value]) -> bool| {
            let mut hits = Vec::new();
            ix.tree.scan_from(lo, |k, rids| {
                let inside = keep(&k.values());
                if inside {
                    hits.extend_from_slice(rids);
                }
                inside
            });
            hits.sort();
            hits
        };
        let mut keys: Vec<Vec<Value>> = rows.iter().map(|(_, row)| key_of(row)).collect();
        keys.sort_by(|a, b| cmp(a, b));
        for key in keys.iter().step_by(keys.len() / 40 + 1) {
            let point = filter(&|k| cmp(k, key) == Ordering::Equal);
            assert!(!point.is_empty());
            assert_eq!(ix.tree.get(key), point, "{table}.{} = {key:?}", ix.name);
            let lead = &key[..1];
            assert_eq!(
                walk(lead, &|k| has_prefix(k, lead)),
                filter(&|k| has_prefix(k, lead)),
                "{table}.{} under {lead:?}",
                ix.name
            );
        }
        let absent = [Value::Str("no such key".into())];
        assert!(ix.tree.get(&absent).is_empty());
        if keys.len() > 8 {
            let (lo, hi) = (&keys[keys.len() / 4], &keys[keys.len() / 2]);
            assert_eq!(
                walk(lo, &|k| cmp(k, hi) != Ordering::Greater),
                filter(&|k| cmp(k, lo) != Ordering::Less && cmp(k, hi) != Ordering::Greater),
                "{table}.{} between {lo:?} and {hi:?}",
                ix.name
            );
        }
    }
}

/// Every row of `table` as text (a NaN is not `==` to itself), sorted.
fn dump(db: &mut Database, table: &str) -> Vec<String> {
    let rs = db.execute(&format!("SELECT * FROM {table}")).unwrap();
    let mut rows: Vec<String> = rs.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

/// A checkpointed base, then a log of 500 deletes and 500 updates (and
/// the inserts between them): the reopened database — checkpoint image
/// loaded, indexes built from sorted runs, log replayed row by row on
/// top — is the database that never closed, and so is the one recovered
/// after the log's tail tore mid-flush.
#[test]
fn checkpoint_then_a_long_log_replays_to_the_state_that_never_closed() {
    let dir = temp_dir("long-log");
    let mut db = Database::open(&dir).unwrap();
    db.execute(
        "CREATE TABLE F (NAME VARCHAR(20), SIM VARCHAR(20), N INTEGER, X DOUBLE, \
         PRIMARY KEY (NAME, SIM))",
    )
    .unwrap();
    db.execute("CREATE INDEX IX_F_SIM ON F (SIM)").unwrap();
    db.execute("CREATE INDEX IX_F_X ON F (X, N)").unwrap();
    db.execute("CREATE TABLE LOOSE (A INTEGER, B VARCHAR(10))")
        .unwrap();
    let insert = |db: &mut Database, i: i64| {
        let x = match i % 40 {
            0 => Value::Double(f64::NAN),
            1 => Value::Null,
            _ => Value::Double((i % 17) as f64 / 2.0),
        };
        db.execute_with_params(
            "INSERT INTO F VALUES (?, ?, ?, ?)",
            &[
                Value::Str(format!("t{:02}.edf", i % 25)),
                Value::Str(format!("S{:04}", i / 25)),
                Value::Int(i),
                x,
            ],
        )
        .unwrap();
        db.execute_with_params(
            "INSERT INTO LOOSE VALUES (?, ?)",
            &[Value::Int(i % 10), Value::Str(format!("b{}", i % 3))],
        )
        .unwrap();
    };
    db.execute("BEGIN").unwrap();
    for i in 0..5000 {
        insert(&mut db, i);
    }
    db.execute("COMMIT").unwrap();
    db.checkpoint().unwrap();

    let pk = |i: i64| {
        [
            Value::Str(format!("t{:02}.edf", i % 25)),
            Value::Str(format!("S{:04}", i / 25)),
        ]
    };
    for i in 0..500i64 {
        let victim = i * 10;
        let deleted = db
            .execute_with_params("DELETE FROM F WHERE NAME = ? AND SIM = ?", &pk(victim))
            .unwrap();
        let [name, sim] = pk(victim + 5);
        let updated = db
            .execute_with_params(
                "UPDATE F SET X = ?, N = ? WHERE NAME = ? AND SIM = ?",
                &[
                    if i % 7 == 0 {
                        Value::Double(f64::NAN)
                    } else {
                        Value::Double(-(i as f64))
                    },
                    Value::Int(100_000 + i),
                    name,
                    sim,
                ],
            )
            .unwrap();
        assert_eq!((deleted.affected, updated.affected), (1, 1));
        if i % 50 == 0 {
            insert(&mut db, 5000 + i);
            db.execute_with_params(
                "DELETE FROM LOOSE WHERE A = ? AND B = 'b0'",
                &[Value::Int(i % 10)],
            )
            .unwrap();
        }
    }
    let want = (dump(&mut db, "F"), dump(&mut db, "LOOSE"));
    assert_eq!(want.0.len(), 5000 + 10 - 500);
    assert_indexes_are_the_heap(&db, "F");
    // One more commit, whose frame the crash below tears.
    db.execute("DELETE FROM F WHERE N = 1").unwrap();
    drop(db);

    let wal = dir.join("wal.log");
    let whole = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &whole[..whole.len() - 3]).unwrap();
    let (mut db, report) = Database::open_recovering(&dir).unwrap();
    assert!(report.torn_bytes > 0 && report.corruption.is_none());
    assert!(report.records_replayed > 1000);
    assert_eq!((dump(&mut db, "F"), dump(&mut db, "LOOSE")), want);
    assert_indexes_are_the_heap(&db, "F");
    assert_indexes_are_the_heap(&db, "LOOSE");

    // Checkpoint → reopen: no log left, every index from its run alone.
    db.checkpoint().unwrap();
    drop(db);
    let mut db = Database::open(&dir).unwrap();
    assert_eq!((dump(&mut db, "F"), dump(&mut db, "LOOSE")), want);
    assert_indexes_are_the_heap(&db, "F");
    for (q, n) in [
        (
            "SELECT N FROM F WHERE NAME = 't07.edf' AND SIM = 'S0003'",
            1,
        ),
        ("SELECT N FROM F WHERE SIM = 'S0100'", 22),
        (
            "SELECT N FROM F WHERE NAME = 't00.edf' AND SIM = 'S0000'",
            0,
        ),
    ] {
        assert_eq!(db.execute(q).unwrap().rows.len(), n, "{q}");
    }
    // The reopened trees take writes like any other.
    db.execute("INSERT INTO F VALUES ('t00.edf', 'S0000', 0, 1.5)")
        .unwrap();
    db.execute("DELETE FROM F WHERE SIM = 'S0100'").unwrap();
    db.vacuum();
    assert_indexes_are_the_heap(&db, "F");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's frame cut at every byte offset inside it — a crash
/// while the frame was appended, before the log was truncated — reopens
/// to the database that never closed: below a whole frame the base and
/// the log, from a whole frame on the frame with its commits skipped in
/// the log. Never a mix of the two. (The index walk runs on a stride of
/// the cuts: at every cut it would take most of a minute unoptimised.)
#[test]
fn a_frame_cut_at_every_offset_reopens_to_the_state_that_never_closed() {
    let dir = temp_dir("cut-frame");
    let mut db = Database::open(&dir).unwrap();
    db.execute(
        "CREATE TABLE F (NAME VARCHAR(20), SIM VARCHAR(20), N INTEGER, X DOUBLE, \
         PRIMARY KEY (NAME, SIM))",
    )
    .unwrap();
    db.execute("CREATE INDEX IX_F_X ON F (X)").unwrap();
    db.execute("CREATE TABLE LOOSE (A INTEGER, B VARCHAR(10))")
        .unwrap();
    for i in 0..40i64 {
        db.execute_with_params(
            "INSERT INTO F VALUES (?, ?, ?, ?)",
            &[
                Value::Str(format!("t{:02}.edf", i % 8)),
                Value::Str(format!("S{:02}", i / 8)),
                Value::Int(i),
                Value::Double((i % 6) as f64),
            ],
        )
        .unwrap();
        db.execute_with_params("INSERT INTO LOOSE VALUES (?, 'b')", &[Value::Int(i)])
            .unwrap();
    }
    db.checkpoint().unwrap();
    let base = std::fs::metadata(dir.join("snapshot.db")).unwrap().len();
    db.execute("DELETE FROM F WHERE N % 7 = 3").unwrap();
    db.execute("UPDATE F SET X = -1 WHERE N % 5 = 1").unwrap();
    db.execute("INSERT INTO F VALUES ('t99.edf', 'S99', 99, NULL)")
        .unwrap();
    let want = (dump(&mut db, "F"), dump(&mut db, "LOOSE"));
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    std::fs::write(dir.join("wal.log"), &log).unwrap();

    let path = dir.join("snapshot.db");
    let whole = std::fs::metadata(&path).unwrap().len();
    assert!(whole > base + 8192, "a frame of F's one page is appended");
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    for cut in (base..=whole).rev() {
        file.set_len(cut).unwrap();
        let mut db = Database::open(&dir).unwrap();
        let got = (dump(&mut db, "F"), dump(&mut db, "LOOSE"));
        assert!(got == want, "cut at {cut} of {base}..{whole}");
        // Every cut inside the frame header, whole and one byte short,
        // and a stride through the rest.
        if cut < base + 16 || cut + 1 >= whole || cut % 97 == 0 {
            assert_indexes_are_the_heap(&db, "F");
            assert_indexes_are_the_heap(&db, "LOOSE");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

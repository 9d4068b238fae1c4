//! Differential property of incremental checkpoints: random histories of
//! INSERT, UPDATE and DELETE, in autocommit statements and in a
//! transaction that stays in flight across checkpoints, beside a
//! snapshot that pins committed deletes, `vacuum`, a `CREATE INDEX`
//! midway, CLOBs too large for a page, and checkpoints and reopens at
//! random points — among them a crash between a checkpoint's publish and
//! its log truncate.
//!
//! Three databases run each history in lockstep:
//!
//! * `frames` checkpoints as the engine does: a frame of its dirty pages
//!   on a base, the whole image only when the rewrite rule says so;
//! * `whole` runs a `CREATE TABLE` before each checkpoint, which forces
//!   every one of its checkpoints to rewrite the whole image;
//! * `never` lives in memory and never closes. At a reopen, its
//!   transaction rolls back and its snapshot is released, as a restart
//!   drops them from the other two.
//!
//! After each checkpoint, what each directory opens to — and after each
//! reopen, the reopened database — agrees: `frames` holds the rows
//! `never` holds, its indexes file its heap, and its heap holds
//! `whole`'s records in `whole`'s order (a quiescent vacuum compacts,
//! which renumbers row ids).
//!
//! Beside the property: updates keep the file and the heap to the size
//! of the live rows, and no byte of a row never committed, or deleted,
//! reaches the file.

use easia_db::storage::RowId;
use easia_db::value::decode_row;
use easia_db::{Database, SnapshotId, TxnId, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// `V` takes only the writes of the transaction in flight, so that its
/// pages change only when that transaction writes.
const TABLES: [&str; 3] = ["T", "U", "V"];
/// Rows in `T` and in `U` before a history starts.
const PREFILL: i64 = 100;

fn dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("easia-db-history-{}-{name}", std::process::id()))
}

/// A CLOB of `len` characters; over 4 KiB one leaves the pages for the
/// overflow area.
fn clob(len: usize, fill: u8) -> Value {
    Value::Clob(char::from(b'a' + fill % 26).to_string().repeat(len))
}

/// One step of a history, as the strategy draws it.
type Step = (u8, u8, u8, u16);

/// The three databases, the transaction each has in flight and the
/// snapshot each holds.
struct Run {
    frames: Database,
    whole: Database,
    never: Database,
    txn: Option<[TxnId; 3]>,
    snap: Option<[SnapshotId; 3]>,
    dirs: [PathBuf; 2],
    pads: usize,
}

impl Run {
    fn new() -> Run {
        let dirs = [dir("frames"), dir("whole")];
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        let mut run = Run {
            frames: Database::open(&dirs[0]).unwrap(),
            whole: Database::open(&dirs[1]).unwrap(),
            never: Database::new_in_memory(),
            txn: None,
            snap: None,
            dirs,
            pads: 0,
        };
        run.all(
            "CREATE TABLE T (K INTEGER PRIMARY KEY, G INTEGER, D CLOB)",
            &[],
        );
        run.all("CREATE TABLE U (A INTEGER, B VARCHAR(20))", &[]);
        run.all("CREATE TABLE V (K INTEGER, G INTEGER)", &[]);
        // A base of a few pages, so that frames stay under it for a while.
        run.all("BEGIN", &[]);
        for i in 0..PREFILL {
            let (k, g) = (Value::Int(100 + i), Value::Int(i % 16));
            let d = clob(300, i as u8);
            run.all("INSERT INTO T VALUES (?, ?, ?)", &[k.clone(), g.clone(), d]);
            run.all("INSERT INTO U VALUES (?, 'prefill')", &[g]);
        }
        run.all("COMMIT", &[]);
        run.checkpoint().unwrap();
        run
    }

    fn dbs(&mut self) -> [&mut Database; 3] {
        [&mut self.frames, &mut self.whole, &mut self.never]
    }

    /// Run `sql` on all three: each succeeds, or each fails.
    fn all(&mut self, sql: &str, params: &[Value]) {
        let oks = self
            .dbs()
            .map(|db| db.execute_with_params(sql, params).is_ok());
        assert!(oks[0] == oks[1] && oks[1] == oks[2], "{sql}: {oks:?}");
    }

    /// Run `sql` inside the transaction in flight, opening one if none is.
    fn in_txn(&mut self, sql: &str, params: &[Value]) {
        let txn = match self.txn {
            Some(t) => t,
            None => self.dbs().map(|db| db.begin_txn()),
        };
        self.txn = Some(txn);
        let oks = self
            .dbs()
            .into_iter()
            .zip(txn)
            .map(|(db, t)| db.txn_execute(t, sql, params).is_ok())
            .collect::<Vec<_>>();
        assert!(oks.iter().all(|&ok| ok == oks[0]), "{sql}: {oks:?}");
    }

    fn end_txn(&mut self, commit: bool) {
        if let Some(txn) = self.txn.take() {
            for (db, t) in self.dbs().into_iter().zip(txn) {
                match commit {
                    true => db.commit_txn(t).map(|_| ()),
                    false => db.rollback_txn(t),
                }
                .unwrap();
            }
        }
    }

    /// Checkpoint both file-backed databases. Their logs are then empty,
    /// so what each directory opens to is its image alone: the rows
    /// committed so far.
    fn checkpoint(&mut self) -> Result<(), TestCaseError> {
        self.pads += 1;
        let pad = format!("CREATE TABLE PAD{} (A INTEGER)", self.pads);
        self.whole.execute(&pad).unwrap();
        self.frames.checkpoint().unwrap();
        self.whole.checkpoint().unwrap();
        let mut images = self.dirs.clone().map(|d| Database::open(&d).unwrap());
        let [frames, whole] = &mut images;
        check(frames, whole, &mut self.never)
    }

    /// Close and reopen the file-backed two; with `crash`, after a
    /// checkpoint whose log truncate never happened.
    fn reopen(&mut self, crash: bool) -> Result<(), TestCaseError> {
        let logs = self
            .dirs
            .clone()
            .map(|d| std::fs::read(d.join("wal.log")).unwrap());
        if crash {
            self.checkpoint()?;
        }
        // A restart drops both; rolling back writes nothing to disk.
        self.end_txn(false);
        if let Some([_, _, snap]) = self.snap.take() {
            self.never.release_snapshot(snap);
        }
        if crash {
            for (d, log) in self.dirs.iter().zip(&logs) {
                std::fs::write(d.join("wal.log"), log).unwrap();
            }
        }
        self.frames = Database::open(&self.dirs[0]).unwrap();
        self.whole = Database::open(&self.dirs[1]).unwrap();
        check(&mut self.frames, &mut self.whole, &mut self.never)
    }

    fn step(&mut self, (op, a, b, c): Step) -> Result<(), TestCaseError> {
        let k = Value::Int(i64::from(c % 48));
        let g = Value::Int(i64::from(b % 16));
        let d = match a % 8 {
            0 => clob(5000 + usize::from(c % 300), b),
            _ => clob(usize::from(a % 40), b),
        };
        match op % 20 {
            0 | 1 => self.all("INSERT INTO T VALUES (?, ?, ?)", &[k, g, d]),
            2 => self.all("UPDATE T SET G = ? WHERE K = ?", &[g, k]),
            3 => self.all("UPDATE T SET D = ? WHERE K = ?", &[d, k]),
            4 => self.all("DELETE FROM T WHERE K = ?", &[k]),
            5 => self.all("INSERT INTO U VALUES (?, 'u')", &[g]),
            6 => self.all("DELETE FROM U WHERE A = ?", &[g]),
            7 | 8 => match a % 5 {
                0 => self.in_txn("INSERT INTO T VALUES (?, ?, ?)", &[k, g, d]),
                1 => self.in_txn("UPDATE T SET G = ? WHERE K = ?", &[g, k]),
                2 => self.in_txn("DELETE FROM T WHERE K = ?", &[k]),
                _ => self.in_txn("INSERT INTO V VALUES (?, ?)", &[k, g]),
            },
            9..=11 => self.end_txn(a % 4 != 0),
            12 => match self.snap.take() {
                None => self.snap = Some(self.dbs().map(|db| db.begin_snapshot())),
                Some(snap) => {
                    for (db, s) in self.dbs().into_iter().zip(snap) {
                        db.release_snapshot(s);
                    }
                }
            },
            13 => {
                for db in self.dbs() {
                    db.vacuum();
                }
            }
            14 => self.all("CREATE INDEX IX_G ON T (G)", &[]),
            15..=17 => self.checkpoint()?,
            18 => self.reopen(false)?,
            _ => self.reopen(true)?,
        }
        Ok(())
    }
}

/// `frames` holds the rows `never` holds (in its latest committed view),
/// its indexes file its heap, and its heap holds `whole`'s records in
/// `whole`'s order.
fn check(
    frames: &mut Database,
    whole: &mut Database,
    never: &mut Database,
) -> Result<(), TestCaseError> {
    for table in TABLES {
        prop_assert!(dump(frames, table) == dump(never, table), "{table} differs");
        prop_assert!(
            records(frames, table) == records(whole, table),
            "{table}: the frames' heap is not the whole rewrite's"
        );
        indexes_are_the_heap(frames, table)?;
    }
    Ok(())
}

/// Every row of `table` as text (a NaN is not `==` to itself), sorted.
fn dump(db: &mut Database, table: &str) -> Vec<String> {
    let rs = db.execute(&format!("SELECT * FROM {table}")).unwrap();
    let mut rows: Vec<String> = rs.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

/// `table`'s stored records, in storage order.
fn records(db: &Database, table: &str) -> Vec<Vec<u8>> {
    let heap = &db.table(table).unwrap().heap;
    heap.records().map(|(_, rec)| rec.to_vec()).collect()
}

/// Every index of `table` files each heap row once, under the row's own
/// key cells, in ascending key order.
fn indexes_are_the_heap(db: &Database, table: &str) -> Result<(), TestCaseError> {
    let t = db.table(table).unwrap();
    let rows: std::collections::HashMap<RowId, Vec<Value>> = (t.heap.records())
        .map(|(rid, rec)| (rid, decode_row(rec, &mut 0).unwrap()))
        .collect();
    for ix in &t.indexes {
        let (mut ok, mut seen, mut last) = (true, HashSet::new(), None::<Vec<Value>>);
        ix.tree.scan_from(&[], |key, rids| {
            let key = key.values();
            let ascends = last.as_ref().is_none_or(|last| {
                let cmp = last.iter().zip(&key).map(|(a, b)| a.total_cmp(b));
                cmp.fold(Ordering::Equal, Ordering::then) == Ordering::Less
            });
            ok &= ascends && rids.windows(2).all(|w| w[0] < w[1]);
            for rid in rids {
                ok &= seen.insert(*rid)
                    && rows.get(rid).is_some_and(|row| {
                        (ix.col_indices.iter().zip(&key))
                            .all(|(&c, k)| row[c].total_cmp(k) == Ordering::Equal)
                    });
            }
            last = Some(key);
            ok
        });
        prop_assert!(ok, "{table}.{} does not file its heap", ix.name);
        prop_assert!(seen.len() == rows.len() && ix.tree.len() == rows.len());
    }
    Ok(())
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(Path::new(d));
    }
}

proptest! {
    #[test]
    fn frames_reopen_to_the_database_that_never_closed(
        steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..64),
    ) {
        let mut run = Run::new();
        let dirs = run.dirs.clone();
        for &step in &steps {
            run.step(step)?;
        }
        run.reopen(false)?;
        drop(run);
        cleanup(&dirs);
    }
}

/// `snapshot.db`'s length in `dir`.
fn file_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("snapshot.db")).unwrap().len()
}

/// Rounds of updates, each checkpointed, reopened every fifth: a
/// quiescent vacuum compacts, so neither the heap nor the file grows
/// with the versions ever written, only with the live rows.
#[test]
fn updates_keep_the_file_and_the_heap_to_the_live_rows() {
    const ROWS: i64 = 2000;
    let d = dir("updates");
    let _ = std::fs::remove_dir_all(&d);
    let mut db = Database::open(&d).unwrap();
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, G INTEGER, D VARCHAR(200))")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for k in 0..ROWS {
        db.insert_row(
            "T",
            vec![Value::Int(k), Value::Int(0), Value::Str("x".repeat(100))],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.checkpoint().unwrap();
    let pages = |db: &Database| db.table("T").unwrap().heap.page_count();
    let (base_pages, base_len) = (pages(&db), file_len(&d));
    for round in 1..=40i64 {
        db.execute_with_params(
            "UPDATE T SET G = ? WHERE K % 4 = ?",
            &[Value::Int(round), Value::Int(round % 4)],
        )
        .unwrap();
        db.checkpoint().unwrap();
        if round % 5 == 0 {
            drop(db);
            db = Database::open(&d).unwrap();
        }
        assert!(
            pages(&db) <= 2 * base_pages,
            "round {round}: {} pages for rows that took {base_pages}",
            pages(&db)
        );
        assert!(
            file_len(&d) <= 4 * base_len,
            "round {round}: a file of {} B for rows whose image took {base_len} B",
            file_len(&d)
        );
    }
    let rs = db.execute("SELECT COUNT(*), SUM(G) FROM T").unwrap();
    let sum: i64 = (0..4)
        .map(|r| (37..=40).find(|x| x % 4 == r).unwrap())
        .sum();
    assert_eq!(
        rs.rows,
        vec![vec![Value::Int(ROWS), Value::Int(sum * ROWS / 4)]]
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&d);
}

/// A row inserted by a transaction still in flight at a checkpoint and
/// then rolled back, and a committed row deleted again, leave no byte in
/// `snapshot.db`: a checkpoint copies only the records its view sees.
/// A row an earlier frame holds is gone once the whole image is
/// rewritten.
#[test]
fn rows_never_committed_or_deleted_leave_no_bytes_in_the_file() {
    let d = dir("secrets");
    let _ = std::fs::remove_dir_all(&d);
    let mut db = Database::open(&d).unwrap();
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR(40))")
        .unwrap();
    db.execute("INSERT INTO T VALUES (1, 'kept')").unwrap();
    db.checkpoint().unwrap();
    let holds = |secret: &str| {
        let file = std::fs::read(d.join("snapshot.db")).unwrap();
        file.windows(secret.len()).any(|w| w == secret.as_bytes())
    };

    let t = db.begin_txn();
    db.txn_execute(t, "INSERT INTO T VALUES (2, 'uncommitted-secret')", &[])
        .unwrap();
    db.checkpoint().unwrap();
    assert!(
        !holds("uncommitted-secret"),
        "an in-flight insert reached the file"
    );
    db.rollback_txn(t).unwrap();
    db.checkpoint().unwrap();
    assert!(!holds("uncommitted-secret"));

    db.execute("INSERT INTO T VALUES (3, 'deleted-secret')")
        .unwrap();
    db.execute("DELETE FROM T WHERE K = 3").unwrap();
    db.checkpoint().unwrap();
    assert!(!holds("deleted-secret"), "a deleted row reached the file");

    db.execute("INSERT INTO T VALUES (4, 'framed-secret')")
        .unwrap();
    db.checkpoint().unwrap();
    assert!(holds("framed-secret"));
    db.execute("DELETE FROM T WHERE K = 4").unwrap();
    db.execute("CREATE TABLE PAD (A INTEGER)").unwrap();
    db.checkpoint().unwrap();
    assert!(
        !holds("framed-secret"),
        "the whole rewrite kept a deleted row"
    );

    drop(db);
    let mut db = Database::open(&d).unwrap();
    let rs = db.execute("SELECT K, V FROM T").unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![Value::Int(1), Value::Str("kept".into())]]
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&d);
}

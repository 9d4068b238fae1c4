//! The [`Database`] facade: catalog + heaps + indexes + transactions,
//! DDL/DML execution, constraint enforcement, and the SQL/MED observer
//! hook that `easia-datalink` attaches link-control semantics through.

use crate::crc::crc32;
use crate::error::{DbError, Result};
use crate::exec;
use crate::expr::{Bound, EvalContext, FnRegistry, RowSchema};
use crate::index::btree::KeyRef;
use crate::index::BPlusTree;
use crate::mvcc::{Csn, MvccState, ReadView, SnapshotId, TxnId, VacuumStats, LATEST_CSN};
use crate::schema::{ColumnDef, DatalinkSpec, ForeignKey, TableSchema};
use crate::scrub::ScrubReport;
use crate::sql::ast::{ColumnDefAst, Stmt, TableConstraint};
use crate::sql::parse;
use crate::storage::{HeapTable, RowId, PAGE_SIZE};
use crate::txn::{
    batch_header, frame_at, seal_batch, Frame, Wal, WalCorruption, WalRecord, BATCH_HEADER_LEN,
};
use crate::value::{
    as_cell, cell_cmp, encode_cells, encode_row, sieve_record, Lent, Records, Value,
};
use std::collections::{BTreeMap, HashSet};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Output rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by DML.
    pub affected: usize,
}

impl ResultSet {
    /// Single value convenience accessor (first row, first column).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Hook through which external-data managers participate in DML and
/// SELECT — the engine half of SQL/MED link control.
///
/// `on_link`/`on_unlink` fire *during* statement execution (the prepare
/// phase: the file manager verifies the file and marks it link-pending);
/// `on_commit`/`on_rollback` fire when the surrounding transaction
/// resolves. `render_datalink` lets the manager splice an access token
/// into DATALINK values as they are SELECTed.
pub trait LinkObserver {
    /// A DATALINK value is being inserted (or is the new value of an
    /// update). Returning an error vetoes the whole statement — e.g. the
    /// referenced file does not exist (`FILE LINK CONTROL`).
    fn on_link(&self, table: &str, column: &str, spec: &DatalinkSpec, url: &str) -> Result<()>;
    /// A DATALINK value is being deleted/overwritten.
    fn on_unlink(&self, table: &str, column: &str, spec: &DatalinkSpec, url: &str) -> Result<()>;
    /// The transaction containing earlier link/unlink calls committed.
    fn on_commit(&self);
    /// The transaction containing earlier link/unlink calls rolled back.
    fn on_rollback(&self);
    /// Rewrite a DATALINK value for SELECT output (token insertion).
    /// Return `None` to leave the stored form unchanged.
    fn render_datalink(&self, spec: &DatalinkSpec, url: &str) -> Option<String>;
}

/// A secondary (or primary) index.
#[derive(Debug)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Key column positions in the table's row layout.
    pub col_indices: Vec<usize>,
    /// Whether keys must be unique (NULL-free keys only).
    pub unique: bool,
    /// Whether `create_table` made this index, so an image need not name it.
    pub(crate) implicit: bool,
    /// The tree.
    pub tree: BPlusTree,
}

/// `row`'s key in columns `cols`, as a tree files it, written over `key`.
fn key_into<'k>(cols: &[usize], row: &[Value], key: &'k mut Vec<u8>) -> KeyRef<'k> {
    key.clear();
    encode_cells(cols.iter().map(|&i| &row[i]), key);
    KeyRef(key)
}

/// A table: schema + heap + indexes.
#[derive(Debug)]
pub struct Table {
    /// Schema.
    pub schema: TableSchema,
    /// Row storage.
    pub heap: HeapTable,
    /// Indexes (PK index first if present).
    pub indexes: Vec<Index>,
}

impl Table {
    /// Find an index exactly matching `cols`.
    pub fn index_matching(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.col_indices == cols)
    }

    /// Whether a row `visible` admits holds `key`, a record of cells, in
    /// columns `cols` — the one probe of both FK checks. Equal is the
    /// index's equality ([`cell_cmp`]): `1` is `1.0`, `-0.0` is `0.0`,
    /// NaN is NaN, a VARCHAR is the CLOB of its text. An index led by
    /// `cols` is walked under the key; otherwise every stored record's
    /// cells are compared in place. No row is decoded.
    fn holds_key(
        &self,
        cols: &[usize],
        key: KeyRef,
        visible: impl Fn(RowId) -> bool,
    ) -> Result<bool> {
        if let Some(ix) = self
            .indexes
            .iter()
            .find(|ix| ix.col_indices.starts_with(cols))
        {
            let mut found = false;
            ix.tree.scan_from_key(key, |k, rids| {
                let under_key = k.has_prefix(key);
                found = under_key && rids.iter().any(|&rid| visible(rid));
                under_key && !found
            });
            return Ok(found);
        }
        let want: Vec<_> = key.cells().collect();
        let read = vec![false; self.schema.columns.len()];
        let mut cells = Vec::with_capacity(read.len());
        for (rid, rec) in self.heap.records() {
            cells.clear();
            sieve_record(rec, &mut 0, &read, |_, tag, payload, _| {
                cells.push((tag, payload));
                true
            })?;
            let equal =
                |(&c, &w): (&usize, _)| cells.get(c).is_some_and(|&cell| cell_cmp(cell, w).is_eq());
            if cols.iter().zip(&want).all(equal) && visible(rid) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The embedded database.
pub struct Database {
    tables: BTreeMap<String, Table>,
    functions: FnRegistry,
    observers: Vec<Rc<dyn LinkObserver>>,
    /// MVCC registry: txn/snapshot bookkeeping + row-version metadata.
    mvcc: MvccState,
    /// Per-transaction write sets (redo + created/deleted row ids).
    txns: BTreeMap<TxnId, TxnWrites>,
    /// The implicit/explicit SQL session transaction (legacy single-txn
    /// statement API: `BEGIN`/`COMMIT`/autocommit).
    session: Option<TxnId>,
    /// Whether the session transaction was opened by an explicit `BEGIN`.
    session_explicit: bool,
    /// Transaction targeted by the currently-executing statement when the
    /// caller came in through [`Database::txn_execute`].
    cur: Option<TxnId>,
    /// The one in-flight transaction allowed to hold pending DATALINK
    /// link/unlink operations (LinkObserver hooks carry no txn id, so
    /// link control stays single-writer; see DESIGN.md).
    link_owner: Option<TxnId>,
    /// Open group-commit window, if any: staged WAL bytes + commit count.
    group: Option<GroupWindow>,
    wal: Wal,
    dir: Option<PathBuf>,
    /// Suppress WAL writes and observer calls during recovery replay.
    replaying: bool,
    /// Execution telemetry (None until a registry is attached).
    metrics: Option<crate::obs::DbMetrics>,
    /// WAL corruption events detected before metrics were attached
    /// (recovery runs first); folded into the counter at attach time.
    corruption_detected: u64,
    /// Monotonic count of successful mutating statements (DML and DDL).
    /// Not persisted: reopening resets it to zero, which conservatively
    /// invalidates any remote replica keyed on it.
    writes: u64,
    /// Where `snapshot.db`'s base and its last whole frame end (`None`
    /// until the file holds a base).
    image: Option<ImageExtent>,
    /// DDL ran, or a heap was compacted, since the last checkpoint: the
    /// next one rewrites the image (a frame names only tables the base
    /// created, by pages the base numbered).
    rewrite: bool,
}

/// The extent of a checkpoint file: byte offsets of the end of its base
/// and of its last whole frame.
#[derive(Debug, Clone, Copy)]
struct ImageExtent {
    base: u64,
    end: u64,
}

/// What recovery found and did while opening a durable database
/// (returned by [`Database::open_recovering`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Checksum-verified batch frames replayed.
    pub batches_replayed: usize,
    /// WAL records applied (including `Commit` markers).
    pub records_replayed: usize,
    /// Highest commit CSN recovered.
    pub recovered_csn: Csn,
    /// Bytes dropped as a clean torn tail (crash mid-flush).
    pub torn_bytes: u64,
    /// Mid-file damage, if any: replay stopped strictly before it.
    pub corruption: Option<WalCorruption>,
    /// Where the damaged log was quarantined (set iff `corruption`).
    pub quarantined: Option<PathBuf>,
}

/// Write set of one in-flight transaction.
#[derive(Default)]
struct TxnWrites {
    /// CSN ceiling of the transaction's read view (`LATEST_CSN` for the
    /// session transaction, which reads latest-committed like the legacy
    /// single-transaction engine did).
    view_csn: Csn,
    /// Logical redo, appended to the WAL in one unit at commit.
    redo: Vec<WalRecord>,
    /// Row versions this transaction created (for rollback removal).
    created: Vec<(String, RowId)>,
    /// Row versions this transaction delete-stamped (for rollback unstamp).
    deleted: Vec<(String, RowId)>,
}

/// An open group-commit window: commit records from multiple transactions
/// staged into one buffer, flushed with a single `sync_data`.
struct GroupWindow {
    buf: Vec<u8>,
    commits: u64,
}

const SNAPSHOT_FILE: &str = "snapshot.db";
/// What a checkpoint file starts with, before its base frame.
const SNAPSHOT_MAGIC: &[u8] = b"EASNAP4\0";
const WAL_FILE: &str = "wal.log";
const QUARANTINE_FILE: &str = "wal.log.quarantined";

impl Database {
    /// A volatile in-memory database.
    pub fn new_in_memory() -> Self {
        Database {
            tables: BTreeMap::new(),
            functions: FnRegistry::with_builtins(),
            observers: Vec::new(),
            mvcc: MvccState::default(),
            txns: BTreeMap::new(),
            session: None,
            session_explicit: false,
            cur: None,
            link_owner: None,
            group: None,
            wal: Wal::memory(),
            dir: None,
            replaying: false,
            metrics: None,
            corruption_detected: 0,
            writes: 0,
            image: None,
            rewrite: false,
        }
    }

    /// Monotonic count of successful mutating statements since this
    /// handle was opened. Federation replicas cache this alongside rows;
    /// a mismatch on a later batch header means the copy is stale.
    pub fn write_counter(&self) -> u64 {
        self.writes
    }

    /// Open (or create) a durable database in directory `dir`: loads the
    /// last snapshot, replays the committed tail of the WAL. A clean torn
    /// tail (crash mid-flush) is dropped batch-atomically; checksum
    /// damage is a typed [`DbError::WalCorrupt`] — use
    /// [`Database::open_recovering`] to salvage the clean prefix instead.
    pub fn open(dir: &Path) -> Result<Self> {
        let (db, _report) = Self::open_inner(dir, false)?;
        Ok(db)
    }

    /// Open a durable database, tolerating WAL corruption: the clean
    /// committed prefix before the damage is replayed, the damaged log is
    /// renamed aside (`wal.log.quarantined`, never deleted, never
    /// replayed past), and the salvaged state is immediately
    /// checkpointed so it is durable without the quarantined bytes.
    /// The report says exactly what was recovered; after a corruption,
    /// run `DataLinkManager::reconcile` to restore hub/file-server
    /// agreement over the rolled-back horizon.
    pub fn open_recovering(dir: &Path) -> Result<(Self, RecoveryReport)> {
        Self::open_inner(dir, true)
    }

    fn open_inner(dir: &Path, tolerate_corruption: bool) -> Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| DbError::Storage(format!("create {dir:?}: {e}")))?;
        let mut db = Database::new_in_memory();
        db.dir = Some(dir.to_path_buf());
        let snap = dir.join(SNAPSHOT_FILE);
        let mut image_csn = 0;
        if snap.exists() {
            let bytes = std::fs::read(&snap)
                .map_err(|e| DbError::Storage(format!("read snapshot: {e}")))?;
            image_csn = db.load_snapshot(&bytes)?;
        }
        db.rewrite = false;
        let wal_path = dir.join(WAL_FILE);
        let parse = Wal::read_with_info(&wal_path)?;
        if let Some(c) = &parse.corruption {
            if !tolerate_corruption {
                return Err(DbError::WalCorrupt {
                    offset: c.offset,
                    csn_horizon: c.csn_horizon,
                    detail: c.detail.clone(),
                });
            }
        }
        // A crash between publishing an image and truncating the log
        // leaves commits in the log that the image already holds: the
        // prefix up to the last of them is not replayed.
        let held = (parse.records.iter())
            .rposition(|r| matches!(r, WalRecord::Commit { csn } if *csn <= image_csn))
            .map_or(0, |i| i + 1);
        db.replaying = true;
        let records_replayed = parse.records.len() - held;
        for rec in parse.records.into_iter().skip(held) {
            db.apply_wal(rec)?;
        }
        db.replaying = false;
        let mut report = RecoveryReport {
            batches_replayed: parse.batches,
            records_replayed,
            recovered_csn: parse.last_csn,
            torn_bytes: parse.torn_bytes,
            corruption: parse.corruption,
            quarantined: None,
        };
        if report.corruption.is_some() {
            // Quarantine the damaged segment: move it aside untouched so
            // nothing ever replays past the damage, then re-persist the
            // salvaged prefix (snapshot + fresh log) so it stays durable
            // without the quarantined bytes.
            let q = dir.join(QUARANTINE_FILE);
            std::fs::rename(&wal_path, &q)
                .map_err(|e| DbError::Storage(format!("quarantine wal: {e}")))?;
            db.corruption_detected += 1;
            report.quarantined = Some(q);
            db.wal = Wal::open(&wal_path)?;
            db.checkpoint()?;
        } else {
            db.wal = Wal::open(&wal_path)?;
        }
        Ok((db, report))
    }

    /// Write a checkpoint and truncate the WAL.
    ///
    /// Non-blocking: runs under open snapshots and in-flight
    /// transactions by checkpointing *at the current commit horizon* —
    /// the image holds exactly the rows a fresh reader would see now.
    /// Uncommitted work is excluded (it reaches the fresh log at its own
    /// commit), and old versions pinned only by open snapshots are
    /// excluded too (snapshots do not survive a restart). Only an open
    /// group-commit window blocks: its staged-but-unsynced commits are
    /// already visible in memory and would otherwise be persisted twice.
    ///
    /// A checkpoint appends a frame of its dirty pages to `snapshot.db`
    /// and syncs it. The whole image is rewritten beside it and renamed
    /// into place instead when the file has no base, when DDL ran since
    /// the last checkpoint, when its frames together outgrow its base, or
    /// when deleted records take more than a quarter of the heaps' pages.
    /// The whole rewrite is a compaction: every heap with dead space is
    /// first rebuilt from its records ([`Database::compact`]). Either way
    /// the log empties last.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(()); // in-memory: nothing to do
        };
        if self.group.is_some() {
            return Err(DbError::Txn(
                "cannot checkpoint inside a commit window".into(),
            ));
        }
        if self.txns.is_empty() && self.mvcc.open_snapshots() == 0 {
            // Quiescent: reclaim dead versions first, so that the image
            // (and the version map) hold the live rows only.
            self.vacuum_internal();
        }
        let (dead, pages) = (self.tables.values()).fold((0, 0), |(d, p), t| {
            (d + t.heap.dead_bytes(), p + t.heap.page_count())
        });
        let full = self.rewrite
            || self.image.is_none_or(|i| i.end - i.base > i.base)
            || 4 * dead > pages * PAGE_SIZE;
        if full {
            self.compact();
        }
        // A versioned record's visibility can change without a heap
        // write, so its page is written whatever its dirty bit says.
        self.mark_versioned_dirty();
        let bytes = self.write_snapshot(full)?;
        let path = dir.join(SNAPSHOT_FILE);
        let publish = |image: Option<ImageExtent>| -> std::io::Result<ImageExtent> {
            let len = bytes.len() as u64;
            match image {
                Some(ImageExtent { base, end }) if !full => {
                    let mut file = std::fs::OpenOptions::new().write(true).open(&path)?;
                    // A torn frame a crash left is cut off first, durably.
                    if file.metadata()?.len() != end {
                        file.set_len(end)?;
                        file.sync_data()?;
                    }
                    file.seek(SeekFrom::Start(end))?;
                    file.write_all(&bytes)?;
                    file.sync_data()?;
                    Ok(ImageExtent {
                        base,
                        end: end + len,
                    })
                }
                // The image reaches the disk, then its name.
                _ => {
                    let tmp = dir.join("snapshot.tmp");
                    let mut file = std::fs::File::create(&tmp)?;
                    file.write_all(&bytes)?;
                    file.sync_data()?;
                    std::fs::rename(&tmp, &path)?;
                    std::fs::File::open(&dir)?.sync_all()?;
                    Ok(ImageExtent {
                        base: len,
                        end: len,
                    })
                }
            }
        };
        let image = publish(self.image);
        self.image = Some(image.map_err(|e| DbError::Storage(format!("publish snapshot: {e}")))?);
        self.rewrite = false;
        // A page is clean once written with every record on it frozen.
        for t in self.tables.values_mut() {
            t.heap.mark_clean();
        }
        self.mark_versioned_dirty();
        self.wal.truncate()
    }

    /// Compact every heap that holds dead space ([`HeapTable::compact`])
    /// and rename its row ids wherever they are held: in its trees, its
    /// version entries, and the write sets of transactions in flight
    /// (their redo's row ids are left as written: replay finds rows by
    /// value). A record that is still in the heap stays, visible or not.
    /// The heap's pages are no longer the file's, so the next checkpoint
    /// rewrites the image.
    fn compact(&mut self) {
        for (name, t) in &mut self.tables {
            if t.heap.dead_bytes() == 0 {
                continue;
            }
            let moves = t.heap.compact();
            let moved = |rid| {
                moves
                    .get(rid)
                    .expect("a tree files only rows the heap holds")
            };
            for ix in &mut t.indexes {
                ix.tree.rename_rows(moved);
            }
            self.mvcc.rename_rows(name, |rid| moves.get(rid));
            for w in self.txns.values_mut() {
                for held in [&mut w.created, &mut w.deleted] {
                    held.retain_mut(|(table, rid)| match moves.get(*rid) {
                        _ if table != name => true,
                        Some(to) => {
                            *rid = to;
                            true
                        }
                        None => false,
                    });
                }
            }
            self.rewrite = true;
        }
    }

    /// Mark dirty each page holding a record that has a version entry.
    fn mark_versioned_dirty(&mut self) {
        for (name, t) in &mut self.tables {
            for &rid in self
                .mvcc
                .table_versions(name)
                .into_iter()
                .flat_map(|v| v.keys())
            {
                t.heap.mark_dirty(rid);
            }
        }
    }

    /// Verify every checksum behind the commit horizon: the checkpoint
    /// file's base and each whole frame after it, and each record frame
    /// of every complete WAL batch. Pure
    /// read-side pass — finds silent bit rot before recovery needs the
    /// bytes. Results also feed the `easia_db_scrub_*` metric families.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let Some(dir) = &self.dir else {
            return Ok(ScrubReport::default()); // in-memory: nothing on disk
        };
        let report = crate::scrub::scrub_dir(dir)?;
        if let Some(m) = &self.metrics {
            m.scrub_frames_verified
                .add(report.wal_frames_verified as f64);
            m.scrub_errors.add(report.errors.len() as f64);
            let wal_damage = report.errors.iter().filter(|e| e.file == WAL_FILE).count();
            m.wal_corruption_detected.add(wal_damage as f64);
        }
        Ok(report)
    }

    /// Register a SQL/MED link observer.
    pub fn add_observer(&mut self, obs: Rc<dyn LinkObserver>) {
        self.observers.push(obs);
    }

    /// Attach an observability registry: registers the database's
    /// metric families and starts recording execution telemetry.
    /// Corruption detected before attachment (recovery runs first) is
    /// folded into `easia_db_wal_corruption_detected_total` here.
    pub fn attach_metrics(&mut self, registry: &easia_obs::Registry) {
        let m = crate::obs::DbMetrics::register(registry);
        if self.corruption_detected > 0 {
            m.wal_corruption_detected
                .add(self.corruption_detected as f64);
        }
        self.metrics = Some(m);
    }

    /// The attached metric handles, if any.
    pub fn metrics(&self) -> Option<&crate::obs::DbMetrics> {
        self.metrics.as_ref()
    }

    /// The scalar-function registry (register `DL*` functions etc. here).
    pub fn functions_mut(&mut self) -> &mut FnRegistry {
        &mut self.functions
    }

    /// Immutable access to the function registry.
    pub fn functions(&self) -> &FnRegistry {
        &self.functions
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// Schema of a table.
    pub fn schema(&self, name: &str) -> Option<&TableSchema> {
        self.table(name).map(|t| &t.schema)
    }

    /// All schemas (for XUIS generation and browsing metadata).
    pub fn schemas(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values().map(|t| &t.schema)
    }

    /// Execute a statement with no parameters.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        self.execute_with_params(sql, &[])
    }

    /// Execute a statement with positional `?` parameters.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let stmt = parse(sql)?;
        self.execute_stmt(stmt, params, Some(sql))
    }

    /// Run a SELECT with positional `?` parameters, lending each result
    /// row to `each` as [`exec::run_select_each`] does, instead of
    /// collecting a result set.
    pub fn execute_each(
        &self,
        sql: &str,
        params: &[Value],
        mut each: impl FnMut(Lent),
    ) -> Result<()> {
        let Stmt::Select(sel) = parse(sql)? else {
            return Err(DbError::Eval("execute_each runs a SELECT".into()));
        };
        if let Some(m) = &self.metrics {
            m.statement(crate::obs::StmtKind::Select);
        }
        exec::run_select_each(self, &self.stmt_view(), &sel, params, &[], &mut each).map(drop)
    }

    fn execute_stmt(
        &mut self,
        stmt: Stmt,
        params: &[Value],
        sql_text: Option<&str>,
    ) -> Result<ResultSet> {
        if let Some(m) = &self.metrics {
            use crate::obs::StmtKind;
            m.statement(match &stmt {
                Stmt::Select(_) => StmtKind::Select,
                Stmt::Begin => StmtKind::Begin,
                Stmt::Commit => StmtKind::Commit,
                Stmt::Rollback => StmtKind::Rollback,
                Stmt::CreateTable { .. } | Stmt::DropTable { .. } | Stmt::CreateIndex { .. } => {
                    StmtKind::Ddl
                }
                Stmt::Insert { .. } => StmtKind::Insert,
                Stmt::Update { .. } => StmtKind::Update,
                Stmt::Delete { .. } => StmtKind::Delete,
            });
        }
        let mutates = matches!(
            stmt,
            Stmt::CreateTable { .. }
                | Stmt::DropTable { .. }
                | Stmt::CreateIndex { .. }
                | Stmt::Insert { .. }
                | Stmt::Update { .. }
                | Stmt::Delete { .. }
        );
        let is_dml = matches!(
            stmt,
            Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. }
        );
        let result = match stmt {
            Stmt::Select(sel) => {
                let view = self.stmt_view();
                exec::run_select_over(self, &view, &sel, params, &[])
            }
            Stmt::Begin => {
                if self.cur.is_some() {
                    return Err(DbError::Txn(
                        "use commit_txn/rollback_txn for API transactions".into(),
                    ));
                }
                if self.session.is_some() {
                    return Err(DbError::Txn("transaction already active".into()));
                }
                let t = self.mvcc.begin_txn(LATEST_CSN);
                self.txns.insert(t, TxnWrites::default());
                self.session = Some(t);
                self.session_explicit = true;
                Ok(ResultSet::default())
            }
            Stmt::Commit => {
                if self.cur.is_some() {
                    return Err(DbError::Txn(
                        "use commit_txn/rollback_txn for API transactions".into(),
                    ));
                }
                if !self.session_explicit {
                    return Err(DbError::Txn("COMMIT without BEGIN".into()));
                }
                let t = self.session.take().expect("explicit session has a txn");
                self.session_explicit = false;
                self.commit_txn_internal(t)?;
                Ok(ResultSet::default())
            }
            Stmt::Rollback => {
                if self.cur.is_some() {
                    return Err(DbError::Txn(
                        "use commit_txn/rollback_txn for API transactions".into(),
                    ));
                }
                if !self.session_explicit {
                    return Err(DbError::Txn("ROLLBACK without BEGIN".into()));
                }
                let t = self.session.take().expect("explicit session has a txn");
                self.session_explicit = false;
                self.rollback_txn_internal(t);
                Ok(ResultSet::default())
            }
            Stmt::CreateTable { .. } | Stmt::DropTable { .. } | Stmt::CreateIndex { .. } => {
                if self.session_explicit || self.cur.is_some() {
                    return Err(DbError::Txn(
                        "DDL inside a transaction is not supported".into(),
                    ));
                }
                // Flush any pending implicit-session work first so the WAL
                // stays ordered (DDL is its own commit unit).
                if let Some(t) = self.session.take() {
                    self.commit_txn_internal(t)?;
                }
                let text = sql_text
                    .ok_or_else(|| DbError::Txn("DDL requires statement text".into()))?
                    .to_string();
                self.apply_ddl(&stmt)?;
                if !self.replaying {
                    let csn = self.mvcc.allocate_csn();
                    self.wal.append_committed(&[WalRecord::Ddl(text)], csn)?;
                    self.note_wal_sync(1);
                }
                Ok(ResultSet::default())
            }
            Stmt::Insert {
                table,
                columns,
                rows,
            } => self
                .run_insert(&table, &columns, &rows, params)
                .map(|n| ResultSet {
                    affected: n,
                    ..Default::default()
                }),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => self
                .run_update(&table, &sets, where_clause.as_ref(), params)
                .map(|n| ResultSet {
                    affected: n,
                    ..Default::default()
                }),
            Stmt::Delete {
                table,
                where_clause,
            } => self
                .run_delete(&table, where_clause.as_ref(), params)
                .map(|n| ResultSet {
                    affected: n,
                    ..Default::default()
                }),
        };
        let result = if is_dml && self.cur.is_none() {
            match result {
                Ok(rs) => {
                    self.autocommit()?;
                    Ok(rs)
                }
                Err(e) => {
                    // A failed statement outside an explicit transaction
                    // must not leave partial work staged for the next
                    // autocommit: roll the implicit session back.
                    if !self.session_explicit {
                        if let Some(t) = self.session.take() {
                            self.rollback_txn_internal(t);
                        }
                    }
                    Err(e)
                }
            }
        } else {
            result
        };
        if mutates && result.is_ok() {
            self.writes += 1;
        }
        result
    }

    /// The read view for a plain statement: the API transaction being
    /// driven via [`Database::txn_execute`], else the session transaction
    /// (latest-committed + own writes), else latest-committed.
    fn stmt_view(&self) -> ReadView {
        match self.cur.or(self.session) {
            Some(t) => ReadView {
                csn: self.txns.get(&t).map(|w| w.view_csn).unwrap_or(LATEST_CSN),
                txn: Some(t),
            },
            None => ReadView::latest(),
        }
    }

    fn autocommit(&mut self) -> Result<()> {
        if !self.session_explicit {
            if let Some(t) = self.session.take() {
                self.commit_txn_internal(t)?;
            }
        }
        Ok(())
    }

    /// The transaction the current statement's writes belong to, creating
    /// an implicit session transaction when none is active.
    fn write_txn(&mut self) -> TxnId {
        if let Some(t) = self.cur {
            return t;
        }
        if let Some(t) = self.session {
            return t;
        }
        let t = self.mvcc.begin_txn(LATEST_CSN);
        self.txns.insert(t, TxnWrites::default());
        self.session = Some(t);
        self.session_explicit = false;
        t
    }

    fn commit_txn_internal(&mut self, id: TxnId) -> Result<Csn> {
        let tw = self
            .txns
            .remove(&id)
            .ok_or_else(|| DbError::Txn(format!("no active transaction {id}")))?;
        let csn = if tw.redo.is_empty() && tw.created.is_empty() && tw.deleted.is_empty() {
            // Read-only: no CSN consumed, nothing to log.
            self.mvcc.forget(id);
            self.mvcc.last_csn()
        } else {
            let csn = self.mvcc.commit(id);
            if !self.replaying && !tw.redo.is_empty() {
                if let Some(g) = &mut self.group {
                    // Stage into the open group-commit window; flushed
                    // with one sync_data at end_commit_window.
                    for rec in &tw.redo {
                        rec.encode_framed(&mut g.buf);
                    }
                    WalRecord::Commit { csn }.encode_framed(&mut g.buf);
                    g.commits += 1;
                } else {
                    self.wal.append_committed(&tw.redo, csn)?;
                    self.note_wal_sync(1);
                }
            }
            csn
        };
        let fire = match self.link_owner {
            Some(owner) if owner == id => {
                self.link_owner = None;
                true
            }
            Some(_) => false,
            None => true,
        };
        if fire && !self.replaying {
            for obs in &self.observers {
                obs.on_commit();
            }
        }
        self.maybe_autovacuum();
        Ok(csn)
    }

    fn rollback_txn_internal(&mut self, id: TxnId) {
        if let Some(tw) = self.txns.remove(&id) {
            // Unstamp deletes first, then physically remove created
            // versions in reverse order (an insert-then-update leaves
            // both the original stamp and the replacement version).
            for (table, rid) in &tw.deleted {
                self.mvcc.clear_delete(table, *rid, id);
            }
            for (table, rid) in tw.created.iter().rev() {
                self.physical_delete(table, *rid);
                self.mvcc.drop_version(table, *rid);
            }
        }
        self.mvcc.forget(id);
        let fire = match self.link_owner {
            Some(owner) if owner == id => {
                self.link_owner = None;
                true
            }
            Some(_) => false,
            None => true,
        };
        if fire {
            for obs in &self.observers {
                obs.on_rollback();
            }
        }
        self.maybe_autovacuum();
    }

    /// Reclaim dead versions opportunistically once nothing can see them.
    fn maybe_autovacuum(&mut self) {
        if self.txns.is_empty() && self.mvcc.open_snapshots() == 0 && self.mvcc.has_versions() {
            self.vacuum_internal();
        }
    }

    fn note_wal_sync(&self, n: u64) {
        if n > 0 {
            if let Some(m) = &self.metrics {
                m.wal_fsyncs.add(n as f64);
            }
        }
    }

    // ---- MVCC session API ----

    /// Begin a snapshot-isolation read view pinned at the current commit
    /// horizon. Release it with [`Database::release_snapshot`]; vacuum
    /// never reclaims versions a live snapshot can still see.
    pub fn begin_snapshot(&mut self) -> SnapshotId {
        let id = self.mvcc.begin_snapshot();
        if let Some(m) = &self.metrics {
            m.open_snapshots.set(self.mvcc.open_snapshots() as f64);
        }
        id
    }

    /// Release a snapshot. Returns false when the id is unknown.
    pub fn release_snapshot(&mut self, snap: SnapshotId) -> bool {
        let ok = self.mvcc.release_snapshot(snap);
        if let Some(m) = &self.metrics {
            m.open_snapshots.set(self.mvcc.open_snapshots() as f64);
        }
        self.maybe_autovacuum();
        ok
    }

    /// Run a read-only query against a snapshot's pinned view. Writers
    /// committing after the snapshot was taken are invisible.
    pub fn snapshot_query(
        &self,
        snap: SnapshotId,
        sql: &str,
        params: &[Value],
    ) -> Result<ResultSet> {
        self.snapshot_select(snap, sql, params, None)
    }

    /// [`Database::snapshot_query`], lending each result row to `each` as
    /// [`Database::execute_each`] does instead of collecting a result
    /// set. Returns the result's columns.
    pub fn snapshot_query_each(
        &self,
        snap: SnapshotId,
        sql: &str,
        params: &[Value],
        mut each: impl FnMut(Lent),
    ) -> Result<Vec<String>> {
        let rs = self.snapshot_select(snap, sql, params, Some(&mut each))?;
        Ok(rs.columns)
    }

    /// The one body of both snapshot reads: the rows are lent to `each`,
    /// or kept in the result set.
    fn snapshot_select<'a>(
        &'a self,
        snap: SnapshotId,
        sql: &str,
        params: &[Value],
        each: Option<&'a mut dyn FnMut(Lent)>,
    ) -> Result<ResultSet> {
        let csn = self
            .mvcc
            .snapshot_csn(snap)
            .ok_or_else(|| DbError::Txn(format!("unknown snapshot {}", snap.0)))?;
        let stmt = parse(sql)?;
        let Stmt::Select(sel) = stmt else {
            return Err(DbError::Txn("snapshot sessions are read-only".into()));
        };
        if let Some(m) = &self.metrics {
            m.statement(crate::obs::StmtKind::Select);
        }
        let view = ReadView { csn, txn: None };
        exec::select(self, &view, &sel, params, &[], each)
    }

    /// Begin an API transaction with a snapshot-isolation read view
    /// pinned at the current commit horizon. Drive it with
    /// [`Database::txn_execute`] and resolve it with
    /// [`Database::commit_txn`] / [`Database::rollback_txn`]. Multiple
    /// API transactions may be in flight at once (logical concurrency);
    /// first-committer-wins conflicts surface as `write conflict` errors
    /// at write time.
    pub fn begin_txn(&mut self) -> TxnId {
        let view = self.mvcc.last_csn();
        let t = self.mvcc.begin_txn(view);
        self.txns.insert(
            t,
            TxnWrites {
                view_csn: view,
                ..Default::default()
            },
        );
        t
    }

    /// Execute one statement inside an API transaction. Transaction
    /// control statements are rejected — use the commit/rollback methods.
    pub fn txn_execute(&mut self, txn: TxnId, sql: &str, params: &[Value]) -> Result<ResultSet> {
        if !self.txns.contains_key(&txn) {
            return Err(DbError::Txn(format!("no active transaction {txn}")));
        }
        let stmt = parse(sql)?;
        if matches!(stmt, Stmt::Begin | Stmt::Commit | Stmt::Rollback) {
            return Err(DbError::Txn(
                "transaction control inside txn_execute is not supported".into(),
            ));
        }
        let prev = self.cur.replace(txn);
        let result = self.execute_stmt(stmt, params, Some(sql));
        self.cur = prev;
        result
    }

    /// Commit an API transaction, returning its commit sequence number
    /// (read-only transactions return the current horizon).
    pub fn commit_txn(&mut self, txn: TxnId) -> Result<Csn> {
        if self.session == Some(txn) {
            return Err(DbError::Txn(
                "the session transaction commits via COMMIT".into(),
            ));
        }
        self.commit_txn_internal(txn)
    }

    /// Roll back an API transaction.
    pub fn rollback_txn(&mut self, txn: TxnId) -> Result<()> {
        if self.session == Some(txn) {
            return Err(DbError::Txn(
                "the session transaction rolls back via ROLLBACK".into(),
            ));
        }
        if !self.txns.contains_key(&txn) {
            return Err(DbError::Txn(format!("no active transaction {txn}")));
        }
        self.rollback_txn_internal(txn);
        Ok(())
    }

    /// Open a group-commit window: transactions committing before
    /// [`Database::end_commit_window`] stage their WAL records into one
    /// buffer, written and synced as a single unit (one `sync_data` for
    /// N committers). CSN order is pinned at commit time, so replay
    /// order is deterministic regardless of batching.
    pub fn begin_commit_window(&mut self) {
        if self.group.is_none() {
            self.group = Some(GroupWindow {
                buf: Vec::new(),
                commits: 0,
            });
        }
    }

    /// Close the group-commit window, flushing all staged commits with a
    /// single sync. Returns the number of transactions batched.
    pub fn end_commit_window(&mut self) -> Result<u64> {
        let Some(g) = self.group.take() else {
            return Ok(0);
        };
        if g.commits > 0 {
            self.wal.append_raw(&seal_batch(&g.buf))?;
            self.note_wal_sync(1);
            if let Some(m) = &self.metrics {
                m.group_batch.observe(g.commits as f64);
            }
        }
        Ok(g.commits)
    }

    /// Reclaim row versions no open snapshot or transaction can see.
    pub fn vacuum(&mut self) -> VacuumStats {
        self.vacuum_internal()
    }

    fn vacuum_internal(&mut self) -> VacuumStats {
        let horizon = self.mvcc.horizon();
        let (dead, frozen) = self.mvcc.sweep(horizon);
        for (table, rid) in &dead {
            self.physical_delete(table, *rid);
        }
        if let Some(m) = &self.metrics {
            m.versions_vacuumed.add(dead.len() as f64);
        }
        VacuumStats {
            versions_removed: dead.len(),
            versions_frozen: frozen,
        }
    }

    /// Number of `sync_data` calls issued by the WAL so far (simulated
    /// sync points for in-memory databases).
    pub fn wal_syncs(&self) -> u64 {
        self.wal.syncs()
    }

    /// Number of open snapshots.
    pub fn open_snapshots(&self) -> usize {
        self.mvcc.open_snapshots()
    }

    /// Number of in-flight transactions (session + API).
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// The newest committed CSN.
    pub fn last_csn(&self) -> Csn {
        self.mvcc.last_csn()
    }

    /// Row-version visibility of `table` to `view` for executor scans:
    /// the table's version map is taken once, not per row.
    pub(crate) fn row_visibility<'a>(
        &'a self,
        table: &str,
        view: &'a ReadView,
    ) -> impl Fn(RowId) -> bool + 'a {
        let versions = self.mvcc.table_versions(table);
        move |rid| self.mvcc.visible_in(versions, rid, view)
    }

    /// The read view a statement executed right now would use (latest
    /// committed plus the session transaction's own writes). External
    /// executors driving [`exec::run_select_over`] directly use this.
    pub fn read_view(&self) -> ReadView {
        self.stmt_view()
    }

    // ---- DDL ----

    fn apply_ddl(&mut self, stmt: &Stmt) -> Result<()> {
        self.rewrite = true;
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                constraints,
            } => self.create_table(name, columns, constraints),
            Stmt::DropTable { name } => self.drop_table(name),
            Stmt::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => self.create_index(name, table, columns, *unique),
            _ => unreachable!("apply_ddl called with non-DDL"),
        }
    }

    fn create_table(
        &mut self,
        name: &str,
        columns: &[ColumnDefAst],
        constraints: &[TableConstraint],
    ) -> Result<()> {
        let upper = name.to_ascii_uppercase();
        if self.tables.contains_key(&upper) {
            return Err(DbError::Catalog(format!("table {upper} already exists")));
        }
        let mut defs = Vec::new();
        let mut pk_cols: Vec<String> = Vec::new();
        for c in columns {
            let mut def = ColumnDef::new(&c.name, c.ty);
            def.not_null = c.not_null;
            def.unique = c.unique;
            def.references = c
                .references
                .as_ref()
                .map(|(t, col)| (t.to_ascii_uppercase(), col.to_ascii_uppercase()));
            def.datalink = c.datalink.clone();
            if c.primary_key {
                pk_cols.push(def.name.clone());
            }
            defs.push(def);
        }
        let mut schema = TableSchema::new(&upper, defs)?;
        for tc in constraints {
            match tc {
                TableConstraint::PrimaryKey(cols) => {
                    if !pk_cols.is_empty() {
                        return Err(DbError::Catalog("multiple primary keys".into()));
                    }
                    pk_cols = cols.clone();
                }
                TableConstraint::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } => schema.add_foreign_key(ForeignKey {
                    columns: columns.clone(),
                    ref_table: ref_table.clone(),
                    ref_columns: ref_columns.clone(),
                })?,
                TableConstraint::Unique(cols) => {
                    // Model table-level UNIQUE via a unique index below;
                    // record intent on single columns directly.
                    if cols.len() == 1 {
                        let idx = schema.column_index(&cols[0]).ok_or_else(|| {
                            DbError::Catalog(format!("unique column {} not found", cols[0]))
                        })?;
                        schema.columns[idx].unique = true;
                    }
                }
            }
        }
        if !pk_cols.is_empty() {
            schema.set_primary_key(pk_cols)?;
        }
        // Column-level REFERENCES become single-column foreign keys.
        let single_fks: Vec<ForeignKey> = schema
            .columns
            .iter()
            .filter_map(|c| {
                c.references.as_ref().map(|(t, rc)| ForeignKey {
                    columns: vec![c.name.clone()],
                    ref_table: t.clone(),
                    ref_columns: vec![rc.clone()],
                })
            })
            .collect();
        for fk in single_fks {
            schema.add_foreign_key(fk)?;
        }
        // Validate FK targets exist (self-references allowed). Not while
        // replaying: a checkpoint image lists tables in name order, so a
        // child can load before the parent it referenced when written.
        for fk in &schema.foreign_keys {
            if !self.replaying && fk.ref_table != upper && !self.tables.contains_key(&fk.ref_table)
            {
                return Err(DbError::Catalog(format!(
                    "foreign key references unknown table {}",
                    fk.ref_table
                )));
            }
        }
        let mut table = Table {
            heap: HeapTable::new(),
            indexes: Vec::new(),
            schema,
        };
        // Implicit indexes: PK, then single-column UNIQUEs.
        if !table.schema.primary_key.is_empty() {
            let cols = table.schema.pk_indices();
            table.indexes.push(Index {
                name: format!("PK_{upper}"),
                col_indices: cols,
                unique: true,
                implicit: true,
                tree: BPlusTree::new(),
            });
        }
        let unique_cols: Vec<(String, usize)> = table
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique)
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        for (cname, i) in unique_cols {
            if table.index_matching(&[i]).is_none() {
                table.indexes.push(Index {
                    name: format!("UQ_{upper}_{cname}"),
                    col_indices: vec![i],
                    unique: true,
                    implicit: true,
                    tree: BPlusTree::new(),
                });
            }
        }
        self.tables.insert(upper, table);
        Ok(())
    }

    fn drop_table(&mut self, name: &str) -> Result<()> {
        let upper = name.to_ascii_uppercase();
        if !self.tables.contains_key(&upper) {
            return Err(DbError::Catalog(format!("table {upper} does not exist")));
        }
        // RESTRICT: refuse when another table references this one.
        for (tname, t) in &self.tables {
            if tname == &upper {
                continue;
            }
            if t.schema.foreign_keys.iter().any(|fk| fk.ref_table == upper) {
                return Err(DbError::Constraint(format!(
                    "cannot drop {upper}: referenced by {tname}"
                )));
            }
        }
        // Refuse while an in-flight transaction holds uncommitted changes
        // on the table; its rollback would dangle. (DDL itself is not
        // versioned — open snapshots lose access to a dropped table.)
        let dirty = self.txns.values().any(|tw| {
            tw.created
                .iter()
                .chain(tw.deleted.iter())
                .any(|(t, _)| t == &upper)
        });
        if dirty {
            return Err(DbError::Txn(format!(
                "cannot drop {upper}: uncommitted changes in an active transaction"
            )));
        }
        self.tables.remove(&upper);
        self.mvcc.drop_table(&upper);
        Ok(())
    }

    fn create_index(
        &mut self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        let tname = table.to_ascii_uppercase();
        let iname = name.to_ascii_uppercase();
        let t = self
            .tables
            .get_mut(&tname)
            .ok_or_else(|| DbError::Catalog(format!("table {tname} does not exist")))?;
        if t.indexes.iter().any(|ix| ix.name == iname) {
            return Err(DbError::Catalog(format!("index {iname} already exists")));
        }
        let mut col_indices = Vec::new();
        for c in columns {
            col_indices.push(
                t.schema
                    .column_index(c)
                    .ok_or_else(|| DbError::Catalog(format!("column {c} not found in {tname}")))?,
            );
        }
        let duplicate = format!("duplicate key for unique index {iname}");
        let mut ix = Index {
            name: iname,
            col_indices,
            unique,
            implicit: false,
            tree: BPlusTree::new(),
        };
        // Index every heap row (older read views must still find their
        // versions through the new index), but enforce uniqueness only
        // across currently-visible rows.
        let mvcc = &self.mvcc;
        let versions = mvcc.table_versions(&tname);
        let view = ReadView::latest();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        fill_indexes(
            &t.schema,
            &t.heap,
            std::slice::from_mut(&mut ix),
            None,
            |rid, key| {
                if unique
                    && !key.cells().any(|(tag, _)| tag == 0)
                    && mvcc.visible_in(versions, rid, &view)
                    && !seen.insert(key.0.to_vec())
                {
                    return Err(DbError::Constraint(duplicate.clone()));
                }
                Ok(())
            },
        )?;
        t.indexes.push(ix);
        Ok(())
    }

    // ---- DML ----

    fn run_insert(
        &mut self,
        table: &str,
        columns: &[String],
        rows: &[Vec<crate::sql::ast::Expr>],
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        let schema = self
            .schema(&tname)
            .ok_or_else(|| DbError::Catalog(format!("table {tname} does not exist")))?
            .clone();
        // Map insert columns to positions.
        let positions: Vec<usize> = if columns.is_empty() {
            (0..schema.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| DbError::Catalog(format!("column {c} not found in {tname}")))
                })
                .collect::<Result<_>>()?
        };
        // Bound once for the statement, before any row is written; each
        // value evaluates against no row, and a literal moves into its
        // row instead of being copied.
        let none = RowSchema::default();
        let mut values = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for e in rows.iter().flatten() {
            values.push(none.bind(e, &self.functions, &[])?);
        }
        let mut values = values.into_iter();
        let mut inserted = 0usize;
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(DbError::Type(format!(
                    "INSERT has {} values for {} columns",
                    exprs.len(),
                    positions.len()
                )));
            }
            let mut row = vec![Value::Null; schema.columns.len()];
            for (expr, &pos) in values.by_ref().take(exprs.len()).zip(&positions) {
                row[pos] = match expr {
                    Bound::Value(v) => v,
                    expr => EvalContext::new(&[], params).eval(&expr)?,
                };
            }
            self.insert_row(&tname, row)?;
            inserted += 1;
        }
        Ok(inserted)
    }

    /// Typed row insert (used by DML, the datalink layer and tests).
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        self.write_row(table.to_ascii_uppercase(), None, Some(row))?;
        self.writes += 1;
        Ok(())
    }

    /// The one checked row write: an insert (`new` only), an update
    /// (both) or a delete (`old` only) of a row of `table`. Its checks
    /// run in one order: the new row's types, a write conflict on the old
    /// one, the new row's UNIQUE and FK keys, the old row's referencing
    /// children, then DATALINK unlink and link of every link that
    /// changed. Only then is the old version stamped, the new one
    /// inserted and the redo recorded.
    fn write_row(
        &mut self,
        table: String,
        old: Option<(RowId, Vec<Value>)>,
        new: Option<Vec<Value>>,
    ) -> Result<()> {
        let schema = self
            .schema(&table)
            .ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))?
            .clone();
        let new = new.map(|row| self.check_row(&schema, row)).transpose()?;
        let txn = self.write_txn();
        if let Some((rid, _)) = &old {
            self.check_write_conflict(&table, *rid, txn)?;
        }
        if let Some(row) = &new {
            self.check_unique(&table, row, old.as_ref().map(|(rid, _)| *rid), txn)?;
            self.check_fk_child(&schema, row, txn)?;
        }
        if let Some((_, row)) = &old {
            self.check_fk_parent(&table, &schema, row, new.as_deref(), txn)?;
        }
        fn url(cell: Option<&Value>) -> Option<&str> {
            match cell {
                Some(Value::Datalink(u)) => Some(u),
                _ => None,
            }
        }
        if !self.replaying {
            for (i, spec) in schema.datalink_columns() {
                let was = url(old.as_ref().map(|(_, row)| &row[i]));
                let now = url(new.as_ref().map(|row| &row[i]));
                if was == now {
                    continue;
                }
                self.claim_links(txn)?;
                let col = &schema.columns[i].name;
                if let Some(u) = was {
                    for obs in &self.observers {
                        obs.on_unlink(&table, col, spec, u)?;
                    }
                }
                if let Some(u) = now {
                    for obs in &self.observers {
                        obs.on_link(&table, col, spec, u)?;
                    }
                }
            }
        }
        // MVCC: the old version is only stamped — older read views keep
        // it until vacuum reclaims it after our commit — and the new row
        // goes in as a fresh version.
        if let Some((rid, _)) = &old {
            self.mvcc.stamp_delete(&table, *rid, txn);
        }
        let created = new.as_ref().map(|row| self.physical_insert(&table, row));
        if let Some(rid) = created {
            self.mvcc.note_insert(&table, rid, txn);
            if let Some(m) = &self.metrics {
                m.versions_created.inc();
            }
        }
        let tw = self.txns.get_mut(&txn).expect("write txn is active");
        tw.deleted
            .extend(old.as_ref().map(|(rid, _)| (table.clone(), *rid)));
        tw.created.extend(created.map(|rid| (table.clone(), rid)));
        tw.redo.push(match (old, new) {
            (None, Some(row)) => WalRecord::Insert { table, row },
            (Some((old_id, old)), Some(new)) => WalRecord::Update {
                table,
                old_id,
                old,
                new,
            },
            (Some((row_id, row)), None) => WalRecord::Delete { table, row_id, row },
            (None, None) => unreachable!("a write has an old row, a new one or both"),
        });
        Ok(())
    }

    /// LinkObserver hooks carry no transaction id, so only one in-flight
    /// transaction may hold pending DATALINK operations at a time.
    fn claim_links(&mut self, txn: TxnId) -> Result<()> {
        if self.observers.is_empty() {
            return Ok(());
        }
        match self.link_owner {
            None => {
                self.link_owner = Some(txn);
                Ok(())
            }
            Some(owner) if owner == txn => Ok(()),
            Some(_) => Err(DbError::Txn(
                "another in-flight transaction holds pending DATALINK operations; \
                 commit or roll it back first"
                    .into(),
            )),
        }
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, crate::sql::ast::Expr)],
        where_clause: Option<&crate::sql::ast::Expr>,
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        let schema = self
            .schema(&tname)
            .ok_or_else(|| DbError::Catalog(format!("table {tname} does not exist")))?
            .clone();
        // Bound once for the statement against the table's rows, before
        // any is read.
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let row_schema = RowSchema::for_table(&tname, &names);
        let mut set_pos = Vec::new();
        for (c, e) in sets {
            let pos = schema
                .column_index(c)
                .ok_or_else(|| DbError::Catalog(format!("column {c} not found in {tname}")))?;
            set_pos.push((pos, row_schema.bind(e, &self.functions, &[])?));
        }
        let view = self.stmt_view();
        let targets = exec::collect_matching(self, &view, &tname, where_clause, params)?;
        let mut affected = 0usize;
        for (rid, old_row) in targets {
            let mut new_row = old_row.clone();
            for (pos, e) in &set_pos {
                new_row[*pos] = EvalContext::new(&old_row, params).eval(e)?;
            }
            self.write_row(tname.clone(), Some((rid, old_row)), Some(new_row))?;
            affected += 1;
        }
        Ok(affected)
    }

    fn run_delete(
        &mut self,
        table: &str,
        where_clause: Option<&crate::sql::ast::Expr>,
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        if self.schema(&tname).is_none() {
            return Err(DbError::Catalog(format!("table {tname} does not exist")));
        }
        let view = self.stmt_view();
        let targets = exec::collect_matching(self, &view, &tname, where_clause, params)?;
        let mut affected = 0usize;
        for (rid, row) in targets {
            self.write_row(tname.clone(), Some((rid, row)), None)?;
            affected += 1;
        }
        Ok(affected)
    }

    /// First-committer-wins gate for delete/update of `rid`: refuse when
    /// the row was created or delete-stamped by a concurrent transaction,
    /// or modified by a commit newer than this transaction's snapshot.
    fn check_write_conflict(&self, table: &str, rid: RowId, txn: TxnId) -> Result<()> {
        let Some(v) = self.mvcc.version(table, rid) else {
            return Ok(()); // frozen: visible to everyone, never contended
        };
        if let Some(x) = v.xmax {
            if x == txn {
                return Err(self.conflict(table, "row already deleted in this transaction"));
            }
            if self.mvcc.is_active(x) {
                return Err(self.conflict(table, "row deleted by a concurrent transaction"));
            }
            if self.mvcc.csn_of(x).is_some() {
                return Err(self.conflict(table, "row deleted by a later commit"));
            }
        }
        if v.xmin != txn {
            if self.mvcc.is_active(v.xmin) {
                return Err(self.conflict(table, "row created by a concurrent transaction"));
            }
            let snap = self
                .txns
                .get(&txn)
                .map(|w| w.view_csn)
                .unwrap_or(LATEST_CSN);
            if self.mvcc.csn_of(v.xmin).is_some_and(|c| c > snap) {
                return Err(self.conflict(table, "row modified since this transaction's snapshot"));
            }
        }
        Ok(())
    }

    fn conflict(&self, table: &str, what: &str) -> DbError {
        if let Some(m) = &self.metrics {
            m.write_conflicts.inc();
        }
        DbError::Txn(format!(
            "write conflict on {table}: {what} (first committer wins)"
        ))
    }

    // ---- constraint checks ----

    fn check_row(&self, schema: &TableSchema, row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != schema.columns.len() {
            return Err(DbError::Type(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                schema.name,
                schema.columns.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&schema.columns) {
            let v = v
                .coerce(col.ty)
                .map_err(|e| DbError::Type(format!("column {}: {e}", col.name)))?;
            if v.is_null() && col.not_null {
                return Err(DbError::Constraint(format!(
                    "column {}.{} may not be NULL",
                    schema.name, col.name
                )));
            }
            out.push(v);
        }
        Ok(out)
    }

    fn check_unique(
        &self,
        table: &str,
        row: &[Value],
        exclude: Option<RowId>,
        txn: TxnId,
    ) -> Result<()> {
        let t = self.tables.get(table).expect("caller validated table");
        let mut key = Vec::new();
        for ix in &t.indexes {
            if !ix.unique || ix.col_indices.iter().any(|&i| row[i].is_null()) {
                continue; // NULLs are exempt from uniqueness
            }
            for &hit in ix.tree.get_key(key_into(&ix.col_indices, row, &mut key)) {
                if Some(hit) == exclude {
                    continue;
                }
                // Classify the index hit against the version metadata:
                // dead versions don't collide, but rows touched by a
                // concurrent transaction are eager write conflicts (its
                // abort could resurrect the duplicate).
                let Some(v) = self.mvcc.version(table, hit) else {
                    return Err(self.duplicate(table, &ix.name)); // frozen = live
                };
                match v.xmax {
                    Some(x) if x == txn || self.mvcc.csn_of(x).is_some() => continue,
                    Some(_) => {
                        return Err(
                            self.conflict(table, "duplicate key held by a concurrent delete")
                        );
                    }
                    None => {
                        if v.xmin == txn || self.mvcc.csn_of(v.xmin).is_some() {
                            return Err(self.duplicate(table, &ix.name));
                        }
                        return Err(self.conflict(
                            table,
                            "duplicate key inserted by a concurrent transaction",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn duplicate(&self, table: &str, index: &str) -> DbError {
        DbError::Constraint(format!("duplicate key in unique index {index} of {table}"))
    }

    /// Child-side FK check: every FK key must be held by a row of the
    /// referenced table (NULLs exempt a key). Only rows visible to the
    /// writing transaction count.
    fn check_fk_child(&self, schema: &TableSchema, row: &[Value], txn: TxnId) -> Result<()> {
        let view = ReadView {
            csn: LATEST_CSN,
            txn: Some(txn),
        };
        let mut key = Vec::new();
        for fk in &schema.foreign_keys {
            let cols: Vec<usize> = fk
                .columns
                .iter()
                .map(|c| schema.column_index(c).expect("fk validated"))
                .collect();
            if cols.iter().any(|&i| row[i].is_null()) {
                continue;
            }
            let parent = self.tables.get(&fk.ref_table).ok_or_else(|| {
                DbError::Catalog(format!("fk target table {} missing", fk.ref_table))
            })?;
            let ref_idx: Vec<usize> =
                fk.ref_columns
                    .iter()
                    .map(|c| {
                        parent.schema.column_index(c).ok_or_else(|| {
                            DbError::Catalog(format!("fk target column {c} missing"))
                        })
                    })
                    .collect::<Result<_>>()?;
            let key = key_into(&cols, row, &mut key);
            if !parent.holds_key(&ref_idx, key, self.row_visibility(&fk.ref_table, &view))? {
                return Err(DbError::Constraint(format!(
                    "foreign key violation: {}({}) -> {}({}) value not found",
                    schema.name,
                    fk.columns.join(","),
                    fk.ref_table,
                    fk.ref_columns.join(",")
                )));
            }
        }
        Ok(())
    }

    /// Parent-side FK check (RESTRICT): refuse deleting/changing a key
    /// that child rows visible to the writing transaction still reference.
    fn check_fk_parent(
        &self,
        table: &str,
        schema: &TableSchema,
        old_row: &[Value],
        new_row: Option<&[Value]>,
        txn: TxnId,
    ) -> Result<()> {
        let view = ReadView {
            csn: LATEST_CSN,
            txn: Some(txn),
        };
        let mut key = Vec::new();
        for (child_name, child) in &self.tables {
            for fk in &child.schema.foreign_keys {
                if fk.ref_table != table {
                    continue;
                }
                let ref_idx: Vec<usize> = fk
                    .ref_columns
                    .iter()
                    .filter_map(|c| schema.column_index(c))
                    .collect();
                if ref_idx.len() != fk.ref_columns.len()
                    || ref_idx.iter().any(|&i| old_row[i].is_null())
                {
                    continue;
                }
                // The key is unchanged when the index would file both
                // rows under one key.
                let same = |new_row: &[Value], i: usize| {
                    cell_cmp(
                        as_cell(&old_row[i], &mut [0; 8]),
                        as_cell(&new_row[i], &mut [0; 8]),
                    )
                    .is_eq()
                };
                if new_row.is_some_and(|new_row| ref_idx.iter().all(|&i| same(new_row, i))) {
                    continue;
                }
                let child_idx: Vec<usize> = fk
                    .columns
                    .iter()
                    .map(|c| child.schema.column_index(c).expect("fk validated"))
                    .collect();
                let key = key_into(&ref_idx, old_row, &mut key);
                if child.holds_key(&child_idx, key, self.row_visibility(child_name, &view))? {
                    return Err(DbError::Constraint(format!(
                        "cannot modify {table}: key referenced by {child_name}"
                    )));
                }
            }
        }
        Ok(())
    }

    // ---- physical operations (heap + index maintenance only) ----

    fn physical_insert(&mut self, table: &str, row: &[Value]) -> RowId {
        let t = self.tables.get_mut(table).expect("caller validated table");
        let rid = t.heap.insert(row);
        let mut key = Vec::new();
        for ix in &mut t.indexes {
            ix.tree
                .insert_key(key_into(&ix.col_indices, row, &mut key), rid);
        }
        rid
    }

    /// Remove the row at `rid` and its index entries, whose keys are cut
    /// out of the stored record's cells. A record that is not a row of
    /// the table is left where it is.
    fn physical_delete(&mut self, table: &str, rid: RowId) {
        let t = self.tables.get_mut(table).expect("caller validated table");
        let Some(rec) = t.heap.record(rid) else {
            return;
        };
        let mut cells = Vec::with_capacity(t.schema.columns.len());
        if check_record(&t.schema, rid, rec, |cell| cells.push(cell)).is_err() {
            return;
        }
        let mut key = Records::default();
        for ix in &mut t.indexes {
            key.truncate(0);
            key.push_spans(ix.col_indices.iter().map(|&i| cells[i]));
            ix.tree.remove_key(KeyRef(key.get(0)), rid);
        }
        t.heap.delete(rid);
    }

    /// Find the first live row equal to `row` (used by WAL replay, where
    /// physical RowIds may differ from the original execution). Equal
    /// means equal *record bytes* — the encoding is canonical, and unlike
    /// `==` on values it finds a NaN. An index only narrows the records
    /// compared, to those filed under the row's key.
    fn find_row_by_value(&self, table: &str, row: &[Value]) -> Option<RowId> {
        let t = self.tables.get(table)?;
        let mut want = Vec::new();
        encode_row(row, &mut want);
        match t.indexes.first() {
            Some(ix) if row.len() == t.schema.columns.len() => ix
                .tree
                .get_key(key_into(&ix.col_indices, row, &mut Vec::new()))
                .iter()
                .copied()
                .find(|&rid| t.heap.record(rid) == Some(&want[..])),
            _ => t
                .heap
                .records()
                .find(|(_, rec)| *rec == want)
                .map(|(rid, _)| rid),
        }
    }

    fn apply_wal(&mut self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::Ddl(sql) => {
                let stmt = parse(&sql)?;
                self.apply_ddl(&stmt)
            }
            WalRecord::Insert { table, row } => {
                let schema = self
                    .schema(&table)
                    .ok_or_else(|| DbError::Storage(format!("wal replay: no table {table}")))?
                    .clone();
                let row = self.check_row(&schema, row)?;
                self.physical_insert(&table, &row);
                Ok(())
            }
            WalRecord::Delete { table, row, .. } => {
                let rid = self.find_row_by_value(&table, &row).ok_or_else(|| {
                    DbError::Storage(format!("wal replay: row not found in {table}"))
                })?;
                self.physical_delete(&table, rid);
                Ok(())
            }
            WalRecord::Update {
                table, old, new, ..
            } => {
                let rid = self.find_row_by_value(&table, &old).ok_or_else(|| {
                    DbError::Storage(format!("wal replay: row not found in {table}"))
                })?;
                self.physical_delete(&table, rid);
                self.physical_insert(&table, &new);
                Ok(())
            }
            WalRecord::Commit { csn } => {
                // Pin the CSN counter past every recovered commit so
                // post-recovery commits continue the sequence.
                self.mvcc.observe_recovered_csn(csn);
                Ok(())
            }
        }
    }

    // ---- snapshotting ----

    /// Serialise the committed state: the whole image (`full`) — the
    /// file magic, then a base frame holding every table with its DDL —
    /// or one frame holding the tables that have a dirty page or overflow
    /// entry, each by its name. A frame's payload opens with the image's
    /// CSN. Each table's entry is its heap section
    /// ([`HeapTable::write_section`]: every page, or only the dirty ones,
    /// copied as the committed view sees them) and then each index's
    /// order: the `u32` places of its visible rows, in key order. Rows
    /// are filtered to the commit horizon's read view, so a checkpoint
    /// taken under in-flight transactions or open snapshots writes
    /// exactly what a fresh reader would see.
    ///
    /// Every record written is checked to be a row of its table
    /// ([`check_record`]); one that is not is a typed error, raised
    /// before anything on disk is touched.
    fn write_snapshot(&self, full: bool) -> Result<Vec<u8>> {
        let view = self.mvcc.committed_view();
        let tables: Vec<_> = (self.tables.iter())
            .filter(|(_, t)| full || t.heap.is_dirty())
            .collect();
        // Orders, and a base's pages, bound the frame: reserved once.
        let room = |t: &&Table| {
            4 * t.heap.len() * t.indexes.len() + usize::from(full) * PAGE_SIZE * t.heap.page_count()
        };
        let mut out = Vec::with_capacity(tables.iter().map(|(_, t)| room(t)).sum::<usize>() + 4096);
        if full {
            out.extend_from_slice(SNAPSHOT_MAGIC);
        }
        // Room for the frame header, filled in at the end.
        let header = out.len();
        out.resize(header + BATCH_HEADER_LEN, 0);
        out.extend_from_slice(&view.csn.to_le_bytes());
        out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        for (name, t) in tables {
            if full {
                put_str(&mut out, &schema_to_ddl(&t.schema));
                // Extra (non-implicit) indexes as DDL too.
                let extra: Vec<String> = (t.indexes.iter())
                    .filter(|ix| !ix.implicit)
                    .map(|ix| index_to_ddl(&t.schema, ix))
                    .collect();
                out.extend_from_slice(&(extra.len() as u32).to_le_bytes());
                for ddl in extra {
                    put_str(&mut out, &ddl);
                }
            } else {
                put_str(&mut out, name);
            }
            let versions = self.mvcc.table_versions(name);
            let visible = |rid| self.mvcc.visible_in(versions, rid, &view);
            // Every record the view cannot see has a version entry.
            let hidden = (versions.into_iter().flat_map(|v| v.keys()))
                .filter(|&&rid| t.heap.record(rid).is_some() && !visible(rid))
                .count();
            let live = t.heap.len() - hidden;
            let keep = |rid, rec: &[u8]| match visible(rid) {
                true => check_record(&t.schema, rid, rec, |_| {}).map(|()| true),
                false => Ok(false),
            };
            t.heap.write_section(full, live, keep, &mut out)?;
            let (_, place) = t.heap.places();
            for ix in &t.indexes {
                let at = out.len();
                ix.tree.scan_from(&[], |_, rows| {
                    for &rid in rows.iter().filter(|&&rid| visible(rid)) {
                        out.extend_from_slice(&(place(rid) as u32).to_le_bytes());
                    }
                    true
                });
                if out.len() - at != 4 * live {
                    return Err(DbError::Storage(format!(
                        "{name} index {} files {} of {live} rows",
                        ix.name,
                        (out.len() - at) / 4
                    )));
                }
            }
        }
        let payload = &out[header + BATCH_HEADER_LEN..];
        if payload.len() > u32::MAX as usize {
            return Err(DbError::Storage("checkpoint frame over 4 GiB".into()));
        }
        let sealed = batch_header(payload.len(), crc32(payload));
        out[header..header + BATCH_HEADER_LEN].copy_from_slice(&sealed);
        Ok(out)
    }

    /// Load a checkpoint file [`Database::write_snapshot`] wrote: restore
    /// the base, let each whole frame's pages and overflow entries replace
    /// or extend it, and build every index in the order the newest frame
    /// holding its table carries. A torn last frame is dropped, as a torn
    /// log tail is. Damage is a typed storage error, and so is a body that
    /// lies under good checksums. The CSN counter moves past the image's
    /// CSN, which is returned.
    fn load_snapshot(&mut self, file: &[u8]) -> Result<Csn> {
        let (frames, end, damage) = snapshot_frames(file);
        if let Some((at, what)) = damage {
            return Err(DbError::Storage(format!("snapshot at byte {at}: {what}")));
        }
        let mut orders: BTreeMap<String, &[u8]> = BTreeMap::new();
        let mut csn = 0;
        self.replaying = true;
        for (i, &(_, payload)) in frames.iter().enumerate() {
            let mut c = Cursor {
                buf: payload,
                pos: 0,
            };
            csn = c.u64()?;
            for _ in 0..c.u32()? {
                let name = match i {
                    0 => {
                        let stmt = parse(&c.str()?)?;
                        let Stmt::CreateTable { name, .. } = &stmt else {
                            return Err(DbError::Storage("snapshot: expected CREATE TABLE".into()));
                        };
                        let name = name.to_ascii_uppercase();
                        self.apply_ddl(&stmt)?;
                        for _ in 0..c.u32()? {
                            let stmt = parse(&c.str()?)?;
                            if !matches!(stmt, Stmt::CreateIndex { .. }) {
                                return Err(DbError::Storage(
                                    "snapshot: expected CREATE INDEX".into(),
                                ));
                            }
                            self.apply_ddl(&stmt)?;
                        }
                        name
                    }
                    _ => c.str()?,
                };
                let t = self.tables.get_mut(&name).ok_or_else(|| {
                    DbError::Storage(format!("snapshot: a frame names no table {name}"))
                })?;
                t.heap.restore_section(c.buf, &mut c.pos)?;
                let n = 4 * t.heap.len() * t.indexes.len();
                orders.insert(name, c.take(n)?);
            }
            if c.pos != payload.len() {
                return Err(DbError::Storage("snapshot: trailing bytes".into()));
            }
        }
        self.replaying = false;
        for (name, t) in &mut self.tables {
            fill_indexes(
                &t.schema,
                &t.heap,
                &mut t.indexes,
                Some(orders[name]),
                |_, _| Ok(()),
            )?;
        }
        let base = frames[0].0 + BATCH_HEADER_LEN + frames[0].1.len();
        self.image = Some(ImageExtent {
            base: base as u64,
            end: end as u64,
        });
        // Commits after a reopen are numbered past the image, so that the
        // next recovery does not take them for commits the image holds.
        self.mvcc.observe_recovered_csn(csn);
        Ok(csn)
    }

    /// Render DATALINK values for output via the registered observers.
    pub(crate) fn render_datalink(&self, spec: &DatalinkSpec, url: &str) -> String {
        for obs in &self.observers {
            if let Some(rendered) = obs.render_datalink(spec, url) {
                return rendered;
            }
        }
        url.to_string()
    }
}

/// The whole frames of a checkpoint file, the base first, each as its
/// offset and payload; where the last of them ends; and the damage that
/// stopped the walk, if any, as its offset and what failed to verify. A
/// torn last frame ends the walk as a torn log tail does, by one
/// classifier ([`frame_at`]); a file with no whole base is damage.
pub(crate) fn snapshot_frames(file: &[u8]) -> SnapshotFrames<'_> {
    let mut frames = Vec::new();
    if !file.starts_with(SNAPSHOT_MAGIC) {
        return (frames, 0, Some((0, "bad snapshot magic".into())));
    }
    let mut pos = SNAPSHOT_MAGIC.len();
    while pos < file.len() {
        match frame_at(file, pos) {
            Frame::Whole(payload) => {
                frames.push((pos, payload));
                pos += BATCH_HEADER_LEN + payload.len();
            }
            Frame::Torn => break,
            Frame::Damaged(what) => return (frames, pos, Some((pos, what))),
        }
    }
    let damage = frames
        .is_empty()
        .then(|| (pos, "snapshot has no whole base".into()));
    (frames, pos, damage)
}

/// What [`snapshot_frames`] finds.
pub(crate) type SnapshotFrames<'a> = (Vec<(usize, &'a [u8])>, usize, Option<(usize, String)>);

/// A cursor over a checkpoint frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let trunc = || DbError::Storage("snapshot truncated".into());
        let s = (self.buf.get(self.pos..self.pos.saturating_add(n))).ok_or_else(trunc)?;
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DbError::Storage("snapshot utf8".into()))
    }
}

/// Check that `rec`, the stored record at `rid`, is a row of the table:
/// one whole row encoding — every cell's tag, length and text valid —
/// nothing after it, and a cell per column; lend each cell to `cell`.
fn check_record<'r>(
    schema: &TableSchema,
    rid: RowId,
    rec: &'r [u8],
    mut cell: impl FnMut(&'r [u8]),
) -> Result<()> {
    let (mut pos, mut cells) = (0, 0);
    let walked = sieve_record(rec, &mut pos, &[], |_, _, _, span| {
        cell(&rec[span]);
        cells += 1;
        true
    });
    let what = match walked {
        Err(DbError::Storage(what)) => what,
        Err(other) => return Err(other),
        Ok(_) if pos != rec.len() => "row decode: trailing bytes".into(),
        Ok(_) if cells != schema.columns.len() => format!(
            "row decode: {cells} cells for {} columns",
            schema.columns.len()
        ),
        Ok(_) => return Ok(()),
    };
    Err(DbError::Storage(format!(
        "{} row {:#x}: {what}",
        schema.name, rid.0
    )))
}

/// Fill the (empty) trees of `indexes` from a table's heap: one walk
/// checks each record and copies each key's cells out, then each tree is
/// built in the order `orders` holds for it — the heap's places of its
/// rows, checked to hold a record and to ascend — or by sorting. `admit`
/// sees every key before it is filed and may refuse it.
fn fill_indexes(
    schema: &TableSchema,
    heap: &HeapTable,
    indexes: &mut [Index],
    orders: Option<&[u8]>,
    mut admit: impl FnMut(RowId, KeyRef) -> Result<()>,
) -> Result<()> {
    let (n, mut keys) = (heap.len(), vec![Records::default(); indexes.len()]);
    // Every key takes at least its cell count.
    keys.iter_mut().for_each(|k| k.reserve(4 * n, n));
    let mut rids = Vec::with_capacity(n);
    // Which record, in heap order, each place holds (`u32::MAX`: none);
    // in a heap without a tombstone a place is that position itself.
    let (places, place) = heap.places();
    let dense = places == n;
    let mut at = vec![u32::MAX; if dense || orders.is_none() { 0 } else { places }];
    let mut cells = Vec::with_capacity(schema.columns.len());
    for (rid, rec) in heap.records() {
        cells.clear();
        check_record(schema, rid, rec, |cell| cells.push(cell))?;
        for (ix, keys) in indexes.iter().zip(&mut keys) {
            keys.push_spans(ix.col_indices.iter().map(|&i| cells[i]));
            admit(rid, KeyRef(keys.get(keys.len() - 1)))?;
        }
        if let Some(k) = at.get_mut(place(rid)) {
            *k = rids.len() as u32;
        }
        rids.push(rid);
    }
    let bad =
        |what: &str| DbError::Storage(format!("snapshot: {} index order {what}", schema.name));
    for (i, (ix, keys)) in indexes.iter_mut().zip(&keys).enumerate() {
        let pair = |p: usize| (keys.get(p), rids[p]);
        ix.tree = match orders {
            None => BPlusTree::from_pairs((0..n).map(pair).collect()),
            Some(orders) => {
                let record = |p: usize| match dense {
                    true => (p < n).then_some(p),
                    false => at.get(p).filter(|&&k| k != u32::MAX).map(|&k| k as usize),
                };
                let order = orders[4 * n * i..4 * n * (i + 1)]
                    .chunks_exact(4)
                    .map(|p| record(u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize));
                // n places that each hold a record and ascend strictly by
                // key and row id name every record once.
                if order.clone().any(|k| k.is_none()) {
                    return Err(bad("names a place that holds no record"));
                }
                let order = order.map(|k| pair(k.expect("checked")));
                BPlusTree::from_run(order).map_err(|_| bad("does not ascend"))?
            }
        };
    }
    Ok(())
}

/// Reconstruct CREATE TABLE DDL from a schema (used by snapshots; also
/// handy for introspection tools).
pub fn schema_to_ddl(s: &TableSchema) -> String {
    let mut parts = Vec::new();
    for c in &s.columns {
        let mut p = format!("{} {}", c.name, c.ty.sql_name());
        if let Some(dl) = &c.datalink {
            p = format!("{} DATALINK LINKTYPE URL", c.name);
            if dl.file_link_control {
                p.push_str(" FILE LINK CONTROL");
            } else {
                p.push_str(" NO FILE LINK CONTROL");
            }
            if dl.file_link_control {
                p.push_str(if dl.integrity_all {
                    " INTEGRITY ALL"
                } else {
                    " INTEGRITY NONE"
                });
                p.push_str(if dl.read_permission_db {
                    " READ PERMISSION DB"
                } else {
                    " READ PERMISSION FS"
                });
                p.push_str(if dl.write_permission_blocked {
                    " WRITE PERMISSION BLOCKED"
                } else {
                    " WRITE PERMISSION FS"
                });
                p.push_str(if dl.recovery {
                    " RECOVERY YES"
                } else {
                    " RECOVERY NO"
                });
                p.push_str(if dl.on_unlink_restore {
                    " ON UNLINK RESTORE"
                } else {
                    " ON UNLINK DELETE"
                });
            }
        }
        if c.not_null && !s.primary_key.contains(&c.name) {
            p.push_str(" NOT NULL");
        }
        if c.unique {
            p.push_str(" UNIQUE");
        }
        parts.push(p);
    }
    if !s.primary_key.is_empty() {
        parts.push(format!("PRIMARY KEY ({})", s.primary_key.join(", ")));
    }
    for fk in &s.foreign_keys {
        parts.push(format!(
            "FOREIGN KEY ({}) REFERENCES {} ({})",
            fk.columns.join(", "),
            fk.ref_table,
            fk.ref_columns.join(", ")
        ));
    }
    format!("CREATE TABLE {} ({})", s.name, parts.join(", "))
}

fn index_to_ddl(schema: &TableSchema, ix: &Index) -> String {
    let cols: Vec<&str> = ix
        .col_indices
        .iter()
        .map(|&i| schema.columns[i].name.as_str())
        .collect();
    format!(
        "CREATE {}INDEX {} ON {} ({})",
        if ix.unique { "UNIQUE " } else { "" },
        ix.name,
        schema.name,
        cols.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The base image by hand, the reference for the writer: every
    /// stored row of every table the committed view sees decoded and
    /// re-encoded in place in a copy of its page whose record area is
    /// otherwise zeros, the slot of each it cannot see tombstoned, and
    /// each index's order found from scratch: the visible rows' places
    /// sorted by their keys.
    fn snapshot_by_reencoding(db: &Database) -> Vec<u8> {
        let view = db.mvcc.committed_view();
        let mut body = view.csn.to_le_bytes().to_vec();
        let put = |body: &mut Vec<u8>, s: &str| {
            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
            body.extend_from_slice(s.as_bytes());
        };
        let u32_le = |n: usize| (n as u32).to_le_bytes();
        body.extend_from_slice(&u32_le(db.tables.len()));
        for (name, t) in &db.tables {
            put(&mut body, &schema_to_ddl(&t.schema));
            let extra: Vec<String> = t
                .indexes
                .iter()
                .filter(|ix| !ix.implicit)
                .map(|ix| index_to_ddl(&t.schema, ix))
                .collect();
            body.extend_from_slice(&u32_le(extra.len()));
            for ddl in &extra {
                put(&mut body, ddl);
            }
            let (places, place) = t.heap.places();
            let visible = |rid| db.mvcc.visible(name, rid, &view);
            let mut rows = Vec::new();
            let reencoded = |rec: &[u8]| {
                let mut again = Vec::new();
                encode_row(&crate::value::decode_row(rec, &mut 0).unwrap(), &mut again);
                assert_eq!(again, rec);
                again
            };
            let pages = t.heap.page_count();
            body.extend_from_slice(&u32_le(pages));
            body.extend_from_slice(&u32_le(pages));
            let mut slots = 0;
            for i in 0..pages {
                let page = t.heap.page(i);
                body.extend_from_slice(&u32_le(i));
                let at = body.len();
                body.extend_from_slice(page.as_bytes());
                // The record area holds only what is copied back below.
                let directory = 6 + 4 * usize::from(page.slot_count());
                body[at + directory..].fill(0);
                for (slot, rec) in page.iter() {
                    let rid = RowId(((i as u64) << 16) | u64::from(slot));
                    // A slot is its record's offset and length, after the
                    // page's three-u16 header.
                    let off = u16::from_le_bytes([
                        body[at + 6 + 4 * slot as usize],
                        body[at + 7 + 4 * slot as usize],
                    ]) as usize;
                    if visible(rid) {
                        let again = reencoded(rec);
                        body[at + off..at + off + again.len()].copy_from_slice(&again);
                        rows.push((place(rid), crate::value::decode_row(rec, &mut 0).unwrap()));
                    } else {
                        body[at + 8 + 4 * slot as usize..at + 10 + 4 * slot as usize].fill(0);
                    }
                }
                slots += usize::from(page.slot_count());
            }
            let overflow = places - slots;
            body.extend_from_slice(&u32_le(overflow));
            body.extend_from_slice(&u32_le(overflow));
            for i in 0..overflow {
                let rid = RowId((1 << 63) | i as u64);
                body.extend_from_slice(&u32_le(i));
                match t.heap.record(rid) {
                    Some(rec) if visible(rid) => {
                        body.extend_from_slice(&u32_le(rec.len() + 1));
                        body.extend_from_slice(&reencoded(rec));
                        rows.push((place(rid), crate::value::decode_row(rec, &mut 0).unwrap()));
                    }
                    _ => body.extend_from_slice(&u32_le(0)),
                }
            }
            body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for ix in &t.indexes {
                let key_cmp = |a: &Vec<Value>, b: &Vec<Value>| {
                    ix.col_indices
                        .iter()
                        .map(|&i| a[i].total_cmp(&b[i]))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                };
                let mut order: Vec<&(usize, Vec<Value>)> = rows.iter().collect();
                order.sort_by(|a, b| key_cmp(&a.1, &b.1).then(a.0.cmp(&b.0)));
                for (p, _) in order {
                    body.extend_from_slice(&u32_le(*p));
                }
            }
        }
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&seal_batch(&body));
        out
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("easia-db-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Rows of mixed widths — some records pack a page exactly
    /// differently from their neighbours — one of them over the inline
    /// limit, NaN and -0.0 among the doubles.
    fn populate(db: &mut Database) {
        db.execute(
            "CREATE TABLE sim (k VARCHAR(20) PRIMARY KEY, title VARCHAR(200), re DOUBLE, doc CLOB)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE files (name VARCHAR(40), k VARCHAR(20), n INTEGER, \
                    PRIMARY KEY (name, k))",
        )
        .unwrap();
        db.execute("CREATE INDEX ix_files_k ON files (k)").unwrap();
        db.execute("CREATE TABLE empty (a INTEGER)").unwrap();
        for i in 0..400i64 {
            let re = match i % 50 {
                0 => f64::NAN,
                1 => -0.0,
                _ => 100.0 + i as f64,
            };
            let doc = if i == 123 {
                "d".repeat(5000)
            } else {
                "d".repeat((i % 97) as usize)
            };
            db.execute_with_params(
                "INSERT INTO sim VALUES (?, ?, ?, ?)",
                &[
                    Value::Str(format!("S{i:04}")),
                    Value::Str(format!("run {i} {}", "x".repeat((i * 7 % 61) as usize))),
                    Value::Double(re),
                    Value::Clob(doc),
                ],
            )
            .unwrap();
            for f in 0..3 {
                db.execute_with_params(
                    "INSERT INTO files VALUES (?, ?, ?)",
                    &[
                        Value::Str(format!("t{f:03}.edf")),
                        Value::Str(format!("S{i:04}")),
                        Value::Int(i * 3 + f),
                    ],
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn snapshot_bytes_are_what_reencoding_every_row_writes() {
        let mut db = Database::new_in_memory();
        populate(&mut db);
        // Committed deletes and updates, vacuumed or not.
        db.execute("DELETE FROM files WHERE n % 5 = 0").unwrap();
        db.execute("UPDATE sim SET title = 'retitled' WHERE k > 'S0350'")
            .unwrap();
        assert_eq!(
            db.write_snapshot(true).unwrap(),
            snapshot_by_reencoding(&db)
        );

        // An open snapshot pins versions a later delete and update kill...
        let pinned = db.begin_snapshot();
        db.execute("DELETE FROM sim WHERE k < 'S0010'").unwrap();
        db.execute("UPDATE files SET n = -n WHERE k = 'S0200'")
            .unwrap();
        // ...and a transaction in flight has inserted, updated and
        // deleted without committing.
        let t = db.begin_txn();
        db.txn_execute(
            t,
            "INSERT INTO sim VALUES ('ZZ', 'uncommitted', 1.0, 'x')",
            &[],
        )
        .unwrap();
        db.txn_execute(t, "DELETE FROM files WHERE k = 'S0300'", &[])
            .unwrap();
        db.txn_execute(t, "UPDATE sim SET re = 0 WHERE k = 'S0399'", &[])
            .unwrap();
        let image = db.write_snapshot(true).unwrap();
        assert_eq!(image, snapshot_by_reencoding(&db));

        // What the image holds is what a fresh reader sees now, with
        // every index filled from it.
        let mut back = Database::new_in_memory();
        back.load_snapshot(&image).unwrap();
        for q in [
            "SELECT k, title, doc FROM sim ORDER BY k",
            "SELECT name, k, n FROM files ORDER BY k, name",
            "SELECT name FROM files WHERE k = 'S0300' ORDER BY name",
            "SELECT n FROM files WHERE name = 't001.edf' AND k = 'S0200'",
            "SELECT COUNT(*) FROM empty",
        ] {
            let want = db.execute(q).unwrap();
            assert!(!want.rows.is_empty());
            assert_eq!(back.execute(q).unwrap(), want, "{q}");
        }
        assert_eq!(
            back.write_snapshot(true).unwrap(),
            image,
            "a loaded image rewrites itself"
        );
        db.rollback_txn(t).unwrap();
        db.release_snapshot(pinned);
        assert_eq!(
            db.write_snapshot(true).unwrap(),
            snapshot_by_reencoding(&db)
        );
    }

    /// A compaction under a transaction in flight and an open snapshot
    /// renames every row id they hold: both read what they read before,
    /// and a rollback or a commit then leaves what it leaves beside a
    /// twin whose heaps were never compacted.
    #[test]
    fn a_compaction_renames_the_rows_of_transactions_and_snapshots() {
        let reads = [
            "SELECT k, title, re, doc FROM sim ORDER BY k",
            "SELECT name, k, n FROM files ORDER BY k, name",
            "SELECT name FROM files WHERE k = 'S0301' ORDER BY name",
        ];
        for commit in [false, true] {
            let mut dbs = [Database::new_in_memory(), Database::new_in_memory()];
            let mut held = Vec::new();
            for db in &mut dbs {
                populate(db);
                db.execute("DELETE FROM files WHERE n % 3 = 0").unwrap();
                db.execute("DELETE FROM sim WHERE k = 'S0001' OR k = 'S0123'")
                    .unwrap();
                db.vacuum();
                let snap = db.begin_snapshot();
                db.execute("DELETE FROM sim WHERE k < 'S0100'").unwrap();
                let t = db.begin_txn();
                for sql in [
                    "INSERT INTO sim VALUES ('ZZ', 'new', 1.0, 'x')",
                    "UPDATE sim SET re = 0 WHERE k > 'S0390'",
                    "DELETE FROM files WHERE k = 'S0300'",
                ] {
                    db.txn_execute(t, sql, &[]).unwrap();
                }
                held.push((snap, t));
            }
            let dead = |db: &Database, t: &str| db.tables[t].heap.dead_bytes();
            assert!(dead(&dbs[0], "SIM") > 0 && dead(&dbs[0], "FILES") > 0);
            dbs[0].compact();
            assert!(dead(&dbs[0], "SIM") == 0 && dead(&dbs[0], "FILES") == 0);
            let [(sa, ta), (sb, tb)] = [held[0], held[1]];
            for q in reads {
                let [a, b] = &mut dbs;
                // As text: a NaN is not `==` to itself.
                let snapped = |db: &Database, s| format!("{:?}", db.snapshot_query(s, q, &[]));
                assert_eq!(snapped(a, sa), snapped(b, sb), "{q}");
                let own = |db: &mut Database, t| format!("{:?}", db.txn_execute(t, q, &[]));
                assert_eq!(own(a, ta), own(b, tb), "{q}");
            }
            for (db, (snap, t)) in dbs.iter_mut().zip(held) {
                match commit {
                    true => db.commit_txn(t).map(|_| ()),
                    false => db.rollback_txn(t),
                }
                .unwrap();
                db.release_snapshot(snap);
                db.vacuum();
            }
            for q in reads {
                let want = format!("{:?}", dbs[1].execute(q));
                assert_eq!(format!("{:?}", dbs[0].execute(q)), want, "{q}");
            }
            // Nothing the transaction wrote is left behind, and every
            // index still files exactly the live rows.
            for t in ["SIM", "FILES"] {
                let rows = |db: &Database| db.tables[t].heap.len();
                assert_eq!(rows(&dbs[0]), rows(&dbs[1]), "{t}");
            }
            assert_eq!(dbs[0].mvcc.version_entries(), dbs[1].mvcc.version_entries());
            dbs[0].write_snapshot(true).unwrap();
        }
    }

    /// An image lists only the indexes `create_table` does not make, and
    /// carries an order for every index: one a user named like an
    /// implicit one must come back, with its order.
    #[test]
    fn an_index_named_like_an_implicit_one_survives_a_checkpoint() {
        let dir = temp_dir("named-index");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE author (k INTEGER PRIMARY KEY, email VARCHAR(40))")
            .unwrap();
        db.execute("CREATE UNIQUE INDEX uq_email ON author (email)")
            .unwrap();
        db.execute("CREATE INDEX pk_by_email ON author (email, k)")
            .unwrap();
        db.execute("INSERT INTO author VALUES (1, 'a@x'), (2, 'b@x')")
            .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        let t = db.table("AUTHOR").unwrap();
        let names: Vec<&str> = t.indexes.iter().map(|ix| ix.name.as_str()).collect();
        assert_eq!(names, ["PK_AUTHOR", "UQ_EMAIL", "PK_BY_EMAIL"]);
        assert!(t.indexes.iter().all(|ix| ix.tree.len() == 2));
        let dup = db.execute("INSERT INTO author VALUES (3, 'a@x')");
        assert!(matches!(dup, Err(DbError::Constraint(_))), "{dup:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A UNIQUE column that is also the whole primary key gets no index of
    /// its own, so a user may take that index's name: it is a real index,
    /// and the image must name it.
    #[test]
    fn an_index_named_like_a_skipped_unique_one_survives_a_checkpoint() {
        for ddl in [
            "CREATE TABLE t (k INTEGER PRIMARY KEY UNIQUE, v INTEGER)",
            "CREATE TABLE t (k INTEGER, v INTEGER, PRIMARY KEY (k), UNIQUE (k))",
        ] {
            let dir = temp_dir("skipped-unique");
            let mut db = Database::open(&dir).unwrap();
            db.execute(ddl).unwrap();
            db.execute("CREATE INDEX uq_t_k ON t (k)").unwrap();
            db.execute("INSERT INTO t VALUES (2, 20), (1, 10)").unwrap();
            db.checkpoint().unwrap();
            drop(db);
            let mut db = Database::open(&dir).unwrap();
            let t = db.table("T").unwrap();
            let names: Vec<&str> = t.indexes.iter().map(|ix| ix.name.as_str()).collect();
            assert_eq!(names, ["PK_T", "UQ_T_K"], "{ddl}");
            assert!(t.indexes.iter().all(|ix| ix.tree.len() == 2), "{ddl}");
            let rs = db.execute("SELECT v FROM t WHERE k = 1").unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Int(10)]], "{ddl}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_refuses_a_record_that_does_not_decode_and_touches_nothing() {
        let dir = temp_dir("bad-record");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(20))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (3, 'three')").unwrap();
        let on_disk = |name: &str| std::fs::read(dir.join(name)).unwrap();
        let (snap, wal) = (on_disk(SNAPSHOT_FILE), on_disk(WAL_FILE));
        assert!(wal.len() > 8, "the log holds the third row");

        // Memory damage: a record whose second cell claims a tag that
        // does not exist, and one with bytes after its last cell.
        let mut rec = Vec::new();
        encode_row(&[Value::Int(4), Value::Str("four".into())], &mut rec);
        for damage in [
            |rec: &mut Vec<u8>| rec[13] = 0xEE,
            |rec: &mut Vec<u8>| rec.push(0),
        ] {
            let mut bad = rec.clone();
            damage(&mut bad);
            let heap = &mut db.tables.get_mut("T").unwrap().heap;
            let rid = heap.insert_record(bad.into());
            let err = db.checkpoint().unwrap_err();
            assert!(
                matches!(&err, DbError::Storage(m) if m.starts_with("T row ") && m.contains("row decode")),
                "{err}"
            );
            assert_eq!(on_disk(SNAPSHOT_FILE), snap);
            assert_eq!(on_disk(WAL_FILE), wal);
            assert!(!dir.join("snapshot.tmp").exists());
            assert!(db.tables.get_mut("T").unwrap().heap.delete(rid));
        }
        // With the damage gone the checkpoint goes through, and what was
        // on disk all along reopens to the three rows.
        db.checkpoint().unwrap();
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.execute("SELECT k FROM t").unwrap().rows.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_row_narrower_than_its_table_is_a_typed_error() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(20))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one')").unwrap();
        // A whole, well-formed record — of one cell.
        let mut rec = Vec::new();
        encode_row(&[Value::Int(2)], &mut rec);
        db.tables
            .get_mut("T")
            .unwrap()
            .heap
            .insert_record(rec.into());
        let refused = |err: DbError| {
            assert_eq!(
                err,
                DbError::Storage("T row 0x1: row decode: 1 cells for 2 columns".into())
            );
        };
        refused(db.write_snapshot(true).unwrap_err());
        // The reference checks nothing: its image carries the record.
        let image = snapshot_by_reencoding(&db);
        refused(Database::new_in_memory().load_snapshot(&image).unwrap_err());
    }

    /// Every single-bit flip of a whole frame is damage its checksums
    /// find, at the frame's offset, and `open` refuses it by name; the
    /// frame cut short at any byte is dropped, leaving the base.
    #[test]
    fn every_bit_flipped_in_a_frame_is_found_and_every_cut_dropped() {
        let dir = temp_dir("frame-flips");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(20))")
            .unwrap();
        db.checkpoint().unwrap();
        let base = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap().len();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let file = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(file.len() > base + PAGE_SIZE, "a frame of one page");
        let mut flipped = file.clone();
        for at in base..file.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let (frames, _, damage) = snapshot_frames(&flipped);
                assert_eq!((frames.len(), damage.map(|d| d.0)), (1, Some(base)));
                flipped[at] ^= 1 << bit;
            }
        }
        for at in [base, base + 13, file.len() - 1] {
            flipped[at] ^= 0x10;
            let err = Database::new_in_memory().load_snapshot(&flipped);
            let named = format!("snapshot at byte {base}: ");
            assert!(matches!(err, Err(DbError::Storage(m)) if m.starts_with(&named)));
            flipped[at] ^= 0x10;
        }
        for cut in base..file.len() {
            let (frames, end, damage) = snapshot_frames(&file[..cut]);
            assert_eq!((frames.len(), end, damage), (1, base, None));
        }
        let mut back = Database::new_in_memory();
        back.load_snapshot(&file).unwrap();
        assert_eq!(back.execute("SELECT k FROM t").unwrap().rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The [`Database`] facade: catalog + heaps + indexes + transactions,
//! DDL, WAL replay, and the SQL/MED observer hook that `easia-datalink`
//! attaches link-control semantics through. The checked row writer is
//! `db/write.rs`; the checkpoint image is [`crate::storage::snapshot`].

mod write;

use crate::error::{DbError, Result};
use crate::exec;
use crate::expr::FnRegistry;
use crate::index::BPlusTree;
use crate::mvcc::{Csn, MvccState, ReadView, SnapshotId, TxnId, VacuumStats};
use crate::schema::{ColumnDef, DatalinkSpec, ForeignKey, TableSchema};
use crate::scrub::ScrubReport;
use crate::sql::ast::{ColumnDefAst, Stmt, TableConstraint};
use crate::sql::parse;
use crate::storage::snapshot::{self, fill_indexes, Entry};
use crate::storage::{HeapTable, RowId, PAGE_SIZE};
use crate::txn::{seal_batch, Wal, WalCorruption, WalRecord, WAL_FILE};
use crate::value::Value;
use std::collections::BTreeMap;
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

impl Index {
    /// Does one NULL-free key file two rows `counts` names — what a
    /// unique index may not? Equal keys are the tree's: one entry.
    pub(crate) fn holds_twice(&self, counts: impl Fn(RowId) -> bool) -> bool {
        let mut twice = false;
        self.tree.scan_from_key(&[], |key, rows| {
            twice = rows.iter().filter(|&&rid| counts(rid)).nth(1).is_some()
                && !key.values().iter().any(Value::is_null);
            !twice
        });
        twice
    }
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
}

/// The embedded database.
pub struct Database {
    tables: BTreeMap<String, Table>,
    functions: FnRegistry,
    observers: Vec<Rc<dyn LinkObserver>>,
    /// MVCC registry: open views + row-version metadata.
    mvcc: MvccState,
    /// Per-transaction write sets (redo + created/deleted row ids). An
    /// open view without one is a snapshot: a reader.
    txns: BTreeMap<TxnId, TxnWrites>,
    /// The transaction SQL `BEGIN` opened, until `COMMIT` or `ROLLBACK`:
    /// the one statements run through [`Database::execute`] run in.
    session: Option<TxnId>,
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

/// Write set of one in-flight transaction. Its read view is kept by
/// [`MvccState::view_of`].
#[derive(Default)]
struct TxnWrites {
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

const QUARANTINE_FILE: &str = "wal.log.quarantined";

/// What a snapshot read answers a statement that is not a SELECT.
fn read_only() -> DbError {
    DbError::Txn("snapshot sessions are read-only".into())
}

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
        let snap = dir.join(snapshot::FILE);
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
    /// A quiescent checkpoint vacuums first, and so compacts what that
    /// vacuum's rule says to. Then it appends a frame of its dirty pages
    /// to `snapshot.db` and syncs it: nothing else, since what the frame
    /// removes from the index orders and files in them is read off those
    /// pages against the ones they replace when the file is opened
    /// (`snapshot::read`). The whole image is rewritten beside
    /// it and renamed into place instead when the file has no base, when
    /// DDL ran or a heap was compacted since the last checkpoint, or when
    /// its frames together outgrow its base (`snapshot::publish`).
    /// Either way the log empties last.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(()); // in-memory: nothing to do
        };
        if self.group.is_some() {
            return Err(DbError::Txn(
                "cannot checkpoint inside a commit window".into(),
            ));
        }
        if self.quiescent() {
            // Reclaim dead versions first, so that the image (and the
            // version map) hold the live rows only.
            self.vacuum_internal();
        }
        let full = self.rewrite || self.image.is_none_or(|i| i.end - i.base > i.base);
        // A versioned record's visibility can change without a heap
        // write, so its page is written whatever its dirty bit says: the
        // frame's page then shows whether the image holds the row.
        for (name, t) in &mut self.tables {
            let versioned = self.mvcc.table_versions(name).into_iter();
            for &rid in versioned.flat_map(|v| v.keys()) {
                t.heap.mark_dirty(rid);
            }
        }
        let bytes = self.write_snapshot(full)?;
        let frames = self.image.filter(|_| !full);
        snapshot::publish(&dir, &bytes, frames.map(|i| i.end))?;
        let len = bytes.len() as u64;
        self.image = Some(match frames {
            Some(i) => ImageExtent {
                end: i.end + len,
                ..i
            },
            None => ImageExtent {
                base: len,
                end: len,
            },
        });
        self.rewrite = false;
        self.published();
        self.wal.truncate()
    }

    /// No view is open, reader's or writer's: a vacuum then leaves no
    /// version entry, and no write set holds a row id.
    fn quiescent(&self) -> bool {
        self.mvcc.open_views() == 0
    }

    /// Compact each heap whose deleted records take more than a quarter
    /// of its pages ([`HeapTable::compact`]) and rename its rows in its
    /// trees, the only holders of its row ids once the database is
    /// quiescent. A record that is still in the heap stays. The heap's
    /// pages are no longer the file's, so the next checkpoint rewrites
    /// the image.
    fn compact(&mut self) {
        assert!(self.quiescent() && !self.mvcc.has_versions());
        for t in self.tables.values_mut() {
            if 4 * t.heap.dead_bytes() <= t.heap.page_count() * PAGE_SIZE {
                continue;
            }
            let moves = t.heap.compact();
            for ix in &mut t.indexes {
                ix.tree
                    .rename_rows(|rid| moves.get(rid).expect("a tree files only heap rows"));
            }
            self.rewrite = true;
        }
    }

    /// An image at the commit horizon was published: every page is clean
    /// once written with every record on it frozen, so a page holding a
    /// versioned record stays dirty.
    fn published(&mut self) {
        for (name, t) in &mut self.tables {
            t.heap.mark_clean();
            let versions = self.mvcc.table_versions(name).into_iter();
            versions
                .flat_map(|v| v.keys())
                .for_each(|&rid| t.heap.mark_dirty(rid));
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

    /// Execute a statement with positional `?` parameters, in the
    /// transaction SQL `BEGIN` opened. Outside one, a SELECT reads the
    /// latest committed state and a write runs in a transaction of its
    /// own.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let stmt = parse(sql)?;
        self.execute_stmt(stmt, params, sql, self.session)
    }

    /// Run a SELECT with positional `?` parameters, lending each result
    /// row's record to `each` as [`exec::run_select_each`] does, instead
    /// of collecting a result set.
    pub fn execute_each(
        &self,
        sql: &str,
        params: &[Value],
        mut each: impl FnMut(&[u8]),
    ) -> Result<()> {
        let refused = || DbError::Eval("execute_each runs a SELECT".into());
        self.select_at(self.read_view(), sql, params, &mut each, refused)
            .map(drop)
    }

    /// The one body of every read by SQL text: parse it, book one
    /// SELECT, and run it at `view`, its rows' records lent to `each`.
    /// Returns the result's columns. Any other statement is `refused`.
    fn select_at(
        &self,
        view: ReadView,
        sql: &str,
        params: &[Value],
        each: &mut dyn FnMut(&[u8]),
        refused: fn() -> DbError,
    ) -> Result<Vec<String>> {
        let Stmt::Select(sel) = parse(sql)? else {
            return Err(refused());
        };
        if let Some(m) = &self.metrics {
            m.statement(crate::obs::StmtKind::Select);
        }
        exec::run_select_each(self, &view, &sel, params, &[], each)
    }

    /// Execute `stmt` in `txn`, or outside any transaction when `None`.
    fn execute_stmt(
        &mut self,
        stmt: Stmt,
        params: &[Value],
        sql: &str,
        txn: Option<TxnId>,
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
        let affected = |n| ResultSet {
            affected: n,
            ..Default::default()
        };
        let result = match stmt {
            Stmt::Select(sel) => {
                let view = self.view(txn);
                return exec::run_select_over(self, &view, &sel, params, &[]);
            }
            Stmt::Begin => {
                if txn.is_some() {
                    return Err(DbError::Txn("transaction already active".into()));
                }
                self.session = Some(self.begin_txn());
                return Ok(ResultSet::default());
            }
            Stmt::Commit => {
                let t = self.session.take();
                let t = t.ok_or_else(|| DbError::Txn("COMMIT without BEGIN".into()))?;
                self.commit_txn_internal(t)?;
                return Ok(ResultSet::default());
            }
            Stmt::Rollback => {
                let t = self.session.take();
                let t = t.ok_or_else(|| DbError::Txn("ROLLBACK without BEGIN".into()))?;
                self.rollback_txn_internal(t);
                return Ok(ResultSet::default());
            }
            Stmt::CreateTable { .. } | Stmt::DropTable { .. } | Stmt::CreateIndex { .. } => {
                if txn.is_some() {
                    return Err(DbError::Txn(
                        "DDL inside a transaction is not supported".into(),
                    ));
                }
                self.apply_ddl(&stmt)?;
                let csn = self.mvcc.allocate_csn();
                self.wal
                    .append_committed(&[WalRecord::Ddl(sql.to_string())], csn)?;
                self.note_wal_sync(1);
                ResultSet::default()
            }
            Stmt::Insert {
                table,
                columns,
                rows,
            } => affected(self.write_in(txn, |db, t| {
                db.run_insert(t, &table, &columns, &rows, params)
            })?),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => affected(self.write_in(txn, |db, t| {
                db.run_update(t, &table, &sets, where_clause.as_ref(), params)
            })?),
            Stmt::Delete {
                table,
                where_clause,
            } => affected(self.write_in(txn, |db, t| {
                db.run_delete(t, &table, where_clause.as_ref(), params)
            })?),
        };
        self.writes += 1;
        Ok(result)
    }

    /// Run `write` in `txn`. Outside any transaction it runs in one of
    /// its own, committed if `write` succeeds and rolled back if it fails.
    fn write_in<T>(
        &mut self,
        txn: Option<TxnId>,
        write: impl FnOnce(&mut Self, TxnId) -> Result<T>,
    ) -> Result<T> {
        if let Some(t) = txn {
            return write(self, t);
        }
        let t = self.begin_txn();
        match write(self, t) {
            Ok(out) => {
                self.commit_txn_internal(t)?;
                Ok(out)
            }
            Err(e) => {
                self.rollback_txn_internal(t);
                Err(e)
            }
        }
    }

    /// The read view of a statement in `txn` ([`MvccState::view_of`]),
    /// or of one outside any transaction: the latest committed state.
    fn view(&self, txn: Option<TxnId>) -> ReadView {
        txn.and_then(|t| self.mvcc.view_of(t))
            .unwrap_or_else(ReadView::latest)
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
        if self.resolves_links(id) && !self.replaying {
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
        if self.resolves_links(id) {
            for obs in &self.observers {
                obs.on_rollback();
            }
        }
        self.maybe_autovacuum();
    }

    /// Whether the link observers hear how `id` resolved: not while
    /// another transaction holds the pending DATALINK operations. `id`
    /// releases them if it holds them.
    fn resolves_links(&mut self, id: TxnId) -> bool {
        let other = self.link_owner.is_some_and(|owner| owner != id);
        if !other {
            self.link_owner = None;
        }
        !other
    }

    /// Reclaim dead versions opportunistically once nothing can see them.
    fn maybe_autovacuum(&mut self) {
        if self.quiescent() && self.mvcc.has_versions() {
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
    /// horizon: a transaction that never writes. Release it with
    /// [`Database::release_snapshot`]; vacuum never reclaims versions a
    /// live snapshot can still see.
    pub fn begin_snapshot(&mut self) -> SnapshotId {
        let id = SnapshotId(self.mvcc.begin_txn());
        if let Some(m) = &self.metrics {
            m.open_snapshots.set(self.open_snapshots() as f64);
        }
        id
    }

    /// Release a snapshot. Returns false when the id names no open
    /// snapshot (a writer's id included: the writer stays open).
    pub fn release_snapshot(&mut self, snap: SnapshotId) -> bool {
        let open = self.reader_view(snap).is_ok();
        if open {
            self.mvcc.forget(snap.0);
        }
        if let Some(m) = &self.metrics {
            m.open_snapshots.set(self.open_snapshots() as f64);
        }
        self.maybe_autovacuum();
        open
    }

    /// The read view of open snapshot `snap`: an open view with no
    /// write set.
    fn reader_view(&self, snap: SnapshotId) -> Result<ReadView> {
        (self.mvcc.view_of(snap.0))
            .filter(|_| !self.txns.contains_key(&snap.0))
            .ok_or_else(|| DbError::Txn(format!("unknown snapshot {}", snap.0)))
    }

    /// Run a read-only query against a snapshot's pinned view. Writers
    /// committing after the snapshot was taken are invisible.
    pub fn snapshot_query(
        &self,
        snap: SnapshotId,
        sql: &str,
        params: &[Value],
    ) -> Result<ResultSet> {
        let view = self.reader_view(snap)?;
        exec::result_set(|each| self.select_at(view, sql, params, each, read_only))
    }

    /// [`Database::snapshot_query`], lending each result row's record to
    /// `each` as [`Database::execute_each`] does instead of collecting a
    /// result set. Returns the result's columns.
    pub fn snapshot_query_each(
        &self,
        snap: SnapshotId,
        sql: &str,
        params: &[Value],
        mut each: impl FnMut(&[u8]),
    ) -> Result<Vec<String>> {
        let view = self.reader_view(snap)?;
        self.select_at(view, sql, params, &mut each, read_only)
    }

    /// Begin a transaction with a snapshot-isolation read view pinned
    /// at the current commit horizon: the one kind of transaction, which
    /// SQL `BEGIN` and every write outside one open too. Drive it with
    /// [`Database::txn_execute`] and resolve it with
    /// [`Database::commit_txn`] / [`Database::rollback_txn`]. Multiple
    /// transactions may be in flight at once (logical concurrency);
    /// first-committer-wins conflicts surface as `write conflict` errors
    /// at write time.
    pub fn begin_txn(&mut self) -> TxnId {
        let t = self.mvcc.begin_txn();
        self.txns.insert(t, TxnWrites::default());
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
        self.execute_stmt(stmt, params, sql, Some(txn))
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

    /// Reclaim row versions no open snapshot or transaction can see;
    /// then, when quiescent, compact the heaps with most dead space
    /// (the compaction rule: a heap whose dead records take over a
    /// quarter of its pages).
    pub fn vacuum(&mut self) -> VacuumStats {
        self.vacuum_internal()
    }

    fn vacuum_internal(&mut self) -> VacuumStats {
        let horizon = self.mvcc.horizon();
        let (dead, frozen) = self.mvcc.sweep(horizon);
        for (table, rid) in &dead {
            self.physical_delete(table, *rid);
        }
        if self.quiescent() {
            self.compact();
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

    /// Number of open snapshots: open views without a write set.
    pub fn open_snapshots(&self) -> usize {
        self.mvcc.open_views() - self.txns.len()
    }

    /// Number of in-flight transactions, the SQL session's included;
    /// snapshots are not counted.
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// The newest committed CSN.
    pub fn last_csn(&self) -> Csn {
        self.mvcc.last_csn()
    }

    /// Row-version visibility of `table` to `view` for executor scans:
    /// the table's version map is taken once, not per row. `None` when
    /// the table has none: every row is visible to every view.
    pub(crate) fn row_visibility<'a>(
        &'a self,
        table: &str,
        view: &'a ReadView,
    ) -> Option<impl Fn(RowId) -> bool + 'a> {
        let versions = self.mvcc.table_versions(table)?;
        Some(move |rid| self.mvcc.visible_in(Some(versions), rid, view))
    }

    /// The read view a SELECT run through [`Database::execute`] right
    /// now would use: the SQL session's, else the latest committed
    /// state. External executors driving [`exec::run_select_over`]
    /// directly use this.
    pub fn read_view(&self) -> ReadView {
        self.view(self.session)
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
        fill_indexes(&t.schema, &t.heap, std::slice::from_mut(&mut ix), None)?;
        let versions = self.mvcc.table_versions(&tname);
        let view = ReadView::latest();
        if unique && ix.holds_twice(|rid| self.mvcc.visible_in(versions, rid, &view)) {
            let what = format!("duplicate key for unique index {}", ix.name);
            return Err(DbError::Constraint(what));
        }
        t.indexes.push(ix);
        Ok(())
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

    /// The committed state as [`snapshot::write`] serialises it: the
    /// whole image (`full`), or a frame of the tables that have a dirty
    /// page or overflow entry. Rows are filtered to the commit horizon's
    /// read view, so a checkpoint taken under in-flight transactions or
    /// open snapshots writes exactly what a fresh reader would see.
    fn write_snapshot(&self, full: bool) -> Result<Vec<u8>> {
        let view = &self.mvcc.committed_view();
        let tables: Vec<_> = (self.tables.iter())
            .filter(|(_, t)| full || t.heap.is_dirty())
            .collect();
        snapshot::write(full, view.csn, &tables, |name, t| {
            image_rows(&self.mvcc, name, &t.heap, view)
        })
    }

    /// Load a checkpoint file [`snapshot::read`] reads, applying its DDL
    /// as replay does. The CSN counter moves past the image's CSN, which
    /// is returned.
    fn load_snapshot(&mut self, file: &[u8]) -> Result<Csn> {
        self.replaying = true;
        let read = snapshot::read(file, self);
        self.replaying = false;
        let (csn, base, end) = read?;
        self.image = Some(ImageExtent { base, end });
        self.published();
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

/// What an image at `view` holds of the table `name` stored in `heap`:
/// its live row count, and whether it holds each row. Every record the
/// view cannot see has a version entry.
fn image_rows<'a>(
    mvcc: &'a MvccState,
    name: &str,
    heap: &HeapTable,
    view: &'a ReadView,
) -> (usize, impl Fn(RowId) -> bool + 'a) {
    let versions = mvcc.table_versions(name);
    let visible = move |rid| mvcc.visible_in(versions, rid, view);
    let hidden = (versions.into_iter().flat_map(|v| v.keys()))
        .filter(|&&rid| heap.record(rid).is_some() && !visible(rid))
        .count();
    (heap.len() - hidden, visible)
}

impl snapshot::Restore for Database {
    fn table(&mut self, entry: Entry) -> Result<&mut Table> {
        let name = match entry {
            Entry::Name(name) => name,
            Entry::Create(table, indexes) => {
                let stmt = parse(&table)?;
                let Stmt::CreateTable { name, .. } = &stmt else {
                    return Err(DbError::Storage("snapshot: expected CREATE TABLE".into()));
                };
                let name = name.to_ascii_uppercase();
                self.apply_ddl(&stmt)?;
                for ddl in indexes {
                    let stmt = parse(&ddl)?;
                    if !matches!(stmt, Stmt::CreateIndex { .. }) {
                        return Err(DbError::Storage("snapshot: expected CREATE INDEX".into()));
                    }
                    self.apply_ddl(&stmt)?;
                }
                name
            }
        };
        (self.tables.get_mut(&name))
            .ok_or_else(|| DbError::Storage(format!("snapshot: a frame names no table {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::snapshot::{index_to_ddl, schema_to_ddl, MAGIC};
    use crate::value::encode_row;

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
            let places = t.heap.places();
            let place = |rid| places.of(rid).unwrap();
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
            let overflow = places.count() - slots;
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
        let mut out = MAGIC.to_vec();
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

    /// A quiescent vacuum compacts each heap whose deleted records take
    /// more than a quarter of its pages, and then reads as a twin loaded
    /// with only the surviving rows, in the same order: the same row ids,
    /// records and index entries. A vacuum with a transaction in flight
    /// reclaims versions but compacts nothing, and a heap under the
    /// quarter is left as it is.
    #[test]
    fn a_quiescent_vacuum_compacts_to_the_surviving_rows() {
        let mut db = Database::new_in_memory();
        populate(&mut db);
        let snap = db.begin_snapshot();
        db.execute("DELETE FROM files WHERE n % 3 <> 1").unwrap();
        db.execute("DELETE FROM sim WHERE k < 'S0200' OR k = 'S0123'")
            .unwrap();
        let t = db.begin_txn();
        db.release_snapshot(snap);
        assert_eq!(db.vacuum().versions_removed, 200 + 800);
        let dead = |db: &Database, t: &str| db.tables[t].heap.dead_bytes();
        assert!(dead(&db, "SIM") > 0 && dead(&db, "FILES") > 0);
        db.rollback_txn(t).unwrap();
        assert!(
            dead(&db, "SIM") > 0,
            "a rollback that leaves no version does not vacuum"
        );

        let mut twin = Database::new_in_memory();
        for (name, t) in &db.tables {
            twin.execute(&schema_to_ddl(&t.schema)).unwrap();
            for ix in t.indexes.iter().filter(|ix| !ix.implicit) {
                twin.execute(&index_to_ddl(&t.schema, ix)).unwrap();
            }
            twin.execute("BEGIN").unwrap();
            for (_, rec) in t.heap.records() {
                let row = crate::value::decode_row(rec, &mut 0).unwrap();
                twin.insert_row(name, row).unwrap();
            }
            twin.execute("COMMIT").unwrap();
        }
        db.vacuum();
        assert!(dead(&db, "SIM") == 0 && dead(&db, "FILES") == 0);
        for (name, t) in &db.tables {
            let other = &twin.tables[name];
            let records = |t: &Table| {
                (t.heap.records().map(|(rid, rec)| (rid, rec.to_vec()))).collect::<Vec<_>>()
            };
            assert_eq!(records(t), records(other), "{name}");
            for (ix, twin_ix) in t.indexes.iter().zip(&other.indexes) {
                let entries = |ix: &Index| {
                    let mut entries = Vec::new();
                    ix.tree.scan_from(&[], |k, rids| {
                        entries.push((k.0.to_vec(), rids.to_vec()));
                        true
                    });
                    entries
                };
                assert_eq!(entries(ix), entries(twin_ix), "{name}.{}", ix.name);
            }
        }
        for q in [
            "SELECT k, title, re, doc FROM sim",
            "SELECT name, k, n FROM files WHERE k > 'S0390'",
            "SELECT name FROM files WHERE k = 'S0301' ORDER BY name",
        ] {
            // As text: a NaN is not `==` to itself.
            let read = |db: &mut Database| format!("{:?}", db.execute(q).unwrap());
            assert_eq!(read(&mut db), read(&mut twin), "{q}");
        }
        db.execute("DELETE FROM sim WHERE k = 'S0300'").unwrap();
        assert!(dead(&db, "SIM") > 0, "one deleted row is under the quarter");
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
        let (snap, wal) = (on_disk(snapshot::FILE), on_disk(WAL_FILE));
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
            assert_eq!(on_disk(snapshot::FILE), snap);
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
}

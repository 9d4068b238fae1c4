//! The [`Database`] facade: catalog + heaps + indexes + transactions,
//! DDL/DML execution, constraint enforcement, and the SQL/MED observer
//! hook that `easia-datalink` attaches link-control semantics through.

use crate::crc::crc32;
use crate::error::{DbError, Result};
use crate::exec;
use crate::expr::{Bound, EvalContext, FnRegistry, RowSchema};
use crate::index::btree::has_prefix;
use crate::index::BPlusTree;
use crate::mvcc::{Csn, MvccState, ReadView, SnapshotId, TxnId, VacuumStats, LATEST_CSN};
use crate::schema::{ColumnDef, DatalinkSpec, ForeignKey, TableSchema};
use crate::scrub::ScrubReport;
use crate::sql::ast::{ColumnDefAst, Stmt, TableConstraint};
use crate::sql::parse;
use crate::storage::{HeapTable, RowId};
use crate::txn::{seal_batch, Wal, WalCorruption, WalRecord};
use crate::value::{decode_row_into, encode_row, Value};
use std::collections::{BTreeMap, HashSet};
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
    /// The tree.
    pub tree: BPlusTree,
}

impl Index {
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.col_indices.iter().map(|&i| row[i].clone()).collect()
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
        if snap.exists() {
            let bytes = std::fs::read(&snap)
                .map_err(|e| DbError::Storage(format!("read snapshot: {e}")))?;
            db.load_snapshot(&bytes)?;
        }
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
        db.replaying = true;
        let records_replayed = parse.records.len();
        for rec in parse.records {
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

    /// Write a snapshot and truncate the WAL.
    ///
    /// Non-blocking: runs under open snapshots and in-flight
    /// transactions by checkpointing *at the current commit horizon* —
    /// the image holds exactly the rows a fresh reader would see now.
    /// Uncommitted work is excluded (it reaches the fresh log at its own
    /// commit), and old versions pinned only by open snapshots are
    /// excluded too (snapshots do not survive a restart). Only an open
    /// group-commit window blocks: its staged-but-unsynced commits are
    /// already visible in memory and would otherwise be persisted twice.
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
            // Quiescent: reclaim dead versions first so the snapshot
            // (and the version map) shrink to the live rows.
            self.vacuum_internal();
        }
        let bytes = self.write_snapshot()?;
        let tmp = dir.join("snapshot.tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| DbError::Storage(format!("write snapshot: {e}")))?;
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))
            .map_err(|e| DbError::Storage(format!("publish snapshot: {e}")))?;
        self.wal.truncate()
    }

    /// Verify every checksum behind the commit horizon: the snapshot
    /// body CRC and each record frame of every complete WAL batch. Pure
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
                exec::run_select(self, &view, &sel, params)
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
        exec::run_select(self, &view, &sel, params)
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
    /// executors driving [`exec::run_select`] directly use this.
    pub fn read_view(&self) -> ReadView {
        self.stmt_view()
    }

    // ---- DDL ----

    fn apply_ddl(&mut self, stmt: &Stmt) -> Result<()> {
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
            |rid, key| {
                if unique
                    && !key.iter().any(Value::is_null)
                    && mvcc.visible_in(versions, rid, &view)
                {
                    let mut enc = Vec::new();
                    encode_row(key, &mut enc);
                    if !seen.insert(enc) {
                        return Err(DbError::Constraint(duplicate.clone()));
                    }
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
        let tname = table.to_ascii_uppercase();
        let schema = self
            .schema(&tname)
            .ok_or_else(|| DbError::Catalog(format!("table {tname} does not exist")))?
            .clone();
        let row = self.check_row(&schema, row)?;
        let txn = self.write_txn();
        self.check_unique(&tname, &row, None, txn)?;
        self.check_fk_child(&schema, &row, txn)?;
        // Observers: link every non-null DATALINK value.
        if !self.replaying {
            for (i, spec) in schema.datalink_columns() {
                if let Value::Datalink(url) = &row[i] {
                    self.claim_links(txn)?;
                    for obs in &self.observers {
                        obs.on_link(&tname, &schema.columns[i].name, spec, url)?;
                    }
                }
            }
        }
        let rid = self.physical_insert(&tname, &row);
        self.mvcc.note_insert(&tname, rid, txn);
        let tw = self.txns.get_mut(&txn).expect("write txn is active");
        tw.created.push((tname.clone(), rid));
        tw.redo.push(WalRecord::Insert { table: tname, row });
        if let Some(m) = &self.metrics {
            m.versions_created.inc();
        }
        self.writes += 1;
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
            self.update_row(&tname, rid, old_row, new_row)?;
            affected += 1;
        }
        Ok(affected)
    }

    /// Typed row update.
    pub fn update_row(
        &mut self,
        table: &str,
        rid: RowId,
        old_row: Vec<Value>,
        new_row: Vec<Value>,
    ) -> Result<()> {
        let tname = table.to_ascii_uppercase();
        let schema = self.schema(&tname).expect("caller validated table").clone();
        let new_row = self.check_row(&schema, new_row)?;
        let txn = self.write_txn();
        self.check_write_conflict(&tname, rid, txn)?;
        self.check_unique(&tname, &new_row, Some(rid), txn)?;
        self.check_fk_child(&schema, &new_row, txn)?;
        self.check_fk_parent(&tname, &schema, &old_row, Some(&new_row), txn)?;
        if !self.replaying {
            for (i, spec) in schema.datalink_columns() {
                let old_url = match &old_row[i] {
                    Value::Datalink(u) => Some(u.clone()),
                    _ => None,
                };
                let new_url = match &new_row[i] {
                    Value::Datalink(u) => Some(u.clone()),
                    _ => None,
                };
                if old_url != new_url {
                    self.claim_links(txn)?;
                    let col = &schema.columns[i].name;
                    if let Some(u) = &old_url {
                        for obs in &self.observers {
                            obs.on_unlink(&tname, col, spec, u)?;
                        }
                    }
                    if let Some(u) = &new_url {
                        for obs in &self.observers {
                            obs.on_link(&tname, col, spec, u)?;
                        }
                    }
                }
            }
        }
        // MVCC update = delete-stamp the old version + insert the new row
        // as a fresh version; readers pinned before our commit keep
        // seeing the old row until vacuum reclaims it.
        self.mvcc.stamp_delete(&tname, rid, txn);
        let new_id = self.physical_insert(&tname, &new_row);
        self.mvcc.note_insert(&tname, new_id, txn);
        let tw = self.txns.get_mut(&txn).expect("write txn is active");
        tw.deleted.push((tname.clone(), rid));
        tw.created.push((tname.clone(), new_id));
        tw.redo.push(WalRecord::Update {
            table: tname,
            old_id: rid,
            old: old_row,
            new: new_row,
        });
        if let Some(m) = &self.metrics {
            m.versions_created.inc();
        }
        Ok(())
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
            self.delete_row(&tname, rid, row)?;
            affected += 1;
        }
        Ok(affected)
    }

    /// Typed row delete.
    pub fn delete_row(&mut self, table: &str, rid: RowId, row: Vec<Value>) -> Result<()> {
        let tname = table.to_ascii_uppercase();
        let schema = self.schema(&tname).expect("caller validated table").clone();
        let txn = self.write_txn();
        self.check_write_conflict(&tname, rid, txn)?;
        self.check_fk_parent(&tname, &schema, &row, None, txn)?;
        if !self.replaying {
            for (i, spec) in schema.datalink_columns() {
                if let Value::Datalink(url) = &row[i] {
                    self.claim_links(txn)?;
                    for obs in &self.observers {
                        obs.on_unlink(&tname, &schema.columns[i].name, spec, url)?;
                    }
                }
            }
        }
        // MVCC delete: stamp only — the heap row survives for older read
        // views until vacuum reclaims it after our commit passes the
        // horizon.
        self.mvcc.stamp_delete(&tname, rid, txn);
        let tw = self.txns.get_mut(&txn).expect("write txn is active");
        tw.deleted.push((tname.clone(), rid));
        tw.redo.push(WalRecord::Delete {
            table: tname,
            row_id: rid,
            row,
        });
        Ok(())
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
        for ix in &t.indexes {
            if !ix.unique {
                continue;
            }
            let key = ix.key_of(row);
            if key.iter().any(Value::is_null) {
                continue; // NULLs are exempt from uniqueness
            }
            for hit in ix.tree.get(&key) {
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

    /// Child-side FK check: every FK value combination must exist in the
    /// referenced table (NULLs exempt a key). Only rows visible to the
    /// writing transaction count.
    fn check_fk_child(&self, schema: &TableSchema, row: &[Value], txn: TxnId) -> Result<()> {
        let view = ReadView {
            csn: LATEST_CSN,
            txn: Some(txn),
        };
        for fk in &schema.foreign_keys {
            let vals: Vec<Value> = fk
                .columns
                .iter()
                .map(|c| row[schema.column_index(c).expect("fk validated")].clone())
                .collect();
            if vals.iter().any(Value::is_null) {
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
            let found = if let Some(ix) = parent.index_matching(&ref_idx) {
                ix.tree
                    .get(&vals)
                    .iter()
                    .any(|&prid| self.mvcc.visible(&fk.ref_table, prid, &view))
            } else {
                parent.heap.scan().any(|(prid, prow)| {
                    self.mvcc.visible(&fk.ref_table, prid, &view)
                        && ref_idx.iter().zip(&vals).all(|(&i, v)| &prow[i] == v)
                })
            };
            if !found {
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
                if ref_idx.len() != fk.ref_columns.len() {
                    continue;
                }
                let old_key: Vec<&Value> = ref_idx.iter().map(|&i| &old_row[i]).collect();
                if old_key.iter().any(|v| v.is_null()) {
                    continue;
                }
                if let Some(new_row) = new_row {
                    let unchanged = ref_idx.iter().all(|&i| old_row[i] == new_row[i]);
                    if unchanged {
                        continue;
                    }
                }
                let child_idx: Vec<usize> = fk
                    .columns
                    .iter()
                    .map(|c| child.schema.column_index(c).expect("fk validated"))
                    .collect();
                let references = |crid: RowId, crow: &[Value]| {
                    self.mvcc.visible(child_name, crid, &view)
                        && child_idx
                            .iter()
                            .zip(&old_key)
                            .all(|(&ci, &pv)| &crow[ci] == pv)
                };
                // A child index led by the FK columns narrows the check
                // to the rows filed under the key; `references` decides.
                let referenced = match child
                    .indexes
                    .iter()
                    .find(|ix| ix.col_indices.starts_with(&child_idx))
                {
                    Some(ix) => {
                        let key: Vec<Value> = old_key.iter().map(|&v| v.clone()).collect();
                        let mut found = false;
                        ix.tree.scan_from(&key, |k, rids| {
                            let under_key = has_prefix(k, &key);
                            found = under_key
                                && rids.iter().any(|&crid| {
                                    child.heap.get(crid).is_some_and(|r| references(crid, &r))
                                });
                            under_key && !found
                        });
                        found
                    }
                    None => child
                        .heap
                        .scan()
                        .any(|(crid, crow)| references(crid, &crow)),
                };
                if referenced {
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
        for ix in &mut t.indexes {
            let key = ix.col_indices.iter().map(|&i| row[i].clone()).collect();
            ix.tree.insert(key, rid);
        }
        rid
    }

    fn physical_delete(&mut self, table: &str, rid: RowId) {
        let t = self.tables.get_mut(table).expect("caller validated table");
        if let Some(row) = t.heap.get(rid) {
            for ix in &mut t.indexes {
                let key = ix.key_of(&row);
                ix.tree.remove(&key, rid);
            }
            t.heap.delete(rid);
        }
    }

    fn physical_update(
        &mut self,
        table: &str,
        rid: RowId,
        old: &[Value],
        new: &[Value],
    ) -> Result<RowId> {
        let t = self.tables.get_mut(table).expect("caller validated table");
        for ix in &mut t.indexes {
            let key = ix.key_of(old);
            ix.tree.remove(&key, rid);
        }
        let new_id = t.heap.update(rid, new)?;
        for ix in &mut t.indexes {
            let key = ix.key_of(new);
            ix.tree.insert(key, new_id);
        }
        Ok(new_id)
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
                .get(&ix.key_of(row))
                .into_iter()
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
                self.physical_update(&table, rid, &old, &new)?;
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

    /// Serialise the committed state as a v2 snapshot:
    /// `EASNAP2\0` + body CRC32 + body. Rows are filtered to the commit
    /// horizon's read view, so a checkpoint taken under in-flight
    /// transactions or open snapshots writes exactly what a fresh reader
    /// would see (uncommitted and merely-pinned versions excluded; heap
    /// RowIds are not preserved, which is fine — indexes are rebuilt on
    /// load and WAL replay matches rows by value).
    ///
    /// A visible record is checked to be a row of its table
    /// ([`decode_record`]) and then copied as bytes: the fresh heap places
    /// a record by its length alone, so the image is the one that
    /// re-encoding every decoded row would write. A record that is not
    /// one is a typed error, raised before anything on disk is touched.
    fn write_snapshot(&self) -> Result<Vec<u8>> {
        let view = self.mvcc.committed_view();
        let mut scratch = Vec::new();
        // Room for the magic and the body's CRC, filled in at the end.
        let mut image = vec![0; 12];
        image.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for (name, t) in &self.tables {
            let ddl = schema_to_ddl(&t.schema);
            image.extend_from_slice(&(ddl.len() as u32).to_le_bytes());
            image.extend_from_slice(ddl.as_bytes());
            // Extra (non-implicit) indexes as DDL too.
            let extra: Vec<String> = t
                .indexes
                .iter()
                .filter(|ix| !ix.name.starts_with("PK_") && !ix.name.starts_with("UQ_"))
                .map(|ix| index_to_ddl(&t.schema, ix))
                .collect();
            image.extend_from_slice(&(extra.len() as u32).to_le_bytes());
            for ddl in extra {
                image.extend_from_slice(&(ddl.len() as u32).to_le_bytes());
                image.extend_from_slice(ddl.as_bytes());
            }
            let versions = self.mvcc.table_versions(name);
            let mut committed = HeapTable::new();
            for (rid, rec) in t.heap.records() {
                if self.mvcc.visible_in(versions, rid, &view) {
                    decode_record(&t.schema, rid, rec, &mut scratch)?;
                    committed.insert_record(rec.into());
                }
            }
            committed.snapshot(&mut image);
        }
        let crc = crc32(&image[12..]);
        image[..8].copy_from_slice(b"EASNAP2\0");
        image[8..12].copy_from_slice(&crc.to_le_bytes());
        Ok(image)
    }

    /// Load a snapshot image (`EASNAP2\0` + body CRC32 + body). A body
    /// failing its CRC is a typed storage error — recovery must not
    /// build on rotted pages.
    fn load_snapshot(&mut self, full: &[u8]) -> Result<()> {
        let trunc = || DbError::Storage("snapshot truncated".into());
        if full.get(..8) != Some(b"EASNAP2\0".as_slice()) {
            return Err(DbError::Storage("bad snapshot magic".into()));
        }
        let want = u32::from_le_bytes(
            full.get(8..12)
                .ok_or_else(trunc)?
                .try_into()
                .expect("4 bytes"),
        );
        let bytes = &full[12..];
        if crc32(bytes) != want {
            return Err(DbError::Storage(
                "snapshot checksum mismatch (crc32): refusing to load rotted image".into(),
            ));
        }
        let mut pos = 0usize;
        let read_u32 = |pos: &mut usize| -> Result<u32> {
            let s = bytes.get(*pos..*pos + 4).ok_or_else(trunc)?;
            *pos += 4;
            Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
        };
        let read_str = |pos: &mut usize| -> Result<String> {
            let len = {
                let s = bytes.get(*pos..*pos + 4).ok_or_else(trunc)?;
                *pos += 4;
                u32::from_le_bytes(s.try_into().expect("4 bytes")) as usize
            };
            let s = bytes.get(*pos..*pos + len).ok_or_else(trunc)?;
            *pos += len;
            String::from_utf8(s.to_vec()).map_err(|_| DbError::Storage("snapshot utf8".into()))
        };
        let ntables = read_u32(&mut pos)? as usize;
        self.replaying = true;
        for _ in 0..ntables {
            let ddl = read_str(&mut pos)?;
            let stmt = parse(&ddl)?;
            self.apply_ddl(&stmt)?;
            let nextra = read_u32(&mut pos)? as usize;
            for _ in 0..nextra {
                let iddl = read_str(&mut pos)?;
                let stmt = parse(&iddl)?;
                self.apply_ddl(&stmt)?;
            }
            // Replace the fresh heap with the snapshotted one and rebuild
            // index contents from it.
            let tname = match parse(&ddl)? {
                Stmt::CreateTable { name, .. } => name.to_ascii_uppercase(),
                _ => return Err(DbError::Storage("snapshot: expected CREATE TABLE".into())),
            };
            let heap = HeapTable::restore(bytes, &mut pos)?;
            let t = self.tables.get_mut(&tname).expect("just created");
            t.heap = heap;
            fill_indexes(&t.schema, &t.heap, &mut t.indexes, |_, _| Ok(()))?;
        }
        self.replaying = false;
        Ok(())
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

/// Decode the stored record at `rid` into the caller's reused row,
/// checking that it is a row of the table: one whole row encoding —
/// every cell's tag, length and text valid — nothing after it, and as
/// many cells as the table has columns.
fn decode_record(schema: &TableSchema, rid: RowId, rec: &[u8], row: &mut Vec<Value>) -> Result<()> {
    let mut pos = 0;
    let what = match decode_row_into(rec, &mut pos, row) {
        Err(DbError::Storage(what)) => what,
        Err(other) => return Err(other),
        Ok(()) if pos != rec.len() => "row decode: trailing bytes".into(),
        Ok(()) if row.len() != schema.columns.len() => format!(
            "row decode: {} cells for {} columns",
            row.len(),
            schema.columns.len()
        ),
        Ok(()) => return Ok(()),
    };
    Err(DbError::Storage(format!(
        "{} row {:#x}: {what}",
        schema.name, rid.0
    )))
}

/// Fill the (empty) trees of `indexes` from every record of a table's
/// heap — the one way an index is built over rows that are already
/// stored. Each record is decoded once into one scratch row
/// ([`decode_record`]), only the key cells are cloned out, into one run
/// of `(key, row id)` per index, and each tree is built bottom-up from
/// its run ([`BPlusTree::from_pairs`]). `admit` sees every key before it
/// is filed and may refuse it.
fn fill_indexes(
    schema: &TableSchema,
    heap: &HeapTable,
    indexes: &mut [Index],
    mut admit: impl FnMut(RowId, &[Value]) -> Result<()>,
) -> Result<()> {
    let mut runs: Vec<Vec<(Vec<Value>, RowId)>> = indexes
        .iter()
        .map(|_| Vec::with_capacity(heap.len()))
        .collect();
    let mut row = Vec::new();
    for (rid, rec) in heap.records() {
        decode_record(schema, rid, rec, &mut row)?;
        for (ix, run) in indexes.iter().zip(&mut runs) {
            let key = ix.key_of(&row);
            admit(rid, &key)?;
            run.push((key, rid));
        }
    }
    for (ix, run) in indexes.iter_mut().zip(runs) {
        ix.tree = BPlusTree::from_pairs(run);
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

    /// The snapshot writer this one replaced, kept as the reference:
    /// every row of every table decoded (`scan`), the visible ones
    /// re-encoded into a fresh heap (`insert`).
    fn snapshot_by_reencoding(db: &Database) -> Vec<u8> {
        let view = db.mvcc.committed_view();
        let mut body = Vec::new();
        let put = |body: &mut Vec<u8>, s: &str| {
            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
            body.extend_from_slice(s.as_bytes());
        };
        body.extend_from_slice(&(db.tables.len() as u32).to_le_bytes());
        for (name, t) in &db.tables {
            put(&mut body, &schema_to_ddl(&t.schema));
            let extra: Vec<String> = t
                .indexes
                .iter()
                .filter(|ix| !ix.name.starts_with("PK_") && !ix.name.starts_with("UQ_"))
                .map(|ix| index_to_ddl(&t.schema, ix))
                .collect();
            body.extend_from_slice(&(extra.len() as u32).to_le_bytes());
            for ddl in &extra {
                put(&mut body, ddl);
            }
            let mut committed = HeapTable::new();
            for (rid, row) in t.heap.scan() {
                if db.mvcc.visible(name, rid, &view) {
                    committed.insert(&row);
                }
            }
            committed.snapshot(&mut body);
        }
        let mut out = b"EASNAP2\0".to_vec();
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
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
        assert_eq!(db.write_snapshot().unwrap(), snapshot_by_reencoding(&db));

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
        let image = db.write_snapshot().unwrap();
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
            back.write_snapshot().unwrap(),
            image,
            "a loaded image rewrites itself"
        );
        db.rollback_txn(t).unwrap();
        db.release_snapshot(pinned);
        assert_eq!(db.write_snapshot().unwrap(), snapshot_by_reencoding(&db));
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
        refused(db.write_snapshot().unwrap_err());
        // The old writer checked nothing: its image carries the record.
        let image = snapshot_by_reencoding(&db);
        refused(Database::new_in_memory().load_snapshot(&image).unwrap_err());
    }
}

//! The [`DataLinkManager`]: the database-side coordinator of SQL/MED
//! link control across the archive's file servers.

use crate::obs::DlMetrics;
use crate::url::DatalinkUrl;
use easia_crypto::token::{TokenIssuer, TokenScope};
use easia_db::schema::DatalinkSpec;
use easia_db::{Database, DbError, LinkObserver, Value};
use easia_fs::dlfm::{LinkOptions, LinkState};
use easia_fs::FileServer;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Catalog expectations for one host: path -> (options, (table, column) owner).
type ExpectedLinks = BTreeMap<String, (LinkOptions, (String, String))>;

/// A linked file: its server's host and its path there.
type LinkedFile = (String, String);

/// Shared archive clock (seconds). The simulation driver advances it; the
/// manager stamps token lifetimes from it, so token expiry follows
/// simulated time rather than wall time.
#[derive(Debug, Clone, Default)]
pub struct ArchiveClock(Rc<Cell<u64>>);

impl ArchiveClock {
    /// New clock at t=0.
    pub fn new() -> Self {
        ArchiveClock::default()
    }

    /// Current time in seconds.
    pub fn now(&self) -> u64 {
        self.0.get()
    }

    /// Set the time (monotonicity is the caller's responsibility).
    pub fn set(&self, t: u64) {
        self.0.set(t);
    }

    /// Advance by `dt` seconds.
    pub fn advance(&self, dt: u64) {
        self.0.set(self.0.get() + dt);
    }
}

fn to_link_options(spec: &DatalinkSpec) -> LinkOptions {
    LinkOptions {
        integrity_all: spec.integrity_all,
        read_permission_db: spec.read_permission_db,
        write_permission_blocked: spec.write_permission_blocked,
        recovery: spec.recovery,
        on_unlink_restore: spec.on_unlink_restore,
    }
}

/// Coordinates DATALINK DML across the archive's file servers and issues
/// access tokens on SELECT.
///
/// Register the manager with [`easia_db::Database::add_observer`]; it
/// implements [`LinkObserver`], so INSERT/UPDATE/DELETE on DATALINK
/// columns with `FILE LINK CONTROL` drive the two-phase link protocol on
/// the owning file server, and SELECT output is rewritten into the
/// token form for `READ PERMISSION DB` columns.
pub struct DataLinkManager {
    servers: RefCell<BTreeMap<String, Rc<RefCell<FileServer>>>>,
    issuer: TokenIssuer,
    clock: ArchiveClock,
    /// Hosts touched by the in-flight transaction, so commit/rollback
    /// reach exactly the servers with pending operations.
    touched: RefCell<Vec<String>>,
    /// Count of tokens issued (for experiments/statistics).
    tokens_issued: Cell<u64>,
    /// The generation of each linked file, by host and path: a number no
    /// earlier committed link of any file had, so a file unlinked and
    /// linked again — the same URL, perhaps other bytes — is a new
    /// generation.
    generations: RefCell<HashMap<String, HashMap<String, u64>>>,
    /// The last generation handed out.
    generation: Cell<u64>,
    /// The in-flight transaction's links (`true`) and unlinks, in order.
    pending: RefCell<Vec<(LinkedFile, bool)>>,
    /// Protocol telemetry, attached by the archive builder.
    metrics: RefCell<Option<DlMetrics>>,
}

impl DataLinkManager {
    /// Create a manager signing tokens with `issuer` and timing them with
    /// `clock`.
    pub fn new(issuer: TokenIssuer, clock: ArchiveClock) -> Rc<Self> {
        Rc::new(DataLinkManager {
            servers: RefCell::new(BTreeMap::new()),
            issuer,
            clock,
            touched: RefCell::new(Vec::new()),
            tokens_issued: Cell::new(0),
            generations: RefCell::new(HashMap::new()),
            generation: Cell::new(0),
            pending: RefCell::new(Vec::new()),
            metrics: RefCell::new(None),
        })
    }

    /// Attach protocol telemetry on `registry`.
    pub fn attach_metrics(&self, registry: &easia_obs::Registry) {
        *self.metrics.borrow_mut() = Some(DlMetrics::register(registry));
    }

    fn with_metrics(&self, f: impl FnOnce(&DlMetrics)) {
        if let Some(m) = self.metrics.borrow().as_ref() {
            f(m);
        }
    }

    /// Register a file server under its host name.
    pub fn register_server(&self, server: Rc<RefCell<FileServer>>) {
        let host = server.borrow().host().to_string();
        self.servers.borrow_mut().insert(host, server);
    }

    /// Look up a registered server.
    pub fn server(&self, host: &str) -> Option<Rc<RefCell<FileServer>>> {
        self.servers.borrow().get(host).cloned()
    }

    /// Registered host names.
    pub fn hosts(&self) -> Vec<String> {
        self.servers.borrow().keys().cloned().collect()
    }

    /// The shared clock.
    pub fn clock(&self) -> &ArchiveClock {
        &self.clock
    }

    /// The token issuer (file servers verify with the same secret).
    pub fn issuer(&self) -> &TokenIssuer {
        &self.issuer
    }

    /// Number of access tokens issued so far.
    pub fn tokens_issued(&self) -> u64 {
        self.tokens_issued.get()
    }

    /// Issue a read token for an arbitrary `(host, path)` — used by the
    /// web layer for operation outputs.
    pub fn issue_read_token(&self, host: &str, path: &str) -> String {
        self.tokens_issued.set(self.tokens_issued.get() + 1);
        self.with_metrics(|m| m.tokens_issued.inc());
        self.issuer
            .issue(TokenScope::Read, host, path, self.clock.now())
    }

    /// The generation of the committed link of the file `url` (stored
    /// form) names, or `None` if no link of it is committed: what a
    /// result computed from the file is valid for.
    pub fn generation(&self, url: &str) -> Option<u64> {
        let (_, host, path) = DatalinkUrl::split(url).ok()?;
        self.generations.borrow().get(host)?.get(path).copied()
    }

    /// A committed link (`true`) or unlink of `file`: a link is a new
    /// generation, an unlinked file has none.
    fn committed(&self, (host, path): LinkedFile, linked: bool) {
        let mut generations = self.generations.borrow_mut();
        if linked {
            self.generation.set(self.generation.get() + 1);
            let paths = generations.entry(host).or_default();
            paths.insert(path, self.generation.get());
        } else if let Some(paths) = generations.get_mut(&host) {
            paths.remove(&path);
        }
    }

    fn touch(&self, host: &str) {
        let mut t = self.touched.borrow_mut();
        if !t.iter().any(|h| h == host) {
            t.push(host.to_string());
        }
    }

    /// Replay the database's datalink catalog against every registered
    /// file server's DLFM and repair divergence — the crash-recovery
    /// pass. Run it after restarting crashed servers (and with no
    /// transaction in flight): the catalog is the source of truth, so
    ///
    /// * a catalog entry with no matching DLFM link is re-established
    ///   (`relinked`; `restored` when the file content itself had to
    ///   come back from the `RECOVERY YES` backup area),
    /// * a DLFM link with no catalog entry is released as an orphan
    ///   (`orphans_unlinked`; the file is kept),
    /// * entries that cannot be repaired — unknown host, file gone with
    ///   no backup — are reported (`unrepairable`),
    /// * servers still down are skipped wholesale (`skipped_down`).
    pub fn reconcile(&self, db: &mut Database) -> ReconcileReport {
        let report = self.reconcile_inner(db);
        self.with_metrics(|m| {
            m.reconcile_passes.inc();
            m.reconcile_checked.add(report.checked as f64);
            m.actions_relinked.add(report.relinked.len() as f64);
            m.actions_restored.add(report.restored.len() as f64);
            m.actions_orphan_unlinked
                .add(report.orphans_unlinked.len() as f64);
            m.actions_unrepairable.add(report.unrepairable.len() as f64);
            m.actions_skipped_down.add(report.skipped_down.len() as f64);
        });
        report
    }

    fn reconcile_inner(&self, db: &mut Database) -> ReconcileReport {
        let mut report = ReconcileReport::default();

        // 1. Enumerate the catalog: every FILE LINK CONTROL datalink
        //    column, then its stored URLs.
        let columns: Vec<(String, String, DatalinkSpec)> = db
            .schemas()
            .flat_map(|s| {
                s.columns
                    .iter()
                    .filter_map(|c| {
                        c.datalink
                            .as_ref()
                            .filter(|d| d.file_link_control)
                            .map(|d| (s.name.clone(), c.name.clone(), d.clone()))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        // host -> path -> (options, owner)
        let mut expected: BTreeMap<String, ExpectedLinks> = BTreeMap::new();
        for (table, column, spec) in &columns {
            let rs = match db.execute(&format!("SELECT {column} FROM {table}")) {
                Ok(rs) => rs,
                Err(e) => {
                    report.unrepairable.push(format!("{table}.{column}: {e}"));
                    continue;
                }
            };
            for row in &rs.rows {
                let url = match &row[0] {
                    Value::Null => continue,
                    Value::Datalink(u) | Value::Str(u) => u,
                    other => {
                        report
                            .unrepairable
                            .push(format!("{table}.{column}: non-datalink value {other:?}"));
                        continue;
                    }
                };
                // READ PERMISSION DB columns render in token form;
                // parse_tokenized accepts both forms.
                let parsed = match DatalinkUrl::parse_tokenized(url) {
                    Ok((p, _token)) => p,
                    Err(e) => {
                        report.unrepairable.push(format!("{url}: {e}"));
                        continue;
                    }
                };
                report.checked += 1;
                expected.entry(parsed.host).or_default().insert(
                    parsed.path,
                    (to_link_options(spec), (table.clone(), column.clone())),
                );
            }
        }

        // 2. Walk every host named by the catalog or holding links.
        let mut hosts: Vec<String> = self.hosts();
        for h in expected.keys() {
            if !hosts.contains(h) {
                hosts.push(h.clone());
            }
        }
        for host in hosts {
            let Some(server) = self.server(&host) else {
                for path in expected.get(&host).map(|m| m.keys()).into_iter().flatten() {
                    report
                        .unrepairable
                        .push(format!("{host}{path}: unknown file server host"));
                }
                continue;
            };
            if server.borrow().is_crashed() {
                report.skipped_down.push(host.clone());
                continue;
            }
            let want = expected.remove(&host).unwrap_or_default();
            let have: Vec<(String, LinkState)> = server
                .borrow()
                .dlfm()
                .controlled_paths()
                .map(|(p, s)| (p.clone(), s.clone()))
                .collect();
            let have_linked: BTreeMap<&String, &LinkState> =
                have.iter().map(|(p, s)| (p, s)).collect();

            for (path, (options, owner)) in &want {
                let intact = matches!(
                    have_linked.get(path),
                    Some(LinkState::Linked { options: o, owner: w }) if o == options && w == owner
                ) && server.borrow().exists(path)
                    && (!options.recovery || server.borrow().has_backup(path));
                if intact {
                    continue; // catalog and DLFM agree; nothing to do
                }
                let relinked =
                    server
                        .borrow_mut()
                        .recover_link(path, options.clone(), owner.clone());
                if relinked.is_ok() {
                    self.committed((host.clone(), path.clone()), true);
                }
                match relinked {
                    Ok(true) => report.restored.push(format!("{host}{path}")),
                    Ok(false) => report.relinked.push(format!("{host}{path}")),
                    Err(e) => report.unrepairable.push(format!("{host}{path}: {e}")),
                }
            }
            for (path, _) in &have {
                if !want.contains_key(path) {
                    match server.borrow_mut().recover_unlink(path) {
                        Ok(()) => {
                            self.committed((host.clone(), path.clone()), false);
                            report.orphans_unlinked.push(format!("{host}{path}"));
                        }
                        Err(e) => report.unrepairable.push(format!("{host}{path}: {e}")),
                    }
                }
            }
        }
        report
    }
}

/// Outcome of a [`DataLinkManager::reconcile`] pass. Entries are
/// `host/path` strings (and free-text diagnostics for `unrepairable`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Catalog datalink values examined.
    pub checked: usize,
    /// Links re-established on a DLFM that had lost them (file intact).
    pub relinked: Vec<String>,
    /// Links re-established whose file content was restored from the
    /// `RECOVERY YES` backup area.
    pub restored: Vec<String>,
    /// DLFM links released because the catalog no longer references
    /// them (files kept).
    pub orphans_unlinked: Vec<String>,
    /// Divergence that could not be repaired, with diagnostics.
    pub unrepairable: Vec<String>,
    /// Hosts skipped because the server is still down.
    pub skipped_down: Vec<String>,
}

impl ReconcileReport {
    /// True when the pass found the catalog and every reachable DLFM in
    /// full agreement and nothing was skipped.
    pub fn in_agreement(&self) -> bool {
        self.relinked.is_empty()
            && self.restored.is_empty()
            && self.orphans_unlinked.is_empty()
            && self.unrepairable.is_empty()
            && self.skipped_down.is_empty()
    }

    /// Total repair actions taken or attempted.
    pub fn actions(&self) -> usize {
        self.relinked.len()
            + self.restored.len()
            + self.orphans_unlinked.len()
            + self.unrepairable.len()
    }
}

impl LinkObserver for DataLinkManager {
    fn on_link(
        &self,
        table: &str,
        column: &str,
        spec: &DatalinkSpec,
        url: &str,
    ) -> Result<(), DbError> {
        if !spec.file_link_control {
            return Ok(()); // NO FILE LINK CONTROL: plain URL storage
        }
        let parsed = DatalinkUrl::parse(url).map_err(|e| DbError::Link(e.to_string()))?;
        let server = self
            .server(&parsed.host)
            .ok_or_else(|| DbError::Link(format!("unknown file server host {}", parsed.host)))?;
        server
            .borrow_mut()
            .prepare_link(
                &parsed.path,
                to_link_options(spec),
                (table.to_string(), column.to_string()),
            )
            .map_err(|e| DbError::Link(e.to_string()))?;
        self.touch(&parsed.host);
        self.pending
            .borrow_mut()
            .push(((parsed.host, parsed.path), true));
        self.with_metrics(|m| m.link_prepares.inc());
        Ok(())
    }

    fn on_unlink(
        &self,
        _table: &str,
        _column: &str,
        spec: &DatalinkSpec,
        url: &str,
    ) -> Result<(), DbError> {
        if !spec.file_link_control {
            return Ok(());
        }
        let parsed = DatalinkUrl::parse(url).map_err(|e| DbError::Link(e.to_string()))?;
        let server = self
            .server(&parsed.host)
            .ok_or_else(|| DbError::Link(format!("unknown file server host {}", parsed.host)))?;
        server
            .borrow_mut()
            .prepare_unlink(&parsed.path)
            .map_err(|e| DbError::Link(e.to_string()))?;
        self.touch(&parsed.host);
        self.pending
            .borrow_mut()
            .push(((parsed.host, parsed.path), false));
        self.with_metrics(|m| m.unlink_prepares.inc());
        Ok(())
    }

    fn on_commit(&self) {
        for (file, linked) in self.pending.take() {
            self.committed(file, linked);
        }
        for host in self.touched.borrow_mut().drain(..) {
            if let Some(server) = self.servers.borrow().get(&host) {
                server.borrow_mut().commit_links();
                self.with_metrics(|m| m.commits.inc());
            }
        }
    }

    fn on_rollback(&self) {
        self.pending.borrow_mut().clear();
        for host in self.touched.borrow_mut().drain(..) {
            if let Some(server) = self.servers.borrow().get(&host) {
                server.borrow_mut().rollback_links();
                self.with_metrics(|m| m.rollbacks.inc());
            }
        }
    }

    fn render_datalink(&self, spec: &DatalinkSpec, url: &str) -> Option<String> {
        if !spec.read_permission_db || !spec.file_link_control {
            return None;
        }
        let parsed = DatalinkUrl::parse(url).ok()?;
        self.tokens_issued.set(self.tokens_issued.get() + 1);
        self.with_metrics(|m| m.tokens_issued.inc());
        let token = self.issuer.issue(
            TokenScope::Read,
            &parsed.host,
            &parsed.path,
            self.clock.now(),
        );
        Some(parsed.to_tokenized(&token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_db::{Database, Value};
    use easia_fs::FileContent;

    fn setup() -> (
        Database,
        Rc<DataLinkManager>,
        Rc<RefCell<FileServer>>,
        ArchiveClock,
    ) {
        let clock = ArchiveClock::new();
        let issuer = TokenIssuer::new(b"secret", 600);
        let mgr = DataLinkManager::new(issuer.clone(), clock.clone());
        let fs1 = Rc::new(RefCell::new(FileServer::new("fs1", issuer)));
        fs1.borrow_mut()
            .ingest("/data/t0.edf", FileContent::Bytes(b"DATA0".to_vec()));
        fs1.borrow_mut()
            .ingest("/data/t1.edf", FileContent::Bytes(b"DATA1".to_vec()));
        mgr.register_server(fs1.clone());
        let mut db = Database::new_in_memory();
        db.add_observer(mgr.clone());
        db.execute(
            "CREATE TABLE result_file (
                file_name VARCHAR(100) PRIMARY KEY,
                download_result DATALINK LINKTYPE URL FILE LINK CONTROL
                    INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
                    RECOVERY YES ON UNLINK RESTORE
            )",
        )
        .unwrap();
        (db, mgr, fs1, clock)
    }

    #[test]
    fn insert_links_file() {
        let (mut db, _mgr, fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        let fs = fs1.borrow();
        assert!(fs.link_state("/data/t0.edf").is_some());
        assert!(
            fs.has_backup("/data/t0.edf"),
            "RECOVERY YES captured backup"
        );
    }

    #[test]
    fn insert_of_missing_file_fails_statement() {
        let (mut db, _mgr, _fs1, _clock) = setup();
        let err = db
            .execute("INSERT INTO result_file VALUES ('x', 'http://fs1/data/missing.edf')")
            .unwrap_err();
        assert!(matches!(err, DbError::Link(_)), "{err}");
        // Metadata row was not inserted either (statement atomicity).
        let rs = db.execute("SELECT COUNT(*) FROM result_file").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn insert_to_unknown_host_fails() {
        let (mut db, _mgr, _fs1, _clock) = setup();
        let err = db
            .execute("INSERT INTO result_file VALUES ('x', 'http://nowhere/data/t0.edf')")
            .unwrap_err();
        assert!(matches!(err, DbError::Link(_)));
    }

    #[test]
    fn select_returns_tokenized_url_that_the_server_accepts() {
        let (mut db, _mgr, fs1, clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        let rs = db
            .execute("SELECT download_result FROM result_file")
            .unwrap();
        let Value::Datalink(url) = &rs.rows[0][0] else {
            panic!("expected datalink, got {:?}", rs.rows[0][0]);
        };
        assert!(url.contains(';'), "token form: {url}");
        let (parsed, token) = DatalinkUrl::parse_tokenized(url).unwrap();
        let req = parsed.server_request(token.as_deref());
        let data = fs1.borrow().read_file(&req, clock.now()).unwrap();
        assert_eq!(data, b"DATA0".to_vec());
        // Token expires with the archive clock.
        clock.set(10_000);
        assert!(fs1.borrow().read_file(&req, clock.now()).is_err());
    }

    #[test]
    fn rollback_cancels_link() {
        let (mut db, _mgr, fs1, _clock) = setup();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        db.execute("ROLLBACK").unwrap();
        assert!(fs1.borrow().link_state("/data/t0.edf").is_none());
        let rs = db.execute("SELECT COUNT(*) FROM result_file").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(0)));
        // The file is free: deleting it works.
        fs1.borrow_mut().delete_file("/data/t0.edf").unwrap();
    }

    #[test]
    fn delete_unlinks_and_restores_file() {
        let (mut db, _mgr, fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        db.execute("DELETE FROM result_file WHERE file_name = 't0.edf'")
            .unwrap();
        let fs = fs1.borrow();
        assert!(fs.link_state("/data/t0.edf").is_none());
        assert!(
            fs.exists("/data/t0.edf"),
            "ON UNLINK RESTORE keeps the file"
        );
    }

    #[test]
    fn update_relinks() {
        let (mut db, _mgr, fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t', 'http://fs1/data/t0.edf')")
            .unwrap();
        db.execute(
            "UPDATE result_file SET download_result = 'http://fs1/data/t1.edf' WHERE file_name = 't'",
        )
        .unwrap();
        let fs = fs1.borrow();
        assert!(fs.link_state("/data/t0.edf").is_none(), "old link released");
        assert!(fs.link_state("/data/t1.edf").is_some(), "new link created");
    }

    #[test]
    fn linked_file_protected_until_unlink() {
        let (mut db, _mgr, fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        assert!(fs1.borrow_mut().delete_file("/data/t0.edf").is_err());
        db.execute("DELETE FROM result_file").unwrap();
        fs1.borrow_mut().delete_file("/data/t0.edf").unwrap();
    }

    #[test]
    fn no_link_control_columns_skip_protocol() {
        let clock = ArchiveClock::new();
        let issuer = TokenIssuer::new(b"secret", 600);
        let mgr = DataLinkManager::new(issuer.clone(), clock.clone());
        let fs1 = Rc::new(RefCell::new(FileServer::new("fs1", issuer)));
        mgr.register_server(fs1.clone());
        let mut db = Database::new_in_memory();
        db.add_observer(mgr);
        db.execute(
            "CREATE TABLE t (f VARCHAR(50) PRIMARY KEY,
             d DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        )
        .unwrap();
        // File doesn't even exist; NO FILE LINK CONTROL accepts anything.
        db.execute("INSERT INTO t VALUES ('x', 'http://fs1/ghost.edf')")
            .unwrap();
        let rs = db.execute("SELECT d FROM t").unwrap();
        assert_eq!(
            rs.rows[0][0],
            Value::Datalink("http://fs1/ghost.edf".into()),
            "no token splicing without link control"
        );
        assert!(fs1.borrow().link_state("/ghost.edf").is_none());
    }

    #[test]
    fn double_link_across_rows_rejected() {
        let (mut db, _mgr, _fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('a', 'http://fs1/data/t0.edf')")
            .unwrap();
        let err = db
            .execute("INSERT INTO result_file VALUES ('b', 'http://fs1/data/t0.edf')")
            .unwrap_err();
        assert!(matches!(err, DbError::Link(_)));
    }

    #[test]
    fn reconcile_noop_when_in_agreement() {
        let (mut db, mgr, _fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        let report = mgr.reconcile(&mut db);
        assert!(report.in_agreement(), "{report:?}");
        assert_eq!(report.checked, 1);
    }

    #[test]
    fn each_committed_link_is_a_new_generation() {
        let (mut db, mgr, fs1, _clock) = setup();
        let url = "http://fs1/data/t0.edf";
        let insert = "INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')";
        assert_eq!(mgr.generation(url), None, "not linked");
        db.execute("BEGIN").unwrap();
        db.execute(insert).unwrap();
        assert_eq!(mgr.generation(url), None, "not committed");
        db.execute("ROLLBACK").unwrap();
        assert_eq!(mgr.generation(url), None, "rolled back");
        db.execute(insert).unwrap();
        let first = mgr.generation(url).expect("linked");
        assert_eq!(mgr.generation("http://fs1/data/t1.edf"), None);
        db.execute("DELETE FROM result_file").unwrap();
        assert_eq!(mgr.generation(url), None, "unlinked");
        db.execute(insert).unwrap();
        let second = mgr.generation(url).expect("linked again");
        assert!(second > first);
        // A link reconcile re-establishes is a new generation too.
        fs1.borrow_mut().recover_unlink("/data/t0.edf").unwrap();
        assert_eq!(mgr.reconcile(&mut db).relinked, vec!["fs1/data/t0.edf"]);
        assert!(mgr.generation(url).expect("relinked") > second);
    }

    #[test]
    fn reconcile_relinks_after_crash_swallows_commit() {
        let (mut db, mgr, fs1, _clock) = setup();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        // Server dies mid-transaction: the pending link evaporates and
        // the commit that follows is a no-op on this host.
        fs1.borrow_mut().crash();
        db.execute("COMMIT").unwrap();
        fs1.borrow_mut().restart();
        assert!(fs1.borrow().link_state("/data/t0.edf").is_none());

        let report = mgr.reconcile(&mut db);
        assert_eq!(report.relinked, vec!["fs1/data/t0.edf"]);
        assert!(report.restored.is_empty() && report.unrepairable.is_empty());
        assert!(matches!(
            fs1.borrow().link_state("/data/t0.edf"),
            Some(LinkState::Linked { .. })
        ));
        assert!(
            fs1.borrow().has_backup("/data/t0.edf"),
            "RECOVERY YES backup captured"
        );
        // Second pass: full agreement, zero actions.
        let again = mgr.reconcile(&mut db);
        assert!(again.in_agreement(), "{again:?}");
        assert_eq!(again.actions(), 0);
    }

    #[test]
    fn reconcile_restores_damaged_recovery_file_byte_identically() {
        let (mut db, mgr, fs1, clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        assert!(fs1.borrow_mut().damage_file("/data/t0.edf"));
        let report = mgr.reconcile(&mut db);
        assert_eq!(report.restored, vec!["fs1/data/t0.edf"]);
        let req = format!(
            "/data/{};t0.edf",
            mgr.issuer()
                .issue(TokenScope::Read, "fs1", "/data/t0.edf", clock.now())
        );
        assert_eq!(
            fs1.borrow().read_file(&req, clock.now()).unwrap(),
            b"DATA0".to_vec()
        );
    }

    #[test]
    fn reconcile_releases_orphans_and_keeps_files() {
        let (mut db, mgr, fs1, _clock) = setup();
        // A link the database never heard of (e.g. its row was lost).
        fs1.borrow_mut()
            .recover_link(
                "/data/t1.edf",
                LinkOptions::default(),
                ("RESULT_FILE".into(), "DOWNLOAD_RESULT".into()),
            )
            .unwrap();
        let report = mgr.reconcile(&mut db);
        assert_eq!(report.orphans_unlinked, vec!["fs1/data/t1.edf"]);
        assert!(fs1.borrow().link_state("/data/t1.edf").is_none());
        assert!(fs1.borrow().exists("/data/t1.edf"), "orphan file kept");
    }

    #[test]
    fn reconcile_skips_down_servers_and_reports_unknown_hosts() {
        let (mut db, mgr, fs1, clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        fs1.borrow_mut().crash();
        let report = mgr.reconcile(&mut db);
        assert_eq!(report.skipped_down, vec!["fs1"]);
        assert!(!report.in_agreement());

        // A manager that has never registered fs1 finds the catalog
        // entry unrepairable.
        let stranger = DataLinkManager::new(TokenIssuer::new(b"secret", 600), clock.clone());
        let report = stranger.reconcile(&mut db);
        assert_eq!(report.unrepairable.len(), 1);
        assert!(report.unrepairable[0].contains("unknown file server host"));
    }

    #[test]
    fn tokens_counted() {
        let (mut db, mgr, _fs1, _clock) = setup();
        db.execute("INSERT INTO result_file VALUES ('t0.edf', 'http://fs1/data/t0.edf')")
            .unwrap();
        assert_eq!(mgr.tokens_issued(), 0);
        db.execute("SELECT download_result FROM result_file")
            .unwrap();
        db.execute("SELECT download_result FROM result_file")
            .unwrap();
        assert_eq!(mgr.tokens_issued(), 2);
    }
}

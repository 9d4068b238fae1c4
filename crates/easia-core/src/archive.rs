//! The [`Archive`]: database + file servers + WAN + operations.

use crate::transfer::{
    transfer_with_retry_observed, RetryPolicy, TransferClientError, TransferOutcome,
};
use easia_crypto::token::TokenIssuer;
use easia_datalink::functions::register_dl_functions;
use easia_datalink::{ArchiveClock, DataLinkManager, DatalinkUrl};
use easia_db::{Database, DbError, Value};
use easia_fs::{FileContent, FileServer, FsError};
use easia_med::{FedError, Federation, QueryOutcome};
use easia_net::{HostId, LinkSpec, SimNet};
use easia_obs::Obs;
use easia_ops::cache::{CachedResult, ResultCache};
use easia_ops::catalog::OperationCatalog;
use easia_ops::monitor::ProgressBoard;
use easia_ops::statistics::StatisticsStore;
use easia_ops::vm::Limits;
use easia_ops::{JobRunner, JobSpec};
use easia_web::auth::{Role, SessionStore, UserStore};
use easia_xuis::{Location, XuisDoc};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const PREFETCH_HITS_HELP: &str =
    "Federated queries served from the speculative FK-browse prefetch cache";
const PREFETCH_STALE_HELP: &str =
    "Prefetched outcomes discarded because a write changed the federation fingerprint";
const PREFETCH_ISSUED_HELP: &str = "Speculative federated queries parked for the next click";

/// Errors from archive-level workflows.
#[derive(Debug)]
pub enum ArchiveError {
    /// Database failure.
    Db(DbError),
    /// File server failure.
    Fs(easia_fs::FsError),
    /// Unknown host / routing problem.
    Net(String),
    /// Operation machinery failure.
    Op(String),
    /// Access denied by role policy.
    Denied(String),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Db(e) => write!(f, "{e}"),
            ArchiveError::Fs(e) => write!(f, "{e}"),
            ArchiveError::Net(m) => write!(f, "network: {m}"),
            ArchiveError::Op(m) => write!(f, "operation: {m}"),
            ArchiveError::Denied(m) => write!(f, "denied: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<DbError> for ArchiveError {
    fn from(e: DbError) -> Self {
        ArchiveError::Db(e)
    }
}

impl From<easia_fs::FsError> for ArchiveError {
    fn from(e: easia_fs::FsError) -> Self {
        ArchiveError::Fs(e)
    }
}

/// Map federation failures onto archive errors: a dead site becomes the
/// same typed `Unavailable` (with retry-after hint) a crashed file
/// server produces, so the portal's 503 degradation path covers both.
fn map_fed_err(e: FedError) -> ArchiveError {
    match e {
        FedError::Db(d) => ArchiveError::Db(d),
        FedError::SiteUnavailable {
            site,
            retry_after_secs,
        } => ArchiveError::Fs(FsError::Unavailable {
            host: site,
            retry_after_secs,
        }),
        other => ArchiveError::Op(other.to_string()),
    }
}

/// Builder for [`Archive`].
pub struct ArchiveBuilder {
    file_servers: Vec<(String, LinkSpec)>,
    federated_sites: Vec<(String, LinkSpec)>,
    federation_policy: easia_med::PartialPolicy,
    replica_cache: Option<(f64, u64)>,
    token_ttl: u64,
    secret: Vec<u8>,
    client_link: LinkSpec,
    cache_capacity: usize,
}

impl ArchiveBuilder {
    /// Add a file server connected to the hub with `link`.
    pub fn file_server(mut self, host: &str, link: LinkSpec) -> Self {
        self.file_servers.push((host.to_string(), link));
        self
    }

    /// Register a foreign archive hub (SQL/MED foreign server) named
    /// `site`, connected to this hub with `link`. The site gets its own
    /// database instance holding its partition of the federated tables.
    pub fn federated_site(mut self, site: &str, link: LinkSpec) -> Self {
        self.federated_sites.push((site.to_string(), link));
        self
    }

    /// What a federated query does when a site is unreachable after
    /// retries: fail closed (default), return a partial answer, or
    /// degrade to stale replica rows where a cache holds them.
    pub fn federation_policy(mut self, policy: easia_med::PartialPolicy) -> Self {
        self.federation_policy = policy;
        self
    }

    /// Enable the hub's stale-replica cache for small foreign
    /// partitions: entries up to `max_rows` rows are kept for
    /// `ttl_secs` of fresh service and remain stale-servable under
    /// [`easia_med::PartialPolicy::Degraded`] until a site write
    /// counter invalidates them.
    pub fn replica_cache(mut self, ttl_secs: f64, max_rows: u64) -> Self {
        self.replica_cache = Some((ttl_secs, max_rows));
        self
    }

    /// Token lifetime in seconds (the SQL/MED expiry configuration
    /// parameter). Default: 3600.
    pub fn token_ttl(mut self, secs: u64) -> Self {
        self.token_ttl = secs;
        self
    }

    /// The link between the user's browser and the hub. Default: the
    /// paper's measured SuperJANET profile.
    pub fn client_link(mut self, link: LinkSpec) -> Self {
        self.client_link = link;
        self
    }

    /// Operation result cache capacity (0 disables). Default: 64.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Assemble the archive.
    pub fn build(self) -> Archive {
        let obs = Obs::new();
        let clock = ArchiveClock::new();
        let issuer = TokenIssuer::new(&self.secret, self.token_ttl);
        let manager = DataLinkManager::new(issuer.clone(), clock.clone());
        manager.attach_metrics(&obs.metrics);
        let transfer_metrics = crate::transfer::TransferMetrics::register(&obs);
        let mut net = SimNet::new();
        let db_host = net.add_host("db.soton.example", 4);
        let client_host = net.add_host("user.browser", 2);
        net.connect(client_host, db_host, self.client_link.clone());

        let mut servers = BTreeMap::new();
        for (host, link) in &self.file_servers {
            let hid = net.add_host(host, 4);
            net.connect(hid, db_host, link.clone());
            let server = Rc::new(RefCell::new(FileServer::new(host, issuer.clone())));
            server.borrow_mut().attach_metrics(&obs.metrics);
            manager.register_server(server.clone());
            servers.insert(host.clone(), (hid, server));
        }

        let mut db = Database::new_in_memory();
        db.attach_metrics(&obs.metrics);
        register_dl_functions(db.functions_mut());
        db.add_observer(manager.clone());

        // Foreign archive hubs: each is its own host on the WAN with an
        // independent database (deliberately not metrics-attached — the
        // hub's db counters describe the hub, federation traffic shows
        // up under the easia_med_* series instead).
        let mut federation = Federation::default();
        federation.policy = self.federation_policy;
        if let Some((ttl, max_rows)) = self.replica_cache {
            federation.enable_replica_cache(ttl, max_rows);
        }
        for (site, link) in &self.federated_sites {
            let hid = net.add_host(site, 4);
            net.connect(hid, db_host, link.clone());
            let mut site_db = Database::new_in_memory();
            register_dl_functions(site_db.functions_mut());
            federation.add_site(site, hid, site_db);
        }
        // Eager registration: breaker gauges and cache counters render
        // at zero on /metrics before any federated query runs.
        federation.register_metrics(&obs);

        let mut runner = JobRunner::new();
        crate::ops_builtin::register(&mut runner);

        Archive {
            db,
            net,
            db_host,
            client_host,
            servers,
            federation,
            manager,
            clock,
            obs,
            transfer_metrics,
            xuis: XuisDoc::default(),
            catalog: OperationCatalog::default(),
            runner,
            users: UserStore::with_defaults(),
            sessions: SessionStore::new(&self.secret, 86_400),
            cache: (self.cache_capacity > 0).then(|| ResultCache::new(self.cache_capacity)),
            stats: StatisticsStore::new(),
            board: ProgressBoard::new(),
            op_limits: Limits::default(),
            prefetch: easia_med::PrefetchCache::default(),
        }
    }
}

/// What a job runs, and the host its package is shipped from.
struct Code {
    /// Name on the progress board and in the statistics.
    operation: String,
    op_type: String,
    entry: String,
    package: Vec<u8>,
    origin: HostId,
}

/// Outcome of running a server-side operation end to end.
#[derive(Debug, Clone)]
pub struct OperationOutcome {
    /// Output files `(name, bytes)`.
    pub outputs: Vec<(String, Vec<u8>)>,
    /// Captured stdout.
    pub stdout: String,
    /// Bytes shipped back to the user's browser.
    pub shipped_bytes: f64,
    /// Simulated seconds from invocation to the user holding the result.
    pub elapsed_secs: f64,
    /// Whether the result came from the operation cache.
    pub from_cache: bool,
    /// Sandbox instructions executed (0 for native/cached).
    pub instructions: u64,
}

/// The assembled archive.
pub struct Archive {
    /// The metadata database at the hub.
    pub db: Database,
    /// The simulated WAN.
    pub net: SimNet,
    /// Hub host (database server, Southampton).
    pub db_host: HostId,
    /// The user's machine.
    pub client_host: HostId,
    /// File servers by host name.
    pub servers: BTreeMap<String, (HostId, Rc<RefCell<FileServer>>)>,
    /// SQL/MED federation engine: foreign archive hubs and the
    /// foreign-table catalog.
    pub federation: Federation,
    /// SQL/MED coordinator.
    pub manager: Rc<DataLinkManager>,
    /// Archive clock (drives token expiry; synced from the WAN clock).
    pub clock: ArchiveClock,
    /// Shared observability bundle: every layer's metrics land on
    /// `obs.metrics`; the portal renders it at `GET /metrics`.
    pub obs: Obs,
    /// Telemetry handles for the retrying transfer client.
    pub transfer_metrics: crate::transfer::TransferMetrics,
    /// The interface specification.
    pub xuis: XuisDoc,
    /// Operations resolved from the XUIS.
    pub catalog: OperationCatalog,
    /// Job runner with native operations registered.
    pub runner: JobRunner,
    /// User accounts.
    pub users: UserStore,
    /// Login sessions.
    pub sessions: SessionStore,
    /// Operation result cache (None = disabled).
    pub cache: Option<ResultCache>,
    /// Stored operation statistics.
    pub stats: StatisticsStore,
    /// Progress board for running jobs.
    pub board: ProgressBoard,
    /// Sandbox limits applied to operation jobs.
    pub op_limits: Limits,
    /// Speculative FK-browse prefetch cache: parked federated query
    /// outcomes, invalidated by the federation-wide write fingerprint.
    pub prefetch: easia_med::PrefetchCache,
}

impl Archive {
    /// Start building an archive.
    pub fn builder() -> ArchiveBuilder {
        ArchiveBuilder {
            file_servers: Vec::new(),
            federated_sites: Vec::new(),
            federation_policy: easia_med::PartialPolicy::default(),
            replica_cache: None,
            token_ttl: 3600,
            secret: b"easia-archive-shared-secret".to_vec(),
            client_link: crate::paper_link_spec(),
            cache_capacity: 64,
        }
    }

    /// Advance simulated time until the network is idle and sync the
    /// archive clock.
    pub fn settle(&mut self) {
        self.net.run_until_idle();
        self.clock.set(self.net.now() as u64);
    }

    /// Advance the clock to a specific simulated instant.
    pub fn advance_to(&mut self, t: f64) {
        self.net.run_until(t);
        self.clock.set(self.net.now() as u64);
    }

    /// Look up a file server.
    pub fn server(&self, host: &str) -> Option<&(HostId, Rc<RefCell<FileServer>>)> {
        self.servers.get(host)
    }

    /// [`Archive::server`], or the error every route reports for a
    /// host name no file server answers to.
    fn file_server(&self, host: &str) -> Result<(HostId, Rc<RefCell<FileServer>>), ArchiveError> {
        let found = self.server(host).cloned();
        found.ok_or_else(|| ArchiveError::Net(format!("unknown file server {host}")))
    }

    /// The typed [`FsError::Unavailable`] for a host the archive cannot
    /// use now. The retry-after hint is the time to the host's
    /// scheduled restart; when it is up (its server process crashed, or
    /// the fault is on the path to it) or no restart is scheduled, the
    /// default.
    fn unavailable(&self, host: HostId) -> ArchiveError {
        let (now, up) = (self.net.now(), self.net.host_up_after(host));
        ArchiveError::Fs(FsError::Unavailable {
            host: self.net.host_name(host).to_string(),
            retry_after_secs: easia_net::retry_after_secs(
                now,
                (up > now).then_some(up),
                easia_fs::DEFAULT_RETRY_AFTER_SECS,
            ),
        })
    }

    /// The pre-flight before any bytes move: resolve a file server and
    /// check that it is reachable — the server process is up and its
    /// host is not inside a fault window. Fails with the typed
    /// [`FsError::Unavailable`] and its retry-after hint otherwise, so
    /// callers degrade gracefully instead of hanging.
    pub fn check_available(
        &self,
        host: &str,
    ) -> Result<(HostId, Rc<RefCell<FileServer>>), ArchiveError> {
        let (hid, server) = self.file_server(host)?;
        if server.borrow().is_crashed() || !self.net.host_up(hid) {
            return Err(self.unavailable(hid));
        }
        Ok((hid, server))
    }

    /// The one WAN mover: every file, package and result the archive
    /// sends between hosts goes through the retrying client (stall
    /// timeout, bounded retries, offset resume) under the default
    /// policy, counted on the `easia_transfer_*` families. A fault that
    /// begins after the pre-flight is waited out and resumed from; only
    /// when the client gives up does the caller see the same
    /// [`Archive::unavailable`] the pre-flight produces.
    fn ship(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: f64,
    ) -> Result<TransferOutcome, ArchiveError> {
        let sent = transfer_with_retry_observed(
            &mut self.net,
            src,
            dst,
            bytes,
            &RetryPolicy::default(),
            Some(&self.transfer_metrics),
        );
        self.clock.set(self.net.now() as u64);
        sent.map_err(|e| match e {
            TransferClientError::HostDownIndefinitely(h) => self.unavailable(h),
            // Out of retries: blame the end that is not this portal's.
            TransferClientError::RetriesExhausted { .. } => {
                let near = dst == self.client_host || dst == self.db_host;
                self.unavailable(if near { src } else { dst })
            }
        })
    }

    /// Regenerate the XUIS from the catalog (keeping any operations and
    /// uploads attached to columns that still exist) and rebuild the
    /// operation catalog.
    pub fn generate_xuis(&mut self, samples_per_column: usize) {
        let fresh = easia_xuis::generate_default(&mut self.db, samples_per_column);
        // Carry operations/uploads from the old document forward.
        let old = std::mem::take(&mut self.xuis);
        let mut doc = fresh;
        for t_old in &old.tables {
            if let Some(t_new) = doc.table_mut(&t_old.name) {
                if t_old.alias.is_some() {
                    t_new.alias = t_old.alias.clone();
                }
                t_new.hidden = t_old.hidden;
                for c_old in &t_old.columns {
                    if let Some(c_new) = t_new.column_mut(&c_old.name) {
                        c_new.operations = c_old.operations.clone();
                        c_new.upload = c_old.upload.clone();
                        if c_old.alias.is_some() {
                            c_new.alias = c_old.alias.clone();
                        }
                        c_new.hidden = c_old.hidden;
                        if c_old.fk.as_ref().is_some_and(|f| f.substcolumn.is_some()) {
                            c_new.fk = c_old.fk.clone();
                        }
                    }
                }
            }
        }
        self.xuis = doc;
        self.catalog = OperationCatalog::from_xuis(&self.xuis);
    }

    /// Replace the XUIS wholesale (customised documents) and rebuild the
    /// operation catalog.
    pub fn set_xuis(&mut self, doc: XuisDoc) {
        self.xuis = doc;
        self.catalog = OperationCatalog::from_xuis(&self.xuis);
    }

    /// Regenerate the XUIS and then fold in sample values from every
    /// federated site's partition, so QBE drop-downs cover the whole
    /// federation, not just the rows the hub holds locally.
    pub fn generate_xuis_federated(&mut self, samples_per_column: usize) {
        self.generate_xuis(samples_per_column);
        let site_names = self.federation.site_names();
        for name in site_names {
            let site = self.federation.site(&name).expect("listed site exists");
            let site_doc =
                easia_xuis::generate_default(&mut site.db.borrow_mut(), samples_per_column);
            self.xuis.merge_samples(&site_doc, samples_per_column);
        }
        self.catalog = OperationCatalog::from_xuis(&self.xuis);
    }

    /// Run a hub-local read-only query on a fresh snapshot-isolation
    /// view: the statement sees a stable commit horizon even while
    /// ingest, uploads or DATALINK link control are mid-transaction on
    /// the same database. Browse and scan portal classes come through
    /// here; writers keep using the transactional statement API.
    pub fn snapshot_read(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<easia_db::ResultSet, DbError> {
        let snap = self.db.begin_snapshot();
        let out = self.db.snapshot_query(snap, sql, params);
        self.db.release_snapshot(snap);
        out
    }

    /// Execute a SELECT over a federated table: scatter the pushed-down
    /// scan across the registered sites, gather the row batches over the
    /// WAN, and merge at the hub. Returns the merged result set plus its
    /// `EXPLAIN FEDERATED` report.
    pub fn federated_query(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryOutcome, ArchiveError> {
        // A click that matches a speculatively prefetched screen is
        // served without touching the WAN; the write fingerprint check
        // guarantees the parked result is indistinguishable from a
        // live run.
        let fp = self.federation.write_fingerprint(&self.db);
        match self.prefetch.take(sql, params, fp) {
            easia_med::Lookup::Hit(mut out) => {
                self.obs
                    .metrics
                    .counter("easia_med_prefetch_hits_total", PREFETCH_HITS_HELP)
                    .inc();
                out.explain.prefetched = true;
                return Ok(*out);
            }
            easia_med::Lookup::Stale => {
                self.obs
                    .metrics
                    .counter("easia_med_prefetch_stale_total", PREFETCH_STALE_HELP)
                    .inc();
            }
            easia_med::Lookup::Miss => {}
        }
        let out = self
            .federation
            .query(
                &mut self.net,
                self.db_host,
                &mut self.db,
                Some(&self.obs),
                sql,
                params,
            )
            .map_err(map_fed_err)?;
        self.clock.set(self.net.now() as u64);
        Ok(out)
    }

    /// Speculatively run a batch of federated statements — the keyed
    /// scans behind the FK/PK links of the screen currently rendering —
    /// and park the outcomes for [`Archive::federated_query`] to serve
    /// on the next click. The statements share one event pump, so their
    /// WAN round trips overlap; failures are silently dropped (the live
    /// query will surface them if the user actually clicks).
    pub fn prefetch_queries(&mut self, queries: &[(String, Vec<Value>)]) {
        let fp = self.federation.write_fingerprint(&self.db);
        let todo: Vec<(String, Vec<Value>)> = queries
            .iter()
            .filter(|(sql, params)| !self.prefetch.contains(sql, params, fp))
            .cloned()
            .collect();
        if todo.is_empty() {
            return;
        }
        let issued = self
            .obs
            .metrics
            .counter("easia_med_prefetch_issued_total", PREFETCH_ISSUED_HELP);
        let results = self.federation.query_many(
            &mut self.net,
            self.db_host,
            &mut self.db,
            Some(&self.obs),
            &todo,
        );
        // Stamped with the pre-run fingerprint: a write landing
        // mid-gather invalidates the outcome rather than hiding in it.
        for ((sql, params), res) in todo.into_iter().zip(results) {
            if let Ok(out) = res {
                issued.inc();
                self.prefetch.insert(sql, params, fp, out);
            }
        }
        self.clock.set(self.net.now() as u64);
    }

    /// `EXPLAIN FEDERATED` for a statement, without executing it.
    pub fn federated_explain(&self, sql: &str, params: &[Value]) -> Result<String, ArchiveError> {
        Ok(self
            .federation
            .explain(&self.db, sql, params)
            .map_err(map_fed_err)?
            .render())
    }

    /// Archive a file *at the point where it was generated*: a local
    /// write on the file server (no WAN transfer), then a DATALINK
    /// INSERT carrying its URL — the paper's bandwidth-saving move.
    /// Returns the stored DATALINK URL.
    pub fn archive_file_local(
        &mut self,
        host: &str,
        path: &str,
        content: FileContent,
    ) -> Result<String, ArchiveError> {
        let (_, server) = self.file_server(host)?;
        server.borrow_mut().ingest(path, content);
        Ok(format!("http://{host}{path}"))
    }

    /// The *centralised* alternative the paper argues against: ship the
    /// file from the generating site over the WAN to `host` before
    /// archiving it there. Returns `(url, transfer_secs)`.
    pub fn archive_file_remote(
        &mut self,
        from: HostId,
        host: &str,
        path: &str,
        content: FileContent,
    ) -> Result<(String, f64), ArchiveError> {
        let (hid, server) = self.file_server(host)?;
        let sent = self.ship(from, hid, content.len() as f64)?;
        server.borrow_mut().ingest(path, content);
        Ok((format!("http://{host}{path}"), sent.duration()))
    }

    /// Download a DATALINKed file to the user's browser. `url` is the
    /// SELECT (tokenized) form. Verifies the token with the file server,
    /// simulates the WAN transfer, and returns
    /// `(bytes, transfer_secs)` — the bytes themselves are only
    /// materialised for non-synthetic files.
    pub fn download(&mut self, url: &str, role: Role) -> Result<(Vec<u8>, f64), ArchiveError> {
        if !role.can_download() {
            return Err(ArchiveError::Denied(
                "guest users cannot download datasets".into(),
            ));
        }
        let (parsed, token) =
            DatalinkUrl::parse_tokenized(url).map_err(|e| ArchiveError::Net(e.to_string()))?;
        let (hid, server) = self.check_available(&parsed.host)?;
        let request = parsed.server_request(token.as_deref());
        let now = self.clock.now();
        // Token/link-control validation happens before any bytes move.
        let size = {
            let s = server.borrow();
            // read_range of 0 bytes still validates the token + path.
            s.read_range(&request, 0, 0, now)?;
            s.file_size(&parsed.path)
                .ok_or_else(|| ArchiveError::Fs(FsError::NotFound(parsed.path.clone())))?
        };
        let sent = self.ship(hid, self.client_host, size as f64)?;
        let data = server
            .borrow()
            .read_file(&request, self.clock.now().min(now + 1))
            .unwrap_or_default();
        Ok((data, sent.duration()))
    }

    /// Fetch an operation's executable package per its XUIS location.
    fn fetch_package(&mut self, location: &Location) -> Result<Vec<u8>, ArchiveError> {
        match location {
            Location::DatabaseResult { colid, conditions } => {
                let (table, column) = colid
                    .rsplit_once('.')
                    .ok_or_else(|| ArchiveError::Op(format!("bad colid {colid}")))?;
                let mut sql = format!("SELECT {column} FROM {table}");
                let mut params = Vec::new();
                if !conditions.is_empty() {
                    let conj: Vec<String> = conditions
                        .iter()
                        .map(|c| {
                            let col = c.colid.rsplit_once('.').map(|(_, c)| c).unwrap_or(&c.colid);
                            params.push(Value::Str(c.eq.clone()));
                            format!("{col} = ?")
                        })
                        .collect();
                    sql.push_str(" WHERE ");
                    sql.push_str(&conj.join(" AND "));
                }
                let rs = self.db.execute_with_params(&sql, &params)?;
                let url = match rs.scalar() {
                    Some(Value::Datalink(u)) => u.clone(),
                    other => {
                        return Err(ArchiveError::Op(format!(
                            "operation code lookup returned {other:?}"
                        )))
                    }
                };
                // Code files are fetched by the archive itself (database
                // authority), using a fresh token when required.
                let (parsed, token) = DatalinkUrl::parse_tokenized(&url)
                    .map_err(|e| ArchiveError::Op(e.to_string()))?;
                let (_, server) = self.file_server(&parsed.host)?;
                let request = parsed.server_request(token.as_deref());
                let now = self.clock.now();
                let data = server.borrow().read_file(&request, now)?;
                Ok(data)
            }
            // A URL operation runs where its URL points: nothing to ship.
            Location::Url(_) => Ok(Vec::new()),
        }
    }

    /// Run a (non-URL) operation server-side against a dataset.
    ///
    /// `dataset_url` is the *stored* DATALINK URL; the job executes on
    /// the file server that holds the data, so only the (small) code
    /// package and the (small) outputs cross the WAN.
    pub fn run_operation(
        &mut self,
        table: &str,
        op_name: &str,
        dataset_url: &str,
        params: &BTreeMap<String, String>,
        role: Role,
        session_id: &str,
    ) -> Result<OperationOutcome, ArchiveError> {
        let entry = self
            .catalog
            .find(table, op_name)
            .ok_or_else(|| ArchiveError::Op(format!("no operation {op_name} on {table}")))?
            .clone();
        if !entry.op.guest_access && !role.can_run_restricted_ops() {
            return Err(ArchiveError::Denied(format!(
                "operation {op_name} is not available to guest users"
            )));
        }
        OperationCatalog::validate_params(&entry.op, params).map_err(ArchiveError::Op)?;

        if let Some(cache) = &mut self.cache {
            if let Some(hit) = cache.get(op_name, dataset_url, params) {
                return Ok(OperationOutcome {
                    shipped_bytes: 0.0,
                    elapsed_secs: 0.0,
                    from_cache: true,
                    instructions: 0,
                    outputs: hit.outputs,
                    stdout: hit.stdout,
                });
            }
        }
        // The code package is fetched at the hub and shipped from there.
        let code = Code {
            operation: op_name.to_string(),
            op_type: entry.op.op_type.clone(),
            entry: entry.op.filename.clone(),
            package: self.fetch_package(&entry.op.location)?,
            origin: self.db_host,
        };
        let out = self.run_job(code, dataset_url, params, session_id)?;
        if let Some(cache) = &mut self.cache {
            cache.put(
                op_name,
                dataset_url,
                params,
                CachedResult {
                    outputs: out.outputs.clone(),
                    stdout: out.stdout.clone(),
                },
            );
        }
        Ok(out)
    }

    /// Upload user code and run it sandboxed against a dataset — the
    /// paper's "post-processing via uploaded Java code", with EPC text
    /// in place of Java classes. The upload crosses the WAN from the
    /// browser to the data server.
    #[allow(clippy::too_many_arguments)]
    pub fn upload_and_run(
        &mut self,
        table: &str,
        column: &str,
        dataset_url: &str,
        code_package: Vec<u8>,
        entry: &str,
        params: &BTreeMap<String, String>,
        role: Role,
        session_id: &str,
    ) -> Result<OperationOutcome, ArchiveError> {
        if !role.can_upload_code() {
            return Err(ArchiveError::Denied(
                "guest users cannot upload post-processing codes".into(),
            ));
        }
        // The XUIS must allow upload on this column, and its conditions
        // must admit the dataset's row.
        let xt = self
            .xuis
            .table(table)
            .ok_or_else(|| ArchiveError::Op(format!("no table {table} in XUIS")))?;
        let xc = xt
            .column(column)
            .ok_or_else(|| ArchiveError::Op(format!("no column {column} in XUIS")))?;
        let up = xc.upload.clone().ok_or_else(|| {
            ArchiveError::Denied(format!("uploads not allowed on {table}.{column}"))
        })?;
        if !up.conditions.is_empty() {
            let row = self.row_pairs_for_dataset(table, column, dataset_url)?;
            if !up.conditions.iter().all(|c| c.matches(&row)) {
                return Err(ArchiveError::Denied(
                    "uploads are not allowed against this dataset".to_string(),
                ));
            }
        }
        let code = Code {
            operation: format!("upload:{entry}"),
            op_type: "EPC".into(),
            entry: entry.to_string(),
            package: code_package,
            origin: self.client_host,
        };
        self.run_job(code, dataset_url, params, session_id)
    }

    /// Run `code` next to the data, for catalogue operations and
    /// uploads alike: the dataset is read locally on its own server, so
    /// only the package and the outputs cross the WAN. The job shows on
    /// the progress board and in the statistics from the moment it
    /// passes the pre-flight; a fault the mover cannot ride out fails
    /// it there before the code runs.
    fn run_job(
        &mut self,
        code: Code,
        dataset_url: &str,
        params: &BTreeMap<String, String>,
        session_id: &str,
    ) -> Result<OperationOutcome, ArchiveError> {
        let parsed =
            DatalinkUrl::parse(dataset_url).map_err(|e| ArchiveError::Op(e.to_string()))?;
        let (data_hid, data_server) = self.check_available(&parsed.host)?;
        // No token needed: the DLFM trusts local operations invoked by
        // the archive.
        let dataset = {
            let s = data_server.borrow();
            let size = s
                .file_size(&parsed.path)
                .ok_or_else(|| ArchiveError::Fs(FsError::NotFound(parsed.path.clone())))?;
            s.store()
                .get(&parsed.path)
                .map(|c| c.read_range(0, size))
                .unwrap_or_default()
        };
        let start = self.net.now();
        let operation = code.operation.clone();
        let job_id = format!("{session_id}:{operation}");
        self.board.register(&job_id);
        let ran = (|| {
            if !code.package.is_empty() {
                self.ship(code.origin, data_hid, code.package.len() as f64)?;
            }
            let spec = JobSpec {
                session_id: session_id.to_string(),
                operation: code.operation,
                op_type: code.op_type,
                package: code.package,
                entry: code.entry,
                dataset_name: parsed.filename().to_string(),
                dataset,
                params: params.clone(),
                limits: self.op_limits,
            };
            let job = self
                .runner
                .run(&spec)
                .map_err(|e| ArchiveError::Op(e.to_string()))?;
            // Compute cost: charge simulated CPU seconds proportional
            // to sandbox work (1e8 instructions/second), minimum 0.1 s.
            let cpu_secs = (job.instructions as f64 / 1e8).max(0.1);
            let charge = self.net.job(data_hid, cpu_secs);
            self.settle();
            if self.net.job_failed(charge) {
                return Err(self.unavailable(data_hid));
            }
            // Ship the (reduced) outputs back to the browser.
            let shipped = job.output_bytes() as f64;
            if shipped > 0.0 {
                self.ship(data_hid, self.client_host, shipped)?;
            }
            Ok((job, shipped))
        })();
        match ran {
            Ok((job, shipped)) => {
                let elapsed = self.net.now() - start;
                self.stats
                    .record_success(&operation, job.instructions, elapsed, shipped as u64);
                self.board.done(&job_id);
                Ok(OperationOutcome {
                    outputs: job.outputs,
                    stdout: job.stdout,
                    shipped_bytes: shipped,
                    elapsed_secs: elapsed,
                    from_cache: false,
                    instructions: job.instructions,
                })
            }
            Err(e) => {
                self.stats.record_failure(&operation);
                self.board.failed(&job_id, &e.to_string());
                Err(e)
            }
        }
    }

    /// `(colid, value)` pairs for the row owning a dataset URL — used to
    /// evaluate XUIS `<if>` conditions.
    pub fn row_pairs_for_dataset(
        &mut self,
        table: &str,
        column: &str,
        dataset_url: &str,
    ) -> Result<Vec<(String, String)>, ArchiveError> {
        let rs = self.db.execute_with_params(
            &format!("SELECT * FROM {table} WHERE DLURLCOMPLETE({column}) = ?"),
            &[Value::Str(dataset_url.to_string())],
        )?;
        let Some(row) = rs.rows.first() else {
            return Err(ArchiveError::Op(format!(
                "dataset {dataset_url} not found in {table}"
            )));
        };
        Ok(rs
            .columns
            .iter()
            .zip(row)
            .map(|(c, v)| {
                (
                    format!("{}.{}", table.to_ascii_uppercase(), c),
                    v.to_string(),
                )
            })
            .collect())
    }

    /// File size lookup across all servers by stored DATALINK URL.
    pub fn file_size_of(&self, stored_url: &str) -> Option<u64> {
        let parsed = DatalinkUrl::parse(stored_url).ok()?;
        let (_, server) = self.servers.get(&parsed.host)?;
        server.borrow().file_size(&parsed.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbulence;

    fn archive() -> Archive {
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .file_server("fs2.example", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        a
    }

    #[test]
    fn build_and_schema() {
        let mut a = archive();
        let names = a.db.table_names();
        assert_eq!(
            names,
            vec![
                "AUTHOR",
                "CODE_FILE",
                "RESULT_FILE",
                "SIMULATION",
                "VISUALISATION_FILE"
            ]
        );
        a.generate_xuis(4);
        assert_eq!(a.xuis.tables.len(), 5);
    }

    #[test]
    fn local_archival_and_linking() {
        let mut a = archive();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        let rs = a.db.execute("SELECT COUNT(*) FROM RESULT_FILE").unwrap();
        assert!(matches!(rs.scalar(), Some(Value::Int(n)) if *n > 0));
        // Files are linked: the server refuses deletion.
        let rs = a
            .db
            .execute("SELECT DLURLSERVER(download_result), DLURLPATH(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let host = rs.rows[0][0].to_string();
        let path = rs.rows[0][1].to_string();
        let (_, server) = a.server(&host).unwrap();
        assert!(server.borrow_mut().delete_file(&path).is_err());
    }

    #[test]
    fn download_with_token_and_guest_denial() {
        let mut a = archive();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        let rs =
            a.db.execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
                .unwrap();
        let Value::Datalink(url) = &rs.rows[0][0] else {
            panic!("expected datalink")
        };
        assert!(url.contains(';'), "tokenized: {url}");
        let (data, secs) = a.download(url, Role::Researcher).unwrap();
        assert!(!data.is_empty());
        assert!(secs > 0.0);
        let err = a.download(url, Role::Guest).unwrap_err();
        assert!(matches!(err, ArchiveError::Denied(_)));
    }

    #[test]
    fn expired_token_rejected_on_download() {
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .token_ttl(60)
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        let rs =
            a.db.execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
                .unwrap();
        let Value::Datalink(url) = rs.rows[0][0].clone() else {
            panic!()
        };
        // Let more than the TTL pass before using the link.
        let t = a.net.now() + 120.0;
        a.advance_to(t);
        let err = a.download(&url, Role::Researcher).unwrap_err();
        assert!(
            matches!(err, ArchiveError::Fs(easia_fs::FsError::AccessDenied(_))),
            "{err}"
        );
    }

    #[test]
    fn file_size_lookup() {
        let mut a = archive();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        let rs =
            a.db.execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
                .unwrap();
        let url = rs.rows[0][0].to_string();
        assert!(a.file_size_of(&url).unwrap() > 0);
        assert!(a.file_size_of("http://nowhere/x").is_none());
    }
}

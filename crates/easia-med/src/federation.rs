//! The hub-side federation engine: scatter-gather execution of
//! SELECTs over partitioned foreign tables.
//!
//! Every federated statement — single-table or JOIN, alone or beside
//! its siblings in [`Federation::query_many`] — takes one path:
//!
//! 1. **Plan** (`legs.rs`) — the statement becomes a list of
//!    legs: per leg, split conjuncts into pushed vs. hub-evaluated,
//!    pick the shipped projection, decide top-k and partial-aggregate
//!    pushdown, choose how a JOIN leg is fetched ([`crate::planner`]).
//! 2. **Prepare** (`gather.rs`) — per ready leg, skip partitions
//!    whose declared site-key values cannot match a
//!    `site_key = <const>` conjunct, scan the local partition in place
//!    for free, and line up one [`ScanRequest`](crate::ScanRequest)
//!    stream per surviving remote site.
//! 3. **Pump** — sites execute the pushed scan and stream row-batch
//!    frames back through a bounded in-flight window. Streams are
//!    *pipelined*: every request scatters immediately, each site's
//!    batches flow independently, and a delivered frame is checked into
//!    its leg's records the moment it lands, so a screen's latency
//!    tracks the slowest *site*, not the sum of sites. Each stream keeps
//!    its own stall clock, so one stalled site never holds up its peers.
//! 4. **Finish** — whatever the pump left unfinished climbs the
//!    degradation ladder below; the rest is booked.
//! 5. **Merge** (`merge.rs`) — shipped rows, still the records
//!    the sites encoded, are bound as in-memory relations and the
//!    *original* statement runs over them, so every SQL feature the hub
//!    engine supports (aggregates, GROUP BY, DISTINCT, functions, ORDER
//!    BY/LIMIT) works federated, and pushed filters are harmlessly
//!    re-applied. The hub database is only read. The merged rows are
//!    lent as records — a shipped cell the statement passes through is
//!    copied as its bytes, a JOIN's included — into one arena, the
//!    statement's [`QueryRecords`] ([`Federation::query_many_records`]);
//!    [`Federation::query`] and [`Federation::query_many`] decode it into
//!    a result set ([`QueryRecords::decode`]).
//!
//! A site outage climbs the **degradation ladder** (`ladder.rs`)
//! instead of surfacing immediately:
//!
//! 1. **Retry with resume** — a mid-stream failure re-enters the pump
//!    with the request's `resume_from` batch cursor under the shared
//!    [`RetryPolicy`] (capped exponential backoff, deterministic
//!    jitter), bounded by a per-query deadline budget.
//! 2. **Circuit breaker** — consecutive failures open the site's
//!    [`crate::breaker::Breaker`] so later queries stop paying scatter
//!    timeouts for a known-dead site; a half-open probe re-admits it.
//! 3. **Stale replica** — under [`PartialPolicy::Degraded`] a down
//!    site is served from the hub's replica copy (a [`Cache`] entry),
//!    explicitly annotated as stale.
//! 4. **Skip or fail** — `PARTIAL` skips the dead site and annotates
//!    the answer; the default fail-closed policy raises a typed
//!    [`FedError::SiteUnavailable`] with a retry-after hint.

use crate::breaker::{Breaker, BreakerState};
use crate::cache::Cache;
use crate::catalog::{CatalogError, FedCatalog, Partition};
use crate::explain::FedExplain;
use crate::legs::Run;
use crate::remote::RemoteError;
use easia_db::exec::result_set;
use easia_db::value::Records;
use easia_db::{Database, DbError, ResultSet, Value};
use easia_net::{HostId, RetryPolicy, SimNet};
use easia_obs::Obs;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Bound on concurrently in-flight row-batch transfers.
pub const DEFAULT_WINDOW: usize = 4;
/// Default per-query deadline budget (simulated seconds) bounding all
/// retries and backoff waits.
pub const DEFAULT_DEADLINE_SECS: f64 = 600.0;
/// Default consecutive-failure count that opens a site's breaker.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;
/// Breaker cooldown when the fault schedule has no recovery time for
/// the site (simulated seconds).
pub const DEFAULT_BREAKER_COOLDOWN_SECS: f64 = 120.0;
/// Default bound on the join-key set shipped with a semi-join scan.
/// Beyond this the keyed scan degrades to a full-partition ship (the
/// IN-list itself would dominate the wire cost).
pub const DEFAULT_SEMIJOIN_MAX_KEYS: usize = 1024;
/// Bound on replica copies: one per `(site, table)`, far above the
/// sites × tables of any catalogue the archive federates.
const REPLICA_CAPACITY: usize = 64;

/// Federated-query failures.
#[derive(Debug, Clone)]
pub enum FedError {
    /// Hub or site SQL error.
    Db(DbError),
    /// Catalog registration error.
    Catalog(CatalogError),
    /// The statement's table is not a registered foreign table.
    UnknownTable(String),
    /// The statement uses a shape federation does not support.
    Unsupported(String),
    /// A site was unreachable and the policy is fail-closed.
    SiteUnavailable {
        /// The dead site.
        site: String,
        /// Suggested retry delay (simulated seconds).
        retry_after_secs: u64,
    },
    /// A wire frame failed to decode.
    Wire(String),
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::Db(e) => write!(f, "federation: {e}"),
            FedError::Catalog(e) => write!(f, "federation: {e}"),
            FedError::UnknownTable(t) => write!(f, "federation: {t} is not a foreign table"),
            FedError::Unsupported(m) => write!(f, "federation: unsupported: {m}"),
            FedError::SiteUnavailable {
                site,
                retry_after_secs,
            } => write!(
                f,
                "federation: site {site} unavailable (retry after {retry_after_secs}s)"
            ),
            FedError::Wire(m) => write!(f, "federation: wire: {m}"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<DbError> for FedError {
    fn from(e: DbError) -> Self {
        FedError::Db(e)
    }
}

impl From<CatalogError> for FedError {
    fn from(e: CatalogError) -> Self {
        FedError::Catalog(e)
    }
}

impl From<RemoteError> for FedError {
    fn from(e: RemoteError) -> Self {
        match e {
            RemoteError::Db(e) => FedError::Db(e),
            RemoteError::Wire(e) => FedError::Wire(e.to_string()),
        }
    }
}

/// What to do when a site is down mid-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartialPolicy {
    /// Fail the whole query (the default — federated answers are
    /// complete or absent).
    #[default]
    FailClosed,
    /// Answer from the surviving sites and annotate the skipped ones.
    Partial,
    /// Like `Partial`, but serve a down site from the hub's replica
    /// cache when a copy exists, annotated as stale; sites with no
    /// cached copy are skipped.
    Degraded,
}

/// A registered foreign server: a remote archive hub with its own
/// database instance, reachable over the simulated WAN.
pub struct Site {
    /// Server name (also the metric label).
    pub name: String,
    /// The site's host in the network simulation.
    pub host: HostId,
    /// The site's database (its partition of every foreign table).
    pub db: Rc<RefCell<Database>>,
    pub(crate) up: Cell<bool>,
    pub(crate) breaker: RefCell<Breaker>,
    /// The write counter of the last batch the hub accepted from the
    /// site: the version its replica copies are looked up under.
    pub(crate) write_counter: Cell<u64>,
}

impl Site {
    /// Take the site's service down (software outage — the host may
    /// still route).
    pub fn crash(&self) {
        self.up.set(false);
    }

    /// Bring the service back.
    pub fn restart(&self) {
        self.up.set(true);
    }

    /// Is the service itself up? (Network reachability is separate.)
    pub fn is_up(&self) -> bool {
        self.up.get()
    }

    /// The site's circuit breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.borrow().state()
    }
}

/// A completed federated query: the merged result set plus its
/// `EXPLAIN FEDERATED` report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The merged rows, exactly as a single-site run would produce.
    pub rs: ResultSet,
    /// Per-site pushdown/shipping breakdown.
    pub explain: FedExplain,
}

/// A completed federated query as the merge lends it: the result's
/// columns, each row's record in one arena and the `EXPLAIN FEDERATED`
/// report. What a screen renders from, and `Clone` so speculative
/// prefetch can hold one for the next screen.
#[derive(Debug, Clone)]
pub struct QueryRecords {
    /// The result's columns.
    pub columns: Vec<String>,
    /// Each merged row's `encode_row` record, exactly the rows a
    /// single-site run would return.
    pub rows: Records,
    /// Per-site pushdown/shipping breakdown.
    pub explain: FedExplain,
}

impl QueryRecords {
    /// The outcome with its rows decoded into a result set, through the
    /// one function that decodes lent records ([`result_set`]).
    pub fn decode(self) -> Result<QueryOutcome, FedError> {
        let QueryRecords {
            columns,
            rows,
            explain,
        } = self;
        let rs = result_set(|each| {
            rows.iter().for_each(each);
            Ok(columns)
        })?;
        Ok(QueryOutcome { rs, explain })
    }
}

/// The hub's federation engine.
pub struct Federation {
    /// Foreign-server / foreign-table registry.
    pub catalog: FedCatalog,
    /// Outage policy.
    pub policy: PartialPolicy,
    /// Master pushdown switch (off = ship-everything, for ablations).
    pub pushdown: bool,
    /// Partial-aggregate pushdown switch (off = aggregates ship their
    /// filtered, projected raw rows and re-aggregate at the hub — the
    /// pre-E17 behaviour, kept as the E17 ablation).
    pub partial_agg: bool,
    /// Rows per shipped batch frame.
    pub batch_rows: usize,
    /// Shared retry/backoff policy for mid-stream scan recovery.
    pub retry: RetryPolicy,
    /// Per-query deadline budget (simulated seconds): retries stop once
    /// the query has been running this long. The boundary is
    /// *exclusive* everywhere — WAN work (the scatter, a batch frame, a
    /// retry resume) launches only while `now < deadline`; at
    /// `now >= deadline` nothing further touches the wire, so a
    /// zero-second budget issues zero WAN traffic.
    pub deadline_secs: f64,
    /// Consecutive failures that open a site's circuit breaker.
    pub breaker_threshold: u32,
    /// Largest join-key set a semi-join scan will ship; bigger key
    /// lists fall back to a full-partition ship.
    pub semijoin_max_keys: usize,
    /// Registered sites by server name.
    pub(crate) sites: BTreeMap<String, Site>,
    /// Hub-side stale-replica cache (None = caching disabled).
    pub(crate) replicas: Option<Replicas>,
}

/// The hub's copies of small foreign partitions, keyed on
/// `(site, table)` and versioned by the site's write counter. A copy
/// serves a live site's scan while it is at most `ttl_secs` old, and a
/// down site's under [`PartialPolicy::Degraded`] at any age.
pub(crate) struct Replicas {
    pub(crate) ttl_secs: f64,
    /// Only partitions estimated at this many rows or fewer are copied
    /// (copying a multi-gigabyte partition would defeat federating).
    pub(crate) max_rows: u64,
    pub(crate) copies: RefCell<Copies>,
}

/// Replica copies by `(site, table)`: each the whole partition, all
/// columns, in site order.
pub(crate) type Copies = Cache<(String, String), Records>;

impl Default for Federation {
    fn default() -> Self {
        Federation {
            catalog: FedCatalog::default(),
            sites: BTreeMap::new(),
            policy: PartialPolicy::default(),
            pushdown: true,
            partial_agg: true,
            batch_rows: crate::remote::DEFAULT_BATCH_ROWS,
            retry: RetryPolicy::default(),
            deadline_secs: DEFAULT_DEADLINE_SECS,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
            semijoin_max_keys: DEFAULT_SEMIJOIN_MAX_KEYS,
            replicas: None,
        }
    }
}

impl Federation {
    /// Register a foreign server (`CREATE SERVER`) backed by `host` and
    /// its own database.
    pub fn add_site(&mut self, name: &str, host: HostId, db: Database) -> &Site {
        self.catalog.create_server(name);
        self.sites.insert(
            name.to_string(),
            Site {
                name: name.to_string(),
                host,
                db: Rc::new(RefCell::new(db)),
                up: Cell::new(true),
                breaker: RefCell::new(Breaker::default()),
                write_counter: Cell::new(0),
            },
        );
        &self.sites[name]
    }

    /// Enable the stale-replica cache: copies live for `ttl_secs`, only
    /// partitions estimated at `max_rows` rows or fewer are cached.
    pub fn enable_replica_cache(&mut self, ttl_secs: f64, max_rows: u64) {
        self.replicas = Some(Replicas {
            ttl_secs,
            max_rows,
            copies: RefCell::new(Cache::new(REPLICA_CAPACITY)),
        });
    }

    /// Eagerly register every federation metric family (including the
    /// per-site breaker gauges at 0) so `/metrics` renders them before
    /// the first query or outage.
    pub fn register_metrics(&self, obs: &Obs) {
        crate::metrics::register(obs, self.sites.keys(), self.catalog.tables.keys());
    }

    /// The registered site named `name`.
    pub fn site(&self, name: &str) -> Option<&Site> {
        self.sites.get(name)
    }

    /// All registered site names.
    pub fn site_names(&self) -> Vec<String> {
        self.sites.keys().cloned().collect()
    }

    /// Refresh the catalog's per-partition row-count estimates by
    /// running `COUNT(*)` at every site (the `ANALYZE` of this engine).
    pub fn analyze(&self, hub_db: &mut Database) -> Result<(), FedError> {
        for ft in self.catalog.tables.values() {
            for p in &ft.partitions {
                let sql = format!("SELECT COUNT(*) FROM {}", ft.name);
                let rs = match &p.server {
                    None => hub_db.execute(&sql)?,
                    Some(s) => {
                        let site = self.sites.get(s).ok_or_else(|| {
                            FedError::Catalog(CatalogError::UnknownServer(s.clone()))
                        })?;
                        site.db.borrow_mut().execute(&sql)?
                    }
                };
                if let Some(Value::Int(n)) = rs.rows.first().and_then(|r| r.first()) {
                    p.est_rows.set((*n).max(0) as u64);
                }
            }
        }
        Ok(())
    }

    /// Seed and register a partitioned catalogue in one step: `seed`
    /// fills the hub's partition first (`site_no` 0, labelled `hub`),
    /// then each of `sites` in the order listed (`site_no` 1..); every
    /// one of `tables` is then imported from the hub's schema over those
    /// partitions and analyzed. With a `site_key` column each partition
    /// is declared to hold its own label (so equality on the column
    /// prunes); without one no partition declares values.
    pub fn partition_tables(
        &mut self,
        hub_db: &mut Database,
        hub: &str,
        sites: &[&str],
        tables: &[&str],
        site_key: Option<&str>,
        mut seed: impl FnMut(&mut Database, &str, u64),
    ) -> Result<(), FedError> {
        let keys = |label| site_key.map(|_| label);
        seed(hub_db, hub, 0);
        let mut partitions = vec![Partition::new(None, keys(hub).as_slice())];
        for (site_no, name) in (1..).zip(sites) {
            let site = self
                .site(name)
                .ok_or_else(|| CatalogError::UnknownServer(name.to_string()))?;
            seed(&mut site.db.borrow_mut(), name, site_no);
            partitions.push(Partition::new(Some(name), keys(*name).as_slice()));
        }
        for table in tables {
            self.catalog
                .import_foreign_table(hub_db, table, site_key, partitions.clone())?;
        }
        self.analyze(hub_db)
    }

    /// Execute one federated SELECT. `net` carries the WAN simulation,
    /// `hub_host` is this hub's network endpoint, `hub_db` holds the
    /// local partition and is only read, and `obs` (when present) gets
    /// the federation metrics and a per-query span. The one-statement
    /// case of [`Federation::query_many`].
    pub fn query(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        sql: &str,
        params: &[Value],
    ) -> Result<QueryOutcome, FedError> {
        let one = [(sql.to_string(), params.to_vec())];
        self.query_many(net, hub_host, hub_db, obs, &one)
            .pop()
            .expect("one result per statement")
    }

    /// Execute several statements from one portal session so their WAN
    /// round trips overlap: every statement is planned up front, the
    /// single-table ones share one event pump, and each statement's
    /// result comes back in input order. Wall-clock tracks the slowest
    /// statement instead of the sum. JOIN statements run after the
    /// shared pump, each on its own clock (it pipelines its legs
    /// internally). [`Federation::query_many_records`], each result
    /// decoded.
    pub fn query_many(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        queries: &[(String, Vec<Value>)],
    ) -> Vec<Result<QueryOutcome, FedError>> {
        let lent = self.query_many_records(net, hub_host, hub_db, obs, queries);
        lent.into_iter()
            .map(|out| out.and_then(QueryRecords::decode))
            .collect()
    }

    /// [`Federation::query_many`] with each result's rows lent as the
    /// merge writes them, records in one arena, none decoded.
    pub fn query_many_records(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        queries: &[(String, Vec<Value>)],
    ) -> Vec<Result<QueryRecords, FedError>> {
        let plans: Vec<_> = queries
            .iter()
            .map(|(sql, params)| self.plan(hub_db, sql, params))
            .collect();
        let mut runs: Vec<Result<Run<'_, '_>, FedError>> = plans
            .iter()
            .map(|plan| plan.as_ref().map(Run::new).map_err(FedError::clone))
            .collect();
        let (joins, mut shared): (Vec<_>, Vec<_>) =
            runs.iter_mut().flatten().partition(|r| r.stmt.is_join());
        self.execute(net, hub_host, hub_db, obs, &mut shared);
        for run in joins {
            self.execute(net, hub_host, hub_db, obs, &mut [run]);
        }
        runs.into_iter()
            .map(|run| run.and_then(|r| r.outcome.expect("executed to an outcome")))
            .collect()
    }

    /// Fold the hub's and every site's write counter into one
    /// fingerprint: any committed write anywhere in the federation
    /// changes it, so speculative prefetch results keyed on the
    /// fingerprint self-invalidate (same freshness rule the EMB1 batch
    /// header enforces mid-stream).
    pub fn write_fingerprint(&self, hub_db: &Database) -> u64 {
        let mut h = hub_db.write_counter();
        for site in self.sites.values() {
            h = h
                .wrapping_mul(1_000_003)
                .wrapping_add(site.db.borrow().write_counter());
        }
        h
    }

    /// `EXPLAIN FEDERATED` without disturbing the network: the plan
    /// `query` would run, rendered with its actuals at zero. `hub_db`
    /// resolves local tables for JOIN statements (never written).
    pub fn explain(
        &self,
        hub_db: &Database,
        sql: &str,
        params: &[Value],
    ) -> Result<FedExplain, FedError> {
        Ok(FedExplain::planned(&self.plan(hub_db, sql, params)?))
    }
}

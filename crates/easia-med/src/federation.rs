//! The hub-side federation engine: scatter-gather execution of one
//! SELECT over a partitioned foreign table.
//!
//! Execution shape, per query:
//!
//! 1. **Plan** — split conjuncts into pushed vs. hub-evaluated, pick
//!    the shipped projection, decide top-k pushdown
//!    ([`crate::planner::plan_select`]).
//! 2. **Prune** — skip partitions whose declared site-key values cannot
//!    match a `site_key = <const>` conjunct.
//! 3. **Scatter** — ship one [`ScanRequest`] frame to every surviving
//!    remote site over the simulated WAN; the local partition is
//!    scanned in place for free.
//! 4. **Gather** — sites execute the pushed scan and stream row-batch
//!    frames back through a bounded in-flight window. Streams are
//!    *pipelined*: every request scatters immediately, each site's
//!    batches flow independently, and a delivered frame is decoded and
//!    merged the moment it lands ([`SimNet::run_until_any_settled`] is
//!    the wait primitive), so a screen's latency tracks the slowest
//!    *site*, not the sum of sites. Each stream keeps its own stall
//!    clock, so one stalled site never holds up its peers.
//! 5. **Merge** — shipped rows are bound as an in-memory relation and
//!    the *original* statement runs over it ([`crate::merge`]), so every
//!    SQL feature the hub engine supports (aggregates, GROUP BY,
//!    DISTINCT, functions, ORDER BY/LIMIT) works federated, and pushed
//!    filters are harmlessly re-applied. The hub database is only read.
//!
//! A site outage climbs the **degradation ladder** instead of
//! surfacing immediately:
//!
//! 1. **Retry with resume** — a mid-stream failure re-issues the scan
//!    with a `resume_from` batch cursor under the shared
//!    [`RetryPolicy`] (capped exponential backoff, deterministic
//!    jitter), bounded by a per-query deadline budget.
//! 2. **Circuit breaker** — consecutive failures open the site's
//!    [`crate::breaker::Breaker`] so later queries stop paying scatter
//!    timeouts for a known-dead site; a half-open probe re-admits it.
//! 3. **Stale replica** — under [`PartialPolicy::Degraded`] a down
//!    site is served from the hub's [`crate::replica::ReplicaCache`]
//!    copy, explicitly annotated as stale.
//! 4. **Skip or fail** — `PARTIAL` skips the dead site and annotates
//!    the answer; the default fail-closed policy raises a typed
//!    [`FedError::SiteUnavailable`] with a retry-after hint.

use crate::breaker::{Breaker, BreakerCheck, BreakerState};
use crate::catalog::{CatalogError, FedCatalog, ForeignTable};
use crate::explain::{
    AggExplain, FedExplain, JoinExplain, JoinStrategy, SiteExplain, SiteSource, StaleSite,
};
use crate::merge::{merge, merge_partial_agg, partial_from_raw, Leg};
use crate::planner::{
    externalize, plan_join, plan_select, strip_qualifiers, JoinLeg, LegStrategy, TablePlan,
};
use crate::remote::{frame_batches, scan_rows, RemoteError};
use crate::replica::ReplicaCache;
use crate::wire::{decode_batch, ScanRequest};
use easia_db::sql::ast::{JoinKind, SelectItem, SelectStmt, Stmt};
use easia_db::sql::parse;
use easia_db::{Database, DbError, ResultSet, Value};
use easia_net::{HostId, RetryPolicy, SimNet, TransferId, TransferStatus};
use easia_obs::Obs;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default bound on concurrently in-flight row-batch transfers.
pub const DEFAULT_WINDOW: usize = 4;
/// Default per-query deadline budget (simulated seconds) bounding all
/// retries and backoff waits.
pub const DEFAULT_DEADLINE_SECS: f64 = 600.0;
/// Default consecutive-failure count that opens a site's breaker.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;
/// Default breaker cooldown when the fault schedule has no recovery
/// time for the site (simulated seconds).
pub const DEFAULT_BREAKER_COOLDOWN_SECS: f64 = 120.0;
/// Default bound on the join-key set shipped with a semi-join scan.
/// Beyond this the keyed scan degrades to a full-partition ship (the
/// IN-list itself would dominate the wire cost).
pub const DEFAULT_SEMIJOIN_MAX_KEYS: usize = 1024;

const TRANSPORT_HELP: &str = "Federation transport counter";
const RETRIES_HELP: &str = "Federated scan retry attempts";
const BREAKER_HELP: &str = "Per-site circuit breaker state (0 closed, 1 open, 2 half-open)";
const CACHE_HITS_HELP: &str = "Federated reads served from a fresh replica copy";
const CACHE_STALE_HELP: &str = "Federated reads served from a stale replica copy (DEGRADED)";
const SEMIJOIN_KEYS_HELP: &str = "Join-key values shipped with semi-join scans";
const SEMIJOIN_FALLBACKS_HELP: &str = "Semi-join legs degraded to full-partition ship, by reason";
const DEADLINE_CANCEL_HELP: &str =
    "Federated scans cancelled mid-stream at the query deadline (no further batches issued)";
const PARTIAL_AGG_QUERIES_HELP: &str =
    "Federated statements executed with partial-aggregate pushdown";
const PARTIAL_AGG_GROUPS_HELP: &str =
    "Partial-aggregate state rows (one per group per site) shipped over the WAN";
const PARTIAL_AGG_FALLBACKS_HELP: &str =
    "Aggregate statements that declined partial pushdown and shipped raw rows, by reason";

/// Every reason `plan_partial_agg` (or the ablation switches) can
/// decline partial-aggregate pushdown with; kept in one place so the
/// metric family registers eagerly for each.
const PARTIAL_AGG_FALLBACK_REASONS: [&str; 7] = [
    "distinct",
    "expr-arg",
    "hub-conjunct",
    "group-expr",
    "non-group-column",
    "wildcard",
    "disabled",
];

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
    up: Cell<bool>,
    breaker: RefCell<Breaker>,
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

/// In-flight state for one remote partition's scan.
struct Pending<'a> {
    site: &'a Site,
    /// The request this site is serving (the pushed scan, or a
    /// full-partition scan when refilling the replica cache).
    request: ScanRequest,
    frames: std::vec::IntoIter<Vec<u8>>,
    /// Accepted rows, in request-column order.
    rows: Vec<Vec<Value>>,
    /// Count of fully-received batches == next expected sequence
    /// number == the `resume_from` cursor for a retry.
    cursor: u64,
    /// Write counter from the most recent batch header.
    last_write_counter: u64,
    /// Wire bytes this stream *actually* moved over the WAN: request
    /// frames (including retry re-ships) plus every **delivered** batch
    /// frame — even one the sequence check then discards. This is
    /// transport accounting, not useful-payload accounting, so after a
    /// mid-stream failure `bytes` exceeds what `rows` alone would
    /// imply; `rows_shipped` is the useful-row measure (see DESIGN.md
    /// "Wire accounting").
    bytes: u64,
    retries: u32,
    failed: bool,
    /// The query deadline expired while this scan was still streaming:
    /// the gather stopped issuing batch requests for it. Unlike a
    /// transport failure this is *client-side cancellation* — the site
    /// is healthy — so recovery is not attempted and the breaker is
    /// not penalised.
    expired: bool,
    /// Whether this scan ships the full partition to refill the cache.
    cache_fill: bool,
}

/// One table's scatter-gather work order: everything the shared
/// partition loop needs, built once by the single-table path and once
/// per federated JOIN leg.
struct TableGather<'a> {
    /// The foreign table being gathered.
    ft: &'a ForeignTable,
    /// Shipped projection (request-column order).
    columns: &'a [String],
    /// The pushed scan every surviving site runs.
    request: ScanRequest,
    /// Site-key constant for partition pruning, from pushed conjuncts.
    site_key_value: Option<Value>,
    /// Pushed conjuncts as SQL (EXPLAIN bookkeeping only).
    pushed_sql: Vec<String>,
    /// Hub-evaluated conjuncts as SQL (EXPLAIN bookkeeping only).
    hub_sql: Vec<String>,
    /// Whether the request carries a top-k ORDER BY/LIMIT cut.
    topk: bool,
    /// Table label stamped on this gather's site entries (JOIN reports
    /// only; empty for a single-table query).
    table_label: String,
    /// Skip every partition outright: an empty semi-join key set proves
    /// no row of this table can join.
    skip_all: bool,
}

/// One table-gather's streams between [`Federation::prepare_gather`]
/// and [`Federation::finish_gather`]: the unit the event pump
/// schedules. Several states (sibling queries, independent JOIN legs)
/// can be pumped together so their WAN round trips overlap.
struct GatherState<'a> {
    /// Remote streams, in partition order.
    pending: Vec<Pending<'a>>,
    /// Rows contributed without streaming (local scans, fresh cache
    /// hits, stale fallbacks); WAN rows are appended by the finish.
    gathered: Vec<Vec<Value>>,
    /// Where this gather's entries start in its explain report.
    first_entry: usize,
    /// The owning query's absolute deadline (simulated time).
    deadline: f64,
}

/// What one stream currently has on the wire.
enum Flight {
    /// Nothing — ready to launch the request or the next batch, or the
    /// stream is complete.
    Idle,
    /// The EMQ1 scan-request frame.
    Request {
        /// The in-flight transfer.
        id: TransferId,
        /// Frame length, accounted on delivery.
        len: u64,
    },
    /// An EMB1 row-batch frame, kept so the hub can account and decode
    /// it the moment it is delivered.
    Batch {
        /// The in-flight transfer.
        id: TransferId,
        /// The frame bytes.
        frame: Vec<u8>,
    },
}

/// Project full-partition rows (all `ft` columns, site-schema order)
/// onto the plan's shipped column subset.
fn project(rows: &[Vec<Value>], ft: &ForeignTable, cols: &[String]) -> Vec<Vec<Value>> {
    let idx: Vec<usize> = cols
        .iter()
        .filter_map(|c| ft.columns.iter().position(|(n, _)| n == c))
        .collect();
    rows.iter()
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect()
}

/// A completed federated query: the merged result set plus its
/// `EXPLAIN FEDERATED` report. `Clone` so speculative prefetch can
/// hold a copy for the next screen.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The merged rows, exactly as a single-site run would produce.
    pub rs: ResultSet,
    /// Per-site pushdown/shipping breakdown.
    pub explain: FedExplain,
}

/// The hub's federation engine.
pub struct Federation {
    /// Foreign-server / foreign-table registry.
    pub catalog: FedCatalog,
    /// Registered sites by server name.
    sites: BTreeMap<String, Site>,
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
    /// Bound on concurrently in-flight batch transfers.
    pub window: usize,
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
    /// Breaker cooldown when the fault schedule offers no recovery time.
    pub breaker_cooldown_s: f64,
    /// Largest join-key set a semi-join scan will ship; bigger key
    /// lists fall back to a full-partition ship.
    pub semijoin_max_keys: usize,
    /// Hub-side stale-replica cache (None = caching disabled).
    cache: Option<RefCell<ReplicaCache>>,
}

impl Default for Federation {
    fn default() -> Self {
        Federation {
            catalog: FedCatalog::default(),
            sites: BTreeMap::new(),
            policy: PartialPolicy::default(),
            pushdown: true,
            partial_agg: true,
            batch_rows: crate::remote::DEFAULT_BATCH_ROWS,
            window: DEFAULT_WINDOW,
            retry: RetryPolicy::default(),
            deadline_secs: DEFAULT_DEADLINE_SECS,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
            breaker_cooldown_s: DEFAULT_BREAKER_COOLDOWN_SECS,
            semijoin_max_keys: DEFAULT_SEMIJOIN_MAX_KEYS,
            cache: None,
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
            },
        );
        &self.sites[name]
    }

    /// Enable the stale-replica cache: copies live for `ttl_secs`, only
    /// partitions estimated at `max_rows` rows or fewer are cached.
    pub fn enable_replica_cache(&mut self, ttl_secs: f64, max_rows: u64) {
        self.cache = Some(RefCell::new(ReplicaCache::new(ttl_secs, max_rows)));
    }

    /// Is the replica cache enabled?
    pub fn replica_cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Eagerly register every federation metric family (including the
    /// per-site breaker gauges at 0) so `/metrics` renders them before
    /// the first query or outage.
    pub fn register_metrics(&self, obs: &Obs) {
        for name in self.sites.keys() {
            let labels: &[(&str, &str)] = &[("site", name)];
            obs.metrics
                .counter_with("easia_med_scan_retries_total", RETRIES_HELP, labels);
            obs.metrics
                .gauge_with("easia_med_breaker_state", BREAKER_HELP, labels)
                .set(0.0);
            obs.metrics
                .counter_with("easia_med_cache_hits_total", CACHE_HITS_HELP, labels);
            obs.metrics.counter_with(
                "easia_med_cache_stale_served_total",
                CACHE_STALE_HELP,
                labels,
            );
            obs.metrics.counter_with(
                "easia_med_deadline_cancelled_total",
                DEADLINE_CANCEL_HELP,
                labels,
            );
        }
        for name in self.sites.keys() {
            obs.metrics.counter_with(
                "easia_med_partial_agg_groups_shipped_total",
                PARTIAL_AGG_GROUPS_HELP,
                &[("site", name)],
            );
        }
        for table in self.catalog.tables.keys() {
            obs.metrics.counter_with(
                "easia_med_semijoin_keys_shipped_total",
                SEMIJOIN_KEYS_HELP,
                &[("table", table)],
            );
            obs.metrics.counter_with(
                "easia_med_partial_agg_queries_total",
                PARTIAL_AGG_QUERIES_HELP,
                &[("table", table)],
            );
        }
        for reason in ["overflow", "no-key", "pushdown-off"] {
            obs.metrics.counter_with(
                "easia_med_semijoin_fallbacks_total",
                SEMIJOIN_FALLBACKS_HELP,
                &[("reason", reason)],
            );
        }
        for reason in PARTIAL_AGG_FALLBACK_REASONS {
            obs.metrics.counter_with(
                "easia_med_partial_agg_fallbacks_total",
                PARTIAL_AGG_FALLBACKS_HELP,
                &[("reason", reason)],
            );
        }
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
    /// round trips overlap: every single-table statement is planned up
    /// front, the gathers share one event pump, and each statement's
    /// result comes back in input order. Wall-clock tracks the slowest
    /// statement instead of the sum. JOIN statements run after the
    /// shared pump (each pipelines its own legs internally).
    pub fn query_many(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        queries: &[(String, Vec<Value>)],
    ) -> Vec<Result<QueryOutcome, FedError>> {
        let t0 = net.now();
        let deadline = t0 + self.deadline_secs;
        /// Per-statement admission state for the shared pump.
        enum Slot {
            /// Planned single-table statement, ready to gather.
            Ready(Box<(SelectStmt, ForeignTable, TablePlan, ScanRequest)>),
            /// JOIN: executed after the shared pump.
            Join(Box<SelectStmt>),
            /// Parse/plan failure, reported without touching the wire.
            Err(Option<FedError>),
        }
        let mut slots: Vec<Slot> = queries
            .iter()
            .map(|(sql, params)| match parse(sql) {
                Err(e) => Slot::Err(Some(e.into())),
                Ok(Stmt::Select(sel)) if !sel.joins.is_empty() => Slot::Join(Box::new(sel)),
                Ok(Stmt::Select(sel)) => match self.plan_single(&sel, params) {
                    Ok((ft, plan, request)) => Slot::Ready(Box::new((sel, ft, plan, request))),
                    Err(e) => Slot::Err(Some(e)),
                },
                Ok(_) => Slot::Err(Some(FedError::Unsupported(
                    "only SELECT can be federated".into(),
                ))),
            })
            .collect();
        let mut results: Vec<Option<Result<QueryOutcome, FedError>>> = slots
            .iter_mut()
            .map(|s| match s {
                Slot::Err(e) => Some(Err(e.take().expect("error slot drained once"))),
                _ => None,
            })
            .collect();
        let ready_idx: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Ready(_)))
            .map(|(i, _)| i)
            .collect();
        let gathers: Vec<TableGather<'_>> = ready_idx
            .iter()
            .map(|&i| {
                let Slot::Ready(b) = &slots[i] else {
                    unreachable!("ready_idx only indexes Ready slots")
                };
                let (_, ft, plan, request) = &**b;
                TableGather {
                    ft,
                    columns: &plan.columns,
                    request: request.clone(),
                    site_key_value: plan.site_key_value.clone(),
                    pushed_sql: plan.pushed_sql(),
                    hub_sql: plan.hub_sql(),
                    topk: plan.order_limit.is_some(),
                    table_label: String::new(),
                    skip_all: false,
                }
            })
            .collect();
        let mut explains: Vec<FedExplain> = ready_idx
            .iter()
            .map(|&i| {
                let Slot::Ready(b) = &slots[i] else {
                    unreachable!("ready_idx only indexes Ready slots")
                };
                FedExplain {
                    table: b.1.name.clone(),
                    ..FedExplain::default()
                }
            })
            .collect();
        let mut live_k: Vec<usize> = Vec::new();
        let mut live_states: Vec<GatherState<'_>> = Vec::new();
        for (k, g) in gathers.iter().enumerate() {
            match self.prepare_gather(net, hub_db, obs, g, deadline, &mut explains[k]) {
                Ok(st) => {
                    live_k.push(k);
                    live_states.push(st);
                }
                Err(e) => results[ready_idx[k]] = Some(Err(e)),
            }
        }
        if let Err(e) = self.pump(net, hub_host, obs, &mut live_states) {
            // A pump error is session-wide (unroutable hub, stalled
            // scheduler): every live statement fails identically.
            for &k in &live_k {
                results[ready_idx[k]] = Some(Err(e.clone()));
            }
            live_k.clear();
            live_states.clear();
        }
        for (k, st) in live_k.into_iter().zip(live_states) {
            let i = ready_idx[k];
            let g = &gathers[k];
            let mut explain = std::mem::take(&mut explains[k]);
            let res = match self.finish_gather(net, hub_host, hub_db, obs, g, st, &mut explain) {
                Err(e) => Err(e),
                Ok(gathered) => {
                    self.conjunct_metrics(obs, g.pushed_sql.len() as u64, g.hub_sql.len() as u64);
                    let Slot::Ready(b) = &slots[i] else {
                        unreachable!("ready_idx only indexes Ready slots")
                    };
                    let (sel, ft, plan, _) = &**b;
                    match self.merge_outcome(
                        hub_db,
                        obs,
                        sel,
                        ft,
                        plan,
                        &queries[i].1,
                        gathered,
                        &mut explain,
                    ) {
                        Err(e) => Err(e),
                        Ok(rs) => {
                            if let Some(o) = obs {
                                o.tracer.record(
                                    "easia.med.query",
                                    t0,
                                    net.now(),
                                    &[
                                        ("table", ft.name.clone()),
                                        ("rows_shipped", explain.rows_shipped().to_string()),
                                        ("bytes_wire", explain.bytes_wire().to_string()),
                                        ("skipped", explain.skipped.len().to_string()),
                                    ],
                                );
                            }
                            Ok(QueryOutcome { rs, explain })
                        }
                    }
                }
            };
            results[i] = Some(res);
        }
        drop(gathers);
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::Join(sel) = slot {
                let tj = net.now();
                results[i] =
                    Some(self.query_join(net, hub_host, hub_db, obs, sel, &queries[i].1, tj));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved exactly once"))
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

    /// Plan one single-table SELECT: split conjuncts, pick the shipped
    /// projection, and build the pushed [`ScanRequest`] — everything a
    /// gather needs, with no network side effects yet.
    fn plan_single(
        &self,
        sel: &SelectStmt,
        params: &[Value],
    ) -> Result<(ForeignTable, TablePlan, ScanRequest), FedError> {
        let table = sel
            .from
            .as_ref()
            .map(|t| t.name.to_ascii_uppercase())
            .ok_or_else(|| FedError::Unsupported("SELECT without FROM".into()))?;
        let ft = self
            .catalog
            .table(&table)
            .ok_or(FedError::UnknownTable(table))?
            .clone();

        let is_agg_stmt = !sel.group_by.is_empty()
            || sel.having.is_some()
            || sel.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });
        let mut plan = if self.pushdown {
            plan_select(sel, &ft, params)?
        } else {
            // Ship-everything ablation: no pushed conjuncts, full
            // projection, no top-k cut, no pruning.
            TablePlan {
                pushed: vec![],
                hub_eval: sel
                    .where_clause
                    .as_ref()
                    .map(|w| easia_db::plan::conjuncts(w).into_iter().cloned().collect())
                    .unwrap_or_default(),
                columns: ft.columns.iter().map(|(c, _)| c.clone()).collect(),
                order_limit: None,
                site_key_value: None,
                partial_agg: None,
                agg_fallback: is_agg_stmt.then_some("disabled"),
            }
        };
        if !self.partial_agg && plan.partial_agg.take().is_some() {
            // Partial-aggregate ablation: keep every other pushdown but
            // ship the aggregate's raw rows.
            plan.agg_fallback = Some("disabled");
        }

        // Externalise pushed conjuncts into one parameterised,
        // qualifier-free predicate (the site scan is single-table, so a
        // hub-side alias would not resolve there).
        let mut req_params = Vec::new();
        let mut rendered = Vec::with_capacity(plan.pushed.len());
        for c in &plan.pushed {
            let e = externalize(&strip_qualifiers(c), params, &mut req_params)?;
            rendered.push(easia_db::sql::expr_to_sql(&e));
        }
        let request = ScanRequest {
            table: ft.name.clone(),
            columns: plan.columns.clone(),
            predicate: rendered.join(" AND "),
            params: req_params,
            order_by: plan
                .order_limit
                .as_ref()
                .map(|(k, _)| k.clone())
                .unwrap_or_default(),
            limit: plan.order_limit.as_ref().map(|(_, n)| *n),
            resume_from: 0,
            key_filter: None,
            partial_agg: plan.partial_agg.as_ref().map(|a| a.spec()),
        };
        Ok((ft, plan, request))
    }

    /// Phase 1 of a gather: walk the table's partitions, pruning,
    /// scanning local partitions in place, serving fresh replica hits,
    /// and applying the breaker/outage pre-checks — building one
    /// [`Pending`] stream per partition that must go over the WAN.
    /// Touches no wire; the pump does that.
    fn prepare_gather<'s>(
        &'s self,
        net: &mut SimNet,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        g: &TableGather<'_>,
        deadline: f64,
        explain: &mut FedExplain,
    ) -> Result<GatherState<'s>, FedError> {
        let ft = g.ft;
        let request = &g.request;
        // Entries this gather appends start here: a JOIN visits the
        // same site once per leg, so later bookkeeping must not touch
        // an earlier leg's entries.
        let first_entry = explain.sites.len();
        let mut gathered: Vec<Vec<Value>> = Vec::new();
        let mut pending: Vec<Pending<'s>> = Vec::new();

        for p in &ft.partitions {
            let label = p.site_label().to_string();
            let base = SiteExplain {
                site: label.clone(),
                table: g.table_label.clone(),
                pruned: false,
                pushed_conjuncts: g.pushed_sql.clone(),
                hub_conjuncts: g.hub_sql.clone(),
                est_rows: p.est_rows.get(),
                rows_shipped: 0,
                bytes_wire: 0,
                order_limit_pushed: g.topk,
                source: SiteSource::Wan,
                retries: 0,
            };
            if g.skip_all {
                // Empty semi-join key set: no row of this table can
                // join, so every partition is skipped outright.
                self.metric(
                    obs,
                    "easia_med_rows_pruned_total",
                    TRANSPORT_HELP,
                    &label,
                    p.est_rows.get(),
                );
                explain.sites.push(SiteExplain {
                    pruned: true,
                    ..base
                });
                continue;
            }
            if let Some(v) = &g.site_key_value {
                if !p.may_match(v) {
                    self.metric(
                        obs,
                        "easia_med_rows_pruned_total",
                        TRANSPORT_HELP,
                        &label,
                        p.est_rows.get(),
                    );
                    explain.sites.push(SiteExplain {
                        pruned: true,
                        ..base
                    });
                    continue;
                }
            }
            match &p.server {
                None => {
                    // Local partition: scan in place, no wire traffic.
                    let rows = scan_rows(hub_db, request)?;
                    explain.sites.push(SiteExplain {
                        rows_shipped: 0,
                        ..base
                    });
                    gathered.extend(rows);
                }
                Some(server) => {
                    let site = self.sites.get(server).ok_or_else(|| {
                        FedError::Catalog(CatalogError::UnknownServer(server.clone()))
                    })?;
                    // Rung 2 first: an open breaker denies the site
                    // without touching the WAN at all.
                    let verdict = site.breaker.borrow_mut().check(net.now());
                    self.set_breaker_gauge(obs, site);
                    if let BreakerCheck::Deny { retry_after_secs } = verdict {
                        self.fallback(
                            net,
                            hub_db,
                            obs,
                            site,
                            g,
                            explain,
                            &mut gathered,
                            Some(retry_after_secs),
                        )?;
                        continue;
                    }
                    if !site.is_up() {
                        // Software outage: nothing schedules its end, so
                        // retrying inside this query cannot help.
                        self.note_failure(net, obs, site);
                        self.fallback(net, hub_db, obs, site, g, explain, &mut gathered, None)?;
                        continue;
                    }
                    if !net.host_up(site.host) {
                        let up = net.host_up_after(site.host);
                        if !(up.is_finite() && up <= deadline) {
                            // Down past the deadline (or indefinitely):
                            // don't burn the budget waiting.
                            self.note_failure(net, obs, site);
                            self.fallback(net, hub_db, obs, site, g, explain, &mut gathered, None)?;
                            continue;
                        }
                        // Recovery is scheduled inside the deadline: fall
                        // through — the retry loop will wait it out.
                    }
                    // Rung 3 (happy side): a fresh replica copy answers
                    // with zero WAN traffic.
                    if let Some(cache) = &self.cache {
                        let mut c = cache.borrow_mut();
                        if let Some(e) = c.fresh(&site.name, &ft.name, net.now()) {
                            // The replica holds raw full-partition rows;
                            // a partial-aggregate request re-runs its
                            // grouped statement over them.
                            let rows = if request.partial_agg.is_some() {
                                partial_from_raw(hub_db, ft, request, &e.rows)?
                            } else {
                                project(&e.rows, ft, g.columns)
                            };
                            drop(c);
                            self.metric(
                                obs,
                                "easia_med_cache_hits_total",
                                CACHE_HITS_HELP,
                                &site.name,
                                1,
                            );
                            explain.sites.push(SiteExplain {
                                source: SiteSource::CacheFresh,
                                ..base
                            });
                            gathered.extend(rows);
                            continue;
                        }
                    }
                    // WAN scan. Cacheable partitions ship the *full*
                    // partition (all columns, no predicate/top-k) so the
                    // reply can refill the replica cache.
                    let cache_fill = self
                        .cache
                        .as_ref()
                        .is_some_and(|c| c.borrow().cacheable(p.est_rows.get()));
                    let req = if cache_fill {
                        ScanRequest {
                            table: ft.name.clone(),
                            columns: ft.columns.iter().map(|(c, _)| c.clone()).collect(),
                            predicate: String::new(),
                            params: vec![],
                            order_by: vec![],
                            limit: None,
                            resume_from: 0,
                            key_filter: None,
                            partial_agg: None,
                        }
                    } else {
                        request.clone()
                    };
                    pending.push(Pending {
                        site,
                        request: req,
                        frames: Vec::new().into_iter(),
                        rows: Vec::new(),
                        cursor: 0,
                        last_write_counter: 0,
                        bytes: 0,
                        retries: 0,
                        failed: false,
                        expired: false,
                        cache_fill,
                    });
                    explain.sites.push(SiteExplain {
                        source: if cache_fill {
                            SiteSource::CacheFill
                        } else {
                            SiteSource::Wan
                        },
                        ..base
                    });
                }
            }
        }

        Ok(GatherState {
            pending,
            gathered,
            first_entry,
            deadline,
        })
    }

    /// Phase 2 of a gather, the event-driven pump: every stream of
    /// every listed gather shares one clock-ordered loop over
    /// [`SimNet::run_until_any_settled`].
    ///
    /// Scan requests all launch immediately and overlap; each site then
    /// streams its row batches one frame in flight (at most `window`
    /// concurrent batch frames per gather), and `accept_batch` runs the
    /// moment a frame is delivered — merge work starts when the *first*
    /// batch lands, not when the slowest site's last one does. Each
    /// stream keeps its own stall clock: a transfer that moves no bytes
    /// for a full stall quantum is cancelled alone while its peers keep
    /// streaming.
    fn pump(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        obs: Option<&Obs>,
        states: &mut [GatherState<'_>],
    ) -> Result<(), FedError> {
        let stall = self.retry.stall_timeout_s.max(1e-3);
        let window = self.window.max(1);
        let mut flights: Vec<Vec<Flight>> = states
            .iter()
            .map(|s| (0..s.pending.len()).map(|_| Flight::Idle).collect())
            .collect();
        let mut requested: Vec<Vec<bool>> = states
            .iter()
            .map(|s| vec![false; s.pending.len()])
            .collect();
        // Per-stream stall clock: (last progress time, bytes then).
        let mut progress: Vec<Vec<(f64, f64)>> = states
            .iter()
            .map(|s| vec![(0.0, 0.0); s.pending.len()])
            .collect();
        loop {
            // Launch phase: start whatever each idle stream needs next.
            let now = net.now();
            for (si, st) in states.iter_mut().enumerate() {
                let expired = now >= st.deadline;
                let mut batches_inflight = flights[si]
                    .iter()
                    .filter(|f| matches!(f, Flight::Batch { .. }))
                    .count();
                for (pi, p) in st.pending.iter_mut().enumerate() {
                    if p.failed || !matches!(flights[si][pi], Flight::Idle) {
                        continue;
                    }
                    if !requested[si][pi] {
                        // Deadline backpressure covers the scatter too:
                        // at `now >= deadline` the request never leaves
                        // the hub.
                        if expired {
                            p.failed = true;
                            p.expired = true;
                            self.metric(
                                obs,
                                "easia_med_deadline_cancelled_total",
                                DEADLINE_CANCEL_HELP,
                                &p.site.name,
                                1,
                            );
                            continue;
                        }
                        requested[si][pi] = true;
                        let frame = p.request.encode();
                        match net.try_transfer(hub_host, p.site.host, frame.len() as f64) {
                            Some(id) => {
                                progress[si][pi] = (now, 0.0);
                                flights[si][pi] = Flight::Request {
                                    id,
                                    len: frame.len() as u64,
                                };
                            }
                            None => p.failed = true,
                        }
                    } else if p.frames.len() > 0 {
                        // A shed or abandoned query must not keep
                        // streaming WAN work nobody will consume.
                        if expired {
                            p.failed = true;
                            p.expired = true;
                            self.metric(
                                obs,
                                "easia_med_deadline_cancelled_total",
                                DEADLINE_CANCEL_HELP,
                                &p.site.name,
                                1,
                            );
                            continue;
                        }
                        if batches_inflight >= window {
                            continue;
                        }
                        let f = p.frames.next().expect("len checked above");
                        match net.try_transfer(p.site.host, hub_host, f.len() as f64) {
                            Some(id) => {
                                batches_inflight += 1;
                                progress[si][pi] = (now, 0.0);
                                flights[si][pi] = Flight::Batch { id, frame: f };
                            }
                            None => p.failed = true,
                        }
                    }
                    // else: request delivered and every frame accepted —
                    // the stream is complete.
                }
            }
            // Wait phase: sleep until the first of *our* transfers
            // settles or the nearest stall horizon passes. Unrelated
            // traffic keeps flowing but never ends the wait.
            let mut ids: Vec<TransferId> = Vec::new();
            let mut horizon = f64::INFINITY;
            for (si, fl) in flights.iter().enumerate() {
                for (pi, f) in fl.iter().enumerate() {
                    let id = match f {
                        Flight::Request { id, .. } | Flight::Batch { id, .. } => *id,
                        Flight::Idle => continue,
                    };
                    ids.push(id);
                    horizon = horizon.min(progress[si][pi].0 + stall);
                }
            }
            if ids.is_empty() {
                return Ok(());
            }
            let now = net.run_until_any_settled(&ids, horizon);
            // Process phase: account deliveries the moment they land.
            for (si, st) in states.iter_mut().enumerate() {
                for (pi, p) in st.pending.iter_mut().enumerate() {
                    let fl = &mut flights[si][pi];
                    let id = match fl {
                        Flight::Request { id, .. } | Flight::Batch { id, .. } => *id,
                        Flight::Idle => continue,
                    };
                    match net.transfer_status(id) {
                        TransferStatus::Done(_) => match std::mem::replace(fl, Flight::Idle) {
                            Flight::Request { len, .. } => {
                                p.bytes += len;
                                // The site executes the pushed scan at
                                // request-delivery time and frames its
                                // batches, stamping its write counter.
                                let mut db = p.site.db.borrow_mut();
                                let rows = scan_rows(&mut db, &p.request)?;
                                let wc = db.write_counter();
                                drop(db);
                                p.frames = frame_batches(&rows, self.batch_rows, 0, wc).into_iter();
                            }
                            Flight::Batch { frame, .. } => {
                                // All delivered wire traffic counts,
                                // even a frame the sequence check then
                                // discards (DESIGN.md "Wire
                                // accounting").
                                p.bytes += frame.len() as u64;
                                self.accept_batch(p, &frame)?;
                            }
                            Flight::Idle => unreachable!("matched above"),
                        },
                        TransferStatus::Failed { .. } => {
                            *fl = Flight::Idle;
                            p.failed = true;
                        }
                        TransferStatus::InFlight { bytes_moved } => {
                            let (t_last, b_last) = &mut progress[si][pi];
                            if bytes_moved > *b_last + 1e-9 {
                                *b_last = bytes_moved;
                                *t_last = now;
                            } else if now >= *t_last + stall - 1e-9 {
                                // Individual stall cancellation: this
                                // stream's peers keep streaming.
                                net.cancel_transfer(id);
                                *fl = Flight::Idle;
                                p.failed = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Phase 3 of a gather: the sequential degradation ladder for
    /// whatever the pump left unfinished, then metrics/EXPLAIN
    /// bookkeeping and the replica-cache refill. Returns the gathered
    /// rows (request-column order).
    #[allow(clippy::too_many_arguments)]
    fn finish_gather(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &Database,
        obs: Option<&Obs>,
        g: &TableGather<'_>,
        st: GatherState<'_>,
        explain: &mut FedExplain,
    ) -> Result<Vec<Vec<Value>>, FedError> {
        let ft = g.ft;
        let GatherState {
            mut pending,
            mut gathered,
            first_entry,
            deadline,
        } = st;

        // Rung 1: failed streams go through the retry/resume loop under
        // the deadline budget; the verdict feeds each site's breaker.
        for p in &mut pending {
            if !p.failed {
                p.site.breaker.borrow_mut().on_success();
                self.set_breaker_gauge(obs, p.site);
                continue;
            }
            if p.expired {
                // Client-side deadline cancellation: the budget is
                // already spent, so retrying cannot help, and the site
                // did nothing wrong, so its breaker must not trip —
                // otherwise an overloaded *hub* would lock healthy
                // sites out for subsequent queries.
                continue;
            }
            if self.recover(net, hub_host, obs, p, deadline)? {
                p.failed = false;
                p.site.breaker.borrow_mut().on_success();
            } else {
                self.note_failure(net, obs, p.site);
            }
            self.set_breaker_gauge(obs, p.site);
        }

        // Outcome per remote site: still-dead sites climb the rest of
        // the ladder; live ones contribute rows and fill metrics/explain.
        for p in pending {
            if p.failed {
                // Remove only the entry this gather added for the site;
                // a JOIN's other legs keep theirs.
                if let Some(pos) = explain
                    .sites
                    .iter()
                    .enumerate()
                    .skip(first_entry)
                    .find(|(_, s)| s.site == p.site.name && s.table == g.table_label)
                    .map(|(i, _)| i)
                {
                    explain.sites.remove(pos);
                }
                self.fallback(net, hub_db, obs, p.site, g, explain, &mut gathered, None)?;
                continue;
            }
            let nrows = p.rows.len() as u64;
            self.metric(
                obs,
                "easia_med_rows_shipped_total",
                TRANSPORT_HELP,
                &p.site.name,
                nrows,
            );
            self.metric(
                obs,
                "easia_med_bytes_wire_total",
                TRANSPORT_HELP,
                &p.site.name,
                p.bytes,
            );
            if g.request.partial_agg.is_some() && !p.cache_fill {
                self.metric(
                    obs,
                    "easia_med_partial_agg_groups_shipped_total",
                    PARTIAL_AGG_GROUPS_HELP,
                    &p.site.name,
                    nrows,
                );
            }
            if let Some(s) = explain
                .sites
                .iter_mut()
                .skip(first_entry)
                .find(|s| s.site == p.site.name && s.table == g.table_label)
            {
                s.rows_shipped = nrows;
                s.bytes_wire = p.bytes;
                s.retries = p.retries;
            }
            if p.cache_fill {
                if let Some(cache) = &self.cache {
                    cache.borrow_mut().store(
                        &p.site.name,
                        &ft.name,
                        p.rows.clone(),
                        p.last_write_counter,
                        net.now(),
                    );
                }
                // A cache-refilling scan shipped the raw partition: a
                // partial-aggregate request aggregates it at the hub.
                if g.request.partial_agg.is_some() {
                    gathered.extend(partial_from_raw(hub_db, ft, &g.request, &p.rows)?);
                } else {
                    gathered.extend(project(&p.rows, ft, g.columns));
                }
            } else {
                gathered.extend(p.rows);
            }
        }

        Ok(gathered)
    }

    /// Execute a federated JOIN: plan the legs, gather each federated
    /// leg (keyed by an earlier leg's join-key set where the planner
    /// found an equi-join binding), and merge-join at the hub by
    /// running the original statement over the gathered legs.
    #[allow(clippy::too_many_arguments)]
    fn query_join(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        sel: &SelectStmt,
        params: &[Value],
        t0: f64,
    ) -> Result<QueryOutcome, FedError> {
        let plan = {
            let resolver = |t: &str| -> Option<Vec<String>> {
                hub_db
                    .schema(t)
                    .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
            };
            plan_join(sel, &self.catalog, &resolver, params, self.pushdown)?
        };
        let deadline = t0 + self.deadline_secs;
        let mut explain = FedExplain {
            table: plan.legs[0].table.clone(),
            ..FedExplain::default()
        };
        // The hub-eval conjunct list is whole-statement; report it once,
        // on the first federated leg's sites.
        let first_fed = plan.legs.iter().position(|l| l.federated);
        let kind_of = |leg: &JoinLeg| match leg.kind {
            None => "anchor".to_string(),
            Some(JoinKind::Inner) => "INNER".to_string(),
            Some(JoinKind::Left) => "LEFT".to_string(),
        };
        // Legs execute in *dependency waves*, not statement order: a
        // semi-join leg becomes ready once its key source has gathered,
        // and every ready leg in a wave shares one event pump so
        // independent legs overlap their WAN round trips. Each leg
        // reports into its own fragment, spliced back in statement
        // order at the end.
        let mut frags: Vec<FedExplain> = vec![FedExplain::default(); plan.legs.len()];
        let mut leg_rows: Vec<Option<Vec<Vec<Value>>>> = vec![None; plan.legs.len()];
        let mut done: Vec<bool> = vec![false; plan.legs.len()];
        let mut pushed_total = 0u64;
        for (i, leg) in plan.legs.iter().enumerate() {
            if !leg.federated {
                frags[i].joins.push(JoinExplain {
                    table: leg.table.clone(),
                    alias: leg.alias.clone(),
                    kind: kind_of(leg),
                    strategy: JoinStrategy::Local,
                });
                done[i] = true;
            }
        }
        /// A ready leg's wave-local work order (owns the `ForeignTable`
        /// clone its `TableGather` borrows).
        struct WaveLeg {
            i: usize,
            ft: ForeignTable,
            request: ScanRequest,
            skip_all: bool,
        }
        while !done.iter().all(|d| *d) {
            let ready: Vec<usize> = plan
                .legs
                .iter()
                .enumerate()
                .filter(|(i, leg)| !done[*i] && leg.federated)
                .filter(|(_, leg)| match &leg.strategy {
                    LegStrategy::SemiJoin { source_leg, .. } => done[*source_leg],
                    _ => true,
                })
                .map(|(i, _)| i)
                .collect();
            assert!(
                !ready.is_empty(),
                "join legs always key on earlier legs, so a wave exists"
            );
            let mut wave: Vec<WaveLeg> = Vec::with_capacity(ready.len());
            for &i in &ready {
                let leg = &plan.legs[i];
                let ft = self
                    .catalog
                    .table(&leg.table)
                    .ok_or_else(|| FedError::UnknownTable(leg.table.clone()))?
                    .clone();
                pushed_total += leg.pushed.len() as u64;
                let mut req_params = Vec::new();
                let mut rendered = Vec::with_capacity(leg.pushed.len());
                for c in &leg.pushed {
                    let e = externalize(&strip_qualifiers(c), params, &mut req_params)?;
                    rendered.push(easia_db::sql::expr_to_sql(&e));
                }
                let mut request = ScanRequest {
                    table: ft.name.clone(),
                    columns: leg.columns.clone(),
                    predicate: rendered.join(" AND "),
                    params: req_params,
                    order_by: vec![],
                    limit: None,
                    resume_from: 0,
                    key_filter: None,
                    partial_agg: None,
                };
                let mut skip_all = false;
                let strategy = match &leg.strategy {
                    // plan_join marks federated legs Gather/SemiJoin/
                    // FullShip only; Local is for completeness.
                    LegStrategy::Local => JoinStrategy::Local,
                    LegStrategy::Gather => JoinStrategy::Gather,
                    LegStrategy::SemiJoin {
                        key_column,
                        source_leg,
                        source_column,
                    } => {
                        let keys = self.join_keys(
                            hub_db,
                            &plan.legs[*source_leg],
                            leg_rows[*source_leg].as_deref(),
                            source_column,
                        )?;
                        if keys.len() > self.semijoin_max_keys {
                            // The IN-list would dominate the request
                            // frame: degrade to a full-partition ship.
                            let reason = format!(
                                "key list ({} keys) exceeds the {}-key ship bound",
                                keys.len(),
                                self.semijoin_max_keys
                            );
                            self.semijoin_fallback_metric(obs, "overflow");
                            JoinStrategy::FullShip { reason }
                        } else if keys.is_empty() {
                            // No non-NULL key on the source side ⇒ no
                            // row of this leg can join: skip its
                            // partitions outright.
                            skip_all = true;
                            JoinStrategy::SemiJoin {
                                key_column: key_column.clone(),
                                keys: Some(0),
                            }
                        } else {
                            let n = keys.len() as u64;
                            self.semijoin_keys_metric(obs, &ft.name, n);
                            request.key_filter = Some((key_column.clone(), keys));
                            JoinStrategy::SemiJoin {
                                key_column: key_column.clone(),
                                keys: Some(n),
                            }
                        }
                    }
                    LegStrategy::FullShip { reason } => {
                        self.semijoin_fallback_metric(
                            obs,
                            if reason.contains("pushdown disabled") {
                                "pushdown-off"
                            } else {
                                "no-key"
                            },
                        );
                        JoinStrategy::FullShip {
                            reason: reason.clone(),
                        }
                    }
                };
                frags[i].joins.push(JoinExplain {
                    table: leg.table.clone(),
                    alias: leg.alias.clone(),
                    kind: kind_of(leg),
                    strategy,
                });
                wave.push(WaveLeg {
                    i,
                    ft,
                    request,
                    skip_all,
                });
            }
            // Prepare every ready leg, pump the whole wave through one
            // event loop, then run the sequential recovery/fallback
            // ladder per leg.
            let gathers: Vec<TableGather<'_>> = wave
                .iter()
                .map(|w| {
                    let leg = &plan.legs[w.i];
                    TableGather {
                        ft: &w.ft,
                        columns: &leg.columns,
                        request: w.request.clone(),
                        site_key_value: leg.site_key_value.clone(),
                        pushed_sql: leg.pushed_sql(),
                        hub_sql: if Some(w.i) == first_fed {
                            plan.hub_sql()
                        } else {
                            vec![]
                        },
                        topk: false,
                        table_label: leg.table.clone(),
                        skip_all: w.skip_all,
                    }
                })
                .collect();
            let mut states: Vec<GatherState<'_>> = Vec::with_capacity(gathers.len());
            for (w, gth) in wave.iter().zip(&gathers) {
                states.push(self.prepare_gather(
                    net,
                    hub_db,
                    obs,
                    gth,
                    deadline,
                    &mut frags[w.i],
                )?);
            }
            self.pump(net, hub_host, obs, &mut states)?;
            for ((w, gth), stt) in wave.iter().zip(&gathers).zip(states) {
                let rows =
                    self.finish_gather(net, hub_host, hub_db, obs, gth, stt, &mut frags[w.i])?;
                leg_rows[w.i] = Some(rows);
                done[w.i] = true;
            }
        }
        // Splice the per-leg fragments back in statement order.
        for frag in frags {
            explain.joins.extend(frag.joins);
            explain.sites.extend(frag.sites);
            for s in frag.skipped {
                if !explain.skipped.contains(&s) {
                    explain.skipped.push(s);
                }
            }
            explain.stale.extend(frag.stale);
        }
        self.conjunct_metrics(obs, pushed_total, plan.hub_eval.len() as u64);

        // Merge join at the hub: the original statement runs over the
        // gathered legs; local legs read in place.
        let legs = plan
            .legs
            .iter()
            .zip(leg_rows)
            .enumerate()
            .filter_map(|(pos, (leg, rows))| {
                Some(Leg {
                    pos,
                    alias: &leg.alias,
                    columns: &leg.columns,
                    rows: rows?,
                })
            })
            .collect();
        let rs = merge(hub_db, sel, params, legs)?;

        if let Some(o) = obs {
            o.tracer.record(
                "easia.med.query",
                t0,
                net.now(),
                &[
                    ("table", explain.table.clone()),
                    ("join_legs", plan.legs.len().to_string()),
                    ("rows_shipped", explain.rows_shipped().to_string()),
                    ("bytes_wire", explain.bytes_wire().to_string()),
                    ("skipped", explain.skipped.len().to_string()),
                ],
            );
        }
        Ok(QueryOutcome { rs, explain })
    }

    /// The bound join-key set for a semi-join leg: the source column's
    /// values from the source leg's gathered rows (a federated leg) or
    /// a hub column scan (a local leg) — NULL-free (three-valued `=`
    /// never matches NULL), sorted and deduplicated so the shipped
    /// request frame is byte-deterministic.
    fn join_keys(
        &self,
        hub_db: &mut Database,
        source: &JoinLeg,
        gathered: Option<&[Vec<Value>]>,
        column: &str,
    ) -> Result<Vec<Value>, FedError> {
        let mut vals: Vec<Value> = match gathered {
            Some(rows) => {
                let idx = source
                    .columns
                    .iter()
                    .position(|c| c == column)
                    .ok_or_else(|| {
                        FedError::Unsupported(format!(
                            "join key {column} missing from the shipped projection of {}",
                            source.table
                        ))
                    })?;
                rows.iter().map(|r| r[idx].clone()).collect()
            }
            None => {
                let rs = hub_db.execute(&format!("SELECT {column} FROM {}", source.table))?;
                rs.rows.into_iter().filter_map(|mut r| r.pop()).collect()
            }
        };
        vals.retain(|v| !matches!(v, Value::Null));
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        Ok(vals)
    }

    /// Per-query pushdown-outcome conjunct counters.
    fn conjunct_metrics(&self, obs: Option<&Obs>, pushed: u64, hub: u64) {
        if let Some(o) = obs {
            if pushed > 0 {
                o.metrics
                    .counter_with(
                        "easia_med_pushdown_conjuncts_total",
                        "Conjuncts by pushdown outcome",
                        &[("outcome", "pushed")],
                    )
                    .add(pushed as f64);
            }
            if hub > 0 {
                o.metrics
                    .counter_with(
                        "easia_med_pushdown_conjuncts_total",
                        "Conjuncts by pushdown outcome",
                        &[("outcome", "hub")],
                    )
                    .add(hub as f64);
            }
        }
    }

    fn semijoin_keys_metric(&self, obs: Option<&Obs>, table: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(o) = obs {
            o.metrics
                .counter_with(
                    "easia_med_semijoin_keys_shipped_total",
                    SEMIJOIN_KEYS_HELP,
                    &[("table", table)],
                )
                .add(n as f64);
        }
    }

    fn semijoin_fallback_metric(&self, obs: Option<&Obs>, reason: &str) {
        if let Some(o) = obs {
            o.metrics
                .counter_with(
                    "easia_med_semijoin_fallbacks_total",
                    SEMIJOIN_FALLBACKS_HELP,
                    &[("reason", reason)],
                )
                .add(1.0);
        }
    }

    /// `EXPLAIN FEDERATED` without disturbing the network: plan and
    /// prune only, leaving actuals at zero. `hub_db` resolves local
    /// tables for JOIN statements (never written).
    pub fn explain(
        &self,
        hub_db: &Database,
        sql: &str,
        params: &[Value],
    ) -> Result<FedExplain, FedError> {
        let sel = match parse(sql)? {
            Stmt::Select(s) => s,
            _ => return Err(FedError::Unsupported("only SELECT can be federated".into())),
        };
        if !sel.joins.is_empty() {
            return self.explain_join(hub_db, &sel, params);
        }
        let table = sel
            .from
            .as_ref()
            .map(|t| t.name.to_ascii_uppercase())
            .ok_or_else(|| FedError::Unsupported("SELECT without FROM".into()))?;
        let ft = self
            .catalog
            .table(&table)
            .ok_or(FedError::UnknownTable(table))?;
        let mut plan = plan_select(&sel, ft, params)?;
        if !self.partial_agg && plan.partial_agg.take().is_some() {
            plan.agg_fallback = Some("disabled");
        }
        let mut explain = FedExplain {
            table: ft.name.clone(),
            ..FedExplain::default()
        };
        for p in &ft.partitions {
            let pruned = plan
                .site_key_value
                .as_ref()
                .is_some_and(|v| !p.may_match(v));
            explain.sites.push(SiteExplain {
                site: p.site_label().to_string(),
                table: String::new(),
                pruned,
                pushed_conjuncts: plan.pushed_sql(),
                hub_conjuncts: plan.hub_sql(),
                est_rows: p.est_rows.get(),
                rows_shipped: 0,
                bytes_wire: 0,
                order_limit_pushed: plan.order_limit.is_some(),
                source: SiteSource::Wan,
                retries: 0,
            });
        }
        explain.agg = match (&plan.partial_agg, plan.agg_fallback) {
            (Some(agg), _) => Some(AggExplain {
                partial: true,
                group_cols: agg.group_cols.clone(),
                calls: agg.calls.iter().map(|c| c.sql()).collect(),
                est_groups: explain
                    .sites
                    .iter()
                    .filter(|s| !s.pruned && s.site != "local")
                    .map(|s| s.est_rows)
                    .sum(),
                partial_rows: 0,
                final_groups: 0,
                fallback: None,
            }),
            (None, Some(reason)) => Some(AggExplain {
                partial: false,
                fallback: Some(reason.to_string()),
                ..AggExplain::default()
            }),
            (None, None) => None,
        };
        Ok(explain)
    }

    /// The plan-only report for a JOIN statement: per-leg strategy
    /// lines (key counts unknown — nothing executed) plus each
    /// federated leg's partition breakdown.
    fn explain_join(
        &self,
        hub_db: &Database,
        sel: &SelectStmt,
        params: &[Value],
    ) -> Result<FedExplain, FedError> {
        let resolver = |t: &str| -> Option<Vec<String>> {
            hub_db
                .schema(t)
                .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
        };
        let plan = plan_join(sel, &self.catalog, &resolver, params, self.pushdown)?;
        let first_fed = plan.legs.iter().position(|l| l.federated);
        let mut explain = FedExplain {
            table: plan.legs[0].table.clone(),
            ..FedExplain::default()
        };
        for (i, leg) in plan.legs.iter().enumerate() {
            let kind = match leg.kind {
                None => "anchor".to_string(),
                Some(JoinKind::Inner) => "INNER".to_string(),
                Some(JoinKind::Left) => "LEFT".to_string(),
            };
            let strategy = match &leg.strategy {
                LegStrategy::Local => JoinStrategy::Local,
                LegStrategy::Gather => JoinStrategy::Gather,
                LegStrategy::SemiJoin { key_column, .. } => JoinStrategy::SemiJoin {
                    key_column: key_column.clone(),
                    keys: None,
                },
                LegStrategy::FullShip { reason } => JoinStrategy::FullShip {
                    reason: reason.clone(),
                },
            };
            explain.joins.push(JoinExplain {
                table: leg.table.clone(),
                alias: leg.alias.clone(),
                kind,
                strategy,
            });
            if !leg.federated {
                continue;
            }
            let ft = self
                .catalog
                .table(&leg.table)
                .ok_or_else(|| FedError::UnknownTable(leg.table.clone()))?;
            for p in &ft.partitions {
                let pruned = leg.site_key_value.as_ref().is_some_and(|v| !p.may_match(v));
                explain.sites.push(SiteExplain {
                    site: p.site_label().to_string(),
                    table: leg.table.clone(),
                    pruned,
                    pushed_conjuncts: leg.pushed_sql(),
                    hub_conjuncts: if Some(i) == first_fed {
                        plan.hub_sql()
                    } else {
                        vec![]
                    },
                    est_rows: p.est_rows.get(),
                    rows_shipped: 0,
                    bytes_wire: 0,
                    order_limit_pushed: false,
                    source: SiteSource::Wan,
                    retries: 0,
                });
            }
        }
        Ok(explain)
    }

    fn unavailable(&self, net: &SimNet, site: &Site) -> FedError {
        let up = net.host_up_after(site.host);
        let recovery_at = if site.is_up() { Some(up) } else { None };
        let retry_after_secs =
            easia_net::retry_after_secs(net.now(), recovery_at, crate::DEFAULT_RETRY_AFTER_SECS);
        FedError::SiteUnavailable {
            site: site.name.clone(),
            retry_after_secs,
        }
    }

    /// Drive the *listed* transfers to a verdict — completion, failure,
    /// or a stall cancellation. The wait is scoped strictly to the
    /// passed ids: unrelated in-flight transfers share bandwidth and
    /// keep flowing, but are never waited on, settled, or cancelled —
    /// concurrent queries must not settle each other's streams.
    ///
    /// Each transfer keeps its own stall clock: one that moves no bytes
    /// for a full `retry.stall_timeout_s` quantum is cancelled
    /// *individually* (its peers keep streaming), so an outage costs a
    /// bounded stall instead of the whole outage window. With no faults
    /// in play the loop is event-exact: it returns at the last listed
    /// completion time.
    fn settle(&self, net: &mut SimNet, ids: Vec<Option<TransferId>>) {
        let stall = self.retry.stall_timeout_s.max(1e-3);
        // (id, last progress time, bytes moved then).
        let mut watch: Vec<(TransferId, f64, f64)> = ids
            .into_iter()
            .flatten()
            .map(|id| (id, net.now(), net.transfer_bytes_moved(id)))
            .collect();
        loop {
            watch.retain(|&(id, _, _)| {
                matches!(net.transfer_status(id), TransferStatus::InFlight { .. })
            });
            if watch.is_empty() {
                return;
            }
            let active: Vec<TransferId> = watch.iter().map(|w| w.0).collect();
            let horizon = watch
                .iter()
                .map(|w| w.1 + stall)
                .fold(f64::INFINITY, f64::min);
            let now = net.run_until_any_settled(&active, horizon);
            for (id, t_last, b_last) in watch.iter_mut() {
                if let TransferStatus::InFlight { bytes_moved } = net.transfer_status(*id) {
                    if bytes_moved > *b_last + 1e-9 {
                        *b_last = bytes_moved;
                        *t_last = now;
                    } else if now >= *t_last + stall - 1e-9 {
                        net.cancel_transfer(*id);
                    }
                }
            }
        }
    }

    /// Decode a delivered batch frame into `p`, enforcing sequence
    /// contiguity and feeding the write counter to the replica cache's
    /// invalidation protocol.
    ///
    /// Callers account `frame.len()` into `p.bytes` *before* this runs:
    /// a delivered-but-out-of-sequence frame still crossed the WAN, so
    /// its bytes count even though its rows are discarded and re-shipped
    /// after resume. `bytes_wire` is deliberately transport accounting
    /// (all delivered traffic); `rows_shipped` is the useful measure.
    fn accept_batch(&self, p: &mut Pending<'_>, frame: &[u8]) -> Result<(), FedError> {
        let batch = decode_batch(frame).map_err(|e| FedError::Wire(e.to_string()))?;
        if u64::from(batch.seq) != p.cursor {
            // A gap means an earlier frame was lost: resume will
            // re-request from the cursor.
            p.failed = true;
            return Ok(());
        }
        p.cursor += 1;
        p.last_write_counter = batch.write_counter;
        if let Some(cache) = &self.cache {
            cache
                .borrow_mut()
                .note_write_counter(&p.site.name, batch.write_counter);
        }
        p.rows.extend(batch.rows);
        Ok(())
    }

    /// The retry/resume loop for one failed stream: backoff (extended
    /// to the host's scheduled recovery when known), re-issue the scan
    /// with `resume_from` at the cursor, and stream the missing
    /// batches. Returns whether the stream completed.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        obs: Option<&Obs>,
        p: &mut Pending<'_>,
        deadline: f64,
    ) -> Result<bool, FedError> {
        for attempt in 1..=self.retry.max_retries {
            let wait_start = net.now();
            let mut resume_at = wait_start + self.retry.backoff(attempt);
            if !net.host_up(p.site.host) {
                let up = net.host_up_after(p.site.host);
                if !up.is_finite() {
                    return Ok(false); // down indefinitely
                }
                resume_at = resume_at.max(up);
            }
            // Exclusive deadline boundary, matching the pump: a resume
            // that would land at or past the deadline is not launched.
            if resume_at >= deadline {
                return Ok(false); // budget exhausted
            }
            net.run_until(resume_at);
            p.retries += 1;
            self.metric(
                obs,
                "easia_med_scan_retries_total",
                RETRIES_HELP,
                &p.site.name,
                1,
            );
            if let Some(o) = obs {
                o.tracer.record(
                    "easia.med.retry_wait",
                    wait_start,
                    net.now(),
                    &[
                        ("site", p.site.name.clone()),
                        ("attempt", attempt.to_string()),
                    ],
                );
            }
            let req = ScanRequest {
                resume_from: p.cursor,
                ..p.request.clone()
            };
            let frame = req.encode();
            let id = net.try_transfer(hub_host, p.site.host, frame.len() as f64);
            self.settle(net, vec![id]);
            let delivered = matches!(
                id.map(|i| net.transfer_status(i)),
                Some(TransferStatus::Done(_))
            );
            if !delivered {
                continue;
            }
            p.bytes += frame.len() as u64;
            if !p.site.is_up() {
                continue;
            }
            // The site re-runs the deterministic scan and ships only
            // the batches past the cursor.
            let mut db = p.site.db.borrow_mut();
            let rows = scan_rows(&mut db, &p.request)?;
            let wc = db.write_counter();
            drop(db);
            let frames = frame_batches(&rows, self.batch_rows, p.cursor, wc);
            let mut complete = true;
            for f in frames {
                if net.now() >= deadline {
                    complete = false;
                    break;
                }
                let id = net.try_transfer(p.site.host, hub_host, f.len() as f64);
                self.settle(net, vec![id]);
                let delivered = matches!(
                    id.map(|t| net.transfer_status(t)),
                    Some(TransferStatus::Done(_))
                );
                if !delivered {
                    complete = false;
                    break;
                }
                p.bytes += f.len() as u64;
                self.accept_batch(p, &f)?;
                if p.failed {
                    // Sequence gap: keep retrying from the cursor.
                    p.failed = false;
                    complete = false;
                    break;
                }
            }
            if complete {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Record a failed exchange on the site's breaker, handing it the
    /// fault schedule's recovery time when one exists.
    fn note_failure(&self, net: &SimNet, obs: Option<&Obs>, site: &Site) {
        let up = net.host_up_after(site.host);
        let hint = (site.is_up() && up.is_finite()).then_some(up);
        site.breaker.borrow_mut().on_failure(
            net.now(),
            self.breaker_threshold,
            self.breaker_cooldown_s,
            hint,
        );
        self.set_breaker_gauge(obs, site);
    }

    /// Apply the partial-results policy to a site that stayed dead
    /// after the ladder's retry rungs: fail closed, skip, or serve the
    /// stale replica.
    #[allow(clippy::too_many_arguments)]
    fn fallback(
        &self,
        net: &SimNet,
        hub_db: &Database,
        obs: Option<&Obs>,
        site: &Site,
        g: &TableGather<'_>,
        explain: &mut FedExplain,
        gathered: &mut Vec<Vec<Value>>,
        retry_after: Option<u64>,
    ) -> Result<(), FedError> {
        let ft = g.ft;
        match self.policy {
            PartialPolicy::FailClosed => match retry_after {
                Some(retry_after_secs) => Err(FedError::SiteUnavailable {
                    site: site.name.clone(),
                    retry_after_secs,
                }),
                None => Err(self.unavailable(net, site)),
            },
            PartialPolicy::Partial => {
                // A JOIN can hit the same dead site once per leg: one
                // banner entry is enough.
                if !explain.skipped.contains(&site.name) {
                    explain.skipped.push(site.name.clone());
                }
                Ok(())
            }
            PartialPolicy::Degraded => {
                // The replica holds the raw full-partition rows; convert
                // them the same way a live reply would be (partial
                // aggregation re-runs the pushed statement over them).
                let served = self.cache.as_ref().and_then(|cache| {
                    let mut c = cache.borrow_mut();
                    c.any(&site.name, &ft.name).map(|e| {
                        (
                            e.rows.clone(),
                            (net.now() - e.fetched_at).ceil().max(0.0) as u64,
                        )
                    })
                });
                match served {
                    Some((raw, age_secs)) => {
                        let rows = if g.request.partial_agg.is_some() {
                            partial_from_raw(hub_db, ft, &g.request, &raw)?
                        } else {
                            project(&raw, ft, g.columns)
                        };
                        self.metric(
                            obs,
                            "easia_med_cache_stale_served_total",
                            CACHE_STALE_HELP,
                            &site.name,
                            1,
                        );
                        explain.stale.push(StaleSite {
                            site: site.name.clone(),
                            age_secs,
                            rows: rows.len() as u64,
                        });
                        gathered.extend(rows);
                        Ok(())
                    }
                    None => {
                        // Stale beats absent, but there is no copy:
                        // degrade to a skip.
                        if !explain.skipped.contains(&site.name) {
                            explain.skipped.push(site.name.clone());
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    fn set_breaker_gauge(&self, obs: Option<&Obs>, site: &Site) {
        if let Some(o) = obs {
            o.metrics
                .gauge_with(
                    "easia_med_breaker_state",
                    BREAKER_HELP,
                    &[("site", &site.name)],
                )
                .set(site.breaker.borrow().state().as_gauge());
        }
    }

    fn metric(&self, obs: Option<&Obs>, name: &str, help: &str, site: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(o) = obs {
            o.metrics
                .counter_with(name, help, &[("site", site)])
                .add(delta as f64);
        }
    }

    /// Merge a gather into the statement's final result: partial
    /// aggregates combine their shipped states, everything else runs the
    /// original statement over the rows. Fills the EXPLAIN aggregate
    /// section and bumps the partial-agg metric families.
    #[allow(clippy::too_many_arguments)]
    fn merge_outcome(
        &self,
        hub_db: &Database,
        obs: Option<&Obs>,
        sel: &SelectStmt,
        ft: &ForeignTable,
        plan: &TablePlan,
        params: &[Value],
        gathered: Vec<Vec<Value>>,
        explain: &mut FedExplain,
    ) -> Result<ResultSet, FedError> {
        if let Some(agg) = &plan.partial_agg {
            let partial_rows = gathered.len() as u64;
            let rs = merge_partial_agg(hub_db, sel, ft, agg, params, gathered)?;
            explain.agg = Some(AggExplain {
                partial: true,
                group_cols: agg.group_cols.clone(),
                calls: agg.calls.iter().map(|c| c.sql()).collect(),
                est_groups: explain
                    .sites
                    .iter()
                    .filter(|s| !s.pruned && s.site != "local")
                    .map(|s| s.est_rows)
                    .sum(),
                partial_rows,
                final_groups: rs.rows.len() as u64,
                fallback: None,
            });
            if let Some(o) = obs {
                o.metrics
                    .counter_with(
                        "easia_med_partial_agg_queries_total",
                        PARTIAL_AGG_QUERIES_HELP,
                        &[("table", &ft.name)],
                    )
                    .add(1.0);
            }
            return Ok(rs);
        }
        if let Some(reason) = plan.agg_fallback {
            explain.agg = Some(AggExplain {
                partial: false,
                fallback: Some(reason.to_string()),
                ..AggExplain::default()
            });
            if let Some(o) = obs {
                o.metrics
                    .counter_with(
                        "easia_med_partial_agg_fallbacks_total",
                        PARTIAL_AGG_FALLBACKS_HELP,
                        &[("reason", reason)],
                    )
                    .add(1.0);
            }
        }
        let alias = sel.from.as_ref().and_then(|t| t.alias.as_deref());
        let leg = Leg {
            pos: 0,
            alias: alias.unwrap_or(&ft.name),
            columns: &plan.columns,
            rows: gathered,
        };
        merge(hub_db, sel, params, vec![leg])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_net::LinkSpec;

    fn site_db(site: &str, n: i64) -> Database {
        let mut db = Database::new_in_memory();
        fill_site(&mut db, site, n);
        db
    }

    fn fill_site(db: &mut Database, site: &str, n: i64) {
        db.execute(
            "CREATE TABLE SIM (K VARCHAR(20) PRIMARY KEY, SITE VARCHAR(10), N INTEGER, X DOUBLE)",
        )
        .unwrap();
        for i in 0..n {
            db.execute(&format!(
                "INSERT INTO SIM VALUES ('{site}-{i}', '{site}', {i}, {}.5)",
                i * 2
            ))
            .unwrap();
        }
    }

    struct Rig {
        net: SimNet,
        hub: HostId,
        hub_db: Database,
        fed: Federation,
    }

    fn rig() -> Rig {
        rig_on(site_db("soton", 4))
    }

    fn rig_on(hub_db: Database) -> Rig {
        let mut net = SimNet::new();
        let hub = net.add_host("hub", 4);
        let cam = net.add_host("cam", 2);
        let edin = net.add_host("edin", 2);
        let spec = LinkSpec::symmetric(1_000_000.0, 0.01);
        net.connect(hub, cam, spec.clone());
        net.connect(hub, edin, spec);
        let mut fed = Federation::default();
        fed.add_site("cam", cam, site_db("cam", 3));
        fed.add_site("edin", edin, site_db("edin", 5));
        fed.catalog
            .import_foreign_table(
                &hub_db,
                "SIM",
                Some("SITE"),
                vec![
                    crate::catalog::Partition::new(None, &["soton"]),
                    crate::catalog::Partition::new(Some("cam"), &["cam"]),
                    crate::catalog::Partition::new(Some("edin"), &["edin"]),
                ],
            )
            .unwrap();
        Rig {
            net,
            hub,
            hub_db,
            fed,
        }
    }

    fn q(r: &mut Rig, sql: &str, params: &[Value]) -> QueryOutcome {
        r.fed
            .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, params)
            .unwrap()
    }

    #[test]
    fn unions_all_partitions() {
        let mut r = rig();
        let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
        assert_eq!(out.rs.rows, vec![vec![Value::Int(12)]]);
        // Partial-aggregate pushdown: each remote site ships its one
        // COUNT(*) state row instead of its raw partition (3 cam +
        // 5 edin rows before this landed).
        assert_eq!(out.explain.rows_shipped(), 2);
        assert!(out.explain.bytes_wire() > 0);
        let agg = out.explain.agg.as_ref().expect("aggregate section");
        assert!(agg.partial);
        assert_eq!(agg.partial_rows, 3); // local + cam + edin states
        assert_eq!(agg.final_groups, 1);
    }

    #[test]
    fn predicate_pushdown_reduces_shipping() {
        let mut r = rig();
        let out = q(&mut r, "SELECT K FROM SIM WHERE N >= 2 ORDER BY K", &[]);
        // cam ships 1 (N=2), edin ships 3 (N=2,3,4), soton local.
        assert_eq!(out.explain.rows_shipped(), 4);
        assert_eq!(out.rs.rows.len(), 6);
        let all: Vec<String> = out
            .rs
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                v => panic!("{v:?}"),
            })
            .collect();
        assert_eq!(
            all,
            vec!["cam-2", "edin-2", "edin-3", "edin-4", "soton-2", "soton-3"]
        );
    }

    #[test]
    fn site_key_pruning_skips_partitions() {
        let mut r = rig();
        r.fed.analyze(&mut r.hub_db).unwrap();
        let out = q(
            &mut r,
            "SELECT K FROM SIM WHERE SITE = ? ORDER BY K",
            &[Value::Str("cam".into())],
        );
        assert_eq!(out.rs.rows.len(), 3);
        assert_eq!(out.explain.rows_shipped(), 3);
        let pruned: Vec<&str> = out
            .explain
            .sites
            .iter()
            .filter(|s| s.pruned)
            .map(|s| s.site.as_str())
            .collect();
        assert_eq!(pruned, vec!["local", "edin"]);
        let edin = out.explain.sites.iter().find(|s| s.site == "edin").unwrap();
        assert_eq!(edin.est_rows, 5, "analyze fed the estimate");
    }

    #[test]
    fn topk_ships_at_most_limit_per_site() {
        let mut r = rig();
        let out = q(
            &mut r,
            "SELECT K, N FROM SIM ORDER BY N DESC, K LIMIT 2",
            &[],
        );
        assert_eq!(out.rs.rows.len(), 2);
        // edin has N=4,3 as global top-2.
        assert_eq!(out.rs.rows[0][0], Value::Str("edin-4".into()));
        assert_eq!(out.rs.rows[1][0], Value::Str("edin-3".into()));
        // Each remote site ships at most LIMIT rows.
        for s in &out.explain.sites {
            assert!(
                s.rows_shipped <= 2,
                "site {} shipped {}",
                s.site,
                s.rows_shipped
            );
            assert!(s.order_limit_pushed);
        }
    }

    #[test]
    fn ship_everything_ablation_moves_more_bytes() {
        let mut r = rig();
        let sql = "SELECT K FROM SIM WHERE N >= 3";
        let pushed = q(&mut r, sql, &[]).explain.bytes_wire();
        r.fed.pushdown = false;
        let shipped = q(&mut r, sql, &[]).explain.bytes_wire();
        assert!(
            shipped > pushed,
            "ship-all {shipped} should exceed pushdown {pushed}"
        );
        // Results agree either way.
        r.fed.pushdown = true;
        let a = q(&mut r, sql, &[]).rs.rows;
        r.fed.pushdown = false;
        let b = q(&mut r, sql, &[]).rs.rows;
        assert_eq!(a, b);
    }

    #[test]
    fn hub_evaluated_functions_still_work() {
        let mut r = rig();
        let out = q(
            &mut r,
            "SELECT UPPER(K) FROM SIM WHERE UPPER(SITE) = 'CAM' AND N < 1",
            &[],
        );
        assert_eq!(out.rs.rows, vec![vec![Value::Str("CAM-0".into())]]);
        let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
        assert_eq!(cam.pushed_conjuncts, vec!["(N < 1)"]);
        assert_eq!(cam.hub_conjuncts, vec!["(UPPER(SITE) = 'CAM')"]);
    }

    #[test]
    fn fail_closed_on_dead_site() {
        let mut r = rig();
        r.fed.site("cam").unwrap().crash();
        let err = r
            .fed
            .query(
                &mut r.net,
                r.hub,
                &mut r.hub_db,
                None,
                "SELECT K FROM SIM",
                &[],
            )
            .unwrap_err();
        match err {
            FedError::SiteUnavailable {
                site,
                retry_after_secs,
            } => {
                assert_eq!(site, "cam");
                assert_eq!(retry_after_secs, crate::DEFAULT_RETRY_AFTER_SECS);
            }
            other => panic!("expected SiteUnavailable, got {other}"),
        }
    }

    #[test]
    fn partial_policy_annotates_skipped_sites() {
        let mut r = rig();
        r.fed.policy = PartialPolicy::Partial;
        r.fed.site("cam").unwrap().crash();
        let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
        assert_eq!(out.rs.rows, vec![vec![Value::Int(9)]]); // 4 soton + 5 edin
        assert_eq!(out.explain.skipped, vec!["cam"]);
        assert!(out.explain.render().contains("site cam: SKIPPED"));
    }

    #[test]
    fn explain_without_execution() {
        let mut r = rig();
        r.fed.analyze(&mut r.hub_db).unwrap();
        let ex = r
            .fed
            .explain(
                &r.hub_db,
                "SELECT K FROM SIM WHERE SITE = 'edin' AND N > 1",
                &[],
            )
            .unwrap();
        let text = ex.render();
        assert!(text.contains("site local: pruned"));
        assert!(text.contains("site cam: pruned"));
        assert!(text.contains("(N > 1)"));
        assert_eq!(ex.rows_shipped(), 0);
    }

    #[test]
    fn reads_leave_the_hub_untouched() {
        let (mut r, _) = join_rig();
        r.hub_db
            .execute("CREATE TABLE NOTE (K VARCHAR(20) PRIMARY KEY, TXT VARCHAR(40))")
            .unwrap();
        r.hub_db
            .execute("INSERT INTO NOTE VALUES ('cam-0', 'first'), ('edin-1', 'childless')")
            .unwrap();
        let obs = Obs::new();
        r.hub_db.attach_metrics(&obs.metrics);
        let state = |r: &Rig| {
            (
                r.hub_db.table_names(),
                r.hub_db.write_counter(),
                r.hub_db.wal_syncs(),
                obs.metrics
                    .value("easia_db_mvcc_versions_created_total", &[]),
            )
        };
        let before = state(&r);

        let out = q(&mut r, "SELECT K, N FROM SIM WHERE N >= 1 ORDER BY K", &[]);
        assert_eq!(out.rs.rows.len(), 9);
        assert_eq!(state(&r), before, "ship-rows read");

        let out = q(
            &mut r,
            "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K ORDER BY R.R",
            &[],
        );
        assert!(matches!(
            out.explain.joins[1].strategy,
            JoinStrategy::SemiJoin { .. }
        ));
        assert_eq!(state(&r), before, "semi-join");

        let out = q(
            &mut r,
            "SELECT L.TXT, R.R FROM NOTE L LEFT JOIN RES R ON L.K = R.K ORDER BY L.K",
            &[],
        );
        assert!(matches!(out.explain.joins[0].strategy, JoinStrategy::Local));
        assert_eq!(
            out.rs.rows,
            vec![
                vec![Value::Str("first".into()), Value::Str("cam-r0".into())],
                vec![Value::Str("childless".into()), Value::Null],
            ]
        );
        assert_eq!(state(&r), before, "LEFT JOIN with a hub-local leg");

        let err = r
            .fed
            .query(
                &mut r.net,
                r.hub,
                &mut r.hub_db,
                None,
                "SELECT K FROM SIM WHERE NO_SUCH_COL = 1",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, FedError::Unsupported(_) | FedError::Db(_)));
        assert_eq!(state(&r), before, "a merge that errors");

        // A partial-aggregate read served from fresh replica copies
        // re-derives its state rows from the raw cached partitions.
        r.fed.enable_replica_cache(300.0, 1_000);
        q(&mut r, "SELECT K FROM SIM", &[]);
        let out = q(
            &mut r,
            "SELECT SITE, COUNT(*), SUM(N) FROM SIM GROUP BY SITE ORDER BY SITE",
            &[],
        );
        assert!(out.explain.agg.as_ref().is_some_and(|a| a.partial));
        assert!(out
            .explain
            .sites
            .iter()
            .filter(|s| s.site != "local")
            .all(|s| matches!(s.source, SiteSource::CacheFresh)));
        assert_eq!(
            out.rs.rows,
            vec![
                vec![Value::Str("cam".into()), Value::Int(3), Value::Int(3)],
                vec![Value::Str("edin".into()), Value::Int(5), Value::Int(10)],
                vec![Value::Str("soton".into()), Value::Int(4), Value::Int(6)],
            ]
        );
        assert_eq!(state(&r), before, "partial aggregate over replica copies");
    }

    #[test]
    fn repeated_group_key_merges_like_a_single_one() {
        // The merge resolves scalar parts against the group key alone,
        // so a key named twice must not become two columns of it.
        let mut r = rig();
        let twice = q(
            &mut r,
            "SELECT SITE, COUNT(*) FROM SIM GROUP BY SITE, SITE ORDER BY SITE",
            &[],
        );
        assert!(twice.explain.agg.as_ref().is_some_and(|a| a.partial));
        let once = q(
            &mut r,
            "SELECT SITE, COUNT(*) FROM SIM GROUP BY SITE ORDER BY SITE",
            &[],
        );
        assert_eq!(twice.rs.rows, once.rs.rows);
        assert_eq!(once.rs.rows.len(), 3);
    }

    #[test]
    fn reads_on_a_file_backed_hub_append_nothing_to_the_wal() {
        let dir = std::env::temp_dir().join(format!("easia-med-hub-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hub_db = Database::open(&dir).unwrap();
        fill_site(&mut hub_db, "soton", 4);
        let mut r = rig_on(hub_db);
        let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let (len, syncs) = (wal_len(), r.hub_db.wal_syncs());
        for _ in 0..10 {
            let out = q(&mut r, "SELECT K, N FROM SIM ORDER BY K", &[]);
            assert_eq!(out.rs.rows.len(), 12);
        }
        assert_eq!(wal_len(), len);
        assert_eq!(r.hub_db.wal_syncs(), syncs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn federated_read_runs_inside_an_open_hub_transaction() {
        let mut r = rig();
        r.hub_db.execute("BEGIN").unwrap();
        r.hub_db
            .execute("INSERT INTO SIM VALUES ('soton-9', 'soton', 9, 0.5)")
            .unwrap();
        let out = q(&mut r, "SELECT K FROM SIM WHERE N >= 3 ORDER BY K", &[]);
        let keys: Vec<String> = out.rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(
            keys,
            ["edin-3", "edin-4", "soton-3", "soton-9"],
            "the read sees the transaction's own pending row"
        );
        r.hub_db.execute("COMMIT").unwrap();
        let rs = r
            .hub_db
            .execute("SELECT N FROM SIM WHERE K = 'soton-9'")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(9)]]);
    }

    /// DATALINK values reach the hub statement as CLOB text on every
    /// merge path (link control stays with the owning site).
    #[test]
    fn datalink_columns_survive_federation() {
        let mut r = rig();
        let ddl = "CREATE TABLE FILES (ID INTEGER PRIMARY KEY, URL DATALINK)";
        {
            let mut cam = r.fed.site("cam").unwrap().db.borrow_mut();
            cam.execute(ddl).unwrap();
            cam.execute("INSERT INTO FILES VALUES (1, 'http://cam.example/a.dat')")
                .unwrap();
        }
        r.hub_db.execute(ddl).unwrap();
        r.fed
            .catalog
            .import_foreign_table(
                &r.hub_db,
                "FILES",
                None,
                vec![
                    crate::catalog::Partition::new(None, &[]),
                    crate::catalog::Partition::new(Some("cam"), &[]),
                ],
            )
            .unwrap();
        let link = Value::Clob("http://cam.example/a.dat".into());
        let single = "SELECT ID, URL FROM FILES ORDER BY ID";
        let out = q(&mut r, single, &[]);
        assert_eq!(out.rs.rows, vec![vec![Value::Int(1), link.clone()]]);

        let out = q(
            &mut r,
            "SELECT F.URL FROM FILES F JOIN SIM S ON F.ID = S.N ORDER BY S.K",
            &[],
        );
        assert_eq!(out.rs.rows, vec![vec![link.clone()]; 3]);

        r.fed.enable_replica_cache(300.0, 1_000);
        q(&mut r, single, &[]);
        let hot = q(&mut r, single, &[]);
        assert!(matches!(
            hot.explain.sites[1].source,
            SiteSource::CacheFresh
        ));
        assert_eq!(hot.rs.rows, vec![vec![Value::Int(1), link]]);
    }

    #[test]
    fn metrics_and_span_are_recorded() {
        let mut r = rig();
        let obs = Obs::new();
        for sql in ["SELECT K FROM SIM WHERE N >= 2", "SELECT COUNT(*) FROM SIM"] {
            r.fed
                .query(&mut r.net, r.hub, &mut r.hub_db, Some(&obs), sql, &[])
                .unwrap();
        }
        assert!(obs
            .metrics
            .value("easia_med_rows_shipped_total", &[("site", "cam")])
            .is_some_and(|v| v > 0.0));
        assert!(obs
            .metrics
            .value("easia_med_bytes_wire_total", &[("site", "edin")])
            .is_some_and(|v| v > 0.0));
        assert!(obs
            .metrics
            .value(
                "easia_med_pushdown_conjuncts_total",
                &[("outcome", "pushed")]
            )
            .is_some_and(|v| v > 0.0));
        assert!(obs.tracer.render().contains("easia.med.query"));
        // A family first touched by a query carries the same help text
        // `register_metrics` would have given it.
        assert!(obs.metrics.render().contains(&format!(
            "# HELP easia_med_partial_agg_groups_shipped_total {PARTIAL_AGG_GROUPS_HELP}\n"
        )));
    }

    #[test]
    fn mid_stream_outage_resumes_and_completes() {
        // Baseline: no faults.
        let mut r1 = rig();
        r1.fed.batch_rows = 2;
        let baseline = q(&mut r1, "SELECT K, N FROM SIM ORDER BY K", &[]);

        // Same rig, but cam's host crashes just after the scatter ships
        // and recovers well inside the 600 s deadline. Retry + resume
        // must reproduce the baseline answer exactly.
        let mut r2 = rig();
        r2.fed.batch_rows = 2;
        let cam_host = r2.fed.site("cam").unwrap().host;
        let mut faults = easia_net::FaultSchedule::new();
        faults.host_crash(cam_host, 1.0e-4, 120.0);
        r2.net.set_fault_schedule(faults);
        let obs = Obs::new();
        let out = r2
            .fed
            .query(
                &mut r2.net,
                r2.hub,
                &mut r2.hub_db,
                Some(&obs),
                "SELECT K, N FROM SIM ORDER BY K",
                &[],
            )
            .unwrap();

        assert_eq!(out.rs.rows, baseline.rs.rows);
        assert!(out.explain.skipped.is_empty());
        assert!(out.explain.stale.is_empty());
        let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
        assert!(cam.retries >= 1, "cam was retried: {}", cam.retries);
        assert!(obs
            .metrics
            .value("easia_med_scan_retries_total", &[("site", "cam")])
            .is_some_and(|v| v >= 1.0));
        assert!(obs.tracer.render().contains("easia.med.retry_wait"));
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_recovers_via_probe() {
        let mut r = rig();
        r.fed.policy = PartialPolicy::Partial;
        let obs = Obs::new();
        r.fed.register_metrics(&obs);
        r.fed.site("cam").unwrap().crash();

        // Repeated failures trip the breaker at the threshold.
        for i in 0..r.fed.breaker_threshold {
            let out = r
                .fed
                .query(
                    &mut r.net,
                    r.hub,
                    &mut r.hub_db,
                    Some(&obs),
                    "SELECT COUNT(*) FROM SIM",
                    &[],
                )
                .unwrap();
            assert_eq!(out.explain.skipped, vec!["cam".to_string()], "query {i}");
        }
        assert_eq!(
            r.fed.site("cam").unwrap().breaker_state(),
            BreakerState::Open
        );
        assert_eq!(
            obs.metrics
                .value("easia_med_breaker_state", &[("site", "cam")]),
            Some(1.0)
        );

        // While open, the site is skipped without touching the WAN —
        // even after it comes back up, until the cooldown expires.
        r.fed.site("cam").unwrap().restart();
        let wire =
            |net: &SimNet| -> f64 { net.link_ids().iter().map(|l| net.link_bytes(*l)).sum() };
        let wire_before = wire(&r.net);
        let out = r
            .fed
            .query(
                &mut r.net,
                r.hub,
                &mut r.hub_db,
                Some(&obs),
                "SELECT K FROM SIM WHERE SITE = 'cam'",
                &[],
            )
            .unwrap();
        assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
        assert_eq!(
            wire(&r.net),
            wire_before,
            "an open breaker denies without WAN traffic"
        );

        // Past the cooldown the breaker half-opens, the probe query
        // succeeds, and the breaker closes again.
        let probe_at = r.net.now() + r.fed.breaker_cooldown_s + 1.0;
        r.net.run_until(probe_at);
        let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
        assert!(out.explain.skipped.is_empty());
        assert_eq!(out.rs.rows, vec![vec![Value::Int(12)]]);
        assert_eq!(
            r.fed.site("cam").unwrap().breaker_state(),
            BreakerState::Closed
        );
    }

    #[test]
    fn degraded_policy_serves_stale_replica_with_zero_wan() {
        let mut r = rig();
        r.fed.policy = PartialPolicy::Degraded;
        r.fed.enable_replica_cache(300.0, 1_000);
        let obs = Obs::new();
        let sql = "SELECT K, N FROM SIM ORDER BY K";

        // First query fills the replica cache (full-partition scans).
        let warm = q(&mut r, sql, &[]);
        assert!(warm
            .explain
            .sites
            .iter()
            .filter(|s| s.site != "local")
            .all(|s| matches!(s.source, SiteSource::CacheFill)));

        // Second query is answered entirely from fresh replicas.
        let hot = q(&mut r, sql, &[]);
        assert_eq!(hot.rs.rows, warm.rs.rows);
        assert_eq!(hot.explain.bytes_wire(), 0, "fresh hits move no bytes");

        // With cam dead, the stale replica still answers — zero WAN
        // bytes to cam, full results, annotated as DEGRADED.
        r.fed.site("cam").unwrap().crash();
        let out = r
            .fed
            .query(&mut r.net, r.hub, &mut r.hub_db, Some(&obs), sql, &[])
            .unwrap();
        assert_eq!(out.rs.rows, warm.rs.rows);
        assert!(out.explain.skipped.is_empty());
        assert_eq!(out.explain.stale.len(), 1);
        assert_eq!(out.explain.stale[0].site, "cam");
        assert_eq!(out.explain.stale[0].rows, 3);
        assert!(obs
            .metrics
            .value("easia_med_cache_stale_served_total", &[("site", "cam")])
            .is_some_and(|v| v >= 1.0));
        assert!(out.explain.render().contains("STALE replica served"));

        // After the site recovers and takes a write, the next WAN
        // contact (here forced by TTL expiry) ships the bumped write
        // counter, invalidates the replica, and refills it with the
        // new row.
        r.fed.site("cam").unwrap().restart();
        r.fed
            .site("cam")
            .unwrap()
            .db
            .borrow_mut()
            .execute("INSERT INTO SIM VALUES ('cam-9', 'cam', 9, 0.5)")
            .unwrap();
        let past_ttl = r.net.now() + 301.0;
        r.net.run_until(past_ttl);
        let refreshed = q(&mut r, sql, &[]);
        let cam = refreshed
            .explain
            .sites
            .iter()
            .find(|s| s.site == "cam")
            .unwrap();
        assert!(matches!(cam.source, SiteSource::CacheFill));
        assert_eq!(refreshed.rs.rows.len(), warm.rs.rows.len() + 1);
    }

    // --- federated JOINs (semi-join shipping) ---

    const RES_DDL: &str = "CREATE TABLE RES (\
         R VARCHAR(20) PRIMARY KEY, \
         K VARCHAR(20), \
         SITE VARCHAR(10), \
         BYTES INTEGER)";

    /// Add this site's RES partition: one child row for every
    /// even-numbered SIM row (odd rows stay childless for LEFT JOINs).
    fn add_res(db: &mut Database, site: &str, n: i64) {
        db.execute(RES_DDL).unwrap();
        for i in (0..n).step_by(2) {
            db.execute(&format!(
                "INSERT INTO RES VALUES ('{site}-r{i}', '{site}-{i}', '{site}', {})",
                i * 10
            ))
            .unwrap();
        }
    }

    /// The two-table rig plus a single-database oracle holding every
    /// partition's rows.
    fn join_rig() -> (Rig, Database) {
        let mut r = rig();
        add_res(&mut r.hub_db, "soton", 4);
        add_res(&mut r.fed.site("cam").unwrap().db.borrow_mut(), "cam", 3);
        add_res(&mut r.fed.site("edin").unwrap().db.borrow_mut(), "edin", 5);
        r.fed
            .catalog
            .import_foreign_table(
                &r.hub_db,
                "RES",
                Some("SITE"),
                vec![
                    crate::catalog::Partition::new(None, &["soton"]),
                    crate::catalog::Partition::new(Some("cam"), &["cam"]),
                    crate::catalog::Partition::new(Some("edin"), &["edin"]),
                ],
            )
            .unwrap();
        let mut oracle = Database::new_in_memory();
        oracle
            .execute(
                "CREATE TABLE SIM (K VARCHAR(20) PRIMARY KEY, SITE VARCHAR(10), \
                 N INTEGER, X DOUBLE)",
            )
            .unwrap();
        oracle.execute(RES_DDL).unwrap();
        for (site, n) in [("soton", 4i64), ("cam", 3), ("edin", 5)] {
            for i in 0..n {
                oracle
                    .execute(&format!(
                        "INSERT INTO SIM VALUES ('{site}-{i}', '{site}', {i}, {}.5)",
                        i * 2
                    ))
                    .unwrap();
            }
            for i in (0..n).step_by(2) {
                oracle
                    .execute(&format!(
                        "INSERT INTO RES VALUES ('{site}-r{i}', '{site}-{i}', '{site}', {})",
                        i * 10
                    ))
                    .unwrap();
            }
        }
        (r, oracle)
    }

    #[test]
    fn inner_join_ships_keys_and_matches_the_oracle() {
        let (mut r, mut oracle) = join_rig();
        let sql = "SELECT S.K, R.R, R.BYTES FROM SIM S JOIN RES R ON S.K = R.K \
                   WHERE S.N >= 1 ORDER BY R.R";
        let out = q(&mut r, sql, &[]);
        let want = oracle.execute(sql).unwrap();
        assert_eq!(out.rs.columns, want.columns);
        assert_eq!(out.rs.rows, want.rows);
        assert!(!want.rows.is_empty(), "oracle must exercise the join");
        match &out.explain.joins[1].strategy {
            JoinStrategy::SemiJoin {
                key_column,
                keys: Some(n),
            } => {
                assert_eq!(key_column, "K");
                // Anchor rows with N >= 1: 3 (soton) + 2 (cam) + 4 (edin).
                assert_eq!(*n, 9);
            }
            s => panic!("expected a keyed scan, got {s:?}"),
        }
        let text = out.explain.render();
        assert!(text.contains("join leg SIM AS S (anchor): gather (anchor scan)"));
        assert!(text.contains("join leg RES AS R (INNER): semi-join keyed on K, 9 key(s) shipped"));
        assert!(text.contains("site cam [RES]:"));
    }

    #[test]
    fn key_overflow_falls_back_to_full_ship_with_annotation() {
        let (mut r, mut oracle) = join_rig();
        r.fed.semijoin_max_keys = 2;
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K ORDER BY R.R";
        let out = q(&mut r, sql, &[]);
        assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
        match &out.explain.joins[1].strategy {
            JoinStrategy::FullShip { reason } => {
                assert!(
                    reason.contains("exceeds the 2-key ship bound"),
                    "reason: {reason}"
                );
            }
            s => panic!("expected overflow fallback, got {s:?}"),
        }
    }

    #[test]
    fn empty_key_set_skips_every_partition_of_the_keyed_leg() {
        let (mut r, _) = join_rig();
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N > 100";
        let out = q(&mut r, sql, &[]);
        assert!(out.rs.rows.is_empty());
        assert!(matches!(
            &out.explain.joins[1].strategy,
            JoinStrategy::SemiJoin { keys: Some(0), .. }
        ));
        let res_sites: Vec<_> = out
            .explain
            .sites
            .iter()
            .filter(|s| s.table == "RES")
            .collect();
        assert_eq!(res_sites.len(), 3);
        assert!(
            res_sites.iter().all(|s| s.pruned),
            "no RES partition scanned"
        );
    }

    #[test]
    fn left_join_preserves_childless_rows() {
        let (mut r, mut oracle) = join_rig();
        let sql = "SELECT S.K, R.R FROM SIM S LEFT JOIN RES R ON S.K = R.K ORDER BY S.K";
        let out = q(&mut r, sql, &[]);
        let want = oracle.execute(sql).unwrap();
        assert_eq!(out.rs.rows, want.rows);
        assert!(
            want.rows.iter().any(|row| row[1] == Value::Null),
            "odd-numbered SIM rows are childless"
        );
    }

    #[test]
    fn join_with_a_hub_local_table_reads_it_in_place() {
        let (mut r, _) = join_rig();
        r.hub_db
            .execute("CREATE TABLE NOTE (K VARCHAR(20) PRIMARY KEY, TXT VARCHAR(40))")
            .unwrap();
        r.hub_db
            .execute("INSERT INTO NOTE VALUES ('cam-0', 'first'), ('edin-2', 'second')")
            .unwrap();
        // Local anchor: the keyed RES scan draws its keys from a hub
        // column scan of NOTE.
        let sql = "SELECT L.TXT, R.R FROM NOTE L JOIN RES R ON L.K = R.K ORDER BY R.R";
        let out = q(&mut r, sql, &[]);
        assert_eq!(
            out.rs.rows,
            vec![
                vec![Value::Str("first".into()), Value::Str("cam-r0".into())],
                vec![Value::Str("second".into()), Value::Str("edin-r2".into())],
            ]
        );
        assert!(matches!(out.explain.joins[0].strategy, JoinStrategy::Local));
        assert!(matches!(
            &out.explain.joins[1].strategy,
            JoinStrategy::SemiJoin { keys: Some(2), .. }
        ));
    }

    #[test]
    fn ship_everything_ablation_executes_joins_as_full_ship() {
        let (mut r, mut oracle) = join_rig();
        r.fed.pushdown = false;
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K \
                   WHERE S.N >= 1 ORDER BY R.R";
        let out = q(&mut r, sql, &[]);
        assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
        match &out.explain.joins[1].strategy {
            JoinStrategy::FullShip { reason } => assert_eq!(reason, "pushdown disabled"),
            s => panic!("expected full ship, got {s:?}"),
        }
    }

    #[test]
    fn duplicate_alias_errors_identically_with_and_without_pushdown() {
        // The regression for the ablation's once-duplicated JOIN
        // rejection: both modes must flow through the same typed path.
        let (mut r, _) = join_rig();
        let sql = "SELECT * FROM SIM S JOIN RES S ON S.K = S.K";
        let with = r
            .fed
            .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, &[])
            .unwrap_err()
            .to_string();
        r.fed.pushdown = false;
        let without = r
            .fed
            .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, &[])
            .unwrap_err()
            .to_string();
        assert_eq!(with, without);
        assert_eq!(
            with,
            "federation: unsupported: duplicate table alias S in federated JOIN"
        );
    }

    #[test]
    fn semijoin_wire_bytes_beat_ship_everything() {
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K \
                   WHERE S.N = 0 ORDER BY R.R";
        let (mut r, _) = join_rig();
        let keyed = q(&mut r, sql, &[]);
        let (mut r2, _) = join_rig();
        r2.fed.pushdown = false;
        let full = q(&mut r2, sql, &[]);
        assert_eq!(keyed.rs.rows, full.rs.rows);
        assert!(
            keyed.explain.bytes_wire() < full.explain.bytes_wire(),
            "keyed {} vs full {}",
            keyed.explain.bytes_wire(),
            full.explain.bytes_wire()
        );
    }

    #[test]
    fn explain_join_reports_legs_without_executing() {
        let (r, _) = join_rig();
        let ex = r
            .fed
            .explain(
                &r.hub_db,
                "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K",
                &[],
            )
            .unwrap();
        let text = ex.render();
        assert!(text.contains("join leg SIM AS S (anchor): gather (anchor scan)"));
        assert!(text.contains("join leg RES AS R (INNER): semi-join keyed on K"));
        assert!(text.contains("site cam [SIM]:"));
        assert!(text.contains("site cam [RES]:"));
        assert_eq!(ex.rows_shipped(), 0, "plan-only report never executes");
    }

    #[test]
    fn join_metrics_count_keys_and_fallbacks() {
        let obs = Obs::new();
        let (mut r, _) = join_rig();
        r.fed.register_metrics(&obs);
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K";
        r.fed
            .query(&mut r.net, r.hub, &mut r.hub_db, Some(&obs), sql, &[])
            .unwrap();
        let page = obs.metrics.render();
        assert!(
            page.contains("easia_med_semijoin_keys_shipped_total{table=\"RES\"} 12"),
            "12 anchor keys shipped: {page}"
        );
        r.fed.semijoin_max_keys = 1;
        r.fed
            .query(&mut r.net, r.hub, &mut r.hub_db, Some(&obs), sql, &[])
            .unwrap();
        let page = obs.metrics.render();
        assert!(
            page.contains("easia_med_semijoin_fallbacks_total{reason=\"overflow\"} 1"),
            "overflow fallback counted: {page}"
        );
    }

    // ---- E13: pipelined event-driven gather ----

    #[test]
    fn settling_leaves_unrelated_transfers_in_flight() {
        // Regression for the settle() scoping hazard: the old
        // run_until_idle() fallback would block a query on (and drain)
        // transfers it does not own, which corrupts timing the moment
        // queries overlap.
        let mut r = rig();
        let a = r.net.add_host("a", 1);
        let b = r.net.add_host("b", 1);
        r.net.connect(a, b, LinkSpec::symmetric(1_000.0, 0.01));
        // 1 MB over a 1 kB/s link: ~1000 s, far beyond the query.
        let bg = r.net.try_transfer(a, b, 1_000_000.0).unwrap();
        let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
        assert_eq!(out.rs.rows, vec![vec![Value::Int(12)]]);
        assert!(
            matches!(r.net.transfer_status(bg), TransferStatus::InFlight { .. }),
            "a query must neither wait on nor cancel a transfer it does not own"
        );
        r.net.run_until_idle();
        assert!(matches!(r.net.transfer_status(bg), TransferStatus::Done(_)));
    }

    #[test]
    fn zero_deadline_issues_zero_wan_traffic() {
        // Pins the unified exclusive boundary: WAN work launches only
        // while now < deadline, so a zero-second budget never scatters.
        let obs = Obs::new();
        let mut r = rig();
        r.fed.register_metrics(&obs);
        r.fed.policy = PartialPolicy::Partial;
        r.fed.deadline_secs = 0.0;
        let links = r.net.link_ids();
        let out = r
            .fed
            .query(
                &mut r.net,
                r.hub,
                &mut r.hub_db,
                Some(&obs),
                "SELECT COUNT(*) FROM SIM",
                &[],
            )
            .unwrap();
        // Only the hub-local partition answers.
        assert_eq!(out.rs.rows, vec![vec![Value::Int(4)]]);
        assert_eq!(out.explain.bytes_wire(), 0);
        assert_eq!(
            out.explain.skipped,
            vec!["cam".to_string(), "edin".to_string()]
        );
        let moved: f64 = links.iter().map(|&l| r.net.link_bytes(l)).sum();
        assert_eq!(moved, 0.0, "no request frame may launch at the deadline");
        let page = obs.metrics.render();
        assert!(
            page.contains("easia_med_deadline_cancelled_total{site=\"cam\"} 1")
                && page.contains("easia_med_deadline_cancelled_total{site=\"edin\"} 1"),
            "both expired scans are counted as client-side cancellations: {page}"
        );
    }

    #[test]
    fn wire_accounting_counts_every_delivered_frame() {
        // Pins the transport-accounting semantics from DESIGN.md "Wire
        // accounting": a delivered-but-out-of-sequence frame is real
        // WAN traffic, so its bytes stay booked even though the gap
        // check discards its rows; the resume re-ship is booked again;
        // rows count exactly once.
        let r = rig();
        let site = r.fed.site("cam").unwrap();
        let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
        let frames = frame_batches(&rows, 2, 0, 7);
        assert_eq!(frames.len(), 2);
        let mut p = Pending {
            site,
            request: ScanRequest {
                table: "SIM".into(),
                columns: vec!["N".into()],
                predicate: String::new(),
                params: vec![],
                order_by: vec![],
                limit: None,
                resume_from: 0,
                key_filter: None,
                partial_agg: None,
            },
            frames: Vec::new().into_iter(),
            rows: Vec::new(),
            cursor: 0,
            last_write_counter: 0,
            bytes: 0,
            retries: 0,
            failed: false,
            expired: false,
            cache_fill: false,
        };
        // Frame seq 1 arrives while seq 0 was lost: the caller books
        // its bytes before accept_batch detects the gap.
        p.bytes += frames[1].len() as u64;
        r.fed.accept_batch(&mut p, &frames[1]).unwrap();
        assert!(p.failed, "a sequence gap fails the stream");
        assert_eq!(p.rows.len(), 0, "discarded frame contributes no rows");
        assert_eq!(p.cursor, 0);
        // Resume re-ships from the cursor; every delivered frame is
        // accounted again.
        p.failed = false;
        for f in frame_batches(&rows, 2, p.cursor, 7) {
            p.bytes += f.len() as u64;
            r.fed.accept_batch(&mut p, &f).unwrap();
        }
        assert!(!p.failed);
        assert_eq!(p.rows.len(), 4, "rows are counted exactly once");
        assert_eq!(p.cursor, 2);
        let expected = (frames[0].len() + 2 * frames[1].len()) as u64;
        assert_eq!(
            p.bytes, expected,
            "wire bytes = all delivered traffic, not useful payload"
        );
    }

    #[test]
    fn multi_site_latency_tracks_the_slowest_site_not_the_sum() {
        // The E13 headline: with one fast and one slow link, a query
        // over both partitions finishes with the slow site, instead of
        // serialising the two scans.
        fn asym_rig() -> Rig {
            let mut net = SimNet::new();
            let hub = net.add_host("hub", 4);
            let cam = net.add_host("cam", 2);
            let edin = net.add_host("edin", 2);
            net.connect(hub, cam, LinkSpec::symmetric(25_000.0, 0.2));
            net.connect(hub, edin, LinkSpec::symmetric(20_000.0, 0.25));
            let hub_db = site_db("soton", 4);
            let mut fed = Federation {
                batch_rows: 8,
                ..Federation::default()
            };
            fed.add_site("cam", cam, site_db("cam", 40));
            fed.add_site("edin", edin, site_db("edin", 40));
            fed.catalog
                .import_foreign_table(
                    &hub_db,
                    "SIM",
                    Some("SITE"),
                    vec![
                        crate::catalog::Partition::new(None, &["soton"]),
                        crate::catalog::Partition::new(Some("cam"), &["cam"]),
                        crate::catalog::Partition::new(Some("edin"), &["edin"]),
                    ],
                )
                .unwrap();
            Rig {
                net,
                hub,
                hub_db,
                fed,
            }
        }
        fn elapsed(r: &mut Rig, sql: &str) -> f64 {
            let t0 = r.net.now();
            q(r, sql, &[]);
            r.net.now() - t0
        }
        let mut r = asym_rig();
        let e_cam = elapsed(&mut r, "SELECT K FROM SIM WHERE SITE = 'cam'");
        let e_edin = elapsed(&mut r, "SELECT K FROM SIM WHERE SITE = 'edin'");
        let e_both = elapsed(&mut r, "SELECT K FROM SIM");
        assert!(
            e_both < (e_cam + e_edin) * 0.8,
            "both-sites latency must beat the serial sum: {e_both} vs {e_cam}+{e_edin}"
        );
        assert!(
            e_both >= e_edin * 0.9,
            "nothing can finish before the slowest site: {e_both} vs {e_edin}"
        );
    }

    #[test]
    fn sibling_queries_overlap_their_wan_round_trips() {
        let qs = vec![
            ("SELECT K FROM SIM WHERE SITE = 'cam'".to_string(), vec![]),
            ("SELECT K FROM SIM WHERE SITE = 'edin'".to_string(), vec![]),
        ];
        // Serial baseline: the siblings as two `query` calls in turn.
        let mut rs = rig();
        let t0 = rs.net.now();
        let seq: Vec<QueryOutcome> = qs.iter().map(|(sql, p)| q(&mut rs, sql, p)).collect();
        let e_seq = rs.net.now() - t0;
        // One `query_many` call: both statements share one event pump.
        let mut rp = rig();
        let t0 = rp.net.now();
        let many: Vec<QueryOutcome> = rp
            .fed
            .query_many(&mut rp.net, rp.hub, &mut rp.hub_db, None, &qs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let e_many = rp.net.now() - t0;
        for (a, b) in seq.iter().zip(&many) {
            assert_eq!(a.rs.rows, b.rs.rows, "overlap must not change results");
            assert_eq!(a.explain.bytes_wire(), b.explain.bytes_wire());
        }
        assert!(
            e_many < e_seq * 0.85,
            "sibling round trips must overlap: {e_many} vs {e_seq}"
        );
    }

    #[test]
    fn query_many_reports_per_statement_results_in_order() {
        let mut r = rig();
        let qs = vec![
            ("SELECT COUNT(*) FROM SIM".to_string(), vec![]),
            ("SELECT * FROM NOPE".to_string(), vec![]),
            (
                "SELECT K FROM SIM WHERE N = ?".to_string(),
                vec![Value::Int(1)],
            ),
        ];
        let res = r
            .fed
            .query_many(&mut r.net, r.hub, &mut r.hub_db, None, &qs);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].as_ref().unwrap().rs.rows, vec![vec![Value::Int(12)]]);
        assert!(matches!(res[1], Err(FedError::UnknownTable(_))));
        assert_eq!(res[2].as_ref().unwrap().rs.rows.len(), 3);
    }

    #[test]
    fn join_legs_pump_through_the_shared_event_loop() {
        // Without pushdown both legs are independent full ships, so they
        // form one wave: the join must cost less than gathering the two
        // tables one statement after the other, and still match the
        // oracle.
        fn elapsed(r: &mut Rig, sql: &str) -> (f64, QueryOutcome) {
            let t0 = r.net.now();
            let out = q(r, sql, &[]);
            (r.net.now() - t0, out)
        }
        let (mut a, mut oracle) = join_rig();
        a.fed.pushdown = false;
        let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K ORDER BY S.K";
        let (e_join, out) = elapsed(&mut a, sql);
        assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
        let (mut b, _) = join_rig();
        b.fed.pushdown = false;
        let (e_sim, _) = elapsed(&mut b, "SELECT * FROM SIM");
        let (e_res, _) = elapsed(&mut b, "SELECT * FROM RES");
        assert!(
            e_join < (e_sim + e_res) * 0.85,
            "independent join legs must overlap: {e_join} vs {e_sim}+{e_res}"
        );
    }

    #[test]
    fn write_fingerprint_changes_on_any_site_write() {
        let r = rig();
        let f0 = r.fed.write_fingerprint(&r.hub_db);
        assert_eq!(
            f0,
            r.fed.write_fingerprint(&r.hub_db),
            "fingerprint is stable without writes"
        );
        r.fed
            .site("edin")
            .unwrap()
            .db
            .borrow_mut()
            .execute("INSERT INTO SIM VALUES ('edin-x', 'edin', 99, 0.5)")
            .unwrap();
        assert_ne!(
            f0,
            r.fed.write_fingerprint(&r.hub_db),
            "a remote write must invalidate the fingerprint"
        );
    }
}

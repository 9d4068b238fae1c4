//! # easia-med — SQL/MED foreign-data-wrapper federation
//!
//! The paper's architecture puts one archive hub per site (Southampton,
//! and in principle the other HPC centres on its 0.25–1.94 Mbit/s
//! JANET links) and federates them with SQL/MED: each hub registers the
//! others as *foreign servers* and exposes their partitions of the
//! shared catalog tables as *foreign tables*. A browse query at one hub
//! then transparently unions rows held locally with rows fetched from
//! the other sites.
//!
//! This crate is the hub-side machinery for that:
//!
//! * [`catalog`] — `CREATE SERVER` / `CREATE FOREIGN TABLE` /
//!   `IMPORT FOREIGN SCHEMA` registry, with per-partition site keys and
//!   row-count statistics.
//! * [`wire`] — the compact, byte-deterministic row-batch protocol
//!   (scan requests hub→site, row batches site→hub).
//! * [`planner`] — predicate + projection pushdown, top-k
//!   (ORDER BY/LIMIT) pushdown, and site-key partition pruning.
//! * [`remote`] — the thin site-side executor that runs pushed scans.
//! * [`federation`] — the engine's front: [`Federation`], its sites,
//!   errors and partial-results policy, and the `query` / `query_many`
//!   / `explain` entry points. Every federated statement takes one
//!   path through the private stages behind it: `legs` (a statement is
//!   a list of legs; the plan step and the one executor that runs
//!   dependency waves over them, then the hub merge), `gather` (one
//!   leg's prepare → pump → finish, with the only event pump), `ladder`
//!   (retry-with-resume re-entering that pump, breaker bookkeeping,
//!   stale serve, skip or fail), `merge` (gathered rows bound as
//!   in-memory relations under the original statement; partial
//!   aggregates fold into the executor's own aggregate state — a
//!   federated read never writes to the hub database) and `metrics`
//!   (every `easia_med_*` family, stated once).
//! * [`breaker`] — per-site circuit breakers (closed/open/half-open)
//!   with fault-schedule-derived cooldowns.
//! * [`cache`] — the one bounded, versioned store behind every cache of
//!   the archive: the hub's stale replicas of small partitions
//!   (versioned by site write counters shipped in batch headers), the
//!   speculative FK-browse prefetch (by the federation-wide write
//!   fingerprint) and the operation results.
//! * [`explain`] — the `EXPLAIN FEDERATED` report (pushed vs.
//!   hub-evaluated conjuncts, estimated vs. actual rows shipped,
//!   retries, cache sources, stale serves), built during execution or
//!   from the plan alone.

#![deny(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod catalog;
pub mod explain;
pub mod federation;
mod gather;
mod ladder;
mod legs;
mod merge;
mod metrics;
pub mod planner;
pub mod remote;
pub mod wire;

pub use breaker::{Breaker, BreakerCheck, BreakerState};
pub use cache::{Cache, CacheStats, Lookup};
pub use catalog::{CatalogError, FedCatalog, ForeignTable, Partition};
pub use explain::{AggExplain, FedExplain, SiteExplain, SiteSource, StaleSite};
pub use federation::{
    FedError, Federation, PartialPolicy, QueryOutcome, QueryRecords, Site, DEFAULT_DEADLINE_SECS,
};
pub use planner::{plan_select, AggPlan, Finisher, TablePlan};
pub use remote::{serve_scan, RemoteError, DEFAULT_BATCH_ROWS};
pub use wire::{
    decode_batch, encode_batch, AggCall, Batch, PartialAggSpec, ScanRequest, WireError,
};

/// Retry hint used when a site's outage has no scheduled end.
pub const DEFAULT_RETRY_AFTER_SECS: u64 = 30;

//! Every `easia_med_*` metric family the federation engine owns: name,
//! help text and label key stated once, used both by the eager
//! registration behind `/metrics` and at the event sites.
//!
//! A series exists from [`register`] or from its first non-zero
//! [`Family::add`], whichever comes first — the transport and conjunct
//! families are deliberately not registered, so they appear with their
//! first event.

use easia_obs::{Counter, Obs};

/// One single-label metric family.
pub(crate) struct Family {
    name: &'static str,
    help: &'static str,
    label: &'static str,
}

const fn family(name: &'static str, help: &'static str, label: &'static str) -> Family {
    Family { name, help, label }
}

const TRANSPORT_HELP: &str = "Federation transport counter";

pub(crate) const ROWS_SHIPPED: Family =
    family("easia_med_rows_shipped_total", TRANSPORT_HELP, "site");
pub(crate) const ROWS_PRUNED: Family =
    family("easia_med_rows_pruned_total", TRANSPORT_HELP, "site");
pub(crate) const BYTES_WIRE: Family = family("easia_med_bytes_wire_total", TRANSPORT_HELP, "site");
pub(crate) const PUSHDOWN_CONJUNCTS: Family = family(
    "easia_med_pushdown_conjuncts_total",
    "Conjuncts by pushdown outcome",
    "outcome",
);
pub(crate) const SCAN_RETRIES: Family = family(
    "easia_med_scan_retries_total",
    "Federated scan retry attempts",
    "site",
);
pub(crate) const BREAKER_STATE: Family = family(
    "easia_med_breaker_state",
    "Per-site circuit breaker state (0 closed, 1 open, 2 half-open)",
    "site",
);
pub(crate) const CACHE_HITS: Family = family(
    "easia_med_cache_hits_total",
    "Federated reads served from a fresh replica copy",
    "site",
);
pub(crate) const CACHE_STALE_SERVED: Family = family(
    "easia_med_cache_stale_served_total",
    "Federated reads served from a stale replica copy (DEGRADED)",
    "site",
);
pub(crate) const DEADLINE_CANCELLED: Family = family(
    "easia_med_deadline_cancelled_total",
    "Federated scans cancelled mid-stream at the query deadline (no further batches issued)",
    "site",
);
pub(crate) const SEMIJOIN_KEYS_SHIPPED: Family = family(
    "easia_med_semijoin_keys_shipped_total",
    "Join-key values shipped with semi-join scans",
    "table",
);
pub(crate) const SEMIJOIN_FALLBACKS: Family = family(
    "easia_med_semijoin_fallbacks_total",
    "Semi-join legs degraded to full-partition ship, by reason",
    "reason",
);
pub(crate) const PARTIAL_AGG_QUERIES: Family = family(
    "easia_med_partial_agg_queries_total",
    "Federated statements executed with partial-aggregate pushdown",
    "table",
);
pub(crate) const PARTIAL_AGG_GROUPS_SHIPPED: Family = family(
    "easia_med_partial_agg_groups_shipped_total",
    "Partial-aggregate state rows (one per group per site) shipped over the WAN",
    "site",
);
pub(crate) const PARTIAL_AGG_FALLBACKS: Family = family(
    "easia_med_partial_agg_fallbacks_total",
    "Aggregate statements that declined partial pushdown and shipped raw rows, by reason",
    "reason",
);

/// Every reason a semi-join leg degrades to a full-partition ship.
const SEMIJOIN_FALLBACK_REASONS: [&str; 3] = ["overflow", "no-key", "pushdown-off"];

/// Every reason `plan_partial_agg` (or the ablation switches) declines
/// partial-aggregate pushdown with. `wildcard` now only reads zero: `*`
/// beside aggregates fails when the statement binds, before planning.
const PARTIAL_AGG_FALLBACK_REASONS: [&str; 7] = [
    "distinct",
    "expr-arg",
    "hub-conjunct",
    "group-expr",
    "non-group-column",
    "wildcard",
    "disabled",
];

impl Family {
    /// The counter series labelled `value`, created at zero if new.
    fn counter(&self, obs: &Obs, value: &str) -> Counter {
        obs.metrics
            .counter_with(self.name, self.help, &[(self.label, value)])
    }

    /// Count `delta` events on the series labelled `value`. A zero
    /// delta touches nothing.
    pub(crate) fn add(&self, obs: Option<&Obs>, value: &str, delta: u64) {
        if let (Some(o), true) = (obs, delta > 0) {
            self.counter(o, value).add(delta as f64);
        }
    }

    /// Set the gauge series labelled `value`.
    pub(crate) fn set(&self, obs: &Obs, value: &str, v: f64) {
        obs.metrics
            .gauge_with(self.name, self.help, &[(self.label, value)])
            .set(v);
    }
}

/// Eagerly register every family that `/metrics` must render before the
/// first query or outage: the per-site resilience and partial-aggregate
/// series (breaker gauges at 0), the per-table series, and one series
/// per fallback reason.
pub(crate) fn register<'a>(
    obs: &Obs,
    sites: impl Iterator<Item = &'a String>,
    tables: impl Iterator<Item = &'a String>,
) {
    for site in sites {
        for f in [
            &SCAN_RETRIES,
            &CACHE_HITS,
            &CACHE_STALE_SERVED,
            &DEADLINE_CANCELLED,
            &PARTIAL_AGG_GROUPS_SHIPPED,
        ] {
            f.counter(obs, site);
        }
        BREAKER_STATE.set(obs, site, 0.0);
    }
    for table in tables {
        SEMIJOIN_KEYS_SHIPPED.counter(obs, table);
        PARTIAL_AGG_QUERIES.counter(obs, table);
    }
    for reason in SEMIJOIN_FALLBACK_REASONS {
        SEMIJOIN_FALLBACKS.counter(obs, reason);
    }
    for reason in PARTIAL_AGG_FALLBACK_REASONS {
        PARTIAL_AGG_FALLBACKS.counter(obs, reason);
    }
}

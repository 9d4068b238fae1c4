//! `EXPLAIN FEDERATED` — the per-site federation report.
//!
//! Built alongside every federated query execution, so "estimated"
//! comes from the catalog statistics and "actual" from what really
//! crossed the simulated WAN. [`FedExplain::planned`] is the same
//! report rendered from the plan alone, actuals at zero.

use crate::catalog::Partition;
use crate::legs::Statement;
use crate::planner::{JoinLeg, LegStrategy};
use easia_db::sql::ast::JoinKind;
use easia_db::Value;

/// Where a partition's rows came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteSource {
    /// Rows crossed the simulated WAN (or were scanned locally).
    #[default]
    Wan,
    /// Rows were served from a fresh replica-cache copy — zero WAN.
    CacheFresh,
    /// Rows crossed the WAN as a full-partition scan that also
    /// (re)filled the replica cache.
    CacheFill,
}

/// A site whose rows were served from a stale replica because the live
/// site was down (the `Degraded` policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleSite {
    /// The down site.
    pub site: String,
    /// Age of the served copy (simulated seconds).
    pub age_secs: u64,
    /// Rows served from the copy.
    pub rows: u64,
}

/// How one leg of a federated JOIN fetched its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Hub-local table, read in place by the merge join.
    Local,
    /// The FROM anchor's deliberate full gather (pushed conjuncts and
    /// pruning still apply).
    Gather,
    /// Semi-join shipping: the scan was keyed on the bound join-key
    /// set. `keys` is the shipped key count, `None` for a plan-only
    /// report that never executed.
    SemiJoin {
        /// Column the shipped key list restricts.
        key_column: String,
        /// Keys shipped (zero ⇒ the leg was skipped outright).
        keys: Option<u64>,
    },
    /// The leg shipped whole partitions, with the reason.
    FullShip {
        /// Why keys were not shipped.
        reason: String,
    },
}

impl From<&LegStrategy> for JoinStrategy {
    /// The strategy as planned: key counts are only known once the
    /// leg's key source has been gathered.
    fn from(s: &LegStrategy) -> Self {
        match s {
            LegStrategy::Local => JoinStrategy::Local,
            LegStrategy::Gather => JoinStrategy::Gather,
            LegStrategy::SemiJoin { key_column, .. } => JoinStrategy::SemiJoin {
                key_column: key_column.clone(),
                keys: None,
            },
            LegStrategy::FullShip { reason } => JoinStrategy::FullShip {
                reason: reason.clone(),
            },
        }
    }
}

/// One JOIN leg's line in the `EXPLAIN FEDERATED` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinExplain {
    /// Table name.
    pub table: String,
    /// Binding alias (equals the table name when unaliased).
    pub alias: String,
    /// `"anchor"` for the FROM table, else `"INNER"`/`"LEFT"`.
    pub kind: String,
    /// How the leg's rows reached the hub merge.
    pub strategy: JoinStrategy,
}

impl JoinExplain {
    /// The line for `leg`, fetched by `strategy`.
    pub(crate) fn of(leg: &JoinLeg, strategy: JoinStrategy) -> Self {
        JoinExplain {
            table: leg.table.clone(),
            alias: leg.alias.clone(),
            kind: match leg.kind {
                None => "anchor",
                Some(JoinKind::Inner) => "INNER",
                Some(JoinKind::Left) => "LEFT",
            }
            .to_string(),
            strategy,
        }
    }

    fn render(&self) -> String {
        let name = if self.alias == self.table {
            self.table.clone()
        } else {
            format!("{} AS {}", self.table, self.alias)
        };
        let how = match &self.strategy {
            JoinStrategy::Local => "hub-local (read in place)".to_string(),
            JoinStrategy::Gather => "gather (anchor scan)".to_string(),
            JoinStrategy::SemiJoin { key_column, keys } => match keys {
                Some(0) => format!("semi-join keyed on {key_column}, 0 keys — leg skipped"),
                Some(n) => format!("semi-join keyed on {key_column}, {n} key(s) shipped"),
                None => format!("semi-join keyed on {key_column}"),
            },
            JoinStrategy::FullShip { reason } => format!("full ship ({reason})"),
        };
        format!("  join leg {name} ({}): {how}\n", self.kind)
    }
}

/// What one partition/site contributed to a federated query.
#[derive(Debug, Clone, Default)]
pub struct SiteExplain {
    /// Site label (`local` for the hub's own partition).
    pub site: String,
    /// The leg's table for a JOIN report; empty for a single-table
    /// query (the header already names it).
    pub table: String,
    /// True when partition pruning skipped this site entirely.
    pub pruned: bool,
    /// Conjuncts pushed to the site, as SQL text.
    pub pushed_conjuncts: Vec<String>,
    /// Conjuncts the hub evaluated after the merge, as SQL text.
    pub hub_conjuncts: Vec<String>,
    /// Catalog row-count estimate for the partition.
    pub est_rows: u64,
    /// Rows actually shipped (0 for pruned/local partitions).
    pub rows_shipped: u64,
    /// Bytes actually placed on the wire for this site (request +
    /// batches; 0 for pruned/local partitions).
    pub bytes_wire: u64,
    /// Whether a top-k ORDER BY/LIMIT cut ran at the site.
    pub order_limit_pushed: bool,
    /// Where the rows came from (WAN scan vs. replica cache).
    pub source: SiteSource,
    /// Scan retries this site needed before the stream completed.
    pub retries: u32,
}

/// What one leg ships, as the report states it: the plan-side half of
/// every [`SiteExplain`] entry of the leg.
pub(crate) struct Shipping {
    /// The leg's table for a JOIN report; empty for a single-table
    /// statement.
    pub(crate) table: String,
    /// Conjuncts pushed to the leg's sites, as SQL text.
    pub(crate) pushed: Vec<String>,
    /// Whole-statement hub-evaluated conjuncts, reported once on the
    /// first federated leg.
    pub(crate) hub: Vec<String>,
    /// Whether the scan carries a top-k ORDER BY/LIMIT cut.
    pub(crate) topk: bool,
    /// Site-key constant bound by a pushed conjunct — the pruning
    /// handle.
    pub(crate) site_key_value: Option<Value>,
}

impl Shipping {
    /// The entry for partition `p` before anything runs: pruned or not,
    /// actuals at zero. The one place a [`SiteExplain`] is built.
    pub(crate) fn entry(&self, p: &Partition) -> SiteExplain {
        SiteExplain {
            site: p.site_label().to_string(),
            table: self.table.clone(),
            pruned: self
                .site_key_value
                .as_ref()
                .is_some_and(|v| !p.may_match(v)),
            pushed_conjuncts: self.pushed.clone(),
            hub_conjuncts: self.hub.clone(),
            est_rows: p.est_rows.get(),
            rows_shipped: 0,
            bytes_wire: 0,
            order_limit_pushed: self.topk,
            source: SiteSource::Wan,
            retries: 0,
        }
    }
}

/// Partial-aggregate pushdown section of the report: whether the
/// statement's aggregates were decomposed into site-local partial
/// states, and how many state rows crossed the wire versus final
/// groups returned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggExplain {
    /// True when the sites grouped locally and shipped partial states;
    /// false when the statement aggregated but shipped raw rows.
    pub partial: bool,
    /// GROUP BY columns (empty for a global aggregate).
    pub group_cols: Vec<String>,
    /// Aggregate calls pushed to the sites, as SQL text (AVG appears
    /// as its SUM + COUNT decomposition).
    pub calls: Vec<String>,
    /// Catalog row-count estimate summed over the unpruned remote
    /// partitions — the rows a ship-everything plan would have moved.
    pub est_groups: u64,
    /// Partial-state rows actually gathered (one per group per site).
    pub partial_rows: u64,
    /// Final groups after the hub merge.
    pub final_groups: u64,
    /// Why the planner declined partial pushdown (`None` when it ran).
    pub fallback: Option<String>,
}

impl AggExplain {
    fn render(&self) -> String {
        if self.partial {
            let by = if self.group_cols.is_empty() {
                "(global)".to_string()
            } else {
                self.group_cols.join(", ")
            };
            format!(
                "  aggregate: partial pushdown [{}] group by {by}\n  \
                 aggregate: est {} raw rows avoided, {} partial rows gathered, {} final group(s)\n",
                self.calls.join(", "),
                self.est_groups,
                self.partial_rows,
                self.final_groups,
            )
        } else {
            format!(
                "  aggregate: ship-rows fallback ({})\n",
                self.fallback.as_deref().unwrap_or("unknown")
            )
        }
    }
}

/// The full federated-query report.
#[derive(Debug, Clone, Default)]
pub struct FedExplain {
    /// Logical table queried (the FROM anchor for a JOIN).
    pub table: String,
    /// JOIN legs in statement order; empty for a single-table query.
    pub joins: Vec<JoinExplain>,
    /// Per-partition breakdown, in catalog order (leg order for a
    /// JOIN, each site entry stamped with its leg's table).
    pub sites: Vec<SiteExplain>,
    /// Sites skipped by the PARTIAL results policy (outages).
    pub skipped: Vec<String>,
    /// Down sites served from a stale replica (the DEGRADED policy).
    pub stale: Vec<StaleSite>,
    /// This outcome was served from the speculative FK-browse prefetch
    /// cache: the WAN traffic it reports happened *before* the user's
    /// click, while the previous screen was rendering.
    pub prefetched: bool,
    /// Partial-aggregate pushdown report; `None` for a statement with
    /// no aggregates.
    pub agg: Option<AggExplain>,
}

impl FedExplain {
    /// The plan-only report: what executing `stmt` would ship, without
    /// disturbing the network. Semi-join key counts are unknown and
    /// every actual is zero.
    pub(crate) fn planned(stmt: &Statement<'_>) -> FedExplain {
        let mut explain = FedExplain {
            table: stmt.plan.legs[0].table.clone(),
            ..FedExplain::default()
        };
        for (i, leg) in stmt.plan.legs.iter().enumerate() {
            if stmt.is_join() {
                explain
                    .joins
                    .push(JoinExplain::of(leg, JoinStrategy::from(&leg.strategy)));
            }
            if let Some(ft) = stmt.tables[i] {
                let shipping = stmt.shipping(i);
                explain
                    .sites
                    .extend(ft.partitions.iter().map(|p| shipping.entry(p)));
            }
        }
        explain.agg = stmt.agg_explain(&explain.sites, 0, 0);
        explain
    }

    /// Total rows shipped across all sites.
    pub fn rows_shipped(&self) -> u64 {
        self.sites.iter().map(|s| s.rows_shipped).sum()
    }

    /// Total bytes placed on the wire across all sites.
    pub fn bytes_wire(&self) -> u64 {
        self.sites.iter().map(|s| s.bytes_wire).sum()
    }

    /// Render the report as indented text (the `EXPLAIN FEDERATED`
    /// output shown in the webapp and benches).
    pub fn render(&self) -> String {
        let mut out = format!("EXPLAIN FEDERATED {}\n", self.table);
        if self.prefetched {
            out.push_str(
                "  served from speculative prefetch (scans ran during the previous screen)\n",
            );
        }
        for j in &self.joins {
            out.push_str(&j.render());
        }
        for s in &self.sites {
            if s.table.is_empty() {
                out.push_str(&format!("  site {}:", s.site));
            } else {
                out.push_str(&format!("  site {} [{}]:", s.site, s.table));
            }
            if s.pruned {
                out.push_str(&format!(" pruned (est {} rows skipped)\n", s.est_rows));
                continue;
            }
            out.push('\n');
            let pushed = if s.pushed_conjuncts.is_empty() {
                "(none)".to_string()
            } else {
                s.pushed_conjuncts.join(" AND ")
            };
            out.push_str(&format!("    pushed:   {pushed}\n"));
            if !s.hub_conjuncts.is_empty() {
                out.push_str(&format!(
                    "    hub-eval: {}\n",
                    s.hub_conjuncts.join(" AND ")
                ));
            }
            if s.order_limit_pushed {
                out.push_str("    top-k:    pushed (site ships at most LIMIT rows)\n");
            }
            match s.source {
                SiteSource::Wan => {}
                SiteSource::CacheFresh => {
                    out.push_str("    cache:    fresh replica hit (zero WAN)\n");
                }
                SiteSource::CacheFill => {
                    out.push_str("    cache:    full-partition scan refilled the replica\n");
                }
            }
            if s.retries > 0 {
                out.push_str(&format!("    retries:  {}\n", s.retries));
            }
            out.push_str(&format!(
                "    rows:     est {} / shipped {}\n",
                s.est_rows, s.rows_shipped
            ));
            if s.bytes_wire > 0 {
                out.push_str(&format!("    wire:     {} bytes\n", s.bytes_wire));
            }
        }
        for sk in &self.skipped {
            out.push_str(&format!("  site {sk}: SKIPPED (unavailable, PARTIAL)\n"));
        }
        for st in &self.stale {
            out.push_str(&format!(
                "  site {}: STALE replica served ({} rows, age {}s, DEGRADED)\n",
                st.site, st.rows, st.age_secs
            ));
        }
        if let Some(agg) = &self.agg {
            out.push_str(&agg.render());
        }
        out.push_str(&format!(
            "  total: {} rows shipped, {} bytes on wire\n",
            self.rows_shipped(),
            self.bytes_wire()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_pruned_pushed_and_skipped() {
        let ex = FedExplain {
            table: "SIMULATION".into(),
            sites: vec![
                SiteExplain {
                    site: "local".into(),
                    table: String::new(),
                    pruned: false,
                    pushed_conjuncts: vec!["(GRID_SIZE > ?)".into()],
                    hub_conjuncts: vec!["(UPPER(TITLE) = ?)".into()],
                    est_rows: 100,
                    rows_shipped: 0,
                    bytes_wire: 0,
                    order_limit_pushed: true,
                    source: SiteSource::Wan,
                    retries: 0,
                },
                SiteExplain {
                    site: "cam".into(),
                    table: String::new(),
                    pruned: true,
                    pushed_conjuncts: vec![],
                    hub_conjuncts: vec![],
                    est_rows: 40,
                    rows_shipped: 0,
                    bytes_wire: 0,
                    order_limit_pushed: false,
                    source: SiteSource::Wan,
                    retries: 0,
                },
                SiteExplain {
                    site: "edin".into(),
                    table: String::new(),
                    pruned: false,
                    pushed_conjuncts: vec![],
                    hub_conjuncts: vec![],
                    est_rows: 7,
                    rows_shipped: 7,
                    bytes_wire: 512,
                    order_limit_pushed: false,
                    source: SiteSource::CacheFill,
                    retries: 2,
                },
            ],
            joins: vec![],
            skipped: vec!["mcc".into()],
            stale: vec![StaleSite {
                site: "qmw".into(),
                age_secs: 90,
                rows: 12,
            }],
            prefetched: false,
            agg: Some(AggExplain {
                partial: true,
                group_cols: vec!["SITE".into()],
                calls: vec!["COUNT(*)".into(), "SUM(GRID_SIZE)".into()],
                est_groups: 140,
                partial_rows: 6,
                final_groups: 3,
                fallback: None,
            }),
        };
        let text = ex.render();
        assert!(text.contains("site cam: pruned (est 40 rows skipped)"));
        assert!(
            text.contains("aggregate: partial pushdown [COUNT(*), SUM(GRID_SIZE)] group by SITE")
        );
        assert!(
            text.contains("est 140 raw rows avoided, 6 partial rows gathered, 3 final group(s)")
        );
        let fb = FedExplain {
            agg: Some(AggExplain {
                partial: false,
                fallback: Some("distinct".into()),
                ..AggExplain::default()
            }),
            ..FedExplain::default()
        };
        assert!(fb
            .render()
            .contains("aggregate: ship-rows fallback (distinct)"));
        assert!(text.contains("pushed:   (GRID_SIZE > ?)"));
        assert!(text.contains("hub-eval: (UPPER(TITLE) = ?)"));
        assert!(text.contains("top-k:    pushed"));
        assert!(text.contains("est 7 / shipped 7"));
        assert!(text.contains("site mcc: SKIPPED"));
        assert!(text.contains("refilled the replica"));
        assert!(text.contains("retries:  2"));
        assert!(text.contains("site qmw: STALE replica served (12 rows, age 90s, DEGRADED)"));
        assert!(text.contains("total: 7 rows shipped, 512 bytes on wire"));
        assert_eq!(ex.rows_shipped(), 7);
        assert_eq!(ex.bytes_wire(), 512);
    }

    #[test]
    fn render_covers_join_legs() {
        let ex = FedExplain {
            table: "SIMULATION".into(),
            joins: vec![
                JoinExplain {
                    table: "SIMULATION".into(),
                    alias: "S".into(),
                    kind: "anchor".into(),
                    strategy: JoinStrategy::Gather,
                },
                JoinExplain {
                    table: "RESULT_FILE".into(),
                    alias: "RESULT_FILE".into(),
                    kind: "INNER".into(),
                    strategy: JoinStrategy::SemiJoin {
                        key_column: "SIMULATION_KEY".into(),
                        keys: Some(12),
                    },
                },
                JoinExplain {
                    table: "AUTHOR".into(),
                    alias: "A".into(),
                    kind: "LEFT".into(),
                    strategy: JoinStrategy::FullShip {
                        reason: "key list (4000 keys) exceeds the 1024-key ship bound".into(),
                    },
                },
                JoinExplain {
                    table: "CODE_FILE".into(),
                    alias: "CODE_FILE".into(),
                    kind: "INNER".into(),
                    strategy: JoinStrategy::Local,
                },
            ],
            sites: vec![SiteExplain {
                site: "cam".into(),
                table: "RESULT_FILE".into(),
                rows_shipped: 12,
                bytes_wire: 800,
                ..SiteExplain::default()
            }],
            skipped: vec![],
            stale: vec![],
            prefetched: false,
            agg: None,
        };
        let text = ex.render();
        assert!(text.contains("join leg SIMULATION AS S (anchor): gather (anchor scan)"));
        assert!(text.contains(
            "join leg RESULT_FILE (INNER): semi-join keyed on SIMULATION_KEY, 12 key(s) shipped"
        ));
        assert!(text.contains("join leg AUTHOR AS A (LEFT): full ship (key list (4000 keys)"));
        assert!(text.contains("join leg CODE_FILE (INNER): hub-local (read in place)"));
        assert!(text.contains("site cam [RESULT_FILE]:"));
    }
}

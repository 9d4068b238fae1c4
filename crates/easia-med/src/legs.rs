//! A federated statement is a list of legs, and this is the one
//! executor that runs them.
//!
//! [`Federation::plan`] turns a parsed SELECT into a [`Statement`]:
//! [`plan_join`](crate::planner::plan_join)'s legs, of which a
//! single-table statement has one (and with it the top-k and
//! partial-aggregate decisions only a one-leg plan carries).
//! [`Federation::execute`] runs dependency waves over any number of
//! statements at once — build each ready leg's scan request, prepare,
//! one pump, finish — and completes a statement the moment its last leg
//! is gathered: the hub merge, the EXPLAIN aggregate section, the
//! per-statement metrics and the `easia.med.query` span.

use crate::catalog::ForeignTable;
use crate::explain::{AggExplain, FedExplain, JoinExplain, JoinStrategy, Shipping, SiteExplain};
use crate::federation::{FedError, Federation, QueryRecords};
use crate::gather::TableGather;
use crate::merge::{merge, merge_partial_agg, Leg};
use crate::metrics::{
    PARTIAL_AGG_FALLBACKS, PARTIAL_AGG_QUERIES, PUSHDOWN_CONJUNCTS, SEMIJOIN_FALLBACKS,
    SEMIJOIN_KEYS_SHIPPED,
};
use crate::planner::{externalize, plan_legs, strip_qualifiers, JoinLeg, JoinPlan, LegStrategy};
use crate::wire::ScanRequest;
use easia_db::sql::ast::{SelectStmt, Stmt};
use easia_db::sql::{expr_to_sql, parse};
use easia_db::value::{decode_row_into, Records};
use easia_db::{Database, Value};
use easia_net::{HostId, SimNet};
use easia_obs::Obs;

/// A planned federated statement.
pub(crate) struct Statement<'a> {
    sel: SelectStmt,
    params: &'a [Value],
    /// The foreign table behind each federated leg.
    pub(crate) tables: Vec<Option<&'a ForeignTable>>,
    /// The legs (FROM table first) and what stays at the hub.
    pub(crate) plan: JoinPlan,
}

impl Statement<'_> {
    /// Does the statement join tables? (Its site entries then carry
    /// their leg's table and its report has `join leg` lines.)
    pub(crate) fn is_join(&self) -> bool {
        !self.sel.joins.is_empty()
    }

    /// What leg `i` ships, as EXPLAIN states it. The hub-evaluated
    /// conjunct list is whole-statement: it is reported once, on the
    /// first federated leg's sites.
    pub(crate) fn shipping(&self, i: usize) -> Shipping {
        let leg = &self.plan.legs[i];
        let first_fed = self.plan.legs.iter().position(|l| l.federated);
        Shipping {
            table: if self.is_join() {
                leg.table.clone()
            } else {
                String::new()
            },
            pushed: leg.pushed_sql(),
            hub: if Some(i) == first_fed {
                self.plan.hub_sql()
            } else {
                vec![]
            },
            topk: self.plan.order_limit.is_some(),
            site_key_value: leg.site_key_value.clone(),
        }
    }

    /// The report's aggregate section, given the site entries and the
    /// merge's actuals (zero for a plan-only report).
    pub(crate) fn agg_explain(
        &self,
        sites: &[SiteExplain],
        partial_rows: u64,
        final_groups: u64,
    ) -> Option<AggExplain> {
        match (&self.plan.partial_agg, self.plan.agg_fallback) {
            (Some(agg), _) => Some(AggExplain {
                partial: true,
                group_cols: agg.group_cols.clone(),
                calls: agg.calls.iter().map(|c| c.sql()).collect(),
                est_groups: sites
                    .iter()
                    .filter(|s| !s.pruned && s.site != "local")
                    .map(|s| s.est_rows)
                    .sum(),
                partial_rows,
                final_groups,
                fallback: None,
            }),
            (None, Some(reason)) => Some(AggExplain {
                partial: false,
                fallback: Some(reason.to_string()),
                ..AggExplain::default()
            }),
            (None, None) => None,
        }
    }

    /// The pushed scan for federated leg `i` over `ft`: the leg's
    /// pushed conjuncts externalised into one parameterised,
    /// qualifier-free predicate (the site scan is single-table, so a
    /// hub-side alias would not resolve there), plus the statement's
    /// top-k cut and partial-aggregate spec.
    fn scan_request(&self, i: usize, ft: &ForeignTable) -> Result<ScanRequest, FedError> {
        let leg = &self.plan.legs[i];
        let mut params = Vec::new();
        let mut rendered = Vec::with_capacity(leg.pushed.len());
        for c in &leg.pushed {
            let e = externalize(&strip_qualifiers(c), self.params, &mut params)?;
            rendered.push(expr_to_sql(&e));
        }
        let (order_by, limit) = match &self.plan.order_limit {
            Some((keys, n)) => (keys.clone(), Some(*n)),
            None => (vec![], None),
        };
        Ok(ScanRequest {
            table: ft.name.clone(),
            columns: leg.columns.clone(),
            predicate: rendered.join(" AND "),
            params,
            order_by,
            limit,
            resume_from: 0,
            key_filter: None,
            partial_agg: self.plan.partial_agg.as_ref().map(|a| a.spec()),
        })
    }
}

/// One statement's progress through [`Federation::execute`].
pub(crate) struct Run<'p, 'a> {
    pub(crate) stmt: &'p Statement<'a>,
    /// When [`Federation::execute`] started the statement's clock: its
    /// span start and the base of its deadline.
    t0: f64,
    /// Each leg reports into its own fragment, spliced back in
    /// statement order at the end.
    frags: Vec<FedExplain>,
    /// Gathered rows per federated leg, once it is in; a hub-local leg
    /// stays `None`.
    leg_rows: Vec<Option<Records>>,
    /// Set once: the statement completed or failed.
    pub(crate) outcome: Option<Result<QueryRecords, FedError>>,
}

impl<'p, 'a> Run<'p, 'a> {
    /// `stmt` with nothing gathered yet. Hub-local legs need no
    /// gathering: the merge reads them in place.
    pub(crate) fn new(stmt: &'p Statement<'a>) -> Self {
        let mut frags = vec![FedExplain::default(); stmt.plan.legs.len()];
        for (leg, frag) in stmt.plan.legs.iter().zip(&mut frags) {
            if !leg.federated {
                frag.joins.push(JoinExplain::of(leg, JoinStrategy::Local));
            }
        }
        Run {
            stmt,
            t0: 0.0,
            frags,
            leg_rows: vec![None; stmt.plan.legs.len()],
            outcome: None,
        }
    }

    /// Is leg `i` in? (A hub-local leg always is.)
    fn done(&self, i: usize) -> bool {
        !self.stmt.plan.legs[i].federated || self.leg_rows[i].is_some()
    }

    /// Unfinished legs whose key source (if any) has been gathered.
    fn ready(&self) -> Vec<usize> {
        let ready: Vec<usize> = (0..self.leg_rows.len())
            .filter(|&i| !self.done(i))
            .filter(|&i| match &self.stmt.plan.legs[i].strategy {
                LegStrategy::SemiJoin { source_leg, .. } => self.done(*source_leg),
                _ => true,
            })
            .collect();
        assert!(
            !ready.is_empty(),
            "join legs always key on earlier legs, so a wave exists"
        );
        ready
    }
}

/// The bound join-key set for a semi-join leg: the source column's
/// values from the source leg's gathered rows (a federated leg) or a
/// hub column scan (a local leg) — NULL-free (three-valued `=` never
/// matches NULL), sorted and deduplicated so the shipped request frame
/// is byte-deterministic.
fn join_keys(
    hub_db: &mut Database,
    source: &JoinLeg,
    gathered: Option<&Records>,
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
            // The shipped cell, DATALINK or not, of each record.
            let (mut row, mut vals) = (Vec::new(), Vec::with_capacity(rows.len()));
            for record in rows.iter() {
                decode_row_into(record, &mut 0, &mut row)?;
                vals.extend(row.get(idx).cloned());
            }
            vals
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

impl Federation {
    /// The plan step: parse `sql`, bind it against the joined row the
    /// merge will evaluate, and decide, per leg, what is pushed, what is
    /// shipped and how the rows are fetched — with no network side
    /// effects. `hub_db` resolves hub-local JOIN legs and supplies the
    /// scalar functions the statement binds with.
    pub(crate) fn plan<'a>(
        &'a self,
        hub_db: &Database,
        sql: &str,
        params: &'a [Value],
    ) -> Result<Statement<'a>, FedError> {
        let Stmt::Select(sel) = parse(sql)? else {
            return Err(FedError::Unsupported("only SELECT can be federated".into()));
        };
        let local = |t: &str| -> Option<Vec<String>> {
            hub_db
                .schema(t)
                .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
        };
        let foreign = |t: &str| self.catalog.table(t);
        let functions = hub_db.functions();
        let mut plan = plan_legs(&sel, &foreign, &local, functions, params, self.pushdown)?;
        if !self.partial_agg && plan.partial_agg.take().is_some() {
            // Partial-aggregate ablation: keep every other pushdown but
            // ship the aggregate's raw rows.
            plan.agg_fallback = Some("disabled");
        }
        let tables = plan
            .legs
            .iter()
            .map(|l| self.catalog.table(&l.table).filter(|_| l.federated))
            .collect();
        Ok(Statement {
            sel,
            params,
            tables,
            plan,
        })
    }

    /// Start the clock of `runs` and run them to completion in
    /// *dependency waves*, not statement order: a semi-join leg becomes
    /// ready once its key source has gathered, and every ready leg of
    /// every listed statement shares one event pump so independent work
    /// overlaps its WAN round trips.
    ///
    /// A plan or prepare error fails only its statement (and nothing of
    /// it touches the wire); a pump error is session-wide (unroutable
    /// hub, stalled scheduler) and fails every statement in the wave.
    pub(crate) fn execute(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        runs: &mut [&mut Run<'_, '_>],
    ) {
        for run in runs.iter_mut() {
            run.t0 = net.now();
        }
        while runs.iter().any(|r| r.outcome.is_none()) {
            // Prepare every ready leg in statement order. `live` holds
            // (statement, leg, work order, streams).
            let mut live = Vec::new();
            for (ri, run) in runs.iter_mut().enumerate() {
                if run.outcome.is_some() {
                    continue;
                }
                let deadline = run.t0 + self.deadline_secs;
                let orders: Result<Vec<_>, FedError> = run
                    .ready()
                    .into_iter()
                    .map(|i| Ok((i, self.work_order(hub_db, obs, run, i)?)))
                    .collect();
                let prepared = orders.and_then(|orders| {
                    orders.into_iter().try_for_each(|(i, g)| {
                        let frag = &mut run.frags[i];
                        let st = self.prepare_gather(net, hub_db, obs, &g, deadline, frag)?;
                        live.push((ri, i, g, st));
                        Ok(())
                    })
                });
                if let Err(e) = prepared {
                    run.outcome = Some(Err(e));
                    live.retain(|(r, ..)| *r != ri);
                }
            }
            let mut groups: Vec<_> = live
                .iter_mut()
                .map(|(.., st)| (&mut st.pending[..], st.deadline))
                .collect();
            if let Err(e) = self.pump(net, hub_host, obs, &mut groups) {
                for (ri, ..) in &live {
                    runs[*ri].outcome = Some(Err(e.clone()));
                }
                continue;
            }
            // The sequential ladder per leg; a statement whose last leg
            // is in completes before the next statement's ladder runs.
            for (ri, i, g, st) in live {
                let run = &mut runs[ri];
                if run.outcome.is_some() {
                    continue;
                }
                match self.finish_gather(net, hub_host, hub_db, obs, &g, st, &mut run.frags[i]) {
                    Err(e) => run.outcome = Some(Err(e)),
                    Ok(rows) => {
                        run.leg_rows[i] = Some(rows);
                        if (0..run.leg_rows.len()).all(|l| run.done(l)) {
                            run.outcome = Some(self.complete(hub_db, obs, run, net.now()));
                        }
                    }
                }
            }
        }
    }

    /// Leg `i`'s work order: its scan request — keyed by its source
    /// leg's join-key set when the planner found an equi-join binding —
    /// and, for a JOIN, its `join leg` report line.
    fn work_order<'p>(
        &self,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        run: &mut Run<'p, '_>,
        i: usize,
    ) -> Result<TableGather<'p>, FedError> {
        let stmt = run.stmt;
        let leg = &stmt.plan.legs[i];
        let ft = stmt.tables[i].ok_or_else(|| FedError::UnknownTable(leg.table.clone()))?;
        let mut request = stmt.scan_request(i, ft)?;
        let mut skip_all = false;
        let strategy = match &leg.strategy {
            LegStrategy::SemiJoin {
                key_column,
                source_leg,
                source_column,
            } => {
                let keys = join_keys(
                    hub_db,
                    &stmt.plan.legs[*source_leg],
                    run.leg_rows[*source_leg].as_ref(),
                    source_column,
                )?;
                let n = keys.len();
                if n > self.semijoin_max_keys {
                    // The IN-list would dominate the request frame:
                    // degrade to a full-partition ship.
                    SEMIJOIN_FALLBACKS.add(obs, "overflow", 1);
                    JoinStrategy::FullShip {
                        reason: format!(
                            "key list ({n} keys) exceeds the {}-key ship bound",
                            self.semijoin_max_keys
                        ),
                    }
                } else {
                    // No non-NULL key on the source side ⇒ no row of
                    // this leg can join: skip its partitions outright.
                    skip_all = keys.is_empty();
                    SEMIJOIN_KEYS_SHIPPED.add(obs, &ft.name, n as u64);
                    if !skip_all {
                        request.key_filter = Some((key_column.clone(), keys));
                    }
                    JoinStrategy::SemiJoin {
                        key_column: key_column.clone(),
                        keys: Some(n as u64),
                    }
                }
            }
            planned => {
                if let LegStrategy::FullShip { reason } = planned {
                    let why = if reason.contains("pushdown disabled") {
                        "pushdown-off"
                    } else {
                        "no-key"
                    };
                    SEMIJOIN_FALLBACKS.add(obs, why, 1);
                }
                JoinStrategy::from(planned)
            }
        };
        if stmt.is_join() {
            run.frags[i].joins.push(JoinExplain::of(leg, strategy));
        }
        Ok(TableGather {
            ft,
            columns: &leg.columns,
            request,
            shipping: stmt.shipping(i),
            skip_all,
        })
    }

    /// Every leg is in: splice the report, run the hub merge — partial
    /// aggregates combine their shipped states, everything else runs
    /// the original statement over the gathered legs (hub-local legs
    /// read in place) — and record the statement's metrics and span.
    fn complete(
        &self,
        hub_db: &Database,
        obs: Option<&Obs>,
        run: &mut Run<'_, '_>,
        now: f64,
    ) -> Result<QueryRecords, FedError> {
        let stmt = run.stmt;
        let mut explain = FedExplain {
            table: stmt.plan.legs[0].table.clone(),
            ..FedExplain::default()
        };
        for frag in std::mem::take(&mut run.frags) {
            explain.joins.extend(frag.joins);
            explain.sites.extend(frag.sites);
            for s in frag.skipped {
                if !explain.skipped.contains(&s) {
                    explain.skipped.push(s);
                }
            }
            explain.stale.extend(frag.stale);
        }
        let pushed: usize = stmt.plan.legs.iter().map(|l| l.pushed.len()).sum();
        PUSHDOWN_CONJUNCTS.add(obs, "pushed", pushed as u64);
        PUSHDOWN_CONJUNCTS.add(obs, "hub", stmt.plan.hub_eval.len() as u64);

        let mut rows = Records::default();
        let mut each = |record: &[u8]| rows.push_bytes(record);
        let columns = match (&stmt.plan.partial_agg, stmt.tables[0]) {
            (Some(agg), Some(ft)) => {
                let states = run.leg_rows[0].take().unwrap_or_default();
                let partial_rows = states.len() as u64;
                let (sel, params) = (&stmt.sel, stmt.params);
                let columns = merge_partial_agg(hub_db, sel, ft, agg, params, &states, &mut each)?;
                explain.agg = stmt.agg_explain(&explain.sites, partial_rows, rows.len() as u64);
                PARTIAL_AGG_QUERIES.add(obs, &ft.name, 1);
                columns
            }
            _ => {
                if let Some(reason) = stmt.plan.agg_fallback {
                    explain.agg = stmt.agg_explain(&explain.sites, 0, 0);
                    PARTIAL_AGG_FALLBACKS.add(obs, reason, 1);
                }
                let legs = stmt
                    .plan
                    .legs
                    .iter()
                    .zip(std::mem::take(&mut run.leg_rows))
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
                merge(hub_db, &stmt.sel, stmt.params, legs, &mut each)?
            }
        };

        if let Some(o) = obs {
            let mut attrs = vec![("table", explain.table.clone())];
            if stmt.is_join() {
                attrs.push(("join_legs", stmt.plan.legs.len().to_string()));
            }
            attrs.extend([
                ("rows_shipped", explain.rows_shipped().to_string()),
                ("bytes_wire", explain.bytes_wire().to_string()),
                ("skipped", explain.skipped.len().to_string()),
            ]);
            o.tracer.record("easia.med.query", run.t0, now, &attrs);
        }
        Ok(QueryRecords {
            columns,
            rows,
            explain,
        })
    }
}

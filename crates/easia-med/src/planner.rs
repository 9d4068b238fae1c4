//! The hub-side distributed planner — one of them.
//!
//! A federated SELECT is a list of table *legs*: the FROM table and
//! each JOINed one. [`plan_join`] decides, per leg, which conjuncts run
//! at the sites (predicate pushdown), which columns cross the wire
//! (projection pushdown), which partitions a site-key binding lets us
//! skip (partition pruning) and how a joined leg is fetched (semi-join
//! key shipping). A single-table statement is its one-leg case — the
//! only one that may also cut a top-k at the sites or decompose its
//! aggregates into site-local partials — and [`plan_select`] is that
//! case in the shape single-table callers read.
//!
//! Which leg a column reference belongs to is never decided here: the
//! planner binds the statement against the joined row the hub merge
//! will evaluate it over — each leg's columns under its binding alias —
//! with the executor's own binder ([`BoundSelect`]), and reads the legs
//! off the bound slots. A name that row does not resolve, or resolves
//! twice, is the statement's error before anything ships; a conjunct
//! runs at a leg's sites exactly when every slot it reads is that leg's.
//!
//! Correctness story: the hub runs the *original* statement over
//! in-memory relations holding the shipped rows, so pushdown only ever
//! removes rows/columns that provably cannot influence the result —
//! pushed conjuncts are row-local filters (evaluating them twice is
//! idempotent), the shipped projection includes every column the
//! statement mentions, and ORDER BY/LIMIT is only pushed when the
//! hub's final sort-and-cut over the union reproduces it.

use crate::catalog::{FedCatalog, ForeignTable};
use crate::wire::{AggCall, PartialAggSpec};
use crate::FedError;
use easia_db::exec::{aggregates, derive_name, BoundSelect};
use easia_db::expr::{Bound, FnRegistry};
use easia_db::sql::ast::{
    is_aggregate_fn, BinaryOp, Expr, JoinKind, OrderBy, SelectItem, SelectStmt, TableRef,
};
use easia_db::sql::expr_to_sql;
use easia_db::{plan, Value};
use std::collections::BTreeSet;

/// How one original aggregate call site finishes from the merged
/// partial states (indexes are positions in [`AggPlan::calls`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finisher {
    /// `COUNT(*)` / `COUNT(col)`: sum the shipped per-site counts.
    Count {
        /// Position of the COUNT partial in the shipped calls.
        idx: usize,
    },
    /// `SUM(col)`: merge partials with the same i64-overflow promotion
    /// to DOUBLE the site-local aggregate applies.
    Sum {
        /// Position of the SUM partial in the shipped calls.
        idx: usize,
    },
    /// `AVG(col)`: exact ratio of the merged SUM and COUNT partials.
    Avg {
        /// Position of the SUM partial in the shipped calls.
        sum_idx: usize,
        /// Position of the non-NULL COUNT partial in the shipped calls.
        count_idx: usize,
    },
    /// `MIN(col)`: least shipped partial under the SQL total order.
    Min {
        /// Position of the MIN partial in the shipped calls.
        idx: usize,
    },
    /// `MAX(col)`: greatest shipped partial under the SQL total order.
    Max {
        /// Position of the MAX partial in the shipped calls.
        idx: usize,
    },
}

/// The decomposition of an aggregate statement into site-local partial
/// aggregates plus a hub-side merge: each site ships one partial-state
/// row per group instead of its raw rows.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Bare grouping columns (upper-case), in GROUP BY order.
    pub group_cols: Vec<String>,
    /// Deduplicated partial calls each site computes locally.
    pub calls: Vec<AggCall>,
    /// One finisher per original aggregate call site, in discovery
    /// order (items, HAVING, ORDER BY) — the order
    /// `exec::finish_groups` expects the finished values in.
    pub finishers: Vec<Finisher>,
}

impl AggPlan {
    /// The wire form of this plan's site-side work.
    pub fn spec(&self) -> PartialAggSpec {
        PartialAggSpec {
            group_by: self.group_cols.clone(),
            calls: self.calls.clone(),
        }
    }
}

/// The per-table federation plan: a one-leg [`JoinPlan`] flattened.
#[derive(Debug, Clone)]
pub struct TablePlan {
    /// Conjuncts evaluated at the sites (original form, for display).
    pub pushed: Vec<Expr>,
    /// Conjuncts only the hub can evaluate.
    pub hub_eval: Vec<Expr>,
    /// Shipped columns, in foreign-schema order. Never empty.
    pub columns: Vec<String>,
    /// Pushed top-k: `(order keys, limit)` when sites may cut early.
    pub order_limit: Option<(Vec<(String, bool)>, usize)>,
    /// The site-key value bound by a pushed equality conjunct, when one
    /// exists — the pruning handle.
    pub site_key_value: Option<Value>,
    /// Partial-aggregate pushdown decomposition, when the statement
    /// aggregates and every shape is decomposable.
    pub partial_agg: Option<AggPlan>,
    /// Why an aggregate statement declined partial pushdown (ships raw
    /// rows and re-aggregates at the hub instead). `None` for
    /// non-aggregate statements or when `partial_agg` is set.
    pub agg_fallback: Option<&'static str>,
}

impl TablePlan {
    /// Pushed conjuncts rendered as SQL (for EXPLAIN).
    pub fn pushed_sql(&self) -> Vec<String> {
        self.pushed.iter().map(expr_to_sql).collect()
    }

    /// Hub-evaluated conjuncts rendered as SQL (for EXPLAIN).
    pub fn hub_sql(&self) -> Vec<String> {
        self.hub_eval.iter().map(expr_to_sql).collect()
    }
}

/// Plan single-table `sel` against foreign table `ft`, pushdown on: the
/// one-leg case of [`plan_join`] with `ft` as the whole catalogue, and
/// bound, as there, with the built-in scalar functions.
///
/// `params` are the statement's positional parameters — needed to
/// resolve a `site_key = ?` binding for pruning.
pub fn plan_select(
    sel: &SelectStmt,
    ft: &ForeignTable,
    params: &[Value],
) -> Result<TablePlan, FedError> {
    if !sel.joins.is_empty() {
        return Err(FedError::Unsupported(
            "JOIN over a foreign table is not federated".into(),
        ));
    }
    let only = |t: &str| (t == ft.name).then_some(ft);
    let functions = FnRegistry::with_builtins();
    let mut plan = plan_legs(sel, &only, &|_| None, &functions, params, true)?;
    let leg = plan.legs.pop().expect("no JOIN, one leg");
    Ok(TablePlan {
        pushed: leg.pushed,
        hub_eval: plan.hub_eval,
        columns: leg.columns,
        order_limit: plan.order_limit,
        site_key_value: leg.site_key_value,
        partial_agg: plan.partial_agg,
        agg_fallback: plan.agg_fallback,
    })
}

/// How one leg of a federated statement fetches its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum LegStrategy {
    /// Hub-local table: the merge join reads it in place.
    Local,
    /// Deliberate full gather: the FROM anchor always scans its
    /// surviving partitions (pushed conjuncts and pruning still apply).
    Gather,
    /// Keyed remote scan (semi-join shipping): the hub extracts the
    /// bound join-key set from an earlier leg and ships it with the
    /// scan request, so sites return only rows that can match.
    SemiJoin {
        /// Column of this leg restricted by the shipped key list.
        key_column: String,
        /// Index of the earlier leg whose rows supply the keys.
        source_leg: usize,
        /// Column of the source leg whose values form the key set.
        source_column: String,
    },
    /// Full-partition ship, with the reason recorded for EXPLAIN.
    FullShip {
        /// Why keys could not be shipped for this leg.
        reason: String,
    },
}

/// One table term of a federated statement: the FROM anchor (index 0)
/// or a joined table, with its fetch strategy and pushdown decisions.
#[derive(Debug, Clone)]
pub struct JoinLeg {
    /// Table name (upper-case).
    pub table: String,
    /// Binding alias (upper-case; the table name when unaliased).
    pub alias: String,
    /// `None` for the FROM anchor, the join kind otherwise.
    pub kind: Option<JoinKind>,
    /// Is this leg a registered foreign table?
    pub federated: bool,
    /// Shipped projection for federated legs (foreign-schema order,
    /// never empty); the full known column list for local legs.
    pub columns: Vec<String>,
    /// Conjuncts evaluated at the sites for this leg (original form).
    pub pushed: Vec<Expr>,
    /// Site-key value bound by a *pushed* conjunct — the pruning
    /// handle. Derived only from pushed conjuncts so pruning inherits
    /// their soundness (a LEFT leg never prunes on a WHERE binding).
    pub site_key_value: Option<Value>,
    /// How the leg's rows reach the hub.
    pub strategy: LegStrategy,
}

impl JoinLeg {
    /// Pushed conjuncts rendered as SQL (for EXPLAIN).
    pub fn pushed_sql(&self) -> Vec<String> {
        self.pushed.iter().map(expr_to_sql).collect()
    }
}

/// The whole-statement plan: its legs (one for a single-table
/// statement) and what stays at the hub.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Table legs in statement order (FROM anchor first).
    pub legs: Vec<JoinLeg>,
    /// WHERE conjuncts that only the hub evaluates (for EXPLAIN; the
    /// merge re-runs the full original statement regardless).
    pub hub_eval: Vec<Expr>,
    /// Pushed top-k: `(order keys, limit)` when sites may cut early.
    /// One-leg statements only.
    pub order_limit: Option<(Vec<(String, bool)>, usize)>,
    /// Partial-aggregate decomposition. One-leg statements only.
    pub partial_agg: Option<AggPlan>,
    /// Why a one-leg aggregate statement ships raw rows instead
    /// (`"disabled"` under the `pushdown = false` ablation).
    pub agg_fallback: Option<&'static str>,
}

impl JoinPlan {
    /// Hub-evaluated conjuncts rendered as SQL (for EXPLAIN).
    pub fn hub_sql(&self) -> Vec<String> {
        self.hub_eval.iter().map(expr_to_sql).collect()
    }
}

/// Structural checks every federated statement passes first, pushdown
/// on or off: a FROM table, and no binding alias used twice.
pub fn validate_join(sel: &SelectStmt) -> Result<(), FedError> {
    let Some(from) = &sel.from else {
        return Err(FedError::Unsupported(
            "a federated SELECT requires a FROM table".into(),
        ));
    };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for t in std::iter::once(from).chain(sel.joins.iter().map(|j| &j.table)) {
        let label = binding_name(t);
        if !seen.insert(label.clone()) {
            return Err(FedError::Unsupported(format!(
                "duplicate table alias {label} in federated JOIN"
            )));
        }
    }
    Ok(())
}

/// The upper-case name a table term binds in the statement.
fn binding_name(t: &TableRef) -> String {
    t.alias
        .as_deref()
        .unwrap_or(t.name.as_str())
        .to_ascii_uppercase()
}

/// Decompose a SELECT into per-leg federated scans plus a hub merge.
///
/// `local_columns` resolves hub-local table names to their column
/// lists, so a JOIN may mix foreign and hub-local legs; at least one
/// leg must be a registered foreign table. `pushdown = false` is the
/// ship-everything ablation: nothing is pushed, pruned, keyed or cut.
/// The statement is bound with the built-in scalar functions; the
/// federation binds with its hub database's.
///
/// Soundness rules encoded here (the hub re-runs the original
/// statement over the gathered rows, so a site may only drop rows that
/// provably cannot change the merged result):
///
/// * WHERE conjuncts push only to non-nullable legs — the anchor and
///   INNER-joined legs. A LEFT-joined leg never receives WHERE pushes:
///   dropping its rows at the site turns "row present but filtered"
///   into "row absent", which *creates* a NULL-extended row (e.g.
///   `WHERE b.x IS NULL` would flip from false to true).
/// * ON conjuncts referencing only the joined leg push for both join
///   kinds: a row failing the conjunct and a row absent from the site
///   result both yield "no match", which INNER and LEFT treat
///   identically.
/// * Semi-join keys for a leg come from an earlier leg's *gathered*
///   rows (a superset of the rows that survive the hub merge), or a
///   full hub column scan for local legs — never from a post-filter
///   set. NULL keys are excluded: under three-valued `=` they can
///   never match.
/// * A site-key binding prunes only when it comes from a *pushed*
///   conjunct, so pruning inherits the rules above.
pub fn plan_join(
    sel: &SelectStmt,
    catalog: &FedCatalog,
    local_columns: &dyn Fn(&str) -> Option<Vec<String>>,
    params: &[Value],
    pushdown: bool,
) -> Result<JoinPlan, FedError> {
    let functions = FnRegistry::with_builtins();
    let foreign = |t: &str| catalog.table(t);
    plan_legs(sel, &foreign, local_columns, &functions, params, pushdown)
}

/// [`plan_join`] over any source of foreign tables, binding with
/// `functions`.
pub(crate) fn plan_legs<'c>(
    sel: &SelectStmt,
    foreign: &dyn Fn(&str) -> Option<&'c ForeignTable>,
    local_columns: &dyn Fn(&str) -> Option<Vec<String>>,
    functions: &FnRegistry,
    params: &[Value],
    pushdown: bool,
) -> Result<JoinPlan, FedError> {
    validate_join(sel)?;
    let from = sel.from.as_ref().expect("validate_join checked FROM");
    let terms =
        std::iter::once((from, None)).chain(sel.joins.iter().map(|j| (&j.table, Some(j.kind))));

    // 1. Legs with their full column lists.
    let mut legs: Vec<JoinLeg> = Vec::with_capacity(sel.joins.len() + 1);
    let mut site_keys = Vec::with_capacity(legs.capacity());
    for (tref, kind) in terms {
        let table = tref.name.to_ascii_uppercase();
        let ft = foreign(&table);
        let columns: Vec<String> = match ft {
            Some(ft) => ft.columns.iter().map(|(c, _)| c.clone()).collect(),
            // A hub-local table is a leg only beside others in a JOIN.
            None => match local_columns(&table).filter(|_| !sel.joins.is_empty()) {
                Some(cols) => cols.iter().map(|c| c.to_ascii_uppercase()).collect(),
                None => return Err(FedError::UnknownTable(table)),
            },
        };
        legs.push(JoinLeg {
            table,
            alias: binding_name(tref),
            kind,
            federated: ft.is_some(),
            columns,
            pushed: Vec::new(),
            site_key_value: None,
            strategy: match (ft, kind) {
                (None, _) => LegStrategy::Local,
                (Some(_), None) => LegStrategy::Gather,
                (Some(_), Some(_)) => LegStrategy::FullShip {
                    reason: if pushdown {
                        "no equi-join key binds this leg to an earlier one".into()
                    } else {
                        "pushdown disabled".into()
                    },
                },
            },
        });
        site_keys.push(ft.and_then(|ft| ft.site_key.as_deref()));
    }
    if !legs.iter().any(|l| l.federated) {
        return Err(FedError::Unsupported(
            "JOIN has no foreign-table leg to federate".into(),
        ));
    }

    // 2. Bind the statement against the joined row the merge evaluates:
    // a name it does not resolve, or resolves to two legs' columns, is
    // the merge's own error, raised here before anything ships.
    let columns: Vec<&[String]> = legs.iter().map(|l| l.columns.as_slice()).collect();
    let bound = BoundSelect::bind(functions, sel, &columns, &[])?;
    let starts: Vec<usize> = columns
        .iter()
        .scan(0, |at, c| Some(std::mem::replace(at, *at + c.len())))
        .collect();
    let leg_of = |slot: usize| starts.partition_point(|&s| s <= slot) - 1;
    // The leg whose sites could evaluate conjunct `c` (bound as `b`)
    // unchanged: every slot it reads is that leg's. A conjunct reading
    // no slot is the FROM anchor's (an anchor row it drops produces no
    // output row under INNER and LEFT alike). Function calls stay at the
    // hub — sites only promise the core expression grammar — as does
    // anything spanning legs.
    let conjunct_leg = |c: &Expr, b: &Bound| {
        let mut call = false;
        c.walk(&mut |n| call |= matches!(n, Expr::Function { .. }));
        let mut read = vec![false; bound.read.len()];
        b.reads(&mut read);
        let mut holders = (0..read.len()).filter(|&s| read[s]).map(leg_of);
        let leg = holders.next().unwrap_or(0);
        (!call && holders.all(|l| l == leg)).then_some(leg)
    };

    // 3. WHERE conjuncts: push to non-nullable federated legs.
    let mut hub_eval = Vec::new();
    if let (Some(w), Some(b)) = (&sel.where_clause, &bound.filter) {
        for (c, b) in plan::conjuncts(w).into_iter().zip(plan::bound_conjuncts(b)) {
            let target = conjunct_leg(c, b)
                .filter(|&i| pushdown && legs[i].federated && legs[i].kind != Some(JoinKind::Left));
            match target {
                Some(i) => legs[i].pushed.push(c.clone()),
                None => hub_eval.push(c.clone()),
            }
        }
    }

    // 4. ON conjuncts: push single-leg filters, and key the leg on the
    // first `its column = an earlier leg's column` (both columns are
    // already shipped: the statement reads them).
    for (i, (join, on)) in sel.joins.iter().zip(&bound.ons).enumerate() {
        let i = i + 1;
        if !(pushdown && legs[i].federated) {
            continue;
        }
        for (c, b) in plan::conjuncts(&join.on)
            .into_iter()
            .zip(plan::bound_conjuncts(on))
        {
            if conjunct_leg(c, b) == Some(i) {
                legs[i].pushed.push(c.clone());
                continue;
            }
            let Bound::Binary(l, BinaryOp::Eq, r) = b else {
                continue;
            };
            let (&Bound::Slot(l), &Bound::Slot(r)) = (&**l, &**r) else {
                continue;
            };
            let (key, source) = if leg_of(l) == i { (l, r) } else { (r, l) };
            if leg_of(key) == i
                && leg_of(source) < i
                && matches!(legs[i].strategy, LegStrategy::FullShip { .. })
            {
                let name = |slot: usize| bound.schema.columns[slot].name.clone();
                legs[i].strategy = LegStrategy::SemiJoin {
                    key_column: name(key),
                    source_leg: leg_of(source),
                    source_column: name(source),
                };
            }
        }
    }

    // 5. Shipped projections — the slots the statement reads; never
    // none: row counts must survive, e.g. `SELECT COUNT(*)` — and
    // site-key bindings, the pruning handle, read off the *pushed*
    // conjuncts only. The single-table ablation is E10's
    // ship-everything baseline; a JOIN's (E12) switches off conjunct
    // and key shipping only.
    let ship_all = !pushdown && legs.len() == 1;
    for (i, leg) in legs.iter_mut().enumerate() {
        if !leg.federated {
            continue;
        }
        if !ship_all {
            let first = leg.columns[0].clone();
            let mut read = bound.read[starts[i]..].iter();
            leg.columns.retain(|_| read.next() == Some(&true));
            if leg.columns.is_empty() {
                leg.columns.push(first);
            }
        }
        if let Some(key) = site_keys[i] {
            leg.site_key_value = leg.pushed.iter().find_map(|c| key_equality(c, key, params));
        }
    }

    // 6. The one-leg extras: under JOIN legs they stay deferred. Top-k
    // is sound only for a plain filter-project whose every conjunct
    // runs at the sites and whose sort keys are shipped columns.
    let one_leg = legs.len() == 1;
    let agg = if one_leg {
        plan_partial_agg(sel, hub_eval.is_empty())
    } else {
        Ok(None)
    };
    let plain = one_leg && matches!(agg, Ok(None)) && !sel.distinct && sel.having.is_none();
    let order_limit = sel
        .limit
        .filter(|_| pushdown && plain && hub_eval.is_empty())
        .and_then(|n| Some((order_keys(sel)?, n)));
    let (partial_agg, agg_fallback) = match agg {
        Ok(None) => (None, None),
        Ok(agg) if pushdown => (agg, None),
        Err(reason) if pushdown => (None, Some(reason)),
        _ => (None, Some("disabled")),
    };

    Ok(JoinPlan {
        legs,
        hub_eval,
        order_limit,
        partial_agg,
        agg_fallback,
    })
}

/// Decompose an aggregate statement into site-local partial aggregates.
///
/// Returns `Ok(None)` for non-aggregate statements, `Ok(Some(plan))`
/// when every shape decomposes exactly, and `Err(reason)` when the
/// statement aggregates but must fall back to shipping raw rows
/// (DISTINCT, expression arguments, hub-only conjuncts, computed group
/// keys, or non-grouped column references). The statement has one leg
/// and every column reference in it is already known to be that leg's.
fn plan_partial_agg(
    sel: &SelectStmt,
    hub_eval_empty: bool,
) -> Result<Option<AggPlan>, &'static str> {
    // Aggregate call sites, in the local executor's discovery order.
    let aggs = aggregates(sel);
    if aggs.is_empty() && sel.group_by.is_empty() {
        return Ok(None); // not an aggregate statement
    }
    if sel.distinct {
        return Err("distinct");
    }
    if !hub_eval_empty {
        // A hub-only conjunct filters rows *after* the site would have
        // aggregated them — partials would be computed over the wrong
        // row set.
        return Err("hub-conjunct");
    }

    // Every GROUP BY key must be a bare table column: the key is
    // shipped verbatim and merged by value.
    let mut group_cols = Vec::with_capacity(sel.group_by.len());
    for g in &sel.group_by {
        match g {
            Expr::Column { name, .. } => {
                // A repeated key groups no finer: ship it once.
                let key = name.to_ascii_uppercase();
                if !group_cols.contains(&key) {
                    group_cols.push(key);
                }
            }
            _ => return Err("group-expr"),
        }
    }

    // Every aggregate must be COUNT(*) or f(bare column).
    let mut calls: Vec<AggCall> = Vec::new();
    let call_idx = |calls: &mut Vec<AggCall>, c: AggCall| -> usize {
        match calls.iter().position(|x| *x == c) {
            Some(i) => i,
            None => {
                calls.push(c);
                calls.len() - 1
            }
        }
    };
    let mut finishers = Vec::with_capacity(aggs.len());
    for agg in &aggs {
        let Expr::Function { name, args, star } = agg else {
            return Err("expr-arg");
        };
        let finisher = if *star {
            if name != "COUNT" {
                return Err("expr-arg");
            }
            Finisher::Count {
                idx: call_idx(&mut calls, AggCall::CountStar),
            }
        } else {
            let col = match args.as_slice() {
                [Expr::Column { name: c, .. }] => c.to_ascii_uppercase(),
                _ => return Err("expr-arg"),
            };
            match name.as_str() {
                "COUNT" => Finisher::Count {
                    idx: call_idx(&mut calls, AggCall::Count(col)),
                },
                "SUM" => Finisher::Sum {
                    idx: call_idx(&mut calls, AggCall::Sum(col)),
                },
                "AVG" => Finisher::Avg {
                    sum_idx: call_idx(&mut calls, AggCall::Sum(col.clone())),
                    count_idx: call_idx(&mut calls, AggCall::Count(col)),
                },
                "MIN" => Finisher::Min {
                    idx: call_idx(&mut calls, AggCall::Min(col)),
                },
                "MAX" => Finisher::Max {
                    idx: call_idx(&mut calls, AggCall::Max(col)),
                },
                _ => return Err("expr-arg"),
            }
        };
        finishers.push(finisher);
    }

    // Outside the aggregates, only grouped columns may appear — any
    // other reference reads per-row state the partials no longer carry.
    let grouped = |name: &str| group_cols.iter().any(|g| g.eq_ignore_ascii_case(name));
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            if !non_agg_cols_grouped(expr, &grouped) {
                return Err("non-group-column");
            }
        }
    }
    if let Some(h) = &sel.having {
        if !non_agg_cols_grouped(h, &grouped) {
            return Err("non-group-column");
        }
    }
    for ob in &sel.order_by {
        // An output name sorts by output position at the hub; anything
        // else must be grouped.
        if output_item(sel, &ob.expr).is_none() && !non_agg_cols_grouped(&ob.expr, &grouped) {
            return Err("non-group-column");
        }
    }

    Ok(Some(AggPlan {
        group_cols,
        calls,
        finishers,
    }))
}

/// True when every column reference *outside* aggregate calls
/// satisfies `grouped`.
fn non_agg_cols_grouped(e: &Expr, grouped: &dyn Fn(&str) -> bool) -> bool {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            return true; // aggregate arguments are checked separately
        }
    }
    match e {
        Expr::Column { name, .. } => grouped(name),
        Expr::Unary(_, inner) => non_agg_cols_grouped(inner, grouped),
        Expr::Binary(l, _, r) => {
            non_agg_cols_grouped(l, grouped) && non_agg_cols_grouped(r, grouped)
        }
        Expr::IsNull { expr, .. } => non_agg_cols_grouped(expr, grouped),
        Expr::Like { expr, pattern, .. } => {
            non_agg_cols_grouped(expr, grouped) && non_agg_cols_grouped(pattern, grouped)
        }
        Expr::InList { expr, list, .. } => {
            non_agg_cols_grouped(expr, grouped)
                && list.iter().all(|i| non_agg_cols_grouped(i, grouped))
        }
        Expr::Between { expr, lo, hi, .. } => {
            non_agg_cols_grouped(expr, grouped)
                && non_agg_cols_grouped(lo, grouped)
                && non_agg_cols_grouped(hi, grouped)
        }
        Expr::Function { args, .. } => args.iter().all(|a| non_agg_cols_grouped(a, grouped)),
        _ => true,
    }
}

/// The select item an ORDER BY key names, under the executor's
/// alias-first rule (`easia_db::exec`'s `order_key`): an unqualified
/// name equal to an item's output name sorts by that output column and
/// is not a column reference at all.
fn output_item<'a>(sel: &'a SelectStmt, key: &Expr) -> Option<&'a Expr> {
    let Expr::Column { table: None, name } = key else {
        return None;
    };
    sel.items.iter().find_map(|item| match item {
        SelectItem::Expr { expr, alias } => alias
            .clone()
            .unwrap_or_else(|| derive_name(expr))
            .eq_ignore_ascii_case(name)
            .then_some(expr),
        _ => None,
    })
}

/// ORDER BY keys as `(column, asc)` pairs if every key is a plain
/// column of the statement's one leg (possibly qualified); `None`
/// otherwise. A key that names an output column counts only when that
/// item is the same-named column itself — the hub sorts by the item,
/// not by the name. An empty ORDER BY is fine: a bare LIMIT still
/// pushes.
fn order_keys(sel: &SelectStmt) -> Option<Vec<(String, bool)>> {
    let key = |o: &OrderBy| {
        let Expr::Column { name, .. } = &o.expr else {
            return None;
        };
        let itself = match output_item(sel, &o.expr) {
            Some(Expr::Column { name: item, .. }) => item.eq_ignore_ascii_case(name),
            Some(_) => false,
            None => true,
        };
        itself.then(|| (name.to_ascii_uppercase(), o.asc))
    };
    sel.order_by.iter().map(key).collect()
}

/// Match `key = <const>` (either orientation) in a conjunct already
/// attributed to the leg whose site key `key` is, and resolve the
/// constant, looking through parameters.
fn key_equality(e: &Expr, key: &str, params: &[Value]) -> Option<Value> {
    let Expr::Binary(l, BinaryOp::Eq, r) = e else {
        return None;
    };
    let is_key =
        |side: &Expr| matches!(side, Expr::Column { name, .. } if name.eq_ignore_ascii_case(key));
    let as_const = |side: &Expr| match side {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Param(i) => params.get(i.checked_sub(1)?).cloned(),
        _ => None,
    };
    if is_key(l) {
        as_const(r)
    } else if is_key(r) {
        as_const(l)
    } else {
        None
    }
}

/// Clone `e` with every literal and parameter replaced by a fresh
/// positional parameter, appending the value to `out` in appearance
/// order — the shipped predicate text then carries no data values.
pub fn externalize(e: &Expr, params: &[Value], out: &mut Vec<Value>) -> Result<Expr, FedError> {
    let push = |v: Value, out: &mut Vec<Value>| {
        out.push(v);
        Expr::Param(out.len())
    };
    Ok(match e {
        Expr::Literal(v) => push(v.clone(), out),
        Expr::Param(i) => {
            let v = params
                .get(
                    i.checked_sub(1)
                        .ok_or_else(|| FedError::Unsupported("parameter index 0".into()))?,
                )
                .cloned()
                .ok_or_else(|| FedError::Unsupported(format!("missing parameter ?{i}")))?;
            push(v, out)
        }
        Expr::Column { .. } => e.clone(),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(externalize(inner, params, out)?)),
        Expr::Binary(l, op, r) => Expr::Binary(
            Box::new(externalize(l, params, out)?),
            *op,
            Box::new(externalize(r, params, out)?),
        ),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(externalize(expr, params, out)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(externalize(expr, params, out)?),
            pattern: Box::new(externalize(pattern, params, out)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(externalize(expr, params, out)?),
            list: list
                .iter()
                .map(|x| externalize(x, params, out))
                .collect::<Result<Vec<_>, _>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(externalize(expr, params, out)?),
            lo: Box::new(externalize(lo, params, out)?),
            hi: Box::new(externalize(hi, params, out)?),
            negated: *negated,
        },
        Expr::Function { .. } => {
            return Err(FedError::Unsupported(
                "function calls cannot be pushed to a site".into(),
            ))
        }
    })
}

/// Clone `e` with every column qualifier removed. Pushed predicates
/// ship qualifier-free: the site executes a single-table scan, where
/// the hub-side alias would not resolve, and every column in a pushed
/// conjunct is already known to belong to that one table.
pub fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column { name, .. } => Expr::Column {
            table: None,
            name: name.clone(),
        },
        Expr::Literal(_) | Expr::Param(_) => e.clone(),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(strip_qualifiers(inner))),
        Expr::Binary(l, op, r) => Expr::Binary(
            Box::new(strip_qualifiers(l)),
            *op,
            Box::new(strip_qualifiers(r)),
        ),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(strip_qualifiers(expr)),
            pattern: Box::new(strip_qualifiers(pattern)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_qualifiers(expr)),
            lo: Box::new(strip_qualifiers(lo)),
            hi: Box::new(strip_qualifiers(hi)),
            negated: *negated,
        },
        Expr::Function { name, args, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(strip_qualifiers).collect(),
            star: *star,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FedCatalog, Partition};
    use easia_db::sql::{parse, Stmt};
    use easia_db::SqlType;

    fn ft() -> ForeignTable {
        let mut c = FedCatalog::default();
        c.create_foreign_table(
            "SIM",
            vec![
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("N".into(), SqlType::Integer),
                ("X".into(), SqlType::Double),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c.table("SIM").unwrap().clone()
    }

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            other => panic!("expected select: {other:?}"),
        }
    }

    #[test]
    fn splits_pushed_and_hub_conjuncts() {
        let s = sel("SELECT K FROM SIM WHERE N > 3 AND UPPER(K) = 'A' AND SITE = 'cam'");
        let p = plan_select(&s, &ft(), &[]).unwrap();
        assert_eq!(p.pushed_sql(), vec!["(N > 3)", "(SITE = 'cam')"]);
        assert_eq!(p.hub_sql(), vec!["(UPPER(K) = 'A')"]);
        assert_eq!(p.site_key_value, Some(Value::Str("cam".into())));
        // Hub conjunct mentions K; pushed mentions N and SITE.
        assert_eq!(p.columns, vec!["K", "SITE", "N"]);
    }

    #[test]
    fn projection_pushdown_and_fallbacks() {
        let p = plan_select(&sel("SELECT N FROM SIM"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["N"]);
        let p = plan_select(&sel("SELECT * FROM SIM WHERE N = 1"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["K", "SITE", "N", "X"]);
        let p = plan_select(&sel("SELECT COUNT(*) FROM SIM"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["K"], "row-count still ships one column");
        assert!(plan_select(&sel("SELECT GHOST FROM SIM"), &ft(), &[]).is_err());
    }

    #[test]
    fn topk_pushdown_rules() {
        let p = plan_select(
            &sel("SELECT K, N FROM SIM WHERE N > 0 ORDER BY N DESC LIMIT 5"),
            &ft(),
            &[],
        )
        .unwrap();
        assert_eq!(p.order_limit, Some((vec![("N".into(), false)], 5)));
        // A hub-evaluated conjunct blocks the cut.
        let p = plan_select(
            &sel("SELECT K FROM SIM WHERE UPPER(K) = 'A' ORDER BY K LIMIT 5"),
            &ft(),
            &[],
        )
        .unwrap();
        assert_eq!(p.order_limit, None);
        // Aggregates block it too.
        let p = plan_select(&sel("SELECT MAX(N) FROM SIM LIMIT 1"), &ft(), &[]).unwrap();
        assert_eq!(p.order_limit, None);
        // Bare LIMIT without ORDER BY pushes.
        let p = plan_select(&sel("SELECT K FROM SIM LIMIT 3"), &ft(), &[]).unwrap();
        assert_eq!(p.order_limit, Some((vec![], 3)));
    }

    #[test]
    fn site_key_binding_through_params() {
        let s = sel("SELECT K FROM SIM WHERE SITE = ?");
        let p = plan_select(&s, &ft(), &[Value::Str("cam".into())]).unwrap();
        assert_eq!(p.site_key_value, Some(Value::Str("cam".into())));
        // Non-equality predicates do not bind.
        let s = sel("SELECT K FROM SIM WHERE SITE LIKE 'c%'");
        let p = plan_select(&s, &ft(), &[]).unwrap();
        assert_eq!(p.site_key_value, None);
    }

    #[test]
    fn externalize_strips_values() {
        let s = sel("SELECT K FROM SIM WHERE N BETWEEN 1 AND ? AND K IN ('a', 'b')");
        let conj = s.where_clause.unwrap();
        let mut out = Vec::new();
        let rewritten = externalize(&conj, &[Value::Int(9)], &mut out).unwrap();
        assert_eq!(
            expr_to_sql(&rewritten),
            "((N BETWEEN ? AND ?) AND (K IN (?, ?)))"
        );
        assert_eq!(
            out,
            vec![
                Value::Int(1),
                Value::Int(9),
                Value::Str("a".into()),
                Value::Str("b".into())
            ]
        );
    }

    #[test]
    fn joins_defer_to_the_join_planner() {
        // plan_select stays a single-table entry point; statements with
        // JOINs go through plan_join instead.
        let s = sel("SELECT a.K FROM SIM a JOIN SIM b ON a.K = b.K");
        assert!(matches!(
            plan_select(&s, &ft(), &[]),
            Err(FedError::Unsupported(_))
        ));
    }

    fn join_catalog() -> FedCatalog {
        let mut c = FedCatalog::default();
        c.create_foreign_table(
            "SIM",
            vec![
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("N".into(), SqlType::Integer),
                ("X".into(), SqlType::Double),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c.create_foreign_table(
            "RES",
            vec![
                ("R".into(), SqlType::Varchar(30)),
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("BYTES".into(), SqlType::Integer),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c
    }

    fn no_locals(_: &str) -> Option<Vec<String>> {
        None
    }

    #[test]
    fn join_plan_extracts_semijoin_key() {
        let s = sel("SELECT s.K, r.R FROM SIM s JOIN RES r ON s.K = r.K \
             WHERE s.N > 3 AND r.BYTES > 100 ORDER BY s.K");
        let p = plan_join(&s, &join_catalog(), &no_locals, &[], true).unwrap();
        assert_eq!(p.legs.len(), 2);
        assert!(p.legs[0].federated && p.legs[1].federated);
        // The anchor ships everything the statement mentions plus the
        // key column; the joined leg is keyed on the anchor's K values.
        assert_eq!(
            p.legs[1].strategy,
            LegStrategy::SemiJoin {
                key_column: "K".into(),
                source_leg: 0,
                source_column: "K".into(),
            }
        );
        assert_eq!(p.legs[0].pushed_sql(), vec!["(S.N > 3)"]);
        assert_eq!(p.legs[1].pushed_sql(), vec!["(R.BYTES > 100)"]);
        assert!(p.hub_eval.is_empty());
        assert_eq!(p.legs[0].columns, vec!["K", "N"]);
        assert_eq!(p.legs[1].columns, vec!["R", "K", "BYTES"]);
    }

    #[test]
    fn left_join_blocks_where_push_but_keeps_on_push_and_keys() {
        let s = sel("SELECT s.K FROM SIM s LEFT JOIN RES r \
             ON s.K = r.K AND r.BYTES > 100 WHERE r.R IS NULL");
        let p = plan_join(&s, &join_catalog(), &no_locals, &[], true).unwrap();
        // WHERE on the nullable leg must stay at the hub: dropping RES
        // rows at the site would *create* NULL-extended matches.
        assert_eq!(p.hub_sql(), vec!["(R.R IS NULL)"]);
        // The ON filter on the joined leg itself is still pushable, and
        // the equi-join key still ships.
        assert_eq!(p.legs[1].pushed_sql(), vec!["(R.BYTES > 100)"]);
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::SemiJoin { ref key_column, .. } if key_column == "K"
        ));
    }

    #[test]
    fn join_without_key_or_pushdown_falls_back_to_full_ship() {
        let cat = join_catalog();
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.N > r.BYTES");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::FullShip { ref reason } if reason.contains("no equi-join key")
        ));
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.K = r.K");
        let p = plan_join(&s, &cat, &no_locals, &[], false).unwrap();
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::FullShip { ref reason } if reason.contains("pushdown disabled")
        ));
    }

    #[test]
    fn join_site_key_binding_prunes_only_from_pushed_conjuncts() {
        let cat = join_catalog();
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.K = r.K WHERE s.SITE = 'cam'");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert_eq!(p.legs[0].site_key_value, Some(Value::Str("cam".into())));
        assert_eq!(p.legs[1].site_key_value, None);
        // On a LEFT-joined leg the WHERE binding is not pushed, so it
        // must not prune either.
        let s = sel("SELECT s.K FROM SIM s LEFT JOIN RES r ON s.K = r.K WHERE r.SITE = 'cam'");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert_eq!(p.legs[1].site_key_value, None);
    }

    #[test]
    fn join_validation_shared_error_paths() {
        let cat = join_catalog();
        let s = sel("SELECT a.K FROM SIM a JOIN SIM a ON a.K = a.K");
        let err = plan_join(&s, &cat, &no_locals, &[], true).unwrap_err();
        assert!(
            matches!(&err, FedError::Unsupported(m) if m.contains("duplicate table alias A")),
            "unexpected: {err:?}"
        );
        // validate_join alone yields the identical error — the ablation
        // path reuses it.
        let err2 = validate_join(&s).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));

        let s = sel("SELECT a.K FROM GHOST a JOIN SIM b ON a.K = b.K");
        assert!(matches!(
            plan_join(&s, &cat, &no_locals, &[], true),
            Err(FedError::UnknownTable(t)) if t == "GHOST"
        ));
    }

    #[test]
    fn strip_qualifiers_rewrites_columns_only() {
        let s = sel("SELECT K FROM SIM WHERE (s.N > 3 AND s.K LIKE 'a%') OR s.X IS NULL");
        let w = s.where_clause.unwrap();
        assert_eq!(
            expr_to_sql(&strip_qualifiers(&w)),
            "(((N > 3) AND (K LIKE 'a%')) OR (X IS NULL))"
        );
    }
}

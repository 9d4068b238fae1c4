//! The hub merge: what happens to gathered rows once the pump is done.
//!
//! Nothing here writes to the hub database. Shipped rows are wrapped in
//! in-memory [`Relation`]s and the statement runs over them through
//! [`run_select_over`] against the hub's current read view, so a
//! federated read creates no table, no row version and no WAL record,
//! and works inside an open hub transaction. Partial-aggregate state
//! rows fold into the executor's own [`AggState`] and finish through
//! [`finish_groups`] — the overflow, NULL and ORDER BY rules exist once,
//! in `easia-db`.

use crate::catalog::ForeignTable;
use crate::planner::{AggPlan, Finisher};
use crate::wire::ScanRequest;
use crate::FedError;
use easia_db::exec::{finish_groups, run_select_over, AggState, Relation};
use easia_db::expr::RowSchema;
use easia_db::sql::ast::{SelectStmt, Stmt, TableRef};
use easia_db::sql::parse;
use easia_db::value::encode_key_cell;
use easia_db::{Database, DbError, ResultSet, Value};
use std::collections::HashMap;

/// One gathered table of a statement.
pub(crate) struct Leg<'a> {
    /// Position in FROM/JOIN order (0 = the FROM table).
    pub pos: usize,
    /// The alias the statement knows the table by.
    pub alias: &'a str,
    /// Column names of `rows`.
    pub columns: &'a [String],
    /// The gathered rows.
    pub rows: Vec<Vec<Value>>,
}

/// Run `sel` at the hub with each gathered leg swapped in as an
/// in-memory relation bound under the leg's original alias, so every
/// qualified reference still resolves; tables of `sel` without a leg
/// are hub-local and read in place. The one function that runs a
/// statement over gathered rows.
///
/// DATALINK values arrive as CLOB text: link control stays with the
/// owning site, the hub only sees the URL.
pub(crate) fn merge(
    hub_db: &Database,
    sel: &SelectStmt,
    params: &[Value],
    legs: Vec<Leg<'_>>,
) -> Result<ResultSet, FedError> {
    let mut sel = sel.clone();
    let mut relations = Vec::with_capacity(legs.len());
    for leg in legs {
        // `#` is not an identifier character, so a relation can never
        // capture a hub-local leg that names a catalogue table.
        let name = format!("#{}", leg.pos);
        let tref = TableRef {
            name: name.clone(),
            alias: Some(leg.alias.to_string()),
        };
        if leg.pos == 0 {
            sel.from = Some(tref);
        } else {
            sel.joins[leg.pos - 1].table = tref;
        }
        let mut rows = leg.rows;
        for v in rows.iter_mut().flatten() {
            if let Value::Datalink(u) = v {
                *v = Value::Clob(std::mem::take(u));
            }
        }
        relations.push(Relation {
            name,
            columns: leg.columns.to_vec(),
            rows,
        });
    }
    run_select_over(hub_db, &hub_db.read_view(), &sel, params, &relations).map_err(FedError::Db)
}

/// Convert raw full-partition rows (replica-cache copies and
/// cache-refilling scans) into the partial-state rows a live site would
/// have shipped for `request`: run the pushed grouped statement over
/// them. DATALINK values become their URL text but keep NULL-ness, so
/// `COUNT(link_col)` counts exactly the rows whose link was set.
pub(crate) fn partial_from_raw(
    hub_db: &Database,
    ft: &ForeignTable,
    request: &ScanRequest,
    raw: &[Vec<Value>],
) -> Result<Vec<Vec<Value>>, FedError> {
    let Stmt::Select(sel) = parse(&request.to_sql())? else {
        unreachable!("a scan request renders as a SELECT");
    };
    let columns: Vec<String> = ft.columns.iter().map(|(c, _)| c.clone()).collect();
    let leg = Leg {
        pos: 0,
        alias: &ft.name,
        columns: &columns,
        rows: raw.to_vec(),
    };
    Ok(merge(hub_db, &sel, &request.effective_params(), vec![leg])?.rows)
}

/// The aggregate function a finisher completes.
fn function(fin: &Finisher) -> &'static str {
    match fin {
        Finisher::Count { .. } => "COUNT",
        Finisher::Sum { .. } => "SUM",
        Finisher::Avg { .. } => "AVG",
        Finisher::Min { .. } => "MIN",
        Finisher::Max { .. } => "MAX",
    }
}

/// Merge partial-aggregate state rows into the final result: group the
/// shipped rows by key, fold each finisher's partials into the
/// executor's aggregate state, and finish the groups exactly as the
/// single-database aggregate pipeline would (HAVING, the select list,
/// ORDER BY, LIMIT).
pub(crate) fn merge_partial_agg(
    hub_db: &Database,
    sel: &SelectStmt,
    ft: &ForeignTable,
    agg: &AggPlan,
    params: &[Value],
    gathered: Vec<Vec<Value>>,
) -> Result<ResultSet, FedError> {
    let k = agg.group_cols.len();
    let new_states =
        || -> Vec<AggState> { agg.finishers.iter().map(|_| AggState::default()).collect() };
    let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut key = Vec::new();
    for row in &gathered {
        if row.len() != k + agg.calls.len() {
            return Err(FedError::Db(DbError::Eval(format!(
                "partial-aggregate row carries {} values, expected {}",
                row.len(),
                k + agg.calls.len()
            ))));
        }
        let (key_vals, partials) = row.split_at(k);
        key.clear();
        for v in key_vals {
            encode_key_cell(v, &mut key);
        }
        let gi = match index.get(&key[..]) {
            Some(&gi) => gi,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key_vals.to_vec(), new_states()));
                groups.len() - 1
            }
        };
        // COUNT partials (both `COUNT(*)` and `COUNT(col)`) arrive as
        // plain row counts.
        let count = |idx: usize| match &partials[idx] {
            Value::Int(n) => *n,
            _ => 0,
        };
        for (st, fin) in groups[gi].1.iter_mut().zip(&agg.finishers) {
            // (the partial to fold, how many non-NULL inputs it stands for)
            let (v, n) = match fin {
                Finisher::Count { idx } => (&partials[*idx], count(*idx)),
                Finisher::Avg { sum_idx, count_idx } => (&partials[*sum_idx], count(*count_idx)),
                Finisher::Sum { idx } | Finisher::Min { idx } | Finisher::Max { idx } => {
                    (&partials[*idx], 1)
                }
            };
            st.fold_partial(function(fin), v, n)?;
        }
    }
    // A global aggregate whose every partition was pruned or skipped
    // still yields its one empty-input group, exactly as a zero-row
    // table does locally.
    if groups.is_empty() && k == 0 {
        groups.push((vec![], new_states()));
    }

    // Scalar parts of the statement evaluate against the group key
    // itself: the planner only admits statements whose scalar parts
    // touch group columns.
    let alias = sel
        .from
        .as_ref()
        .and_then(|t| t.alias.clone())
        .unwrap_or_else(|| ft.name.clone());
    let schema = RowSchema::for_table(&alias, &agg.group_cols);
    let groups = groups
        .into_iter()
        .map(|(key_vals, states)| {
            // Every merged COUNT is the sum of shipped counts, which the
            // fold keeps in the non-NULL tally: finish none as `COUNT(*)`.
            let aggs = agg
                .finishers
                .iter()
                .zip(&states)
                .map(|(fin, st)| st.finish(function(fin), false))
                .collect();
            (key_vals, aggs)
        })
        .collect();
    finish_groups(hub_db, sel, &schema, groups, params).map_err(FedError::Db)
}

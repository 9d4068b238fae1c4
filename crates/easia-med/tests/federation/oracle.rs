//! One planner, one rule: every statement below runs on the rig and on
//! a single database holding every partition's rows, and the two must
//! agree — same columns and rows, or both an error naming the same
//! problem. The list is the differential probe that found the
//! single-table planner disagreeing with the hub merge (ORDER BY output
//! aliases rejected, a table name accepted under an alias, a top-k cut
//! on the wrong key), each shape once single-table and once over a
//! JOIN. Below it, a property: `plan_select` *is* the one-leg
//! `plan_join`, whatever the statement.

use crate::rig::{join_rig, Rig};
use easia_db::sql::ast::{Expr, Stmt};
use easia_db::sql::{expr_to_sql, parse};
use easia_db::{Database, Value};
use easia_med::planner::plan_join;
use easia_med::{plan_select, FedError};
use proptest::prelude::*;

/// The probe. Run at the commit before the one-planner refactor, the
/// assertion below lists the statements that disagreed there.
const PROBE: [&str; 30] = [
    // ORDER BY names an output alias, not a column.
    "SELECT SITE, COUNT(*) AS C FROM SIM GROUP BY SITE ORDER BY C DESC",
    "SELECT N AS M FROM SIM ORDER BY M, K",
    "SELECT N AS M FROM SIM ORDER BY M DESC, K LIMIT 3",
    "SELECT S.SITE, COUNT(*) AS C FROM SIM S JOIN RES R ON S.K = R.K \
         GROUP BY S.SITE ORDER BY C DESC, S.SITE",
    "SELECT S.N AS M FROM SIM S JOIN RES R ON S.K = R.K ORDER BY M, S.K",
    // The alias hides the column of that name from the top-k cut.
    "SELECT 0 - N AS N FROM SIM ORDER BY N LIMIT 2",
    "SELECT K AS N, N AS K FROM SIM ORDER BY N DESC LIMIT 3",
    "SELECT K, N FROM SIM ORDER BY N DESC, K LIMIT 3",
    // A qualifier matches the binding alias only.
    "SELECT K FROM SIM s WHERE SIM.N > 100",
    "SELECT K FROM SIM s WHERE SIM.N > 1",
    "SELECT K FROM SIM s WHERE SIM.SITE = 'cam'",
    "SELECT K FROM SIM s WHERE s.SITE = 'cam' ORDER BY s.K",
    "SELECT K FROM SIM WHERE SIM.N > 1 ORDER BY K",
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE SIM.N > 1",
    // Unknown everywhere, ambiguous between legs.
    "SELECT GHOST FROM SIM",
    "SELECT K FROM SIM WHERE GHOST = 1",
    "SELECT K FROM SIM ORDER BY GHOST",
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE R.GHOST = 1",
    "SELECT K FROM SIM S JOIN RES R ON S.K = R.K",
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE SITE = 'cam'",
    // A conjunct naming no column.
    "SELECT K FROM SIM WHERE 1 = 0",
    "SELECT K FROM SIM WHERE 1 = 1 AND N < 2 ORDER BY K",
    "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K WHERE 1 = 0",
    "SELECT S.K, R.R FROM SIM S LEFT JOIN RES R ON S.K = R.K WHERE 1 = 0",
    // Aggregates inside composite expressions.
    "SELECT SITE, COALESCE(SUM(N), 0) FROM SIM GROUP BY SITE ORDER BY SITE",
    "SELECT SITE, ROUND(AVG(X)) FROM SIM GROUP BY SITE ORDER BY SITE",
    "SELECT SITE FROM SIM GROUP BY SITE HAVING SUM(N) IS NOT NULL ORDER BY SITE",
    "SELECT SITE FROM SIM GROUP BY SITE HAVING COUNT(*) BETWEEN 4 AND 5 ORDER BY SITE",
    "SELECT SITE FROM SIM GROUP BY SITE HAVING COUNT(*) IN (3, 5) ORDER BY SITE",
    "SELECT S.SITE, COALESCE(SUM(R.BYTES), 0) FROM SIM S LEFT JOIN RES R ON S.K = R.K \
         GROUP BY S.SITE HAVING COUNT(*) BETWEEN 3 AND 9 ORDER BY S.SITE",
];

/// Rows as an order-free multiset.
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// `None` when the rig and the oracle agree on `sql`, else how not.
fn disagreement(r: &mut Rig, oracle: &mut Database, sql: &str) -> Option<String> {
    let fed = r
        .fed
        .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, &[]);
    match (fed, oracle.execute(sql)) {
        (Ok(got), Ok(want)) => {
            let same = if sql.contains("ORDER BY") {
                got.rs.rows == want.rows
            } else {
                canon(&got.rs.rows) == canon(&want.rows)
            };
            (got.rs.columns != want.columns || !same).then(|| {
                format!(
                    "federated {:?} {:?}, oracle {:?} {:?}",
                    got.rs.columns, got.rs.rows, want.columns, want.rows
                )
            })
        }
        // The federation's error carries the engine's own.
        (Err(FedError::Db(got)), Err(want)) if got.to_string() == want.to_string() => None,
        (fed, ora) => Some(format!(
            "federated {:?}, oracle {:?}",
            fed.map(|o| o.rs.rows).map_err(|e| e.to_string()),
            ora.map(|rs| rs.rows).map_err(|e| e.to_string())
        )),
    }
}

#[test]
fn every_probe_statement_matches_the_oracle() {
    let (mut r, mut oracle) = join_rig();
    r.fed.analyze(&mut r.hub_db).unwrap();
    let bad: Vec<String> = PROBE
        .iter()
        .filter_map(|sql| {
            Some(format!(
                "{sql}\n    {}",
                disagreement(&mut r, &mut oracle, sql)?
            ))
        })
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn the_ablations_match_the_oracle_too() {
    for (pushdown, partial_agg) in [(false, true), (true, false)] {
        let (mut r, mut oracle) = join_rig();
        r.fed.pushdown = pushdown;
        r.fed.partial_agg = partial_agg;
        for sql in PROBE {
            let diff = disagreement(&mut r, &mut oracle, sql);
            assert_eq!(
                diff, None,
                "pushdown={pushdown} partial_agg={partial_agg}: {sql}"
            );
        }
    }
}

#[test]
fn an_output_alias_blocks_the_topk_cut_a_same_named_column_does_not() {
    let (r, _) = join_rig();
    let ft = r.fed.catalog.table("SIM").unwrap();
    let plan = |sql: &str| {
        let Stmt::Select(sel) = parse(sql).unwrap() else {
            unreachable!()
        };
        plan_select(&sel, ft, &[]).unwrap()
    };
    let cut = plan("SELECT K, N FROM SIM ORDER BY N DESC LIMIT 3").order_limit;
    assert_eq!(cut, Some((vec![("N".to_string(), false)], 3)));
    let cut = plan("SELECT s.N FROM SIM s ORDER BY N LIMIT 3").order_limit;
    assert_eq!(cut, Some((vec![("N".to_string(), true)], 3)));
    // The hub sorts by the item the name denotes, so the sites may not
    // cut by the column of that name.
    assert_eq!(
        plan("SELECT 0 - N AS N FROM SIM ORDER BY N LIMIT 3").order_limit,
        None
    );
    assert_eq!(
        plan("SELECT K AS N FROM SIM ORDER BY N LIMIT 3").order_limit,
        None
    );
    let p = plan("SELECT N AS M FROM SIM ORDER BY M LIMIT 3");
    assert_eq!((p.order_limit, p.columns), (None, vec!["N".to_string()]));
}

// --- plan_select ≡ the one-leg plan_join ---

/// Qualifiers: none, the table, two aliases (at most one is bound).
const QUALS: [&str; 4] = ["", "SIM.", "S.", "X."];
const ALIASES: [&str; 3] = ["", " S", " X"];
const ITEMS: [&str; 10] = [
    "*",
    "{q}K",
    "{q}N",
    "{q}K, {q}N",
    "{q}N AS M",
    "{q}K AS N",
    "COUNT(*) AS C",
    "{q}SITE, SUM({q}N)",
    "UPPER({q}K)",
    "{q}GHOST",
];
const CONJUNCTS: [&str; 10] = [
    "{q}N > 1",
    "{q}SITE = 'cam'",
    "'cam' = {q}SITE",
    "{q}SITE = ?",
    "1 = 0",
    "? = 1",
    "UPPER({q}K) = 'A'",
    "{q}GHOST = 1",
    "{q}N BETWEEN 1 AND 3",
    "({q}N = 1 OR {q}X > 2.5)",
];
const GROUPS: [&str; 3] = ["", " GROUP BY {q}SITE", " GROUP BY {q}N"];
const ORDERS: [&str; 7] = [
    "",
    " ORDER BY {q}K",
    " ORDER BY M",
    " ORDER BY C DESC",
    " ORDER BY {q}N DESC, {q}K",
    " ORDER BY N",
    " ORDER BY GHOST",
];

proptest! {
    #[test]
    fn plan_select_is_the_one_leg_plan_join(
        shape in (0usize..3, 0usize..10, 0usize..3, 0usize..7, 0usize..4, any::<bool>()),
        conjuncts in proptest::collection::vec((0usize..10, 0usize..4), 0..4),
    ) {
        let (alias, item, group, order, qual, limit) = shape;
        let mut sql = format!("SELECT {} FROM SIM{}", ITEMS[item], ALIASES[alias]);
        for (i, (c, q)) in conjuncts.iter().enumerate() {
            sql += if i == 0 { " WHERE " } else { " AND " };
            sql += &CONJUNCTS[*c].replace("{q}", QUALS[*q]);
        }
        sql = (sql + GROUPS[group] + ORDERS[order]).replace("{q}", QUALS[qual]);
        if limit {
            sql += " LIMIT 3";
        }

        let (r, _) = join_rig();
        let ft = r.fed.catalog.table("SIM").unwrap();
        let Stmt::Select(sel) = parse(&sql).unwrap() else { unreachable!() };
        let params = [Value::Str("cam".into()), Value::Int(1), Value::Int(1), Value::Int(1)];
        let no_locals = |_: &str| None;
        let sqls = |es: &[Expr]| es.iter().map(expr_to_sql).collect::<Vec<_>>();

        let single = plan_select(&sel, ft, &params);
        let one_leg = plan_join(&sel, &r.fed.catalog, &no_locals, &params, true);
        match (&single, &one_leg) {
            (Ok(t), Ok(j)) => {
                let [leg] = &j.legs[..] else { unreachable!("{sql}") };
                let single = (sqls(&t.pushed), sqls(&t.hub_eval), &t.columns, &t.site_key_value);
                let one_leg = (sqls(&leg.pushed), sqls(&j.hub_eval), &leg.columns, &leg.site_key_value);
                prop_assert!(single == one_leg, "{sql}: {single:?} vs {one_leg:?}");
                // Pruning only ever follows a pushed conjunct.
                prop_assert!(t.site_key_value.is_none() || !t.pushed.is_empty(), "{sql}");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "{sql}: {single:?} vs {one_leg:?}"),
        }

        // The ablation keeps the verdict and every conjunct, and ships
        // everything: nothing pushed or pruned.
        let off = plan_join(&sel, &r.fed.catalog, &no_locals, &params, false);
        prop_assert!(off.is_ok() == single.is_ok(), "{sql}: {off:?}");
        if let (Ok(t), Ok(j)) = (&single, &off) {
            let leg = &j.legs[0];
            prop_assert!(leg.pushed.is_empty() && leg.site_key_value.is_none(), "{sql}");
            prop_assert!(leg.columns.len() == ft.columns.len(), "{sql}");
            let mut all = [sqls(&t.pushed), sqls(&t.hub_eval)].concat();
            let mut kept = sqls(&j.hub_eval);
            all.sort();
            kept.sort();
            prop_assert!(all == kept, "{sql}: {all:?} vs {kept:?}");
        }
    }
}

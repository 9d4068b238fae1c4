//! The plan-only report: `explain` renders the plan `query` would run,
//! without touching the network.

use crate::rig::{join_rig, q, rig};
use easia_med::explain::JoinStrategy;
use easia_med::FedExplain;

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

/// What a report says the statement ships, actuals and key counts
/// aside.
fn shape(ex: &FedExplain) -> String {
    let sites: Vec<_> = ex
        .sites
        .iter()
        .map(|s| {
            (
                &s.site,
                &s.table,
                s.pruned,
                &s.pushed_conjuncts,
                &s.hub_conjuncts,
                s.order_limit_pushed,
            )
        })
        .collect();
    let joins: Vec<_> = ex
        .joins
        .iter()
        .map(|j| {
            let strategy = match &j.strategy {
                JoinStrategy::SemiJoin { key_column, .. } => JoinStrategy::SemiJoin {
                    key_column: key_column.clone(),
                    keys: None,
                },
                other => other.clone(),
            };
            (&j.table, &j.alias, &j.kind, strategy)
        })
        .collect();
    let agg = ex.agg.as_ref().map(|a| (a.partial, &a.fallback));
    format!("{sites:?}\n{joins:?}\n{agg:?}")
}

#[test]
fn explain_reports_what_query_would_ship() {
    for pushdown in [true, false] {
        for partial_agg in [true, false] {
            for sql in [
                "SELECT K FROM SIM WHERE N >= 2 ORDER BY N LIMIT 1",
                "SELECT SITE, COUNT(*) FROM SIM WHERE SITE = 'cam' GROUP BY SITE",
                "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N >= 1",
                "SELECT L.TXT, R.R FROM NOTE L LEFT JOIN RES R ON L.K = R.K",
            ] {
                let (mut r, _) = join_rig();
                r.hub_db
                    .execute("CREATE TABLE NOTE (K VARCHAR(20) PRIMARY KEY, TXT VARCHAR(40))")
                    .unwrap();
                r.hub_db
                    .execute("INSERT INTO NOTE VALUES ('cam-0', 'first')")
                    .unwrap();
                r.fed.pushdown = pushdown;
                r.fed.partial_agg = partial_agg;
                let planned = r.fed.explain(&r.hub_db, sql, &[]).unwrap();
                let ran = q(&mut r, sql, &[]).explain;
                assert_eq!(
                    shape(&planned),
                    shape(&ran),
                    "pushdown={pushdown} partial_agg={partial_agg}: {sql}"
                );
                assert_eq!(planned.rows_shipped(), 0);
            }
        }
    }
}

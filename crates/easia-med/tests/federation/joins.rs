//! The leg executor: federated JOINs by semi-join shipping, their
//! guard rails and their metrics.

use crate::rig::{join_rig, q};
use easia_db::Value;
use easia_med::explain::JoinStrategy;
use easia_obs::Obs;

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

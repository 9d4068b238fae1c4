//! The one federated statement path, single-table end: plan, prune,
//! push down, gather, merge — and what a read leaves untouched.

use crate::rig::{fill_site, join_rig, q, rig, rig_on, Rig};
use easia_db::{Database, Value};
use easia_med::explain::JoinStrategy;
use easia_med::{FedError, Partition, SiteSource};
use easia_obs::Obs;

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

/// `partition_tables` seeds the hub first and the sites in the
/// caller's order (not the registry's alphabetical one), declares each
/// partition's own label under a site key and nothing without one, and
/// leaves every listed table registered and analyzed.
#[test]
fn partition_tables_seeds_registers_and_analyzes_in_the_callers_order() {
    let build = |site_key: Option<&str>| {
        let mut net = easia_net::SimNet::new();
        let mut fed = easia_med::Federation::default();
        for name in ["cam", "edin"] {
            fed.add_site(name, net.add_host(name, 2), Database::new_in_memory());
        }
        let mut hub_db = Database::new_in_memory();
        let mut calls = Vec::new();
        fed.partition_tables(
            &mut hub_db,
            "soton",
            &["edin", "cam"],
            &["SIM", "RES"],
            site_key,
            |db, site, site_no| {
                calls.push((site.to_string(), site_no));
                fill_site(db, site, 2 + site_no as i64);
                crate::rig::add_res(db, site, 2 + site_no as i64);
            },
        )
        .unwrap();
        (fed, calls)
    };

    let (fed, calls) = build(Some("SITE"));
    let called = |s: &str, n| (s.to_string(), n);
    assert_eq!(
        calls,
        vec![called("soton", 0), called("edin", 1), called("cam", 2)]
    );
    for (table, rows) in [("SIM", [2u64, 3, 4]), ("RES", [1, 2, 2])] {
        let ft = &fed.catalog.tables[table];
        assert_eq!(ft.site_key.as_deref(), Some("SITE"));
        let got: Vec<_> = ft
            .partitions
            .iter()
            .map(|p| (p.server.as_deref(), p.site_keys.clone(), p.est_rows.get()))
            .collect();
        let key = |s: &str| vec![Value::Str(s.into())];
        assert_eq!(
            got,
            vec![
                (None, key("soton"), rows[0]),
                (Some("edin"), key("edin"), rows[1]),
                (Some("cam"), key("cam"), rows[2]),
            ],
            "{table}"
        );
    }

    // No site key (the E14 portal's shape): nothing to prune on.
    let (fed, _) = build(None);
    let ft = &fed.catalog.tables["SIM"];
    assert_eq!(ft.site_key, None);
    assert!(ft.partitions.iter().all(|p| p.site_keys.is_empty()));
    assert_eq!(ft.partitions[2].est_rows.get(), 4);

    // A site that was never registered is a typed catalog error.
    let err = easia_med::Federation::default()
        .partition_tables(
            &mut Database::new_in_memory(),
            "soton",
            &["cam"],
            &["SIM"],
            None,
            |db, site, _| fill_site(db, site, 1),
        )
        .unwrap_err();
    assert!(matches!(err, FedError::Catalog(_)), "{err}");
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
            vec![Partition::new(None, &[]), Partition::new(Some("cam"), &[])],
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
    let registered = Obs::new();
    r.fed.register_metrics(&registered);
    let help_of = |o: &Obs| -> Option<String> {
        let page = o.metrics.render();
        page.lines()
            .find(|l| l.starts_with("# HELP easia_med_partial_agg_groups_shipped_total "))
            .map(str::to_string)
    };
    assert!(help_of(&obs).is_some());
    assert_eq!(help_of(&obs), help_of(&registered));
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

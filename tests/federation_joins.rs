//! Every webapp browse-screen JOIN — the QBE result pages and the
//! FK/PK hyperlink browse pages, all of which now carry FK-substitute
//! LEFT JOIN legs — executed twice: through a federated archive whose
//! SIMULATION and RESULT_FILE tables are partitioned over three sites,
//! and against a single-database oracle holding every partition's
//! rows. The rendered result tables must be byte-identical: same rows,
//! same ordering, same substituted display values.

use easia_core::{Archive, WebApp};
use easia_web::http::Request;
use easia_web::qbe::{build_join_query, fk_substitutes};
use std::collections::BTreeMap;

const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (\
     AUTHOR_KEY VARCHAR(30) PRIMARY KEY, \
     NAME VARCHAR(100), \
     INSTITUTION VARCHAR(100))";

// No REFERENCES clauses: a partitioned federation cannot enforce
// referential integrity per-site (a cam file may reference an edin
// simulation), so the FK links live in the XUIS alone — the paper's
// "hypertext links … even if there are no referential integrity
// constraints defined for the database".
const SIM_DDL: &str = "CREATE TABLE SIMULATION (\
     SIMULATION_KEY VARCHAR(30) PRIMARY KEY, \
     TITLE VARCHAR(100), \
     AUTHOR_KEY VARCHAR(30), \
     SITE VARCHAR(10), \
     GRID_SIZE INTEGER)";

const RF_DDL: &str = "CREATE TABLE RESULT_FILE (\
     FILE_NAME VARCHAR(50) PRIMARY KEY, \
     SIMULATION_KEY VARCHAR(30), \
     SITE VARCHAR(10), \
     TIMESTEP INTEGER, \
     FILE_SIZE INTEGER)";

/// AUTHOR lives at the hub only — its join leg must be read in place.
const AUTHORS: &[(&str, &str, &str)] = &[
    ("A1", "Mark Papiani", "University of Southampton"),
    ("A2", "Jasmin Wason", "University of Southampton"),
    ("A3", "Denis Nicole", "University of Southampton"),
];

/// SIMULATION partitions, listed in catalog partition order (hub
/// first) so the oracle's insertion order matches the federation's
/// gather order. S06 has a NULL author: LEFT JOIN must keep it.
const SIMS: &[(&str, &str, Option<&str>, &str, i64)] = &[
    ("S01", "Channel flow 1", Some("A1"), "soton", 64),
    ("S02", "Channel flow 2", Some("A2"), "soton", 128),
    ("S03", "Channel flow 3", Some("A3"), "cam", 64),
    ("S04", "Channel flow 4", Some("A1"), "cam", 256),
    ("S05", "Channel flow 5", Some("A2"), "edin", 128),
    ("S06", "Decay run 6", None, "edin", 96),
];

/// RESULT_FILE partitions: files deliberately reference simulations
/// held at *other* sites, so the substitute TITLE can only come from a
/// cross-site join. f08 has a NULL key: LEFT JOIN must keep it.
const FILES: &[(&str, Option<&str>, &str, i64, i64)] = &[
    ("f01", Some("S03"), "soton", 0, 1000),
    ("f02", Some("S05"), "soton", 1, 2000),
    ("f03", Some("S01"), "cam", 0, 1500),
    ("f04", Some("S01"), "cam", 1, 1600),
    ("f05", Some("S06"), "cam", 0, 800),
    ("f06", Some("S02"), "edin", 0, 2400),
    ("f07", Some("S04"), "edin", 1, 3200),
    ("f08", None, "edin", 2, 500),
];

fn opt(v: Option<&str>) -> String {
    match v {
        Some(s) => format!("'{s}'"),
        None => "NULL".to_string(),
    }
}

fn install_data(db: &mut easia_db::Database, site: Option<&str>) {
    for (k, t, a, s, g) in SIMS {
        if site.is_none_or(|want| want == *s) {
            db.execute(&format!(
                "INSERT INTO SIMULATION VALUES ('{k}', '{t}', {}, '{s}', {g})",
                opt(*a)
            ))
            .unwrap();
        }
    }
    for (f, k, s, t, b) in FILES {
        if site.is_none_or(|want| want == *s) {
            db.execute(&format!(
                "INSERT INTO RESULT_FILE VALUES ('{f}', {}, '{s}', {t}, {b})",
                opt(*k)
            ))
            .unwrap();
        }
    }
}

fn customize(a: &mut Archive) {
    let mut doc = a.xuis.clone();
    let fk = |table: &str, tablecolumn: &str, subst: &str| easia_xuis::FkSpec {
        tablecolumn: format!("{table}.{tablecolumn}"),
        substcolumn: Some(format!("{table}.{subst}")),
    };
    doc.table_mut("SIMULATION")
        .unwrap()
        .column_mut("AUTHOR_KEY")
        .unwrap()
        .fk = Some(fk("AUTHOR", "AUTHOR_KEY", "NAME"));
    doc.table_mut("RESULT_FILE")
        .unwrap()
        .column_mut("SIMULATION_KEY")
        .unwrap()
        .fk = Some(fk("SIMULATION", "SIMULATION_KEY", "TITLE"));
    a.set_xuis(doc);
}

/// The federation: hub (soton) plus cam and edin, SIMULATION and
/// RESULT_FILE partitioned on SITE, AUTHOR hub-local.
fn federated_archive() -> Archive {
    let mut a = Archive::builder()
        .federated_site("cam", easia_core::paper_link_spec())
        .federated_site("edin", easia_core::paper_link_spec())
        .build();
    a.federation
        .partition_tables(
            &mut a.db,
            "soton",
            &["cam", "edin"],
            &["SIMULATION", "RESULT_FILE"],
            Some("SITE"),
            |db, site, site_no| {
                for ddl in [AUTHOR_DDL, SIM_DDL, RF_DDL] {
                    db.execute(ddl).unwrap();
                }
                if site_no == 0 {
                    for (k, n, i) in AUTHORS {
                        db.execute(&format!("INSERT INTO AUTHOR VALUES ('{k}', '{n}', '{i}')"))
                            .unwrap();
                    }
                }
                install_data(db, Some(site));
            },
        )
        .unwrap();
    a.generate_xuis_federated(6);
    customize(&mut a);
    a
}

/// The oracle: one database holding every partition's rows, same XUIS.
fn oracle_archive() -> Archive {
    let mut a = Archive::builder().build();
    a.db.execute(AUTHOR_DDL).unwrap();
    a.db.execute(SIM_DDL).unwrap();
    a.db.execute(RF_DDL).unwrap();
    for (k, n, i) in AUTHORS {
        a.db.execute(&format!("INSERT INTO AUTHOR VALUES ('{k}', '{n}', '{i}')"))
            .unwrap();
    }
    install_data(&mut a.db, None);
    a.generate_xuis_federated(6);
    customize(&mut a);
    a
}

fn rigs() -> (WebApp, WebApp) {
    (
        WebApp::new(federated_archive()),
        WebApp::new(oracle_archive()),
    )
}

fn login(app: &mut WebApp) -> String {
    let r = app.handle(Request::post(
        "/login",
        &[("username", "admin"), ("password", "hpcc-admin")],
    ));
    assert_eq!(r.status, 302, "{}", r.body_text());
    r.set_session.expect("session cookie")
}

/// The result table portion of a page body: everything from the first
/// `<table` on. Comparing this across the two rigs asserts identical
/// rows, identical ordering and identical substituted values, while
/// ignoring the federation notice that only the federated page carries.
fn result_table(body: &str) -> String {
    let start = body
        .find("<table")
        .unwrap_or_else(|| panic!("no result table in: {body}"));
    body[start..].to_string()
}

/// Drive the same request through both rigs; the result tables must be
/// byte-identical and the row count must agree.
fn both(fed: &mut WebApp, ora: &mut WebApp, req: impl Fn() -> Request) -> (String, String) {
    let fs = login(fed);
    let os = login(ora);
    let f = fed.handle(req().with_session(&fs));
    let o = ora.handle(req().with_session(&os));
    assert_eq!(f.status, 200, "federated: {}", f.body_text());
    assert_eq!(o.status, 200, "oracle: {}", o.body_text());
    let (fb, ob) = (f.body_text(), o.body_text());
    assert_eq!(
        result_table(&fb),
        result_table(&ob),
        "federated and oracle result tables differ"
    );
    (fb, ob)
}

#[test]
fn qbe_all_data_screens_match_the_oracle() {
    let (mut fed, mut ora) = rigs();
    for table in ["SIMULATION", "RESULT_FILE", "AUTHOR"] {
        let (fb, _) = both(&mut fed, &mut ora, || {
            Request::post(&format!("/query/{table}"), &[("all", "All data")])
        });
        if table == "AUTHOR" {
            assert!(
                !fb.contains("federated over"),
                "hub-local table must not federate: {fb}"
            );
        } else {
            assert!(fb.contains("federated over"), "no federation notice: {fb}");
        }
    }
}

#[test]
fn qbe_screens_show_cross_site_substitutes() {
    let (mut fed, mut ora) = rigs();
    // SIMULATION joins hub-local AUTHOR: every author name substituted.
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::post("/query/SIMULATION", &[("all", "All data")])
    });
    for name in ["Mark Papiani", "Jasmin Wason", "Denis Nicole"] {
        assert!(fb.contains(name), "missing substitute {name}: {fb}");
    }
    // RESULT_FILE joins federated SIMULATION: the hub-held f01 row
    // references cam-held S03, so its title can only come from the
    // cross-site semi-join.
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::post("/query/RESULT_FILE", &[("all", "All data")])
    });
    for title in ["Channel flow 3", "Channel flow 5", "Decay run 6"] {
        assert!(fb.contains(title), "missing substitute {title}: {fb}");
    }
    // The NULL-keyed file survives the LEFT JOIN.
    assert!(
        fb.contains("f08"),
        "LEFT JOIN dropped the NULL-key row: {fb}"
    );
}

#[test]
fn qbe_filtered_screens_match_the_oracle() {
    let (mut fed, mut ora) = rigs();
    // Pattern filter with a projected subset of columns.
    both(&mut fed, &mut ora, || {
        Request::post(
            "/query/SIMULATION",
            &[
                ("ret_TITLE", "on"),
                ("ret_AUTHOR_KEY", "on"),
                ("val_TITLE", "Channel%"),
            ],
        )
    });
    // Typed (integer) equality filter on a federated anchor.
    both(&mut fed, &mut ora, || {
        Request::post("/query/RESULT_FILE", &[("val_TIMESTEP", "1")])
    });
    // Comparison operator pushed down across sites.
    both(&mut fed, &mut ora, || {
        Request::post(
            "/query/SIMULATION",
            &[("val_GRID_SIZE", "100"), ("op_GRID_SIZE", "GE")],
        )
    });
}

#[test]
fn fk_browse_screens_match_the_oracle() {
    let (mut fed, mut ora) = rigs();
    // Follow a RESULT_FILE row's FK link to its (federated) simulation.
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::get("/browse/fk/SIMULATION.SIMULATION_KEY?value=S03")
    });
    assert!(fb.contains("Channel flow 3"), "{fb}");
    assert!(fb.contains("Denis Nicole"), "substituted author: {fb}");
    // Follow a SIMULATION row's FK link to its (hub-local) author.
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1")
    });
    assert!(fb.contains("Mark Papiani"), "{fb}");
}

#[test]
fn pk_browse_screens_match_the_oracle() {
    let (mut fed, mut ora) = rigs();
    // Children of S01: two files, both held at cam.
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::get("/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S01")
    });
    assert!(fb.contains("f03") && fb.contains("f04"), "{fb}");
    // Simulations by A1: one hub row (S01) and one cam row (S04).
    let (fb, _) = both(&mut fed, &mut ora, || {
        Request::get("/browse/pk/SIMULATION.AUTHOR_KEY?value=A1")
    });
    assert!(fb.contains("S01") && fb.contains("S04"), "{fb}");
    assert!(fb.contains("federated over"), "{fb}");
}

#[test]
fn every_substituted_browse_screen_plans_a_federated_join() {
    let a = federated_archive();
    let mut form = BTreeMap::new();
    form.insert("all".to_string(), "All data".to_string());
    let mut joined = 0;
    for xt in &a.xuis.tables {
        if fk_substitutes(xt).is_empty() {
            continue;
        }
        joined += 1;
        let (sql, params) = build_join_query(xt, &form).unwrap();
        let report = a
            .federated_explain(&sql, &params)
            .unwrap_or_else(|e| panic!("{}: {e}", xt.name));
        assert!(
            report.contains("(anchor)"),
            "{}: no anchor leg in:\n{report}",
            xt.name
        );
        assert!(
            report.contains("join leg"),
            "{}: no join legs in:\n{report}",
            xt.name
        );
    }
    assert_eq!(joined, 2, "both substituted tables planned");
    // RESULT_FILE's SIMULATION leg is keyed: both tables are federated,
    // so the join must ship bound keys rather than whole partitions.
    let xt = a.xuis.table("RESULT_FILE").unwrap();
    let (sql, params) = build_join_query(xt, &form).unwrap();
    let report = a.federated_explain(&sql, &params).unwrap();
    assert!(report.contains("semi-join keyed on"), "{report}");
}

#[test]
fn explain_federated_route_reports_join_legs() {
    let mut fed = WebApp::new(federated_archive());
    let sess = login(&mut fed);
    let r = fed.handle(
        Request::post("/federated/explain/RESULT_FILE", &[("all", "All data")]).with_session(&sess),
    );
    assert_eq!(r.status, 200, "{}", r.body_text());
    let body = r.body_text();
    assert!(body.contains("join leg"), "{body}");
    assert!(body.contains("semi-join keyed on"), "{body}");
}

#[test]
fn constant_false_conjunct_over_a_join_ships_nothing() {
    // A conjunct naming no column is the FROM anchor's, exactly as in a
    // single-table statement: the anchor's sites filter every row away,
    // its empty key set skips the keyed leg, and nothing crosses the
    // WAN — where the JOIN planner used to gather the whole anchor for
    // the hub to discard.
    let mut fed = federated_archive();
    let mut ora = oracle_archive();
    for sql in [
        "SELECT T.FILE_NAME, S.TITLE FROM RESULT_FILE T \
         JOIN SIMULATION S ON T.SIMULATION_KEY = S.SIMULATION_KEY WHERE 1 = 0",
        "SELECT T.FILE_NAME, S.TITLE FROM RESULT_FILE T \
         LEFT JOIN SIMULATION S ON T.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE 1 = 0 AND T.TIMESTEP >= 0",
    ] {
        let out = fed.federated_query(sql, &[]).unwrap();
        assert_eq!(out.rs.rows, ora.db.execute(sql).unwrap().rows, "{sql}");
        assert!(out.rs.rows.is_empty(), "{sql}");
        assert_eq!(out.explain.rows_shipped(), 0, "{}", out.explain.render());
        let anchor = &out.explain.sites[0];
        assert_eq!(anchor.table, "RESULT_FILE");
        assert!(anchor.pushed_conjuncts.contains(&"(1 = 0)".to_string()));
        assert!(
            anchor.hub_conjuncts.is_empty(),
            "{:?}",
            anchor.hub_conjuncts
        );
    }
}

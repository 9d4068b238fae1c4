//! Group keys compare by value: a site that ships `0.0` and another
//! that ships `-0.0` for one group merge into that one group at the hub,
//! through the partial-aggregate merge and through DISTINCT over
//! shipped rows alike, exactly as the single-database oracle groups the
//! same rows.

use crate::rig::{q, rig};
use easia_db::{Database, Value};

#[test]
fn signed_zeros_from_two_sites_merge_into_one_group() {
    let mut r = rig();
    for (site, zero) in [("cam", "0.0"), ("edin", "-0.0")] {
        let site = r.fed.site(site).unwrap();
        site.db
            .borrow_mut()
            .execute(&format!("UPDATE SIM SET X = {zero}"))
            .unwrap();
    }
    r.hub_db
        .execute("UPDATE SIM SET X = 0.0 - 0.0 WHERE N < 2")
        .unwrap();

    // The oracle holds every partition's rows, the hub's first.
    let mut oracle = Database::new_in_memory();
    oracle
        .execute(
            "CREATE TABLE SIM (K VARCHAR(20) PRIMARY KEY, SITE VARCHAR(10), N INTEGER, X DOUBLE)",
        )
        .unwrap();
    let mut copy = |db: &mut Database| {
        for row in db.execute("SELECT * FROM SIM").unwrap().rows {
            oracle
                .execute_with_params("INSERT INTO SIM VALUES (?, ?, ?, ?)", &row)
                .unwrap();
        }
    };
    copy(&mut r.hub_db);
    for site in ["cam", "edin"] {
        copy(&mut r.fed.site(site).unwrap().db.borrow_mut());
    }

    let grouped = "SELECT X, COUNT(*), MIN(N), MAX(K) FROM SIM GROUP BY X ORDER BY X";
    let out = q(&mut r, grouped, &[]);
    assert!(
        out.explain.render().contains("aggregate: partial pushdown"),
        "{}",
        out.explain.render()
    );
    let zero = |rows: &[Vec<Value>]| {
        rows.iter()
            .filter(|row| row[0] == Value::Double(0.0))
            .count()
    };
    assert_eq!(zero(&out.rs.rows), 1, "{:?}", out.rs.rows);
    assert_eq!(out.rs.rows[0][1], Value::Int(10), "{:?}", out.rs.rows);
    assert_eq!(out.rs.rows, oracle.execute(grouped).unwrap().rows);

    for sql in [
        "SELECT DISTINCT X FROM SIM ORDER BY X",
        "SELECT COUNT(*) FROM SIM WHERE X = 0",
        "SELECT X, SUM(N) FROM SIM WHERE N >= 1 GROUP BY X ORDER BY X DESC",
    ] {
        let out = q(&mut r, sql, &[]);
        let want = oracle.execute(sql).unwrap().rows;
        assert_eq!(out.rs.rows, want, "{sql}");
        assert!(zero(&want) <= 1, "{sql}: {want:?}");
    }
}

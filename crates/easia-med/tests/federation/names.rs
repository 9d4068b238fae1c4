//! Federation ≡ one database on names. A name the joined row does not
//! resolve, or resolves to two legs' columns, is the statement's error
//! in a single database and through the federation alike, whatever the
//! rest of the predicate would have short-circuited: each statement
//! below must give the single-database oracle's `DbError` through the
//! federation, pushdown on and under both ablations, and the federation
//! must raise it at plan time — the clock and every link's byte count
//! stay where they were, so no scan request was sent.

use crate::rig::{join_rig, Rig};
use easia_med::FedError;

const STATEMENTS: [&str; 10] = [
    // Unknown, behind an OR that holds and behind ANDs that fail first.
    "SELECT K FROM SIM WHERE N >= 0 OR GHOST = 1",
    "SELECT K FROM SIM WHERE N < -1000 AND GHOST = 1",
    "SELECT K FROM SIM WHERE SITE = 'nowhere' AND GHOST = 1",
    // The same over a JOIN, in the WHERE and in a LEFT JOIN's ON.
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N >= 0 OR R.GHOST = 1",
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N < -1000 AND R.GHOST = 1",
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE S.SITE = 'nowhere' AND GHOST = 1",
    "SELECT S.K FROM SIM S LEFT JOIN RES R ON S.K = R.K AND R.GHOST = 1 WHERE S.N < -1000",
    // Ambiguous: SITE is a column of both legs.
    "SELECT S.K FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N < -1000 AND SITE = 'cam'",
    "SELECT S.K FROM SIM S LEFT JOIN RES R ON S.K = R.K WHERE S.N < -1000 AND SITE = 'cam'",
    "SELECT S.K, COUNT(*) FROM SIM S JOIN RES R ON S.K = R.K WHERE 1 = 0 GROUP BY SITE",
];

/// The simulated clock and the bytes every link has carried.
fn wire(r: &Rig) -> (f64, f64) {
    let bytes = r.net.link_ids().iter().map(|l| r.net.link_bytes(*l)).sum();
    (r.net.now(), bytes)
}

#[test]
fn every_bad_name_is_the_oracles_error_raised_before_anything_ships() {
    for (pushdown, partial_agg) in [(true, true), (false, true), (true, false)] {
        let (mut r, mut oracle) = join_rig();
        r.fed.pushdown = pushdown;
        r.fed.partial_agg = partial_agg;
        for sql in STATEMENTS {
            let want = match oracle.execute(sql) {
                Err(e) => e.to_string(),
                Ok(rs) => panic!("{sql}: the oracle returned {:?}", rs.rows),
            };
            let before = wire(&r);
            let got = r
                .fed
                .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, &[]);
            match got {
                Err(FedError::Db(e)) => assert_eq!(e.to_string(), want, "{sql}"),
                other => panic!(
                    "{sql}: federated {:?}, oracle {want}",
                    other.map(|o| o.rs.rows)
                ),
            }
            assert_eq!(wire(&r), before, "{sql}: a scan request was sent");
        }
    }
}

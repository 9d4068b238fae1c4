//! The rig every suite in this target shares: a hub holding the
//! `soton` partition and two foreign sites (`cam`, `edin`) on a
//! simulated WAN, with the partitioned `SIM` table and, for the JOIN
//! suites, its child table `RES`.

use easia_db::{Database, Value};
use easia_med::{Federation, Partition, QueryOutcome};
use easia_net::{HostId, LinkSpec, SimNet};

pub fn site_db(site: &str, n: i64) -> Database {
    let mut db = Database::new_in_memory();
    fill_site(&mut db, site, n);
    db
}

pub fn fill_site(db: &mut Database, site: &str, n: i64) {
    db.execute(
        "CREATE TABLE SIM (K VARCHAR(20) PRIMARY KEY, SITE VARCHAR(10), N INTEGER, X DOUBLE)",
    )
    .unwrap();
    for i in 0..n {
        db.execute(&format!(
            "INSERT INTO SIM VALUES ('{site}-{i}', '{site}', {i}, {}.5)",
            i * 2
        ))
        .unwrap();
    }
}

pub struct Rig {
    pub net: SimNet,
    pub hub: HostId,
    pub hub_db: Database,
    pub fed: Federation,
}

pub fn rig() -> Rig {
    rig_on(site_db("soton", 4))
}

pub fn rig_on(hub_db: Database) -> Rig {
    let spec = LinkSpec::symmetric(1_000_000.0, 0.01);
    rig_with(hub_db, [spec.clone(), spec], [3, 5])
}

/// One fast and one slow link, 40 rows per site in batches of 8: every
/// remote stream is five frames long and the sites finish apart.
pub fn asym_rig() -> Rig {
    let mut r = rig_with(
        site_db("soton", 4),
        [
            LinkSpec::symmetric(25_000.0, 0.2),
            LinkSpec::symmetric(20_000.0, 0.25),
        ],
        [40, 40],
    );
    r.fed.batch_rows = 8;
    r
}

/// A rig over `hub_db` whose `cam` and `edin` sites sit behind `links`
/// and hold `rows` SIM rows.
pub fn rig_with(hub_db: Database, links: [LinkSpec; 2], rows: [i64; 2]) -> Rig {
    let mut net = SimNet::new();
    let hub = net.add_host("hub", 4);
    let mut fed = Federation::default();
    for ((name, link), n) in ["cam", "edin"].into_iter().zip(links).zip(rows) {
        let host = net.add_host(name, 2);
        net.connect(hub, host, link);
        fed.add_site(name, host, site_db(name, n));
    }
    fed.catalog
        .import_foreign_table(&hub_db, "SIM", Some("SITE"), partitions())
        .unwrap();
    Rig {
        net,
        hub,
        hub_db,
        fed,
    }
}

fn partitions() -> Vec<Partition> {
    vec![
        Partition::new(None, &["soton"]),
        Partition::new(Some("cam"), &["cam"]),
        Partition::new(Some("edin"), &["edin"]),
    ]
}

pub fn q(r: &mut Rig, sql: &str, params: &[Value]) -> QueryOutcome {
    r.fed
        .query(&mut r.net, r.hub, &mut r.hub_db, None, sql, params)
        .unwrap()
}

// --- federated JOINs (semi-join shipping) ---

pub const RES_DDL: &str = "CREATE TABLE RES (\
     R VARCHAR(20) PRIMARY KEY, \
     K VARCHAR(20), \
     SITE VARCHAR(10), \
     BYTES INTEGER)";

/// Add this site's RES partition: one child row for every
/// even-numbered SIM row (odd rows stay childless for LEFT JOINs).
pub fn add_res(db: &mut Database, site: &str, n: i64) {
    db.execute(RES_DDL).unwrap();
    for i in (0..n).step_by(2) {
        db.execute(&format!(
            "INSERT INTO RES VALUES ('{site}-r{i}', '{site}-{i}', '{site}', {})",
            i * 10
        ))
        .unwrap();
    }
}

/// Give every partition of `r` its RES rows (`rows` = the SIM row
/// counts at soton, cam, edin) and register RES as a foreign table.
pub fn with_res(mut r: Rig, rows: [i64; 3]) -> Rig {
    add_res(&mut r.hub_db, "soton", rows[0]);
    add_res(
        &mut r.fed.site("cam").unwrap().db.borrow_mut(),
        "cam",
        rows[1],
    );
    add_res(
        &mut r.fed.site("edin").unwrap().db.borrow_mut(),
        "edin",
        rows[2],
    );
    r.fed
        .catalog
        .import_foreign_table(&r.hub_db, "RES", Some("SITE"), partitions())
        .unwrap();
    r
}

/// The two-table rig plus a single-database oracle holding every
/// partition's rows.
pub fn join_rig() -> (Rig, Database) {
    let r = with_res(rig(), [4, 3, 5]);
    let mut oracle = Database::new_in_memory();
    oracle
        .execute(
            "CREATE TABLE SIM (K VARCHAR(20) PRIMARY KEY, SITE VARCHAR(10), \
             N INTEGER, X DOUBLE)",
        )
        .unwrap();
    oracle.execute(RES_DDL).unwrap();
    for (site, n) in [("soton", 4i64), ("cam", 3), ("edin", 5)] {
        for i in 0..n {
            oracle
                .execute(&format!(
                    "INSERT INTO SIM VALUES ('{site}-{i}', '{site}', {i}, {}.5)",
                    i * 2
                ))
                .unwrap();
        }
        for i in (0..n).step_by(2) {
            oracle
                .execute(&format!(
                    "INSERT INTO RES VALUES ('{site}-r{i}', '{site}-{i}', '{site}', {})",
                    i * 10
                ))
                .unwrap();
        }
    }
    (r, oracle)
}

//! The federated archive of the federated-screen allocation tests: a
//! SIMULATION table partitioned across the hub (500 rows) and three
//! foreign sites (2,000 rows each), every third simulation naming each
//! of three hub-local AUTHORs, and the XUIS the portal generates for it
//! with the paper's operations attached, so that an AUTHOR_KEY carries
//! the author's name as its substitute.
#![allow(dead_code)]

use easia_core::{paper_link_spec, turbulence, Archive};
use easia_db::Database;
use easia_med::Partition;
use std::fmt::Write as _;

const SITES: [&str; 3] = ["cam", "edin", "mcc"];
const AUTHORS: [&str; 3] = ["A1", "A2", "A3"];
const HUB_ROWS: usize = 500;
const SITE_ROWS: usize = 2_000;

/// The primary-key browse of author A1's simulations, ordered by key: a
/// LEFT JOIN of the federated SIMULATION with the hub's AUTHOR.
pub const AUTHOR_PK_SQL: &str = "SELECT T.*, SUB0.NAME AS AUTHOR_KEY__SUBST FROM SIMULATION T \
     LEFT JOIN AUTHOR SUB0 ON T.AUTHOR_KEY = SUB0.AUTHOR_KEY \
     WHERE T.AUTHOR_KEY = ? ORDER BY T.SIMULATION_KEY";

/// The rows it returns: a third of every partition.
pub const AUTHOR_PK_ROWS: usize = 2_167;

/// Seed `n` SIMULATION rows of site `site_no`; every third names each
/// author.
fn seed(db: &mut Database, site: &str, site_no: usize, n: usize) {
    let mut sql = String::new();
    for chunk in (0..n).collect::<Vec<_>>().chunks(50) {
        sql.clear();
        sql.push_str("INSERT INTO simulation VALUES ");
        for (k, i) in chunk.iter().enumerate() {
            let _ = write!(
                sql,
                "{}('{site}-{i:05}', 'Forced turbulence run {i}', '{}', {}, {}, 3, \
                 'Simulation {i} archived at {site}.')",
                if k == 0 { "" } else { ", " },
                AUTHORS[(i + site_no) % AUTHORS.len()],
                64 << (i % 3),
                300 + (i * 7 + site_no * 131) % 997,
            );
        }
        db.execute(&sql).unwrap();
    }
}

/// The archive, its SIMULATION table federated, its XUIS generated and
/// customised.
pub fn archive() -> Archive {
    let mut b = Archive::builder().file_server("fs1.example", paper_link_spec());
    for site in SITES {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    turbulence::install_schema(&mut a).unwrap();
    for key in AUTHORS {
        a.db.execute(&format!(
            "INSERT INTO author VALUES ('{key}', 'Author {key}', NULL, NULL)"
        ))
        .unwrap();
    }
    seed(&mut a.db, "soton", 0, HUB_ROWS);
    let mut partitions = vec![Partition::new(None, &[])];
    for (n, site) in SITES.iter().enumerate() {
        let mut db = a.federation.site(site).unwrap().db.borrow_mut();
        db.execute(
            "CREATE TABLE simulation (simulation_key VARCHAR(30) PRIMARY KEY, \
             title VARCHAR(200) NOT NULL, author_key VARCHAR(30), grid_size INTEGER, \
             reynolds DOUBLE, timesteps INTEGER, description CLOB)",
        )
        .unwrap();
        seed(&mut db, site, n + 1, SITE_ROWS);
        drop(db);
        partitions.push(Partition::new(Some(site), &[]));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", None, partitions)
        .unwrap();
    a.federation.analyze(&mut a.db).unwrap();
    a.generate_xuis_federated(4);
    turbulence::attach_standard_operations(&mut a).unwrap();
    a
}

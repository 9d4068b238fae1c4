//! Allocation budget of one federated result screen.
//!
//! The primary-key browse "every simulation of this author" over a
//! SIMULATION table partitioned across the hub (500 rows) and three
//! foreign sites (2,000 rows each), joined at the hub with its AUTHOR
//! table: `Archive::federated_query` end to end — plan, scatter, each
//! site's scan, the batch frames, the pump, the hub join, ORDER BY — is
//! counted through a counting global allocator. A shipped row travels as
//! its record from the site's executor to the hub statement's sink, so
//! what a row costs is its own output row. Building each shipped row as
//! owned values at the site, again at the hub's decode and again for the
//! join read 27.5 allocations per returned row.
//!
//! One test only: the counter is process-wide.

use easia_core::{paper_link_spec, turbulence, Archive};
use easia_db::{Database, Value};
use easia_med::Partition;
use std::fmt::Write as _;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SITES: [&str; 3] = ["cam", "edin", "mcc"];
const AUTHORS: [&str; 3] = ["A1", "A2", "A3"];
const HUB_ROWS: usize = 500;
const SITE_ROWS: usize = 2_000;
/// Per returned row: its projected output row (a `Vec`, four strings
/// and the substituted name), and the frames, arenas and vectors it
/// shares. Measured: 14,707 allocations, 6.8 per row, debug and release
/// alike; decoding shipped rows into owned values read 59,503 (27.5).
const CEILING_PER_ROW: f64 = 8.0;

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

#[test]
fn a_federated_screen_allocates_for_the_rows_it_returns() {
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

    let sql = "SELECT T.*, SUB0.NAME AS AUTHOR_KEY__SUBST FROM SIMULATION T \
               LEFT JOIN AUTHOR SUB0 ON T.AUTHOR_KEY = SUB0.AUTHOR_KEY \
               WHERE T.AUTHOR_KEY = ? ORDER BY T.SIMULATION_KEY";
    let params = [Value::Str("A1".into())];
    let warm = a.federated_query(sql, &params).unwrap();
    let (out, counts) = counted(|| a.federated_query(sql, &params).unwrap());
    assert_eq!(out.rs.rows, warm.rs.rows);
    let rows = out.rs.rows.len();
    assert_eq!(rows, 2_167, "a third of every partition");
    assert_eq!(out.rs.rows[0][7], Value::Str("Author A1".into()));
    let per_row = counts.allocs as f64 / rows as f64;
    println!(
        "{} allocations, {per_row:.1} per row, {} bytes",
        counts.allocs, counts.bytes
    );
    assert!(
        per_row <= CEILING_PER_ROW,
        "{} allocations for {rows} rows ({per_row:.1} per row); the ceiling is \
         {CEILING_PER_ROW} per row",
        counts.allocs
    );
}

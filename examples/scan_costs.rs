//! Per-row cost of the statements a federated search runs at each site.
//!
//! Every `fed_browse` screen scatters a scan to every site's SIMULATION
//! partition, so what a site statement costs per row sets most of a
//! federated screen's time. This builds partitions of the benchmark's
//! shape at two sizes, runs each statement through
//! `Database::execute_each` (its records lent, nothing collected), and
//! prints the best time per row at each size and the slope between them:
//! the cost of one more row, without what a statement costs once.
//!
//! Run with: `cargo run --release --example scan_costs [small] [large]`
//! (default 2000 20000). With one size it prints that size alone.

use easia_db::{Database, Value};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The statements of the table, each beside its label.
const STATEMENTS: [(&str, &str); 8] = [
    (
        "LIKE prefix COUNT(*)",
        "SELECT COUNT(*) FROM SIMULATION WHERE TITLE LIKE 'Forced turbulence run 12%'",
    ),
    ("COUNT(*)", "SELECT COUNT(*) FROM SIMULATION"),
    (
        "DOUBLE range COUNT(*)",
        "SELECT COUNT(*) FROM SIMULATION WHERE REYNOLDS > 800",
    ),
    (
        "GROUP BY, three aggregates",
        "SELECT GRID_SIZE, COUNT(*), AVG(REYNOLDS), MAX(REYNOLDS) FROM SIMULATION \
         GROUP BY GRID_SIZE",
    ),
    (
        "top-k under an equality",
        "SELECT SIMULATION_KEY, REYNOLDS FROM SIMULATION WHERE GRID_SIZE = 128 \
         ORDER BY REYNOLDS DESC, SIMULATION_KEY LIMIT 10",
    ),
    (
        "projection under an equality",
        "SELECT SIMULATION_KEY, TITLE, REYNOLDS FROM SIMULATION WHERE GRID_SIZE = 128",
    ),
    (
        "GROUP BY an expression",
        "SELECT GRID_SIZE * 2, COUNT(*) FROM SIMULATION GROUP BY GRID_SIZE * 2",
    ),
    (
        "INNER JOIN, PK probe",
        "SELECT S.SIMULATION_KEY, A.NAME FROM SIMULATION S \
         JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY",
    ),
];

/// A site's SIMULATION partition, as the benchmark seeds one, beside
/// the three authors its rows name.
fn partition(rows: usize) -> Database {
    const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100))")
        .expect("author schema");
    db.execute("INSERT INTO author VALUES ('A1', 'Ada'), ('A2', 'Brian'), ('A3', 'Chen')")
        .expect("authors");
    db.execute(
        "CREATE TABLE simulation (simulation_key VARCHAR(30) PRIMARY KEY, \
         title VARCHAR(200) NOT NULL, author_key VARCHAR(30), grid_size INTEGER, \
         reynolds DOUBLE, timesteps INTEGER, description CLOB)",
    )
    .expect("schema");
    db.execute("BEGIN").expect("begin");
    let mut sql = String::new();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(50) {
        sql.clear();
        sql.push_str("INSERT INTO simulation VALUES ");
        for (k, i) in chunk.iter().enumerate() {
            let _ = write!(
                sql,
                "{}('edin-{i:05}', '{} turbulence run {i}', 'A{}', {}, {}, 3, \
                 'Simulation {i} archived at edin.')",
                if k == 0 { "" } else { ", " },
                TOPICS[i % TOPICS.len()],
                1 + i % 3,
                64 << (i % 3),
                300.0 + ((i * 7 + 131) % 997) as f64,
            );
        }
        db.execute(&sql).expect("rows");
    }
    db.execute("COMMIT").expect("commit");
    db.vacuum();
    db
}

/// One run of `sql` over `db`, its records lent and counted.
fn run(db: &Database, sql: &str) -> Duration {
    let start = Instant::now();
    let mut lent = 0usize;
    db.execute_each(sql, &[] as &[Value], |record| {
        lent += black_box(record).len();
    })
    .expect("statement runs");
    black_box(lent);
    start.elapsed()
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a row count"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![2_000, 20_000]
    } else {
        sizes
    };
    let dbs: Vec<Database> = sizes.iter().map(|&n| partition(n)).collect();
    // Interleaved: each repetition runs every statement at every size,
    // so a burst of load on the box reaches them alike.
    let reps = 1_000_000 / sizes.iter().max().copied().unwrap_or(1).max(1) + 5;
    let mut best = vec![[Duration::MAX; STATEMENTS.len()]; sizes.len()];
    for _ in 0..reps {
        for (db, best) in dbs.iter().zip(&mut best) {
            for (i, (_, sql)) in STATEMENTS.iter().enumerate() {
                best[i] = best[i].min(run(db, sql));
            }
        }
    }
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let mut header = format!("{:<28}", "statement");
    for n in &sizes {
        let _ = write!(header, " {:>12}", format!("ns/row@{n}"));
    }
    if sizes.len() > 1 {
        let _ = write!(header, " {:>12}", "slope ns/row");
    }
    println!("{header}");
    for (i, (label, _)) in STATEMENTS.iter().enumerate() {
        let mut line = format!("{label:<28}");
        for (n, best) in sizes.iter().zip(&best) {
            let _ = write!(line, " {:>12.1}", ns(best[i]) / *n as f64);
        }
        if let (Some(first), Some(last)) = (sizes.first(), sizes.last()) {
            if last > first {
                let rise = ns(best[sizes.len() - 1][i]) - ns(best[0][i]);
                let _ = write!(line, " {:>12.1}", rise / (last - first) as f64);
            }
        }
        println!("{line}");
    }
}

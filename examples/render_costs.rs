//! Per-row cost of writing a result page.
//!
//! Every result screen of the portal ends in `browse::ResultTable`: a
//! QBE search, a PK or FK browse, the merge of a federated query. This
//! seeds RESULT_FILE as the `hub_browse` catalogue is seeded (50 files
//! per simulation, the DATALINKs NULL) at two sizes, reads two result
//! shapes from each, and renders their pages:
//! * **like_scan** — the four columns of a `LIKE` scan's screen
//!   (FILE_NAME with its primary-key link, SIMULATION_KEY with its
//!   foreign-key link, two numbers) and the operations cell;
//! * **qbe_indexed** — `SELECT *` of an indexed search: every column,
//!   the NULL DATALINK among them, and the operations cell.
//!
//! It prints the best time per row of rendering each page at each size
//! and the slope between them: the cost of one more row, without what a
//! page costs once. Only the render is timed; the rows are read and each
//! row's operations judged beforehand.
//!
//! Run with: `cargo run --release --example render_costs [small] [large]`
//! (default 500 5000). With one size it prints that size alone.

use easia_core::{paper_link_spec, turbulence, Archive};
use easia_db::value::{CellWalk, Records};
use easia_db::ResultSet;
use easia_web::browse::{BrowseContext, ResultTable};
use easia_xuis::Operation;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The pages of the table, each beside its label.
const PAGES: [(&str, &str); 2] = [
    (
        "like_scan",
        "SELECT FILE_NAME, SIMULATION_KEY, TIMESTEP, FILE_SIZE FROM RESULT_FILE",
    ),
    ("qbe_indexed", "SELECT * FROM RESULT_FILE"),
];

/// RESULT_FILE rows per simulation.
const FILES: usize = 50;

/// A hub holding `rows` RESULT_FILE rows, its XUIS generated and the
/// standard operations attached.
fn hub(rows: usize) -> Archive {
    let mut a = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        .build();
    turbulence::install_schema(&mut a).expect("schema");
    let db = &mut a.db;
    db.execute(
        "INSERT INTO author VALUES ('A1', 'Mark Papiani', 'A1@soton.example', 'Southampton')",
    )
    .expect("author");
    db.execute("BEGIN").expect("begin");
    let mut sql = String::new();
    for s in 0..rows.div_ceil(FILES) {
        let key = format!("S{s:05}");
        db.execute(&format!(
            "INSERT INTO simulation VALUES ('{key}', 'Forced turbulence run {s}', 'A1', 128, 360.0, \
             {FILES}, 'Direct numerical simulation of turbulent channel flow, run {s}.')"
        ))
        .expect("simulation");
        sql.clear();
        sql.push_str("INSERT INTO result_file VALUES ");
        for t in 0..FILES.min(rows - s * FILES) {
            let _ = write!(
                sql,
                "{}('t{t:03}.edf', '{key}', {t}, 'u,v,w,p', 'EDF', {}, NULL)",
                if t == 0 { "" } else { ", " },
                85_000_000 + t,
            );
        }
        db.execute(&sql).expect("result files");
    }
    db.execute("COMMIT").expect("commit");
    a.generate_xuis(4);
    turbulence::attach_standard_operations(&mut a).expect("operations");
    a
}

/// A page to render: the result's columns and records, and the
/// operations its rows offer (the catalogue's, judged on its first row:
/// the seeded rows all judge alike).
struct Page<'a> {
    columns: Vec<String>,
    records: Records,
    ops: Vec<&'a Operation>,
}

fn page(a: &Archive, rs: ResultSet) -> Page<'_> {
    let mut records = Records::default();
    rs.rows.iter().for_each(|row| records.push(row));
    let candidates = a.catalog.resolve("RESULT_FILE", &rs.columns, false);
    let (mut walk, mut text, mut flags) = (CellWalk::default(), String::new(), Vec::new());
    if let Some(first) = records.iter().next() {
        walk.walk(first).expect("a record");
        let shows = |i: usize, want: &str| {
            let cell = walk.cell(first, i);
            cell.is_some_and(|c| c.display_bytes(&mut text) == want.as_bytes())
        };
        candidates.for_row(shows, &mut flags);
    }
    let ops = candidates.chosen(&flags).collect();
    Page {
        columns: rs.columns,
        records,
        ops,
    }
}

/// One render of `page` into a fresh page buffer, as a screen writes it.
fn render(a: &Archive, page: &Page<'_>) -> Duration {
    let sizes = |url: &str| a.file_size_of(url);
    let ctx = BrowseContext {
        xuis: &a.xuis,
        table: "RESULT_FILE",
        is_guest: false,
        row_operations: Vec::new(),
        file_size: Some(&sizes),
    };
    let start = Instant::now();
    let mut out = String::new();
    let (cols, rows) = (&page.columns, page.records.len());
    let mut table = ResultTable::begin(&ctx, cols, rows, !page.ops.is_empty(), &mut out);
    for record in page.records.iter() {
        let ops = page.ops.iter().copied();
        table.row(&mut out, record, ops).expect("a record renders");
    }
    table.end(&mut out);
    black_box(&out);
    start.elapsed()
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a row count"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![500, 5_000]
    } else {
        sizes
    };
    let mut hubs: Vec<Archive> = sizes.iter().map(|&n| hub(n)).collect();
    let read = |a: &mut Archive| -> Vec<ResultSet> {
        let run = |(_, sql): &(&str, &str)| a.db.execute(sql).expect("statement runs");
        PAGES.iter().map(run).collect()
    };
    let results: Vec<Vec<ResultSet>> = hubs.iter_mut().map(read).collect();
    let pages: Vec<Vec<Page<'_>>> = (hubs.iter().zip(results))
        .map(|(a, results)| results.into_iter().map(|rs| page(a, rs)).collect())
        .collect();
    // Interleaved: each repetition renders every page at every size, so
    // a burst of load on the box reaches them alike.
    let reps = 1_000_000 / sizes.iter().max().copied().unwrap_or(1).max(1) + 5;
    let mut best = vec![[Duration::MAX; PAGES.len()]; sizes.len()];
    for _ in 0..reps {
        for ((a, pages), best) in hubs.iter().zip(&pages).zip(&mut best) {
            for (i, page) in pages.iter().enumerate() {
                best[i] = best[i].min(render(a, page));
            }
        }
    }
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let mut header = format!("{:<14}", "page");
    for n in &sizes {
        let _ = write!(header, " {:>12}", format!("ns/row@{n}"));
    }
    if sizes.len() > 1 {
        let _ = write!(header, " {:>12}", "slope ns/row");
    }
    println!("{header}");
    for (i, (label, _)) in PAGES.iter().enumerate() {
        let mut line = format!("{label:<14}");
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

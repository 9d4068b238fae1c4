//! Allocation budget of a selective scan.
//!
//! A QBE `LIKE` over an un-indexed metadata column rejects nearly every
//! row it reads, so what a scan costs is what a *rejected* row costs. A
//! 20,000-row table shaped like the benchmark's `SIMULATION` (seven
//! columns: three VARCHARs, a CLOB) is scanned for the 1 % of rows whose
//! title matches, and the statement's allocations are counted through a
//! counting global allocator: they may grow with the survivors, not with
//! the rows scanned. Decoding every record into a row of its own (four
//! strings and a `Vec` each) and cloning what the predicate compares
//! took more than 8 allocations per *scanned* row and fails this by two
//! orders of magnitude. The same statement over an `exec::Relation`
//! pins that a read no longer deep-copies the relation first. Then the
//! sink: COUNT(*) and a GROUP BY over all 20,000 rows may not allocate
//! per row at all, and ORDER BY … LIMIT only for a survivor's projected
//! cells and sort keys.
//!
//! One test only: the counter is process-wide.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

// Relaxed: a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never influences the result.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 20_000;
const SURVIVORS: usize = ROWS / 100;
/// Parsing, planning, the scratch row and the result's own vectors.
const PER_STATEMENT: u64 = 150;
/// A survivor is moved out of the scratch row (its `Vec` and four
/// strings are then decoded afresh) and projected (a `Vec` and the
/// title): 7 measured, debug and release alike.
const PER_SURVIVOR: u64 = 12;
/// What ORDER BY … LIMIT may spend on one survivor: its projected cells
/// and its sort keys, 3 measured.
const PER_KEPT: u64 = 4;
/// Parsing, binding and finishing an aggregate statement, a copy of each
/// group's first row included: 104 and 175 measured, whatever the rows.
const PER_AGGREGATE: u64 = 2 * PER_STATEMENT;

fn counted<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = run();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_selective_scan_allocates_for_its_survivors_only() {
    let mut db = Database::new_in_memory();
    db.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, title VARCHAR(200) NOT NULL, \
         author_key VARCHAR(30), site VARCHAR(30), grid_size INTEGER, reynolds DOUBLE, \
         description CLOB)",
    )
    .unwrap();
    for i in 0..ROWS {
        let topic = if i % 100 == 7 { "Forced" } else { "Sheared" };
        db.execute_with_params(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)",
            &[
                Value::Int(i as i64),
                Value::Str(format!("{topic} turbulence run {i}")),
                Value::Str(format!("A{:03}", i % 50)),
                Value::Str("soton".into()),
                Value::Int(128),
                Value::Double(360.0 + i as f64),
                Value::Str(format!(
                    "Direct numerical simulation {i}, archived with its fields"
                )),
            ],
        )
        .unwrap();
    }
    let ceiling = PER_STATEMENT + PER_SURVIVOR * SURVIVORS as u64;
    let pattern = [Value::Str("Forced turbulence%".into())];

    // ---- the catalogue table ----
    let sql = "SELECT k, title FROM t WHERE title LIKE ?";
    let warm = db.execute_with_params(sql, &pattern).unwrap();
    assert_eq!(warm.rows.len(), SURVIVORS);
    let (rs, allocations) = counted(|| db.execute_with_params(sql, &pattern).unwrap());
    println!("table: {allocations} allocations");
    assert_eq!(rs.rows, warm.rows);
    assert!(
        allocations <= ceiling,
        "{allocations} allocations to scan {ROWS} rows for {SURVIVORS} \
         ({:.2} per scanned row); the ceiling is {ceiling}",
        allocations as f64 / ROWS as f64
    );

    // ---- the same rows as a relation ----
    let whole = db.execute("SELECT * FROM t").unwrap();
    let relation = [Relation {
        name: "R".into(),
        columns: whole.columns,
        rows: whole.rows,
    }];
    let Stmt::Select(sel) =
        easia_db::sql::parse("SELECT k, title FROM r WHERE title LIKE ?").unwrap()
    else {
        unreachable!()
    };
    let view = db.read_view();
    let (over, allocations) =
        counted(|| run_select_over(&db, &view, &sel, &pattern, &relation).unwrap());
    println!("relation: {allocations} allocations");
    assert_eq!(over.rows, warm.rows);
    assert!(
        allocations <= ceiling,
        "{allocations} allocations to read {SURVIVORS} of a {ROWS}-row relation; \
         the ceiling is {ceiling}"
    );

    // ---- aggregates fold the scratch row where it lies ----
    // Each group keeps one copy of its first row and nothing else of the
    // rows it folds, so a global COUNT(*) and a three-group GROUP BY
    // allocate as much over 20,000 rows as over one.
    for sql in [
        "SELECT COUNT(*) FROM t",
        "SELECT k % 3, COUNT(*), MIN(reynolds), AVG(grid_size) FROM t GROUP BY k % 3",
    ] {
        let warm = db.execute(sql).unwrap();
        let (rs, allocations) = counted(|| db.execute(sql).unwrap());
        println!("{sql}: {allocations} allocations");
        assert_eq!(rs.rows, warm.rows);
        assert!(
            allocations <= PER_AGGREGATE,
            "{allocations} allocations to aggregate {ROWS} rows; the ceiling is {PER_AGGREGATE}"
        );
    }

    // ---- ORDER BY … LIMIT keeps the survivors' projected cells ----
    // A survivor costs its output row (a `Vec` and the title) and its
    // sort keys (a `Vec`); a copy of its whole row (a `Vec` and four
    // strings) would blow the ceiling.
    let sql = "SELECT k, title FROM t WHERE title LIKE ? ORDER BY reynolds DESC, k LIMIT 10";
    let warm = db.execute_with_params(sql, &pattern).unwrap();
    assert_eq!(warm.rows.len(), 10);
    let (rs, allocations) = counted(|| db.execute_with_params(sql, &pattern).unwrap());
    println!("top-k: {allocations} allocations");
    assert_eq!(rs.rows, warm.rows);
    let ceiling = PER_STATEMENT + PER_KEPT * SURVIVORS as u64;
    assert!(
        allocations <= ceiling,
        "{allocations} allocations to keep the top 10 of {SURVIVORS} survivors; \
         the ceiling is {ceiling}"
    );

    // ---- the sieve: a rejected row costs nothing ----
    // A literal prefix rejects all but 12 of the 20,000 rows on their
    // bytes. The same statement over a table holding only those 12 rows
    // allocates exactly as much: nothing is spent on a rejected row.
    let sql = "SELECT k, title FROM {t} WHERE title LIKE 'Forced turbulence run 7%'";
    let on = |db: &mut Database, table: &str| {
        let sql = sql.replace("{t}", table);
        let warm = db.execute(&sql).unwrap();
        let (rs, allocations) = counted(|| db.execute(&sql).unwrap());
        assert_eq!(rs.rows, warm.rows);
        (rs.rows, allocations)
    };
    let (rows, allocations) = on(&mut db, "t");
    println!(
        "sieved: {allocations} allocations for {} of {ROWS} rows",
        rows.len()
    );
    assert_eq!(rows.len(), 12);
    db.execute(
        "CREATE TABLE u (k INTEGER PRIMARY KEY, title VARCHAR(200) NOT NULL, \
         author_key VARCHAR(30), site VARCHAR(30), grid_size INTEGER, reynolds DOUBLE, \
         description CLOB)",
    )
    .unwrap();
    let survivors = db.execute(&sql.replace("{t}", "t").replace("k, title", "*"));
    for row in survivors.unwrap().rows {
        db.execute_with_params("INSERT INTO u VALUES (?, ?, ?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    let (alone, survivors_only) = on(&mut db, "u");
    assert_eq!(alone, rows);
    assert_eq!(
        allocations,
        survivors_only,
        "a scan of {ROWS} rows allocates as much as one of its {} survivors",
        rows.len()
    );
}

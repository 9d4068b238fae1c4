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
//! per row at all, and ORDER BY only for a survivor's projected row: a
//! sort key is a cell of that row, never a copy. Lent through
//! `Database::execute_each`, an ordered survivor costs nothing of its
//! own. A WHERE the sieve decides and a GROUP BY of bare columns
//! allocate exactly as much over 20,000 rows as over 100.
//!
//! One test only: the counter is process-wide.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::value::decode_some_into;
use easia_db::{Database, Value};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 20_000;
const SURVIVORS: usize = ROWS / 100;
/// Parsing, planning, the scratch row and the result's own vectors.
const PER_STATEMENT: u64 = 150;
/// A survivor is projected (a `Vec` and the title) from the scratch row
/// it was decoded into: 487 allocations for the statement and its 200
/// survivors measured, debug and release alike.
const PER_SURVIVOR: u64 = 12;
/// What ORDER BY may spend on one survivor: its projected row and
/// nothing else, its sort keys being cells of its record. The top-k,
/// the output-column and the expression sort measure 153 / 525 / 528 for
/// the statement (504 / 497 / 500 while the sorted rows were a vector of
/// rows, not one arena of records); copying each row's keys read 703 /
/// 897 / 699.
const PER_SORTED: f64 = 2.5;
/// What a lent ORDER BY may spend beyond the statement, whatever its
/// survivors: the arena's and the permutation's doublings and one
/// scratch row. The top-k, the output-column and the expression sort
/// measure 132 / 120 / 123 for the statement; one allocation per
/// survivor reads 200 more.
const PER_LENT_SORT: u64 = 50;
/// One survivor that is a group of its own: its group key, representative
/// row, aggregate states and output row. 1,546 measured.
const PER_GROUP: u64 = 8;
/// Parsing, binding and finishing an aggregate statement, a copy of each
/// group's first row included: 104 and 175 measured, whatever the rows.
const PER_AGGREGATE: u64 = 2 * PER_STATEMENT;
/// What a LIKE-prefix COUNT(*) and a DOUBLE-range COUNT(*) the sieve
/// decides, and a three-aggregate GROUP BY folded from cells, allocate,
/// whatever the rows: the statement's own parse, plan and result, debug
/// and release alike.
const CONSTANT_SCANS: [u64; 3] = [80, 73, 90];

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
    let (rs, counts) = counted(|| db.execute_with_params(sql, &pattern).unwrap());
    let allocations = counts.allocs;
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
    let relation = [Relation::from_rows("R", whole.columns, &whole.rows)];
    let Stmt::Select(sel) =
        easia_db::sql::parse("SELECT k, title FROM r WHERE title LIKE ?").unwrap()
    else {
        unreachable!()
    };
    let view = db.read_view();
    let (over, counts) =
        counted(|| run_select_over(&db, &view, &sel, &pattern, &relation).unwrap());
    let allocations = counts.allocs;
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
        let (rs, counts) = counted(|| db.execute(sql).unwrap());
        let allocations = counts.allocs;
        println!("{sql}: {allocations} allocations");
        assert_eq!(rs.rows, warm.rows);
        assert!(
            allocations <= PER_AGGREGATE,
            "{allocations} allocations to aggregate {ROWS} rows; the ceiling is {PER_AGGREGATE}"
        );
    }

    // ---- ORDER BY sorts the survivors' projected rows ----
    // A sort key is a cell of the row it orders: an output column is read
    // where it lies, an expression's value rides after the output cells
    // in room the row was built with. A survivor costs its output row (a
    // `Vec` and the title) whatever it is sorted by; a copy of its keys (a
    // `Vec`, and the title again under ORDER BY title) or of its whole row
    // (a `Vec` and four strings) blows the ceiling.
    let ceiling = PER_STATEMENT + (PER_SORTED * SURVIVORS as f64) as u64;
    for (label, sql, rows) in [
        (
            "top-k",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY reynolds DESC, k LIMIT 10",
            10,
        ),
        (
            "by an output column",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY title",
            SURVIVORS,
        ),
        (
            "by an expression",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY reynolds DESC",
            SURVIVORS,
        ),
    ] {
        let warm = db.execute_with_params(sql, &pattern).unwrap();
        assert_eq!(warm.rows.len(), rows);
        let (rs, counts) = counted(|| db.execute_with_params(sql, &pattern).unwrap());
        let allocations = counts.allocs;
        println!("{label}: {allocations} allocations");
        assert_eq!(rs.rows, warm.rows);
        assert!(
            allocations <= ceiling,
            "{allocations} allocations to sort {SURVIVORS} survivors {label}; \
             the ceiling is {ceiling}"
        );
    }
    // ---- lent, the sorted rows are records until they are read ----
    // Through `execute_each` ORDER BY keeps each survivor as a record in
    // one arena and lends each row decoded into one scratch row: what it
    // allocates grows with the arena's doublings, not with the survivors.
    let lent_ceiling = PER_STATEMENT + PER_LENT_SORT;
    for (label, sql, rows) in [
        (
            "top-k",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY reynolds DESC, k LIMIT 10",
            10,
        ),
        (
            "by an output column",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY title",
            SURVIVORS,
        ),
        (
            "by an expression",
            "SELECT k, title FROM t WHERE title LIKE ? ORDER BY reynolds DESC",
            SURVIVORS,
        ),
    ] {
        let warm = db.execute_with_params(sql, &pattern).unwrap();
        assert_eq!(warm.rows.len(), rows);
        let (mut lent, mut scratch) = (Vec::with_capacity(rows), Vec::with_capacity(2));
        let (read, counts) = counted(|| {
            db.execute_each(sql, &pattern, |record| {
                decode_some_into(record, &mut 0, &mut scratch, &[true, false], false).unwrap();
                lent.extend(scratch[0].as_int());
            })
        });
        read.unwrap();
        let allocations = counts.allocs;
        println!("lent {label}: {allocations} allocations");
        let keys: Vec<i64> = warm.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(lent, keys, "{label}: the rows `execute` returns, in order");
        assert!(
            allocations <= lent_ceiling,
            "{allocations} allocations to lend {rows} sorted rows {label}; \
             the ceiling is {lent_ceiling}"
        );
    }
    // A pin: here each survivor is a group of its own, and its group key,
    // representative row and states cost more than its sort.
    let sql = "SELECT title, COUNT(*) FROM t WHERE title LIKE ? \
               GROUP BY title ORDER BY MIN(reynolds) DESC";
    let warm = db.execute_with_params(sql, &pattern).unwrap();
    assert_eq!(warm.rows.len(), SURVIVORS);
    let (rs, counts) = counted(|| db.execute_with_params(sql, &pattern).unwrap());
    let allocations = counts.allocs;
    println!("grouped: {allocations} allocations");
    assert_eq!(rs.rows, warm.rows);
    let ceiling = PER_STATEMENT + PER_GROUP * SURVIVORS as u64;
    assert!(
        allocations <= ceiling,
        "{allocations} allocations to group and sort {SURVIVORS} survivors; \
         the ceiling is {ceiling}"
    );

    // ---- decided by the sieve, folded from cells: a constant ----
    // A LIKE prefix and a DOUBLE range the sieve decides, and a GROUP BY
    // whose keys and arguments are bare columns, allocate exactly as much
    // over 20,000 rows as over the first 100 of them: no row is decoded,
    // and no group key or argument is copied out of its record.
    db.execute(
        "CREATE TABLE first (k INTEGER PRIMARY KEY, title VARCHAR(200) NOT NULL, \
         author_key VARCHAR(30), site VARCHAR(30), grid_size INTEGER, reynolds DOUBLE, \
         description CLOB)",
    )
    .unwrap();
    for row in db.execute("SELECT * FROM t WHERE k < 100").unwrap().rows {
        db.execute_with_params("INSERT INTO first VALUES (?, ?, ?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    for (label, sql, pinned) in [
        (
            "LIKE-prefix COUNT(*)",
            "SELECT COUNT(*) FROM {t} WHERE title LIKE 'Forced turbulence run 12%'",
            CONSTANT_SCANS[0],
        ),
        (
            "DOUBLE-range COUNT(*)",
            "SELECT COUNT(*) FROM {t} WHERE reynolds > 410.0",
            CONSTANT_SCANS[1],
        ),
        (
            "three-aggregate GROUP BY",
            "SELECT grid_size, COUNT(*), AVG(reynolds), MAX(reynolds) FROM {t} GROUP BY grid_size",
            CONSTANT_SCANS[2],
        ),
    ] {
        let mut counts = [0, 0];
        for (table, count) in ["t", "first"].into_iter().zip(&mut counts) {
            let sql = sql.replace("{t}", table);
            let warm = db.execute(&sql).unwrap();
            let (rs, c) = counted(|| db.execute(&sql).unwrap());
            assert_eq!(rs.rows, warm.rows);
            *count = c.allocs;
        }
        println!("{label}: {} allocations over {ROWS} rows", counts[0]);
        assert_eq!(
            counts[0], counts[1],
            "{label} allocates {} over {ROWS} rows, {} over 100",
            counts[0], counts[1]
        );
        assert_eq!(counts[0], pinned, "{label}");
    }

    // ---- the sieve: a rejected row costs nothing ----
    // A literal prefix rejects all but 12 of the 20,000 rows on their
    // bytes. The same statement over a table holding only those 12 rows
    // allocates exactly as much: nothing is spent on a rejected row.
    let sql = "SELECT k, title FROM {t} WHERE title LIKE 'Forced turbulence run 7%'";
    let on = |db: &mut Database, table: &str| {
        let sql = sql.replace("{t}", table);
        let warm = db.execute(&sql).unwrap();
        let (rs, counts) = counted(|| db.execute(&sql).unwrap());
        let allocations = counts.allocs;
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

//! Allocation budget of one federated result set.
//!
//! The primary-key browse "every simulation of this author" over a
//! SIMULATION table partitioned across the hub (500 rows) and three
//! foreign sites (2,000 rows each), joined at the hub with its AUTHOR
//! table (`support/fed_archive.rs`): `Archive::federated_query` end to
//! end — plan, scatter, each site's scan, the batch frames, the pump,
//! the hub join, ORDER BY and the decode of the merged records into a
//! result set — is counted through a counting global allocator. A
//! shipped row travels as its record from the site's executor through
//! the hub join, which copies the cells it passes through, to the
//! merge's arena, so what a row costs is its own decoded output row: a
//! `Vec` and its strings. A screen reads the records themselves and
//! renders them from their bytes; `fed_screen_allocs` counts it. Building
//! each shipped row as owned values at the site, again at the hub's
//! decode and again for the join read 27.5 allocations per returned row.
//!
//! One test only: the counter is process-wide.

use easia_db::Value;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/fed_archive.rs"]
mod fed_archive;

use counting_alloc::{counted, CountingAlloc};
use fed_archive::{AUTHOR_PK_ROWS, AUTHOR_PK_SQL};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Per returned row: its projected output row (a `Vec`, four strings
/// and the substituted name), and the frames, arenas and vectors it
/// shares. Measured: 14,707 allocations, 6.8 per row, debug and release
/// alike; decoding shipped rows into owned values read 59,503 (27.5).
const CEILING_PER_ROW: f64 = 8.0;

#[test]
fn a_federated_screen_allocates_for_the_rows_it_returns() {
    let mut a = fed_archive::archive();
    let sql = AUTHOR_PK_SQL;
    let params = [Value::Str("A1".into())];
    let warm = a.federated_query(sql, &params).unwrap();
    let (out, counts) = counted(|| a.federated_query(sql, &params).unwrap());
    assert_eq!(out.rs.rows, warm.rs.rows);
    let rows = out.rs.rows.len();
    assert_eq!(rows, AUTHOR_PK_ROWS, "a third of every partition");
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

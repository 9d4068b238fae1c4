//! Footprint of the durability paths.
//!
//! `Database::open` builds every index of a checkpointed table from the
//! restored heap, in the key order the image carries: each key is its
//! row's key cells copied out of the stored record, and each index entry
//! owns one key allocation (a lone row id inline). What it may hold
//! *beyond what it keeps* is the image it is reading, the key cells and
//! the row ids in heap order — not the table a second time as decoded
//! rows, which at some 350 bytes a row was three times the image. What it
//! keeps is the heap and the trees: about one allocation per row of a
//! table whose secondary keys repeat. `checkpoint()` copies visible
//! records as bytes: its allocations grow with the pages it writes, not
//! with the rows on them. Both are measured through a counting global
//! allocator on a 20,000-row table shaped like the benchmark's
//! `RESULT_FILE` (seven columns, a composite primary key, one secondary
//! index).
//!
//! Filing rows under one shared key grows that key's row list in place:
//! its allocations grow with the logarithm of the rows, not with them.
//!
//! One test only: the counters are process-wide.

use easia_db::index::btree::BPlusTree;
use easia_db::storage::RowId;
use easia_db::value::order_key;
use easia_db::{Database, Value};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 20_000;
/// Beyond the image being read: the key cells of both indexes copied
/// out of the records, the row ids in heap order, the order's checks —
/// 73 measured. Two runs of `(Vec<Value>, RowId)` pairs sorted from
/// scratch measured 93, every row decoded into a vector of its own 345.
const OPEN_TRANSIENT_PER_ROW: usize = 100;
/// Allocations `open` makes per row: 1.15 measured — one key per primary
/// key entry, and a key and a row list per distinct secondary key. Keys
/// as `Vec<Value>`s, cloned out of decoded rows, measured 6.28.
const OPEN_ALLOCS_PER_ROW: f64 = 1.5;
/// Bytes `open` keeps per row: the restored heap and both trees, 194
/// measured (129 of them the heap). `Vec<Value>` keys measured 272.
const OPEN_KEPT_PER_ROW: usize = 200;
/// A checkpoint's own buffers (the body doubling as it grows, the
/// scratch row's strings, file names), whatever the table size.
const CHECKPOINT_FIXED: u64 = 200;
/// A frame's bytes beyond its dirty pages and their numbers: the frame
/// header, the CSN, the table's name and its section's counts — 64
/// measured.
const FRAME_FIXED: u64 = 4096;
/// Filing `ROWS` rows under one key: the key, the boxed row list and its
/// doublings — 18 measured. A list copied whole on every insert made one
/// allocation per row.
const SHARED_KEY_ALLOCS: u64 = 64;

#[test]
fn open_holds_key_runs_not_rows_and_checkpoint_allocates_per_page() {
    let dir = std::env::temp_dir().join(format!("easia-db-open-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.execute(
        "CREATE TABLE result_file (file_name VARCHAR(100), simulation_key VARCHAR(30), \
         timestep INTEGER, measurement VARCHAR(20), file_format VARCHAR(10), \
         file_size INTEGER, download_result VARCHAR(200), \
         PRIMARY KEY (file_name, simulation_key))",
    )
    .unwrap();
    db.execute("CREATE INDEX idx_rf_sim ON result_file (simulation_key)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for i in 0..ROWS {
        let (sim, t) = (i / 50, i % 50);
        db.insert_row(
            "RESULT_FILE",
            vec![
                Value::Str(format!("t{t:03}.edf")),
                Value::Str(format!("S{sim:05}")),
                Value::Int(t as i64),
                Value::Str("velocity".into()),
                Value::Str("EDF".into()),
                Value::Int(1_048_576 + t as i64),
                Value::Str(format!("http://fs1.example.org/data/S{sim:05}/t{t:03}.edf")),
            ],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();

    // ---- checkpoint: per page, not per row ----
    // The first writes the whole image.
    let ((), counts) = counted(|| db.checkpoint().unwrap());
    let pages = db.table("RESULT_FILE").unwrap().heap.page_count() as u64;
    assert!(pages > 100, "{pages} pages");
    let allocations = counts.allocs;
    println!("checkpoint: {allocations} allocations for {pages} pages, {ROWS} rows");
    assert!(
        allocations <= CHECKPOINT_FIXED + 2 * pages,
        "{allocations} allocations to checkpoint {ROWS} rows on {pages} pages \
         ({:.2} per row)",
        allocations as f64 / ROWS as f64
    );
    drop(db);

    // ---- open: the image and the key runs, not the rows again ----
    let image = std::fs::metadata(dir.join("snapshot.db")).unwrap().len() as usize;
    let (mut db, counts) = counted(|| Database::open(&dir).unwrap());
    let (peak, kept) = (counts.peak as usize, counts.kept as usize);
    let transient = peak - kept;
    println!(
        "open: {} allocations ({:.2} per row), peak {peak} B, kept {kept} B ({:.0} B/row), \
         image {image} B: {:.0} B/row beyond the image",
        counts.allocs,
        counts.allocs as f64 / ROWS as f64,
        kept as f64 / ROWS as f64,
        (transient as f64 - image as f64) / ROWS as f64
    );
    assert!(
        transient <= image + OPEN_TRANSIENT_PER_ROW * ROWS,
        "open held {transient} B it did not keep: the {image} B image and {:.0} B per row",
        (transient as f64 - image as f64) / ROWS as f64
    );
    assert!(
        counts.allocs as f64 <= OPEN_ALLOCS_PER_ROW * ROWS as f64,
        "open made {} allocations for {ROWS} rows",
        counts.allocs
    );
    assert!(
        kept <= OPEN_KEPT_PER_ROW * ROWS,
        "open kept {kept} B for {ROWS} rows: {:.0} B per row",
        kept as f64 / ROWS as f64
    );
    let rs = db
        .execute("SELECT file_name FROM result_file WHERE simulation_key = 'S00123'")
        .unwrap();
    assert_eq!(rs.rows.len(), 50);

    // ---- a frame: the dirty pages, each beside its number, and nothing else ----
    let snapshot = dir.join("snapshot.db");
    let size = || std::fs::metadata(&snapshot).unwrap().len();
    let (before, pages_before) = (size(), pages);
    db.execute("BEGIN").unwrap();
    for i in 0..10 {
        db.insert_row(
            "RESULT_FILE",
            vec![
                Value::Str(format!("late{i}.edf")),
                Value::Str("S99999".into()),
                Value::Int(i),
                Value::Str("velocity".into()),
                Value::Str("EDF".into()),
                Value::Int(1),
                Value::Null,
            ],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    let ((), counts) = counted(|| db.checkpoint().unwrap());
    let t = db.table("RESULT_FILE").unwrap();
    // The last page before and every page after took the new rows.
    let dirty = (t.heap.page_count() as u64 - pages_before) + 1;
    let bound = dirty * (8192 + 4) + FRAME_FIXED;
    let grown = size() - before;
    println!(
        "frame: {grown} B for {dirty} dirty pages, bound {bound} B; {} allocations",
        counts.allocs
    );
    assert!(
        grown <= bound,
        "a frame of {grown} B over a bound of {bound} B"
    );
    assert!(
        counts.allocs <= CHECKPOINT_FIXED + 2 * dirty,
        "{} allocations to write a frame of {dirty} dirty pages",
        counts.allocs
    );
    let before = size();
    db.checkpoint().unwrap();
    assert!(
        size() - before <= 4096,
        "nothing dirty, {} B",
        size() - before
    );

    // ---- a whole rewrite: per page, not per row ----
    db.execute("CREATE TABLE other (a INTEGER)").unwrap();
    let ((), counts) = counted(|| db.checkpoint().unwrap());
    println!(
        "whole rewrite: {} allocations for {pages} pages, {ROWS} rows",
        counts.allocs
    );
    assert!(counts.allocs <= CHECKPOINT_FIXED + 2 * pages);
    assert!(size() < before, "the rewrite drops the frames");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- a shared key: one more row is filed in place ----
    let mut key = Vec::new();
    order_key(&Value::Str("velocity".into()), false, &mut key);
    let key = &key[..];
    let mut tree = BPlusTree::new();
    let ((), counts) = counted(|| (0..ROWS as u64).for_each(|i| tree.insert_key(key, RowId(i))));
    println!("shared key: {} allocations for {ROWS} rows", counts.allocs);
    assert!(
        counts.allocs <= SHARED_KEY_ALLOCS,
        "{} allocations to file {ROWS} rows under one key",
        counts.allocs
    );
    assert_eq!(tree.get_key(key).len(), ROWS);
}

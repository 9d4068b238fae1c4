//! Scale tier of the checkpoint, counted exactly: the bytes a 10-row
//! UPDATE and then a checkpoint append to `snapshot.db`, over tables of
//! the paper's `RESULT_FILE` shape — a primary key on
//! `(file_name, simulation_key)` and an index on `simulation_key` — of
//! 20,000, 200,000 and 1,000,000 rows.
//!
//! A frame carries the table's name and its dirty pages, each beside its
//! number, and nothing else: what the frame removes from the index orders
//! and files in them is read off those pages when the file is opened. So
//! the bytes must not grow with the table: the tiers differ by less than
//! one page. (A frame that carried every index's whole order appended 4
//! bytes per row per index: 160 KB more at 20,000 rows, 1.6 MB at
//! 200,000.) The bound is a ratio between tiers, so it does not move
//! with the machine.
//!
//! Every row is stored in `RECORD` bytes, fifty to a page, so each
//! tier's last page is full and the change's new versions start a page
//! of their own at every tier. Rows of the natural width leave the last
//! page as full as the row count happens to make it, and the new
//! versions may then need one tail page more at one tier than at
//! another — a page that does not grow with the table either (16,456
//! bytes at 20,000 and 200,000 rows, 24,652 at 1,000,000).
//!
//! Release mode only (`cargo test --release --test checkpoint_scale`):
//! the 200,000-row tier takes seconds there and far longer in a debug
//! build. The 1,000,000-row tier runs on demand (`-- --ignored`).

use easia_db::value::encode_row;
use easia_db::{Database, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows of one simulation: the UPDATE changes one simulation's rows.
const PER_SIM: usize = 10;
/// One page of the heap.
const PAGE: u64 = 8192;
/// Bytes of each stored row: with its 4-byte slot, fifty fit in a
/// page's 8,186 free bytes and fifty-one do not.
const RECORD: usize = 158;

/// Row `i`, its last column padded so that it is stored in `RECORD`
/// bytes.
fn row(i: usize) -> Vec<Value> {
    let (sim, t) = (i / PER_SIM, i % PER_SIM);
    let url = format!("http://fs1.example.org/data/S{sim:06}/t{t:03}.edf");
    let mut row = vec![
        Value::Str(format!("t{t:03}.edf")),
        Value::Str(format!("S{sim:06}")),
        Value::Int(t as i64),
        Value::Str("u,v,w,p".into()),
        Value::Str("EDF".into()),
        Value::Int(85_000_000),
        Value::Str(url.clone()),
    ];
    let mut record = Vec::new();
    encode_row(&row, &mut record);
    row[6] = Value::Str(format!("{url}#{}", "0".repeat(RECORD - record.len() - 1)));
    record.clear();
    encode_row(&row, &mut record);
    assert_eq!(record.len(), RECORD);
    row
}

/// The bytes a checkpoint appends after an UPDATE of one simulation's
/// `PER_SIM` rows, over a checkpointed table of `rows` rows.
fn frame_bytes(rows: usize) -> u64 {
    // The tests run side by side, each with a tier of 20,000 rows.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "easia-db-checkpoint-scale-{}-{run}",
        std::process::id()
    ));
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
    for i in 0..rows {
        db.insert_row("RESULT_FILE", row(i)).unwrap();
    }
    db.execute("COMMIT").unwrap();
    let pages = db.table("RESULT_FILE").unwrap().heap.page_count();
    assert_eq!(pages, rows / 50, "fifty rows to a page");
    db.checkpoint().unwrap();
    let snapshot = dir.join("snapshot.db");
    let size = || std::fs::metadata(&snapshot).unwrap().len();
    let before = size();
    let updated = db
        .execute(
            "UPDATE result_file SET file_size = file_size + 1 WHERE simulation_key = 'S000007'",
        )
        .unwrap();
    assert_eq!(updated.affected, PER_SIM);
    db.checkpoint().unwrap();
    let grown = size() - before;
    drop(db);
    let reopened = Database::open(&dir).unwrap();
    assert_eq!(reopened.table("RESULT_FILE").unwrap().heap.len(), rows);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    println!("{rows} rows: a {PER_SIM}-row UPDATE and a checkpoint append {grown} B");
    grown
}

/// The bytes at `rows` are within a page of the bytes at 20,000 rows.
fn within_a_page_of_the_first_tier(rows: usize) {
    let (small, large) = (frame_bytes(20_000), frame_bytes(rows));
    assert!(
        small.abs_diff(large) < PAGE,
        "a {PER_SIM}-row change appends {small} B at 20000 rows and {large} B at {rows}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a release-mode tier")]
fn a_ten_row_update_appends_the_same_bytes_at_20k_and_200k_rows() {
    within_a_page_of_the_first_tier(200_000);
}

#[test]
#[ignore = "the 1M-row tier runs on demand"]
fn a_ten_row_update_appends_the_same_bytes_at_20k_and_1m_rows() {
    within_a_page_of_the_first_tier(1_000_000);
}

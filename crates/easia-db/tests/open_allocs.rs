//! Footprint of the durability paths.
//!
//! `Database::open` fills every index of a checkpointed table from the
//! restored heap. What it may hold *beyond what it keeps* is the image
//! it is reading and one `(key, row id)` run per index — not the table
//! a second time as decoded rows, which at some 350 bytes a row was
//! three times the image. `checkpoint()` copies visible records as
//! bytes: its allocations grow with the pages it writes, not with the
//! rows on them. Both are measured through a counting global allocator
//! on a 20,000-row table shaped like the benchmark's `RESULT_FILE`
//! (seven columns, a composite primary key, one secondary index).
//!
//! One test only: the counters are process-wide.

use easia_db::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct CountingAlloc;

// Relaxed: statistics that publish no other data; the test is one thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence the result.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 20_000;
/// Beyond the image being read: two runs of 32-byte pairs, the sort's
/// scratch, and the secondary index's repeated keys until they are
/// grouped — 93 measured. Every row decoded into a vector of its own
/// first measures 345.
const OPEN_TRANSIENT_PER_ROW: usize = 150;
/// A checkpoint's own buffers (the body doubling as it grows, the
/// scratch row's strings, file names), whatever the table size.
const CHECKPOINT_FIXED: u64 = 200;

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
    db.checkpoint().unwrap();

    // ---- checkpoint: per page, not per row ----
    let pages = db.table("RESULT_FILE").unwrap().heap.page_count() as u64;
    assert!(pages > 100, "{pages} pages");
    let before = ALLOCS.load(Ordering::Relaxed);
    db.checkpoint().unwrap();
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
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
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut db = Database::open(&dir).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let transient = peak - kept;
    println!(
        "open: peak {peak} B, kept {kept} B, image {image} B: {:.0} B/row beyond the image",
        (transient as f64 - image as f64) / ROWS as f64
    );
    assert!(
        transient <= image + OPEN_TRANSIENT_PER_ROW * ROWS,
        "open held {transient} B it did not keep: the {image} B image and {:.0} B per row",
        (transient as f64 - image as f64) / ROWS as f64
    );
    let rs = db
        .execute("SELECT file_name FROM result_file WHERE simulation_key = 'S00123'")
        .unwrap();
    assert_eq!(rs.rows.len(), 50);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

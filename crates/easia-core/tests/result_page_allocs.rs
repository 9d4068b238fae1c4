//! Allocation budget of one large result screen.
//!
//! A 5,000-row, 4-column RESULT_FILE screen — statement, row-operation
//! applicability and page render, the whole `WebApp::handle` call — is
//! counted through a counting global allocator. The count repeats
//! exactly from run to run, so the ceiling sits a quarter above it: a
//! per-row `String`, `Vec` or `Operation` clone creeping back into the
//! serving path (there were 120 allocations per row before they were
//! taken out) fails here, not in a benchmark.
//!
//! One test only: the counter is process-wide.

use easia_core::{paper_link_spec, turbulence, Archive, WebApp};
use easia_web::http::Request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
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

const SIMULATIONS: usize = 100;
const FILES: usize = 50;
/// Measured: 95,323 allocations for the screen, 19.1 per row, debug
/// and release alike; the commit before the rewrite measured 600,515
/// (120.1 per row) and fails this.
const CEILING_PER_ROW: f64 = 23.0;

#[test]
fn a_5000_row_screen_stays_within_its_allocation_budget() {
    let mut a = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        .build();
    turbulence::install_schema(&mut a).unwrap();
    a.db.execute("INSERT INTO author VALUES ('A1', 'Mark Papiani', NULL, NULL)")
        .unwrap();
    let mut sql = String::new();
    for i in 0..SIMULATIONS {
        a.db.execute(&format!(
            "INSERT INTO simulation VALUES ('S{i:03}', 'Channel flow run {i}', 'A1', 64, 360.0, \
             {FILES}, 'run {i}')"
        ))
        .unwrap();
        sql.clear();
        sql.push_str("INSERT INTO result_file VALUES ");
        for t in 0..FILES {
            let sep = if t == 0 { "" } else { ", " };
            let _ = write!(
                sql,
                "{sep}('t{t:03}.edf', 'S{i:03}', {t}, 'u,v,w,p', 'EDF', {}, NULL)",
                85_000_000 + t
            );
        }
        a.db.execute(&sql).unwrap();
    }
    a.generate_xuis(4);
    turbulence::attach_standard_operations(&mut a).unwrap();
    let mut app = WebApp::new(a);
    let session = app
        .handle(Request::post(
            "/login",
            &[("username", "admin"), ("password", "hpcc-admin")],
        ))
        .set_session
        .expect("session cookie set");
    let screen = || {
        Request::post(
            "/query/RESULT_FILE",
            &[
                ("ret_FILE_NAME", "on"),
                ("ret_SIMULATION_KEY", "on"),
                ("ret_TIMESTEP", "on"),
                ("ret_FILE_SIZE", "on"),
                ("val_SIMULATION_KEY", "S%"),
            ],
        )
        .with_session(&session)
    };
    // Once to warm lazily registered metric series, then the count.
    let warm = app.handle(screen());
    let rows = SIMULATIONS * FILES;
    assert!(
        warm.body_text().contains(&format!("<p>{rows} row(s)</p>")),
        "the screen returns every file"
    );
    let request = screen();
    let before = ALLOCS.load(Ordering::Relaxed);
    let response = app.handle(request);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(response.body, warm.body);
    // Four operation-free cells and an operations column per row.
    assert!(response.body_text().contains("FieldStats"));

    let per_row = allocations as f64 / rows as f64;
    println!("{allocations} allocations, {per_row:.1} per row");
    assert!(
        per_row <= CEILING_PER_ROW,
        "{allocations} allocations for {rows} rows = {per_row:.1} per row, over {CEILING_PER_ROW}"
    );
}

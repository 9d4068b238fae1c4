//! Allocation budget of one federated result screen, page included.
//!
//! The primary-key browse of author A1's simulations,
//! `/browse/pk/SIMULATION.AUTHOR_KEY?value=A1`, through
//! `WebApp::handle_at` over the federated archive of `fed_page_allocs`
//! — plan, scatter, each site's scan, the batch frames, the pump, the
//! hub's LEFT JOIN with AUTHOR, ORDER BY, the operations judged and the
//! page rendered — is counted through a counting global allocator. A
//! row is its records from the site's executor to the page: the join
//! copies each shipped cell it passes through, the merge lends its
//! records into one arena, and the page renders from their bytes, so a
//! row costs no allocation of its own; what is counted is the frames,
//! arenas and the page the rows share.
//!
//! One test only: the counter is process-wide.

use easia_core::WebApp;
use easia_web::http::Request;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/fed_archive.rs"]
mod fed_archive;

use counting_alloc::{counted, CountingAlloc};
use fed_archive::AUTHOR_PK_ROWS;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measured: 1,673 allocations, 0.77 per row, debug and release alike —
/// about 1,560 of them the federated statement (planning, each site's
/// scan, the 33 batch frames and the pump), the rest the page. The
/// ceiling sits a quarter above it. While the hub join wrote each cell
/// from a value and the screen read the merged rows decoded into a
/// result set and rendered them from values, it counted 14,660 (6.77
/// per row).
const CEILING_PER_ROW: f64 = 0.97;

#[test]
fn a_federated_screen_allocates_nothing_per_row() {
    let mut app = WebApp::new(fed_archive::archive());
    let session = app
        .handle(Request::post(
            "/login",
            &[("username", "admin"), ("password", "hpcc-admin")],
        ))
        .set_session
        .expect("session cookie set");
    let screen =
        || Request::get("/browse/pk/SIMULATION.AUTHOR_KEY?value=A1").with_session(&session);
    // Once to warm lazily registered metric series, then the count.
    let now = app.archive.net.now();
    let warm = app.handle_at(screen(), now);
    assert_eq!(warm.status, 200, "{}", warm.body_text());
    let body = warm.body_text();
    assert!(
        body.contains(&format!("<p>{AUTHOR_PK_ROWS} row(s)</p>")),
        "a third of every partition"
    );
    assert!(
        body.contains(">Author A1</a>"),
        "the substitute label shows"
    );
    let (request, now) = (screen(), app.archive.net.now());
    let (response, counts) = counted(|| app.handle_at(request, now));
    assert_eq!(response.body, warm.body);
    let per_row = counts.allocs as f64 / AUTHOR_PK_ROWS as f64;
    println!(
        "{} allocations, {per_row:.2} per row, {} bytes",
        counts.allocs, counts.bytes
    );
    assert!(
        per_row <= CEILING_PER_ROW,
        "{} allocations for {AUTHOR_PK_ROWS} rows ({per_row:.2} per row); the ceiling is \
         {CEILING_PER_ROW} per row",
        counts.allocs
    );
}

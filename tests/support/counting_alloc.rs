//! The counting global allocator of the allocation tests.
//!
//! Each allocation test includes this file as a module
//! (`#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`)
//! and installs the allocator itself:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
//!
//! [`counted`] then measures one closure: allocations, bytes allocated,
//! and the live bytes it kept and peaked at. The counters are
//! process-wide, so each such test binary holds one test.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to `System`, counting on the way.
pub struct CountingAlloc;

// Relaxed: statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence the result.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one closure allocated.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Allocations (a `realloc` is one).
    pub allocs: u64,
    /// Bytes allocated (a `realloc` counts its new size).
    pub bytes: u64,
    /// Live bytes at the end beyond those at the start (0 if fewer).
    pub kept: u64,
    /// Highest live bytes beyond those at the start.
    pub peak: u64,
}

/// Run `run`, counting what it allocates.
pub fn counted<T>(run: impl FnOnce() -> T) -> (T, Counts) {
    let (allocs, bytes, live) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    PEAK.store(live, Ordering::Relaxed);
    let out = run();
    let counts = Counts {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
        kept: LIVE.load(Ordering::Relaxed).saturating_sub(live),
        peak: PEAK.load(Ordering::Relaxed) - live,
    };
    (out, counts)
}

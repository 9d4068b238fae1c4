//! A counting wrapper around the system allocator, installed in this
//! package only, so `alloc.count_per_op` / `alloc.bytes_per_op` can be
//! reported without touching the program under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations and requested bytes; frees are not tracked.
pub struct CountingAlloc;

// Relaxed: these are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence the result.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_an_allocation() {
        let (a0, b0) = super::snapshot();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (a1, b1) = super::snapshot();
        assert!(a1 > a0, "allocation counted");
        assert!(b1 - b0 >= 4096, "bytes counted: {}", b1 - b0);
        drop(v);
    }
}

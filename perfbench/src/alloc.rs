//! A counting global allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global
//! allocator; every heap allocation on any thread bumps one relaxed
//! counter, so a region's allocation count is the difference of two
//! [`allocations`] readings. Library tests run without it and read 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc` and `realloc` calls.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations made so far by the whole process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

//! A global allocator that counts heap blocks (alloc + realloc), for the
//! allocation-budget binaries. Each of them holds one test: the counter
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to `System` unchanged; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap blocks handed out so far.
pub fn blocks() -> u64 {
    BLOCKS.load(Ordering::Relaxed)
}

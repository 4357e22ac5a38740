//! A global allocator that counts heap blocks (alloc + realloc), the
//! bytes they ask for and the reallocations among them, for the
//! allocation-budget binaries. Each of them holds one test: the counters
//! are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to `System` unchanged; the counters are
// relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap blocks handed out so far.
#[allow(dead_code)] // not every budget binary counts blocks
pub fn blocks() -> u64 {
    BLOCKS.load(Ordering::Relaxed)
}

/// Bytes requested so far: each allocation's size, and each
/// reallocation's new size.
#[allow(dead_code)] // not every budget binary counts bytes
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Reallocations so far (each also counted as a block by [`blocks`]).
#[allow(dead_code)] // not every budget binary counts reallocations
pub fn reallocs() -> u64 {
    REALLOCS.load(Ordering::Relaxed)
}

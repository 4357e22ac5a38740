//! Allocation budget of the operator loop: a row is materialised once
//! per side. One XMark MF→LF exchange through `execute_source_phase` →
//! `execute_target_phase` (no codec, no wire — the cross feeds are handed
//! over as they are) may allocate at most `BLOCKS_PER_ROW` heap blocks per
//! landed row (an LF row is wide: 53 measured). The clone-per-input node
//! loops and the clone-and-sort Combine this bound was set against spent
//! 310 — 4.8× the budget.
//!
//! The only test in this binary: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xdx::core::exec::{execute_source_phase, execute_target_phase};
use xdx::core::DataExchange;
use xdx::relational::Database;

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

const BLOCKS_PER_ROW: u64 = 64;

#[test]
fn mf_to_lf_exchange_stays_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));
    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange = DataExchange::new(&schema, mf.clone(), lf.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let mut target = Database::new("target");

    let before = BLOCKS.load(Ordering::Relaxed);
    let (phase, mut outcome) =
        execute_source_phase(&schema, &mf, &lf, &program, &mut source, None).unwrap();
    execute_target_phase(
        &schema,
        &mf,
        &lf,
        &program,
        &mut target,
        &phase.feeds,
        &mut outcome,
    )
    .unwrap();
    let blocks = BLOCKS.load(Ordering::Relaxed) - before;

    assert!(outcome.rows_loaded > 0);
    assert_eq!(outcome.rows_loaded, target.total_rows() as u64);
    let per_row = blocks / outcome.rows_loaded;
    assert!(
        per_row <= BLOCKS_PER_ROW,
        "{blocks} blocks for {} landed rows: {per_row} per row, budget {BLOCKS_PER_ROW}",
        outcome.rows_loaded
    );
}

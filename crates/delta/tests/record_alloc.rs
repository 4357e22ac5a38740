//! What a settle's snapshot costs in heap traffic: `db_tables` +
//! `record_shared` of a freshly built table set equal to the route's
//! head must allocate *and free* a number of blocks bounded by the table
//! count, never by the row count — no document is copied into the log,
//! and none dies inside `record`. Twenty records cover the ones that
//! advance the anchor (18th on, at the default retention) and the ones
//! past the diff memo's capacity.
//!
//! The only test in this binary: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdx_delta::{db_tables, SnapshotStore};
use xdx_relational::feed::fragment_feed_schema;
use xdx_relational::{Database, Dewey, Feed, Value};

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to `System` unchanged; the counters are
// relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(1, Ordering::Relaxed);
        FREED.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TABLES: u32 = 6;
const ROWS_PER_TABLE: u32 = 2_000;
/// Heap blocks one record may allocate, and may free, per table: names,
/// schemas and the table lists of the recorded, retained and anchor
/// sets (20 measured at most, on the records that advance the anchor).
/// A document is 4 blocks a row, 8 000 a table.
const BLOCKS_PER_TABLE: u64 = 40;

/// A committed target as a session leaves it: every cell built anew.
fn landed() -> Database {
    let mut db = Database::new("target");
    for t in 0..TABLES {
        let mut feed = Feed::new(fragment_feed_schema("item", &[("item".to_string(), true)]));
        for r in 0..ROWS_PER_TABLE {
            let row = vec![
                Value::Dewey(Dewey::from([1, t])),
                Value::Dewey(Dewey::from([1, t, r])),
                Value::Str(format!("table {t} row {r}").into()),
            ];
            feed.push_row(row).unwrap();
        }
        db.load(&format!("T{t}"), feed).unwrap();
    }
    db
}

#[test]
fn a_record_allocates_and_frees_by_the_table_not_by_the_row() {
    let store = SnapshotStore::new();
    let budget = BLOCKS_PER_TABLE * u64::from(TABLES);
    for record in 1..=20u64 {
        let target = landed();
        let (allocated, freed) = (
            ALLOCATED.load(Ordering::Relaxed),
            FREED.load(Ordering::Relaxed),
        );
        let version = store.record_shared("route", Arc::new(db_tables(&target)));
        let allocated = ALLOCATED.load(Ordering::Relaxed) - allocated;
        let freed = FREED.load(Ordering::Relaxed) - freed;
        assert_eq!(version, record);
        assert!(
            allocated <= budget && freed <= budget,
            "record {record}: {allocated} blocks allocated, {freed} freed; budget {budget} \
             ({} rows in the document)",
            TABLES * ROWS_PER_TABLE
        );
        // The duplicate this session decoded dies here, with its target.
    }
    assert_eq!(store.head("route"), 20);
}

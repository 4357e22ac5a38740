//! Allocation budget of `Combine` over shared rows: whether an input's
//! rows move into the output or are read where they sit is its `Rows`
//! handle's to say. A 10 k row parent and child in key order, one child
//! per parent, with id and integer cells only (a row is then its only
//! heap block): `merge_combine` over inputs whose rows a live handle
//! still shares may allocate no more blocks per output row than over
//! inputs that hold theirs alone. Sole inputs move each row, grown once:
//! 1.00 (10 005 blocks). Shared ones return a view of both (DESIGN §19),
//! whose slots are the only allocation: 0.00 (11 blocks). Copying each
//! shared row cost what the move does, 1.00, and the `Cow::Owned` of a
//! shared feed before that copied the shared set out whole and then grew
//! every copied row: 3.00.
//!
//! A second phase moves such a shared view out by value: `absorb` into a
//! set that already holds rows (what a table written twice does) copies
//! the view's rows once, at most 1.05 blocks per row (one per row and the
//! set's growth: 1.00). Copying them into the view's cache first and then
//! out of it cost 2.00, and left the first copy pinned in the view.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::relational::ops::{merge_combine, ChainHint};
use xdx::relational::{ColRole, Counters, Dewey, Feed, FeedColumn, FeedSchema, Rows, Value};

const ROWS: u32 = 10_000;

/// A fresh row set per call: `ROWS` parents under the root, one child each.
fn family() -> (Feed, Feed) {
    let id = |path: &[u32]| Value::Dewey(Dewey::from(path));
    let feed = |root: &str, rows: Vec<Vec<Value>>| Feed {
        schema: FeedSchema::new(
            root,
            vec![
                FeedColumn::new(root, ColRole::ParentRef),
                FeedColumn::new(root, ColRole::NodeId),
                FeedColumn::new(format!("{root}Key"), ColRole::Value),
            ],
        ),
        rows: rows.into(),
    };
    let parents = (1..=ROWS).map(|k| vec![id(&[]), id(&[k]), Value::Int(k.into())]);
    let children = (1..=ROWS).map(|k| vec![id(&[k]), id(&[k, 1]), Value::Int(k.into())]);
    (feed("P", parents.collect()), feed("C", children.collect()))
}

/// Heap blocks one `merge_combine` of `parent` and `child` allocates.
fn combine_blocks(parent: Feed, child: Feed) -> u64 {
    let before = common::blocks();
    let out = merge_combine(
        parent,
        child,
        "P",
        ChainHint::default(),
        &mut Counters::new(),
    )
    .unwrap();
    let blocks = common::blocks() - before;
    assert_eq!(out.len(), ROWS as usize);
    blocks
}

#[test]
fn combining_shared_rows_costs_no_more_blocks_than_moving_sole_ones() {
    let (parent, child) = family();
    let sole = combine_blocks(parent, child);
    let (parent, child) = family();
    let kept = (parent.clone(), child.clone());
    let shared = combine_blocks(parent, child);
    assert_eq!((kept.0.len(), kept.1.len()), (ROWS as usize, ROWS as usize));

    let per_row = |blocks: u64| blocks as f64 / f64::from(ROWS);
    println!(
        "merge_combine of {ROWS} + {ROWS} rows: sole inputs {sole} blocks ({:.2} per output \
         row), shared inputs {shared} blocks ({:.2} per output row)",
        per_row(sole),
        per_row(shared)
    );
    assert!(
        shared <= sole,
        "shared inputs: {shared} blocks ({:.2} per row); sole inputs: {sole} ({:.2})",
        per_row(shared),
        per_row(sole)
    );

    let (parent, child) = family();
    let kept = (parent.clone(), child.clone());
    let view = merge_combine(
        parent,
        child,
        "P",
        ChainHint::default(),
        &mut Counters::new(),
    )
    .unwrap()
    .rows;
    let holder = view.clone();
    let mut set: Rows = vec![vec![Value::Null; 5]].into();
    let before = common::blocks();
    set.absorb(view);
    let absorbed = common::blocks() - before;
    assert_eq!(
        (set.len(), holder.len()),
        (ROWS as usize + 1, ROWS as usize)
    );
    assert_eq!(set.slice(1..), holder.slice(..));
    assert_eq!((kept.0.len(), kept.1.len()), (ROWS as usize, ROWS as usize));
    println!(
        "absorbing a shared {ROWS}-row Combine view into a non-empty set: {absorbed} blocks \
         ({:.2} per row)",
        per_row(absorbed)
    );
    assert!(
        per_row(absorbed) <= 1.05,
        "absorbing a shared view: {absorbed} blocks ({:.2} per row)",
        per_row(absorbed)
    );
}

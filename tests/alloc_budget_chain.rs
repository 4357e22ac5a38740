//! Allocation budget of a Combine chain: each row it creates is
//! allocated once, at the width the chain ends at. One 200 KB XMark
//! MF→LF exchange, `execute_source_phase` → `execute_target_phase` on
//! the feeds it gave up, may reallocate a bounded number of times per
//! landed row. The LF `ITEM` fragment inlines six child fragments into
//! each item row; grown by one child's width at each step, every item
//! row was reallocated six times (DESIGN §19). Now a chain that crosses
//! to the target grows each delivered row once, at its first Combine
//! there, and the Combines after it append in place.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use std::collections::HashMap;
use xdx::core::exec::{execute_source_phase, execute_target_phase};
use xdx::core::DataExchange;
use xdx::relational::{Database, Feed};

/// Reallocations per landed row: 1.12 measured (+25 %). Growing each row
/// at every step of its chain spent 5.78.
const REALLOCS_PER_ROW: f64 = 1.4;

#[test]
fn a_combine_chain_allocates_each_row_once() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));
    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange = DataExchange::new(&schema, mf.clone(), lf.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let mut target = Database::new("target");

    let before = common::reallocs();
    let (phase, mut outcome) =
        execute_source_phase(&schema, &mf, &lf, &program, &mut source, None).unwrap();
    // Each delivered feed a row set of its own, as a decoder hands it
    // over: the cross feeds are the source's scanned rows or views of
    // them, and a target Combine over rows it may not move reads them in
    // place instead of moving them along its chain.
    let delivered: HashMap<_, _> = phase
        .feeds
        .into_iter()
        .map(|(port, feed)| {
            let rows = feed.rows.clone().into_iter().collect();
            (port, Feed { rows, ..feed })
        })
        .collect();
    execute_target_phase(
        &schema,
        &mf,
        &lf,
        &program,
        &mut target,
        delivered,
        &mut outcome,
    )
    .unwrap();
    let reallocs = common::reallocs() - before;

    assert!(outcome.rows_loaded > 0);
    assert_eq!(outcome.rows_loaded, target.total_rows() as u64);
    let per_row = reallocs as f64 / outcome.rows_loaded as f64;
    println!(
        "MF -> LF: {reallocs} reallocations for {} landed rows, {per_row:.2} per row",
        outcome.rows_loaded
    );
    assert!(
        per_row <= REALLOCS_PER_ROW,
        "{per_row:.2} reallocations per landed row, budget {REALLOCS_PER_ROW}"
    );
}

//! Allocation budget of the operator loop: a row is materialised once
//! per side. One XMark MF→LF exchange through `execute_source_phase` →
//! `execute_target_phase` (no codec, no wire — the cross feeds are handed
//! over as they are) may allocate at most `BLOCKS_PER_ROW` heap blocks per
//! landed row: an LF row is wide, and with ids stored in place what is
//! left is the row and its string cells, 15.7 measured (+25 %). A heap
//! block behind every id made it 30; the clone-per-input node loops and
//! the clone-and-sort Combine before that spent 310.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::{execute_source_phase, execute_target_phase};
use xdx::core::DataExchange;
use xdx::relational::Database;

const BLOCKS_PER_ROW: u64 = 19;

#[test]
fn mf_to_lf_exchange_stays_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));
    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange = DataExchange::new(&schema, mf.clone(), lf.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let mut target = Database::new("target");

    let before = common::blocks();
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
    let blocks = common::blocks() - before;

    assert!(outcome.rows_loaded > 0);
    assert_eq!(outcome.rows_loaded, target.total_rows() as u64);
    let per_row = blocks / outcome.rows_loaded;
    assert!(
        per_row <= BLOCKS_PER_ROW,
        "{blocks} blocks for {} landed rows: {per_row} per row, budget {BLOCKS_PER_ROW}",
        outcome.rows_loaded
    );
}

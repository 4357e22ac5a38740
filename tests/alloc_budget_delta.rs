//! Allocation budget of a delta round's source side: the source does
//! not ship the document to itself (DESIGN §23). One 200 KB XMark
//! document, one 5 % churn, MF→LF columnar: `execute_in_place` →
//! `diff_snapshots` against the previous head → `encode_patch` may
//! allocate a bounded number of heap blocks per source row. Computing
//! the head through the loopback instead — every cross feed encoded,
//! enveloped, copied, parsed and decoded, a scratch target staged,
//! committed and indexed — spent 4.98 blocks per source row here (19 511
//! against 7 594). In place, the Combines copied every row and string
//! cell of the head only for the diff to read them once: 1.29 (5 061
//! blocks). Now the head is a set of views on the source's rows (a
//! Combine over shared rows gathers, DESIGN §19) and the patch payload
//! copies the changed rows alone: 0.20 (800 blocks) while every string
//! cell was a `String`, and 0.17 (684 blocks) now that a string of up
//! to 22 bytes is held in its cell, what is left being the views' slots,
//! the patch and its frame.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::execute_in_place;
use xdx::core::DataExchange;
use xdx_codec::{encode_patch, WireFormat};
use xdx_delta::diff_snapshots;

/// 0.17 measured (+12 %; 0.20 with a `String` per string cell). A head
/// whose Combines copy its rows spent 1.29, and the loopback head 4.98:
/// the budget cannot come back over 4.
const BLOCKS_PER_SOURCE_ROW: f64 = 0.19;
const _: () = assert!(BLOCKS_PER_SOURCE_ROW <= 4.0);

#[test]
fn a_delta_round_computes_its_head_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));
    let mut synced = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange =
        DataExchange::new(&schema, mf.clone(), lf.clone()).with_wire_format(WireFormat::Columnar);
    let (program, _) = exchange.plan(&exchange.probe(&synced).unwrap()).unwrap();
    // Version 1, as the target holds it; the round below ships 1 → 2.
    let (base, _) = execute_in_place(&schema, &mf, &lf, &program, &mut synced).unwrap();
    let churned = xdx::xmark::churn(&doc, 5, 1);
    let mut source = xdx::xmark::load_source(&churned, &schema, &mf).unwrap();
    let rows = source.total_rows() as u64;

    let before = common::blocks();
    let (head, _) = execute_in_place(&schema, &mf, &lf, &program, &mut source).unwrap();
    let patch = diff_snapshots(&base, &head, 1, 2).unwrap();
    let frame = encode_patch(&patch, WireFormat::Columnar);
    let blocks = common::blocks() - before;

    assert!(patch.step_count() > 0, "the churn changed something");
    assert!(frame.len() * 4 < churned.len(), "and far from everything");
    let per_row = blocks as f64 / rows as f64;
    println!(
        "MF -> LF delta round: {blocks} blocks for {rows} source rows, {per_row:.2} per row; \
         {} steps, {} patch bytes",
        patch.step_count(),
        frame.len()
    );
    assert!(
        per_row <= BLOCKS_PER_SOURCE_ROW,
        "{per_row:.2} blocks per source row, budget {BLOCKS_PER_SOURCE_ROW}"
    );
}

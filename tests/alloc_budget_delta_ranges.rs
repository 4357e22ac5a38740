//! Allocation budget of a delta round that computes only what changed
//! (DESIGN §23). The same 200 KB XMark document, 5 % churn and MF→LF
//! columnar round as `alloc_budget_delta`: the source diffed against the
//! source the base was computed from, each changed row's instance cut to
//! its prefix, the program run in place over those instances' rows
//! alone (`PrefixMap::run_ranged`: the source's tables cut to views of
//! their own rows, and put back after), the head diffed against the base
//! inside their ranges (`diff_ranges`) and `encode_patch` may allocate a
//! bounded number of heap blocks per source row.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::{execute_in_place, PrefixMap};
use xdx::core::DataExchange;
use xdx_codec::{encode_patch, WireFormat};
use xdx_delta::{diff_ranges, diff_snapshots};

/// 0.190 measured (+12 %): 745 blocks, reading 235 of 3 914 source
/// rows. Nearly all of it is paid per program node and per table, not per
/// row, so it sits beside the whole head's 0.17 (673 blocks), not far
/// under it: the run's operators build their feeds' schemas, views and
/// the loop's maps whatever rows they read, the diff and the patch are
/// the changed rows' as before, and cutting a table to its ranges adds a
/// view of four blocks per table it shows rows of.
const BLOCKS_PER_SOURCE_ROW: f64 = 0.21;

#[test]
fn a_ranged_delta_round_stays_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));
    let mut previous = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange =
        DataExchange::new(&schema, mf.clone(), lf.clone()).with_wire_format(WireFormat::Columnar);
    let (program, _) = exchange.plan(&exchange.probe(&previous).unwrap()).unwrap();
    // Version 1, as the target holds it; the round below ships 1 → 2.
    let (base, _) = execute_in_place(&schema, &mf, &lf, &program, &mut previous).unwrap();
    let churned = xdx::xmark::churn(&doc, 5, 1);
    let mut source = xdx::xmark::load_source(&churned, &schema, &mf).unwrap();
    let rows = source.total_rows() as u64;

    let before = common::blocks();
    let prefixes = PrefixMap::new(&schema, &mf, &lf);
    let change = prefixes.changed(&source, &previous).expect("no id moved");
    let run = |ranged: &mut _| execute_in_place(&schema, &mf, &lf, &program, ranged);
    let (head, held) = prefixes.run_ranged(&mut source, &change, run).unwrap();
    let patch = diff_ranges(&base, &head.unwrap().0, &change.prefixes, 1, 2).unwrap();
    let frame = encode_patch(&patch, WireFormat::Columnar);
    let blocks = common::blocks() - before;

    // The patch the whole head gives, outside the count.
    let (whole, _) = execute_in_place(&schema, &mf, &lf, &program, &mut source).unwrap();
    let whole = diff_snapshots(&base, &whole, 1, 2).unwrap();
    assert!(
        frame == encode_patch(&whole, WireFormat::Columnar),
        "the whole head's patch"
    );
    assert!(patch.step_count() > 0, "the churn changed something");
    assert!(
        held * 5 < rows as usize,
        "{held} of {rows} source rows read"
    );
    let per_row = blocks as f64 / rows as f64;
    println!(
        "MF -> LF ranged delta round: {blocks} blocks for {rows} source rows, {per_row:.3} per row; \
         {} rows changed, {} instances, {held} rows read; {} steps, {} patch bytes",
        change.rows,
        change.prefixes.len(),
        patch.step_count(),
        frame.len()
    );
    assert!(
        per_row <= BLOCKS_PER_SOURCE_ROW,
        "{per_row:.3} blocks per source row, budget {BLOCKS_PER_SOURCE_ROW}"
    );
}

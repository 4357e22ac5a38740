//! Allocation budget of a whole exchange, codec included: a cell is not
//! an allocation. One 200 KB XMark exchange through
//! `execute_source_phase` → per cross feed `encode_rows_in_format_into` →
//! `decode_any` → `execute_target_phase` → `build_all_key_indexes` may
//! allocate a bounded number of heap blocks per landed row, in both
//! directions: LF→MF over XML text (Split, the text codec, 24 tables
//! indexed) and MF→LF columnar (Combine, the columnar codec, wide rows).
//! With a heap block behind every Dewey cell the first loop spent 26
//! blocks per landed row (DESIGN §22); what is left is one block per row
//! per materialisation and one per string cell longer than the 22 bytes
//! a cell holds in place.
//!
//! The source half of LF→MF alone (`execute_source_phase`: Scan and
//! Split) allocates per group, not per row: Split's outputs are views of
//! its input, which the encoder reads where the rows sit.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use std::collections::HashMap;
use xdx::core::exec::{execute_source_phase, execute_target_phase};
use xdx::core::{DataExchange, Fragmentation};
use xdx::relational::Database;
use xdx::xml::SchemaTree;
use xdx_codec::{decode_any, encode_rows_in_format_into, WireFormat};

/// LF→MF over XML text: 1.86 measured (+18 %; 2.34 while every string
/// cell was a `String`, 4.27 while Split copied its groups' rows out).
/// The per-cell blocks spent 26.45 and cannot come back under 8.
const SPLIT_TEXT_BLOCKS_PER_ROW: f64 = 2.2;
const _: () = assert!(SPLIT_TEXT_BLOCKS_PER_ROW <= 8.0);
/// MF→LF columnar: an LF row is wide, 12.89 measured (+16 %; 16.53 while
/// every string cell was a `String`, 35.53 before Combine gathered views
/// and 58.83 with the per-cell Dewey blocks).
const COMBINE_COLUMNAR_BLOCKS_PER_ROW: f64 = 15.0;
/// LF→MF source phase, per shipped row: a Split that copied its groups'
/// rows out spent 2.02 (a block per row and per string cell).
const SPLIT_SOURCE_BLOCKS_PER_SHIPPED_ROW: f64 = 0.25;

/// Heap blocks (alloc + realloc) of one exchange of `doc` from `from` to
/// `to`, every cross feed through the codec in `format`: per landed row
/// for the whole exchange, and per shipped row for its source phase.
fn blocks_per_row(
    schema: &SchemaTree,
    doc: &str,
    from: &Fragmentation,
    to: &Fragmentation,
    format: WireFormat,
) -> (f64, f64) {
    let mut source = xdx::xmark::load_source(doc, schema, from).unwrap();
    let exchange = DataExchange::new(schema, from.clone(), to.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let mut target = Database::new("target");
    let mut buf = Vec::new();

    let before = common::blocks();
    let (phase, mut outcome) =
        execute_source_phase(schema, from, to, &program, &mut source, None).unwrap();
    let source_blocks = common::blocks() - before;
    let mut delivered = HashMap::with_capacity(phase.cross_ports.len());
    for cross in &phase.cross_ports {
        let feed = &phase.feeds[&cross.port];
        encode_rows_in_format_into(&mut buf, &feed.schema, feed.rows.slice(..), format);
        delivered.insert(cross.port, decode_any(&buf).unwrap());
    }
    execute_target_phase(
        schema,
        from,
        to,
        &program,
        &mut target,
        delivered,
        &mut outcome,
    )
    .unwrap();
    target.build_all_key_indexes().unwrap();
    let blocks = common::blocks() - before;

    assert!(outcome.rows_loaded > 0);
    assert_eq!(outcome.rows_loaded, target.total_rows() as u64);
    let per_row = blocks as f64 / outcome.rows_loaded as f64;
    println!(
        "{} -> {} ({format}): {blocks} blocks for {} landed rows, {per_row:.2} per row",
        from.name, to.name, outcome.rows_loaded
    );
    let shipped: usize = phase.feeds.values().map(|feed| feed.len()).sum();
    let source_per_row = source_blocks as f64 / shipped as f64;
    println!(
        "  source phase: {source_blocks} blocks for {shipped} shipped rows, {source_per_row:.2} per row"
    );
    (per_row, source_per_row)
}

#[test]
fn an_exchange_through_the_codec_stays_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));

    let (split, split_source) = blocks_per_row(&schema, &doc, &lf, &mf, WireFormat::Xml);
    assert!(
        split <= SPLIT_TEXT_BLOCKS_PER_ROW,
        "LF->MF text: {split:.2} blocks per landed row, budget {SPLIT_TEXT_BLOCKS_PER_ROW}"
    );
    assert!(
        split_source <= SPLIT_SOURCE_BLOCKS_PER_SHIPPED_ROW,
        "LF->MF source phase: {split_source:.2} blocks per shipped row, \
         budget {SPLIT_SOURCE_BLOCKS_PER_SHIPPED_ROW}"
    );
    let (combine, _) = blocks_per_row(&schema, &doc, &mf, &lf, WireFormat::Columnar);
    assert!(
        combine <= COMBINE_COLUMNAR_BLOCKS_PER_ROW,
        "MF->LF columnar: {combine:.2} blocks per landed row, budget {COMBINE_COLUMNAR_BLOCKS_PER_ROW}"
    );
}

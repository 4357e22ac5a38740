//! Allocation budget of the text codec's decoder on one 1024-row XMark
//! frame: the MF->LF cross feed with the most string bytes
//! (`idescription`: sentences over a small vocabulary), cut to the first
//! 1024 rows and shipped as tagged text.
//!
//! Decode owns one heap block per row and one per string cell; the rest
//! is per frame (the schema's column names, the row list growing by
//! doubling, one id-component buffer). An id is not an allocation: its
//! components are parsed into that buffer, reused across the frame, and
//! copied in place into the `Dewey`.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::execute_source_phase;
use xdx::core::DataExchange;
use xdx::relational::{Feed, Value};
use xdx_codec::{decode_any, encode_in_format_into, WireFormat};

const ROWS: usize = 1024;
/// Decode blocks beyond one per row, per string cell: 1.02 measured
/// (2064 blocks; the split-and-dispatch decoder before it, 2063).
const DECODE_BLOCKS_PER_STRING_CELL: f64 = 1.1;
/// Decode blocks per row (the row, its string cells, its share of the
/// frame's): 2.02 measured, 2.01 before.
const DECODE_BLOCKS_PER_ROW: f64 = 2.2;

/// The first `ROWS` rows of the string-heaviest MF->LF cross feed.
fn xmark_frame_feed() -> Feed {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(600_000));
    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let exchange = DataExchange::new(&schema, mf.clone(), lf.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let (mut phase, _) =
        execute_source_phase(&schema, &mf, &lf, &program, &mut source, None).unwrap();
    let string_bytes = |feed: &Feed| -> usize {
        feed.rows
            .iter()
            .flatten()
            .map(|v| match v {
                Value::Str(s) => s.len(),
                _ => 0,
            })
            .sum()
    };
    let port = *phase
        .feeds
        .iter()
        .max_by_key(|(_, feed)| string_bytes(feed))
        .map(|(port, _)| port)
        .unwrap();
    let mut feed = phase.feeds.remove(&port).unwrap();
    assert!(feed.len() >= ROWS, "{} rows", feed.len());
    feed.rows = feed.rows.slice(..ROWS).iter().cloned().collect();
    feed
}

#[test]
fn a_text_frame_decodes_with_a_block_per_row_and_string_cell() {
    let feed = xmark_frame_feed();
    let strings = feed
        .rows
        .iter()
        .flatten()
        .filter(|v| matches!(v, Value::Str(_)))
        .count();
    assert!(strings >= ROWS);

    let mut buf = Vec::new();
    encode_in_format_into(&mut buf, &feed, WireFormat::Xml);
    let before = common::blocks();
    let back = decode_any(&buf).unwrap();
    let decode = common::blocks() - before;
    assert_eq!(back, feed);

    let per_string = (decode - ROWS as u64) as f64 / strings as f64;
    let per_row = decode as f64 / ROWS as f64;
    println!(
        "{} feed, {ROWS} rows, arity {}, {strings} string cells, {} frame bytes: \
         decode {decode} blocks, {per_string:.2} per string cell beyond the rows, {per_row:.2} per row",
        feed.schema.root_element,
        feed.schema.arity(),
        buf.len()
    );
    assert!(
        per_string <= DECODE_BLOCKS_PER_STRING_CELL,
        "decode: {per_string:.2} blocks per string cell, budget {DECODE_BLOCKS_PER_STRING_CELL}"
    );
    assert!(
        per_row <= DECODE_BLOCKS_PER_ROW,
        "decode: {per_row:.2} blocks per row, budget {DECODE_BLOCKS_PER_ROW}"
    );
}

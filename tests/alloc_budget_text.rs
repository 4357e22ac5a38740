//! Allocation budget of the text codec's decoder on one 1024-row XMark
//! frame: the MF->LF cross feed with the most string bytes
//! (`idescription`: sentences over a small vocabulary), cut to the first
//! 1024 rows and shipped as tagged text.
//!
//! Decode owns one heap block per row and one per string cell longer
//! than the 22 bytes a cell holds in place (a second, synthetic feed of
//! short strings takes none per string cell); the rest is per frame (the
//! schema's column names, the row list growing by doubling, one
//! id-component buffer). An id is not an allocation: its components are
//! parsed into that buffer, reused across the frame, and copied in place
//! into the `Dewey`.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::execute_source_phase;
use xdx::core::DataExchange;
use xdx::relational::feed::fragment_feed_schema;
use xdx::relational::{Dewey, Feed, Value};
use xdx_codec::{decode_any, encode_in_format_into, WireFormat};

const ROWS: usize = 1024;
/// Decode blocks beyond one per row, per string cell: 1.02 measured
/// (2064 blocks; the split-and-dispatch decoder before it, 2063).
const DECODE_BLOCKS_PER_STRING_CELL: f64 = 1.1;
/// Decode blocks per row (the row, its string cells, its share of the
/// frame's): 2.02 measured, 2.01 before.
const DECODE_BLOCKS_PER_ROW: f64 = 2.2;
/// Decode blocks beyond one per row, per string cell, on a feed of
/// strings of at most 22 bytes, which a cell holds in place: 0.02
/// measured (the frame's own blocks); 1.0 while every string cell was a
/// `String`.
const SHORT_DECODE_BLOCKS_PER_STRING_CELL: f64 = 0.1;

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
            .clone()
            .into_iter()
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
    let mut rows = Vec::new();
    feed.rows.slice(..ROWS).copy_to(&mut rows);
    feed.rows = rows.into();
    feed
}

/// A `ROWS`-row feed whose every string cell is at most 22 bytes, what a
/// `Text` holds in place: a country and a running number, 7–18 bytes.
fn short_string_feed() -> Feed {
    let schema = fragment_feed_schema("location", &[("location".to_string(), true)]);
    let mut feed = Feed::new(schema);
    feed.rows = (0..ROWS as u32)
        .map(|i| {
            let country = ["United States", "Ghana", "Kenya", "Egypt"][i as usize % 4];
            vec![
                Value::Dewey(Dewey::from([1, i])),
                Value::Dewey(Dewey::from([1, i, 1])),
                Value::Str(format!("{country} {i}").into()),
            ]
        })
        .collect();
    feed
}

/// String cells of `feed`, and the heap blocks decoding its tagged-text
/// frame takes: in all, beyond one per row per string cell, and per row.
fn decode_blocks(feed: &Feed) -> (usize, usize, u64, f64, f64) {
    let strings = feed
        .rows
        .clone()
        .into_iter()
        .flatten()
        .filter(|v| matches!(v, Value::Str(_)))
        .count();
    assert!(strings >= ROWS);
    let mut buf = Vec::new();
    encode_in_format_into(&mut buf, feed, WireFormat::Xml);
    let before = common::blocks();
    let back = decode_any(&buf).unwrap();
    let decode = common::blocks() - before;
    assert_eq!(&back, feed);
    let per_string = (decode - ROWS as u64) as f64 / strings as f64;
    (
        strings,
        buf.len(),
        decode,
        per_string,
        decode as f64 / ROWS as f64,
    )
}

#[test]
fn a_text_frame_decodes_with_a_block_per_row_and_string_cell() {
    let feed = xmark_frame_feed();
    let (strings, frame, decode, per_string, per_row) = decode_blocks(&feed);
    println!(
        "{} feed, {ROWS} rows, arity {}, {strings} string cells, {frame} frame bytes: \
         decode {decode} blocks, {per_string:.2} per string cell beyond the rows, {per_row:.2} per row",
        feed.schema.root_element,
        feed.schema.arity(),
    );
    assert!(
        per_string <= DECODE_BLOCKS_PER_STRING_CELL,
        "decode: {per_string:.2} blocks per string cell, budget {DECODE_BLOCKS_PER_STRING_CELL}"
    );
    assert!(
        per_row <= DECODE_BLOCKS_PER_ROW,
        "decode: {per_row:.2} blocks per row, budget {DECODE_BLOCKS_PER_ROW}"
    );

    let (strings, _, decode, per_string, _) = decode_blocks(&short_string_feed());
    println!(
        "short strings, {ROWS} rows, {strings} string cells of at most 22 bytes: \
         decode {decode} blocks, {per_string:.2} per string cell beyond the rows"
    );
    assert!(
        per_string <= SHORT_DECODE_BLOCKS_PER_STRING_CELL,
        "decode of short strings: {per_string:.2} blocks per string cell, \
         budget {SHORT_DECODE_BLOCKS_PER_STRING_CELL}"
    );
}

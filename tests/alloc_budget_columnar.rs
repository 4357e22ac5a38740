//! Allocation budget of the columnar codec on one 1024-row XMark frame:
//! the MF->LF cross feed with the most string bytes (`idescription`:
//! sentences over a small vocabulary), cut to the first 1024 rows.
//!
//! Decode owns one heap block per row and one per string cell longer
//! than the 22 bytes a cell holds in place; the rest is per frame (the
//! token list, the string-table arena and its ranges). A second,
//! synthetic 1024-row feed of short strings decodes with a block per row
//! and none per string cell.
//! A decoder that builds each string-table entry by growing its own
//! `String` and then clones it into every cell spent 6.85 blocks per
//! string cell beyond the rows (7.85 per row).
//!
//! A steady-state encode into a reused buffer allocates per frame, not
//! per row or per cell: one buffer per column (tags, then payload) and
//! the dictionaries, whose maps are sized once from the frame.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::execute_source_phase;
use xdx::core::DataExchange;
use xdx::relational::feed::fragment_feed_schema;
use xdx::relational::{Dewey, Feed, Value};
use xdx_codec::{decode_any, encode_in_format_into, WireFormat};

const ROWS: usize = 1024;
/// Decode blocks beyond one per row, per string cell: 1.03 measured.
const DECODE_BLOCKS_PER_STRING_CELL: f64 = 1.1;
/// The same for a feed of strings of at most 22 bytes, which a cell
/// holds in place: 0.02 measured (the frame's own blocks); 1.0 while
/// every string cell was a `String`.
const SHORT_DECODE_BLOCKS_PER_STRING_CELL: f64 = 0.1;
/// Decode blocks per row (the row, its string cells, its share of the
/// frame's): 2.03 measured.
const DECODE_BLOCKS_PER_ROW: f64 = 2.2;
/// Encode blocks per frame: 21 measured (the column list, three column
/// buffers and their growth, the two dictionary maps sized once from the
/// frame's string cells, the token and string-table buffers and their
/// growth, one cell's token keys). Dictionaries that grew by doubling
/// spent 40; the encoder that kept a string id per cell and wrote each
/// column in its own pass spent 32. A block per row would be over 1000.
const ENCODE_BLOCKS_PER_FRAME: u64 = 21;

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

/// String cells of `feed`, and the heap blocks decoding its columnar
/// frame `buf` takes: beyond one per row, per string cell, and per row.
fn decode_blocks(feed: &Feed, buf: &[u8]) -> (usize, u64, f64, f64) {
    let strings = feed
        .rows
        .clone()
        .into_iter()
        .flatten()
        .filter(|v| matches!(v, Value::Str(_)))
        .count();
    assert!(strings >= ROWS);
    let before = common::blocks();
    let back = decode_any(buf).unwrap();
    let decode = common::blocks() - before;
    assert_eq!(&back, feed);
    let per_string = (decode - ROWS as u64) as f64 / strings as f64;
    (strings, decode, per_string, decode as f64 / ROWS as f64)
}

#[test]
fn a_columnar_frame_allocates_per_row_and_string_cell_not_per_token() {
    let feed = xmark_frame_feed();
    let mut buf = Vec::new();
    encode_in_format_into(&mut buf, &feed, WireFormat::Columnar);
    let before = common::blocks();
    encode_in_format_into(&mut buf, &feed, WireFormat::Columnar);
    let encode = common::blocks() - before;
    let (strings, decode, per_string, per_row) = decode_blocks(&feed, &buf);
    println!(
        "{} feed, {ROWS} rows, arity {}, {strings} string cells, {} frame bytes: encode {encode} blocks; \
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
    assert!(
        encode <= ENCODE_BLOCKS_PER_FRAME,
        "encode into a reused buffer: {encode} blocks, budget {ENCODE_BLOCKS_PER_FRAME}"
    );

    let short = short_string_feed();
    encode_in_format_into(&mut buf, &short, WireFormat::Columnar);
    let (strings, decode, per_string, _) = decode_blocks(&short, &buf);
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

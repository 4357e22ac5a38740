//! Allocation budget of publish&map's own halves on a 200 KB XMark
//! document (seed 7), into and out of both MF and LF:
//!
//! * shredding may allocate `SHRED_BLOCKS_PER_LANDED` heap blocks beyond
//!   what a no-op `sax::drive` over the same text allocates, per landed
//!   string cell plus landed row. A row is one block and a string cell
//!   longer than 22 bytes one, allocated where they land (a shorter one
//!   is held in its cell); the rest is the feeds' growth: 0.55 into LF
//!   and 0.79 into MF measured (+20 %). With a `String` per string cell
//!   it read 1.03 and 1.05; an instance tree with a `String` per node
//!   and a row rebuilt at every level spent 14.8 and 2.5;
//! * publishing may allocate `PUBLISH_BLOCKS_PER_ELEMENT` per published
//!   element: the tagger sorts entries borrowed from the stored feeds and
//!   the writer keeps its open names in one buffer, so no element owns a
//!   block; what is left is per table and per document, 0.02 from LF and
//!   0.04 from MF measured. A hash-indexed instance arena with a `String`
//!   per text and per open name spent 2.29 and 2.36.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::publish::publish;
use xdx::core::shred::shred;
use xdx::core::Fragmentation;
use xdx::relational::Value;
use xdx::xml::sax::{self, Handler};
use xdx::xml::SchemaTree;

const SHRED_BLOCKS_PER_LANDED: f64 = 0.95;
const PUBLISH_BLOCKS_PER_ELEMENT: f64 = 0.1;

/// Parses and does nothing else.
struct Parse;
impl Handler for Parse {}

/// Heap blocks shredding `doc` into `frag` allocates beyond parsing it,
/// per landed string cell plus landed row.
fn shred_blocks(schema: &SchemaTree, doc: &str, frag: &Fragmentation) -> f64 {
    let before = common::blocks();
    sax::drive(doc, &mut Parse).unwrap();
    let parse = common::blocks() - before;
    let before = common::blocks();
    let shredded = shred(doc, schema, frag).unwrap();
    let blocks = common::blocks() - before - parse;

    let strings = shredded
        .feeds
        .iter()
        .flat_map(|feed| feed.rows.clone().into_iter().flatten())
        .filter(|cell| matches!(cell, Value::Str(_)))
        .count() as u64;
    let per = blocks as f64 / (strings + shredded.rows) as f64;
    println!(
        "shred into {}: {blocks} blocks beyond the parse for {strings} strings and {} rows, {per:.2} each",
        frag.name, shredded.rows
    );
    per
}

/// Heap blocks publishing `doc` back from `frag` allocates per published
/// element.
fn publish_blocks(schema: &SchemaTree, doc: &str, frag: &Fragmentation) -> f64 {
    let elements = sax::drive(doc, &mut Parse).unwrap();
    let mut source = xdx::xmark::load_source(doc, schema, frag).unwrap();
    let before = common::blocks();
    let published = publish(schema, frag, &mut source).unwrap();
    let blocks = common::blocks() - before;

    assert_eq!(published.xml.split_once("?>").unwrap().1, doc);
    let per = blocks as f64 / elements as f64;
    println!(
        "publish from {}: {blocks} blocks for {elements} elements, {per:.2} per element",
        frag.name
    );
    per
}

#[test]
fn publish_and_map_stays_inside_its_allocation_budget() {
    let schema = xdx::xmark::schema();
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig {
        target_bytes: 200_000,
        seed: 7,
    });
    for frag in [xdx::xmark::lf(&schema), xdx::xmark::mf(&schema)] {
        let shred = shred_blocks(&schema, &doc, &frag);
        assert!(
            shred <= SHRED_BLOCKS_PER_LANDED,
            "shred into {}: {shred:.2} blocks per landed string and row, budget {SHRED_BLOCKS_PER_LANDED}",
            frag.name
        );
        let publish = publish_blocks(&schema, &doc, &frag);
        assert!(
            publish <= PUBLISH_BLOCKS_PER_ELEMENT,
            "publish from {}: {publish:.2} blocks per element, budget {PUBLISH_BLOCKS_PER_ELEMENT}",
            frag.name
        );
    }
}

//! Allocation budget of the target's index build (the paper's "create
//! indices" step, Table 4): an index keeps row positions, never keys.
//! Over the tables one 200 KB XMark exchange lands, in both directions,
//! `build_key_indexes` may request at most `BYTES_PER_ROW` heap bytes
//! per indexed row — the positions and run starts of a table's ID and
//! PARENT indexes. An index that cloned each run's key into its own
//! vector requested 156.8 bytes per row LF→MF and 89.9 MF→LF.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::core::exec::{execute_source_phase, execute_target_phase};
use xdx::core::{DataExchange, Fragmentation};
use xdx::relational::Database;
use xdx::xml::SchemaTree;

const BYTES_PER_ROW: f64 = 32.0;

/// Heap bytes `build_key_indexes` requests per indexed row over the
/// tables an exchange of `doc` from `from` to `to` lands.
fn index_bytes_per_row(
    schema: &SchemaTree,
    doc: &str,
    from: &Fragmentation,
    to: &Fragmentation,
) -> f64 {
    let mut source = xdx::xmark::load_source(doc, schema, from).unwrap();
    let exchange = DataExchange::new(schema, from.clone(), to.clone());
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let mut target = Database::new("target");
    let (phase, mut outcome) =
        execute_source_phase(schema, from, to, &program, &mut source, None).unwrap();
    execute_target_phase(
        schema,
        from,
        to,
        &program,
        &mut target,
        &phase.feeds,
        &mut outcome,
    )
    .unwrap();
    let names: Vec<String> = target.table_names().into_iter().map(String::from).collect();

    let before = common::bytes();
    for name in &names {
        let (table, counters) = target.table_mut(name).unwrap();
        table.build_key_indexes(counters).unwrap();
    }
    let bytes = common::bytes() - before;

    let rows = target.total_rows();
    assert!(rows > 0);
    let per_row = bytes as f64 / rows as f64;
    println!(
        "{} -> {}: {bytes} bytes for {rows} indexed rows, {per_row:.1} per row",
        from.name, to.name
    );
    per_row
}

#[test]
fn key_indexes_stay_inside_their_allocation_budget() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(200_000));

    for (from, to) in [(&lf, &mf), (&mf, &lf)] {
        let per_row = index_bytes_per_row(&schema, &doc, from, to);
        assert!(
            per_row <= BYTES_PER_ROW,
            "{} -> {}: {per_row:.1} bytes per indexed row, budget {BYTES_PER_ROW}",
            from.name,
            to.name
        );
    }
}

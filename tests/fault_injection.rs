//! Failure-injection tests: a damaged wide-area link must surface as an
//! explicit error at the receiving side — never as silently corrupt target
//! data.

use xdx::core::agency::DataExchange;
use xdx::core::Fragmentation;
use xdx::net::channel::Fault;
use xdx::net::{Link, NetworkProfile};
use xdx::relational::Database;

fn workload() -> (xdx::xml::SchemaTree, Fragmentation, Fragmentation, Database) {
    let schema = xdx::xmark::schema();
    let mf = xdx::xmark::mf(&schema);
    let lf = xdx::xmark::lf(&schema);
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(40_000));
    let source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    (schema, mf, lf, source)
}

#[test]
fn corrupted_message_fails_loudly() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan()).with_fault(Fault::CorruptEveryNth(1));
    let err = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("corrupted") || msg.contains("content-length") || msg.contains("decode"),
        "unexpected error: {msg}"
    );
    // Nothing half-loaded: the failing fragment never reached a table.
    assert!(target.total_rows() == 0 || target.table_names().len() < 3);
}

#[test]
fn truncated_message_fails_loudly() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan()).with_fault(Fault::TruncateEveryNth(1));
    let err = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap_err();
    // The HTTP layer catches the truncation before the feed decoder even
    // runs: either the header terminator is gone (short messages) or the
    // content-length no longer matches.
    let msg = err.to_string();
    assert!(
        msg.contains("content-length") || msg.contains("terminator"),
        "{msg}"
    );
}

#[test]
fn intermittent_fault_fails_only_when_hit() {
    let (schema, mf, lf, mut source) = workload();
    // MF→LF ships 3 messages by default; a fault on every 100th message
    // never triggers.
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan()).with_fault(Fault::CorruptEveryNth(100));
    DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .expect("fault never fires within 3 messages");
    assert_eq!(target.table_names().len(), 3);
}

#[test]
fn healthy_link_is_unaffected_by_fault_plumbing() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan()); // Fault::None default
    let (report, _) = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap();
    assert!(report.rows_loaded > 0);
}

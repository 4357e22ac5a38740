//! Allocation budget of a 1→N publish: subscribers share the delivered
//! rows, so a publish to four allocates about what a publish to one
//! does. One runtime with two workers publishes a 500 KB XMark document
//! MF→LF in the columnar format, once to one subscriber and once to
//! four, after a warm-up publish of each that fills the plan cache and
//! every route's snapshot log. The group decodes and stages each batch
//! once; per subscriber remain only commit, indexing and bookkeeping.
//! This measured 1.00 (29,356 heap blocks for the 1→4 publish against
//! 29,401 for the 1→1). Staging per lane, where every lane after the
//! first copied a port's shared first batch to append its second,
//! measured 1.96.
//!
//! The only test in this binary: the counter is process-wide.

mod common;

use xdx::runtime::{PublishRequest, Runtime, RuntimeConfig, SessionState, WireFormat};
use xdx::xmark::{generate, lf, load_source, mf, schema, GenConfig};

const DOC_BYTES: usize = 500_000;
const BUDGET: f64 = 1.10;

#[test]
fn a_publish_to_four_allocates_about_what_a_publish_to_one_does() {
    let schema = schema();
    let doc = generate(GenConfig::sized(DOC_BYTES));
    let (mf, lf) = (mf(&schema), lf(&schema));
    let source = load_source(&doc, &schema, &mf).unwrap();
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
    // Heap blocks one publish to `subscribers` allocates, from submit
    // to the last lane's result.
    let publish = |subscribers: usize| {
        let request = PublishRequest::new(
            format!("publish-{subscribers}"),
            source.clone(),
            mf.clone(),
            lf.clone(),
            (0..subscribers).map(|i| format!("sub-{i}")).collect(),
        )
        .with_wire_format(WireFormat::Columnar);
        let before = common::blocks();
        let results = runtime.publish(request).unwrap().wait();
        let blocks = common::blocks() - before;
        assert_eq!(results.len(), subscribers);
        for result in &results {
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
        blocks
    };
    publish(1);
    publish(4);
    let one = publish(1);
    let four = publish(4);
    runtime.shutdown();

    let ratio = four as f64 / one as f64;
    println!(
        "{DOC_BYTES}-byte columnar publish: 1→1 {one} blocks, 1→4 {four} blocks ({ratio:.2}×)"
    );
    assert!(
        ratio <= BUDGET,
        "a publish to four allocated {four} blocks against {one} for a publish to one: \
         {ratio:.2}×, budget {BUDGET}×"
    );
}

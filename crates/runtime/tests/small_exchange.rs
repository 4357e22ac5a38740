//! The small-document gate: a 20 KB exchange is a handful of messages
//! and puts fewer bytes on the link than publish&map does.
//!
//! The paper's cost model charges an exchange `size(fragment)`, and its
//! opening example is an order-sized message. With a ring slot per cross
//! port, a 20 KB document was some twenty separately enveloped messages
//! and shipped 1.13 wire bytes per document byte against publish&map's
//! 1.00 — the optimized exchange lost the one quantity the optimizer
//! minimises. A slot is a row budget now (DESIGN §21); this test holds
//! the result, both directions, in the default wire format.

mod common;

use common::oracle::lands_like_pm;
use xdx_core::pm::publish_and_map;
use xdx_core::Fragmentation;
use xdx_net::{Link, NetworkProfile};
use xdx_relational::Database;
use xdx_runtime::{ExchangeRequest, Runtime, RuntimeConfig, SessionState};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

fn small_exchange_beats_publish_and_map(from: &Fragmentation, to: &Fragmentation) {
    let schema = schema();
    let doc = generate(GenConfig::sized(20_000));

    // The byte count to beat: the whole tagged document, once, over a
    // recording link.
    let mut link = Link::new(NetworkProfile::lan());
    publish_and_map(
        &schema,
        from,
        to,
        &mut load_source(&doc, &schema, from).unwrap(),
        &mut Database::new("pm"),
        &mut link,
    )
    .unwrap();
    let pm_bytes = link.total_bytes();
    assert!(pm_bytes as usize > doc.len(), "the envelope counts too");

    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));
    let source = load_source(&doc, &schema, from).unwrap();
    let result = runtime
        .submit(ExchangeRequest::new(
            "small",
            source,
            from.clone(),
            to.clone(),
        ))
        .unwrap()
        .wait();
    runtime.shutdown();
    let route = format!("{}→{}", from.name, to.name);
    assert_eq!(
        result.state,
        SessionState::Done,
        "{route}: {:?}",
        result.diagnostic
    );

    let target = result.target.expect("a done session carries its target");
    lands_like_pm(&schema, to, &target, &doc);

    let m = &result.metrics;
    assert!(
        m.messages_serialized <= 4,
        "{route}: {} messages for a {} byte document",
        m.messages_serialized,
        doc.len()
    );
    assert_eq!(m.messages, m.messages_serialized, "{route}");
    assert!(
        m.bytes_shipped < pm_bytes,
        "{route}: shipped {} bytes, publish&map ships {pm_bytes}",
        m.bytes_shipped
    );
}

#[test]
fn a_small_exchange_ships_less_than_publish_and_map_in_both_directions() {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    small_exchange_beats_publish_and_map(&mf, &lf);
    small_exchange_beats_publish_and_map(&lf, &mf);
}

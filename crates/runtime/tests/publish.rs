//! 1→N publish and N→1 consolidation integration tests.
//!
//! The multicast contract, per publish group: the source is probed and
//! planned **once** per distinct (shape, format); every batch is encoded
//! **once** into a shared refcounted frame ring and the same bytes ride
//! every subscriber's lane; acks, breakers, retries and resume stay
//! fully per-subscriber, so a broken lane fails alone, leaves its
//! target rolled back, and resumes from its own reassembly ledger while
//! the healthy lanes never pay an extra encode. Consolidation is the
//! mirror image: N ordinary sessions whose targets fold into one
//! database with transactional per-source staging — a dead source
//! contributes zero rows, never a torn prefix.

mod common;

use common::oracle::{reference_target, wire_state};
use std::time::Duration;
use xdx_net::{BurstLoss, FaultProfile, NetworkProfile};
use xdx_runtime::{
    EventKind, ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionState,
    ShippingPolicy, DEFAULT_SOURCE_ENDPOINT, DEFAULT_TARGET_ENDPOINT,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

fn subscribers(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("sub-{i}")).collect()
}

/// 1→4 and 1→8 publish: every subscriber lands byte-identical to the
/// reference, yet the group probes once and encodes each batch exactly
/// once — the fanout run's encode bytes stay within 1.2× a 1→1 publish
/// of the same document, and the shared-frame reuse counter proves the
/// other lanes rode the same buffers.
#[test]
fn fanout_shares_one_encode_across_subscribers() {
    let schema = schema();
    let doc = generate(GenConfig::sized(20_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    // 1→1 baseline: what one lane costs in encodes.
    let single = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
    let results = single
        .publish(PublishRequest::new(
            "pub",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(1),
        ))
        .unwrap()
        .wait();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].state,
        SessionState::Done,
        "{:?}",
        results[0].diagnostic
    );
    let base = single.shutdown();
    assert!(base.messages_serialized > 0);
    assert_eq!(base.fanout_subscribers, 1);
    assert_eq!(
        base.multicast_encode_shared, 0,
        "a group of one has nobody to share frames with"
    );

    // 1→n: same document, n subscribers.
    for n in [4usize, 8] {
        let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
        let handle = runtime
            .publish(PublishRequest::new(
                "pub",
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
                subscribers(n),
            ))
            .unwrap();
        assert_eq!(handle.fanout(), n);
        let results = handle.wait();
        assert_eq!(results.len(), n);
        for result in &results {
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
            assert_eq!(
                wire_state(result.target.as_ref().expect("done lanes carry targets")),
                reference,
                "1→{n}: a subscriber diverged from the reference exchange"
            );
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.completed, n as u64);
        assert_eq!(stats.fanout_subscribers, n as u64);
        // One format group: `plan_formats` probes the source once for the
        // whole publish and bills lane 0. Probe, plan, source phase and
        // encode paid once per group is why a publish outruns n sessions.
        assert_eq!(stats.planning_probes, 1, "1→{n} probed per lane");
        // The planner may pick a *different* program at fanout n
        // (target-placed work bills ×n, so it leans toward the source
        // side), so message counts aren't comparable across fanouts — the
        // encode *bytes* are the gate: multiplying the audience must not
        // cost more than 1.2× the single-subscriber encode bill.
        assert!(stats.messages_serialized > 0);
        assert!(
            stats.bytes_encoded as f64 <= 1.2 * base.bytes_encoded as f64,
            "1→{n} encoded {} bytes, 1→1 encoded {} — fanout re-encoded per lane",
            stats.bytes_encoded,
            base.bytes_encoded
        );
        // Every frame was encoded once and reused by the other lanes.
        assert_eq!(
            stats.multicast_encode_shared,
            (n as u64 - 1) * stats.messages_serialized as u64,
            "1→{n}: expected {} reuses per frame",
            n - 1
        );
        assert_eq!(stats.multicast_encode_fallback, 0);
    }
}

/// A small document is one message however many subscribe: a 1→3
/// publish packs every cross feed into one multi-part frame, encodes it
/// once, and the other two lanes ride the same buffer — the sharing a
/// ring of per-port frames had, at a message count that no longer grows
/// with the number of cross edges.
#[test]
fn small_publish_shares_one_multi_part_frame() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let (mf, lf) = (mf(&schema), lf(&schema));
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
    let results = runtime
        .publish(PublishRequest::new(
            "pub",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(3),
        ))
        .unwrap()
        .wait();
    for result in &results {
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        assert_eq!(wire_state(result.target.as_ref().unwrap()), reference);
        assert_eq!(result.metrics.messages, 1, "one message per lane");
        assert!(
            result.metrics.rows_loaded > 1,
            "the one message carried every feed"
        );
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.messages_serialized, 1, "encoded once for the group");
    assert_eq!(stats.multicast_encode_shared, 2, "two lanes reused it");
    assert_eq!(stats.multicast_encode_fallback, 0);
}

/// The degenerate group of one is an ordinary session in disguise: its
/// plan-cache key carries no fanout tag, so a later plain session of
/// the same shape hits the entry the publish populated.
#[test]
fn single_subscriber_publish_shares_plan_cache_with_plain_sessions() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    let results = runtime
        .publish(PublishRequest::new(
            "pub",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(1),
        ))
        .unwrap()
        .wait();
    assert_eq!(
        results[0].state,
        SessionState::Done,
        "{:?}",
        results[0].diagnostic
    );
    assert!(
        !results[0].metrics.plan_cache_hit,
        "first planning must miss"
    );

    let plain = runtime
        .submit(ExchangeRequest::new(
            "plain",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(plain.state, SessionState::Done, "{:?}", plain.diagnostic);
    assert!(
        plain.metrics.plan_cache_hit,
        "a plain session of the same shape must hit the publish's cache entry"
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.plan_cache_misses, 1);
    assert!(stats.plan_cache_hits >= 1);
}

/// 1→4 chaos: one subscriber sits behind a Gilbert–Elliott burst-loss
/// link that defeats its retry budget. The three healthy lanes finish
/// byte-identical and the group still encodes each frame exactly once —
/// the adversarial lane costs the group zero extra serializations. The
/// broken lane fails alone with a rolled-back target, and after the
/// operator repairs the link it resumes from its *own* ledger: only its
/// never-acknowledged chunks cross again, with zero probes and the
/// checkpointed group plan.
#[test]
fn adversarial_lane_fails_alone_and_resumes_from_its_own_ledger() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let shipping = ShippingPolicy {
        chunk_bytes: 1024,
        max_attempts_per_chunk: 3,
        retry_budget: 16,
        backoff_base: Duration::from_millis(1),
        ..ShippingPolicy::default()
    };

    // All-healthy baseline: group encode count and the per-lane chunk
    // total the adversarial run must not exceed.
    let healthy = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_shipping(shipping),
    );
    let baseline = healthy
        .publish(PublishRequest::new(
            "pub",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(4),
        ))
        .unwrap()
        .wait();
    for result in &baseline {
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
    let total_chunks = baseline[3].metrics.chunks_shipped;
    let base = healthy.shutdown();

    // The adversarial run: sub-3's link flaps in and out of a lossy
    // burst state; the other three pairs stay pristine.
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_shipping(shipping),
    );
    runtime.set_link_fault_profile(
        DEFAULT_SOURCE_ENDPOINT,
        "sub-3",
        FaultProfile {
            burst_loss: Some(BurstLoss {
                enter: 0.35,
                exit: 0.15,
                loss: 0.95,
            }),
            seed: 3,
            ..FaultProfile::healthy()
        },
    );
    let handle = runtime
        .publish(PublishRequest::new(
            "pub",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(4),
        ))
        .unwrap();
    let flaky_id = handle.handles[3].id();
    let results = handle.wait();
    for result in &results[..3] {
        assert_eq!(
            result.state,
            SessionState::Done,
            "a healthy lane was dragged down: {:?}",
            result.diagnostic
        );
        assert_eq!(
            wire_state(result.target.as_ref().unwrap()),
            reference,
            "healthy subscriber diverged under a neighbour's faults"
        );
    }
    let failed = &results[3];
    assert_eq!(
        failed.state,
        SessionState::Failed,
        "{:?}",
        failed.diagnostic
    );
    let landed = failed.metrics.chunks_shipped;
    assert!(
        landed > 0 && landed < total_chunks,
        "need a partial shipment to make resume interesting: {landed}/{total_chunks}"
    );
    // Rolled back: the dying lane left nothing half-loaded.
    assert_eq!(
        failed
            .target
            .as_ref()
            .expect("rollback proof travels")
            .total_rows(),
        0
    );
    // Repair the one link and resume the one lane.
    runtime.set_link_fault_profile(DEFAULT_SOURCE_ENDPOINT, "sub-3", FaultProfile::healthy());
    let resumed = runtime.resume(flaky_id).expect("failed lane is resumable");
    assert_eq!(resumed.id(), flaky_id, "resume keeps the lane's session id");
    let result = resumed.wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    assert_eq!(
        wire_state(result.target.as_ref().unwrap()),
        reference,
        "resumed subscriber diverged from the reference"
    );
    // Its own ledger, its own checkpoint: only never-acked chunks cross
    // again, under the checkpointed plan with zero fresh probes.
    assert_eq!(result.metrics.chunks_resumed, landed);
    assert_eq!(result.metrics.chunks_shipped, total_chunks - landed);
    assert!(result.metrics.plan_cache_hit, "resume re-planned");
    assert_eq!(
        result.metrics.planning_probes, 0,
        "resume re-probed the source"
    );

    let events = runtime.events();
    assert!(events.iter().any(|e| e.kind == EventKind::Resumed));
    assert!(events.iter().any(|e| e.kind == EventKind::ShipmentResumed));
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4, "three healthy lanes + the resumed one");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.fanout_subscribers, 4);
    // Zero extra encodes despite the broken lane: the group phase
    // serialized exactly what the all-healthy run did (the failed lane
    // rode the shared frames); only the resume's never-filed frames were
    // serialized on top, and those are billed to the resumed session.
    assert_eq!(
        stats.messages_serialized - result.metrics.messages_serialized as u64,
        base.messages_serialized,
        "the adversarial lane forced extra serializations on the group"
    );
}

/// The decode-once cache keeps a batch for the live lanes still to
/// absorb it and for nobody else. One subscriber of three sits behind a
/// link that drops everything: it never completes a frame, so it is
/// lag-ejected early, while its window of frames keeps retrying (paced
/// backoff, 1.5 s until the link gives up) and keeps the exchange parked.
/// By then the two live lanes have staged every batch — and the cache
/// must be empty, not holding each batch for a third taker that will
/// never come. The lag cap counts messages, and a lane can only fall
/// behind a group that ships more than the cap: a 4-row budget splits
/// this document over a few dozen of them (batches still share one
/// where a feed ends), and a cap of 8 is past what two healthy lanes
/// drift apart while one encodes and the other reuses.
#[test]
fn ejected_lane_does_not_pin_the_decode_once_cache() {
    let schema = schema();
    let doc = generate(GenConfig::sized(40_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_batch_rows(4)
            .with_link_pacing(1.0)
            .with_shipping(ShippingPolicy {
                max_attempts_per_chunk: 5,
                backoff_base: Duration::from_millis(100),
                ..ShippingPolicy::default()
            }),
    );
    runtime.set_link_fault_profile(
        DEFAULT_SOURCE_ENDPOINT,
        "sub-2",
        FaultProfile {
            drop_probability: 1.0,
            ..FaultProfile::healthy()
        },
    );
    let group = runtime
        .publish(
            PublishRequest::new(
                "pub",
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
                subscribers(3),
            )
            .with_lag_cap(8),
        )
        .unwrap();
    let live_lanes_done = || group.handles[..2].iter().all(|h| h.state().is_terminal());
    let waited = std::time::Instant::now();
    while !live_lanes_done() {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "live lanes stuck"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let metrics = runtime.metrics_text();
    let cached = metrics
        .lines()
        .find_map(|l| l.strip_prefix("xdx_decoded_batches_cached "))
        .expect("gauge exported");
    assert!(
        !group.handles[2].state().is_terminal(),
        "the dead lane settled before the cache could be observed"
    );
    assert_eq!(
        cached, "0",
        "batches held for a lane that will never take them"
    );

    let results = group.wait();
    for result in &results[..2] {
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        assert_eq!(wire_state(result.target.as_ref().unwrap()), reference);
    }
    assert_eq!(results[2].state, SessionState::Failed);
    let why = results[2].diagnostic.as_deref().unwrap_or_default();
    assert!(why.contains("behind the publish group"), "{why}");
    assert!(runtime
        .events()
        .iter()
        .any(|e| e.kind == EventKind::Shed && e.detail.contains("behind the publish group")));
    runtime.shutdown();
}

/// A publish group parks like any other exchange: with one worker and
/// paced links, a small two-site session on an unrelated route,
/// submitted after a 1→3 publish of a large document, reaches `Done`
/// while the group still has lanes on the wire.
#[test]
fn parked_publish_group_lets_an_unrelated_session_finish_first() {
    let schema = schema();
    let big = generate(GenConfig::sized(60_000));
    let small = generate(GenConfig::sized(4_000));
    let reference = wire_state(&reference_target(&big, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_network(NetworkProfile {
                bandwidth_bytes_per_sec: 200_000.0,
                latency: Duration::from_millis(2),
            })
            .with_link_pacing(1.0)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                ..ShippingPolicy::default()
            }),
    );
    let group = runtime
        .publish(PublishRequest::new(
            "pub",
            load_source(&big, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            subscribers(3),
        ))
        .unwrap();
    let bystander = runtime
        .submit(
            ExchangeRequest::new(
                "bystander",
                load_source(&small, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_route("elsewhere", "hub"),
        )
        .unwrap()
        .wait();
    assert_eq!(
        bystander.state,
        SessionState::Done,
        "{:?}",
        bystander.diagnostic
    );
    assert!(
        group.handles.iter().any(|h| !h.state().is_terminal()),
        "the group held the only worker until its last lane settled"
    );
    for result in group.wait() {
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        assert_eq!(wire_state(result.target.as_ref().unwrap()), reference);
    }
    runtime.shutdown();
}

/// N→1 consolidation: three sources land transactionally in one target
/// (row count is exactly the sum of the per-source references), and a
/// source behind a dead link fails alone — reported per-source, zero of
/// its rows in the merged database.
#[test]
fn consolidation_stages_each_source_transactionally() {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let docs: Vec<String> = (0..3)
        .map(|seed| {
            generate(GenConfig {
                target_bytes: 9_000,
                seed,
            })
        })
        .collect();
    let rows: Vec<usize> = docs
        .iter()
        .map(|d| reference_target(d, &mf, &lf).total_rows())
        .collect();
    assert!(rows.iter().all(|&r| r > 0));
    let request = |i: usize, docs: &[String]| {
        ExchangeRequest::new(
            format!("src-{i}"),
            load_source(&docs[i], &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        )
        .with_route(format!("origin-{i}"), DEFAULT_TARGET_ENDPOINT)
    };

    // All healthy: every source commits.
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
    let outcome = runtime.consolidate("merge", (0..3).map(|i| request(i, &docs)).collect());
    assert_eq!(outcome.applied, 3, "{:?}", outcome.results);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.target.total_rows(), rows.iter().sum::<usize>());
    for (source, disposition) in &outcome.results {
        assert!(disposition.is_ok(), "{source}: {disposition:?}");
    }
    runtime.shutdown();

    // One source's link eats every frame: that source fails alone and
    // contributes zero rows; the other two commit in full.
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_shipping(ShippingPolicy {
                max_attempts_per_chunk: 2,
                retry_budget: 4,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    runtime.set_link_fault_profile(
        "origin-1",
        DEFAULT_TARGET_ENDPOINT,
        FaultProfile {
            drop_probability: 1.0,
            seed: 1,
            ..FaultProfile::healthy()
        },
    );
    let outcome = runtime.consolidate("degraded", (0..3).map(|i| request(i, &docs)).collect());
    assert_eq!(outcome.applied, 2, "{:?}", outcome.results);
    assert_eq!(outcome.failed, 1);
    assert_eq!(outcome.target.total_rows(), rows[0] + rows[2]);
    assert!(outcome.results[0].1.is_ok());
    assert!(
        outcome.results[1].1.is_err(),
        "the dead-link source must be reported, not silently dropped"
    );
    assert!(outcome.results[2].1.is_ok());
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
}

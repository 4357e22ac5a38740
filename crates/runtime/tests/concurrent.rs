//! Integration tests of the multi-session runtime: concurrency under an
//! unreliable link, plan-cache sharing, scheduling, admission control,
//! cancellation and graceful degradation.

mod common;

use common::oracle::{reference_target, wire_state};
use std::time::Duration;
use xdx_core::Optimizer;
use xdx_net::FaultProfile;
use xdx_runtime::{
    EventKind, ExchangeRequest, Priority, PublishRequest, Runtime, RuntimeConfig, SessionState,
    ShippingPolicy, SubmitError,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

/// The headline acceptance test: ≥8 concurrent sessions complete under
/// 10% message drops with zero lost rows, and the plan cache is shared
/// across the same-shape exchanges.
#[test]
fn eight_concurrent_sessions_survive_ten_percent_drops_without_losing_rows() {
    let schema = schema();
    let doc = generate(GenConfig::sized(40_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    const SESSIONS: usize = 8;
    const WORKERS: usize = 4;
    let config = RuntimeConfig::default()
        .with_workers(WORKERS)
        .with_fault_profile(FaultProfile::drops(0.10, 0x1CDE_2004))
        .with_shipping(ShippingPolicy {
            chunk_bytes: 4 * 1024,
            ..ShippingPolicy::default()
        });
    let runtime = Runtime::start(schema.clone(), config);

    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let source = load_source(&doc, &schema, &mf).unwrap();
            let request =
                ExchangeRequest::new(format!("session-{i}"), source, mf.clone(), lf.clone());
            runtime.submit(request).unwrap()
        })
        .collect();

    let mut total_retries = 0;
    for handle in handles {
        let name = handle.name().to_string();
        let result = handle.wait();
        assert_eq!(
            result.state,
            SessionState::Done,
            "{name}: {:?}",
            result.diagnostic
        );
        let target = result.target.expect("done sessions carry their target");
        assert!(
            wire_state(&target) == reference,
            "{name}: differs from the reference"
        );
        assert!(result.metrics.rows_loaded > 0);
        assert!(result.metrics.bytes_shipped > 0);
        assert!(result.metrics.chunks_shipped > 0);
        assert!(result.metrics.total_wall >= result.metrics.queue_wait);
        total_retries += result.metrics.chunks_retried;
    }
    // 10% drops across hundreds of chunks: retries must have happened,
    // and the data above still arrived intact.
    assert!(total_retries > 0, "faulty link produced no retries");

    let stats = runtime.shutdown();
    assert_eq!(stats.completed, SESSIONS as u64);
    assert_eq!(stats.failed + stats.cancelled + stats.rejected, 0);
    assert_eq!(stats.chunks_retried, total_retries);
    assert_eq!(stats.latency_histogram.count(), SESSIONS as u64);
    assert!(stats.latency_percentile(50.0).unwrap() <= stats.latency_percentile(99.0).unwrap());

    // All eight exchanges share one shape: every session past the racing
    // first wave must hit the cache, and at least one plan is computed.
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        SESSIONS as u64
    );
    assert!(stats.plan_cache_misses >= 1);
    assert!(
        stats.plan_cache_hits >= (SESSIONS - WORKERS) as u64,
        "expected ≥{} cache hits, got {}",
        SESSIONS - WORKERS,
        stats.plan_cache_hits
    );
}

/// With a single worker the cache race disappears: one miss, N−1 hits,
/// and mixed shapes key separately.
#[test]
fn plan_cache_hits_are_exact_with_one_worker() {
    let schema = schema();
    let doc = generate(GenConfig::sized(10_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    let mut handles = Vec::new();
    for i in 0..4 {
        let source = load_source(&doc, &schema, &mf).unwrap();
        handles.push(
            runtime
                .submit(ExchangeRequest::new(
                    format!("mf-lf-{i}"),
                    source,
                    mf.clone(),
                    lf.clone(),
                ))
                .unwrap(),
        );
    }
    // A different shape (identity MF→MF) must key separately.
    let source = load_source(&doc, &schema, &mf).unwrap();
    handles.push(
        runtime
            .submit(ExchangeRequest::new(
                "mf-mf",
                source,
                mf.clone(),
                mf.clone(),
            ))
            .unwrap(),
    );
    for handle in handles {
        assert_eq!(handle.wait().state, SessionState::Done);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.plan_cache_misses, 2); // one per distinct shape
    assert_eq!(stats.plan_cache_hits, 3);
}

/// High-priority sessions overtake queued normal/low ones.
#[test]
fn priority_sessions_overtake_queued_work() {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    // A heavy blocker occupies the single worker while the small
    // requests pile up behind it in the queue.
    let blocker_doc = generate(GenConfig::sized(400_000));
    let blocker_source = load_source(&blocker_doc, &schema, &mf).unwrap();
    let blocker = runtime
        .submit(ExchangeRequest::new(
            "blocker",
            blocker_source,
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    // Wait for the worker to pick the blocker up, so the later
    // submissions genuinely queue behind it.
    while blocker.state() == SessionState::Queued {
        std::thread::yield_now();
    }

    let small_doc = generate(GenConfig::sized(4_000));
    let low = runtime
        .submit(
            ExchangeRequest::new(
                "low",
                load_source(&small_doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_priority(Priority::Low),
        )
        .unwrap();
    let high = runtime
        .submit(
            ExchangeRequest::new(
                "high",
                load_source(&small_doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_priority(Priority::High),
        )
        .unwrap();
    let (blocker_id, low_id, high_id) = (blocker.id(), low.id(), high.id());

    for handle in [blocker, low, high] {
        assert_eq!(handle.wait().state, SessionState::Done);
    }
    let events = runtime.events();
    let started: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::PlanningStarted)
        .map(|e| e.session)
        .collect();
    assert_eq!(started[0], blocker_id);
    let high_pos = started.iter().position(|&s| s == high_id).unwrap();
    let low_pos = started.iter().position(|&s| s == low_id).unwrap();
    assert!(
        high_pos < low_pos,
        "high priority ran after low: {started:?}"
    );
}

/// A publish group queues like any exchange: one entry of the fair
/// queue at its request's priority, so a `Low` group submitted first
/// still starts after a `High` session of the same tenant.
#[test]
fn low_priority_publish_waits_behind_high_priority_session() {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    let blocker_doc = generate(GenConfig::sized(400_000));
    let small_doc = generate(GenConfig::sized(4_000));
    let small = || load_source(&small_doc, &schema, &mf).unwrap();
    let (group_source, high_source) = (small(), small());
    let blocker = runtime
        .submit(ExchangeRequest::new(
            "blocker",
            load_source(&blocker_doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    // Both arrivals genuinely queue behind the blocker.
    while blocker.state() == SessionState::Queued {
        std::thread::yield_now();
    }
    let subscribers = vec!["sub-0".to_string(), "sub-1".to_string()];
    let group = runtime
        .publish(
            PublishRequest::new("group", group_source, mf.clone(), lf.clone(), subscribers)
                .with_tenant("acme")
                .with_priority(Priority::Low),
        )
        .unwrap();
    let high = runtime
        .submit(
            ExchangeRequest::new("high", high_source, mf.clone(), lf.clone())
                .with_tenant("acme")
                .with_priority(Priority::High),
        )
        .unwrap();
    let (group_id, high_id) = (group.handles[0].id(), high.id());

    assert_eq!(blocker.wait().state, SessionState::Done);
    assert_eq!(high.wait().state, SessionState::Done);
    for lane in group.wait() {
        assert_eq!(lane.state, SessionState::Done, "{:?}", lane.diagnostic);
    }
    let started: Vec<_> = runtime
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::PlanningStarted)
        .map(|e| e.session)
        .collect();
    let position = |id| started.iter().position(|&s| s == id).unwrap();
    assert!(
        position(high_id) < position(group_id),
        "low-priority group started before the high-priority session: {started:?}"
    );
}

/// The queue bound rejects submissions instead of growing unboundedly —
/// and it is one bound: a waiting publish group takes a slot exactly
/// like a waiting session, whichever front door the next arrival uses.
#[test]
fn admission_control_rejects_when_queue_is_full() {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_max_queue_depth(2),
    );

    let blocker_doc = generate(GenConfig::sized(300_000));
    let small_doc = generate(GenConfig::sized(4_000));
    let small = || load_source(&small_doc, &schema, &mf).unwrap();
    let subscribers = || vec!["sub-0".to_string(), "sub-1".to_string()];
    let session = |name: &str, source| ExchangeRequest::new(name, source, mf.clone(), lf.clone());
    let group = |name: &str, source| {
        PublishRequest::new(name, source, mf.clone(), lf.clone(), subscribers())
    };
    let sources = [small(), small(), small(), small()];

    let blocker = runtime
        .submit(session(
            "blocker",
            load_source(&blocker_doc, &schema, &mf).unwrap(),
        ))
        .unwrap();
    // The single worker is busy with the blocker: what follows queues.
    while blocker.state() == SessionState::Queued {
        std::thread::yield_now();
    }
    let [a, b, c, d] = sources;
    let queued_group = runtime.publish(group("queued-group", a)).unwrap();
    let queued_session = runtime.submit(session("queued-session", b)).unwrap();
    match runtime.submit(session("one-too-many", c)) {
        Err(SubmitError::QueueFull { depth, retry_after }) => {
            assert_eq!(depth, 2);
            assert!(retry_after > Duration::ZERO, "hint must be actionable");
        }
        Err(e) => panic!("unexpected submit error: {e}"),
        Ok(_) => panic!("a queued publish group did not count against the queue bound"),
    }
    assert!(matches!(
        runtime.publish(group("group-too-many", d)),
        Err(SubmitError::QueueFull { depth: 2, .. })
    ));

    assert_eq!(blocker.wait().state, SessionState::Done);
    assert_eq!(queued_session.wait().state, SessionState::Done);
    for lane in queued_group.wait() {
        assert_eq!(lane.state, SessionState::Done, "{:?}", lane.diagnostic);
    }
    let rejected_events = runtime
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Rejected)
        .count();
    assert_eq!(rejected_events, 2);
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected, 2);
    // The blocker, the group's two lanes and the queued session.
    assert_eq!(stats.admitted, 4);
}

/// Cancelling a queued session abandons it without running it.
#[test]
fn cancelled_queued_sessions_never_execute() {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    let blocker_doc = generate(GenConfig::sized(300_000));
    let blocker = runtime
        .submit(ExchangeRequest::new(
            "blocker",
            load_source(&blocker_doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    let small_doc = generate(GenConfig::sized(4_000));
    let victim = runtime
        .submit(ExchangeRequest::new(
            "victim",
            load_source(&small_doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    victim.cancel();
    let victim_id = victim.id();
    let result = victim.wait();
    assert_eq!(result.state, SessionState::Cancelled);
    assert!(result.target.is_none());
    assert!(result.diagnostic.unwrap().contains("cancelled"));
    assert_eq!(blocker.wait().state, SessionState::Done);

    let events = runtime.events();
    assert!(
        !events
            .iter()
            .any(|e| e.session == victim_id && e.kind == EventKind::ExecutionStarted),
        "cancelled session still executed"
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

/// A mixed-direction fleet under the exhaustive optimizer: MF→LF and
/// LF→MF sessions interleave over the same lossy link, the two
/// directions key separately in the plan cache, and every target is
/// byte-correct for its own direction.
#[test]
fn mixed_direction_fleet_completes_under_optimal_optimizer() {
    let schema = schema();
    let doc = generate(GenConfig::sized(10_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let forward = wire_state(&reference_target(&doc, &mf, &lf));
    let reverse = wire_state(&reference_target(&doc, &lf, &mf));

    const SESSIONS: usize = 6;
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_optimizer(Optimizer::Optimal { ordering_cap: 256 })
            .with_fault_profile(FaultProfile::drops(0.05, 0xF1EE7))
            .with_shipping(ShippingPolicy {
                chunk_bytes: 4 * 1024,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let forward_leg = i % 2 == 0;
            let (from, to) = if forward_leg { (&mf, &lf) } else { (&lf, &mf) };
            let source = load_source(&doc, &schema, from).unwrap();
            let name = format!("{}-{i}", if forward_leg { "mf-lf" } else { "lf-mf" });
            let handle = runtime
                .submit(ExchangeRequest::new(name, source, from.clone(), to.clone()))
                .unwrap();
            (forward_leg, handle)
        })
        .collect();
    for (forward_leg, handle) in handles {
        let name = handle.name().to_string();
        let result = handle.wait();
        assert_eq!(
            result.state,
            SessionState::Done,
            "{name}: {:?}",
            result.diagnostic
        );
        let reference = if forward_leg { &forward } else { &reverse };
        let target = result.target.expect("done sessions carry their target");
        assert!(
            wire_state(&target) == *reference,
            "{name}: differs from the reference"
        );
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, SESSIONS as u64);
    // Two distinct shapes: the optimizer ran at least once per
    // direction, and later same-shape sessions reuse the cached plans.
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        SESSIONS as u64
    );
    assert!(stats.plan_cache_misses >= 2, "each direction plans once");
    assert!(
        stats.plan_cache_hits >= 2,
        "same-shape sessions never reused the optimal plans"
    );
}

/// A hopeless link exhausts the retry budget and degrades the session to
/// `Failed` with a diagnostic — the runtime itself keeps serving.
#[test]
fn hopeless_link_degrades_to_failed_with_diagnostic() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_fault_profile(FaultProfile::drops(0.97, 7))
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 4,
                retry_budget: 8,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    let source = load_source(&doc, &schema, &mf).unwrap();
    let handle = runtime
        .submit(ExchangeRequest::new("doomed", source, mf.clone(), lf))
        .unwrap();
    let result = handle.wait();
    assert_eq!(result.state, SessionState::Failed);
    let diagnostic = result.diagnostic.expect("failures carry a diagnostic");
    assert!(
        diagnostic.contains("retry budget") || diagnostic.contains("gave up"),
        "unhelpful diagnostic: {diagnostic}"
    );
    // The failed session hands back its *rolled-back* target: staged
    // writes were discarded, so no partial tables survive.
    let target = result.target.expect("failed executions carry the rollback");
    assert_eq!(target.total_rows(), 0, "partial tables survived rollback");
    assert!(target.table_names().is_empty());
    // Failed shipping still accounted for its wasted wire bytes.
    assert!(result.metrics.bytes_shipped > 0);
    assert!(result.metrics.chunks_retried > 0);

    let stats = runtime.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 0);
}

//! Load-shedding regression tests: expired sessions shed at dequeue
//! before burning a planning probe, refused submissions carry
//! actionable retry hints, warm estimators refuse unattainable
//! deadlines at admission, and the resumable-checkpoint map stays
//! bounded. The breaker drain is tested in `runtime::tests`, which can
//! hold the in-flight slots while a test submits.

use std::time::Duration;
use xdx_net::{FaultProfile, NetworkProfile};
use xdx_runtime::{
    EventKind, ExchangeRequest, Runtime, RuntimeConfig, SessionState, ShippingPolicy, SubmitError,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

/// The fast-fail regression: a session whose deadline expired while it
/// sat in the queue is shed at dequeue — zero statistics probes, zero
/// optimizer calls — and stays resumable. A cold estimator admits it
/// optimistically, so the shed happens at dequeue, not admission.
#[test]
fn expired_sessions_are_shed_at_dequeue_before_planning() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    // A zero deadline is already expired by the instant a worker pops
    // it; on a cold runtime the admission estimator has no signal yet,
    // so the session is admitted optimistically and shed at dequeue.
    let expired = runtime
        .submit(
            ExchangeRequest::new(
                "expired",
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_deadline(Duration::ZERO),
        )
        .expect("cold estimator admits optimistically");
    let expired_id = expired.id();
    let result = expired.wait();
    assert_eq!(result.state, SessionState::Failed);
    let diagnostic = result.diagnostic.as_deref().unwrap_or_default();
    assert!(
        diagnostic.contains("shed before planning"),
        "{diagnostic:?}"
    );
    assert_eq!(
        result.metrics.planning_probes, 0,
        "an expired session must not burn a probe"
    );
    assert_eq!(result.metrics.planning, Duration::ZERO);

    let events = runtime.events();
    assert!(events.iter().any(|e| e.kind == EventKind::DeadlineExceeded));
    assert!(events.iter().any(|e| e.kind == EventKind::Shed));

    assert_eq!(
        runtime.stats().planning_probes,
        0,
        "the shed session burned no probe"
    );

    // The shed session resumes (deadline lifted) and completes. Shed
    // before planning, it carries no checkpointed plan, so the resume
    // probes once like any fresh session.
    let resumed = runtime.resume(expired_id).expect("shed keeps resumable");
    assert_eq!(resumed.wait().state, SessionState::Done);

    let stats = runtime.shutdown();
    assert_eq!(stats.sessions_shed_expired, 1);
    assert_eq!(
        stats.sessions_shed_deadline + stats.sessions_shed_breaker,
        0
    );
}

/// A full queue refuses with a drain-rate-derived `retry_after` hint,
/// mirroring the breaker's `CircuitOpen` hint.
#[test]
fn queue_full_rejections_carry_a_retry_hint() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_max_queue_depth(1),
    );

    let sources: Vec<_> = (0..4)
        .map(|_| load_source(&doc, &schema, &mf).unwrap())
        .collect();
    let mut rejections = 0;
    for (i, source) in sources.into_iter().enumerate() {
        match runtime.submit(ExchangeRequest::new(
            format!("s{i}"),
            source,
            mf.clone(),
            lf.clone(),
        )) {
            Ok(handle) => {
                handle.wait();
            }
            Err(SubmitError::QueueFull { depth, retry_after }) => {
                assert_eq!(depth, 1);
                assert!(retry_after >= Duration::from_millis(1), "{retry_after:?}");
                assert!(retry_after <= Duration::from_secs(10), "{retry_after:?}");
                rejections += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    // Waiting each handle drains the queue, so rejections need the race
    // between the submit and the worker's pop — they may or may not
    // happen here; the dedicated depth-2 test in `concurrent.rs` pins
    // the rejection itself. This test pins the hint's bounds whenever
    // one occurs.
    let stats = runtime.shutdown();
    assert_eq!(stats.rejected, rejections);
}

/// With a warm service estimator, a deadline no schedule could meet is
/// refused at admission — before it occupies a queue slot — with the
/// estimate and a retry hint attached.
#[test]
fn warm_estimator_sheds_unattainable_deadlines_at_admission() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));

    // Warm the estimator with one completed session.
    let warm = runtime
        .submit(ExchangeRequest::new(
            "warm",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    assert_eq!(warm.wait().state, SessionState::Done);

    let refusal = runtime.submit(
        ExchangeRequest::new(
            "impossible",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        )
        .with_deadline(Duration::from_nanos(1)),
    );
    match refusal {
        Err(SubmitError::DeadlineUnattainable {
            deadline,
            estimated,
            retry_after,
        }) => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(estimated > deadline, "{estimated:?}");
            assert!(retry_after >= Duration::from_millis(1), "{retry_after:?}");
        }
        Err(other) => panic!("expected DeadlineUnattainable, got {other}"),
        Ok(_) => panic!("an unattainable deadline was admitted"),
    }

    assert!(runtime.events().iter().any(|e| e.kind == EventKind::Shed));
    let stats = runtime.shutdown();
    assert_eq!(stats.sessions_shed_deadline, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(
        stats.sessions_shed_expired, 0,
        "refused at admission, never queued"
    );
}

/// The resumable-checkpoint map is bounded: deposits beyond
/// `max_resumables` evict the oldest checkpoint (each holds a full
/// source database — an unbounded map would defeat the flat-RSS soak).
#[test]
fn resumable_checkpoints_evict_oldest_beyond_the_cap() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_max_resumables(2),
    );

    // Three zero-deadline sessions: the cold estimator admits each, the
    // dequeue shed deposits each as a resumable checkpoint — one over
    // the cap of two.
    let handles: Vec<_> = (0..3)
        .map(|i| {
            runtime
                .submit(
                    ExchangeRequest::new(
                        format!("drop-{i}"),
                        load_source(&doc, &schema, &mf).unwrap(),
                        mf.clone(),
                        lf.clone(),
                    )
                    .with_deadline(Duration::ZERO),
                )
                .unwrap()
        })
        .collect();
    let ids: Vec<_> = handles.iter().map(|h| h.id()).collect();
    for handle in handles {
        assert_eq!(handle.wait().state, SessionState::Failed);
    }

    // The oldest deposit is gone; the two newest resume fine.
    match runtime.resume(ids[0]) {
        Err(SubmitError::UnknownSession { id }) => assert_eq!(id, ids[0]),
        Err(other) => panic!("evicted checkpoint must be unknown, got {other}"),
        Ok(_) => panic!("evicted checkpoint resumed"),
    }
    for &id in &ids[1..] {
        let resumed = runtime.resume(id).expect("within cap");
        assert_eq!(resumed.wait().state, SessionState::Done);
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.resumables_evicted, 1);
    assert_eq!(stats.sessions_shed_expired, 3);
}

/// Checkpoints nobody can resume release their ledger buffers: a
/// cancelled session is never resumable, and a checkpoint evicted from
/// the resumable map cannot be found again — neither may sit on full
/// serialized messages until shard-capacity eviction pushes out
/// checkpoints that are still useful.
#[test]
fn unreachable_checkpoints_release_their_ledger_buffers() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let request = |name: &str| {
        ExchangeRequest::new(
            name,
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        )
    };

    // Eviction: two sessions die mid-ship on a dead link; with room for
    // one checkpoint, the second deposit evicts the first — and the
    // first session's shipment buffers go with it. Nothing completed,
    // so every pruned entry is an unreachable checkpoint's.
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_max_resumables(1)
            .with_shipping(ShippingPolicy {
                max_attempts_per_chunk: 2,
                retry_budget: 2,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    runtime.set_fault_profile(FaultProfile::drops(1.0, 7));
    for name in ["first", "second"] {
        let result = runtime.submit(request(name)).unwrap().wait();
        assert_eq!(result.state, SessionState::Failed);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.resumables_evicted, 1);
    assert!(
        stats.ledger_entries_pruned > 0,
        "the evicted checkpoint kept its shipment buffers"
    );

    // Cancellation: a session cancelled with frames on a slow paced
    // wire settles `Cancelled` and takes its buffers with it.
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_network(NetworkProfile {
                bandwidth_bytes_per_sec: 20_000.0,
                latency: Duration::from_millis(5),
            })
            .with_link_pacing(1.0)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 256,
                ..ShippingPolicy::default()
            }),
    );
    let handle = runtime.submit(request("cancelled")).unwrap();
    while handle.state() != SessionState::Shipping {
        assert!(!handle.state().is_terminal(), "finished before the cancel");
        std::thread::yield_now();
    }
    handle.cancel();
    assert_eq!(handle.wait().state, SessionState::Cancelled);
    let stats = runtime.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert!(
        stats.ledger_entries_pruned > 0,
        "the cancelled session kept its shipment buffers"
    );
}

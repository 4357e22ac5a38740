//! Seeded chaos harness: adversarial link models against the recovery
//! layer.
//!
//! Every adversarial [`FaultProfile`] — Gilbert–Elliott burst loss,
//! reordering, duplication, multi-byte burst corruption, and all of them
//! at once — is run across several deterministic seeds, and the surviving
//! target databases must be **byte-identical** (same wire serialization)
//! to a healthy-link baseline. On top of the matrix: resume re-ships only
//! the never-acknowledged chunks, the circuit breaker opens/half-opens/
//! closes around a link outage, and deadlines fail sessions without
//! blaming the link.
//!
//! Set `XDX_CHAOS_SEED=<u64>` to extend the seed list (the CI chaos job
//! feeds its matrix through this).

mod common;

use common::oracle::{reference_target, wire_state};
use std::time::Duration;
use xdx_net::{BurstLoss, FaultProfile};
use xdx_runtime::{
    EventKind, ExchangeRequest, Runtime, RuntimeConfig, SessionState, ShippingPolicy, SubmitError,
    WireFormat,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

/// The adversarial profiles of the matrix. Severities are chosen so the
/// retry policy can still win — the *data* must survive, that is the
/// point — while leaving each failure mode clearly exercised.
fn adversarial_profiles(seed: u64) -> Vec<(&'static str, FaultProfile)> {
    vec![
        (
            "burst-loss",
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.08,
                    exit: 0.35,
                    loss: 0.9,
                }),
                seed,
                ..FaultProfile::healthy()
            },
        ),
        (
            "reorder",
            FaultProfile {
                reorder_probability: 0.25,
                seed,
                ..FaultProfile::healthy()
            },
        ),
        (
            "duplicate",
            FaultProfile {
                duplicate_probability: 0.25,
                seed,
                ..FaultProfile::healthy()
            },
        ),
        (
            "corrupt-burst",
            FaultProfile {
                corrupt_probability: 0.20,
                corrupt_burst: 16,
                seed,
                ..FaultProfile::healthy()
            },
        ),
        (
            "everything",
            FaultProfile {
                drop_probability: 0.05,
                timeout_probability: 0.03,
                corrupt_probability: 0.05,
                corrupt_burst: 8,
                reorder_probability: 0.10,
                duplicate_probability: 0.10,
                burst_loss: Some(BurstLoss {
                    enter: 0.04,
                    exit: 0.5,
                    loss: 0.8,
                }),
                seed,
            },
        ),
    ]
}

/// Built-in seeds, extended by `XDX_CHAOS_SEED` when set.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![0x1CDE_2004, 0xBAD_5EED, 42];
    if let Ok(extra) = std::env::var("XDX_CHAOS_SEED") {
        seeds.push(extra.trim().parse().expect("XDX_CHAOS_SEED must be a u64"));
    }
    seeds
}

/// The matrix: every adversarial profile × every seed × both wire
/// formats, two concurrent sessions each, and every surviving target
/// byte-identical to the healthy baseline. Running the full matrix under
/// the columnar codec too proves the recovery layer is format-blind:
/// loss, reordering, duplication and corruption are survived (or
/// detected and retried) identically whether the payload is XML text or
/// binary columnar frames.
#[test]
fn every_adversarial_profile_yields_byte_identical_state_across_seeds() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    for format in [WireFormat::Xml, WireFormat::Columnar] {
        let mut total_retried = 0;
        let mut total_deduped = 0;
        for seed in chaos_seeds() {
            for (name, profile) in adversarial_profiles(seed) {
                let runtime = Runtime::start(
                    schema.clone(),
                    RuntimeConfig::default()
                        .with_workers(2)
                        .with_wire_format(format)
                        .with_fault_profile(profile)
                        .with_shipping(ShippingPolicy {
                            chunk_bytes: 2 * 1024,
                            // A Gilbert–Elliott bad state (loss 0.9,
                            // exit 0.35) outlasts the default 8 attempts
                            // about once per 70 entries — CI seeds 31337
                            // and 20040301 hit it. The matrix is about
                            // byte-identity, not the cap.
                            max_attempts_per_chunk: 16,
                            backoff_base: Duration::from_millis(1),
                            ..ShippingPolicy::default()
                        }),
                );
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        let source = load_source(&doc, &schema, &mf).unwrap();
                        runtime
                            .submit(ExchangeRequest::new(
                                format!("{name}-{seed:x}-{format}-{i}"),
                                source,
                                mf.clone(),
                                lf.clone(),
                            ))
                            .unwrap()
                    })
                    .collect();
                for handle in handles {
                    let session = handle.name().to_string();
                    let result = handle.wait();
                    assert_eq!(
                        result.state,
                        SessionState::Done,
                        "{session}: {:?}",
                        result.diagnostic
                    );
                    assert_eq!(result.metrics.wire_format, format, "{session}");
                    let target = result.target.expect("done sessions carry their target");
                    assert_eq!(
                        wire_state(&target),
                        reference,
                        "{session}: target state diverged from the healthy baseline"
                    );
                }
                let stats = runtime.shutdown();
                assert_eq!(stats.completed, 2, "{name}/{seed:x}/{format}");
                total_retried += stats.chunks_retried;
                total_deduped += stats.chunks_deduped;
            }
        }
        // The matrix genuinely exercised the failure modes in this format.
        assert!(
            total_retried > 0,
            "{format}: no profile ever forced a retry"
        );
        assert!(
            total_deduped > 0,
            "{format}: no duplicate delivery was ever dropped"
        );
    }
}

/// A session dies on a dead link, the link is repaired, and `resume`
/// finishes the job re-shipping *only* the chunks that never landed —
/// through the cached plan and the shipping checkpoint.
#[test]
fn resume_reships_only_unacknowledged_chunks() {
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

    // Baseline on a healthy runtime: how many chunks one clean run ships.
    let healthy = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_shipping(shipping),
    );
    let baseline = healthy
        .submit(ExchangeRequest::new(
            "baseline",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(baseline.state, SessionState::Done);
    let total_chunks = baseline.metrics.chunks_shipped;
    healthy.shutdown();

    // The real runtime starts with a link that eats a third of the
    // frames — enough to defeat 3 attempts per chunk partway through.
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_fault_profile(FaultProfile {
                drop_probability: 0.35,
                seed: 3,
                ..FaultProfile::healthy()
            })
            .with_shipping(shipping),
    );
    let handle = runtime
        .submit(ExchangeRequest::new(
            "checkpointed",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    let session_id = handle.id();
    let failed = handle.wait();
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
    // Rolled back: nothing half-loaded survives the failure.
    assert_eq!(failed.target.expect("rollback travels").total_rows(), 0);

    // Operator repairs the link and resumes the session.
    runtime.set_fault_profile(FaultProfile::healthy());
    let resumed = runtime.resume(session_id).expect("session is resumable");
    assert_eq!(resumed.id(), session_id, "resume keeps the session id");
    let result = resumed.wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);

    // The heart of the checkpoint contract: everything that landed
    // before the failure is skipped, only the remainder crosses again.
    assert_eq!(result.metrics.chunks_resumed, landed);
    assert_eq!(result.metrics.chunks_shipped, total_chunks - landed);
    assert_eq!(
        failed.metrics.chunks_shipped + result.metrics.chunks_shipped,
        total_chunks
    );
    // The plan came from the checkpoint, not a re-run of the optimizer:
    // the resumed run probes zero statistics and — because the ledger
    // persisted the assembled messages — serializes zero messages.
    assert!(result.metrics.plan_cache_hit, "resume re-planned");
    assert_eq!(
        result.metrics.planning_probes, 0,
        "resume re-probed the source"
    );
    assert_eq!(failed.metrics.planning_probes, 1);
    // Exactly-once serialization: every message the failed run assembled
    // is replayed from the ledger, never serialized again; the resume
    // only serializes the shipments the failed run never reached.
    assert!(failed.metrics.messages_serialized > 0);
    assert_eq!(
        failed.metrics.messages_serialized + result.metrics.messages_serialized,
        baseline.metrics.messages_serialized,
        "a message was serialized twice across failure and resume"
    );
    assert!(
        result.metrics.messages_serialized < baseline.metrics.messages_serialized,
        "resume replayed no checkpointed message"
    );
    // Zero re-encodes: the ledger checkpoints the *encoded* message
    // bytes, so resume ships them verbatim — the encode counters tick
    // only for shipments the failed run never assembled, and across
    // failure + resume every message pays its encode cost exactly once.
    assert!(failed.metrics.bytes_encoded > 0);
    assert_eq!(
        failed.metrics.bytes_encoded + result.metrics.bytes_encoded,
        baseline.metrics.bytes_encoded,
        "a checkpointed message was re-encoded on resume"
    );
    assert!(
        result.metrics.bytes_encoded < baseline.metrics.bytes_encoded,
        "resume re-encoded every message instead of replaying the ledger"
    );
    // And the data is exactly right.
    assert_eq!(wire_state(&result.target.unwrap()), reference);

    // A second resume of the same id has nothing to resume.
    match runtime.resume(session_id) {
        Err(SubmitError::UnknownSession { id }) => assert_eq!(id, session_id),
        other => panic!("expected UnknownSession, got {:?}", other.map(|h| h.id())),
    }
    let events = runtime.events();
    assert!(events.iter().any(|e| e.kind == EventKind::Resumed));
    assert!(events.iter().any(|e| e.kind == EventKind::ShipmentResumed));
    let stats = runtime.shutdown();
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.chunks_resumed, landed);
}

/// K consecutive link failures open the circuit breaker: submissions are
/// refused with a retry hint, a cooldown half-opens it, and a successful
/// probe over the repaired link closes it again.
#[test]
fn circuit_breaker_opens_half_opens_and_closes() {
    let schema = schema();
    let doc = generate(GenConfig::sized(4_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_fault_profile(FaultProfile::drops(1.0, 9))
            .with_breaker(2, Duration::from_millis(50))
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 2,
                retry_budget: 4,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );

    // Two sessions die on the dead link: that trips the threshold.
    for i in 0..2 {
        let handle = runtime
            .submit(ExchangeRequest::new(
                format!("victim-{i}"),
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            ))
            .unwrap();
        assert_eq!(handle.wait().state, SessionState::Failed);
    }

    // The breaker is open: admission refused with a retry hint.
    let refused = runtime.submit(ExchangeRequest::new(
        "refused",
        load_source(&doc, &schema, &mf).unwrap(),
        mf.clone(),
        lf.clone(),
    ));
    let retry_after = match refused {
        Err(SubmitError::CircuitOpen { retry_after }) => retry_after,
        Err(other) => panic!("expected CircuitOpen, got {other}"),
        Ok(handle) => panic!("open breaker admitted session {}", handle.id()),
    };
    assert!(retry_after <= Duration::from_millis(50));

    // Cooldown passes, the operator repairs the link; the next
    // submission goes through as the half-open probe and succeeds.
    std::thread::sleep(Duration::from_millis(60));
    runtime.set_fault_profile(FaultProfile::healthy());
    let probe = runtime
        .submit(ExchangeRequest::new(
            "probe",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .expect("cooldown elapsed: probe admitted");
    assert_eq!(probe.wait().state, SessionState::Done);

    // Closed again: ordinary submissions flow.
    let after = runtime
        .submit(ExchangeRequest::new(
            "after",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .expect("breaker closed after probe success");
    assert_eq!(after.wait().state, SessionState::Done);

    let events = runtime.events();
    for kind in [
        EventKind::CircuitOpened,
        EventKind::CircuitHalfOpened,
        EventKind::CircuitClosed,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "missing breaker event {kind:?}"
        );
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 2);
    assert!(stats.rejected >= 1);
}

/// A deadline fails the session with a diagnostic — without opening the
/// breaker, because a slow exchange says nothing about the link — and
/// the session can be resumed, the operator's decision lifting the
/// original deadline.
#[test]
fn deadlines_fail_sessions_without_tripping_the_breaker() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_breaker(1, Duration::from_secs(60)),
    );

    let handle = runtime
        .submit(
            ExchangeRequest::new(
                "impatient",
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_deadline(Duration::ZERO),
        )
        .unwrap();
    let session_id = handle.id();
    let result = handle.wait();
    assert_eq!(result.state, SessionState::Failed);
    assert!(
        result
            .diagnostic
            .as_deref()
            .unwrap_or_default()
            .contains("deadline exceeded"),
        "{:?}",
        result.diagnostic
    );
    assert!(runtime
        .events()
        .iter()
        .any(|e| e.kind == EventKind::DeadlineExceeded));

    // Breaker threshold is 1, yet the deadline failure did not trip it:
    // the next submission is admitted...
    let unbounded = runtime
        .submit(ExchangeRequest::new(
            "unbounded",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .expect("deadline failures must not open the breaker");
    assert_eq!(unbounded.wait().state, SessionState::Done);

    // ...and the timed-out session resumes, its deadline lifted.
    let resumed = runtime
        .resume(session_id)
        .expect("resumable after deadline");
    let result = resumed.wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    runtime.shutdown();
}

/// Multi-pair chaos fleet: one route per adversarial profile plus a
/// healthy control route, all exchanging concurrently through the link
/// registry. Every surviving target — whatever its pair suffered — is
/// byte-identical to the healthy baseline, the control pair never
/// retries, and the registry observed overlapping shipment windows.
#[test]
fn heterogeneous_multi_pair_fleet_is_byte_identical_per_pair() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    let mut lossy_retries = 0;
    let mut peak_shipments = 0;
    for seed in chaos_seeds() {
        // Paced links give shipment windows real wall duration, so the
        // concurrency assertion below observes genuine overlap instead
        // of depending on scheduling order (the weighted-fair queue
        // staggers same-pair sessions that the old strict-FIFO queue
        // happened to run back to back).
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(4)
                .with_link_pacing(1.0)
                .with_shipping(ShippingPolicy {
                    chunk_bytes: 2 * 1024,
                    backoff_base: Duration::from_millis(1),
                    ..ShippingPolicy::default()
                }),
        );
        let mut routes = vec![("control", FaultProfile::healthy())];
        routes.extend(adversarial_profiles(seed));
        for (name, profile) in &routes {
            runtime.set_link_fault_profile(name, "hub", *profile);
        }
        let mut handles = Vec::new();
        for (name, _) in &routes {
            for i in 0..2 {
                let source = load_source(&doc, &schema, &mf).unwrap();
                handles.push(
                    runtime
                        .submit(
                            ExchangeRequest::new(
                                format!("{name}-{seed:x}-{i}"),
                                source,
                                mf.clone(),
                                lf.clone(),
                            )
                            .with_route(*name, "hub"),
                        )
                        .unwrap(),
                );
            }
        }
        for handle in handles {
            let session = handle.name().to_string();
            let result = handle.wait();
            assert_eq!(
                result.state,
                SessionState::Done,
                "{session}: {:?}",
                result.diagnostic
            );
            assert_eq!(
                wire_state(&result.target.unwrap()),
                reference,
                "{session}: target diverged from the healthy baseline"
            );
        }
        let stats = runtime.shutdown();
        assert_eq!(stats.completed as usize, routes.len() * 2, "seed {seed:x}");
        assert_eq!(stats.links.len(), routes.len(), "seed {seed:x}");
        for link in &stats.links {
            assert_eq!(link.sessions_completed, 2, "{}", link.pair());
            assert_eq!(link.sessions_failed, 0, "{}", link.pair());
            if link.source == "control" {
                assert_eq!(link.chunks_retried, 0, "control pair saw faults");
            } else {
                lossy_retries += link.chunks_retried;
            }
        }
        peak_shipments = peak_shipments.max(stats.peak_concurrent_shipments);
    }
    assert!(lossy_retries > 0, "no adversarial pair ever forced a retry");
    assert!(
        peak_shipments >= 2,
        "4 workers over disjoint pairs never shipped concurrently (peak {peak_shipments})"
    );
}

/// Format negotiation under chaos: one source ships to a columnar-capable
/// target and to a legacy XML-only target over equally hostile links. The
/// agreeing pair negotiates columnar frames; the disagreeing pair falls
/// back to XML text (a pair ships columnar only when BOTH endpoints
/// prefer it). Whatever each pair speaks, the recovery layer must deliver
/// byte-identical target tables — and the columnar pair must have paid
/// fewer encoded bytes for the identical workload.
#[test]
fn mixed_format_fleet_falls_back_per_pair_and_stays_byte_identical() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(4)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 2 * 1024,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    // The source and one target upgraded to columnar; the legacy target
    // never did, so its pair must stay on XML text despite the source's
    // preference.
    runtime.set_endpoint_format("modern-src", WireFormat::Columnar);
    runtime.set_endpoint_format("modern-dst", WireFormat::Columnar);
    runtime.set_endpoint_format("legacy-dst", WireFormat::Xml);
    let chaos = FaultProfile {
        drop_probability: 0.05,
        corrupt_probability: 0.10,
        corrupt_burst: 8,
        seed: 0x1CDE_2004,
        ..FaultProfile::healthy()
    };
    runtime.set_link_fault_profile("modern-src", "modern-dst", chaos);
    runtime.set_link_fault_profile("modern-src", "legacy-dst", chaos);

    let mut handles = Vec::new();
    for target in ["modern-dst", "legacy-dst"] {
        for i in 0..2 {
            let source = load_source(&doc, &schema, &mf).unwrap();
            handles.push(
                runtime
                    .submit(
                        ExchangeRequest::new(
                            format!("{target}-{i}"),
                            source,
                            mf.clone(),
                            lf.clone(),
                        )
                        .with_route("modern-src", target),
                    )
                    .unwrap(),
            );
        }
    }
    for handle in handles {
        let session = handle.name().to_string();
        let result = handle.wait();
        assert_eq!(
            result.state,
            SessionState::Done,
            "{session}: {:?}",
            result.diagnostic
        );
        let expected = if session.starts_with("modern-dst") {
            WireFormat::Columnar
        } else {
            WireFormat::Xml
        };
        assert_eq!(result.metrics.wire_format, expected, "{session}");
        assert_eq!(
            wire_state(&result.target.unwrap()),
            reference,
            "{session}: target diverged from the healthy baseline"
        );
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 4);
    let columnar = stats
        .links
        .iter()
        .find(|l| l.target == "modern-dst")
        .expect("columnar pair tracked");
    let legacy = stats
        .links
        .iter()
        .find(|l| l.target == "legacy-dst")
        .expect("legacy pair tracked");
    assert_eq!(columnar.wire_format, WireFormat::Columnar);
    assert_eq!(legacy.wire_format, WireFormat::Xml);
    assert!(columnar.bytes_encoded > 0 && legacy.bytes_encoded > 0);
    // Identical workload, negotiated formats: the columnar pair's
    // encoded payload must be at most half the XML pair's.
    assert!(
        columnar.bytes_encoded * 2 <= legacy.bytes_encoded,
        "columnar pair encoded {} bytes vs XML pair's {} (> 0.5x)",
        columnar.bytes_encoded,
        legacy.bytes_encoded
    );
}

/// The adversarial matrix again, but with the pipeline streaming *many
/// small messages* (a 16-row budget, depth 3: on this document most
/// slots pack the batches of several cross edges, and the larger feeds
/// span several slots): faults now land mid-stream — between messages
/// of one session, inside a chunked message, across interleaved
/// sessions — and every surviving target must still be byte-identical
/// to the healthy baseline in both wire formats. This is the
/// many-small-messages counterpart of the matrix above.
#[test]
fn pipelined_batch_streams_survive_the_adversarial_matrix() {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
    let reference = wire_state(&reference_target(&doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    for format in [WireFormat::Xml, WireFormat::Columnar] {
        let mut total_retried = 0;
        let mut total_messages = 0;
        for (name, profile) in adversarial_profiles(0x1CDE_2004) {
            let runtime = Runtime::start(
                schema.clone(),
                RuntimeConfig::default()
                    .with_workers(2)
                    .with_wire_format(format)
                    .with_fault_profile(profile)
                    .with_batch_rows(16)
                    .with_pipeline_depth(3)
                    .with_shipping(ShippingPolicy {
                        chunk_bytes: 2 * 1024,
                        backoff_base: Duration::from_millis(1),
                        ..ShippingPolicy::default()
                    }),
            );
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let source = load_source(&doc, &schema, &mf).unwrap();
                    runtime
                        .submit(ExchangeRequest::new(
                            format!("pipe-{name}-{format}-{i}"),
                            source,
                            mf.clone(),
                            lf.clone(),
                        ))
                        .unwrap()
                })
                .collect();
            for handle in handles {
                let session = handle.name().to_string();
                let result = handle.wait();
                assert_eq!(
                    result.state,
                    SessionState::Done,
                    "{session}: {:?}",
                    result.diagnostic
                );
                // Tiny batches: the session genuinely streamed many
                // frames, it did not degenerate to one message per edge.
                assert!(
                    result.metrics.messages > 4,
                    "{session}: only {} messages — not pipelined",
                    result.metrics.messages
                );
                total_messages += result.metrics.messages;
                let target = result.target.expect("done sessions carry their target");
                assert_eq!(
                    wire_state(&target),
                    reference,
                    "{session}: pipelined target diverged from the healthy baseline"
                );
            }
            let stats = runtime.shutdown();
            assert_eq!(stats.completed, 2, "pipelined {name}/{format}");
            total_retried += stats.chunks_retried;
        }
        assert!(
            total_retried > 0,
            "{format}: the matrix never forced a retry"
        );
        assert!(total_messages > 0);
    }
}

/// A pipelined session dies mid-stream — some batches landed and were
/// staged, later ones defeated the retry policy — and the contract
/// holds end to end: the target rolls back to zero rows (no torn
/// applies), the breaker opens between batches, and after repair
/// `resume` re-ships only the never-acknowledged chunks, re-encoding
/// only the batches the failed run never submitted. Once with a slot
/// per row (every message a single part), once under a 16-row budget
/// (messages of several parts): the seq → bytes map a resume replays
/// must hold for both shapes.
#[test]
fn mid_stream_failure_rolls_back_and_resume_reships_only_unacked_batches() {
    let single_part = mid_stream_failure_and_resume(1);
    let multi_part = mid_stream_failure_and_resume(16);
    assert!(
        multi_part < single_part,
        "a 16-row budget packed nothing: {multi_part} vs {single_part} messages"
    );
}

/// One failure-and-resume under `batch_rows`; returns the messages a
/// healthy run ships.
fn mid_stream_failure_and_resume(batch_rows: usize) -> usize {
    let schema = schema();
    let doc = generate(GenConfig::sized(8_000));
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
    let config = || {
        RuntimeConfig::default()
            .with_workers(1)
            .with_batch_rows(batch_rows)
            .with_pipeline_depth(3)
            .with_breaker(1, Duration::from_secs(60))
            .with_shipping(shipping)
    };

    // Healthy pipelined baseline: total chunks and per-batch messages.
    let healthy = Runtime::start(schema.clone(), config());
    let baseline = healthy
        .submit(ExchangeRequest::new(
            "pipe-baseline",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(baseline.state, SessionState::Done);
    assert!(
        baseline.metrics.messages > 4,
        "baseline must stream multiple batches, got {}",
        baseline.metrics.messages
    );
    let total_chunks = baseline.metrics.chunks_shipped;
    healthy.shutdown();

    // A link lossy enough to defeat 3 attempts × 16 budget mid-stream.
    let runtime = Runtime::start(schema.clone(), config());
    runtime.set_fault_profile(FaultProfile {
        drop_probability: 0.35,
        seed: 3,
        ..FaultProfile::healthy()
    });
    let handle = runtime
        .submit(ExchangeRequest::new(
            "pipe-checkpointed",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap();
    let session_id = handle.id();
    let failed = handle.wait();
    assert_eq!(
        failed.state,
        SessionState::Failed,
        "{:?}",
        failed.diagnostic
    );
    let landed = failed.metrics.chunks_shipped;
    assert!(
        landed > 0 && landed < total_chunks,
        "need a mid-stream failure: {landed}/{total_chunks} chunks landed"
    );
    // Batches staged before the failure are rolled back with everything
    // else: the target carries zero rows, never a torn prefix.
    assert_eq!(
        failed.target.expect("rollback travels").total_rows(),
        0,
        "staged batches survived the rollback"
    );
    // The failure was the link's fault, between/inside batches, so the
    // breaker (threshold 1) opened on it.
    let events = runtime.events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::CircuitOpened),
        "mid-stream link failure did not open the breaker"
    );

    // Repair and resume: bypasses the open breaker by design.
    runtime.set_fault_profile(FaultProfile::healthy());
    let result = runtime
        .resume(session_id)
        .expect("failed pipelined session is resumable")
        .wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);

    // Only never-acknowledged chunks crossed again.
    assert_eq!(result.metrics.chunks_resumed, landed);
    assert_eq!(result.metrics.chunks_shipped, total_chunks - landed);
    // Exactly-once encoding per batch across failure + resume: batches
    // the failed run submitted were checkpointed and replay verbatim;
    // the resume encodes only the remainder.
    assert!(failed.metrics.messages_serialized > 0);
    assert_eq!(
        failed.metrics.messages_serialized + result.metrics.messages_serialized,
        baseline.metrics.messages_serialized,
        "a batch was encoded twice across failure and resume"
    );
    assert!(
        result.metrics.messages_serialized < baseline.metrics.messages_serialized,
        "resume replayed no checkpointed batch"
    );
    // And the streamed, resumed target is exactly the reference.
    assert_eq!(wire_state(&result.target.unwrap()), reference);
    baseline.metrics.messages
}

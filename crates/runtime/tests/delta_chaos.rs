//! Delta-exchange chaos harness: versioned patch sessions against
//! faulty links and stale version preconditions.
//!
//! The contract under test, per route: a full session establishes feed
//! version 1; a follow-up session declaring `with_base_version(1)`
//! ships a Patch frame instead of the full document and leaves the
//! target byte-identical to a full re-ship of the mutated document; a
//! patch session that dies mid-ship leaves the target at the
//! precondition version (rolled back, nothing torn) and `resume`
//! re-ships only the never-acknowledged patch chunks; a stale patch —
//! its base version no longer the route head — rolls back cleanly and
//! falls back to a full re-ship inside the same session.
//!
//! Set `XDX_CHAOS_SEED=<u64>` to extend the seed list of the faulty-link
//! fleet race (the CI chaos job feeds its matrix through this).

mod common;

use common::oracle::{reference_target, wire_state};
use std::time::Duration;
use xdx_net::{BurstLoss, FaultProfile, NetworkProfile};
use xdx_runtime::{
    EventKind, ExchangeRequest, Runtime, RuntimeConfig, SessionState, ShippingPolicy, WireFormat,
    DEFAULT_SOURCE_ENDPOINT, DEFAULT_TARGET_ENDPOINT,
};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};

/// Head version of the default route.
fn default_route_version(runtime: &Runtime, source_frag: &str, target_frag: &str) -> u64 {
    runtime.feed_version(
        DEFAULT_SOURCE_ENDPOINT,
        DEFAULT_TARGET_ENDPOINT,
        source_frag,
        target_frag,
    )
}

/// A 5%-churn delta session ships a small fraction of the full re-ship
/// bytes in both wire formats, applies exactly one patch, and leaves
/// the target byte-identical to a full exchange of the mutated
/// document.
#[test]
fn delta_session_ships_fraction_of_full_and_matches_reference() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let churned = churn(&doc, 5, 7);
    assert_ne!(doc, churned, "5% churn must actually mutate the document");
    let reference = wire_state(&reference_target(&churned, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    for format in [WireFormat::Xml, WireFormat::Columnar] {
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(1)
                .with_wire_format(format)
                .with_shipping(ShippingPolicy {
                    chunk_bytes: 2 * 1024,
                    backoff_base: Duration::from_millis(1),
                    ..ShippingPolicy::default()
                }),
        );

        // Session 1: full exchange establishes feed version 1.
        let seed = runtime
            .submit(ExchangeRequest::new(
                format!("seed-{format}"),
                load_source(&doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            ))
            .unwrap()
            .wait();
        assert_eq!(seed.state, SessionState::Done, "{:?}", seed.diagnostic);
        assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 1);

        // Session 2: the source mutated 5% of its items; the target
        // declares it holds v1, so the planner ships a patch.
        let delta = runtime
            .submit(
                ExchangeRequest::new(
                    format!("delta-{format}"),
                    load_source(&churned, &schema, &mf).unwrap(),
                    mf.clone(),
                    lf.clone(),
                )
                .with_base_version(1),
            )
            .unwrap()
            .wait();
        assert_eq!(delta.state, SessionState::Done, "{:?}", delta.diagnostic);
        assert_eq!(delta.metrics.delta_patches_applied, 1, "{format}");
        assert_eq!(delta.metrics.delta_full_fallbacks, 0, "{format}");
        assert!(delta.metrics.delta_patch_bytes > 0, "{format}");
        assert_eq!(
            wire_state(&delta.target.expect("done sessions carry their target")),
            reference,
            "{format}: patched target diverged from a full re-ship of the mutated document"
        );
        assert_eq!(
            default_route_version(&runtime, &mf.name, &lf.name),
            2,
            "{format}: applied patch advances the feed version"
        );

        // Session 3: the same mutated document shipped in full — the
        // yardstick the patch has to beat.
        let full = runtime
            .submit(ExchangeRequest::new(
                format!("full-{format}"),
                load_source(&churned, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            ))
            .unwrap()
            .wait();
        assert_eq!(full.state, SessionState::Done, "{:?}", full.diagnostic);
        assert!(
            delta.metrics.bytes_shipped * 10 <= full.metrics.bytes_shipped * 3,
            "{format}: patch shipped {} wire bytes vs {} for the full re-ship (> 0.3x at 5% churn)",
            delta.metrics.bytes_shipped,
            full.metrics.bytes_shipped
        );

        assert!(runtime
            .events()
            .iter()
            .any(|e| e.kind == EventKind::DeltaApplied));
        let stats = runtime.shutdown();
        assert_eq!(stats.delta_patches_applied, 1, "{format}");
        assert!(stats.delta_patch_bytes > 0, "{format}");
        assert_eq!(stats.delta_full_fallbacks, 0, "{format}");
    }
}

/// A patch session that dies on a lossy link leaves the target at the
/// precondition version — rolled back, feed head unmoved — and resuming
/// it after the link is repaired re-ships only the never-acknowledged
/// patch chunks before applying.
#[test]
fn failed_patch_session_rolls_back_and_resume_reships_only_unacked_chunks() {
    let schema = schema();
    let doc = generate(GenConfig::sized(16_000));
    let churned = churn(&doc, 40, 11);
    let reference = wire_state(&reference_target(&churned, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 512,
                max_attempts_per_chunk: 2,
                retry_budget: 4,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );

    // Establish v1 over the still-healthy link.
    let seed = runtime
        .submit(ExchangeRequest::new(
            "seed",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(seed.state, SessionState::Done, "{:?}", seed.diagnostic);
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 1);

    // The link degrades; the patch shipment dies partway through.
    runtime.set_fault_profile(FaultProfile {
        drop_probability: 0.7,
        seed: 3,
        ..FaultProfile::healthy()
    });
    let handle = runtime
        .submit(
            ExchangeRequest::new(
                "patch",
                load_source(&churned, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(1),
        )
        .unwrap();
    let session_id = handle.id();
    let failed = handle.wait();
    assert_eq!(
        failed.state,
        SessionState::Failed,
        "{:?}",
        failed.diagnostic
    );
    // No torn apply: the target is back at the precondition version —
    // zero staged rows survive, and the feed head never moved.
    assert_eq!(failed.target.expect("rollback travels").total_rows(), 0);
    assert_eq!(failed.metrics.delta_patches_applied, 0);
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 1);
    let landed = failed.metrics.chunks_shipped;
    assert!(
        landed > 0,
        "need a partial patch shipment to make resume interesting"
    );

    // Operator repairs the link and resumes the session: the plan and
    // the already-acknowledged patch chunks come from the checkpoint.
    runtime.set_fault_profile(FaultProfile::healthy());
    let resumed = runtime.resume(session_id).expect("session is resumable");
    let result = resumed.wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    assert!(result.metrics.plan_cache_hit, "resume re-planned");
    assert_eq!(
        result.metrics.chunks_resumed, landed,
        "resume must skip exactly the chunks that already landed"
    );
    assert_eq!(result.metrics.delta_patches_applied, 1);
    assert_eq!(
        wire_state(&result.target.unwrap()),
        reference,
        "resumed patch session diverged from a full re-ship of the mutated document"
    );
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 2);
    assert!(runtime
        .events()
        .iter()
        .any(|e| e.kind == EventKind::ShipmentResumed));
    let stats = runtime.shutdown();
    assert_eq!(stats.delta_patches_applied, 1);
    assert_eq!(stats.chunks_resumed, landed);
}

/// Stale and unknown base versions take the fallback ladder: an unknown
/// base skips the patch entirely, a stale patch ships, fails its
/// precondition at apply time, rolls back, and completes as a full
/// re-ship — all inside one session, ending at the correct state.
#[test]
fn stale_and_unknown_base_versions_fall_back_to_full_reship() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 2 * 1024,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );

    // v1 (full), then v2 (patch applied) — the honest fast path.
    let seed = runtime
        .submit(ExchangeRequest::new(
            "seed",
            load_source(&doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(seed.state, SessionState::Done, "{:?}", seed.diagnostic);
    let churned = churn(&doc, 5, 7);
    let applied = runtime
        .submit(
            ExchangeRequest::new(
                "fresh",
                load_source(&churned, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(1),
        )
        .unwrap()
        .wait();
    assert_eq!(applied.metrics.delta_patches_applied, 1);
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 2);

    // Stale: the target claims v1, but the route head is already v2.
    // The patch ships, its precondition fails at apply, the staged rows
    // roll back, and the session completes as a full re-ship.
    let rechurned = churn(&doc, 5, 23);
    let stale = runtime
        .submit(
            ExchangeRequest::new(
                "stale",
                load_source(&rechurned, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(1),
        )
        .unwrap()
        .wait();
    assert_eq!(stale.state, SessionState::Done, "{:?}", stale.diagnostic);
    assert_eq!(stale.metrics.delta_patches_applied, 0);
    assert_eq!(stale.metrics.delta_full_fallbacks, 1);
    assert_eq!(
        wire_state(&stale.target.unwrap()),
        wire_state(&reference_target(&rechurned, &mf, &lf)),
        "fallback re-ship diverged from the reference"
    );
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 3);

    // Unknown: no snapshot for v99 was ever recorded — the session
    // falls back before encoding a patch at all.
    let unknown = runtime
        .submit(
            ExchangeRequest::new(
                "unknown",
                load_source(&rechurned, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(99),
        )
        .unwrap()
        .wait();
    assert_eq!(
        unknown.state,
        SessionState::Done,
        "{:?}",
        unknown.diagnostic
    );
    assert_eq!(unknown.metrics.delta_full_fallbacks, 1);
    assert_eq!(unknown.metrics.delta_patch_bytes, 0);
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 4);

    assert!(runtime
        .events()
        .iter()
        .any(|e| e.kind == EventKind::DeltaFellBack));
    let stats = runtime.shutdown();
    assert_eq!(stats.delta_patches_applied, 1);
    assert_eq!(stats.delta_full_fallbacks, 2);
}

/// Multi-route fleet: patches race adversarial link faults on every
/// route at once. The chunk-level recovery layer must deliver every
/// patch intact (corruption detected and retried, never applied), every
/// target must match a full re-ship of the mutated document, every
/// route must land on feed version 2, and the reassembly ledger must
/// have pruned the acknowledged shipment state of completed sessions.
#[test]
fn delta_fleet_races_link_faults_without_torn_applies() {
    for seed in chaos_seeds() {
        delta_fleet_race(seed);
    }
}

/// Built-in seeds, extended by `XDX_CHAOS_SEED` when set.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![0x1CDE_2004];
    if let Ok(extra) = std::env::var("XDX_CHAOS_SEED") {
        seeds.push(extra.trim().parse().expect("XDX_CHAOS_SEED must be a u64"));
    }
    seeds
}

fn delta_fleet_race(seed: u64) {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let churned = churn(&doc, 5, 7);
    let reference = wire_state(&reference_target(&churned, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);

    let routes: Vec<(&str, FaultProfile)> = vec![
        ("control", FaultProfile::healthy()),
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
    ];

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
    for (name, profile) in &routes {
        runtime.set_link_fault_profile(name, "hub", *profile);
    }

    // Wave 1: full sessions establish v1 on every route, concurrently.
    let handles: Vec<_> = routes
        .iter()
        .map(|(name, _)| {
            runtime
                .submit(
                    ExchangeRequest::new(
                        format!("seed-{name}"),
                        load_source(&doc, &schema, &mf).unwrap(),
                        mf.clone(),
                        lf.clone(),
                    )
                    .with_route(*name, "hub"),
                )
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
    }
    for (name, _) in &routes {
        assert_eq!(runtime.feed_version(name, "hub", &mf.name, &lf.name), 1);
    }

    // Wave 2: every route ships its 5%-churn patch while its link
    // misbehaves underneath it.
    let handles: Vec<_> = routes
        .iter()
        .map(|(name, _)| {
            runtime
                .submit(
                    ExchangeRequest::new(
                        format!("patch-{name}"),
                        load_source(&churned, &schema, &mf).unwrap(),
                        mf.clone(),
                        lf.clone(),
                    )
                    .with_route(*name, "hub")
                    .with_base_version(1),
                )
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
        assert_eq!(
            wire_state(&result.target.unwrap()),
            reference,
            "{session}: patched target diverged from the healthy reference"
        );
    }
    for (name, _) in &routes {
        assert_eq!(
            runtime.feed_version(name, "hub", &mf.name, &lf.name),
            2,
            "{name}: route must land on v2, applied or fallen back"
        );
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.completed as usize, routes.len() * 2);
    // Every delta session resolved through exactly one rung of the
    // ladder: applied, deliberately full, or fallen back.
    assert_eq!(
        stats.delta_patches_applied + stats.delta_full_chosen + stats.delta_full_fallbacks,
        routes.len() as u64
    );
    assert!(
        stats.delta_patches_applied >= 1,
        "no route ever applied a patch"
    );
    // Satellite: completed sessions release their reassembly state.
    assert!(
        stats.ledger_entries_pruned > 0,
        "no acknowledged shipment state was pruned after commit"
    );
}

/// Chained-delta follow-up: a subscriber whose base version aged out of
/// the snapshot retention window still gets a delta. Six full sessions
/// advance the route to v6, evicting the v1 snapshot (retention is 4);
/// a session then declaring `with_base_version(1)` must *compose* the
/// retained per-step patches back to v1 instead of falling back to a
/// full re-ship — observable as `delta_chain_composed`, exactly one
/// applied patch, and a target byte-identical to the full exchange.
#[test]
fn aged_out_base_composes_retained_step_patches() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let final_doc = churn(&doc, 5, 7);
    assert_ne!(doc, final_doc);
    let reference = wire_state(&reference_target(&final_doc, &mf(&schema), &lf(&schema)));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_shipping(ShippingPolicy {
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );

    // v1 is the original document; five more full sessions (each a
    // small churn of it) advance the head to v6, pushing v1 out of the
    // 4-deep snapshot window while its step patches stay retained.
    for (i, version_doc) in std::iter::once(doc.clone())
        .chain((1..=5).map(|i| churn(&doc, 2, i)))
        .enumerate()
    {
        let result = runtime
            .submit(ExchangeRequest::new(
                format!("full-v{}", i + 1),
                load_source(&version_doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            ))
            .unwrap()
            .wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
    assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 6);

    // The old subscriber asks for a delta from v1.
    let chained = runtime
        .submit(
            ExchangeRequest::new(
                "chained",
                load_source(&final_doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(1),
        )
        .unwrap()
        .wait();
    assert_eq!(
        chained.state,
        SessionState::Done,
        "{:?}",
        chained.diagnostic
    );
    assert_eq!(
        chained.metrics.delta_chain_composed, 1,
        "the aged-out base must be reconstructed from step patches"
    );
    assert_eq!(chained.metrics.delta_patches_applied, 1);
    assert_eq!(
        chained.metrics.delta_full_fallbacks, 0,
        "a retained chain must not fall back to a full re-ship"
    );
    assert_eq!(
        wire_state(&chained.target.expect("done sessions carry their target")),
        reference,
        "chain-composed patch diverged from the full exchange"
    );
    assert!(runtime
        .events()
        .iter()
        .any(|e| e.kind == EventKind::DeltaChainComposed));

    let stats = runtime.shutdown();
    assert_eq!(stats.delta_chain_composed, 1);
    assert_eq!(stats.delta_patches_applied, 1);
}

/// A delta patch parks like any other shipment: with one worker and a
/// paced link, a full session on another route starts executing while
/// the patch is still on the wire.
#[test]
fn patch_on_the_wire_does_not_hold_the_only_worker() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let churned = churn(&doc, 5, 7);
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_network(NetworkProfile {
                bandwidth_bytes_per_sec: 100_000.0,
                latency: Duration::from_millis(5),
            })
            .with_link_pacing(1.0)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 256,
                ..ShippingPolicy::default()
            }),
    );
    let request = |name: &str, doc: &str, from: &str| {
        ExchangeRequest::new(
            name,
            load_source(doc, &schema, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        )
        .with_route(from, "hub")
    };
    let seed = runtime.submit(request("seed", &doc, "a")).unwrap().wait();
    assert_eq!(seed.state, SessionState::Done, "{:?}", seed.diagnostic);

    let patch = runtime
        .submit(request("patch", &churned, "a").with_base_version(1))
        .unwrap();
    let full = runtime.submit(request("full", &doc, "b")).unwrap();
    let (patch_id, full_id) = (patch.id(), full.id());
    let patched = patch.wait();
    assert_eq!(
        patched.state,
        SessionState::Done,
        "{:?}",
        patched.diagnostic
    );
    assert_eq!(patched.metrics.delta_patches_applied, 1);
    assert_eq!(full.wait().state, SessionState::Done);

    let events = runtime.events();
    let position = |session, kind| {
        events
            .iter()
            .position(|e| e.session == session && e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} event for session {session}"))
    };
    assert!(
        position(full_id, EventKind::ExecutionStarted) < position(patch_id, EventKind::Completed),
        "the patch held the only worker until it landed"
    );
    runtime.shutdown();
}

/// The fallback ladder is resumable mid-rung with deterministic seqs.
/// Stale case: the patch (seq 0) lands and is rejected at staging, the
/// full feeds re-enter from seq 1 and die on a lossy link. Full-chosen
/// case: the cost model ships the feeds from seq 0 and they die the same
/// way. Either way the target rolls back, and `resume` replays the same
/// ladder: acknowledged chunks are skipped, and no batch is encoded
/// twice across the failed and the resumed run. Once with a slot per
/// row (every message a single part), once under a 16-row budget
/// (messages of several parts).
#[test]
fn failure_mid_fallback_resumes_only_unacked_batches() {
    for batch_rows in [1, 16] {
        failure_mid_fallback_resumes(batch_rows);
    }
}

fn failure_mid_fallback_resumes(batch_rows: usize) {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let second = churn(&doc, 5, 7);
    let mf = mf(&schema);
    let lf = lf(&schema);
    let config = || {
        RuntimeConfig::default()
            .with_workers(1)
            .with_batch_rows(batch_rows)
            .with_pipeline_depth(1)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 3,
                retry_budget: 16,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            })
    };
    // Route history shared by every run: v1 = doc, v2 = second.
    let with_history = || {
        let runtime = Runtime::start(schema.clone(), config());
        for version_doc in [&doc, &second] {
            let result = runtime
                .submit(ExchangeRequest::new(
                    "history",
                    load_source(version_doc, &schema, &mf).unwrap(),
                    mf.clone(),
                    lf.clone(),
                ))
                .unwrap()
                .wait();
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
        assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 2);
        runtime
    };
    // (case, declared base, head document, fallbacks, full-chosen)
    let cases = [
        ("stale patch", 1, churn(&doc, 5, 23), 1, 0),
        ("full chosen", 2, churn(&doc, 100, 5), 0, 1),
    ];
    for (case, base, head_doc, fallbacks, chosen) in cases {
        let reference = wire_state(&reference_target(&head_doc, &mf, &lf));
        let request = || {
            ExchangeRequest::new(
                case,
                load_source(&head_doc, &schema, &mf).unwrap(),
                mf.clone(),
                lf.clone(),
            )
            .with_base_version(base)
        };
        let ladder = |metrics: &xdx_runtime::SessionMetrics| {
            assert_eq!(metrics.delta_patches_applied, 0, "{case}");
            assert_eq!(metrics.delta_full_fallbacks, fallbacks, "{case}");
            assert_eq!(metrics.delta_full_chosen, chosen, "{case}");
        };

        // The ladder on a healthy link: what one clean run encodes.
        let healthy = with_history();
        let baseline = healthy.submit(request()).unwrap().wait();
        assert_eq!(baseline.state, SessionState::Done, "{case}");
        ladder(&baseline.metrics);
        healthy.shutdown();

        // The same ladder with the link degrading under it. One batch
        // in flight at a time makes the fault draws a fixed sequence;
        // under this seed both ladders die partway through the feeds.
        let runtime = with_history();
        runtime.set_fault_profile(FaultProfile {
            drop_probability: 0.3,
            seed: 1,
            ..FaultProfile::healthy()
        });
        let handle = runtime.submit(request()).unwrap();
        let session_id = handle.id();
        let failed = handle.wait();
        assert_eq!(failed.state, SessionState::Failed, "{case}");
        // The rung was reached: a rejected patch had landed first.
        ladder(&failed.metrics);
        assert_eq!(failed.target.expect("rollback travels").total_rows(), 0);
        assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 2);
        let landed = failed.metrics.chunks_shipped;
        assert!(
            landed > 0 && landed < baseline.metrics.chunks_shipped,
            "{case}: need a partial shipment, got {landed}"
        );

        runtime.set_fault_profile(FaultProfile::healthy());
        let result = runtime.resume(session_id).expect("resumable").wait();
        assert_eq!(
            result.state,
            SessionState::Done,
            "{case}: {:?}",
            result.diagnostic
        );
        ladder(&result.metrics);
        assert_eq!(
            result.metrics.planning_probes, 0,
            "{case}: resume re-probed"
        );
        assert_eq!(
            result.metrics.chunks_resumed, landed,
            "{case}: seqs moved between the failed and the resumed run"
        );
        assert_eq!(
            landed + result.metrics.chunks_shipped,
            baseline.metrics.chunks_shipped,
            "{case}: an acknowledged chunk crossed the link again"
        );
        assert_eq!(
            failed.metrics.messages_serialized + result.metrics.messages_serialized,
            baseline.metrics.messages_serialized,
            "{case}: a batch was encoded twice"
        );
        assert_eq!(wire_state(&result.target.unwrap()), reference, "{case}");
        assert_eq!(default_route_version(&runtime, &mf.name, &lf.name), 3);
        runtime.shutdown();
    }
}

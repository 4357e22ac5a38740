//! The counters' contract, from a shipped chunk to `/metrics`.
//!
//! Two properties every counter export has to keep: the *shape* of what
//! is served (the key order of `/stats.json`, the set of Prometheus
//! series and their types) is pinned by a golden, and the *values* are
//! conserved — what the sessions of a fleet report adds up to what the
//! runtime reports, which adds up to what its links report. A fold line
//! dropped between a lane and the aggregate fails here, not on an
//! operator's dashboard.

use std::time::Duration;
use xdx_net::FaultProfile;
use xdx_runtime::{
    ExchangeRequest, LinkStats, PublishRequest, Runtime, RuntimeConfig, RuntimeStats,
    SessionMetrics, SessionState, ShippingPolicy,
};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};

/// Every object key of a JSON document, in document order (the stats
/// document nests flat objects in arrays, nothing deeper).
fn json_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = json;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let mut close = 0;
        let bytes = body.as_bytes();
        while bytes[close] != b'"' {
            close += if bytes[close] == b'\\' { 2 } else { 1 };
        }
        if body[close + 1..].starts_with(':') {
            keys.push(body[..close].to_string());
        }
        rest = &body[close + 1..];
    }
    keys
}

/// `/stats.json` key order (top level, then one tenant, then one link).
const STATS_JSON_KEYS: &str = "admitted rejected completed failed cancelled resumed \
    sessions_shed_expired sessions_shed_deadline sessions_shed_breaker resumables_evicted \
    ledger_buffers_shed plan_cache_hits plan_cache_misses plan_cache_stats_evicted \
    planning_probes messages_serialized bytes_shipped bytes_encoded \
    encode_ns chunks_shipped chunks_resumed chunks_deduped chunks_retried \
    peak_concurrent_shipments dropped_events dropped_spans delta_patch_bytes \
    delta_patches_applied delta_full_chosen delta_full_fallbacks delta_chain_composed \
    fanout_subscribers multicast_encode_shared multicast_encode_fallback ledger_entries_pruned \
    queue_depth latency_p50_ns latency_p95_ns latency_p99_ns \
    tenants tenant weight admitted completed shed \
    links link wire_format busy_ns wire_bytes bytes_encoded encode_ns chunks_shipped \
    chunks_retried sessions_completed sessions_failed sessions_shed breaker_open \
    peak_concurrent_shipments";

/// The sorted `# TYPE` lines of `/metrics`: every series base name with
/// its exposition type.
const METRIC_SERIES: &str = "\
xdx_bytes_encoded_total counter
xdx_bytes_shipped_total counter
xdx_chunks_deduped_total counter
xdx_chunks_resumed_total counter
xdx_chunks_retried_total counter
xdx_chunks_shipped_total counter
xdx_db_bytes_out_total counter
xdx_db_comparisons_total counter
xdx_db_hash_probes_total counter
xdx_db_index_inserts_total counter
xdx_db_rows_out_total counter
xdx_db_rows_read_total counter
xdx_db_rows_written_total counter
xdx_decoded_batches_cached gauge
xdx_delta_chain_composed_total counter
xdx_delta_full_chosen_total counter
xdx_delta_full_fallbacks_total counter
xdx_delta_patch_bytes_total counter
xdx_delta_patches_applied_total counter
xdx_encode_ns histogram
xdx_encode_ns_total counter
xdx_engine_stalled gauge
xdx_events_dropped_total counter
xdx_fanout_subscribers counter
xdx_flight_anomalies_total counter
xdx_flight_dumps_total counter
xdx_ledger_buffers_shed_total counter
xdx_ledger_entries_pruned_total counter
xdx_link_breaker_open gauge
xdx_link_busy_ns_total counter
xdx_link_bytes_encoded_total counter
xdx_link_chunks_retried_total counter
xdx_link_chunks_shipped_total counter
xdx_link_encode_ns_total counter
xdx_link_peak_concurrent_shipments gauge
xdx_link_sessions_completed_total counter
xdx_link_sessions_failed_total counter
xdx_link_sessions_shed_total counter
xdx_link_utilization gauge
xdx_link_wire_bytes_total counter
xdx_link_wire_format gauge
xdx_messages_serialized_total counter
xdx_multicast_encode_fallback counter
xdx_multicast_encode_shared counter
xdx_op_wall_ns histogram
xdx_peak_concurrent_shipments gauge
xdx_pipeline_depth gauge
xdx_plan_cache_hits_total counter
xdx_plan_cache_misses_total counter
xdx_plan_cache_stats_evicted_total counter
xdx_planning_ns histogram
xdx_planning_probes_total counter
xdx_queue_depth gauge
xdx_queue_wait_ns histogram
xdx_resumables_evicted_total counter
xdx_session_latency_ns histogram
xdx_sessions_admitted_total counter
xdx_sessions_cancelled_total counter
xdx_sessions_completed_total counter
xdx_sessions_failed_total counter
xdx_sessions_rejected_total counter
xdx_sessions_resumed_total counter
xdx_sessions_shed_breaker_total counter
xdx_sessions_shed_deadline_total counter
xdx_sessions_shed_expired_total counter
xdx_spans_dropped_total counter
xdx_tenant_admitted_total counter
xdx_tenant_completed_total counter
xdx_tenant_shed_total counter
xdx_tenant_weight gauge
xdx_worker_occupancy gauge
";

/// A fixed fleet — two sessions on one route — serves exactly the
/// golden `/stats.json` keys, in order, and the golden set of typed
/// `/metrics` series.
#[test]
fn stats_json_keys_and_metrics_series_match_the_golden() {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let doc = generate(GenConfig::sized(20_000));
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));
    for i in 0..2 {
        let source = load_source(&doc, &schema, &mf).unwrap();
        let request = ExchangeRequest::new(format!("g{i}"), source, mf.clone(), lf.clone());
        let result = runtime.submit(request).unwrap().wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }

    let keys = json_keys(&runtime.stats().to_json());
    let golden: Vec<&str> = STATS_JSON_KEYS.split_whitespace().collect();
    assert_eq!(keys, golden, "/stats.json keys or their order moved");

    let text = runtime.metrics_text();
    let mut series: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .collect();
    series.sort_unstable();
    let golden: Vec<&str> = METRIC_SERIES.lines().collect();
    assert_eq!(series, golden, "/metrics series set or a series type moved");
    runtime.shutdown();
}

/// What one counter reads off a session, off the fleet, and — when the
/// links keep it too — off a link.
type Conserved = (
    &'static str,
    fn(&SessionMetrics) -> u64,
    fn(&RuntimeStats) -> u64,
    Option<fn(&LinkStats) -> u64>,
);

/// The counters a lane tallies while it ships and folds into the fleet
/// when it settles: Σ sessions = fleet (= Σ links, where links keep it).
#[rustfmt::skip]
const SHIPPED: [Conserved; 11] = [
    ("planning_probes", |m| u64::from(m.planning_probes), |s| s.planning_probes, None),
    ("bytes_shipped", |m| m.bytes_shipped, |s| s.bytes_shipped, Some(|l| l.wire_bytes)),
    ("chunks_shipped", |m| m.chunks_shipped, |s| s.chunks_shipped, Some(|l| l.chunks_shipped)),
    ("chunks_resumed", |m| m.chunks_resumed, |s| s.chunks_resumed, None),
    ("chunks_deduped", |m| m.chunks_deduped, |s| s.chunks_deduped, None),
    ("chunks_retried", |m| m.chunks_retried, |s| s.chunks_retried, Some(|l| l.chunks_retried)),
    ("delta_patch_bytes", |m| m.delta_patch_bytes, |s| s.delta_patch_bytes, None),
    ("delta_patches_applied", |m| m.delta_patches_applied, |s| s.delta_patches_applied, None),
    ("delta_full_chosen", |m| m.delta_full_chosen, |s| s.delta_full_chosen, None),
    ("delta_full_fallbacks", |m| m.delta_full_fallbacks, |s| s.delta_full_fallbacks, None),
    ("delta_chain_composed", |m| m.delta_chain_composed, |s| s.delta_chain_composed, None),
];

/// The encode bill: a session of its own carries it, a publish group
/// carries its shared ring's at group scope (its lanes report none), and
/// the encoding lane's link sees every frame either way. With a publish
/// in the fleet: Σ sessions < fleet = Σ links.
#[rustfmt::skip]
const ENCODED: [Conserved; 3] = [
    ("messages_serialized", |m| m.messages_serialized as u64, |s| s.messages_serialized, None),
    ("bytes_encoded", |m| m.bytes_encoded, |s| s.bytes_encoded, Some(|l| l.bytes_encoded)),
    ("encode_ns", |m| m.encode_ns, |s| s.encode_ns, Some(|l| l.encode_ns)),
];

fn shipping() -> ShippingPolicy {
    ShippingPolicy {
        chunk_bytes: 2 * 1024,
        max_attempts_per_chunk: 3,
        backoff_base: Duration::from_millis(1),
        ..ShippingPolicy::default()
    }
}

/// A seeded one-worker fleet that touches every shipped counter: lossy,
/// reordering, duplicating links under two-site sessions in both
/// directions, a
/// session that fails partway and resumes from its checkpoint, a delta
/// patch, a delta fallback, and a 1→3 publish. Whatever each session
/// ends as, its metrics are folded into the fleet's exactly once.
#[test]
fn shipped_counters_are_conserved_from_session_to_fleet_to_links() {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let doc = generate(GenConfig::sized(30_000));
    let lossy = FaultProfile {
        drop_probability: 0.08,
        reorder_probability: 0.1,
        duplicate_probability: 0.1,
        ..FaultProfile::healthy()
    };
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_fault_profile(lossy.with_seed(17))
            .with_shipping(shipping()),
    );
    let mut sessions: Vec<SessionMetrics> = Vec::new();

    // Two-site sessions, both directions, over the lossy default link.
    for (i, (from, to)) in [(&mf, &lf), (&lf, &mf), (&mf, &lf)].into_iter().enumerate() {
        let source = load_source(&doc, &schema, from).unwrap();
        let request = ExchangeRequest::new(format!("s{i}"), source, from.clone(), to.clone())
            .with_route("site", "registry");
        sessions.push(runtime.submit(request).unwrap().wait().metrics);
    }

    // A link bad enough to defeat three attempts per chunk partway
    // through, then repaired: the resume skips what already landed.
    runtime.set_link_fault_profile("flaky", "registry", FaultProfile::drops(0.45, 3));
    let source = load_source(&doc, &schema, &mf).unwrap();
    let request = ExchangeRequest::new("flaky", source, mf.clone(), lf.clone())
        .with_route("flaky", "registry");
    let handle = runtime.submit(request).unwrap();
    let flaky_id = handle.id();
    let failed = handle.wait();
    assert_eq!(failed.state, SessionState::Failed, "the flaky link held");
    sessions.push(failed.metrics);
    runtime.set_link_fault_profile("flaky", "registry", FaultProfile::healthy());
    let resumed = runtime.resume(flaky_id).expect("resumable").wait();
    assert_eq!(
        resumed.state,
        SessionState::Done,
        "{:?}",
        resumed.diagnostic
    );
    sessions.push(resumed.metrics);

    // A delta against the version the first route holds, and one against
    // a version nobody holds (it falls back to the full feeds).
    let head = runtime.feed_version("site", "registry", &mf.name, &lf.name);
    for (name, base) in [("delta", head), ("stale", head + 40)] {
        let source = load_source(&churn(&doc, 5, 7), &schema, &mf).unwrap();
        let request = ExchangeRequest::new(name, source, mf.clone(), lf.clone())
            .with_route("site", "registry")
            .with_base_version(base);
        sessions.push(runtime.submit(request).unwrap().wait().metrics);
    }

    // A 1→3 publish: one shared ring, three lanes, three links.
    let source = load_source(&doc, &schema, &mf).unwrap();
    let subscribers = (0..3).map(|i| format!("sub-{i}")).collect();
    let publish = PublishRequest::new("pub", source, mf.clone(), lf.clone(), subscribers)
        .with_source_endpoint("site");
    for lane in runtime.publish(publish).unwrap().wait() {
        sessions.push(lane.metrics);
    }

    let stats = runtime.shutdown();
    let linked = |of_link: fn(&LinkStats) -> u64| stats.links.iter().map(of_link).sum::<u64>();
    for (name, of_session, of_fleet, of_link) in SHIPPED {
        let summed: u64 = sessions.iter().map(of_session).sum();
        assert_eq!(summed, of_fleet(&stats), "Σ sessions ≠ fleet for {name}");
        if let Some(of_link) = of_link {
            assert_eq!(
                linked(of_link),
                of_fleet(&stats),
                "Σ links ≠ fleet for {name}"
            );
        }
    }
    for (name, of_session, of_fleet, of_link) in ENCODED {
        let summed: u64 = sessions.iter().map(of_session).sum();
        assert!(summed < of_fleet(&stats), "no group-scope bill for {name}");
        if let Some(of_link) = of_link {
            assert_eq!(
                linked(of_link),
                of_fleet(&stats),
                "Σ links ≠ fleet for {name}"
            );
        }
    }

    // The scenario has teeth: each counter it was built for moved.
    assert_eq!(stats.admitted, 10);
    assert_eq!(stats.completed + stats.failed, sessions.len() as u64);
    for (name, moved) in [
        ("chunks_retried", stats.chunks_retried),
        ("chunks_deduped", stats.chunks_deduped),
        ("chunks_resumed", stats.chunks_resumed),
        ("delta_patches_applied", stats.delta_patches_applied),
        ("delta_full_fallbacks", stats.delta_full_fallbacks),
        ("multicast_encode_shared", stats.multicast_encode_shared),
    ] {
        assert!(moved > 0, "the fleet never moved {name}");
    }
}

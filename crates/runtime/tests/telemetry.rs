//! Integration tests of the telemetry surface: Prometheus exposition,
//! span parenting and correlation, the bounded event ring, and
//! calibration-driven plan-cache drift eviction.

use std::time::Duration;
use xdx_net::{FaultProfile, NetworkProfile};
use xdx_runtime::{
    CalibrationConfig, EventKind, ExchangeRequest, Runtime, RuntimeConfig, SessionState,
    ShippingPolicy, WireFormat,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

/// Submits `n` mixed-direction sessions round-robin over `pairs`
/// endpoint pairs and waits for all of them, asserting success.
fn run_fleet(runtime: &Runtime, doc: &str, n: usize, pairs: usize) {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (from, to) = if i % 2 == 1 { (&lf, &mf) } else { (&mf, &lf) };
            let source = load_source(doc, &schema, from).unwrap();
            runtime
                .submit(
                    ExchangeRequest::new(format!("t{i}"), source, from.clone(), to.clone())
                        .with_route(format!("site{}", i % pairs), "registry"),
                )
                .unwrap()
        })
        .collect();
    for handle in handles {
        let result = handle.wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
}

/// Pulls the integer following `"key":` out of a JSONL line — enough of
/// a parser for the trace/event schemas the runtime emits.
fn json_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{line}: no {key}"))
        + needle.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{line}: {key} is not an integer"))
}

fn json_name(line: &str) -> String {
    let start = line.find("\"name\":\"").expect("span line has a name") + 8;
    line[start..].chars().take_while(|&c| c != '"').collect()
}

/// `metrics_text()` must expose per-operator wall-time histograms at
/// both locations and per-link counters/gauges for every pair the
/// fleet touched, alongside the fleet-wide session histograms.
#[test]
fn metrics_text_exposes_operator_and_link_series() {
    let doc = generate(GenConfig::sized(30_000));
    let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
    run_fleet(&runtime, &doc, 6, 2);

    let text = runtime.metrics_text();
    for series in [
        "xdx_session_latency_ns_bucket",
        "xdx_queue_wait_ns_bucket",
        "xdx_planning_ns_bucket",
        "xdx_encode_ns_bucket",
        "xdx_op_wall_ns_bucket{op=\"Scan\",location=\"source\"",
        "xdx_op_wall_ns_bucket{op=\"Write\",location=\"target\"",
        "xdx_link_wire_bytes_total{link=\"site0→registry\"}",
        "xdx_link_wire_bytes_total{link=\"site1→registry\"}",
        "xdx_link_utilization{link=\"site0→registry\"}",
        "xdx_link_breaker_open{link=\"site0→registry\"}",
        "xdx_sessions_admitted_total 6",
        "xdx_sessions_completed_total 6",
    ] {
        assert!(
            text.contains(series),
            "metrics_text missing {series}:\n{text}"
        );
    }
    // Exposition-format sanity: each histogram base is typed once and
    // closes with an +Inf bucket.
    assert!(text.contains("# TYPE xdx_session_latency_ns histogram"));
    assert!(text.contains("xdx_session_latency_ns_bucket{le=\"+Inf\"} 6"));
    runtime.shutdown();
}

/// Every surviving span must reference a live parent, the root of each
/// session must be a `session` span, and every event must carry the
/// correlation id of a span in the trace (or 0 for runtime-scoped
/// events like link creation).
#[test]
fn trace_spans_are_parented_and_events_are_correlated() {
    let doc = generate(GenConfig::sized(30_000));
    let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
    run_fleet(&runtime, &doc, 4, 2);

    let trace = runtime.trace_jsonl();
    let mut ids = std::collections::HashSet::new();
    let mut roots = 0;
    for line in trace.lines() {
        ids.insert(json_u64(line, "span"));
        if json_name(line) == "session" {
            assert_eq!(
                json_u64(line, "parent"),
                0,
                "session spans are roots: {line}"
            );
            roots += 1;
        }
    }
    assert_eq!(roots, 4, "one root span per session");
    let mut seen = std::collections::HashSet::new();
    for line in trace.lines() {
        let parent = json_u64(line, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "orphaned span (parent {parent} evicted): {line}"
        );
        seen.insert(json_name(line));
    }
    for name in [
        "session", "queued", "plan", "exec", "encode", "ship", "Scan", "Write",
    ] {
        assert!(seen.contains(name), "trace has no {name:?} spans: {seen:?}");
    }

    // Events join against the trace via their span correlation id.
    let events = runtime.events_jsonl();
    assert!(!events.is_empty());
    let mut correlated = 0;
    for line in events.lines() {
        let span = json_u64(line, "span");
        if span != 0 {
            assert!(ids.contains(&span), "event cites unknown span: {line}");
            correlated += 1;
        }
    }
    assert!(correlated > 0, "no event carries a span correlation id");
    runtime.shutdown();
}

/// A runtime with tracing disabled keeps its counters but records no
/// spans.
#[test]
fn tracing_off_records_no_spans_but_keeps_counters() {
    let doc = generate(GenConfig::sized(20_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default().with_workers(2).with_tracing(false),
    );
    run_fleet(&runtime, &doc, 2, 1);
    assert!(
        runtime.trace_jsonl().is_empty(),
        "spans recorded with tracing off"
    );
    let text = runtime.metrics_text();
    assert!(text.contains("xdx_sessions_completed_total 2"));
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2);
    assert!(stats.latency_percentile(50.0).is_some());
}

/// Calibration fills its operator and communication cells under both
/// wire formats: a fleet whose routes negotiated differently reports
/// predicted-vs-observed numbers for each format it shipped in.
#[test]
fn calibration_cells_fill_under_both_wire_formats() {
    let doc = generate(GenConfig::sized(20_000));
    let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
    // `site0→registry` negotiates columnar; `site1→registry` stays on
    // the XML text every endpoint speaks.
    runtime.set_endpoint_format("registry", WireFormat::Columnar);
    runtime.set_endpoint_format("site0", WireFormat::Columnar);
    run_fleet(&runtime, &doc, 4, 2);

    let report = runtime.calibration_report();
    assert!(report.sessions_observed > 0, "no session was observed");
    for format in ["xml", "columnar"] {
        assert!(
            report.ops.iter().any(|op| op.format == format),
            "no operator cell under {format}: {:?}",
            report.ops
        );
        assert!(
            report.comm.iter().any(|c| c.format == format),
            "no communication cell under {format}: {:?}",
            report.comm
        );
    }
    runtime.shutdown();
}

/// The event log is a fixed-capacity ring: a fleet that overflows it
/// keeps only the newest window, counts what it dropped, and preserves
/// append order within the survivors.
#[test]
fn event_ring_drops_oldest_and_stays_ordered() {
    let doc = generate(GenConfig::sized(20_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_event_capacity(16),
    );
    run_fleet(&runtime, &doc, 8, 2);

    let events = runtime.events();
    assert!(
        events.len() <= 16,
        "ring exceeded capacity: {}",
        events.len()
    );
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "surviving events out of order");
    }
    // 8 sessions emit far more than 16 lifecycle events.
    let terminal = events
        .iter()
        .filter(|e| e.kind == EventKind::Completed)
        .count();
    assert!(terminal > 0, "newest window should hold the completions");
    let stats = runtime.shutdown();
    assert!(stats.dropped_events > 0, "overflow must be counted");
    assert_eq!(stats.completed, 8);
}

/// Injected statistics drift: after a healthy baseline settles, a
/// degraded link inflates observed communication time far past the
/// plan's predicted cost, and the sustained excursion evicts the
/// shape's cached plan (`PlanDriftEvicted` + re-plan on next use).
#[test]
fn sustained_cost_drift_evicts_cached_plan() {
    let schema_tree = schema();
    let doc = generate(GenConfig::sized(30_000));
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    // A slow simulated metro link (no real-time pacing) so simulated
    // communication dominates each session's observed nanoseconds, and
    // a hair-trigger calibration so the test stays fast.
    let runtime = Runtime::start(
        schema_tree.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_network(NetworkProfile {
                bandwidth_bytes_per_sec: 200_000.0,
                latency: Duration::from_millis(2),
            })
            .with_shipping(ShippingPolicy {
                chunk_bytes: 4 * 1024,
                ..ShippingPolicy::default()
            })
            .with_calibration(CalibrationConfig {
                drift_factor: 1.4,
                min_sessions: 2,
                alpha: 0.5,
            })
            .with_wire_format(WireFormat::Xml),
    );

    let submit = |i: usize| {
        let source = load_source(&doc, &schema_tree, &mf).unwrap();
        runtime
            .submit(
                ExchangeRequest::new(format!("d{i}"), source, mf.clone(), lf.clone())
                    .with_route("site", "registry"),
            )
            .unwrap()
    };

    // Healthy baseline: same shape over and over, EWMA settles.
    for i in 0..6 {
        assert_eq!(submit(i).wait().state, SessionState::Done);
    }
    assert_eq!(
        runtime.stats().plan_cache_drift_evicted,
        0,
        "healthy fleet must not drift"
    );

    // Degrade the link: 40% drops mean ~1.7x transmissions plus
    // simulated backoff, all charged to observed communication time,
    // while the plan-cache statistics hash is unchanged (same data).
    runtime.set_link_fault_profile("site", "registry", FaultProfile::drops(0.4, 42));
    for i in 6..16 {
        let result = submit(i).wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }

    let evictions = runtime.stats().plan_cache_drift_evicted;
    assert!(
        evictions >= 1,
        "sustained drift should evict the stale cached plan"
    );
    let drift_events = runtime
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::PlanDriftEvicted)
        .count();
    assert!(drift_events >= 1, "drift eviction must be logged");
    // The shape re-planned after eviction: more misses than the two
    // initial shapes would explain.
    let stats = runtime.shutdown();
    assert!(
        stats.plan_cache_misses >= 2,
        "eviction should force a re-plan (misses: {})",
        stats.plan_cache_misses
    );
    // Calibration saw both regimes.
    assert!(stats.completed == 16);
}

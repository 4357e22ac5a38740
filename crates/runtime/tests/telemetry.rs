//! Integration tests of the telemetry surface: Prometheus exposition,
//! span parenting and correlation, the bounded event ring, calibration
//! cells, the plan-cache counters of a slow link, the plans delta rounds
//! replay and the changed instances they compute.

mod common;

use common::oracle::{reference_target, wire_state};
use std::time::Duration;
use xdx_core::{Fragmentation, SystemProfile};
use xdx_net::{FaultProfile, NetworkProfile};
use xdx_runtime::{
    EventKind, ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionResult,
    SessionState, ShippingPolicy, WireFormat,
};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};
use xdx_xml::SchemaTree;

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
    json_str(line, "name")
}

/// The string following `"key":` in a JSONL line (no escapes inside).
fn json_str(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":\"");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{line}: no {key}"))
        + needle.len();
    line[start..].chars().take_while(|&c| c != '"').collect()
}

/// One span of `trace_jsonl()`: its name, session (`tid`), id, parent
/// and detail.
struct Span {
    name: String,
    session: u64,
    id: u64,
    parent: u64,
    detail: String,
}

fn parse_spans(trace: &str) -> Vec<Span> {
    trace
        .lines()
        .map(|line| Span {
            name: json_name(line),
            session: json_u64(line, "tid"),
            id: json_u64(line, "span"),
            parent: json_u64(line, "parent"),
            detail: json_str(line, "detail"),
        })
        .collect()
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

/// Every session lands each target fragment through exactly one `Write`
/// span, a child of the exec span its lane ran under — for LF→MF text,
/// whose target nodes are all source-fed `Write`s, and for MF→LF from a
/// source that cannot combine, whose writes follow target-side
/// combines; for a session of its own and for every lane of a 1→3
/// publish.
#[test]
fn every_lane_records_one_write_span_per_write_node_under_its_exec_span() {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let doc = generate(GenConfig::sized(20_000));
    let no_combine = SystemProfile {
        can_combine: false,
        ..SystemProfile::default()
    };
    for (from, to, format, profile) in [
        (&lf, &mf, WireFormat::Xml, SystemProfile::default()),
        (&mf, &lf, WireFormat::Columnar, no_combine),
    ] {
        let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
        let source = || load_source(&doc, &schema, from).unwrap();
        let sole = runtime
            .submit(
                ExchangeRequest::new("sole", source(), from.clone(), to.clone())
                    .with_wire_format(format)
                    .with_profiles(profile, SystemProfile::default()),
            )
            .unwrap();
        let subscribers = (0..3).map(|i| format!("sub-{i}")).collect();
        let publish = runtime
            .publish(
                PublishRequest::new("pub", source(), from.clone(), to.clone(), subscribers)
                    .with_wire_format(format)
                    .with_profiles(profile, SystemProfile::default()),
            )
            .unwrap();
        let mut sessions = vec![sole.id()];
        sessions.extend(publish.handles.iter().map(|h| h.id()));
        let sole = sole.wait();
        assert_eq!(sole.state, SessionState::Done, "{:?}", sole.diagnostic);
        for lane in publish.wait() {
            assert_eq!(lane.state, SessionState::Done, "{:?}", lane.diagnostic);
        }
        let spans = parse_spans(&runtime.trace_jsonl());
        let of = |id: u64, name: &'static str| {
            spans
                .iter()
                .filter(move |s| s.session == id && s.name == name)
        };
        for id in sessions {
            // A publish lane's exec span is its `lane` span's parent; a
            // session of its own records the exec span itself.
            let exec = of(id, "lane")
                .map(|s| s.parent)
                .chain(of(id, "exec").map(|s| s.id))
                .next()
                .unwrap_or_else(|| {
                    panic!("{} → {}: session {id} has no exec span", from.name, to.name)
                });
            assert!(spans.iter().any(|s| s.id == exec && s.name == "exec"));
            let writes: Vec<&Span> = of(id, "Write").collect();
            let nodes: std::collections::BTreeSet<&str> =
                writes.iter().map(|s| s.detail.as_str()).collect();
            assert_eq!(
                (writes.len(), nodes.len()),
                (to.fragments.len(), to.fragments.len()),
                "{} → {}: session {id} wrote {nodes:?}",
                from.name,
                to.name
            );
            for write in writes {
                assert_eq!(write.parent, exec, "{}: {}", write.name, write.detail);
            }
        }
        runtime.shutdown();
    }
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

/// Tracing changes no byte on the wire: frames carry rows, not span
/// ids, so a columnar MF→LF exchange, an XML LF→MF one and a columnar
/// delta round ship and encode the same bytes with tracing on and off.
#[test]
fn tracing_changes_no_byte_on_the_wire() {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let doc = generate(GenConfig::sized(20_000));
    let changed = churn(&doc, 5, 7);
    let bill = |tracing: bool| {
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(1)
                .with_tracing(tracing),
        );
        let exchanges = [
            (&doc, &mf, &lf, WireFormat::Columnar, None),
            (&doc, &lf, &mf, WireFormat::Xml, None),
            (&changed, &mf, &lf, WireFormat::Columnar, Some(1)),
        ];
        let bills: Vec<_> = exchanges
            .into_iter()
            .map(|(doc, from, to, format, base)| {
                let mut request = ExchangeRequest::new(
                    format!("{format}"),
                    load_source(doc, &schema, from).unwrap(),
                    from.clone(),
                    to.clone(),
                )
                .with_wire_format(format);
                if let Some(base) = base {
                    request = request.with_base_version(base);
                }
                let result = runtime.submit(request).unwrap().wait();
                assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
                assert_eq!(
                    result.metrics.delta_patches_applied,
                    u64::from(base.is_some())
                );
                let m = result.metrics;
                (m.bytes_shipped, m.bytes_encoded, m.delta_patch_bytes)
            })
            .collect();
        runtime.shutdown();
        bills
    };
    assert_eq!(
        bill(true),
        bill(false),
        "(bytes shipped, encoded, patch bytes)"
    );
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

/// A degraded link slows sessions down but moves no planner input: the
/// same probe, weights and profiles give the same key, so the first
/// session plans and the other fifteen, six on a healthy link and then
/// ten at 40 % drops, run its cached program.
#[test]
fn a_degraded_link_keeps_its_cached_plan() {
    let schema_tree = schema();
    let doc = generate(GenConfig::sized(30_000));
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    // A slow simulated metro link (no real-time pacing): the drops below
    // inflate each session's communication time, not its planner inputs.
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
    for i in 0..6 {
        let result = submit(i).wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
    // 40 % drops mean ~1.7x transmissions plus simulated backoff, all
    // charged to observed communication time; the data is the same.
    runtime.set_link_fault_profile("site", "registry", FaultProfile::drops(0.4, 42));
    for i in 6..16 {
        let result = submit(i).wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 16);
    assert_eq!(
        (stats.plan_cache_misses, stats.plan_cache_hits),
        (1, 15),
        "(misses, hits)"
    );
}

/// One runtime's rounds over `site → hub` routes: full ships of a
/// document and delta rounds declaring the route's head their base.
struct Rounds {
    schema: SchemaTree,
    mf: Fragmentation,
    lf: Fragmentation,
    runtime: Runtime,
}

/// What [`Rounds::ship`] saw of one session: its result and the details
/// of its `PlanCacheHit` and `DeltaSourceDiffed` events, if it had them.
struct Round {
    result: SessionResult,
    hit: Option<String>,
    source_diff: Option<String>,
}

impl Rounds {
    /// A one-worker columnar runtime.
    fn start() -> Rounds {
        let schema = schema();
        let config = RuntimeConfig::default()
            .with_workers(1)
            .with_wire_format(WireFormat::Columnar);
        Rounds {
            mf: mf(&schema),
            lf: lf(&schema),
            runtime: Runtime::start(schema.clone(), config),
            schema,
        }
    }

    /// The route's head version.
    fn head(&self, site: &str) -> u64 {
        let (mf, lf) = (&self.mf.name, &self.lf.name);
        self.runtime.feed_version(site, "hub", mf, lf)
    }

    /// Ships `doc` over `site → hub` in `format` (the link's when
    /// `None`): a full ship, or with `delta` a round based on the
    /// route's head. Asserts it completes.
    fn ship(&self, site: &str, doc: &str, delta: bool, format: Option<WireFormat>) -> Round {
        self.ship_on(site, doc, delta.then(|| self.head(site)), format)
    }

    /// [`Rounds::ship`] declaring `base`, whatever the route's head.
    fn ship_on(
        &self,
        site: &str,
        doc: &str,
        base: Option<u64>,
        format: Option<WireFormat>,
    ) -> Round {
        let source = load_source(doc, &self.schema, &self.mf).unwrap();
        let mut request = ExchangeRequest::new(site, source, self.mf.clone(), self.lf.clone())
            .with_route(site, "hub");
        if let Some(base) = base {
            request = request.with_base_version(base);
        }
        if let Some(format) = format {
            request = request.with_wire_format(format);
        }
        let handle = self.runtime.submit(request).unwrap();
        let id = handle.id();
        let result = handle.wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        let events = self.runtime.events();
        let detail = |kind| {
            let event = events.iter().find(|e| e.session == id && e.kind == kind);
            event.map(|e| e.detail.clone())
        };
        Round {
            hit: detail(EventKind::PlanCacheHit),
            source_diff: detail(EventKind::DeltaSourceDiffed),
            result,
        }
    }

    /// Calibration observations so far: operator and wire samples.
    fn observations(&self) -> u64 {
        let report = self.runtime.calibration_report();
        let ops: u64 = report.ops.iter().map(|op| op.samples).sum();
        ops + report.comm.iter().map(|c| c.samples).sum::<u64>()
    }

    /// True when the round replayed the route's plan of base `base`: no
    /// probe, and the replay arm's event says which plan.
    fn replayed(round: &Round, base: u64) -> bool {
        let m = &round.result.metrics;
        let route_plan = format!("route plan, base v{base} replayed: zero probes");
        m.plan_cache_hit && m.planning_probes == 0 && round.hit.as_deref() == Some(&route_plan)
    }

    /// What publish&map lands for `doc`.
    fn reference(&self, doc: &str) -> Vec<u8> {
        wire_state(&reference_target(doc, &self.mf, &self.lf))
    }
}

/// A delta round replays the plan its route's head was committed with:
/// after one full ship, each of seven rounds — one unchanged, six at
/// 5 % churn — replays it with zero probes and applies its patch, and
/// only the full ship probed and consulted the plan cache. Every round
/// lands what a full ship of its document lands on a fresh runtime.
#[test]
fn delta_rounds_replay_the_routes_plan() {
    let rounds = Rounds::start();
    let full_ship = |doc: &str| {
        let fresh = Rounds::start();
        let round = fresh.ship("site", doc, false, None);
        fresh.runtime.shutdown();
        wire_state(&round.result.target.unwrap())
    };
    let mut doc = generate(GenConfig::sized(20_000));
    let first = rounds.ship("site", &doc, false, None);
    assert_eq!(first.result.metrics.planning_probes, 1);
    for round in 0..7u64 {
        if round > 0 {
            doc = churn(&doc, 5, 7 + round);
        }
        let base = rounds.head("site");
        let shipped = rounds.ship("site", &doc, true, None);
        assert!(
            Rounds::replayed(&shipped, base),
            "round {round}: {:?}",
            shipped.hit
        );
        let m = &shipped.result.metrics;
        assert_eq!(
            (m.delta_patches_applied, m.delta_full_chosen),
            (1, 0),
            "round {round}"
        );
        let target = shipped.result.target.unwrap();
        assert!(wire_state(&target) == full_ship(&doc), "round {round}");
    }
    let stats = rounds.runtime.shutdown();
    assert_eq!(stats.planning_probes, 1, "the full ship's probe only");
    assert_eq!(
        (
            stats.plan_cache_hits,
            stats.plan_cache_misses,
            stats.plan_cache_stats_evicted
        ),
        (0, 1, 0),
        "(hits, misses, stats evictions): only the full ship consults the cache"
    );
}

/// A route's memory is its own: two routes of one shape ship documents
/// of 8 KB and 60 KB, and full ships of the small one, each planned and
/// cached under the shared shape, interleave with delta rounds of the
/// large one. Every delta round replays the large route's plan, whose
/// full-ship price is the large document's, and applies its patch: a
/// 30 % churn patch of the large document outweighs a full ship of the
/// small one, so the small route's plan would have shipped it whole.
#[test]
fn a_routes_delta_rounds_replay_its_own_plan_not_its_shapes() {
    let rounds = Rounds::start();
    let small = generate(GenConfig::sized(8_000));
    let mut large = generate(GenConfig::sized(60_000));
    rounds.ship("large", &large, false, None);
    for round in 0..4u64 {
        let full = rounds.ship("small", &churn(&small, 30, round), false, None);
        assert_eq!(full.result.metrics.planning_probes, 1, "round {round}");
        large = churn(&large, 30, 100 + round);
        let base = rounds.head("large");
        let delta = rounds.ship("large", &large, true, None);
        assert!(
            Rounds::replayed(&delta, base),
            "round {round}: {:?}",
            delta.hit
        );
        let m = &delta.result.metrics;
        assert_eq!(
            (m.delta_patches_applied, m.delta_full_chosen),
            (1, 0),
            "round {round}"
        );
        let target = delta.result.target.unwrap();
        assert!(
            wire_state(&target) == rounds.reference(&large),
            "round {round}"
        );
    }
    let stats = rounds.runtime.shutdown();
    assert_eq!(stats.planning_probes, 5, "the full ships' probes only");
}

/// A replayed round whose bill picks a full ship — its document replaced
/// by one ten times larger, so the patch outweighs the replayed plan's
/// full-ship price — ships whole with the plan it has, lands what
/// publish&map lands, and the route forgets the plan: the next round
/// probes once, and the one after replays again.
#[test]
fn a_replayed_round_that_ships_whole_forgets_the_routes_plan() {
    let rounds = Rounds::start();
    let doc = generate(GenConfig::sized(8_000));
    rounds.ship("site", &doc, false, None);
    let base = rounds.head("site");
    let replaced = generate(GenConfig::sized(80_000));
    let whole = rounds.ship("site", &replaced, true, None);
    assert!(Rounds::replayed(&whole, base), "{:?}", whole.hit);
    let m = &whole.result.metrics;
    assert_eq!((m.delta_patches_applied, m.delta_full_chosen), (0, 1));
    let target = whole.result.target.unwrap();
    assert!(wire_state(&target) == rounds.reference(&replaced));

    let mut doc = replaced;
    for (round, probes) in [1, 0, 0].into_iter().enumerate() {
        doc = churn(&doc, 5, round as u64);
        let base = rounds.head("site");
        let shipped = rounds.ship("site", &doc, true, None);
        let m = &shipped.result.metrics;
        assert_eq!(
            m.planning_probes, probes,
            "round {round}: {:?}",
            shipped.hit
        );
        assert_eq!(
            Rounds::replayed(&shipped, base),
            probes == 0,
            "round {round}"
        );
        assert_eq!(
            (m.delta_patches_applied, m.delta_full_chosen),
            (1, 0),
            "round {round}"
        );
        let target = shipped.result.target.unwrap();
        assert!(
            wire_state(&target) == rounds.reference(&doc),
            "round {round}"
        );
    }
}

/// A round whose negotiated wire format is not the one its route's head
/// was committed under has another plan shape: it does not replay, but
/// probes and plans for its own format, and the round after, in that
/// format, replays the plan it committed.
#[test]
fn a_round_in_another_wire_format_does_not_replay() {
    let rounds = Rounds::start();
    let mut doc = generate(GenConfig::sized(20_000));
    rounds.ship("site", &doc, false, None);
    for (round, (format, replays)) in [
        (WireFormat::Columnar, true),
        (WireFormat::Xml, false),
        (WireFormat::Xml, true),
        (WireFormat::Columnar, false),
    ]
    .into_iter()
    .enumerate()
    {
        doc = churn(&doc, 5, round as u64);
        let base = rounds.head("site");
        let shipped = rounds.ship("site", &doc, true, Some(format));
        let m = &shipped.result.metrics;
        assert_eq!(Rounds::replayed(&shipped, base), replays, "round {round}");
        assert_eq!(m.planning_probes, u32::from(!replays), "round {round}");
        assert_eq!(m.wire_format, format, "round {round}");
        assert_eq!(m.delta_patches_applied, 1, "round {round}");
        let target = shipped.result.target.unwrap();
        assert!(
            wire_state(&target) == rounds.reference(&doc),
            "round {round}"
        );
    }
}

/// `(changed rows, instances, rows read, source rows)` out of a ranged
/// round's "source diff: …" event.
fn ranged(detail: &str) -> (u64, u64, u64, u64) {
    let numbers: Vec<u64> = detail
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    assert!(detail.starts_with("source diff: "), "{detail}");
    assert_eq!(numbers.len(), 4, "{detail}");
    (numbers[0], numbers[1], numbers[2], numbers[3])
}

/// A churned round of a route that kept its last source computes only
/// what changed: the first delta round after a full ship has no source
/// to diff against and computes its head whole; it keeps its own, so
/// each later 5 % churn round diffs against it and runs the program
/// over the changed `item` instances' rows alone — a few instances, a
/// small share of the source's rows. Every round lands what a full ship
/// lands, and none of them adds a calibration observation: a patched
/// lane's operators ran in place over part of the document.
#[test]
fn a_churned_round_computes_only_the_changed_instances() {
    let rounds = Rounds::start();
    let mut doc = generate(GenConfig::sized(40_000));
    rounds.ship("site", &doc, false, None);
    let calibrated = rounds.observations();
    assert!(calibrated > 0, "the full ship calibrates");
    for round in 0..4u64 {
        doc = churn(&doc, 5, 40 + round);
        let shipped = rounds.ship("site", &doc, true, None);
        let m = &shipped.result.metrics;
        assert_eq!(m.delta_patches_applied, 1, "round {round}");
        let target = shipped.result.target.unwrap();
        assert!(
            wire_state(&target) == rounds.reference(&doc),
            "round {round}"
        );
        let Some(detail) = shipped.source_diff else {
            assert_eq!(round, 0, "only the first round has no source to diff");
            continue;
        };
        let (rows, instances, read, total) = ranged(&detail);
        assert!(rows > 0 && instances > 0 && instances <= rows, "{detail}");
        assert!(read * 5 < total, "round {round} read {detail}");
    }
    assert_eq!(
        rounds.observations(),
        calibrated,
        "delta rounds calibrate nothing"
    );
    rounds.runtime.shutdown();
}

/// A round whose document gained an `<item>` has rows no earlier source
/// had, so its source ids moved: it computes its head whole, says so, and
/// still ships the patch and lands what a full ship lands. The round
/// after it, churned again, is ranged.
#[test]
fn a_round_with_an_inserted_item_computes_its_head_whole() {
    let rounds = Rounds::start();
    let mut doc = generate(GenConfig::sized(40_000));
    rounds.ship("site", &doc, false, None);
    doc = churn(&doc, 5, 1);
    rounds.ship("site", &doc, true, None);
    let calibrated = rounds.observations();

    // After the last item, so the patch inserts one subtree and stays
    // cheaper than a full ship.
    let at = doc.rfind("<item>").expect("an item");
    let end = at + doc[at..].find("</item>").expect("a closed item") + "</item>".len();
    let item = doc[at..end].to_string();
    doc.insert_str(end, &item);
    let moved = rounds.ship("site", &doc, true, None);
    assert_eq!(
        moved.source_diff.as_deref(),
        Some("source ids moved: whole head")
    );
    assert_eq!(moved.result.metrics.delta_patches_applied, 1);
    let target = moved.result.target.unwrap();
    assert!(wire_state(&target) == rounds.reference(&doc));

    doc = churn(&doc, 5, 2);
    let next = rounds.ship("site", &doc, true, None);
    ranged(
        next.source_diff
            .as_deref()
            .expect("diffed against its source"),
    );
    let target = next.result.target.unwrap();
    assert!(wire_state(&target) == rounds.reference(&doc));
    assert_eq!(
        rounds.observations(),
        calibrated,
        "delta rounds calibrate nothing"
    );
    rounds.runtime.shutdown();
}

/// Only a round based on the head whose source the route kept diffs its
/// source: a round declaring an older, still retained base (stale: its
/// patch is then refused and it ships whole) and one whose base aged out
/// of the window (composed from step patches) compute their head whole
/// and diff nothing, and still land what a full ship lands.
#[test]
fn a_round_not_based_on_the_remembered_head_diffs_no_source() {
    let rounds = Rounds::start();
    let mut doc = generate(GenConfig::sized(20_000));
    rounds.ship("site", &doc, false, None);
    for round in 0..6u64 {
        doc = churn(&doc, 5, 60 + round);
        let shipped = rounds.ship("site", &doc, true, None);
        assert_eq!(shipped.source_diff.is_some(), round > 0, "round {round}");
    }
    let head = rounds.head("site");
    assert_eq!(head, 7);
    for (base, what) in [(head - 1, "stale"), (1, "composed")] {
        doc = churn(&doc, 5, 70 + base);
        let shipped = rounds.ship_on("site", &doc, Some(base), None);
        assert_eq!(shipped.source_diff, None, "{what}");
        let m = &shipped.result.metrics;
        assert_eq!(m.delta_chain_composed, u64::from(base == 1), "{what}");
        let target = shipped.result.target.unwrap();
        assert!(wire_state(&target) == rounds.reference(&doc), "{what}");
    }
    // The route kept the source of its new head: the next round diffs.
    doc = churn(&doc, 5, 80);
    let next = rounds.ship("site", &doc, true, None);
    ranged(next.source_diff.as_deref().expect("based on the kept head"));
    rounds.runtime.shutdown();
}

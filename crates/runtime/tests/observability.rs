//! Integration tests of the cross-site observability surface: trace
//! context propagation and stitching across a multicast publish,
//! critical-path extraction, anomaly dumps of the event log, and the
//! live introspection endpoint. (The completeness audit of the
//! exposition against `RuntimeStats`/`LinkStats` reads the series table
//! and lives beside it, in `src/stats.rs`.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use xdx_net::{BurstLoss, FaultProfile};
use xdx_runtime::{
    ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionState, ShippingPolicy, STAGES,
};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};

/// Pulls the integer following `"key":` out of a JSONL line.
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

fn run_fleet(runtime: &Runtime, doc: &str, n: usize) {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let source = load_source(doc, &schema, &mf).unwrap();
            runtime
                .submit(ExchangeRequest::new(
                    format!("t{i}"),
                    source,
                    mf.clone(),
                    lf.clone(),
                ))
                .unwrap()
        })
        .collect();
    for handle in handles {
        let result = handle.wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
}

/// Record-at-completion must not lose the spans of sessions that die
/// mid-exchange: a session failed by a dead link still flushes its
/// root `session` span (with the Failed state in the detail) and its
/// `plan` span, and the failure registers as an anomaly.
#[test]
fn failed_session_flushes_its_spans_and_counts_an_anomaly() {
    let doc = generate(GenConfig::sized(16_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 2,
                retry_budget: 2,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    // The link is dead from the start: every chunk drops, the retry
    // budget exhausts, the session fails mid-exchange.
    runtime.set_fault_profile(FaultProfile::drops(1.0, 7));
    let schema_tree = schema();
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    let result = runtime
        .submit(ExchangeRequest::new(
            "doomed",
            load_source(&doc, &schema_tree, &mf).unwrap(),
            mf,
            lf,
        ))
        .unwrap()
        .wait();
    assert_eq!(
        result.state,
        SessionState::Failed,
        "{:?}",
        result.diagnostic
    );

    let trace = runtime.trace_jsonl();
    let mut names = std::collections::HashSet::new();
    let mut failed_root = false;
    for line in trace.lines() {
        names.insert(json_name(line));
        if json_name(line) == "session" && line.contains("Failed") {
            failed_root = true;
        }
    }
    assert!(
        failed_root,
        "failed session's root span must survive: {trace}"
    );
    for name in ["queued", "plan"] {
        assert!(
            names.contains(name),
            "failed session lost its {name:?} span: {names:?}"
        );
    }
    let (anomalies, _dumps) = runtime.flight_anomalies();
    assert!(anomalies >= 1, "session failure must register an anomaly");
    runtime.shutdown();
}

/// A patched lane's `Commit` and `Index` spans time the target's own
/// commit and index — they start once the patch has landed — and there
/// is one of each: the source's head computation loads no table, so it
/// has no epilogue to report in their place.
#[test]
fn patched_lane_reports_its_own_commit_and_index() {
    let schema = schema();
    let doc = generate(GenConfig::sized(12_000));
    let (mf, lf) = (mf(&schema), lf(&schema));
    let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(1));
    run_fleet(&runtime, &doc, 1);
    let changed = load_source(&churn(&doc, 5, 7), &schema, &mf).unwrap();
    let handle = runtime
        .submit(ExchangeRequest::new("delta", changed, mf, lf).with_base_version(1))
        .unwrap();
    let session = handle.id();
    let result = handle.wait();
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    assert_eq!(result.metrics.delta_patches_applied, 1);

    let trace = runtime.trace_jsonl();
    let of_session = |name: &str| -> Vec<&str> {
        let mine = |line: &&str| json_u64(line, "tid") == session && json_name(line) == name;
        trace.lines().filter(mine).collect()
    };
    let landed = of_session("decode");
    assert_eq!(landed.len(), 1, "one patch frame: {landed:?}");
    assert!(landed[0].contains("patch v1"), "{landed:?}");
    for epilogue in ["Commit", "Index"] {
        let spans = of_session(epilogue);
        assert_eq!(spans.len(), 1, "{epilogue}: {spans:?}");
        assert!(
            json_u64(spans[0], "ts") >= json_u64(landed[0], "ts"),
            "{epilogue} ran before the patch arrived: {} / {}",
            spans[0],
            landed[0]
        );
    }
    runtime.shutdown();
}

/// The tentpole acceptance: a 1→3 multicast publish over a
/// Gilbert–Elliott bursty link produces ONE stitched trace tree — a
/// `publish-group` root whose trace id every lane session, receiver
/// `decode`/`stage` span and `settle` leaf carries, across all three
/// subscribers.
#[test]
fn multicast_publish_stitches_one_trace_across_three_subscribers() {
    let schema_tree = schema();
    let doc = generate(GenConfig::sized(20_000));
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    let runtime = Runtime::start(
        schema_tree.clone(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_shipping(ShippingPolicy {
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    // Bursty wide-area loss on every subscriber pair: retries and
    // backoff exercise the wire, but the group still completes.
    for i in 0..3 {
        runtime.set_link_fault_profile(
            xdx_runtime::DEFAULT_SOURCE_ENDPOINT,
            &format!("sub-{i}"),
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.05,
                    exit: 0.4,
                    loss: 0.7,
                }),
                seed: 11 + i,
                ..FaultProfile::healthy()
            },
        );
    }
    let results = runtime
        .publish(PublishRequest::new(
            "multicast",
            load_source(&doc, &schema_tree, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
            (0..3).map(|i| format!("sub-{i}")).collect(),
        ))
        .unwrap()
        .wait();
    assert_eq!(results.len(), 3);
    for result in &results {
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }

    // Lane handles resolve at settle; the group root records moments
    // later on the worker — poll for it.
    let mut trace = String::new();
    for _ in 0..200 {
        trace = runtime.trace_jsonl();
        if trace.contains("\"name\":\"publish-group\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Exactly one publish-group root; its span id is the trace id.
    let roots: Vec<&str> = trace
        .lines()
        .filter(|l| json_name(l) == "publish-group")
        .collect();
    assert_eq!(roots.len(), 1, "one group root: {trace}");
    let trace_id = json_u64(roots[0], "trace");
    assert_eq!(
        json_u64(roots[0], "span"),
        trace_id,
        "the group span IS the trace id"
    );
    assert_eq!(json_u64(roots[0], "parent"), 0, "the group root is a root");

    // All three lane sessions stitch under it: session roots parented
    // on the group span, carrying its trace id.
    let lane_sessions: Vec<u64> = trace
        .lines()
        .filter(|l| json_name(l) == "session" && json_u64(l, "trace") == trace_id)
        .map(|l| json_u64(l, "tid"))
        .collect();
    assert_eq!(lane_sessions.len(), 3, "three lane roots: {trace}");

    // Receiver-side stage and settle leaves on every lane, all inside
    // the same distributed trace.
    for name in ["stage", "settle"] {
        let sessions_with: std::collections::HashSet<u64> = trace
            .lines()
            .filter(|l| json_name(l) == name && json_u64(l, "trace") == trace_id)
            .map(|l| json_u64(l, "tid"))
            .collect();
        for sid in &lane_sessions {
            assert!(
                sessions_with.contains(sid),
                "lane session {sid} has no {name:?} span in trace {trace_id}: {trace}"
            );
        }
    }
    // Each shared frame decodes once — on whichever lane got it first —
    // and that decode span stitches into the group trace.
    assert!(
        trace
            .lines()
            .any(|l| json_name(l) == "decode" && json_u64(l, "trace") == trace_id),
        "no decode span stitched into trace {trace_id}: {trace}"
    );
    // Every span in the stitched tree references a live parent.
    let ids: std::collections::HashSet<u64> = trace.lines().map(|l| json_u64(l, "span")).collect();
    for line in trace.lines().filter(|l| json_u64(l, "trace") == trace_id) {
        let parent = json_u64(line, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "orphaned span in stitched trace: {line}"
        );
    }
    runtime.shutdown();
}

/// Critical-path extraction must attribute ≥95% of each completed
/// session's wall to the named stages, and the per-route rollup names
/// a dominant stage.
#[test]
fn critical_path_attributes_session_wall_to_named_stages() {
    let doc = generate(GenConfig::sized(30_000));
    let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
    run_fleet(&runtime, &doc, 4);

    let report = runtime.critical_path();
    assert_eq!(report.sessions.len(), 4);
    for s in &report.sessions {
        assert!(
            s.coverage >= 0.95,
            "session {} coverage {:.3} < 0.95 (stages {:?})",
            s.session,
            s.coverage,
            s.stage_ns
        );
        assert!(s.wall_ns > 0);
        assert!(
            STAGES.contains(&s.dominant),
            "dominant {:?} is not a named stage",
            s.dominant
        );
    }
    assert!(!report.routes.is_empty());
    for r in &report.routes {
        assert!(STAGES.contains(&r.dominant));
        assert_eq!(r.sessions, 4, "all sessions share the default route");
    }
    // The JSON export carries the same structure.
    let json = report.to_json();
    assert!(json.contains("\"sessions\":["));
    assert!(json.contains("\"coverage\":"));
    runtime.shutdown();
}

/// A fresh dump directory, leaked as the `&'static str` the config
/// takes.
fn dump_dir(name: &str) -> (std::path::PathBuf, &'static str) {
    let dir = std::env::temp_dir().join(format!("xdx-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = Box::leak(dir.to_str().unwrap().to_string().into_boxed_str());
    (dir, dir_str)
}

/// The journal lines of a dump whose `kind` is `kind`.
fn dump_lines<'a>(body: &'a str, kind: &str) -> Vec<&'a str> {
    let needle = format!("\"kind\":\"{kind}\"");
    body.lines().filter(|l| l.contains(&needle)).collect()
}

/// Killing a lane mid-exchange (every chunk drops once the session is
/// in flight) fires the session-failure anomaly and auto-dumps the
/// event log — the dump names the anomaly and holds that session's
/// retries and its failure, in the one time-ordered journal.
#[test]
fn killed_lane_dumps_flight_rings_with_its_transitions() {
    let (dir, dir_str) = dump_dir("observability");

    let doc = generate(GenConfig::sized(16_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_flight_dump_dir(dir_str)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 2,
                retry_budget: 2,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    let schema_tree = schema();
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    // Healthy warm-up proves the route works, then the lane is killed.
    let warm = runtime
        .submit(ExchangeRequest::new(
            "warm",
            load_source(&doc, &schema_tree, &mf).unwrap(),
            mf.clone(),
            lf.clone(),
        ))
        .unwrap()
        .wait();
    assert_eq!(warm.state, SessionState::Done, "{:?}", warm.diagnostic);
    runtime.set_fault_profile(FaultProfile::drops(1.0, 13));
    let killed = runtime
        .submit(ExchangeRequest::new(
            "killed",
            load_source(&doc, &schema_tree, &mf).unwrap(),
            mf,
            lf,
        ))
        .unwrap();
    let killed_id = killed.id();
    assert_eq!(killed.wait().state, SessionState::Failed);

    let (anomalies, dumps) = runtime.flight_anomalies();
    assert!(anomalies >= 1, "lane death must register an anomaly");
    assert_eq!(dumps, 1, "a dump directory is configured: must dump");
    let body = std::fs::read_to_string(dir.join("flight-0.jsonl")).unwrap();
    let first = body.lines().next().unwrap();
    assert!(
        first.starts_with("{\"anomaly\":"),
        "dump leads with the anomaly: {first}"
    );
    // The journal captured the killed session's transitions: its
    // retries, then its failure.
    let session = format!("\"session\":{killed_id},");
    let of_killed = |kind: &str| -> usize {
        dump_lines(&body, kind)
            .iter()
            .filter(|l| l.contains(&session))
            .count()
    };
    assert!(of_killed("chunk_retried") >= 1, "no retries in:\n{body}");
    assert_eq!(of_killed("failed"), 1, "no failure in:\n{body}");
    assert!(
        body.lines().last().unwrap().contains("\"kind\":\"failed\""),
        "the failure that fired the dump is its newest event:\n{body}"
    );
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A breaker flip is written once: the dump its opening fires holds
/// exactly one `circuit_opened` line, the journal's own event.
#[test]
fn breaker_open_dump_holds_one_circuit_opened_line() {
    let (dir, dir_str) = dump_dir("breaker-dump");
    let doc = generate(GenConfig::sized(16_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_breaker(1, Duration::from_secs(60))
            .with_flight_dump_dir(dir_str)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 1024,
                max_attempts_per_chunk: 2,
                retry_budget: 2,
                backoff_base: Duration::from_millis(1),
                ..ShippingPolicy::default()
            }),
    );
    runtime.set_fault_profile(FaultProfile::drops(1.0, 7));
    let schema_tree = schema();
    let mf = mf(&schema_tree);
    let lf = lf(&schema_tree);
    let tripper = runtime
        .submit(ExchangeRequest::new(
            "tripper",
            load_source(&doc, &schema_tree, &mf).unwrap(),
            mf,
            lf,
        ))
        .unwrap();
    let tripper_id = tripper.id();
    assert_eq!(tripper.wait().state, SessionState::Failed);

    // The breaker opens before the session's own failure settles, so
    // the first dump is the breaker's; the failure lands within the
    // cooldown and is counted, not dumped.
    let body = std::fs::read_to_string(dir.join("flight-0.jsonl")).unwrap();
    let first = body.lines().next().unwrap();
    assert!(
        first.starts_with("{\"anomaly\":\"breaker open on "),
        "{first}"
    );
    let opened = dump_lines(&body, "circuit_opened");
    assert_eq!(opened.len(), 1, "one line per flip:\n{body}");
    assert!(opened[0].contains(&format!("\"session\":{tripper_id},")));
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live introspection endpoint serves every observability surface
/// over plain HTTP while the runtime runs, and refuses what it should.
#[test]
fn introspection_endpoint_serves_all_routes() {
    let doc = generate(GenConfig::sized(16_000));
    let runtime = Runtime::start(
        schema(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_introspect_addr("127.0.0.1:0".parse().unwrap()),
    );
    run_fleet(&runtime, &doc, 2);
    let addr = runtime.introspect_addr().expect("endpoint enabled");

    let fetch = |path: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: xdx\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };

    let (status, health) = fetch("/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"healthy\":true"), "{health}");
    assert!(health.contains("\"open_breakers\":[]"), "{health}");
    for key in [
        "stalled_overdue_ms",
        "queue_depth",
        "flight_anomalies",
        "flight_dumps",
    ] {
        assert!(health.contains(&format!("\"{key}\":")), "{health}");
    }

    let (status, metrics) = fetch("/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("xdx_sessions_completed_total 2"),
        "{metrics}"
    );
    assert!(metrics.contains("# TYPE"), "exposition format: {metrics}");
    assert!(metrics.contains("xdx_engine_stalled 0"), "{metrics}");

    let (status, stats) = fetch("/stats.json");
    assert_eq!(status, 200);
    assert!(stats.starts_with('{'), "{stats}");
    assert!(stats.contains("\"completed\":2"), "{stats}");
    assert!(stats.contains("\"links\":["), "{stats}");
    assert!(stats.contains("\"latency_p50_ns\":"), "{stats}");

    let (status, traces) = fetch("/traces");
    assert_eq!(status, 200);
    assert!(traces.contains("\"name\":\"session\""), "{traces}");

    let (status, cp) = fetch("/critical-path");
    assert_eq!(status, 200);
    assert!(cp.contains("\"sessions\":["), "{cp}");

    let (status, calib) = fetch("/calibration");
    assert_eq!(status, 200);
    assert!(calib.starts_with('{'), "{calib}");

    let (status, events) = fetch("/events");
    assert_eq!(status, 200);
    assert!(events.contains("\"kind\":\"completed\""), "{events}");

    let (status, index) = fetch("/");
    assert_eq!(status, 200);
    for route in ["/metrics", "/events"] {
        assert!(index.contains(route), "{index}");
    }

    let (status, _) = fetch("/no-such-route");
    assert_eq!(status, 404);

    // Query strings are stripped before routing.
    let (status, _) = fetch("/healthz?verbose=1");
    assert_eq!(status, 200);

    // The endpoint dies with the runtime.
    runtime.shutdown();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        TcpStream::connect(addr).is_err(),
        "endpoint still listening after shutdown"
    );
}

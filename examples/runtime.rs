//! The exchange-session runtime end to end: a mixed-direction fleet of
//! concurrent XMark exchanges spread over four `(source, target)`
//! endpoint pairs — each pair with its own registry link, fault stream,
//! negotiated wire format and circuit breaker — with plan caching,
//! priorities, a per-request optimizer override, chunked fault-tolerant
//! shipping, and the full telemetry surface: per-session and per-link
//! metrics, a Prometheus text snapshot, the structured span trace as
//! JSONL, the event log, the critical-path report, and the cost-model
//! calibration report. After the two-site
//! fleet, a 1→3 multicast publish over Gilbert–Elliott bursty links
//! adds one stitched cross-site trace, and the example scrapes its own
//! live introspection endpoint over plain HTTP — the same surface an
//! operator's `curl` sees. The machine-readable artifacts land in
//! `telemetry/` (CI's `telemetry-smoke` job uploads them).
//!
//! ```sh
//! cargo run --release --example runtime
//! ```

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use xdx::core::Optimizer;
use xdx::net::{BurstLoss, FaultProfile};
use xdx::runtime::{
    EventKind, ExchangeRequest, Priority, PublishRequest, Runtime, RuntimeConfig, SessionState,
    ShippingPolicy, WireFormat, DEFAULT_SOURCE_ENDPOINT,
};
use xdx::xmark;

fn main() {
    let schema = xmark::schema();
    let doc = xmark::generate(xmark::GenConfig::sized(50_000));
    let mf = xmark::mf(&schema);
    let lf = xmark::lf(&schema);

    // 4 workers, 4 KB chunks, a healthy default link. Every lost chunk
    // is retried with backoff out of the session's retry budget.
    let config = RuntimeConfig::default()
        .with_workers(4)
        .with_shipping(ShippingPolicy {
            chunk_bytes: 4 * 1024,
            ..ShippingPolicy::default()
        })
        .with_introspect_addr("127.0.0.1:0".parse().unwrap());
    let runtime = Runtime::start(schema.clone(), config);

    // Four sites exchange with a central registry over four distinct
    // pairs — four independent links. Only the vienna→registry path is
    // lossy; the others never see its faults. Vienna and lisbon speak
    // the columnar codec (and so does the registry), so their links
    // negotiate columnar while tartu and oslo fall back to XML text —
    // a mixed-format fleet.
    let sites = ["vienna", "lisbon", "tartu", "oslo"];
    runtime.set_link_fault_profile("vienna", "registry", FaultProfile::drops(0.10, 2004));
    runtime.set_endpoint_format("registry", WireFormat::Columnar);
    runtime.set_endpoint_format("vienna", WireFormat::Columnar);
    runtime.set_endpoint_format("lisbon", WireFormat::Columnar);

    // Sixteen sessions, alternating MF→LF and LF→MF legs (two plan
    // shapes, each optimized once and cached), spread round-robin over
    // the sites. One is high priority; one plans under the exhaustive
    // `Optimal` optimizer instead of the fleet-default greedy.
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let (from, to) = if i % 2 == 1 { (&lf, &mf) } else { (&mf, &lf) };
            let source = xmark::load_source(&doc, &schema, from).expect("load source");
            let mut request =
                ExchangeRequest::new(format!("tenant-{i}"), source, from.clone(), to.clone())
                    .with_route(sites[i % sites.len()], "registry");
            if i == 7 {
                request = request.with_priority(Priority::High);
            }
            if i == 4 {
                request = request.with_optimizer(Optimizer::Optimal { ordering_cap: 64 });
            }
            runtime.submit(request).expect("admitted")
        })
        .collect();

    println!("session    route             state  wait ms  plan ms  cache  chunks  retried  rows");
    for handle in handles {
        let name = handle.name().to_string();
        let result = handle.wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        let m = &result.metrics;
        println!(
            "{name:<10} {:<17} {:<6} {:>7.2} {:>8.2}  {:<5} {:>7} {:>8} {:>5}",
            m.route,
            format!("{:?}", result.state),
            m.queue_wait.as_secs_f64() * 1e3,
            m.planning.as_secs_f64() * 1e3,
            if m.plan_cache_hit { "hit" } else { "miss" },
            m.chunks_shipped,
            m.chunks_retried,
            m.rows_loaded,
        );
    }

    // A 1→3 multicast publish over Gilbert–Elliott bursty subscriber
    // links: one shared encode feeds three lanes, and every lane
    // records its receiver-side decode/stage/settle spans under the
    // group's exec span, so all three subscribers stitch under a
    // single `publish-group` root — one distributed trace tree.
    for i in 0..3 {
        runtime.set_link_fault_profile(
            DEFAULT_SOURCE_ENDPOINT,
            &format!("mirror-{i}"),
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.05,
                    exit: 0.4,
                    loss: 0.7,
                }),
                seed: 41 + i,
                ..FaultProfile::healthy()
            },
        );
    }
    let lanes = runtime
        .publish(PublishRequest::new(
            "mirror",
            xmark::load_source(&doc, &schema, &mf).expect("load publish source"),
            mf.clone(),
            lf.clone(),
            (0..3).map(|i| format!("mirror-{i}")).collect(),
        ))
        .expect("publish admitted")
        .wait();
    for lane in &lanes {
        assert_eq!(lane.state, SessionState::Done, "{:?}", lane.diagnostic);
    }
    // Lane results resolve at settle; the group root records moments
    // later on the worker thread — wait for it before capturing the
    // trace, so the stitched tree in the artifact has no orphans.
    let mut trace = String::new();
    for _ in 0..200 {
        trace = runtime.trace_jsonl();
        if trace.contains("\"name\":\"publish-group\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        trace.contains("\"name\":\"publish-group\""),
        "multicast group root never recorded"
    );
    println!(
        "\nmulticast: 3 lanes settled over bursty links; stitched trace rooted at publish-group"
    );

    // The whole telemetry surface, captured while the runtime is live:
    // a Prometheus text snapshot, the span trace and event log as
    // JSONL, the critical-path report, and the predicted-vs-observed
    // calibration report.
    let metrics = runtime.metrics_text();
    let events = runtime.events_jsonl();
    let calibration = runtime.calibration_report();
    std::fs::create_dir_all("telemetry").expect("create telemetry dir");
    std::fs::write("telemetry/metrics.prom", &metrics).expect("write metrics");
    std::fs::write("telemetry/trace.jsonl", &trace).expect("write trace");
    std::fs::write("telemetry/events.jsonl", &events).expect("write events");
    std::fs::write("telemetry/calibration.json", calibration.to_json()).expect("write calibration");
    std::fs::write(
        "telemetry/critical_path.json",
        runtime.critical_path().to_json(),
    )
    .expect("write critical path");

    // Scrape the live introspection endpoint over plain HTTP — the
    // exact bytes an operator's `curl` would see — and keep the
    // replies as artifacts next to the directly-captured telemetry.
    let addr = runtime
        .introspect_addr()
        .expect("introspection endpoint enabled");
    let fetch = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect introspection endpoint");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: xdx\r\n\r\n").as_bytes())
            .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read reply");
        assert!(raw.starts_with("HTTP/1.1 200"), "{path}: {raw}");
        raw.split_once("\r\n\r\n")
            .expect("header/body split")
            .1
            .to_string()
    };
    let healthz = fetch("/healthz");
    assert!(healthz.contains("\"healthy\":true"), "{healthz}");
    std::fs::write("telemetry/introspect_healthz.json", &healthz).expect("write healthz");
    std::fs::write("telemetry/introspect_metrics.prom", fetch("/metrics"))
        .expect("write scraped metrics");
    std::fs::write("telemetry/introspect_traces.jsonl", fetch("/traces"))
        .expect("write scraped traces");
    std::fs::write("telemetry/introspect_events.jsonl", fetch("/events"))
        .expect("write scraped events");
    println!(
        "introspection: http://{addr} scraped /healthz /metrics /traces /events -> telemetry/"
    );
    println!(
        "\ntelemetry: {} metric lines, {} spans, {} events -> telemetry/",
        metrics.lines().count(),
        trace.lines().count(),
        events.lines().count(),
    );
    for line in metrics.lines().filter(|l| {
        l.starts_with("xdx_session_latency_ns") || l.starts_with("xdx_link_utilization")
    }) {
        println!("  {line}");
    }
    print!("{calibration}");

    let retries = runtime
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ChunkRetried)
        .count();
    let stats = runtime.shutdown();
    println!(
        "\ncompleted {} sessions; plan cache {} hits / {} misses; \
         {} statistics probes; {} KB on the wire, {} chunk retries ({retries} retry events)",
        stats.completed,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.planning_probes,
        stats.bytes_shipped / 1024,
        stats.chunks_retried,
    );
    println!(
        "latency p50 {:.2} ms, p99 {:.2} ms; peak concurrent shipments {}; \
         {} events / {} spans dropped\n",
        stats.latency_percentile(50.0).unwrap().as_secs_f64() * 1e3,
        stats.latency_percentile(99.0).unwrap().as_secs_f64() * 1e3,
        stats.peak_concurrent_shipments,
        stats.dropped_events,
        stats.dropped_spans,
    );

    // The per-link rollup: retries concentrate on the lossy pair, and
    // the negotiated wire format differs per pair.
    println!("link               format    wire KB  chunks  retried  done  breaker");
    for link in &stats.links {
        println!(
            "{:<18} {:<9} {:>7} {:>7} {:>8} {:>5}  {}",
            link.pair(),
            link.wire_format.name(),
            link.wire_bytes / 1024,
            link.chunks_shipped,
            link.chunks_retried,
            link.sessions_completed,
            if link.breaker_open { "open" } else { "closed" },
        );
    }
}

//! Runtime throughput: N concurrent XMark sessions through the
//! `xdx-runtime` worker pool, swept over worker counts and wire formats.
//!
//! Reports, per wire format and worker count: completed sessions/sec,
//! p50/p95/p99 submit→done latency (straight from the runtime's shared
//! HDR histogram — the bench keeps no latency vector of its own),
//! plan-cache hit rate, retry overhead on a lossy link, wire bytes and
//! encode time. Each format additionally gets a tracing-off control run
//! at 4 workers (the telemetry overhead gate) and the runtime's
//! cost-model calibration report. The machine-readable sweep lands in
//! `BENCH_PR5.json` for CI to gate on (worker scaling, columnar wire
//! bytes vs XML text, and tracing overhead). Usage:
//!
//! ```text
//! throughput [sessions] [doc_bytes] [drop_probability] [shapes] [optimizer] [pairs] [format]
//! ```
//!
//! * `shapes`: `forward` (all MF→LF) or `mixed` (alternating MF→LF and
//!   LF→MF legs — two plan shapes contending for the cache).
//! * `optimizer`: `greedy` or `optimal` / `optimal:<ordering_cap>`.
//! * `pairs`: number of `(source, target)` endpoint pairs the fleet is
//!   spread over round-robin; each pair gets its own registry link, so
//!   `pairs > 1` lets disjoint sessions ship in parallel.
//! * `format`: `xml`, `columnar`, or `both` — the fleet-wide negotiated
//!   wire format(s) to sweep.
//!
//! Defaults: 24 forward sessions of ~60 KB each, 5% drops, greedy,
//! 1 pair, both formats.
//!
//! A second mode benchmarks periodic re-synchronization:
//!
//! ```text
//! throughput resync [rounds] [doc_bytes] [churn_pct]
//! ```
//!
//! One source re-syncs one target `rounds` times; between rounds
//! `churn_pct`% of the items mutate. Each round runs twice, in separate
//! fleets over the same paced link: once shipping the full document
//! again, once as a versioned delta session (`with_base_version`)
//! shipping a Patch frame. Reports per wire format: wire bytes and
//! sessions/sec for both strategies plus the delta/full byte ratio, and
//! writes `BENCH_PR6.json` for the CI resync gate (delta wire bytes
//! ≤ 0.3× full at 5% churn, sessions/sec no worse). Defaults: 6 rounds,
//! ~60 KB docs, 5% churn.
//!
//! A third mode soaks the overload-control path:
//!
//! ```text
//! throughput soak [sessions] [overload] [tenants] [doc_bytes]
//! ```
//!
//! After a batch-barriered warmup measures fleet capacity (and warms
//! the admission estimator), the soak submits `sessions` deadline-bound
//! sessions open-loop at `overload` times that capacity, spread
//! round-robin over `tenants` weighted-fair tenants (tenant 0 carries
//! double weight). The harness samples RSS (`/proc/self/statm`) and
//! queue depth throughout and gates on: flat memory (peak ≤ 1.25×
//! the under-load baseline), load shedding actually engaging at
//! admission, accepted-session p95 within the SLO the deadlines
//! declared, completions tracking tenant weights within 2×, and exact
//! admission/completion/refusal accounting. The verdict and every raw
//! number land in `BENCH_PR7.json` for the CI soak gate. Defaults:
//! 100 000 sessions, 2.0× overload, 4 tenants, ~6 KB docs.
//!
//! A fourth mode measures 1→N multicast publish:
//!
//! ```text
//! throughput fanout [subscribers] [doc_bytes] [rounds]
//! ```
//!
//! Two experiments on a healthy LAN fleet:
//!
//! * **encode bill** — one 1→1 publish vs one 1→`subscribers` publish:
//!   the fanout group plans once per (shape, format) and encodes each
//!   batch once into a shared frame ring, so quadrupling (or
//!   octupling) the audience must not grow the encode bytes beyond
//!   1.2× the single-subscriber bill.
//! * **delivered feeds** — `rounds` rounds of `workers` concurrent
//!   publish groups vs the same routes served by independent two-site
//!   sessions at equal workers: the multicast path pays probe, plan,
//!   source phase and encode once per group instead of once per
//!   subscriber, so delivered feeds/sec must be ≥ 4× the independent
//!   fleet's.
//!
//! Everything lands in `BENCH_PR9.json`; the mode exits nonzero when a
//! gate fails. Defaults: 8 subscribers, ~60 KB docs, 4 rounds.
//!
//! A fifth mode prices the full observability surface:
//!
//! ```text
//! throughput observability [sessions] [doc_bytes] [trials]
//! ```
//!
//! The identical mixed fleet — two endpoint pairs plus a 1→3 multicast
//! publish, on an unpaced link so the CPU (and thus the instrumentation)
//! is the scarce resource — runs with span tracing + trace-context
//! propagation + the flight recorder all ON and again with all of them
//! OFF, interleaved trial by trial so machine drift hits both arms
//! equally. The medians land in `BENCH_PR10.json`; the mode exits
//! nonzero when observability costs more than 5% of sessions/sec.
//! Defaults: 32 sessions, ~40 KB docs, 5 trials.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xdx_core::Optimizer;
use xdx_net::{FaultProfile, NetworkProfile};
use xdx_runtime::{
    CalibrationReport, ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, RuntimeStats,
    SessionState, ShippingPolicy, SubmitError, WireFormat,
};
use xdx_xmark::{churn, generate, lf, load_source, mf, schema, GenConfig};

const USAGE: &str = "usage: throughput [sessions] [doc_bytes] [drop_probability] \
                     [forward|mixed] [greedy|optimal[:cap]] [pairs] [xml|columnar|both]\n   \
                     or: throughput resync [rounds] [doc_bytes] [churn_pct]\n   \
                     or: throughput soak [sessions] [overload] [tenants] [doc_bytes]\n   \
                     or: throughput fanout [subscribers] [doc_bytes] [rounds]\n   \
                     or: throughput observability [sessions] [doc_bytes] [trials]";

fn arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, name: &str, default: T) -> T {
    match args.next() {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: cannot parse {name} from {raw:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }),
    }
}

/// One worker-count sweep's numbers, destined for `BENCH_PR5.json`.
struct Sweep {
    workers: usize,
    sessions_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    wire_bytes: u64,
    bytes_encoded: u64,
    encode_ns: u64,
    peak_concurrent_shipments: u64,
    /// `(pair, wire_bytes, chunks_shipped, chunks_retried,
    /// sessions_completed, utilization)` per link, utilization being the
    /// link's share of the sweep's total wire bytes.
    links: Vec<(String, u64, u64, u64, u64, f64)>,
}

/// All worker sweeps for one fleet-wide wire format, plus the tracing
/// overhead control and the calibration report from the traced fleet.
struct FormatReport {
    format: WireFormat,
    sweeps: Vec<Sweep>,
    traced_sessions_per_sec: f64,
    untraced_sessions_per_sec: f64,
    calibration: CalibrationReport,
}

impl FormatReport {
    /// Throughput lost to telemetry at 4 workers, in percent of the
    /// tracing-off rate. Negative values mean the traced run was (by
    /// noise) faster.
    fn tracing_overhead_pct(&self) -> f64 {
        if self.untraced_sessions_per_sec <= 0.0 {
            return 0.0;
        }
        (self.untraced_sessions_per_sec - self.traced_sessions_per_sec)
            / self.untraced_sessions_per_sec
            * 100.0
    }
}

fn json_report(
    sessions: usize,
    doc_bytes: usize,
    drop_p: f64,
    shapes: &str,
    optimizer: Optimizer,
    pairs: usize,
    formats: &[FormatReport],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(out, "  \"sessions\": {sessions},");
    let _ = writeln!(out, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(out, "  \"drop_probability\": {drop_p},");
    let _ = writeln!(out, "  \"shapes\": \"{shapes}\",");
    let _ = writeln!(out, "  \"optimizer\": \"{optimizer:?}\",");
    let _ = writeln!(out, "  \"pairs\": {pairs},");
    out.push_str("  \"formats\": [\n");
    for (fi, report) in formats.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"format\": \"{}\",", report.format.name());
        out.push_str("      \"sweeps\": [\n");
        for (i, s) in report.sweeps.iter().enumerate() {
            out.push_str("        {\n");
            let _ = writeln!(out, "          \"workers\": {},", s.workers);
            let _ = writeln!(
                out,
                "          \"sessions_per_sec\": {:.3},",
                s.sessions_per_sec
            );
            let _ = writeln!(out, "          \"p50_ms\": {:.3},", s.p50_ms);
            let _ = writeln!(out, "          \"p95_ms\": {:.3},", s.p95_ms);
            let _ = writeln!(out, "          \"p99_ms\": {:.3},", s.p99_ms);
            let _ = writeln!(out, "          \"wire_bytes\": {},", s.wire_bytes);
            let _ = writeln!(out, "          \"bytes_encoded\": {},", s.bytes_encoded);
            let _ = writeln!(out, "          \"encode_ns\": {},", s.encode_ns);
            let _ = writeln!(
                out,
                "          \"peak_concurrent_shipments\": {},",
                s.peak_concurrent_shipments
            );
            out.push_str("          \"links\": [\n");
            for (j, (pair, wire, shipped, retried, completed, util)) in s.links.iter().enumerate() {
                let _ = write!(
                    out,
                    "            {{\"pair\": \"{pair}\", \"wire_bytes\": {wire}, \
                     \"chunks_shipped\": {shipped}, \"chunks_retried\": {retried}, \
                     \"sessions_completed\": {completed}, \"utilization\": {util:.4}}}"
                );
                out.push_str(if j + 1 < s.links.len() { ",\n" } else { "\n" });
            }
            out.push_str("          ]\n");
            out.push_str(if i + 1 < report.sweeps.len() {
                "        },\n"
            } else {
                "        }\n"
            });
        }
        out.push_str("      ],\n");
        out.push_str("      \"tracing_overhead\": {\n");
        let _ = writeln!(out, "        \"workers\": 4,");
        let _ = writeln!(
            out,
            "        \"traced_sessions_per_sec\": {:.3},",
            report.traced_sessions_per_sec
        );
        let _ = writeln!(
            out,
            "        \"untraced_sessions_per_sec\": {:.3},",
            report.untraced_sessions_per_sec
        );
        let _ = writeln!(
            out,
            "        \"overhead_pct\": {:.3}",
            report.tracing_overhead_pct()
        );
        out.push_str("      },\n");
        let _ = writeln!(
            out,
            "      \"calibration\": {}",
            report.calibration.to_json()
        );
        out.push_str(if fi + 1 < formats.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Everything one fleet run produces: aggregate stats, the measured
/// wall clock, and the runtime's predicted-vs-observed calibration
/// report.
struct FleetRun {
    stats: RuntimeStats,
    wall: Duration,
    calibration: CalibrationReport,
}

/// One re-sync strategy's numbers: what crossing the wire `rounds`
/// times cost after the (unmeasured) initial full ship.
struct ResyncSide {
    wire_bytes: u64,
    sessions_per_sec: f64,
    patch_bytes: u64,
    patches_applied: u64,
    full_fallbacks: u64,
}

/// Runs `round_docs[1..]` through one runtime over a paced link —
/// `round_docs[0]` is the seed document whose full first ship both
/// strategies pay identically and which stays outside the measured
/// window. With `delta` set, each round declares the version the
/// previous round left the target at, so the runtime ships Patch
/// frames; otherwise every round re-ships the full document.
fn resync_fleet(
    schema: &xdx_xml::SchemaTree,
    round_docs: &[String],
    mf: &xdx_core::Fragmentation,
    lf: &xdx_core::Fragmentation,
    format: WireFormat,
    delta: bool,
) -> ResyncSide {
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_wire_format(format)
            .with_network(NetworkProfile {
                bandwidth_bytes_per_sec: 1_000_000.0,
                latency: Duration::from_micros(500),
            })
            .with_link_pacing(1.0)
            .with_shipping(ShippingPolicy {
                chunk_bytes: 8 * 1024,
                ..ShippingPolicy::default()
            }),
    );
    let seed = runtime
        .submit(ExchangeRequest::new(
            "resync-seed",
            load_source(&round_docs[0], schema, mf).expect("load source"),
            mf.clone(),
            lf.clone(),
        ))
        .expect("queue holds the seed session")
        .wait();
    assert_eq!(seed.state, SessionState::Done, "{:?}", seed.diagnostic);
    let baseline = runtime.stats();

    // Sources are shredded outside the measured window, as in the sweep.
    let sources: Vec<_> = round_docs[1..]
        .iter()
        .map(|doc| load_source(doc, schema, mf).expect("load source"))
        .collect();
    let started = Instant::now();
    for (r, source) in sources.into_iter().enumerate() {
        let mut request =
            ExchangeRequest::new(format!("resync-r{r}"), source, mf.clone(), lf.clone());
        if delta {
            request = request.with_base_version(r as u64 + 1);
        }
        let result = runtime
            .submit(request)
            .expect("queue holds one session at a time")
            .wait();
        assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    }
    let wall = started.elapsed();
    let stats = runtime.shutdown();
    let rounds = round_docs.len() - 1;
    ResyncSide {
        wire_bytes: stats.bytes_shipped - baseline.bytes_shipped,
        sessions_per_sec: rounds as f64 / wall.as_secs_f64().max(1e-9),
        patch_bytes: stats.delta_patch_bytes,
        patches_applied: stats.delta_patches_applied,
        full_fallbacks: stats.delta_full_fallbacks,
    }
}

/// The `resync` mode: full re-ship vs delta patch sessions over the
/// same churned document sequence, per wire format, with the
/// machine-readable comparison in `BENCH_PR6.json`.
fn resync_main(mut args: impl Iterator<Item = String>) {
    let rounds: usize = arg(&mut args, "rounds", 6);
    let doc_bytes: usize = arg(&mut args, "doc_bytes", 60_000);
    let churn_pct: u32 = arg(&mut args, "churn_pct", 5);
    if rounds == 0 || churn_pct > 100 {
        eprintln!("error: rounds must be ≥ 1 and churn_pct within [0, 100]");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    // The document sequence: each round mutates churn_pct% of the
    // items of the previous round's document, so every delta session
    // diffs against exactly what its target holds.
    let mut round_docs = vec![generate(GenConfig::sized(doc_bytes))];
    for r in 0..rounds {
        round_docs.push(churn(
            round_docs.last().expect("seeded"),
            churn_pct,
            0x1CDE_2004 + r as u64,
        ));
    }

    println!(
        "# resync: {rounds} rounds, ~{} KB docs, {churn_pct}% churn between rounds",
        doc_bytes / 1024
    );

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"resync\",");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(out, "  \"churn_pct\": {churn_pct},");
    out.push_str("  \"formats\": [\n");
    let formats = [WireFormat::Xml, WireFormat::Columnar];
    for (fi, &format) in formats.iter().enumerate() {
        let full = resync_fleet(&schema, &round_docs, &mf, &lf, format, false);
        let delta = resync_fleet(&schema, &round_docs, &mf, &lf, format, true);
        let ratio = delta.wire_bytes as f64 / full.wire_bytes.max(1) as f64;
        println!(
            "## {format}: full {} B at {:.1}/s vs delta {} B at {:.1}/s — \
             {:.3}x wire bytes, {} patches applied, {} fallbacks",
            full.wire_bytes,
            full.sessions_per_sec,
            delta.wire_bytes,
            delta.sessions_per_sec,
            ratio,
            delta.patches_applied,
            delta.full_fallbacks,
        );
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"format\": \"{}\",", format.name());
        let _ = writeln!(
            out,
            "      \"full\": {{\"wire_bytes\": {}, \"sessions_per_sec\": {:.3}}},",
            full.wire_bytes, full.sessions_per_sec
        );
        let _ = writeln!(
            out,
            "      \"delta\": {{\"wire_bytes\": {}, \"sessions_per_sec\": {:.3}, \
             \"patch_bytes\": {}, \"patches_applied\": {}, \"full_fallbacks\": {}}},",
            delta.wire_bytes,
            delta.sessions_per_sec,
            delta.patch_bytes,
            delta.patches_applied,
            delta.full_fallbacks,
        );
        let _ = writeln!(out, "      \"delta_to_full_wire_ratio\": {ratio:.4}");
        out.push_str(if fi + 1 < formats.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_PR6.json", &out).expect("write BENCH_PR6.json");
    println!("# wrote BENCH_PR6.json");
}

/// Resident-set size in bytes from `/proc/self/statm` (page count ×
/// 4 KiB). Returns 0 where procfs is unavailable; the soak's memory
/// gate auto-passes there and says so in the report.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| {
            statm
                .split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<u64>().ok())
        })
        .map_or(0, |pages| pages * 4096)
}

/// The `soak` mode: sustained 2x (configurable) overload against the
/// admission controller, gating bounded memory, engaged shedding,
/// SLO-respecting accepted latency, weighted-fair tenant shares, and
/// exact accounting. Writes `BENCH_PR7.json` and exits nonzero if any
/// gate fails.
fn soak_main(mut args: impl Iterator<Item = String>) {
    let sessions: usize = arg(&mut args, "sessions", 100_000);
    let overload: f64 = arg(&mut args, "overload", 2.0);
    let tenants: usize = arg(&mut args, "tenants", 4);
    let doc_bytes: usize = arg(&mut args, "doc_bytes", 6_000);
    if sessions < 100 || overload < 1.0 || tenants == 0 {
        eprintln!("error: sessions ≥ 100, overload ≥ 1.0, tenants ≥ 1");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    const WORKERS: usize = 4;
    // Deep enough that the admission estimator's deadline check engages
    // well before the hard depth cap: the soak exercises *predictive*
    // shedding, with QueueFull as the backstop, not the primary valve.
    const QUEUE_DEPTH: usize = 512;
    const MAX_RESUMABLES: usize = 64;

    let schema = schema();
    let doc = generate(GenConfig::sized(doc_bytes));
    let mf = mf(&schema);
    let lf = lf(&schema);
    // One shredded source, cloned per submission: the soak loads the
    // runtime's scheduling and shedding, not the shredder.
    let source_db = load_source(&doc, &schema, &mf).expect("load source");

    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(WORKERS)
            .with_max_queue_depth(QUEUE_DEPTH)
            .with_max_resumables(MAX_RESUMABLES)
            .with_tracing(false)
            .with_event_capacity(4096),
    );
    // Tenant 0 carries double weight; the fairness gate checks that
    // completions track the declared shares under sustained overload.
    for t in 0..tenants {
        runtime.set_tenant_weight(&format!("tenant-{t}"), if t == 0 { 2.0 } else { 1.0 });
    }
    let request = |name: String, t: usize| {
        ExchangeRequest::new(name, source_db.clone(), mf.clone(), lf.clone())
            .with_route(format!("t{t}"), "hub")
            .with_tenant(format!("tenant-{t}"))
    };

    // Warmup: batch-barriered waves that never overflow the queue
    // measure the fleet's capacity and warm the admission estimator.
    let warmup = sessions.div_ceil(10).clamp(64, 2_000);
    let warm_started = Instant::now();
    let mut submitted_warm = 0usize;
    while submitted_warm < warmup {
        let batch = (warmup - submitted_warm).min(16);
        let handles: Vec<_> = (0..batch)
            .map(|i| {
                let n = submitted_warm + i;
                runtime
                    .submit(request(format!("warm-{n}"), n % tenants))
                    .expect("warmup batches never overflow the queue")
            })
            .collect();
        for handle in handles {
            let result = handle.wait();
            assert_eq!(
                result.state,
                SessionState::Done,
                "warmup session failed: {:?}",
                result.diagnostic
            );
        }
        submitted_warm += batch;
    }
    let capacity = warmup as f64 / warm_started.elapsed().as_secs_f64().max(1e-9);
    let mean_service = Duration::from_secs_f64(WORKERS as f64 / capacity.max(1e-9));
    // The SLO every soak session declares as its deadline: 6x the mean
    // service time, floored so scheduler jitter on fast machines cannot
    // make the deadline itself the noise source.
    let slo = (mean_service * 6)
        .max(Duration::from_millis(20))
        .min(Duration::from_secs(1));
    let warm_stats = runtime.stats();

    println!(
        "# soak: {sessions} sessions at {overload:.1}x of {capacity:.0}/s capacity, \
         {tenants} tenants, ~{} KB docs, SLO {slo:?}",
        doc_bytes / 1024,
    );

    // The reaper drains completions concurrently so the submit loop
    // stays open-loop; it keeps no per-session state.
    let (tx, rx) = std::sync::mpsc::channel();
    let reaper = std::thread::spawn(move || {
        let mut done = 0u64;
        let mut failed = 0u64;
        while let Ok(handle) = rx.recv() {
            let handle: xdx_runtime::SessionHandle = handle;
            match handle.wait().state {
                SessionState::Done => done += 1,
                _ => failed += 1,
            }
        }
        (done, failed)
    });

    let rate = overload * capacity;
    let mut rejected_full = 0u64;
    let mut refused_deadline = 0u64;
    let mut rss_baseline = 0u64;
    let mut rss_peak = 0u64;
    let mut depth_peak = 0usize;
    // RSS baseline is taken *under load* (20% in), once queues, ledger
    // shards, the latency window and the resumable cap have reached
    // their working set; the gate is that the rest of the soak adds
    // nothing beyond 1.25x of it.
    let baseline_at = sessions / 5;
    let started = Instant::now();
    for i in 0..sessions {
        let due = Duration::from_secs_f64(i as f64 / rate);
        let elapsed = started.elapsed();
        if due > elapsed + Duration::from_millis(1) {
            std::thread::sleep(due - elapsed);
        }
        match runtime.submit(request(format!("soak-{i}"), i % tenants).with_deadline(slo)) {
            Ok(handle) => tx.send(handle).expect("reaper alive"),
            Err(SubmitError::QueueFull { .. }) => rejected_full += 1,
            Err(SubmitError::DeadlineUnattainable { .. }) => refused_deadline += 1,
            Err(other) => panic!("unexpected refusal on a healthy fleet: {other}"),
        }
        if i % 512 == 0 || i + 1 == sessions {
            depth_peak = depth_peak.max(runtime.stats().queue_depth);
            let rss = rss_bytes();
            if i >= baseline_at {
                if rss_baseline == 0 {
                    rss_baseline = rss;
                }
                rss_peak = rss_peak.max(rss);
            }
        }
    }
    let submit_wall = started.elapsed();
    drop(tx);
    let (done, failed_waited) = reaper.join().expect("reaper thread");
    rss_peak = rss_peak.max(rss_bytes());
    let stats = runtime.shutdown();

    let p50 = stats.latency_percentile(50.0).unwrap_or_default();
    let p95 = stats.latency_percentile(95.0).unwrap_or_default();
    let p99 = stats.latency_percentile(99.0).unwrap_or_default();
    let main_shed_deadline = stats.sessions_shed_deadline - warm_stats.sessions_shed_deadline;

    // Per-tenant completions attributable to the overloaded phase.
    let tenant_rows: Vec<(String, f64, u64, u64, u64)> = stats
        .tenants
        .iter()
        .map(|t| {
            let warm_completed = warm_stats
                .tenants
                .iter()
                .find(|w| w.tenant == t.tenant)
                .map_or(0, |w| w.completed);
            (
                t.tenant.clone(),
                t.weight,
                t.admitted,
                t.completed - warm_completed,
                t.shed,
            )
        })
        .collect();
    let total_weight: f64 = tenant_rows.iter().map(|r| r.1).sum();
    let total_main_completed: u64 = tenant_rows.iter().map(|r| r.3).sum();

    // The gates. Every raw number they derive from is in the JSON, so
    // CI can re-derive or tighten them without re-running the soak.
    let rss_flat = rss_baseline == 0 || (rss_peak as f64) <= 1.25 * rss_baseline as f64;
    let shed_at_admission = refused_deadline > 0;
    // A completed session can overshoot its deadline by at most about
    // one service time: anything already expired is shed at dequeue, so
    // the worst accepted case is admitted a hair under the SLO and then
    // pays its service. The limit states exactly that.
    let p95_limit = 1.05 * slo.as_secs_f64() + mean_service.as_secs_f64();
    let p95_within_slo = p95.as_secs_f64() <= p95_limit;
    let mut fair_shares = true;
    if total_main_completed >= 100 {
        for (tenant, weight, _, completed, _) in &tenant_rows {
            let share = *completed as f64 / total_main_completed as f64;
            let fair = weight / total_weight;
            if share < fair / 2.0 || share > fair * 2.0 {
                eprintln!(
                    "gate: tenant {tenant} completed share {share:.3} outside \
                     2x of fair share {fair:.3}"
                );
                fair_shares = false;
            }
        }
    }
    let bounded_queue = depth_peak <= QUEUE_DEPTH;
    // Exact accounting: every submission is admitted or refused, every
    // admission completes or fails, and the runtime's own counters say
    // the same thing the harness observed.
    let accounting = sessions as u64 == done + failed_waited + rejected_full + refused_deadline
        && stats.completed == warmup as u64 + done
        && stats.rejected == rejected_full + refused_deadline
        && refused_deadline == main_shed_deadline;
    let pass = rss_flat
        && shed_at_admission
        && p95_within_slo
        && fair_shares
        && bounded_queue
        && accounting;

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"soak\",");
    let _ = writeln!(out, "  \"sessions\": {sessions},");
    let _ = writeln!(out, "  \"overload\": {overload},");
    let _ = writeln!(out, "  \"tenants\": {tenants},");
    let _ = writeln!(out, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(out, "  \"max_queue_depth\": {QUEUE_DEPTH},");
    let _ = writeln!(out, "  \"max_resumables\": {MAX_RESUMABLES},");
    let _ = writeln!(out, "  \"warmup_sessions\": {warmup},");
    let _ = writeln!(out, "  \"capacity_per_sec\": {capacity:.3},");
    let _ = writeln!(out, "  \"slo_ms\": {:.3},", slo.as_secs_f64() * 1e3);
    let _ = writeln!(out, "  \"p95_limit_ms\": {:.3},", p95_limit * 1e3);
    let _ = writeln!(
        out,
        "  \"submit_wall_secs\": {:.3},",
        submit_wall.as_secs_f64()
    );
    let _ = writeln!(out, "  \"accepted\": {},", done + failed_waited);
    let _ = writeln!(out, "  \"completed\": {done},");
    let _ = writeln!(out, "  \"failed\": {failed_waited},");
    let _ = writeln!(out, "  \"rejected_queue_full\": {rejected_full},");
    let _ = writeln!(out, "  \"refused_deadline\": {refused_deadline},");
    let _ = writeln!(out, "  \"shed_expired\": {},", stats.sessions_shed_expired);
    let _ = writeln!(out, "  \"shed_breaker\": {},", stats.sessions_shed_breaker);
    let _ = writeln!(
        out,
        "  \"resumables_evicted\": {},",
        stats.resumables_evicted
    );
    let _ = writeln!(
        out,
        "  \"ledger_buffers_shed\": {},",
        stats.ledger_buffers_shed
    );
    let _ = writeln!(out, "  \"p50_ms\": {:.3},", p50.as_secs_f64() * 1e3);
    let _ = writeln!(out, "  \"p95_ms\": {:.3},", p95.as_secs_f64() * 1e3);
    let _ = writeln!(out, "  \"p99_ms\": {:.3},", p99.as_secs_f64() * 1e3);
    let _ = writeln!(out, "  \"rss_baseline_bytes\": {rss_baseline},");
    let _ = writeln!(out, "  \"rss_peak_bytes\": {rss_peak},");
    let _ = writeln!(
        out,
        "  \"rss_growth\": {:.4},",
        if rss_baseline == 0 {
            1.0
        } else {
            rss_peak as f64 / rss_baseline as f64
        }
    );
    let _ = writeln!(out, "  \"queue_depth_peak\": {depth_peak},");
    out.push_str("  \"tenant_stats\": [\n");
    for (i, (tenant, weight, admitted, completed, shed)) in tenant_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"tenant\": \"{tenant}\", \"weight\": {weight}, \"admitted\": {admitted}, \
             \"completed_overloaded\": {completed}, \"shed\": {shed}}}"
        );
        out.push_str(if i + 1 < tenant_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"gates\": {\n");
    let _ = writeln!(out, "    \"rss_flat\": {rss_flat},");
    let _ = writeln!(out, "    \"shed_at_admission\": {shed_at_admission},");
    let _ = writeln!(out, "    \"p95_within_slo\": {p95_within_slo},");
    let _ = writeln!(out, "    \"fair_shares\": {fair_shares},");
    let _ = writeln!(out, "    \"bounded_queue\": {bounded_queue},");
    let _ = writeln!(out, "    \"accounting\": {accounting}");
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"pass\": {pass}");
    out.push_str("}\n");
    std::fs::write("BENCH_PR7.json", &out).expect("write BENCH_PR7.json");

    println!(
        "# accepted {} ({done} done, {failed_waited} failed), refused {} \
         (deadline {refused_deadline}, queue-full {rejected_full})",
        done + failed_waited,
        rejected_full + refused_deadline,
    );
    println!(
        "# accepted latency p50/p95/p99: {:.1}/{:.1}/{:.1} ms against a {:.1} ms SLO",
        p50.as_secs_f64() * 1e3,
        p95.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        slo.as_secs_f64() * 1e3,
    );
    println!(
        "# rss {:.1} -> {:.1} MB ({:.3}x), queue depth peak {depth_peak}/{QUEUE_DEPTH}",
        rss_baseline as f64 / 1e6,
        rss_peak as f64 / 1e6,
        if rss_baseline == 0 {
            1.0
        } else {
            rss_peak as f64 / rss_baseline as f64
        },
    );
    println!("# wrote BENCH_PR7.json (pass: {pass})");
    if !pass {
        eprintln!("error: soak gates failed — see BENCH_PR7.json");
        std::process::exit(1);
    }
}

/// LAN profile for the fanout mode — [`NetworkProfile::lan`] spelled
/// as a const: fast enough that the CPU work the multicast path
/// amortizes (probe, plan, source phase, encode) is the scarce
/// resource rather than the wire.
const FANOUT_LAN: NetworkProfile = NetworkProfile {
    bandwidth_bytes_per_sec: 100_000_000.0,
    latency: Duration::from_micros(200),
};

/// One 1→`fanout` publish on a fresh single-worker fleet; returns the
/// fleet's aggregate stats (encode bytes, shared-frame reuses, ...).
fn one_publish(
    schema: &xdx_xml::SchemaTree,
    source_db: &xdx_relational::Database,
    mf: &xdx_core::Fragmentation,
    lf: &xdx_core::Fragmentation,
    fanout: usize,
) -> RuntimeStats {
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(1)
            .with_network(FANOUT_LAN),
    );
    let results = runtime
        .publish(PublishRequest::new(
            "encode-bill",
            source_db.clone(),
            mf.clone(),
            lf.clone(),
            (0..fanout).map(|i| format!("sub-{i}")).collect(),
        ))
        .expect("publish admitted")
        .wait();
    for result in &results {
        assert_eq!(
            result.state,
            SessionState::Done,
            "publish lane failed on a healthy link: {:?}",
            result.diagnostic
        );
    }
    runtime.shutdown()
}

/// `rounds` rounds of `groups` concurrent 1→`fanout` publishes (each
/// group on its own endpoint routes) on one fleet; returns delivered
/// feeds/sec and the fleet stats.
#[allow(clippy::too_many_arguments)]
fn publish_fleet(
    schema: &xdx_xml::SchemaTree,
    source_db: &xdx_relational::Database,
    mf: &xdx_core::Fragmentation,
    lf: &xdx_core::Fragmentation,
    workers: usize,
    groups: usize,
    fanout: usize,
    rounds: usize,
) -> (f64, RuntimeStats) {
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(workers)
            .with_network(FANOUT_LAN),
    );
    let start = Instant::now();
    for round in 0..rounds {
        let handles: Vec<_> = (0..groups)
            .map(|g| {
                runtime
                    .publish(
                        PublishRequest::new(
                            format!("pub-r{round}-g{g}"),
                            source_db.clone(),
                            mf.clone(),
                            lf.clone(),
                            (0..fanout).map(|i| format!("g{g}-sub-{i}")).collect(),
                        )
                        .with_source_endpoint(format!("origin-{g}")),
                    )
                    .expect("publish admitted")
            })
            .collect();
        for handle in handles {
            for result in handle.wait() {
                assert_eq!(
                    result.state,
                    SessionState::Done,
                    "publish lane failed on a healthy link: {:?}",
                    result.diagnostic
                );
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let feeds = (rounds * groups * fanout) as f64;
    (feeds / wall.max(1e-9), runtime.shutdown())
}

/// The same routes served the pre-multicast way: every (group,
/// subscriber) pair is an independent two-site session re-probing,
/// re-planning, re-executing and re-encoding the same source. Equal
/// workers, equal links, equal bytes on the wire.
#[allow(clippy::too_many_arguments)]
fn independent_fleet(
    schema: &xdx_xml::SchemaTree,
    source_db: &xdx_relational::Database,
    mf: &xdx_core::Fragmentation,
    lf: &xdx_core::Fragmentation,
    workers: usize,
    groups: usize,
    fanout: usize,
    rounds: usize,
) -> (f64, RuntimeStats) {
    let runtime = Runtime::start(
        schema.clone(),
        RuntimeConfig::default()
            .with_workers(workers)
            .with_network(FANOUT_LAN),
    );
    let start = Instant::now();
    for round in 0..rounds {
        let handles: Vec<_> = (0..groups)
            .flat_map(|g| (0..fanout).map(move |i| (g, i)))
            .map(|(g, i)| {
                runtime
                    .submit(
                        ExchangeRequest::new(
                            format!("ind-r{round}-g{g}-s{i}"),
                            source_db.clone(),
                            mf.clone(),
                            lf.clone(),
                        )
                        .with_route(format!("origin-{g}"), format!("g{g}-sub-{i}")),
                    )
                    .expect("session admitted")
            })
            .collect();
        for handle in handles {
            let result = handle.wait();
            assert_eq!(
                result.state,
                SessionState::Done,
                "independent session failed on a healthy link: {:?}",
                result.diagnostic
            );
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let feeds = (rounds * groups * fanout) as f64;
    (feeds / wall.max(1e-9), runtime.shutdown())
}

/// The `fanout` mode: multicast encode bill and delivered-feeds
/// throughput vs independent sessions. Writes `BENCH_PR9.json` and
/// exits nonzero if a gate fails.
fn fanout_main(mut args: impl Iterator<Item = String>) {
    let fanout: usize = arg(&mut args, "subscribers", 8);
    let doc_bytes: usize = arg(&mut args, "doc_bytes", 60_000);
    let rounds: usize = arg(&mut args, "rounds", 4);
    if fanout < 2 || rounds == 0 {
        eprintln!("error: subscribers ≥ 2, rounds ≥ 1");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let workers = 2;
    let groups = workers;

    let schema = schema();
    let doc = generate(GenConfig::sized(doc_bytes));
    let mf = mf(&schema);
    let lf = lf(&schema);
    let source_db = load_source(&doc, &schema, &mf).expect("load source");

    println!(
        "# fanout: 1→{fanout} multicast of ~{} KB docs, {rounds} rounds of {groups} \
         groups at {workers} workers",
        doc_bytes / 1024,
    );

    // -- Encode bill: 1→1 vs 1→fanout, one publish each. --
    let single = one_publish(&schema, &source_db, &mf, &lf, 1);
    let multi = one_publish(&schema, &source_db, &mf, &lf, fanout);
    let encode_ratio = multi.bytes_encoded as f64 / single.bytes_encoded.max(1) as f64;
    println!(
        "# encode bill: 1→1 {} bytes vs 1→{fanout} {} bytes ({encode_ratio:.3}x), \
         {} shared-frame reuses, {} ring fallbacks",
        single.bytes_encoded,
        multi.bytes_encoded,
        multi.multicast_encode_shared,
        multi.multicast_encode_fallback,
    );

    // -- Delivered feeds: publish groups vs independent sessions. --
    let (publish_fps, publish_stats) = (0..2)
        .map(|_| {
            publish_fleet(
                &schema, &source_db, &mf, &lf, workers, groups, fanout, rounds,
            )
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("two trials");
    let (indep_fps, indep_stats) = (0..2)
        .map(|_| {
            independent_fleet(
                &schema, &source_db, &mf, &lf, workers, groups, fanout, rounds,
            )
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("two trials");
    let feeds_win = publish_fps / indep_fps.max(1e-9);
    println!(
        "# delivered feeds: multicast {publish_fps:.1}/s vs independent {indep_fps:.1}/s \
         ({feeds_win:.2}x) — encodes {} vs {}",
        publish_stats.messages_serialized, indep_stats.messages_serialized,
    );

    let encode_gate = encode_ratio <= 1.2;
    let sharing_gate = multi.multicast_encode_shared > 0 && multi.multicast_encode_fallback == 0;
    let feeds_gate = feeds_win >= 4.0;
    let pass = encode_gate && sharing_gate && feeds_gate;

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fanout\",");
    let _ = writeln!(out, "  \"subscribers\": {fanout},");
    let _ = writeln!(out, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"workers\": {workers},");
    let _ = writeln!(out, "  \"groups_per_round\": {groups},");
    let _ = writeln!(
        out,
        "  \"lan_bandwidth_bytes_per_sec\": {},",
        FANOUT_LAN.bandwidth_bytes_per_sec
    );
    out.push_str("  \"encode_bill\": {\n");
    let _ = writeln!(
        out,
        "    \"single_bytes_encoded\": {},",
        single.bytes_encoded
    );
    let _ = writeln!(
        out,
        "    \"fanout_bytes_encoded\": {},",
        multi.bytes_encoded
    );
    let _ = writeln!(
        out,
        "    \"single_messages_serialized\": {},",
        single.messages_serialized
    );
    let _ = writeln!(
        out,
        "    \"fanout_messages_serialized\": {},",
        multi.messages_serialized
    );
    let _ = writeln!(
        out,
        "    \"shared_frame_reuses\": {},",
        multi.multicast_encode_shared
    );
    let _ = writeln!(
        out,
        "    \"ring_fallbacks\": {},",
        multi.multicast_encode_fallback
    );
    let _ = writeln!(out, "    \"ratio\": {encode_ratio:.4}");
    out.push_str("  },\n");
    out.push_str("  \"delivered_feeds\": {\n");
    let _ = writeln!(out, "    \"multicast_feeds_per_sec\": {publish_fps:.3},");
    let _ = writeln!(out, "    \"independent_feeds_per_sec\": {indep_fps:.3},");
    let _ = writeln!(
        out,
        "    \"multicast_messages_serialized\": {},",
        publish_stats.messages_serialized
    );
    let _ = writeln!(
        out,
        "    \"independent_messages_serialized\": {},",
        indep_stats.messages_serialized
    );
    let _ = writeln!(
        out,
        "    \"multicast_fanout_subscribers\": {},",
        publish_stats.fanout_subscribers
    );
    let _ = writeln!(out, "    \"win\": {feeds_win:.4}");
    out.push_str("  },\n");
    out.push_str("  \"gates\": {\n");
    let _ = writeln!(out, "    \"encode_bytes_within_1p2x\": {encode_gate},");
    let _ = writeln!(out, "    \"frames_shared_no_fallback\": {sharing_gate},");
    let _ = writeln!(out, "    \"delivered_feeds_4x\": {feeds_gate}");
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"pass\": {pass}");
    out.push_str("}\n");
    std::fs::write("BENCH_PR9.json", &out).expect("write BENCH_PR9.json");

    println!("# wrote BENCH_PR9.json (pass: {pass})");
    if !pass {
        eprintln!("error: fanout gates failed — see BENCH_PR9.json");
        std::process::exit(1);
    }
}

/// The `observability` mode: what the whole telemetry surface — span
/// tracing, trace-context propagation in the shipped frames, and the
/// flight-recorder rings — costs in sessions/sec. The same mixed fleet
/// (two endpoint pairs plus a 1→3 multicast publish) runs on an
/// unpaced link with everything ON and everything OFF, interleaved
/// trial by trial so machine drift lands on both arms equally; the
/// medians and the overhead verdict go to `BENCH_PR10.json`, and the
/// mode exits nonzero when the cost exceeds 5%.
fn observability_main(mut args: impl Iterator<Item = String>) {
    let sessions: usize = arg(&mut args, "sessions", 32);
    let doc_bytes: usize = arg(&mut args, "doc_bytes", 40_000);
    let trials: usize = arg(&mut args, "trials", 5);
    if sessions == 0 || trials == 0 {
        eprintln!("error: sessions and trials must be ≥ 1");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let schema = schema();
    let doc = generate(GenConfig::sized(doc_bytes));
    let mf = mf(&schema);
    let lf = lf(&schema);

    // One fleet run: `sessions` mixed-direction exchanges round-robin
    // over two disjoint pairs, concurrent with one 1→3 multicast
    // publish (shared frames, so the context-stamped encode path and
    // the lane ring both get exercised). Sources are shredded outside
    // the measured window; the unpaced link keeps the CPU — and thus
    // the instrumentation — the scarce resource.
    let run_fleet = |observability: bool| -> f64 {
        let legs: Vec<_> = (0..sessions)
            .map(|i| {
                let (from, to) = if i % 2 == 1 { (&lf, &mf) } else { (&mf, &lf) };
                let source = load_source(&doc, &schema, from).expect("load source");
                (source, from.clone(), to.clone(), i % 2)
            })
            .collect();
        let publish_source = load_source(&doc, &schema, &mf).expect("load source");
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(4)
                .with_max_queue_depth(sessions + 4)
                .with_tracing(observability)
                .with_flight_recorder(observability)
                .with_shipping(ShippingPolicy {
                    chunk_bytes: 8 * 1024,
                    ..ShippingPolicy::default()
                }),
        );
        let started = Instant::now();
        let publish = runtime
            .publish(PublishRequest::new(
                "obs-publish",
                publish_source,
                mf.clone(),
                lf.clone(),
                (0..3).map(|i| format!("obs-sub-{i}")).collect(),
            ))
            .expect("publish admitted");
        let handles: Vec<_> = legs
            .into_iter()
            .enumerate()
            .map(|(i, (source, from, to, pair))| {
                runtime
                    .submit(
                        ExchangeRequest::new(format!("obs-{i}"), source, from, to)
                            .with_route(format!("src{pair}"), format!("dst{pair}")),
                    )
                    .expect("queue sized to hold every session")
            })
            .collect();
        for result in publish.wait() {
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
        for handle in handles {
            let result = handle.wait();
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
        let wall = started.elapsed();
        let stats = runtime.shutdown();
        stats.sessions_per_sec(wall)
    };

    println!(
        "# observability overhead: {sessions} mixed sessions + 1→3 publish, \
         ~{} KB docs, {trials} interleaved trials",
        doc_bytes / 1024,
    );
    // Warm-up run (untimed): page in the binary, the allocator and the
    // generated document before either arm is measured.
    run_fleet(false);

    let mut on = Vec::new();
    let mut off = Vec::new();
    for trial in 0..trials {
        on.push(run_fleet(true));
        off.push(run_fleet(false));
        println!(
            "# trial {trial}: on {:.1} vs off {:.1} sessions/s",
            on[trial], off[trial],
        );
    }
    let median = |xs: &[f64]| -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        sorted[sorted.len() / 2]
    };
    let on_median = median(&on);
    let off_median = median(&off);
    let overhead_pct = if off_median > 0.0 {
        (off_median - on_median) / off_median * 100.0
    } else {
        0.0
    };
    let pass = overhead_pct <= 5.0;
    println!(
        "# median: on {on_median:.1} vs off {off_median:.1} sessions/s \
         ({overhead_pct:+.2}% overhead, gate ≤ 5%)"
    );

    let fmt_rates = |xs: &[f64]| {
        xs.iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"observability_overhead\",");
    let _ = writeln!(out, "  \"sessions\": {sessions},");
    let _ = writeln!(out, "  \"doc_bytes\": {doc_bytes},");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"workers\": 4,");
    let _ = writeln!(out, "  \"subscribers\": 3,");
    let _ = writeln!(out, "  \"on\": {{");
    let _ = writeln!(out, "    \"sessions_per_sec\": {on_median:.3},");
    let _ = writeln!(out, "    \"trials\": [{}]", fmt_rates(&on));
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"off\": {{");
    let _ = writeln!(out, "    \"sessions_per_sec\": {off_median:.3},");
    let _ = writeln!(out, "    \"trials\": [{}]", fmt_rates(&off));
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(out, "  \"gates\": {{\"overhead_within_5pct\": {pass}}},");
    let _ = writeln!(out, "  \"pass\": {pass}");
    out.push_str("}\n");
    std::fs::write("BENCH_PR10.json", &out).expect("write BENCH_PR10.json");
    println!("# wrote BENCH_PR10.json (pass: {pass})");
    if !pass {
        eprintln!("error: observability overhead gate failed — see BENCH_PR10.json");
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("resync") {
        args.next();
        resync_main(args);
        return;
    }
    if args.peek().map(String::as_str) == Some("soak") {
        args.next();
        soak_main(args);
        return;
    }
    if args.peek().map(String::as_str) == Some("fanout") {
        args.next();
        fanout_main(args);
        return;
    }
    if args.peek().map(String::as_str) == Some("observability") {
        args.next();
        observability_main(args);
        return;
    }
    let sessions: usize = arg(&mut args, "sessions", 24);
    let doc_bytes: usize = arg(&mut args, "doc_bytes", 60_000);
    let drop_p: f64 = arg(&mut args, "drop_probability", 0.05);
    if !(0.0..=1.0).contains(&drop_p) {
        eprintln!("error: drop_probability {drop_p} out of [0, 1]");
        std::process::exit(2);
    }
    let shapes = args.next().unwrap_or_else(|| "forward".into());
    let mixed = match shapes.as_str() {
        "forward" => false,
        "mixed" => true,
        other => {
            eprintln!("error: unknown shapes {other:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let optimizer_arg = args.next().unwrap_or_else(|| "greedy".into());
    let optimizer = match optimizer_arg.split_once(':') {
        None if optimizer_arg == "greedy" => Optimizer::Greedy,
        None if optimizer_arg == "optimal" => Optimizer::Optimal { ordering_cap: 256 },
        Some(("optimal", cap)) => Optimizer::Optimal {
            ordering_cap: cap.parse().unwrap_or_else(|_| {
                eprintln!("error: cannot parse ordering cap from {cap:?}");
                std::process::exit(2);
            }),
        },
        _ => {
            eprintln!("error: unknown optimizer {optimizer_arg:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let pairs: usize = arg(&mut args, "pairs", 1);
    if pairs == 0 {
        eprintln!("error: pairs must be at least 1");
        std::process::exit(2);
    }
    let format_arg = args.next().unwrap_or_else(|| "both".into());
    let formats: Vec<WireFormat> = if format_arg == "both" {
        vec![WireFormat::Xml, WireFormat::Columnar]
    } else {
        match WireFormat::parse(&format_arg) {
            Some(f) => vec![f],
            None => {
                eprintln!("error: unknown format {format_arg:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    };

    let schema = schema();
    let doc = generate(GenConfig::sized(doc_bytes));
    let mf = mf(&schema);
    let lf = lf(&schema);

    println!(
        "# runtime throughput: {sessions} {} sessions, ~{} KB docs, {:.0}% drops, {:?}, {pairs} pair(s)",
        if mixed { "mixed MF⇄LF" } else { "MF→LF" },
        doc_bytes / 1024,
        drop_p * 100.0,
        optimizer,
    );

    let mut reports = Vec::new();
    for &format in &formats {
        // Run one fleet to completion. Sources are loaded outside the
        // measured window: the runtime's job is scheduling, planning
        // and shipping, not shredding. In mixed mode the odd legs run
        // the reverse LF→MF direction, and legs are spread round-robin
        // over the endpoint pairs.
        let run_fleet = |workers: usize, tracing: bool| -> FleetRun {
            let legs: Vec<_> = (0..sessions)
                .map(|i| {
                    let (from, to) = if mixed && i % 2 == 1 {
                        (&lf, &mf)
                    } else {
                        (&mf, &lf)
                    };
                    let source = load_source(&doc, &schema, from).expect("load source");
                    (source, from.clone(), to.clone(), i % pairs)
                })
                .collect();
            // A paced metro-area link: transmissions block for their
            // simulated duration, so shipping dominates and the clock
            // can see whether disjoint pairs genuinely overlap. One
            // shared pair serializes every shipment; `pairs` disjoint
            // pairs overlap up to `min(workers, pairs)` ways.
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_max_queue_depth(sessions)
                .with_optimizer(optimizer)
                .with_wire_format(format)
                .with_tracing(tracing)
                .with_network(NetworkProfile {
                    bandwidth_bytes_per_sec: 1_000_000.0,
                    latency: Duration::from_micros(500),
                })
                .with_link_pacing(1.0)
                .with_fault_profile(FaultProfile::drops(drop_p, 0x1CDE_2004))
                .with_shipping(ShippingPolicy {
                    chunk_bytes: 8 * 1024,
                    ..ShippingPolicy::default()
                });
            let runtime = Runtime::start(schema.clone(), config);

            let started = Instant::now();
            let handles: Vec<_> = legs
                .into_iter()
                .enumerate()
                .map(|(i, (source, from, to, pair))| {
                    runtime
                        .submit(
                            ExchangeRequest::new(format!("w{workers}-s{i}"), source, from, to)
                                .with_route(format!("src{pair}"), format!("dst{pair}")),
                        )
                        .expect("queue sized to hold every session")
                })
                .collect();
            let mut failed = 0usize;
            let mut first_diagnostic = None;
            for handle in handles {
                let result = handle.wait();
                if result.state != SessionState::Done {
                    failed += 1;
                    first_diagnostic = first_diagnostic.or(result.diagnostic);
                }
            }
            let wall = started.elapsed();
            let calibration = runtime.calibration_report();
            let stats = runtime.shutdown();
            if failed > 0 {
                eprintln!(
                    "warning: {failed}/{sessions} sessions did not complete ({}); \
                     rates below cover completed sessions only",
                    first_diagnostic.as_deref().unwrap_or("no diagnostic")
                );
            }
            FleetRun {
                stats,
                wall,
                calibration,
            }
        };

        println!("## wire format: {format}");
        println!(
            "{:>7} | {:>12} | {:>10} | {:>10} | {:>9} | {:>7} | {:>9} | {:>9} | {:>8}",
            "workers",
            "sessions/s",
            "p50 ms",
            "p99 ms",
            "cache hit",
            "retries",
            "peak ship",
            "wire KB",
            "enc ms"
        );
        println!("{}", "-".repeat(104));

        let mut sweeps = Vec::new();
        let mut traced_4w = 0.0;
        let mut calibration = CalibrationReport::default();
        for workers in [1, 2, 4, 8] {
            let run = run_fleet(workers, true);
            let stats = &run.stats;

            // Latency percentiles come straight from the runtime's
            // shared HDR histogram — the bench no longer keeps (or
            // sorts) a latency vector of its own.
            let p50 = stats.latency_percentile(50.0).unwrap_or_default();
            let p95 = stats.latency_percentile(95.0).unwrap_or_default();
            let p99 = stats.latency_percentile(99.0).unwrap_or_default();
            let hit_rate = stats.plan_cache_hits as f64
                / (stats.plan_cache_hits + stats.plan_cache_misses).max(1) as f64;
            println!(
                "{:>7} | {:>12.1} | {:>10.2} | {:>10.2} | {:>8.0}% | {:>7} | {:>9} | {:>9} | {:>8.2}",
                workers,
                stats.sessions_per_sec(run.wall),
                p50.as_secs_f64() * 1e3,
                p99.as_secs_f64() * 1e3,
                hit_rate * 100.0,
                stats.chunks_retried,
                stats.peak_concurrent_shipments,
                stats.bytes_shipped / 1024,
                stats.encode_ns as f64 / 1e6,
            );
            if workers == 4 {
                traced_4w = stats.sessions_per_sec(run.wall);
                calibration = run.calibration.clone();
            }
            let total_wire = stats.bytes_shipped.max(1);
            sweeps.push(Sweep {
                workers,
                sessions_per_sec: stats.sessions_per_sec(run.wall),
                p50_ms: p50.as_secs_f64() * 1e3,
                p95_ms: p95.as_secs_f64() * 1e3,
                p99_ms: p99.as_secs_f64() * 1e3,
                wire_bytes: stats.bytes_shipped,
                bytes_encoded: stats.bytes_encoded,
                encode_ns: stats.encode_ns,
                peak_concurrent_shipments: stats.peak_concurrent_shipments,
                links: stats
                    .links
                    .iter()
                    .map(|l| {
                        (
                            l.pair(),
                            l.wire_bytes,
                            l.chunks_shipped,
                            l.chunks_retried,
                            l.sessions_completed,
                            l.wire_bytes as f64 / total_wire as f64,
                        )
                    })
                    .collect(),
            });
        }

        // Tracing overhead control: the same 4-worker fleet with the
        // telemetry pipeline disabled. The gate is that spans +
        // histograms + calibration cost at most a few percent of
        // sessions/sec.
        let untraced = run_fleet(4, false);
        let report = FormatReport {
            format,
            sweeps,
            traced_sessions_per_sec: traced_4w,
            untraced_sessions_per_sec: untraced.stats.sessions_per_sec(untraced.wall),
            calibration,
        };
        println!(
            "# tracing overhead @4 workers: traced {:.1} vs untraced {:.1} sessions/s ({:+.2}%)",
            report.traced_sessions_per_sec,
            report.untraced_sessions_per_sec,
            report.tracing_overhead_pct(),
        );
        println!(
            "# calibration: {} op cells, {} comm cells, global {:.1} ns/unit over {} sessions",
            report.calibration.ops.len(),
            report.calibration.comm.len(),
            report.calibration.global_ns_per_unit,
            report.calibration.sessions_observed,
        );
        reports.push(report);
    }

    if let [xml, col] = &reports[..] {
        // Both formats swept: surface the headline compression ratio at
        // each worker count (same fleet, same seeds, same workload).
        for (x, c) in xml.sweeps.iter().zip(&col.sweeps) {
            println!(
                "# workers {}: columnar wire bytes {:.2}x of XML ({} vs {})",
                x.workers,
                c.wire_bytes as f64 / x.wire_bytes.max(1) as f64,
                c.wire_bytes,
                x.wire_bytes,
            );
        }
    }

    let report = json_report(
        sessions, doc_bytes, drop_p, &shapes, optimizer, pairs, &reports,
    );
    std::fs::write("BENCH_PR5.json", &report).expect("write BENCH_PR5.json");
    println!("# wrote BENCH_PR5.json");
}

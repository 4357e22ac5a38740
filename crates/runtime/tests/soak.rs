//! Overload survival: 10 000 deadline-bound sessions offered open-loop
//! at twice the fleet's measured capacity across four weighted-fair
//! tenants. Memory stays flat, admission sheds what cannot meet its
//! deadline, what is accepted stays inside the SLO, no tenant is starved,
//! the queue stays bounded and every submission is accounted for.
//!
//! Timed and release-only: `cargo test --release -p xdx-runtime --test soak`
//! (CI's `perf-ledger-smoke` runs it); a debug `cargo test` skips it.

use std::time::{Duration, Instant};
use xdx_runtime::{
    ExchangeRequest, Runtime, RuntimeConfig, SessionHandle, SessionState, SubmitError,
};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

const SESSIONS: usize = 10_000;
const WARMUP: usize = SESSIONS / 10;
const OVERLOAD: f64 = 2.0;
const TENANTS: usize = 4;
const WORKERS: usize = 4;
// Deep enough that the admission estimator's deadline check engages well
// before the hard depth cap: the soak exercises *predictive* shedding,
// with QueueFull as the backstop, not the primary valve.
const QUEUE_DEPTH: usize = 512;

/// Resident-set size in bytes from `/proc/self/statm` (page count ×
/// 4 KiB), or 0 where procfs is unavailable.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| statm.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed: run with --release")]
fn fleet_survives_twice_its_capacity() {
    let schema = schema();
    let doc = generate(GenConfig::sized(6_000));
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
            .with_max_resumables(64)
            .with_tracing(false)
            .with_event_capacity(4096),
    );
    // Tenant 0 carries double weight; every tenant offers the same load.
    for t in 0..TENANTS {
        runtime.set_tenant_weight(&format!("tenant-{t}"), if t == 0 { 2.0 } else { 1.0 });
    }
    let request = |name: String, t: usize| {
        ExchangeRequest::new(name, source_db.clone(), mf.clone(), lf.clone())
            .with_route(format!("t{t}"), "hub")
            .with_tenant(format!("tenant-{t}"))
    };

    // Warm-up: batch-barriered waves that never overflow the queue
    // measure the fleet's capacity and warm the admission estimator.
    let warm_started = Instant::now();
    for first in (0..WARMUP).step_by(16) {
        let handles: Vec<_> = (first..WARMUP.min(first + 16))
            .map(|n| {
                runtime
                    .submit(request(format!("warm-{n}"), n % TENANTS))
                    .expect("warm-up waves never overflow the queue")
            })
            .collect();
        for handle in handles {
            let result = handle.wait();
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
    }
    let capacity = WARMUP as f64 / warm_started.elapsed().as_secs_f64().max(1e-9);
    let mean_service = Duration::from_secs_f64(WORKERS as f64 / capacity);
    // The SLO every soak session declares as its deadline: 6× the mean
    // service time, floored so scheduler jitter on a fast machine cannot
    // make the deadline itself the noise source.
    let slo = (mean_service * 6).clamp(Duration::from_millis(20), Duration::from_secs(1));
    let warm_stats = runtime.stats();

    // The reaper drains completions concurrently so the submit loop
    // stays open-loop; it keeps no per-session state.
    let (tx, rx) = std::sync::mpsc::channel::<SessionHandle>();
    let reaper = std::thread::spawn(move || {
        let (mut done, mut failed) = (0u64, 0u64);
        for handle in rx {
            match handle.wait().state {
                SessionState::Done => done += 1,
                _ => failed += 1,
            }
        }
        (done, failed)
    });

    let rate = OVERLOAD * capacity;
    let (mut rejected_full, mut refused_deadline) = (0u64, 0u64);
    // The RSS baseline is taken *under load*: the highest sample between
    // 20% and 40% of the sessions, once queues, ledger shards and the
    // latency window have reached their working set — a floor over a warm
    // window, not whichever sample happens to land first. The peak after
    // that window may add at most a quarter to it. Most of that allowance
    // goes to the resumable map, still filling towards its cap of 64; a
    // per-session leak would blow through it.
    let (mut rss_baseline, mut rss_peak) = (0u64, 0u64);
    let mut depth_peak = 0usize;
    let started = Instant::now();
    for i in 0..SESSIONS {
        let due = Duration::from_secs_f64(i as f64 / rate);
        let elapsed = started.elapsed();
        if due > elapsed + Duration::from_millis(1) {
            std::thread::sleep(due - elapsed);
        }
        match runtime.submit(request(format!("soak-{i}"), i % TENANTS).with_deadline(slo)) {
            Ok(handle) => tx.send(handle).expect("reaper alive"),
            Err(SubmitError::QueueFull { .. }) => rejected_full += 1,
            Err(SubmitError::DeadlineUnattainable { .. }) => refused_deadline += 1,
            Err(other) => panic!("unexpected refusal on a healthy fleet: {other}"),
        }
        if i % 512 == 0 || i + 1 == SESSIONS {
            depth_peak = depth_peak.max(runtime.stats().queue_depth);
            if i >= SESSIONS * 2 / 5 {
                rss_peak = rss_peak.max(rss_bytes());
            } else if i >= SESSIONS / 5 {
                rss_baseline = rss_baseline.max(rss_bytes());
            }
        }
    }
    drop(tx);
    let (done, failed) = reaper.join().expect("reaper thread");
    rss_peak = rss_peak.max(rss_bytes());
    let stats = runtime.shutdown();

    // Completions attributable to the overloaded phase, per tenant.
    let shares: Vec<(f64, u64)> = stats
        .tenants
        .iter()
        .map(|t| {
            let warm = warm_stats.tenants.iter().find(|w| w.tenant == t.tenant);
            (t.weight, t.completed - warm.map_or(0, |w| w.completed))
        })
        .collect();
    let total_weight: f64 = shares.iter().map(|s| s.0).sum();
    let total_completed: u64 = shares.iter().map(|s| s.1).sum();
    let p95 = stats.latency_percentile(95.0).unwrap_or_default();
    // A completed session can overshoot its deadline by at most about one
    // service time: anything already expired is shed at dequeue, so the
    // worst accepted case is admitted a hair under the SLO and then pays
    // its service.
    let p95_limit = slo.mul_f64(1.05) + mean_service;
    println!(
        "soak: capacity {capacity:.0}/s, slo {slo:?}; done {done}, failed {failed}, \
         expired {expired}, refused {refused_deadline} (deadline) + {rejected_full} (queue full); \
         p95 {p95:?} vs limit {p95_limit:?}; rss {rss_baseline} -> {rss_peak} bytes; \
         queue depth peak {depth_peak}; (weight, completed) per tenant {shares:?}",
        expired = stats.sessions_shed_expired,
    );

    if rss_baseline == 0 {
        println!("soak: /proc/self/statm unavailable, memory gate passes unchecked");
    }
    assert!(
        rss_peak as f64 <= 1.25 * rss_baseline as f64,
        "RSS grew from {rss_baseline} to {rss_peak} bytes (> 1.25x) after the warm baseline"
    );
    assert!(
        refused_deadline > 0,
        "2x overload never engaged admission-time shedding \
         ({rejected_full} queue-full, {failed} failed after admission)"
    );
    assert!(
        p95 <= p95_limit,
        "accepted p95 {p95:?} over {p95_limit:?} (SLO {slo:?} + one service time)"
    );
    assert!(total_completed >= 100, "only {total_completed} completions");
    for &(weight, completed) in &shares {
        let share = completed as f64 / total_completed as f64;
        let fair = weight / total_weight;
        assert!(
            (fair / 2.0..=fair * 2.0).contains(&share),
            "a weight-{weight} tenant completed {completed} of {total_completed}: \
             share {share:.3} outside 2x of fair {fair:.3}"
        );
    }
    assert!(
        depth_peak <= QUEUE_DEPTH,
        "queue depth {depth_peak} over its bound {QUEUE_DEPTH}"
    );
    // Exact accounting: every submission is admitted or refused, every
    // admission completes or fails, and the runtime's counters agree with
    // what the harness saw.
    assert_eq!(
        SESSIONS as u64,
        done + failed + rejected_full + refused_deadline,
        "done {done} + failed {failed} + queue-full {rejected_full} + deadline {refused_deadline}"
    );
    assert_eq!(stats.completed, WARMUP as u64 + done);
    assert_eq!(stats.rejected, rejected_full + refused_deadline);
    assert_eq!(
        refused_deadline,
        stats.sessions_shed_deadline - warm_stats.sessions_shed_deadline
    );
}

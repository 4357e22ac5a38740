//! Aggregate statistics and their exports: the [`RuntimeStats`]
//! snapshot, the one table of exported series behind both its JSON form
//! and the Prometheus refresh, and the introspection endpoint's routes.
//!
//! A counter is written once per layer: a lane tallies it into its
//! [`SessionMetrics`], `RuntimeStats::fold` adds a finished session's
//! into the fleet's, and its `RUNTIME_SERIES` row names it in
//! `/stats.json` and `/metrics`. Adding one is a field, a fold line and
//! a table row.

use crate::introspect::IntrospectReply;
use crate::registry::LinkStats;
use crate::runtime::Inner;
use crate::session::SessionMetrics;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::Duration;
use xdx_core::Location;
use xdx_trace::{json_escape, HistogramSnapshot, MetricsRegistry};

/// How far the shipping engine's nearest parked deadline may run overdue
/// before the stall watchdog declares the engine wedged.
const STALL_THRESHOLD: Duration = Duration::from_millis(250);

/// Stable label for a placement location in metric names and
/// calibration cells.
pub(crate) fn location_name(loc: Location) -> &'static str {
    match loc {
        Location::Source => "source",
        Location::Target => "target",
        Location::Unassigned => "unassigned",
    }
}

/// Aggregate counters across the runtime's lifetime, with per-link
/// rollups in [`RuntimeStats::links`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Sessions admitted to the queue.
    pub admitted: u64,
    /// Submissions refused at admission.
    pub rejected: u64,
    /// Sessions that reached `Done`.
    pub completed: u64,
    /// Sessions that reached `Failed`.
    pub failed: u64,
    /// Sessions that reached `Cancelled`.
    pub cancelled: u64,
    /// Failed sessions re-admitted through [`crate::Runtime::resume`].
    pub resumed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Cached plans evicted because the probed statistics drifted.
    pub plan_cache_stats_evicted: u64,
    /// Statistics probes run across all sessions (resumed sessions
    /// replaying a checkpointed plan probe zero times).
    pub planning_probes: u64,
    /// Cross-edge messages serialized from feeds (checkpoint replays
    /// not counted).
    pub messages_serialized: u64,
    /// Wire bytes transmitted, including failed attempts.
    pub bytes_shipped: u64,
    /// Encoded message bytes produced across all sessions (logical
    /// payload before chunk framing; checkpoint replays encode nothing,
    /// so resumed sessions add zero here).
    pub bytes_encoded: u64,
    /// Wall nanoseconds spent encoding cross-edge messages.
    pub encode_ns: u64,
    /// Chunks delivered intact.
    pub chunks_shipped: u64,
    /// Chunks resumed sessions found checkpointed and did not re-ship.
    pub chunks_resumed: u64,
    /// Duplicate chunk deliveries dropped idempotently.
    pub chunks_deduped: u64,
    /// Chunk transmissions retried.
    pub chunks_retried: u64,
    /// Per-link counters, sorted by `(source, target)` pair.
    pub links: Vec<LinkStats>,
    /// Most shipment windows ever simultaneously open across all links
    /// — >1 proves disjoint pairs shipped in parallel.
    pub peak_concurrent_shipments: u64,
    /// Per-session submit→done wall latencies of completed sessions, as
    /// a log-linear histogram snapshot — mergeable across runs,
    /// quantile error ≤ 1/32.
    pub latency_histogram: HistogramSnapshot,
    /// Events evicted from the bounded event-log ring.
    pub dropped_events: u64,
    /// Spans evicted from the bounded trace ring.
    pub dropped_spans: u64,
    /// Encoded Patch-frame bytes shipped by delta sessions.
    pub delta_patch_bytes: u64,
    /// Delta patches applied transactionally at targets.
    pub delta_patches_applied: u64,
    /// Delta-eligible sessions where the cost model chose the full
    /// re-ship (the patch would have cost more than the full feeds).
    pub delta_full_chosen: u64,
    /// Delta-eligible sessions that fell back to a full re-ship for a
    /// non-cost reason (missing snapshot, diff/decode failure, stale
    /// version precondition).
    pub delta_full_fallbacks: u64,
    /// Delta-eligible sessions whose aged-out base snapshot was
    /// reconstructed by composing retained per-step patches (a subset of
    /// the sessions that would otherwise be `delta_full_fallbacks`).
    pub delta_chain_composed: u64,
    /// Subscriber lanes admitted across all 1→N publish groups.
    pub fanout_subscribers: u64,
    /// Multicast frame submissions served from an already-encoded shared
    /// buffer — each one is an encode the fan-out never ran.
    pub multicast_encode_shared: u64,
    /// Subscriber lanes dropped from the shared frame buffer (lag cap
    /// exceeded or lane failure) onto the per-subscriber
    /// re-encode/full-ship fallback.
    pub multicast_encode_fallback: u64,
    /// Acknowledged shipment buffers garbage-collected from the
    /// reassembly ledger after their session committed.
    pub ledger_entries_pruned: u64,
    /// Sessions shed at dequeue because their deadline expired while
    /// queued — failed *before* burning a planning probe.
    pub sessions_shed_expired: u64,
    /// Submissions shed at admission because the estimator found their
    /// deadline unattainable at the current load.
    pub sessions_shed_deadline: u64,
    /// Queued sessions shed because their route's circuit breaker was
    /// open (at dequeue, or drained when the breaker opened).
    pub sessions_shed_breaker: u64,
    /// Failed-session checkpoints evicted by the `max_resumables` cap.
    pub resumables_evicted: u64,
    /// Reassembly-ledger checkpoints evicted by the capacity cap.
    pub ledger_buffers_shed: u64,
    /// Sessions waiting in the admission queue at snapshot time.
    pub queue_depth: usize,
    /// Per-tenant fairness counters, sorted by tenant label.
    pub tenants: Vec<TenantStats>,
}

/// Point-in-time fairness counters of one admission tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant label (explicit tag, or the route pair).
    pub tenant: String,
    /// The weighted-fair share weight (default 1.0).
    pub weight: f64,
    /// Sessions this tenant had admitted.
    pub admitted: u64,
    /// Sessions this tenant completed.
    pub completed: u64,
    /// Sessions of this tenant that load shedding dropped (unattainable
    /// deadline, expired while queued, or breaker feedback).
    pub shed: u64,
}

/// How a series is typed: in the exposition (a flag is a 0/1 gauge)
/// and in the JSON (a flag is a boolean).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Flag,
}
use Kind::{Counter, Flag, Gauge};

/// One exported tally of a snapshot `S`: its JSON key, its Prometheus
/// series and type, and how it reads off the snapshot.
pub(crate) type Series<S> = (&'static str, &'static str, Kind, fn(&S) -> u64);

/// Sets every series of `table` (under `labels`, for a per-link table)
/// to what it reads off `from`.
fn export<S>(m: &MetricsRegistry, table: &[Series<S>], labels: &str, from: &S) {
    for &(_, name, kind, read) in table {
        let (name, value) = (format!("{name}{labels}"), read(from));
        match kind {
            Counter => m.counter(&name).set(value),
            Gauge | Flag => m.gauge(&name).set(value as f64),
        }
    }
}

/// Every numeric field of [`RuntimeStats`], once, in `/stats.json`
/// order: the one list `to_json`, the `/metrics` refresh and the
/// completeness test read.
#[rustfmt::skip]
pub(crate) const RUNTIME_SERIES: [Series<RuntimeStats>; 36] = [
    ("admitted", "xdx_sessions_admitted_total", Counter, |s| s.admitted),
    ("rejected", "xdx_sessions_rejected_total", Counter, |s| s.rejected),
    ("completed", "xdx_sessions_completed_total", Counter, |s| s.completed),
    ("failed", "xdx_sessions_failed_total", Counter, |s| s.failed),
    ("cancelled", "xdx_sessions_cancelled_total", Counter, |s| s.cancelled),
    ("resumed", "xdx_sessions_resumed_total", Counter, |s| s.resumed),
    ("sessions_shed_expired", "xdx_sessions_shed_expired_total", Counter, |s| s.sessions_shed_expired),
    ("sessions_shed_deadline", "xdx_sessions_shed_deadline_total", Counter, |s| s.sessions_shed_deadline),
    ("sessions_shed_breaker", "xdx_sessions_shed_breaker_total", Counter, |s| s.sessions_shed_breaker),
    ("resumables_evicted", "xdx_resumables_evicted_total", Counter, |s| s.resumables_evicted),
    ("ledger_buffers_shed", "xdx_ledger_buffers_shed_total", Counter, |s| s.ledger_buffers_shed),
    ("plan_cache_hits", "xdx_plan_cache_hits_total", Counter, |s| s.plan_cache_hits),
    ("plan_cache_misses", "xdx_plan_cache_misses_total", Counter, |s| s.plan_cache_misses),
    ("plan_cache_stats_evicted", "xdx_plan_cache_stats_evicted_total", Counter, |s| s.plan_cache_stats_evicted),
    ("planning_probes", "xdx_planning_probes_total", Counter, |s| s.planning_probes),
    ("messages_serialized", "xdx_messages_serialized_total", Counter, |s| s.messages_serialized),
    ("bytes_shipped", "xdx_bytes_shipped_total", Counter, |s| s.bytes_shipped),
    ("bytes_encoded", "xdx_bytes_encoded_total", Counter, |s| s.bytes_encoded),
    ("encode_ns", "xdx_encode_ns_total", Counter, |s| s.encode_ns),
    ("chunks_shipped", "xdx_chunks_shipped_total", Counter, |s| s.chunks_shipped),
    ("chunks_resumed", "xdx_chunks_resumed_total", Counter, |s| s.chunks_resumed),
    ("chunks_deduped", "xdx_chunks_deduped_total", Counter, |s| s.chunks_deduped),
    ("chunks_retried", "xdx_chunks_retried_total", Counter, |s| s.chunks_retried),
    ("peak_concurrent_shipments", "xdx_peak_concurrent_shipments", Gauge, |s| s.peak_concurrent_shipments),
    ("dropped_events", "xdx_events_dropped_total", Counter, |s| s.dropped_events),
    ("dropped_spans", "xdx_spans_dropped_total", Counter, |s| s.dropped_spans),
    ("delta_patch_bytes", "xdx_delta_patch_bytes_total", Counter, |s| s.delta_patch_bytes),
    ("delta_patches_applied", "xdx_delta_patches_applied_total", Counter, |s| s.delta_patches_applied),
    ("delta_full_chosen", "xdx_delta_full_chosen_total", Counter, |s| s.delta_full_chosen),
    ("delta_full_fallbacks", "xdx_delta_full_fallbacks_total", Counter, |s| s.delta_full_fallbacks),
    ("delta_chain_composed", "xdx_delta_chain_composed_total", Counter, |s| s.delta_chain_composed),
    ("fanout_subscribers", "xdx_fanout_subscribers", Counter, |s| s.fanout_subscribers),
    ("multicast_encode_shared", "xdx_multicast_encode_shared", Counter, |s| s.multicast_encode_shared),
    ("multicast_encode_fallback", "xdx_multicast_encode_fallback", Counter, |s| s.multicast_encode_fallback),
    ("ledger_entries_pruned", "xdx_ledger_entries_pruned_total", Counter, |s| s.ledger_entries_pruned),
    ("queue_depth", "xdx_queue_depth", Gauge, |s| s.queue_depth as u64),
];

/// Every numeric field of [`LinkStats`], the same way; each series is
/// labelled `{link="source→target"}`.
#[rustfmt::skip]
pub(crate) const LINK_SERIES: [Series<LinkStats>; 11] = [
    ("busy_ns", "xdx_link_busy_ns_total", Counter, |l| l.busy.as_nanos() as u64),
    ("wire_bytes", "xdx_link_wire_bytes_total", Counter, |l| l.wire_bytes),
    ("bytes_encoded", "xdx_link_bytes_encoded_total", Counter, |l| l.bytes_encoded),
    ("encode_ns", "xdx_link_encode_ns_total", Counter, |l| l.encode_ns),
    ("chunks_shipped", "xdx_link_chunks_shipped_total", Counter, |l| l.chunks_shipped),
    ("chunks_retried", "xdx_link_chunks_retried_total", Counter, |l| l.chunks_retried),
    ("sessions_completed", "xdx_link_sessions_completed_total", Counter, |l| l.sessions_completed),
    ("sessions_failed", "xdx_link_sessions_failed_total", Counter, |l| l.sessions_failed),
    ("sessions_shed", "xdx_link_sessions_shed_total", Counter, |l| l.sessions_shed),
    ("breaker_open", "xdx_link_breaker_open", Flag, |l| l.breaker_open as u64),
    ("peak_concurrent_shipments", "xdx_link_peak_concurrent_shipments", Gauge, |l| l.peak_concurrent_shipments),
];

impl RuntimeStats {
    /// Folds a finished session's tallies (or the encode bill a shared
    /// ring kept at group scope) into the fleet's: one line per counter
    /// the two structs share.
    pub(crate) fn fold(&mut self, m: &SessionMetrics) {
        self.planning_probes += u64::from(m.planning_probes);
        self.messages_serialized += m.messages_serialized as u64;
        self.bytes_shipped += m.bytes_shipped;
        self.bytes_encoded += m.bytes_encoded;
        self.encode_ns += m.encode_ns;
        self.chunks_shipped += m.chunks_shipped;
        self.chunks_resumed += m.chunks_resumed;
        self.chunks_deduped += m.chunks_deduped;
        self.chunks_retried += m.chunks_retried;
        self.delta_patch_bytes += m.delta_patch_bytes;
        self.delta_patches_applied += m.delta_patches_applied;
        self.delta_full_chosen += m.delta_full_chosen;
        self.delta_full_fallbacks += m.delta_full_fallbacks;
        self.delta_chain_composed += m.delta_chain_composed;
    }

    /// The `p`-th latency percentile (0–100) over completed sessions,
    /// estimated from the shared log-linear histogram (relative error
    /// ≤ 1/32).
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        self.latency_histogram
            .quantile((p / 100.0).clamp(0.0, 1.0))
            .map(Duration::from_nanos)
    }

    /// Completed sessions per second of the given wall-clock window.
    pub fn sessions_per_sec(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / wall.as_secs_f64()
    }

    /// The full counter set as one JSON object — what the introspection
    /// endpoint serves at `/stats.json`. Latencies collapse to their
    /// histogram percentiles; links and tenants nest as arrays.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push('{');
        for (key, _, _, read) in RUNTIME_SERIES {
            let _ = write!(out, "\"{key}\":{},", read(self));
        }
        for (name, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            let ns = self
                .latency_percentile(p)
                .map_or(0, |d| d.as_nanos() as u64);
            out.push_str(&format!("\"latency_{name}_ns\":{ns},"));
        }
        out.push_str("\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"weight\":{},\"admitted\":{},\"completed\":{},\
                 \"shed\":{}}}",
                json_escape(&t.tenant),
                t.weight,
                t.admitted,
                t.completed,
                t.shed
            ));
        }
        out.push_str("],\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"link\":\"{}\",\"wire_format\":\"{}\"",
                json_escape(&l.pair()),
                l.wire_format.name()
            );
            for (key, _, kind, read) in LINK_SERIES {
                let _ = match kind {
                    Flag => write!(out, ",\"{key}\":{}", read(l) != 0),
                    _ => write!(out, ",\"{key}\":{}", read(l)),
                };
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl Inner {
    /// The fleet's running tallies plus everything read off the live
    /// structures (queue, tenants, plan cache, ledger, links, rings).
    pub(crate) fn stats(&self) -> RuntimeStats {
        let tenants = {
            let stats = self.tenant_stats.lock().unwrap();
            let weights = self.tenant_weights.lock().unwrap();
            stats
                .iter()
                .map(|(tenant, c)| TenantStats {
                    tenant: tenant.clone(),
                    weight: weights.get(tenant).copied().unwrap_or(1.0),
                    admitted: c.admitted,
                    completed: c.completed,
                    shed: c.shed,
                })
                .collect()
        };
        let tallies = self.agg.lock().unwrap().stats.clone();
        RuntimeStats {
            queue_depth: self.queue.lock().unwrap().fair.len(),
            tenants,
            ledger_buffers_shed: self.ledger.buffers_shed(),
            ledger_entries_pruned: self.ledger.entries_pruned(),
            plan_cache_hits: self.cache.hits(),
            plan_cache_misses: self.cache.misses(),
            plan_cache_stats_evicted: self.cache.stats_evicted(),
            links: self.registry.snapshot(),
            peak_concurrent_shipments: self.registry.peak_concurrent_shipments(),
            latency_histogram: self.latency_hist.snapshot(),
            dropped_events: self.events.dropped(),
            dropped_spans: self.trace.dropped(),
            ..tallies
        }
    }

    /// Re-emits every aggregate counter, per-link rollup and engine
    /// counter through the metrics registry, so one render carries the
    /// runtime's full state. Histograms are recorded live on the hot
    /// path; only the monotone counters and gauges are refreshed here.
    pub(crate) fn refresh_metrics(&self) {
        let stats = self.stats();
        let m = &self.metrics;
        export(m, &RUNTIME_SERIES, "", &stats);
        // Batches in flight through the shipping engine right now — how
        // deep the pipeline actually runs.
        m.gauge("xdx_pipeline_depth")
            .set(self.engine.inflight() as f64);
        // Decoded batches parked publish groups hold for lanes that have
        // yet to absorb them — memory a stuck or dead lane must not pin.
        let parked = self.parked.lock().unwrap();
        let cached: usize = parked.values().map(|ex| ex.decoded_cached()).sum();
        drop(parked);
        m.gauge("xdx_decoded_batches_cached").set(cached as f64);
        // Fraction of the worker pool currently executing or servicing a
        // session (the rest are waiting on the queue).
        m.gauge("xdx_worker_occupancy").set(
            self.busy_workers.load(Ordering::Relaxed) as f64 / self.config.workers.max(1) as f64,
        );
        // Per-tenant fairness rollups, labelled by tenant.
        for t in &stats.tenants {
            let label = |base: &str| format!("{base}{{tenant=\"{}\"}}", t.tenant);
            m.counter(&label("xdx_tenant_admitted_total"))
                .set(t.admitted);
            m.counter(&label("xdx_tenant_completed_total"))
                .set(t.completed);
            m.counter(&label("xdx_tenant_shed_total")).set(t.shed);
            m.gauge(&label("xdx_tenant_weight")).set(t.weight);
        }
        // The relational engines' own counters, re-emitted per side.
        {
            let agg = self.agg.lock().unwrap();
            for (side, c) in [
                ("source", agg.source_counters),
                ("target", agg.target_counters),
            ] {
                for (name, value) in [
                    ("rows_read", c.rows_read),
                    ("rows_out", c.rows_out),
                    ("rows_written", c.rows_written),
                    ("comparisons", c.comparisons),
                    ("hash_probes", c.hash_probes),
                    ("index_inserts", c.index_inserts),
                    ("bytes_out", c.bytes_out),
                ] {
                    m.counter(&format!("xdx_db_{name}_total{{side=\"{side}\"}}"))
                        .set(value);
                }
            }
        }
        // Per-link rollups: counters plus a utilization gauge (simulated
        // busy time over runtime uptime) and the breaker state.
        let uptime = self.trace.epoch().elapsed().as_secs_f64();
        for link in &stats.links {
            let pair = link.pair();
            let labels = format!("{{link=\"{pair}\"}}");
            export(m, &LINK_SERIES, &labels, link);
            m.gauge(&format!("xdx_link_utilization{labels}"))
                .set(if uptime > 0.0 {
                    link.busy.as_secs_f64() / uptime
                } else {
                    0.0
                });
            // Info-style gauge: which wire format the pair negotiated.
            m.gauge(&format!(
                "xdx_link_wire_format{{link=\"{pair}\",format=\"{}\"}}",
                link.wire_format.name()
            ))
            .set(1.0);
        }
        // Observability self-accounting (ring drops are series rows):
        // anomalies/dumps and the engine stall watchdog.
        // The watchdog rides the metrics refresh (every scrape / stats
        // call checks it), so a wedged engine surfaces without a
        // dedicated thread.
        m.counter("xdx_flight_anomalies_total")
            .set(self.flight.anomalies());
        m.counter("xdx_flight_dumps_total").set(self.flight.dumps());
        let stalled = self.engine.stall_check(STALL_THRESHOLD);
        m.gauge("xdx_engine_stalled")
            .set(if stalled.is_some() { 1.0 } else { 0.0 });
        if let Some(overdue) = stalled {
            self.flight.anomaly(&format!(
                "engine stall: next deadline overdue by {overdue:?}"
            ));
        }
    }

    /// Routes one introspection-endpoint request. Every surface the
    /// programmatic accessors expose is served here read-only; the
    /// handler runs on the listener thread, so it takes the same locks
    /// any other observer thread would.
    pub(crate) fn introspect_reply(&self, path: &str) -> IntrospectReply {
        let ok = |content_type: &'static str, body: String| IntrospectReply {
            status: 200,
            content_type,
            body,
        };
        match path {
            "/" => ok(
                "text/plain",
                "/healthz\n/metrics\n/stats.json\n/traces\n/critical-path\n/calibration\n/events\n"
                    .into(),
            ),
            "/metrics" => {
                self.refresh_metrics();
                ok("text/plain; version=0.0.4", self.metrics.render())
            }
            "/healthz" => {
                let (healthy, body) = self.health_json();
                IntrospectReply {
                    status: if healthy { 200 } else { 503 },
                    content_type: "application/json",
                    body,
                }
            }
            "/stats.json" => ok("application/json", self.stats().to_json()),
            "/traces" => ok("application/x-ndjson", self.trace.to_jsonl()),
            "/critical-path" => ok(
                "application/json",
                xdx_trace::critical_path(&self.trace.snapshot()).to_json(),
            ),
            "/calibration" => ok("application/json", self.calibration.report().to_json()),
            "/events" => ok("application/x-ndjson", self.events.to_jsonl()),
            _ => IntrospectReply {
                status: 404,
                content_type: "text/plain",
                body: "not found\n".into(),
            },
        }
    }

    /// Liveness verdict plus the evidence: the stall watchdog's reading,
    /// open breakers, queue depth and the anomaly tally. Unhealthy (HTTP
    /// 503) means the engine sits on an overdue deadline nobody is
    /// driving — sheds and breaker opens are load
    /// conditions, reported but not fatal.
    fn health_json(&self) -> (bool, String) {
        let stalled = self.engine.stall_check(STALL_THRESHOLD);
        let open_breakers: Vec<String> = self
            .registry
            .snapshot()
            .iter()
            .filter(|l| l.breaker_open)
            .map(|l| l.pair())
            .collect();
        let queue_depth = self.queue.lock().unwrap().fair.len();
        let healthy = stalled.is_none();
        let body = format!(
            "{{\"healthy\":{healthy},\"stalled_overdue_ms\":{},\"open_breakers\":[{}],\
             \"queue_depth\":{queue_depth},\"flight_anomalies\":{},\"flight_dumps\":{}}}",
            stalled.map_or(0, |d| d.as_millis()),
            open_breakers
                .iter()
                .map(|p| format!("\"{}\"", json_escape(p)))
                .collect::<Vec<_>>()
                .join(","),
            self.flight.anomalies(),
            self.flight.dumps()
        );
        (healthy, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExchangeRequest, Runtime, RuntimeConfig, SessionState};
    use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

    /// The field names of a struct, off its pretty `Debug` form.
    fn fields<T: std::fmt::Debug>(value: &T) -> Vec<String> {
        let pretty = format!("{value:#?}");
        let top_level = pretty.lines().filter_map(|l| l.strip_prefix("    "));
        top_level
            .filter(|l| !l.starts_with(' '))
            .filter_map(|l| Some(l.split_once(':')?.0.to_string()))
            .collect()
    }

    /// Completeness audit: every field of `RuntimeStats` and `LinkStats`
    /// is a row of its series table — a field added to a struct without
    /// a row is a bug, not a choice — and every row surfaces under its
    /// key in `/stats.json` and as its series in `/metrics`, with the
    /// value it reads off the snapshot. (The fields that are not one
    /// number — the link and tenant lists, the latency histogram, a
    /// link's endpoints and format — are exported on their own; the
    /// golden in `tests/counters.rs` pins their series.)
    #[test]
    fn every_runtime_and_link_stat_has_a_prometheus_series() {
        let schema = schema();
        let (mf, lf) = (mf(&schema), lf(&schema));
        let doc = generate(GenConfig::sized(20_000));
        let runtime = Runtime::start(schema.clone(), RuntimeConfig::default().with_workers(2));
        for i in 0..3 {
            let source = load_source(&doc, &schema, &mf).unwrap();
            let request = ExchangeRequest::new(format!("t{i}"), source, mf.clone(), lf.clone());
            let result = runtime.submit(request).unwrap().wait();
            assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
        }
        let text = runtime.metrics_text();
        let stats = runtime.stats();
        let json = stats.to_json();

        let keys: Vec<&str> = RUNTIME_SERIES.iter().map(|row| row.0).collect();
        for field in fields(&stats) {
            let listed = ["links", "tenants", "latency_histogram"].contains(&field.as_str());
            assert!(
                listed || keys.contains(&field.as_str()),
                "RuntimeStats::{field} has no row in RUNTIME_SERIES"
            );
        }
        for (key, name, _, read) in RUNTIME_SERIES {
            assert!(json.contains(&format!("\"{key}\":")), "no {key}: {json}");
            let line = format!("{name} {}", read(&stats));
            assert!(text.lines().any(|l| l == line), "no `{line}`:\n{text}");
        }

        assert!(!stats.links.is_empty());
        let keys: Vec<&str> = LINK_SERIES.iter().map(|row| row.0).collect();
        for link in &stats.links {
            for field in fields(link) {
                let key = if field == "busy" { "busy_ns" } else { &field };
                let listed = ["source", "target", "wire_format"].contains(&key);
                assert!(
                    listed || keys.contains(&key),
                    "LinkStats::{field} has no row in LINK_SERIES"
                );
            }
            for (key, name, _, read) in LINK_SERIES {
                assert!(json.contains(&format!("\"{key}\":")), "no {key}: {json}");
                let line = format!("{name}{{link=\"{}\"}} {}", link.pair(), read(link));
                assert!(text.lines().any(|l| l == line), "no `{line}`:\n{text}");
            }
        }
        runtime.shutdown();
    }
}

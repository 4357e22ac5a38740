//! The multi-tenant exchange-session runtime.
//!
//! One [`Runtime`] hosts many concurrent exchanges against a single
//! agreed-upon schema: requests are admitted into a bounded
//! weighted-fair queue (per-tenant lanes with priority aging — see
//! [`crate::fair`]), a fixed pool of workers plans them (through the
//! shared [`PlanCache`]) and executes them, and every cross-edge
//! shipment rides the per-`(source, target)`-pair link resolved from
//! the [`LinkRegistry`] — the paper's one-path-per-pair deployment.
//! Sessions routed over distinct pairs ship fully in parallel; sessions
//! sharing a pair contend realistically on that pair's link. Each link
//! carries its own fault model, counters and circuit breaker.
//!
//! Under overload the runtime *sheds* instead of degrading: a
//! submission whose deadline the [`crate::admission`] estimator says
//! cannot be met is refused up front; a queued session whose deadline
//! expired, or whose route's breaker opened, is shed at dequeue before
//! burning a planning probe; and an opening breaker drains its route's
//! queued sessions on the spot. Every queue in the system is bounded —
//! admission, the resumable-checkpoint map, the reassembly ledger, the
//! event/span rings, the latency window — so sustained 2× overload
//! holds RSS flat (the `soak` bench mode asserts it).

use crate::admission::AdmissionController;
use crate::breaker::BreakerTransition;
use crate::cache::{plan_key, plan_key_with_fanout, CachedPlan, PlanCache, PlanKey};
use crate::engine::{BatchResult, ShipEngine, ShipRequest};
use crate::events::{Event, EventKind, EventLog, DEFAULT_EVENT_CAPACITY};
use crate::fair::{FairQueue, DEFAULT_AGING_INTERVAL};
use crate::flight::{FlightRecorder, FlightSubsystem, DEFAULT_FLIGHT_CAPACITY};
use crate::introspect::{IntrospectReply, IntrospectServer};
use crate::ledger::{ReassemblyLedger, DEFAULT_LEDGER_CAPACITY};
use crate::registry::{LinkRegistry, LinkSlot, LinkStats};
use crate::session::{
    ExchangeRequest, PublishRequest, SessionHandle, SessionId, SessionMetrics, SessionResult,
    SessionShared, SessionState,
};
use crate::shipper::ShippingPolicy;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xdx_codec::{
    decode_any_ctx, decode_patch_ctx, encode_in_format_with_context_into,
    encode_patch_with_context_into, is_patch, label_with_context, split_label_context,
    TraceContext,
};
use xdx_core::exec::{
    commit_and_index, cross_ports_in_consumer_order, direct_write_tables,
    execute_source_phase_streaming, execute_target_phase, execute_with_transport, feed_batches,
    writes_stream_directly, CrossPort, ExecOutcome, LoopbackTransport, OpSample,
};
use xdx_core::program::PortRef;
use xdx_core::{
    ksite_greedy, ksite_optimal, CostModel, DataExchange, Location, Optimizer, Program, WireFormat,
    PATCH_STEP_FACTOR,
};
use xdx_delta::{db_tables, diff_snapshots, Snapshot, SnapshotStore};
use xdx_net::http::Request;
use xdx_net::{FaultProfile, NetworkProfile};
use xdx_relational::{stage_patch, Counters, Database, Feed};
use xdx_trace::{
    CalibrationConfig, CalibrationReport, CalibrationTracker, Histogram, HistogramSnapshot,
    MetricsRegistry, SpanId, TraceSink, NO_SPAN,
};
use xdx_xml::SchemaTree;

/// Stable label for a placement location in metric names and
/// calibration cells.
fn location_name(loc: Location) -> &'static str {
    match loc {
        Location::Source => "source",
        Location::Target => "target",
        Location::Unassigned => "unassigned",
    }
}

/// Stable label for a wire format in metric names and calibration
/// cells.
fn format_name(format: WireFormat) -> &'static str {
    match format {
        WireFormat::Xml => "xml",
        WireFormat::Columnar => "columnar",
    }
}

/// The distributed trace id a session's spans stitch under: the
/// publish group's span for multicast lanes (so one publish is one
/// tree), the session's own root span otherwise.
fn session_trace_id(shared: &SessionShared) -> u64 {
    if shared.root_parent != NO_SPAN {
        shared.root_parent
    } else {
        shared.root_span
    }
}

/// The trace context a shipment out of `shared` carries on the wire:
/// columnar frames fold it into their header extension, XML-text
/// shipments append it to the chunk label. `None` when tracing is off
/// (frames stay byte-identical to the context-free form).
fn wire_context(shared: &SessionShared, parent_span: SpanId) -> Option<TraceContext> {
    (shared.root_span != NO_SPAN).then(|| TraceContext {
        trace_id: session_trace_id(shared),
        parent_span,
    })
}

/// Trace context off a received SOAP request's `SOAPAction` header (the
/// label channel XML-text shipments use; the header value is quoted on
/// the wire).
fn soap_action_context(request: &Request) -> Option<TraceContext> {
    split_label_context(request.header("SOAPAction")?.trim_matches('"')).1
}

/// Stable identity of a route's versioned feed log: the endpoint pair
/// plus both fragmentation names — a different fragmentation pair over
/// the same endpoints is a different feed history.
fn route_key(src_ep: &str, dst_ep: &str, src_frag: &str, dst_frag: &str) -> String {
    format!("{src_ep}→{dst_ep}:{src_frag}→{dst_frag}")
}

/// Tunables of a runtime instance.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads executing sessions.
    pub workers: usize,
    /// Maximum sessions waiting in the queue; submissions beyond this
    /// are rejected at admission (back-pressure, not unbounded memory).
    pub max_queue_depth: usize,
    /// Bandwidth/latency model for links the registry creates.
    pub network: NetworkProfile,
    /// Default fault model for links the registry creates; override a
    /// single pair afterwards with [`Runtime::set_link_fault_profile`].
    pub fault_profile: FaultProfile,
    /// Real-time pacing of link transmissions: each one blocks its
    /// caller for this fraction of its simulated duration (0 = pure
    /// simulation, 1 = real time). With pacing on, sessions sharing a
    /// pair serialize on that link's wall time while disjoint pairs
    /// overlap — the knob throughput benchmarks use to make multi-link
    /// parallelism observable on a clock.
    pub link_pacing: f64,
    /// Chunking/retry policy of the shipping layer.
    pub shipping: ShippingPolicy,
    /// Optimizer sessions are planned with unless their request carries
    /// an [`ExchangeRequest::with_optimizer`] override.
    pub optimizer: Optimizer,
    /// Communication weight of the cost model.
    pub w_comm: f64,
    /// Wire format every endpoint prefers by default. A pair ships
    /// columnar only when both its endpoints prefer it (override one
    /// endpoint with [`Runtime::set_endpoint_format`]); XML text is the
    /// universal fallback.
    pub wire_format: WireFormat,
    /// Age at which cached plans expire (None = never); expired and
    /// stats-drifted entries are re-planned, so a long-lived runtime
    /// never serves a program optimized for data that no longer exists.
    pub plan_ttl: Option<Duration>,
    /// Consecutive link-failed sessions before a link's circuit breaker
    /// opens and refuses new admissions *on that pair*.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses admissions before letting one
    /// probe session through.
    pub breaker_cooldown: Duration,
    /// Whether structured trace spans are recorded. On by default; the
    /// throughput bench flips it off to measure tracing overhead.
    pub tracing: bool,
    /// Maximum spans the trace ring keeps; the oldest are evicted (and
    /// counted in [`RuntimeStats::dropped_spans`]) beyond this.
    pub trace_capacity: usize,
    /// Maximum events the flight-recorder ring keeps; the oldest are
    /// evicted (and counted in [`RuntimeStats::dropped_events`]) beyond
    /// this.
    pub event_capacity: usize,
    /// Cost-model calibration thresholds (drift factor, streak length,
    /// EWMA smoothing) driving plan-cache drift eviction.
    pub calibration: CalibrationConfig,
    /// Priority-aging interval of the weighted-fair queue: a queued
    /// session gains one priority class per interval waited, so nothing
    /// starves behind a stream of higher-priority arrivals.
    pub aging_interval: Duration,
    /// Maximum shipment buffers the reassembly ledger checkpoints;
    /// beyond it the least-recently-touched checkpoint is shed (the
    /// session re-ships those chunks if resumed).
    pub ledger_capacity: usize,
    /// Maximum failed-session checkpoints kept for [`Runtime::resume`];
    /// beyond it the oldest checkpoint is evicted (each holds a full
    /// source database, so this bound is what keeps failure storms from
    /// growing RSS).
    pub max_resumables: usize,
    /// Rows per streamed operator batch. Feeds
    /// smaller than one batch ship as a single message, so small
    /// exchanges keep their one-message-per-cross-edge shape.
    pub batch_rows: usize,
    /// Batches of one session allowed in flight at once — the bound of
    /// the per-session batch channel between encoder and engine. Frame
    /// `k+1` is encoded while frame `k` is on the wire; depth caps how
    /// far the encoder may run ahead of the slowest link.
    pub pipeline_depth: usize,
    /// Pipelined sessions each worker may hold in flight beyond the one
    /// it is actively driving. The pool keeps at most `workers ×
    /// pipeline_sessions_per_worker` sessions parked mid-exchange;
    /// arrivals beyond that wait in the admission queue, so overload
    /// still produces a visible backlog (and breaker-open shedding
    /// still finds queued sessions to drain) instead of unbounded
    /// in-flight state.
    pub pipeline_sessions_per_worker: usize,
    /// Whether the always-on flight recorder keeps its per-subsystem
    /// transition rings (engine lanes, timer deadlines, breaker flips,
    /// shed decisions). On by default; the throughput bench flips it
    /// off together with tracing to measure observability overhead.
    pub flight_recorder: bool,
    /// Directory the flight recorder dumps its rings into (as JSONL) on
    /// anomaly — session failure, breaker open, shed-rate spike, or the
    /// stall watchdog. `None` records in memory only
    /// ([`Runtime::flight_jsonl`] still serves the rings).
    pub flight_dump_dir: Option<&'static str>,
    /// How far the shipping engine's nearest wheel deadline may run
    /// overdue (while tasks are parked) before the stall watchdog
    /// declares the engine wedged.
    pub stall_threshold: Duration,
    /// Address the live introspection endpoint listens on (`None` —
    /// the default — serves nothing). Port 0 binds an ephemeral port;
    /// read the bound address back with [`Runtime::introspect_addr`].
    /// The endpoint serves `/metrics`, `/healthz`, `/stats.json`,
    /// `/traces`, `/calibration` and `/flight` over plain HTTP/1.1.
    pub introspect_addr: Option<std::net::SocketAddr>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: 4,
            max_queue_depth: 64,
            network: NetworkProfile::lan(),
            fault_profile: FaultProfile::healthy(),
            link_pacing: 0.0,
            shipping: ShippingPolicy::default(),
            optimizer: Optimizer::Greedy,
            w_comm: 0.05,
            wire_format: WireFormat::Xml,
            plan_ttl: None,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(5),
            tracing: true,
            trace_capacity: 65_536,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            calibration: CalibrationConfig::default(),
            aging_interval: DEFAULT_AGING_INTERVAL,
            ledger_capacity: DEFAULT_LEDGER_CAPACITY,
            max_resumables: 256,
            batch_rows: 1024,
            pipeline_depth: 4,
            pipeline_sessions_per_worker: 4,
            flight_recorder: true,
            flight_dump_dir: None,
            stall_threshold: Duration::from_millis(250),
            introspect_addr: None,
        }
    }
}

impl RuntimeConfig {
    /// Sets the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> RuntimeConfig {
        self.workers = workers;
        self
    }

    /// Sets the admission bound.
    pub fn with_max_queue_depth(mut self, depth: usize) -> RuntimeConfig {
        self.max_queue_depth = depth;
        self
    }

    /// Sets the link model.
    pub fn with_network(mut self, network: NetworkProfile) -> RuntimeConfig {
        self.network = network;
        self
    }

    /// Sets the default link fault model.
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> RuntimeConfig {
        self.fault_profile = profile;
        self
    }

    /// Sets the real-time link pacing scale.
    pub fn with_link_pacing(mut self, scale: f64) -> RuntimeConfig {
        self.link_pacing = scale;
        self
    }

    /// Sets the shipping policy.
    pub fn with_shipping(mut self, shipping: ShippingPolicy) -> RuntimeConfig {
        self.shipping = shipping;
        self
    }

    /// Sets the optimizer.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> RuntimeConfig {
        self.optimizer = optimizer;
        self
    }

    /// Sets the default endpoint wire-format preference.
    pub fn with_wire_format(mut self, format: WireFormat) -> RuntimeConfig {
        self.wire_format = format;
        self
    }

    /// Sets the plan-cache TTL.
    pub fn with_plan_ttl(mut self, ttl: Duration) -> RuntimeConfig {
        self.plan_ttl = Some(ttl);
        self
    }

    /// Sets the per-link circuit-breaker policy.
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> RuntimeConfig {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Turns trace-span recording on or off.
    pub fn with_tracing(mut self, enabled: bool) -> RuntimeConfig {
        self.tracing = enabled;
        self
    }

    /// Sets the trace-span ring capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the event-log ring capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.event_capacity = capacity;
        self
    }

    /// Sets the cost-model calibration thresholds.
    pub fn with_calibration(mut self, calibration: CalibrationConfig) -> RuntimeConfig {
        self.calibration = calibration;
        self
    }

    /// Sets the fair queue's priority-aging interval.
    pub fn with_aging_interval(mut self, interval: Duration) -> RuntimeConfig {
        self.aging_interval = interval;
        self
    }

    /// Sets the reassembly-ledger checkpoint capacity.
    pub fn with_ledger_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.ledger_capacity = capacity;
        self
    }

    /// Sets the failed-session checkpoint cap.
    pub fn with_max_resumables(mut self, cap: usize) -> RuntimeConfig {
        self.max_resumables = cap;
        self
    }

    /// Sets the rows per streamed operator batch (clamped to ≥ 1).
    pub fn with_batch_rows(mut self, rows: usize) -> RuntimeConfig {
        self.batch_rows = rows.max(1);
        self
    }

    /// Sets the per-session in-flight batch bound (clamped to ≥ 1).
    pub fn with_pipeline_depth(mut self, depth: usize) -> RuntimeConfig {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Sets how many pipelined sessions each worker may hold parked
    /// mid-exchange (clamped to ≥ 1).
    pub fn with_pipeline_sessions_per_worker(mut self, sessions: usize) -> RuntimeConfig {
        self.pipeline_sessions_per_worker = sessions.max(1);
        self
    }

    /// Turns the flight recorder on or off.
    pub fn with_flight_recorder(mut self, enabled: bool) -> RuntimeConfig {
        self.flight_recorder = enabled;
        self
    }

    /// Sets the directory flight-recorder anomaly dumps land in.
    pub fn with_flight_dump_dir(mut self, dir: &'static str) -> RuntimeConfig {
        self.flight_dump_dir = Some(dir);
        self
    }

    /// Sets the stall watchdog's overdue-deadline threshold.
    pub fn with_stall_threshold(mut self, threshold: Duration) -> RuntimeConfig {
        self.stall_threshold = threshold;
        self
    }

    /// Enables the live introspection endpoint on `addr`.
    pub fn with_introspect_addr(mut self, addr: std::net::SocketAddr) -> RuntimeConfig {
        self.introspect_addr = Some(addr);
        self
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already holds `max_queue_depth` sessions.
    QueueFull {
        /// The bound that was hit.
        depth: usize,
        /// How long the queue needs to drain a slot at its observed
        /// dequeue rate — the client's back-off hint.
        retry_after: Duration,
    },
    /// The admission estimator concluded the request's deadline cannot
    /// be met at the current queue depth and service rate; running it
    /// would only shed it at dequeue after wasting a queue slot.
    DeadlineUnattainable {
        /// The deadline the request carried.
        deadline: Duration,
        /// The estimated queue-to-completion turnaround.
        estimated: Duration,
        /// Back-off hint derived from the queue drain rate.
        retry_after: Duration,
    },
    /// The circuit breaker of the *request's route* is open: too many
    /// consecutive shipment failures on that `(source, target)` pair.
    /// Other pairs keep admitting. Retry after the hinted cooldown
    /// remainder.
    CircuitOpen {
        /// Time until the breaker half-opens and admits a probe.
        retry_after: Duration,
    },
    /// `resume` was asked for a session the runtime has no checkpoint
    /// for (unknown id, never failed, or already resumed).
    UnknownSession {
        /// The id that did not resolve.
        id: SessionId,
    },
    /// The runtime is shutting down.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth, retry_after } => {
                write!(
                    f,
                    "admission refused: queue full ({depth} sessions), retry in {retry_after:?}"
                )
            }
            SubmitError::DeadlineUnattainable {
                deadline,
                estimated,
                retry_after,
            } => write!(
                f,
                "admission refused: deadline {deadline:?} unattainable \
                 (estimated turnaround {estimated:?}), retry in {retry_after:?}"
            ),
            SubmitError::CircuitOpen { retry_after } => write!(
                f,
                "admission refused: link circuit open, retry in {retry_after:?}"
            ),
            SubmitError::UnknownSession { id } => {
                write!(f, "resume refused: no resumable session {id}")
            }
            SubmitError::ShutDown => write!(f, "admission refused: runtime shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Caller-side view of an admitted 1→N publish group: one
/// [`SessionHandle`] per subscriber, index-aligned with
/// `PublishRequest::subscribers`.
pub struct PublishHandle {
    /// Per-subscriber session handles.
    pub handles: Vec<SessionHandle>,
}

impl PublishHandle {
    /// Number of subscriber lanes in the group.
    pub fn fanout(&self) -> usize {
        self.handles.len()
    }

    /// Blocks until every lane settles and returns the per-subscriber
    /// results, in subscriber order.
    pub fn wait(self) -> Vec<SessionResult> {
        self.handles.into_iter().map(SessionHandle::wait).collect()
    }
}

/// Outcome of an N→1 [`Runtime::consolidate`]: the merged target plus
/// per-source dispositions.
#[derive(Debug)]
pub struct ConsolidationOutcome {
    /// The consolidated target database; holds exactly the tables of
    /// the sources that committed (each staged and committed as one
    /// transaction).
    pub target: Database,
    /// Sources whose exchange completed and whose staging committed.
    pub applied: usize,
    /// Sources refused, failed, or rolled back during staging.
    pub failed: usize,
    /// Per-source disposition, in request order: metrics on success, a
    /// diagnostic on refusal/failure.
    pub results: Vec<(String, std::result::Result<SessionMetrics, String>)>,
    /// Key-index rebuild failure over the merged tables (e.g. duplicate
    /// keys across sources); the rows are committed either way.
    pub index_error: Option<String>,
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
    /// Failed sessions re-admitted through [`Runtime::resume`].
    pub resumed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Cached plans evicted for outliving the TTL.
    pub plan_cache_expired: u64,
    /// Cached plans evicted because the probed statistics drifted.
    pub plan_cache_stats_evicted: u64,
    /// Cached plans evicted because cost-model calibration reported
    /// sustained predicted-vs-observed drift on their shape.
    pub plan_cache_drift_evicted: u64,
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
    /// Per-session submit→done wall latencies of completed sessions.
    pub latencies: Vec<Duration>,
    /// The same latencies as a log-linear histogram snapshot —
    /// mergeable across runs, quantile error ≤ 1/32.
    pub latency_histogram: HistogramSnapshot,
    /// Events evicted from the bounded flight-recorder ring.
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

impl RuntimeStats {
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
        use crate::events::json_escape;
        let mut out = String::with_capacity(2048);
        out.push('{');
        for (name, value) in [
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("failed", self.failed),
            ("cancelled", self.cancelled),
            ("resumed", self.resumed),
            ("sessions_shed_expired", self.sessions_shed_expired),
            ("sessions_shed_deadline", self.sessions_shed_deadline),
            ("sessions_shed_breaker", self.sessions_shed_breaker),
            ("resumables_evicted", self.resumables_evicted),
            ("ledger_buffers_shed", self.ledger_buffers_shed),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("plan_cache_expired", self.plan_cache_expired),
            ("plan_cache_stats_evicted", self.plan_cache_stats_evicted),
            ("plan_cache_drift_evicted", self.plan_cache_drift_evicted),
            ("planning_probes", self.planning_probes),
            ("messages_serialized", self.messages_serialized),
            ("bytes_shipped", self.bytes_shipped),
            ("bytes_encoded", self.bytes_encoded),
            ("encode_ns", self.encode_ns),
            ("chunks_shipped", self.chunks_shipped),
            ("chunks_resumed", self.chunks_resumed),
            ("chunks_deduped", self.chunks_deduped),
            ("chunks_retried", self.chunks_retried),
            ("peak_concurrent_shipments", self.peak_concurrent_shipments),
            ("dropped_events", self.dropped_events),
            ("dropped_spans", self.dropped_spans),
            ("delta_patch_bytes", self.delta_patch_bytes),
            ("delta_patches_applied", self.delta_patches_applied),
            ("delta_full_chosen", self.delta_full_chosen),
            ("delta_full_fallbacks", self.delta_full_fallbacks),
            ("delta_chain_composed", self.delta_chain_composed),
            ("fanout_subscribers", self.fanout_subscribers),
            ("multicast_encode_shared", self.multicast_encode_shared),
            ("multicast_encode_fallback", self.multicast_encode_fallback),
            ("ledger_entries_pruned", self.ledger_entries_pruned),
            ("queue_depth", self.queue_depth as u64),
        ] {
            out.push_str(&format!("\"{name}\":{value},"));
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
            out.push_str(&format!(
                "{{\"link\":\"{}\",\"wire_format\":\"{}\",\"busy_ns\":{},\
                 \"wire_bytes\":{},\"bytes_encoded\":{},\"encode_ns\":{},\
                 \"chunks_shipped\":{},\"chunks_retried\":{},\
                 \"sessions_completed\":{},\"sessions_failed\":{},\
                 \"sessions_shed\":{},\"breaker_open\":{},\
                 \"peak_concurrent_shipments\":{}}}",
                json_escape(&l.pair()),
                format_name(l.wire_format),
                l.busy.as_nanos(),
                l.wire_bytes,
                l.bytes_encoded,
                l.encode_ns,
                l.chunks_shipped,
                l.chunks_retried,
                l.sessions_completed,
                l.sessions_failed,
                l.sessions_shed,
                l.breaker_open,
                l.peak_concurrent_shipments
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A queued session; ordering lives in the [`FairQueue`] it sits in.
struct QueuedSession {
    enqueued: Instant,
    /// Resumed sessions are the operator's recovery probes: they bypass
    /// breaker-feedback shedding the way `resume` bypasses `try_admit`.
    resumed: bool,
    request: ExchangeRequest,
    /// Present for resumed sessions: the plan the failed run executed,
    /// replayed without probing or re-planning.
    plan: Option<Arc<CachedPlan>>,
    shared: Arc<SessionShared>,
}

struct QueueState {
    fair: FairQueue<QueuedSession>,
    /// Parked exchanges with fresh batch results to service.
    /// Lives *inside* the queue lock so a completion can never slip
    /// between a worker's emptiness check and its condvar wait.
    runnable: VecDeque<SessionId>,
    /// Admitted 1→N publish groups, FIFO. A group bills N tenants at
    /// once, so it rides its own lane instead of the per-tenant fair
    /// queue.
    publish: VecDeque<PublishJob>,
    open: bool,
}

/// An admitted publish group waiting for a worker: the request plus
/// the per-subscriber session cells created at admission.
struct PublishJob {
    enqueued: Instant,
    request: PublishRequest,
    /// One session per subscriber, index-aligned with
    /// `request.subscribers`.
    shareds: Vec<Arc<SessionShared>>,
    /// The group's trace span; every lane's root span is a sibling, and
    /// the span closes when the last lane settles.
    group_span: SpanId,
}

/// One slot of a group's frame ring: an operator batch (or the delta
/// patch) on its way to every lane of the group. The ring index *is*
/// the ledger shipment seq — cross ports in first-consumer order ×
/// batch index, after the patch if one shipped — so the same seq names
/// the same bytes across failure and resume.
struct Slot {
    label: String,
    /// The producing cross port; `None` for the delta patch.
    port: Option<PortRef>,
    /// The batch, until the first lane to need it encodes it.
    feed: Option<Feed>,
    /// The wire message, from its one encode until every live lane has
    /// submitted it — resident frames are bounded by the spread between
    /// the fastest and slowest lane.
    frame: Option<Arc<Vec<u8>>>,
}

/// A delta patch on the wire: what its absorb step needs to check the
/// version precondition, stage the patch, and account for it.
struct PatchShip {
    base_version: u64,
    head_version: u64,
    /// The base snapshot the patch was diffed against (and stages onto).
    snapshot: Snapshot,
    /// True when the base aged out and was composed from step patches.
    chain_composed: bool,
    steps: u64,
    bytes: usize,
    /// Outcome of the loopback head computation; becomes the lane's
    /// outcome when the patch applies.
    head_outcome: ExecOutcome,
}

/// Shipping tallies folded into [`SessionMetrics`] at settlement.
#[derive(Debug, Clone, Copy, Default)]
struct ShipRollup {
    wire_bytes: u64,
    bytes_encoded: u64,
    encode_ns: u64,
    messages_serialized: u64,
    retry_backoff: Duration,
    chunks_shipped: u64,
    chunks_resumed: u64,
    chunks_deduped: u64,
    chunks_retried: u64,
    link_gave_up: bool,
}

/// One target's side of an exchange: its session cell, its own link,
/// ledger coordinates and retry budget, its cursor over the group's
/// frame ring, and its staging state. Everything per-target lives here;
/// the only thing lanes share is the ring of already-encoded frames.
struct Lane {
    shared: Arc<SessionShared>,
    slot: Arc<LinkSlot>,
    feed_route: String,
    metrics: SessionMetrics,
    target: Database,
    /// Retry budget shared by every batch of the lane — one broken
    /// target exhausts only its own.
    budget: Arc<AtomicI64>,
    inflight: usize,
    /// Next ring slot this lane submits.
    cursor: usize,
    /// Batches fully absorbed (delivered or failed) — the lag metric the
    /// cap compares against the group's fastest lane.
    completed: usize,
    rollup: ShipRollup,
    /// First failure diagnostic; stops the lane's pump, and the lane
    /// settles once its in-flight batches drain.
    failure: Option<String>,
    /// Decoded batches that arrived ahead of the staging cursor.
    decoded: BTreeMap<u64, Feed>,
    /// Next shipment seq to stage — batches apply in order even when
    /// the wire completes them out of order.
    next_stage_seq: u64,
    /// Source-phase outcome (on the group's first lane), growing
    /// ship/stage tallies as batches land.
    outcome: ExecOutcome,
    /// Per-write-node staging wall, folded into one op sample each at
    /// settlement.
    write_walls: HashMap<usize, (Instant, Duration)>,
    /// General path: delivered feeds accumulate per port until the
    /// target phase runs over them at settlement.
    delivered: HashMap<PortRef, Feed>,
    /// True once a patch committed and indexed the target: nothing is
    /// left for the target half to finish.
    patched: bool,
    settled: bool,
}

impl Lane {
    /// Nothing on the wire and nothing left to put there.
    fn drained(&self, ring_len: usize) -> bool {
        self.inflight == 0 && (self.cursor >= ring_len || self.failure.is_some())
    }
}

/// N lanes over one shared frame ring: one plan, one source half, every
/// batch encoded once and the same bytes shipped per lane. A two-site
/// session is a group of one.
struct Group {
    wire_format: WireFormat,
    plan: Arc<CachedPlan>,
    /// The shape half of the plan-cache key, for session-drift
    /// calibration; `None` when the plan was not probed for here.
    plan_shape: Option<u64>,
    exec_span: SpanId,
    exec_started: Instant,
    /// The trace context every frame carries: receiver spans of every
    /// lane stitch under the group's exec span.
    ctx: Option<TraceContext>,
    ring: Vec<Slot>,
    /// First ring slot some live lane has yet to submit.
    floor: usize,
    /// `Some` when every target node is a source-fed `Write`: batches
    /// stage straight into their table as they land (`port → (node,
    /// table)`), and commit+index is the only finalization left.
    stream_tables: Option<HashMap<PortRef, (usize, String)>>,
    lanes: Vec<Lane>,
    /// Decode-once cache: lanes receive byte-identical frames (the
    /// engine checksums end to end), so the first absorber parses and
    /// later lanes clone the feed. An entry dies with its last expected
    /// absorption.
    decoded: HashMap<u64, (Feed, usize)>,
    /// Snapshot-once cache, same argument: the first lane to commit
    /// snapshots its tables and the rest record the same `Arc`.
    snapshot: Option<Snapshot>,
    /// Encode bill of a shared ring (a sole lane bills its own rollup).
    encodes: ShipRollup,
    shared_reuse: u64,
    ring_fallbacks: u64,
    encode_buf: Vec<u8>,
    /// The delta patch riding shipment 0, until its absorb step ran.
    patch: Option<Box<PatchShip>>,
}

/// Completed batch results as `(group, lane, result)`, deposited by
/// engine callbacks; shared so a result can land while a worker holds
/// the exchange out of the parked map.
type Inbox = Arc<Mutex<Vec<(usize, usize, BatchResult)>>>;

/// An exchange parked mid-flight: its source halves ran, its batches
/// flow through the shipping engine, and whichever worker picks it off
/// the runnable queue absorbs what landed. No thread blocks on it — the
/// struct *is* the resumable state machine. One group, except for a
/// publish whose subscribers negotiated different wire formats.
struct Exchange {
    /// Key in the parked map and the runnable queue.
    id: SessionId,
    enqueued: Instant,
    /// The request every lane's resume checkpoint is cut from (name and
    /// target endpoint are the lane's own).
    request: ExchangeRequest,
    /// Source counters already billed to a lane's metrics.
    billed: Counters,
    /// Frames a lane may trail its group's fastest before it is ejected.
    lag_cap: usize,
    groups: Vec<Group>,
    inbox: Inbox,
}

/// A failed session's checkpoint: the original request plus the plan it
/// was executing. A resume replays the plan directly — zero statistics
/// probes, zero optimizer calls — and the shipping ledger replays the
/// already-serialized messages.
struct Resumable {
    request: ExchangeRequest,
    plan: Option<Arc<CachedPlan>>,
}

/// What the source database accumulated between two readings of its
/// counters.
fn counters_delta(now: Counters, before: Counters) -> Counters {
    Counters {
        rows_read: now.rows_read - before.rows_read,
        rows_out: now.rows_out - before.rows_out,
        rows_written: now.rows_written - before.rows_written,
        comparisons: now.comparisons - before.comparisons,
        hash_probes: now.hash_probes - before.hash_probes,
        index_inserts: now.index_inserts - before.index_inserts,
        bytes_out: now.bytes_out - before.bytes_out,
    }
}

#[derive(Default)]
struct Aggregate {
    admitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    resumed: u64,
    planning_probes: u64,
    messages_serialized: u64,
    bytes_shipped: u64,
    bytes_encoded: u64,
    encode_ns: u64,
    chunks_shipped: u64,
    chunks_resumed: u64,
    chunks_deduped: u64,
    chunks_retried: u64,
    delta_patch_bytes: u64,
    delta_patches_applied: u64,
    delta_full_chosen: u64,
    delta_full_fallbacks: u64,
    delta_chain_composed: u64,
    fanout_subscribers: u64,
    multicast_encode_shared: u64,
    multicast_encode_fallback: u64,
    shed_expired: u64,
    shed_deadline: u64,
    shed_breaker: u64,
    resumables_evicted: u64,
    /// Completed-session latencies, windowed to [`LATENCY_WINDOW`] so a
    /// soak of millions of sessions cannot grow this unboundedly.
    latencies: VecDeque<Duration>,
    /// Source-side engine counters, merged across finished sessions.
    source_counters: Counters,
    /// Target-side engine counters, merged across finished sessions.
    target_counters: Counters,
}

/// Most recent completed-session latencies retained for
/// `RuntimeStats::latencies` (the histogram keeps the full
/// distribution; this raw window is for tests and tail inspection).
const LATENCY_WINDOW: usize = 65_536;

/// Distinct tenants tracked individually; arrivals beyond this fold
/// into one overflow bucket so a tenant-label flood cannot grow the
/// stats map unboundedly.
const MAX_TRACKED_TENANTS: usize = 1024;

/// Overflow bucket label for tenants beyond [`MAX_TRACKED_TENANTS`].
const TENANT_OVERFLOW: &str = "(other)";

#[derive(Debug, Default)]
struct TenantCounters {
    admitted: u64,
    completed: u64,
    shed: u64,
}

struct Inner {
    config: RuntimeConfig,
    schema: SchemaTree,
    registry: LinkRegistry,
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: PlanCache,
    events: Arc<EventLog>,
    ledger: Arc<ReassemblyLedger>,
    /// The event-driven shipping engine: every batch on the wire, and
    /// the parked deadline of every paced wait, lives here instead of on
    /// a blocked worker thread.
    engine: Arc<ShipEngine>,
    /// Parked exchanges, keyed by id. A worker *removes* the exchange
    /// while servicing it (no double-service), re-inserting it if
    /// batches remain in flight.
    parked: Mutex<HashMap<SessionId, Exchange>>,
    /// Exchanges started and not yet retired — the in-flight cap's
    /// numerator, and workers refuse to exit at shutdown while any
    /// remain.
    outstanding: AtomicUsize,
    /// Workers currently executing or servicing a session — the
    /// occupancy gauge's numerator.
    busy_workers: AtomicUsize,
    /// Checkpoints of failed sessions, kept for [`Runtime::resume`]. An
    /// entry is consumed by the resume (the same request cannot be
    /// resumed twice concurrently) and re-deposited if the retry fails
    /// again. Each value carries its deposit stamp; the map is capped
    /// at `config.max_resumables` and evicts the oldest stamp.
    resumables: Mutex<HashMap<SessionId, (u64, Resumable)>>,
    /// Logical clock stamping resumable deposits for oldest-first
    /// eviction.
    resumable_clock: AtomicU64,
    /// Overload estimator feeding deadline shedding and retry hints.
    admission: AdmissionController,
    /// Weighted-fair share weights by tenant label (absent = 1.0).
    tenant_weights: Mutex<HashMap<String, f64>>,
    /// Per-tenant fairness counters (BTreeMap for sorted stats output);
    /// bounded by [`MAX_TRACKED_TENANTS`].
    tenant_stats: Mutex<BTreeMap<String, TenantCounters>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    agg: Mutex<Aggregate>,
    /// Span sink; its epoch doubles as the runtime's start instant.
    trace: Arc<TraceSink>,
    /// Named metrics (counters, gauges, histograms) with Prometheus
    /// text exposition via [`Runtime::metrics_text`].
    metrics: MetricsRegistry,
    /// Predicted-vs-observed cost accounting; sustained drift evicts
    /// cached plans.
    calibration: CalibrationTracker,
    /// Versioned feed snapshots per route+fragmentation pair: the
    /// source-side log delta sessions diff against. Every successful
    /// session records its target feeds here, advancing the route's
    /// head version.
    snapshots: SnapshotStore,
    /// Pre-registered hot-path histograms (also reachable by name
    /// through `metrics`).
    queue_wait_hist: Arc<Histogram>,
    planning_hist: Arc<Histogram>,
    latency_hist: Arc<Histogram>,
    encode_hist: Arc<Histogram>,
    /// Bounded last-transitions rings, dumped on anomaly.
    flight: Arc<FlightRecorder>,
}

/// A running multi-session exchange runtime. Dropping (or
/// [`shutdown`](Runtime::shutdown)ting) it drains the queue and joins
/// the workers.
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The engine's dedicated driver thread, joined after the workers so
    /// every parked pipeline settles before the engine drains.
    engine_driver: Option<JoinHandle<()>>,
    /// The live introspection listener, when configured.
    introspect: Option<IntrospectServer>,
}

impl Runtime {
    /// Starts the worker pool for exchanges over `schema`.
    ///
    /// # Panics
    /// If `config.workers` is zero.
    pub fn start(schema: SchemaTree, config: RuntimeConfig) -> Runtime {
        assert!(config.workers > 0, "runtime needs at least one worker");
        let metrics = MetricsRegistry::new();
        let queue_wait_hist = metrics.histogram("xdx_queue_wait_ns");
        let planning_hist = metrics.histogram("xdx_planning_ns");
        let latency_hist = metrics.histogram("xdx_session_latency_ns");
        let encode_hist = metrics.histogram("xdx_encode_ns");
        let events = Arc::new(EventLog::with_capacity(config.event_capacity));
        let ledger = Arc::new(ReassemblyLedger::with_capacity(config.ledger_capacity));
        let trace = Arc::new(TraceSink::new(config.tracing, config.trace_capacity));
        let flight = Arc::new(FlightRecorder::new(
            config.flight_recorder,
            DEFAULT_FLIGHT_CAPACITY,
        ));
        if let Some(dir) = config.flight_dump_dir {
            flight.set_dump_dir(Some(std::path::PathBuf::from(dir)));
        }
        let engine = ShipEngine::new(
            Arc::clone(&events),
            Arc::clone(&ledger),
            Arc::clone(&trace),
            Arc::clone(&flight),
        );
        let inner = Arc::new(Inner {
            config,
            schema,
            registry: LinkRegistry::new(
                config.network,
                config.fault_profile,
                config.link_pacing,
                config.breaker_threshold,
                config.breaker_cooldown,
                config.wire_format,
            ),
            queue: Mutex::new(QueueState {
                fair: FairQueue::new(config.aging_interval),
                runnable: VecDeque::new(),
                publish: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            cache: match config.plan_ttl {
                Some(ttl) => PlanCache::with_ttl(ttl),
                None => PlanCache::new(),
            },
            events,
            ledger,
            engine: Arc::clone(&engine),
            parked: Mutex::new(HashMap::new()),
            outstanding: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            resumables: Mutex::new(HashMap::new()),
            resumable_clock: AtomicU64::new(0),
            admission: AdmissionController::new(),
            tenant_weights: Mutex::new(HashMap::new()),
            tenant_stats: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            agg: Mutex::new(Aggregate::default()),
            trace,
            metrics,
            calibration: CalibrationTracker::new(config.calibration),
            snapshots: SnapshotStore::new(),
            queue_wait_hist,
            planning_hist,
            latency_hist,
            encode_hist,
            flight,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("xdx-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let engine_driver = std::thread::Builder::new()
            .name("xdx-ship-engine".into())
            .spawn(move || engine.drive_forever())
            .expect("spawn engine driver");
        let introspect = config.introspect_addr.map(|addr| {
            let inner = Arc::clone(&inner);
            IntrospectServer::start(addr, move |path| inner.introspect_reply(path))
                .expect("bind introspection endpoint")
        });
        Runtime {
            inner,
            workers,
            engine_driver: Some(engine_driver),
            introspect,
        }
    }

    /// The bound address of the live introspection endpoint, when
    /// [`RuntimeConfig::with_introspect_addr`] enabled one. With port 0
    /// this is where the ephemeral port shows up.
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect.as_ref().map(|s| s.addr())
    }

    /// Admits a request. Returns the session handle, or an error when
    /// the queue is full, the request's route has an open circuit
    /// breaker, or the runtime is shutting down.
    pub fn submit(&self, request: ExchangeRequest) -> Result<SessionHandle, SubmitError> {
        let inner = &*self.inner;
        let (slot, created) = inner
            .registry
            .resolve(&request.source_endpoint, &request.target_endpoint);
        if created {
            inner
                .events
                .push(0, NO_SPAN, EventKind::LinkCreated, slot.pair());
        }
        match slot.breaker.try_admit() {
            Ok(None) => {}
            Ok(Some(BreakerTransition::HalfOpened)) => {
                inner.events.push(
                    0,
                    NO_SPAN,
                    EventKind::CircuitHalfOpened,
                    format!("{}: probe admitted", slot.pair()),
                );
            }
            Ok(Some(_)) => unreachable!("try_admit only half-opens"),
            Err(retry_after) => {
                inner.agg.lock().unwrap().rejected += 1;
                inner.events.push(
                    0,
                    NO_SPAN,
                    EventKind::Rejected,
                    format!("{}: circuit open on {}", request.name, slot.pair()),
                );
                return Err(SubmitError::CircuitOpen { retry_after });
            }
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        inner
            .enqueue(request, id, false, None)
            .map_err(|refused| refused.0)
    }

    /// Re-admits a *failed* session under its original id, replaying the
    /// checkpointed plan and the shipping checkpoint: the resume runs
    /// zero statistics probes, serializes zero messages (they were
    /// persisted in the ledger) and re-ships only the chunks that never
    /// landed. The original deadline is lifted: resume is an explicit
    /// operator decision to finish the exchange, made after the deadline
    /// already had its say.
    ///
    /// Resume is the operator's recovery probe, so it intentionally
    /// bypasses the route's circuit breaker.
    pub fn resume(&self, session_id: SessionId) -> Result<SessionHandle, SubmitError> {
        let inner = &*self.inner;
        let (_, Resumable { mut request, plan }) = inner
            .resumables
            .lock()
            .unwrap()
            .remove(&session_id)
            .ok_or(SubmitError::UnknownSession { id: session_id })?;
        request.deadline = None;
        match inner.enqueue(request, session_id, true, plan.clone()) {
            Ok(handle) => {
                inner.agg.lock().unwrap().resumed += 1;
                Ok(handle)
            }
            Err(refused) => {
                // Not admitted: keep the checkpoint resumable.
                let (e, request) = *refused;
                inner.remember_resumable(session_id, Resumable { request, plan });
                Err(e)
            }
        }
    }

    /// Admits a 1→N publish group: one source shipping the same exchange
    /// to every subscriber endpoint. The runtime plans once per distinct
    /// `(shape, wire format)` with the k-site cost model, executes the
    /// source phase once per format, encodes each operator batch once
    /// per format into a shared refcounted frame, and ships those same
    /// bytes over each subscriber's own link lane — per-subscriber
    /// ledger acks, retry budgets, breakers and resume stay fully
    /// independent, and a slow or broken subscriber never stalls the
    /// others (beyond the request's lag cap it is dropped to the
    /// per-subscriber re-encode/full-ship fallback and left resumable).
    ///
    /// Returns one [`SessionHandle`] per subscriber, wrapped in a
    /// [`PublishHandle`]. An empty subscriber list yields an empty
    /// handle without touching the queue.
    pub fn publish(&self, request: PublishRequest) -> Result<PublishHandle, SubmitError> {
        let inner = &*self.inner;
        if request.subscribers.is_empty() {
            return Ok(PublishHandle {
                handles: Vec::new(),
            });
        }
        let mut queue = inner.queue.lock().unwrap();
        if !queue.open {
            return Err(SubmitError::ShutDown);
        }
        let depth = queue.fair.len() + queue.publish.len();
        if depth >= inner.config.max_queue_depth {
            drop(queue);
            inner.agg.lock().unwrap().rejected += 1;
            inner.events.push(
                0,
                NO_SPAN,
                EventKind::Rejected,
                format!("{}: queue full (publish group)", request.name),
            );
            return Err(SubmitError::QueueFull {
                depth: inner.config.max_queue_depth,
                retry_after: inner.admission.retry_after(depth),
            });
        }
        let group_span = inner.trace.allocate_id();
        let fanout = request.subscribers.len();
        let mut shareds = Vec::with_capacity(fanout);
        let mut handles = Vec::with_capacity(fanout);
        for subscriber in &request.subscribers {
            let id = inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            let root_span = inner.trace.allocate_id();
            // Lane roots stitch under the publish group's span: the
            // group span id doubles as the multicast trace id, so one
            // publish produces one tree no matter how many
            // subscribers fan out.
            let shared = SessionShared::new_with_parent(
                id,
                format!("{}→{subscriber}", request.name),
                None,
                root_span,
                group_span,
            );
            inner.events.push(
                id,
                root_span,
                EventKind::Submitted,
                format!(
                    "{}→{subscriber} ({:?}, publish group of {fanout})",
                    request.name, request.priority
                ),
            );
            inner.tenant_entry(&request.lane_tenant(subscriber), |t| t.admitted += 1);
            handles.push(SessionHandle {
                shared: Arc::clone(&shared),
            });
            shareds.push(shared);
        }
        {
            let mut agg = inner.agg.lock().unwrap();
            agg.admitted += fanout as u64;
            agg.fanout_subscribers += fanout as u64;
        }
        queue.publish.push_back(PublishJob {
            enqueued: Instant::now(),
            request,
            shareds,
            group_span,
        });
        drop(queue);
        inner.available.notify_one();
        Ok(PublishHandle { handles })
    }

    /// N→1 consolidation: runs every request as an ordinary session
    /// (concurrently, across the worker pool), then folds each completed
    /// target into one consolidated database with *transactional
    /// per-source staging* — a source's tables stage together and commit
    /// together, so a failing source leaves zero of its rows behind and
    /// concurrent applies never tear. Blocks until every source settled.
    ///
    /// Sources refused at admission (queue full, open breaker, shutdown)
    /// are reported in the outcome rather than failing the whole
    /// consolidation.
    pub fn consolidate(
        &self,
        name: impl Into<String>,
        requests: Vec<ExchangeRequest>,
    ) -> ConsolidationOutcome {
        let name = name.into();
        let mut pending: Vec<(String, std::result::Result<SessionHandle, SubmitError>)> = requests
            .into_iter()
            .map(|request| {
                let source = request.name.clone();
                (source, self.submit(request))
            })
            .collect();
        let mut target = Database::new(format!("{name}-consolidated"));
        let mut outcome = ConsolidationOutcome {
            target: Database::default(),
            applied: 0,
            failed: 0,
            results: Vec::with_capacity(pending.len()),
            index_error: None,
        };
        for (source, admitted) in pending.drain(..) {
            let result = match admitted {
                Ok(handle) => handle.wait(),
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .results
                        .push((source, Err(format!("not admitted: {e}"))));
                    continue;
                }
            };
            match (result.state, &result.target) {
                (SessionState::Done, Some(db)) => {
                    // Stage the whole source, then commit it as one
                    // transaction: either every table of this source
                    // lands, or none do.
                    let mut staged = Ok(());
                    for (table, feed) in db_tables(db) {
                        if let Err(e) = target.load_staged(&table, feed) {
                            staged = Err(e.to_string());
                            break;
                        }
                    }
                    match staged {
                        Ok(()) => {
                            target.commit_staged();
                            outcome.applied += 1;
                            outcome.results.push((source, Ok(result.metrics)));
                        }
                        Err(e) => {
                            target.rollback_staged();
                            outcome.failed += 1;
                            outcome
                                .results
                                .push((source, Err(format!("staging failed: {e}"))));
                        }
                    }
                }
                _ => {
                    outcome.failed += 1;
                    let diag = result
                        .diagnostic
                        .unwrap_or_else(|| format!("{:?}", result.state));
                    outcome.results.push((source, Err(diag)));
                }
            }
        }
        if outcome.applied > 0 {
            if let Err(e) = target.build_all_key_indexes() {
                outcome.index_error = Some(e.to_string());
            }
        }
        outcome.target = target;
        outcome
    }

    /// Sets a tenant's weighted-fair share (default 1.0, clamped above
    /// zero). Weights are relative: a backlogged tenant with weight 2
    /// drains twice as often as one with weight 1. Applies from the
    /// tenant's next admitted session.
    pub fn set_tenant_weight(&self, tenant: &str, weight: f64) {
        self.inner
            .tenant_weights
            .lock()
            .unwrap()
            .insert(tenant.to_string(), weight.max(0.01));
    }

    /// Swaps the fault model of *every* link — live and future — at
    /// runtime: the fleet-wide "the network was repaired / degraded"
    /// knob. In-flight chunk transmissions finish under the old model;
    /// subsequent ones use the new one. For a single pair, use
    /// [`Runtime::set_link_fault_profile`].
    pub fn set_fault_profile(&self, profile: FaultProfile) {
        self.inner.registry.set_fault_profile_all(profile);
    }

    /// Swaps the fault model of one `(source, target)` pair's link
    /// (created if it does not exist yet), leaving every other link
    /// untouched.
    pub fn set_link_fault_profile(&self, source: &str, target: &str, profile: FaultProfile) {
        self.inner
            .registry
            .set_fault_profile(source, target, profile);
    }

    /// Declares one endpoint's preferred wire format and re-negotiates
    /// every live link touching it: a pair ships columnar only when both
    /// its endpoints prefer columnar, and falls back to XML text — the
    /// format every endpoint speaks — on any disagreement. In-flight
    /// shipments finish in their starting format (receivers sniff each
    /// frame); sessions planned afterwards use the new negotiation.
    pub fn set_endpoint_format(&self, endpoint: &str, format: WireFormat) {
        self.inner.registry.set_endpoint_format(endpoint, format);
    }

    /// A snapshot of the aggregate statistics so far, including the
    /// per-link rollups.
    pub fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }

    /// A copy of the structured event log so far.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.snapshot()
    }

    /// The surviving event window as JSONL, one object per line,
    /// joinable against [`Runtime::trace_jsonl`] by span/session id.
    pub fn events_jsonl(&self) -> String {
        self.inner.events.to_jsonl()
    }

    /// The surviving trace spans as chrome://tracing JSONL (one
    /// complete "X" event per line; load in a tracing viewer or join
    /// offline by the `args.span`/`args.parent` ids).
    pub fn trace_jsonl(&self) -> String {
        self.inner.trace.to_jsonl()
    }

    /// Every registered metric — counters, gauges, and the per-operator
    /// / per-link histograms — as Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        self.inner.refresh_metrics();
        self.inner.metrics.render()
    }

    /// Predicted-vs-observed cost-model calibration so far: per-operator
    /// ns-per-unit ratios with drift scores, plus per-format
    /// communication byte ratios.
    pub fn calibration_report(&self) -> CalibrationReport {
        self.inner.calibration.report()
    }

    /// The flight recorder's retained transition rings as JSONL, merged
    /// in time order — what the engine, timers, breakers and shedder
    /// were doing most recently.
    pub fn flight_jsonl(&self) -> String {
        self.inner.flight.to_jsonl()
    }

    /// Anomalies the flight recorder registered (session failures,
    /// breaker opens, shed-rate spikes, stall-watchdog fires) and the
    /// dump files it wrote.
    pub fn flight_anomalies(&self) -> (u64, u64) {
        (self.inner.flight.anomalies(), self.inner.flight.dumps())
    }

    /// Critical-path extraction over the finished span tree: for each
    /// session, where its wall time went across the named stages
    /// (queue → plan → compute → encode → wire → decode → stage →
    /// settle), plus per-route dominant-stage rollups.
    pub fn critical_path(&self) -> xdx_trace::CriticalPathReport {
        xdx_trace::critical_path(&self.inner.trace.snapshot())
    }

    /// Head version of the snapshot log for an endpoint + fragmentation
    /// pair — the feed version a target that just completed a session
    /// on this route holds, i.e. the `with_base_version` a follow-up
    /// delta session should declare. 0 means the route never completed
    /// a session.
    pub fn feed_version(
        &self,
        source_endpoint: &str,
        target_endpoint: &str,
        source_frag: &str,
        target_frag: &str,
    ) -> u64 {
        self.inner.snapshots.head(&route_key(
            source_endpoint,
            target_endpoint,
            source_frag,
            target_frag,
        ))
    }

    /// Stops admitting, drains the queue, joins the workers and returns
    /// the final statistics.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.close_and_join();
        self.inner.stats()
    }

    fn close_and_join(&mut self) {
        self.inner.queue.lock().unwrap().open = false;
        self.inner.available.notify_all();
        // Workers drain the fair queue *and* settle every parked
        // pipeline before exiting, so by the time they are joined the
        // engine holds no tasks and its driver exits on shutdown.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.inner.engine.shutdown();
        if let Some(driver) = self.engine_driver.take() {
            let _ = driver.join();
        }
        if let Some(mut server) = self.introspect.take() {
            server.shutdown();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// What a worker picked up: a parked exchange with batch results to
/// service, or a fresh session or publish group to start. Runnable work
/// drains first — finishing in-flight exchanges beats starting new
/// ones, and it is what bounds the parked map.
enum WorkItem {
    Service(SessionId),
    Job(Box<QueuedSession>),
    Publish(Box<PublishJob>),
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let work = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(sid) = queue.runnable.pop_front() {
                    break Some(WorkItem::Service(sid));
                }
                // New work only while the parked pool has room: beyond
                // the cap, arrivals wait in the admission queue, so
                // overload stays a visible backlog (sheddable when a
                // breaker opens) instead of unbounded in-flight state.
                let cap = inner.config.workers * inner.config.pipeline_sessions_per_worker;
                if inner.outstanding.load(Ordering::SeqCst) < cap {
                    if let Some(job) = queue.publish.pop_front() {
                        break Some(WorkItem::Publish(Box::new(job)));
                    }
                    if let Some(popped) = queue.fair.pop() {
                        break Some(WorkItem::Job(Box::new(popped.item)));
                    }
                }
                if !queue.open && inner.outstanding.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                queue = inner.available.wait(queue).unwrap();
            }
        };
        let Some(work) = work else { return };
        inner.busy_workers.fetch_add(1, Ordering::Relaxed);
        match work {
            WorkItem::Job(job) => {
                inner.admission.record_dequeue();
                inner.run_session(inner, *job);
            }
            WorkItem::Service(sid) => inner.service(inner, sid),
            WorkItem::Publish(job) => {
                inner.admission.record_dequeue();
                inner.run_publish(inner, *job);
            }
        }
        inner.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Inner {
    /// Queues `request` as session `id` (fresh or resumed), or hands the
    /// request back with the refusal (boxed: the request embeds a whole
    /// source database, too big for an inline `Err`).
    fn enqueue(
        &self,
        request: ExchangeRequest,
        id: SessionId,
        resumed: bool,
        plan: Option<Arc<CachedPlan>>,
    ) -> Result<SessionHandle, Box<(SubmitError, ExchangeRequest)>> {
        let tenant = request.tenant_label();
        let mut queue = self.queue.lock().unwrap();
        if !queue.open {
            return Err(Box::new((SubmitError::ShutDown, request)));
        }
        let depth = queue.fair.len();
        if depth >= self.config.max_queue_depth {
            drop(queue);
            self.agg.lock().unwrap().rejected += 1;
            self.events.push(
                id,
                NO_SPAN,
                EventKind::Rejected,
                format!("{}: queue full", request.name),
            );
            return Err(Box::new((
                SubmitError::QueueFull {
                    depth: self.config.max_queue_depth,
                    retry_after: self.admission.retry_after(depth),
                },
                request,
            )));
        }
        // Deadline shedding at admission: when the estimator already
        // knows the turnaround cannot beat the deadline, refuse now —
        // the session would only be shed at dequeue after occupying a
        // queue slot. A cold estimator returns None and we admit
        // optimistically. Resumed sessions carry no deadline, so they
        // are never shed here.
        if let Some(deadline) = request.deadline {
            let estimated = self.admission.estimated_turnaround(
                depth,
                self.config.workers,
                self.calibration.global_ns_per_unit(),
            );
            if let Some(estimated) = estimated.filter(|est| *est > deadline) {
                drop(queue);
                {
                    let mut agg = self.agg.lock().unwrap();
                    agg.rejected += 1;
                    agg.shed_deadline += 1;
                }
                self.tenant_entry(&tenant, |t| t.shed += 1);
                self.flight.shed(|| {
                    format!(
                        "{}: deadline {deadline:?} unattainable (estimated {estimated:?})",
                        request.name
                    )
                });
                self.events.push(
                    id,
                    NO_SPAN,
                    EventKind::Shed,
                    format!(
                        "{}: deadline {deadline:?} unattainable (estimated {estimated:?})",
                        request.name
                    ),
                );
                return Err(Box::new((
                    SubmitError::DeadlineUnattainable {
                        deadline,
                        estimated,
                        retry_after: self.admission.retry_after(depth),
                    },
                    request,
                )));
            }
        }
        // The root span is allocated at admission so every child span
        // and correlated event can point at it; it is recorded (with
        // its true duration) when the session reaches a terminal state.
        let root_span = self.trace.allocate_id();
        let shared = SessionShared::new(id, request.name.clone(), request.deadline, root_span);
        let kind = if resumed {
            EventKind::Resumed
        } else {
            EventKind::Submitted
        };
        self.events.push(
            id,
            root_span,
            kind,
            format!("{} ({:?})", request.name, request.priority),
        );
        self.agg.lock().unwrap().admitted += 1;
        self.tenant_entry(&tenant, |t| t.admitted += 1);
        let weight = self.tenant_weight(&tenant);
        let now = Instant::now();
        queue.fair.push(
            &tenant,
            weight,
            request.priority,
            self.next_seq.fetch_add(1, Ordering::Relaxed),
            now,
            QueuedSession {
                enqueued: now,
                resumed,
                request,
                plan,
                shared: Arc::clone(&shared),
            },
        );
        drop(queue);
        self.available.notify_one();
        Ok(SessionHandle { shared })
    }

    /// The weighted-fair share weight of `tenant` (1.0 unless set).
    fn tenant_weight(&self, tenant: &str) -> f64 {
        self.tenant_weights
            .lock()
            .unwrap()
            .get(tenant)
            .copied()
            .unwrap_or(1.0)
    }

    /// Applies `update` to `tenant`'s fairness counters, folding
    /// arrivals beyond [`MAX_TRACKED_TENANTS`] into the overflow bucket.
    fn tenant_entry(&self, tenant: &str, update: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenant_stats.lock().unwrap();
        let key = if map.contains_key(tenant) || map.len() < MAX_TRACKED_TENANTS {
            tenant
        } else {
            TENANT_OVERFLOW
        };
        update(map.entry(key.to_string()).or_default());
    }

    /// Deposits a failed session's checkpoint, evicting the oldest
    /// deposits beyond `max_resumables` — each checkpoint holds a full
    /// source database, so an unbounded map would defeat the soak's
    /// flat-RSS guarantee.
    fn remember_resumable(&self, id: SessionId, resumable: Resumable) {
        let mut evicted = 0u64;
        {
            let mut map = self.resumables.lock().unwrap();
            let stamp = self.resumable_clock.fetch_add(1, Ordering::Relaxed);
            map.insert(id, (stamp, resumable));
            while map.len() > self.config.max_resumables.max(1) {
                let oldest = map
                    .iter()
                    .min_by_key(|(_, (s, _))| *s)
                    .map(|(k, _)| *k)
                    .expect("non-empty over-cap map has an oldest entry");
                map.remove(&oldest);
                // An evicted checkpoint can never be resumed: release its
                // shipment buffers too, instead of letting them crowd
                // still-useful checkpoints out of the ledger.
                self.ledger.forget_session(oldest);
                evicted += 1;
                self.events.push(
                    oldest,
                    NO_SPAN,
                    EventKind::Shed,
                    "resumable checkpoint evicted (cap reached)",
                );
            }
        }
        if evicted > 0 {
            self.agg.lock().unwrap().resumables_evicted += evicted;
        }
    }

    /// Breaker feedback into the queue: when a route's breaker opens,
    /// its queued (non-resumed) sessions would only burn planning
    /// probes and retry budgets to learn what the breaker already
    /// knows — drain and shed them now. Resumed sessions stay queued:
    /// resume is the operator's probe and intentionally bypasses the
    /// breaker.
    fn shed_queued_route(&self, slot: &LinkSlot) {
        let pair = slot.pair();
        let drained = {
            let mut queue = self.queue.lock().unwrap();
            queue.fair.drain_matching(|qs: &QueuedSession| {
                !qs.resumed
                    && qs.request.source_endpoint == slot.source()
                    && qs.request.target_endpoint == slot.target()
            })
        };
        if drained.is_empty() {
            return;
        }
        let retry = slot
            .breaker
            .cooldown_remaining()
            .unwrap_or(self.config.breaker_cooldown);
        for qs in drained {
            let QueuedSession {
                enqueued,
                request,
                plan,
                shared,
                ..
            } = qs;
            let tenant = request.tenant_label();
            let metrics = SessionMetrics {
                queue_wait: enqueued.elapsed(),
                route: pair.clone(),
                tenant: tenant.clone(),
                ..SessionMetrics::default()
            };
            slot.counters.sessions_shed.fetch_add(1, Ordering::Relaxed);
            self.agg.lock().unwrap().shed_breaker += 1;
            self.tenant_entry(&tenant, |t| t.shed += 1);
            self.flight.shed(|| {
                format!(
                    "{}: drained from queue, circuit open on {pair}",
                    shared.name
                )
            });
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::Shed,
                format!(
                    "{}: drained from queue, circuit open on {pair}, retry in {retry:?}",
                    shared.name
                ),
            );
            self.remember_resumable(shared.id, Resumable { request, plan });
            self.finish(
                &shared,
                enqueued,
                SessionState::Failed,
                metrics,
                None,
                Some(format!("shed: circuit open on {pair}")),
            );
        }
    }

    fn stats(&self) -> RuntimeStats {
        // Lock order is queue → agg (enqueue holds the queue lock while
        // touching aggregates), so the queue depth and tenant tables are
        // read *before* taking the aggregate lock.
        let queue_depth = self.queue.lock().unwrap().fair.len();
        let tenants: Vec<TenantStats> = {
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
        let agg = self.agg.lock().unwrap();
        RuntimeStats {
            admitted: agg.admitted,
            rejected: agg.rejected,
            completed: agg.completed,
            failed: agg.failed,
            cancelled: agg.cancelled,
            resumed: agg.resumed,
            sessions_shed_expired: agg.shed_expired,
            sessions_shed_deadline: agg.shed_deadline,
            sessions_shed_breaker: agg.shed_breaker,
            resumables_evicted: agg.resumables_evicted,
            ledger_buffers_shed: self.ledger.buffers_shed(),
            queue_depth,
            tenants,
            plan_cache_hits: self.cache.hits(),
            plan_cache_misses: self.cache.misses(),
            plan_cache_expired: self.cache.expired(),
            plan_cache_stats_evicted: self.cache.stats_evicted(),
            plan_cache_drift_evicted: self.cache.drift_evicted(),
            planning_probes: agg.planning_probes,
            messages_serialized: agg.messages_serialized,
            bytes_shipped: agg.bytes_shipped,
            bytes_encoded: agg.bytes_encoded,
            encode_ns: agg.encode_ns,
            chunks_shipped: agg.chunks_shipped,
            chunks_resumed: agg.chunks_resumed,
            chunks_deduped: agg.chunks_deduped,
            chunks_retried: agg.chunks_retried,
            links: self.registry.snapshot(),
            peak_concurrent_shipments: self.registry.peak_concurrent_shipments(),
            latencies: agg.latencies.iter().copied().collect(),
            latency_histogram: self.latency_hist.snapshot(),
            dropped_events: self.events.dropped(),
            dropped_spans: self.trace.dropped(),
            delta_patch_bytes: agg.delta_patch_bytes,
            delta_patches_applied: agg.delta_patches_applied,
            delta_full_chosen: agg.delta_full_chosen,
            delta_full_fallbacks: agg.delta_full_fallbacks,
            delta_chain_composed: agg.delta_chain_composed,
            fanout_subscribers: agg.fanout_subscribers,
            multicast_encode_shared: agg.multicast_encode_shared,
            multicast_encode_fallback: agg.multicast_encode_fallback,
            ledger_entries_pruned: self.ledger.entries_pruned(),
        }
    }

    /// Re-emits every aggregate counter, per-link rollup and engine
    /// counter through the metrics registry, so one render carries the
    /// runtime's full state. Histograms are recorded live on the hot
    /// path; only the monotone counters and gauges are refreshed here.
    fn refresh_metrics(&self) {
        let stats = self.stats();
        let m = &self.metrics;
        for (name, value) in [
            ("xdx_sessions_admitted_total", stats.admitted),
            ("xdx_sessions_rejected_total", stats.rejected),
            ("xdx_sessions_completed_total", stats.completed),
            ("xdx_sessions_failed_total", stats.failed),
            ("xdx_sessions_cancelled_total", stats.cancelled),
            ("xdx_sessions_resumed_total", stats.resumed),
            (
                "xdx_sessions_shed_expired_total",
                stats.sessions_shed_expired,
            ),
            (
                "xdx_sessions_shed_deadline_total",
                stats.sessions_shed_deadline,
            ),
            (
                "xdx_sessions_shed_breaker_total",
                stats.sessions_shed_breaker,
            ),
            ("xdx_resumables_evicted_total", stats.resumables_evicted),
            ("xdx_ledger_buffers_shed_total", stats.ledger_buffers_shed),
            ("xdx_plan_cache_hits_total", stats.plan_cache_hits),
            ("xdx_plan_cache_misses_total", stats.plan_cache_misses),
            ("xdx_plan_cache_expired_total", stats.plan_cache_expired),
            (
                "xdx_plan_cache_stats_evicted_total",
                stats.plan_cache_stats_evicted,
            ),
            (
                "xdx_plan_cache_drift_evicted_total",
                stats.plan_cache_drift_evicted,
            ),
            ("xdx_planning_probes_total", stats.planning_probes),
            ("xdx_messages_serialized_total", stats.messages_serialized),
            ("xdx_bytes_shipped_total", stats.bytes_shipped),
            ("xdx_bytes_encoded_total", stats.bytes_encoded),
            ("xdx_encode_ns_total", stats.encode_ns),
            ("xdx_chunks_shipped_total", stats.chunks_shipped),
            ("xdx_chunks_resumed_total", stats.chunks_resumed),
            ("xdx_chunks_deduped_total", stats.chunks_deduped),
            ("xdx_chunks_retried_total", stats.chunks_retried),
            ("xdx_events_dropped_total", stats.dropped_events),
            ("xdx_spans_dropped_total", stats.dropped_spans),
            ("xdx_delta_patch_bytes_total", stats.delta_patch_bytes),
            (
                "xdx_delta_patches_applied_total",
                stats.delta_patches_applied,
            ),
            ("xdx_delta_full_chosen_total", stats.delta_full_chosen),
            ("xdx_delta_full_fallbacks_total", stats.delta_full_fallbacks),
            ("xdx_delta_chain_composed_total", stats.delta_chain_composed),
            ("xdx_fanout_subscribers", stats.fanout_subscribers),
            ("xdx_multicast_encode_shared", stats.multicast_encode_shared),
            (
                "xdx_multicast_encode_fallback",
                stats.multicast_encode_fallback,
            ),
            (
                "xdx_ledger_entries_pruned_total",
                stats.ledger_entries_pruned,
            ),
        ] {
            m.counter(name).set(value);
        }
        m.gauge("xdx_queue_depth").set(stats.queue_depth as f64);
        // Batches in flight through the shipping engine right now — how
        // deep the pipeline actually runs.
        m.gauge("xdx_pipeline_depth")
            .set(self.engine.inflight() as f64);
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
        m.gauge("xdx_peak_concurrent_shipments")
            .set(stats.peak_concurrent_shipments as f64);
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
            let label = |base: &str| format!("{base}{{link=\"{pair}\"}}");
            m.counter(&label("xdx_link_wire_bytes_total"))
                .set(link.wire_bytes);
            m.counter(&label("xdx_link_bytes_encoded_total"))
                .set(link.bytes_encoded);
            m.counter(&label("xdx_link_encode_ns_total"))
                .set(link.encode_ns);
            m.counter(&label("xdx_link_chunks_shipped_total"))
                .set(link.chunks_shipped);
            m.counter(&label("xdx_link_chunks_retried_total"))
                .set(link.chunks_retried);
            m.counter(&label("xdx_link_sessions_completed_total"))
                .set(link.sessions_completed);
            m.counter(&label("xdx_link_sessions_failed_total"))
                .set(link.sessions_failed);
            m.counter(&label("xdx_link_sessions_shed_total"))
                .set(link.sessions_shed);
            m.counter(&label("xdx_link_busy_ns_total"))
                .set(link.busy.as_nanos() as u64);
            m.gauge(&label("xdx_link_utilization"))
                .set(if uptime > 0.0 {
                    link.busy.as_secs_f64() / uptime
                } else {
                    0.0
                });
            m.gauge(&label("xdx_link_breaker_open"))
                .set(if link.breaker_open { 1.0 } else { 0.0 });
            m.gauge(&label("xdx_link_peak_concurrent_shipments"))
                .set(link.peak_concurrent_shipments as f64);
            // Info-style gauge: which wire format the pair negotiated.
            m.gauge(&format!(
                "xdx_link_wire_format{{link=\"{pair}\",format=\"{}\"}}",
                format_name(link.wire_format)
            ))
            .set(1.0);
        }
        // Observability self-accounting: ring drops, flight-recorder
        // anomalies/dumps, and the engine stall watchdog. The watchdog
        // rides the metrics refresh (every scrape / stats call checks
        // it), so a wedged engine surfaces without a dedicated thread.
        m.gauge("xdx_dropped_spans").set(stats.dropped_spans as f64);
        m.gauge("xdx_dropped_events")
            .set(stats.dropped_events as f64);
        m.counter("xdx_flight_anomalies_total")
            .set(self.flight.anomalies());
        m.counter("xdx_flight_dumps_total").set(self.flight.dumps());
        let stalled = self.engine.stall_check(self.config.stall_threshold);
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
    fn introspect_reply(&self, path: &str) -> IntrospectReply {
        let ok = |content_type: &'static str, body: String| IntrospectReply {
            status: 200,
            content_type,
            body,
        };
        match path {
            "/" => ok(
                "text/plain",
                "/healthz\n/metrics\n/stats.json\n/traces\n/critical-path\n/calibration\n/flight\n"
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
            "/flight" => ok("application/x-ndjson", self.flight.to_jsonl()),
            _ => IntrospectReply {
                status: 404,
                content_type: "text/plain",
                body: "not found\n".into(),
            },
        }
    }

    /// Liveness verdict plus the evidence: the stall watchdog's reading,
    /// open breakers, queue depth and the flight recorder's anomaly
    /// tally. Unhealthy (HTTP 503) means the engine sits on an overdue
    /// deadline nobody is driving — sheds and breaker opens are load
    /// conditions, reported but not fatal.
    fn health_json(&self) -> (bool, String) {
        use crate::events::json_escape;
        let stalled = self.engine.stall_check(self.config.stall_threshold);
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

    /// Opens a lane at dequeue: resolves the pair's link (its negotiated
    /// wire format feeds the cost model and the plan-cache key, so
    /// placement sees the bytes the link will actually carry) and
    /// records the queue wait. Returns the lane and its wire format.
    #[allow(clippy::too_many_arguments)]
    fn open_lane(
        &self,
        shared: &Arc<SessionShared>,
        enqueued: Instant,
        (source_ep, target_ep): (&str, &str),
        (source_frag, target_frag): (&str, &str),
        tenant: String,
        format: Option<WireFormat>,
        queued_detail: String,
    ) -> (Lane, WireFormat) {
        let (slot, created) = self.registry.resolve(source_ep, target_ep);
        if created {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::LinkCreated,
                slot.pair(),
            );
        }
        let wire_format = format.unwrap_or_else(|| slot.wire_format());
        let metrics = SessionMetrics {
            queue_wait: enqueued.elapsed(),
            route: format!("{source_ep}→{target_ep}"),
            tenant,
            wire_format,
            ..SessionMetrics::default()
        };
        self.queue_wait_hist.record_duration_ns(metrics.queue_wait);
        self.trace.record(
            "queued",
            shared.id,
            shared.root_span,
            enqueued,
            metrics.queue_wait,
            queued_detail,
        );
        let lane = Lane {
            shared: Arc::clone(shared),
            slot,
            feed_route: route_key(source_ep, target_ep, source_frag, target_frag),
            metrics,
            target: Database::new(format!("{}-target", shared.name)),
            budget: Arc::new(AtomicI64::new(i64::from(self.config.shipping.retry_budget))),
            inflight: 0,
            cursor: 0,
            completed: 0,
            rollup: ShipRollup::default(),
            failure: None,
            decoded: BTreeMap::new(),
            next_stage_seq: 0,
            outcome: ExecOutcome::default(),
            write_walls: HashMap::new(),
            delivered: HashMap::new(),
            patched: false,
            settled: false,
        };
        (lane, wire_format)
    }

    /// The dequeue gates, before any planning work is spent on a lane:
    /// cancelled while queued; deadline expired while queued (shed
    /// before burning a statistics probe — the breaker is untouched, an
    /// expired deadline says nothing about link health); route breaker
    /// open (the session would only fail after a probe and a full retry
    /// budget). `probe` lanes — resumes, the operator's explicit
    /// recovery probe — bypass the breaker. Returns the terminal state
    /// and diagnostic of a gated lane, with its events and shed counters
    /// recorded; a `Failed` verdict is a shed the caller keeps resumable.
    fn dequeue_gate(&self, lane: &Lane, probe: bool) -> Option<(SessionState, String)> {
        let shared = &lane.shared;
        if shared.is_cancelled() {
            return Some((SessionState::Cancelled, "cancelled while queued".into()));
        }
        let (counter, why): (fn(&mut Aggregate) -> &mut u64, String) = if shared.deadline_exceeded()
        {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::DeadlineExceeded,
                "while queued",
            );
            (
                |agg| &mut agg.shed_expired,
                "deadline exceeded while queued: shed before planning".into(),
            )
        } else if !probe && lane.slot.breaker.is_open() {
            lane.slot
                .counters
                .sessions_shed
                .fetch_add(1, Ordering::Relaxed);
            (
                |agg| &mut agg.shed_breaker,
                format!("shed: circuit open on {}", lane.slot.pair()),
            )
        } else {
            return None;
        };
        self.events
            .push(shared.id, shared.root_span, EventKind::Shed, &why);
        *counter(&mut self.agg.lock().unwrap()) += 1;
        self.tenant_entry(&lane.metrics.tenant, |t| t.shed += 1);
        self.flight.shed(|| format!("{}: {why}", shared.name));
        Some((SessionState::Failed, why))
    }

    /// Runs one session on the calling worker thread from dequeue to
    /// *park* (`arc` is this same `Inner`, threaded through for the
    /// engine callbacks a parked exchange leaves behind).
    fn run_session(&self, arc: &Arc<Inner>, job: QueuedSession) {
        let QueuedSession {
            enqueued,
            resumed,
            request,
            plan: stored_plan,
            shared,
        } = job;
        let (mut lane, wire_format) = self.open_lane(
            &shared,
            enqueued,
            (&request.source_endpoint, &request.target_endpoint),
            (&request.source_frag.name, &request.target_frag.name),
            request.tenant_label(),
            request.wire_format,
            format!("priority {:?}", request.priority),
        );
        if let Some((state, why)) = self.dequeue_gate(&lane, resumed) {
            if state == SessionState::Failed {
                let plan = stored_plan;
                self.remember_resumable(shared.id, Resumable { request, plan });
            }
            self.finish(&shared, enqueued, state, lane.metrics, None, Some(why));
            return;
        }
        let delta_base = self.resolve_delta_base(&request, &mut lane);
        let versions = delta_base.as_ref().map(|&(b, h, _, _)| (b, h));
        let planned = self.plan_session(&request, &mut lane, wire_format, stored_plan, versions);
        let (plan, plan_shape) = match planned {
            Ok(planned) => planned,
            Err(why) => {
                self.finish(
                    &shared,
                    enqueued,
                    SessionState::Failed,
                    lane.metrics,
                    None,
                    Some(why),
                );
                return;
            }
        };
        if shared.is_cancelled() {
            let why = Some("cancelled after planning".into());
            self.finish(
                &shared,
                enqueued,
                SessionState::Cancelled,
                lane.metrics,
                None,
                why,
            );
            return;
        }
        if shared.deadline_exceeded() {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::DeadlineExceeded,
                "after planning",
            );
            let plan = Some(plan);
            self.remember_resumable(shared.id, Resumable { request, plan });
            let why = Some("deadline exceeded after planning".into());
            self.finish(
                &shared,
                enqueued,
                SessionState::Failed,
                lane.metrics,
                None,
                why,
            );
            return;
        }

        // Execute (Step 4): every cross-edge byte rides the shipping
        // engine on the lane's per-pair link, and the exchange parks
        // while its frames are on the wire. Writes are staged: a run
        // that dies mid-exchange rolls the target back.
        let group = self.open_group(wire_format, plan, plan_shape, vec![lane]);
        let mut ex = Exchange {
            id: shared.id,
            enqueued,
            request,
            billed: Counters::default(),
            lag_cap: usize::MAX,
            groups: vec![group],
            inbox: Arc::new(Mutex::new(Vec::new())),
        };
        // Delta path first, when eligible: the patch, if the cost model
        // prefers it, is shipment 0 and the full feeds stay home unless
        // the fallback ladder needs them.
        let ship_full = match delta_base {
            Some(base) => self.stage_delta(&mut ex, base),
            None => true,
        };
        if ship_full {
            self.run_source(arc, &mut ex, 0);
        }
        self.launch(arc, ex);
    }

    /// Delta eligibility: resolves the base snapshot for the request's
    /// declared target version as `(base, head, snapshot, composed)`. A
    /// missing (or aged-out, uncomposable) snapshot falls back to a full
    /// re-ship before planning, so the plan-cache key never embeds a
    /// version pair we cannot serve.
    fn resolve_delta_base(
        &self,
        request: &ExchangeRequest,
        lane: &mut Lane,
    ) -> Option<(u64, u64, Snapshot, bool)> {
        let base = request.base_version?;
        let (id, span, route) = (lane.shared.id, lane.shared.root_span, &lane.feed_route);
        // `reconstruct` serves a retained snapshot directly, or — when
        // the base aged out of the retention window — composes the
        // retained per-step patches v(i)→v(i+1) back up to it, so an old
        // subscriber still gets a delta instead of a full re-ship.
        let Some((snapshot, composed)) = self.snapshots.reconstruct(route, base) else {
            lane.metrics.delta_full_fallbacks += 1;
            self.events.push(
                id,
                span,
                EventKind::DeltaFellBack,
                format!("no snapshot v{base} for {route}: full re-ship"),
            );
            return None;
        };
        if composed {
            lane.metrics.delta_chain_composed += 1;
            self.events.push(
                id,
                span,
                EventKind::DeltaChainComposed,
                format!("base v{base} aged out: composed from retained step patches for {route}"),
            );
        }
        Some((base, self.snapshots.head(route) + 1, snapshot, composed))
    }

    /// Plans one session (Figure 2, Steps 2–3), consulting the shared
    /// cache — or, for a resumed session, replaying the checkpointed
    /// plan with zero probes and zero optimizer calls. Returns the plan
    /// and the shape half of its cache key (kept for calibration: drift
    /// is accounted per shape; `None` for a replayed plan). The `plan`
    /// span is recorded on failure too, so the trace accounts for where
    /// a failed session's wall time went.
    fn plan_session(
        &self,
        request: &ExchangeRequest,
        lane: &mut Lane,
        wire_format: WireFormat,
        stored_plan: Option<Arc<CachedPlan>>,
        versions: Option<(u64, u64)>,
    ) -> std::result::Result<(Arc<CachedPlan>, Option<u64>), String> {
        let shared = Arc::clone(&lane.shared);
        shared.set_state(SessionState::Planning);
        let plan_span = self.trace.allocate_id();
        self.events.push(
            shared.id,
            plan_span,
            EventKind::PlanningStarted,
            &shared.name,
        );
        let started = Instant::now();
        let metrics = &mut lane.metrics;
        let planned = match stored_plan {
            Some(plan) => {
                metrics.plan_cache_hit = true;
                self.events.push(
                    shared.id,
                    plan_span,
                    EventKind::PlanCacheHit,
                    "checkpointed plan replayed: zero probes",
                );
                Ok((plan, None))
            }
            None => {
                let optimizer = request.optimizer.unwrap_or(self.config.optimizer);
                let mut exchange = DataExchange::new(
                    &self.schema,
                    request.source_frag.clone(),
                    request.target_frag.clone(),
                )
                .with_optimizer(optimizer)
                .with_profiles(request.source_profile, request.target_profile)
                .with_wire_format(wire_format);
                exchange.w_comm = self.config.w_comm;
                metrics.planning_probes += 1;
                exchange
                    .probe(&request.source)
                    .map_err(|e| format!("statistics probe failed: {e}"))
                    .and_then(|model| {
                        let key = plan_key(
                            &request.source_frag,
                            &request.target_frag,
                            &model,
                            optimizer,
                            versions,
                        );
                        let (plan, hit) =
                            self.plan_cached(key, &model, || exchange.plan(&model))?;
                        metrics.plan_cache_hit = hit;
                        self.events.push(
                            shared.id,
                            plan_span,
                            if hit {
                                EventKind::PlanCacheHit
                            } else {
                                EventKind::PlanCacheMiss
                            },
                            format!("key {:016x}/{:016x}", key.shape, key.stats),
                        );
                        Ok((plan, Some(key.shape)))
                    })
            }
        };
        metrics.planning = started.elapsed();
        let detail = match &planned {
            Ok((plan, _)) => {
                // Feed the admission estimator: the plan's predicted
                // cost units, scaled by calibration's ns-per-unit, is
                // one of its two turnaround estimators.
                self.admission.record_plan_cost(plan.cost);
                self.planning_hist.record_duration_ns(metrics.planning);
                let hit = if metrics.plan_cache_hit {
                    "hit"
                } else {
                    "miss"
                };
                format!("cache {hit}, cost {:.1}", plan.cost)
            }
            Err(why) => why.clone(),
        };
        self.trace.record_with_id(
            plan_span,
            "plan",
            shared.id,
            shared.root_span,
            started,
            metrics.planning,
            detail,
        );
        planned
    }

    /// One plan-cache round trip: looks `key` up and, on a miss, runs
    /// `planner`, prices its program with `model` and caches it. Returns
    /// the shared plan and whether it was a hit.
    fn plan_cached(
        &self,
        key: PlanKey,
        model: &CostModel,
        planner: impl FnOnce() -> xdx_core::Result<(Program, f64)>,
    ) -> std::result::Result<(Arc<CachedPlan>, bool), String> {
        if let Some(cached) = self.cache.lookup(key) {
            return Ok((cached, true));
        }
        let (program, cost) = planner().map_err(|e| format!("planning failed: {e}"))?;
        let plan = CachedPlan::priced(&self.schema, model, program, cost);
        Ok((self.cache.insert(key, plan), false))
    }

    /// Starts a group's execution: allocates its exec span and marks
    /// every lane `Executing`.
    fn open_group(
        &self,
        wire_format: WireFormat,
        plan: Arc<CachedPlan>,
        plan_shape: Option<u64>,
        lanes: Vec<Lane>,
    ) -> Group {
        let exec_span = self.trace.allocate_id();
        for lane in &lanes {
            lane.shared.set_state(SessionState::Executing);
            self.events.push(
                lane.shared.id,
                exec_span,
                EventKind::ExecutionStarted,
                format!(
                    "estimated cost {:.1} via {} ({} lane(s))",
                    plan.cost,
                    lane.metrics.route,
                    lanes.len()
                ),
            );
        }
        Group {
            wire_format,
            plan,
            plan_shape,
            exec_span,
            exec_started: Instant::now(),
            ctx: wire_context(&lanes[0].shared, exec_span),
            ring: Vec::new(),
            floor: 0,
            stream_tables: None,
            lanes,
            decoded: HashMap::new(),
            snapshot: None,
            encodes: ShipRollup::default(),
            shared_reuse: 0,
            ring_fallbacks: 0,
            encode_buf: Vec::new(),
            patch: None,
        }
    }

    /// Starts one admitted 1→N publish group on this worker.
    ///
    /// Planning happens once per distinct wire format: the source is
    /// probed once, the k-site placement model prices target-side work
    /// × fanout and multicast-amortized shipping, and the plan lands in
    /// the shared cache under a fanout-tagged key. Each format becomes
    /// one [`Group`]: its source phase runs once and every frame is
    /// encoded *once* into the ring all of its lanes ship from — over
    /// their own links, with their own ledgers, retry budgets and
    /// breakers. Lanes settle independently: a broken subscriber fails
    /// (staying resumable as a two-site session replaying the group's
    /// plan, so its ledger acks line up) without stalling the healthy
    /// ones, and a lane trailing its group's fastest by more than
    /// `lag_cap` frames is dropped from the ring so the shared buffer
    /// stays bounded.
    fn run_publish(&self, arc: &Arc<Inner>, job: PublishJob) {
        let PublishJob {
            enqueued,
            request,
            shareds,
            group_span,
        } = job;
        let PublishRequest {
            name,
            source,
            source_frag,
            target_frag,
            source_endpoint,
            subscribers,
            priority,
            source_profile,
            target_profile,
            tenant,
            optimizer,
            wire_format,
            lag_cap,
        } = request;
        // What every lane's resume checkpoint is cut from: the publish
        // as a two-site request, target endpoint to be filled per lane.
        let template = ExchangeRequest {
            name,
            source,
            source_frag,
            target_frag,
            priority,
            source_profile,
            target_profile,
            deadline: None,
            source_endpoint,
            target_endpoint: String::new(),
            tenant,
            optimizer,
            wire_format,
            base_version: None,
        };
        // Lane setup: the same dequeue gates an ordinary session gets.
        // Gated lanes settle here; the group continues with whoever
        // survives.
        let mut lanes: Vec<(Lane, WireFormat)> = Vec::new();
        for (shared, subscriber) in shareds.iter().zip(&subscribers) {
            let checkpoint = || ExchangeRequest {
                name: shared.name.clone(),
                target_endpoint: subscriber.clone(),
                ..template.clone()
            };
            let (lane, format) = self.open_lane(
                shared,
                enqueued,
                (&template.source_endpoint, subscriber),
                (&template.source_frag.name, &template.target_frag.name),
                template
                    .tenant
                    .clone()
                    .unwrap_or_else(|| format!("{}→{subscriber}", template.source_endpoint)),
                template.wire_format,
                format!("publish group ({:?})", template.priority),
            );
            match self.dequeue_gate(&lane, false) {
                None => lanes.push((lane, format)),
                Some((state, why)) => {
                    if state == SessionState::Failed {
                        let request = checkpoint();
                        self.remember_resumable(
                            shared.id,
                            Resumable {
                                request,
                                plan: None,
                            },
                        );
                    }
                    self.finish(shared, enqueued, state, lane.metrics, None, Some(why));
                }
            }
        }
        let close_group = |detail: String| {
            self.trace.record_with_context(
                group_span,
                "publish-group",
                shareds[0].id,
                NO_SPAN,
                group_span,
                enqueued,
                enqueued.elapsed(),
                format!("{}: {detail}", template.name),
            );
        };
        if lanes.is_empty() {
            close_group("no live lanes".into());
            return;
        }
        let plans = match self.plan_publish(&template, &mut lanes) {
            Ok(plans) => plans,
            Err(why) => {
                for (lane, _) in lanes {
                    let why = Some(why.clone());
                    self.finish(
                        &lane.shared,
                        enqueued,
                        SessionState::Failed,
                        lane.metrics,
                        None,
                        why,
                    );
                }
                close_group(why);
                return;
            }
        };
        let mut ex = Exchange {
            id: lanes[0].0.shared.id,
            enqueued,
            request: template,
            billed: Counters::default(),
            lag_cap: lag_cap.max(1),
            groups: Vec::with_capacity(plans.len()),
            inbox: Arc::new(Mutex::new(Vec::new())),
        };
        for (format, plan) in plans {
            let (members, rest): (Vec<_>, Vec<_>) =
                lanes.into_iter().partition(|(_, f)| *f == format);
            lanes = rest;
            let members: Vec<Lane> = members.into_iter().map(|(lane, _)| lane).collect();
            ex.groups.push(self.open_group(format, plan, None, members));
        }
        for gi in 0..ex.groups.len() {
            self.run_source(arc, &mut ex, gi);
        }
        self.launch(arc, ex);
    }

    /// Plans a publish once per distinct wire format: one statistics
    /// probe for the whole group, then a k-site placement per format,
    /// cached under the fanout-tagged key so the next group with this
    /// shape plans for free. Returns the plans in first-subscriber
    /// order of their formats.
    fn plan_publish(
        &self,
        request: &ExchangeRequest,
        lanes: &mut [(Lane, WireFormat)],
    ) -> std::result::Result<Vec<(WireFormat, Arc<CachedPlan>)>, String> {
        for (lane, _) in lanes.iter() {
            lane.shared.set_state(SessionState::Planning);
        }
        let owner = Arc::clone(&lanes[0].0.shared);
        let plan_span = self.trace.allocate_id();
        self.events.push(
            owner.id,
            plan_span,
            EventKind::PlanningStarted,
            &request.name,
        );
        let started = Instant::now();
        let optimizer = request.optimizer.unwrap_or(self.config.optimizer);
        let mut exchange = DataExchange::new(
            &self.schema,
            request.source_frag.clone(),
            request.target_frag.clone(),
        )
        .with_optimizer(optimizer)
        .with_profiles(request.source_profile, request.target_profile)
        .with_wire_format(lanes[0].1);
        exchange.w_comm = self.config.w_comm;
        lanes[0].0.metrics.planning_probes = 1;
        let mut formats: Vec<WireFormat> = Vec::new();
        for (_, format) in lanes.iter() {
            if !formats.contains(format) {
                formats.push(*format);
            }
        }
        let planned = exchange
            .probe(&request.source)
            .map_err(|e| format!("statistics probe failed: {e}"))
            .and_then(|base_model| {
                let mut plans = Vec::with_capacity(formats.len());
                for format in formats {
                    let mut model = base_model.clone();
                    model.wire_format = format;
                    let fanout = lanes.iter().filter(|(_, f)| *f == format).count();
                    let key = plan_key_with_fanout(
                        &request.source_frag,
                        &request.target_frag,
                        &model,
                        optimizer,
                        None,
                        fanout,
                    );
                    let (plan, hit) = self.plan_cached(key, &model, || {
                        self.plan_ksite(&model, request, optimizer, fanout)
                    })?;
                    for (lane, _) in lanes.iter_mut().filter(|(_, f)| *f == format) {
                        lane.metrics.plan_cache_hit = hit;
                        self.events.push(
                            lane.shared.id,
                            plan_span,
                            if hit {
                                EventKind::PlanCacheHit
                            } else {
                                EventKind::PlanCacheMiss
                            },
                            format!("key {:016x}/{:016x} fanout {fanout}", key.shape, key.stats),
                        );
                    }
                    self.admission.record_plan_cost(plan.cost);
                    plans.push((format, plan));
                }
                Ok(plans)
            });
        let planning = started.elapsed();
        for (lane, _) in lanes.iter_mut() {
            lane.metrics.planning = planning;
        }
        let detail = match &planned {
            Ok(plans) => {
                self.planning_hist.record_duration_ns(planning);
                format!("{} format group(s) over {} lanes", plans.len(), lanes.len())
            }
            Err(why) => why.clone(),
        };
        self.trace.record_with_id(
            plan_span,
            "plan",
            owner.id,
            session_trace_id(&owner),
            started,
            planning,
            detail,
        );
        planned
    }

    /// K-site planning for a publish format group: enumerate orderings
    /// exactly as the two-site planner does, but place each one with
    /// the fanout-aware cost model (target work × k, multicast-
    /// amortized shipping). At `fanout ≤ 1` the k-site placers delegate
    /// to the two-site ones, so a single-subscriber publish reproduces
    /// the ordinary session's plan byte for byte.
    fn plan_ksite(
        &self,
        model: &CostModel,
        request: &ExchangeRequest,
        optimizer: Optimizer,
        fanout: usize,
    ) -> xdx_core::Result<(Program, f64)> {
        let gen =
            xdx_core::gen::Generator::new(&self.schema, &request.source_frag, &request.target_frag);
        match optimizer {
            Optimizer::Greedy => {
                let program = xdx_core::greedy::greedy_program(&gen, model)?;
                ksite_greedy(&self.schema, model, &program, fanout)
            }
            Optimizer::Optimal { ordering_cap } => {
                let orderings = match gen.enumerate_orderings(ordering_cap) {
                    Ok(orderings) if !orderings.is_empty() => orderings,
                    _ => vec![xdx_core::greedy::greedy_program(&gen, model)?],
                };
                let mut best: Option<(Program, f64)> = None;
                for program in &orderings {
                    let (placed, cost) = ksite_optimal(&self.schema, model, program, fanout)?;
                    if best.as_ref().map(|(_, b)| cost < *b).unwrap_or(true) {
                        best = Some((placed, cost));
                    }
                }
                best.ok_or(xdx_core::Error::Unplaceable {
                    detail: "no orderings to place".into(),
                })
            }
        }
    }

    /// The delta rung of the ladder: compute the head feeds locally over
    /// a loopback transport, diff them against the base snapshot in one
    /// Dewey merge pass, and — when the cost model prefers the patch
    /// over the full feeds — put the checksummed patch frame on the ring
    /// as shipment 0. Returns true when the full feeds must ship now
    /// instead (diff failed, or the patch would cost more).
    fn stage_delta(
        &self,
        ex: &mut Exchange,
        (base_version, head_version, snapshot, chain_composed): (u64, u64, Snapshot, bool),
    ) -> bool {
        let request = &mut ex.request;
        let group = &mut ex.groups[0];
        let lane = &mut group.lanes[0];
        let (id, exec_span) = (lane.shared.id, group.exec_span);
        let mut loopback = LoopbackTransport::new(group.wire_format);
        let mut head_db = Database::new(format!("{}-head", lane.shared.name));
        let head_outcome = match execute_with_transport(
            &self.schema,
            &request.source_frag,
            &request.target_frag,
            &group.plan.program,
            &mut request.source,
            &mut head_db,
            &mut loopback,
            None,
        ) {
            Ok(out) => out,
            Err(e) => {
                lane.failure = Some(e.to_string());
                return false;
            }
        };
        let patch =
            match diff_snapshots(&snapshot, &db_tables(&head_db), base_version, head_version) {
                Ok(patch) => patch,
                Err(e) => {
                    lane.metrics.delta_full_fallbacks += 1;
                    self.events.push(
                        id,
                        exec_span,
                        EventKind::DeltaFellBack,
                        format!("diff failed: {e}; full re-ship"),
                    );
                    return true;
                }
            };
        let steps = patch.step_count();
        let mut bytes = Vec::new();
        encode_patch_with_context_into(&mut bytes, &patch, group.wire_format, group.ctx);
        // A resumed patch session must re-ship frames byte-identical to
        // the failed run's — the ledger checkpoint hashes the message,
        // and a fresh encode embeds *this* run's trace context. Price
        // (and ship) the persisted bytes instead, exactly as feed
        // batches replay theirs. The patch is always shipment 0 (a
        // stored shipment 0 that is not a patch is a feed batch of a run
        // that chose the full ship — which this run will choose again).
        let stored = self.ledger.stored_message(id, 0);
        let bytes = stored.filter(|m| is_patch(m)).unwrap_or(bytes);
        let patch_cost = self.config.w_comm * bytes.len() as f64
            + PATCH_STEP_FACTOR * steps as f64 / request.target_profile.speed;
        let full_cost = self.config.w_comm * group.plan.comm_bytes as f64;
        if group.plan.comm_bytes > 0 && patch_cost >= full_cost {
            lane.metrics.delta_full_chosen += 1;
            self.events.push(
                id,
                exec_span,
                EventKind::DeltaFellBack,
                format!("patch cost {patch_cost:.1} ≥ full {full_cost:.1}: full ship"),
            );
            return true;
        }
        group.patch = Some(Box::new(PatchShip {
            base_version,
            head_version,
            snapshot,
            chain_composed,
            steps,
            bytes: bytes.len(),
            head_outcome,
        }));
        group.ring.push(Slot {
            label: "delta-patch".into(),
            port: None,
            feed: None,
            frame: Some(Arc::new(bytes)),
        });
        false
    }

    /// Absorb step of the delta patch: decode → staleness check →
    /// `stage_patch`, then commit and index. Any rejection (corrupt
    /// frame, stale version precondition, malformed steps) rolls the
    /// staged patch back and re-enters the feed-batch path at the next
    /// shipment seq — the fallback ladder.
    fn absorb_patch(&self, arc: &Arc<Inner>, ex: &mut Exchange, delivered: &[u8]) {
        let group = &mut ex.groups[0];
        let patch = *group.patch.take().expect("patch in flight");
        let lane = &mut group.lanes[0];
        let (id, exec_span) = (lane.shared.id, group.exec_span);
        let decode_started = Instant::now();
        let staged = decode_patch_ctx(delivered).and_then(|(decoded, rctx)| {
            if let Some(ctx) = rctx {
                // Receiver-side decode span, stitched from the frame's
                // propagated context.
                self.trace.record_with_context(
                    self.trace.allocate_id(),
                    "decode",
                    id,
                    ctx.parent_span,
                    ctx.trace_id,
                    decode_started,
                    decode_started.elapsed(),
                    format!("patch v{}→v{}", decoded.base_version, decoded.head_version),
                );
            }
            // An ordinary patch must be based on the route head (a
            // non-head base means the subscriber's precondition is
            // stale). A chain-composed patch is *deliberately* based
            // below the head; for it the precondition is that no
            // concurrent session advanced the route since planning.
            let head_now = self.snapshots.head(&lane.feed_route);
            let expected_head = if patch.chain_composed {
                patch.head_version - 1
            } else {
                decoded.base_version
            };
            if head_now != expected_head {
                return Err(xdx_relational::Error::SchemaMismatch {
                    detail: format!(
                        "stale patch: route head v{head_now} ≠ expected v{expected_head} \
                         (patch base v{})",
                        decoded.base_version
                    ),
                });
            }
            stage_patch(&patch.snapshot, &decoded, &mut lane.target)
        });
        match staged {
            Ok(_) => {
                let rows = lane.target.commit_staged();
                if let Err(e) = lane.target.build_all_key_indexes() {
                    lane.failure = Some(e.to_string());
                    return;
                }
                lane.metrics.delta_patch_bytes += patch.bytes as u64;
                lane.metrics.delta_patches_applied += 1;
                self.events.push(
                    id,
                    exec_span,
                    EventKind::DeltaApplied,
                    format!(
                        "v{}→v{}: {} steps, {} bytes, {rows} rows",
                        patch.base_version, patch.head_version, patch.steps, patch.bytes
                    ),
                );
                let wire = lane.outcome.times.communication;
                lane.outcome = patch.head_outcome;
                lane.outcome.times.communication = wire;
                lane.outcome.messages = 1;
                lane.outcome.rows_loaded = rows;
                lane.patched = true;
            }
            Err(e) => {
                lane.target.rollback_staged();
                lane.metrics.delta_full_fallbacks += 1;
                self.events.push(
                    id,
                    exec_span,
                    EventKind::DeltaFellBack,
                    format!("patch rejected: {e}; full re-ship"),
                );
                // The patch consumed seq 0; feed batches stage from 1.
                lane.next_stage_seq = 1;
                self.run_source(arc, ex, 0);
            }
        }
    }

    /// Runs a group's source half on this worker, streaming each
    /// cross-edge feed onto the ring *the moment its producing operator
    /// completes* — frame `k` rides the wire while later source
    /// operators still compute. Batches number on from whatever the
    /// ring already holds (a rejected patch holds seq 0). A source
    /// failure fails every lane of the group; batches already on the
    /// wire drain before they settle.
    fn run_source(&self, arc: &Arc<Inner>, ex: &mut Exchange, gi: usize) {
        let Exchange {
            id,
            request,
            groups,
            inbox,
            lag_cap,
            ..
        } = ex;
        let group = &mut groups[gi];
        let plan = Arc::clone(&group.plan);
        // Cross ports in first-consumer order, each feed split into
        // batches in Dewey order: overlapping the wire with the source
        // phase changes *when* a frame ships, never its seq or bytes.
        let cross = cross_ports_in_consumer_order(&self.schema, &plan.program);
        let batch_rows = self.config.batch_rows;
        let queue = |ring: &mut Vec<Slot>, c: &CrossPort, feed: &Feed| {
            ring.extend(
                feed_batches(feed, batch_rows)
                    .into_iter()
                    .map(|batch| Slot {
                        label: c.label.clone(),
                        port: Some(c.port),
                        feed: Some(batch),
                        frame: None,
                    }),
            );
        };
        // Leading cross ports (consumer order) already on the ring.
        let mut streamed = 0usize;
        let source = execute_source_phase_streaming(
            &self.schema,
            &request.source_frag,
            &request.target_frag,
            &plan.program,
            &mut request.source,
            None,
            &mut |feeds| {
                // A cross feed is final the instant its producer runs —
                // downstream source operators only read it. Flush the
                // maximal *ready prefix* so seqs stay in consumer order,
                // then top the engine up: the wire carries these frames
                // while the rest of the source phase computes.
                while let Some(c) = cross.get(streamed) {
                    let Some(feed) = feeds.get(&c.port) else {
                        break;
                    };
                    queue(&mut group.ring, c, feed);
                    streamed += 1;
                }
                self.pump(arc, (*id, gi), inbox, group, *lag_cap);
            },
        );
        let failure = match source {
            Ok((phase, outcome)) => {
                // Stragglers the prefix rule held back (a port whose
                // producer finished after a still-pending predecessor)
                // batch now, in the same consumer order.
                let mut missing = None;
                for c in cross.iter().skip(streamed) {
                    match phase.feeds.get(&c.port) {
                        Some(feed) => queue(&mut group.ring, c, feed),
                        None => {
                            missing = Some(format!("missing feed for port {:?}", c.port));
                            break;
                        }
                    }
                }
                // The group's one source phase bills to its first lane.
                group.lanes[0].outcome = outcome;
                group.stream_tables = writes_stream_directly(&plan.program)
                    .then(|| direct_write_tables(&plan.program, &request.target_frag));
                missing
            }
            Err(e) => Some(e.to_string()),
        };
        if let Some(why) = failure {
            for lane in &mut group.lanes {
                lane.failure.get_or_insert(why.clone());
            }
        }
    }

    /// Hands a started exchange to the scheduler: tops its windows up
    /// and *parks* it — the worker returns to the queue while the frames
    /// drain, and batch completions wake whichever worker is free next
    /// via the runnable queue. An exchange with nothing on the wire (no
    /// cross edges, or a failure before the first frame) settles here.
    fn launch(&self, arc: &Arc<Inner>, mut ex: Exchange) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        if self.advance(arc, &mut ex) {
            return;
        }
        let (sid, inbox) = (ex.id, Arc::clone(&ex.inbox));
        self.parked.lock().unwrap().insert(sid, ex);
        // A batch that completed before the exchange reached the map had
        // its runnable wakeup consumed as a no-op — re-arm it.
        if !inbox.lock().unwrap().is_empty() {
            self.queue.lock().unwrap().runnable.push_back(sid);
            self.available.notify_all();
        }
    }

    /// Services a parked exchange: absorbs every deposited batch result,
    /// refills the submission windows, settles drained lanes, and either
    /// re-parks the exchange or retires it. The exchange is *removed*
    /// from the map while serviced, so two workers can never service it
    /// at once; stale runnable entries for an absent exchange are no-ops.
    fn service(&self, arc: &Arc<Inner>, sid: SessionId) {
        loop {
            let Some(mut ex) = self.parked.lock().unwrap().remove(&sid) else {
                return;
            };
            let results = std::mem::take(&mut *ex.inbox.lock().unwrap());
            for (gi, li, result) in results {
                self.absorb(arc, &mut ex, gi, li, result);
            }
            if self.advance(arc, &mut ex) {
                return;
            }
            let inbox = Arc::clone(&ex.inbox);
            self.parked.lock().unwrap().insert(sid, ex);
            // A result deposited while the exchange was out of the map
            // consumed its wakeup against the empty map — service it now
            // instead of stranding a parked exchange. (Batches remain in
            // flight here, so the exchange cannot have been retired.)
            if inbox.lock().unwrap().is_empty() {
                return;
            }
        }
    }

    /// Moves every group forward: refill the lanes' windows from the
    /// ring, settle each lane the moment it drains — healthy lanes
    /// commit and report without waiting for the group's stragglers —
    /// and retire the exchange with its last lane. Returns true when it
    /// retired.
    fn advance(&self, arc: &Arc<Inner>, ex: &mut Exchange) -> bool {
        for gi in 0..ex.groups.len() {
            self.pump(arc, (ex.id, gi), &ex.inbox, &mut ex.groups[gi], ex.lag_cap);
            for li in 0..ex.groups[gi].lanes.len() {
                let group = &ex.groups[gi];
                if !group.lanes[li].settled && group.lanes[li].drained(group.ring.len()) {
                    self.settle(ex, gi, li);
                }
            }
        }
        let retired = ex.groups.iter().all(|g| g.lanes.iter().all(|l| l.settled));
        if retired {
            self.retire(ex);
        }
        retired
    }

    /// Keeps every live lane's submission window full from the ring: up
    /// to `pipeline_depth` batches in flight per lane, so frame `k+1` is
    /// encoded while frame `k` rides the wire. Then enforces the lag cap
    /// and releases the frames every live lane has moved past.
    fn pump(
        &self,
        arc: &Arc<Inner>,
        (sid, gi): (SessionId, usize),
        inbox: &Inbox,
        group: &mut Group,
        lag_cap: usize,
    ) {
        for li in 0..group.lanes.len() {
            loop {
                let lane = &group.lanes[li];
                if lane.settled
                    || lane.failure.is_some()
                    || lane.inflight >= self.config.pipeline_depth
                    || lane.cursor >= group.ring.len()
                {
                    break;
                }
                let (seq, lane_id) = (lane.cursor, lane.shared.id);
                // Checkpoint replay first: a resumed lane re-ships the
                // exact bytes the failed run built; only a ledger miss
                // takes the ring's frame.
                let message = match self.ledger.stored_message(lane_id, seq as u64) {
                    Some(stored) => Arc::new(stored),
                    None => self.frame(group, li, seq),
                };
                let lane = &mut group.lanes[li];
                lane.inflight += 1;
                lane.cursor += 1;
                lane.shared.set_state(SessionState::Shipping);
                let (inbox, waker) = (Arc::clone(inbox), Arc::clone(arc));
                self.engine.submit(ShipRequest {
                    session: Arc::clone(&lane.shared),
                    slot: Arc::clone(&lane.slot),
                    seq: seq as u64,
                    label: group.ring[seq].label.clone(),
                    message,
                    policy: self.config.shipping,
                    budget: Arc::clone(&lane.budget),
                    parent_span: group.exec_span,
                    on_done: Box::new(move |result| {
                        // Deposit the result, then make the exchange
                        // runnable — strictly in that order, and the
                        // runnable queue lives inside the queue lock, so
                        // a worker that saw the wakeup always finds the
                        // result.
                        inbox.lock().unwrap().push((gi, li, result));
                        waker.queue.lock().unwrap().runnable.push_back(sid);
                        waker.available.notify_all();
                    }),
                });
            }
        }
        // Lag cap: a lane trailing the group's fastest by more than the
        // cap is ejected from the shared ring (it fails with a
        // diagnostic and stays resumable as its own two-site re-ship),
        // so one stuck target can neither stall the others nor grow the
        // ring without bound.
        let live = |l: &&mut Lane| !l.settled && l.failure.is_none();
        let lead = group.lanes.iter().map(|l| l.completed).max().unwrap_or(0);
        for lane in group.lanes.iter_mut().filter(live) {
            let lag = lead - lane.completed;
            if lag > lag_cap {
                group.ring_fallbacks += 1;
                let why = format!("fell {lag} frames behind the publish group (cap {lag_cap})");
                self.flight.shed(|| format!("{}: {why}", lane.shared.name));
                self.events.push(
                    lane.shared.id,
                    group.exec_span,
                    EventKind::Shed,
                    format!("{why}: dropped to per-subscriber re-ship"),
                );
                lane.failure = Some(why);
            }
        }
        let floor = group
            .lanes
            .iter_mut()
            .filter(live)
            .map(|l| l.cursor)
            .min()
            .unwrap_or(group.ring.len());
        for slot in group.ring.iter_mut().take(floor).skip(group.floor) {
            slot.feed = None;
            slot.frame = None;
        }
        group.floor = group.floor.max(floor);
    }

    /// The wire message of ring slot `seq`, encoded by the first lane to
    /// need it: encode → tally → `encode` span → SOAP-wrap with the
    /// context label. A sole lane bills the encode to its own metrics; a
    /// shared ring bills the group, once, however many lanes ship it.
    fn frame(&self, group: &mut Group, li: usize, seq: usize) -> Arc<Vec<u8>> {
        let lanes = group.lanes.len();
        let slot = &mut group.ring[seq];
        if let Some(frame) = &slot.frame {
            group.shared_reuse += u64::from(lanes > 1);
            return Arc::clone(frame);
        }
        let feed = slot.feed.take().expect("an unencoded slot holds its batch");
        let start = Instant::now();
        // Trace context rides the shipment: columnar frames carry it in
        // their header extension, XML text in the SOAPAction label —
        // either way every receiver stitches its decode/stage spans
        // under the group's exec span.
        let len = encode_in_format_with_context_into(
            &mut group.encode_buf,
            &feed,
            group.wire_format,
            group.ctx,
        );
        let ns = start.elapsed().as_nanos() as u64;
        let session = group.lanes[li].shared.id;
        let first = &mut group.lanes[0];
        let tally = if lanes == 1 {
            &mut first.rollup
        } else {
            &mut group.encodes
        };
        tally.messages_serialized += 1;
        tally.bytes_encoded += len as u64;
        tally.encode_ns += ns;
        let counters = &first.slot.counters;
        counters
            .bytes_encoded
            .fetch_add(len as u64, Ordering::Relaxed);
        counters.encode_ns.fetch_add(ns, Ordering::Relaxed);
        self.encode_hist.record(ns);
        self.trace.record(
            "encode",
            session,
            group.exec_span,
            start,
            Duration::from_nanos(ns),
            format!("{len} bytes for {lanes} lane(s)"),
        );
        let soap_label = match (group.wire_format, group.ctx) {
            (WireFormat::Xml, Some(ctx)) => label_with_context(&slot.label, ctx),
            _ => slot.label.clone(),
        };
        let frame = Arc::new(
            Request::soap_post("/exchange", &soap_label, group.encode_buf.clone()).to_bytes(),
        );
        slot.frame = Some(Arc::clone(&frame));
        frame
    }

    /// Folds one completed batch into its lane: shipping tallies always;
    /// on delivery, decode and stage in shipment order; on failure,
    /// record the first diagnostic, which stops the lane's pump.
    fn absorb(
        &self,
        arc: &Arc<Inner>,
        ex: &mut Exchange,
        gi: usize,
        li: usize,
        result: BatchResult,
    ) {
        let group = &mut ex.groups[gi];
        let lane = &mut group.lanes[li];
        lane.inflight -= 1;
        lane.completed += 1;
        let stats = result.stats;
        lane.rollup.wire_bytes += stats.wire_bytes;
        lane.rollup.chunks_shipped += stats.chunks_shipped;
        lane.rollup.chunks_resumed += stats.chunks_resumed;
        lane.rollup.chunks_deduped += stats.chunks_deduped;
        lane.rollup.chunks_retried += stats.chunks_retried;
        lane.rollup.retry_backoff += stats.retry_backoff;
        let delivered = match result.outcome {
            Ok(delivered) => delivered,
            Err(e) => {
                lane.rollup.link_gave_up |= result.link_gave_up;
                lane.failure.get_or_insert(e);
                return;
            }
        };
        lane.outcome.times.communication += result.elapsed;
        lane.outcome.messages += 1;
        if group.patch.is_some() && result.seq == 0 {
            self.absorb_patch(arc, ex, &delivered);
            return;
        }
        // Decode what actually arrived — link damage surfaces as an
        // explicit error here.
        let feed = match self.decode_once(group, li, result.seq, &delivered) {
            Ok(feed) => feed,
            Err(e) => {
                group.lanes[li]
                    .failure
                    .get_or_insert(format!("batch {} corrupt: {e}", result.seq));
                return;
            }
        };
        let lane = &mut group.lanes[li];
        lane.decoded.insert(result.seq, feed);
        let stage_started = Instant::now();
        let staged_from = lane.next_stage_seq;
        if let Err(e) = stage_ready(lane, group.stream_tables.as_ref(), &group.ring) {
            lane.failure.get_or_insert(e);
        }
        let staged = lane.next_stage_seq - staged_from;
        if staged > 0 {
            self.trace.record_with_context(
                self.trace.allocate_id(),
                "stage",
                lane.shared.id,
                group.exec_span,
                session_trace_id(&lane.shared),
                stage_started,
                stage_started.elapsed(),
                format!("{staged} batch(es) from seq {staged_from}"),
            );
        }
    }

    /// Parses a delivered batch — once per group: every lane receives
    /// byte-identical frames, so the first absorber decodes (its `decode`
    /// span stitches under the trace context the frame, or the
    /// SOAPAction label for XML text, carries) and later lanes get a
    /// clone. The decode bill, like the encode bill, is per *frame*.
    fn decode_once(
        &self,
        group: &mut Group,
        li: usize,
        seq: u64,
        delivered: &[u8],
    ) -> std::result::Result<Feed, String> {
        use std::collections::hash_map::Entry;
        let vacant = match group.decoded.entry(seq) {
            Entry::Occupied(mut cached) => {
                cached.get_mut().1 -= 1;
                return Ok(if cached.get().1 == 0 {
                    cached.remove().0
                } else {
                    cached.get().0.clone()
                });
            }
            Entry::Vacant(vacant) => vacant,
        };
        let decode_started = Instant::now();
        let arrived = Request::parse(delivered).map_err(|e| e.to_string())?;
        let (feed, ctx) = decode_any_ctx(&arrived.body).map_err(|e| e.to_string())?;
        let shared = &group.lanes[li].shared;
        let (parent, trace_id) = ctx
            .or_else(|| soap_action_context(&arrived))
            .map_or((group.exec_span, session_trace_id(shared)), |c| {
                (c.parent_span, c.trace_id)
            });
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "decode",
            shared.id,
            parent,
            trace_id,
            decode_started,
            decode_started.elapsed(),
            format!("batch {seq}"),
        );
        if group.lanes.len() > 1 {
            vacant.insert((feed.clone(), group.lanes.len() - 1));
        }
        Ok(feed)
    }

    /// The target half of a drained lane: direct-write plans have every
    /// batch staged already — one `Write` sample per node, then the
    /// commit+index epilogue; general plans run the target phase over
    /// the delivered feeds. A failure rolls every staged batch back —
    /// the target leaves exactly as it arrived, never torn.
    fn finish_target(
        &self,
        request: &ExchangeRequest,
        program: &Program,
        direct_writes: bool,
        lane: &mut Lane,
    ) -> std::result::Result<(), String> {
        if let Some(why) = lane.failure.take() {
            lane.target.rollback_staged();
            return Err(why);
        }
        if lane.patched {
            return Ok(());
        }
        if !direct_writes {
            return execute_target_phase(
                &self.schema,
                &request.source_frag,
                &request.target_frag,
                program,
                &mut lane.target,
                &lane.delivered,
                &mut lane.outcome,
            )
            .map_err(|e| e.to_string());
        }
        let mut walls: Vec<_> = lane.write_walls.drain().collect();
        walls.sort_unstable_by_key(|&(node, _)| node);
        for (node, (started, wall)) in walls {
            lane.outcome.op_samples.push(OpSample {
                node,
                op: "Write",
                location: Location::Target,
                started,
                wall,
            });
        }
        commit_and_index(program, &mut lane.target, &mut lane.outcome).map_err(|e| e.to_string())
    }

    /// Settles one drained lane into its terminal state: runs its target
    /// half, folds the shipping rollup into its metrics, records its
    /// spans, then commits (calibration, snapshot, ledger release) or
    /// rolls back (breaker, resume checkpoint). Every lane of every
    /// exchange ends here; what differs between a two-site session and a
    /// multicast lane is data — how many lanes share the ring, and
    /// whether the lane's root hangs off a publish-group span.
    fn settle(&self, ex: &mut Exchange, gi: usize, li: usize) {
        let unsettled = |groups: &[Group]| {
            groups
                .iter()
                .flat_map(|g| &g.lanes)
                .filter(|l| !l.settled)
                .count()
        };
        let last_of_exchange = unsettled(&ex.groups) == 1;
        let last_of_group = unsettled(&ex.groups[gi..=gi]) == 1;
        let enqueued = ex.enqueued;
        let request = &mut ex.request;
        let Group {
            lanes,
            plan,
            plan_shape,
            snapshot,
            wire_format,
            exec_span,
            exec_started,
            stream_tables,
            ..
        } = &mut ex.groups[gi];
        let (exec_span, fanout) = (*exec_span, lanes.len());
        let (owner_id, owner_root) = (lanes[0].shared.id, session_trace_id(&lanes[0].shared));
        let lane = &mut lanes[li];
        lane.settled = true;
        let finished = self.finish_target(request, &plan.program, stream_tables.is_some(), lane);
        let settle_started = Instant::now();
        let shared = Arc::clone(&lane.shared);
        let trace_id = session_trace_id(&shared);
        let mut metrics = std::mem::take(&mut lane.metrics);
        let target = std::mem::take(&mut lane.target);
        let ship = lane.rollup;
        metrics.retry_backoff = ship.retry_backoff;
        metrics.messages_serialized = ship.messages_serialized as usize;
        metrics.bytes_shipped = ship.wire_bytes;
        metrics.bytes_encoded = ship.bytes_encoded;
        metrics.encode_ns = ship.encode_ns;
        metrics.chunks_shipped = ship.chunks_shipped;
        metrics.chunks_resumed = ship.chunks_resumed;
        metrics.chunks_deduped = ship.chunks_deduped;
        metrics.chunks_retried = ship.chunks_retried;
        if li == 0 {
            // The group's source half bills to its first lane: whatever
            // the source database accumulated since the last bill.
            metrics.source_counters = counters_delta(request.source.counters, ex.billed);
            ex.billed = request.source.counters;
        }
        metrics.target_counters = target.counters;
        let verdict = if finished.is_ok() { "ok" } else { "failed" };
        let format = format_name(*wire_format);
        if shared.root_parent != NO_SPAN {
            // A multicast lane's own container under the group's exec
            // span.
            self.trace.record(
                "lane",
                shared.id,
                exec_span,
                *exec_started,
                exec_started.elapsed(),
                format!("{verdict} → {} [{format}]", lane.slot.target()),
            );
        }
        if last_of_group {
            // The group's exec span — parent of every lane's shipping,
            // decode and stage work — hangs off the trace root: the
            // session's own root span, or the publish-group span.
            self.trace.record_with_context(
                exec_span,
                "exec",
                owner_id,
                owner_root,
                owner_root,
                *exec_started,
                exec_started.elapsed(),
                format!("{fanout} lane(s) [{format}], last {verdict}"),
            );
        }
        if let Err(why) = finished {
            // The lane resumes as an ordinary two-site session replaying
            // this group's plan: identical program → identical shipment
            // seqs and bytes, so its ledger's acknowledged frames are
            // skipped. The exchange's last lane takes the source
            // database; earlier ones copy it.
            let mut checkpoint = if last_of_exchange {
                ExchangeRequest {
                    source: std::mem::take(&mut request.source),
                    ..request.clone()
                }
            } else {
                request.clone()
            };
            checkpoint.name = shared.name.clone();
            checkpoint.target_endpoint = lane.slot.target().to_string();
            let resumable = Resumable {
                request: checkpoint,
                plan: Some(Arc::clone(plan)),
            };
            let span = (exec_span, settle_started);
            let link_gave_up = ship.link_gave_up;
            let slot = Arc::clone(&lane.slot);
            self.settle_rolled_back(
                &shared,
                &slot,
                enqueued,
                metrics,
                target,
                why,
                link_gave_up,
                resumable,
                span,
            );
            return;
        }
        let outcome = std::mem::take(&mut lane.outcome);
        metrics.communication = outcome.times.communication;
        metrics.messages = outcome.messages;
        metrics.rows_loaded = outcome.rows_loaded;
        // How much of the lane's wall the wire hid: feeds the admission
        // estimator's turnaround model, so queue-wait predictions
        // reflect pipelined (not serial) service.
        let wall = exec_started.elapsed();
        let exposed = wall
            .saturating_sub(metrics.communication)
            .max(Duration::from_micros(1));
        self.admission
            .record_overlap(wall.as_secs_f64() / exposed.as_secs_f64());
        let mut observed_ns = self.record_ops(shared.id, exec_span, format, plan, &outcome);
        // A lane that encoded its own frames calibrates the wire model;
        // lanes of a shared ring did not encode, so they do not.
        if fanout == 1 && (plan.comm_bytes > 0 || ship.bytes_encoded > 0) {
            self.calibration.record_comm(
                format,
                plan.comm_bytes,
                ship.bytes_encoded,
                metrics.communication.as_nanos() as u64,
            );
        }
        // Session-level drift: observed time (operators plus the
        // simulated wire, which inflates under link faults) against the
        // plan's total predicted cost. A sustained excursion evicts the
        // shape's cached plan so the next session re-plans under fresh
        // statistics.
        observed_ns += metrics.communication.as_nanos() as u64;
        if let Some(shape) = *plan_shape {
            if self
                .calibration
                .observe_session(shape, plan.cost, observed_ns)
            {
                let evicted = self.cache.evict_drifted(shape);
                self.events.push(
                    shared.id,
                    shared.root_span,
                    EventKind::PlanDriftEvicted,
                    format!(
                        "shape {shape:016x}: sustained cost-model drift{}",
                        if evicted {
                            ", cached plan evicted"
                        } else {
                            " (no cached plan)"
                        }
                    ),
                );
            }
        }
        // Advance the route's versioned feed log: the committed target
        // feeds become the snapshot the next delta session diffs
        // against. Every lane of a group commits identical content, so
        // the first to settle snapshots and the rest share the `Arc`.
        let snapshot_started = Instant::now();
        let tables = Arc::clone(snapshot.get_or_insert_with(|| Arc::new(db_tables(&target))));
        self.snapshots.record_shared(&lane.feed_route, tables);
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "snapshot",
            shared.id,
            exec_span,
            trace_id,
            snapshot_started,
            snapshot_started.elapsed(),
            format!("route {} advanced", lane.feed_route),
        );
        // The checkpoint served its purpose; drop it.
        self.ledger.forget_session(shared.id);
        let slot = &lane.slot;
        slot.counters
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        if let Some(BreakerTransition::Closed) = slot.breaker.record_success() {
            self.flight.record(FlightSubsystem::Breaker, || {
                format!("{}: closed (probe succeeded)", slot.pair())
            });
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::CircuitClosed,
                format!("{}: probe succeeded", slot.pair()),
            );
        }
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "settle",
            shared.id,
            exec_span,
            trace_id,
            settle_started,
            settle_started.elapsed(),
            "committed".to_string(),
        );
        self.finish(
            &shared,
            enqueued,
            SessionState::Done,
            metrics,
            Some(target),
            None,
        );
    }

    /// Per-operator telemetry of a committed lane: each timed operator
    /// becomes a child span of the exec span, lands in its `(op,
    /// location)` histogram, and — when the plan carries the model's
    /// per-node predictions — feeds the predicted-vs-observed
    /// calibration cells. Returns the summed operator wall.
    fn record_ops(
        &self,
        session: SessionId,
        exec_span: SpanId,
        format: &str,
        plan: &CachedPlan,
        outcome: &ExecOutcome,
    ) -> u64 {
        let mut observed_ns = 0;
        for s in &outcome.op_samples {
            let loc = location_name(s.location);
            let ns = s.wall.as_nanos() as u64;
            observed_ns += ns;
            self.trace.record(
                s.op,
                session,
                exec_span,
                s.started,
                s.wall,
                format!("node {} @{loc}", s.node),
            );
            self.metrics
                .histogram(&format!(
                    "xdx_op_wall_ns{{op=\"{}\",location=\"{loc}\"}}",
                    s.op
                ))
                .record_duration_ns(s.wall);
            if let Some(&predicted) = plan.op_costs.get(s.node) {
                self.calibration.record_op(s.op, loc, format, predicted, ns);
            }
        }
        observed_ns
    }

    /// The rolled-back epilogue of [`Inner::settle`]: a cancelled lane
    /// just ends (it is never resumable, so its shipping checkpoints are
    /// released); a failed one feeds its link's breaker — an opening
    /// breaker drains the route's queued sessions — and stays resumable:
    /// the checkpointed plan and the ledger's persisted messages make
    /// the retry probe-free and serialization-free.
    #[allow(clippy::too_many_arguments)]
    fn settle_rolled_back(
        &self,
        shared: &Arc<SessionShared>,
        slot: &Arc<LinkSlot>,
        enqueued: Instant,
        metrics: SessionMetrics,
        target: Database,
        diagnostic: String,
        link_gave_up: bool,
        resumable: Resumable,
        (exec_span, settle_started): (SpanId, Instant),
    ) {
        if shared.is_cancelled() {
            self.ledger.forget_session(shared.id);
            self.finish(
                shared,
                enqueued,
                SessionState::Cancelled,
                metrics,
                None,
                Some(diagnostic),
            );
            return;
        }
        if shared.deadline_exceeded() {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::DeadlineExceeded,
                &diagnostic,
            );
        }
        slot.counters
            .sessions_failed
            .fetch_add(1, Ordering::Relaxed);
        if link_gave_up {
            if let Some(BreakerTransition::Opened) = slot.breaker.record_failure() {
                let cooldown = self.config.breaker_cooldown;
                self.flight.record(FlightSubsystem::Breaker, || {
                    format!("{}: opened, cooldown {cooldown:?}", slot.pair())
                });
                self.events.push(
                    shared.id,
                    shared.root_span,
                    EventKind::CircuitOpened,
                    format!("{}: cooldown {cooldown:?}", slot.pair()),
                );
                // The breaker just opened: everything queued for this
                // route would fail the same way. Drain and shed it now
                // instead of one session at a time.
                self.shed_queued_route(slot);
                self.flight
                    .anomaly(&format!("breaker open on {}", slot.pair()));
            }
        }
        self.remember_resumable(shared.id, resumable);
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "settle",
            shared.id,
            exec_span,
            session_trace_id(shared),
            settle_started,
            settle_started.elapsed(),
            "rolled back".to_string(),
        );
        // The rolled-back target travels with the result as observable
        // proof that no partial tables survived.
        self.finish(
            shared,
            enqueued,
            SessionState::Failed,
            metrics,
            Some(target),
            Some(diagnostic),
        );
    }

    /// The last lane settled: bills a shared ring's encodes to the
    /// aggregate (once, at group scope — its lanes carry no
    /// serialization tallies), closes a publish group's root span, and
    /// releases the parked-exchange slot.
    fn retire(&self, ex: &Exchange) {
        let (mut reuse, mut fallbacks) = (0, 0);
        {
            let mut agg = self.agg.lock().unwrap();
            for group in &ex.groups {
                agg.messages_serialized += group.encodes.messages_serialized;
                agg.bytes_encoded += group.encodes.bytes_encoded;
                agg.encode_ns += group.encodes.encode_ns;
                reuse += group.shared_reuse;
                fallbacks += group.ring_fallbacks;
            }
            agg.multicast_encode_shared += reuse;
            agg.multicast_encode_fallback += fallbacks;
        }
        let group_span = ex.groups[0].lanes[0].shared.root_parent;
        if group_span != NO_SPAN {
            self.trace.record_with_context(
                group_span,
                "publish-group",
                ex.id,
                NO_SPAN,
                group_span,
                ex.enqueued,
                ex.enqueued.elapsed(),
                format!(
                    "{}: {} lanes in {} format group(s), {reuse} shared-frame reuses, \
                     {fallbacks} ring fallbacks",
                    ex.request.name,
                    ex.groups.iter().map(|g| g.lanes.len()).sum::<usize>(),
                    ex.groups.len(),
                ),
            );
        }
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        // Workers parked on an empty queue re-check the exit condition.
        self.available.notify_all();
    }
    fn finish(
        &self,
        shared: &SessionShared,
        enqueued: Instant,
        state: SessionState,
        mut metrics: SessionMetrics,
        target: Option<Database>,
        diagnostic: Option<String>,
    ) {
        metrics.total_wall = enqueued.elapsed();
        {
            let mut agg = self.agg.lock().unwrap();
            agg.planning_probes += metrics.planning_probes as u64;
            agg.messages_serialized += metrics.messages_serialized as u64;
            agg.bytes_shipped += metrics.bytes_shipped;
            agg.bytes_encoded += metrics.bytes_encoded;
            agg.encode_ns += metrics.encode_ns;
            agg.chunks_shipped += metrics.chunks_shipped;
            agg.chunks_resumed += metrics.chunks_resumed;
            agg.chunks_deduped += metrics.chunks_deduped;
            agg.chunks_retried += metrics.chunks_retried;
            agg.delta_patch_bytes += metrics.delta_patch_bytes;
            agg.delta_patches_applied += metrics.delta_patches_applied;
            agg.delta_full_chosen += metrics.delta_full_chosen;
            agg.delta_full_fallbacks += metrics.delta_full_fallbacks;
            agg.delta_chain_composed += metrics.delta_chain_composed;
            agg.source_counters.merge(&metrics.source_counters);
            agg.target_counters.merge(&metrics.target_counters);
            match state {
                SessionState::Done => {
                    agg.completed += 1;
                    agg.latencies.push_back(metrics.total_wall);
                    // The latency window is bounded: a soak pushing
                    // hundreds of thousands of sessions must not grow
                    // the aggregate without limit. Percentile math runs
                    // over this sliding window; the lossless histogram
                    // keeps the full distribution.
                    if agg.latencies.len() > LATENCY_WINDOW {
                        agg.latencies.pop_front();
                    }
                }
                SessionState::Failed => agg.failed += 1,
                SessionState::Cancelled => agg.cancelled += 1,
                _ => unreachable!("finish takes a terminal state"),
            }
        }
        if state == SessionState::Done {
            self.latency_hist.record_duration_ns(metrics.total_wall);
            // Feed the admission estimator with the observed service
            // time (wall minus queue wait — the queue's own delay is
            // modeled separately from depth).
            self.admission
                .record_service(metrics.total_wall.saturating_sub(metrics.queue_wait));
            if !metrics.tenant.is_empty() {
                self.tenant_entry(&metrics.tenant, |t| t.completed += 1);
            }
        }
        if metrics.delta_patch_bytes
            + metrics.delta_patches_applied
            + metrics.delta_full_chosen
            + metrics.delta_full_fallbacks
            > 0
        {
            self.calibration.record_delta(
                metrics.delta_patch_bytes,
                metrics.delta_patches_applied,
                metrics.delta_full_chosen,
                metrics.delta_full_fallbacks,
            );
        }
        let kind = match state {
            SessionState::Done => EventKind::Completed,
            SessionState::Failed => EventKind::Failed,
            _ => EventKind::Cancelled,
        };
        let detail = diagnostic.clone().unwrap_or_else(|| {
            format!(
                "{} rows, {} chunks, {} retries",
                metrics.rows_loaded, metrics.chunks_shipped, metrics.chunks_retried
            )
        });
        if state == SessionState::Failed {
            // A failed session is a flight-recorder anomaly: the rings
            // dump (when a dump dir is configured) with the transitions
            // that led up to it.
            self.flight.anomaly(&format!(
                "session {} ({}) failed: {}",
                shared.id,
                shared.name,
                diagnostic.as_deref().unwrap_or("no diagnostic")
            ));
        }
        self.events.push(shared.id, shared.root_span, kind, detail);
        // The session's root span closes last, covering queue wait
        // through the terminal transition; its children (queued, plan,
        // exec, ship, encode, operators) were recorded before it, so
        // FIFO eviction can never orphan a surviving child — and it is
        // recorded for *every* terminal state, so failed and shed
        // sessions keep their span subtrees too. Multicast lanes parent
        // under their publish group's span and share its trace id.
        self.trace.record_with_context(
            shared.root_span,
            "session",
            shared.id,
            shared.root_parent,
            session_trace_id(shared),
            enqueued,
            metrics.total_wall,
            format!("{}: {state:?} via {}", shared.name, metrics.route),
        );
        shared.finish(SessionResult {
            state,
            metrics,
            target,
            diagnostic,
        });
    }
}

/// Applies a lane's decoded batches in shipment-seq order from its
/// staging cursor: direct-write programs stage rows into their target
/// table *now* — transactional loading starts before the source
/// finishes producing — while general programs accumulate the delivery
/// for the target phase at settlement.
fn stage_ready(
    lane: &mut Lane,
    stream_tables: Option<&HashMap<PortRef, (usize, String)>>,
    ring: &[Slot],
) -> std::result::Result<(), String> {
    while let Some(feed) = lane.decoded.remove(&lane.next_stage_seq) {
        let seq = lane.next_stage_seq;
        lane.next_stage_seq += 1;
        let port = ring
            .get(seq as usize)
            .and_then(|slot| slot.port)
            .ok_or_else(|| format!("no port for shipment {seq}"))?;
        if let Some(tables) = stream_tables {
            let (node, table) = tables
                .get(&port)
                .ok_or_else(|| format!("no write table for port {port:?}"))?;
            let start = Instant::now();
            lane.outcome.rows_loaded += feed.len() as u64;
            lane.target
                .load_staged(table, feed)
                .map_err(|e| e.to_string())?;
            let wall = start.elapsed();
            lane.outcome.times.loading += wall;
            lane.write_walls
                .entry(*node)
                .or_insert((start, Duration::ZERO))
                .1 += wall;
        } else if let Some(existing) = lane.delivered.get_mut(&port) {
            existing.rows.extend(feed.rows);
        } else {
            lane.delivered.insert(port, feed);
        }
    }
    Ok(())
}

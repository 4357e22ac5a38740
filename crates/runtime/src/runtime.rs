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
//! There is one front door and one start path. [`Runtime::submit`] and
//! [`Runtime::publish`] queue the same record — a request plus one seat
//! per target — and a worker starts it the same way: open and gate each
//! lane, plan once per negotiated wire format with the lane count as the
//! cost model's fanout, run the source half, park. A session is a
//! publish of one.
//!
//! Under overload the runtime *sheds* instead of degrading: a
//! submission whose deadline the [`crate::admission`] estimator says
//! cannot be met is refused up front; a queued session whose deadline
//! expired, or whose route's breaker opened, is shed at dequeue before
//! burning a planning probe; and an opening breaker drains its route's
//! queued sessions on the spot. Every queue in the system is bounded —
//! admission, the resumable-checkpoint map, the reassembly ledger, the
//! event/span rings — so sustained 2× overload holds RSS flat
//! (`crates/runtime/tests/soak.rs` asserts it).

use crate::admission::AdmissionController;
use crate::breaker::BreakerTransition;
use crate::cache::{plan_key, CachedPlan, PlanCache, PlanKey};
use crate::engine::ShipEngine;
use crate::events::{Event, EventKind, EventLog};
use crate::exchange::{lane_checkpoint, route_key, session_trace_id, Exchange, Lane};
use crate::fair::{FairQueue, DEFAULT_AGING_INTERVAL};
use crate::flight::FlightRecorder;
use crate::introspect::IntrospectServer;
use crate::ledger::ReassemblyLedger;
use crate::registry::{LinkRegistry, LinkSlot};
use crate::session::{
    ExchangeRequest, PublishRequest, SessionHandle, SessionId, SessionMetrics, SessionResult,
    SessionShared, SessionState,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;
use xdx_core::{CostModel, DataExchange, Program, WireFormat};
use xdx_delta::{db_tables, Snapshot, SnapshotStore};
use xdx_net::FaultProfile;
use xdx_relational::{Counters, Database};
use xdx_trace::{
    CalibrationReport, CalibrationTracker, Histogram, MetricsRegistry, SpanId, TraceSink, NO_SPAN,
};
use xdx_xml::SchemaTree;

pub use crate::config::{RuntimeConfig, SubmitError};
pub use crate::stats::{RuntimeStats, TenantStats};

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

/// A queued exchange — a session, a resumed session or a publish group;
/// ordering lives in the [`FairQueue`] it sits in.
pub(crate) struct QueuedExchange {
    enqueued: Instant,
    /// Resumed sessions are the operator's recovery probes: they bypass
    /// breaker-feedback shedding the way `resume` bypasses `try_admit`.
    resumed: bool,
    /// The exchange as a two-site request. Each lane's name and target
    /// endpoint are its seat's (a session's sole seat repeats the
    /// request's own).
    request: ExchangeRequest,
    /// Present for resumed sessions: the plan the failed run executed,
    /// replayed without probing or re-planning.
    plan: Option<Arc<CachedPlan>>,
    /// One lane each: the session cell created at admission and the
    /// target endpoint it ships to.
    seats: Vec<(Arc<SessionShared>, String)>,
    /// `Some` for a publish group: its trace span (every lane's root
    /// span is a child, and it closes when the last lane settles) and
    /// the frames a lane may trail the group's fastest.
    group: Option<(SpanId, usize)>,
}

pub(crate) struct QueueState {
    pub(crate) fair: FairQueue<QueuedExchange>,
    /// Parked exchanges with fresh batch results to service.
    /// Lives *inside* the queue lock so a completion can never slip
    /// between a worker's emptiness check and its condvar wait.
    pub(crate) runnable: VecDeque<SessionId>,
    pub(crate) open: bool,
}

/// What [`Inner::plan`] hands back per wire format.
type Planned = (WireFormat, Arc<CachedPlan>);

/// A failed session's checkpoint: the original request plus the plan it
/// was executing. A resume replays the plan directly — zero statistics
/// probes, zero optimizer calls — and the shipping ledger replays the
/// already-serialized messages.
pub(crate) struct Resumable {
    pub(crate) request: ExchangeRequest,
    pub(crate) plan: Option<Arc<CachedPlan>>,
}

/// What the fleet has tallied so far, under one lock.
#[derive(Default)]
pub(crate) struct Aggregate {
    /// The running tallies: admission decisions and terminal states as
    /// they happen, a session's counters when it finishes
    /// ([`RuntimeStats::fold`]). [`Inner::stats`] clones this and fills
    /// in what is read off the live structures instead.
    pub(crate) stats: RuntimeStats,
    /// Source-side engine counters, merged across finished sessions.
    pub(crate) source_counters: Counters,
    /// Target-side engine counters, merged across finished sessions.
    pub(crate) target_counters: Counters,
}

/// Spans the trace ring keeps; the oldest are evicted (and counted in
/// [`RuntimeStats::dropped_spans`]) beyond this.
const TRACE_CAPACITY: usize = 65_536;

/// Distinct tenants tracked individually; arrivals beyond this fold
/// into one overflow bucket so a tenant-label flood cannot grow the
/// stats map unboundedly.
const MAX_TRACKED_TENANTS: usize = 1024;

/// Overflow bucket label for tenants beyond [`MAX_TRACKED_TENANTS`].
const TENANT_OVERFLOW: &str = "(other)";

#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) admitted: u64,
    pub(crate) completed: u64,
    pub(crate) shed: u64,
}

pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) schema: SchemaTree,
    pub(crate) registry: LinkRegistry,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) available: Condvar,
    pub(crate) cache: PlanCache,
    pub(crate) events: Arc<EventLog>,
    pub(crate) ledger: Arc<ReassemblyLedger>,
    /// The event-driven shipping engine: every batch on the wire, and
    /// the parked deadline of every paced wait, lives here instead of on
    /// a blocked worker thread.
    pub(crate) engine: Arc<ShipEngine>,
    /// Parked exchanges, keyed by id. A worker *removes* the exchange
    /// while servicing it (no double-service), re-inserting it if
    /// batches remain in flight.
    pub(crate) parked: Mutex<HashMap<SessionId, Exchange>>,
    /// Exchanges started and not yet retired — the in-flight cap's
    /// numerator, and workers refuse to exit at shutdown while any
    /// remain.
    pub(crate) outstanding: AtomicUsize,
    /// Workers currently executing or servicing a session — the
    /// occupancy gauge's numerator.
    pub(crate) busy_workers: AtomicUsize,
    /// Checkpoints of failed sessions, kept for [`Runtime::resume`]. An
    /// entry is consumed by the resume (the same request cannot be
    /// resumed twice concurrently) and re-deposited if the retry fails
    /// again. Each value carries its deposit stamp; the map is capped
    /// at `config.max_resumables` and evicts the oldest stamp.
    pub(crate) resumables: Mutex<HashMap<SessionId, (u64, Resumable)>>,
    /// Logical clock stamping resumable deposits for oldest-first
    /// eviction.
    pub(crate) resumable_clock: AtomicU64,
    /// Overload estimator feeding deadline shedding and retry hints.
    pub(crate) admission: AdmissionController,
    /// Weighted-fair share weights by tenant label (absent = 1.0).
    pub(crate) tenant_weights: Mutex<HashMap<String, f64>>,
    /// Per-tenant fairness counters (BTreeMap for sorted stats output);
    /// bounded by [`MAX_TRACKED_TENANTS`].
    pub(crate) tenant_stats: Mutex<BTreeMap<String, TenantCounters>>,
    pub(crate) next_id: AtomicU64,
    pub(crate) next_seq: AtomicU64,
    pub(crate) agg: Mutex<Aggregate>,
    /// Span sink; its epoch doubles as the runtime's start instant.
    pub(crate) trace: Arc<TraceSink>,
    /// Named metrics (counters, gauges, histograms) with Prometheus
    /// text exposition via [`Runtime::metrics_text`].
    pub(crate) metrics: MetricsRegistry,
    /// Predicted-vs-observed cost accounting; its fleet-wide
    /// ns-per-unit prices admission.
    pub(crate) calibration: CalibrationTracker,
    /// Versioned feed snapshots per route+fragmentation pair: the
    /// source-side log delta sessions diff against. Every successful
    /// session records its target feeds here, advancing the route's
    /// head version.
    pub(crate) snapshots: SnapshotStore,
    /// Pre-registered hot-path histograms (also reachable by name
    /// through `metrics`).
    pub(crate) queue_wait_hist: Arc<Histogram>,
    pub(crate) planning_hist: Arc<Histogram>,
    pub(crate) latency_hist: Arc<Histogram>,
    pub(crate) encode_hist: Arc<Histogram>,
    /// Anomaly bookkeeping: counts anomalies and dumps the event log's
    /// newest transitions when one fires.
    pub(crate) flight: FlightRecorder,
}

/// A running multi-session exchange runtime. Dropping (or
/// [`shutdown`](Runtime::shutdown)ting) it drains the queue and joins
/// the workers.
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The engine's dedicated driver thread, joined after the workers so
    /// every parked exchange retires before the engine drains.
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
        let ledger = Arc::new(ReassemblyLedger::new());
        let trace = Arc::new(TraceSink::new(config.tracing, TRACE_CAPACITY));
        let flight = FlightRecorder::new(
            config.flight_recorder,
            Arc::clone(&events),
            config.flight_dump_dir.map(std::path::PathBuf::from),
        );
        let engine = ShipEngine::new(Arc::clone(&events), Arc::clone(&ledger), Arc::clone(&trace));
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
                fair: FairQueue::new(DEFAULT_AGING_INTERVAL),
                runnable: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            cache: PlanCache::new(),
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
            calibration: CalibrationTracker::new(),
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
            .spawn(move || engine.drive(None))
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
                inner.agg.lock().unwrap().stats.rejected += 1;
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
            .enqueue_session(request, id, false, None)
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
        match inner.enqueue_session(request, session_id, true, plan.clone()) {
            Ok(handle) => {
                inner.agg.lock().unwrap().stats.resumed += 1;
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
    /// to every subscriber endpoint, queued as *one* exchange of N lanes
    /// (under its first subscriber's tenant, at the request's priority).
    /// The runtime plans once per distinct `(shape, wire format)` with
    /// the lane count as the cost model's fanout, executes the source
    /// phase once per format, encodes each operator batch once per
    /// format into a shared refcounted frame, and ships those same bytes
    /// over each subscriber's own link lane — per-subscriber ledger
    /// acks, retry budgets, breakers and resume stay fully independent,
    /// and a slow or broken subscriber never stalls the others (beyond
    /// the request's lag cap it is dropped to the per-subscriber
    /// re-encode/full-ship fallback and left resumable).
    ///
    /// Returns one [`SessionHandle`] per subscriber, wrapped in a
    /// [`PublishHandle`]. An empty subscriber list yields an empty
    /// handle without touching the queue.
    pub fn publish(&self, request: PublishRequest) -> Result<PublishHandle, SubmitError> {
        let inner = &*self.inner;
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
        let Some(first) = subscribers.first().cloned() else {
            return Ok(PublishHandle {
                handles: Vec::new(),
            });
        };
        // Lane roots stitch under the publish group's span: the group
        // span id doubles as the multicast trace id, so one publish
        // produces one tree no matter how many subscribers fan out.
        let group_span = inner.trace.allocate_id();
        let seats = subscribers
            .into_iter()
            .map(|subscriber| {
                let shared = SessionShared::new_with_parent(
                    inner.next_id.fetch_add(1, Ordering::Relaxed) + 1,
                    format!("{name}→{subscriber}"),
                    None,
                    inner.trace.allocate_id(),
                    group_span,
                );
                (shared, subscriber)
            })
            .collect();
        // The publish as a two-site request — what every lane's resume
        // checkpoint is cut from.
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
            target_endpoint: first,
            tenant,
            optimizer,
            wire_format,
            base_version: None,
        };
        inner
            .enqueue(
                template,
                seats,
                Some((group_span, lag_cap.max(1))),
                false,
                None,
            )
            .map(|handles| PublishHandle { handles })
            .map_err(|refused| refused.0)
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

    /// Anomalies the runtime registered (session failures, breaker
    /// opens, shed-rate spikes, stall-watchdog fires) and the dump files
    /// it wrote.
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
        // Workers drain the fair queue *and* retire every parked
        // exchange before exiting, so by the time they are joined the
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
/// service, or a queued one to start. Runnable work drains first —
/// finishing in-flight exchanges beats starting new ones, and it is
/// what bounds the parked map.
enum WorkItem {
    Service(SessionId),
    Start(Box<QueuedExchange>),
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
                let RuntimeConfig {
                    workers,
                    pipeline_sessions_per_worker: per_worker,
                    ..
                } = inner.config;
                let cap = workers * per_worker;
                if inner.outstanding.load(Ordering::SeqCst) < cap {
                    if let Some(popped) = queue.fair.pop() {
                        break Some(WorkItem::Start(Box::new(popped.item)));
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
            WorkItem::Service(sid) => inner.service(inner, sid),
            WorkItem::Start(job) => {
                inner.admission.record_dequeue();
                inner.start_exchange(inner, *job);
            }
        }
        inner.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Inner {
    /// Queues `request` as a session of its own, id `id` (fresh or
    /// resumed): an exchange of one lane to the request's own target.
    fn enqueue_session(
        &self,
        request: ExchangeRequest,
        id: SessionId,
        resumed: bool,
        plan: Option<Arc<CachedPlan>>,
    ) -> Result<SessionHandle, Box<(SubmitError, ExchangeRequest)>> {
        // The root span is allocated at admission so every child span
        // and correlated event can point at it; it is recorded (with
        // its true duration) when the session reaches a terminal state.
        let root_span = self.trace.allocate_id();
        let shared = SessionShared::new(id, request.name.clone(), request.deadline, root_span);
        let seats = vec![(shared, request.target_endpoint.clone())];
        self.enqueue(request, seats, None, resumed, plan)
            .map(|mut handles| handles.remove(0))
    }

    /// The admission checks, under the queue lock: the runtime is open,
    /// the queue has room, and the request's deadline is attainable.
    /// Hands the lock back for the push, or releases it and records
    /// the refusal.
    fn admit<'q>(
        &self,
        queue: MutexGuard<'q, QueueState>,
        request: &ExchangeRequest,
        id: SessionId,
    ) -> Result<MutexGuard<'q, QueueState>, SubmitError> {
        if !queue.open {
            return Err(SubmitError::ShutDown);
        }
        let depth = queue.fair.len();
        if depth >= self.config.max_queue_depth {
            drop(queue);
            self.agg.lock().unwrap().stats.rejected += 1;
            self.events.push(
                id,
                NO_SPAN,
                EventKind::Rejected,
                format!("{}: queue full", request.name),
            );
            return Err(SubmitError::QueueFull {
                depth: self.config.max_queue_depth,
                retry_after: self.admission.retry_after(depth),
            });
        }
        // Deadline shedding at admission: when the estimator already
        // knows the turnaround cannot beat the deadline, refuse now —
        // the session would only be shed at dequeue after occupying a
        // queue slot. A cold estimator returns None and we admit
        // optimistically. Resumed sessions and publish groups carry no
        // deadline, so they are never shed here.
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
                    agg.stats.rejected += 1;
                    agg.stats.sessions_shed_deadline += 1;
                }
                self.tenant_entry(&request.tenant_label(), |t| t.shed += 1);
                self.shed(
                    id,
                    NO_SPAN,
                    format!(
                        "{}: deadline {deadline:?} unattainable (estimated {estimated:?})",
                        request.name
                    ),
                );
                return Err(SubmitError::DeadlineUnattainable {
                    deadline,
                    estimated,
                    retry_after: self.admission.retry_after(depth),
                });
            }
        }
        Ok(queue)
    }

    /// The one front door: queues `request` with a lane per seat as one
    /// entry of the fair queue — under the first seat's tenant, at the
    /// request's priority — or hands the request back with the refusal
    /// (boxed: the request embeds a whole source database, too big for
    /// an inline `Err`). Returns a handle per seat.
    fn enqueue(
        &self,
        request: ExchangeRequest,
        seats: Vec<(Arc<SessionShared>, String)>,
        group: Option<(SpanId, usize)>,
        resumed: bool,
        plan: Option<Arc<CachedPlan>>,
    ) -> Result<Vec<SessionHandle>, Box<(SubmitError, ExchangeRequest)>> {
        let tenant = request.tenant_label();
        let queue = self.queue.lock().unwrap();
        let mut queue = match self.admit(queue, &request, seats[0].0.id) {
            Ok(queue) => queue,
            Err(refused) => return Err(Box::new((refused, request))),
        };
        let kind = if resumed {
            EventKind::Resumed
        } else {
            EventKind::Submitted
        };
        let lanes = seats.len();
        for (shared, target) in &seats {
            let detail = match group {
                Some(_) => format!(
                    "{} ({:?}, publish group of {lanes})",
                    shared.name, request.priority
                ),
                None => format!("{} ({:?})", shared.name, request.priority),
            };
            self.events.push(shared.id, shared.root_span, kind, detail);
            self.tenant_entry(&request.lane_tenant(target), |t| t.admitted += 1);
        }
        {
            let mut agg = self.agg.lock().unwrap();
            agg.stats.admitted += lanes as u64;
            if group.is_some() {
                agg.stats.fanout_subscribers += lanes as u64;
            }
        }
        let handles = seats
            .iter()
            .map(|(shared, _)| SessionHandle {
                shared: Arc::clone(shared),
            })
            .collect();
        let weight = self.tenant_weight(&tenant);
        let now = Instant::now();
        queue.fair.push(
            &tenant,
            weight,
            request.priority,
            self.next_seq.fetch_add(1, Ordering::Relaxed),
            now,
            QueuedExchange {
                enqueued: now,
                resumed,
                request,
                plan,
                seats,
                group,
            },
        );
        drop(queue);
        self.available.notify_one();
        Ok(handles)
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
    pub(crate) fn tenant_entry(&self, tenant: &str, update: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenant_stats.lock().unwrap();
        let key = if map.contains_key(tenant) || map.len() < MAX_TRACKED_TENANTS {
            tenant
        } else {
            TENANT_OVERFLOW
        };
        update(map.entry(key.to_string()).or_default());
    }

    /// Records one shed decision, once: its `Shed` event in the journal,
    /// and a tick of the anomaly recorder's shed-rate window.
    pub(crate) fn shed(&self, session: SessionId, span: SpanId, detail: impl Into<String>) {
        self.events.push(session, span, EventKind::Shed, detail);
        self.flight.shed();
    }

    /// Deposits a failed session's checkpoint, evicting the oldest
    /// deposits beyond `max_resumables` — each checkpoint holds a full
    /// source database, so an unbounded map would defeat the soak's
    /// flat-RSS guarantee.
    pub(crate) fn remember_resumable(&self, id: SessionId, resumable: Resumable) {
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
            self.agg.lock().unwrap().stats.resumables_evicted += evicted;
        }
    }

    /// Breaker feedback into the queue: when a route's breaker opens,
    /// its queued (non-resumed) sessions would only burn planning
    /// probes and retry budgets to learn what the breaker already
    /// knows — drain and shed them now. Resumed sessions stay queued:
    /// resume is the operator's probe and intentionally bypasses the
    /// breaker. So do publish groups: their other lanes ride healthy
    /// routes, and the dequeue gate sheds this route's lane alone.
    pub(crate) fn shed_queued_route(&self, slot: &LinkSlot) {
        let pair = slot.pair();
        let drained = {
            let mut queue = self.queue.lock().unwrap();
            queue.fair.drain_matching(|qs: &QueuedExchange| {
                !qs.resumed
                    && qs.group.is_none()
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
            let QueuedExchange {
                enqueued,
                request,
                plan,
                seats,
                ..
            } = qs;
            let shared = &seats[0].0;
            let tenant = request.tenant_label();
            let metrics = SessionMetrics {
                queue_wait: enqueued.elapsed(),
                route: pair.clone(),
                tenant: tenant.clone(),
                ..SessionMetrics::default()
            };
            slot.counters.sessions_shed.fetch_add(1, Ordering::Relaxed);
            self.agg.lock().unwrap().stats.sessions_shed_breaker += 1;
            self.tenant_entry(&tenant, |t| t.shed += 1);
            self.shed(
                shared.id,
                shared.root_span,
                format!(
                    "{}: drained from queue, circuit open on {pair}, retry in {retry:?}",
                    shared.name
                ),
            );
            self.remember_resumable(shared.id, Resumable { request, plan });
            self.finish(
                shared,
                enqueued,
                SessionState::Failed,
                metrics,
                None,
                Some(format!("shed: circuit open on {pair}")),
            );
        }
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
    pub(crate) fn dequeue_gate(&self, lane: &Lane, probe: bool) -> Option<(SessionState, String)> {
        let shared = &lane.shared;
        if shared.is_cancelled() {
            return Some((SessionState::Cancelled, "cancelled while queued".into()));
        }
        let expired = shared.deadline_exceeded();
        let why = if expired {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::DeadlineExceeded,
                "while queued",
            );
            "deadline exceeded while queued: shed before planning".to_string()
        } else if !probe && lane.slot.breaker.is_open() {
            lane.slot
                .counters
                .sessions_shed
                .fetch_add(1, Ordering::Relaxed);
            format!("shed: circuit open on {}", lane.slot.pair())
        } else {
            return None;
        };
        self.shed(shared.id, shared.root_span, &why);
        {
            let mut agg = self.agg.lock().unwrap();
            if expired {
                agg.stats.sessions_shed_expired += 1;
            } else {
                agg.stats.sessions_shed_breaker += 1;
            }
        }
        self.tenant_entry(&lane.metrics.tenant, |t| t.shed += 1);
        Some((SessionState::Failed, why))
    }

    /// The one start arm: runs a queued exchange on the calling worker
    /// thread from dequeue to *park* (`arc` is this same `Inner`,
    /// threaded through for the engine callbacks a parked exchange
    /// leaves behind). Every lane passes the dequeue gates; the
    /// survivors are planned once per negotiated wire format and each
    /// format becomes one group — its source phase runs once and every
    /// frame is encoded *once* into the ring all of its lanes ship from,
    /// over their own links, with their own ledgers, retry budgets and
    /// breakers. A session is the group of one lane; a lane that drops
    /// out on the way stays resumable as a session of its own without
    /// stalling the rest.
    fn start_exchange(&self, arc: &Arc<Inner>, job: QueuedExchange) {
        let QueuedExchange {
            enqueued,
            resumed,
            mut request,
            plan: stored,
            seats,
            group,
        } = job;
        let (group_span, lag_cap) = group.unwrap_or((NO_SPAN, usize::MAX));
        let owner = seats[0].0.id;
        let mut lanes = Vec::with_capacity(seats.len());
        for (i, (shared, target)) in seats.iter().enumerate() {
            let lane = self.open_lane(shared, enqueued, &request, target);
            let Some((state, why)) = self.dequeue_gate(&lane, resumed) else {
                lanes.push(lane);
                continue;
            };
            if state == SessionState::Failed {
                // A shed lane stays resumable; with nobody left to run
                // the exchange, its checkpoint takes the source database.
                let last = lanes.is_empty() && i + 1 == seats.len();
                let request = lane_checkpoint(&mut request, &shared.name, target, last);
                let plan = stored.clone();
                self.remember_resumable(shared.id, Resumable { request, plan });
            }
            self.finish(shared, enqueued, state, lane.metrics, None, Some(why));
        }
        if lanes.is_empty() {
            let detail = format!("{}: no live lanes", request.name);
            return self.close_group(group_span, owner, enqueued, detail);
        }
        // A delta needs the one target whose base version the request
        // declares; the lanes of a group hold no version in common.
        let delta_base = match &mut lanes[..] {
            [lane] => self.resolve_delta_base(&request, lane),
            _ => None,
        };
        // Planning is timed from the instant the (last lane's) queue wait
        // ended, and execution from the instant planning ended.
        let dequeued = enqueued + lanes[lanes.len() - 1].metrics.queue_wait;
        let plans = match self.plan(&request, &mut lanes, dequeued, stored) {
            Ok(plans) => plans,
            Err(why) => {
                for lane in lanes {
                    let why = Some(why.clone());
                    let failed = SessionState::Failed;
                    self.finish(&lane.shared, enqueued, failed, lane.metrics, None, why);
                }
                let detail = format!("{}: {why}", request.name);
                return self.close_group(group_span, owner, enqueued, detail);
            }
        };
        // Execute (Step 4): every cross-edge byte rides the shipping
        // engine on its lane's per-pair link, and the exchange parks
        // while its frames are on the wire. Writes are staged: a run
        // that dies mid-exchange rolls the target back.
        let planned_at = dequeued + lanes[0].metrics.planning;
        let mut groups = Vec::with_capacity(plans.len());
        for (format, plan) in plans {
            let (members, rest): (Vec<_>, Vec<_>) = lanes
                .into_iter()
                .partition(|l| l.metrics.wire_format == format);
            lanes = rest;
            let members = self.planned_gate(&mut request, enqueued, &plan, members);
            if !members.is_empty() {
                groups.push(self.open_group(format, plan, planned_at, members));
            }
        }
        if groups.is_empty() {
            let detail = format!("{}: no live lanes", request.name);
            return self.close_group(group_span, owner, enqueued, detail);
        }
        let ex = Exchange::new(enqueued, request, lag_cap, groups);
        self.launch(arc, ex, delta_base);
    }

    /// The gates between planning and execution, lane by lane: one
    /// cancelled meanwhile just ends; one whose deadline ran out fails,
    /// resumable with the plan it would have executed. Returns the
    /// lanes that go on.
    fn planned_gate(
        &self,
        request: &mut ExchangeRequest,
        enqueued: Instant,
        plan: &Arc<CachedPlan>,
        lanes: Vec<Lane>,
    ) -> Vec<Lane> {
        let mut live = Vec::with_capacity(lanes.len());
        for lane in lanes {
            let shared = Arc::clone(&lane.shared);
            let (state, why) = if shared.is_cancelled() {
                (SessionState::Cancelled, "cancelled after planning")
            } else if shared.deadline_exceeded() {
                self.events.push(
                    shared.id,
                    shared.root_span,
                    EventKind::DeadlineExceeded,
                    "after planning",
                );
                let request = lane_checkpoint(request, &shared.name, lane.slot.target(), false);
                let plan = Some(Arc::clone(plan));
                self.remember_resumable(shared.id, Resumable { request, plan });
                (SessionState::Failed, "deadline exceeded after planning")
            } else {
                live.push(lane);
                continue;
            };
            let why = Some(why.to_string());
            self.finish(&shared, enqueued, state, lane.metrics, None, why);
        }
        live
    }

    /// Delta eligibility: resolves the base snapshot for the request's
    /// declared target version as `(base, head, snapshot, composed)`. A
    /// missing (or aged-out, uncomposable) snapshot falls back to a full
    /// re-ship before planning. Planning never sees the versions: a delta
    /// round plans, and hits the plan cache, like a full ship.
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

    /// Plans one exchange (Figure 2, Steps 2–3) once per negotiated wire
    /// format, consulting the shared cache — or, for a resumed session,
    /// replaying the checkpointed plan with zero probes and zero
    /// optimizer calls. Returns the plans in first-lane order of their
    /// formats. A delta round's plan is the full ship's: the key holds
    /// the optimizer's inputs only, never a feed version. The `plan` span
    /// is recorded on failure too, so the trace accounts for where a
    /// failed exchange's wall time went.
    fn plan(
        &self,
        request: &ExchangeRequest,
        lanes: &mut [Lane],
        started: Instant,
        stored: Option<Arc<CachedPlan>>,
    ) -> std::result::Result<Vec<Planned>, String> {
        for lane in lanes.iter() {
            lane.shared.set_state(SessionState::Planning);
        }
        let owner = Arc::clone(&lanes[0].shared);
        let plan_span = self.trace.allocate_id();
        self.events.push(
            owner.id,
            plan_span,
            EventKind::PlanningStarted,
            &request.name,
        );
        let planned = match stored {
            Some(plan) => {
                lanes[0].metrics.plan_cache_hit = true;
                self.events.push(
                    owner.id,
                    plan_span,
                    EventKind::PlanCacheHit,
                    "checkpointed plan replayed: zero probes",
                );
                Ok(vec![(lanes[0].metrics.wire_format, plan)])
            }
            None => self.plan_formats(request, lanes, plan_span),
        };
        let planning = started.elapsed();
        for lane in lanes.iter_mut() {
            lane.metrics.planning = planning;
        }
        let detail = match &planned {
            Ok(plans) => {
                // Feed the admission estimator: a plan's predicted cost
                // units, scaled by calibration's ns-per-unit, is one of
                // its two turnaround estimators.
                let mut cost = 0.0;
                for (_, plan) in plans {
                    self.admission.record_plan_cost(plan.cost);
                    cost += plan.cost;
                }
                self.planning_hist.record_duration_ns(planning);
                let hits = lanes.iter().filter(|l| l.metrics.plan_cache_hit).count();
                format!(
                    "{} format group(s) over {} lane(s), {hits} on cached plans, cost {cost:.1}",
                    plans.len(),
                    lanes.len()
                )
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

    /// The probing half of [`Inner::plan`]: one statistics probe for the
    /// whole exchange, then one placement per distinct wire format with
    /// that format's lane count as the cost model's fanout — target work
    /// bills per subscriber, shipping is multicast-amortized — each
    /// cached under its own key, so the next exchange of this shape and
    /// size plans for free.
    fn plan_formats(
        &self,
        request: &ExchangeRequest,
        lanes: &mut [Lane],
        plan_span: SpanId,
    ) -> std::result::Result<Vec<Planned>, String> {
        let optimizer = request.optimizer.unwrap_or(self.config.optimizer);
        let mut exchange = DataExchange::new(
            &self.schema,
            request.source_frag.clone(),
            request.target_frag.clone(),
        )
        .with_optimizer(optimizer)
        .with_profiles(request.source_profile, request.target_profile);
        exchange.w_comm = self.config.w_comm;
        lanes[0].metrics.planning_probes += 1;
        let mut model = exchange
            .probe(&request.source)
            .map_err(|e| format!("statistics probe failed: {e}"))?;
        let mut formats: Vec<(WireFormat, usize)> = Vec::new();
        for lane in lanes.iter() {
            match formats
                .iter_mut()
                .find(|(f, _)| *f == lane.metrics.wire_format)
            {
                Some((_, fanout)) => *fanout += 1,
                None => formats.push((lane.metrics.wire_format, 1)),
            }
        }
        let mut plans = Vec::with_capacity(formats.len());
        for (format, fanout) in formats {
            model.wire_format = format;
            model.fanout = fanout;
            let (source_frag, target_frag) = (&request.source_frag, &request.target_frag);
            let key = plan_key(source_frag, target_frag, &model, optimizer);
            let (plan, hit) = self.plan_cached(key, &model, || exchange.plan(&model))?;
            for lane in lanes.iter_mut().filter(|l| l.metrics.wire_format == format) {
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
            plans.push((format, plan));
        }
        Ok(plans)
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

    pub(crate) fn finish(
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
            agg.stats.fold(&metrics);
            agg.source_counters.merge(&metrics.source_counters);
            agg.target_counters.merge(&metrics.target_counters);
            match state {
                SessionState::Done => agg.stats.completed += 1,
                SessionState::Failed => agg.stats.failed += 1,
                SessionState::Cancelled => agg.stats.cancelled += 1,
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
        self.events.push(shared.id, shared.root_span, kind, detail);
        if state == SessionState::Failed {
            // A failed session is an anomaly: the journal dumps (when a
            // dump dir is configured) with the transitions that led up
            // to it, its `Failed` event last.
            self.flight.anomaly(&format!(
                "session {} ({}) failed: {}",
                shared.id,
                shared.name,
                diagnostic.as_deref().unwrap_or("no diagnostic")
            ));
        }
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

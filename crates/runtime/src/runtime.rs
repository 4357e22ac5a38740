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
//! submission whose deadline the admission estimator says
//! cannot be met is refused up front; a queued session whose deadline
//! expired, or whose route's breaker opened, is shed at dequeue before
//! burning a planning probe; and an opening breaker drains its route's
//! queued sessions on the spot. Every queue in the system is bounded —
//! admission, the resumable-checkpoint map, the reassembly ledger, the
//! event/span rings — so sustained 2× overload holds RSS flat
//! (`crates/runtime/tests/soak.rs` asserts it).

use crate::admission::AdmissionController;
use crate::breaker::BreakerTransition;
use crate::cache::{stats_key, CachedPlan, PlanCache, PlanKey, PlanShape, ProbeMemo, RoutePlans};
use crate::engine::{ShipEngine, ShipHeap};
use crate::events::{Event, EventKind, EventLog};
use crate::exchange::{route_key, session_trace_id, Exchange, Lane};
use crate::fair::{FairQueue, DEFAULT_AGING_INTERVAL};
use crate::flight::FlightRecorder;
use crate::introspect::IntrospectServer;
use crate::ledger::ReassemblyLedger;
use crate::registry::{LinkRegistry, LinkSlot};
use crate::session::{
    ExchangeRequest, PublishRequest, SessionHandle, SessionId, SessionMetrics, SessionResult,
    SessionShared, SessionState,
};
use crate::sync::{lock, wait, wait_timeout};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;
use xdx_core::{DataExchange, SchemaStats, WireFormat};
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

/// Everything a worker waits for, under the one queue lock, so nothing
/// can slip between a worker's emptiness check and its condvar wait.
pub(crate) struct QueueState {
    pub(crate) fair: FairQueue<QueuedExchange>,
    /// Exchanges parked until their earliest ship task's deadline, for
    /// whichever worker is free when it passes.
    pub(crate) exchanges: ShipHeap<Box<Exchange>>,
    /// Exchanges started and not yet retired — the in-flight cap's
    /// numerator, and workers refuse to exit at shutdown while any
    /// remain.
    pub(crate) outstanding: usize,
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

/// What a failed lane's [`Resumable`] is cut from: the exchange's request
/// under the lane's name and `target` endpoint, and the lane's plan.
pub(crate) struct Checkpoint<'a> {
    pub(crate) request: &'a mut ExchangeRequest,
    pub(crate) target: &'a str,
    pub(crate) plan: Option<Arc<CachedPlan>>,
    /// No other lane goes on: take the source database, not a clone.
    pub(crate) last: bool,
}

/// Where [`Inner::gate`] checks a lane. The checks are the same at every
/// stage; the stage is data: wording, shed billing, the breaker check.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Popped from the fair queue; a `probe` (a resume) skips the breaker.
    Dequeued { probe: bool },
    /// Drained by its route's opening breaker: always stopped.
    Drained,
    /// Planned: no breaker check, and a passed deadline fails the lane
    /// with its plan, not billed as a shed.
    Planned,
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
    /// The statistics probes the plan cache is keyed on, memoised.
    pub(crate) probes: ProbeMemo,
    pub(crate) events: Arc<EventLog>,
    pub(crate) ledger: Arc<ReassemblyLedger>,
    /// The shipping engine: every batch on the wire is stepped through
    /// it by the worker holding its exchange, and a paced wait parks the
    /// exchange in `queue` instead of blocking a worker thread.
    pub(crate) engine: ShipEngine,
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
    /// Predicted-vs-observed cost accounting, reported at
    /// `/calibration`.
    pub(crate) calibration: CalibrationTracker,
    /// Versioned feed snapshots per route+fragmentation pair: the
    /// source-side log delta sessions diff against. Every successful
    /// session records its target feeds here, advancing the route's
    /// head version.
    pub(crate) snapshots: SnapshotStore,
    /// The plan each route's head was committed with: what the route's
    /// next delta round replays instead of probing and planning.
    pub(crate) route_plans: RoutePlans,
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
    /// The live introspection listener, when configured.
    introspect: Option<IntrospectServer>,
}

impl Runtime {
    /// Starts the worker pool for exchanges over `schema`, and returns
    /// once every worker thread is running and has touched the heap.
    ///
    /// The wait fixes which heap each worker allocates from. glibc binds a
    /// thread to a malloc arena at its first allocation, handing it the
    /// arena the most recently exited thread left, so a runtime started
    /// after another one inherits the old workers' arenas — already grown
    /// to a session's peak — unless a client thread allocates first and
    /// takes them. Then a worker grows a fresh arena of its own and the
    /// process holds both: three runtimes in turn landing 2.5 MB LF→MF
    /// documents peaked at 77 MB resident in every run with the wait, and
    /// at 100 or 123 MB in about two runs of three without it.
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
                exchanges: ShipHeap::default(),
                outstanding: 0,
                open: true,
            }),
            available: Condvar::new(),
            cache: PlanCache::new(),
            probes: ProbeMemo::new(),
            events,
            ledger,
            engine,
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
            route_plans: RoutePlans::default(),
            queue_wait_hist,
            planning_hist,
            latency_hist,
            encode_hist,
            flight,
        });
        let started = Arc::new(Barrier::new(config.workers + 1));
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("xdx-worker-{i}"))
                    .spawn(move || {
                        // Bind this thread to its malloc arena now.
                        std::hint::black_box(Box::new(0u64));
                        started.wait();
                        worker_loop(&inner)
                    })
                    .expect("spawn worker")
            })
            .collect();
        started.wait();
        let introspect = config.introspect_addr.map(|addr| {
            let inner = Arc::clone(&inner);
            IntrospectServer::start(addr, move |path| inner.introspect_reply(path))
                .expect("bind introspection endpoint")
        });
        Runtime {
            inner,
            workers,
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
                lock(&inner.agg).stats.rejected += 1;
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
        let (stamp, Resumable { mut request, plan }) = lock(&inner.resumables)
            .remove(&session_id)
            .ok_or(SubmitError::UnknownSession { id: session_id })?;
        request.deadline = None;
        inner
            .enqueue_session(request, session_id, true, plan.clone())
            .map_err(|refused| {
                // Not admitted: the checkpoint goes back, its age kept.
                let (e, request) = *refused;
                let mut resumables = lock(&inner.resumables);
                resumables.insert(session_id, (stamp, Resumable { request, plan }));
                e
            })
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
        lock(&self.inner.tenant_weights).insert(tenant.to_string(), weight.max(0.01));
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
        lock(&self.inner.queue).open = false;
        self.inner.available.notify_all();
        // Workers drain the fair queue *and* retire every parked
        // exchange, with the ship tasks it owns, before exiting.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
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

/// The runtime's one scheduler: every worker runs this loop, and no
/// other thread steps an exchange or a ship task. A worker picks up a
/// parked exchange whose earliest deadline passed, else a queued one to
/// start: finishing in-flight exchanges beats starting new ones.
fn worker_loop(inner: &Inner) {
    loop {
        let work = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(ex) = queue.exchanges.pop_due(Instant::now()) {
                    break Some((None, Some(ex)));
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
                if queue.outstanding < cap {
                    if let Some(popped) = queue.fair.pop() {
                        inner.admission.record_dequeue(!queue.fair.is_empty());
                        break Some((Some(Box::new(popped.item)), None));
                    }
                }
                // A parked exchange has not retired: no worker exits
                // while one waits in the heap.
                if !queue.open && queue.outstanding == 0 {
                    break None;
                }
                let due = queue.exchanges.next();
                queue = match due.map(|d| d.saturating_duration_since(Instant::now())) {
                    Some(timeout) => wait_timeout(&inner.available, queue, timeout),
                    None => wait(&inner.available, queue),
                };
            }
        };
        let Some((job, held)) = work else { return };
        inner.busy_workers.fetch_add(1, Ordering::Relaxed);
        inner.work(job, held);
        inner.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Inner {
    /// Works a queued exchange (`job`) or a parked one (`held`) until it
    /// retires or parks; one that is now the earliest wakes a worker. The
    /// runtime's one unwind boundary (DESIGN §10): the item stays in this
    /// frame, so a caught panic ends its unfinished lanes as failed.
    fn work(&self, mut job: Option<Box<QueuedExchange>>, mut held: Option<Box<Exchange>>) {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if held.is_none() {
                self.start_exchange(&mut job, &mut held);
            }
            self.hold(held.as_deref_mut()?)
        }));
        let parked = ran.unwrap_or_else(|payload| {
            let text = payload.downcast_ref::<&str>().copied();
            let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let why = format!("panicked: {}", text.unwrap_or("(no message)"));
            match (held.as_deref_mut(), job) {
                (Some(ex), _) => self.end_panicked(ex, &why),
                (None, Some(mut job)) => self.end_queued(&mut job, why),
                (None, None) => {}
            }
            None
        });
        if let (Some(deadline), Some(ex)) = (parked, held) {
            if lock(&self.queue).exchanges.park(deadline, ex) {
                self.available.notify_one();
            }
        }
    }

    /// Ends a queued exchange that panicked before it became one: each
    /// seat the gate had not ended fails through [`Inner::end_lane`].
    fn end_queued(&self, job: &mut QueuedExchange, why: String) {
        for (shared, target) in job.seats.iter().filter(|s| !s.0.state().is_terminal()) {
            let resume = Checkpoint {
                request: &mut job.request,
                target,
                plan: job.plan.clone(),
                last: false, // each takes a copy: tables share their rows
            };
            let (failed, metrics) = ((SessionState::Failed, why.clone()), Default::default());
            self.end_lane(shared, job.enqueued, failed, metrics, None, resume);
        }
        let (span, owner) = (job.group.map_or(NO_SPAN, |g| g.0), job.seats[0].0.id);
        let detail = format!("{}: {why}", job.request.name);
        self.close_group(span, owner, job.enqueued, detail);
    }

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
            lock(&self.agg).stats.rejected += 1;
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
        // queue slot. The wait is priced against the tenant's lane (its
        // backlog and the other lanes' weighted turns before it), not
        // the fleet's depth: the fair queue serves lanes by weight. A
        // cold estimator returns None and we admit optimistically.
        // Resumed sessions and publish groups carry no deadline, so
        // they are never shed here.
        if let Some(deadline) = request.deadline {
            let tenant = request.tenant_label();
            let ahead = queue
                .fair
                .ahead_of_push(&tenant, self.tenant_weight(&tenant));
            let estimated = self
                .admission
                .estimated_turnaround(ahead, self.config.workers);
            if let Some(estimated) = estimated.filter(|est| *est > deadline) {
                drop(queue);
                {
                    let mut agg = lock(&self.agg);
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
        let queue = lock(&self.queue);
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
            let mut agg = lock(&self.agg);
            agg.stats.admitted += lanes as u64;
            agg.stats.resumed += u64::from(resumed);
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
        lock(&self.tenant_weights)
            .get(tenant)
            .copied()
            .unwrap_or(1.0)
    }

    /// Applies `update` to `tenant`'s fairness counters, folding
    /// arrivals beyond [`MAX_TRACKED_TENANTS`] into the overflow bucket.
    pub(crate) fn tenant_entry(&self, tenant: &str, update: impl FnOnce(&mut TenantCounters)) {
        let mut map = lock(&self.tenant_stats);
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
            let mut map = lock(&self.resumables);
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
            lock(&self.agg).stats.resumables_evicted += evicted;
        }
    }

    /// Breaker feedback into the queue: when a route's breaker opens,
    /// its queued (non-resumed) sessions would only burn planning
    /// probes and retry budgets to learn what the breaker already
    /// knows — drain them now, each through the one [`Inner::gate`].
    /// Resumed sessions stay queued: resume is the operator's probe and
    /// intentionally bypasses the breaker. So do publish groups: their
    /// other lanes ride healthy routes, and the dequeue gate sheds this
    /// route's lane alone.
    pub(crate) fn shed_queued_route(&self, slot: &LinkSlot) {
        let drained = lock(&self.queue).fair.drain_matching(|qs| {
            !qs.resumed
                && qs.group.is_none()
                && qs.request.source_endpoint == slot.source()
                && qs.request.target_endpoint == slot.target()
        });
        for QueuedExchange {
            enqueued,
            mut request,
            seats,
            ..
        } in drained
        {
            let lane = self.open_lane(&seats[0].0, enqueued, &request, slot.target());
            self.gate(Stage::Drained, &mut request, enqueued, vec![lane], |_| None);
        }
    }

    /// Why the gate stops `lane` at `stage`, checked in order: cancelled;
    /// deadline passed (an expired deadline says nothing about link
    /// health, so the breaker is untouched); route breaker open (the lane
    /// would only fail after a probe and a full retry budget), whose shed
    /// hands back the cooldown left as its retry hint. Returns the
    /// terminal state and diagnostic, with the lane's events and shed
    /// counters recorded; `None` lets the lane go on.
    fn stop(&self, lane: &Lane, stage: Stage) -> Option<(SessionState, String)> {
        let (shared, slot) = (&lane.shared, &lane.slot);
        let when = match stage {
            Stage::Planned => "after planning",
            _ => "while queued",
        };
        if shared.is_cancelled() {
            return Some((SessionState::Cancelled, format!("cancelled {when}")));
        }
        let expired = shared.deadline_exceeded();
        let why = if expired {
            let kind = EventKind::DeadlineExceeded;
            self.events.push(shared.id, shared.root_span, kind, when);
            if stage == Stage::Planned {
                return Some((SessionState::Failed, format!("deadline exceeded {when}")));
            }
            format!("deadline exceeded {when}: shed before planning")
        } else {
            let retry = match stage {
                Stage::Dequeued { probe: false } => slot.breaker.cooldown_remaining()?,
                // The breaker just opened; a submit that half-opened it
                // since makes the hint "now".
                Stage::Drained => slot.breaker.cooldown_remaining().unwrap_or_default(),
                _ => return None,
            };
            slot.counters.sessions_shed.fetch_add(1, Ordering::Relaxed);
            let pair = slot.pair();
            format!("shed: circuit open on {pair}, retry in {retry:?}")
        };
        self.shed(shared.id, shared.root_span, &why);
        {
            let mut agg = lock(&self.agg);
            if expired {
                agg.stats.sessions_shed_expired += 1;
            } else {
                agg.stats.sessions_shed_breaker += 1;
            }
        }
        self.tenant_entry(&lane.metrics.tenant, |t| t.shed += 1);
        Some((SessionState::Failed, why))
    }

    /// The one gate before a lane costs a probe or a retry budget, at
    /// dequeue, after planning and in the breaker drain: ends each of
    /// `lanes` it stops ([`Inner::stop`]) through [`Inner::end_lane`],
    /// checkpointed with `plan_of` its wire format, and returns the rest.
    /// A stopped lane is the exchange's last when none before it went on
    /// and none follows.
    fn gate(
        &self,
        stage: Stage,
        request: &mut ExchangeRequest,
        enqueued: Instant,
        lanes: Vec<Lane>,
        plan_of: impl Fn(WireFormat) -> Option<Arc<CachedPlan>>,
    ) -> Vec<Lane> {
        let count = lanes.len();
        let mut live = Vec::with_capacity(count);
        for (i, lane) in lanes.into_iter().enumerate() {
            let Some(verdict) = self.stop(&lane, stage) else {
                live.push(lane);
                continue;
            };
            let resume = Checkpoint {
                request: &mut *request,
                target: lane.slot.target(),
                plan: plan_of(lane.metrics.wire_format),
                last: live.is_empty() && i + 1 == count,
            };
            self.end_lane(&lane.shared, enqueued, verdict, lane.metrics, None, resume);
        }
        live
    }

    /// Ends a lane that leaves without committing — stopped by the gate
    /// or rolled back at settlement — under one rule. A `Cancelled` lane
    /// is never resumable, so its ledger buffers are released. A
    /// `Failed` one deposits its checkpoint for [`Runtime::resume`],
    /// whose retry the ledger's persisted messages make
    /// serialization-free. `target` is what the result hands back: a
    /// failed settlement's rolled-back tables, or nothing.
    pub(crate) fn end_lane(
        &self,
        shared: &SessionShared,
        enqueued: Instant,
        (state, why): (SessionState, String),
        metrics: SessionMetrics,
        target: Option<Database>,
        resume: Checkpoint<'_>,
    ) {
        if state == SessionState::Cancelled {
            self.ledger.forget_session(shared.id);
        } else {
            let source = std::mem::take(&mut resume.request.source);
            let mut request = resume.request.clone();
            request.name = shared.name.clone();
            request.target_endpoint = resume.target.to_string();
            if resume.last {
                request.source = source;
            } else {
                // Tables share their rows and built indexes.
                request.source = source.clone();
                resume.request.source = source;
            }
            let plan = resume.plan;
            self.remember_resumable(shared.id, Resumable { request, plan });
        }
        self.finish(shared, enqueued, state, metrics, target, Some(why));
    }

    /// The one start arm: runs a queued exchange on the calling worker
    /// thread from dequeue through its source phase. The record stays in
    /// `job` until it becomes the exchange in `held`, so [`Inner::work`]
    /// owns either. Every
    /// lane passes the gate at dequeue; the survivors are planned once
    /// per negotiated wire format, pass the gate again, and each format
    /// becomes one group — its source phase runs once and every frame is
    /// encoded *once* into the ring all of its lanes ship from, over
    /// their own links, with their own ledgers, retry budgets and
    /// breakers. A session is the group of one lane; a lane that drops
    /// out on the way stays resumable as a session of its own without
    /// stalling the rest.
    fn start_exchange(
        &self,
        job: &mut Option<Box<QueuedExchange>>,
        held: &mut Option<Box<Exchange>>,
    ) {
        let Some(queued) = job.as_deref_mut() else {
            return;
        };
        let QueuedExchange {
            enqueued,
            resumed,
            request,
            plan: stored,
            seats,
            group,
        } = queued;
        let (enqueued, resumed) = (*enqueued, *resumed);
        let (group_span, lag_cap) = group.unwrap_or((NO_SPAN, usize::MAX));
        let owner = seats[0].0.id;
        let lanes = seats
            .iter()
            .map(|(shared, target)| self.open_lane(shared, enqueued, request, target))
            .collect();
        let dequeue = Stage::Dequeued { probe: resumed };
        let mut lanes = self.gate(dequeue, request, enqueued, lanes, |_| stored.clone());
        if lanes.is_empty() {
            let detail = format!("{}: no live lanes", request.name);
            return self.close_group(group_span, owner, enqueued, detail);
        }
        // A delta needs the one target whose base version the request
        // declares; the lanes of a group hold no version in common.
        let delta_base = match &mut lanes[..] {
            [lane] => self.resolve_delta_base(request, lane),
            _ => None,
        };
        // A delta round replays the plan its route's head was committed
        // with, when it was planned for this round's shape: the round
        // runs its program in place, so no placement lands other rows.
        let stored = match (stored.clone(), &delta_base) {
            (Some(plan), _) => Some((plan, "checkpointed plan".to_string())),
            (None, Some((base, head, ..))) => {
                let lane = &lanes[0];
                let shape = self.plan_shape(request, lane.metrics.wire_format, 1);
                let plan = self
                    .route_plans
                    .replay(&lane.feed_route, head - 1, shape.key());
                plan.map(|plan| (plan, format!("route plan, base v{base}")))
            }
            (None, None) => None,
        };
        // Planning is timed from the instant the (last lane's) queue wait
        // ended, and execution from the instant planning ended.
        let dequeued = enqueued + lanes[lanes.len() - 1].metrics.queue_wait;
        let plans = match self.plan(request, &mut lanes, dequeued, stored) {
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
        let planned_at = dequeued + lanes[0].metrics.planning;
        let plan_of = |format| {
            let planned = plans.iter().find(|(f, _)| *f == format);
            planned.map(|(_, plan)| Arc::clone(plan))
        };
        let mut lanes = self.gate(Stage::Planned, request, enqueued, lanes, plan_of);
        // Execute (Step 4): every cross-edge byte rides the shipping
        // engine on its lane's per-pair link, and the exchange parks
        // while its frames are on the wire. Writes are staged: a run
        // that dies mid-exchange rolls the target back.
        let mut groups = Vec::with_capacity(plans.len());
        for (format, plan) in plans {
            let (members, rest): (Vec<_>, Vec<_>) = lanes
                .into_iter()
                .partition(|l| l.metrics.wire_format == format);
            lanes = rest;
            if !members.is_empty() {
                groups.push(self.open_group(format, plan, planned_at, members));
            }
        }
        if groups.is_empty() {
            let detail = format!("{}: no live lanes", request.name);
            return self.close_group(group_span, owner, enqueued, detail);
        }
        if let Some(QueuedExchange { request, .. }) = job.take().map(|queued| *queued) {
            let ex = Exchange::new(enqueued, request, lag_cap, groups);
            self.launch(held.insert(Box::new(ex)), delta_base);
        }
    }

    /// Delta eligibility: resolves the base snapshot for the request's
    /// declared target version as `(base, head, snapshot, composed)`,
    /// `head` being the version the round will commit. A missing (or
    /// aged-out, uncomposable) snapshot falls back to a full re-ship
    /// before planning, which probes and keys like any full ship. A
    /// resolved base makes the round eligible to replay its route's plan
    /// ([`RoutePlans`]).
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
    /// format, consulting the shared cache — or replays a `stored` plan
    /// with zero probes and zero optimizer calls: a resumed session's
    /// checkpointed plan, or the plan a delta round's route head was
    /// committed with. `stored` carries what it is, for the
    /// `PlanCacheHit` event and the `plan` span. Returns the plans in
    /// first-lane order of their formats. The `plan` span is recorded on
    /// failure too, so the trace accounts for where a failed exchange's
    /// wall time went.
    fn plan(
        &self,
        request: &ExchangeRequest,
        lanes: &mut [Lane],
        started: Instant,
        stored: Option<(Arc<CachedPlan>, String)>,
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
        let (planned, replayed) = match stored {
            Some((plan, replayed)) => {
                lanes[0].metrics.plan_cache_hit = true;
                self.events.push(
                    owner.id,
                    plan_span,
                    EventKind::PlanCacheHit,
                    format!("{replayed} replayed: zero probes"),
                );
                (
                    Ok(vec![(lanes[0].metrics.wire_format, plan)]),
                    Some(replayed),
                )
            }
            None => (self.plan_formats(request, lanes, plan_span), None),
        };
        let planning = started.elapsed();
        for lane in lanes.iter_mut() {
            lane.metrics.planning = planning;
        }
        let detail = match &planned {
            Ok(plans) => {
                let cost: f64 = plans.iter().map(|(_, plan)| plan.cost).sum();
                self.planning_hist.record_duration_ns(planning);
                let cached = match replayed {
                    Some(replayed) => format!("{replayed} replayed"),
                    None => {
                        let hits = lanes.iter().filter(|l| l.metrics.plan_cache_hit).count();
                        format!("{hits} on cached plans")
                    }
                };
                format!(
                    "{} format group(s) over {} lane(s), {cached}, cost {cost:.1}",
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
    /// whole exchange (from the memo when its source's tables are the
    /// ones an earlier probe read), then one placement per distinct wire
    /// format with that format's lane count as the cost model's fanout —
    /// target work bills per subscriber, shipping is multicast-amortized
    /// — each cached under its own key, so the next exchange of this
    /// shape and size plans for free.
    fn plan_formats(
        &self,
        request: &ExchangeRequest,
        lanes: &mut [Lane],
        plan_span: SpanId,
    ) -> std::result::Result<Vec<Planned>, String> {
        lanes[0].metrics.planning_probes += 1;
        let stats = self
            .probes
            .probe(&self.schema, &request.source, &request.source_frag)
            .map_err(|e| format!("statistics probe failed: {e}"))?;
        let probed = stats_key(&stats);
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
            let shape = self.plan_shape(request, format, fanout);
            let key = PlanKey {
                shape: shape.key(),
                stats: probed,
            };
            let (plan, hit) = self.plan_cached(key, shape, &stats)?;
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

    /// Every input of `request`'s plan in `format` over `fanout` lanes
    /// but the statistics: the shape half of its key, known before any
    /// probe. Computation is the unit the communication weight prices
    /// bytes in, so its own weight is one.
    fn plan_shape<'r>(
        &self,
        request: &'r ExchangeRequest,
        format: WireFormat,
        fanout: usize,
    ) -> PlanShape<'r> {
        PlanShape {
            source: &request.source_frag,
            target: &request.target_frag,
            optimizer: request.optimizer.unwrap_or(self.config.optimizer),
            w_comp: 1.0,
            w_comm: self.config.w_comm,
            profiles: [request.source_profile, request.target_profile],
            wire_format: format,
            fanout,
        }
    }

    /// One plan-cache round trip: looks `key` up and, on a miss, plans
    /// `shape` under `stats`, prices the program and caches it. Returns
    /// the shared plan and whether it was a hit.
    fn plan_cached(
        &self,
        key: PlanKey,
        shape: PlanShape<'_>,
        stats: &SchemaStats,
    ) -> std::result::Result<(Arc<CachedPlan>, bool), String> {
        if let Some(cached) = self.cache.lookup(key) {
            return Ok((cached, true));
        }
        let model = shape.model(stats.clone());
        let (program, cost) =
            DataExchange::new(&self.schema, shape.source.clone(), shape.target.clone())
                .with_optimizer(shape.optimizer)
                .plan(&model)
                .map_err(|e| format!("planning failed: {e}"))?;
        let plan = CachedPlan::priced(&self.schema, &model, key.shape, program, cost);
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
            let mut agg = lock(&self.agg);
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
            // priced separately, by its drain window).
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::ShippingPolicy;
    use std::time::Duration;
    use xdx_net::BurstLoss;
    use xdx_relational::Feed;
    use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

    /// Sessions armed to panic once, by name and phase (`"source"`,
    /// `"target"`): the stand-in for a panicking operator. Tests share
    /// the process, so each arms names no other test submits.
    static ARMED: Mutex<Vec<(String, &str)>> = Mutex::new(Vec::new());

    fn arm(name: &str, phase: &'static str) {
        lock(&ARMED).push((name.to_string(), phase));
    }

    /// Panics if `name` is armed at `phase`, disarming it.
    pub(crate) fn panic_if_armed(name: &str, phase: &str) {
        let mut armed = lock(&ARMED);
        if let Some(at) = armed.iter().position(|&(ref n, p)| n == name && p == phase) {
            armed.swap_remove(at);
            drop(armed);
            panic!("injected {phase} panic in {name}");
        }
    }

    /// `f`'s answer, from a thread of its own: a minute without one fails
    /// the test instead of hanging it. `f` starts and drops its runtime
    /// itself, so a runtime that cannot shut down is never dropped here.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        let answer = rx.recv_timeout(Duration::from_secs(60));
        answer.expect("no answer within a minute: something hangs")
    }

    /// `count` MF→LF requests named `{name}-{i}` over distinct small
    /// documents, and the tables a healthy runtime lands for each.
    fn requests(name: &str, count: u64) -> (Vec<ExchangeRequest>, Vec<Vec<(String, Feed)>>) {
        let schema = schema();
        let (mf, lf) = (mf(&schema), lf(&schema));
        let requests: Vec<_> = (0..count)
            .map(|i| {
                let doc = generate(GenConfig {
                    target_bytes: 6_000,
                    seed: i,
                });
                let source = load_source(&doc, &schema, &mf).unwrap();
                ExchangeRequest::new(format!("{name}-{i}"), source, mf.clone(), lf.clone())
            })
            .collect();
        let healthy = Runtime::start(schema, RuntimeConfig::default());
        let landed = requests
            .iter()
            .map(|request| {
                let result = healthy.submit(request.clone()).unwrap().wait();
                assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
                db_tables(&result.target.unwrap())
            })
            .collect();
        (requests, landed)
    }

    fn assert_panicked(result: &SessionResult, phase: &str, name: &str) {
        assert_eq!(result.state, SessionState::Failed);
        let why = format!("panicked: injected {phase} panic in {name}");
        assert_eq!(result.diagnostic.as_deref(), Some(why.as_str()));
    }

    /// A panic in one session's source phase fails that session alone:
    /// the other sessions of a two-worker fleet land what a healthy run
    /// lands, and the runtime still shuts down. A message per row over a
    /// paced link leaves the panicked exchange with batches parked.
    #[test]
    fn a_source_phase_panic_fails_its_session_and_the_fleet_completes() {
        let (requests, landed) = requests("panic-source", 6);
        arm("panic-source-2", "source");
        let config = RuntimeConfig::default().with_workers(2).with_batch_rows(1);
        let config = config.with_link_pacing(0.01);
        let (results, stats) = within(move || {
            let runtime = Runtime::start(schema(), config);
            let handles: Vec<_> = requests
                .into_iter()
                .map(|request| runtime.submit(request).unwrap())
                .collect();
            let results: Vec<_> = handles.into_iter().map(SessionHandle::wait).collect();
            (results, runtime.shutdown())
        });
        for (i, (result, landed)) in results.iter().zip(landed).enumerate() {
            if i == 2 {
                assert_panicked(result, "source", "panic-source-2");
                let target = result.target.as_ref().expect("the rolled-back target");
                assert!(target.table_names().is_empty());
            } else {
                assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
                assert!(
                    db_tables(result.target.as_ref().unwrap()) == landed,
                    "session {i}"
                );
            }
        }
        assert_eq!((stats.completed, stats.failed), (5, 1));
    }

    /// A panic in the target phase hands back a target with nothing
    /// staged, and the failed session's checkpoint resumes and lands.
    #[test]
    fn a_target_phase_panic_rolls_back_and_its_checkpoint_resumes() {
        let (mut requests, landed) = requests("panic-target", 1);
        let request = requests.remove(0);
        arm("panic-target-0", "target");
        let (failed, done) = within(move || {
            let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
            let handle = runtime.submit(request).unwrap();
            let id = handle.id();
            let failed = handle.wait();
            (failed, runtime.resume(id).unwrap().wait())
        });
        assert_panicked(&failed, "target", "panic-target-0");
        let target = failed.target.expect("the rolled-back target");
        assert!(target.table_names().is_empty() && target.staged_rows() == 0);
        assert_eq!(done.state, SessionState::Done, "{:?}", done.diagnostic);
        assert!(db_tables(&done.target.unwrap()) == landed[0]);
    }

    /// The worker whose exchange panicked goes back to its loop: a lone
    /// worker serves the next session. Unpaced, the panicked exchange's
    /// batches had landed, unabsorbed.
    #[test]
    fn a_worker_serves_on_after_a_panic() {
        let (mut requests, landed) = requests("panic-serve", 2);
        arm("panic-serve-0", "source");
        let config = RuntimeConfig::default().with_workers(1).with_batch_rows(1);
        let (first, second) = within(move || {
            let runtime = Runtime::start(schema(), config);
            let first = runtime.submit(requests.remove(0)).unwrap().wait();
            (first, runtime.submit(requests.remove(0)).unwrap().wait())
        });
        assert_panicked(&first, "source", "panic-serve-0");
        assert_eq!(second.state, SessionState::Done, "{:?}", second.diagnostic);
        assert!(db_tables(&second.target.unwrap()) == landed[1]);
    }

    /// A panic in one lane's target phase ends every lane of its publish
    /// group: the lane that settled before it keeps `Done`, the rest fail,
    /// each counted once.
    #[test]
    fn a_panic_in_a_publish_lane_ends_every_lane_once() {
        let (mut requests, landed) = requests("panic-group", 1);
        let request = requests.remove(0);
        arm("panic-group→b", "target");
        let subscribers = ["a", "b", "c"].map(String::from).to_vec();
        let publish = PublishRequest::new(
            "panic-group",
            request.source,
            request.source_frag,
            request.target_frag,
            subscribers,
        );
        let (results, stats) = within(move || {
            let runtime = Runtime::start(schema(), RuntimeConfig::default().with_workers(2));
            let results = runtime.publish(publish).unwrap().wait();
            (results, runtime.shutdown())
        });
        assert_eq!(
            results[0].state,
            SessionState::Done,
            "{:?}",
            results[0].diagnostic
        );
        assert!(db_tables(results[0].target.as_ref().unwrap()) == landed[0]);
        assert_panicked(&results[1], "target", "panic-group→b");
        assert_panicked(&results[2], "target", "panic-group→b");
        assert_eq!((stats.completed, stats.failed), (1, 2));
    }

    /// A resumed session whose exchange never ships again — cancelled in
    /// the queue, or between planning and shipping — can never be resumed,
    /// so the failed run's checkpointed messages must leave the ledger
    /// with it instead of waiting for shard eviction.
    #[test]
    fn a_resumed_session_cancelled_before_it_ships_releases_its_ledger_buffers() {
        let schema = schema();
        let doc = generate(GenConfig::sized(12_000));
        let (mf, lf) = (mf(&schema), lf(&schema));
        for after_planning in [false, true] {
            // A link eating a third of the frames defeats 3 attempts per
            // chunk partway through the document.
            let runtime = Runtime::start(
                schema.clone(),
                RuntimeConfig::default()
                    .with_workers(1)
                    .with_fault_profile(FaultProfile {
                        drop_probability: 0.35,
                        seed: 3,
                        ..FaultProfile::healthy()
                    })
                    .with_shipping(ShippingPolicy {
                        chunk_bytes: 1024,
                        max_attempts_per_chunk: 3,
                        retry_budget: 16,
                        backoff_base: Duration::from_millis(1),
                        ..ShippingPolicy::default()
                    }),
            );
            let inner = Arc::clone(&runtime.inner);
            let source = load_source(&doc, &schema, &mf).unwrap();
            let request = ExchangeRequest::new("checkpointed", source, mf.clone(), lf.clone());
            let handle = runtime.submit(request).unwrap();
            let id = handle.id();
            assert_eq!(handle.wait().state, SessionState::Failed);
            assert!(inner.ledger.checkpointed_chunks(id) > 0, "nothing landed");
            runtime.set_fault_profile(FaultProfile::healthy());

            // Every in-flight slot taken: the resume waits in the queue.
            let cap = inner.config.workers * inner.config.pipeline_sessions_per_worker;
            lock(&inner.queue).outstanding += cap;
            let resumed = runtime.resume(id).unwrap();
            // Planning's first act after the `Planning` state is an event:
            // holding the log stops the worker before the gate after it.
            let log = after_planning.then(|| lock(&inner.events.entries));
            if !after_planning {
                resumed.cancel();
            }
            lock(&inner.queue).outstanding -= cap;
            inner.available.notify_all();
            if let Some(log) = log {
                while resumed.state() != SessionState::Planning {
                    std::thread::yield_now();
                }
                resumed.cancel();
                drop(log);
            }
            let result = resumed.wait();
            let when = if after_planning {
                "after planning"
            } else {
                "while queued"
            };
            assert_eq!(result.state, SessionState::Cancelled, "{when}");
            assert_eq!(result.diagnostic, Some(format!("cancelled {when}")));
            assert_eq!(
                inner.ledger.checkpointed_chunks(id),
                0,
                "cancelled {when}: the failed run's buffers stayed"
            );
            runtime.shutdown();
        }
    }

    /// When a route's breaker opens, its queued sessions are drained and
    /// shed immediately — none of them burns a planning probe or a retry
    /// budget on a link the breaker already condemned — while other routes
    /// keep completing. Shed sessions stay resumable.
    #[test]
    fn an_opening_breaker_drains_and_sheds_its_queued_route() {
        let schema = schema();
        let doc = generate(GenConfig::sized(8_000));
        let (mf, lf) = (mf(&schema), lf(&schema));
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(1)
                .with_breaker(1, Duration::from_secs(60))
                // One exchange in flight: the drain scenario needs the
                // doomed route's later sessions still *queued* when the
                // first one settles and opens the breaker. With more
                // parked slots the scheduler would race them onto the
                // condemned link first (covered by the chaos matrix); here
                // the subject is the drain itself.
                .with_pipeline_sessions_per_worker(1)
                .with_shipping(ShippingPolicy {
                    max_attempts_per_chunk: 2,
                    retry_budget: 1,
                    backoff_base: Duration::from_millis(1),
                    ..ShippingPolicy::default()
                }),
        );
        let inner = &*runtime.inner;
        // The doomed route loses everything; the healthy route is untouched.
        runtime.set_link_fault_profile("doomed", "hub", FaultProfile::drops(1.0, 7));

        // All sources parsed up front, and every in-flight slot taken
        // while the four sessions queue, so none starts before all four
        // wait: a doomed session that ran early would open the breaker on
        // the submits after it. The single slot then runs the sessions one
        // at a time, and the breaker opens with two doomed ones queued.
        let mut sources: Vec<_> = (0..4)
            .map(|_| load_source(&doc, &schema, &mf).unwrap())
            .collect();
        let cap = inner.config.workers * inner.config.pipeline_sessions_per_worker;
        lock(&inner.queue).outstanding += cap;
        let healthy = runtime
            .submit(
                ExchangeRequest::new("healthy", sources.remove(0), mf.clone(), lf.clone())
                    .with_route("healthy", "hub"),
            )
            .unwrap();
        let mut doomed = Vec::new();
        for (i, source) in sources.into_iter().enumerate() {
            doomed.push(
                runtime
                    .submit(
                        ExchangeRequest::new(format!("doomed-{i}"), source, mf.clone(), lf.clone())
                            .with_route("doomed", "hub"),
                    )
                    .unwrap(),
            );
        }
        lock(&inner.queue).outstanding -= cap;
        inner.available.notify_all();
        assert_eq!(healthy.wait().state, SessionState::Done);

        // The first doomed session fails on the link and opens the breaker;
        // the rest are shed (drained from the queue, or refused at dequeue).
        let first = doomed.remove(0).wait();
        assert_eq!(first.state, SessionState::Failed);
        let mut shed_ids = Vec::new();
        for handle in doomed {
            let id = handle.id();
            let result = handle.wait();
            assert_eq!(result.state, SessionState::Failed);
            let diagnostic = result.diagnostic.unwrap_or_default();
            assert!(diagnostic.contains("circuit open"), "{diagnostic:?}");
            shed_ids.push(id);
        }

        let stats = runtime.shutdown();
        assert_eq!(stats.sessions_shed_breaker, 2);
        let doomed_link = stats
            .links
            .iter()
            .find(|l| l.source == "doomed")
            .expect("doomed link registered");
        assert_eq!(doomed_link.sessions_shed, 2);
        assert!(doomed_link.breaker_open);
        assert_eq!(
            stats.planning_probes, 2,
            "one probe for the doomed route's first session, one for healthy — \
             shed sessions probed nothing"
        );
        let healthy_link = stats
            .links
            .iter()
            .find(|l| l.source == "healthy")
            .expect("healthy link registered");
        assert_eq!(healthy_link.sessions_completed, 1);
        assert_eq!(healthy_link.sessions_shed, 0);
    }

    /// Sessions an opening breaker drains from the queue end through the
    /// same gate as a dequeue: a `queued` span under their root, a queue
    /// wait sample, the wire format their route negotiated, and a `Shed`
    /// event carrying the breaker's retry hint.
    #[test]
    fn a_breaker_drained_session_is_booked_like_any_other_shed() {
        let schema = schema();
        let doc = generate(GenConfig::sized(8_000));
        let (mf, lf) = (mf(&schema), lf(&schema));
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(1)
                .with_breaker(1, Duration::from_secs(60))
                .with_pipeline_sessions_per_worker(1)
                .with_shipping(ShippingPolicy {
                    max_attempts_per_chunk: 2,
                    retry_budget: 1,
                    backoff_base: Duration::from_millis(1),
                    ..ShippingPolicy::default()
                }),
        );
        let inner = &*runtime.inner;
        runtime.set_endpoint_format("doomed", WireFormat::Columnar);
        runtime.set_endpoint_format("hub", WireFormat::Columnar);
        runtime.set_link_fault_profile("doomed", "hub", FaultProfile::drops(1.0, 7));
        // Every in-flight slot taken while the sessions queue, so none
        // starts before all three wait: the first then runs alone and
        // opens the breaker on the other two.
        let cap = inner.config.workers * inner.config.pipeline_sessions_per_worker;
        lock(&inner.queue).outstanding += cap;
        let mut doomed: Vec<_> = (0..3)
            .map(|i| {
                let source = load_source(&doc, &schema, &mf).unwrap();
                let name = format!("doomed-{i}");
                let request = ExchangeRequest::new(name, source, mf.clone(), lf.clone());
                runtime.submit(request.with_route("doomed", "hub")).unwrap()
            })
            .collect();
        lock(&inner.queue).outstanding -= cap;
        inner.available.notify_all();
        let first = doomed.remove(0);
        let first_id = first.id();
        assert_eq!(first.wait().state, SessionState::Failed);

        let events = runtime.events();
        let spans = inner.trace.snapshot();
        let first_failed = events
            .iter()
            .position(|e| e.session == first_id && e.kind == EventKind::Failed)
            .expect("the first doomed session failed");
        for handle in doomed {
            let (id, root) = (handle.id(), handle.shared.root_span);
            let result = handle.wait();
            assert_eq!(result.state, SessionState::Failed);
            let diagnostic = result.diagnostic.unwrap_or_default();
            assert!(diagnostic.contains("circuit open"), "{diagnostic:?}");
            assert_eq!(result.metrics.wire_format, WireFormat::Columnar);
            // Drained while the first session settled, before it ended.
            let shed = events
                .iter()
                .position(|e| e.session == id && e.kind == EventKind::Shed)
                .expect("a drained session emits a Shed event");
            assert!(shed < first_failed, "session {id} was not drained");
            assert!(
                events[shed].detail.contains("retry in"),
                "{:?}",
                events[shed]
            );
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == "queued" && s.session == id && s.parent == root),
                "session {id} has no queued span under its root"
            );
        }
        // One queue wait sample per session: the failed one, two drained.
        assert_eq!(inner.queue_wait_hist.count(), 3);
        let stats = runtime.shutdown();
        assert_eq!(stats.sessions_shed_breaker, 2);
    }

    /// Overload meets chaos: the fleet is driven at roughly 2x its worker
    /// capacity while one route suffers a Gilbert–Elliott burst-loss link
    /// hostile enough to defeat its retry budget. The degraded route must
    /// fail fast and shed its queued backlog through the breaker; the
    /// healthy route must stay clean — every session done, zero retries,
    /// zero sheds — and the overload accounting must balance exactly:
    /// every submission is completed or failed, every breaker shed is
    /// billed to the degraded link, and no counter goes inconsistent.
    #[test]
    fn overloaded_fleet_sheds_the_degraded_route_and_keeps_the_healthy_one_clean() {
        let schema = schema();
        let doc = generate(GenConfig::sized(8_000));
        let mf = mf(&schema);
        let lf = lf(&schema);
        let runtime = Runtime::start(
            schema.clone(),
            RuntimeConfig::default()
                .with_workers(2)
                .with_breaker(2, Duration::from_secs(60))
                // Cap in-flight sessions at one per worker: the pipelined
                // scheduler parks sessions mid-wire and frees their workers,
                // and at the default cap (4/worker) the whole twelve-session
                // burst fits in the parked pool — the queue drains before the
                // breaker opens and there is no backlog left to shed. With
                // the cap at 2 the overload stays a visible queue, which is
                // the scenario under test.
                .with_pipeline_sessions_per_worker(1)
                .with_shipping(ShippingPolicy {
                    chunk_bytes: 2 * 1024,
                    max_attempts_per_chunk: 2,
                    retry_budget: 2,
                    backoff_base: Duration::from_millis(1),
                    ..ShippingPolicy::default()
                }),
        );
        // A burst-loss channel that is almost always in its bad state and
        // drops everything while there: two attempts per chunk and a
        // two-retry budget cannot win against it.
        runtime.set_link_fault_profile(
            "degraded",
            "hub",
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.9,
                    exit: 0.05,
                    loss: 1.0,
                }),
                seed: 0x1CDE_2004,
                ..FaultProfile::healthy()
            },
        );

        // 2x overload on two workers: twelve sessions submitted while every
        // in-flight slot is taken, so the whole burst is queued before the
        // first failure can open the breaker and refuse admissions.
        let inner = &*runtime.inner;
        let cap = inner.config.workers * inner.config.pipeline_sessions_per_worker;
        let mut sources: Vec<_> = (0..12)
            .map(|_| load_source(&doc, &schema, &mf).unwrap())
            .collect();
        lock(&inner.queue).outstanding += cap;
        let mut healthy = Vec::new();
        let mut degraded = Vec::new();
        for i in 0..4 {
            healthy.push(
                runtime
                    .submit(
                        ExchangeRequest::new(
                            format!("healthy-{i}"),
                            sources.remove(0),
                            mf.clone(),
                            lf.clone(),
                        )
                        .with_route("healthy", "hub"),
                    )
                    .unwrap(),
            );
        }
        for (i, source) in sources.into_iter().enumerate() {
            degraded.push(
                runtime
                    .submit(
                        ExchangeRequest::new(
                            format!("degraded-{i}"),
                            source,
                            mf.clone(),
                            lf.clone(),
                        )
                        .with_route("degraded", "hub"),
                    )
                    .unwrap(),
            );
        }

        lock(&inner.queue).outstanding -= cap;
        inner.available.notify_all();

        // The healthy route rides through the overload untouched.
        for handle in healthy {
            let session = handle.name().to_string();
            let result = handle.wait();
            assert_eq!(
                result.state,
                SessionState::Done,
                "{session}: {:?}",
                result.diagnostic
            );
        }
        // The degraded route fails — on the link or shed from the queue.
        let mut degraded_failures = 0u64;
        for handle in degraded {
            let session = handle.name().to_string();
            let result = handle.wait();
            assert_eq!(
                result.state,
                SessionState::Failed,
                "{session} survived a dead link"
            );
            degraded_failures += 1;
        }

        let events = runtime.events();
        assert!(events.iter().any(|e| e.kind == EventKind::CircuitOpened));
        assert!(events.iter().any(|e| e.kind == EventKind::Shed));

        let stats = runtime.shutdown();
        // Accounting identities under overload: nothing lost, nothing
        // double-counted, nothing negative (every counter is unsigned, so
        // consistency is the real assertion).
        assert_eq!(stats.completed, 4, "healthy sessions all completed");
        assert_eq!(stats.failed, degraded_failures);
        assert_eq!(
            stats.completed + stats.failed,
            12,
            "every submission accounted"
        );
        assert!(
            stats.sessions_shed_breaker >= 1,
            "an open breaker with a queued backlog must shed"
        );
        assert!(
            stats.sessions_shed_breaker + stats.sessions_shed_expired <= stats.failed,
            "every shed session is also a failed session"
        );
        let healthy_link = stats
            .links
            .iter()
            .find(|l| l.source == "healthy")
            .expect("healthy link tracked");
        assert_eq!(healthy_link.sessions_completed, 4);
        assert_eq!(healthy_link.sessions_failed, 0);
        assert_eq!(healthy_link.sessions_shed, 0);
        assert_eq!(healthy_link.chunks_retried, 0, "healthy link saw faults");
        let degraded_link = stats
            .links
            .iter()
            .find(|l| l.source == "degraded")
            .expect("degraded link tracked");
        assert!(
            degraded_link.breaker_open,
            "the dead route's breaker opened"
        );
        assert_eq!(
            degraded_link.sessions_failed + degraded_link.sessions_shed,
            degraded_failures,
            "every degraded failure is billed to its link, once"
        );
        assert_eq!(
            stats.links.iter().map(|l| l.sessions_shed).sum::<u64>(),
            stats.sessions_shed_breaker,
            "breaker sheds and per-link shed billing agree"
        );
        // Per-tenant accounting agrees with the global counters.
        let degraded_tenant = stats
            .tenants
            .iter()
            .find(|t| t.tenant == "degraded→hub")
            .expect("degraded tenant tracked");
        assert_eq!(degraded_tenant.admitted, 8);
        let healthy_tenant = stats
            .tenants
            .iter()
            .find(|t| t.tenant == "healthy→hub")
            .expect("healthy tenant tracked");
        assert_eq!(healthy_tenant.admitted, 4);
        assert_eq!(healthy_tenant.completed, 4);
        assert_eq!(healthy_tenant.shed, 0);
    }
}

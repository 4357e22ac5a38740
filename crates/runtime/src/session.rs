//! Exchange sessions: the unit of work the runtime admits, queues,
//! plans, executes and accounts for.
//!
//! A session's public face is the [`SessionHandle`] returned by
//! `Runtime::submit`: callers observe state transitions, request
//! cancellation, and block on the terminal [`SessionResult`]. Internally
//! the runtime and the submitting thread share a `SessionShared` cell
//! guarded by a mutex + condvar.

use crate::sync::{lock, wait};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xdx_core::{Fragmentation, Optimizer, SystemProfile, WireFormat};
use xdx_relational::{Counters, Database};

/// Default source endpoint of a request's route.
pub const DEFAULT_SOURCE_ENDPOINT: &str = "source";
/// Default target endpoint of a request's route.
pub const DEFAULT_TARGET_ENDPOINT: &str = "target";

/// Runtime-assigned session identifier (1-based, monotonically
/// increasing per runtime instance).
pub type SessionId = u64;

/// Scheduling priority. Higher priorities are dequeued first; within a
/// priority class the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: bulk refreshes, backfills.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive or deadline-driven exchanges.
    High,
}

/// Lifecycle of a session.
///
/// ```text
/// Queued → Planning → Executing → Shipping → Done
///    \         \          \________________→ Failed
///     \________ \___________________________→ Cancelled
/// ```
///
/// `Executing` covers the source half; the session turns `Shipping`
/// when its first batch goes on the wire (which may be while later
/// source operators still compute) and stays there through staging and
/// the target half. `Done`, `Failed` and `Cancelled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is probing statistics and optimizing the program.
    Planning,
    /// The data-transfer program is running.
    Executing,
    /// A cross-edge shipment is in flight (chunks, possibly retries).
    Shipping,
    /// All rows landed and indexes were rebuilt.
    Done,
    /// The session gave up; `SessionResult::diagnostic` says why.
    Failed,
    /// Cancellation was observed before completion.
    Cancelled,
}

impl SessionState {
    /// True for `Done`, `Failed` and `Cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Failed | SessionState::Cancelled
        )
    }
}

/// One exchange to run: a source database plus the two registered
/// fragmentations, exactly the ingredients of a `DataExchange`.
///
/// The request *owns* its source database — sessions run concurrently,
/// and the executor mutates source-side scan counters — and receives a
/// freshly created target database back in the [`SessionResult`].
#[derive(Debug, Clone)]
pub struct ExchangeRequest {
    /// Human-readable session name (used in logs and the target DB name).
    pub name: String,
    /// The source system's stored fragments.
    pub source: Database,
    /// Source fragmentation (Step-1 registration).
    pub source_frag: Fragmentation,
    /// Target fragmentation (Step-1 registration).
    pub target_frag: Fragmentation,
    /// Scheduling priority.
    pub priority: Priority,
    /// Source system capabilities/speed.
    pub source_profile: SystemProfile,
    /// Target system capabilities/speed.
    pub target_profile: SystemProfile,
    /// Wall-clock budget from admission to completion; a session that
    /// overruns it fails with a `deadline exceeded` diagnostic (and can
    /// be resumed with a fresh budget).
    pub deadline: Option<Duration>,
    /// Source endpoint of the wide-area route this session ships over.
    /// Together with `target_endpoint` it names the `(source, target)`
    /// pair whose registry link carries the session; sessions on
    /// distinct pairs ship in parallel over independent links.
    pub source_endpoint: String,
    /// Target endpoint of the route (see `source_endpoint`).
    pub target_endpoint: String,
    /// Admission-fairness tenant this session bills to. `None` (the
    /// default) bills to the route pair, so one hot `(source, target)`
    /// pair competes as a single tenant; an explicit tag groups
    /// sessions across routes (e.g. per customer).
    pub tenant: Option<String>,
    /// Per-session optimizer override; `None` plans with the runtime's
    /// configured default.
    pub optimizer: Option<Optimizer>,
    /// Per-session wire-format override; `None` ships in the format the
    /// route's endpoints negotiated.
    pub wire_format: Option<WireFormat>,
    /// Feed version the *target* already holds for this route and
    /// fragmentation pair. `Some(v)` asks the planner to ship a delta
    /// patch against the versioned snapshot `v` instead of the full
    /// feeds; if the snapshot aged out, the diff fails, or the patch
    /// would cost more than a full ship, the session falls back to a
    /// full re-ship. `None` (the default) always ships full feeds.
    pub base_version: Option<u64>,
}

impl ExchangeRequest {
    /// A normal-priority request with default system profiles.
    pub fn new(
        name: impl Into<String>,
        source: Database,
        source_frag: Fragmentation,
        target_frag: Fragmentation,
    ) -> ExchangeRequest {
        ExchangeRequest {
            name: name.into(),
            source,
            source_frag,
            target_frag,
            priority: Priority::Normal,
            source_profile: SystemProfile::default(),
            target_profile: SystemProfile::default(),
            deadline: None,
            source_endpoint: DEFAULT_SOURCE_ENDPOINT.into(),
            target_endpoint: DEFAULT_TARGET_ENDPOINT.into(),
            tenant: None,
            optimizer: None,
            wire_format: None,
            base_version: None,
        }
    }

    /// Routes the session over the `(source, target)` endpoint pair —
    /// its shipments use that pair's registry link (created on first
    /// use), independent of every other pair's link.
    pub fn with_route(
        mut self,
        source_endpoint: impl Into<String>,
        target_endpoint: impl Into<String>,
    ) -> ExchangeRequest {
        self.source_endpoint = source_endpoint.into();
        self.target_endpoint = target_endpoint.into();
        self
    }

    /// Overrides the optimizer for this session alone.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> ExchangeRequest {
        self.optimizer = Some(optimizer);
        self
    }

    /// Overrides the wire format for this session alone, bypassing the
    /// route's negotiation (receivers sniff each frame, so a one-off
    /// format is always safe to ship).
    pub fn with_wire_format(mut self, format: WireFormat) -> ExchangeRequest {
        self.wire_format = Some(format);
        self
    }

    /// Declares that the target already holds feed version `version` of
    /// this route's snapshot log, enabling delta planning: the session
    /// ships a Dewey subtree patch when it is cheaper than the full
    /// feeds, and falls back to a full re-ship otherwise.
    pub fn with_base_version(mut self, version: u64) -> ExchangeRequest {
        self.base_version = Some(version);
        self
    }

    /// Bills the session to an explicit admission-fairness tenant
    /// instead of its route pair. The weighted-fair queue guarantees
    /// each backlogged tenant its share of dequeues, so no tag — and no
    /// route — can starve the rest of the fleet.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> ExchangeRequest {
        self.tenant = Some(tenant.into());
        self
    }

    /// The fairness tenant this request bills to: the explicit
    /// [`with_tenant`](ExchangeRequest::with_tenant) tag, or the route
    /// pair (`source→target`) when untagged.
    pub fn tenant_label(&self) -> String {
        self.lane_tenant(&self.target_endpoint)
    }

    /// The fairness tenant a lane of this request to `target_endpoint`
    /// bills to (a publish group's lanes share one request).
    pub(crate) fn lane_tenant(&self, target_endpoint: &str) -> String {
        self.tenant
            .clone()
            .unwrap_or_else(|| format!("{}→{target_endpoint}", self.source_endpoint))
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> ExchangeRequest {
        self.priority = priority;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ExchangeRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the system profiles the planner costs against.
    pub fn with_profiles(
        mut self,
        source: SystemProfile,
        target: SystemProfile,
    ) -> ExchangeRequest {
        self.source_profile = source;
        self.target_profile = target;
        self
    }
}

/// A 1→N publish: one source shipping the *same* exchange to a set of
/// subscriber endpoints as a single publish group.
///
/// The runtime queues the group as one exchange of N lanes, plans it
/// once per distinct `(shape, wire format)` with the lane count as the
/// cost model's fanout ([`xdx_core::CostModel::fanout`]), runs the
/// source phase once, encodes every operator batch once per format into
/// a shared refcounted frame, and ships those same bytes over each
/// subscriber's own link lane. Per-subscriber ledger acks, retry
/// budgets, circuit breakers and resume stay fully independent: a slow
/// or broken subscriber never stalls the others — beyond
/// [`lag_cap`](PublishRequest::lag_cap) frames of lag it is dropped
/// from the shared buffer and left resumable as an ordinary two-site
/// session (the per-subscriber re-encode/full-ship fallback).
#[derive(Debug)]
pub struct PublishRequest {
    /// Human-readable group name (subscriber sessions are named
    /// `{name}→{subscriber}`).
    pub name: String,
    /// The source system's stored fragments (owned: the group's source
    /// phase mutates scan counters).
    pub source: Database,
    /// Source fragmentation (Step-1 registration).
    pub source_frag: Fragmentation,
    /// Target fragmentation every subscriber registered.
    pub target_frag: Fragmentation,
    /// Source endpoint of every lane's route.
    pub source_endpoint: String,
    /// Subscriber target endpoints; each gets its own session, link
    /// lane, ledger and result.
    pub subscribers: Vec<String>,
    /// Scheduling priority of the group: it queues as one entry of the
    /// fair queue, under its first subscriber's tenant.
    pub priority: Priority,
    /// Source system capabilities/speed.
    pub source_profile: SystemProfile,
    /// Subscriber capabilities/speed (uniform across the group; the
    /// cost model bills target work once per subscriber).
    pub target_profile: SystemProfile,
    /// Admission-fairness tenant the lanes bill to; `None` bills each
    /// lane to its own route pair.
    pub tenant: Option<String>,
    /// Per-group optimizer override; `None` plans with the runtime's
    /// configured default.
    pub optimizer: Option<Optimizer>,
    /// Per-group wire-format override applied to every lane; `None`
    /// lets each lane ship in its route's negotiated format (lanes are
    /// planned and encoded per distinct format).
    pub wire_format: Option<WireFormat>,
    /// Frames (messages, each up to `batch_rows` rows of batches) a
    /// subscriber may trail the group's fastest lane before it is
    /// dropped from the shared frame buffer: the buffer ring only
    /// retains frames between the slowest and fastest active lanes, so
    /// this cap bounds its memory. A dropped lane fails with a
    /// diagnostic and stays resumable as an independent two-site
    /// session (re-encoding only the frames its ledger never saw).
    pub lag_cap: usize,
}

/// Default [`PublishRequest::lag_cap`]: deep enough that transient
/// retries never eject a lane, shallow enough to bound the shared ring.
pub const DEFAULT_PUBLISH_LAG_CAP: usize = 64;

impl PublishRequest {
    /// A normal-priority publish of `source` to `subscribers`.
    pub fn new(
        name: impl Into<String>,
        source: Database,
        source_frag: Fragmentation,
        target_frag: Fragmentation,
        subscribers: Vec<String>,
    ) -> PublishRequest {
        PublishRequest {
            name: name.into(),
            source,
            source_frag,
            target_frag,
            source_endpoint: DEFAULT_SOURCE_ENDPOINT.into(),
            subscribers,
            priority: Priority::Normal,
            source_profile: SystemProfile::default(),
            target_profile: SystemProfile::default(),
            tenant: None,
            optimizer: None,
            wire_format: None,
            lag_cap: DEFAULT_PUBLISH_LAG_CAP,
        }
    }

    /// Sets the source endpoint every lane routes from.
    pub fn with_source_endpoint(mut self, endpoint: impl Into<String>) -> PublishRequest {
        self.source_endpoint = endpoint.into();
        self
    }

    /// Overrides the optimizer for this group alone.
    pub fn with_optimizer(mut self, optimizer: Optimizer) -> PublishRequest {
        self.optimizer = Some(optimizer);
        self
    }

    /// Overrides the wire format of every lane, bypassing per-route
    /// negotiation.
    pub fn with_wire_format(mut self, format: WireFormat) -> PublishRequest {
        self.wire_format = Some(format);
        self
    }

    /// Sets the system profiles the planner costs against.
    pub fn with_profiles(mut self, source: SystemProfile, target: SystemProfile) -> PublishRequest {
        self.source_profile = source;
        self.target_profile = target;
        self
    }

    /// Bills every lane to an explicit admission-fairness tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> PublishRequest {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> PublishRequest {
        self.priority = priority;
        self
    }

    /// Sets the shared-buffer lag cap (clamped to ≥ 1).
    pub fn with_lag_cap(mut self, cap: usize) -> PublishRequest {
        self.lag_cap = cap.max(1);
        self
    }
}

/// Everything measured about one session.
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// Admission to worker pickup.
    pub queue_wait: Duration,
    /// Statistics probe + optimization (or cache lookup).
    pub planning: Duration,
    /// Whether planning was satisfied without the optimizer: from the
    /// plan cache, or by replaying a stored plan.
    pub plan_cache_hit: bool,
    /// Statistics probes run during planning: 1 for a normal run, 0 for
    /// a resumed session replaying its checkpointed plan or a delta
    /// round replaying its route's plan.
    pub planning_probes: u32,
    /// Cross-edge messages serialized from feeds in this run; shipments
    /// replayed from the checkpoint ledger are not re-serialized and not
    /// counted, so a fully checkpointed resume reports 0.
    pub messages_serialized: usize,
    /// The `(source, target)` route the session shipped over, as
    /// `source→target`.
    pub route: String,
    /// The admission-fairness tenant the session billed to (explicit
    /// tag, or the route pair).
    pub tenant: String,
    /// The wire format this session's cross-edge messages were encoded
    /// in (negotiated by the route, or the request's override).
    pub wire_format: WireFormat,
    /// Encoded feed-frame bytes produced in this run (logical payload
    /// before a multi-part message's container header, the envelope and
    /// chunk framing; a fully checkpointed resume reports 0).
    pub bytes_encoded: u64,
    /// Wall nanoseconds spent encoding messages in this run.
    pub encode_ns: u64,
    /// Simulated link time, including timeout waits and retry backoff.
    pub communication: Duration,
    /// Simulated backoff waits alone (subset of `communication`).
    pub retry_backoff: Duration,
    /// Wire bytes actually transmitted, *including* failed attempts.
    pub bytes_shipped: u64,
    /// Logical cross-edge messages shipped.
    pub messages: usize,
    /// Chunks that arrived intact *during this run* (failed attempts
    /// not counted).
    pub chunks_shipped: u64,
    /// Chunks found already checkpointed in the reassembly ledger and
    /// not re-shipped (nonzero only for resumed sessions).
    pub chunks_resumed: u64,
    /// Duplicate chunk deliveries detected and dropped idempotently.
    pub chunks_deduped: u64,
    /// Chunk transmissions that failed and were retried.
    pub chunks_retried: u64,
    /// Rows loaded into target tables.
    pub rows_loaded: u64,
    /// Encoded Patch-frame bytes shipped by this session (0 for full
    /// re-ships).
    pub delta_patch_bytes: u64,
    /// Delta patches applied transactionally at the target (0 or 1 per
    /// session).
    pub delta_patches_applied: u64,
    /// Delta-eligible sessions where the cost model chose the full
    /// re-ship anyway (patch larger than the full feeds).
    pub delta_full_chosen: u64,
    /// Delta-eligible sessions that fell back to a full re-ship for a
    /// non-cost reason: missing/aged-out snapshot, diff failure, patch
    /// decode failure, or a stale version precondition.
    pub delta_full_fallbacks: u64,
    /// Delta-eligible sessions whose base snapshot had aged out of the
    /// retention window but was reconstructed by composing the retained
    /// per-step patches — the session still shipped a delta (0 or 1).
    pub delta_chain_composed: u64,
    /// Source engine counters after the run.
    pub source_counters: Counters,
    /// Target engine counters after the run.
    pub target_counters: Counters,
    /// Admission to terminal state (host wall clock).
    pub total_wall: Duration,
}

/// Terminal outcome of a session.
#[derive(Debug)]
pub struct SessionResult {
    /// `Done`, `Failed` or `Cancelled`.
    pub state: SessionState,
    /// Measurements up to the terminal transition.
    pub metrics: SessionMetrics,
    /// The target database: populated for `Done`; present but *rolled
    /// back* (no tables, no rows) for a session that failed during
    /// execution — observable proof that a dying `Write` left nothing
    /// half-loaded. `None` when execution never started.
    pub target: Option<Database>,
    /// Why the session failed or was abandoned.
    pub diagnostic: Option<String>,
}

/// State shared between the submitting thread and the worker.
#[derive(Debug)]
pub(crate) struct SessionShared {
    pub(crate) id: SessionId,
    pub(crate) name: String,
    /// Admission instant; the deadline clock starts here, so queue wait
    /// counts against the budget (a deadline is a promise to the caller,
    /// not to the worker).
    submitted_at: Instant,
    deadline: Option<Duration>,
    /// The lifecycle state and, from the terminal transition on, the
    /// result: one guard, so no waiter sees the one without the other.
    state: Mutex<(SessionState, Option<SessionResult>)>,
    state_changed: Condvar,
    pub(crate) cancelled: AtomicBool,
    /// Root trace span of this session (0 when tracing is off). Every
    /// child span and correlated event hangs off this id.
    pub(crate) root_span: xdx_trace::SpanId,
    /// Span the root records *under* — [`xdx_trace::NO_SPAN`] for an
    /// ordinary session; the publish group span for a fan-out lane, so
    /// lane trees stitch into one distributed trace.
    pub(crate) root_parent: xdx_trace::SpanId,
}

impl SessionShared {
    pub(crate) fn new(
        id: SessionId,
        name: String,
        deadline: Option<Duration>,
        root_span: xdx_trace::SpanId,
    ) -> Arc<SessionShared> {
        SessionShared::new_with_parent(id, name, deadline, root_span, xdx_trace::NO_SPAN)
    }

    pub(crate) fn new_with_parent(
        id: SessionId,
        name: String,
        deadline: Option<Duration>,
        root_span: xdx_trace::SpanId,
        root_parent: xdx_trace::SpanId,
    ) -> Arc<SessionShared> {
        Arc::new(SessionShared {
            id,
            name,
            submitted_at: Instant::now(),
            deadline,
            state: Mutex::new((SessionState::Queued, None)),
            state_changed: Condvar::new(),
            cancelled: AtomicBool::new(false),
            root_span,
            root_parent,
        })
    }

    /// True once the wall-clock budget is spent.
    pub(crate) fn deadline_exceeded(&self) -> bool {
        self.deadline
            .is_some_and(|d| self.submitted_at.elapsed() > d)
    }

    pub(crate) fn state(&self) -> SessionState {
        lock(&self.state).0
    }

    pub(crate) fn set_state(&self, state: SessionState) {
        lock(&self.state).0 = state;
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Stores the terminal result and wakes waiters. The first terminal
    /// result stands: a session that already ended keeps it.
    pub(crate) fn finish(&self, result: SessionResult) {
        debug_assert!(result.state.is_terminal());
        let mut cell = lock(&self.state);
        if !cell.0.is_terminal() {
            *cell = (result.state, Some(result));
            self.state_changed.notify_all();
        }
    }

    fn wait_terminal(&self) -> SessionResult {
        let mut cell = lock(&self.state);
        while !cell.0.is_terminal() {
            cell = wait(&self.state_changed, cell);
        }
        cell.1.take().expect("terminal session carries a result")
    }
}

/// Caller-side view of a submitted session.
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// The runtime-assigned session id.
    pub fn id(&self) -> SessionId {
        self.shared.id
    }

    /// The request's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Current lifecycle state (racy by nature; terminal states are
    /// stable).
    pub fn state(&self) -> SessionState {
        self.shared.state()
    }

    /// Requests cancellation. Best-effort: a queued session is abandoned
    /// before planning; a running one stops at the next cancellation
    /// point (between planning and execution, or between shipment
    /// attempts). A session that already finished is unaffected.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Blocks until the session reaches a terminal state and returns its
    /// result. Consumes the handle: the result (and its target database)
    /// is handed over exactly once.
    pub fn wait(self) -> SessionResult {
        self.shared.wait_terminal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_low_to_high() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn tenant_label_defaults_to_the_route_pair() {
        let schema = xdx_xmark::schema();
        let req = ExchangeRequest::new(
            "t",
            Database::default(),
            xdx_xmark::mf(&schema),
            xdx_xmark::lf(&schema),
        );
        assert_eq!(req.tenant_label(), "source→target");
        let routed = req.with_route("a", "b");
        assert_eq!(routed.tenant_label(), "a→b");
        let tagged = routed.with_tenant("acme");
        assert_eq!(tagged.tenant_label(), "acme");
    }

    #[test]
    fn terminal_states_are_exactly_done_failed_cancelled() {
        for s in [
            SessionState::Queued,
            SessionState::Planning,
            SessionState::Executing,
            SessionState::Shipping,
        ] {
            assert!(!s.is_terminal(), "{s:?}");
        }
        for s in [
            SessionState::Done,
            SessionState::Failed,
            SessionState::Cancelled,
        ] {
            assert!(s.is_terminal(), "{s:?}");
        }
    }

    #[test]
    fn deadline_clock_starts_at_admission() {
        let shared = SessionShared::new(1, "d".into(), Some(Duration::from_millis(5)), 0);
        assert!(!shared.deadline_exceeded());
        std::thread::sleep(Duration::from_millis(10));
        assert!(shared.deadline_exceeded());
        let unbounded = SessionShared::new(2, "u".into(), None, 0);
        assert!(!unbounded.deadline_exceeded());
    }

    #[test]
    fn wait_returns_result_finished_from_another_thread() {
        let shared = SessionShared::new(7, "t".into(), None, 0);
        let waiter = Arc::clone(&shared);
        let t = std::thread::spawn(move || waiter.wait_terminal());
        shared.finish(SessionResult {
            state: SessionState::Done,
            metrics: SessionMetrics::default(),
            target: None,
            diagnostic: None,
        });
        let result = t.join().unwrap();
        assert_eq!(result.state, SessionState::Done);
        assert_eq!(shared.state(), SessionState::Done);
    }

    /// A lane ends once: a second terminal result — a caught panic's
    /// failure after the lane already reported — leaves the first.
    #[test]
    fn a_second_finish_keeps_the_first_result() {
        let shared = SessionShared::new(8, "t".into(), None, 0);
        let ended = |state, diagnostic: Option<&str>| SessionResult {
            state,
            metrics: SessionMetrics::default(),
            target: None,
            diagnostic: diagnostic.map(String::from),
        };
        shared.finish(ended(SessionState::Done, None));
        shared.finish(ended(SessionState::Failed, Some("panicked: late")));
        assert_eq!(shared.state(), SessionState::Done);
        let result = shared.wait_terminal();
        assert_eq!(
            (result.state, result.diagnostic),
            (SessionState::Done, None)
        );
    }
}

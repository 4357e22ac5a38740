//! Tunables of a runtime instance and the reasons a submission is
//! refused.

use crate::engine::ShippingPolicy;
use crate::events::DEFAULT_EVENT_CAPACITY;
use crate::session::SessionId;
use std::fmt;
use std::time::Duration;
use xdx_core::{Optimizer, WireFormat};
use xdx_net::{FaultProfile, NetworkProfile};

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
    /// single pair afterwards with [`crate::Runtime::set_link_fault_profile`].
    pub fault_profile: FaultProfile,
    /// Real-time pacing of link transmissions: each one occupies its
    /// pair's wire for this fraction of its simulated duration (0 = pure
    /// simulation, 1 = real time), a deadline its task parks on while
    /// the worker runs other work. With pacing on, sessions sharing a
    /// pair serialize on that wire's wall time while disjoint pairs
    /// overlap. The tests that need a wire wait to take wall time (a
    /// parked group letting another session finish first, lag-cap
    /// ejection, a patch that must not hold the only worker) turn it on.
    pub link_pacing: f64,
    /// Chunking/retry policy of the shipping layer.
    pub shipping: ShippingPolicy,
    /// Optimizer sessions are planned with unless their request carries
    /// an [`crate::ExchangeRequest::with_optimizer`] override.
    pub optimizer: Optimizer,
    /// Communication weight of the cost model.
    pub w_comm: f64,
    /// Wire format every endpoint prefers by default. A pair ships
    /// columnar only when both its endpoints prefer it (override one
    /// endpoint with [`crate::Runtime::set_endpoint_format`]); XML text is the
    /// universal fallback.
    pub wire_format: WireFormat,
    /// Consecutive link-failed sessions before a link's circuit breaker
    /// opens and refuses new admissions *on that pair*.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses admissions before letting one
    /// probe session through.
    pub breaker_cooldown: Duration,
    /// Whether structured trace spans are recorded. On by default;
    /// `bench/`'s overhead A/B flips it off to price tracing.
    pub tracing: bool,
    /// Maximum events the event-log ring keeps; the oldest are
    /// evicted (and counted in [`crate::RuntimeStats::dropped_events`]) beyond
    /// this.
    pub event_capacity: usize,
    /// Maximum failed-session checkpoints kept for [`crate::Runtime::resume`];
    /// beyond it the oldest checkpoint is evicted (each holds a full
    /// source database, so this bound is what keeps failure storms from
    /// growing RSS).
    pub max_resumables: usize,
    /// Rows per streamed operator batch, and the row budget of one
    /// message: the source phase splits each cross feed into
    /// Dewey-sorted batches of at most this many rows and packs
    /// consecutive batches into one message while their rows fit it, so
    /// a large feed streams as full batches through the shipping engine
    /// while the worker moves on to other ready work (the target
    /// decodes each as it lands), and an exchange smaller than one batch
    /// is a single message however many cross edges it has.
    pub batch_rows: usize,
    /// Messages of one session allowed in flight at once — the bound of
    /// the per-session channel between encoder and engine. Frame `k+1`
    /// is encoded while frame `k` is on the wire; depth caps how far the
    /// encoder may run ahead of the slowest link.
    pub pipeline_depth: usize,
    /// Exchanges (sessions and publish groups) each worker may hold in
    /// flight beyond the one it is actively driving. The pool keeps at
    /// most `workers × pipeline_sessions_per_worker` parked mid-exchange;
    /// arrivals beyond that wait in the admission queue, so overload
    /// still produces a visible backlog (and an opening breaker still
    /// finds queued sessions to drain through the lane gate) instead of
    /// unbounded in-flight state.
    pub pipeline_sessions_per_worker: usize,
    /// Whether the flight recorder keeps anomaly bookkeeping: the
    /// anomaly count, the shed-rate spike window and the dumps. On by
    /// default; `bench/`'s overhead A/B flips it off together with
    /// tracing to price the observability surface.
    pub flight_recorder: bool,
    /// Directory anomaly dumps land in — the anomaly, then the event
    /// log's newest events, as JSONL — on session failure, breaker open,
    /// shed-rate spike, or the stall watchdog. `None` counts anomalies
    /// without dumping ([`crate::Runtime::events_jsonl`] still serves
    /// the journal).
    pub flight_dump_dir: Option<&'static str>,
    /// Address the live introspection endpoint listens on (`None` —
    /// the default — serves nothing). Port 0 binds an ephemeral port;
    /// read the bound address back with [`crate::Runtime::introspect_addr`].
    /// The endpoint serves `/metrics`, `/healthz`, `/stats.json`,
    /// `/traces`, `/critical-path`, `/calibration` and `/events` over
    /// plain HTTP/1.1.
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
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(5),
            tracing: true,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            max_resumables: 256,
            batch_rows: 1024,
            pipeline_depth: 4,
            pipeline_sessions_per_worker: 4,
            flight_recorder: true,
            flight_dump_dir: None,
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

    /// Sets the event-log ring capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.event_capacity = capacity;
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

    /// Sets how many exchanges each worker may hold parked mid-flight
    /// (clamped to ≥ 1).
    pub fn with_pipeline_sessions_per_worker(mut self, sessions: usize) -> RuntimeConfig {
        self.pipeline_sessions_per_worker = sessions.max(1);
        self
    }

    /// Turns the flight recorder's anomaly bookkeeping on or off.
    pub fn with_flight_recorder(mut self, enabled: bool) -> RuntimeConfig {
        self.flight_recorder = enabled;
        self
    }

    /// Sets the directory flight-recorder anomaly dumps land in.
    pub fn with_flight_dump_dir(mut self, dir: &'static str) -> RuntimeConfig {
        self.flight_dump_dir = Some(dir);
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

//! # xdx-runtime — a multi-tenant exchange-session runtime
//!
//! The paper evaluates one data exchange at a time: a source, a target,
//! a single optimized program over a quiet wide-area link. A deployed
//! discovery agency serves a *fleet* — many source/target pairs
//! exchanging concurrently, contending for the same wide-area path,
//! re-planning the same shapes over and over, and occasionally losing
//! messages to a real network. This crate provides that operational
//! layer on top of `xdx-core`:
//!
//! * **Session manager** — [`Runtime::submit`] (a session) and
//!   [`Runtime::publish`] (a 1→N group; a session is a publish of one)
//!   admit through one front door into one bounded weighted-fair queue
//!   (admission control via [`RuntimeConfig::max_queue_depth`]);
//!   sessions move `Queued → Planning → Executing → Shipping →
//!   Done/Failed`, support cooperative cancellation, and hand back a
//!   [`SessionResult`] through their [`SessionHandle`].
//! * **Worker pool** — a fixed number of threads drain the queue;
//!   cross-edge shipments resolve the session's per-`(source, target)`
//!   pair [`xdx_net::Link`] from the [`LinkRegistry`], so sessions on
//!   disjoint pairs ship fully in parallel while same-pair sessions
//!   interleave at chunk granularity on their shared link. Each link
//!   carries its own fault stream, counters and [`CircuitBreaker`].
//! * **Fault-tolerant shipping** — serialized messages are chunked,
//!   checksummed and retried with exponential backoff against the
//!   link's probabilistic fault model ([`xdx_net::FaultProfile`]); a
//!   per-session retry budget degrades hopeless sessions to `Failed`
//!   with a diagnostic instead of wedging the link. Either the target
//!   receives exactly the bytes the source sent, or the session fails
//!   loudly — never silent row loss.
//! * **Plan cache** — optimizer answers are shared across sessions via
//!   a stable shape-keyed [`PlanCache`] with hit/miss counters.
//! * **Observability** — per-session [`SessionMetrics`], aggregate
//!   [`RuntimeStats`] (with latency percentiles), and a structured
//!   [`EventLog`].
//!
//! ```
//! use xdx_runtime::{ExchangeRequest, Runtime, RuntimeConfig};
//!
//! let schema = xdx_xmark::schema();
//! let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(20_000));
//! let mf = xdx_xmark::mf(&schema);
//! let lf = xdx_xmark::lf(&schema);
//!
//! let runtime = Runtime::start(schema.clone(), RuntimeConfig::default());
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let source = xdx_xmark::load_source(&doc, &schema, &mf).unwrap();
//!         let request =
//!             ExchangeRequest::new(format!("s{i}"), source, mf.clone(), lf.clone());
//!         runtime.submit(request).unwrap()
//!     })
//!     .collect();
//! for handle in handles {
//!     assert!(handle.wait().target.is_some());
//! }
//! let stats = runtime.shutdown();
//! assert_eq!(stats.completed, 4);
//! assert!(stats.plan_cache_hits > 0); // same shape, shared plan
//! ```

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod config;
pub(crate) mod engine;
pub mod events;
pub(crate) mod exchange;
pub mod fair;
pub mod flight;
pub(crate) mod introspect;
pub mod ledger;
pub mod registry;
pub mod runtime;
pub mod session;
pub mod stats;

pub use admission::AdmissionController;
pub use breaker::{BreakerTransition, CircuitBreaker};
pub use cache::{plan_key, CachedPlan, PlanCache, PlanKey};
pub use config::{RuntimeConfig, SubmitError};
pub use engine::ShippingPolicy;
pub use events::{Event, EventKind, EventLog, DEFAULT_EVENT_CAPACITY};
pub use exchange::SlotPacker;
pub use fair::{FairQueue, Popped, DEFAULT_AGING_INTERVAL};
pub use flight::{FlightRecorder, SHED_SPIKE_THRESHOLD, SHED_SPIKE_WINDOW};
pub use ledger::{Filed, ReassemblyLedger, DEFAULT_LEDGER_CAPACITY};
pub use registry::{LinkRegistry, LinkSlot, LinkStats};
pub use runtime::{ConsolidationOutcome, PublishHandle, Runtime};
pub use session::{
    ExchangeRequest, Priority, PublishRequest, SessionHandle, SessionId, SessionMetrics,
    SessionResult, SessionState, DEFAULT_PUBLISH_LAG_CAP, DEFAULT_SOURCE_ENDPOINT,
    DEFAULT_TARGET_ENDPOINT,
};
pub use stats::{RuntimeStats, TenantStats};
pub use xdx_core::WireFormat;
pub use xdx_trace::{
    critical_path, CalibrationReport, CommCalibration, CriticalPathReport, HistogramSnapshot,
    OpCalibration, RoutePath, SessionPath, SpanId, SpanRecord, STAGES,
};

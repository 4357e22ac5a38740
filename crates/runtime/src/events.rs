//! Structured event log of a runtime instance.
//!
//! Every session-lifecycle transition and every shipping retry appends an
//! [`Event`] with a timestamp relative to runtime start. Tests assert
//! ordering properties against the log, and operators read it to
//! reconstruct what a fleet of concurrent sessions actually did.
//!
//! The log is a fixed-capacity ring (capacity set by
//! `RuntimeConfig::with_event_capacity`): under sustained traffic the
//! *oldest* entries are dropped, a [`dropped`](EventLog::dropped)
//! counter records how many, and append order within the surviving
//! window is preserved. Every event carries the trace-span id that was
//! active when it fired, so the log joins against the span sink
//! offline ([`EventLog::to_jsonl`]).

use crate::session::SessionId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xdx_trace::{json_escape, SpanId};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request was admitted to the queue.
    Submitted,
    /// A request was refused at admission (queue full or shut down).
    Rejected,
    /// A worker picked the session up and started planning.
    PlanningStarted,
    /// The registry created a link for a `(source, target)` pair on
    /// first use.
    LinkCreated,
    /// Planning was satisfied from the plan cache.
    PlanCacheHit,
    /// Planning ran the optimizer and populated the cache.
    PlanCacheMiss,
    /// Sustained cost-model drift evicted a shape's cached plan.
    PlanDriftEvicted,
    /// The planned program started executing.
    ExecutionStarted,
    /// A shipment chunk failed (drop/timeout/corruption) and was retried.
    ChunkRetried,
    /// A failed session was re-admitted with its original id.
    Resumed,
    /// A shipment found checkpointed chunks in the reassembly ledger and
    /// skipped re-shipping them.
    ShipmentResumed,
    /// The session ran past its wall-clock deadline.
    DeadlineExceeded,
    /// Load shedding dropped the session without running it: an
    /// unattainable deadline at admission, an expired deadline at
    /// dequeue, an open breaker on its route, or a bounded buffer
    /// evicting its state.
    Shed,
    /// The link circuit breaker opened: admissions refused.
    CircuitOpened,
    /// The breaker's cooldown elapsed: one probe session admitted.
    CircuitHalfOpened,
    /// A probe succeeded: the breaker closed again.
    CircuitClosed,
    /// A delta patch was applied transactionally at the target and the
    /// feed version advanced.
    DeltaApplied,
    /// A delta-planned session fell back to a full re-ship (missing
    /// snapshot, diff failure, cost, or a failed precondition).
    DeltaFellBack,
    /// The requested base snapshot aged out of the retention window but
    /// was reconstructed by composing retained per-step patches, so the
    /// session still shipped a delta instead of the full feeds.
    DeltaChainComposed,
    /// The session reached `Done`.
    Completed,
    /// The session reached `Failed`.
    Failed,
    /// The session reached `Cancelled`.
    Cancelled,
}

impl EventKind {
    /// Stable name used in the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Rejected => "rejected",
            EventKind::PlanningStarted => "planning_started",
            EventKind::LinkCreated => "link_created",
            EventKind::PlanCacheHit => "plan_cache_hit",
            EventKind::PlanCacheMiss => "plan_cache_miss",
            EventKind::PlanDriftEvicted => "plan_drift_evicted",
            EventKind::ExecutionStarted => "execution_started",
            EventKind::ChunkRetried => "chunk_retried",
            EventKind::Resumed => "resumed",
            EventKind::ShipmentResumed => "shipment_resumed",
            EventKind::DeadlineExceeded => "deadline_exceeded",
            EventKind::Shed => "shed",
            EventKind::CircuitOpened => "circuit_opened",
            EventKind::CircuitHalfOpened => "circuit_half_opened",
            EventKind::CircuitClosed => "circuit_closed",
            EventKind::DeltaApplied => "delta_applied",
            EventKind::DeltaFellBack => "delta_fell_back",
            EventKind::DeltaChainComposed => "delta_chain_composed",
            EventKind::Completed => "completed",
            EventKind::Failed => "failed",
            EventKind::Cancelled => "cancelled",
        }
    }
}

/// One log entry.
#[derive(Debug, Clone)]
pub struct Event {
    /// Time since the runtime started.
    pub at: Duration,
    /// The session the event belongs to (0 for pre-admission rejects).
    pub session: SessionId,
    /// The trace span active when the event fired (0 when none — e.g.
    /// link creation, or a runtime with tracing disabled).
    pub span: SpanId,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context (session name, retry cause, diagnostic, ...).
    pub detail: String,
}

/// Bounded, thread-shared event ring.
#[derive(Debug)]
pub struct EventLog {
    started: Instant,
    capacity: usize,
    entries: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

/// Default ring capacity — generous: a 4-pair mixed fleet logs ~15
/// events per session, so this holds thousands of recent sessions.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

impl EventLog {
    /// An empty log whose clock starts now.
    pub fn new() -> EventLog {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty log keeping at most `capacity` recent events.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            started: Instant::now(),
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, evicting the oldest entry when full.
    pub fn push(
        &self,
        session: SessionId,
        span: SpanId,
        kind: EventKind,
        detail: impl Into<String>,
    ) {
        let detail = detail.into();
        let mut entries = self.entries.lock().unwrap();
        if entries.len() >= self.capacity {
            entries.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // Stamped under the lock, so append order is time order.
        entries.push_back(Event {
            at: self.started.elapsed(),
            session,
            span,
            kind,
            detail,
        });
    }

    /// Time since the log's clock started — the frame every event's
    /// `at` is measured in.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// A copy of the surviving log, in append order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// How many events of `kind` are in the surviving window.
    pub fn count(&self, kind: EventKind) -> usize {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// One JSON object per line: `at_us` (µs since runtime start, the
    /// same frame of reference as the trace sink's `ts`), session id,
    /// active span id, kind and detail — joinable offline against the
    /// span JSONL by `span`/`session`.
    pub fn to_jsonl(&self) -> String {
        self.tail_jsonl(usize::MAX)
    }

    /// The newest `n` surviving events in the [`to_jsonl`](EventLog::to_jsonl)
    /// format, in append order.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let tail: Vec<Event> = {
            let entries = self.entries.lock().unwrap();
            entries
                .range(entries.len().saturating_sub(n)..)
                .cloned()
                .collect()
        };
        let mut out = String::new();
        for e in tail {
            out.push_str(&format!(
                "{{\"at_us\":{:.3},\"session\":{},\"span\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
                e.at.as_nanos() as f64 / 1_000.0,
                e.session,
                e.span,
                e.kind.name(),
                json_escape(&e.detail),
            ));
        }
        out
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_preserves_append_order_and_counts() {
        let log = EventLog::new();
        log.push(1, 10, EventKind::Submitted, "s1");
        log.push(2, 20, EventKind::Submitted, "s2");
        log.push(1, 10, EventKind::Completed, "");
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].session, 1);
        assert_eq!(events[0].span, 10);
        assert_eq!(events[1].session, 2);
        assert!(events[2].at >= events[0].at);
        assert_eq!(log.count(EventKind::Submitted), 2);
        assert_eq!(log.count(EventKind::Completed), 1);
        assert_eq!(log.count(EventKind::Failed), 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = EventLog::with_capacity(3);
        for i in 1..=5u64 {
            log.push(i, 0, EventKind::Submitted, format!("s{i}"));
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(log.dropped(), 2);
        // The survivors are the most recent, still in append order.
        assert_eq!(
            events.iter().map(|e| e.session).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn jsonl_exports_one_line_per_event() {
        let log = EventLog::new();
        log.push(1, 7, EventKind::Submitted, "with \"quotes\"");
        log.push(1, 7, EventKind::Completed, "");
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            for key in ["at_us", "session", "span", "kind", "detail"] {
                assert!(line.contains(&format!("\"{key}\":")), "{line}: no {key}");
            }
        }
        assert!(jsonl.contains("\"kind\":\"submitted\""));
        assert!(jsonl.contains("\"span\":7"));
        assert!(jsonl.contains("with \\\"quotes\\\""));
        assert_eq!(
            log.tail_jsonl(1),
            jsonl.lines().nth(1).unwrap().to_string() + "\n"
        );
    }

    /// Concurrent pushes land in time order: `at` is stamped under the
    /// ring lock, so no event can be appended after a later-stamped one.
    #[test]
    fn concurrent_pushes_never_go_back_in_time() {
        let log = EventLog::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..5_000 {
                        log.push(t, 0, EventKind::Submitted, format!("{t}/{i}"));
                    }
                });
            }
        });
        let events = log.snapshot();
        assert_eq!(events.len(), 20_000);
        let inversions = events.windows(2).filter(|w| w[1].at < w[0].at).count();
        assert_eq!(inversions, 0, "append order must be time order");
    }
}

//! Structured spans with parent/child correlation.
//!
//! Spans are recorded **at completion**: callers allocate an id up
//! front (so children can point at their parent before the parent
//! finishes), measure with a plain [`std::time::Instant`], and push one
//! `SpanRecord` when done. The sink is a fixed-capacity FIFO ring —
//! under pressure the *oldest* records are dropped, and because a
//! parent always completes after its children, eviction can only
//! remove children whose parents are also gone, never orphan a
//! surviving child. A dropped-span counter makes the eviction visible.
//!
//! All timestamps are nanoseconds since the sink's `epoch` (the
//! instant the owning runtime was created), so spans from different
//! threads of one runtime share a frame of reference. JSONL export
//! uses the chrome://tracing "X" (complete) event shape with
//! microsecond `ts`/`dur`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xdx_sync::lock;

use crate::json_escape;

/// Identifier of a recorded span. Ids are unique per sink and never 0.
pub type SpanId = u64;

/// Sentinel parent id for root spans.
pub const NO_SPAN: SpanId = 0;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    /// Owning session id (0 when not tied to a session).
    pub session: u64,
    /// Distributed trace this span belongs to: the root span id of the
    /// session (or publish group) tree, carried across the wire so
    /// receiver-side spans group under the sender's trace. 0 for spans
    /// recorded without an explicit trace id.
    pub trace_id: u64,
    pub name: &'static str,
    /// Nanoseconds from the sink epoch to the span start.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Free-form annotation (operator location, route, byte counts…).
    pub detail: String,
}

/// Bounded, thread-safe span sink.
pub struct TraceSink {
    epoch: Instant,
    enabled: bool,
    capacity: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl TraceSink {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            enabled,
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant all span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserve a span id so children can reference it before the span
    /// itself is recorded. Returns [`NO_SPAN`] when tracing is off.
    pub fn allocate_id(&self) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a completed span under a pre-allocated id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: SpanId,
        name: &'static str,
        session: u64,
        parent: SpanId,
        start: Instant,
        dur: Duration,
        detail: String,
    ) {
        self.record_with_context(id, name, session, parent, 0, start, dur, detail);
    }

    /// [`record_with_id`](TraceSink::record_with_id) with an explicit
    /// trace id — the form used for spans that belong to a distributed
    /// trace (session roots, and receiver-side spans stitched under the
    /// exchange that shipped what they absorb).
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_context(
        &self,
        id: SpanId,
        name: &'static str,
        session: u64,
        parent: SpanId,
        trace_id: u64,
        start: Instant,
        dur: Duration,
        detail: String,
    ) {
        if !self.enabled || id == NO_SPAN {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let record = SpanRecord {
            id,
            parent,
            session,
            trace_id,
            name,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            detail,
        };
        let mut ring = lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Allocate an id and record in one step (for leaf spans).
    pub fn record(
        &self,
        name: &'static str,
        session: u64,
        parent: SpanId,
        start: Instant,
        dur: Duration,
        detail: String,
    ) -> SpanId {
        let id = self.allocate_id();
        self.record_with_id(id, name, session, parent, start, dur, detail);
        id
    }

    /// Number of spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn snapshot(&self) -> Vec<SpanRecord> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Export every live span as one chrome://tracing complete event
    /// per line. `ts`/`dur` are microseconds (float, sub-µs preserved);
    /// the span/parent ids travel in `args` so offline tooling can
    /// rebuild the tree and join against the event log.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"xdx\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\
                 \"detail\":\"{}\"}}}}\n",
                json_escape(s.name),
                s.start_ns as f64 / 1_000.0,
                s.dur_ns as f64 / 1_000.0,
                s.session,
                s.id,
                s.parent,
                s.trace_id,
                json_escape(&s.detail),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new(false, 16);
        assert_eq!(sink.allocate_id(), NO_SPAN);
        sink.record(
            "x",
            1,
            NO_SPAN,
            Instant::now(),
            Duration::ZERO,
            String::new(),
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let sink = TraceSink::new(true, 4);
        let t = Instant::now();
        for i in 0..10 {
            sink.record("s", i, NO_SPAN, t, Duration::from_nanos(i), String::new());
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 6);
        let snap = sink.snapshot();
        // Oldest evicted first: surviving sessions are the last four.
        assert_eq!(
            snap.iter().map(|s| s.session).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn children_recorded_before_parent_keep_live_parents() {
        let sink = TraceSink::new(true, 8);
        let t = Instant::now();
        let parent = sink.allocate_id();
        let child = sink.record(
            "child",
            1,
            parent,
            t,
            Duration::from_nanos(5),
            String::new(),
        );
        assert_ne!(child, parent);
        sink.record_with_id(
            parent,
            "parent",
            1,
            NO_SPAN,
            t,
            Duration::from_nanos(9),
            String::new(),
        );
        let snap = sink.snapshot();
        let ids: Vec<SpanId> = snap.iter().map(|s| s.id).collect();
        for s in &snap {
            assert!(s.parent == NO_SPAN || ids.contains(&s.parent));
        }
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let sink = TraceSink::new(true, 8);
        let t = Instant::now();
        sink.record(
            "a\"b",
            1,
            NO_SPAN,
            t,
            Duration::from_micros(3),
            "d\\e".into(),
        );
        sink.record(
            "plan",
            2,
            NO_SPAN,
            t,
            Duration::from_micros(1),
            String::new(),
        );
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\\\"b"));
        assert!(jsonl.contains("d\\\\e"));
        assert!(jsonl.contains("\"ph\":\"X\""));
    }

    /// A panic while the ring is locked ends that span's thread, not
    /// the sink: the spans recorded before and after it stay readable.
    #[test]
    fn a_poisoned_ring_still_records_and_reads() {
        let sink = TraceSink::new(true, 4);
        let t = Instant::now();
        sink.record("before", 1, NO_SPAN, t, Duration::ZERO, String::new());
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = lock(&sink.ring);
                panic!("a panic while the ring is locked");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(sink.ring.is_poisoned());
        sink.record("after", 2, NO_SPAN, t, Duration::ZERO, String::new());
        let names: Vec<_> = sink.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, ["before", "after"]);
        assert_eq!(sink.len(), 2);
    }
}

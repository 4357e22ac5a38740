//! The event-driven shipping engine: batch shipments as parked state
//! machines instead of blocked threads.
//!
//! The engine is the only way bytes cross a link. A worker *submits* a
//! batch shipment ([`ShipRequest`]) and steps it inline, as a
//! chunk-level state machine, until it completes or has to wait. Every
//! wait — wire occupancy of a paced link, retry backoff, lane
//! contention — hands the task back by value with its deadline, never a
//! `thread::sleep`: the exchange that submitted it parks it in its own
//! [`ShipHeap`], and parks itself in the runtime's heap until the
//! earliest one. So N workers keep far more than N sessions in flight,
//! and on an unpaced link a batch completes on the worker that encoded
//! it.
//!
//! The serialized message is sliced into chunks, each framed with its
//! full shipment identity — session, per-session shipment sequence
//! number, index, total, length, checksum ([`xdx_net::ChunkFrame`]) —
//! and transmitted through the session's per-pair link, retrying
//! damaged or lost chunks with exponential backoff under the
//! [`ShippingPolicy`] caps. Every verified frame is filed in the
//! receiver-side [`ReassemblyLedger`] under the coordinates *in the
//! frame*, so chunks that arrive reordered, duplicated, or
//! cross-delivered during another session's transmission all land in
//! the right slot, and exact repeats drop idempotently. Because the
//! ledger outlives a failed session, a resumed session re-ships only
//! the chunks that never arrived. Every batch of a session decrements
//! one shared atomic budget — the per-*session* retry cap.
//!
//! Pacing without sleeping: a pair's paced wire is a `busy_until`
//! horizon kept beside its link and its pacing scale, under the one
//! [`LinkSlot`] lock. A transmission checks the horizon, computes its
//! fault outcome immediately ([`xdx_net::Link::transmit_faulty`] never
//! waits) and advances the horizon by the transfer's paced duration,
//! all under that lock; the task then parks until the horizon. Tasks
//! sharing a pair serialize on it — parked, not blocked.

use crate::events::{EventKind, EventLog};
use crate::ledger::{Filed, ReassemblyLedger};
use crate::registry::LinkSlot;
use crate::session::SessionShared;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdx_net::{frame_chunk_into, ChunkView, Delivery};
use xdx_sync::lock;
use xdx_trace::{SpanId, TraceSink};

/// Retry/chunking policy of the shipping layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShippingPolicy {
    /// Payload bytes per chunk.
    pub chunk_bytes: usize,
    /// Transmission attempts per chunk before the shipment fails
    /// (1 = no retry).
    pub max_attempts_per_chunk: u32,
    /// Total retries one session may spend across all its shipments; a
    /// session on a pathological link degrades to `Failed` instead of
    /// monopolizing the link forever.
    pub retry_budget: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ShippingPolicy {
    fn default() -> ShippingPolicy {
        ShippingPolicy {
            chunk_bytes: 16 * 1024,
            max_attempts_per_chunk: 8,
            retry_budget: 256,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl ShippingPolicy {
    /// Simulated backoff before retry number `failed_attempts`
    /// (1-based): `base · 2^(n-1)`, capped.
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let shift = failed_attempts.saturating_sub(1).min(20);
        (self.backoff_base * (1u32 << shift)).min(self.backoff_cap)
    }
}

/// A transmission consumed the link but delivered a *different* verified
/// frame (reordering pipeline) or parked ours in the deferred queue.
/// Bounded: the link's deferred queue holds at most a handful of frames,
/// so a parked chunk reappears within that many transmissions. The cap
/// turns a hypothetically livelocked loop into a counted failure.
const MAX_STALLS_PER_CHUNK: u32 = 32;

/// Shipping tallies of one batch, folded into its lane's metrics and its
/// link's counters when the batch completes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchShipStats {
    pub chunks_shipped: u64,
    pub chunks_resumed: u64,
    pub chunks_deduped: u64,
    pub chunks_retried: u64,
    pub retry_backoff: Duration,
    pub wire_bytes: u64,
}

/// Terminal outcome of one submitted batch shipment.
pub(crate) struct BatchResult {
    /// The ledger shipment sequence this batch shipped under.
    pub seq: u64,
    /// Simulated link time: transfers, timeout waits, retry backoff.
    pub elapsed: Duration,
    /// The reassembled message as delivered — the ledger's receive
    /// buffer, by handle — or the failure diagnostic.
    pub outcome: std::result::Result<Arc<Vec<u8>>, String>,
    /// True when the failure was the link defeating the policy (attempt
    /// cap or shared budget) — the circuit breaker's signal.
    pub link_gave_up: bool,
    pub stats: BatchShipStats,
}

/// One batch shipment for the engine to run to completion.
pub(crate) struct ShipRequest {
    pub session: Arc<SessionShared>,
    pub slot: Arc<LinkSlot>,
    /// Ledger shipment sequence number. Deterministic across attempts
    /// (the ring slot: batches in port order, packed under the row
    /// budget), so a resume maps onto the same checkpoints.
    pub seq: u64,
    pub label: String,
    /// The serialized message, refcounted: a 1→N publish submits the
    /// *same* frame buffer once per subscriber lane, so fan-out never
    /// copies (or re-encodes) the payload.
    pub message: Arc<Vec<u8>>,
    pub policy: ShippingPolicy,
    /// Retry budget shared by every batch of the session.
    pub budget: Arc<AtomicI64>,
    /// Parent span the per-batch `ship` span records under.
    pub parent_span: SpanId,
}

/// Where a task's state machine stands.
enum Phase {
    /// Open the shipment in the ledger, allocate the span.
    Init,
    /// Advance to the next chunk needing transmission (skipping
    /// checkpointed ones) and frame it.
    NextChunk,
    /// Transmit the framed chunk: check the wire horizon, draw the fault
    /// outcome, advance the horizon.
    Transmit,
    /// Wire wait elapsed: file what arrived and decide retry/advance.
    Settle {
        duration: Duration,
        delivery: Delivery,
    },
    /// All chunks landed: close out and reassemble.
    Assemble,
}

/// A submitted request plus how far its state machine has come.
pub(crate) struct Task {
    req: ShipRequest,
    phase: Phase,
    span: SpanId,
    started: Instant,
    total: usize,
    prior: BTreeSet<usize>,
    index: usize,
    frame: Vec<u8>,
    chunk_label: String,
    elapsed: Duration,
    stats: BatchShipStats,
    failed_attempts: u32,
    stalls: u32,
    /// The wire's pacing scale, learned at the first transmission.
    pacing: f64,
}

impl Task {
    fn new(req: ShipRequest) -> Task {
        Task {
            phase: Phase::Init,
            span: req.parent_span,
            started: Instant::now(),
            total: 0,
            prior: BTreeSet::new(),
            index: 0,
            frame: Vec::new(),
            chunk_label: String::new(),
            elapsed: Duration::ZERO,
            stats: BatchShipStats::default(),
            failed_attempts: 0,
            stalls: 0,
            pacing: 0.0,
            req,
        }
    }
}

/// Items parked on a deadline, earliest first; ties resume in the order
/// they parked. An exchange keeps its waiting ship tasks in one, and the
/// runtime keeps the waiting exchanges in another, under its queue lock.
pub(crate) struct ShipHeap<T> {
    items: BTreeMap<(Instant, u64), T>,
    /// Parks so far: the tie-break between equal deadlines.
    parks: u64,
}

impl<T> Default for ShipHeap<T> {
    fn default() -> ShipHeap<T> {
        ShipHeap {
            items: BTreeMap::new(),
            parks: 0,
        }
    }
}

impl<T> ShipHeap<T> {
    /// Parks `item` until `deadline`; true when it is now the earliest.
    pub(crate) fn park(&mut self, deadline: Instant, item: T) -> bool {
        let key = (deadline, self.parks);
        self.parks += 1;
        self.items.insert(key, item);
        self.items
            .first_key_value()
            .is_some_and(|(first, _)| *first == key)
    }

    /// The earliest parked deadline.
    pub(crate) fn next(&self) -> Option<Instant> {
        self.items
            .first_key_value()
            .map(|((deadline, _), _)| *deadline)
    }

    /// Takes the earliest item if its deadline has passed by `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        let first = self.items.first_entry()?;
        (first.key().0 <= now).then(|| first.remove())
    }

    /// Every parked item, earliest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.values()
    }

    /// Stall watchdog probe: the earliest deadline overdue by more than
    /// `threshold` means no worker got to it for that long. Returns how
    /// overdue it is.
    pub(crate) fn stall_check(&self, threshold: Duration) -> Option<Duration> {
        let overdue = Instant::now().checked_duration_since(self.next()?)?;
        (overdue > threshold).then_some(overdue)
    }
}

/// Where stepping a task left it.
pub(crate) enum Stepped {
    /// Waiting for the deadline; whoever stepped it parks it.
    Parked(Instant, Box<Task>),
    /// Completed: its result, for whoever stepped it.
    Done(BatchResult),
}

/// What one state-machine step decided.
enum StepOutcome {
    /// Keep stepping this task.
    Continue,
    /// Park until the deadline.
    Park(Instant),
    /// Terminal; hand the result back.
    Done(BatchResult),
}

/// The engine itself: what every step needs, and no scheduler — the
/// workers that submit and resume tasks are the only ones that step
/// them.
pub(crate) struct ShipEngine {
    /// Batches submitted and not yet completed — the pipeline-depth
    /// gauge.
    inflight: AtomicUsize,
    events: Arc<EventLog>,
    ledger: Arc<ReassemblyLedger>,
    trace: Arc<TraceSink>,
}

impl ShipEngine {
    pub(crate) fn new(
        events: Arc<EventLog>,
        ledger: Arc<ReassemblyLedger>,
        trace: Arc<TraceSink>,
    ) -> ShipEngine {
        ShipEngine {
            inflight: AtomicUsize::new(0),
            events,
            ledger,
            trace,
        }
    }

    /// Steps a batch shipment on the calling thread until it completes
    /// — always, on a healthy unpaced link — or parks.
    pub(crate) fn submit(&self, req: ShipRequest) -> Stepped {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        self.run_task(Task::new(req))
    }

    /// Batches currently in flight (submitted, not yet completed).
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Steps `task` on this thread until it parks or completes.
    pub(crate) fn run_task(&self, mut task: Task) -> Stepped {
        loop {
            match self.step(&mut task) {
                StepOutcome::Continue => continue,
                StepOutcome::Park(deadline) => return Stepped::Parked(deadline, Box::new(task)),
                StepOutcome::Done(result) => {
                    self.inflight.fetch_sub(1, Ordering::Relaxed);
                    return Stepped::Done(result);
                }
            }
        }
    }

    fn file(&self, task: &mut Task, chunk: &ChunkView<'_>) {
        if self.ledger.file(chunk) == Filed::Duplicate {
            task.stats.chunks_deduped += 1;
        }
    }

    /// Closes the batch's shipment window and records its `ship` span.
    fn close(&self, task: &Task, verdict: &str) {
        task.req.slot.close_shipment();
        self.trace.record_with_id(
            task.span,
            "ship",
            task.req.session.id,
            task.req.parent_span,
            task.started,
            task.started.elapsed(),
            format!(
                "{}: batch {}, {} chunks, {} retried, {verdict}",
                task.req.label, task.req.seq, task.total, task.stats.chunks_retried
            ),
        );
    }

    /// The terminal step: the batch's result, with its tallies.
    fn done(
        task: &Task,
        outcome: std::result::Result<Arc<Vec<u8>>, String>,
        link_gave_up: bool,
    ) -> StepOutcome {
        StepOutcome::Done(BatchResult {
            seq: task.req.seq,
            elapsed: task.elapsed,
            outcome,
            link_gave_up,
            stats: task.stats,
        })
    }

    /// Terminal failure (never before `Init` opened the shipment).
    fn fail(&self, task: &Task, diagnostic: String, link_gave_up: bool) -> StepOutcome {
        self.close(task, "failed");
        Self::done(task, Err(diagnostic), link_gave_up)
    }

    /// One step of the task's state machine. The phase is taken out and
    /// every arm sets the next one; a `Transmit` that parks on a busy
    /// wire leaves the placeholder, and transmits again.
    fn step(&self, task: &mut Task) -> StepOutcome {
        match std::mem::replace(&mut task.phase, Phase::Transmit) {
            Phase::Init => self.init(task),
            Phase::NextChunk => self.next_chunk(task),
            Phase::Transmit => self.transmit(task),
            Phase::Settle { duration, delivery } => self.settle(task, duration, delivery),
            Phase::Assemble => self.assemble(task),
        }
    }

    fn init(&self, task: &mut Task) -> StepOutcome {
        task.span = self.trace.allocate_id();
        let chunk_bytes = task.req.policy.chunk_bytes.max(1);
        task.total = task.req.message.len().div_ceil(chunk_bytes).max(1);
        task.prior = self.ledger.begin_shipment(
            task.req.session.id,
            task.req.seq,
            task.total,
            &task.req.message,
        );
        if !task.prior.is_empty() {
            task.stats.chunks_resumed += task.prior.len() as u64;
            self.events.push(
                task.req.session.id,
                task.span,
                EventKind::ShipmentResumed,
                format!(
                    "{}: {} of {} chunks checkpointed, re-shipping {}",
                    task.req.label,
                    task.prior.len(),
                    task.total,
                    task.total - task.prior.len()
                ),
            );
        }
        task.req.slot.open_shipment();
        task.phase = Phase::NextChunk;
        StepOutcome::Continue
    }

    fn next_chunk(&self, task: &mut Task) -> StepOutcome {
        while task.index < task.total {
            if task.prior.contains(&task.index) {
                task.index += 1;
                continue;
            }
            if self
                .ledger
                .has_chunk(task.req.session.id, task.req.seq, task.index)
            {
                // Landed meanwhile via the reorder pipeline (possibly
                // transmitted by another session sharing the link).
                task.stats.chunks_shipped += 1;
                task.index += 1;
                continue;
            }
            break;
        }
        if task.index >= task.total {
            task.phase = Phase::Assemble;
            return StepOutcome::Continue;
        }
        let chunk_bytes = task.req.policy.chunk_bytes.max(1);
        let start = task.index * chunk_bytes;
        let end = usize::min(start + chunk_bytes, task.req.message.len());
        task.chunk_label.clear();
        let _ = write!(
            task.chunk_label,
            "{}[{}/{}]",
            task.req.label, task.index, task.total
        );
        frame_chunk_into(
            &mut task.frame,
            task.req.session.id,
            task.req.seq,
            task.index,
            task.total,
            &task.req.message[start..end],
        );
        task.failed_attempts = 0;
        task.stalls = 0;
        task.phase = Phase::Transmit;
        StepOutcome::Continue
    }

    fn transmit(&self, task: &mut Task) -> StepOutcome {
        if task.req.session.is_cancelled() {
            return self.fail(
                task,
                format!("session cancelled while shipping {}", task.chunk_label),
                false,
            );
        }
        if task.req.session.deadline_exceeded() {
            return self.fail(
                task,
                format!("deadline exceeded while shipping {}", task.chunk_label),
                false,
            );
        }
        let now = Instant::now();
        // Check → transmit → advance under the pair's one lock. Nothing
        // holds it across a wait, so this is a few instructions of
        // contention at most.
        let mut wire = lock(&task.req.slot.wire);
        if wire.busy_until > now {
            return StepOutcome::Park(wire.busy_until);
        }
        let (duration, delivery) = wire.link.transmit_faulty(&task.chunk_label, &task.frame);
        task.pacing = wire.pacing;
        let occupied = if task.pacing > 0.0 {
            duration.mul_f64(task.pacing)
        } else {
            Duration::ZERO
        };
        wire.busy_until = now + occupied;
        drop(wire);
        task.stats.wire_bytes += task.frame.len() as u64;
        task.phase = Phase::Settle { duration, delivery };
        if occupied > Duration::ZERO {
            // The wire occupancy is a parked deadline, not a sleep: this
            // is the yield the whole engine exists for.
            StepOutcome::Park(now + occupied)
        } else {
            StepOutcome::Continue
        }
    }

    /// Wire wait elapsed: file what arrived, then advance to the next
    /// chunk, re-transmit after a reorder stall, or retry under the
    /// policy's caps.
    fn settle(&self, task: &mut Task, duration: Duration, delivery: Delivery) -> StepOutcome {
        task.elapsed += duration;
        // File whatever verified frame the link produced — ours, an
        // older deferred one, even another session's — parsed in place,
        // so the ledger's copy is the receiver's only one.
        let verified = delivery.payload().and_then(ChunkView::parse);
        if let Some(arrived) = &verified {
            self.file(task, arrived);
            if matches!(delivery, Delivery::Duplicated(_)) {
                self.file(task, arrived);
            }
        }
        if self
            .ledger
            .has_chunk(task.req.session.id, task.req.seq, task.index)
        {
            task.stats.chunks_shipped += 1;
            task.index += 1;
            task.phase = Phase::NextChunk;
            return StepOutcome::Continue;
        }
        let progressed = verified.is_some() || matches!(delivery, Delivery::Deferred);
        if progressed && task.stalls < MAX_STALLS_PER_CHUNK {
            task.stalls += 1;
            task.phase = Phase::Transmit;
            return StepOutcome::Continue;
        }
        task.failed_attempts += 1;
        let cause = match delivery {
            Delivery::Dropped => "dropped",
            Delivery::TimedOut => "timed out",
            Delivery::Corrupted(_) => "corrupted",
            Delivery::Deferred => "deferred livelock",
            Delivery::Delivered(_) | Delivery::Duplicated(_) => "frame damaged",
        };
        if task.failed_attempts >= task.req.policy.max_attempts_per_chunk {
            return self.fail(
                task,
                format!(
                    "shipping {}: gave up after {} attempts (last outcome: {cause})",
                    task.chunk_label, task.failed_attempts
                ),
                true,
            );
        }
        if task.req.budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return self.fail(
                task,
                format!(
                    "shipping {}: session retry budget ({}) exhausted \
                     (last outcome: {cause})",
                    task.chunk_label, task.req.policy.retry_budget
                ),
                true,
            );
        }
        task.stats.chunks_retried += 1;
        let backoff = task.req.policy.backoff(task.failed_attempts);
        task.stats.retry_backoff += backoff;
        task.elapsed += backoff;
        self.events.push(
            task.req.session.id,
            task.span,
            EventKind::ChunkRetried,
            format!(
                "{} {cause}, retry {}, backoff {backoff:?}",
                task.chunk_label, task.failed_attempts
            ),
        );
        task.phase = Phase::Transmit;
        if task.pacing > 0.0 {
            // Backoff obeys the same paced clock as the link — as a
            // parked deadline, never a sleeping worker.
            StepOutcome::Park(Instant::now() + backoff.mul_f64(task.pacing))
        } else {
            StepOutcome::Continue
        }
    }

    /// All chunks landed: close out and reassemble.
    fn assemble(&self, task: &Task) -> StepOutcome {
        self.close(task, "ok");
        let outcome = self
            .ledger
            .assemble(task.req.session.id, task.req.seq)
            .ok_or_else(|| format!("shipment {} did not reassemble", task.req.seq));
        Self::done(task, outcome, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::CircuitBreaker;
    use crate::registry::ShipGauge;
    use std::cell::RefCell;
    use std::sync::mpsc;
    use xdx_core::WireFormat;
    use xdx_net::{FaultProfile, Link, NetworkProfile};

    /// The engine plus a heap of parked tasks, each with the channel its
    /// result goes to, stepped on the test thread the way the worker
    /// holding an exchange would.
    struct Driven {
        engine: ShipEngine,
        heap: RefCell<ShipHeap<(mpsc::Sender<BatchResult>, Box<Task>)>>,
    }

    impl std::ops::Deref for Driven {
        type Target = ShipEngine;
        fn deref(&self) -> &ShipEngine {
            &self.engine
        }
    }

    impl Driven {
        /// Parks a waiting task, or sends a completed one's result.
        fn file(&self, tx: mpsc::Sender<BatchResult>, stepped: Stepped) {
            match stepped {
                Stepped::Parked(deadline, task) => {
                    self.heap.borrow_mut().park(deadline, (tx, task));
                }
                Stepped::Done(result) => {
                    let _ = tx.send(result);
                }
            }
        }

        /// Steps inline, as a worker's submit does.
        fn submit(&self, tx: mpsc::Sender<BatchResult>, req: ShipRequest) {
            self.file(tx, self.engine.submit(req));
        }

        /// Resumes parked tasks as their deadlines pass, until `until`.
        fn drive(&self, until: Instant) {
            loop {
                let now = Instant::now();
                let due = self.heap.borrow_mut().pop_due(now);
                if let Some((tx, task)) = due {
                    self.file(tx, self.engine.run_task(*task));
                    continue;
                }
                if now >= until {
                    return;
                }
                let wake = self.heap.borrow().next().map_or(until, |d| d.min(until));
                std::thread::sleep(wake.saturating_duration_since(now));
            }
        }

        fn stall_check(&self, threshold: Duration) -> Option<Duration> {
            self.heap.borrow().stall_check(threshold)
        }
    }

    fn engine() -> Driven {
        Driven {
            engine: ShipEngine::new(
                Arc::new(EventLog::new()),
                Arc::new(ReassemblyLedger::new()),
                Arc::new(TraceSink::new(false, 16)),
            ),
            heap: RefCell::default(),
        }
    }

    fn slot_for(link: Link) -> Arc<LinkSlot> {
        slot_paced(link, 0.0)
    }

    /// A slot whose wire occupies wall time: `pacing` of each
    /// transmission's simulated duration.
    fn slot_paced(link: Link, pacing: f64) -> Arc<LinkSlot> {
        Arc::new(LinkSlot::new(
            "source",
            "target",
            link,
            pacing,
            CircuitBreaker::new(8, Duration::from_millis(50)),
            WireFormat::Xml,
            Arc::new(ShipGauge::default()),
        ))
    }

    fn submit(
        engine: &Driven,
        slot: &Arc<LinkSlot>,
        seq: u64,
        message: Vec<u8>,
        policy: ShippingPolicy,
        budget: &Arc<AtomicI64>,
    ) -> mpsc::Receiver<BatchResult> {
        let session = SessionShared::new(1, "test".into(), None, 0);
        submit_as(engine, session, slot, seq, message, policy, budget)
    }

    fn submit_as(
        engine: &Driven,
        session: Arc<SessionShared>,
        slot: &Arc<LinkSlot>,
        seq: u64,
        message: Vec<u8>,
        policy: ShippingPolicy,
        budget: &Arc<AtomicI64>,
    ) -> mpsc::Receiver<BatchResult> {
        let (tx, rx) = mpsc::channel();
        engine.submit(
            tx,
            ShipRequest {
                session,
                slot: Arc::clone(slot),
                seq,
                label: format!("batch {seq}"),
                message: Arc::new(message),
                policy,
                budget: Arc::clone(budget),
                parent_span: 0,
            },
        );
        rx
    }

    /// Submits one batch and drives the engine until it completes.
    fn ship(
        engine: &Driven,
        session: Arc<SessionShared>,
        slot: &Arc<LinkSlot>,
        message: &[u8],
        policy: ShippingPolicy,
    ) -> BatchResult {
        let budget = Arc::new(AtomicI64::new(i64::from(policy.retry_budget)));
        let rx = submit_as(engine, session, slot, 0, message.to_vec(), policy, &budget);
        drive_to(engine, &rx)
    }

    /// Drives the engine on this thread until `rx` yields its result.
    fn drive_to(engine: &Driven, rx: &mpsc::Receiver<BatchResult>) -> BatchResult {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            engine.drive(Instant::now() + Duration::from_millis(1));
            if let Ok(result) = rx.try_recv() {
                return result;
            }
            assert!(Instant::now() < give_up, "batch never completed");
        }
    }

    fn dead_link() -> Arc<LinkSlot> {
        slot_for(Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile::drops(1.0, 9)))
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ShippingPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..ShippingPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(5), Duration::from_millis(100));
        assert_eq!(policy.backoff(30), Duration::from_millis(100));
    }

    #[test]
    fn reordering_and_duplication_still_reassemble_exactly() {
        let eng = engine();
        let slot = slot_for(
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
                reorder_probability: 0.25,
                duplicate_probability: 0.15,
                seed: 7,
                ..FaultProfile::healthy()
            }),
        );
        let policy = ShippingPolicy {
            chunk_bytes: 32,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        let session = SessionShared::new(1, "test".into(), None, 0);
        let result = ship(&eng, session, &slot, &message, policy);
        assert_eq!(*result.outcome.unwrap(), message);
        // Duplicated deliveries were filed twice and dropped once.
        assert!(result.stats.chunks_deduped > 0, "{:?}", result.stats);
    }

    #[test]
    fn checkpointed_chunks_are_not_reshipped() {
        let eng = engine();
        let policy = ShippingPolicy {
            chunk_bytes: 64,
            max_attempts_per_chunk: 3,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let total = 1000usize.div_ceil(64) as u64;
        let session = SessionShared::new(1, "test".into(), None, 0);

        // First attempt: a drop-heavy link defeats the tight attempt
        // cap partway through the shipment.
        let slot = slot_for(
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
                drop_probability: 0.35,
                seed: 3,
                ..FaultProfile::healthy()
            }),
        );
        let first = ship(&eng, Arc::clone(&session), &slot, &message, policy);
        let err = first.outcome.unwrap_err();
        assert!(err.contains("gave up"), "{err}");
        assert!(first.link_gave_up);
        let landed = first.stats.chunks_shipped;
        assert!(landed > 0 && landed < total, "partial landing: {landed}");
        assert_eq!(eng.ledger.checkpointed_chunks(session.id), landed as usize);
        assert_eq!(
            *eng.ledger.stored_message(session.id, 0).unwrap(),
            message,
            "the failed run persisted the assembled message"
        );

        // Second attempt over a repaired link: only the remainder ships.
        lock(&slot.wire)
            .link
            .set_fault_profile(FaultProfile::healthy());
        let second = ship(&eng, session, &slot, &message, policy);
        assert_eq!(*second.outcome.unwrap(), message);
        assert_eq!(second.stats.chunks_resumed, landed);
        assert_eq!(second.stats.chunks_shipped, total - landed);
        assert_eq!(eng.events.count(EventKind::ShipmentResumed), 1);
    }

    #[test]
    fn attempt_cap_fails_even_with_budget_left() {
        let policy = ShippingPolicy {
            max_attempts_per_chunk: 3,
            ..ShippingPolicy::default()
        };
        let session = SessionShared::new(1, "test".into(), None, 0);
        let result = ship(&engine(), session, &dead_link(), b"payload", policy);
        let err = result.outcome.unwrap_err();
        assert!(err.contains("gave up after 3"), "{err}");
        assert!(result.link_gave_up);
    }

    #[test]
    fn cancellation_interrupts_shipping() {
        let session = SessionShared::new(1, "test".into(), None, 0);
        session.cancelled.store(true, Ordering::Relaxed);
        let policy = ShippingPolicy::default();
        let result = ship(&engine(), session, &dead_link(), b"payload", policy);
        let err = result.outcome.unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        assert!(!result.link_gave_up, "cancellation is not the link");
    }

    #[test]
    fn deadline_interrupts_shipping_without_blaming_the_link() {
        let session = SessionShared::new(1, "t".into(), Some(Duration::ZERO), 0);
        std::thread::sleep(Duration::from_millis(2));
        let policy = ShippingPolicy::default();
        let result = ship(&engine(), session, &dead_link(), b"payload", policy);
        let err = result.outcome.unwrap_err();
        assert!(err.contains("deadline exceeded"), "{err}");
        assert!(!result.link_gave_up);
    }

    #[test]
    fn lossy_link_reassembles_exactly() {
        let eng = engine();
        let slot = slot_for(
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
                drop_probability: 0.15,
                timeout_probability: 0.05,
                corrupt_probability: 0.10,
                seed: 42,
                ..FaultProfile::healthy()
            }),
        );
        let budget = Arc::new(AtomicI64::new(256));
        let message: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let policy = ShippingPolicy {
            chunk_bytes: 64,
            ..ShippingPolicy::default()
        };
        let rx = submit(&eng, &slot, 0, message.clone(), policy, &budget);
        let result = drive_to(&eng, &rx);
        assert_eq!(*result.outcome.unwrap(), message);
        assert!(result.elapsed > Duration::ZERO);
        assert_eq!(result.stats.chunks_shipped, 2000usize.div_ceil(64) as u64);
        assert!(result.stats.chunks_retried > 0, "30% faults must retry");
        assert!(!result.link_gave_up);
        assert_eq!(eng.inflight(), 0);
    }

    #[test]
    fn healthy_unpaced_batch_completes_inside_submit() {
        // Nothing parks on a healthy unpaced link, so the thread that
        // submits a batch ships it: `submit` returned the result itself,
        // and nothing is left for anyone to drive.
        let eng = engine();
        let slot = slot_for(Link::new(NetworkProfile::lan()));
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 256,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = (0..4000u32).map(|i| (i % 239) as u8).collect();
        let rx = submit(&eng, &slot, 0, message.clone(), policy, &budget);
        let result = rx.try_recv().expect("the result came back from submit");
        assert_eq!(*result.outcome.unwrap(), message);
        assert_eq!(result.stats.chunks_shipped, 4000usize.div_ceil(256) as u64);
        assert_eq!(eng.inflight(), 0);
        assert!(eng.heap.borrow().next().is_none());
    }

    #[test]
    fn concurrent_batches_interleave_on_one_pair() {
        let eng = engine();
        let slot = slot_for(Link::new(NetworkProfile::lan()));
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 128,
            ..ShippingPolicy::default()
        };
        let messages: Vec<Vec<u8>> = (0..4u8)
            .map(|b| (0..1500u32).map(|i| (i as u8).wrapping_add(b)).collect())
            .collect();
        let rxs: Vec<_> = messages
            .iter()
            .enumerate()
            .map(|(seq, m)| submit(&eng, &slot, seq as u64, m.clone(), policy, &budget))
            .collect();
        for (rx, message) in rxs.into_iter().zip(&messages) {
            let result = drive_to(&eng, &rx);
            assert_eq!(*result.outcome.unwrap(), *message);
        }
    }

    #[test]
    fn shared_budget_fails_with_link_blame() {
        let eng = engine();
        let slot = slot_for(
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile::drops(1.0, 9)),
        );
        let budget = Arc::new(AtomicI64::new(5));
        let policy = ShippingPolicy {
            chunk_bytes: 64,
            max_attempts_per_chunk: 100,
            retry_budget: 5,
            ..ShippingPolicy::default()
        };
        let rx = submit(&eng, &slot, 0, b"some payload".to_vec(), policy, &budget);
        let result = drive_to(&eng, &rx);
        let err = result.outcome.unwrap_err();
        assert!(err.contains("retry budget"), "{err}");
        assert!(result.link_gave_up);
        assert_eq!(result.stats.chunks_retried, 5);
    }

    #[test]
    fn paced_wire_parks_instead_of_sleeping() {
        // With pacing on, the wire wait must come back as parking:
        // total wall ≈ paced duration, and the driver was free to run
        // other tasks meanwhile (asserted via interleaved completion).
        let eng = engine();
        let link = Link::new(NetworkProfile {
            bandwidth_bytes_per_sec: 2_000_000.0,
            latency: Duration::from_micros(200),
        });
        let slot = slot_paced(link, 1.0);
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 4096,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = vec![7u8; 16 * 1024];
        let rx_a = submit(&eng, &slot, 0, message.clone(), policy, &budget);
        let rx_b = submit(&eng, &slot, 1, message.clone(), policy, &budget);
        let a = drive_to(&eng, &rx_a);
        let b = drive_to(&eng, &rx_b);
        assert_eq!(*a.outcome.unwrap(), message);
        assert_eq!(*b.outcome.unwrap(), message);
        // Both batches observed simulated wire time.
        assert!(a.elapsed > Duration::ZERO && b.elapsed > Duration::ZERO);
    }

    #[test]
    fn parked_batches_resume_in_deadline_order() {
        // The slow batch parks first but on a far later deadline; the
        // fast one, submitted after it, must complete while the slow
        // one is still parked.
        let eng = engine();
        let slow = slot_paced(
            Link::new(NetworkProfile {
                bandwidth_bytes_per_sec: 100_000.0,
                latency: Duration::from_millis(2),
            }),
            1.0,
        );
        let fast = slot_paced(
            Link::new(NetworkProfile {
                bandwidth_bytes_per_sec: 2_000_000.0,
                latency: Duration::from_micros(200),
            }),
            1.0,
        );
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 4096,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 241) as u8).collect();
        let rx_slow = submit(&eng, &slow, 0, message.clone(), policy, &budget);
        let rx_fast = submit(&eng, &fast, 1, message.clone(), policy, &budget);
        let first = drive_to(&eng, &rx_fast);
        assert_eq!(*first.outcome.unwrap(), message);
        assert!(
            rx_slow.try_recv().is_err(),
            "the slow batch is still parked when the fast one lands"
        );
        let second = drive_to(&eng, &rx_slow);
        assert_eq!(*second.outcome.unwrap(), message);
        assert_eq!(eng.inflight(), 0);
    }

    #[test]
    fn chunk_landed_by_another_transmission_counts_as_shipped() {
        // A chunk some other transmission delivered (the link's reorder
        // pipeline hands a deferred frame to whoever transmits next)
        // was delivered intact over this link all the same: the batch
        // counts it shipped without putting it on the wire again, and
        // the batch's tally is the only one there is — its lane and its
        // link both fold it.
        let eng = engine();
        let link = Link::new(NetworkProfile {
            bandwidth_bytes_per_sec: 100_000.0,
            latency: Duration::from_millis(2),
        });
        let slot = slot_paced(link, 1.0);
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 4096,
            ..ShippingPolicy::default()
        };
        let message: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 253) as u8).collect();
        let rx = submit(&eng, &slot, 0, message.clone(), policy, &budget);
        // The first chunk parks on its ~43 ms wire deadline; the last one
        // lands meanwhile, filed under its own coordinates.
        eng.drive(Instant::now() + Duration::from_millis(5));
        let mut last = Vec::new();
        frame_chunk_into(&mut last, 1, 0, 3, 4, &message[3 * 4096..]);
        let frame = ChunkView::parse(&last).expect("a well-formed frame");
        assert_eq!(eng.ledger.file(&frame), Filed::Accepted);
        let result = drive_to(&eng, &rx);
        assert_eq!(*result.outcome.unwrap(), message);
        assert_eq!(result.stats.chunks_shipped, 4);
        assert_eq!(
            result.stats.wire_bytes,
            3 * last.len() as u64,
            "only three chunks were transmitted"
        );
    }

    #[test]
    fn stall_watchdog_detects_undriven_parked_task() {
        // A paced transmit parks the task on its deadline; with nobody
        // driving past that point, the deadline goes overdue and the
        // watchdog must flag the engine as stalled.
        let eng = engine();
        let link = Link::new(NetworkProfile {
            bandwidth_bytes_per_sec: 100_000.0,
            latency: Duration::from_millis(2),
        });
        let slot = slot_paced(link, 1.0);
        let budget = Arc::new(AtomicI64::new(256));
        let policy = ShippingPolicy {
            chunk_bytes: 4096,
            ..ShippingPolicy::default()
        };
        let rx = submit(&eng, &slot, 0, vec![3u8; 32 * 1024], policy, &budget);
        // Step just far enough for the first chunk to park on its wire
        // deadline, then stop driving entirely.
        eng.drive(Instant::now() + Duration::from_millis(5));
        assert!(eng.stall_check(Duration::from_secs(3600)).is_none());
        std::thread::sleep(Duration::from_millis(120));
        let overdue = eng
            .stall_check(Duration::from_millis(50))
            .expect("undriven engine reports a stall");
        assert!(overdue >= Duration::from_millis(50));
        // Resume driving: the shipment completes and the stall clears.
        drive_to(&eng, &rx);
        assert!(eng.stall_check(Duration::ZERO).is_none());
        assert_eq!(eng.inflight(), 0);
    }
}

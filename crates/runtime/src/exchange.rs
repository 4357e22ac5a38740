//! The one exchange state machine.
//!
//! The paper's data-transfer program has one shape — source half, ship
//! the cross edges, target half — whether it feeds one target or N.
//! So does its execution here: an [`Exchange`] is a parked unit of
//! [`Group`]s, a group is N [`Lane`]s over one shared frame ring, and
//! every lane of every exchange runs the same steps: the group's source
//! half streams batches onto the ring ([`Inner::run_source`]), `pump`
//! ships each lane's window through the engine, `absorb` decodes and
//! stages what lands, and `settle` runs the lane's target half and
//! closes it out. A two-site session is a group of one lane; a publish
//! is a group of N (one group per negotiated wire format); a delta
//! patch is one pre-encoded frame in ring slot 0 whose absorb step is
//! decode → staleness check → `stage_patch`, with the fallback ladder
//! re-entering the feed-batch path at the next seq.
//!
//! A ring slot is a *row budget*, not a port: consecutive batches of
//! the cross feeds share one message while their rows fit
//! `RuntimeConfig::batch_rows` ([`SlotPacker`]), so an exchange pays
//! for the bytes it ships, not for the edges it crosses (DESIGN §21).

use crate::breaker::BreakerTransition;
use crate::cache::CachedPlan;
use crate::config::RuntimeConfig;
use crate::engine::{BatchResult, BatchShipStats, ShipRequest};
use crate::events::EventKind;
use crate::registry::LinkSlot;
use crate::runtime::{Inner, Resumable};
use crate::session::{ExchangeRequest, SessionId, SessionMetrics, SessionShared, SessionState};
use crate::stats::location_name;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xdx_codec::{
    decode_parts_ctx, decode_patch_ctx, encode_parts_into, encode_patch_with_context_into,
    is_patch, label_with_context, split_label_context, FeedPart, TraceContext,
};
use xdx_core::exec::{
    batch_ranges, commit_and_index, cross_ports_in_consumer_order, execute_in_place,
    execute_source_phase_streaming, execute_target_phase, CrossPort, ExecOutcome,
};
use xdx_core::program::PortRef;
use xdx_core::{Program, WireFormat, PATCH_STEP_FACTOR};
use xdx_delta::{db_tables, diff_snapshots, Snapshot};
use xdx_net::http::{soap_post_bytes, RequestRef};
use xdx_relational::{stage_patch, Counters, Database, DeltaPatch, Feed};
use xdx_trace::{SpanId, NO_SPAN};

/// The distributed trace id a session's spans stitch under: the
/// publish group's span for multicast lanes (so one publish is one
/// tree), the session's own root span otherwise.
pub(crate) fn session_trace_id(shared: &SessionShared) -> u64 {
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
fn soap_action_context(request: &RequestRef<'_>) -> Option<TraceContext> {
    split_label_context(request.header("SOAPAction")?.trim_matches('"')).1
}

/// Stable identity of a route's versioned feed log: the endpoint pair
/// plus both fragmentation names — a different fragmentation pair over
/// the same endpoints is a different feed history.
pub(crate) fn route_key(src_ep: &str, dst_ep: &str, src_frag: &str, dst_frag: &str) -> String {
    format!("{src_ep}→{dst_ep}:{src_frag}→{dst_frag}")
}

/// Packs consecutive batches into ring slots under a row budget: a
/// batch joins the open slot while the slot's rows stay within the
/// budget, and a batch that does not fit seals the slot and opens the
/// next. Which batches share a slot is therefore a function of the
/// batch row counts and the budget alone — never of when a feed was
/// produced or how far the wire had got — which is what lets one seq
/// name the same bytes across failure, resume and two runs of one seed.
#[derive(Debug)]
pub struct SlotPacker<T> {
    budget: usize,
    open: Vec<T>,
    open_rows: usize,
}

impl<T> SlotPacker<T> {
    /// A packer of slots holding at most `batch_rows` rows (at least
    /// one), or one batch.
    pub fn new(batch_rows: usize) -> SlotPacker<T> {
        SlotPacker {
            budget: batch_rows.max(1),
            open: Vec::new(),
            open_rows: 0,
        }
    }

    /// Adds the next batch, of `rows` rows. Returns the slot it sealed,
    /// if it did not fit the open one.
    pub fn push(&mut self, rows: usize, batch: T) -> Option<Vec<T>> {
        let sealed = if !self.open.is_empty() && self.open_rows + rows > self.budget {
            self.open_rows = 0;
            Some(std::mem::take(&mut self.open))
        } else {
            None
        };
        self.open.push(batch);
        self.open_rows += rows;
        sealed
    }

    /// No batch follows: the open slot, sealed, if it holds any.
    pub fn finish(self) -> Option<Vec<T>> {
        (!self.open.is_empty()).then_some(self.open)
    }
}

/// One part of a ring slot: a batch — a row range of one cross feed.
struct Part {
    /// The cross port's region name: the part's label in a container,
    /// the shipment label of a slot it has to itself.
    label: String,
    port: PortRef,
    /// The cross feed this batch is a row range of — shared by the
    /// port's parts, never copied — until the first lane to need the
    /// slot encodes it.
    feed: Option<Arc<Feed>>,
    rows: Range<usize>,
}

/// One slot of a group's frame ring: one message — the delta patch, or
/// the batches packed under one row budget — on its way to every lane
/// of the group. The ring index *is* the ledger shipment seq: slots
/// seal in batch order (cross ports in first-consumer order, each feed's
/// batches in row order, after the patch if one shipped), so the same
/// seq names the same bytes across failure and resume.
struct Slot {
    /// The shipment label: the part's own when it has the slot to
    /// itself, the first part's and a count of the rest otherwise.
    label: String,
    /// The batches this message carries, in order; none for the delta
    /// patch.
    parts: Vec<Part>,
    /// The wire message, from its one encode until every live lane has
    /// submitted it — resident frames are bounded by the spread between
    /// the fastest and slowest lane.
    frame: Option<Arc<Vec<u8>>>,
}

impl Slot {
    fn sealed(parts: Vec<Part>) -> Slot {
        // A sealed slot holds at least one batch.
        let label = match parts.len() {
            1 => parts[0].label.clone(),
            n => format!("{}+{}", parts[0].label, n - 1),
        };
        Slot {
            label,
            parts,
            frame: None,
        }
    }
}

/// The feeds one delivered slot decoded to, in part order.
type Decoded = Arc<Vec<Feed>>;

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
    /// Outcome of the head computation; becomes the lane's outcome,
    /// with the target's own commit and index on top, when the patch
    /// applies.
    head_outcome: ExecOutcome,
}

/// One target's side of an exchange: its session cell, its own link,
/// ledger coordinates and retry budget, its cursor over the group's
/// frame ring, and its staging state. Everything per-target lives here;
/// the only thing lanes share is the ring of already-encoded frames.
pub(crate) struct Lane {
    pub(crate) shared: Arc<SessionShared>,
    pub(crate) slot: Arc<LinkSlot>,
    pub(crate) feed_route: String,
    /// The lane's own tallies, written where the work happens and handed
    /// to the session's result at settlement.
    pub(crate) metrics: SessionMetrics,
    target: Database,
    /// Retry budget shared by every batch of the lane — one broken
    /// target exhausts only its own.
    budget: Arc<AtomicI64>,
    inflight: usize,
    /// Next ring slot this lane submits.
    cursor: usize,
    /// Slots fully absorbed (delivered or failed) — the lag metric the
    /// cap compares against the group's fastest lane.
    completed: usize,
    /// True once a batch failed because the link defeated the shipping
    /// policy — the circuit breaker's signal.
    link_gave_up: bool,
    /// First failure diagnostic; stops the lane's pump, and the lane
    /// settles once its in-flight batches drain.
    failure: Option<String>,
    /// Decoded slots that arrived ahead of the staging cursor, shared
    /// with the group's other lanes until staged.
    decoded: BTreeMap<u64, Decoded>,
    /// Next shipment seq to stage — batches apply in order even when
    /// the wire completes them out of order.
    next_stage_seq: u64,
    /// Source-phase outcome (on the group's first lane), growing
    /// ship tallies as batches land.
    outcome: ExecOutcome,
    /// Delivered feeds, one per cross port, each batch appended as it
    /// is staged; the target phase runs over them at settlement.
    delivered: HashMap<PortRef, Feed>,
    /// True once a patch committed and indexed the target: nothing is
    /// left for the target half to finish.
    patched: bool,
    /// The step that patch took the target through — its base snapshot
    /// and the patch as it arrived — unless the base was chain-composed:
    /// what settlement hands the route's log in place of a second diff.
    step: Option<(Snapshot, Arc<DeltaPatch>)>,
    settled: bool,
}

impl Lane {
    /// Still shipping from the ring: neither settled nor failed.
    fn live(&self) -> bool {
        !self.settled && self.failure.is_none()
    }

    /// Shipment `seq` has landed here: staged, or decoded and waiting
    /// for the staging cursor.
    fn absorbed(&self, seq: u64) -> bool {
        seq < self.next_stage_seq || self.decoded.contains_key(&seq)
    }

    /// Nothing on the wire and nothing left to put there.
    fn drained(&self, ring_len: usize) -> bool {
        self.inflight == 0 && (self.cursor >= ring_len || self.failure.is_some())
    }

    /// Folds a finished batch's shipping tallies into the lane's metrics
    /// and, once per batch, into its link's counters.
    fn tally(&mut self, batch: &BatchShipStats) {
        let m = &mut self.metrics;
        m.bytes_shipped += batch.wire_bytes;
        m.chunks_shipped += batch.chunks_shipped;
        m.chunks_resumed += batch.chunks_resumed;
        m.chunks_deduped += batch.chunks_deduped;
        m.chunks_retried += batch.chunks_retried;
        m.retry_backoff += batch.retry_backoff;
        let link = &self.slot.counters;
        link.wire_bytes
            .fetch_add(batch.wire_bytes, Ordering::Relaxed);
        link.chunks_shipped
            .fetch_add(batch.chunks_shipped, Ordering::Relaxed);
        link.chunks_retried
            .fetch_add(batch.chunks_retried, Ordering::Relaxed);
    }
}

/// N lanes over one shared frame ring: one plan, one source half, every
/// batch encoded once and the same bytes shipped per lane. A two-site
/// session is a group of one.
pub(crate) struct Group {
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
    lanes: Vec<Lane>,
    /// Decode-once cache: lanes receive byte-identical frames (the
    /// engine checksums end to end), so the first absorber parses and
    /// later lanes share the feeds. An entry lives while some live lane
    /// has yet to absorb its seq.
    decoded: HashMap<u64, Decoded>,
    /// Snapshot-once cache, same argument: the first lane to commit
    /// snapshots its tables and the rest record the same `Arc`.
    snapshot: Option<Snapshot>,
    /// Encode bill of a shared ring, folded into the fleet's tallies when
    /// the exchange retires (a sole lane bills its own metrics).
    encodes: SessionMetrics,
    shared_reuse: u64,
    ring_fallbacks: u64,
    encode_buf: Vec<u8>,
    /// The delta patch riding shipment 0, until its absorb step ran.
    patch: Option<PatchShip>,
}

impl Group {
    /// Drops every cached decoded batch no live lane is still to absorb:
    /// the cache keeps a batch for its remaining takers and for nobody
    /// else, and a failed or ejected lane will never take one.
    fn release_decoded(&mut self) {
        let lanes = &self.lanes;
        self.decoded
            .retain(|&seq, _| lanes.iter().any(|l| l.live() && !l.absorbed(seq)));
    }
}

/// Completed batch results as `(group, lane, result)`, deposited by
/// engine callbacks; shared so a result can land while a worker holds
/// the exchange out of the parked map.
pub(crate) type Inbox = Arc<Mutex<Vec<(usize, usize, BatchResult)>>>;

/// An exchange parked mid-flight: its source halves ran, its batches
/// flow through the shipping engine, and whichever worker picks it off
/// the runnable queue absorbs what landed. No thread blocks on it — the
/// struct *is* the resumable state machine. One group, except for a
/// publish whose subscribers negotiated different wire formats.
pub(crate) struct Exchange {
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

impl Exchange {
    /// An exchange of `groups` (none empty), keyed by its first lane's
    /// session.
    pub(crate) fn new(
        enqueued: Instant,
        request: ExchangeRequest,
        lag_cap: usize,
        groups: Vec<Group>,
    ) -> Exchange {
        Exchange {
            id: groups[0].lanes[0].shared.id,
            enqueued,
            request,
            billed: Counters::default(),
            lag_cap,
            groups,
            inbox: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Decoded batches its groups' decode-once caches hold right now.
    pub(crate) fn decoded_cached(&self) -> usize {
        self.groups.iter().map(|g| g.decoded.len()).sum()
    }
}

/// The two-site request a lane resumes as: the exchange's request under
/// the lane's own name and target endpoint. The exchange's `last` lane
/// takes the source database; earlier ones clone it (tables share their
/// rows and built indexes).
pub(crate) fn lane_checkpoint(
    request: &mut ExchangeRequest,
    name: &str,
    target: &str,
    last: bool,
) -> ExchangeRequest {
    let source = std::mem::take(&mut request.source);
    let mut checkpoint = request.clone();
    checkpoint.name = name.to_string();
    checkpoint.target_endpoint = target.to_string();
    if last {
        checkpoint.source = source;
    } else {
        checkpoint.source = source.clone();
        request.source = source;
    }
    checkpoint
}

/// A lane's terminal hand-off: what settlement moves out of the lane and
/// into its committed or rolled-back epilogue.
struct Settling {
    shared: Arc<SessionShared>,
    slot: Arc<LinkSlot>,
    enqueued: Instant,
    metrics: SessionMetrics,
    target: Database,
    exec_span: SpanId,
    /// When the lane's target half finished and settlement began — the
    /// `settle` span's opening.
    started: Instant,
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

impl Inner {
    /// Opens a lane of `request` towards `target_ep` at dequeue: resolves
    /// the pair's link (its negotiated wire format feeds the cost model
    /// and the plan-cache key, so placement sees the bytes the link will
    /// actually carry, `lane.metrics.wire_format`) and records the queue
    /// wait.
    pub(crate) fn open_lane(
        &self,
        shared: &Arc<SessionShared>,
        enqueued: Instant,
        request: &ExchangeRequest,
        target_ep: &str,
    ) -> Lane {
        let source_ep = &request.source_endpoint;
        let (slot, created) = self.registry.resolve(source_ep, target_ep);
        if created {
            self.events.push(
                shared.id,
                shared.root_span,
                EventKind::LinkCreated,
                slot.pair(),
            );
        }
        let route = format!("{source_ep}→{target_ep}");
        let wire_format = request.wire_format.unwrap_or_else(|| slot.wire_format());
        let metrics = SessionMetrics {
            queue_wait: enqueued.elapsed(),
            tenant: request.lane_tenant(target_ep),
            route,
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
            format!("priority {:?}", request.priority),
        );
        Lane {
            shared: Arc::clone(shared),
            slot,
            feed_route: route_key(
                source_ep,
                target_ep,
                &request.source_frag.name,
                &request.target_frag.name,
            ),
            metrics,
            target: Database::new(format!("{}-target", shared.name)),
            budget: Arc::new(AtomicI64::new(i64::from(self.config.shipping.retry_budget))),
            inflight: 0,
            cursor: 0,
            completed: 0,
            link_gave_up: false,
            failure: None,
            decoded: BTreeMap::new(),
            next_stage_seq: 0,
            outcome: ExecOutcome::default(),
            delivered: HashMap::new(),
            patched: false,
            step: None,
            settled: false,
        }
    }

    /// Starts a group's execution: allocates its exec span — opening at
    /// `exec_started`, the instant planning ended, so the stage chain
    /// queued → plan → exec has no gap for the scheduler to fall into —
    /// and marks every lane `Executing`.
    pub(crate) fn open_group(
        &self,
        wire_format: WireFormat,
        plan: Arc<CachedPlan>,
        plan_shape: Option<u64>,
        exec_started: Instant,
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
            exec_started,
            ctx: wire_context(&lanes[0].shared, exec_span),
            ring: Vec::new(),
            floor: 0,
            lanes,
            decoded: HashMap::new(),
            snapshot: None,
            encodes: SessionMetrics::default(),
            shared_reuse: 0,
            ring_fallbacks: 0,
            encode_buf: Vec::new(),
            patch: None,
        }
    }

    /// The delta rung of the ladder: compute the head table set in place
    /// — the whole program over the source's own rows, nothing encoded,
    /// shipped or loaded (DESIGN §23) — diff it against the base
    /// snapshot in one Dewey merge pass, and — when the cost model
    /// prefers the patch over the full feeds — put the checksummed patch
    /// frame on the ring as shipment 0. Returns true when the full feeds
    /// must ship now instead (diff failed, or the patch would cost more).
    fn stage_delta(
        &self,
        ex: &mut Exchange,
        (base_version, head_version, snapshot, chain_composed): (u64, u64, Snapshot, bool),
    ) -> bool {
        let request = &mut ex.request;
        let group = &mut ex.groups[0];
        let lane = &mut group.lanes[0];
        let (id, exec_span) = (lane.shared.id, group.exec_span);
        let (head, head_outcome) = match execute_in_place(
            &self.schema,
            &request.source_frag,
            &request.target_frag,
            &group.plan.program,
            &mut request.source,
        ) {
            Ok(ran) => ran,
            Err(e) => {
                lane.failure = Some(e.to_string());
                return false;
            }
        };
        let patch = match diff_snapshots(&snapshot, &head, base_version, head_version) {
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
        let bytes = stored
            .filter(|m| is_patch(m))
            .unwrap_or_else(|| Arc::new(bytes));
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
        group.patch = Some(PatchShip {
            base_version,
            head_version,
            snapshot,
            chain_composed,
            steps,
            bytes: bytes.len(),
            head_outcome,
        });
        group.ring.push(Slot {
            label: "delta-patch".into(),
            parts: Vec::new(),
            frame: Some(bytes),
        });
        false
    }

    /// Absorb step of the delta patch: decode → staleness check →
    /// `stage_patch`, then the same timed commit and index every other
    /// lane ends with. Any rejection (corrupt
    /// frame, stale version precondition, malformed steps) rolls the
    /// staged patch back and re-enters the feed-batch path at the next
    /// shipment seq — the fallback ladder.
    fn absorb_patch(&self, arc: &Arc<Inner>, ex: &mut Exchange, delivered: &[u8]) {
        let group = &mut ex.groups[0];
        let patch = group.patch.take().expect("patch in flight");
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
            let rows = stage_patch(&patch.snapshot, &decoded, &mut lane.target)?;
            Ok((rows, decoded))
        });
        match staged {
            Ok((rows, decoded)) => {
                let mut outcome = patch.head_outcome;
                if let Err(e) =
                    commit_and_index(&group.plan.program, &mut lane.target, &mut outcome)
                {
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
                outcome.times.communication = lane.outcome.times.communication;
                outcome.messages = 1;
                outcome.rows_loaded = rows;
                lane.outcome = outcome;
                lane.patched = true;
                // The log's next step is this patch, if it still starts
                // where the log ends; a composed base never does.
                if !patch.chain_composed {
                    lane.step = Some((patch.snapshot, Arc::new(decoded)));
                }
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
    /// operators still compute. Slots number on from whatever the ring
    /// already holds (a rejected patch holds seq 0), and only sealed
    /// slots are on the ring: the open tail waits for the batch that
    /// does not fit it, or for the source phase to end. A source
    /// failure fails every lane of the group and ships no further slot
    /// — the open tail least of all, a successful run would have packed
    /// more into it; slots already on the wire drain before the lanes
    /// settle.
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
        // batches in Dewey order, consecutive batches packed under the
        // row budget: overlapping the wire with the source phase changes
        // *when* a frame ships, never its seq or bytes.
        let cross = cross_ports_in_consumer_order(&self.schema, &plan.program);
        let batch_rows = self.config.batch_rows;
        let mut packer = SlotPacker::new(batch_rows);
        let mut queue = |ring: &mut Vec<Slot>, c: &CrossPort, feed: Feed| {
            let feed = Arc::new(feed);
            for rows in batch_ranges(feed.len(), batch_rows) {
                let part = Part {
                    label: c.label.clone(),
                    port: c.port,
                    feed: Some(Arc::clone(&feed)),
                    rows,
                };
                ring.extend(packer.push(part.rows.len(), part).map(Slot::sealed));
            }
        };
        // Cross feeds whose producer ran ahead of an earlier port's, and
        // the count of leading cross ports already on the ring.
        let mut ready: HashMap<PortRef, Feed> = HashMap::new();
        let mut streamed = 0usize;
        let source = execute_source_phase_streaming(
            &self.schema,
            &request.source_frag,
            &plan.program,
            &mut request.source,
            None,
            &mut |port, feed| {
                // A cross feed is final the instant its producer runs,
                // and the ring holds it from here (a feed a table or a
                // later source operator still holds shares its rows).
                // Flush the maximal *ready prefix* so seqs stay in
                // consumer order, then top the engine up: the wire
                // carries these frames while the rest of the source
                // phase computes.
                ready.insert(port, feed);
                while let Some(feed) = cross.get(streamed).and_then(|c| ready.remove(&c.port)) {
                    queue(&mut group.ring, &cross[streamed], feed);
                    streamed += 1;
                }
                self.pump(arc, *id, gi, inbox, group, *lag_cap);
            },
        );
        let failure = match source {
            Ok(outcome) => {
                // The group's one source phase bills to its first lane.
                group.lanes[0].outcome = outcome;
                // Every producer ran, so the prefix rule left nothing
                // behind — unless a cross port never got a feed.
                let unfed = cross.get(streamed);
                if unfed.is_none() {
                    group.ring.extend(packer.finish().map(Slot::sealed));
                }
                unfed.map(|c| format!("missing feed for port {:?}", c.port))
            }
            Err(e) => Some(e.to_string()),
        };
        if let Some(why) = failure {
            for lane in &mut group.lanes {
                lane.failure.get_or_insert_with(|| why.clone());
            }
        }
    }

    /// Runs a planned exchange's source halves and hands it to the
    /// scheduler. The delta path goes first, when eligible: the patch,
    /// if the cost model prefers it, is shipment 0 and the full feeds
    /// stay home unless the fallback ladder needs them. Then the
    /// windows are topped up and the exchange *parks* — the worker
    /// returns to the queue while the frames drain, and batch
    /// completions wake whichever worker is free next via the runnable
    /// queue. An exchange with nothing on the wire (no cross edges, or a
    /// failure before the first frame) settles here.
    pub(crate) fn launch(
        &self,
        arc: &Arc<Inner>,
        mut ex: Exchange,
        delta_base: Option<(u64, u64, Snapshot, bool)>,
    ) {
        let ship_full = match delta_base {
            Some(base) => self.stage_delta(&mut ex, base),
            None => true,
        };
        if ship_full {
            for gi in 0..ex.groups.len() {
                self.run_source(arc, &mut ex, gi);
            }
        }
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
    pub(crate) fn service(&self, arc: &Arc<Inner>, sid: SessionId) {
        loop {
            let Some(mut ex) = self.parked.lock().unwrap().remove(&sid) else {
                return;
            };
            let results = std::mem::take(&mut *ex.inbox.lock().unwrap());
            // A stale wakeup (its result was absorbed by an earlier
            // service) finds nothing and has nothing to advance.
            let landed = !results.is_empty();
            for (gi, li, result) in results {
                self.absorb(arc, &mut ex, gi, li, result);
            }
            if landed && self.advance(arc, &mut ex) {
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
            self.pump(arc, ex.id, gi, &ex.inbox, &mut ex.groups[gi], ex.lag_cap);
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
    /// to `pipeline_depth` slots in flight per lane, so frame `k+1` is
    /// encoded while frame `k` rides the wire. Then enforces the lag cap
    /// and releases the frames every live lane has moved past.
    fn pump(
        &self,
        arc: &Arc<Inner>,
        sid: SessionId,
        gi: usize,
        inbox: &Inbox,
        group: &mut Group,
        lag_cap: usize,
    ) {
        let RuntimeConfig {
            pipeline_depth: depth,
            shipping: policy,
            ..
        } = self.config;
        for li in 0..group.lanes.len() {
            loop {
                let lane = &group.lanes[li];
                if !lane.live() || lane.inflight >= depth || lane.cursor >= group.ring.len() {
                    break;
                }
                let (seq, lane_id) = (lane.cursor, lane.shared.id);
                // Checkpoint replay first: a resumed lane re-ships the
                // exact bytes the failed run built; only a ledger miss
                // takes the ring's frame.
                let message = match self.ledger.stored_message(lane_id, seq as u64) {
                    Some(stored) => stored,
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
                    policy,
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
        let unsettled = group.lanes.iter().filter(|l| !l.settled);
        let lead = unsettled.map(|l| l.completed).max().unwrap_or(0);
        for lane in group.lanes.iter_mut().filter(|l| l.live()) {
            let lag = lead - lane.completed;
            if lag > lag_cap {
                group.ring_fallbacks += 1;
                let why = format!("fell {lag} frames behind the publish group (cap {lag_cap})");
                self.shed(
                    lane.shared.id,
                    group.exec_span,
                    format!("{why}: dropped to per-subscriber re-ship"),
                );
                lane.failure = Some(why);
            }
        }
        let live = group.lanes.iter().filter(|l| l.live());
        let floor = live.map(|l| l.cursor).min().unwrap_or(group.ring.len());
        for slot in group.ring.iter_mut().take(floor).skip(group.floor) {
            for part in &mut slot.parts {
                part.feed = None;
            }
            slot.frame = None;
        }
        group.floor = group.floor.max(floor);
        // A lane that just failed or was ejected waits for no batch.
        group.release_decoded();
    }

    /// The wire message of ring slot `seq`, encoded by the first lane to
    /// need it: encode → tally → `encode` span → SOAP-wrap with the
    /// context label. A slot of one part is that part's bare frame, a
    /// slot of several is one container around them. A sole lane bills
    /// the encode to its own metrics; a shared ring bills the group,
    /// once, however many lanes ship it. The bill is one message and the
    /// bytes of its parts' frames: a container's header is framing, paid
    /// on the wire like the envelope.
    fn frame(&self, group: &mut Group, li: usize, seq: usize) -> Arc<Vec<u8>> {
        let lanes = group.lanes.len();
        let slot = &mut group.ring[seq];
        if let Some(frame) = &slot.frame {
            group.shared_reuse += u64::from(lanes > 1);
            return Arc::clone(frame);
        }
        let start = Instant::now();
        let parts: Vec<FeedPart<'_>> = slot
            .parts
            .iter()
            .map(|part| {
                let feed = part
                    .feed
                    .as_ref()
                    .expect("an unencoded slot holds its batches");
                FeedPart {
                    label: &part.label,
                    schema: &feed.schema,
                    rows: &feed.rows[part.rows.clone()],
                }
            })
            .collect();
        // Trace context rides the shipment: columnar frames carry it in
        // their header extension, XML text in the SOAPAction label —
        // either way every receiver stitches its decode/stage spans
        // under the group's exec span.
        let len = encode_parts_into(&mut group.encode_buf, &parts, group.wire_format, group.ctx);
        drop(parts);
        for part in &mut slot.parts {
            part.feed = None;
        }
        let ns = start.elapsed().as_nanos() as u64;
        let session = group.lanes[li].shared.id;
        let first = &mut group.lanes[0];
        let tally = if lanes == 1 {
            &mut first.metrics
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
        let frame = Arc::new(soap_post_bytes("/exchange", &soap_label, &group.encode_buf));
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
        lane.tally(&result.stats);
        let delivered = match result.outcome {
            Ok(delivered) => delivered,
            Err(e) => {
                lane.link_gave_up |= result.link_gave_up;
                lane.failure.get_or_insert(e);
                return;
            }
        };
        lane.outcome.times.communication += result.elapsed;
        lane.outcome.messages += 1;
        if group.patch.is_some() && result.seq == 0 {
            self.absorb_patch(arc, ex, &delivered[..]);
            return;
        }
        // Decode what actually arrived — link damage surfaces as an
        // explicit error here.
        let feeds = match self.decode_once(group, li, result.seq, &delivered[..]) {
            Ok(feeds) => feeds,
            Err(e) => {
                group.lanes[li]
                    .failure
                    .get_or_insert_with(|| format!("batch {} corrupt: {e}", result.seq));
                return;
            }
        };
        let lane = &mut group.lanes[li];
        lane.decoded.insert(result.seq, feeds);
        // Before staging: the last taker of a shared slot must find
        // itself its sole owner to stage it by move.
        group.release_decoded();
        let lane = &mut group.lanes[li];
        let stage_started = Instant::now();
        let staged_from = lane.next_stage_seq;
        if let Err(e) = stage_ready(lane, &group.ring) {
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

    /// Parses a delivered slot — once per group: every lane receives
    /// byte-identical frames, so the first absorber decodes (its `decode`
    /// span stitches under the trace context the frame, or the
    /// SOAPAction label for XML text, carries) and later lanes share the
    /// feeds' rows: a lane with nothing delivered on a port yet adopts
    /// the row set as it is, one that already holds a batch of the port
    /// appends (copying what it shares). The parts that arrived must be
    /// the parts the slot sent, label for label. The decode bill, like
    /// the encode bill, is per *frame*.
    fn decode_once(
        &self,
        group: &mut Group,
        li: usize,
        seq: u64,
        delivered: &[u8],
    ) -> std::result::Result<Decoded, String> {
        if let Some(cached) = group.decoded.get(&seq) {
            return Ok(Arc::clone(cached));
        }
        let decode_started = Instant::now();
        let arrived = RequestRef::parse(delivered).map_err(|e| e.to_string())?;
        let (parts, ctx) = decode_parts_ctx(arrived.body).map_err(|e| e.to_string())?;
        let sent = group.ring.get(seq as usize).map_or(&[][..], |s| &s.parts);
        let as_sent = parts.len() == sent.len()
            && parts
                .iter()
                .zip(sent)
                .all(|((label, _), part)| label.as_ref().is_none_or(|l| *l == part.label));
        if !as_sent {
            return Err(format!(
                "{} part(s) arrived, not the {} shipment {seq} sent",
                parts.len(),
                sent.len()
            ));
        }
        let shared = &group.lanes[li].shared;
        let (parent, trace_id) = ctx.or_else(|| soap_action_context(&arrived)).map_or_else(
            || (group.exec_span, session_trace_id(shared)),
            |c| (c.parent_span, c.trace_id),
        );
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "decode",
            shared.id,
            parent,
            trace_id,
            decode_started,
            decode_started.elapsed(),
            format!("batch {seq}, {} part(s)", parts.len()),
        );
        let feeds: Decoded = Arc::new(parts.into_iter().map(|(_, feed)| feed).collect());
        if group.lanes.len() > 1 {
            group.decoded.insert(seq, Arc::clone(&feeds));
        }
        Ok(feeds)
    }

    /// The target half of a drained lane: a failed lane rolls back
    /// anything staged, a patched lane is already committed, and every
    /// other lane runs the target phase over its delivered feeds —
    /// staged, committed and indexed, or rolled back on any failure, so
    /// the target leaves exactly as it arrived, never torn.
    fn finish_target(
        &self,
        request: &ExchangeRequest,
        program: &Program,
        lane: &mut Lane,
    ) -> std::result::Result<(), String> {
        if let Some(why) = lane.failure.take() {
            lane.target.rollback_staged();
            return Err(why);
        }
        if lane.patched {
            return Ok(());
        }
        execute_target_phase(
            &self.schema,
            &request.source_frag,
            &request.target_frag,
            program,
            &mut lane.target,
            std::mem::take(&mut lane.delivered),
            &mut lane.outcome,
        )
        .map_err(|e| e.to_string())
    }

    /// Settles one drained lane into its terminal state: runs its target
    /// half, records its container spans, then commits or rolls back.
    /// Every lane of every exchange ends here; what differs between a
    /// two-site session and a multicast lane is data — how many lanes
    /// share the ring, and whether the lane's root hangs off a
    /// publish-group span.
    pub(crate) fn settle(&self, ex: &mut Exchange, gi: usize, li: usize) {
        let unsettled = |groups: &[Group]| {
            groups
                .iter()
                .flat_map(|g| &g.lanes)
                .filter(|l| !l.settled)
                .count()
        };
        let last_of_exchange = unsettled(&ex.groups) == 1;
        let last_of_group = unsettled(&ex.groups[gi..=gi]) == 1;
        let request = &mut ex.request;
        let group = &mut ex.groups[gi];
        let finished = self.finish_target(request, &group.plan.program, &mut group.lanes[li]);
        let lane = &mut group.lanes[li];
        lane.settled = true;
        let link_gave_up = lane.link_gave_up;
        let mut s = Settling {
            shared: Arc::clone(&lane.shared),
            slot: Arc::clone(&lane.slot),
            enqueued: ex.enqueued,
            metrics: std::mem::take(&mut lane.metrics),
            target: std::mem::take(&mut lane.target),
            exec_span: group.exec_span,
            started: Instant::now(),
        };
        if li == 0 {
            // The group's source half bills to its first lane: whatever
            // the source database accumulated since the last bill.
            s.metrics.source_counters = counters_delta(request.source.counters, ex.billed);
            ex.billed = request.source.counters;
        }
        s.metrics.target_counters = s.target.counters;
        let verdict = if finished.is_ok() { "ok" } else { "failed" };
        let format = group.wire_format.name();
        if s.shared.root_parent != NO_SPAN {
            // A multicast lane's own container under the group's exec
            // span.
            self.trace.record(
                "lane",
                s.shared.id,
                group.exec_span,
                group.exec_started,
                group.exec_started.elapsed(),
                format!("{verdict} → {} [{format}]", s.slot.target()),
            );
        }
        if last_of_group {
            // The group's exec span — parent of every lane's shipping,
            // decode and stage work — hangs off the trace root: the
            // session's own root span, or the publish-group span.
            let owner = &group.lanes[0].shared;
            self.trace.record_with_context(
                group.exec_span,
                "exec",
                owner.id,
                session_trace_id(owner),
                session_trace_id(owner),
                group.exec_started,
                group.exec_started.elapsed(),
                format!("{} lane(s) [{format}], last {verdict}", group.lanes.len()),
            );
        }
        match finished {
            Ok(()) => self.settle_committed(s, group, li),
            Err(why) => {
                // The lane resumes as an ordinary two-site session
                // replaying this group's plan: identical program →
                // identical shipment seqs and bytes, so its ledger's
                // acknowledged frames are skipped.
                let (name, target) = (&s.shared.name, s.slot.target());
                let resumable = Resumable {
                    request: lane_checkpoint(request, name, target, last_of_exchange),
                    plan: Some(Arc::clone(&group.plan)),
                };
                self.settle_rolled_back(s, why, link_gave_up, resumable);
            }
        }
    }

    /// The committed epilogue of [`Inner::settle`]: operator telemetry
    /// and calibration, the route's next snapshot, the ledger's release
    /// and the breaker's success.
    fn settle_committed(&self, mut s: Settling, group: &mut Group, li: usize) {
        let lane = &mut group.lanes[li];
        let outcome = std::mem::take(&mut lane.outcome);
        let feed_route = std::mem::take(&mut lane.feed_route);
        let step = lane.step.take();
        let (plan, format) = (&group.plan, group.wire_format.name());
        let trace_id = session_trace_id(&s.shared);
        s.metrics.communication = outcome.times.communication;
        s.metrics.messages = outcome.messages;
        s.metrics.rows_loaded = outcome.rows_loaded;
        // How much of the lane's wall the wire hid: feeds the admission
        // estimator's turnaround model, so queue-wait predictions
        // reflect pipelined (not serial) service.
        let wall = group.exec_started.elapsed();
        let exposed = wall
            .saturating_sub(s.metrics.communication)
            .max(Duration::from_micros(1));
        self.admission
            .record_overlap(wall.as_secs_f64() / exposed.as_secs_f64());
        let mut observed_ns = self.record_ops(s.shared.id, s.exec_span, format, plan, &outcome);
        // A lane that encoded its own frames calibrates the wire model;
        // lanes of a shared ring did not encode, so they do not.
        if group.lanes.len() == 1 && (plan.comm_bytes > 0 || s.metrics.bytes_encoded > 0) {
            self.calibration.record_comm(
                format,
                plan.comm_bytes,
                s.metrics.bytes_encoded,
                s.metrics.communication.as_nanos() as u64,
            );
        }
        // Session-level drift: observed time (operators plus the
        // simulated wire, which inflates under link faults) against the
        // plan's total predicted cost. A sustained excursion evicts the
        // shape's cached plan so the next session re-plans under fresh
        // statistics.
        observed_ns += s.metrics.communication.as_nanos() as u64;
        if let Some(shape) = group.plan_shape {
            if self
                .calibration
                .observe_session(shape, plan.cost, observed_ns)
            {
                let evicted = self.cache.evict_drifted(shape);
                self.events.push(
                    s.shared.id,
                    s.shared.root_span,
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
        let tables = group
            .snapshot
            .get_or_insert_with(|| Arc::new(db_tables(&s.target)));
        // A lane that landed a patch hands the log the step it applied:
        // the log diffs nothing it was just told.
        let version = self
            .snapshots
            .record_patched(&feed_route, Arc::clone(tables), step);
        // The log kept the previous version's rows for every table this
        // lane landed unchanged. The target takes the log's rows too —
        // equal rows at equal positions, so its indexes stand — and the
        // copy it decoded dies here, on this worker, outside the store's
        // locks, once the group's last lane has let go of it.
        if let Some(retained) = self.snapshots.snapshot(&feed_route, version) {
            for (name, feed) in retained.iter() {
                if let Ok((table, _)) = s.target.table_mut(name) {
                    table.data.rows = feed.rows.clone();
                }
            }
        }
        if group.lanes.iter().all(|l| l.settled) {
            group.snapshot = None;
        }
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "snapshot",
            s.shared.id,
            s.exec_span,
            trace_id,
            snapshot_started,
            snapshot_started.elapsed(),
            format!("route {feed_route} advanced"),
        );
        // The checkpoint served its purpose; drop it.
        self.ledger.forget_session(s.shared.id);
        s.slot
            .counters
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        if let Some(BreakerTransition::Closed) = s.slot.breaker.record_success() {
            self.events.push(
                s.shared.id,
                s.shared.root_span,
                EventKind::CircuitClosed,
                format!("{}: probe succeeded", s.slot.pair()),
            );
        }
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "settle",
            s.shared.id,
            s.exec_span,
            trace_id,
            s.started,
            s.started.elapsed(),
            "committed".to_string(),
        );
        self.finish(
            &s.shared,
            s.enqueued,
            SessionState::Done,
            s.metrics,
            Some(s.target),
            None,
        );
    }

    /// Per-operator telemetry of a committed lane: each timed operator
    /// becomes a child span of the exec span, lands in its `(op,
    /// location)` histogram, and — when the plan carries the model's
    /// per-node predictions — feeds the predicted-vs-observed
    /// calibration cells. Returns the summed operator wall.
    pub(crate) fn record_ops(
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
    fn settle_rolled_back(
        &self,
        s: Settling,
        diagnostic: String,
        link_gave_up: bool,
        resumable: Resumable,
    ) {
        let (shared, slot) = (&s.shared, &s.slot);
        if shared.is_cancelled() {
            self.ledger.forget_session(shared.id);
            self.finish(
                shared,
                s.enqueued,
                SessionState::Cancelled,
                s.metrics,
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
            s.exec_span,
            session_trace_id(shared),
            s.started,
            s.started.elapsed(),
            "rolled back".to_string(),
        );
        // The rolled-back target travels with the result as observable
        // proof that no partial tables survived.
        self.finish(
            shared,
            s.enqueued,
            SessionState::Failed,
            s.metrics,
            Some(s.target),
            Some(diagnostic),
        );
    }

    /// Closes a publish group's root span, admission to now; a session
    /// on its own (`NO_SPAN`) has none.
    pub(crate) fn close_group(
        &self,
        group_span: SpanId,
        owner: SessionId,
        enqueued: Instant,
        detail: String,
    ) {
        if group_span != NO_SPAN {
            self.trace.record_with_context(
                group_span,
                "publish-group",
                owner,
                NO_SPAN,
                group_span,
                enqueued,
                enqueued.elapsed(),
                detail,
            );
        }
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
                agg.stats.fold(&group.encodes);
                reuse += group.shared_reuse;
                fallbacks += group.ring_fallbacks;
            }
            agg.stats.multicast_encode_shared += reuse;
            agg.stats.multicast_encode_fallback += fallbacks;
        }
        let detail = format!(
            "{}: {} lanes in {} format group(s), {reuse} shared-frame reuses, \
             {fallbacks} ring fallbacks",
            ex.request.name,
            ex.groups.iter().map(|g| g.lanes.len()).sum::<usize>(),
            ex.groups.len(),
        );
        let group_span = ex.groups[0].lanes[0].shared.root_parent;
        self.close_group(group_span, ex.id, ex.enqueued, detail);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        // Workers parked on an empty queue re-check the exit condition.
        self.available.notify_all();
    }
}

/// Files a lane's decoded slots in shipment-seq order from its staging
/// cursor, each slot's parts in order, onto the delivered feed of the
/// part's cross port: the first batch is adopted whole, and later ones
/// are appended (moved from a sole handle, copied once from a shared
/// one). The target phase runs over the delivery at settlement.
fn stage_ready(lane: &mut Lane, ring: &[Slot]) -> std::result::Result<(), String> {
    while let Some(feeds) = lane.decoded.remove(&lane.next_stage_seq) {
        // The last lane to stage a shared slot takes its feeds; earlier
        // ones take handles on their rows.
        let feeds = Arc::try_unwrap(feeds).unwrap_or_else(|shared| (*shared).clone());
        let seq = lane.next_stage_seq;
        lane.next_stage_seq += 1;
        // `decode_once` matched the feeds to the slot's parts.
        let slot = ring
            .get(seq as usize)
            .ok_or_else(|| format!("no slot for shipment {seq}"))?;
        for (feed, Part { port, .. }) in feeds.into_iter().zip(&slot.parts) {
            if let Some(delivered) = lane.delivered.get_mut(port) {
                delivered.rows.absorb(feed.rows);
            } else {
                lane.delivered.insert(*port, feed);
            }
        }
    }
    Ok(())
}

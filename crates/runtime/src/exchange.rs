//! The one exchange state machine.
//!
//! The paper's data-transfer program has one shape — source half, ship
//! the cross edges, target half — whether it feeds one target or N.
//! So does its execution here: an [`Exchange`] is a parked unit of
//! [`Group`]s, a group is N [`Lane`]s over one shared frame ring, and
//! every lane of every exchange runs the same steps: the group's source
//! half streams batches onto the ring ([`Inner::run_source`]), `pump`
//! ships each lane's window through the engine, `absorb` decodes and
//! stages what lands — once per group, for every lane — and `settle`
//! runs the lane's target half and closes it out. A two-site session is
//! a group of one lane; a publish is a group of N (one group per
//! negotiated wire format); a delta
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
use crate::engine::{BatchResult, BatchShipStats, ShipHeap, ShipRequest, Stepped, Task};
use crate::events::EventKind;
use crate::registry::LinkSlot;
use crate::runtime::{Checkpoint, Inner};
use crate::session::{ExchangeRequest, SessionId, SessionMetrics, SessionShared, SessionState};
use crate::stats::location_name;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdx_codec::{decode_parts, decode_patch, encode_parts_into, encode_patch_into, FeedPart};
use xdx_core::exec::{
    batch_ranges, commit_and_index, cross_ports_in_consumer_order, execute_in_place,
    execute_source_phase_streaming, execute_target_phase, CrossPort, ExecOutcome, PrefixMap,
};
use xdx_core::program::PortRef;
use xdx_core::{full_ship_wins, WireFormat};
use xdx_delta::{db_tables, diff_ranges, diff_snapshots, Snapshot};
use xdx_net::http::{soap_post_bytes, RequestRef};
use xdx_relational::{stage_patch, Counters, Database, DeltaPatch, Feed};
use xdx_sync::lock;
use xdx_trace::{SpanId, NO_SPAN};

/// The distributed trace id a session's spans stitch under: the
/// publish group's span for multicast lanes (so one publish is one
/// tree), the session's own root span otherwise. Every lane of a group
/// shares it, so a receiver span takes it from the lane that records
/// it, never from the frame.
pub(crate) fn session_trace_id(shared: &SessionShared) -> u64 {
    if shared.root_parent != NO_SPAN {
        shared.root_parent
    } else {
        shared.root_span
    }
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
/// frame ring. Everything per-target lives here; lanes share only the
/// ring of already-encoded frames and the group's staged delivery.
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
    /// Source-phase outcome (on the group's first lane), growing
    /// ship tallies as batches land.
    outcome: ExecOutcome,
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
    /// Parent of every lane's shipping, decode, stage and settle spans.
    exec_span: SpanId,
    exec_started: Instant,
    ring: Vec<Slot>,
    /// First ring slot some live lane has yet to submit.
    floor: usize,
    lanes: Vec<Lane>,
    /// Stage-once: lanes receive byte-identical frames (the engine
    /// checksums end to end), so the first live lane to absorb a slot
    /// decodes it and the group stages it for all of them. Decoded
    /// slots, in part order, that arrived ahead of the staging cursor.
    decoded: BTreeMap<u64, Vec<Feed>>,
    /// Next shipment seq to stage — batches apply in order even when
    /// the wire completes them out of order.
    next_stage_seq: u64,
    /// Delivered feeds, one per cross port, each batch moved in as it is
    /// staged; every lane's target phase runs over them at settlement.
    delivered: HashMap<PortRef, Feed>,
    /// Slots staged into `delivered` while the group holds it.
    staged: usize,
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
    /// Drops every decoded batch once no live lane is left to take it: a
    /// failed or ejected lane never will.
    fn release_unclaimed(&mut self) {
        if !self.lanes.iter().any(Lane::live) {
            self.decoded.clear();
            self.delivered.clear();
            self.staged = 0;
        }
    }

    /// Files decoded slots in shipment-seq order from the staging
    /// cursor, each slot's parts in order, onto the delivered feed of the
    /// part's cross port: the first batch is adopted whole, later ones
    /// are appended by move — the group holds the only handle on both.
    fn stage_ready(&mut self) {
        while let Some(feeds) = self.decoded.remove(&self.next_stage_seq) {
            // `decode` matched the feeds to the slot's parts.
            let parts = &self.ring[self.next_stage_seq as usize].parts;
            self.next_stage_seq += 1;
            self.staged += 1;
            for (feed, Part { port, .. }) in feeds.into_iter().zip(parts) {
                if let Some(delivered) = self.delivered.get_mut(port) {
                    delivered.rows.absorb(feed.rows);
                } else {
                    self.delivered.insert(*port, feed);
                }
            }
        }
    }
}

/// An exchange's submitted batches, each under its `(group, lane)`:
/// the ship tasks waiting on a deadline, and the results that landed
/// and wait to be absorbed. Every batch a lane counts in flight is in
/// one of the two.
#[derive(Default)]
struct Batches {
    parked: ShipHeap<(usize, usize, Box<Task>)>,
    landed: Vec<(usize, usize, BatchResult)>,
}

impl Batches {
    /// Files where stepping lane `li` of group `gi`'s batch left it.
    fn file(&mut self, gi: usize, li: usize, stepped: Stepped) {
        match stepped {
            Stepped::Parked(deadline, task) => {
                self.parked.park(deadline, (gi, li, task));
            }
            Stepped::Done(result) => self.landed.push((gi, li, result)),
        }
    }
}

/// An exchange mid-flight: its source halves ran and its batches are on
/// the wire. No thread blocks on it — the struct *is* the resumable
/// state machine, its batches included — and it is always in one place:
/// held by exactly one worker, or parked in the runtime's heap until its
/// earliest ship task's deadline. One group, except for a publish whose
/// subscribers negotiated different wire formats.
pub(crate) struct Exchange {
    enqueued: Instant,
    /// The request every lane's resume checkpoint is cut from (name and
    /// target endpoint are the lane's own).
    request: ExchangeRequest,
    /// Source counters already billed to a lane's metrics.
    billed: Counters,
    /// Frames a lane may trail its group's fastest before it is ejected.
    lag_cap: usize,
    groups: Vec<Group>,
    batches: Batches,
}

impl Exchange {
    /// An exchange of `groups` (none empty).
    pub(crate) fn new(
        enqueued: Instant,
        request: ExchangeRequest,
        lag_cap: usize,
        groups: Vec<Group>,
    ) -> Exchange {
        Exchange {
            enqueued,
            request,
            billed: Counters::default(),
            lag_cap,
            groups,
            batches: Batches::default(),
        }
    }

    /// Decoded batches its groups hold for lanes still to settle: ahead
    /// of the staging cursor or staged.
    pub(crate) fn decoded_cached(&self) -> usize {
        self.groups.iter().map(|g| g.decoded.len() + g.staged).sum()
    }
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
            outcome: ExecOutcome::default(),
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
            exec_span,
            exec_started,
            ring: Vec::new(),
            floor: 0,
            lanes,
            decoded: BTreeMap::new(),
            next_stage_seq: 0,
            delivered: HashMap::new(),
            staged: 0,
            snapshot: None,
            encodes: SessionMetrics::default(),
            shared_reuse: 0,
            ring_fallbacks: 0,
            encode_buf: Vec::new(),
            patch: None,
        }
    }

    /// The delta rung of the ladder: compute the head table set in place
    /// — the program over the source's own rows, nothing encoded, shipped
    /// or loaded — diff it against the base snapshot in one Dewey merge
    /// pass (over the changed instances alone when the route kept the
    /// source its base was computed from, [`Inner::ranged_patch`]; DESIGN
    /// §23), and — when the cost model prefers the patch over the full
    /// feeds — put the checksummed patch frame on the ring as shipment 0.
    /// Returns true when the full feeds must ship now instead (diff
    /// failed, or the patch would cost more).
    fn stage_delta(
        &self,
        ex: &mut Exchange,
        (base_version, head_version, snapshot, chain_composed): (u64, u64, Snapshot, bool),
    ) -> bool {
        let request = &mut ex.request;
        let group = &mut ex.groups[0];
        let lane = &mut group.lanes[0];
        let (id, exec_span) = (lane.shared.id, group.exec_span);
        // Only a round based on the route's head has the source that head
        // was computed from: a composed base is older, and a stale one
        // finds another version remembered.
        let previous = match chain_composed {
            false => self.route_plans.source(&lane.feed_route, base_version),
            true => None,
        };
        let ranged = previous.and_then(|previous| {
            let versions = (base_version, head_version);
            let ranged = self.ranged_patch(request, &group.plan, &previous, &snapshot, versions);
            let (ranged, detail) = match ranged {
                Ok((patch, outcome, detail)) => (Some((patch, outcome)), detail),
                Err(detail) => (None, detail),
            };
            self.events
                .push(id, exec_span, EventKind::DeltaSourceDiffed, detail);
            ranged
        });
        let (patch, head_outcome) = match ranged {
            Some(ranged) => ranged,
            None => {
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
                match diff_snapshots(&snapshot, &head, base_version, head_version) {
                    Ok(patch) => (patch, head_outcome),
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
                }
            }
        };
        let steps = patch.step_count();
        let mut bytes = Vec::new();
        encode_patch_into(&mut bytes, &patch, group.wire_format);
        let (w_comm, speed) = (self.config.w_comm, request.target_profile.speed);
        let bills = full_ship_wins(w_comm, speed, bytes.len(), steps, group.plan.comm_bytes);
        if let Some((patch_cost, full_cost)) = bills {
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
            frame: Some(Arc::new(bytes)),
        });
        false
    }

    /// A delta round's patch computed from what changed (DESIGN §23):
    /// the request's source diffed against `previous`, the source the
    /// base was computed from; each changed row's instance cut to its
    /// prefix ([`PrefixMap`]); the placed program run in place over
    /// those instances' rows alone, and the head diffed against the base
    /// inside their ranges alone. Outside them the head equals the base,
    /// so the patch is the one the whole head gives, byte for byte. The
    /// run's operator work is billed to the source, as a whole head's is.
    /// Returns the patch, the run's outcome and what the round's event
    /// says; or, when an identifier moved or the ranged head failed, what
    /// it says instead, and the round computes its head whole.
    fn ranged_patch(
        &self,
        request: &mut ExchangeRequest,
        plan: &CachedPlan,
        previous: &Database,
        base: &Snapshot,
        (base_version, head_version): (u64, u64),
    ) -> std::result::Result<(DeltaPatch, ExecOutcome, String), String> {
        let (from, to) = (&request.source_frag, &request.target_frag);
        let prefixes = PrefixMap::new(&self.schema, from, to);
        let Some(change) = prefixes.changed(&request.source, previous) else {
            return Err("source ids moved: whole head".to_string());
        };
        let ran = prefixes.run_ranged(&mut request.source, &change, |ranged| {
            execute_in_place(&self.schema, from, to, &plan.program, ranged)
        });
        let failed = |e: &dyn std::fmt::Display| format!("ranged head failed: {e}; whole head");
        let ((head, outcome), held) = match ran.and_then(|(ran, held)| Ok((ran?, held))) {
            Ok(ran) => ran,
            Err(e) => return Err(failed(&e)),
        };
        let patch = diff_ranges(base, &head, &change.prefixes, base_version, head_version)
            .map_err(|e| failed(&e))?;
        let detail = format!(
            "source diff: {} rows changed → {} instances, {held} of {} source rows",
            change.rows,
            change.prefixes.len(),
            request.source.total_rows()
        );
        Ok((patch, outcome, detail))
    }

    /// Absorb step of the delta patch: decode → staleness check →
    /// `stage_patch`, then the same timed commit and index every other
    /// lane ends with. Any rejection (corrupt
    /// frame, stale version precondition, malformed steps) rolls the
    /// staged patch back and re-enters the feed-batch path at the next
    /// shipment seq — the fallback ladder.
    fn absorb_patch(&self, ex: &mut Exchange, delivered: &[u8]) {
        let group = &mut ex.groups[0];
        let patch = group.patch.take().expect("patch in flight");
        let lane = &mut group.lanes[0];
        let (id, exec_span) = (lane.shared.id, group.exec_span);
        let decode_started = Instant::now();
        let staged = decode_patch(delivered).and_then(|decoded| {
            self.trace.record_with_context(
                self.trace.allocate_id(),
                "decode",
                id,
                exec_span,
                session_trace_id(&lane.shared),
                decode_started,
                decode_started.elapsed(),
                format!("patch v{}→v{}", decoded.base_version, decoded.head_version),
            );
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
                group.next_stage_seq = 1;
                self.run_source(ex, 0);
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
    fn run_source(&self, ex: &mut Exchange, gi: usize) {
        let Exchange {
            request,
            groups,
            batches,
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
                self.pump(gi, group, *lag_cap, batches);
            },
        );
        #[cfg(test)]
        crate::runtime::tests::panic_if_armed(&request.name, "source");
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

    /// Runs a planned exchange's source halves, the delta rung first
    /// ([`Inner::stage_delta`]). It holds an in-flight slot from here on.
    pub(crate) fn launch(&self, ex: &mut Exchange, delta_base: Option<(u64, u64, Snapshot, bool)>) {
        lock(&self.queue).outstanding += 1;
        if delta_base.is_none_or(|base| self.stage_delta(ex, base)) {
            for gi in 0..ex.groups.len() {
                self.run_source(ex, gi);
            }
        }
    }

    /// Works an exchange this worker holds — it is in no heap, so no
    /// other worker can — until it retires or must wait: steps its due
    /// ship tasks, absorbs every landed result, refills the submission
    /// windows (whose batches may land inline, so it goes round again),
    /// settles drained lanes. Returns the deadline to park it until, its
    /// earliest task's (DESIGN §16), or `None` once it retired.
    pub(crate) fn hold(&self, ex: &mut Exchange) -> Option<Instant> {
        loop {
            let now = Instant::now();
            while let Some((gi, li, task)) = ex.batches.parked.pop_due(now) {
                let stepped = self.engine.run_task(*task);
                ex.batches.file(gi, li, stepped);
            }
            for (gi, li, result) in std::mem::take(&mut ex.batches.landed) {
                self.absorb(ex, gi, li, result);
            }
            if self.advance(ex) {
                return None;
            }
            if ex.batches.landed.is_empty() {
                // An unsettled lane has a full window after `advance` (an
                // empty one drained and settled), and nothing landed, so
                // a batch of it is parked.
                let parked = ex.batches.parked.next();
                return Some(parked.expect("an unretired exchange has a parked batch"));
            }
        }
    }

    /// Ends what a caught panic left of `ex` ([`Inner::work`]): its
    /// batches are dropped, and each lane that has not ended fails with
    /// `why` and settles like any failed lane; the last retires `ex`.
    pub(crate) fn end_panicked(&self, ex: &mut Exchange, why: &str) {
        ex.batches = Batches::default();
        for lane in ex.groups.iter_mut().flat_map(|g| &mut g.lanes) {
            if !lane.shared.state().is_terminal() {
                (lane.settled, lane.inflight) = (false, 0);
                lane.failure = Some(why.to_string());
            }
        }
        let retired = self.advance(ex);
        debug_assert!(retired, "every lane of a panicked exchange settles");
    }

    /// Moves every group forward: refill the lanes' windows from the
    /// ring, settle each lane the moment it drains — healthy lanes
    /// commit and report without waiting for the group's stragglers —
    /// and retire the exchange with its last lane. Returns true when it
    /// retired.
    fn advance(&self, ex: &mut Exchange) -> bool {
        for gi in 0..ex.groups.len() {
            self.pump(gi, &mut ex.groups[gi], ex.lag_cap, &mut ex.batches);
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
    fn pump(&self, gi: usize, group: &mut Group, lag_cap: usize, batches: &mut Batches) {
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
                let stepped = self.engine.submit(ShipRequest {
                    session: Arc::clone(&lane.shared),
                    slot: Arc::clone(&lane.slot),
                    seq: seq as u64,
                    label: group.ring[seq].label.clone(),
                    message,
                    policy,
                    budget: Arc::clone(&lane.budget),
                    parent_span: group.exec_span,
                });
                batches.file(gi, li, stepped);
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
        // A lane that just failed or was ejected may have been the last
        // one the delivery was kept for.
        group.release_unclaimed();
    }

    /// The wire message of ring slot `seq`, encoded by the first lane to
    /// need it: encode → tally → `encode` span → SOAP-wrap under the
    /// slot's label. A slot of one part is that part's bare frame, a
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
                    rows: feed.rows.slice(part.rows.clone()),
                }
            })
            .collect();
        let len = encode_parts_into(&mut group.encode_buf, &parts, group.wire_format);
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
        let frame = Arc::new(soap_post_bytes("/exchange", &slot.label, &group.encode_buf));
        slot.frame = Some(Arc::clone(&frame));
        frame
    }

    /// Folds one completed batch into its lane: shipping tallies always;
    /// on delivery, decode and stage in shipment order; on failure,
    /// record the first diagnostic, which stops the lane's pump.
    fn absorb(&self, ex: &mut Exchange, gi: usize, li: usize, result: BatchResult) {
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
            self.absorb_patch(ex, &delivered[..]);
            return;
        }
        // A failed lane settles over nothing the group stages.
        if !lane.live() {
            return;
        }
        let seq = result.seq;
        if seq >= group.next_stage_seq && !group.decoded.contains_key(&seq) {
            // Decode what actually arrived — link damage surfaces as an
            // explicit error here.
            match self.decode(group, li, seq, &delivered[..]) {
                Ok(feeds) => {
                    group.decoded.insert(seq, feeds);
                }
                Err(e) => {
                    group.lanes[li]
                        .failure
                        .get_or_insert_with(|| format!("batch {seq} corrupt: {e}"));
                    return;
                }
            }
        }
        let stage_started = Instant::now();
        let staged_from = group.next_stage_seq;
        group.stage_ready();
        let lane = &group.lanes[li];
        // Every lane records its own stage span, whichever lane's
        // delivery moved the group's cursor.
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "stage",
            lane.shared.id,
            group.exec_span,
            session_trace_id(&lane.shared),
            stage_started,
            stage_started.elapsed(),
            format!(
                "batch {seq}: {} batch(es) from seq {staged_from}",
                group.next_stage_seq - staged_from
            ),
        );
    }

    /// Parses a delivered slot — once per group: every lane receives
    /// byte-identical frames, so the first live lane to absorb a slot
    /// decodes it (its `decode` span goes under the group's exec span, in
    /// the trace of the run absorbing it — a resumed run's own, whichever
    /// run's ledger stored the bytes) and the group stages the feeds for
    /// every lane. The parts that arrived must be the parts the slot
    /// sent, label for label. The decode bill, like the encode bill, is
    /// per *frame*.
    fn decode(
        &self,
        group: &Group,
        li: usize,
        seq: u64,
        delivered: &[u8],
    ) -> std::result::Result<Vec<Feed>, String> {
        let decode_started = Instant::now();
        let arrived = RequestRef::parse(delivered).map_err(|e| e.to_string())?;
        let parts = decode_parts(arrived.body).map_err(|e| e.to_string())?;
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
        self.trace.record_with_context(
            self.trace.allocate_id(),
            "decode",
            shared.id,
            group.exec_span,
            session_trace_id(shared),
            decode_started,
            decode_started.elapsed(),
            format!("batch {seq}, {} part(s)", parts.len()),
        );
        Ok(parts.into_iter().map(|(_, feed)| feed).collect())
    }

    /// The target half of a drained lane: a failed lane rolls back
    /// anything staged, a patched lane is already committed, and every
    /// other lane runs the target phase over the group's delivered feeds
    /// — staged, committed and indexed, or rolled back on any failure, so
    /// the target leaves exactly as it arrived, never torn. The group's
    /// last live lane takes the feeds by move; any other takes handles
    /// sharing their rows.
    fn finish_target(
        &self,
        request: &ExchangeRequest,
        group: &mut Group,
        li: usize,
    ) -> std::result::Result<(), String> {
        let last_live = group.lanes.iter().filter(|l| l.live()).count() == 1;
        let lane = &mut group.lanes[li];
        if let Some(why) = lane.failure.take() {
            lane.target.rollback_staged();
            return Err(why);
        }
        if lane.patched {
            return Ok(());
        }
        let delivered = if last_live {
            group.staged = 0;
            std::mem::take(&mut group.delivered)
        } else {
            group.delivered.clone()
        };
        #[cfg(test)]
        crate::runtime::tests::panic_if_armed(&lane.shared.name, "target");
        execute_target_phase(
            &self.schema,
            &request.source_frag,
            &request.target_frag,
            &group.plan.program,
            &mut lane.target,
            delivered,
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
        let finished = self.finish_target(request, group, li);
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
            Ok(()) => {
                // A route that asks for deltas keeps the source its new
                // head was computed from, for its next round to diff
                // against; the request's last lane hands it over.
                let source = (last_of_exchange && request.base_version.is_some())
                    .then(|| Arc::new(std::mem::take(&mut request.source)));
                self.settle_committed(s, group, li, source)
            }
            Err(why) => {
                // The lane resumes as an ordinary two-site session
                // replaying this group's plan: identical program →
                // identical shipment seqs and bytes, so its ledger's
                // acknowledged frames are skipped.
                let resume = Checkpoint {
                    request,
                    target: group.lanes[li].slot.target(),
                    plan: Some(Arc::clone(&group.plan)),
                    last: last_of_exchange,
                };
                self.settle_rolled_back(s, why, link_gave_up, resume);
            }
        }
    }

    /// The committed epilogue of [`Inner::settle`]: operator telemetry
    /// and calibration, the route's next snapshot (and plan and `source`,
    /// [`RoutePlans`](crate::cache::RoutePlans)), the ledger's release and
    /// the breaker's success.
    fn settle_committed(
        &self,
        mut s: Settling,
        group: &mut Group,
        li: usize,
        source: Option<Arc<Database>>,
    ) {
        let lane = &mut group.lanes[li];
        let outcome = std::mem::take(&mut lane.outcome);
        let feed_route = std::mem::take(&mut lane.feed_route);
        let step = lane.step.take();
        let patched = lane.patched;
        let (plan, format) = (&group.plan, group.wire_format.name());
        let trace_id = session_trace_id(&s.shared);
        s.metrics.communication = outcome.times.communication;
        s.metrics.messages = outcome.messages;
        s.metrics.rows_loaded = outcome.rows_loaded;
        // A lane that landed a patch calibrates nothing: its operators ran
        // in place at the source, over the changed instances alone when the
        // head was ranged, and it shipped a patch, not the feeds the model
        // priced. Its samples still become spans and histogram entries.
        let predicted: &[f64] = match patched {
            true => &[],
            false => &plan.op_costs,
        };
        self.record_ops(s.shared.id, s.exec_span, format, predicted, &outcome);
        // A lane that encoded its own frames calibrates the wire model;
        // lanes of a shared ring did not encode, so they do not.
        let calibrates = group.lanes.len() == 1 && !patched;
        if calibrates && (plan.comm_bytes > 0 || s.metrics.bytes_encoded > 0) {
            self.calibration.record_comm(
                format,
                plan.comm_bytes,
                s.metrics.bytes_encoded,
                s.metrics.communication.as_nanos() as u64,
            );
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
        // The route's next delta round replays the plan this head was
        // committed with, unless this round's bill chose a full ship: its
        // full side was priced from a stale probe, so the next round
        // probes afresh.
        let replayable = s.metrics.delta_full_chosen == 0;
        let plan = replayable.then(|| Arc::clone(&group.plan));
        let previous = self.route_plans.commit(&feed_route, version, plan, source);
        // The log kept the previous version's rows for every table this
        // lane landed unchanged. The target takes the log's rows too —
        // equal rows at equal positions, so its indexes stand — and the
        // rows the group decoded die here, on this worker, outside the
        // store's locks, once the group's last lane has let go of them.
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
        // The source the previous head was computed from is a whole
        // document: freed once the session has ended, outside the map's
        // lock and off the session's latency.
        drop(previous);
    }

    /// Per-operator telemetry of a committed lane: each timed operator
    /// becomes a child span of the exec span, lands in its `(op,
    /// location)` histogram, and — where `predicted` holds the model's
    /// prediction for its node — feeds the predicted-vs-observed
    /// calibration cells.
    pub(crate) fn record_ops(
        &self,
        session: SessionId,
        exec_span: SpanId,
        format: &str,
        predicted: &[f64],
        outcome: &ExecOutcome,
    ) {
        for s in &outcome.op_samples {
            let loc = location_name(s.location);
            let ns = s.wall.as_nanos() as u64;
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
            if let Some(&predicted) = predicted.get(s.node) {
                self.calibration.record_op(s.op, loc, format, predicted, ns);
            }
        }
    }

    /// The rolled-back epilogue of [`Inner::settle`]: a cancelled lane
    /// just ends; a failed one feeds its link's breaker — an opening
    /// breaker drains the route's queued sessions — and stays resumable:
    /// the checkpointed plan and the ledger's persisted messages make
    /// the retry probe-free and serialization-free. Both end through
    /// [`Inner::end_lane`].
    fn settle_rolled_back(
        &self,
        s: Settling,
        diagnostic: String,
        link_gave_up: bool,
        resume: Checkpoint<'_>,
    ) {
        let (shared, slot) = (&s.shared, &s.slot);
        if shared.is_cancelled() {
            let verdict = (SessionState::Cancelled, diagnostic);
            return self.end_lane(shared, s.enqueued, verdict, s.metrics, None, resume);
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
        let verdict = (SessionState::Failed, diagnostic);
        self.end_lane(
            shared,
            s.enqueued,
            verdict,
            s.metrics,
            Some(s.target),
            resume,
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
    /// releases the exchange's in-flight slot.
    fn retire(&self, ex: &Exchange) {
        let (mut reuse, mut fallbacks) = (0, 0);
        {
            let mut agg = lock(&self.agg);
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
        let owner = &ex.groups[0].lanes[0].shared;
        self.close_group(owner.root_parent, owner.id, ex.enqueued, detail);
        // Under the queue lock, like everything a worker waits on: a
        // worker checking the exit condition cannot miss this wakeup.
        lock(&self.queue).outstanding -= 1;
        self.available.notify_all();
    }
}

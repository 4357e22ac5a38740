//! The receiver-side reassembly ledger: checkpoint state for resumable
//! shipments.
//!
//! Every verified chunk frame is filed under its `(session, shipment,
//! index)` coordinates — the identity travels in the frame header, not
//! the connection, so the ledger can accept chunks that arrive late,
//! reordered, duplicated, cross-delivered during another session's
//! transmission, or re-shipped by a resumed session. Exact repeats are
//! dropped idempotently.
//!
//! A shipment is received into one buffer, preallocated to the message
//! length: a chunk that lands at the cursor is copied from the received
//! frame straight onto its end, and one that lands ahead of the cursor
//! waits in a small map until the gap before it fills. On a healthy link
//! every chunk lands at the cursor, so the receiver copies each message
//! byte once and never concatenates. [`ReassemblyLedger::assemble`]
//! hands the full buffer out by handle after one exact comparison with
//! the sender's message (DESIGN §24 says what that comparison catches
//! that the chunk checksums do not); a mismatch empties the buffer, so
//! a resume re-ships the whole message.
//!
//! Entries persist after a session *fails*: that is the shipping
//! checkpoint. When the session is resumed, `begin_shipment` reports
//! which chunks already landed, and the engine skips them — only the
//! never-acknowledged chunks cross the link again. The buffer also keeps
//! the sender's *assembled serialized message*, so a resumed session
//! re-ships the remainder without re-serializing anything
//! ([`ReassemblyLedger::stored_message`]). Entries are dropped when the
//! session finally completes ([`ReassemblyLedger::forget_session`]).
//!
//! The ledger is sharded by session id: with many sessions shipping over
//! disjoint links in parallel, per-chunk bookkeeping must not funnel
//! through one global lock.
//!
//! Checkpoint state is *bounded*: each shard holds at most
//! `capacity / SHARDS` shipment buffers, and opening a new shipment in a
//! full shard evicts the least-recently-touched buffer
//! ([`buffers_shed`](ReassemblyLedger::buffers_shed) counts them). An
//! evicted checkpoint is not a correctness loss — a resumed session
//! simply re-ships those chunks — but an unbounded ledger would let a
//! fleet of failed sessions hold serialized messages forever, which the
//! overload soak forbids.

use crate::session::SessionId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xdx_net::ChunkView;
use xdx_sync::lock;

/// Number of independent lock shards; sessions hash to shards by id.
const SHARDS: usize = 16;

/// Cap on shipment buffers held across the runtime's ledger.
pub const DEFAULT_LEDGER_CAPACITY: usize = 4096;

/// Outcome of filing one verified frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filed {
    /// The chunk was new and is now checkpointed.
    Accepted,
    /// The exact chunk was already present; dropped idempotently.
    Duplicate,
    /// No live shipment matches the frame (its session already
    /// completed, or the shipment was restarted with different content);
    /// the frame is discarded.
    Stale,
}

/// Reassembly state of one shipment.
#[derive(Debug)]
struct ShipmentBuffer {
    /// Last-touched tick from the ledger's logical clock; the eviction
    /// victim in a full shard is the smallest stamp.
    stamp: u64,
    /// Chunk count announced by the frames.
    total: usize,
    /// The sender's fully assembled serialized message — the frame
    /// ring's own buffer, held by handle, never copied. Persisting it
    /// makes resume allocation-free on the serialization side: a resumed
    /// session ships these exact bytes instead of re-running feed
    /// serialization.
    message: Arc<Vec<u8>>,
    /// What the receiver got: the payloads of chunks `0..next`, in
    /// order, in one buffer preallocated to the message length. Sole
    /// until [`ReassemblyLedger::assemble`] hands it out, which happens
    /// only once every chunk is in — nothing appends after that.
    received: Arc<Vec<u8>>,
    /// The cursor: chunks below it are in `received`.
    next: usize,
    /// Verified chunks that landed ahead of the cursor, drained into
    /// `received` as soon as the gap before them fills.
    ahead: BTreeMap<usize, Vec<u8>>,
}

impl ShipmentBuffer {
    fn open(stamp: u64, total: usize, message: &Arc<Vec<u8>>) -> ShipmentBuffer {
        ShipmentBuffer {
            stamp,
            total,
            message: Arc::clone(message),
            received: Arc::new(Vec::with_capacity(message.len())),
            next: 0,
            ahead: BTreeMap::new(),
        }
    }

    fn has(&self, index: usize) -> bool {
        index < self.next || self.ahead.contains_key(&index)
    }

    fn landed(&self) -> usize {
        self.next + self.ahead.len()
    }
}

/// Thread-shared ledger of in-flight (and checkpointed) shipments,
/// keyed by `(session, shipment sequence number)`.
#[derive(Debug)]
pub struct ReassemblyLedger {
    shards: Vec<Mutex<HashMap<(SessionId, u64), ShipmentBuffer>>>,
    /// Hard cap on buffers per shard (total capacity / SHARDS).
    per_shard_cap: usize,
    /// Logical clock stamping buffer touches, for LRU eviction.
    clock: AtomicU64,
    /// Shipment buffers garbage-collected by [`forget_session`]
    /// (acknowledged checkpoints whose session committed).
    ///
    /// [`forget_session`]: ReassemblyLedger::forget_session
    pruned: AtomicU64,
    /// Checkpoint buffers evicted by the capacity cap (distinct from
    /// [`entries_pruned`]: these were *not* acknowledged — their
    /// sessions will re-ship on resume).
    ///
    /// [`entries_pruned`]: ReassemblyLedger::entries_pruned
    shed: AtomicU64,
}

impl Default for ReassemblyLedger {
    fn default() -> ReassemblyLedger {
        ReassemblyLedger::new()
    }
}

impl ReassemblyLedger {
    /// An empty ledger with the default capacity.
    pub fn new() -> ReassemblyLedger {
        ReassemblyLedger::with_capacity(DEFAULT_LEDGER_CAPACITY)
    }

    /// An empty ledger holding at most `capacity` shipment buffers
    /// (split evenly across the shards).
    pub fn with_capacity(capacity: usize) -> ReassemblyLedger {
        ReassemblyLedger {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap: (capacity / SHARDS).max(1),
            clock: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    fn shard(&self, session: SessionId) -> &Mutex<HashMap<(SessionId, u64), ShipmentBuffer>> {
        &self.shards[session as usize % SHARDS]
    }

    /// Opens (or re-opens) a shipment, persisting a handle on the sender's
    /// full serialized `message`, and returns the indexes of chunks that
    /// already landed in a previous attempt — the resume checkpoint. A
    /// buffer whose chunk count disagrees, or whose stored message is
    /// neither the same handle nor equal bytes, is stale (the message
    /// changed) and is reset.
    pub fn begin_shipment(
        &self,
        session: SessionId,
        shipment: u64,
        total: usize,
        message: &Arc<Vec<u8>>,
    ) -> BTreeSet<usize> {
        let mut map = lock(self.shard(session));
        if !map.contains_key(&(session, shipment)) && map.len() >= self.per_shard_cap {
            // Full shard: shed the least-recently-touched checkpoint to
            // make room. The evicted shipment re-ships from scratch if
            // its session ever resumes; memory stays bounded either way.
            if let Some(victim) = map.iter().min_by_key(|(_, b)| b.stamp).map(|(key, _)| *key) {
                map.remove(&victim);
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let buffer = map
            .entry((session, shipment))
            .or_insert_with(|| ShipmentBuffer::open(stamp, total, message));
        buffer.stamp = stamp;
        // `Arc`'s equality compares the handles first, the bytes only when
        // they differ: a resume hands back the stored handle.
        if buffer.total != total || buffer.message != *message {
            *buffer = ShipmentBuffer::open(stamp, total, message);
        }
        (0..buffer.next)
            .chain(buffer.ahead.keys().copied())
            .collect()
    }

    /// The full serialized message a previous attempt persisted for
    /// `(session, shipment)`, if any. This is what lets
    /// `Runtime::resume` skip serialization entirely: the executor asks
    /// for it before building the message from the feed.
    pub fn stored_message(&self, session: SessionId, shipment: u64) -> Option<Arc<Vec<u8>>> {
        lock(self.shard(session))
            .get(&(session, shipment))
            .map(|b| Arc::clone(&b.message))
    }

    /// True when the chunk already landed.
    pub fn has_chunk(&self, session: SessionId, shipment: u64, index: usize) -> bool {
        lock(self.shard(session))
            .get(&(session, shipment))
            .is_some_and(|b| b.has(index))
    }

    /// Files one verified frame under its own coordinates, copying its
    /// payload onto the shipment's buffer (or, ahead of the cursor, into
    /// the waiting map). Duplicates are detected and dropped; frames for
    /// unknown shipments are stale.
    pub fn file(&self, chunk: &ChunkView<'_>) -> Filed {
        let mut map = lock(self.shard(chunk.session));
        let Some(buffer) = map.get_mut(&(chunk.session, chunk.shipment)) else {
            return Filed::Stale;
        };
        if chunk.total != buffer.total || chunk.index >= buffer.total {
            return Filed::Stale;
        }
        if buffer.has(chunk.index) {
            return Filed::Duplicate;
        }
        if chunk.index > buffer.next {
            buffer.ahead.insert(chunk.index, chunk.payload.to_vec());
            return Filed::Accepted;
        }
        // Sole while incomplete (see `received`): this never copies.
        let received = Arc::make_mut(&mut buffer.received);
        received.extend_from_slice(chunk.payload);
        buffer.next += 1;
        while let Some(payload) = buffer.ahead.remove(&buffer.next) {
            received.extend_from_slice(&payload);
            buffer.next += 1;
        }
        Filed::Accepted
    }

    /// Reassembles a complete shipment: every chunk present and the
    /// received bytes equal to the sender's message. The buffer is
    /// retained — it is the checkpoint a resumed session skips over —
    /// and handed out by handle, not copied. A complete buffer that
    /// differs from the message holds some chunk of another message (a
    /// deferred one filed after a reset), and no one can tell which: it
    /// is emptied, keeping the message, so a resume re-ships every chunk.
    pub fn assemble(&self, session: SessionId, shipment: u64) -> Option<Arc<Vec<u8>>> {
        let mut map = lock(self.shard(session));
        let buffer = map.get_mut(&(session, shipment))?;
        if buffer.next < buffer.total {
            return None;
        }
        if buffer.received == buffer.message {
            return Some(Arc::clone(&buffer.received));
        }
        *buffer = ShipmentBuffer::open(buffer.stamp, buffer.total, &buffer.message);
        None
    }

    /// Drops every buffer of `session` — called when the session
    /// completes and its checkpoints are no longer needed. Each dropped
    /// buffer counts toward [`entries_pruned`].
    ///
    /// [`entries_pruned`]: ReassemblyLedger::entries_pruned
    pub fn forget_session(&self, session: SessionId) {
        let mut map = lock(self.shard(session));
        let before = map.len();
        map.retain(|(s, _), _| *s != session);
        let dropped = (before - map.len()) as u64;
        drop(map);
        if dropped > 0 {
            self.pruned.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Total shipment buffers garbage-collected across the ledger's
    /// lifetime — acknowledged checkpoint state released after commit.
    pub fn entries_pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Checkpoint buffers evicted because a shard hit its capacity cap.
    pub fn buffers_shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Chunks currently checkpointed for `session` across all shipments.
    pub fn checkpointed_chunks(&self, session: SessionId) -> usize {
        lock(self.shard(session))
            .iter()
            .filter(|((s, _), _)| *s == session)
            .map(|(_, b)| b.landed())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    fn frame(
        session: u64,
        shipment: u64,
        index: usize,
        total: usize,
        payload: &[u8],
    ) -> ChunkView<'_> {
        ChunkView {
            session,
            shipment,
            index,
            total,
            payload,
        }
    }

    #[test]
    fn files_assembles_and_dedupes() {
        let ledger = ReassemblyLedger::new();
        let message = b"abcdef";
        let prior = ledger.begin_shipment(1, 0, 2, &msg(message));
        assert!(prior.is_empty());
        assert_eq!(ledger.file(&frame(1, 0, 0, 2, b"abc")), Filed::Accepted);
        assert_eq!(ledger.file(&frame(1, 0, 0, 2, b"abc")), Filed::Duplicate);
        assert!(ledger.assemble(1, 0).is_none(), "incomplete shipment");
        assert_eq!(ledger.file(&frame(1, 0, 1, 2, b"def")), Filed::Accepted);
        let assembled = ledger.assemble(1, 0).unwrap();
        assert_eq!(*assembled, message);
        assert!(
            Arc::ptr_eq(&assembled, &ledger.assemble(1, 0).unwrap()),
            "the received buffer is handed out, not copied"
        );
        // Out-of-order arrival assembles identically.
        let ledger2 = ReassemblyLedger::new();
        ledger2.begin_shipment(1, 0, 2, &msg(message));
        ledger2.file(&frame(1, 0, 1, 2, b"def"));
        ledger2.file(&frame(1, 0, 0, 2, b"abc"));
        assert_eq!(*ledger2.assemble(1, 0).unwrap(), message);
    }

    #[test]
    fn a_chunk_that_differs_from_the_message_fails_assembly() {
        // A frame that verified but carries other bytes — a deferred
        // chunk of the message a reset replaced — is caught at assembly.
        let ledger = ReassemblyLedger::new();
        ledger.begin_shipment(1, 0, 2, &msg(b"abcdef"));
        ledger.file(&frame(1, 0, 0, 2, b"abc"));
        ledger.file(&frame(1, 0, 1, 2, b"xyz"));
        assert!(ledger.has_chunk(1, 0, 1));
        assert!(ledger.assemble(1, 0).is_none());
    }

    #[test]
    fn a_failed_assembly_resets_the_shipment() {
        let ledger = ReassemblyLedger::new();
        let message = msg(b"abcdef");
        ledger.begin_shipment(1, 0, 2, &message);
        // A same-length chunk of another message, then the right one.
        ledger.file(&frame(1, 0, 1, 2, b"xyz"));
        ledger.file(&frame(1, 0, 0, 2, b"abc"));
        assert!(ledger.assemble(1, 0).is_none());
        // A resume with the same message re-ships every chunk.
        let prior = ledger.begin_shipment(1, 0, 2, &message);
        assert!(prior.is_empty(), "no landed chunk survives: {prior:?}");
        assert_eq!(ledger.checkpointed_chunks(1), 0);
        assert!(Arc::ptr_eq(&ledger.stored_message(1, 0).unwrap(), &message));
        ledger.file(&frame(1, 0, 0, 2, b"abc"));
        ledger.file(&frame(1, 0, 1, 2, b"def"));
        assert_eq!(*ledger.assemble(1, 0).unwrap(), b"abcdef");
    }

    #[test]
    fn reopening_reports_the_checkpoint() {
        let ledger = ReassemblyLedger::new();
        ledger.begin_shipment(1, 0, 3, &msg(b"abcdef"));
        ledger.file(&frame(1, 0, 1, 3, b"cd"));
        // The "session" fails here; the buffer survives. A resumed
        // attempt learns chunk 1 already landed — and gets the full
        // serialized message back without re-serializing.
        let prior = ledger.begin_shipment(1, 0, 3, &msg(b"abcdef"));
        assert_eq!(prior.into_iter().collect::<Vec<_>>(), vec![1]);
        assert!(ledger.has_chunk(1, 0, 1));
        assert_eq!(ledger.checkpointed_chunks(1), 1);
        assert_eq!(*ledger.stored_message(1, 0).unwrap(), b"abcdef");
    }

    #[test]
    fn changed_message_resets_the_checkpoint() {
        let ledger = ReassemblyLedger::new();
        // Same length, same chunk count, other bytes.
        ledger.begin_shipment(1, 0, 2, &msg(b"old message"));
        ledger.file(&frame(1, 0, 0, 2, b"old me"));
        ledger.file(&frame(1, 0, 1, 2, b"ssage"));
        let prior = ledger.begin_shipment(1, 0, 2, &msg(b"new message"));
        assert!(prior.is_empty(), "stale chunks must not survive");
        assert!(!ledger.has_chunk(1, 0, 0));
        assert_eq!(ledger.checkpointed_chunks(1), 0);
        assert!(ledger.assemble(1, 0).is_none());
        assert_eq!(
            *ledger.stored_message(1, 0).unwrap(),
            b"new message",
            "the persisted message follows the reset"
        );
        ledger.file(&frame(1, 0, 0, 2, b"new me"));
        ledger.file(&frame(1, 0, 1, 2, b"ssage"));
        assert_eq!(*ledger.assemble(1, 0).unwrap(), b"new message");
    }

    #[test]
    fn the_same_message_keeps_the_checkpoint() {
        let ledger = ReassemblyLedger::new();
        let message = msg(b"abcdef");
        ledger.begin_shipment(1, 0, 3, &message);
        ledger.file(&frame(1, 0, 0, 3, b"ab"));
        ledger.file(&frame(1, 0, 2, 3, b"ef"));
        // The same handle, then an equal copy under another handle.
        for reopened in [Arc::clone(&message), msg(b"abcdef")] {
            let prior = ledger.begin_shipment(1, 0, 3, &reopened);
            assert_eq!(prior.into_iter().collect::<Vec<_>>(), vec![0, 2]);
            assert_eq!(ledger.checkpointed_chunks(1), 2);
        }
        ledger.file(&frame(1, 0, 1, 3, b"cd"));
        assert_eq!(*ledger.assemble(1, 0).unwrap(), b"abcdef");
    }

    #[test]
    fn stale_and_mismatched_frames_are_discarded() {
        let ledger = ReassemblyLedger::new();
        assert_eq!(ledger.file(&frame(9, 0, 0, 1, b"x")), Filed::Stale);
        ledger.begin_shipment(1, 0, 2, &msg(b"ab"));
        assert_eq!(
            ledger.file(&frame(1, 0, 0, 5, b"a")),
            Filed::Stale,
            "total disagrees with the open shipment"
        );
        assert!(ledger.stored_message(9, 9).is_none());
    }

    #[test]
    fn forgetting_a_session_drops_only_its_buffers() {
        let ledger = ReassemblyLedger::new();
        ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        ledger.file(&frame(1, 0, 0, 1, b"a"));
        ledger.begin_shipment(2, 0, 1, &msg(b"b"));
        ledger.file(&frame(2, 0, 0, 1, b"b"));
        ledger.forget_session(1);
        assert_eq!(ledger.checkpointed_chunks(1), 0);
        assert!(ledger.stored_message(1, 0).is_none());
        assert_eq!(ledger.file(&frame(1, 0, 0, 1, b"a")), Filed::Stale);
        assert_eq!(ledger.checkpointed_chunks(2), 1);
    }

    #[test]
    fn a_full_shard_sheds_its_least_recently_touched_checkpoint() {
        // Capacity 16 → one buffer per shard; session ids 1 and 17 land
        // in the same shard.
        let ledger = ReassemblyLedger::with_capacity(16);
        ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        ledger.file(&frame(1, 0, 0, 1, b"a"));
        assert_eq!(ledger.buffers_shed(), 0);
        ledger.begin_shipment(17, 0, 1, &msg(b"b"));
        assert_eq!(ledger.buffers_shed(), 1, "the full shard evicted");
        assert_eq!(
            ledger.checkpointed_chunks(1),
            0,
            "session 1's checkpoint was the victim"
        );
        assert!(ledger.stored_message(17, 0).is_some());
        // Re-opening the evicted shipment starts a fresh checkpoint —
        // correctness is preserved, the chunks just re-ship.
        let prior = ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        assert!(prior.is_empty());
        assert_eq!(ledger.buffers_shed(), 2);
    }

    #[test]
    fn touching_a_buffer_protects_it_from_eviction() {
        let ledger = ReassemblyLedger::with_capacity(32);
        // Two buffers fill session-1's shard (ids 1 and 17, cap 2).
        ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        ledger.begin_shipment(17, 0, 1, &msg(b"b"));
        // Touch the older one: 17 becomes the LRU victim.
        ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        ledger.begin_shipment(33, 0, 1, &msg(b"c"));
        assert_eq!(ledger.buffers_shed(), 1);
        assert!(
            ledger.stored_message(1, 0).is_some(),
            "touched buffer survives"
        );
        assert!(ledger.stored_message(17, 0).is_none(), "LRU buffer shed");
    }

    #[test]
    fn pruning_counts_released_checkpoints() {
        let ledger = ReassemblyLedger::new();
        assert_eq!(ledger.entries_pruned(), 0);
        ledger.begin_shipment(1, 0, 1, &msg(b"a"));
        ledger.begin_shipment(1, 1, 1, &msg(b"b"));
        ledger.begin_shipment(2, 0, 1, &msg(b"c"));
        ledger.forget_session(1);
        assert_eq!(ledger.entries_pruned(), 2, "two buffers released");
        // Forgetting a session with no buffers adds nothing.
        ledger.forget_session(1);
        assert_eq!(ledger.entries_pruned(), 2);
        ledger.forget_session(2);
        assert_eq!(ledger.entries_pruned(), 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Any arrival order of two interleaved shipments' chunks, with
        /// repeats and reopens (the same handle) in between, then a
        /// sweep that files every chunk once more: each shipment
        /// reassembles exactly, every repeat is a `Duplicate`, and
        /// `has_chunk`, `checkpointed_chunks` and a reopen's prior set
        /// agree with what was filed at every step.
        #[test]
        fn any_arrival_order_reassembles_exactly(
            lens in (0usize..200, 0usize..200),
            chunk_bytes in 1usize..24,
            arrivals in proptest::collection::vec((0usize..2, 0usize..64, 0u8..4), 0..160),
        ) {
            let ledger = ReassemblyLedger::new();
            let messages: Vec<Arc<Vec<u8>>> = [lens.0, lens.1]
                .iter()
                .enumerate()
                .map(|(s, &len)| Arc::new((0..len).map(|i| (i * 31 + s * 7) as u8).collect()))
                .collect();
            let totals: Vec<usize> =
                messages.iter().map(|m| m.len().div_ceil(chunk_bytes).max(1)).collect();
            let mut filed = [BTreeSet::new(), BTreeSet::new()];
            for s in 0..2 {
                let prior = ledger.begin_shipment(1, s as u64, totals[s], &messages[s]);
                proptest::prop_assert!(prior.is_empty());
            }
            let sweep = (0..2).flat_map(|s| (0..totals[s]).rev().map(move |i| (s, i, 1)));
            for (s, pick, reopen) in arrivals.into_iter().chain(sweep) {
                let index = pick % totals[s];
                let start = index * chunk_bytes;
                let end = usize::min(start + chunk_bytes, messages[s].len());
                let payload = &messages[s][start..end];
                let expected = if filed[s].insert(index) {
                    Filed::Accepted
                } else {
                    Filed::Duplicate
                };
                proptest::prop_assert_eq!(
                    ledger.file(&frame(1, s as u64, index, totals[s], payload)),
                    expected
                );
                for (t, landed) in filed.iter().enumerate() {
                    for i in 0..totals[t] {
                        proptest::prop_assert_eq!(
                            ledger.has_chunk(1, t as u64, i),
                            landed.contains(&i)
                        );
                    }
                }
                proptest::prop_assert_eq!(
                    ledger.checkpointed_chunks(1),
                    filed[0].len() + filed[1].len()
                );
                if reopen == 0 {
                    let prior = ledger.begin_shipment(1, s as u64, totals[s], &messages[s]);
                    proptest::prop_assert_eq!(&prior, &filed[s]);
                }
                let complete = filed[s].len() == totals[s];
                proptest::prop_assert_eq!(ledger.assemble(1, s as u64).is_some(), complete);
            }
            for (s, message) in messages.iter().enumerate() {
                let assembled = ledger.assemble(1, s as u64);
                proptest::prop_assert!(assembled.as_deref() == Some(&**message));
            }
        }
    }
}

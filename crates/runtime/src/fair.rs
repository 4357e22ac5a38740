//! The weighted-fair admission queue: per-tenant lanes with priority
//! aging.
//!
//! The runtime's original admission queue was a strict-priority binary
//! heap: under sustained overload one hot `(source, target)` pair — or
//! one tenant spraying `Priority::High` — could starve every other
//! submitter indefinitely. This queue composes two classic disciplines
//! instead:
//!
//! * **Across tenants: weighted fair queueing.** Each tenant (an
//!   explicit `ExchangeRequest::with_tenant` tag, or the route pair
//!   when untagged) gets a lane with a virtual-time clock. A dequeue
//!   picks the backlogged lane with the smallest virtual time and
//!   advances that clock by `1/weight`, so over any backlogged window a
//!   tenant's dequeue share converges to `weight / Σweights`. A lane
//!   that goes idle re-enters at the global virtual-time floor: idling
//!   never banks credit, and a brand-new tenant cannot replay history
//!   it was not queued for.
//! * **Within a tenant: priority with aging.** Each lane keeps one FIFO
//!   per priority class, and a dequeue picks the class whose *head* has
//!   the highest `class_index + waited / aging_interval` score. A fresh
//!   High (score 2) still overtakes a fresh Low (score 0), but a Low
//!   that has waited two aging intervals draws level — every admitted
//!   session eventually dequeues no matter what keeps arriving above
//!   it, which a strict-priority heap cannot promise.
//!
//! The queue is deliberately runtime-agnostic (generic payload, a
//! `pop_at` hook taking an explicit clock) so its fairness invariants
//! can be property-tested without threads or sleeps.

use crate::session::Priority;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Default aging interval: a queued session gains one priority class
/// per interval waited, so a Low entry overtakes a fresh High after
/// two intervals.
pub const DEFAULT_AGING_INTERVAL: Duration = Duration::from_millis(500);

/// Weights below this are clamped up — a zero weight would stall the
/// lane's virtual clock and starve every other tenant.
const MIN_WEIGHT: f64 = 0.01;

/// Priority classes, Low → High.
const CLASSES: usize = 3;

fn class_index(priority: Priority) -> usize {
    match priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

fn class_priority(index: usize) -> Priority {
    match index {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

struct Entry<T> {
    seq: u64,
    enqueued: Instant,
    item: T,
}

struct Lane<T> {
    weight: f64,
    /// This lane's virtual finish time: advanced by `1/weight` per
    /// dequeue, clamped to the global floor on re-activation.
    vtime: f64,
    classes: [VecDeque<Entry<T>>; CLASSES],
    len: usize,
}

impl<T> Lane<T> {
    fn new(weight: f64, vtime: f64) -> Lane<T> {
        Lane {
            weight: weight.max(MIN_WEIGHT),
            vtime,
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            len: 0,
        }
    }
}

/// One dequeued entry, with the scheduling metadata the caller may want
/// to account against.
pub struct Popped<T> {
    /// The lane the entry was billed to.
    pub tenant: String,
    /// The priority class it was filed under.
    pub priority: Priority,
    /// Admission sequence number it was pushed with.
    pub seq: u64,
    /// Instant it was pushed with.
    pub enqueued: Instant,
    /// The payload.
    pub item: T,
}

/// A bounded-fairness multi-tenant queue (see the module docs). Not
/// internally synchronized: the runtime wraps it in the same mutex that
/// guarded the heap it replaces.
pub struct FairQueue<T> {
    lanes: HashMap<String, Lane<T>>,
    /// Virtual time of the most recent dequeue — the floor newly active
    /// lanes start from.
    vfloor: f64,
    aging: Duration,
    len: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue whose priority aging promotes a waiting entry one
    /// class per `aging_interval`.
    pub fn new(aging_interval: Duration) -> FairQueue<T> {
        FairQueue {
            lanes: HashMap::new(),
            vfloor: 0.0,
            aging: aging_interval.max(Duration::from_millis(1)),
            len: 0,
        }
    }

    /// Entries queued across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries queued for one tenant.
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map_or(0, |lane| lane.len)
    }

    /// How many dequeues come before one entry pushed now on `tenant`'s
    /// lane at `weight`: the whole lane (priority within a lane is not
    /// modelled) plus, from every other backlogged lane, the turns whose
    /// virtual times fall before the new entry's. A backlogged lane is
    /// taken to stay backlogged, so it is charged its weighted turns
    /// even past its current depth (ties by name aside). A light tenant
    /// thus waits for its own backlog and its neighbours' weighted
    /// turns, not the fleet's depth, and a heavy lane's wait grows with
    /// its backlog over its share.
    pub fn ahead_of_push(&self, tenant: &str, weight: f64) -> usize {
        let (own, vstart) = self
            .lanes
            .get(tenant)
            .map_or((0, self.vfloor), |lane| (lane.len, lane.vtime));
        let turn = vstart + own as f64 / weight.max(MIN_WEIGHT);
        let others: f64 = self
            .lanes
            .iter()
            .filter(|(name, _)| name.as_str() != tenant)
            .map(|(_, lane)| ((turn - lane.vtime) * lane.weight).ceil().max(0.0))
            .sum();
        own + others as usize
    }

    /// Queues one entry on `tenant`'s lane at `priority`. The weight is
    /// re-declared on every push (lanes of idle tenants are dropped, so
    /// the queue holds no per-tenant state beyond its backlog); a
    /// changed weight applies from this push on.
    pub fn push(
        &mut self,
        tenant: &str,
        weight: f64,
        priority: Priority,
        seq: u64,
        enqueued: Instant,
        item: T,
    ) {
        let vfloor = self.vfloor;
        let lane = self
            .lanes
            .entry(tenant.to_string())
            .or_insert_with(|| Lane::new(weight, vfloor));
        lane.weight = weight.max(MIN_WEIGHT);
        if lane.len == 0 {
            lane.vtime = lane.vtime.max(vfloor);
        }
        lane.classes[class_index(priority)].push_back(Entry {
            seq,
            enqueued,
            item,
        });
        lane.len += 1;
        self.len += 1;
    }

    /// Dequeues the next entry under the fairness discipline, using the
    /// wall clock for priority aging.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        self.pop_at(Instant::now())
    }

    /// [`pop`](FairQueue::pop) with an explicit clock — the hook
    /// property tests drive aging through without sleeping.
    pub fn pop_at(&mut self, now: Instant) -> Option<Popped<T>> {
        // The backlogged lane with the smallest virtual time; ties break
        // by tenant name for determinism.
        let tenant = self
            .lanes
            .iter()
            .filter(|(_, lane)| lane.len > 0)
            .min_by(|(a_name, a), (b_name, b)| {
                a.vtime
                    .partial_cmp(&b.vtime)
                    .expect("lane vtime is never NaN")
                    .then_with(|| a_name.cmp(b_name))
            })
            .map(|(name, _)| name.clone())?;
        let lane = self.lanes.get_mut(&tenant).expect("lane just selected");
        // Within the lane: the class whose head scores highest, where
        // waiting `aging` promotes an entry one class. Ties go to the
        // higher class (strict `>` while scanning downwards).
        let mut best: Option<(f64, usize)> = None;
        for ci in (0..CLASSES).rev() {
            if let Some(head) = lane.classes[ci].front() {
                let waited = now.saturating_duration_since(head.enqueued);
                let score = ci as f64 + waited.as_secs_f64() / self.aging.as_secs_f64();
                if best.is_none_or(|(top, _)| score > top) {
                    best = Some((score, ci));
                }
            }
        }
        let (_, ci) = best.expect("a backlogged lane has a head");
        let entry = lane.classes[ci].pop_front().expect("head just scored");
        lane.len -= 1;
        self.len -= 1;
        self.vfloor = self.vfloor.max(lane.vtime);
        lane.vtime += 1.0 / lane.weight;
        if lane.len == 0 {
            // Idle lanes carry no state worth keeping: a returning
            // tenant re-enters at the floor either way, and dropping
            // the lane keeps the queue's memory proportional to its
            // backlog, not to every tenant ever seen.
            self.lanes.remove(&tenant);
        }
        Some(Popped {
            tenant,
            priority: class_priority(ci),
            seq: entry.seq,
            enqueued: entry.enqueued,
            item: entry.item,
        })
    }

    /// Removes and returns every queued entry matching `pred`, FIFO
    /// within each `(tenant, priority)` lane — the breaker-feedback
    /// hook that drains a dead route out of the queue.
    pub fn drain_matching(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut drained = Vec::new();
        for lane in self.lanes.values_mut() {
            for class in &mut lane.classes {
                let mut keep = VecDeque::with_capacity(class.len());
                for entry in class.drain(..) {
                    if pred(&entry.item) {
                        drained.push(entry.item);
                        lane.len -= 1;
                        self.len -= 1;
                    } else {
                        keep.push_back(entry);
                    }
                }
                *class = keep;
            }
        }
        self.lanes.retain(|_, lane| lane.len > 0);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(queue: &mut FairQueue<u64>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(popped) = queue.pop() {
            order.push(popped.item);
        }
        order
    }

    #[test]
    fn fifo_within_one_tenant_and_priority() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        for seq in 0..5 {
            q.push("t", 1.0, Priority::Normal, seq, now, seq);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.tenant_depth("t"), 5);
        assert_eq!(drain_order(&mut q), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn fresh_high_overtakes_fresh_low_within_a_tenant() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        q.push("t", 1.0, Priority::Low, 0, now, 0);
        q.push("t", 1.0, Priority::High, 1, now, 1);
        q.push("t", 1.0, Priority::Normal, 2, now, 2);
        assert_eq!(drain_order(&mut q), vec![1, 2, 0]);
    }

    #[test]
    fn aging_promotes_a_waiting_low_past_fresh_highs() {
        let aging = Duration::from_millis(100);
        let mut q = FairQueue::new(aging);
        let base = Instant::now();
        q.push("t", 1.0, Priority::Low, 0, base, 999);
        // Three aging intervals later the Low head scores 3.0; a fresh
        // High scores 2.0 and must lose.
        let later = base + 3 * aging;
        q.push("t", 1.0, Priority::High, 1, later, 1);
        let first = q.pop_at(later).unwrap();
        assert_eq!(first.item, 999, "aged Low never overtook a fresh High");
        assert_eq!(first.priority, Priority::Low);
        assert_eq!(q.pop_at(later).unwrap().item, 1);
    }

    #[test]
    fn weighted_shares_converge_under_full_backlog() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        for seq in 0..300 {
            q.push("heavy", 2.0, Priority::Normal, seq, now, 0);
            q.push("light-a", 1.0, Priority::Normal, seq, now, 1);
            q.push("light-b", 1.0, Priority::Normal, seq, now, 2);
        }
        let mut counts = [0usize; 3];
        for _ in 0..200 {
            counts[q.pop_at(now).unwrap().item as usize] += 1;
        }
        // Fair shares over 200 dequeues at weights 2:1:1 → 100/50/50.
        assert!(
            (95..=105).contains(&counts[0]),
            "heavy tenant drew {} of 200",
            counts[0]
        );
        for light in [counts[1], counts[2]] {
            assert!(
                (45..=55).contains(&light),
                "light tenant drew {light} of 200"
            );
        }
    }

    #[test]
    fn an_idle_tenant_reenters_at_the_floor_without_banked_credit() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        // One tenant consumes service alone for a while.
        for seq in 0..50 {
            q.push("busy", 1.0, Priority::Normal, seq, now, 0);
        }
        for _ in 0..40 {
            q.pop_at(now);
        }
        // A newcomer joins: it must not monopolize the queue to "catch
        // up" on the 40 dequeues it was absent for — shares from here on
        // are 1:1.
        for seq in 50..80 {
            q.push("newcomer", 1.0, Priority::Normal, seq, now, 1);
        }
        let mut newcomer = 0;
        for _ in 0..10 {
            if q.pop_at(now).unwrap().item == 1 {
                newcomer += 1;
            }
        }
        assert!(
            (4..=6).contains(&newcomer),
            "newcomer drew {newcomer} of 10 instead of an equal share"
        );
    }

    #[test]
    fn ahead_of_push_counts_the_weighted_turns_before_the_entry() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        // "a" (weight 1) holds six entries; "b" (weight 2) stays
        // backlogged throughout.
        for seq in 0..6 {
            q.push("a", 1.0, Priority::Normal, seq, now, 0);
        }
        for seq in 6..60 {
            q.push("b", 2.0, Priority::Normal, seq, now, 0);
        }
        // a's seventh entry falls due at virtual time 6: after a's six
        // and b's twelve at 0, 0.5, …, 5.5 — fewer than the 60 queued.
        assert_eq!(q.ahead_of_push("a", 1.0), 18);
        q.push("a", 1.0, Priority::Normal, 60, now, 1);
        let mut before = 0;
        while q.pop_at(now).unwrap().item != 1 {
            before += 1;
        }
        assert_eq!(before, 18);
        // b is now at virtual time 6; one more turn puts it at 6.5,
        // past the floor a newcomer enters at, so the newcomer goes
        // next although 41 entries are queued.
        q.pop_at(now);
        assert_eq!(q.len(), 41);
        assert_eq!(q.ahead_of_push("c", 1.0), 0);
        q.push("c", 1.0, Priority::Normal, 61, now, 2);
        assert_eq!(q.pop_at(now).unwrap().item, 2);
        // b's own next entry waits for its whole backlog.
        assert_eq!(q.ahead_of_push("b", 2.0), 41);
    }

    #[test]
    fn drain_matching_removes_exactly_the_matches() {
        let mut q = FairQueue::new(DEFAULT_AGING_INTERVAL);
        let now = Instant::now();
        for seq in 0..6 {
            let tenant = if seq % 2 == 0 { "even" } else { "odd" };
            q.push(tenant, 1.0, Priority::Normal, seq, now, seq);
        }
        let drained = q.drain_matching(|item| item % 2 == 0);
        assert_eq!(drained, vec![0, 2, 4]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_depth("even"), 0);
        assert_eq!(q.tenant_depth("odd"), 3);
        assert_eq!(drain_order(&mut q), vec![1, 3, 5]);
    }
}

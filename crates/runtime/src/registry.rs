//! The link registry: one independent wide-area link per
//! `(source, target)` endpoint pair.
//!
//! The paper's architecture assumes one path per source/target pair;
//! earlier revisions of the runtime collapsed that to a single shared
//! `Mutex<Link>`, so adding workers bought planning parallelism and no
//! shipping parallelism at all. The registry restores the per-pair
//! model: each pair gets its own [`Link`] (own fault stream, own
//! bandwidth), its own [`CircuitBreaker`], and its own lock-free
//! counters, created on first use from the registry's default profiles.
//! Sessions between distinct pairs ship fully in parallel; same-pair
//! sessions still contend realistically on their shared link.

use crate::breaker::CircuitBreaker;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xdx_core::WireFormat;
use xdx_net::{FaultProfile, Link, NetworkProfile};
use xdx_sync::lock;

fn format_to_u8(format: WireFormat) -> u8 {
    match format {
        WireFormat::Xml => 0,
        WireFormat::Columnar => 1,
    }
}

fn format_from_u8(byte: u8) -> WireFormat {
    match byte {
        1 => WireFormat::Columnar,
        _ => WireFormat::Xml,
    }
}

/// Registry-wide gauge of shipment windows currently open, with a
/// high-water mark — the observable proof that disjoint pairs ship
/// concurrently instead of serializing on one lock.
#[derive(Debug, Default)]
pub(crate) struct ShipGauge {
    active: AtomicU64,
    peak: AtomicU64,
}

impl ShipGauge {
    fn open(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn close(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::SeqCst)
    }
}

/// Per-link counters, lock-free: a lane adds a finished batch's
/// shipping tallies and each encode's bill, so observability never adds
/// lock traffic to the link itself. Wire bytes and busy time are the
/// link's own totals, read under the wire lock.
#[derive(Debug, Default)]
pub(crate) struct LinkCounters {
    pub(crate) bytes_encoded: AtomicU64,
    pub(crate) encode_ns: AtomicU64,
    pub(crate) chunks_shipped: AtomicU64,
    pub(crate) chunks_retried: AtomicU64,
    pub(crate) sessions_completed: AtomicU64,
    pub(crate) sessions_failed: AtomicU64,
    pub(crate) sessions_shed: AtomicU64,
}

/// A pair's simulated wire: the link, its pacing scale, and the instant
/// its paced occupancy ends. One lock covers them, so a transmission's
/// horizon check, fault draw and horizon advance cannot interleave with
/// another task's.
#[derive(Debug)]
pub(crate) struct Wire {
    pub(crate) link: Link,
    /// Wall time each transmission occupies the wire for, as a fraction
    /// of its simulated duration (0 = pure simulation, 1 = real time).
    /// The engine parks on that occupancy; nothing sleeps.
    pub(crate) pacing: f64,
    pub(crate) busy_until: Instant,
}

/// One registered link: the simulated path for a `(source, target)`
/// pair, plus its breaker, counters and concurrency gauge.
#[derive(Debug)]
pub struct LinkSlot {
    source: String,
    target: String,
    pub(crate) wire: Mutex<Wire>,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) counters: LinkCounters,
    /// The wire format negotiated for this pair (re-negotiated when an
    /// endpoint's preference changes), read lock-free on the hot path.
    wire_format: AtomicU8,
    /// This link's own open-shipment gauge.
    local: ShipGauge,
    /// The registry-wide gauge, shared by every slot.
    global: Arc<ShipGauge>,
}

impl LinkSlot {
    /// Panics if `pacing` is negative or not finite.
    pub(crate) fn new(
        source: &str,
        target: &str,
        link: Link,
        pacing: f64,
        breaker: CircuitBreaker,
        wire_format: WireFormat,
        global: Arc<ShipGauge>,
    ) -> LinkSlot {
        assert!(
            pacing.is_finite() && pacing >= 0.0,
            "pacing scale must be finite and non-negative"
        );
        LinkSlot {
            source: source.to_string(),
            target: target.to_string(),
            wire: Mutex::new(Wire {
                link,
                pacing,
                busy_until: Instant::now(),
            }),
            breaker,
            counters: LinkCounters::default(),
            wire_format: AtomicU8::new(format_to_u8(wire_format)),
            local: ShipGauge::default(),
            global,
        }
    }

    /// The pair label, `source→target`.
    pub fn pair(&self) -> String {
        format!("{}→{}", self.source, self.target)
    }

    /// Source endpoint of the pair.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Target endpoint of the pair.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The wire format currently negotiated for this pair.
    pub fn wire_format(&self) -> WireFormat {
        format_from_u8(self.wire_format.load(Ordering::Relaxed))
    }

    pub(crate) fn set_wire_format(&self, format: WireFormat) {
        self.wire_format
            .store(format_to_u8(format), Ordering::Relaxed);
    }

    /// Marks a shipment window open on this link (and registry-wide).
    pub(crate) fn open_shipment(&self) {
        self.local.open();
        self.global.open();
    }

    /// Closes a shipment window.
    pub(crate) fn close_shipment(&self) {
        self.local.close();
        self.global.close();
    }

    /// A snapshot of this link's counters.
    pub fn stats(&self) -> LinkStats {
        let (busy, wire_bytes) = {
            let wire = lock(&self.wire);
            (wire.link.total_time(), wire.link.total_bytes())
        };
        LinkStats {
            source: self.source.clone(),
            target: self.target.clone(),
            wire_format: self.wire_format(),
            busy,
            wire_bytes,
            bytes_encoded: self.counters.bytes_encoded.load(Ordering::Relaxed),
            encode_ns: self.counters.encode_ns.load(Ordering::Relaxed),
            chunks_shipped: self.counters.chunks_shipped.load(Ordering::Relaxed),
            chunks_retried: self.counters.chunks_retried.load(Ordering::Relaxed),
            sessions_completed: self.counters.sessions_completed.load(Ordering::Relaxed),
            sessions_failed: self.counters.sessions_failed.load(Ordering::Relaxed),
            sessions_shed: self.counters.sessions_shed.load(Ordering::Relaxed),
            breaker_open: self.breaker.is_open(),
            peak_concurrent_shipments: self.local.peak(),
        }
    }
}

/// Point-in-time counters of one registered link, as reported in
/// `RuntimeStats::links`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    /// Source endpoint of the pair.
    pub source: String,
    /// Target endpoint of the pair.
    pub target: String,
    /// The wire format negotiated for this pair at snapshot time.
    pub wire_format: WireFormat,
    /// Total simulated time this link spent transferring (busy time);
    /// divided by runtime uptime it yields the link's utilization.
    pub busy: Duration,
    /// Wire bytes transmitted over this link, including failed attempts.
    pub wire_bytes: u64,
    /// Encoded message bytes produced for this link (logical payload,
    /// before chunk framing; checkpoint replays encode nothing).
    pub bytes_encoded: u64,
    /// Wall nanoseconds spent encoding messages for this link.
    pub encode_ns: u64,
    /// Chunks delivered intact over this link.
    pub chunks_shipped: u64,
    /// Chunk transmissions retried on this link.
    pub chunks_retried: u64,
    /// Sessions routed over this link that completed.
    pub sessions_completed: u64,
    /// Sessions routed over this link that failed.
    pub sessions_failed: u64,
    /// Sessions routed over this link that the lane gate shed on its
    /// open breaker without running them: at dequeue, or drained from
    /// the queue when the breaker opened.
    pub sessions_shed: u64,
    /// Whether this link's circuit breaker is currently open.
    pub breaker_open: bool,
    /// Most shipment windows ever simultaneously open on this link.
    pub peak_concurrent_shipments: u64,
}

impl LinkStats {
    /// The pair label, `source→target`.
    pub fn pair(&self) -> String {
        format!("{}→{}", self.source, self.target)
    }
}

/// The registry itself: default profiles plus the map of live slots.
#[derive(Debug)]
pub struct LinkRegistry {
    network: NetworkProfile,
    /// Default fault model for links created after this point.
    default_fault: Mutex<FaultProfile>,
    /// Pacing scale of the wires created here (see [`Wire::pacing`]).
    pacing: f64,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    /// Wire format endpoints prefer unless overridden in
    /// `endpoint_formats`.
    default_format: WireFormat,
    /// Per-endpoint preferred wire formats. A pair's link ships columnar
    /// only when *both* its endpoints prefer columnar; any disagreement
    /// falls back to XML text, the format every endpoint speaks.
    endpoint_formats: Mutex<HashMap<String, WireFormat>>,
    links: Mutex<HashMap<(String, String), Arc<LinkSlot>>>,
    global: Arc<ShipGauge>,
}

impl LinkRegistry {
    /// An empty registry; links are created on first resolve from the
    /// given defaults.
    pub fn new(
        network: NetworkProfile,
        default_fault: FaultProfile,
        pacing: f64,
        breaker_threshold: u32,
        breaker_cooldown: Duration,
        default_format: WireFormat,
    ) -> LinkRegistry {
        LinkRegistry {
            network,
            default_fault: Mutex::new(default_fault),
            pacing,
            breaker_threshold,
            breaker_cooldown,
            default_format,
            endpoint_formats: Mutex::new(HashMap::new()),
            links: Mutex::new(HashMap::new()),
            global: Arc::new(ShipGauge::default()),
        }
    }

    /// The wire format `endpoint` prefers (the registry default unless
    /// declared otherwise).
    pub fn endpoint_format(&self, endpoint: &str) -> WireFormat {
        lock(&self.endpoint_formats)
            .get(endpoint)
            .copied()
            .unwrap_or(self.default_format)
    }

    /// The format a `(source, target)` pair negotiates: columnar only
    /// when both endpoints prefer it, XML text otherwise.
    pub fn negotiated_format(&self, source: &str, target: &str) -> WireFormat {
        if self.endpoint_format(source) == WireFormat::Columnar
            && self.endpoint_format(target) == WireFormat::Columnar
        {
            WireFormat::Columnar
        } else {
            WireFormat::Xml
        }
    }

    /// Declares `endpoint`'s preferred wire format and re-negotiates
    /// every live link touching it. In-flight shipments finish in the
    /// format they started with (receivers sniff each frame, so mixed
    /// traffic is safe); subsequent shipments use the new negotiation.
    pub fn set_endpoint_format(&self, endpoint: &str, format: WireFormat) {
        lock(&self.endpoint_formats).insert(endpoint.to_string(), format);
        for ((source, target), slot) in lock(&self.links).iter() {
            if source == endpoint || target == endpoint {
                slot.set_wire_format(self.negotiated_format(source, target));
            }
        }
    }

    /// The slot for `(source, target)`, created on first use from the
    /// default profiles. The second return is true when this call
    /// created the link. Every pair draws its own fault-outcome stream
    /// (per-link state), so links never share failure bursts even when
    /// configured identically.
    pub fn resolve(&self, source: &str, target: &str) -> (Arc<LinkSlot>, bool) {
        let mut links = lock(&self.links);
        if let Some(slot) = links.get(&(source.to_string(), target.to_string())) {
            return (Arc::clone(slot), false);
        }
        let link = Link::new(self.network)
            .with_fault_profile(*lock(&self.default_fault))
            .with_recording(false);
        let slot = Arc::new(LinkSlot::new(
            source,
            target,
            link,
            self.pacing,
            CircuitBreaker::new(self.breaker_threshold, self.breaker_cooldown),
            self.negotiated_format(source, target),
            Arc::clone(&self.global),
        ));
        links.insert((source.to_string(), target.to_string()), Arc::clone(&slot));
        (slot, true)
    }

    /// The slot for `(source, target)` if it already exists.
    pub fn get(&self, source: &str, target: &str) -> Option<Arc<LinkSlot>> {
        lock(&self.links)
            .get(&(source.to_string(), target.to_string()))
            .cloned()
    }

    /// Swaps the fault model of *one* pair's link (creating it if
    /// needed), leaving every other link untouched.
    pub fn set_fault_profile(&self, source: &str, target: &str, profile: FaultProfile) {
        let (slot, _) = self.resolve(source, target);
        lock(&slot.wire).link.set_fault_profile(profile);
    }

    /// Swaps the fault model of every live link *and* the default for
    /// links created later — the fleet-wide "network repaired/degraded"
    /// knob.
    pub fn set_fault_profile_all(&self, profile: FaultProfile) {
        *lock(&self.default_fault) = profile;
        for slot in lock(&self.links).values() {
            lock(&slot.wire).link.set_fault_profile(profile);
        }
    }

    /// Per-link counter snapshots, sorted by pair for stable output.
    pub fn snapshot(&self) -> Vec<LinkStats> {
        let mut stats: Vec<LinkStats> = lock(&self.links)
            .values()
            .map(|slot| slot.stats())
            .collect();
        stats.sort_by(|a, b| (&a.source, &a.target).cmp(&(&b.source, &b.target)));
        stats
    }

    /// Number of live links.
    pub fn len(&self) -> usize {
        lock(&self.links).len()
    }

    /// True when no link has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Most shipment windows ever simultaneously open across *all*
    /// links.
    pub fn peak_concurrent_shipments(&self) -> u64 {
        self.global.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> LinkRegistry {
        LinkRegistry::new(
            NetworkProfile::lan(),
            FaultProfile::healthy(),
            0.0,
            4,
            Duration::from_millis(50),
            WireFormat::Xml,
        )
    }

    #[test]
    fn formats_negotiate_columnar_only_when_both_endpoints_agree() {
        let reg = registry();
        let (slot, _) = reg.resolve("s", "t");
        assert_eq!(slot.wire_format(), WireFormat::Xml);

        // One side upgrading is not enough: the pair stays on the
        // universal fallback.
        reg.set_endpoint_format("s", WireFormat::Columnar);
        assert_eq!(slot.wire_format(), WireFormat::Xml);
        assert_eq!(reg.negotiated_format("s", "t"), WireFormat::Xml);

        // Both sides agreeing re-negotiates the live link in place.
        reg.set_endpoint_format("t", WireFormat::Columnar);
        assert_eq!(slot.wire_format(), WireFormat::Columnar);

        // A link created after the declarations negotiates at creation;
        // pairs with an undeclared side stay on XML.
        let (both, _) = reg.resolve("t", "s");
        assert_eq!(both.wire_format(), WireFormat::Columnar);
        let (mixed, _) = reg.resolve("s", "elsewhere");
        assert_eq!(mixed.wire_format(), WireFormat::Xml);

        // Downgrading one endpoint drops its pairs back to XML.
        reg.set_endpoint_format("t", WireFormat::Xml);
        assert_eq!(slot.wire_format(), WireFormat::Xml);
        assert_eq!(both.wire_format(), WireFormat::Xml);
    }

    #[test]
    fn columnar_default_negotiates_columnar_everywhere() {
        let reg = LinkRegistry::new(
            NetworkProfile::lan(),
            FaultProfile::healthy(),
            0.0,
            4,
            Duration::from_millis(50),
            WireFormat::Columnar,
        );
        let (slot, _) = reg.resolve("a", "b");
        assert_eq!(slot.wire_format(), WireFormat::Columnar);
        assert_eq!(slot.stats().wire_format, WireFormat::Columnar);
        // A legacy endpoint declaring XML pulls its pairs off columnar.
        reg.set_endpoint_format("b", WireFormat::Xml);
        assert_eq!(slot.wire_format(), WireFormat::Xml);
    }

    #[test]
    fn resolve_creates_once_and_reuses() {
        let reg = registry();
        assert!(reg.is_empty());
        let (a, created_a) = reg.resolve("s1", "t1");
        let (b, created_b) = reg.resolve("s1", "t1");
        assert!(created_a && !created_b);
        assert!(Arc::ptr_eq(&a, &b));
        let (_, created_c) = reg.resolve("s2", "t1");
        assert!(created_c, "a different pair is a different link");
        assert_eq!(reg.len(), 2);
        assert_eq!(a.pair(), "s1→t1");
    }

    #[test]
    fn per_pair_fault_profile_leaves_other_links_untouched() {
        let reg = registry();
        reg.set_fault_profile("s1", "t1", FaultProfile::drops(1.0, 7));
        let (healthy, _) = reg.resolve("s2", "t2");
        let (broken, _) = reg.resolve("s1", "t1");
        assert!(!lock(&broken.wire).link.transmit_faulty("x", b"p").1.is_ok());
        assert!(lock(&healthy.wire)
            .link
            .transmit_faulty("x", b"p")
            .1
            .is_ok());
    }

    #[test]
    fn fleet_wide_profile_applies_to_live_and_future_links() {
        let reg = registry();
        let (before, _) = reg.resolve("s1", "t1");
        reg.set_fault_profile_all(FaultProfile::drops(1.0, 9));
        let (after, _) = reg.resolve("s2", "t2");
        for slot in [&before, &after] {
            assert!(!lock(&slot.wire).link.transmit_faulty("x", b"p").1.is_ok());
        }
    }

    #[test]
    fn gauges_track_local_and_global_peaks() {
        let reg = registry();
        let (a, _) = reg.resolve("s1", "t1");
        let (b, _) = reg.resolve("s2", "t2");
        a.open_shipment();
        b.open_shipment();
        a.close_shipment();
        b.close_shipment();
        assert_eq!(a.stats().peak_concurrent_shipments, 1);
        assert_eq!(b.stats().peak_concurrent_shipments, 1);
        assert_eq!(reg.peak_concurrent_shipments(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_pair() {
        let reg = registry();
        reg.resolve("zz", "t");
        reg.resolve("aa", "t");
        let pairs: Vec<String> = reg.snapshot().iter().map(LinkStats::pair).collect();
        assert_eq!(pairs, vec!["aa→t", "zz→t"]);
    }
}

//! The simulated wide-area link between source and target.

use std::collections::VecDeque;
use std::time::Duration;

/// Bandwidth/latency model of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Sustained throughput in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-message fixed cost (connection setup, round trip).
    pub latency: Duration,
}

impl NetworkProfile {
    /// The paper's setup: two hosts in different US states over the 2004
    /// Internet. Calibrated so a 25 MB XML document takes on the order of
    /// 160 s (Table 3 reports 158.65 s for publish&map at 25 MB).
    pub fn internet_2004() -> NetworkProfile {
        NetworkProfile {
            bandwidth_bytes_per_sec: 165_000.0,
            latency: Duration::from_millis(80),
        }
    }

    /// A fast local network, for the simulator scenarios where computation
    /// dominates ("we assumed a fast interconnect network, so computation
    /// cost was the major factor", Section 5.4.2).
    pub fn lan() -> NetworkProfile {
        NetworkProfile {
            bandwidth_bytes_per_sec: 100_000_000.0,
            latency: Duration::from_micros(200),
        }
    }

    /// Transfer time for `bytes` over this profile.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

/// One recorded transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRecord {
    /// Human label ("fragment ITEM", "published document", ...).
    pub label: String,
    /// Payload size.
    pub bytes: u64,
    /// Simulated wall time for this transfer.
    pub duration: Duration,
}

/// Gilbert–Elliott burst-loss model: the link alternates between a good
/// state (no burst losses) and a bad state (heavy losses), with seeded
/// per-message transition draws. Models the wide-area reality that
/// losses cluster — a congested router drops a *run* of packets, not an
/// independent sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-message probability of entering the bad state while good.
    pub enter: f64,
    /// Per-message probability of recovering while bad.
    pub exit: f64,
    /// Loss probability per message while in the bad state.
    pub loss: f64,
}

impl BurstLoss {
    fn validate(&self) {
        for (name, p) in [
            ("enter", self.enter),
            ("exit", self.exit),
            ("loss", self.loss),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "burst-loss {name} probability {p} out of [0, 1]"
            );
        }
    }
}

/// Probabilistic, seed-driven fault model for an unreliable link: every
/// message independently draws drop / timeout / corruption / reorder /
/// duplication outcomes from a deterministic stream (plus an optional
/// Gilbert–Elliott burst-loss chain), so a run is fully reproducible
/// from the seed. It is the link's one fault model: the runtime's
/// retrying shipper and the reference executor's single transmissions
/// read the same stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a message silently never arrives.
    pub drop_probability: f64,
    /// Probability the message stalls past the receiver's patience; the
    /// sender observes it exactly like a drop but pays
    /// [`FaultProfile::TIMEOUT_FACTOR`]× the transfer time waiting.
    pub timeout_probability: f64,
    /// Probability the payload arrives with a damaged burst of bytes.
    pub corrupt_probability: f64,
    /// Maximum bytes damaged per corruption event (the actual burst
    /// length is a seeded draw in `1..=corrupt_burst`); must be ≥ 1.
    pub corrupt_burst: usize,
    /// Probability a message is deferred and delivered late, out of
    /// order, attached to a later transmission.
    pub reorder_probability: f64,
    /// Probability a message arrives twice back to back.
    pub duplicate_probability: f64,
    /// Optional Gilbert–Elliott burst-loss chain, consulted before the
    /// independent draws above.
    pub burst_loss: Option<BurstLoss>,
    /// Seed of the per-message outcome stream.
    pub seed: u64,
}

impl FaultProfile {
    /// Simulated wait, as a multiple of the message transfer time, before
    /// a sender gives up on a timed-out message.
    pub const TIMEOUT_FACTOR: u32 = 3;

    /// A lossless profile (every message delivered intact).
    pub fn healthy() -> FaultProfile {
        FaultProfile {
            drop_probability: 0.0,
            timeout_probability: 0.0,
            corrupt_probability: 0.0,
            corrupt_burst: 4,
            reorder_probability: 0.0,
            duplicate_probability: 0.0,
            burst_loss: None,
            seed: 0,
        }
    }

    /// A profile that only drops messages, with probability `p`.
    pub fn drops(p: f64, seed: u64) -> FaultProfile {
        FaultProfile {
            drop_probability: p,
            ..FaultProfile::healthy()
        }
        .with_seed(seed)
    }

    /// Rebinds the outcome-stream seed.
    pub fn with_seed(mut self, seed: u64) -> FaultProfile {
        self.seed = seed;
        self
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop_probability),
            ("timeout", self.timeout_probability),
            ("corrupt", self.corrupt_probability),
            ("reorder", self.reorder_probability),
            ("duplicate", self.duplicate_probability),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability {p} out of [0, 1]"
            );
        }
        assert!(
            self.drop_probability
                + self.timeout_probability
                + self.corrupt_probability
                + self.reorder_probability
                + self.duplicate_probability
                <= 1.0,
            "fault probabilities must sum to at most 1"
        );
        assert!(self.corrupt_burst >= 1, "corrupt_burst must be at least 1");
        if let Some(burst) = &self.burst_loss {
            burst.validate();
        }
    }
}

/// What a [`FaultProfile`]-governed transmission did to one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Arrived intact. On a reordering link these bytes may belong to an
    /// *earlier* transmission that was deferred — receivers must verify
    /// frame identity, not assume it is the message just sent.
    Delivered(Vec<u8>),
    /// Never arrived; the sender learns nothing.
    Dropped,
    /// Stalled past the receiver's patience; the sender waited
    /// [`FaultProfile::TIMEOUT_FACTOR`]× the transfer time for nothing.
    TimedOut,
    /// Arrived with a damaged burst of bytes.
    Corrupted(Vec<u8>),
    /// Deferred by the reordering model: nothing arrives now, the bytes
    /// arrive out of order attached to a later transmission.
    Deferred,
    /// Arrived twice back to back; idempotent receivers must drop the
    /// repeat.
    Duplicated(Vec<u8>),
}

impl Delivery {
    /// The payload as the receiver saw it, if anything arrived.
    pub fn payload(&self) -> Option<&[u8]> {
        match self {
            Delivery::Delivered(p) | Delivery::Corrupted(p) | Delivery::Duplicated(p) => Some(p),
            Delivery::Dropped | Delivery::TimedOut | Delivery::Deferred => None,
        }
    }

    /// True only for an intact single arrival.
    pub fn is_ok(&self) -> bool {
        matches!(self, Delivery::Delivered(_))
    }
}

/// A one-way link from source to target (the paper considers only one-way
/// shipping). Accumulates every transfer for the communication tables.
#[derive(Debug, Clone)]
pub struct Link {
    /// The link model in force.
    pub profile: NetworkProfile,
    /// Fault model consulted by every transmission.
    fault_profile: FaultProfile,
    /// SplitMix64 state of the fault-outcome stream.
    fault_state: u64,
    /// Gilbert–Elliott chain state: true while the link is in the bad
    /// (bursty-loss) state.
    burst_bad: bool,
    /// Frames deferred by the reordering model, awaiting late delivery.
    deferred: VecDeque<Vec<u8>>,
    transfers: Vec<TransferRecord>,
    /// Whether per-transfer records (with their label allocations) are
    /// kept. Scalar totals are always maintained.
    recording: bool,
    total_bytes: u64,
    total_time: Duration,
    messages: usize,
}

/// Bound on deferred frames a reordering link holds; overflow frames are
/// lost (the sender retries them like any other loss).
const MAX_DEFERRED: usize = 8;

impl Link {
    /// Creates an idle link.
    pub fn new(profile: NetworkProfile) -> Link {
        Link {
            profile,
            fault_profile: FaultProfile::healthy(),
            fault_state: 0,
            burst_bad: false,
            deferred: VecDeque::new(),
            transfers: Vec::new(),
            recording: true,
            total_bytes: 0,
            total_time: Duration::ZERO,
            messages: 0,
        }
    }

    /// Builder: turns per-transfer records on or off. A long-lived fleet
    /// link carries millions of chunk transmissions; keeping a
    /// `TransferRecord` (and its label `String`) per attempt is an
    /// unbounded allocation on the shipping hot path, so runtimes disable
    /// recording and read the scalar totals instead. Disabling clears any
    /// records already kept.
    pub fn with_recording(mut self, recording: bool) -> Link {
        self.recording = recording;
        if !recording {
            self.transfers.clear();
        }
        self
    }

    /// Accounts one transmission attempt: scalar totals always, a
    /// [`TransferRecord`] only when recording — the label is not even
    /// materialized otherwise.
    fn account(&mut self, label: impl Into<String>, bytes: u64, duration: Duration) {
        self.total_bytes += bytes;
        self.total_time += duration;
        self.messages += 1;
        if self.recording {
            self.transfers.push(TransferRecord {
                label: label.into(),
                bytes,
                duration,
            });
        }
    }

    /// Builder: injects the [`FaultProfile`] every transmission draws
    /// from. Panics on out-of-range probabilities.
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Link {
        self.set_fault_profile(profile);
        self
    }

    /// Swaps the probabilistic fault model in force (operations knob:
    /// "the link was repaired" / "the link degraded"). Resets the
    /// outcome stream to the new profile's seed and releases any frames
    /// the old reordering model still held. Panics on out-of-range
    /// probabilities.
    pub fn set_fault_profile(&mut self, profile: FaultProfile) {
        profile.validate();
        self.fault_profile = profile;
        self.fault_state = profile.seed;
        self.burst_bad = false;
        self.deferred.clear();
    }

    /// The probabilistic fault model in force.
    pub fn fault_profile(&self) -> &FaultProfile {
        &self.fault_profile
    }

    /// Next uniform draw in `[0, 1)` from the fault-outcome stream.
    fn fault_draw(&mut self) -> f64 {
        self.fault_state = self.fault_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.fault_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Ships `payload` through the link's fault model: the message may
    /// be delivered, dropped (independently or in a Gilbert–Elliott loss
    /// burst), timed out, corrupted, deferred out of order, or
    /// duplicated, per the link's [`FaultProfile`]. The returned duration
    /// is what the *sender* experienced: the transfer time for
    /// deliveries, drops and corruptions,
    /// [`FaultProfile::TIMEOUT_FACTOR`]× it for timeouts. Every attempt
    /// is recorded in the transfer log, including failed ones — wasted
    /// bytes are real bytes. Nothing here waits: a caller that paces
    /// simulated time against the wall clock owns that wait.
    ///
    /// On a reordering link the delivered bytes may belong to an earlier,
    /// deferred transmission — possibly one from a *different* session
    /// sharing the link. Receivers must verify frame identity.
    pub fn transmit_faulty(
        &mut self,
        label: impl Into<String>,
        payload: &[u8],
    ) -> (Duration, Delivery) {
        let bytes = payload.len() as u64;
        let base = self.profile.transfer_time(bytes);
        let p = self.fault_profile;
        // Advance the Gilbert–Elliott chain first; a message caught in a
        // loss burst never reaches the independent per-message draws.
        let mut burst_lost = false;
        if let Some(burst) = p.burst_loss {
            let transition = self.fault_draw();
            if self.burst_bad {
                self.burst_bad = transition >= burst.exit;
            } else {
                self.burst_bad = transition < burst.enter;
            }
            burst_lost = self.burst_bad && self.fault_draw() < burst.loss;
        }
        let draw = self.fault_draw();
        let drop_edge = p.drop_probability;
        let timeout_edge = drop_edge + p.timeout_probability;
        let corrupt_edge = timeout_edge + p.corrupt_probability;
        let reorder_edge = corrupt_edge + p.reorder_probability;
        let duplicate_edge = reorder_edge + p.duplicate_probability;
        let (duration, delivery) = if burst_lost || draw < drop_edge {
            (base, Delivery::Dropped)
        } else if draw < timeout_edge {
            (base * FaultProfile::TIMEOUT_FACTOR, Delivery::TimedOut)
        } else if draw < corrupt_edge {
            let mut damaged = payload.to_vec();
            if !damaged.is_empty() {
                let len = damaged.len();
                let start = ((self.fault_draw() * len as f64) as usize).min(len - 1);
                let max_burst = p.corrupt_burst.min(len);
                let burst = 1 + (self.fault_draw() * max_burst as f64) as usize;
                let end = (start + burst).min(len);
                for (j, byte) in damaged[start..end].iter_mut().enumerate() {
                    // XOR with a nonzero, position-dependent mask: every
                    // byte in the burst is guaranteed to change.
                    *byte ^= (((start + j) % 255) as u8).wrapping_add(1);
                }
            }
            (base, Delivery::Corrupted(damaged))
        } else if draw < reorder_edge {
            // Defer this frame; if an older deferred frame is waiting,
            // it arrives now in this one's place — out of order.
            if self.deferred.len() >= MAX_DEFERRED {
                self.deferred.pop_front(); // overflow: oldest frame lost
            }
            self.deferred.push_back(payload.to_vec());
            if self.deferred.len() > 1 {
                (
                    base,
                    Delivery::Delivered(self.deferred.pop_front().unwrap()),
                )
            } else {
                (base, Delivery::Deferred)
            }
        } else if draw < duplicate_edge {
            (base, Delivery::Duplicated(payload.to_vec()))
        } else if self.deferred.is_empty() {
            (base, Delivery::Delivered(payload.to_vec()))
        } else {
            // Steady-state reordering pipeline: the oldest deferred frame
            // arrives first, this one queues behind it.
            self.deferred.push_back(payload.to_vec());
            (
                base,
                Delivery::Delivered(self.deferred.pop_front().unwrap()),
            )
        };
        self.account(label, bytes, duration);
        (duration, delivery)
    }

    /// Ships `payload`, returning the simulated transfer duration.
    pub fn send(&mut self, label: impl Into<String>, payload: &[u8]) -> Duration {
        self.transmit(label, payload).0
    }

    /// Ships `payload` once through [`Link::transmit_faulty`] and returns
    /// the bytes that arrive at the other end: the payload itself on a
    /// healthy link, damaged or repeated bytes as they arrived, and none
    /// for a message that never arrived, so the receiver's parse fails
    /// loudly. Receivers that verify integrity (HTTP length, feed
    /// checksums) turn the damage into explicit errors.
    pub fn transmit(&mut self, label: impl Into<String>, payload: &[u8]) -> (Duration, Vec<u8>) {
        let (duration, delivery) = self.transmit_faulty(label, payload);
        let arrived = match delivery {
            Delivery::Delivered(p) | Delivery::Corrupted(p) | Delivery::Duplicated(p) => p,
            Delivery::Dropped | Delivery::TimedOut | Delivery::Deferred => Vec::new(),
        };
        (duration, arrived)
    }

    /// Total bytes shipped so far (every attempt, including failed ones).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total simulated time spent shipping.
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// Number of messages sent.
    pub fn message_count(&self) -> usize {
        self.messages
    }

    /// The transfer log (empty when recording is disabled).
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let p = NetworkProfile {
            bandwidth_bytes_per_sec: 1000.0,
            latency: Duration::from_millis(100),
        };
        assert_eq!(p.transfer_time(0), Duration::from_millis(100));
        assert_eq!(p.transfer_time(1000), Duration::from_millis(1100));
        assert_eq!(p.transfer_time(2000), Duration::from_millis(2100));
    }

    #[test]
    fn internet_2004_matches_paper_scale() {
        let p = NetworkProfile::internet_2004();
        let t = p.transfer_time(25 * 1024 * 1024);
        // Publish&map at 25MB took 158.65s in the paper; we must land in
        // the same regime (±20%).
        assert!(
            t.as_secs_f64() > 125.0 && t.as_secs_f64() < 195.0,
            "got {t:?}"
        );
    }

    #[test]
    fn link_accounts_transfers() {
        let mut link = Link::new(NetworkProfile::lan());
        link.send("a", &[0u8; 500]);
        link.send("b", &[0u8; 1500]);
        assert_eq!(link.total_bytes(), 2000);
        assert_eq!(link.message_count(), 2);
        assert!(link.total_time() > Duration::ZERO);
        assert_eq!(link.transfers()[1].label, "b");
    }

    #[test]
    fn recording_off_keeps_totals_but_no_records() {
        let mut link = Link::new(NetworkProfile::lan()).with_recording(false);
        link.send("a", &[0u8; 500]);
        link.transmit_faulty("b", &[0u8; 1500]);
        assert_eq!(link.total_bytes(), 2000);
        assert_eq!(link.message_count(), 2);
        assert!(link.total_time() > Duration::ZERO);
        assert!(link.transfers().is_empty());
    }

    #[test]
    fn transmit_returns_what_arrived() {
        let payload = b"hello world";
        let arrived = |profile: FaultProfile| {
            Link::new(NetworkProfile::lan())
                .with_fault_profile(profile)
                .transmit("m", payload)
        };
        let healthy = FaultProfile::healthy();
        let time = NetworkProfile::lan().transfer_time(11);
        let intact = (time, payload.to_vec());
        let nothing = (time, Vec::new());
        assert_eq!(arrived(healthy), intact);
        let repeated = FaultProfile {
            duplicate_probability: 1.0,
            ..healthy
        };
        assert_eq!(arrived(repeated), intact);
        let (_, damaged) = arrived(FaultProfile {
            corrupt_probability: 1.0,
            ..healthy
        });
        assert_eq!(damaged.len(), payload.len());
        assert_ne!(damaged, payload);
        assert_eq!(arrived(FaultProfile::drops(1.0, 1)), nothing);
        let deferred = FaultProfile {
            reorder_probability: 1.0,
            ..healthy
        };
        assert_eq!(arrived(deferred), nothing);
        let stalled = FaultProfile {
            timeout_probability: 1.0,
            ..healthy
        };
        let waited = time * FaultProfile::TIMEOUT_FACTOR;
        assert_eq!(arrived(stalled), (waited, Vec::new()));
    }

    #[test]
    fn fault_profile_outcomes_are_seed_deterministic() {
        let profile = FaultProfile {
            drop_probability: 0.2,
            timeout_probability: 0.1,
            corrupt_probability: 0.1,
            ..FaultProfile::healthy()
        }
        .with_seed(99);
        let run = |seed: u64| {
            let mut link =
                Link::new(NetworkProfile::lan()).with_fault_profile(profile.with_seed(seed));
            (0..200)
                .map(|i| link.transmit_faulty(format!("m{i}"), b"payload").1)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99), "same seed must replay identically");
        assert_ne!(run(99), run(100), "different seeds must diverge");
    }

    #[test]
    fn fault_profile_rates_track_probabilities() {
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(
            FaultProfile {
                drop_probability: 0.3,
                timeout_probability: 0.1,
                corrupt_probability: 0.1,
                ..FaultProfile::healthy()
            }
            .with_seed(7),
        );
        let mut counts = [0usize; 4]; // delivered, dropped, timed out, corrupted
        for i in 0..2000 {
            match link.transmit_faulty(format!("m{i}"), b"0123456789").1 {
                Delivery::Delivered(p) => {
                    assert_eq!(p, b"0123456789");
                    counts[0] += 1;
                }
                Delivery::Dropped => counts[1] += 1,
                Delivery::TimedOut => counts[2] += 1,
                Delivery::Corrupted(p) => {
                    assert_eq!(p.len(), 10);
                    assert_ne!(p, b"0123456789");
                    counts[3] += 1;
                }
                other => panic!("unconfigured outcome {other:?}"),
            }
        }
        assert!((900..1500).contains(&counts[0]), "delivered {counts:?}");
        assert!((450..750).contains(&counts[1]), "dropped {counts:?}");
        assert!((100..350).contains(&counts[2]), "timed out {counts:?}");
        assert!((100..350).contains(&counts[3]), "corrupted {counts:?}");
        // Every attempt — failed or not — hit the transfer log.
        assert_eq!(link.message_count(), 2000);
    }

    #[test]
    fn timeouts_cost_more_than_drops() {
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(
            FaultProfile {
                timeout_probability: 1.0,
                ..FaultProfile::healthy()
            }
            .with_seed(1),
        );
        let (waited, outcome) = link.transmit_faulty("t", &[0u8; 1000]);
        assert_eq!(outcome, Delivery::TimedOut);
        assert_eq!(
            waited,
            link.profile.transfer_time(1000) * FaultProfile::TIMEOUT_FACTOR
        );
    }

    #[test]
    fn healthy_profile_always_delivers() {
        let mut link = Link::new(NetworkProfile::lan());
        for i in 0..100 {
            let (_, outcome) = link.transmit_faulty(format!("m{i}"), b"x");
            assert!(outcome.is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "probabilities must sum")]
    fn oversubscribed_fault_profile_rejected() {
        let _ = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            drop_probability: 0.6,
            timeout_probability: 0.3,
            corrupt_probability: 0.2,
            ..FaultProfile::healthy()
        });
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // Always-bad chain with certain loss: everything is dropped.
        let mut hopeless = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            burst_loss: Some(BurstLoss {
                enter: 1.0,
                exit: 0.0,
                loss: 1.0,
            }),
            ..FaultProfile::healthy()
        });
        for i in 0..50 {
            assert_eq!(
                hopeless.transmit_faulty(format!("m{i}"), b"x").1,
                Delivery::Dropped
            );
        }
        // A bursty chain produces clustered losses: at least one run of
        // ≥3 consecutive drops, yet an overall delivery majority.
        let mut bursty = Link::new(NetworkProfile::lan()).with_fault_profile(
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.05,
                    exit: 0.3,
                    loss: 0.95,
                }),
                ..FaultProfile::healthy()
            }
            .with_seed(11),
        );
        let outcomes: Vec<bool> = (0..500)
            .map(|i| bursty.transmit_faulty(format!("m{i}"), b"x").1.is_ok())
            .collect();
        let delivered = outcomes.iter().filter(|&&ok| ok).count();
        assert!(delivered > 250, "delivered only {delivered}/500");
        assert!(delivered < 500, "burst chain never lost anything");
        let longest_run = outcomes
            .split(|&ok| ok)
            .map(<[bool]>::len)
            .max()
            .unwrap_or(0);
        assert!(longest_run >= 3, "losses did not cluster: {longest_run}");
    }

    #[test]
    fn reordering_defers_then_delivers_out_of_order() {
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            reorder_probability: 1.0,
            ..FaultProfile::healthy()
        });
        // First frame is deferred; each further frame displaces the
        // oldest waiting one.
        assert_eq!(link.transmit_faulty("a", b"first").1, Delivery::Deferred);
        assert_eq!(
            link.transmit_faulty("b", b"second").1,
            Delivery::Delivered(b"first".to_vec())
        );
        assert_eq!(
            link.transmit_faulty("c", b"third").1,
            Delivery::Delivered(b"second".to_vec())
        );
    }

    #[test]
    fn duplicates_arrive_twice() {
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            duplicate_probability: 1.0,
            ..FaultProfile::healthy()
        });
        let (_, outcome) = link.transmit_faulty("d", b"payload");
        assert_eq!(outcome, Delivery::Duplicated(b"payload".to_vec()));
        assert_eq!(outcome.payload(), Some(&b"payload"[..]));
        assert!(!outcome.is_ok(), "a duplicate is not a clean delivery");
    }

    #[test]
    fn corruption_damages_a_seeded_burst_of_bytes() {
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(
            FaultProfile {
                corrupt_probability: 1.0,
                corrupt_burst: 8,
                ..FaultProfile::healthy()
            }
            .with_seed(3),
        );
        let payload = vec![0u8; 256];
        let mut multi_byte_seen = false;
        for i in 0..50 {
            match link.transmit_faulty(format!("m{i}"), &payload).1 {
                Delivery::Corrupted(p) => {
                    let damaged = p.iter().zip(&payload).filter(|(a, b)| a != b).count();
                    assert!((1..=8).contains(&damaged), "burst of {damaged} bytes");
                    multi_byte_seen |= damaged > 1;
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
        assert!(multi_byte_seen, "burst corruption never damaged >1 byte");
    }

    #[test]
    fn set_fault_profile_repairs_a_link() {
        let mut link =
            Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile::drops(1.0, 5));
        assert_eq!(link.transmit_faulty("a", b"x").1, Delivery::Dropped);
        link.set_fault_profile(FaultProfile::healthy());
        assert!(link.transmit_faulty("b", b"x").1.is_ok());
    }

    #[test]
    fn per_message_latency_penalizes_chatter() {
        let p = NetworkProfile {
            bandwidth_bytes_per_sec: 1_000_000.0,
            latency: Duration::from_millis(50),
        };
        let mut one_big = Link::new(p);
        one_big.send("all", &[0u8; 100_000]);
        let mut many_small = Link::new(p);
        for i in 0..10 {
            many_small.send(format!("part{i}"), &[0u8; 10_000]);
        }
        assert_eq!(one_big.total_bytes(), many_small.total_bytes());
        assert!(many_small.total_time() > one_big.total_time());
    }
}

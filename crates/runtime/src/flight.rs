//! The flight recorder: always-on, bounded, per-subsystem rings of the
//! runtime's last internal transitions, dumped to disk on anomaly.
//!
//! Metrics say *how much*; spans say *where the time went*; neither
//! says *what the engine was doing right before it failed*. The
//! recorder keeps a small ring per subsystem — engine lane transitions,
//! timer-wheel deadlines, breaker flips, shed decisions — cheap enough
//! to leave on in production (one mutex push per entry, bounded
//! memory). When an anomaly fires — a session failure, a breaker
//! opening, a shed-rate spike, or the stall watchdog — the rings are
//! dumped as JSONL into the configured directory, capturing the
//! transitions that led up to the incident instead of the aggregate
//! state after it.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xdx_trace::json_escape;

/// Entries retained per subsystem ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Shed decisions within [`SHED_SPIKE_WINDOW`] that count as a spike.
pub const SHED_SPIKE_THRESHOLD: usize = 32;

/// Window for shed-rate spike detection.
pub const SHED_SPIKE_WINDOW: Duration = Duration::from_secs(1);

/// Minimum spacing between on-disk dumps, so a failure storm produces
/// a few dumps, not thousands.
const DUMP_COOLDOWN: Duration = Duration::from_millis(250);

/// Hard cap on dump files per recorder lifetime.
const MAX_DUMPS: u64 = 32;

/// The subsystems with dedicated rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightSubsystem {
    /// Engine lane transitions: reservations, settles, retries, parks.
    Lane,
    /// Timer-wheel deadline schedules and expiries.
    Timer,
    /// Circuit-breaker flips (open / half-open / close).
    Breaker,
    /// Admission shed decisions.
    Shed,
}

impl FlightSubsystem {
    const ALL: [FlightSubsystem; 4] = [
        FlightSubsystem::Lane,
        FlightSubsystem::Timer,
        FlightSubsystem::Breaker,
        FlightSubsystem::Shed,
    ];

    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            FlightSubsystem::Lane => "lane",
            FlightSubsystem::Timer => "timer",
            FlightSubsystem::Breaker => "breaker",
            FlightSubsystem::Shed => "shed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One retained transition.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Microseconds since the recorder epoch (the runtime's creation).
    pub at_us: u64,
    /// Which ring the entry came from.
    pub subsystem: FlightSubsystem,
    /// What happened.
    pub detail: String,
}

/// The recorder itself. Thread-safe; every hot-path call is one mutex
/// push into a bounded ring (or a no-op when disabled).
pub struct FlightRecorder {
    epoch: Instant,
    enabled: bool,
    capacity: usize,
    rings: [Mutex<VecDeque<(u64, String)>>; 4],
    /// Recent shed instants, for spike detection.
    shed_times: Mutex<VecDeque<Instant>>,
    anomalies: AtomicU64,
    dumps: AtomicU64,
    dump_dir: Mutex<Option<PathBuf>>,
    last_dump: Mutex<Option<Instant>>,
}

impl FlightRecorder {
    pub fn new(enabled: bool, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            enabled,
            capacity: capacity.max(1),
            rings: Default::default(),
            shed_times: Mutex::new(VecDeque::new()),
            anomalies: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            dump_dir: Mutex::new(None),
            last_dump: Mutex::new(None),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Directory anomaly dumps are written to; `None` (the default)
    /// records in memory only.
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        *self.dump_dir.lock().unwrap() = dir;
    }

    /// Records a transition. The detail is built lazily so a disabled
    /// recorder costs one branch.
    pub fn record(&self, subsystem: FlightSubsystem, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.rings[subsystem.index()].lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back((at_us, detail()));
    }

    /// Records a shed decision and fires the shed-rate-spike anomaly
    /// when [`SHED_SPIKE_THRESHOLD`] sheds land within
    /// [`SHED_SPIKE_WINDOW`].
    pub fn shed(&self, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        self.record(FlightSubsystem::Shed, detail);
        let now = Instant::now();
        let spike = {
            let mut times = self.shed_times.lock().unwrap();
            times.push_back(now);
            while times
                .front()
                .is_some_and(|t| now.duration_since(*t) > SHED_SPIKE_WINDOW)
            {
                times.pop_front();
            }
            times.len() >= SHED_SPIKE_THRESHOLD
        };
        if spike {
            self.anomaly("shed-rate spike");
        }
    }

    /// Registers an anomaly: counts it and, when a dump directory is
    /// configured, writes the rings to `flight-<n>.jsonl` (rate-limited
    /// and capped). Returns the dump path when a file was written.
    pub fn anomaly(&self, reason: &str) -> Option<PathBuf> {
        if !self.enabled {
            return None;
        }
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        let dir = self.dump_dir.lock().unwrap().clone()?;
        {
            let mut last = self.last_dump.lock().unwrap();
            let now = Instant::now();
            if last.is_some_and(|t| now.duration_since(t) < DUMP_COOLDOWN) {
                return None;
            }
            *last = Some(now);
        }
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        if n >= MAX_DUMPS {
            self.dumps.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let path = dir.join(format!("flight-{n}.jsonl"));
        let mut body = format!(
            "{{\"anomaly\":\"{}\",\"at_us\":{}}}\n",
            json_escape(reason),
            self.epoch.elapsed().as_micros() as u64
        );
        body.push_str(&self.to_jsonl());
        if std::fs::create_dir_all(&dir).is_err() || std::fs::write(&path, body).is_err() {
            return None;
        }
        Some(path)
    }

    /// Anomalies registered so far (dumped to disk or not).
    pub fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Dump files written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Every retained entry, merged across rings in time order.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let mut out = Vec::new();
        for sub in FlightSubsystem::ALL {
            let ring = self.rings[sub.index()].lock().unwrap();
            out.extend(ring.iter().map(|(at_us, detail)| FlightEntry {
                at_us: *at_us,
                subsystem: sub,
                detail: detail.clone(),
            }));
        }
        out.sort_by_key(|e| e.at_us);
        out
    }

    /// The rings as JSONL, one entry per line, time order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&format!(
                "{{\"at_us\":{},\"subsystem\":\"{}\",\"detail\":\"{}\"}}\n",
                e.at_us,
                e.subsystem.name(),
                json_escape(&e.detail),
            ));
        }
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .field("anomalies", &self.anomalies())
            .field("dumps", &self.dumps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::new(false, 8);
        rec.record(FlightSubsystem::Lane, || "x".into());
        rec.shed(|| "y".into());
        assert!(rec.anomaly("boom").is_none());
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.anomalies(), 0);
    }

    #[test]
    fn rings_bound_per_subsystem_and_merge_in_time_order() {
        let rec = FlightRecorder::new(true, 4);
        for i in 0..10 {
            rec.record(FlightSubsystem::Lane, || format!("lane {i}"));
        }
        rec.record(FlightSubsystem::Breaker, || "flip".into());
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 5, "4 retained lane entries + 1 breaker");
        assert!(snap.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(
            snap.iter()
                .filter(|e| e.subsystem == FlightSubsystem::Lane)
                .count(),
            4
        );
        // The oldest lane entries were evicted.
        assert!(rec.to_jsonl().contains("lane 9"));
        assert!(!rec.to_jsonl().contains("lane 0"));
    }

    #[test]
    fn shed_spike_fires_anomaly() {
        let rec = FlightRecorder::new(true, 64);
        for i in 0..SHED_SPIKE_THRESHOLD {
            rec.shed(|| format!("shed {i}"));
        }
        assert!(rec.anomalies() >= 1, "spike threshold reached");
    }

    #[test]
    fn anomaly_dumps_once_per_cooldown_into_dir() {
        let dir = std::env::temp_dir().join(format!("xdx-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(true, 8);
        rec.record(FlightSubsystem::Timer, || "deadline +500us".into());
        // No dir configured: counted, not dumped.
        assert!(rec.anomaly("first").is_none());
        rec.set_dump_dir(Some(dir.clone()));
        let path = rec.anomaly("session failure").expect("dump written");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"anomaly\":\"session failure\""));
        assert!(body.contains("deadline +500us"));
        // Within the cooldown, a second anomaly is counted but not
        // dumped.
        assert!(rec.anomaly("second").is_none());
        assert_eq!(rec.anomalies(), 3);
        assert_eq!(rec.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

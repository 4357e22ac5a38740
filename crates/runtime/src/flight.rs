//! Anomaly bookkeeping: the runtime's anomalies counted, and the event
//! log's newest transitions dumped to disk when one fires.
//!
//! Metrics say *how much*; spans say *where the time went*; the event
//! log ([`crate::events`]) says *what happened, in order* — it is the
//! runtime's one journal of transitions. The recorder keeps no ring of
//! its own. When an anomaly fires — a session failure, a breaker
//! opening, a shed-rate spike, or the stall watchdog — it writes the
//! anomaly and the journal's newest events as JSONL into the configured
//! directory, capturing the transitions that led up to the incident
//! instead of the aggregate state after it.

use crate::events::EventLog;
use crate::sync::lock;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xdx_trace::json_escape;

/// Shed decisions within [`SHED_SPIKE_WINDOW`] that count as a spike.
pub const SHED_SPIKE_THRESHOLD: usize = 32;

/// Window for shed-rate spike detection.
pub const SHED_SPIKE_WINDOW: Duration = Duration::from_secs(1);

/// Newest journal events a dump carries after its anomaly line.
const DUMP_EVENTS: usize = 4096;

/// Minimum spacing between on-disk dumps, so a failure storm produces
/// a few dumps, not thousands.
const DUMP_COOLDOWN: Duration = Duration::from_millis(250);

/// Hard cap on dump files per recorder lifetime.
const MAX_DUMPS: u64 = 32;

/// The recorder itself. Thread-safe; inert when disabled.
pub struct FlightRecorder {
    enabled: bool,
    /// The journal a dump is cut from.
    events: Arc<EventLog>,
    /// Directory anomaly dumps are written to; `None` counts anomalies
    /// without dumping.
    dump_dir: Option<PathBuf>,
    /// Recent shed instants, for spike detection.
    shed_times: Mutex<VecDeque<Instant>>,
    anomalies: AtomicU64,
    dumps: AtomicU64,
    last_dump: Mutex<Option<Instant>>,
}

impl FlightRecorder {
    pub fn new(enabled: bool, events: Arc<EventLog>, dump_dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            enabled,
            events,
            dump_dir,
            shed_times: Mutex::new(VecDeque::new()),
            anomalies: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// Ticks the shed-rate window for one shed decision (the decision
    /// itself is a `Shed` event in the journal) and fires the
    /// shed-rate-spike anomaly when [`SHED_SPIKE_THRESHOLD`] sheds land
    /// within [`SHED_SPIKE_WINDOW`]. A spike empties the window, so a
    /// storm counts one anomaly per threshold's worth of sheds.
    pub fn shed(&self) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let spike = {
            let mut times = lock(&self.shed_times);
            times.push_back(now);
            while times
                .front()
                .is_some_and(|t| now.duration_since(*t) > SHED_SPIKE_WINDOW)
            {
                times.pop_front();
            }
            let spike = times.len() >= SHED_SPIKE_THRESHOLD;
            if spike {
                times.clear();
            }
            spike
        };
        if spike {
            self.anomaly("shed-rate spike");
        }
    }

    /// Registers an anomaly: counts it and, when a dump directory is
    /// configured, writes `flight-<n>.jsonl` (rate-limited and capped):
    /// the anomaly line, then the journal's newest events in the
    /// [`EventLog::to_jsonl`] format. Returns the dump path when a file
    /// was written.
    pub fn anomaly(&self, reason: &str) -> Option<PathBuf> {
        if !self.enabled {
            return None;
        }
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        let dir = self.dump_dir.as_ref()?;
        {
            let mut last = lock(&self.last_dump);
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
            self.events.elapsed().as_micros()
        );
        body.push_str(&self.events.tail_jsonl(DUMP_EVENTS));
        if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, body).is_err() {
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
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.enabled)
            .field("anomalies", &self.anomalies())
            .field("dumps", &self.dumps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xdx-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let dir = scratch_dir("flight-inert");
        let rec = FlightRecorder::new(false, Arc::new(EventLog::new()), Some(dir.clone()));
        for _ in 0..SHED_SPIKE_THRESHOLD {
            rec.shed();
        }
        assert!(rec.anomaly("boom").is_none());
        assert_eq!(rec.anomalies(), 0);
        assert_eq!(rec.dumps(), 0);
        assert!(!dir.exists(), "a disabled recorder writes nothing");
    }

    #[test]
    fn shed_spike_fires_anomaly() {
        let rec = FlightRecorder::new(true, Arc::new(EventLog::new()), None);
        for _ in 1..SHED_SPIKE_THRESHOLD {
            rec.shed();
        }
        assert_eq!(rec.anomalies(), 0, "below the threshold");
        rec.shed();
        assert_eq!(rec.anomalies(), 1, "spike threshold reached");
        // The storm goes on: the spike emptied the window, so the next
        // threshold's worth of sheds fires once more, not once each.
        for _ in 1..SHED_SPIKE_THRESHOLD {
            rec.shed();
        }
        assert_eq!(rec.anomalies(), 1, "one anomaly per spike");
        rec.shed();
        assert_eq!(rec.anomalies(), 2, "the next spike");
    }

    #[test]
    fn dump_is_the_anomaly_then_the_journal_tail() {
        let dir = scratch_dir("flight-tail");
        let events = Arc::new(EventLog::new());
        for i in 0..DUMP_EVENTS + 10 {
            events.push(i as u64, 0, EventKind::Submitted, format!("s{i}"));
        }
        let rec = FlightRecorder::new(true, Arc::clone(&events), Some(dir.clone()));
        let path = rec.anomaly("session failure").expect("dump written");
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines = body.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("{\"anomaly\":\"session failure\",\"at_us\":"));
        let tail: Vec<&str> = lines.collect();
        assert_eq!(tail.len(), DUMP_EVENTS, "the newest {DUMP_EVENTS} events");
        assert_eq!(
            tail,
            events.tail_jsonl(DUMP_EVENTS).lines().collect::<Vec<_>>()
        );
        assert!(tail[0].contains("\"session\":10,"), "{}", tail[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anomaly_dumps_once_per_cooldown_into_dir() {
        let dir = scratch_dir("flight-cap");
        let undumped = FlightRecorder::new(true, Arc::new(EventLog::new()), None);
        assert!(undumped.anomaly("no dir").is_none(), "counted, not dumped");
        assert_eq!((undumped.anomalies(), undumped.dumps()), (1, 0));

        let rec = FlightRecorder::new(true, Arc::new(EventLog::new()), Some(dir.clone()));
        assert!(rec.anomaly("first").is_some());
        // Within the cooldown, a second anomaly is counted but not
        // dumped.
        assert!(rec.anomaly("second").is_none());
        assert_eq!((rec.anomalies(), rec.dumps()), (2, 1));
        // Past the cooldown every anomaly dumps, up to the cap.
        for _ in 1..MAX_DUMPS + 3 {
            *lock(&rec.last_dump) = None;
            rec.anomaly("storm");
        }
        assert_eq!(rec.dumps(), MAX_DUMPS);
        let files = std::fs::read_dir(&dir).unwrap().count() as u64;
        assert_eq!(files, MAX_DUMPS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

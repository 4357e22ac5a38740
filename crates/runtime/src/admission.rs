//! Admission-time overload estimation.
//!
//! The controller keeps two cheap signals the admission gate combines
//! into a turnaround estimate and a back-off hint:
//!
//! * an EWMA of observed per-session *service* time (wall time minus
//!   queue wait) over completed sessions,
//! * a sliding window of the gaps between dequeues taken while the queue
//!   stayed backlogged: the time one queued entry's turn costs right now.
//!
//! A submission carrying a deadline is refused up front when
//! `estimated wait + estimated service > deadline` — the session would
//! only be shed at dequeue anyway, after holding a queue slot someone
//! else could have used. The wait is priced per queued turn ahead of the
//! session: the runtime counts those turns on the tenant's lane of the
//! fair queue, not over the fleet's depth. When no session has completed
//! yet (a cold runtime) the estimate is `None` and admission
//! stays optimistic: shedding on a guess would be worse than learning
//! from one slow session.

use crate::sync::lock;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// EWMA smoothing factor for the service-time signal.
const ALPHA: f64 = 0.2;

/// Backlogged dequeue gaps retained for the drain-rate window.
const DRAIN_WINDOW: usize = 64;

/// Back-off hint when nothing has been observed yet.
const COLD_RETRY_AFTER: Duration = Duration::from_millis(25);

/// Bounds on any retry hint handed to a client.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);
const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);

#[derive(Default)]
struct State {
    ewma_service_ns: f64,
    service_samples: u64,
    /// When the last dequeue left the queue backlogged: the next
    /// dequeue's gap from it is one turn of a busy queue.
    backlogged_since: Option<Instant>,
    /// The last `DRAIN_WINDOW` such gaps, and their sum.
    turns: VecDeque<Duration>,
    turns_total: Duration,
}

impl State {
    /// Mean time one queued turn took over the drain window, in ns.
    fn turn_ns(&self) -> Option<f64> {
        (!self.turns.is_empty())
            .then(|| self.turns_total.as_nanos() as f64 / self.turns.len() as f64)
    }
}

/// Shared overload estimator (see the module docs). One per runtime;
/// all methods are internally synchronized and O(1).
#[derive(Default)]
pub struct AdmissionController {
    state: Mutex<State>,
}

impl AdmissionController {
    /// A controller with no history: estimates are `None`, retry hints
    /// fall back to a small constant.
    pub fn new() -> AdmissionController {
        AdmissionController::default()
    }

    /// Feeds one completed session's service time (wall minus queue
    /// wait) into the EWMA.
    pub fn record_service(&self, service: Duration) {
        let mut s = lock(&self.state);
        let ns = service.as_nanos() as f64;
        s.ewma_service_ns = if s.service_samples == 0 {
            ns
        } else {
            ALPHA * ns + (1.0 - ALPHA) * s.ewma_service_ns
        };
        s.service_samples += 1;
    }

    /// Stamps one dequeue into the drain-rate window. `backlogged` says
    /// whether the queue still holds entries after it: only a gap that
    /// starts at such a dequeue measures the queue's drain, since an
    /// idle queue's gaps measure its arrivals instead.
    pub fn record_dequeue(&self, backlogged: bool) {
        let now = Instant::now();
        let mut s = lock(&self.state);
        if let Some(since) = s.backlogged_since {
            let gap = now - since;
            s.turns.push_back(gap);
            s.turns_total += gap;
            if s.turns.len() > DRAIN_WINDOW {
                let old = s.turns.pop_front().expect("window is over full");
                s.turns_total -= old;
            }
        }
        s.backlogged_since = backlogged.then_some(now);
    }

    /// Estimated queue-to-completion turnaround for a session that
    /// dequeues after `ahead` queued turns on `workers` workers: its own
    /// observed service plus `ahead` turns at the drain window's mean, or
    /// at `service / workers` each while the window is still empty.
    /// `None` until a session has completed — a cold runtime admits
    /// optimistically.
    pub fn estimated_turnaround(&self, ahead: usize, workers: usize) -> Option<Duration> {
        let s = lock(&self.state);
        if s.service_samples == 0 {
            return None;
        }
        let service_ns = s.ewma_service_ns;
        let wait_ns = match s.turn_ns() {
            Some(turn) => turn * ahead as f64,
            None => service_ns * ahead as f64 / workers.max(1) as f64,
        };
        Some(Duration::from_nanos((wait_ns + service_ns) as u64))
    }

    /// How long a refused client should back off before resubmitting:
    /// the time the queue needs to drain `depth + 1` sessions at its
    /// observed per-turn drain, clamped to sane bounds.
    pub fn retry_after(&self, depth: usize) -> Duration {
        let s = lock(&self.state);
        let per_dequeue_ns = s.turn_ns().unwrap_or(if s.service_samples > 0 {
            s.ewma_service_ns
        } else {
            COLD_RETRY_AFTER.as_nanos() as f64
        });
        let hint = Duration::from_nanos((per_dequeue_ns * (depth + 1) as f64) as u64);
        hint.clamp(MIN_RETRY_AFTER, MAX_RETRY_AFTER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_controller_estimates_nothing_and_hints_a_floor() {
        let c = AdmissionController::new();
        assert_eq!(c.estimated_turnaround(10, 4), None);
        let hint = c.retry_after(0);
        assert!(hint >= MIN_RETRY_AFTER && hint <= MAX_RETRY_AFTER);
    }

    #[test]
    fn observed_service_drives_the_turnaround_estimate() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(10));
        // depth 4 on 2 workers: wait 4*10/2 = 20ms, plus 10ms service.
        let est = c.estimated_turnaround(4, 2).unwrap();
        assert_eq!(est, Duration::from_millis(30));
    }

    #[test]
    fn ewma_converges_toward_recent_service_times() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(100));
        for _ in 0..50 {
            c.record_service(Duration::from_millis(10));
        }
        let est = c.estimated_turnaround(0, 1).unwrap();
        assert!(
            est < Duration::from_millis(12),
            "EWMA stuck at {est:?} after 50 fast sessions"
        );
    }

    #[test]
    fn retry_hint_scales_with_depth_and_drain_rate() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(5));
        let shallow = c.retry_after(0);
        let deep = c.retry_after(9);
        assert!(
            deep > shallow,
            "deeper queue hinted {deep:?} <= shallow {shallow:?}"
        );
        assert!(deep <= MAX_RETRY_AFTER);
    }

    #[test]
    fn the_drain_window_prices_the_wait_once_it_holds_a_turn() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_secs(1));
        // Two backlogged dequeues about 1ms apart: the queue serves a
        // turn per millisecond, whatever one session's service costs.
        c.record_dequeue(true);
        std::thread::sleep(Duration::from_millis(1));
        c.record_dequeue(true);
        // 10 turns at ~1ms, plus the session's own 1s of service; pricing
        // the turns at service / workers instead would read 11s.
        let est = c.estimated_turnaround(10, 1).unwrap();
        assert!(
            est >= Duration::from_secs(1) && est < Duration::from_secs(2),
            "estimated {est:?}"
        );
    }

    #[test]
    fn backlogged_drain_prices_the_wait_per_turn_ahead() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_micros(10));
        // An empty window: 10 turns × 10µs / 4 workers + 10µs.
        assert_eq!(
            c.estimated_turnaround(10, 4),
            Some(Duration::from_micros(35))
        );
        // Gaps that start at a dequeue leaving the queue empty measure
        // arrivals, not the drain: they are not recorded.
        c.record_dequeue(false);
        std::thread::sleep(Duration::from_millis(5));
        c.record_dequeue(false);
        assert_eq!(
            c.estimated_turnaround(10, 4),
            Some(Duration::from_micros(35))
        );
        // A backlogged gap of at least 5ms prices each turn ahead at it.
        c.record_dequeue(true);
        std::thread::sleep(Duration::from_millis(5));
        c.record_dequeue(true);
        let est = c.estimated_turnaround(10, 4).unwrap();
        assert!(est >= Duration::from_millis(50), "estimated {est:?}");
        assert!(c.retry_after(9) >= Duration::from_millis(50));
        assert_eq!(
            c.estimated_turnaround(0, 4),
            Some(Duration::from_micros(10))
        );
    }
}

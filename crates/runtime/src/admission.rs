//! Admission-time overload estimation.
//!
//! The controller keeps three cheap signals the admission gate combines
//! into a turnaround estimate and a back-off hint:
//!
//! * an EWMA of observed per-session *service* time (wall time minus
//!   queue wait) over completed sessions,
//! * an EWMA of planned cost units, convertible to nanoseconds through
//!   the calibration layer's fleet-wide `ns_per_unit`,
//! * a sliding window of the gaps between dequeues taken while the queue
//!   stayed backlogged: the time one queued entry's turn costs right now.
//!
//! A submission carrying a deadline is refused up front when
//! `estimated wait + estimated service > deadline` — the session would
//! only be shed at dequeue anyway, after holding a queue slot someone
//! else could have used. The wait is priced per queued turn ahead of the
//! session: the runtime counts those turns on the tenant's lane of the
//! fair queue, not over the fleet's depth. When no signal has been
//! observed yet (a cold runtime) the estimate is `None` and admission
//! stays optimistic: shedding on a guess would be worse than learning
//! from one slow session.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// EWMA smoothing factor for service-time and plan-cost signals.
const ALPHA: f64 = 0.2;

/// Backlogged dequeue gaps retained for the drain-rate window.
const DRAIN_WINDOW: usize = 64;

/// Back-off hint when nothing has been observed yet.
const COLD_RETRY_AFTER: Duration = Duration::from_millis(25);

/// Bounds on any retry hint handed to a client.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);
const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);

/// Ceiling on the pipelining-overlap factor. With pacing off the wire is
/// simulated (near-zero wall), which would report absurd overlap; a
/// capped divisor keeps the wait estimate merely optimistic, not zero.
const MAX_OVERLAP: f64 = 64.0;

#[derive(Default)]
struct State {
    ewma_service_ns: f64,
    service_samples: u64,
    ewma_cost_units: f64,
    cost_samples: u64,
    /// Observed pipelining overlap: session wall over wall *not* hidden
    /// behind the wire (≥ 1). Queued sessions behind a pipelined fleet
    /// wait for the exposed fraction of service, not all of it.
    ewma_overlap: f64,
    overlap_samples: u64,
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
        let mut s = self.state.lock().unwrap();
        let ns = service.as_nanos() as f64;
        s.ewma_service_ns = if s.service_samples == 0 {
            ns
        } else {
            ALPHA * ns + (1.0 - ALPHA) * s.ewma_service_ns
        };
        s.service_samples += 1;
    }

    /// Feeds one planned session's cost-model units into the EWMA.
    pub fn record_plan_cost(&self, units: f64) {
        if !units.is_finite() || units <= 0.0 {
            return;
        }
        let mut s = self.state.lock().unwrap();
        s.ewma_cost_units = if s.cost_samples == 0 {
            units
        } else {
            ALPHA * units + (1.0 - ALPHA) * s.ewma_cost_units
        };
        s.cost_samples += 1;
    }

    /// Feeds one pipelined session's overlap factor — wall time over
    /// wall time *not* hidden behind in-flight shipping — into the
    /// EWMA. Factors are clamped to `[1, MAX_OVERLAP]`; non-finite
    /// samples are dropped.
    pub fn record_overlap(&self, factor: f64) {
        if !factor.is_finite() {
            return;
        }
        let factor = factor.clamp(1.0, MAX_OVERLAP);
        let mut s = self.state.lock().unwrap();
        s.ewma_overlap = if s.overlap_samples == 0 {
            factor
        } else {
            ALPHA * factor + (1.0 - ALPHA) * s.ewma_overlap
        };
        s.overlap_samples += 1;
    }

    /// Stamps one dequeue into the drain-rate window. `backlogged` says
    /// whether the queue still holds entries after it: only a gap that
    /// starts at such a dequeue measures the queue's drain, since an
    /// idle queue's gaps measure its arrivals instead.
    pub fn record_dequeue(&self, backlogged: bool) {
        let now = Instant::now();
        let mut s = self.state.lock().unwrap();
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
    /// dequeues after `ahead` queued turns on `workers` workers.
    /// `ns_per_unit` is the calibration layer's fleet-wide conversion
    /// (0 when uncalibrated). `None` until at least one service signal
    /// exists — a cold runtime admits optimistically.
    pub fn estimated_turnaround(
        &self,
        ahead: usize,
        workers: usize,
        ns_per_unit: f64,
    ) -> Option<Duration> {
        let s = self.state.lock().unwrap();
        let from_observed = (s.service_samples > 0).then_some(s.ewma_service_ns);
        let from_model =
            (s.cost_samples > 0 && ns_per_unit > 0.0).then_some(s.ewma_cost_units * ns_per_unit);
        // Two independent estimators of the same quantity; trust the
        // more pessimistic one — under overload, optimism is the error
        // that compounds.
        let service_ns = match (from_observed, from_model) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        // Pipelined sessions hide most of their service behind the wire,
        // so the queue drains faster than serial service would suggest:
        // discount the *wait* term by the observed overlap. The entering
        // session still pays its own full service time. Defaults to 1
        // (no discount) until a pipelined session reports.
        let overlap = if s.overlap_samples > 0 {
            s.ewma_overlap.max(1.0)
        } else {
            1.0
        };
        let modelled_ns = service_ns * ahead as f64 / workers.max(1) as f64 / overlap;
        // The drain window prices the same turns as they are being
        // served now; the more pessimistic of the two waits wins.
        let drained_ns = s.turn_ns().map_or(0.0, |turn| turn * ahead as f64);
        let wait_ns = modelled_ns.max(drained_ns);
        Some(Duration::from_nanos((wait_ns + service_ns) as u64))
    }

    /// How long a refused client should back off before resubmitting:
    /// the time the queue needs to drain `depth + 1` sessions at its
    /// observed per-turn drain, clamped to sane bounds.
    pub fn retry_after(&self, depth: usize) -> Duration {
        let s = self.state.lock().unwrap();
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
        assert_eq!(c.estimated_turnaround(10, 4, 100.0), None);
        let hint = c.retry_after(0);
        assert!(hint >= MIN_RETRY_AFTER && hint <= MAX_RETRY_AFTER);
    }

    #[test]
    fn observed_service_drives_the_turnaround_estimate() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(10));
        // depth 4 on 2 workers: wait 4*10/2 = 20ms, plus 10ms service.
        let est = c.estimated_turnaround(4, 2, 0.0).unwrap();
        assert_eq!(est, Duration::from_millis(30));
    }

    #[test]
    fn the_more_pessimistic_estimator_wins() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(1));
        c.record_plan_cost(1000.0);
        // Model says 1000 units * 1e6 ns/unit = 1s >> observed 1ms.
        let est = c.estimated_turnaround(0, 1, 1e6).unwrap();
        assert_eq!(est, Duration::from_secs(1));
    }

    #[test]
    fn ewma_converges_toward_recent_service_times() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(100));
        for _ in 0..50 {
            c.record_service(Duration::from_millis(10));
        }
        let est = c.estimated_turnaround(0, 1, 0.0).unwrap();
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
    fn overlap_discounts_the_wait_term_only() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_millis(10));
        // Saturate the EWMA at 2× overlap.
        for _ in 0..200 {
            c.record_overlap(2.0);
        }
        // depth 4 on 2 workers: wait 20ms / 2 overlap = 10ms, plus the
        // session's own undiscounted 10ms of service.
        let est = c.estimated_turnaround(4, 2, 0.0).unwrap();
        assert!(
            est > Duration::from_millis(19) && est < Duration::from_millis(21),
            "overlap-discounted estimate was {est:?}"
        );
        // Garbage overlap samples are dropped or clamped, never panic.
        c.record_overlap(f64::NAN);
        c.record_overlap(0.0);
        c.record_overlap(1e12);
    }

    #[test]
    fn backlogged_drain_prices_the_wait_per_turn_ahead() {
        let c = AdmissionController::new();
        c.record_service(Duration::from_micros(10));
        // The model alone: 10 turns × 10µs / 4 workers + 10µs.
        assert_eq!(
            c.estimated_turnaround(10, 4, 0.0),
            Some(Duration::from_micros(35))
        );
        // Gaps that start at a dequeue leaving the queue empty measure
        // arrivals, not the drain: they are not recorded.
        c.record_dequeue(false);
        std::thread::sleep(Duration::from_millis(5));
        c.record_dequeue(false);
        assert_eq!(
            c.estimated_turnaround(10, 4, 0.0),
            Some(Duration::from_micros(35))
        );
        // A backlogged gap of at least 5ms prices each turn ahead at it.
        c.record_dequeue(true);
        std::thread::sleep(Duration::from_millis(5));
        c.record_dequeue(true);
        let est = c.estimated_turnaround(10, 4, 0.0).unwrap();
        assert!(est >= Duration::from_millis(50), "estimated {est:?}");
        assert!(c.retry_after(9) >= Duration::from_millis(50));
        assert_eq!(
            c.estimated_turnaround(0, 4, 0.0),
            Some(Duration::from_micros(10))
        );
    }

    #[test]
    fn nonsense_plan_costs_are_ignored() {
        let c = AdmissionController::new();
        c.record_plan_cost(f64::NAN);
        c.record_plan_cost(-5.0);
        c.record_plan_cost(0.0);
        assert_eq!(c.estimated_turnaround(0, 1, 1.0), None);
    }
}

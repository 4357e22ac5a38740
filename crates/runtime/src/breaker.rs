//! Per-link circuit breaker: when the shared wide-area link eats K
//! consecutive shipments, admitting more sessions just burns retry
//! budgets. The breaker *opens* — new submissions are refused with a
//! `retry_after` hint — then *half-opens* after a cooldown, letting one
//! probe session through. A probe success closes the breaker; a probe
//! failure re-opens it for another cooldown.
//!
//! Only genuine link failures count: sessions that were cancelled or ran
//! past their deadline say nothing about link health and leave the
//! breaker untouched.

use crate::sync::lock;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A state transition worth logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Consecutive failures crossed the threshold (or the probe failed).
    Opened,
    /// The cooldown elapsed; the next session is a probe.
    HalfOpened,
    /// A probe (or any success) closed the breaker.
    Closed,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { since: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    consecutive_failures: u32,
    state: State,
}

/// Thread-shared circuit breaker guarding admission to a link.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive link
    /// failures and half-opens `cooldown` later.
    ///
    /// # Panics
    /// If `threshold` is zero (the breaker would never admit anything).
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        CircuitBreaker {
            threshold,
            cooldown,
            inner: Mutex::new(BreakerInner {
                consecutive_failures: 0,
                state: State::Closed,
            }),
        }
    }

    /// Gate for admission. `Ok(None)` — admitted; `Ok(Some(HalfOpened))`
    /// — admitted as the cooldown-ending probe; `Err(retry_after)` — the
    /// breaker is open, come back later.
    pub fn try_admit(&self) -> Result<Option<BreakerTransition>, Duration> {
        let mut inner = lock(&self.inner);
        match inner.state {
            State::Closed | State::HalfOpen => Ok(None),
            State::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    inner.state = State::HalfOpen;
                    Ok(Some(BreakerTransition::HalfOpened))
                } else {
                    Err(self.cooldown - elapsed)
                }
            }
        }
    }

    /// Records a session whose shipments all landed.
    pub fn record_success(&self) -> Option<BreakerTransition> {
        let mut inner = lock(&self.inner);
        inner.consecutive_failures = 0;
        match inner.state {
            State::HalfOpen => {
                inner.state = State::Closed;
                Some(BreakerTransition::Closed)
            }
            _ => None,
        }
    }

    /// Records a session the link genuinely failed (retry budget or
    /// attempt cap exhausted — not cancellation, not a deadline).
    pub fn record_failure(&self) -> Option<BreakerTransition> {
        let mut inner = lock(&self.inner);
        inner.consecutive_failures += 1;
        let should_open = match inner.state {
            // A failed probe re-opens immediately.
            State::HalfOpen => true,
            State::Closed => inner.consecutive_failures >= self.threshold,
            State::Open { .. } => false,
        };
        if should_open {
            inner.state = State::Open {
                since: Instant::now(),
            };
            Some(BreakerTransition::Opened)
        } else {
            None
        }
    }

    /// True while the breaker refuses admissions (cooldown running).
    pub fn is_open(&self) -> bool {
        matches!(lock(&self.inner).state, State::Open { .. })
    }

    /// Cooldown left before the breaker half-opens; `None` unless open.
    /// This is the `retry_after` hint shed sessions hand back.
    pub fn cooldown_remaining(&self) -> Option<Duration> {
        match lock(&self.inner).state {
            State::Open { since } => Some(self.cooldown.saturating_sub(since.elapsed())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(60));
        assert_eq!(b.record_failure(), None);
        assert_eq!(b.record_failure(), None);
        assert_eq!(b.record_failure(), Some(BreakerTransition::Opened));
        assert!(b.is_open());
        let retry_after = b.try_admit().unwrap_err();
        assert!(retry_after <= Duration::from_secs(60));
        let remaining = b.cooldown_remaining().unwrap();
        assert!(remaining <= Duration::from_secs(60));
        let closed = CircuitBreaker::new(3, Duration::from_secs(60));
        assert_eq!(closed.cooldown_remaining(), None);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(2, Duration::from_secs(60));
        b.record_failure();
        assert_eq!(b.record_success(), None, "closed stays closed");
        b.record_failure();
        assert_eq!(b.record_failure(), Some(BreakerTransition::Opened));
    }

    #[test]
    fn half_opens_after_cooldown_then_closes_on_probe_success() {
        let b = CircuitBreaker::new(1, Duration::from_millis(5));
        assert_eq!(b.record_failure(), Some(BreakerTransition::Opened));
        assert!(b.try_admit().is_err(), "cooldown still running");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            b.try_admit().unwrap(),
            Some(BreakerTransition::HalfOpened),
            "cooldown elapsed: probe admitted"
        );
        assert_eq!(b.record_success(), Some(BreakerTransition::Closed));
        assert!(!b.is_open());
        assert_eq!(b.try_admit().unwrap(), None);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let b = CircuitBreaker::new(5, Duration::from_millis(5));
        for _ in 0..5 {
            b.record_failure();
        }
        assert!(b.is_open());
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.try_admit().is_ok());
        assert_eq!(
            b.record_failure(),
            Some(BreakerTransition::Opened),
            "one probe failure trips it again — no threshold wait"
        );
        assert!(b.is_open());
    }
}

//! The shipping policy: chunk size, retry caps and backoff of every
//! shipment the shipping engine runs.

use std::time::Duration;

/// Retry/chunking policy of the shipping layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShippingPolicy {
    /// Payload bytes per chunk.
    pub chunk_bytes: usize,
    /// Transmission attempts per chunk before the shipment fails
    /// (1 = no retry).
    pub max_attempts_per_chunk: u32,
    /// Total retries one session may spend across all its shipments; a
    /// session on a pathological link degrades to `Failed` instead of
    /// monopolizing the link forever.
    pub retry_budget: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ShippingPolicy {
    fn default() -> ShippingPolicy {
        ShippingPolicy {
            chunk_bytes: 16 * 1024,
            max_attempts_per_chunk: 8,
            retry_budget: 256,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

impl ShippingPolicy {
    /// Simulated backoff before retry number `failed_attempts`
    /// (1-based): `base · 2^(n-1)`, capped.
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let shift = failed_attempts.saturating_sub(1).min(20);
        (self.backoff_base * (1u32 << shift)).min(self.backoff_cap)
    }
}

/// A transmission consumed the link but delivered a *different* verified
/// frame (reordering pipeline) or parked ours in the deferred queue.
/// Bounded: the link's deferred queue holds at most a handful of frames,
/// so a parked chunk reappears within that many transmissions. The cap
/// turns a hypothetically livelocked loop into a counted failure.
pub(crate) const MAX_STALLS_PER_CHUNK: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ShippingPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..ShippingPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(5), Duration::from_millis(100));
        assert_eq!(policy.backoff(30), Duration::from_millis(100));
    }
}

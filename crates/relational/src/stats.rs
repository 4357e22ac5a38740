//! Operation counters — the "cost interface" systems expose to the
//! middleware (paper Section 2: systems "implement an interface to provide
//! the cost of each primitive operation").

use std::fmt;

/// Counters accumulated by engine operations.
///
/// These are *work* measures, deliberately hardware-independent: the cost
/// model in `xdx-core` converts them into time-like costs via per-system
/// speed factors, which is how the paper models systems of different
/// processing power (Section 5.4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rows read by scans.
    pub rows_read: u64,
    /// Rows produced by operators.
    pub rows_out: u64,
    /// Rows appended to stored tables.
    pub rows_written: u64,
    /// Sort/merge comparisons performed.
    pub comparisons: u64,
    /// Hash-table probes performed.
    pub hash_probes: u64,
    /// Index entries inserted during index builds.
    pub index_inserts: u64,
    /// Bytes serialized for shipping.
    pub bytes_out: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        self.rows_read += other.rows_read;
        self.rows_out += other.rows_out;
        self.rows_written += other.rows_written;
        self.comparisons += other.comparisons;
        self.hash_probes += other.hash_probes;
        self.index_inserts += other.index_inserts;
        self.bytes_out += other.bytes_out;
    }

    /// Difference (`self - other`), saturating; used to attribute work to
    /// a single operation by snapshotting before/after.
    pub fn delta(&self, before: &Counters) -> Counters {
        Counters {
            rows_read: self.rows_read.saturating_sub(before.rows_read),
            rows_out: self.rows_out.saturating_sub(before.rows_out),
            rows_written: self.rows_written.saturating_sub(before.rows_written),
            comparisons: self.comparisons.saturating_sub(before.comparisons),
            hash_probes: self.hash_probes.saturating_sub(before.hash_probes),
            index_inserts: self.index_inserts.saturating_sub(before.index_inserts),
            bytes_out: self.bytes_out.saturating_sub(before.bytes_out),
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read={} out={} written={} cmp={} probe={} idx={} bytes={}",
            self.rows_read,
            self.rows_out,
            self.rows_written,
            self.comparisons,
            self.hash_probes,
            self.index_inserts,
            self.bytes_out
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = Counters {
            rows_read: 10,
            comparisons: 5,
            ..Default::default()
        };
        let b = Counters {
            rows_read: 3,
            rows_out: 7,
            ..Default::default()
        };
        let before = a;
        a.merge(&b);
        assert_eq!(a.delta(&before), b);
    }

    #[test]
    fn display_mentions_all_fields() {
        let c = Counters {
            bytes_out: 9,
            ..Default::default()
        };
        assert!(c.to_string().contains("bytes=9"));
    }
}

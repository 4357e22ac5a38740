//! Step-by-step timing breakdowns.
//!
//! Both pipelines report against the same step taxonomy so that Figure 9's
//! stacked comparison (processing at source, communication, shredding,
//! loading, indexing) can be produced for either strategy.

use std::fmt;
use std::time::Duration;

/// Durations of the end-to-end steps (zero where a strategy skips a step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimes {
    /// Optimized DE: probing the databases and planning the program.
    pub planning: Duration,
    /// Optimized DE Step 1 / publish&map Step 1: queries at the source.
    pub source_queries: Duration,
    /// Publish&map Step 2: tagging query results into XML.
    pub tagging: Duration,
    /// Optimized DE: encoding shipped feeds for the wire and decoding
    /// them at the target (publish&map's XML writing is in `tagging`, its
    /// parsing in `shredding`).
    pub codec: Duration,
    /// Shipping over the (simulated) wide-area link.
    pub communication: Duration,
    /// Optimized DE Step 3: queries at the target.
    pub target_queries: Duration,
    /// Publish&map Step 4: parsing + shredding at the target.
    pub shredding: Duration,
    /// Loading shredded/shipped data into the target database.
    pub loading: Duration,
    /// Rebuilding the target's indexes.
    pub indexing: Duration,
}

impl StepTimes {
    /// Sum of all steps.
    pub fn total(&self) -> Duration {
        self.planning
            + self.source_queries
            + self.tagging
            + self.codec
            + self.communication
            + self.target_queries
            + self.shredding
            + self.loading
            + self.indexing
    }

    /// Total of the steps that differ between strategies (the paper's
    /// "ignore loading and indexing of the target database, which are the
    /// same between DE and PM").
    pub fn total_excluding_load_index(&self) -> Duration {
        self.total() - self.loading - self.indexing
    }
}

impl fmt::Display for StepTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1000.0;
        write!(
            f,
            "plan {:.1}ms | src {:.1}ms | tag {:.1}ms | codec {:.1}ms | comm {:.1}ms | tgt {:.1}ms | shred {:.1}ms | load {:.1}ms | idx {:.1}ms | total {:.1}ms",
            ms(self.planning),
            ms(self.source_queries),
            ms(self.tagging),
            ms(self.codec),
            ms(self.communication),
            ms(self.target_queries),
            ms(self.shredding),
            ms(self.loading),
            ms(self.indexing),
            ms(self.total())
        )
    }
}

/// Full record of one end-to-end transfer.
#[derive(Debug, Clone, Default)]
pub struct ExchangeReport {
    /// `"DE"` (optimized data exchange) or `"PM"` (publish&map).
    pub strategy: String,
    /// Scenario label, e.g. `"MF->LF"`.
    pub scenario: String,
    /// Per-step durations.
    pub times: StepTimes,
    /// Bytes shipped over the link.
    pub bytes_shipped: u64,
    /// Messages shipped over the link.
    pub messages: usize,
    /// (scans, combines, splits, writes) executed.
    pub op_counts: (usize, usize, usize, usize),
    /// Rows loaded into the target.
    pub rows_loaded: u64,
}

impl fmt::Display for ExchangeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}: {}", self.strategy, self.scenario, self.times)?;
        write!(
            f,
            "  shipped {} bytes in {} message(s); ops S/C/Sp/W = {}/{}/{}/{}; {} rows loaded",
            self.bytes_shipped,
            self.messages,
            self.op_counts.0,
            self.op_counts.1,
            self.op_counts.2,
            self.op_counts.3,
            self.rows_loaded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = StepTimes {
            planning: Duration::from_millis(2),
            source_queries: Duration::from_millis(10),
            tagging: Duration::from_millis(5),
            codec: Duration::from_millis(6),
            communication: Duration::from_millis(20),
            target_queries: Duration::from_millis(1),
            shredding: Duration::from_millis(7),
            loading: Duration::from_millis(3),
            indexing: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(58));
        assert_eq!(t.total_excluding_load_index(), Duration::from_millis(51));
        let shown = t.to_string();
        assert!(
            shown.contains("plan 2.0ms") && shown.contains("codec 6.0ms"),
            "{shown}"
        );
    }

    #[test]
    fn display_shows_everything() {
        let r = ExchangeReport {
            strategy: "DE".into(),
            scenario: "MF->LF".into(),
            bytes_shipped: 1234,
            messages: 3,
            op_counts: (15, 11, 0, 3),
            rows_loaded: 99,
            ..Default::default()
        };
        let text = r.to_string();
        assert!(text.contains("DE MF->LF"));
        assert!(text.contains("1234 bytes"));
        assert!(text.contains("15/11/0/3"));
    }
}

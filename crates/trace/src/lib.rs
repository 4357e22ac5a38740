//! xdx-trace: the observability layer of the exchange stack.
//!
//! Four pieces, all std-only and safe to call from hot paths:
//!
//! * [`span`] — structured spans (session → plan → per-operator exec →
//!   encode → ship → apply) recorded at completion into a bounded ring,
//!   exportable as chrome://tracing-compatible JSONL.
//! * [`metrics`] — log-linear (HDR-style) histograms plus atomic
//!   counters/gauges registered by name, rendered as Prometheus text
//!   exposition.
//! * [`calibration`] — predicted-vs-observed accounting for the cost
//!   model: per-operator ratios and drift scores, communication byte
//!   ratios, and the fleet-wide ns-per-unit ratio.
//! * [`critical_path`](mod@critical_path) — per-session and per-route stage attribution
//!   (queue → plan → compute → encode → wire → decode → stage → settle)
//!   extracted from a finished span tree.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod critical_path;
pub mod metrics;
pub mod span;

pub use calibration::{CalibrationReport, CalibrationTracker, CommCalibration, OpCalibration};
pub use critical_path::{critical_path, CriticalPathReport, RoutePath, SessionPath, STAGES};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use span::{SpanId, SpanRecord, TraceSink, NO_SPAN};

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

//! Cost-model calibration: predicted vs observed accounting.
//!
//! The planner's `CostModel` prices every operator placement in
//! abstract work units and every cross-site edge in bytes. This module
//! accumulates, per `(operator, location, wire format)`, the total
//! predicted units and the total observed wall nanoseconds, and
//! reports the implied ns-per-unit ratio plus a *drift score* — how
//! far each cell sits from the global ratio, in octaves
//! (`|log2(cell_ratio / global_ratio)|`). A well-calibrated model has
//! every score near 0; a cell at 1.0 runs 2× off the fleet-wide trend.
//!
//! The tracker only reports. It evicts no cached plan: the optimizer is
//! deterministic in its inputs, so a drifted shape re-planned with the
//! same statistics and weights gets the same program back.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::json_escape;

#[derive(Debug, Clone, Default)]
struct Cell {
    predicted: f64,
    observed_ns: u64,
    samples: u64,
}

#[derive(Debug, Clone, Default)]
struct CommCell {
    predicted_bytes: u64,
    observed_bytes: u64,
    observed_ns: u64,
    samples: u64,
}

/// Per-operator calibration row in a [`CalibrationReport`].
#[derive(Debug, Clone)]
pub struct OpCalibration {
    pub op: String,
    pub location: String,
    pub format: String,
    pub predicted_units: f64,
    pub observed_ns: u64,
    pub samples: u64,
    /// Observed nanoseconds per predicted work unit.
    pub ns_per_unit: f64,
    /// `|log2(ns_per_unit / global_ns_per_unit)|` — octaves of
    /// deviation from the fleet-wide trend.
    pub drift_score: f64,
}

/// Per-format communication calibration row.
#[derive(Debug, Clone)]
pub struct CommCalibration {
    pub format: String,
    pub predicted_bytes: u64,
    pub observed_bytes: u64,
    pub observed_ns: u64,
    pub samples: u64,
    /// Observed wire bytes per predicted byte (format compression
    /// shows up here: columnar sits well below 1.0).
    pub bytes_ratio: f64,
}

#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    pub ops: Vec<OpCalibration>,
    pub comm: Vec<CommCalibration>,
    /// Fleet-wide observed ns per predicted unit.
    pub global_ns_per_unit: f64,
}

impl CalibrationReport {
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.comm.is_empty()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":\"{}\",\"location\":\"{}\",\"format\":\"{}\",\"predicted_units\":{:.3},\
                 \"observed_ns\":{},\"samples\":{},\"ns_per_unit\":{:.3},\"drift_score\":{:.4}}}",
                json_escape(&op.op),
                json_escape(&op.location),
                json_escape(&op.format),
                op.predicted_units,
                op.observed_ns,
                op.samples,
                op.ns_per_unit,
                op.drift_score,
            ));
        }
        out.push_str("],\"comm\":[");
        for (i, c) in self.comm.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"format\":\"{}\",\"predicted_bytes\":{},\"observed_bytes\":{},\
                 \"observed_ns\":{},\"samples\":{},\"bytes_ratio\":{:.4}}}",
                json_escape(&c.format),
                c.predicted_bytes,
                c.observed_bytes,
                c.observed_ns,
                c.samples,
                c.bytes_ratio,
            ));
        }
        out.push_str(&format!(
            "],\"global_ns_per_unit\":{:.3}}}",
            self.global_ns_per_unit
        ));
        out
    }
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "calibration: global {:.1} ns/unit",
            self.global_ns_per_unit
        )?;
        for op in &self.ops {
            writeln!(
                f,
                "  {:<8} @{:<8} [{}] predicted {:>12.1}u observed {:>12}ns -> {:>9.1} ns/u (drift {:.2})",
                op.op, op.location, op.format, op.predicted_units, op.observed_ns, op.ns_per_unit, op.drift_score
            )?;
        }
        for c in &self.comm {
            writeln!(
                f,
                "  comm [{}] predicted {:>10}B observed {:>10}B ({:.3}x) in {}ns",
                c.format, c.predicted_bytes, c.observed_bytes, c.bytes_ratio, c.observed_ns
            )?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct State {
    ops: BTreeMap<(String, String, String), Cell>,
    comm: BTreeMap<String, CommCell>,
}

/// Thread-safe predicted-vs-observed accumulator.
#[derive(Default)]
pub struct CalibrationTracker {
    state: Mutex<State>,
}

impl CalibrationTracker {
    pub fn new() -> Self {
        CalibrationTracker::default()
    }

    /// Record one operator execution: `predicted` in cost-model work
    /// units, `observed_ns` in wall nanoseconds.
    pub fn record_op(
        &self,
        op: &str,
        location: &str,
        format: &str,
        predicted: f64,
        observed_ns: u64,
    ) {
        let mut s = self.state.lock().unwrap();
        let cell = s
            .ops
            .entry((op.to_string(), location.to_string(), format.to_string()))
            .or_default();
        cell.predicted += predicted;
        cell.observed_ns += observed_ns;
        cell.samples += 1;
    }

    /// Record one session's communication leg.
    pub fn record_comm(
        &self,
        format: &str,
        predicted_bytes: u64,
        observed_bytes: u64,
        observed_ns: u64,
    ) {
        let mut s = self.state.lock().unwrap();
        let cell = s.comm.entry(format.to_string()).or_default();
        cell.predicted_bytes += predicted_bytes;
        cell.observed_bytes += observed_bytes;
        cell.observed_ns += observed_ns;
        cell.samples += 1;
    }

    pub fn report(&self) -> CalibrationReport {
        let s = self.state.lock().unwrap();
        let total_predicted: f64 = s.ops.values().map(|c| c.predicted).sum();
        let total_observed: u64 = s.ops.values().map(|c| c.observed_ns).sum();
        let global = if total_predicted > 0.0 {
            total_observed as f64 / total_predicted
        } else {
            0.0
        };
        let ops = s
            .ops
            .iter()
            .map(|((op, location, format), cell)| {
                let ns_per_unit = if cell.predicted > 0.0 {
                    cell.observed_ns as f64 / cell.predicted
                } else {
                    0.0
                };
                let drift_score = if ns_per_unit > 0.0 && global > 0.0 {
                    (ns_per_unit / global).log2().abs()
                } else {
                    0.0
                };
                OpCalibration {
                    op: op.clone(),
                    location: location.clone(),
                    format: format.clone(),
                    predicted_units: cell.predicted,
                    observed_ns: cell.observed_ns,
                    samples: cell.samples,
                    ns_per_unit,
                    drift_score,
                }
            })
            .collect();
        let comm = s
            .comm
            .iter()
            .map(|(format, cell)| CommCalibration {
                format: format.clone(),
                predicted_bytes: cell.predicted_bytes,
                observed_bytes: cell.observed_bytes,
                observed_ns: cell.observed_ns,
                samples: cell.samples,
                bytes_ratio: if cell.predicted_bytes > 0 {
                    cell.observed_bytes as f64 / cell.predicted_bytes as f64
                } else {
                    0.0
                },
            })
            .collect();
        CalibrationReport {
            ops,
            comm,
            global_ns_per_unit: global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_ratios_and_drift_scores() {
        let t = CalibrationTracker::new();
        t.record_op("Scan", "source", "xml", 100.0, 10_000);
        t.record_op("Write", "target", "xml", 100.0, 40_000);
        let r = t.report();
        assert_eq!(r.ops.len(), 2);
        let scan = r.ops.iter().find(|o| o.op == "Scan").unwrap();
        let write = r.ops.iter().find(|o| o.op == "Write").unwrap();
        assert!((scan.ns_per_unit - 100.0).abs() < 1e-9);
        assert!((write.ns_per_unit - 400.0).abs() < 1e-9);
        assert!((r.global_ns_per_unit - 250.0).abs() < 1e-9);
        // Scan runs 2.5x under trend, Write 1.6x over.
        assert!(scan.drift_score > 1.0 && write.drift_score > 0.5);
        assert!(!r.is_empty());
        let json = r.to_json();
        assert!(json.contains("\"op\":\"Scan\""));
        assert!(json.contains("\"global_ns_per_unit\""));
    }

    #[test]
    fn comm_ratio_reflects_compression() {
        let t = CalibrationTracker::new();
        t.record_comm("columnar", 1_000, 400, 5_000);
        let r = t.report();
        assert_eq!(r.comm.len(), 1);
        assert!((r.comm[0].bytes_ratio - 0.4).abs() < 1e-9);
    }
}

//! The metric names every later change refers to, with their units,
//! directions and bounds, plus the small statistics and procfs readers
//! the measurements need. `BENCHMARK.json` lists the same names; the
//! smoke test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the base value by which the metric
    /// may worsen before `compare` marks it.
    pub bound: f64,
    /// A count made by the program: two runs of one seed must agree on
    /// it to the last digit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. `failed_ops_share` is the seventh
/// row of every ledger but not of `BENCHMARK.json`: it is expected to
/// be 0, and the driver takes failures from the result line's `failed`
/// and `attempted` instead.
///
/// The bounds are sized to this box, not to the issue's 10%: ten runs
/// of one binary on ten seeds spread (first to third quartile) by up
/// to 19% of the median on the timings and 14% on the memory peak —
/// the single-threaded `pm_baseline` as much as the rest — because
/// the host steals CPU from the box for minutes at a time (README,
/// *Run-to-run spread*). A bound inside that spread would fail
/// unchanged code.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("exchange_mb_per_s", "MB/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_doc_mb", "ms/MB", Lower, 0.25),
    // Exact for one seed; across seeds the resync ratio moves by 1.2%
    // with what the churn happens to rewrite.
    MetricDef {
        exact: true,
        ..e2e("wire_bytes_per_doc_byte", "ratio", Lower, 0.05)
    },
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

pub const FAILED_OPS_SHARE: MetricDef = count("failed_ops_share", "ratio", Lower);

/// One number per layer boundary, from the traced run. A metric that
/// does not apply to a workload (no runtime under `pm_baseline`, no
/// patch codec under `bulk_combine`) reads 0 there.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("xml.parse_ns_per_byte", "ns/byte", Lower),
    layer("core.publish_ns_per_byte", "ns/byte", Lower),
    layer("core.shred_ns_per_byte", "ns/byte", Lower),
    layer("core.probe_us_per_session", "us", Lower),
    layer("core.plan_us_cold", "us", Lower),
    layer("core.exec_source_ns_per_row", "ns/row", Lower),
    layer("core.exec_target_ns_per_row", "ns/row", Lower),
    layer("core.scan_ns_per_row", "ns/row", Lower),
    layer("core.combine_ns_per_row", "ns/row", Lower),
    layer("core.split_ns_per_row", "ns/row", Lower),
    layer("core.write_ns_per_row", "ns/row", Lower),
    layer("relational.load_ns_per_row", "ns/row", Lower),
    layer("relational.index_ns_per_row", "ns/row", Lower),
    layer("relational.stage_patch_ns_per_step", "ns/step", Lower),
    layer("codec.columnar.encode_ns_per_byte", "ns/byte", Lower),
    layer("codec.columnar.decode_ns_per_byte", "ns/byte", Lower),
    count("codec.columnar.bytes_per_xml_byte", "ratio", Lower),
    layer("codec.xml.encode_ns_per_byte", "ns/byte", Lower),
    layer("codec.xml.decode_ns_per_byte", "ns/byte", Lower),
    layer("codec.patch.encode_ns_per_byte", "ns/byte", Lower),
    layer("codec.patch.decode_ns_per_byte", "ns/byte", Lower),
    layer("net.frame_ns_per_byte", "ns/byte", Lower),
    layer("net.transmit_ns_per_byte", "ns/byte", Lower),
    count("net.chunks_per_mb", "1/MB", Lower),
    layer("delta.diff_ns_per_row", "ns/row", Lower),
    layer("delta.record_ns_per_row", "ns/row", Lower),
    count("delta.patch_bytes_per_full_byte", "ratio", Lower),
    layer("runtime.queue_wait_p50_us", "us", Lower),
    layer("runtime.planning_p50_us", "us", Lower),
    layer("runtime.plan_cache_hit_share", "share", Higher),
    layer("runtime.overhead_us_per_session", "us", Lower),
    layer("runtime.latency_tail_ms", "ms", Lower),
    count("runtime.messages_serialized_per_session", "count", Lower),
    count("runtime.bytes_encoded_per_doc_byte", "ratio", Lower),
    count("runtime.chunks_retried", "count", Lower),
    count("runtime.multicast_shared_share", "share", Higher),
    count("runtime.multicast_encode_fallback", "count", Lower),
    layer("trace.stage_ns_per_byte.queue", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.plan", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.compute", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.encode", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.wire", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.decode", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.stage", "ns/byte", Lower),
    layer("trace.stage_ns_per_byte.settle", "ns/byte", Lower),
    layer("trace.coverage", "share", Higher),
    layer("trace.runtime_overhead_pct", "%", Lower),
    layer("bench.replay_coverage", "share", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, capped
/// at p99, and its value: `(percentile, value)`. With 20 samples or
/// fewer there is no such percentile and the median stands in.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 20 {
        return (50.0, median(&v));
    }
    let rank = usize::max(n - 11, n / 2).min((n as f64 * 0.99) as usize);
    (100.0 * rank as f64 / n as f64, v[rank])
}

/// First field of a `schedstat` file: nanoseconds the task has spent
/// on a CPU, as the scheduler counted them.
fn on_cpu_ns(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of the calling thread. A client reads it around
/// the timed part of each op, so what it spends there counts and what
/// it spends preparing inputs and checking outputs does not.
pub fn thread_cpu_ns() -> u64 {
    on_cpu_ns("/proc/thread-self/schedstat".as_ref()).unwrap_or(0)
}

/// Name of the closed loop's client threads.
pub const CLIENT_THREAD: &str = "bench-client";

/// On-CPU nanoseconds summed over the threads alive now that are not
/// clients — the runtime's workers and engine driver, and the idle main
/// thread. Read at block boundaries; the difference is what the
/// runtime spent in between. The same scheduler clock as
/// `thread_cpu_ns`, at nanosecond grain — the 10 ms ticks of
/// `/proc/self/stat` read 6% above the wall of a single-threaded op.
/// 0 where procfs has no `schedstat`.
pub fn runtime_threads_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .map(|task| task.path())
        .filter(|task| {
            std::fs::read_to_string(task.join("comm")).map_or(true, |c| c.trim() != CLIENT_THREAD)
        })
        .filter_map(|task| on_cpu_ns(&task.join("schedstat")))
        .sum()
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let few: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 7.0));
        // 100 samples: ten beyond rank 89 → p89; 5000 samples cap at p99.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (89.0, 89.0));
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 4950.0));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain([&FAILED_OPS_SHARE])
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + 1);
        assert!(runtime_threads_cpu_ns() > 0 && peak_rss_mb() > 0.0);
    }
}

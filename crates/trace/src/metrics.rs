//! Log-linear histograms and a named-metric registry with Prometheus
//! text exposition.
//!
//! The histogram is HDR-style: values below `2^P` get exact unit
//! buckets; above that, each power-of-two octave is split into `2^P`
//! linear sub-buckets, so the relative quantile error is bounded by
//! `1/2^P` (P = 5 → ≤ 3.125%, and ≤ 1/64 using bucket midpoints).
//! Recording is a single atomic increment per bucket plus count/sum —
//! no locks, safe from any thread, mergeable across histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xdx_sync::lock;

/// Sub-bucket precision bits. 2^5 = 32 sub-buckets per octave.
const PRECISION: u32 = 5;
const SUB: u64 = 1 << PRECISION;
/// Octaves P..=63 each contribute SUB buckets, plus the exact range.
const NUM_BUCKETS: usize = ((64 - PRECISION as usize) + 1) * SUB as usize;

/// Lock-free log-linear histogram of `u64` values.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB {
            value as usize
        } else {
            let exp = 63 - value.leading_zeros(); // exponent of leading bit, >= P
            let sub = ((value >> (exp - PRECISION)) - SUB) as usize;
            (exp - PRECISION + 1) as usize * SUB as usize + sub
        }
    }

    /// Inclusive lower edge of bucket `i`.
    fn lower_bound(i: usize) -> u64 {
        let block = i / SUB as usize;
        let sub = (i % SUB as usize) as u64;
        if block == 0 {
            sub
        } else {
            (SUB + sub) << (block - 1)
        }
    }

    /// Exclusive upper edge of bucket `i`.
    fn upper_bound(i: usize) -> u64 {
        let block = i / SUB as usize;
        let width = if block == 0 {
            1u64
        } else {
            1u64 << (block - 1)
        };
        Self::lower_bound(i).saturating_add(width)
    }

    /// Value a bucket reports for quantiles: its midpoint, which
    /// halves the worst-case relative error vs either edge.
    fn representative(i: usize) -> u64 {
        let lo = Self::lower_bound(i);
        let hi = Self::upper_bound(i);
        lo + (hi - lo - 1) / 2
    }

    pub fn record(&self, value: u64) {
        self.buckets[Self::index_for(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn record_duration_ns(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram's contents into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`], cheap to query repeatedly.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    /// An empty snapshot, mergeable with any live snapshot.
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp the midpoint estimate into the observed range so
                // min/max quantiles are exact.
                return Some(Histogram::representative(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another snapshot into this one (used by the bench to
    /// aggregate per-run histograms; associative and commutative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(inclusive_upper_edge, cumulative_count)` pairs for
    /// Prometheus `le` buckets.
    fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                cum += n;
                out.push((Histogram::upper_bound(i) - 1, cum));
            }
        }
        out
    }
}

/// Monotonically increasing atomic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an externally maintained monotone value (used
    /// when re-emitting pre-existing counters through the registry).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value; stored as `f64` bits.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named metrics, rendered as Prometheus text exposition.
///
/// Names may carry a label set in braces — e.g.
/// `xdx_op_wall_ns{op="Scan",location="source"}` — which the renderer
/// splices `le` into for histogram buckets. `BTreeMap` keeps the
/// output stably sorted.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = lock(&self.metrics);
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Render every registered metric as Prometheus text exposition.
    pub fn render(&self) -> String {
        let m = lock(&self.metrics);
        let mut out = String::new();
        let mut typed: BTreeMap<&str, &str> = BTreeMap::new();
        for (name, metric) in m.iter() {
            let (base, labels) = split_labels(name);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if typed.insert(base, kind).is_none() {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (le, cum) in snap.cumulative() {
                        out.push_str(&format!(
                            "{} {cum}\n",
                            with_label(base, labels, &format!("le=\"{le}\""))
                        ));
                    }
                    out.push_str(&format!(
                        "{} {cum}\n",
                        with_label(base, labels, "le=\"+Inf\""),
                        cum = snap.count()
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        suffixed(base, labels, "_sum"),
                        snap.sum()
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        suffixed(base, labels, "_count"),
                        snap.count()
                    ));
                }
            }
        }
        out
    }
}

/// Split `name{a="1"}` into (`name`, `Some("a=\"1\"")`).
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(name[i + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

/// `base_bucket{labels,extra}` — histogram bucket sample name.
fn with_label(base: &str, labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(l) if !l.is_empty() => format!("{base}_bucket{{{l},{extra}}}"),
        _ => format!("{base}_bucket{{{extra}}}"),
    }
}

fn suffixed(base: &str, labels: Option<&str>, suffix: &str) -> String {
    match labels {
        Some(l) if !l.is_empty() => format!("{base}{suffix}{{{l}}}"),
        _ => format!("{base}{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_precision_range() {
        let h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            let snap = h.snapshot();
            let q = (v + 1) as f64 / SUB as f64;
            assert_eq!(snap.quantile(q), Some(v));
        }
    }

    #[test]
    fn relative_error_bounded() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 50_000, 1 << 33, u64::MAX / 3] {
            let i = Histogram::index_for(v);
            let lo = Histogram::lower_bound(i);
            let hi = Histogram::upper_bound(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi})");
            let rep = Histogram::representative(i) as f64;
            assert!((rep - v as f64).abs() / v as f64 <= 1.0 / SUB as f64);
            h.record(v);
        }
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn min_max_quantiles_exact() {
        let h = Histogram::new();
        h.record(37);
        h.record(99_991);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), Some(37));
        assert_eq!(s.min(), Some(37));
        assert_eq!(s.max(), Some(99_991));
        let p100 = s.quantile(1.0).unwrap();
        assert!(p100 <= 99_991 && (99_991 - p100) as f64 / 99_991.0 <= 1.0 / SUB as f64);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 1_000_010);
        assert_eq!(a.snapshot().min(), Some(10));
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let reg = MetricsRegistry::new();
        reg.counter("xdx_sessions_total").add(3);
        reg.gauge("xdx_queue_depth").set(2.0);
        let h = reg.histogram("xdx_op_wall_ns{op=\"Scan\",location=\"source\"}");
        h.record(100);
        h.record(200);
        let text = reg.render();
        assert!(text.contains("# TYPE xdx_sessions_total counter"));
        assert!(text.contains("xdx_sessions_total 3"));
        assert!(text.contains("# TYPE xdx_queue_depth gauge"));
        assert!(text.contains("# TYPE xdx_op_wall_ns histogram"));
        assert!(
            text.contains("xdx_op_wall_ns_bucket{op=\"Scan\",location=\"source\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("xdx_op_wall_ns_sum{op=\"Scan\",location=\"source\"} 300"));
        assert!(text.contains("xdx_op_wall_ns_count{op=\"Scan\",location=\"source\"} 2"));
    }

    #[test]
    fn registry_returns_same_instance() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.add(1);
        assert_eq!(b.get(), 1);
    }

    /// Asking for a name under a second kind is a caller's bug and
    /// panics, but it leaves the registry working: the next scrape
    /// renders and the next name registers.
    #[test]
    fn a_kind_clash_leaves_the_registry_working() {
        let reg = MetricsRegistry::new();
        reg.gauge("x").set(1.5);
        let clash = std::panic::catch_unwind(|| reg.counter("x"));
        assert!(clash.is_err());
        reg.counter("y").add(2);
        let text = reg.render();
        assert!(text.contains("x 1.5"), "{text}");
        assert!(text.contains("y 2"), "{text}");
    }
}

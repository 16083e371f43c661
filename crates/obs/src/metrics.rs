//! Lock-free metric primitives and the labeled registry.
//!
//! ## Counters and gauges
//!
//! [`Counter`] (monotone `u64`) and [`Gauge`] (signed level) are single
//! atomics — recording is one `fetch_add`/`store` with relaxed ordering,
//! which is all a statistical gauge needs.
//!
//! ## Log2 histograms
//!
//! [`Histogram`] buckets a `u64` sample by its bit length: bucket 0 holds
//! the value 0, bucket `k ≥ 1` holds `[2^(k-1), 2^k)`. Recording is a
//! `leading_zeros` plus three relaxed `fetch_add`s — no locks, no
//! allocation, safe from any thread. Quantile readout walks the 65 bucket
//! counters and linearly interpolates inside the target bucket, so a
//! reported quantile always lies **within the same power-of-two bucket**
//! as the exact quantile of the recorded samples (relative error < 2×,
//! the standard trade of log-bucketed latency histograms). `count` and
//! `sum` are exact.
//!
//! ## The registry
//!
//! A [`MetricsRegistry`] maps `(name, sorted label pairs)` to a metric
//! handle. Handle lookup takes the registry lock; instrumented code does
//! it **once at construction** and caches the `Arc`, so the hot path
//! never contends. Snapshots ([`MetricsRegistry::snapshot`],
//! [`prometheus_text`](MetricsRegistry::prometheus_text),
//! [`json`](MetricsRegistry::json)) iterate a `BTreeMap`, so exposition
//! order is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets of a [`Histogram`]: bucket 0 for the value 0,
/// buckets 1..=64 for each bit length of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter. Recording is one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level gauge. Recording is one relaxed `store`/`fetch_add`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples; see the module docs for
/// the bucketing scheme and the quantile error bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else its bit length (1..=64).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `k`.
fn bucket_lo(k: usize) -> u64 {
    match k {
        0 => 0,
        _ => 1u64 << (k - 1),
    }
}

/// Inclusive upper bound of bucket `k`.
fn bucket_hi(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample: a `leading_zeros` and two relaxed adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Exact sum of recorded samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples,
    /// interpolated within its log2 bucket — always inside the same
    /// power-of-two bucket as the exact quantile. Returns 0 when empty.
    ///
    /// Self-consistent under concurrent recording: the walk uses one
    /// coherent read of the bucket array as its own total.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0;
        }
        // 1-based rank of the order statistic holding the quantile.
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate the rank's position within the bucket; the
                // result stays inside [lo, hi] by construction.
                let (lo, hi) = (bucket_lo(k), bucket_hi(k));
                let into = (rank - seen - 1) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * into) as u64;
            }
            seen += c;
        }
        bucket_hi(HISTOGRAM_BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One metric handle stored in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The value part of one [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram summary: exact count and sum, bucketed quantiles.
    Histogram {
        /// Exact number of samples.
        count: u64,
        /// Exact sum of samples.
        sum: u64,
        /// Median (log2-bucket interpolated).
        p50: u64,
        /// 95th percentile.
        p95: u64,
        /// 99th percentile.
        p99: u64,
    },
}

/// One metric with its labels, as read by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name, e.g. `tp_stage_duration_ns`.
    pub name: String,
    /// Sorted label pairs, e.g. `[("stage","sweep"),("tenant","zurich")]`.
    pub labels: Vec<(String, String)>,
    /// The current value.
    pub value: MetricValue,
}

/// Key of one registered metric: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// A labeled metric registry; see the module docs. Cheap to share behind
/// an `Arc`; [`global`] returns the process-wide default instance.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter `name{labels}`. Panics if the same
    /// id was registered as a different metric type (programmer error).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Reads every registered metric, in deterministic (name, labels)
    /// order.
    pub fn snapshot(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics
            .iter()
            .map(|(id, metric)| Sample {
                name: id.name.clone(),
                labels: id.labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                    },
                },
            })
            .collect()
    }

    /// Prometheus-style text exposition: `# TYPE` per family, counters
    /// and gauges as plain samples, histograms as summaries
    /// (`{quantile="…"}` plus `_sum`/`_count`).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for s in self.snapshot() {
            if s.name != last_family {
                let kind = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram { .. } => "summary",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", s.name));
                last_family = s.name.clone();
            }
            match s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, prom_labels(&s.labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, prom_labels(&s.labels, None)));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p95,
                    p99,
                } => {
                    for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
                        out.push_str(&format!(
                            "{}{} {v}\n",
                            s.name,
                            prom_labels(&s.labels, Some(q))
                        ));
                    }
                    let plain = prom_labels(&s.labels, None);
                    out.push_str(&format!("{}_sum{plain} {sum}\n", s.name));
                    out.push_str(&format!("{}_count{plain} {count}\n", s.name));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"metrics":[{"name":…,"labels":{…},…}, …]}`.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{}", crate::json::escape(&s.name)));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{}:{}",
                    crate::json::escape(k),
                    crate::json::escape(v)
                ));
            }
            out.push('}');
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"))
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}"))
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p95,
                    p99,
                } => out.push_str(&format!(
                    ",\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                     \"p50\":{p50},\"p95\":{p95},\"p99\":{p99}"
                )),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders `{k="v",…}` (with an optional `quantile` label appended), or
/// the empty string when there are no labels at all.
fn prom_labels(labels: &[(String, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// The process-wide default registry — what the engine, server, arena and
/// repl record into unless handed a private instance.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits_total", &[("side", "l")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same id returns the same handle.
        assert_eq!(reg.counter("hits_total", &[("side", "l")]).get(), 5);
        let g = reg.gauge("level", &[]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1111);
        // p50 of [0,1,1,2,3,4,100,1000] is the 4th order stat (2): its
        // bucket is [2,3].
        let p50 = h.p50();
        assert!((2..=3).contains(&p50), "p50 {p50}");
        // p99 → 8th order stat (1000): bucket [512,1023].
        let p99 = h.p99();
        assert!((512..=1023).contains(&p99), "p99 {p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_hi(64), u64::MAX);
        assert_eq!(bucket_lo(64), 1u64 << 63);
    }

    #[test]
    fn snapshot_and_renderings_are_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[("tenant", "x")]).add(2);
        reg.gauge("a_level", &[]).set(-3);
        reg.histogram("lat_ns", &[("stage", "sweep")]).record(77);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        // BTreeMap order: a_level, b_total, lat_ns.
        assert_eq!(snap[0].name, "a_level");
        assert_eq!(snap[1].name, "b_total");
        assert_eq!(snap[2].name, "lat_ns");
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE a_level gauge"));
        assert!(text.contains("a_level -3"));
        assert!(text.contains("b_total{tenant=\"x\"} 2"));
        assert!(
            text.contains("lat_ns{quantile=\"0.5\",stage=\"sweep\"} ")
                || text.contains("lat_ns{stage=\"sweep\",quantile=\"0.5\"} ")
        );
        assert!(text.contains("lat_ns_count{stage=\"sweep\"} 1"));
        let json = reg.json();
        crate::json::validate(&json).expect("snapshot JSON parses");
        assert!(json.contains("\"name\":\"lat_ns\""));
        assert!(json.contains("\"type\":\"histogram\""));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }
}

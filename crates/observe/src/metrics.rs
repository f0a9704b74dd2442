//! Lock-light typed metrics: counters, gauges, fixed-bucket
//! histograms, and the registry that names them.
//!
//! Update paths are wait-free relaxed atomics on pre-bound [`Arc`]
//! handles; the only mutex in the module guards the name → handle maps
//! and is taken on handle creation and [`Registry::snapshot`] — never
//! per update. A counter is one atomic: the serve counters are bumped
//! under the service's stats lock and the engine ones once per
//! iteration, so no update path is hot enough to contend on it.
//!
//! Snapshot semantics: values are read with relaxed loads, so a
//! snapshot taken mid-update is a *consistent per-metric* view (each
//! counter is monotone across snapshots) but not a cross-metric
//! transaction — two counters incremented together may differ by
//! in-flight updates. That is the contract the concurrency tests pin.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;

/// A monotone event counter on one relaxed atomic.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` (wait-free).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total. Monotone across calls (counters only grow);
    /// concurrent `add`s may or may not be visible yet.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, in-flight jobs).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket bounds in microseconds: 100µs … ~100s in
/// half-decade steps, plus the implicit overflow bucket.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    100,
    316,
    1_000,
    3_160,
    10_000,
    31_600,
    100_000,
    316_000,
    1_000_000,
    3_160_000,
    10_000_000,
    31_600_000,
    100_000_000,
];

/// A fixed-bound histogram of `u64` samples (typically microseconds).
///
/// `counts[i]` counts samples `<= bounds[i]`; the final slot counts
/// overflow. `count`/`sum` track totals for mean computation. All
/// fields are relaxed atomics — recording is two `fetch_add`s plus a
/// binary search over the static bounds.
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (must be sorted ascending).
    pub fn new(bounds: &'static [u64]) -> Self {
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        counts.resize_with(bounds.len() + 1, AtomicU64::default);
        Histogram {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`] state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (ascending); the overflow bucket is implicit.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Named metric handles. Handle creation is get-or-create by `'static`
/// name; repeated lookups return the same underlying atomic storage, so
/// callers bind handles once and update lock-free thereafter.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created zeroed on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later calls ignore `bounds` and return the existing handle).
    pub fn histogram(&self, name: &'static str, bounds: &'static [u64]) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Reads every metric into plain sorted maps.
    pub fn snapshot(&self) -> MetricsValues {
        MetricsValues {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time read of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsValues {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsValues {
    /// Renders `{"counters": {...}, "gauges": {...}, "histograms":
    /// {...}}` with keys in sorted order (BTreeMap iteration).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_json_string(&mut out, k);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_json_string(&mut out, k);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_json_string(&mut out, k);
            out.push_str(": {\"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push_str("], \"counts\": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str("], \"count\": ");
            out.push_str(&h.count.to_string());
            out.push_str(", \"sum\": ");
            out.push_str(&h.sum.to_string());
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_tracks_adds_and_sets() {
        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.record(5); // bucket 0 (<= 10)
        h.record(10); // bucket 0 (<= 10)
        h.record(50); // bucket 1
        h.record(5000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 0, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5065);
        assert!((s.mean() - 5065.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("jobs");
        let b = r.counter("jobs");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counters["jobs"], 5);
    }

    #[test]
    fn snapshot_json_is_parseable_and_sorted() {
        let r = Registry::new();
        r.counter("b_count").add(2);
        r.counter("a_count").add(1);
        r.gauge("depth").set(-3);
        r.histogram("lat_us", &[10, 100]).record(42);
        let js = r.snapshot().to_json();
        let parsed = crate::Json::parse(&js).unwrap();
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("a_count").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(counters.get("b_count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("depth"))
                .and_then(|v| v.as_f64()),
            Some(-3.0)
        );
        let h = parsed
            .get("histograms")
            .and_then(|h| h.get("lat_us"))
            .unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(h.get("sum").and_then(|v| v.as_f64()), Some(42.0));
    }
}

//! The metrics registry: named families of counters, gauges, and histograms.
//!
//! Registration is the only locked path. A handle returned by the registry
//! owns an `Arc` straight to the atomics backing its series, so instrumented
//! code updates a metric with one relaxed atomic RMW — the registry's mutex,
//! the family map, and the label strings are never touched again.
//!
//! Registration is get-or-create: asking twice for the same `(name, labels)`
//! pair returns handles to the same series, which lets independent layers
//! (or repeated simulation runs) accumulate into one counter without
//! coordinating. Registering a name under two different metric kinds is a
//! programming error and panics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic counter. `store` exists for the one sanctioned exception to
/// monotonic increments: mirroring an authoritative counter kept elsewhere
/// (the fleet's lease table) into the registry under that structure's lock.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — only for mirroring an external source of truth.
    #[inline]
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an `f64` stored as its bit pattern in one `AtomicU64`.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop; gauges are not hot-path metrics).
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Backing storage for one histogram series.
pub(crate) struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. One implicit
    /// `+Inf` bucket follows.
    pub(crate) bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries, the last being the `+Inf` bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    /// Sum of observations as `f64` bits.
    pub(crate) sum_bits: AtomicU64,
    /// Total observation count.
    pub(crate) count: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must be strictly increasing");
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    fn add_sum(&self, delta: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.sum_bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

/// A fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &self.0;
        let index = core.bounds.iter().position(|&b| value <= b).unwrap_or(core.bounds.len());
        core.buckets[index].fetch_add(1, Ordering::Relaxed);
        core.add_sum(value);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// Strictly increasing bounds `start, start*factor, …` (`count` values) —
/// the usual latency-bucket shape.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    bounds
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

pub(crate) enum SeriesValue {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

pub(crate) struct Series {
    /// Sorted by label key at registration.
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) value: SeriesValue,
}

pub(crate) struct Family {
    pub(crate) kind: Kind,
    pub(crate) help: String,
    pub(crate) series: Vec<Series>,
}

/// A set of metric families. Cheap to create; the experiment service owns one
/// per instance, the engine publishes into the process-wide [`global()`] one.
#[derive(Default)]
pub struct Registry {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut owned: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    owned.sort();
    owned
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn series_value(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesValue,
    ) -> SeriesValue {
        let labels = sorted_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: Vec::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} but requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return match &series.value {
                SeriesValue::Scalar(cell) => SeriesValue::Scalar(cell.clone()),
                SeriesValue::Histogram(core) => SeriesValue::Histogram(core.clone()),
            };
        }
        let value = make();
        let clone = match &value {
            SeriesValue::Scalar(cell) => SeriesValue::Scalar(cell.clone()),
            SeriesValue::Histogram(core) => SeriesValue::Histogram(core.clone()),
        };
        family.series.push(Series { labels, value });
        clone
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series_value(name, help, Kind::Counter, labels, || {
            SeriesValue::Scalar(Arc::new(AtomicU64::new(0)))
        }) {
            SeriesValue::Scalar(cell) => Counter(cell),
            SeriesValue::Histogram(_) => unreachable!("kind checked above"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series_value(name, help, Kind::Gauge, labels, || {
            SeriesValue::Scalar(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            SeriesValue::Scalar(cell) => Gauge(cell),
            SeriesValue::Histogram(_) => unreachable!("kind checked above"),
        }
    }

    /// Registers (or finds) an unlabeled histogram with the given finite
    /// bucket bounds (strictly increasing; `+Inf` is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or finds) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series_value(name, help, Kind::Histogram, labels, || {
            SeriesValue::Histogram(Arc::new(HistogramCore::new(bounds)))
        }) {
            SeriesValue::Histogram(core) => Histogram(core),
            SeriesValue::Scalar(_) => unreachable!("kind checked above"),
        }
    }

    /// Drops one labeled series (a worker's gauges when it disconnects).
    /// Handles already held keep working but the series no longer renders.
    pub fn remove_series(&self, name: &str, labels: &[(&str, &str)]) {
        let labels = sorted_labels(labels);
        let mut families = self.families.lock().unwrap();
        if let Some(family) = families.get_mut(name) {
            family.series.retain(|s| s.labels != labels);
        }
    }

    /// Renders the registry as Prometheus text exposition (format 0.0.4).
    pub fn render(&self) -> String {
        crate::render::render(self)
    }
}

/// The process-wide registry used by the simulation engine and trackers.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_are_get_or_create() {
        let registry = Registry::new();
        let a = registry.counter("hits_total", "Hits.");
        let b = registry.counter("hits_total", "Hits.");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let registry = Registry::new();
        let x = registry.counter_with("acts_total", "ACTs.", &[("mech", "comet")]);
        let y = registry.counter_with("acts_total", "ACTs.", &[("mech", "hydra")]);
        x.add(2);
        y.add(3);
        assert_eq!(x.get(), 2);
        assert_eq!(y.get(), 3);
    }

    #[test]
    fn label_order_does_not_matter_at_registration() {
        let registry = Registry::new();
        let x = registry.counter_with("c_total", "C.", &[("a", "1"), ("b", "2")]);
        let y = registry.counter_with("c_total", "C.", &[("b", "2"), ("a", "1")]);
        x.inc();
        assert_eq!(y.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        registry.counter("x_total", "X.");
        registry.gauge("x_total", "X.");
    }

    #[test]
    fn gauge_set_add_roundtrip() {
        let registry = Registry::new();
        let g = registry.gauge("depth", "Depth.");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_observe_buckets_and_sum() {
        let registry = Registry::new();
        let h = registry.histogram("lat", "Latency.", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-9);
    }

    #[test]
    fn remove_series_drops_it_from_rendering() {
        let registry = Registry::new();
        let g = registry.gauge_with("worker_busy", "Busy.", &[("worker", "w1")]);
        g.set(1.0);
        assert!(registry.render().contains("worker=\"w1\""));
        registry.remove_series("worker_busy", &[("worker", "w1")]);
        assert!(!registry.render().contains("worker=\"w1\""));
    }

    #[test]
    fn exponential_bounds_are_increasing() {
        let bounds = exponential_bounds(1.0, 2.0, 8);
        assert_eq!(bounds.len(), 8);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}

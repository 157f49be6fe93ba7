//! The thread-safe metrics registry and its instrument cells.
//!
//! Instruments are interned by name: the registry hands out
//! `Arc`-wrapped cells, so a hot loop resolves its counter once and then
//! updates it with a single relaxed atomic op per event — no lock, no
//! string hashing. The name maps themselves sit behind mutexes that are
//! touched only at resolution and snapshot time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Number of histogram buckets. Bucket `i` holds observations whose
/// nanosecond value has its highest set bit at position `i`, i.e. the
/// half-open range `[2^i, 2^(i+1))`, with bucket 0 covering 0–1 ns. A
/// `u64` nanosecond count never needs more than 64 buckets, so the scale
/// is fixed and two histograms are always mergeable bucket-by-bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed measurement (sizes, dimensions, rates ×1e6).
#[derive(Debug, Default)]
pub struct GaugeCell {
    value: AtomicI64,
}

impl GaugeCell {
    /// Overwrites the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is larger than the current value.
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Accumulated monotonic duration for one pipeline stage.
#[derive(Debug, Default)]
pub struct TimerCell {
    total_ns: AtomicU64,
    count: AtomicU64,
}

impl TimerCell {
    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A fixed log₂-scale latency/size distribution.
///
/// The bucket layout is static (see [`HISTOGRAM_BUCKETS`]) so recording
/// is a single index computation plus one atomic increment, and
/// snapshots never reallocate.
#[derive(Debug)]
pub struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket that holds `value`.
pub fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

impl HistogramCell {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Approximate quantile from the log-scale buckets: returns the lower
    /// bound of the bucket containing the `q`-quantile observation.
    pub fn quantile_lower_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets().iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }
}

/// The interning store behind a [`crate::PipelineMetrics`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    timers: Mutex<BTreeMap<String, Arc<TimerCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("metrics registry poisoned");
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<CounterCell> {
        intern(&self.counters, name)
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<GaugeCell> {
        intern(&self.gauges, name)
    }

    /// Resolves (creating on first use) the timer `name`.
    pub fn timer(&self, name: &str) -> Arc<TimerCell> {
        intern(&self.timers, name)
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<HistogramCell> {
        intern(&self.histograms, name)
    }

    /// A point-in-time JSON view of every instrument, grouped by kind.
    ///
    /// Shape (all keys sorted):
    /// `{"counters": {name: n}, "gauges": {name: n},
    ///   "timers": {name: {"count", "total_ns", "mean_ns"}},
    ///   "histograms": {name: {"count", "sum", "p50", "p99", "buckets"}}}`
    pub fn snapshot(&self) -> Json {
        let mut root = Json::object();

        let mut counters = Json::object();
        for (name, cell) in self.counters.lock().expect("poisoned").iter() {
            counters.set(name, Json::UInt(cell.get()));
        }
        root.set("counters", counters);

        let mut gauges = Json::object();
        for (name, cell) in self.gauges.lock().expect("poisoned").iter() {
            gauges.set(name, Json::Int(cell.get()));
        }
        root.set("gauges", gauges);

        let mut timers = Json::object();
        for (name, cell) in self.timers.lock().expect("poisoned").iter() {
            let count = cell.count();
            let total = cell.total_ns();
            let mut entry = Json::object();
            entry.set("count", Json::UInt(count));
            entry.set("total_ns", Json::UInt(total));
            entry.set(
                "mean_ns",
                Json::Float(if count == 0 {
                    0.0
                } else {
                    total as f64 / count as f64
                }),
            );
            timers.set(name, entry);
        }
        root.set("timers", timers);

        let mut histograms = Json::object();
        for (name, cell) in self.histograms.lock().expect("poisoned").iter() {
            let mut entry = Json::object();
            entry.set("count", Json::UInt(cell.count()));
            entry.set("sum", Json::UInt(cell.sum()));
            entry.set("p50", Json::UInt(cell.quantile_lower_bound(0.50)));
            entry.set("p99", Json::UInt(cell.quantile_lower_bound(0.99)));
            // Trailing empty buckets are elided so snapshots stay small;
            // bucket i spans [2^i, 2^(i+1)).
            let buckets = cell.buckets();
            let used = buckets
                .iter()
                .rposition(|&b| b > 0)
                .map_or(0, |last| last + 1);
            entry.set(
                "buckets",
                Json::Array(buckets[..used].iter().map(|&b| Json::UInt(b)).collect()),
            );
            histograms.set(name, entry);
        }
        root.set("histograms", histograms);

        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_resolutions() {
        let reg = Registry::new();
        reg.counter("polish.messages").add(3);
        reg.counter("polish.messages").add(4);
        assert_eq!(reg.counter("polish.messages").get(), 7);
    }

    #[test]
    fn gauges_overwrite_and_track_max() {
        let reg = Registry::new();
        let g = reg.gauge("pool");
        g.set(10);
        g.set(4);
        assert_eq!(g.get(), 4);
        g.set_max(9);
        g.set_max(2);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_land_in_right_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1_000_000); // bucket 19
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_lower_bound(0.50), 64);
        assert_eq!(h.quantile_lower_bound(1.0), 1 << 19);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs real threads racing on one registry"
    )]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = reg.counter("shared");
                let t = reg.timer("stage");
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                        t.record_ns(5);
                    }
                });
            }
        });
        assert_eq!(reg.counter("shared").get(), 8000);
        assert_eq!(reg.timer("stage").count(), 8000);
        assert_eq!(reg.timer("stage").total_ns(), 40_000);
    }

    #[test]
    fn snapshot_shape_and_key_order() {
        let reg = Registry::new();
        reg.counter("b").add(1);
        reg.counter("a").add(2);
        reg.gauge("g").set(-3);
        reg.timer("t").record_ns(10);
        reg.histogram("h").record(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.keys(),
            vec!["counters", "gauges", "histograms", "timers"]
        );
        assert_eq!(snap.get("counters").unwrap().keys(), vec!["a", "b"]);
        let t = snap.get("timers").unwrap().get("t").unwrap();
        assert_eq!(t.get("count"), Some(&Json::UInt(1)));
        assert_eq!(t.get("total_ns"), Some(&Json::UInt(10)));
        let h = snap.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count"), Some(&Json::UInt(1)));
        // Bucket list is truncated after the last non-empty bucket:
        // 7 lands in bucket 2, so exactly three buckets render.
        match h.get("buckets") {
            Some(Json::Array(buckets)) => assert_eq!(buckets.len(), 3),
            other => panic!("expected bucket array, got {other:?}"),
        }
    }
}

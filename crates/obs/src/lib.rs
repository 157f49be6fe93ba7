//! # darklight-obs — pipeline observability
//!
//! A zero-dependency instrumentation subsystem for the darklight
//! attribution pipeline. It provides a thread-safe metrics registry
//! (counters, gauges, monotonic stage timers, and latency histograms
//! with fixed log₂-scale buckets), RAII scoped-timer guards, and a
//! serializer that renders a snapshot as deterministic JSON — no serde,
//! no external crates.
//!
//! ## Design
//!
//! The entry point is [`PipelineMetrics`], a cheaply cloneable handle
//! that is **off by default**. A disabled handle resolves every
//! instrument to a no-op cell, so instrumented code pays one branch (or
//! nothing, where call sites gate on [`PipelineMetrics::is_enabled`])
//! and never allocates. Because instruments only *record* — they are
//! never read back by pipeline code — enabling metrics provably cannot
//! change attribution output; an integration test in the root crate
//! pins that guarantee.
//!
//! Hot paths should resolve instruments once, outside the loop:
//!
//! ```
//! use darklight_obs::PipelineMetrics;
//!
//! let metrics = PipelineMetrics::enabled();
//! let scored = metrics.counter("attrib.queries_scored");
//! for _ in 0..1000 {
//!     scored.incr(); // one relaxed atomic add, no lock, no lookup
//! }
//! let _stage = metrics.timer("attrib.total").start(); // RAII: records on drop
//! assert!(metrics.snapshot().render().contains("attrib.queries_scored"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod registry;

use std::sync::Arc;
use std::time::Instant;

pub use json::Json;
pub use registry::{bucket_index, Registry, HISTOGRAM_BUCKETS};

use registry::{CounterCell, GaugeCell, HistogramCell, TimerCell};

/// The shared, cloneable metrics handle threaded through the pipeline.
///
/// Default-constructed handles are disabled: every instrument they hand
/// out is a no-op and [`snapshot`](PipelineMetrics::snapshot) returns an
/// empty-sectioned document. Clones share the same underlying registry,
/// so a handle given to `Polisher`, `FeatureExtractor`, and `TwoStage`
/// aggregates into one snapshot.
#[derive(Clone, Default)]
pub struct PipelineMetrics {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for PipelineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineMetrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Equality is *configuration* equality: two handles compare equal when
/// both are disabled or both point at the same registry. This lets
/// configuration structs that carry a handle keep deriving `PartialEq`
/// without metric contents affecting config identity.
impl PartialEq for PipelineMetrics {
    fn eq(&self, other: &PipelineMetrics) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PipelineMetrics {
    /// A disabled handle: all instruments are no-ops.
    pub fn disabled() -> PipelineMetrics {
        PipelineMetrics { inner: None }
    }

    /// An enabled handle backed by a fresh registry.
    pub fn enabled() -> PipelineMetrics {
        PipelineMetrics {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves the counter `name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|r| r.counter(name)),
        }
    }

    /// Resolves the gauge `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|r| r.gauge(name)),
        }
    }

    /// Resolves the stage timer `name` (no-op when disabled).
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            cell: self.inner.as_ref().map(|r| r.timer(name)),
        }
    }

    /// Resolves the histogram `name` (no-op when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|r| r.histogram(name)),
        }
    }

    /// A point-in-time JSON view of every instrument. Disabled handles
    /// return a document with the four (empty) sections so consumers see
    /// a stable schema either way.
    pub fn snapshot(&self) -> Json {
        match &self.inner {
            Some(registry) => registry.snapshot(),
            None => Registry::new().snapshot(),
        }
    }

    /// Renders [`snapshot`](PipelineMetrics::snapshot) as pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        self.snapshot().render_pretty()
    }
}

/// A resolved counter handle. See [`PipelineMetrics::counter`].
/// The `Default` handle is a no-op, like every instrument resolved from
/// a disabled [`PipelineMetrics`].
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }
}

/// A resolved gauge handle (no-op by `Default`). See
/// [`PipelineMetrics::gauge`].
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.set(v);
        }
    }

    /// Raises the gauge to `v` if larger than the current value.
    pub fn set_max(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.set_max(v);
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }
}

/// A resolved stage-timer handle (no-op by `Default`). See
/// [`PipelineMetrics::timer`].
#[derive(Clone, Debug, Default)]
pub struct Timer {
    cell: Option<Arc<TimerCell>>,
}

impl Timer {
    /// Starts a monotonic measurement; the returned guard records the
    /// elapsed time when dropped.
    #[expect(
        clippy::disallowed_methods,
        reason = "obs timers measure wall time for metrics only; metrics never steer results"
    )]
    pub fn start(&self) -> ScopedTimer {
        ScopedTimer {
            armed: self
                .cell
                .as_ref()
                .map(|cell| (Instant::now(), Arc::clone(cell))),
        }
    }

    /// Records an externally measured duration.
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_ns(saturating_ns(elapsed));
    }

    /// Records an externally measured duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            cell.record_ns(ns);
        }
    }

    /// Total accumulated nanoseconds (0 when disabled).
    pub fn total_ns(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.total_ns())
    }

    /// Number of recorded observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count())
    }
}

/// A resolved histogram handle (no-op by `Default`). See
/// [`PipelineMetrics::histogram`].
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.record(value);
        }
    }

    /// Number of observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of observed values (0 when disabled).
    pub fn sum(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.sum())
    }

    /// Lower bound of the log₂ bucket holding quantile `q` (0 when
    /// disabled or empty). See
    /// [`HistogramCell::quantile_lower_bound`](registry::HistogramCell::quantile_lower_bound).
    pub fn quantile_lower_bound(&self, q: f64) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.quantile_lower_bound(q))
    }
}

/// RAII guard from [`Timer::start`]: records the elapsed wall-clock time
/// into its timer when dropped. When the parent handle is disabled the
/// guard holds nothing and drop is free — it never even reads the clock.
#[must_use = "a scoped timer measures until dropped; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct ScopedTimer {
    armed: Option<(Instant, Arc<TimerCell>)>,
}

impl ScopedTimer {
    /// Stops the measurement early, recording now instead of at drop.
    pub fn stop(mut self) {
        self.finish();
    }

    /// Abandons the measurement without recording anything.
    pub fn cancel(mut self) {
        self.armed = None;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "obs timers measure wall time for metrics only; metrics never steer results"
    )]
    fn finish(&mut self) {
        if let Some((start, cell)) = self.armed.take() {
            cell.record_ns(saturating_ns(start.elapsed()));
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

fn saturating_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let metrics = PipelineMetrics::disabled();
        assert!(!metrics.is_enabled());
        let c = metrics.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let t = metrics.timer("y");
        drop(t.start());
        assert_eq!(t.count(), 0);
        metrics.histogram("z").record(9);
        assert_eq!(metrics.histogram("z").count(), 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!PipelineMetrics::default().is_enabled());
    }

    #[test]
    fn clones_share_one_registry() {
        let metrics = PipelineMetrics::enabled();
        let clone = metrics.clone();
        clone.counter("shared").add(2);
        metrics.counter("shared").add(3);
        assert_eq!(clone.counter("shared").get(), 5);
        assert_eq!(metrics, clone);
    }

    #[test]
    fn equality_is_registry_identity() {
        assert_eq!(PipelineMetrics::disabled(), PipelineMetrics::disabled());
        let a = PipelineMetrics::enabled();
        let b = PipelineMetrics::enabled();
        assert_ne!(a, b);
        assert_ne!(a, PipelineMetrics::disabled());
        assert_eq!(a, a.clone());
        let _ = b;
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let metrics = PipelineMetrics::enabled();
        let timer = metrics.timer("stage");
        {
            let _guard = timer.start();
            std::hint::black_box(0u64);
        }
        assert_eq!(timer.count(), 1);
    }

    #[test]
    fn scoped_timer_cancel_records_nothing() {
        let metrics = PipelineMetrics::enabled();
        let timer = metrics.timer("stage");
        timer.start().cancel();
        assert_eq!(timer.count(), 0);
        timer.start().stop();
        assert_eq!(timer.count(), 1);
    }

    #[test]
    fn snapshot_has_stable_sections_even_when_disabled() {
        let sections = vec!["counters", "gauges", "histograms", "timers"];
        assert_eq!(PipelineMetrics::disabled().snapshot().keys(), sections);
        assert_eq!(PipelineMetrics::enabled().snapshot().keys(), sections);
    }

    #[test]
    fn json_rendering_contains_recorded_values() {
        let metrics = PipelineMetrics::enabled();
        metrics.counter("polish.messages").add(12);
        metrics.gauge("features.vocab").set(-1);
        let json = metrics.snapshot().render();
        assert!(json.contains("\"polish.messages\":12"));
        assert!(json.contains("\"features.vocab\":-1"));
    }
}

//! Named counters, gauges, and histograms sampled on the virtual clock.
//!
//! [`MetricsRegistry`] is the time-series side of the telemetry layer: the
//! engine registers instruments by name once, updates them as events fire,
//! and calls [`MetricsRegistry::tick`] with the virtual clock after each
//! event.  The registry latches gauge values and records `(time, value)`
//! samples at a configurable interval, so a million-event run yields a
//! bounded series instead of a per-event flood.  Histograms are
//! [`StreamingHistogram`] sketches — percentiles without sample retention.
//!
//! Everything is `Vec`-backed and insertion-ordered: no hash-map iteration
//! anywhere (determinism rule D002), so two identical runs serialize
//! byte-identical registries.

use super::sketch::StreamingHistogram;
use crate::json::JsonValue;

/// Handle to a registered gauge (index into the registry; `Copy`, cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, PartialEq)]
struct Gauge {
    name: String,
    current: f64,
    series: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Counter {
    name: String,
    value: u64,
}

/// A registry of named instruments sampled at a fixed virtual-time
/// interval.
///
/// ```
/// use sx_cluster::telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new(1.0); // sample every virtual second
/// let depth = reg.register_gauge("queue_depth");
/// reg.set_gauge(depth, 3.0);
/// reg.tick(2.5); // samples at t = 0.0, 1.0, 2.0
/// assert_eq!(reg.gauge_series("queue_depth").map(|s| s.len()), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    sample_interval: f64,
    next_due: f64,
    gauges: Vec<Gauge>,
    counters: Vec<Counter>,
    histograms: Vec<(String, StreamingHistogram)>,
}

impl MetricsRegistry {
    /// A registry sampling every `sample_interval` virtual seconds.
    ///
    /// # Panics
    /// Panics unless the interval is finite and positive — a zero interval
    /// would sample unboundedly inside a single [`Self::tick`].
    pub fn new(sample_interval: f64) -> Self {
        assert!(
            sample_interval.is_finite() && sample_interval > 0.0,
            "sample interval {sample_interval} must be finite and positive"
        );
        Self {
            sample_interval,
            next_due: 0.0,
            gauges: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// The configured sampling interval in virtual seconds.
    pub fn sample_interval(&self) -> f64 {
        self.sample_interval
    }

    /// Register (or look up) a gauge by name.  Registration is idempotent:
    /// the same name always returns the same handle.
    pub fn register_gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Gauge {
            name: name.to_string(),
            current: 0.0,
            series: Vec::new(),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a counter by name.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i);
        }
        self.counters.push(Counter {
            name: name.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a histogram sketch by name (default 1%
    /// relative error).
    pub fn register_histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_string(), StreamingHistogram::default()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Latch a gauge's current value; it is recorded at the next sample
    /// boundary.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        if let Some(g) = self.gauges.get_mut(id.0) {
            g.current = value;
        }
    }

    /// Add `n` to a counter.
    pub fn inc_counter(&mut self, id: CounterId, n: u64) {
        if let Some(c) = self.counters.get_mut(id.0) {
            c.value += n;
        }
    }

    /// Record one observation into a histogram sketch.
    // sx-lint: hot-root -- fed once per completion event by the dispatch loop
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if let Some((_, h)) = self.histograms.get_mut(id.0) {
            h.observe(value);
        }
    }

    /// Advance the sampler to virtual time `clock`, recording every latched
    /// gauge at each elapsed sample boundary (`0, Δ, 2Δ, …` for interval
    /// `Δ`).  Call after each simulation event; boundaries are exact
    /// multiples so the series is independent of event spacing.
    pub fn tick(&mut self, clock: f64) {
        while self.next_due <= clock {
            for g in &mut self.gauges {
                // sx-lint: allow(A001) -- sample-series growth is paced by the virtual-time sample interval, not the event rate
                g.series.push((self.next_due, g.current));
            }
            self.next_due += self.sample_interval;
        }
    }

    /// The sampled `(time, value)` series of a gauge, by name.
    pub fn gauge_series(&self, name: &str) -> Option<&[(f64, f64)]> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.series.as_slice())
    }

    /// A counter's current value, by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A histogram sketch, by name.
    pub fn histogram(&self, name: &str) -> Option<&StreamingHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialize the registry: sampled gauge series, counter totals, and
    /// histogram summaries (count/min/max/mean/p50/p95/p99 + error bound).
    pub fn to_json(&self) -> JsonValue {
        let gauges =
            JsonValue::array(self.gauges.iter().map(|g| {
                JsonValue::object([
                    ("name", JsonValue::from(g.name.as_str())),
                    (
                        "series",
                        JsonValue::array(g.series.iter().map(|&(t, v)| {
                            JsonValue::array([JsonValue::from(t), JsonValue::from(v)])
                        })),
                    ),
                ])
            }));
        let counters = JsonValue::array(self.counters.iter().map(|c| {
            JsonValue::object([
                ("name", JsonValue::from(c.name.as_str())),
                ("value", JsonValue::from(c.value as f64)),
            ])
        }));
        let histograms = JsonValue::array(self.histograms.iter().map(|(name, h)| {
            JsonValue::object([
                ("name", JsonValue::from(name.as_str())),
                ("count", JsonValue::from(h.count() as f64)),
                ("non_finite", JsonValue::from(h.non_finite() as f64)),
                ("min", JsonValue::from(h.min())),
                ("max", JsonValue::from(h.max())),
                ("mean", JsonValue::from(h.mean())),
                ("p50", JsonValue::from(h.p50())),
                ("p95", JsonValue::from(h.p95())),
                ("p99", JsonValue::from(h.p99())),
                ("relative_error", JsonValue::from(h.relative_error_bound())),
            ])
        }));
        JsonValue::object([
            (
                "sample_interval_seconds",
                JsonValue::from(self.sample_interval),
            ),
            ("gauges", gauges),
            ("counters", counters),
            ("histograms", histograms),
        ])
    }
}

/// Handles for the standard instruments the simulation engine feeds when a
/// registry is attached: queue depth, cache hit-rate, per-QPU utilization,
/// per-tenant lane depth, and latency/wait sketches.
#[derive(Debug, Clone)]
pub struct SimSeries {
    /// Dispatch-queue depth gauge.
    pub queue_depth: GaugeId,
    /// Fleet-wide warm-cache hit rate gauge (warm / (warm + cold)).
    pub hit_rate: GaugeId,
    /// Per-QPU utilization gauges (busy seconds / virtual clock).
    pub qpu_utilization: Vec<GaugeId>,
    /// Per-tenant lane depth gauges, indexed by lane.
    pub lane_depth: Vec<GaugeId>,
    /// End-to-end latency sketch (seconds).
    pub latency: HistogramId,
    /// Queueing wait sketch (seconds).
    pub wait: HistogramId,
    /// Events popped from the future-event list.
    pub events: CounterId,
    /// Jobs dispatched to a device.
    pub dispatches: CounterId,
    /// Jobs completed.
    pub completions: CounterId,
}

impl MetricsRegistry {
    /// Register the standard simulation instruments for a fleet of `qpus`
    /// devices and `lanes` tenant lanes.  Idempotent, like all
    /// registration.
    // sx-lint: hot-exempt -- registration runs once per simulation, before the event loop
    pub fn sim_series(&mut self, qpus: usize, lanes: usize) -> SimSeries {
        SimSeries {
            queue_depth: self.register_gauge("queue_depth"),
            hit_rate: self.register_gauge("cache_hit_rate"),
            qpu_utilization: (0..qpus)
                .map(|q| self.register_gauge(&format!("qpu_utilization.q{q}")))
                .collect(),
            lane_depth: (0..lanes)
                .map(|t| self.register_gauge(&format!("lane_depth.t{t}")))
                .collect(),
            latency: self.register_histogram("latency_seconds"),
            wait: self.register_histogram("wait_seconds"),
            events: self.register_counter("events"),
            dispatches: self.register_counter("dispatches"),
            completions: self.register_counter("completions"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = MetricsRegistry::new(1.0);
        let a = reg.register_gauge("depth");
        let b = reg.register_gauge("depth");
        assert_eq!(a, b);
        let c = reg.register_counter("events");
        let d = reg.register_counter("events");
        assert_eq!(c, d);
        let e = reg.register_histogram("latency");
        let f = reg.register_histogram("latency");
        assert_eq!(e, f);
    }

    #[test]
    fn sampler_records_at_exact_boundaries() {
        let mut reg = MetricsRegistry::new(0.5);
        let g = reg.register_gauge("depth");
        reg.set_gauge(g, 2.0);
        reg.tick(0.2); // boundary 0.0
        reg.set_gauge(g, 7.0);
        reg.tick(1.6); // boundaries 0.5, 1.0, 1.5
        let series = reg.gauge_series("depth").expect("registered");
        assert_eq!(
            series,
            &[(0.0, 2.0), (0.5, 7.0), (1.0, 7.0), (1.5, 7.0)],
            "samples land on exact interval multiples with latched values"
        );
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let mut reg = MetricsRegistry::new(1.0);
        let c = reg.register_counter("events");
        reg.inc_counter(c, 3);
        reg.inc_counter(c, 2);
        assert_eq!(reg.counter_value("events"), Some(5));
        let h = reg.register_histogram("latency");
        for i in 1..=100 {
            reg.observe(h, i as f64);
        }
        let sketch = reg.histogram("latency").expect("registered");
        assert_eq!(sketch.count(), 100);
        let p50 = sketch.p50();
        assert!((p50 - 50.0).abs() <= 50.0 * sketch.relative_error_bound() + 1e-9);
    }

    #[test]
    fn to_json_lists_instruments_in_registration_order() {
        let mut reg = MetricsRegistry::new(2.0);
        let g = reg.register_gauge("b_second_registered_first");
        reg.register_gauge("a_registered_second");
        reg.set_gauge(g, 1.5);
        reg.tick(0.0);
        let json = reg.to_json();
        let text = json.to_string();
        let first = text.find("b_second_registered_first").expect("present");
        let second = text.find("a_registered_second").expect("present");
        assert!(first < second, "insertion order, not name order");
        assert!(text.contains("\"sample_interval_seconds\":2"));
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn zero_interval_is_rejected() {
        MetricsRegistry::new(0.0);
    }

    #[test]
    fn sim_series_registers_per_device_and_lane_gauges() {
        let mut reg = MetricsRegistry::new(1.0);
        let series = reg.sim_series(3, 2);
        assert_eq!(series.qpu_utilization.len(), 3);
        assert_eq!(series.lane_depth.len(), 2);
        reg.tick(0.0);
        assert!(reg.gauge_series("qpu_utilization.q2").is_some());
        assert!(reg.gauge_series("lane_depth.t1").is_some());
    }
}

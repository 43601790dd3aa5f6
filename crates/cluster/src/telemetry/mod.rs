//! Observability for the cluster simulator: trace sinks, a virtual-time
//! metrics registry with streaming quantile sketches, Perfetto export, and
//! a host-side stopwatch.
//!
//! The layer is built around one invariant: **telemetry is a pure
//! observer**.  Sinks and registries receive references to engine state and
//! can never mutate it, so a run produces bit-identical results whether
//! observed by a [`NullSink`], a [`VecSink`], a [`PerfettoSink`], or
//! nothing at all — the purity tests in `sim.rs` and
//! `tests/integration_cluster.rs` assert this across seeds and policies.
//!
//! The pieces (each module's docs go deeper):
//!
//! * [`sink`] — the [`TraceSink`] trait and the retention policies
//!   ([`NullSink`], [`VecSink`], [`JsonlSink`]).
//! * [`perfetto`] — [`PerfettoSink`], a Chrome trace-event exporter for
//!   <https://ui.perfetto.dev>.
//! * [`registry`] — [`MetricsRegistry`]: named counters/gauges sampled on
//!   the virtual clock, plus histogram sketches.
//! * [`sketch`] — [`StreamingHistogram`]: mergeable log-bucketed
//!   percentiles with a documented relative-error bound.
//! * [`stopwatch`] — [`HostStopwatch`]: the sweep runner's wall clock (the
//!   one sanctioned D001 exception; see `lint.allow`).
//!
//! `docs/OBSERVABILITY.md` is the narrative guide.

pub mod perfetto;
pub mod registry;
pub mod sink;
pub mod sketch;
pub mod stopwatch;

pub use perfetto::PerfettoSink;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, SimSeries};
pub use sink::{FanoutSink, JsonlSink, NullSink, TraceSink, VecSink};
pub use sketch::StreamingHistogram;
pub use stopwatch::HostStopwatch;

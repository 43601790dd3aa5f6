//! Observability for the cluster simulator: trace sinks, a virtual-time
//! metrics registry with streaming quantile sketches, and Perfetto export.
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
//!   ([`NullSink`], [`VecSink`]; the JSONL flight recorder is
//!   [`crate::replay::RecorderSink`]).
//! * [`perfetto`] — [`PerfettoSink`], a Chrome trace-event exporter for
//!   <https://ui.perfetto.dev>.
//! * [`registry`] — [`MetricsRegistry`]: named counters/gauges sampled on
//!   the virtual clock, plus histogram sketches.
//! * [`sketch`] — [`StreamingHistogram`]: mergeable log-bucketed
//!   percentiles with a documented relative-error bound.
//!
//! `docs/OBSERVABILITY.md` is the narrative guide.

pub mod perfetto;
pub mod registry;
pub mod sink;
pub mod sketch;

pub use perfetto::PerfettoSink;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, SimSeries};
pub use sink::{FanoutSink, NullSink, TraceSink, VecSink};
pub use sketch::StreamingHistogram;

//! Pluggable trace sinks: retention as a policy, not a default.
//!
//! The engine used to push every [`TraceRecord`] into an unconditionally
//! retained `Vec` — fine for forty jobs, fatal for the ROADMAP's "1M jobs
//! × 1k devices" target.  [`TraceSink`] inverts that: the engine *emits*
//! records and the caller decides what observing them means.
//!
//! * [`NullSink`] — drop everything (the default for large runs).
//! * [`VecSink`] — retain everything in memory; what tests and examples
//!   pass to [`crate::sweep::run_cell`] when they read the trace.
//! * [`crate::replay::RecorderSink`] — stream each record as one JSON
//!   object per line to any `io::Write`, so a full trace can go to disk
//!   without ever living in memory (the flight recorder, its own module).
//! * [`crate::telemetry::PerfettoSink`] — render spans for the Perfetto
//!   UI (its own module).
//!
//! Sinks are **observers**: they receive `&TraceRecord` and cannot touch
//! engine state, so attaching any sink — or none — yields bit-identical
//! `SimReport`s (the telemetry purity tests assert exactly that).

use crate::sim::TraceRecord;

/// An observer of the engine's trace stream.
///
/// `on_record` is called synchronously as each record is produced, with the
/// virtual clock at emission time.  Implementations must not panic on
/// ordinary I/O failure — the engine treats sinks as infallible observers,
/// so sinks that can fail should latch their errors for later inspection
/// (see [`crate::replay::RecorderSink::write_errors`]).
pub trait TraceSink {
    /// Observe one trace record at virtual time `vclock`.
    fn on_record(&mut self, record: &TraceRecord, vclock: f64);

    /// A short stable name for reports and debugging.
    fn name(&self) -> &'static str;
}

/// Drops every record: zero retention, zero cost.  The right default for
/// warehouse-scale runs where percentiles come from
/// [`crate::telemetry::StreamingHistogram`] sketches instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_record(&mut self, _record: &TraceRecord, _vclock: f64) {}

    fn name(&self) -> &'static str {
        "null"
    }
}

/// Retains every record in memory — the pre-telemetry behavior, now
/// opt-in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records observed so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consume the sink, yielding the retained trace.
    pub fn into_trace(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for VecSink {
    // sx-lint: hot-exempt -- retention is this sink's whole policy; NullSink is the perf default
    fn on_record(&mut self, record: &TraceRecord, _vclock: f64) {
        self.records.push(*record);
    }

    fn name(&self) -> &'static str {
        "vec"
    }
}

/// A tee: forwards every record to two sinks, in order.  Lets one run feed
/// a recorder and a live visualization (or a retained [`VecSink`]) at once
/// without either knowing about the other; nest fanouts for more than two.
pub struct FanoutSink<'a, 'b> {
    first: &'a mut dyn TraceSink,
    second: &'b mut dyn TraceSink,
}

impl<'a, 'b> FanoutSink<'a, 'b> {
    /// Forward to `first`, then `second`.
    pub fn new(first: &'a mut dyn TraceSink, second: &'b mut dyn TraceSink) -> Self {
        Self { first, second }
    }
}

impl TraceSink for FanoutSink<'_, '_> {
    // sx-lint: hot-exempt -- pure forwarding; cost is whatever the wrapped sinks cost
    fn on_record(&mut self, record: &TraceRecord, vclock: f64) {
        self.first.on_record(record, vclock);
        self.second.on_record(record, vclock);
    }

    fn name(&self) -> &'static str {
        "fanout"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::tenant::TenantId;

    /// One record of every kind, in a fixed order.
    pub(crate) fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Fired(Event {
                time: 0.5,
                seq: 0,
                kind: EventKind::JobArrival { job: 3 },
            }),
            TraceRecord::Dispatched {
                time: 0.5,
                job: 3,
                qpu: 1,
                tenant: TenantId(0),
                warm: true,
                finish: 2.25,
                stage1_seconds: 1.0,
                stage2_seconds: 0.5,
                stage3_seconds: 0.25,
            },
            TraceRecord::Shed {
                time: 0.75,
                job: 4,
                tenant: TenantId(1),
                infeasible: true,
            },
            TraceRecord::Deferred {
                time: 0.8,
                job: 5,
                until: 1.9,
            },
            TraceRecord::Rejected { time: 1.0, job: 6 },
        ]
    }

    #[test]
    fn vec_sink_retains_in_order_and_null_sink_drops() {
        let records = sample_records();
        let mut vec_sink = VecSink::new();
        let mut null_sink = NullSink;
        for (i, r) in records.iter().enumerate() {
            vec_sink.on_record(r, i as f64);
            null_sink.on_record(r, i as f64);
        }
        assert_eq!(vec_sink.records(), records.as_slice());
        assert_eq!(vec_sink.into_trace(), records);
        assert_eq!(vec_sink_name(), "vec");
    }

    fn vec_sink_name() -> &'static str {
        VecSink::new().name()
    }

    #[test]
    fn fanout_forwards_to_both_sinks_in_order() {
        let records = sample_records();
        let mut left = VecSink::new();
        let mut right = VecSink::new();
        {
            let mut tee = FanoutSink::new(&mut left, &mut right);
            assert_eq!(tee.name(), "fanout");
            for (i, r) in records.iter().enumerate() {
                tee.on_record(r, i as f64);
            }
        }
        assert_eq!(left.records(), records.as_slice());
        assert_eq!(right.records(), records.as_slice());
    }
}

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
//! * [`JsonlSink`] — stream each record as one JSON object per line to any
//!   `io::Write`, so a full trace can go to disk without ever living in
//!   memory.
//! * [`crate::telemetry::PerfettoSink`] — render spans for the Perfetto
//!   UI (its own module).
//!
//! Sinks are **observers**: they receive `&TraceRecord` and cannot touch
//! engine state, so attaching any sink — or none — yields bit-identical
//! `SimReport`s (the telemetry purity tests assert exactly that).

use crate::sim::TraceRecord;
use std::io;

/// An observer of the engine's trace stream.
///
/// `on_record` is called synchronously as each record is produced, with the
/// virtual clock at emission time.  Implementations must not panic on
/// ordinary I/O failure — the engine treats sinks as infallible observers,
/// so sinks that can fail should latch their errors for later inspection
/// (see [`JsonlSink::write_errors`]).
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

/// Streams each record as one JSON object per line (JSONL) to any
/// [`io::Write`] — a trace on disk instead of a trace in memory.
///
/// Write failures never reach the engine: they are counted in
/// [`Self::write_errors`] and the *first* failure's [`io::Error`] is
/// latched for later inspection via [`Self::take_error`], while the sink
/// keeps accepting records — an observability failure must not change (or
/// abort) a simulation.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: W,
    lines: usize,
    write_errors: usize,
    /// The first write/flush error observed, latched until taken.  Only
    /// the first: a full disk produces one failure per record, and the
    /// root cause is the earliest one.
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            lines: 0,
            write_errors: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Records that could not be written (I/O failures, latched not
    /// raised).
    pub fn write_errors(&self) -> usize {
        self.write_errors
    }

    /// The first latched write/flush failure, if any, leaving the latch
    /// empty.  Callers that care whether the trace actually landed on disk
    /// check this (or [`Self::write_errors`]) after the run; the engine
    /// itself never does.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Write one arbitrary JSON value as its own line, with the same
    /// latched-error discipline as record writes.  This is the framing
    /// seam the flight recorder ([`crate::replay::RecorderSink`]) uses for
    /// its header lines: headers and records share one writer, one line
    /// counter and one error latch.
    pub fn write_value(&mut self, value: &crate::json::JsonValue) {
        match writeln!(self.out, "{value}") {
            Ok(()) => self.lines += 1,
            Err(err) => self.latch(err),
        }
    }

    /// Latch one I/O failure: bump the count, keep the earliest error.
    fn latch(&mut self, err: io::Error) {
        self.write_errors += 1;
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    /// Flush and return the underlying writer, discarding any latched
    /// error (a final-flush failure still counts toward the error total
    /// first).  Use [`Self::finish`] to observe the failure instead.
    pub fn into_inner(mut self) -> W {
        if let Err(err) = self.out.flush() {
            self.latch(err);
        }
        self.out
    }

    /// Flush and dismantle the sink, reporting the first latched failure:
    /// `Ok((writer, lines))` only if every record was written and flushed.
    pub fn finish(mut self) -> Result<(W, usize), io::Error> {
        if let Err(err) = self.out.flush() {
            self.latch(err);
        }
        match self.error.take() {
            Some(err) => Err(err),
            None => Ok((self.out, self.lines)),
        }
    }
}

impl<W: io::Write> TraceSink for JsonlSink<W> {
    // sx-lint: hot-exempt -- serializing every record is this sink's whole policy; NullSink is the perf default
    fn on_record(&mut self, record: &TraceRecord, _vclock: f64) {
        let line = record.to_json().to_string();
        match writeln!(self.out, "{line}") {
            Ok(()) => self.lines += 1,
            Err(err) => self.latch(err),
        }
    }

    fn name(&self) -> &'static str {
        "jsonl"
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
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::json;
    use crate::tenant::TenantId;

    fn sample_records() -> Vec<TraceRecord> {
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
    fn jsonl_lines_parse_under_the_real_json_parser() {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        for (i, r) in sample_records().iter().enumerate() {
            sink.on_record(r, i as f64);
        }
        assert_eq!(sink.lines(), 5);
        assert_eq!(sink.write_errors(), 0);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let kinds: Vec<String> = lines
            .iter()
            .map(|line| {
                let value = json::parse(line).expect("every JSONL line is valid JSON");
                match value.get("kind") {
                    Some(json::JsonValue::Str(s)) => s.clone(),
                    other => panic!("missing kind: {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            kinds,
            ["fired", "dispatched", "shed", "deferred", "rejected"]
        );
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

    #[test]
    fn write_value_shares_the_line_counter_and_error_latch() {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        sink.write_value(&json::JsonValue::object([(
            "schema",
            json::JsonValue::from("test/v1"),
        )]));
        sink.on_record(&sample_records()[0], 0.0);
        assert_eq!(sink.lines(), 2, "headers and records share one counter");
        let (bytes, lines) = sink.finish().expect("clean run");
        assert_eq!(lines, 2);
        let text = String::from_utf8(bytes).expect("utf8");
        let mut parsed = text.lines().map(|l| json::parse(l).expect("valid"));
        assert!(parsed.next().expect("header").get("schema").is_some());
        assert!(parsed.next().expect("record").get("kind").is_some());

        struct FailingWriter;
        impl io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut bad = JsonlSink::new(FailingWriter);
        bad.write_value(&json::JsonValue::Null);
        assert_eq!(bad.write_errors(), 1, "header failures latch like records");
        assert!(bad.take_error().is_some());
    }

    #[test]
    fn jsonl_write_failures_are_latched_not_raised() {
        struct FailingWriter;
        impl io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let mut sink = JsonlSink::new(FailingWriter);
        for r in sample_records() {
            sink.on_record(&r, 0.0);
        }
        assert_eq!(sink.lines(), 0);
        assert_eq!(sink.write_errors(), 5, "errors latch; nothing panics");
        // The first error's io::Error is latched and can be taken exactly
        // once; the count is unaffected.
        let err = sink.take_error().expect("first failure is latched");
        assert_eq!(err.to_string(), "disk full");
        assert!(sink.take_error().is_none(), "the latch empties on take");
        assert_eq!(sink.write_errors(), 5);
    }

    #[test]
    fn jsonl_finish_reports_the_first_failure() {
        #[derive(Debug)]
        struct FailingWriter;
        impl io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("flush failed"))
            }
        }
        // A clean run finishes Ok with the line count.
        let mut ok_sink = JsonlSink::new(Vec::<u8>::new());
        for r in sample_records() {
            ok_sink.on_record(&r, 0.0);
        }
        let (bytes, lines) = ok_sink.finish().expect("clean run");
        assert_eq!(lines, 5);
        assert!(!bytes.is_empty());
        // A failed run reports the *earliest* error — the write failure,
        // not the flush failure that follows it.
        let mut bad_sink = JsonlSink::new(FailingWriter);
        bad_sink.on_record(&sample_records()[0], 0.0);
        let err = bad_sink.finish().expect_err("failures must surface");
        assert_eq!(err.to_string(), "disk full");
        // A flush-only failure surfaces too.
        let empty_sink = JsonlSink::new(FailingWriter);
        let err = empty_sink.finish().expect_err("flush failure surfaces");
        assert_eq!(err.to_string(), "flush failed");
    }
}

//! Chrome trace-event / Perfetto export of the simulation trace.
//!
//! [`PerfettoSink`] renders the engine's [`TraceRecord`] stream as a
//! Chrome trace-event JSON document (`{"traceEvents": [...]}`), the format
//! <https://ui.perfetto.dev> and `chrome://tracing` open directly:
//!
//! * **Per-device tracks** (process `fleet`, one thread per QPU): a
//!   complete-event span per served job covering its full service window.
//! * **Per-job lanes** (process `jobs`, one thread per job id): a `queued`
//!   span from first arrival to dispatch, then `embed` → `anneal` →
//!   `readout` spans from the per-stage service breakdown — the paper's
//!   split-execution pipeline made visible per job.
//! * **Instant events** on the job lane for shed / defer / reject
//!   decisions.
//!
//! Timestamps are *virtual* time: the trace-event `ts`/`dur` fields are
//! the simulator's seconds scaled to microseconds, so span geometry is
//! bit-determined by the run and two identical seeds export identical
//! traces.  See `docs/OBSERVABILITY.md` for a walkthrough of opening one.

use super::sink::TraceSink;
use crate::event::EventKind;
use crate::json::JsonValue;
use crate::sim::TraceRecord;

/// Process id used for the per-device tracks.
const PID_FLEET: usize = 1;
/// Process id used for the per-job lanes.
const PID_JOBS: usize = 2;

/// Seconds of virtual time → microseconds of trace-event time.
fn micros(seconds: f64) -> f64 {
    seconds * 1e6
}

/// A [`TraceSink`] that accumulates Chrome trace events; call
/// [`PerfettoSink::finish`] after the run to obtain the JSON document.
///
/// ```
/// use sx_cluster::prelude::*;
/// use sx_cluster::telemetry::PerfettoSink;
/// use split_exec::SplitExecConfig;
///
/// let workload = WorkloadSpec::repeated_topologies(6, 0.5, 7).generate();
/// let fleet = Fleet::new(
///     FleetConfig { qpus: 2, seed: 7, ..FleetConfig::default() },
///     SplitExecConfig::with_seed(7),
/// );
/// let mut sink = PerfettoSink::new();
/// let mut policy = SchedulerSpec::Fifo.build();
/// let mut admit = AdmitAll;
/// simulate_with_telemetry(
///     fleet, &workload, policy.as_mut(), &mut admit,
///     SimConfig::default(), &mut sink, None,
/// );
/// let doc = sink.finish();
/// assert!(doc.to_string().contains("traceEvents"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfettoSink {
    events: Vec<JsonValue>,
    /// First-seen arrival time per job id (deferred jobs re-fire their
    /// arrival; the queued span starts at the *first* one).
    arrivals: Vec<Option<f64>>,
    /// Whether a thread-name metadata event was emitted for each job lane.
    job_named: Vec<bool>,
    /// Whether a thread-name metadata event was emitted for each device.
    qpu_named: Vec<bool>,
    started: bool,
}

impl PerfettoSink {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trace events accumulated so far (metadata included).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Consume the sink, yielding the Chrome trace-event JSON document.
    pub fn finish(mut self) -> JsonValue {
        self.ensure_processes();
        let events = std::mem::take(&mut self.events);
        JsonValue::object([
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::from("ms")),
        ])
    }

    /// Emit the process-name metadata once, before any real event.
    fn ensure_processes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let fleet = Self::process_meta(PID_FLEET, "fleet");
        let jobs = Self::process_meta(PID_JOBS, "jobs");
        self.events.insert(0, jobs);
        self.events.insert(0, fleet);
    }

    fn process_meta(pid: usize, name: &str) -> JsonValue {
        JsonValue::object([
            ("ph", JsonValue::from("M")),
            ("name", JsonValue::from("process_name")),
            ("pid", JsonValue::from(pid)),
            ("args", JsonValue::object([("name", JsonValue::from(name))])),
        ])
    }

    fn thread_meta(pid: usize, tid: usize, name: &str) -> JsonValue {
        JsonValue::object([
            ("ph", JsonValue::from("M")),
            ("name", JsonValue::from("thread_name")),
            ("pid", JsonValue::from(pid)),
            ("tid", JsonValue::from(tid)),
            ("args", JsonValue::object([("name", JsonValue::from(name))])),
        ])
    }

    fn ensure_job_lane(&mut self, job: usize) {
        if job >= self.job_named.len() {
            self.job_named.resize(job + 1, false);
            self.arrivals.resize(job + 1, None);
        }
        if !self.job_named[job] {
            self.job_named[job] = true;
            self.events
                .push(Self::thread_meta(PID_JOBS, job, &format!("job {job}")));
        }
    }

    fn ensure_qpu_track(&mut self, qpu: usize) {
        if qpu >= self.qpu_named.len() {
            self.qpu_named.resize(qpu + 1, false);
        }
        if !self.qpu_named[qpu] {
            self.qpu_named[qpu] = true;
            self.events
                .push(Self::thread_meta(PID_FLEET, qpu, &format!("qpu {qpu}")));
        }
    }

    /// A complete-event span (`ph: "X"`).
    fn span(
        pid: usize,
        tid: usize,
        name: &str,
        start: f64,
        dur: f64,
        args: JsonValue,
    ) -> JsonValue {
        JsonValue::object([
            ("ph", JsonValue::from("X")),
            ("name", JsonValue::from(name)),
            ("pid", JsonValue::from(pid)),
            ("tid", JsonValue::from(tid)),
            ("ts", JsonValue::from(micros(start))),
            ("dur", JsonValue::from(micros(dur.max(0.0)))),
            ("args", args),
        ])
    }

    /// A thread-scoped instant event (`ph: "i"`).
    fn instant(pid: usize, tid: usize, name: &str, time: f64, args: JsonValue) -> JsonValue {
        JsonValue::object([
            ("ph", JsonValue::from("i")),
            ("name", JsonValue::from(name)),
            ("pid", JsonValue::from(pid)),
            ("tid", JsonValue::from(tid)),
            ("ts", JsonValue::from(micros(time))),
            ("s", JsonValue::from("t")),
            ("args", args),
        ])
    }
}

impl TraceSink for PerfettoSink {
    // sx-lint: hot-exempt -- rendering spans is this sink's whole policy; NullSink is the perf default
    fn on_record(&mut self, record: &TraceRecord, _vclock: f64) {
        match *record {
            TraceRecord::Fired(event) => {
                if let EventKind::JobArrival { job } = event.kind {
                    self.ensure_job_lane(job);
                    if self.arrivals[job].is_none() {
                        self.arrivals[job] = Some(event.time);
                    }
                }
            }
            TraceRecord::Dispatched {
                time,
                job,
                qpu,
                tenant,
                warm,
                finish,
                stage1_seconds,
                stage2_seconds,
                stage3_seconds,
            } => {
                self.ensure_job_lane(job);
                self.ensure_qpu_track(qpu);
                let arrival = self.arrivals[job].unwrap_or(time);

                // Job lane: queued, then the split-execution stages.
                self.events.push(Self::span(
                    PID_JOBS,
                    job,
                    "queued",
                    arrival,
                    time - arrival,
                    JsonValue::object([("tenant", JsonValue::from(tenant.index()))]),
                ));
                let mut cursor = time;
                for (name, dur) in [
                    ("embed", stage1_seconds),
                    ("anneal", stage2_seconds),
                    ("readout", stage3_seconds),
                ] {
                    let args = JsonValue::object([("warm", JsonValue::from(warm))]);
                    self.events
                        .push(Self::span(PID_JOBS, job, name, cursor, dur, args));
                    cursor += dur;
                }

                // Device track: one span covering the full service window.
                self.events.push(Self::span(
                    PID_FLEET,
                    qpu,
                    &format!("job {job}"),
                    time,
                    finish - time,
                    JsonValue::object([
                        ("job", JsonValue::from(job)),
                        ("tenant", JsonValue::from(tenant.index())),
                        ("warm", JsonValue::from(warm)),
                    ]),
                ));
            }
            TraceRecord::Shed {
                time,
                job,
                tenant,
                infeasible,
            } => {
                self.ensure_job_lane(job);
                let args = JsonValue::object([
                    ("tenant", JsonValue::from(tenant.index())),
                    ("infeasible", JsonValue::from(infeasible)),
                ]);
                self.events
                    .push(Self::instant(PID_JOBS, job, "shed", time, args));
            }
            TraceRecord::Deferred { time, job, until } => {
                self.ensure_job_lane(job);
                let args = JsonValue::object([("until", JsonValue::from(until))]);
                self.events
                    .push(Self::instant(PID_JOBS, job, "defer", time, args));
            }
            TraceRecord::Rejected { time, job } => {
                self.ensure_job_lane(job);
                self.events.push(Self::instant(
                    PID_JOBS,
                    job,
                    "reject",
                    time,
                    JsonValue::Object(Vec::new()),
                ));
            }
        }
    }

    fn name(&self) -> &'static str {
        "perfetto"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::json;
    use crate::tenant::TenantId;

    fn dispatched() -> TraceRecord {
        TraceRecord::Dispatched {
            time: 2.0,
            job: 7,
            qpu: 1,
            tenant: TenantId(0),
            warm: false,
            finish: 3.75,
            stage1_seconds: 1.0,
            stage2_seconds: 0.5,
            stage3_seconds: 0.25,
        }
    }

    #[test]
    fn document_parses_and_has_expected_tracks() {
        let mut sink = PerfettoSink::new();
        sink.on_record(
            &TraceRecord::Fired(Event {
                time: 0.5,
                seq: 0,
                kind: EventKind::JobArrival { job: 7 },
            }),
            0.5,
        );
        sink.on_record(&dispatched(), 2.0);
        sink.on_record(
            &TraceRecord::Shed {
                time: 2.5,
                job: 8,
                tenant: TenantId(1),
                infeasible: true,
            },
            2.5,
        );
        let doc = sink.finish();
        let text = doc.to_string();
        let parsed = json::parse(&text).expect("Perfetto doc is valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(JsonValue::Array(items)) => items.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 2 process metas + 2 thread metas (job lanes 7, 8) + 1 qpu meta
        // + queued/embed/anneal/readout + device span + shed instant.
        assert_eq!(events.len(), 11);
        let names: Vec<String> = events
            .iter()
            .filter_map(|e| match e.get("name") {
                Some(JsonValue::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        for expected in ["queued", "embed", "anneal", "readout", "job 7", "shed"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn queued_span_starts_at_first_arrival_and_stages_tile_the_service() {
        let mut sink = PerfettoSink::new();
        // The job arrives at 0.5 and again (deferred re-arrival) at 1.5;
        // the queued span must anchor at 0.5.
        for t in [0.5, 1.5] {
            sink.on_record(
                &TraceRecord::Fired(Event {
                    time: t,
                    seq: 0,
                    kind: EventKind::JobArrival { job: 7 },
                }),
                t,
            );
        }
        sink.on_record(&dispatched(), 2.0);
        let doc = sink.finish();
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Array(items)) => items.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        let span = |name: &str| -> (f64, f64) {
            events
                .iter()
                .find_map(|e| match (e.get("name"), e.get("ts"), e.get("dur")) {
                    (
                        Some(JsonValue::Str(n)),
                        Some(JsonValue::Num(ts)),
                        Some(JsonValue::Num(dur)),
                    ) if n == name => Some((*ts, *dur)),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let (queued_ts, queued_dur) = span("queued");
        assert_eq!(queued_ts, 0.5e6);
        assert_eq!(queued_dur, 1.5e6);
        let (embed_ts, embed_dur) = span("embed");
        let (anneal_ts, anneal_dur) = span("anneal");
        let (readout_ts, readout_dur) = span("readout");
        assert_eq!(embed_ts, 2.0e6);
        assert!((anneal_ts - (embed_ts + embed_dur)).abs() < 1e-6);
        assert!((readout_ts - (anneal_ts + anneal_dur)).abs() < 1e-6);
        // Stages tile the device span exactly: service = finish − start.
        let (dev_ts, dev_dur) = span("job 7");
        assert_eq!(dev_ts, 2.0e6);
        assert!((embed_dur + anneal_dur + readout_dur - dev_dur).abs() < 1e-6);
    }
}

//! Telemetry: export a cluster run as a Perfetto / Chrome trace.
//!
//! Runs the aggressor/victim composition under weighted fair queueing with
//! a [`PerfettoSink`] attached, then writes the trace-event JSON to
//! `trace_cluster.json` (or the path given as the first argument).  Open
//! the file at <https://ui.perfetto.dev> — or `chrome://tracing` — to see,
//! on the *virtual* timeline:
//!
//! * one lane per job (process "jobs"): a `queued` span from first
//!   arrival to dispatch, then `embed` → `anneal` → `readout` service
//!   spans; shed/deferred jobs show as instant markers;
//! * one track per QPU (process "fleet"): back-to-back `job N` occupancy
//!   spans — the gaps are idle capacity.
//!
//! Telemetry is a pure observer: attaching the sink does not change the
//! schedule (the sink-purity tests assert bit-identical reports), so the
//! exported trace is exactly the run you would have had without it.
//!
//! ```text
//! cargo run --release --example trace_export [-- PATH]
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the full telemetry layer reference.

use std::sync::Arc;

use sx_cluster::prelude::*;

fn main() {
    let seed = 7;
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_cluster.json".to_string());

    // A small aggressor/victim mix: 12 victim jobs at 0.4 Hz, an
    // aggressor submitting 4x as many jobs at 4x the rate.
    let workload = MultiTenantSpec::aggressor_victim(12, 0.4, 4.0, 1.0, seed).generate();
    let cell = CellSpec {
        label: "wfq".to_string(),
        fleet: FleetConfig {
            qpus: 4,
            seed,
            ..FleetConfig::default()
        },
        scheduler: SchedulerSpec::WeightedFair {
            weights: workload.weights(),
            lane_order: LaneOrder::default(),
        },
        admission: AdmissionSpec::AdmitAll,
        config: SimConfig::default(),
        workload: Arc::new(workload),
    };

    let mut sink = PerfettoSink::new();
    let result = run_cell(0, &cell, &mut sink);
    let report = &result.report;

    println!("{report}\n");

    let trace = sink.finish();
    let event_count = match trace.get("traceEvents") {
        Some(JsonValue::Array(events)) => events.len(),
        _ => 0,
    };
    match std::fs::write(&path, format!("{trace}\n")) {
        Ok(()) => println!(
            "wrote {event_count} trace events to {path} — open it at https://ui.perfetto.dev"
        ),
        Err(err) => {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        }
    }

    // The cell's sketch summarizes the same run in a fixed number of
    // buckets — what sweeps merge across cells.
    let latency = &result.latency_sketch;
    println!(
        "latency sketch over {} completions: p50 {:.2}s, p95 {:.2}s, p99 {:.2}s \
         (relative error <= {:.1}%)",
        latency.count(),
        latency.p50(),
        latency.p95(),
        latency.p99(),
        100.0 * latency.relative_error_bound(),
    );
    println!(
        "queue depth sampled after each of {} events; peak {}",
        report.events, report.max_queue_depth,
    );
}

//! A scenario fuzzer over whole runs: random [`CellSpec`]s — every
//! scheduler, admission with and without infeasibility shedding, uniform
//! and heterogeneous fleets with bounded or unbounded caches, open and
//! closed streams, exact and sketch percentiles — must each satisfy the
//! simulator's run-level invariants:
//!
//! * every job is accounted for: `completed + shed + rejected == jobs`;
//! * a run is a pure function of its spec: running it twice gives equal
//!   reports and equal traces;
//! * its flight record replays with no divergence, and the parsed header
//!   re-renders byte-identically;
//! * every latency summary keeps `min ≤ p50 ≤ p95 ≤ p99 ≤ max`;
//! * no device holds more warm topologies than its cache bound.

use std::sync::Arc;

use proptest::prelude::*;
use sx_cluster::prelude::*;

/// The drawn knobs of one scenario, each an index or a small integer.
struct Draw {
    scheduler: usize,
    admission: usize,
    hetero: bool,
    qpus: usize,
    cache: usize,
    eviction: usize,
    cache_admission: usize,
    stream: usize,
    jobs: usize,
    rate_tenths: u64,
    clients: usize,
    sketch: bool,
    seed: u64,
}

fn scenario(draw: &Draw) -> CellSpec {
    let rate_hz = draw.rate_tenths as f64 / 10.0;
    let workload = match draw.stream {
        0 => WorkloadSpec::repeated_topologies(draw.jobs, rate_hz, draw.seed).generate(),
        1 => WorkloadSpec::mixed(draw.jobs, rate_hz, draw.seed).generate(),
        2 => WorkloadSpec::bursty(draw.jobs, rate_hz, 4, draw.seed).generate(),
        // Aggressor/victim with proportional deadlines: about a quarter of
        // the jobs are the victim's.
        _ => {
            MultiTenantSpec::aggressor_victim((draw.jobs / 4).max(1), rate_hz, 3.0, 2.0, draw.seed)
                .with_uniform_deadlines(DeadlinePolicy::ProportionalSlack { factor: 4.0 })
                .generate()
        }
    };
    let scheduler = match draw.scheduler {
        0..=4 => SchedulerSpec::all()[draw.scheduler].clone(),
        _ => "wfq-fifo".parse().expect("wfq-fifo is a scheduler name"),
    };
    let scheduler = match scheduler {
        SchedulerSpec::WeightedFair { lane_order, .. } => SchedulerSpec::WeightedFair {
            weights: workload.weights(),
            lane_order,
        },
        other => other,
    };
    let admission = match draw.admission {
        0 => AdmissionSpec::AdmitAll,
        shed => AdmissionSpec::TokenBucket {
            default: TokenBucketConfig {
                rate_hz: 0.2 + rate_hz,
                burst: 1.0 + draw.qpus as f64,
                max_queue_depth: 2 + draw.jobs / 8,
                max_defer_seconds: 5.0 * draw.qpus as f64,
                shed_infeasible: shed == 2,
            },
            per_tenant: Vec::new(),
        },
    };
    let fleet = if draw.hetero {
        FleetConfig::heterogeneous(draw.qpus, draw.seed)
    } else {
        FleetConfig {
            qpus: draw.qpus,
            seed: draw.seed,
            ..FleetConfig::default()
        }
    };
    let fleet = match draw.cache {
        0 => fleet,
        bound => fleet.with_cache(bound, EvictionPolicyKind::all()[draw.eviction]),
    }
    .with_cache_admission(AdmissionPolicy::all()[draw.cache_admission]);
    CellSpec {
        label: format!("fuzz/{}", scheduler.name()),
        fleet,
        scheduler,
        admission,
        config: SimConfig {
            mode: match draw.clients {
                0 => WorkloadMode::Open,
                clients => WorkloadMode::Closed { clients },
            },
            percentiles: if draw.sketch {
                PercentileMode::Sketch
            } else {
                PercentileMode::Exact
            },
        },
        workload: Arc::new(workload),
    }
}

fn traced(spec: &CellSpec) -> (SimReport, Vec<TraceRecord>) {
    let mut sink = VecSink::new();
    let report = run_cell(0, spec, &mut sink).report;
    (report, sink.into_trace())
}

fn check_invariants(spec: &CellSpec) {
    let (report, trace) = traced(spec);
    let label = format!("{spec:?}");
    assert_eq!(
        report.completed + report.shed + report.rejected,
        report.jobs,
        "every job is accounted for: {label}"
    );
    assert_eq!(report.jobs, spec.workload.len());
    let (again, again_trace) = traced(spec);
    assert_eq!(report, again, "a run is a pure function of its spec");
    assert_eq!(trace, again_trace, "traces repeat run to run");

    let mut recorder = RecorderSink::new(Vec::new());
    recorder.begin_run(spec);
    let recorded_report = run_cell(0, spec, &mut recorder).report;
    assert_eq!(recorded_report, report, "recording never perturbs a run");
    let (bytes, _) = recorder.finish().expect("Vec<u8> writes cannot fail");
    let text = String::from_utf8(bytes).expect("flight records are UTF-8");
    let record = parse_flight_record(&text).expect("the recorder's own output parses");
    let run = &record.runs[0];
    let header = text.lines().next().expect("a header line");
    assert_eq!(
        run.spec.to_json().to_string(),
        header,
        "headers re-render byte-identically"
    );
    let check = check_replay(run, &mut NullSink);
    assert_eq!(check.divergence, None, "replay diverged: {label}");
    assert_eq!(check.report, report);

    for stats in [&report.latency, &report.wait, &report.lateness] {
        assert!(stats.percentiles_ordered(), "{stats:?}: {label}");
    }
    for tenant in &report.per_tenant {
        assert!(tenant.latency.percentiles_ordered(), "{tenant:?}: {label}");
    }
    for qpu in &report.per_qpu {
        if let Some(bound) = qpu.cache_capacity {
            assert!(qpu.warm_topologies <= bound, "{qpu:?}: {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_scenarios_keep_the_run_invariants(
        scheduler in 0usize..6,
        admission in 0usize..3,
        hetero in 0usize..2,
        qpus in 1usize..7,
        cache in 0usize..5,
        eviction in 0usize..2,
        cache_admission in 0usize..2,
        stream in 0usize..4,
        jobs in 1usize..81,
        rate_tenths in 1u64..30,
        clients in 0usize..4,
        sketch in 0usize..2,
        seed in 0u64..1_000,
    ) {
        check_invariants(&scenario(&Draw {
            scheduler,
            admission,
            hetero: hetero == 1,
            qpus,
            cache,
            eviction,
            cache_admission,
            stream,
            jobs,
            rate_tenths,
            clients,
            sketch: sketch == 1,
            seed,
        }));
    }
}

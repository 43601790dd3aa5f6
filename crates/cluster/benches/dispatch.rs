//! Criterion bench for the dispatch loop: end-to-end throughput of the
//! production-shaped call — `simulate_with_telemetry` with [`AdmitAll`], a
//! [`NullSink`] and no metrics registry, the call `tests/alloc_budget.rs`
//! counts allocations in and `perfbench` runs.  (`simulate` would also
//! time a `VecSink` retaining every trace record.)
//!
//! Third layer of the hot-path contract (docs/ARCHITECTURE.md): `sx_lint`'s
//! A-rules prove statically that nothing on the hot path allocates,
//! `tests/alloc_budget.rs` pins the allocation count dynamically, and this
//! bench watches the throughput those two protect.  Groups sweep the fleet
//! size (the dispatch loop's fan-out) under FIFO, compare policies at a
//! fixed fleet, run cache affinity on an overloaded 64-QPU fleet, where
//! the queue grows to hundreds of jobs and the per-call queue scan shows,
//! and run WFQ on a 1,024-device heterogeneous fleet, where placement
//! (`Fleet::fastest_idle`) dominates.  They report events/second (each
//! timed iteration replays the same seeded workload, so the event count
//! per iteration is exact).
//!
//! Two set-up groups time what precedes a run: `setup/fleet_new` builds
//! the 64-device uniform and the 1,024-device heterogeneous fleets the
//! groups below run on (per-device dead-qubit draws and warm caches, one
//! cost table per model), and `setup/cost_table` tabulates each QPU
//! model's cost table alone, as `RateCalibration::for_fleet` does.
//!
//! Each iteration rebuilds the fleet — the engine consumes it, since warm
//! caches and occupancy are part of the run's state.  In the small groups
//! the measured time includes that construction: it is O(devices),
//! independent of the event count, and identical across policies, and at
//! 400 jobs the loop dominates.  The large-fleet group builds its fleet in
//! untimed set-up instead, since 1,024 devices take about as long to
//! build as the run takes.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use split_exec::{CostModel, QpuModel, SplitExecConfig};
use std::hint::black_box;
use sx_cluster::prelude::*;

const JOBS: usize = 400;
const RATE_HZ: f64 = 2.0;
const SEED: u64 = 11;

fn fleet(qpus: usize) -> Fleet {
    Fleet::new(
        FleetConfig {
            qpus,
            seed: SEED,
            ..FleetConfig::default()
        },
        SplitExecConfig::with_seed(SEED),
    )
}

fn run(policy: &SchedulerSpec, qpus: usize, workload: &Workload) -> SimReport {
    run_on(fleet(qpus), policy, workload)
}

fn run_on(fleet: Fleet, policy: &SchedulerSpec, workload: &Workload) -> SimReport {
    simulate_with_telemetry(
        fleet,
        workload,
        policy.build().as_mut(),
        &mut AdmitAll,
        SimConfig::default(),
        &mut NullSink,
        None,
    )
}

fn bench_fleet_sizes(c: &mut Criterion) {
    let workload = WorkloadSpec::repeated_topologies(JOBS, RATE_HZ, SEED).generate();
    let mut group = c.benchmark_group("dispatch/fleet_size");
    for qpus in [2usize, 4, 8] {
        let events = run(&SchedulerSpec::Fifo, qpus, &workload).events;
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(qpus), &qpus, |b, &qpus| {
            b.iter(|| black_box(run(&SchedulerSpec::Fifo, qpus, &workload)))
        });
    }
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let workload = WorkloadSpec::repeated_topologies(JOBS, RATE_HZ, SEED).generate();
    let mut group = c.benchmark_group("dispatch/policy");
    for policy in ["fifo", "wfq", "edf", "affinity"] {
        let policy: SchedulerSpec = policy.parse().expect("a SchedulerSpec name");
        let events = run(&policy, 4, &workload).events;
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(
            BenchmarkId::new("qpus4", policy.name()),
            &policy,
            |b, policy| b.iter(|| black_box(run(policy, 4, &workload))),
        );
    }
    group.finish();
}

/// Cache affinity on 64 QPUs offered 1.5x their warm capacity by the
/// two-tenant aggressor/victim stream (a small repeated victim mix, a
/// 24-variant aggressor at 3x its rate): the queue builds to hundreds of
/// jobs over a few dozen topologies.
fn bench_overload(c: &mut Criterion) {
    const QPUS: usize = 64;
    const ASYMMETRY: f64 = 3.0;
    const VICTIM_JOBS: usize = 400; // 1,600 jobs in all
    let config = FleetConfig {
        qpus: QPUS,
        seed: SEED,
        ..FleetConfig::default()
    };
    let rate = RateCalibration::for_fleet(&config, &[16, 20, 24])
        .expect("the calibration sizes fit a DW2X device")
        .rate_hz(1.0, 1.5, QPUS);
    let workload = MultiTenantSpec::aggressor_victim(
        VICTIM_JOBS,
        rate / (1.0 + ASYMMETRY),
        ASYMMETRY,
        1.0,
        SEED,
    )
    .generate();
    let policy = SchedulerSpec::CacheAffinity;
    let mut group = c.benchmark_group("dispatch/overload");
    let events = run(&policy, QPUS, &workload).events;
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(
        BenchmarkId::new("qpus64_load1.5", policy.name()),
        &policy,
        |b, policy| b.iter(|| black_box(run(policy, QPUS, &workload))),
    );
    group.finish();
}

/// WFQ on 1,024 mixed-generation QPUs with 4-entry cost-aware caches,
/// fed 4,000 jobs of the repeated-topology mix.  Spread over 1,024
/// devices, most of those jobs embed cold, at about ten times the warm
/// cost, so the offered load is 0.05 of warm capacity: higher loads build
/// a queue and time WFQ's queue scan instead.  With the queue short, the
/// cost of a call is placing one job on a large fleet.
fn bench_large_fleet(c: &mut Criterion) {
    const QPUS: usize = 1_024;
    const JOBS: usize = 4_000;
    const LOAD: f64 = 0.05;
    let config =
        FleetConfig::heterogeneous(QPUS, SEED).with_cache(4, EvictionPolicyKind::CostAware);
    let rate = RateCalibration::for_fleet(&config, &[24, 28, 30, 36])
        .expect("the mix's sizes fit both generations")
        .rate_hz(1.0, LOAD, QPUS);
    let workload = WorkloadSpec::repeated_topologies(JOBS, rate, SEED).generate();
    let policy: SchedulerSpec = "wfq".parse().expect("a SchedulerSpec name");
    let build = || Fleet::new(config.clone(), SplitExecConfig::with_seed(SEED));
    let mut group = c.benchmark_group("dispatch/large_fleet");
    group.sample_size(10);
    let events = run_on(build(), &policy, &workload).events;
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(
        BenchmarkId::new(format!("qpus1024_load{LOAD}"), policy.name()),
        &policy,
        |b, policy| {
            b.iter_batched(
                build,
                |fleet| run_on(fleet, policy, &workload),
                BatchSize::LargeInput,
            )
        },
    );
    group.finish();
}

/// Fleet construction on the overload group's 64 uniform DW2X devices and
/// the large-fleet group's 1,024 mixed devices with 4-entry caches.
fn bench_fleet_new(c: &mut Criterion) {
    let shapes = [
        (
            "uniform64",
            FleetConfig {
                qpus: 64,
                seed: SEED,
                ..FleetConfig::default()
            },
        ),
        (
            "hetero1024",
            FleetConfig::heterogeneous(1_024, SEED).with_cache(4, EvictionPolicyKind::CostAware),
        ),
    ];
    let mut group = c.benchmark_group("setup/fleet_new");
    for (name, config) in shapes {
        group.throughput(Throughput::Elements(config.qpus as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| black_box(Fleet::new(config.clone(), SplitExecConfig::with_seed(SEED))))
        });
    }
    group.finish();
}

/// One QPU model's cost table, every size its pristine lattice embeds.
fn bench_cost_table(c: &mut Criterion) {
    let app = SplitExecConfig::with_seed(SEED);
    let mut group = c.benchmark_group("setup/cost_table");
    for model in QpuModel::all() {
        let (m, n, _) = model.lattice();
        let max_lps = 4 * m.min(n) + 1;
        group.throughput(Throughput::Elements(max_lps as u64 + 1));
        group.bench_with_input(BenchmarkId::from_parameter(model), &model, |b, &model| {
            b.iter(|| black_box(CostModel::new(model, &app, max_lps)))
        });
    }
    group.finish();
}

criterion_group!(
    dispatch,
    bench_fleet_new,
    bench_cost_table,
    bench_fleet_sizes,
    bench_policies,
    bench_overload,
    bench_large_fleet
);
criterion_main!(dispatch);

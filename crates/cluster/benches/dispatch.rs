//! Criterion bench for the dispatch loop: end-to-end `simulate` throughput.
//!
//! Third layer of the hot-path contract (docs/ARCHITECTURE.md): `sx_lint`'s
//! A-rules prove statically that nothing on the hot path allocates,
//! `tests/alloc_budget.rs` pins the allocation count dynamically, and this
//! bench watches the throughput those two protect.  Groups sweep the fleet
//! size (the dispatch loop's fan-out) under FIFO, compare policies at a
//! fixed fleet, and run cache affinity on an overloaded 64-QPU fleet, where
//! the queue grows to hundreds of jobs and the per-call queue scan shows.
//! They report events/second (each timed iteration replays the same seeded
//! workload, so the event count per iteration is exact).
//!
//! Each iteration rebuilds the fleet — `simulate` consumes it, since warm
//! caches and occupancy are part of the run's state — so the measured time
//! includes fleet construction.  That cost is O(devices), independent of
//! the event count, and identical across policies; at 400 jobs the loop
//! dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use split_exec::SplitExecConfig;
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

fn run(policy: PolicyKind, qpus: usize, workload: &Workload) -> SimReport {
    let mut scheduler = policy.build();
    simulate(
        fleet(qpus),
        workload,
        scheduler.as_mut(),
        SimConfig::default(),
    )
}

fn bench_fleet_sizes(c: &mut Criterion) {
    let workload = WorkloadSpec::repeated_topologies(JOBS, RATE_HZ, SEED).generate();
    let mut group = c.benchmark_group("dispatch/fleet_size");
    for qpus in [2usize, 4, 8] {
        let events = run(PolicyKind::Fifo, qpus, &workload).events;
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(qpus), &qpus, |b, &qpus| {
            b.iter(|| black_box(run(PolicyKind::Fifo, qpus, &workload)))
        });
    }
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let workload = WorkloadSpec::repeated_topologies(JOBS, RATE_HZ, SEED).generate();
    let mut group = c.benchmark_group("dispatch/policy");
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::WeightedFair,
        PolicyKind::EarliestDeadline,
        PolicyKind::CacheAffinity,
    ] {
        let events = run(policy, 4, &workload).events;
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(
            BenchmarkId::new("qpus4", format!("{policy:?}")),
            &policy,
            |b, &policy| b.iter(|| black_box(run(policy, 4, &workload))),
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
    let policy = PolicyKind::CacheAffinity;
    let mut group = c.benchmark_group("dispatch/overload");
    let events = run(policy, QPUS, &workload).events;
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(
        BenchmarkId::new("qpus64_load1.5", format!("{policy:?}")),
        &policy,
        |b, &policy| b.iter(|| black_box(run(policy, QPUS, &workload))),
    );
    group.finish();
}

criterion_group!(dispatch, bench_fleet_sizes, bench_policies, bench_overload);
criterion_main!(dispatch);

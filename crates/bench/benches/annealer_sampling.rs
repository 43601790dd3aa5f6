//! Ablation bench: the simulated QPU's sampling throughput and the effect of
//! schedule length on solution quality (the `p_s` knob that feeds Eq. 6).
//!
//! The paper treats the per-read success probability as a hardware
//! characteristic; in the simulated QPU it is set by the annealing schedule,
//! so this bench quantifies the cost/quality trade-off of the substitution.

use chimera_graph::{generators, Chimera};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use quantum_anneal::prelude::*;
use quantum_anneal::sa::{anneal_once, CompiledIsing};
use qubo_ising::{solve_ising_exact, Ising};
use std::hint::black_box;

fn bench_single_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("annealer/single_read");
    for n in [64usize, 256, 512] {
        let graph = generators::gnp(n, 8.0 / n as f64, 3);
        let model = Ising::random_on_graph(&graph, 5);
        let compiled = CompiledIsing::new(&model);
        let schedule = AnnealSchedule::default();
        group.throughput(Throughput::Elements((n * schedule.sweeps) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &compiled, |b, compiled| {
            b.iter(|| black_box(anneal_once(compiled, &schedule, 9).energy))
        });
    }
    group.finish();
}

/// The shape the pipeline anneals: an embedded program spans the whole
/// 1,152-qubit C(12,12,4) register, but only about 40 qubits (here the
/// first five unit cells, with their couplers) carry parameters.
fn bench_sparse_register(c: &mut Criterion) {
    let hardware = Chimera::new(12, 12, 4).into_graph();
    let (patch, qubits) = hardware.induced_subgraph(&(0..40).collect::<Vec<_>>());
    let logical = Ising::random_on_graph(&patch, 5);
    let mut model = Ising::new(hardware.vertex_count());
    for (i, h) in logical.fields().enumerate() {
        model.set_field(qubits[i], h);
    }
    for ((u, v), j) in logical.couplings() {
        model.set_coupling(qubits[u], qubits[v], j);
    }
    let compiled = CompiledIsing::new(&model);
    let schedule = AnnealSchedule::default();
    let mut group = c.benchmark_group("annealer/sparse_register");
    group.throughput(Throughput::Elements(
        (hardware.vertex_count() * schedule.sweeps) as u64,
    ));
    group.bench_with_input(BenchmarkId::from_parameter(40), &compiled, |b, compiled| {
        b.iter(|| black_box(anneal_once(compiled, &schedule, 9).energy))
    });
    group.finish();
}

fn bench_batched_reads(c: &mut Criterion) {
    let graph = generators::gnp(128, 0.06, 7);
    let model = Ising::random_on_graph(&graph, 11);
    let mut group = c.benchmark_group("annealer/batched_reads");
    group.sample_size(10);
    for reads in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(reads), &reads, |b, &reads| {
            let qpu = SimulatedQpu::with_schedule(AnnealSchedule::fast());
            b.iter(|| {
                black_box(
                    qpu.sample(&model, &SampleParams::new(reads, 1))
                        .unwrap()
                        .num_reads(),
                )
            })
        });
    }
    group.finish();
}

fn report_success_probability_vs_sweeps(_c: &mut Criterion) {
    // Not a timing benchmark: records the empirical p_s as a function of the
    // schedule length, relating the simulated QPU to the paper's assumed
    // characteristic success probabilities.
    let graph = generators::gnp(16, 0.4, 13);
    let model = Ising::random_on_graph(&graph, 17);
    let (exact, _, _) = solve_ising_exact(&model);
    eprintln!("\nempirical per-read success probability vs schedule sweeps (16-spin instance):");
    for sweeps in [16usize, 64, 256, 1024] {
        let qpu = SimulatedQpu::with_schedule(AnnealSchedule::default().with_sweeps(sweeps));
        let samples = qpu.sample(&model, &SampleParams::new(64, 3)).unwrap();
        let est = estimate_success_probability(&samples.energies(), exact, 1e-9);
        eprintln!(
            "  sweeps={sweeps:<5} p_s={:.3} ({} of {} reads hit the exact optimum)",
            est.p_success, est.hits, est.reads
        );
    }
}

criterion_group!(
    annealer,
    bench_single_read,
    bench_sparse_register,
    bench_batched_reads,
    report_success_probability_vs_sweeps
);
criterion_main!(annealer);

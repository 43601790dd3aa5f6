//! Ablation bench: the three built-in stage-2 sampler backends on the same
//! embedded-scale workload.
//!
//! Quantifies the cost of swapping the QPU stand-in: simulated annealing
//! (the default), parallel tempering (a stronger classical sampler, higher
//! `p_s` per read at more simulation cost) and exact enumeration (the oracle
//! for small programs).  `SX_BACKEND` does not apply here — the point of
//! this bench is to sweep all kinds side by side.

use chimera_graph::generators;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quantum_anneal::prelude::*;
use qubo_ising::Ising;
use std::hint::black_box;

fn bench_backends(c: &mut Criterion) {
    let model = Ising::random_on_graph(&generators::gnp(16, 0.3, 7), 9);
    let mut group = c.benchmark_group("backends/sample_16spin");
    group.sample_size(10);
    for kind in BackendKind::all() {
        let backend = kind.build();
        let params = SampleParams::new(8, 3);
        group.bench_with_input(BenchmarkId::from_parameter(kind), &params, |b, params| {
            b.iter(|| {
                let set = backend.sample(black_box(&model), params).unwrap();
                black_box(set.num_reads())
            })
        });
    }
    group.finish();

    // Not a timing benchmark: record each backend's solution quality on the
    // same instance, relating `p_s` to backend choice.
    let (exact_energy, _, _) = qubo_ising::solve_ising_exact(&model);
    eprintln!("\nbest energy over 8 reads (exact optimum {exact_energy:.4}):");
    for kind in BackendKind::all() {
        let set = kind
            .build()
            .sample(&model, &SampleParams::new(8, 3))
            .unwrap();
        eprintln!("  {kind:<22} {:.4}", set.best_energy().unwrap());
    }
}

criterion_group!(backends, bench_backends);
criterion_main!(backends);

//! Criterion bench for Fig. 9(b): stage-2 cost versus desired accuracy.
//!
//! Benchmarks the Stage-2 model walk over the accuracy sweep and the
//! simulated-QPU sampling path sized by Eq. (6), and prints the predicted
//! series (the figure's y-axis values).

use chimera_graph::generators;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qubo_ising::Ising;
use split_exec::prelude::*;
use std::hint::black_box;
use sx_bench::fig9b_accuracies;

fn bench_model_walk(c: &mut Criterion) {
    let machine = SplitMachine::paper_default();
    let mut group = c.benchmark_group("fig9b/model_walk");
    for accuracy in [0.9f64, 0.99, 0.9999, 0.999999] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{accuracy}")),
            &accuracy,
            |b, &accuracy| {
                b.iter(|| {
                    let p = predict_stage2(&machine, black_box(accuracy), 0.7).unwrap();
                    black_box(p.total_seconds)
                })
            },
        );
    }
    group.finish();

    eprintln!("\nfig9b predicted stage-2 seconds (p_s = 0.7):");
    for accuracy in fig9b_accuracies() {
        let p = predict_stage2(&machine, accuracy, 0.7).unwrap();
        eprintln!(
            "  pa={accuracy:<10} reads={:<4} seconds={:.4e}",
            p.reads, p.total_seconds
        );
    }
}

fn bench_simulated_sampling(c: &mut Criterion) {
    let machine = SplitMachine::paper_default();
    let logical = Ising::random_on_graph(&generators::cycle(16), 3);
    let mut group = c.benchmark_group("fig9b/simulated_qpu_sampling");
    group.sample_size(10);
    for accuracy in [0.9f64, 0.99, 0.9999] {
        let config = SplitExecConfig::with_seed(5)
            .with_accuracy(accuracy)
            .with_success_probability(0.7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{accuracy}")),
            &config,
            |b, config| {
                let backend = config.backend.build_with_schedule(config.schedule);
                b.iter(|| {
                    let r = execute_stage2_with_backend(
                        &machine,
                        config,
                        black_box(&logical),
                        backend.as_ref(),
                    )
                    .unwrap();
                    black_box(r.reads)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(fig9b, bench_model_walk, bench_simulated_sampling);
criterion_main!(fig9b);

//! Ablation bench: the randomized CMR heuristic versus the deterministic
//! clique embedding.
//!
//! The paper chooses the CMR heuristic for its Stage-1 model because it
//! "permits the largest sized input problems to be programmed"; the
//! complete-graph construction is the deterministic baseline that uses
//! `O(n²)` qubits regardless of input sparsity.  This bench measures the time
//! of both and prints their qubit usage for sparse and dense inputs.

use chimera_graph::generators;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minor_embed::prelude::*;
use split_exec::prelude::*;
use std::hint::black_box;

fn bench_cmr_vs_clique(c: &mut Criterion) {
    let machine = SplitMachine::paper_default();

    let mut group = c.benchmark_group("ablation_embedding/cmr");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let input = generators::complete(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            b.iter(|| {
                let out = find_embedding(
                    black_box(input),
                    machine.hardware(),
                    &CmrConfig::with_seed(3),
                );
                black_box(out.map(|o| o.embedding.qubits_used()).unwrap_or(0))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_embedding/clique");
    for n in [8usize, 12, 16, 32, 48] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let out = clique_embedding(black_box(n), &machine.chimera).unwrap();
                black_box(out.embedding.qubits_used())
            })
        });
    }
    group.finish();

    eprintln!("\nablation: qubit usage, CMR heuristic vs clique construction:");
    for (name, input) in [
        ("K6", generators::complete(6)),
        ("cycle-24", generators::cycle(24)),
        ("grid-5x5", generators::grid(5, 5)),
    ] {
        let cmr = find_embedding(&input, machine.hardware(), &CmrConfig::with_seed(3)).unwrap();
        let clique = clique_embedding(input.vertex_count(), &machine.chimera).unwrap();
        eprintln!(
            "  {name:<10} n={:<3} CMR qubits={:<5} (max chain {})  clique qubits={:<5} (max chain {})",
            input.vertex_count(),
            cmr.embedding.qubits_used(),
            cmr.embedding.max_chain_length(),
            clique.embedding.qubits_used(),
            clique.embedding.max_chain_length()
        );
    }
}

criterion_group!(ablation_embedding, bench_cmr_vs_clique);
criterion_main!(ablation_embedding);

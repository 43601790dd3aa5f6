//! Batch-submission throughput: the amortization argument, measured.
//!
//! The paper's Sec. 3.3 proposes off-line embedding as the remedy for the
//! stage-1 bottleneck.  This binary quantifies it end to end: a batch of
//! MAX-CUT jobs over a shared topology family is pushed through
//! `Pipeline::execute_batch` on a fresh embedding table, and the per-job wall time is compared against
//! submitting each job alone (cold embedding every time).
//!
//! Exits 1 if the batch ran CMR other than once per distinct topology, or
//! if any batched job's solution or error differs from its solo run.
//!
//! ```text
//! cargo run --release -p sx-bench --bin batch_throughput [--backend=sa|pt|exact]
//! ```

use chimera_graph::generators;
use qubo_ising::prelude::MaxCut;
use qubo_ising::qubo_to_ising;
use qubo_ising::Qubo;
use split_exec::offline_cache::graph_key;
use split_exec::prelude::*;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;
use sx_bench::backend_from_env_args;

fn weighted_cycle(n: usize, weight: f64) -> Qubo {
    let graph = generators::cycle(n);
    let weights: Vec<((usize, usize), f64)> =
        graph.edges().map(|(u, v)| ((u, v), weight)).collect();
    MaxCut::weighted(graph.clone(), &weights).to_qubo()
}

fn main() -> ExitCode {
    let backend = backend_from_env_args();
    let config = SplitExecConfig::with_seed(29).with_backend(backend);
    let pipeline = Pipeline::new(SplitMachine::paper_default(), config);

    // 24 jobs over 3 distinct topologies: the shape of a production queue
    // re-solving problem families with fresh coefficients.
    let jobs: Vec<Qubo> = (0..24)
        .map(|i| weighted_cycle(8 + 2 * (i % 3), 1.0 + i as f64))
        .collect();

    println!("# batch throughput, stage-2 backend: {backend}");

    let start = Instant::now();
    let solo: Vec<_> = jobs.iter().map(|qubo| pipeline.execute(qubo)).collect();
    let solo_seconds = start.elapsed().as_secs_f64();
    let solo_ok = solo.iter().filter(|result| result.is_ok()).count();

    let report = pipeline.execute_batch(&jobs, &EmbeddingCache::new());
    let summary = &report.summary;

    println!(
        "serial cold submission: {solo_ok}/{} jobs in {solo_seconds:.3}s ({:.1} jobs/s)",
        jobs.len(),
        solo_ok as f64 / solo_seconds
    );
    println!(
        "batch submission:       {}/{} jobs in {:.3}s ({:.1} jobs/s)",
        summary.succeeded,
        summary.jobs,
        summary.wall_seconds,
        summary.succeeded as f64 / summary.wall_seconds
    );
    println!(
        "embedding cache: {} misses, {} hits ({:.0}% of stage-1 embeddings amortized)",
        summary.embedding_cache.misses,
        summary.embedding_cache.hits,
        100.0 * summary.embedding_cache.hit_rate()
    );
    println!(
        "stage split: stage1 {:.2e}s (measured on this host + modeled init), \
         stage2 {:.2e}s (modeled), stage3 {:.2e}s (measured on this host); \
         stage-1 share {:.1}%",
        summary.stage1_seconds,
        summary.stage2_seconds,
        summary.stage3_seconds,
        100.0 * summary.stage1_fraction
    );
    println!(
        "speedup: {:.1}x wall-clock over serial cold submission",
        solo_seconds / summary.wall_seconds
    );

    let mut ok = true;
    let topologies = jobs
        .iter()
        .map(|job| graph_key(&qubo_to_ising(job).ising.interaction_graph()))
        .collect::<HashSet<_>>()
        .len();
    if summary.embedding_cache.misses != topologies {
        eprintln!(
            "FAIL: {} CMR runs for {topologies} distinct topologies",
            summary.embedding_cache.misses
        );
        ok = false;
    }
    for (job, (batched, solo)) in report.results.iter().zip(&solo).enumerate() {
        let same = match (batched, solo) {
            (Ok(batched), Ok(solo)) => {
                batched.solution == solo.solution && batched.stage2.samples == solo.stage2.samples
            }
            (Err(batched), Err(solo)) => batched == solo,
            _ => false,
        };
        if !same {
            eprintln!("FAIL: job {job}: the batch result differs from its solo execute");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

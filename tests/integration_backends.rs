//! Cross-crate integration tests for the pluggable stage-2 backends and the
//! batch-submission surface:
//!
//! * backend parity — simulated annealing, parallel tempering and exact
//!   enumeration agree on the optimum of small MAX-CUT and
//!   number-partitioning instances pushed through the full pipeline,
//! * batch semantics — `execute_batch` returns exactly what per-job
//!   `execute` returns under the same seeds,
//! * stage-1 amortization — a batch of jobs sharing one interaction
//!   topology runs the embedding heuristic once.

use chimera_graph::generators;
use qubo_ising::prelude::*;
use qubo_ising::Qubo;
use split_exec::prelude::*;

fn pipeline_with(seed: u64, kind: BackendKind) -> Pipeline {
    let config = SplitExecConfig::with_seed(seed)
        .with_accuracy(0.999_999) // generous Eq. (6) read budget
        .with_backend(kind);
    Pipeline::new(SplitMachine::paper_default(), config)
}

#[test]
fn all_backends_reach_the_maxcut_optimum() {
    let maxcut = MaxCut::unweighted(generators::cycle(8));
    let qubo = maxcut.to_qubo();
    let exact = solve_qubo_exact(&qubo);
    for kind in BackendKind::all() {
        let report = pipeline_with(7, kind).execute(&qubo).unwrap();
        assert_eq!(report.stage2.backend, kind.to_string());
        assert!(
            (report.solution.qubo_energy - exact.energy).abs() < 1e-9,
            "{kind}: sampled {} vs exact {}",
            report.solution.qubo_energy,
            exact.energy
        );
        // The optimum cut of C8 is 8.
        assert_eq!(maxcut.cut_value(&report.solution.assignment), 8.0, "{kind}");
    }
}

#[test]
fn all_backends_reach_the_partition_optimum() {
    let instance = NumberPartition::new(vec![5.0, 4.0, 3.0, 2.0, 2.0]);
    let qubo = instance.to_qubo();
    let exact = solve_qubo_exact(&qubo);
    for kind in BackendKind::all() {
        let report = pipeline_with(11, kind).execute(&qubo).unwrap();
        assert!(
            (report.solution.qubo_energy - exact.energy).abs() < 1e-6,
            "{kind}: sampled {} vs exact {}",
            report.solution.qubo_energy,
            exact.energy
        );
        // A perfect split exists: {5, 3} vs {4, 2, 2}.
        assert_eq!(
            instance.imbalance(&report.solution.assignment),
            0.0,
            "{kind}"
        );
    }
}

#[test]
fn backends_agree_with_each_other_on_the_ground_state() {
    let qubo = MaxCut::unweighted(generators::path(7)).to_qubo();
    let energies: Vec<f64> = BackendKind::all()
        .into_iter()
        .map(|kind| {
            pipeline_with(3, kind)
                .execute(&qubo)
                .unwrap()
                .solution
                .qubo_energy
        })
        .collect();
    for pair in energies.windows(2) {
        assert!((pair[0] - pair[1]).abs() < 1e-9, "energies {energies:?}");
    }
}

#[test]
fn execute_batch_equals_per_job_execute_for_every_backend() {
    let jobs: Vec<Qubo> = vec![
        MaxCut::unweighted(generators::cycle(6)).to_qubo(),
        MaxCut::unweighted(generators::path(5)).to_qubo(),
        NumberPartition::new(vec![4.0, 3.0, 2.0, 1.0]).to_qubo(),
    ];
    for kind in BackendKind::all() {
        let pipeline = pipeline_with(13, kind);
        let batch = pipeline
            .execute_batch(&jobs, &EmbeddingCache::new())
            .results;
        assert_eq!(batch.len(), jobs.len());
        for (job, batched) in jobs.iter().zip(&batch) {
            let solo = pipeline.execute(job).unwrap();
            let batched = batched.as_ref().unwrap();
            assert_eq!(solo.solution, batched.solution, "{kind}");
            assert_eq!(solo.stage2.samples, batched.stage2.samples, "{kind}");
            assert_eq!(solo.stage3.ranked, batched.stage3.ranked, "{kind}");
        }
    }
}

#[test]
fn identical_topology_batch_embeds_exactly_once() {
    // Ten MAX-CUT jobs over the same 8-cycle with different weights: the
    // interaction graph is identical, so stage-1 embedding must run once
    // and be served from the cache for every job.
    let jobs: Vec<Qubo> = (0..10)
        .map(|w| {
            let graph = generators::cycle(8);
            let weights: Vec<((usize, usize), f64)> = graph
                .edges()
                .map(|(u, v)| ((u, v), 1.0 + w as f64))
                .collect();
            MaxCut::weighted(graph.clone(), &weights).to_qubo()
        })
        .collect();
    let pipeline = pipeline_with(5, BackendKind::SimulatedAnnealing);
    let report = pipeline.execute_batch(&jobs, &EmbeddingCache::new());
    assert_eq!(report.summary.succeeded, 10);
    assert_eq!(
        report.summary.embedding_cache.misses, 1,
        "embedding should be computed exactly once for 10 identical-topology jobs"
    );
    assert_eq!(report.summary.embedding_cache.hits, 10);
    for result in &report.results {
        assert!(result.as_ref().unwrap().stage1.embedding_cache_hit);
    }
}

#[test]
fn backend_kind_parses_the_cli_names() {
    for (name, expected) in [
        ("sa", BackendKind::SimulatedAnnealing),
        ("simulated-annealing", BackendKind::SimulatedAnnealing),
        ("pt", BackendKind::ParallelTempering),
        ("parallel-tempering", BackendKind::ParallelTempering),
        ("exact", BackendKind::Exact),
        ("brute-force", BackendKind::Exact),
    ] {
        assert_eq!(name.parse::<BackendKind>().unwrap(), expected);
    }
    assert!("dwave".parse::<BackendKind>().is_err());
    // Round trip through Display.
    for kind in BackendKind::all() {
        assert_eq!(kind.to_string().parse::<BackendKind>().unwrap(), kind);
    }
}

#[test]
fn batch_wall_clock_amortization_is_observable() {
    // The batch path must spend strictly fewer embedding computations than
    // jobs; with one topology and N jobs the modeled stage-1 time still
    // charges per job (programming is per job), but the measured embedding
    // seconds collapse for cache hits.
    let jobs: Vec<Qubo> = (0..6)
        .map(|_| MaxCut::unweighted(generators::cycle(10)).to_qubo())
        .collect();
    let pipeline = pipeline_with(9, BackendKind::SimulatedAnnealing);
    let report = pipeline.execute_batch(&jobs, &EmbeddingCache::new());
    assert_eq!(report.summary.succeeded, 6);
    let embed_seconds: Vec<f64> = report
        .results
        .iter()
        .map(|r| r.as_ref().unwrap().stage1.embedding_seconds)
        .collect();
    // Cache hits record (near-)zero embedding time.
    assert!(
        embed_seconds.iter().all(|&s| s == 0.0),
        "all jobs were warm-cache hits: {embed_seconds:?}"
    );
}

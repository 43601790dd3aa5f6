//! Batch submission: many QUBO jobs through one pipeline.
//!
//! The ROADMAP's target workload is a stream of jobs sharing one QPU, and
//! the paper's own analysis says where the shared cost lies: stage-1
//! pre-processing (minor embedding) dominates the time-to-solution, while
//! stage 2 is microseconds.  Batch submission therefore amortizes stage 1 —
//! the interaction graph of every job is keyed into an [`EmbeddingCache`],
//! and jobs with a topology seen before (the common case when re-solving a
//! problem family with different coefficients) skip the embedding heuristic
//! entirely.  Jobs then run in submission order; every job's result is
//! bit-identical to submitting it alone through [`Pipeline::execute`] with
//! the same configuration, because all stochastic components are seeded
//! per job.
//!
//! [`Pipeline::execute_batch`] returns the per-job results;
//! [`Pipeline::execute_batch_report`] additionally aggregates per-stage
//! timing and cache behavior into a [`BatchReport`].

use crate::error::PipelineError;
use crate::offline_cache::{graph_key, CacheStats, EmbeddingCache};
use crate::pipeline::{ExecutionReport, Pipeline};
use qubo_ising::{qubo_to_ising, Qubo};
use std::collections::HashSet;
use std::fmt;

/// Aggregated outcome of one batch submission.
///
/// (The compact, plain-data form is [`BatchSummary`] — see
/// [`BatchReport::summary`].)
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub results: Vec<Result<ExecutionReport, PipelineError>>,
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Number of jobs that produced a solution.
    pub succeeded: usize,
    /// Sum of modeled stage-1 seconds over successful jobs.
    pub stage1_seconds: f64,
    /// Sum of modeled stage-2 seconds over successful jobs.
    pub stage2_seconds: f64,
    /// Sum of measured stage-3 seconds over successful jobs.
    pub stage3_seconds: f64,
    /// Sum of end-to-end modeled seconds over successful jobs.
    pub total_seconds: f64,
    /// Wall-clock seconds the whole batch took on the host (the modeled
    /// time is `total_seconds`).
    pub wall_seconds: f64,
    /// Embedding-cache behavior for this batch (hits = jobs whose stage-1
    /// embedding was amortized away).
    pub embedding_cache: CacheStats,
}

impl BatchReport {
    /// Number of jobs that failed.
    pub fn failed(&self) -> usize {
        self.jobs - self.succeeded
    }

    /// Fraction of the summed modeled time spent in stage 1 — the batch
    /// analogue of the paper's headline single-job observation.
    pub fn stage1_fraction(&self) -> f64 {
        if self.total_seconds == 0.0 {
            0.0
        } else {
            self.stage1_seconds / self.total_seconds
        }
    }

    /// The serializable aggregate view of this report.
    pub fn summary(&self) -> BatchSummary {
        BatchSummary {
            jobs: self.jobs,
            succeeded: self.succeeded,
            failed: self.failed(),
            stage1_seconds: self.stage1_seconds,
            stage2_seconds: self.stage2_seconds,
            stage3_seconds: self.stage3_seconds,
            total_seconds: self.total_seconds,
            wall_seconds: self.wall_seconds,
            stage1_fraction: self.stage1_fraction(),
            embedding_cache: self.embedding_cache,
        }
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.summary().fmt(f)
    }
}

/// The aggregate, wire-friendly view of a batch (or cluster-simulation)
/// outcome: job counts, summed per-stage seconds, wall clock and embedding
/// cache behavior.  This is the shared report format between
/// [`Pipeline::execute_batch_report`] and the `sx_cluster` simulator, which
/// produces the same shape for a whole fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSummary {
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Number of jobs that produced a solution.
    pub succeeded: usize,
    /// Number of jobs that failed (or were rejected).
    pub failed: usize,
    /// Sum of stage-1 seconds over successful jobs.
    pub stage1_seconds: f64,
    /// Sum of stage-2 seconds over successful jobs.
    pub stage2_seconds: f64,
    /// Sum of stage-3 seconds over successful jobs.
    pub stage3_seconds: f64,
    /// Sum of end-to-end seconds over successful jobs (serial accounting).
    pub total_seconds: f64,
    /// Wall-clock (or virtual-clock) seconds the whole run spanned.
    pub wall_seconds: f64,
    /// Fraction of the summed time spent in stage 1.
    pub stage1_fraction: f64,
    /// Embedding-cache behavior over the run.
    pub embedding_cache: CacheStats,
}

impl fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} jobs: {} succeeded, {} failed, {:.3}s wall",
            self.jobs, self.succeeded, self.failed, self.wall_seconds
        )?;
        writeln!(
            f,
            "stages: 1 = {:.3e}s, 2 = {:.3e}s, 3 = {:.3e}s (stage-1 share {:.1}%)",
            self.stage1_seconds,
            self.stage2_seconds,
            self.stage3_seconds,
            100.0 * self.stage1_fraction
        )?;
        write!(
            f,
            "embedding cache: {} misses, {} hits ({:.0}% amortized)",
            self.embedding_cache.misses,
            self.embedding_cache.hits,
            100.0 * self.embedding_cache.hit_rate()
        )
    }
}

impl Pipeline {
    /// Execute a batch of jobs, amortizing stage-1 embeddings across
    /// identical interaction topologies and running jobs in submission
    /// order.  Results come back in that order; each equals what
    /// [`Pipeline::execute`] would return for that job alone.
    pub fn execute_batch(&self, jobs: &[Qubo]) -> Vec<Result<ExecutionReport, PipelineError>> {
        self.execute_batch_report(jobs).results
    }

    /// Like [`Pipeline::execute_batch`], with aggregate timing and cache
    /// statistics.  A fresh [`EmbeddingCache`] is used per call; to carry
    /// embeddings across batches (the paper's off-line embedding table),
    /// hold a cache and use [`Pipeline::execute_batch_with_cache`].
    pub fn execute_batch_report(&self, jobs: &[Qubo]) -> BatchReport {
        self.execute_batch_with_cache(jobs, &EmbeddingCache::new())
    }

    /// Execute a batch against a caller-held embedding cache.
    pub fn execute_batch_with_cache(&self, jobs: &[Qubo], cache: &EmbeddingCache) -> BatchReport {
        // sx-lint: allow(D001) -- measures real batch wall-clock throughput; the pipeline executes actual compute here
        let start = std::time::Instant::now();
        let stats_before = cache.stats();

        // Warm the cache once per distinct interaction topology before any
        // job runs.  This is the paper's off-line embedding step (Sec. 3.3):
        // each distinct topology costs one miss here, and every job, the
        // first of its topology included, is then served from the table, so
        // misses = distinct topologies and hits = jobs.  A topology that
        // fails to embed is tried once here (failures are not cached); the
        // job itself surfaces the error.  Empty jobs are rejected later by
        // stage 1.
        let mut seen = HashSet::new();
        for job in jobs.iter().filter(|job| job.num_variables() > 0) {
            let graph = qubo_to_ising(job).ising.interaction_graph();
            if seen.insert(graph_key(&graph))
                && !cache.contains(&graph, &self.machine, &self.config)
            {
                let _ = cache.get_or_compute(&graph, &self.machine, &self.config);
            }
        }

        // Every job is seeded by the shared config, so its result does not
        // depend on its place in the batch.
        let results: Vec<Result<ExecutionReport, PipelineError>> = jobs
            .iter()
            .map(|job| self.execute_cached(job, cache))
            .collect();

        let mut report = BatchReport {
            jobs: jobs.len(),
            succeeded: 0,
            stage1_seconds: 0.0,
            stage2_seconds: 0.0,
            stage3_seconds: 0.0,
            total_seconds: 0.0,
            wall_seconds: 0.0,
            embedding_cache: CacheStats::default(),
            results: Vec::new(),
        };
        for execution in results.iter().flatten() {
            report.succeeded += 1;
            report.stage1_seconds += execution.stage1.total_seconds;
            report.stage2_seconds += execution.stage2.total_seconds;
            report.stage3_seconds += execution.stage3.measured_seconds;
            report.total_seconds += execution.total_seconds();
        }
        let stats_after = cache.stats();
        report.embedding_cache = CacheStats {
            hits: stats_after.hits - stats_before.hits,
            misses: stats_after.misses - stats_before.misses,
        };
        report.wall_seconds = start.elapsed().as_secs_f64();
        report.results = results;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitExecConfig;
    use crate::machine::SplitMachine;
    use chimera_graph::generators;
    use qubo_ising::prelude::MaxCut;

    fn pipeline(seed: u64) -> Pipeline {
        Pipeline::new(
            SplitMachine::paper_default(),
            SplitExecConfig::with_seed(seed),
        )
    }

    #[test]
    fn batch_results_equal_individual_execution() {
        let p = pipeline(7);
        let jobs: Vec<Qubo> = (4..9)
            .map(|n| MaxCut::unweighted(generators::cycle(n)).to_qubo())
            .collect();
        let batch = p.execute_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for (job, result) in jobs.iter().zip(&batch) {
            let solo = p.execute(job).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(solo.solution, batched.solution);
            assert_eq!(solo.stage2.samples, batched.stage2.samples);
        }
    }

    #[test]
    fn identical_topologies_embed_once() {
        let p = pipeline(3);
        // Five MAX-CUT instances over the same cycle topology with different
        // edge weights: one embedding computation, the rest cache hits.
        let jobs: Vec<Qubo> = (0..5)
            .map(|w| {
                let graph = generators::cycle(8);
                let weights: Vec<((usize, usize), f64)> = graph
                    .edges()
                    .map(|(u, v)| ((u, v), 1.0 + w as f64))
                    .collect();
                MaxCut::weighted(graph.clone(), &weights).to_qubo()
            })
            .collect();
        let report = p.execute_batch_report(&jobs);
        assert_eq!(report.succeeded, 5);
        assert_eq!(report.embedding_cache.misses, 1);
        assert_eq!(report.embedding_cache.hits, 5);
        // The warm pass computed the embedding; every job then hit.
        let cache_hits = report
            .results
            .iter()
            .filter(|r| r.as_ref().unwrap().stage1.embedding_cache_hit)
            .count();
        assert_eq!(cache_hits, 5);
    }

    #[test]
    fn mixed_topologies_get_one_miss_each() {
        let p = pipeline(5);
        let jobs: Vec<Qubo> = vec![
            MaxCut::unweighted(generators::cycle(6)).to_qubo(),
            MaxCut::unweighted(generators::path(6)).to_qubo(),
            MaxCut::unweighted(generators::cycle(6)).to_qubo(),
        ];
        let report = p.execute_batch_report(&jobs);
        assert_eq!(report.succeeded, 3);
        assert_eq!(report.embedding_cache.misses, 2);
        assert_eq!(report.embedding_cache.hits, 3);
    }

    #[test]
    fn failures_are_reported_per_job_without_poisoning_the_batch() {
        let p = pipeline(1);
        let jobs: Vec<Qubo> = vec![
            MaxCut::unweighted(generators::cycle(5)).to_qubo(),
            Qubo::new(0), // rejected: no variables
            MaxCut::unweighted(generators::path(4)).to_qubo(),
        ];
        let report = p.execute_batch_report(&jobs);
        assert_eq!(report.jobs, 3);
        assert_eq!(report.succeeded, 2);
        assert_eq!(report.failed(), 1);
        assert!(matches!(report.results[1], Err(PipelineError::BadInput(_))));
        assert!(report.results[0].is_ok() && report.results[2].is_ok());
    }

    #[test]
    fn batch_report_aggregates_are_consistent() {
        let p = pipeline(11);
        let jobs: Vec<Qubo> = (5..8)
            .map(|n| MaxCut::unweighted(generators::cycle(n)).to_qubo())
            .collect();
        let report = p.execute_batch_report(&jobs);
        let summed: f64 = report
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().total_seconds())
            .sum();
        assert!((report.total_seconds - summed).abs() < 1e-9);
        assert!(report.stage1_fraction() > 0.9);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn persistent_cache_carries_across_batches() {
        let p = pipeline(2);
        let cache = EmbeddingCache::new();
        let jobs = vec![MaxCut::unweighted(generators::cycle(7)).to_qubo()];
        let first = p.execute_batch_with_cache(&jobs, &cache);
        assert_eq!(first.embedding_cache.misses, 1);
        let second = p.execute_batch_with_cache(&jobs, &cache);
        assert_eq!(second.embedding_cache.misses, 0);
        assert_eq!(second.embedding_cache.hits, 1);
    }

    #[test]
    fn summary_mirrors_the_report_and_displays() {
        let p = pipeline(9);
        let jobs: Vec<Qubo> = vec![
            MaxCut::unweighted(generators::cycle(6)).to_qubo(),
            Qubo::new(0),
            MaxCut::unweighted(generators::cycle(6)).to_qubo(),
        ];
        let report = p.execute_batch_report(&jobs);
        let summary = report.summary();
        assert_eq!(summary.jobs, 3);
        assert_eq!(summary.succeeded, 2);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.stage1_seconds, report.stage1_seconds);
        assert_eq!(summary.total_seconds, report.total_seconds);
        assert_eq!(summary.embedding_cache, report.embedding_cache);
        assert!((summary.stage1_fraction - report.stage1_fraction()).abs() < 1e-15);

        let text = format!("{report}");
        assert!(text.contains("3 jobs: 2 succeeded, 1 failed"));
        assert!(text.contains("stage-1 share"));
        assert!(text.contains("embedding cache"));
        assert_eq!(text, format!("{summary}"));
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = pipeline(1).execute_batch_report(&[]);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.stage1_fraction(), 0.0);
        assert!(pipeline(1).execute_batch(&[]).is_empty());
    }
}

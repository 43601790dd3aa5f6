//! The end-to-end split-execution pipeline: predicted and executed.
//!
//! [`Pipeline::predict`] produces the paper's analytic three-stage breakdown
//! for a given logical problem size; [`Pipeline::execute`] runs the whole
//! application (convert → embed → program → sample → post-process) on a
//! concrete QUBO and reports measured/modeled timings next to the solution.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::offline_cache::EmbeddingCache;
use crate::stage1::{execute_stage1_cached, predict_stage1, Stage1Execution, Stage1Prediction};
use crate::stage2::{
    execute_stage2_with_backend, predict_stage2, Stage2Execution, Stage2Prediction,
};
use crate::stage3::{execute_stage3, predict_stage3, Stage3Execution, Stage3Prediction};
use quantum_anneal::SamplerBackend;
use qubo_ising::convert::spins_to_bits;
use qubo_ising::Qubo;
use std::sync::Arc;

/// The analytic three-stage breakdown for one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedBreakdown {
    /// Logical problem size.
    pub lps: usize,
    /// Stage-1 prediction (pre-processing/embedding).
    pub stage1: Stage1Prediction,
    /// Stage-2 prediction (QPU sampling).
    pub stage2: Stage2Prediction,
    /// Stage-3 prediction (post-processing).
    pub stage3: Stage3Prediction,
}

impl PredictedBreakdown {
    /// Total predicted time-to-solution in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stage1.total_seconds + self.stage2.total_seconds + self.stage3.total_seconds
    }

    /// Fraction of the total attributed to stage 1 — the paper's headline
    /// observation is that this approaches 1 as the problem grows.
    pub fn stage1_fraction(&self) -> f64 {
        self.stage1.total_seconds / self.total_seconds()
    }
}

/// The solution extracted from an executed pipeline, in QUBO terms.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionSummary {
    /// Best binary assignment found.
    pub assignment: Vec<bool>,
    /// Its QUBO objective value `bᵀQb`.
    pub qubo_energy: f64,
    /// Its logical Ising energy.
    pub ising_energy: f64,
    /// Number of distinct configurations observed in the ensemble.
    pub distinct_solutions: usize,
}

/// The measured/modeled result of executing the whole application once.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Stage-1 execution record.
    pub stage1: Stage1Execution,
    /// Stage-2 execution record.
    pub stage2: Stage2Execution,
    /// Stage-3 execution record.
    pub stage3: Stage3Execution,
    /// The extracted solution.
    pub solution: SolutionSummary,
}

impl ExecutionReport {
    /// End-to-end time combining measured classical work with modeled
    /// hardware constants (comparable with [`PredictedBreakdown`]).
    pub fn total_seconds(&self) -> f64 {
        self.stage1.total_seconds + self.stage2.total_seconds + self.stage3.measured_seconds
    }

    /// Fraction of the end-to-end time spent in stage 1.
    pub fn stage1_fraction(&self) -> f64 {
        self.stage1.total_seconds / self.total_seconds()
    }
}

/// The split-execution pipeline: a machine, an application configuration and
/// a pluggable stage-2 sampler backend.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The machine the application runs on.
    pub machine: SplitMachine,
    /// Application parameters.
    pub config: SplitExecConfig,
    /// An injected stage-2 sampler; `None` means "build from `config`", so
    /// mutating `config.backend`/`config.schedule` after construction takes
    /// effect on the next execution.
    injected_backend: Option<Arc<dyn SamplerBackend>>,
}

impl Pipeline {
    /// Create a pipeline over the given machine and configuration; stage 2
    /// is served by the backend named in `config.backend` (simulated
    /// annealing by default).
    pub fn new(machine: SplitMachine, config: SplitExecConfig) -> Self {
        Self {
            machine,
            config,
            injected_backend: None,
        }
    }

    /// A pipeline with the paper's default machine and parameters.
    pub fn paper_default() -> Self {
        Self::new(SplitMachine::paper_default(), SplitExecConfig::default())
    }

    /// Replace the stage-2 sampler with any [`SamplerBackend`]
    /// implementation (builder style).  An injected backend takes precedence
    /// over `config.backend` until the pipeline is rebuilt.
    pub fn with_backend(mut self, backend: Arc<dyn SamplerBackend>) -> Self {
        self.injected_backend = Some(backend);
        self
    }

    /// The stage-2 backend the next execution will dispatch onto: the
    /// injected one if present, otherwise the one named by the *current*
    /// `config.backend` (built with the current `config.schedule`).
    pub fn backend(&self) -> Arc<dyn SamplerBackend> {
        self.injected_backend.clone().unwrap_or_else(|| {
            self.config
                .backend
                .build_with_schedule(self.config.schedule)
        })
    }

    /// Analytic prediction of the three-stage breakdown for a logical problem
    /// of `lps` spins.
    pub fn predict(&self, lps: usize) -> Result<PredictedBreakdown, PipelineError> {
        Ok(PredictedBreakdown {
            lps,
            stage1: predict_stage1(&self.machine, lps)?,
            stage2: predict_stage2(
                &self.machine,
                self.config.accuracy,
                self.config.success_probability,
            )?,
            stage3: predict_stage3(
                &self.machine,
                lps,
                self.config.accuracy,
                self.config.success_probability,
            )?,
        })
    }

    /// Execute the full application on a concrete QUBO instance.
    pub fn execute(&self, qubo: &Qubo) -> Result<ExecutionReport, PipelineError> {
        self.execute_impl(qubo, None)
    }

    /// Execute the full application, serving the stage-1 minor embedding
    /// from `cache` when an identical interaction topology has been embedded
    /// before (and storing it on a miss).  With identical configuration the
    /// solution and samples equal [`Pipeline::execute`]'s — the CMR
    /// heuristic is deterministic in its seed, so a cached embedding is the
    /// embedding a fresh run would compute.
    pub fn execute_cached(
        &self,
        qubo: &Qubo,
        cache: &EmbeddingCache,
    ) -> Result<ExecutionReport, PipelineError> {
        self.execute_impl(qubo, Some(cache))
    }

    fn execute_impl(
        &self,
        qubo: &Qubo,
        cache: Option<&EmbeddingCache>,
    ) -> Result<ExecutionReport, PipelineError> {
        let stage1 = execute_stage1_cached(&self.machine, &self.config, qubo, cache)?;
        let backend = self.backend();
        let stage2 = execute_stage2_with_backend(
            &self.machine,
            &self.config,
            &stage1.embedded.physical,
            backend.as_ref(),
        )?;
        let stage3 = execute_stage3(
            &self.machine,
            &stage1.embedded.embedding,
            &stage1.logical,
            &stage2.samples,
        )?;
        let assignment = spins_to_bits(&stage3.best_spins);
        let solution = SolutionSummary {
            qubo_energy: qubo.energy(&assignment),
            ising_energy: stage3.best_energy,
            distinct_solutions: stage3.ranked.len(),
            assignment,
        };
        Ok(ExecutionReport {
            stage1,
            stage2,
            stage3,
            solution,
        })
    }

    /// Convenience wrapper: execute and return only the solution summary.
    pub fn solve(&self, qubo: &Qubo) -> Result<SolutionSummary, PipelineError> {
        Ok(self.execute(qubo)?.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;
    use qubo_ising::prelude::{MaxCut, NumberPartition};
    use qubo_ising::solve_qubo_exact;

    fn pipeline(seed: u64) -> Pipeline {
        Pipeline::new(
            SplitMachine::paper_default(),
            SplitExecConfig::with_seed(seed),
        )
    }

    #[test]
    fn prediction_breakdown_is_stage1_dominated() {
        let p = pipeline(1);
        for lps in [10, 30, 60, 100] {
            let breakdown = p.predict(lps).unwrap();
            assert!(
                breakdown.stage1_fraction() > 0.99,
                "lps {lps}: fraction {}",
                breakdown.stage1_fraction()
            );
            assert!(breakdown.total_seconds() > 0.0);
        }
    }

    #[test]
    fn prediction_total_grows_with_problem_size() {
        let p = pipeline(1);
        let totals: Vec<f64> = [10, 30, 60, 100]
            .iter()
            .map(|&n| p.predict(n).unwrap().total_seconds())
            .collect();
        assert!(totals.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn execute_maxcut_cycle_finds_optimal_cut() {
        let p = pipeline(7);
        let maxcut = MaxCut::unweighted(generators::cycle(8));
        let qubo = maxcut.to_qubo();
        let report = p.execute(&qubo).unwrap();
        // C8's maximum cut is 8; the sampler should find it for such a tiny
        // instance.
        let cut = maxcut.cut_value(&report.solution.assignment);
        assert!(cut >= 6.0, "cut {cut} unexpectedly poor");
        assert!(report.total_seconds() > 0.0);
        assert!(report.stage1_fraction() > 0.5);
        assert_eq!(report.stage2.samples.num_reads(), p.config.reads());
    }

    #[test]
    fn execute_number_partition_reaches_exact_optimum() {
        // Ask for more nines of accuracy so Eq. (6) sizes the read count
        // generously enough that the 4-spin optimum is found regardless of
        // the sampler's stream details.
        let mut p = pipeline(11);
        p.config = p.config.with_accuracy(0.999_999);
        let instance = NumberPartition::new(vec![5.0, 4.0, 3.0, 2.0, 2.0]);
        let qubo = instance.to_qubo();
        let exact = solve_qubo_exact(&qubo);
        let report = p.execute(&qubo).unwrap();
        // The sampled optimum should match the brute-force optimum for this
        // 5-variable instance (perfect split exists: {5,3} vs {4,2,2}).
        assert!(
            (report.solution.qubo_energy - exact.energy).abs() < 1e-6,
            "sampled {} vs exact {}",
            report.solution.qubo_energy,
            exact.energy
        );
        assert_eq!(instance.imbalance(&report.solution.assignment), 0.0);
    }

    #[test]
    fn execute_is_deterministic_in_seed() {
        let qubo = MaxCut::unweighted(generators::cycle(6)).to_qubo();
        let a = pipeline(3).execute(&qubo).unwrap();
        let b = pipeline(3).execute(&qubo).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.stage2.samples, b.stage2.samples);
    }

    #[test]
    fn backend_is_pluggable_per_pipeline() {
        use quantum_anneal::{BackendKind, ExactEnumerationBackend};
        use std::sync::Arc;
        let qubo = MaxCut::unweighted(generators::cycle(8)).to_qubo();
        let exact = solve_qubo_exact(&qubo);

        // Config-selected backend.
        let config = SplitExecConfig::with_seed(7).with_backend(BackendKind::Exact);
        let p = Pipeline::new(SplitMachine::paper_default(), config);
        assert_eq!(p.backend().name(), "exact");
        let report = p.execute(&qubo).unwrap();
        assert!((report.solution.qubo_energy - exact.energy).abs() < 1e-9);
        assert_eq!(report.stage2.backend, "exact");

        // Builder-injected custom backend instance.
        let p = pipeline(7).with_backend(Arc::new(ExactEnumerationBackend::with_max_spins(64)));
        let report = p.execute(&qubo).unwrap();
        assert!((report.solution.qubo_energy - exact.energy).abs() < 1e-9);

        // Mutating the public config after construction must take effect on
        // the next execution (no stale snapshot).
        let mut p = pipeline(7);
        assert_eq!(p.backend().name(), "simulated-annealing");
        p.config = p.config.with_backend(BackendKind::Exact);
        assert_eq!(p.backend().name(), "exact");
        assert_eq!(p.execute(&qubo).unwrap().stage2.backend, "exact");
    }

    #[test]
    fn oversized_program_is_a_backend_error() {
        use quantum_anneal::{BackendKind, SamplerError};
        let config = SplitExecConfig::with_seed(1).with_backend(BackendKind::Exact);
        let p = Pipeline::new(SplitMachine::paper_default(), config);
        // 30 logical vertices exceed the exact backend's 24-spin cap once
        // embedded (the physical program only grows).
        let qubo = MaxCut::unweighted(generators::cycle(30)).to_qubo();
        let err = p.execute(&qubo).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Backend(SamplerError::TooLarge { .. })
        ));
    }

    #[test]
    fn execute_rejects_empty_input() {
        let err = pipeline(1).execute(&Qubo::new(0)).unwrap_err();
        assert!(matches!(err, PipelineError::BadInput(_)));
    }

    #[test]
    fn solve_returns_solution_only() {
        let qubo = MaxCut::unweighted(generators::path(5)).to_qubo();
        let solution = pipeline(5).solve(&qubo).unwrap();
        assert_eq!(solution.assignment.len(), 5);
        assert!(solution.distinct_solutions >= 1);
    }

    #[test]
    fn execution_report_matches_prediction_shape() {
        // The measured end-to-end time is also stage-1 dominated (the fixed
        // programming constant plus embedding dwarf the microsecond-scale
        // stage 2/3), reproducing the paper's qualitative conclusion.
        let p = pipeline(13);
        let qubo = MaxCut::unweighted(generators::cycle(10)).to_qubo();
        let report = p.execute(&qubo).unwrap();
        assert!(report.stage1.total_seconds > report.stage2.total_seconds);
        assert!(report.stage1.total_seconds > report.stage3.measured_seconds);
    }
}

//! # split-exec — performance models for split-execution computing systems
//!
//! The core crate of this reproduction of Humble et al., *Performance Models
//! for Split-execution Computing Systems* (2016).  A split-execution system
//! couples a conventional host CPU with a special-purpose quantum processing
//! unit (QPU); solving a discrete optimization problem then involves three
//! stages:
//!
//! 1. **Stage 1 — classical pre-processing** ([`stage1`]): build the logical
//!    Ising model from the QUBO input, minor-embed it into the Chimera
//!    hardware graph, spread the parameters over the embedded chains and
//!    program the electronic control system.
//! 2. **Stage 2 — quantum execution** ([`stage2`]): run enough annealing
//!    reads (Eq. 6) to reach the requested solution accuracy.  The sampler
//!    is a pluggable [`quantum_anneal::SamplerBackend`] — simulated
//!    annealing by default, parallel tempering or exact enumeration by
//!    configuration ([`SplitExecConfig::with_backend`]) or injection
//!    ([`Pipeline::with_backend`]).
//! 3. **Stage 3 — classical post-processing** ([`stage3`]): un-embed and
//!    sort the readout ensemble and return the optimization result.
//!
//! Each stage has an *analytic* path (an ASPEN-style model walk using the
//! listings published in the paper's Figs. 5–8) and an *executable* path
//! (real implementations from the substrate crates, with wall-clock
//! measurement), so every figure of the paper's evaluation can be
//! regenerated as model-vs-measured.  The headline result — the classical
//! embedding step dominates the time-to-solution, so the bottleneck of
//! split-execution lies at the quantum-classical interface rather than in
//! quantum execution — falls out of either path.
//!
//! Batch submission ([`batch`]) amortizes the stage-1 bottleneck: jobs
//! sharing an interaction topology are embedded once (the paper's Sec. 3.3
//! off-line embedding table, [`offline_cache`]) before the jobs run in
//! submission order.
//!
//! ```
//! use split_exec::prelude::*;
//! use chimera_graph::generators;
//! use qubo_ising::prelude::MaxCut;
//!
//! let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::with_seed(7));
//! // Analytic three-stage breakdown at logical problem size 30:
//! let predicted = pipeline.predict(30)?;
//! assert!(predicted.stage1_fraction() > 0.99);
//! // Execute the full application on a small MAX-CUT instance:
//! let qubo = MaxCut::unweighted(generators::cycle(8)).to_qubo();
//! let report = pipeline.execute(&qubo)?;
//! assert_eq!(report.solution.assignment.len(), 8);
//!
//! // Stage 2 is pluggable: the same job on the exact-enumeration oracle.
//! let exact = Pipeline::new(
//!     SplitMachine::paper_default(),
//!     SplitExecConfig::with_seed(7).with_backend(BackendKind::Exact),
//! );
//! assert_eq!(exact.execute(&qubo)?.stage2.backend, "exact");
//!
//! // Batch submission embeds a repeated topology once and reuses it.
//! let jobs = vec![qubo.clone(), qubo.clone(), qubo];
//! let batch = pipeline.execute_batch_report(&jobs);
//! assert_eq!(batch.succeeded, 3);
//! assert_eq!(batch.embedding_cache.misses, 1);
//! # Ok::<(), split_exec::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code reports through `Display` impls and return values, never
// the terminal.
#![warn(clippy::print_stdout)]

pub mod batch;
pub mod config;
pub mod cost;
pub mod error;
pub mod machine;
pub mod offline_cache;
pub mod pipeline;
pub mod report;
pub mod sequence;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod timing;

pub use batch::{BatchReport, BatchSummary};
pub use config::SplitExecConfig;
pub use cost::{CostModel, StageCosts};
pub use error::PipelineError;
pub use machine::{Architecture, QpuModel, SplitMachine};
pub use offline_cache::{CacheStats, EmbeddingCache};
pub use pipeline::{ExecutionReport, Pipeline, PredictedBreakdown, SolutionSummary};
pub use sequence::{Layer, SequenceTrace};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::batch::{BatchReport, BatchSummary};
    pub use crate::config::SplitExecConfig;
    pub use crate::cost::{CostModel, StageCosts};
    pub use crate::error::PipelineError;
    pub use crate::machine::{Architecture, QpuModel, SplitMachine};
    pub use crate::offline_cache::{CacheStats, EmbeddingCache};
    pub use crate::pipeline::{ExecutionReport, Pipeline, PredictedBreakdown, SolutionSummary};
    pub use crate::report::{breakdown_table, csv_series, BreakdownRow};
    pub use crate::sequence::{Layer, SequenceTrace};
    pub use crate::stage1::{execute_stage1, execute_stage1_cached, predict_stage1};
    pub use crate::stage2::{
        execute_stage2, execute_stage2_with_backend, predict_stage2, reads_for_accuracy,
    };
    pub use crate::stage3::{execute_stage3, predict_stage3};
    // Stage-2 backend selection, re-exported so pipeline users need only one
    // glob import.
    pub use quantum_anneal::backend::{
        BackendKind, ExactEnumerationBackend, ParallelTemperingBackend, SampleParams,
        SamplerBackend, SamplerError,
    };
}

#[cfg(test)]
mod proptests {
    use crate::config::SplitExecConfig;
    use crate::machine::SplitMachine;
    use crate::pipeline::Pipeline;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The predicted stage-1 share is always dominant, which is the
        /// paper's central claim.
        #[test]
        fn stage1_dominates_predictions(lps in 5usize..100) {
            let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::default());
            let p = pipeline.predict(lps).unwrap();
            prop_assert!(p.stage1_fraction() > 0.95);
            prop_assert!(p.total_seconds().is_finite());
        }

        /// Predictions scale monotonically with problem size.
        #[test]
        fn predictions_monotone_in_size(lps in 5usize..95) {
            let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::default());
            let small = pipeline.predict(lps).unwrap().total_seconds();
            let large = pipeline.predict(lps + 5).unwrap().total_seconds();
            prop_assert!(large >= small);
        }

        /// Stage-2 predictions stay in the sub-millisecond regime across the
        /// whole accuracy/success plane the paper sweeps.
        #[test]
        fn stage2_stays_microscopic(pa in 0.5f64..0.999999, ps in 0.6f64..0.9999) {
            let machine = SplitMachine::paper_default();
            let p = crate::stage2::predict_stage2(&machine, pa, ps).unwrap();
            prop_assert!(p.total_seconds < 2e-3, "{}", p.total_seconds);
            prop_assert!(p.reads >= 1);
        }
    }
}

//! Stage 1 — classical pre-processing: problem generation, minor embedding,
//! parameter setting and processor initialization.
//!
//! This is the stage the paper identifies as the bottleneck of the whole
//! split-execution application (Fig. 9a and Sec. 3.3).  Two paths are
//! provided:
//!
//! * [`predict_stage1`] walks the paper's Fig. 6 ASPEN model (worst-case CMR
//!   operation count, `LPS²` logical-Ising construction, `LPS³` parameter
//!   setting, constant electronics initialization) against the `SimpleNode`
//!   machine model — the *solid line* of Fig. 9(a).
//! * [`execute_stage1`] actually performs the work with the real
//!   implementations (QUBO→Ising conversion, CMR embedding, parameter
//!   spreading) and measures wall-clock time — the analogue of the paper's
//!   *dashed* experimentally-observed line.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::offline_cache::EmbeddingCache;
use crate::timing::timed;
use aspen_model::{listings, ApplicationModel, ParamEnv, Prediction, Predictor};
use minor_embed::{embed_ising, find_embedding, CmrStats, EmbeddedIsing, ParameterSetting};
use quantum_anneal::QpuTimings;
use qubo_ising::{qubo_to_ising, Ising, Qubo};

/// Analytic prediction for stage 1 at a given logical problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage1Prediction {
    /// Logical problem size (`LPS`, number of logical spins).
    pub lps: usize,
    /// Total predicted seconds for the stage.
    pub total_seconds: f64,
    /// Seconds attributed to building the logical Ising model and setting its
    /// parameters (`InitializeData` kernel).
    pub initialize_data_seconds: f64,
    /// Seconds attributed to the minor-embedding computation (`EmbedData`).
    pub embed_seconds: f64,
    /// Seconds attributed to electronics initialization
    /// (`InitializeProcessor`; constant).
    pub processor_initialize_seconds: f64,
    /// The worst-case embedding operation count charged by the model.
    pub embedding_ops: f64,
    /// The full ASPEN prediction, for detailed reporting.
    pub prediction: Prediction,
}

/// Walk the paper's Stage-1 model for a logical problem of `lps` spins on the
/// given machine.
pub fn predict_stage1(
    machine: &SplitMachine,
    lps: usize,
) -> Result<Stage1Prediction, PipelineError> {
    let app = ApplicationModel::from_source(listings::STAGE1_LISTING)?;
    let (m, n) = machine.lattice_dims();
    let overrides = ParamEnv::new()
        .with("LPS", lps as f64)
        .with("M", m as f64)
        .with("N", n as f64);
    let prediction = Predictor::new(&machine.aspen).predict(&app, &overrides)?;
    let env = app.resolve_params(&overrides)?;
    Ok(Stage1Prediction {
        lps,
        total_seconds: prediction.seconds(),
        initialize_data_seconds: prediction.kernel_seconds("InitializeData").unwrap_or(0.0),
        embed_seconds: prediction.kernel_seconds("EmbedData").unwrap_or(0.0),
        processor_initialize_seconds: prediction
            .kernel_seconds("InitializeProcessor")
            .unwrap_or(0.0),
        embedding_ops: env.get("EmbeddingOps")?,
        prediction,
    })
}

/// Measured result of actually running stage 1.
#[derive(Debug, Clone)]
pub struct Stage1Execution {
    /// Logical problem size (number of QUBO variables).
    pub lps: usize,
    /// Seconds spent converting the QUBO to the logical Ising model.
    pub conversion_seconds: f64,
    /// Floating-point operations counted during conversion.
    pub conversion_operations: u64,
    /// Seconds spent in the CMR embedding heuristic.
    pub embedding_seconds: f64,
    /// Work counters reported by the heuristic (zero when the embedding was
    /// served from a cache).
    pub embedding_stats: CmrStats,
    /// Whether the embedding came from an [`EmbeddingCache`] rather than
    /// being computed in-line.
    pub embedding_cache_hit: bool,
    /// Seconds spent spreading parameters over the embedded chains.
    pub parameter_seconds: f64,
    /// Parameter-setting operation count.
    pub parameter_operations: u64,
    /// Modeled electronics-initialization time (cannot be executed without
    /// the physical control system; taken from the hardware constants).
    pub processor_initialize_seconds: f64,
    /// The logical Ising model produced from the QUBO.
    pub logical: Ising,
    /// Energy offset between the QUBO and logical Ising objective.
    pub offset: f64,
    /// The embedded (physical) Ising program.
    pub embedded: EmbeddedIsing,
    /// Classical wall-clock seconds actually measured
    /// (conversion + embedding + parameter setting).
    pub measured_seconds: f64,
    /// Measured seconds plus the modeled initialization constant — the
    /// end-to-end stage-1 cost comparable with [`Stage1Prediction`].
    pub total_seconds: f64,
}

/// Execute stage 1 for a concrete QUBO on the given machine.
pub fn execute_stage1(
    machine: &SplitMachine,
    config: &SplitExecConfig,
    qubo: &Qubo,
) -> Result<Stage1Execution, PipelineError> {
    execute_stage1_cached(machine, config, qubo, None)
}

/// Execute stage 1, optionally serving the minor embedding from an
/// [`EmbeddingCache`] (the paper's Sec. 3.3 "off-line embedding" remedy; the
/// batch-submission path uses this to amortize the dominant stage-1 cost
/// across jobs with the same interaction topology).
pub fn execute_stage1_cached(
    machine: &SplitMachine,
    config: &SplitExecConfig,
    qubo: &Qubo,
    cache: Option<&EmbeddingCache>,
) -> Result<Stage1Execution, PipelineError> {
    if qubo.num_variables() == 0 {
        return Err(PipelineError::BadInput(
            "the QUBO instance has no variables".into(),
        ));
    }
    let lps = qubo.num_variables();

    // 1. Logical Ising construction (the paper's `InitializeData`).
    let (conversion, conversion_seconds) = timed(|| qubo_to_ising(qubo));
    let logical = conversion.ising;

    // 2. Minor embedding with the CMR heuristic (`EmbedData`), or a cache
    //    lookup keyed on the interaction graph.
    let interaction = logical.interaction_graph();
    let (embedding, embedding_stats, embedding_seconds, embedding_cache_hit) = match cache {
        Some(cache) => {
            let served = cache.get_or_compute(&interaction, machine, config)?;
            (
                served.embedding,
                served.stats,
                served.seconds,
                served.cache_hit,
            )
        }
        None => {
            let (outcome, seconds) =
                timed(|| find_embedding(&interaction, &machine.hardware, &config.cmr));
            let outcome = outcome?;
            (outcome.embedding, outcome.stats, seconds, false)
        }
    };

    // 3. Parameter setting over the embedded chains.
    let setting = ParameterSetting::auto(&logical, config.chain_strength_factor);
    let (embedded, parameter_seconds) =
        timed(|| embed_ising(&logical, &embedding, &machine.hardware, setting));

    // 4. Electronics initialization: a constant taken from the hardware
    //    model (we have no programmable magnetic memory to drive).
    let processor_initialize_seconds = QpuTimings::dw2x().processor_initialize_seconds();

    let measured_seconds = conversion_seconds + embedding_seconds + parameter_seconds;
    Ok(Stage1Execution {
        lps,
        conversion_seconds,
        conversion_operations: conversion.operations,
        embedding_seconds,
        embedding_stats,
        embedding_cache_hit,
        parameter_seconds,
        parameter_operations: embedded.operations,
        processor_initialize_seconds,
        logical,
        offset: conversion.offset,
        embedded,
        measured_seconds,
        total_seconds: measured_seconds + processor_initialize_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::QpuModel;
    use chimera_graph::generators;
    use minor_embed::verify_embedding;
    use qubo_ising::prelude::MaxCut;

    fn machine() -> SplitMachine {
        SplitMachine::paper_default()
    }

    #[test]
    fn prediction_matches_hand_computed_processor_initialize() {
        let p = predict_stage1(&machine(), 10).unwrap();
        // The constant block is ProcessorInitialize microseconds.
        let expected = 319_573e-6;
        assert!((p.processor_initialize_seconds - expected).abs() < 1e-9);
        assert!(p.total_seconds >= p.embed_seconds);
    }

    #[test]
    fn prediction_grows_steeply_with_problem_size() {
        let machine = machine();
        let p10 = predict_stage1(&machine, 10).unwrap();
        let p50 = predict_stage1(&machine, 50).unwrap();
        let p100 = predict_stage1(&machine, 100).unwrap();
        assert!(p50.embed_seconds > p10.embed_seconds * 10.0);
        assert!(p100.embed_seconds > p50.embed_seconds * 2.0);
        assert!(p100.embedding_ops > p50.embedding_ops);
    }

    #[test]
    fn prediction_embedding_ops_match_formula() {
        let p = predict_stage1(&machine(), 30).unwrap();
        let m = 12.0_f64;
        let ng = 8.0 * m * m;
        let eg = 4.0 * (2.0 * m * m - 2.0 * m) + 16.0 * m * m;
        let eh = 30.0 * 29.0 / 2.0;
        let expected = (eg + ng * ng.ln()) * (2.0 * eh) * 30.0 * ng;
        assert!((p.embedding_ops - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn prediction_respects_vesuvius_lattice() {
        let vesuvius = SplitMachine::new(QpuModel::Vesuvius);
        let p8 = predict_stage1(&vesuvius, 20).unwrap();
        let p12 = predict_stage1(&machine(), 20).unwrap();
        // A larger hardware graph makes the modeled embedding more expensive.
        assert!(p12.embedding_ops > p8.embedding_ops);
    }

    #[test]
    fn execution_produces_valid_embedding_and_counts() {
        let machine = machine();
        let config = SplitExecConfig::with_seed(3);
        let qubo = MaxCut::unweighted(generators::cycle(8)).to_qubo();
        let result = execute_stage1(&machine, &config, &qubo).unwrap();
        assert_eq!(result.lps, 8);
        assert!(result.conversion_operations > 0);
        assert!(result.parameter_operations > 0);
        assert!(result.embedding_stats.dijkstra_calls > 0);
        assert!(result.measured_seconds > 0.0);
        assert!(result.total_seconds > result.measured_seconds);
        verify_embedding(
            &result.logical.interaction_graph(),
            &machine.hardware,
            &result.embedded.embedding,
        )
        .unwrap();
    }

    #[test]
    fn execution_rejects_empty_problem() {
        let err =
            execute_stage1(&machine(), &SplitExecConfig::default(), &Qubo::new(0)).unwrap_err();
        assert!(matches!(err, PipelineError::BadInput(_)));
    }

    #[test]
    fn execution_propagates_embedding_failure() {
        // K40 cannot embed into a single unit cell; use a tiny faulted machine.
        let chimera = chimera_graph::Chimera::new(1, 1, 4);
        let faults = chimera_graph::FaultModel::none();
        let mut machine = SplitMachine::with_faults(QpuModel::Vesuvius, faults);
        machine.hardware = chimera.graph().clone();
        let qubo = MaxCut::unweighted(generators::complete(40)).to_qubo();
        let err = execute_stage1(&machine, &SplitExecConfig::default(), &qubo).unwrap_err();
        assert!(matches!(err, PipelineError::Embedding(_)));
    }

    #[test]
    fn modeled_init_constant_dominates_small_problems() {
        // For small inputs the fixed electronics programming cost dominates
        // the classical work, exactly as in the paper's Fig. 9(a) plateau at
        // small n.
        let machine = machine();
        let config = SplitExecConfig::with_seed(1);
        let qubo = MaxCut::unweighted(generators::cycle(4)).to_qubo();
        let result = execute_stage1(&machine, &config, &qubo).unwrap();
        assert!(result.processor_initialize_seconds > result.measured_seconds * 0.5);
    }
}

//! Stage 2 — quantum execution: statistical sampling on the (simulated) QPU.
//!
//! The paper models this stage as `s` repetitions of a fixed-duration anneal
//! (Eq. 6) plus constant readout and thermalization times (Fig. 7), and
//! observes that for any per-read success probability above ~0.6 the stage is
//! orders of magnitude cheaper than the stage-1 pre-processing.
//!
//! * [`predict_stage2`] walks the Fig. 7 ASPEN model.
//! * [`execute_stage2_with_backend`] draws the same number of reads from a
//!   [`SamplerBackend`] (the simulated QPU by default), reporting both the
//!   modeled hardware access time and the wall-clock simulation time.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::stage1::parse_once;
use aspen_model::{
    listings, ApplicationModel, AspenError, MachineModel, ParamEnv, Prediction, Predictor,
};
use quantum_anneal::{
    estimate_success_probability, QpuAccessReport, SampleParams, SampleSet, SamplerBackend,
};
use qubo_ising::Ising;
use std::sync::OnceLock;

/// Analytic prediction for stage 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage2Prediction {
    /// Desired accuracy `p_a`.
    pub accuracy: f64,
    /// Assumed per-read success probability `p_s`.
    pub success_probability: f64,
    /// Number of reads charged by the model (Eq. 6).
    pub reads: usize,
    /// Total predicted seconds (anneals + readout + thermalization).
    pub total_seconds: f64,
    /// The full ASPEN prediction, for detailed reporting.
    pub prediction: Prediction,
}

/// Walk the paper's Stage-2 model for the requested accuracy.
///
/// The Fig. 7 listing expresses `Accuracy` as a percentage, so the fraction
/// `accuracy` is multiplied by 100 before being bound.
pub fn predict_stage2(
    machine: &SplitMachine,
    accuracy: f64,
    success_probability: f64,
) -> Result<Stage2Prediction, PipelineError> {
    predict_stage2_on(&machine.aspen, accuracy, success_probability)
}

/// [`predict_stage2`] from the one part of a machine it reads: the
/// analytic machine model.
pub(crate) fn predict_stage2_on(
    aspen: &MachineModel,
    accuracy: f64,
    success_probability: f64,
) -> Result<Stage2Prediction, PipelineError> {
    static STAGE2: OnceLock<Result<ApplicationModel, AspenError>> = OnceLock::new();
    let app = parse_once(&STAGE2, listings::STAGE2_LISTING)?;
    let overrides = ParamEnv::new()
        .with("Accuracy", accuracy.clamp(0.0, 0.999_999_999) * 100.0)
        .with("Success", success_probability.clamp(1e-9, 1.0 - 1e-12));
    let prediction = Predictor::new(aspen).predict(app, &overrides)?;
    let reads = prediction
        .resource_totals
        .get("QuOps")
        .map(|t| t.quantity.max(0.0) as usize)
        .unwrap_or(0);
    Ok(Stage2Prediction {
        accuracy,
        success_probability,
        reads,
        total_seconds: prediction.seconds(),
        prediction,
    })
}

/// Measured result of running stage 2 on a sampler backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage2Execution {
    /// Name of the backend that served the request.
    pub backend: String,
    /// Number of reads performed (Eq. 6 with the configured cap).
    pub reads: usize,
    /// The aggregated readout ensemble (physical spins).
    pub samples: SampleSet,
    /// Hardware-modeled access time and simulation cost.
    pub access: QpuAccessReport,
    /// Fraction of reads that reached the best energy observed in the
    /// ensemble — an empirical stand-in for the characteristic success
    /// probability `p_s`.
    pub observed_success: f64,
    /// Modeled stage seconds (the quantity comparable with the prediction).
    pub total_seconds: f64,
}

/// Execute stage 2: sample the embedded (physical) Ising program on any
/// [`SamplerBackend`].
pub fn execute_stage2_with_backend(
    machine: &SplitMachine,
    config: &SplitExecConfig,
    physical: &Ising,
    backend: &dyn SamplerBackend,
) -> Result<Stage2Execution, PipelineError> {
    let _ = machine; // the sampler backends are independent of the host model
    let reads = config.reads();
    if reads == usize::MAX {
        return Err(PipelineError::BadInput(
            "requested accuracy needs an unbounded number of reads".into(),
        ));
    }
    // Backends express their temperature schedules relative to a unit energy
    // scale; pass the embedded program's actual parameter magnitude (chain
    // couplings are deliberately the largest parameters) so the dynamics
    // explore rather than quench.
    let scale = physical
        .max_abs_field()
        .max(physical.max_abs_coupling())
        .max(1.0);
    let params = SampleParams::new(reads, config.seed).with_energy_scale(scale);
    let (samples, access) = backend.sample_with_report(physical, &params)?;
    let observed_success = samples
        .best_energy()
        .map(|best| estimate_success_probability(&samples.energies(), best, 1e-9).p_success)
        .unwrap_or(0.0);
    // The modeled stage time charges the per-read anneal plus the constant
    // readout and thermalization blocks, exactly like the Fig. 7 model.
    let timings = backend.timings();
    let total_seconds = timings.anneal_seconds(reads) + timings.readout_seconds();
    Ok(Stage2Execution {
        backend: backend.name().to_string(),
        reads,
        samples,
        access,
        observed_success,
        total_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    fn machine() -> SplitMachine {
        SplitMachine::paper_default()
    }

    /// Stage 2 on the backend `config` names.
    fn execute(config: &SplitExecConfig, physical: &Ising) -> Stage2Execution {
        let backend = config.backend.build_with_schedule(config.schedule);
        execute_stage2_with_backend(&machine(), config, physical, backend.as_ref()).unwrap()
    }

    #[test]
    fn prediction_matches_hand_computed_times() {
        // pa = 0.99, ps = 0.7 -> 4 reads; 4 × 20 µs + 320 µs + 5 µs = 405 µs.
        let p = predict_stage2(&machine(), 0.99, 0.7).unwrap();
        assert_eq!(p.reads, 4);
        assert!((p.total_seconds - 405e-6).abs() < 1e-9);
    }

    #[test]
    fn prediction_with_listing_defaults() {
        // The listing's own defaults (Success = 0.9999) need a single read.
        let p = predict_stage2(&machine(), 0.99, 0.9999).unwrap();
        assert_eq!(p.reads, 1);
        assert!((p.total_seconds - 345e-6).abs() < 1e-9);
    }

    #[test]
    fn prediction_is_insensitive_to_success_above_point_six() {
        let machine = machine();
        let times: Vec<f64> = [0.6, 0.7, 0.8, 0.9, 0.99]
            .iter()
            .map(|&ps| predict_stage2(&machine, 0.99, ps).unwrap().total_seconds)
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        // Within a factor of ~1.3 across the whole range, as the paper notes.
        assert!(max / min < 1.35, "spread {min}..{max}");
    }

    #[test]
    fn prediction_grows_slowly_with_accuracy() {
        let machine = machine();
        let low = predict_stage2(&machine, 0.9, 0.7).unwrap().total_seconds;
        let high = predict_stage2(&machine, 0.999_999, 0.7)
            .unwrap()
            .total_seconds;
        assert!(high > low);
        // Even six nines of accuracy keep stage 2 under a millisecond.
        assert!(high < 1e-3);
    }

    #[test]
    fn execution_samples_and_reports() {
        let config = SplitExecConfig::with_seed(5);
        let logical = Ising::random_on_graph(&generators::cycle(8), 3);
        let result = execute(&config, &logical);
        assert_eq!(result.reads, 4);
        assert_eq!(result.samples.num_reads(), 4);
        assert!(result.observed_success > 0.0);
        assert!(result.total_seconds > 0.0);
        assert!(result.access.modeled_seconds > result.total_seconds);
    }

    #[test]
    fn execution_works_on_every_builtin_backend() {
        use quantum_anneal::BackendKind;
        let logical = Ising::random_on_graph(&generators::cycle(8), 3);
        for kind in BackendKind::all() {
            let config = SplitExecConfig::with_seed(5).with_backend(kind);
            let result = execute(&config, &logical);
            assert_eq!(result.backend, kind.to_string(), "{kind}");
            assert_eq!(result.samples.num_reads(), config.reads(), "{kind}");
            assert!(result.total_seconds > 0.0, "{kind}");
        }
    }

    #[test]
    fn execution_respects_read_cap() {
        let mut config = SplitExecConfig::with_seed(1)
            .with_accuracy(0.999_999)
            .with_success_probability(0.01);
        config.max_reads = Some(16);
        let logical = Ising::random_on_graph(&generators::path(4), 1);
        let result = execute(&config, &logical);
        assert_eq!(result.reads, 16);
    }
}

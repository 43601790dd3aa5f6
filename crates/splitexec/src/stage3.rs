//! Stage 3 — classical post-processing: un-embedding the readout ensemble,
//! sorting it by energy and extracting the optimization result.
//!
//! The paper's Fig. 8 model charges a heapsort over the readout results and a
//! linear pass over the input, giving the near-linear, negligible cost shown
//! in Fig. 9(c).
//!
//! * [`predict_stage3`] walks the Fig. 8 ASPEN model.
//! * [`execute_stage3`] decodes physical samples back to logical spins
//!   (majority vote per chain), ranks them by energy and returns the best
//!   solution, measuring wall-clock time.

use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::stage1::parse_once;
use crate::timing::timed;
use aspen_model::{
    listings, ApplicationModel, AspenError, MachineModel, ParamEnv, Prediction, Predictor,
};
use minor_embed::{unembed_sample, Embedding};
use quantum_anneal::SampleSet;
use qubo_ising::energy::RankedSolution;
use qubo_ising::{rank_solutions, Ising, Spin};
use std::sync::OnceLock;

/// Analytic prediction for stage 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage3Prediction {
    /// Logical problem size (`LPS`).
    pub lps: usize,
    /// Number of readout results the model assumes must be sorted.
    pub results: usize,
    /// Total predicted seconds.
    pub total_seconds: f64,
    /// The full ASPEN prediction.
    pub prediction: Prediction,
}

/// Walk the paper's Stage-3 model.
///
/// `accuracy` and `success_probability` determine the number of readout
/// results via Eq. (6), exactly as the Fig. 8 listing does with its
/// `Results` parameter.
pub fn predict_stage3(
    machine: &SplitMachine,
    lps: usize,
    accuracy: f64,
    success_probability: f64,
) -> Result<Stage3Prediction, PipelineError> {
    predict_stage3_on(&machine.aspen, lps, accuracy, success_probability)
}

/// [`predict_stage3`] from the one part of a machine it reads: the
/// analytic machine model.
pub(crate) fn predict_stage3_on(
    aspen: &MachineModel,
    lps: usize,
    accuracy: f64,
    success_probability: f64,
) -> Result<Stage3Prediction, PipelineError> {
    static STAGE3: OnceLock<Result<ApplicationModel, AspenError>> = OnceLock::new();
    let app = parse_once(&STAGE3, listings::STAGE3_LISTING)?;
    let overrides = ParamEnv::new()
        .with("LPS", lps as f64)
        .with("Accuracy", accuracy.clamp(0.0, 0.999_999_999))
        .with("Success", success_probability.clamp(1e-9, 1.0 - 1e-12));
    let prediction = Predictor::new(aspen).predict(app, &overrides)?;
    let env = app.resolve_params(&overrides)?;
    Ok(Stage3Prediction {
        lps,
        results: env.get("Results")? as usize,
        total_seconds: prediction.seconds(),
        prediction,
    })
}

/// Measured result of running stage 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage3Execution {
    /// Ranked logical solutions (best energy first, duplicates collapsed).
    pub ranked: Vec<RankedSolution>,
    /// The best logical configuration found.
    pub best_spins: Vec<Spin>,
    /// Its logical Ising energy.
    pub best_energy: f64,
    /// Total number of chain breaks observed while decoding the ensemble.
    pub chain_breaks: usize,
    /// Comparison/energy-evaluation operations performed by the sort.
    pub sort_operations: u64,
    /// Measured wall-clock seconds.
    pub measured_seconds: f64,
}

/// Execute stage 3: decode, rank and extract the solution.
pub fn execute_stage3(
    machine: &SplitMachine,
    embedding: &Embedding,
    logical: &Ising,
    samples: &SampleSet,
) -> Result<Stage3Execution, PipelineError> {
    let _ = machine;
    if samples.num_reads() == 0 {
        return Err(PipelineError::BadInput(
            "stage 3 received an empty readout ensemble".into(),
        ));
    }
    let ((ranked, chain_breaks, sort_operations, best_spins, best_energy), measured_seconds) =
        timed(|| {
            let mut decoded = Vec::with_capacity(samples.num_reads());
            let mut chain_breaks = 0usize;
            for record in &samples.records {
                for _ in 0..record.occurrences {
                    let d = unembed_sample(embedding, &record.spins);
                    chain_breaks += d.chain_breaks;
                    decoded.push(d.spins);
                }
            }
            let (ranked, ops) = rank_solutions(logical, &decoded);
            let best = ranked.first().cloned().expect("non-empty ensemble");
            (ranked, chain_breaks, ops, best.spins.clone(), best.energy)
        });
    Ok(Stage3Execution {
        ranked,
        best_spins,
        best_energy,
        chain_breaks,
        sort_operations,
        measured_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;
    use minor_embed::{find_embedding, CmrConfig};
    use quantum_anneal::SampleSet;

    fn machine() -> SplitMachine {
        SplitMachine::paper_default()
    }

    #[test]
    fn prediction_uses_eq6_for_result_count() {
        // Listing defaults: Success = 0.75, Accuracy = 0.99 -> 4 results.
        let p = predict_stage3(&machine(), 50, 0.99, 0.75).unwrap();
        assert_eq!(p.results, 4);
        assert!(p.total_seconds > 0.0);
    }

    #[test]
    fn prediction_scales_roughly_linearly_with_input_size() {
        let machine = machine();
        let small = predict_stage3(&machine, 10, 0.99, 0.75)
            .unwrap()
            .total_seconds;
        let large = predict_stage3(&machine, 100, 0.99, 0.75)
            .unwrap()
            .total_seconds;
        assert!(large > small);
        // Near-linear: a 10x larger input should cost well under 100x more.
        assert!(large < small * 30.0);
    }

    #[test]
    fn prediction_is_negligible_compared_to_stage1() {
        let machine = machine();
        let s1 = crate::stage1::predict_stage1(&machine, 50)
            .unwrap()
            .total_seconds;
        let s3 = predict_stage3(&machine, 50, 0.99, 0.75)
            .unwrap()
            .total_seconds;
        assert!(s1 / s3 > 1e3, "stage1 {s1} vs stage3 {s3}");
    }

    #[test]
    fn execution_decodes_and_ranks() {
        let machine = machine();
        let logical = Ising::random_on_graph(&generators::cycle(6), 7);
        let outcome = find_embedding(
            &logical.interaction_graph(),
            machine.hardware(),
            &CmrConfig::with_seed(2),
        )
        .unwrap();
        // Build a fake physical ensemble: every chain aligned to +1 or -1
        // alternating per record.
        let nh = machine.hardware().vertex_count();
        let mut all_up = vec![1i8; nh];
        let all_down = vec![-1i8; nh];
        for (_, chain) in outcome.embedding.iter() {
            for &q in chain {
                all_up[q] = 1;
            }
        }
        let samples = SampleSet::from_reads(vec![
            (all_up.clone(), logical.energy(&[1; 6])),
            (all_down.clone(), logical.energy(&[-1; 6])),
            (all_up.clone(), logical.energy(&[1; 6])),
        ]);
        let result = execute_stage3(&machine, &outcome.embedding, &logical, &samples).unwrap();
        assert_eq!(result.chain_breaks, 0);
        assert!(result.sort_operations > 0);
        assert_eq!(
            result.ranked.iter().map(|r| r.multiplicity).sum::<usize>(),
            3
        );
        // Best logical energy is the smaller of the two configurations.
        let up_energy = logical.energy(&[1; 6]);
        let down_energy = logical.energy(&[-1; 6]);
        assert!((result.best_energy - up_energy.min(down_energy)).abs() < 1e-9);
    }

    #[test]
    fn execution_rejects_empty_ensemble() {
        let machine = machine();
        let logical = Ising::new(2);
        let embedding = Embedding::from_chains(vec![vec![0], vec![1]]);
        let err =
            execute_stage3(&machine, &embedding, &logical, &SampleSet::default()).unwrap_err();
        assert!(matches!(err, PipelineError::BadInput(_)));
    }
}

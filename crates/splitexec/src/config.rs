//! Configuration of the split-execution application.

use minor_embed::CmrConfig;
use quantum_anneal::{AnnealSchedule, BackendKind};

/// Tunable parameters of the three-stage split-execution application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitExecConfig {
    /// Desired solution accuracy `p_a` (probability that the ensemble
    /// contains the true optimum) — the input parameter of the Stage-2 model.
    pub accuracy: f64,
    /// Characteristic per-read success probability `p_s` assumed when sizing
    /// the read count via Eq. (6).  The paper plots `p_s = 0.7` and notes the
    /// result is insensitive for `p_s > 0.6`.
    pub success_probability: f64,
    /// Chain-strength factor passed to the parameter-setting step (chain
    /// strength = factor × max logical parameter).
    pub chain_strength_factor: f64,
    /// Configuration of the CMR embedding heuristic (stage 1).
    pub cmr: CmrConfig,
    /// Annealing schedule of the simulated QPU (stage 2).
    pub schedule: AnnealSchedule,
    /// Which stage-2 sampler backend [`crate::Pipeline::new`] builds.
    pub backend: BackendKind,
    /// Base seed for all stochastic components.
    pub seed: u64,
    /// Cap on the number of reads regardless of Eq. (6) (protects against
    /// `accuracy → 1` requests); `None` means uncapped.
    pub max_reads: Option<usize>,
}

impl Default for SplitExecConfig {
    fn default() -> Self {
        Self {
            accuracy: 0.99,
            success_probability: 0.7,
            chain_strength_factor: 2.0,
            cmr: CmrConfig::default(),
            schedule: AnnealSchedule::default(),
            backend: BackendKind::default(),
            seed: 0,
            max_reads: Some(10_000),
        }
    }
}

impl SplitExecConfig {
    /// A configuration with every stochastic component seeded from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            cmr: CmrConfig::with_seed(seed),
            ..Self::default()
        }
    }

    /// Builder-style accuracy override (clamped to `[0, 0.999999]` so Eq. 6
    /// stays finite).
    pub fn with_accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy.clamp(0.0, 0.999_999);
        self
    }

    /// Builder-style per-read success probability override.
    pub fn with_success_probability(mut self, ps: f64) -> Self {
        self.success_probability = ps.clamp(1e-6, 1.0);
        self
    }

    /// Builder-style stage-2 backend selection.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The number of QPU reads this configuration requests, per Eq. (6),
    /// respecting `max_reads`.
    pub fn reads(&self) -> usize {
        let raw = quantum_anneal::required_reads(self.accuracy, self.success_probability);
        match self.max_reads {
            Some(cap) => raw.min(cap.max(1)),
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_plot_parameters() {
        let c = SplitExecConfig::default();
        assert_eq!(c.accuracy, 0.99);
        assert_eq!(c.success_probability, 0.7);
        assert_eq!(c.reads(), 4);
    }

    #[test]
    fn backend_defaults_to_simulated_annealing_and_is_overridable() {
        assert_eq!(
            SplitExecConfig::default().backend,
            BackendKind::SimulatedAnnealing
        );
        let c = SplitExecConfig::default().with_backend(BackendKind::Exact);
        assert_eq!(c.backend, BackendKind::Exact);
    }

    #[test]
    fn with_seed_propagates_to_cmr() {
        let c = SplitExecConfig::with_seed(99);
        assert_eq!(c.seed, 99);
        assert_eq!(c.cmr.seed, 99);
    }

    #[test]
    fn accuracy_and_success_are_clamped() {
        let c = SplitExecConfig::default()
            .with_accuracy(2.0)
            .with_success_probability(-1.0);
        assert!(c.accuracy < 1.0);
        assert!(c.success_probability > 0.0);
        assert!(c.reads() >= 1);
    }

    #[test]
    fn read_cap_is_respected() {
        let mut c = SplitExecConfig::default()
            .with_accuracy(0.999_999)
            .with_success_probability(0.001);
        c.max_reads = Some(500);
        assert_eq!(c.reads(), 500);
        c.max_reads = None;
        assert!(c.reads() > 10_000);
    }

    #[test]
    fn higher_accuracy_never_reduces_reads() {
        let reads: Vec<usize> = [0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&pa| SplitExecConfig::default().with_accuracy(pa).reads())
            .collect();
        assert!(reads.windows(2).all(|w| w[1] >= w[0]));
    }
}

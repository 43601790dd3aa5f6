//! What a sampling request returns, and the simulated QPU that serves it.
//!
//! A [`SimulatedQpu`] plays the role of the D-Wave processor in the
//! split-execution pipeline: an annealing schedule plus the hardware timing
//! constants.  It samples through its [`SamplerBackend`] implementation
//! (in [`crate::backend`]): `num_reads` statistically independent anneals,
//! aggregated into a [`SampleSet`], plus a [`QpuAccessReport`] with the
//! QPU-access time the paper's timing constants assign to that work.  Reads
//! run one after another on the calling thread; read `i` is seeded
//! `seed + i`, so each read depends only on its index.
//!
//! [`SamplerBackend`]: crate::backend::SamplerBackend

use crate::schedule::AnnealSchedule;
use crate::timing::QpuTimings;
use qubo_ising::Spin;

/// One distinct configuration observed in the readout ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// The spin configuration.
    pub spins: Vec<Spin>,
    /// Its Ising energy.
    pub energy: f64,
    /// How many reads returned this configuration.
    pub occurrences: usize,
}

/// An aggregated set of readout results, sorted by energy (ascending).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleSet {
    /// Distinct configurations with multiplicities, best energy first.
    pub records: Vec<SampleRecord>,
}

impl SampleSet {
    /// Aggregate raw reads (spins + energy) into a sorted, deduplicated set.
    pub fn from_reads(reads: Vec<(Vec<Spin>, f64)>) -> Self {
        let mut sorted = reads;
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut records: Vec<SampleRecord> = Vec::new();
        for (spins, energy) in sorted {
            match records.last_mut() {
                Some(last) if last.spins == spins => last.occurrences += 1,
                _ => records.push(SampleRecord {
                    spins,
                    energy,
                    occurrences: 1,
                }),
            }
        }
        Self { records }
    }

    /// Total number of reads aggregated.
    pub fn num_reads(&self) -> usize {
        self.records.iter().map(|r| r.occurrences).sum()
    }

    /// The lowest observed energy, if any reads were taken.
    pub fn best_energy(&self) -> Option<f64> {
        self.records.first().map(|r| r.energy)
    }

    /// The lowest-energy configuration, if any.
    pub fn best(&self) -> Option<&SampleRecord> {
        self.records.first()
    }

    /// All sampled energies, expanded to one entry per read.
    pub fn energies(&self) -> Vec<f64> {
        self.records
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.energy, r.occurrences))
            .collect()
    }
}

/// Timing attributed to one QPU access (programming + sampling + readout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuAccessReport {
    /// Number of reads performed.
    pub reads: usize,
    /// Modeled hardware access time in seconds (per the paper's constants).
    pub modeled_seconds: f64,
    /// Wall-clock seconds the simulation itself took.
    pub simulation_seconds: f64,
    /// Single-spin updates attempted over the whole register (sweeps ×
    /// spins, summed over reads).  Sweeps visit only the active spins;
    /// attempts on idle spins are counted arithmetically, so the count does
    /// not depend on how sparse the program is.
    pub updates: u64,
}

/// The classical simulated-annealing QPU used throughout this reproduction.
#[derive(Debug, Clone, Default)]
pub struct SimulatedQpu {
    /// Annealing schedule applied to every read.
    pub schedule: AnnealSchedule,
    /// Hardware timing constants used for modeled access times.
    pub timings: QpuTimings,
}

impl SimulatedQpu {
    /// A QPU with a specific schedule.
    pub fn with_schedule(schedule: AnnealSchedule) -> Self {
        Self {
            schedule,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SampleParams, SamplerBackend};
    use chimera_graph::generators;
    use qubo_ising::{solve_ising_exact, Ising};

    fn small_model(seed: u64) -> Ising {
        Ising::random_on_graph(&generators::gnp(12, 0.4, seed), seed + 1)
    }

    #[test]
    fn sample_set_aggregation() {
        let reads = vec![
            (vec![1, 1], -2.0),
            (vec![-1, -1], -2.0),
            (vec![1, 1], -2.0),
            (vec![1, -1], 2.0),
        ];
        let set = SampleSet::from_reads(reads);
        assert_eq!(set.num_reads(), 4);
        assert_eq!(set.records.len(), 3);
        assert_eq!(set.best_energy(), Some(-2.0));
        // Ties at the best energy are ordered by spin vector; the duplicated
        // [1, 1] read is collapsed into a single record with multiplicity 2.
        assert_eq!(set.best().unwrap().spins, vec![-1, -1]);
        let duplicated = set.records.iter().find(|r| r.spins == vec![1, 1]).unwrap();
        assert_eq!(duplicated.occurrences, 2);
        assert_eq!(set.energies().len(), 4);
        // Energies are non-decreasing.
        let energies = set.energies();
        assert!(energies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_sample_set() {
        let set = SampleSet::from_reads(vec![]);
        assert_eq!(set.num_reads(), 0);
        assert!(set.best_energy().is_none());
        assert!(set.energies().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let model = small_model(5);
        let qpu = SimulatedQpu::with_schedule(AnnealSchedule::fast());
        let params = SampleParams::new(16, 3);
        let a = qpu.sample(&model, &params).unwrap();
        let b = qpu.sample(&model, &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn enough_reads_reach_the_exact_optimum() {
        let model = small_model(11);
        let (exact, _, _) = solve_ising_exact(&model);
        let qpu = SimulatedQpu::with_schedule(AnnealSchedule::thorough());
        let set = qpu.sample(&model, &SampleParams::new(32, 1)).unwrap();
        assert!(set.best_energy().unwrap() <= exact + 1e-9);
    }

    #[test]
    fn report_contains_hardware_and_simulation_costs() {
        let model = small_model(2);
        let qpu = SimulatedQpu::with_schedule(AnnealSchedule::fast());
        let (set, report) = qpu
            .sample_with_report(&model, &SampleParams::new(10, 4))
            .unwrap();
        assert_eq!(set.num_reads(), 10);
        assert_eq!(report.reads, 10);
        assert!(report.modeled_seconds > qpu.timings.processor_initialize_seconds());
        assert!(report.simulation_seconds >= 0.0);
        assert_eq!(report.updates, 10 * 12 * qpu.schedule.sweeps as u64);
    }

    #[test]
    fn zero_reads_produce_empty_set() {
        let model = small_model(3);
        let qpu = SimulatedQpu::default();
        let (set, report) = qpu
            .sample_with_report(&model, &SampleParams::new(0, 0))
            .unwrap();
        assert_eq!(set.num_reads(), 0);
        assert_eq!(report.reads, 0);
    }
}

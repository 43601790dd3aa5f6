//! Pluggable sampler backends — the interchangeable stage 2 of the paper's
//! split-execution pipeline.
//!
//! The paper frames the QPU as one replaceable component of a three-stage
//! system; this module makes that concrete: a [`SamplerBackend`] is anything
//! that can turn an Ising program plus [`SampleParams`] into a ranked
//! [`SampleSet`] and report the hardware time the paper's constants would
//! charge for that access.  Three implementations ship:
//!
//! * [`SimulatedQpu`] — the default simulated-annealing QPU (one read = one
//!   hardware anneal),
//! * [`ParallelTemperingBackend`] — a stronger classical sampler (one read =
//!   one replica-exchange run), the "better software solver" reference point
//!   of the ablation studies,
//! * [`ExactEnumerationBackend`] — brute-force ground-state enumeration for
//!   small programs, the oracle the parity tests compare against.
//!
//! [`BackendKind`] names the built-in backends, parses from CLI/env strings
//! (`FromStr`/`Display`) and builds boxed instances, so binaries can select
//! stage 2 per job without code changes.

use crate::pt::{parallel_tempering, PtConfig};
use crate::sa::{anneal_once, CompiledIsing};
use crate::sampler::{QpuAccessReport, SampleSet, SimulatedQpu};
use crate::schedule::AnnealSchedule;
use crate::timing::QpuTimings;
use qubo_ising::{solve_ising_exact, Ising, Spin};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Parameters of one batched sampling request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleParams {
    /// Number of statistically independent reads to draw (Eq. 6 repetitions).
    pub num_reads: usize,
    /// Base seed; read `i` derives its stream from `seed + i`, so each read
    /// depends only on its index and results are deterministic.
    pub seed: u64,
    /// Characteristic magnitude of the programmed parameters.  Backends with
    /// unit-scale temperature schedules multiply them by this factor so the
    /// dynamics explore rather than quench (embedded programs deliberately
    /// make chain couplings the largest parameters).
    pub energy_scale: f64,
}

impl SampleParams {
    /// Parameters for `num_reads` reads at unit energy scale.
    pub fn new(num_reads: usize, seed: u64) -> Self {
        Self {
            num_reads,
            seed,
            energy_scale: 1.0,
        }
    }

    /// Builder-style energy-scale override (clamped below at 1 so unit-scale
    /// problems keep their schedules).
    pub fn with_energy_scale(mut self, scale: f64) -> Self {
        self.energy_scale = scale.max(1.0);
        self
    }
}

/// Errors a sampler backend can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerError {
    /// The program exceeds the backend's capacity (e.g. exact enumeration
    /// past its spin cap).
    TooLarge {
        /// Spins in the rejected program.
        spins: usize,
        /// The backend's capacity.
        max_spins: usize,
    },
    /// The request is outside what the backend supports.
    Unsupported(String),
}

impl fmt::Display for SamplerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerError::TooLarge { spins, max_spins } => write!(
                f,
                "program of {spins} spins exceeds the backend capacity of {max_spins}"
            ),
            SamplerError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
        }
    }
}

impl std::error::Error for SamplerError {}

/// Anything that can serve as stage 2 of the split-execution pipeline.
///
/// Implementations must be deterministic in `params.seed`.  Calls run on
/// the caller's thread; batch submission runs its jobs one after another
/// against one shared backend instance.
pub trait SamplerBackend: fmt::Debug {
    /// Stable, human-readable backend name (also the `Display` form of the
    /// corresponding [`BackendKind`] for built-ins).
    fn name(&self) -> &'static str;

    /// Draw `params.num_reads` reads from `ising`, aggregated best-first.
    fn sample(&self, ising: &Ising, params: &SampleParams) -> Result<SampleSet, SamplerError>;

    /// The hardware timing constants this backend models.
    fn timings(&self) -> &QpuTimings;

    /// Timing hook: modeled QPU-access seconds (programming + anneals +
    /// readout) for a request of `reads` reads, per the paper's constants.
    fn modeled_access_seconds(&self, reads: usize) -> f64 {
        self.timings().total_access_seconds(reads)
    }

    /// Sample and report both the modeled hardware access time and the
    /// wall-clock simulation cost.  The default implementation wraps
    /// [`SamplerBackend::sample`] with a timer and reports zero spin-update
    /// work; backends that count updates override it.
    fn sample_with_report(
        &self,
        ising: &Ising,
        params: &SampleParams,
    ) -> Result<(SampleSet, QpuAccessReport), SamplerError> {
        // sx-lint: allow(D001) -- times a real sampler execution (host wall clock), not simulated virtual time
        let start = std::time::Instant::now();
        let set = self.sample(ising, params)?;
        let report = QpuAccessReport {
            reads: params.num_reads,
            modeled_seconds: self.modeled_access_seconds(params.num_reads),
            simulation_seconds: start.elapsed().as_secs_f64(),
            updates: 0,
        };
        Ok((set, report))
    }
}

impl SamplerBackend for SimulatedQpu {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn sample(&self, ising: &Ising, params: &SampleParams) -> Result<SampleSet, SamplerError> {
        self.sample_with_report(ising, params).map(|(set, _)| set)
    }

    fn timings(&self) -> &QpuTimings {
        &self.timings
    }

    fn sample_with_report(
        &self,
        ising: &Ising,
        params: &SampleParams,
    ) -> Result<(SampleSet, QpuAccessReport), SamplerError> {
        let scale = params.energy_scale.max(1.0);
        let mut schedule = self.schedule;
        schedule.initial_temperature *= scale;
        schedule.final_temperature *= scale;
        Ok(sample_reads(self, ising, params, |compiled, seed| {
            let read = anneal_once(compiled, &schedule, seed);
            (read.spins, read.energy, read.updates)
        }))
    }
}

/// The read loop shared by the SA and PT backends: compile the program
/// once, run read `i` with seed `seed + i` (so each read depends only on
/// its index), sum the reads' spin updates, and aggregate the reads into a
/// [`SampleSet`] next to the modeled access time and the host time taken.
fn sample_reads(
    backend: &dyn SamplerBackend,
    ising: &Ising,
    params: &SampleParams,
    read: impl Fn(&CompiledIsing, u64) -> (Vec<Spin>, f64, u64),
) -> (SampleSet, QpuAccessReport) {
    // sx-lint: allow(D001) -- times a real sampler execution (host wall clock), not simulated virtual time
    let start = std::time::Instant::now();
    let compiled = CompiledIsing::new(ising);
    let mut updates = 0;
    let reads = (0..params.num_reads)
        .map(|i| {
            let (spins, energy, read_updates) = read(&compiled, params.seed.wrapping_add(i as u64));
            updates += read_updates;
            (spins, energy)
        })
        .collect();
    let set = SampleSet::from_reads(reads);
    let report = QpuAccessReport {
        reads: params.num_reads,
        modeled_seconds: backend.modeled_access_seconds(params.num_reads),
        simulation_seconds: start.elapsed().as_secs_f64(),
        updates,
    };
    (set, report)
}

/// Parallel tempering as a stage-2 backend: each read is one independent
/// replica-exchange run seeded from `seed + read_index`, reporting the best
/// configuration that run visited.
#[derive(Debug, Clone, Default)]
pub struct ParallelTemperingBackend {
    /// Replica-exchange configuration (temperatures are in units of the
    /// problem's energy scale and rescaled per request).
    pub config: PtConfig,
    /// Hardware timing constants used for modeled access times.
    pub timings: QpuTimings,
}

impl ParallelTemperingBackend {
    /// A backend with a specific replica-exchange configuration.
    pub fn with_config(config: PtConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

impl SamplerBackend for ParallelTemperingBackend {
    fn name(&self) -> &'static str {
        "parallel-tempering"
    }

    fn timings(&self) -> &QpuTimings {
        &self.timings
    }

    fn sample(&self, ising: &Ising, params: &SampleParams) -> Result<SampleSet, SamplerError> {
        self.sample_with_report(ising, params).map(|(set, _)| set)
    }

    fn sample_with_report(
        &self,
        ising: &Ising,
        params: &SampleParams,
    ) -> Result<(SampleSet, QpuAccessReport), SamplerError> {
        let scale = params.energy_scale.max(1.0);
        let mut config = self.config;
        config.min_temperature *= scale;
        config.max_temperature *= scale;
        Ok(sample_reads(self, ising, params, |compiled, seed| {
            let result = parallel_tempering(compiled, &config, seed);
            (result.best_spins, result.best_energy, result.updates)
        }))
    }
}

/// Brute-force ground-state enumeration as a stage-2 backend.
///
/// Every read "observes" the true optimum, so the returned ensemble is a
/// single record with multiplicity `num_reads`.  Embedded programs are
/// expressed over the whole hardware register, so enumeration is restricted
/// to the *active* spins of [`CompiledIsing::active_spins`] — those with a
/// nonzero field or a nonzero coupling, the same spins the SA and PT sweeps
/// visit; inactive spins contribute no energy and are reported as +1.  Rejects
/// programs whose active size exceeds
/// [`ExactEnumerationBackend::max_spins`] (the 2ⁿ walk is exponential); the
/// seed is ignored — the backend is an oracle, not a sampler.
#[derive(Debug, Clone)]
pub struct ExactEnumerationBackend {
    /// Largest *active* program size accepted (default 24 ≈ 16M states).
    pub max_spins: usize,
    /// Hardware timing constants used for modeled access times.
    pub timings: QpuTimings,
}

impl Default for ExactEnumerationBackend {
    fn default() -> Self {
        Self {
            max_spins: 24,
            timings: QpuTimings::default(),
        }
    }
}

impl ExactEnumerationBackend {
    /// A backend accepting programs of up to `max_spins` spins.
    pub fn with_max_spins(max_spins: usize) -> Self {
        Self {
            max_spins,
            ..Self::default()
        }
    }
}

impl SamplerBackend for ExactEnumerationBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn timings(&self) -> &QpuTimings {
        &self.timings
    }

    fn sample(&self, ising: &Ising, params: &SampleParams) -> Result<SampleSet, SamplerError> {
        let n = ising.num_spins();
        // Restrict enumeration to spins that can affect the energy: the
        // active spins the SA and PT sweeps visit.
        let index: Vec<usize> = CompiledIsing::new(ising)
            .active_spins()
            .iter()
            .map(|&i| i as usize)
            .collect();
        if index.len() > self.max_spins {
            return Err(SamplerError::TooLarge {
                spins: index.len(),
                max_spins: self.max_spins,
            });
        }
        if params.num_reads == 0 {
            return Ok(SampleSet::default());
        }
        let mut position = vec![usize::MAX; n];
        for (k, &i) in index.iter().enumerate() {
            position[i] = k;
        }
        let mut compact = Ising::new(index.len());
        for &i in &index {
            compact.set_field(position[i], ising.field(i));
        }
        for ((u, v), j) in ising.couplings() {
            compact.set_coupling(position[u], position[v], j);
        }
        let (energy, compact_ground, _evaluated) = solve_ising_exact(&compact);
        let mut ground: Vec<Spin> = vec![1; n];
        for &i in &index {
            ground[i] = compact_ground[position[i]];
        }
        let reads = std::iter::repeat_n((ground, energy), params.num_reads).collect();
        Ok(SampleSet::from_reads(reads))
    }
}

/// Names for the built-in backends, for configs, CLIs and env vars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// [`SimulatedQpu`] — simulated annealing (the default QPU stand-in).
    #[default]
    SimulatedAnnealing,
    /// [`ParallelTemperingBackend`] — replica exchange.
    ParallelTempering,
    /// [`ExactEnumerationBackend`] — brute force for small programs.
    Exact,
}

impl BackendKind {
    /// All built-in kinds.
    pub fn all() -> [BackendKind; 3] {
        [
            BackendKind::SimulatedAnnealing,
            BackendKind::ParallelTempering,
            BackendKind::Exact,
        ]
    }

    /// Build this backend with default settings.
    pub fn build(&self) -> Arc<dyn SamplerBackend> {
        self.build_with_schedule(AnnealSchedule::default())
    }

    /// Build this backend; the schedule parameterizes the simulated-annealing
    /// kind (the others have their own knobs and ignore it).
    pub fn build_with_schedule(&self, schedule: AnnealSchedule) -> Arc<dyn SamplerBackend> {
        match self {
            BackendKind::SimulatedAnnealing => Arc::new(SimulatedQpu::with_schedule(schedule)),
            BackendKind::ParallelTempering => Arc::new(ParallelTemperingBackend::default()),
            BackendKind::Exact => Arc::new(ExactEnumerationBackend::default()),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BackendKind::SimulatedAnnealing => "simulated-annealing",
            BackendKind::ParallelTempering => "parallel-tempering",
            BackendKind::Exact => "exact",
        };
        f.write_str(name)
    }
}

/// Error returned when a backend name does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown sampler backend '{}' (expected one of: sa, pt, exact)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sa" | "simulated-annealing" | "simulated_annealing" | "anneal" => {
                Ok(BackendKind::SimulatedAnnealing)
            }
            "pt" | "parallel-tempering" | "parallel_tempering" | "tempering" => {
                Ok(BackendKind::ParallelTempering)
            }
            "exact" | "exact-enumeration" | "exact_enumeration" | "brute-force" => {
                Ok(BackendKind::Exact)
            }
            _ => Err(ParseBackendError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    fn small_model(seed: u64) -> Ising {
        Ising::random_on_graph(&generators::gnp(10, 0.4, seed), seed + 1)
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in BackendKind::all() {
            let parsed: BackendKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!(
            "sa".parse::<BackendKind>().unwrap(),
            BackendKind::SimulatedAnnealing
        );
        assert_eq!(
            "PT".parse::<BackendKind>().unwrap(),
            BackendKind::ParallelTempering
        );
        assert_eq!("Exact".parse::<BackendKind>().unwrap(), BackendKind::Exact);
        let err = "quantum".parse::<BackendKind>().unwrap_err();
        assert!(err.to_string().contains("quantum"));
    }

    #[test]
    fn built_backends_report_their_kind_names() {
        for kind in BackendKind::all() {
            let backend = kind.build();
            assert_eq!(backend.name(), kind.to_string());
        }
    }

    #[test]
    fn all_backends_agree_on_a_small_ground_state() {
        let model = small_model(4);
        let (exact_energy, _, _) = solve_ising_exact(&model);
        let params = SampleParams::new(16, 7);
        for kind in BackendKind::all() {
            let backend = kind.build();
            let set = backend.sample(&model, &params).unwrap();
            assert_eq!(set.num_reads(), 16, "{kind}");
            assert!(
                set.best_energy().unwrap() <= exact_energy + 1e-9,
                "{kind}: best {} vs exact {exact_energy}",
                set.best_energy().unwrap()
            );
        }
    }

    #[test]
    fn backends_are_deterministic_in_seed() {
        let model = small_model(9);
        let params = SampleParams::new(8, 3);
        for kind in BackendKind::all() {
            let backend = kind.build();
            let a = backend.sample(&model, &params).unwrap();
            let b = backend.sample(&model, &params).unwrap();
            assert_eq!(a, b, "{kind}");
        }
    }

    #[test]
    fn exact_backend_rejects_large_programs() {
        let backend = ExactEnumerationBackend::with_max_spins(8);
        let model = small_model(1); // 10 spins > 8
        let err = backend
            .sample(&model, &SampleParams::new(1, 0))
            .unwrap_err();
        assert_eq!(
            err,
            SamplerError::TooLarge {
                spins: 10,
                max_spins: 8
            }
        );
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn exact_backend_enumerates_only_the_active_spins() {
        // A 1,000-spin register: an antiferromagnetic 6-ring, one biased
        // spin, and zero writes that leave their spins idle.
        let mut model = Ising::new(1000);
        for k in 0..6 {
            model.set_coupling(100 + k, 100 + (k + 1) % 6, -1.0);
        }
        model.set_field(900, 0.5);
        model.set_field(500, -0.0);
        model.set_coupling(700, 701, 0.0);
        let set = ExactEnumerationBackend::default()
            .sample(&model, &SampleParams::new(3, 0))
            .unwrap();
        let best = set.best().unwrap();
        assert_eq!(best.energy, -6.5);
        assert_eq!(best.occurrences, 3);
        let ring = &best.spins[100..106];
        assert!(ring.windows(2).all(|w| w[0] == -w[1]), "{ring:?}");
        let idle = (0..1000).filter(|i| !(100..106).contains(i));
        assert!(idle.into_iter().all(|i| best.spins[i] == 1));
        assert_eq!(
            ExactEnumerationBackend::with_max_spins(6)
                .sample(&model, &SampleParams::new(1, 0))
                .unwrap_err(),
            SamplerError::TooLarge {
                spins: 7,
                max_spins: 6
            }
        );
    }

    #[test]
    fn exact_backend_collapses_reads_into_one_record() {
        let backend = ExactEnumerationBackend::default();
        let model = small_model(5);
        let set = backend.sample(&model, &SampleParams::new(32, 0)).unwrap();
        assert_eq!(set.records.len(), 1);
        assert_eq!(set.num_reads(), 32);
        let empty = backend.sample(&model, &SampleParams::new(0, 0)).unwrap();
        assert_eq!(empty.num_reads(), 0);
    }

    #[test]
    fn reports_carry_modeled_and_simulated_time() {
        let model = small_model(6);
        let params = SampleParams::new(4, 11);
        for kind in BackendKind::all() {
            let backend = kind.build();
            let (set, report) = backend.sample_with_report(&model, &params).unwrap();
            assert_eq!(set.num_reads(), 4, "{kind}");
            assert_eq!(report.reads, 4);
            assert!(report.modeled_seconds > 0.0);
            assert!(report.simulation_seconds >= 0.0);
            assert!((report.modeled_seconds - backend.modeled_access_seconds(4)).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_scale_is_clamped_and_applied() {
        // A strongly coupled model quenches under a unit-scale schedule; the
        // energy-scale hint restores exploration.  Behavioral check: both
        // scales still sample deterministically and find the ground state on
        // a tiny ferromagnet.
        let mut model = Ising::new(4);
        for i in 0..3 {
            model.set_coupling(i, i + 1, -50.0);
        }
        let (exact_energy, _, _) = solve_ising_exact(&model);
        let backend = BackendKind::SimulatedAnnealing.build();
        let params = SampleParams::new(8, 2).with_energy_scale(50.0);
        let set = backend.sample(&model, &params).unwrap();
        assert!(set.best_energy().unwrap() <= exact_energy + 1e-9);
        // with_energy_scale clamps below at 1.
        assert_eq!(
            SampleParams::new(1, 0).with_energy_scale(0.01).energy_scale,
            1.0
        );
    }
}

//! # quantum-anneal — the simulated QPU substrate
//!
//! The paper's stage 2 runs on a D-Wave quantum annealer; this crate provides
//! the closest classical stand-in that exercises the same code path: a
//! seeded, Chimera-agnostic Ising sampler with the hardware's published
//! timing constants.
//!
//! * [`backend`] — the pluggable [`backend::SamplerBackend`] abstraction:
//!   stage 2 as an interchangeable component, with simulated-annealing,
//!   parallel-tempering and exact-enumeration implementations selected by
//!   [`backend::BackendKind`].
//! * [`schedule`] — annealing schedules (default 20 µs hardware duration).
//! * [`sa`] — single-spin-flip simulated annealing over a compiled (CSR)
//!   Ising model whose sweeps visit only the active spins; one call = one
//!   hardware read.
//! * [`pt`] — parallel tempering, a stronger classical reference sampler.
//! * [`sampler`] — the [`sampler::SimulatedQpu`] and what a request
//!   returns: seed-indexed reads aggregated into a [`sampler::SampleSet`]
//!   plus a [`sampler::QpuAccessReport`] with the modeled hardware access
//!   time.
//! * [`stats`] — Eq. (6) repetition counts and success-probability
//!   estimation.
//! * [`timing`] — the DW2 programming/readout constants from the paper's
//!   Figs. 6–7.
//!
//! ```
//! use quantum_anneal::prelude::*;
//! use qubo_ising::Ising;
//!
//! let mut model = Ising::new(4);
//! model.set_coupling(0, 1, 1.0);
//! model.set_coupling(2, 3, 1.0);
//! let qpu = SimulatedQpu::with_schedule(AnnealSchedule::fast());
//! let samples = qpu.sample(&model, &SampleParams::new(8, 42))?;
//! assert_eq!(samples.num_reads(), 8);
//! # Ok::<(), SamplerError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod pt;
pub mod sa;
pub mod sampler;
pub mod schedule;
pub mod stats;
pub mod timing;

pub use backend::{
    BackendKind, ExactEnumerationBackend, ParallelTemperingBackend, SampleParams, SamplerBackend,
    SamplerError,
};
pub use sampler::{QpuAccessReport, SampleRecord, SampleSet, SimulatedQpu};
pub use schedule::{AnnealSchedule, ScheduleShape};
pub use stats::{
    achieved_accuracy, estimate_success_probability, percentile, percentile_sorted, required_reads,
};
pub use timing::QpuTimings;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::backend::{
        BackendKind, ExactEnumerationBackend, ParallelTemperingBackend, SampleParams,
        SamplerBackend, SamplerError,
    };
    pub use crate::pt::{parallel_tempering, PtConfig};
    pub use crate::sampler::{QpuAccessReport, SampleSet, SimulatedQpu};
    pub use crate::schedule::{AnnealSchedule, ScheduleShape};
    pub use crate::stats::{
        achieved_accuracy, estimate_success_probability, percentile, percentile_sorted,
        required_reads,
    };
    pub use crate::timing::QpuTimings;
}

#[cfg(test)]
mod proptests {
    use crate::pt::{parallel_tempering, parallel_tempering_full_register, PtConfig};
    use crate::sa::{anneal_once, anneal_once_full_register, CompiledIsing};
    use crate::schedule::AnnealSchedule;
    use crate::stats::{achieved_accuracy, required_reads};
    use chimera_graph::{generators, Chimera, FaultModel};
    use minor_embed::{embed_ising, find_embedding, CmrConfig, ParameterSetting};
    use proptest::prelude::*;
    use qubo_ising::Ising;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A program over `n` spins of which about `active_rate` carry
    /// parameters.  Among those, fields are zero, negative zero or drawn
    /// from [-2, 2); pairs are coupled with probability `density`, some
    /// couplings are written as zero or built up and cancelled, so the
    /// rest of the register (and some spins with a zero write) stays idle.
    fn sparse_program(n: usize, active_rate: f64, density: f64, seed: u64) -> Ising {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut program = Ising::new(n);
        let candidates: Vec<usize> = (0..n).filter(|_| rng.gen_bool(active_rate)).collect();
        for &i in &candidates {
            match rng.gen_range(0u32..4) {
                0 => program.set_field(i, -0.0),
                1 => program.set_field(i, 0.0),
                _ => program.set_field(i, rng.gen_range(-2.0..2.0)),
            }
        }
        for (a, &i) in candidates.iter().enumerate() {
            for &j in &candidates[a + 1..] {
                if rng.gen_bool(density) {
                    match rng.gen_range(0u32..4) {
                        0 => program.set_coupling(i, j, 0.0),
                        1 => {
                            program.add_coupling(i, j, 0.75);
                            program.add_coupling(i, j, -0.75);
                        }
                        _ => program.set_coupling(i, j, rng.gen_range(-2.0..2.0)),
                    }
                }
            }
        }
        program
    }

    /// A `K_k` embedded by CMR on a C(4,4,4) lattice with random dead
    /// qubits and couplers: the physical program spans all 128 qubits, the
    /// dead and unused ones idle.  `None` when CMR finds no embedding.
    fn faulted_embedded_program(k: usize, seed: u64) -> Option<Ising> {
        let chimera = Chimera::new(4, 4, 4);
        let hardware = FaultModel::random(chimera.graph(), 0.05, 0.02, seed).apply(chimera.graph());
        let logical = Ising::random_on_graph(&generators::complete(k), seed);
        let config = CmrConfig {
            seed,
            ..CmrConfig::default()
        };
        let embedding = find_embedding(&logical.interaction_graph(), &hardware, &config).ok()?;
        let setting = ParameterSetting::auto(&logical, 2.0);
        Some(embed_ising(&logical, &embedding.embedding, &hardware, setting).physical)
    }

    /// The active-spin SA kernel equals the full-register oracle bit for bit.
    fn assert_sa_matches_oracle(program: &Ising, sweeps: usize, temperature: f64, seed: u64) {
        let compiled = CompiledIsing::new(program);
        let schedule = AnnealSchedule {
            initial_temperature: temperature,
            final_temperature: temperature / 200.0,
            ..AnnealSchedule::default().with_sweeps(sweeps)
        };
        let fast = anneal_once(&compiled, &schedule, seed);
        let oracle = anneal_once_full_register(&compiled, &schedule, seed);
        assert_eq!(fast, oracle);
        assert_eq!(fast.energy.to_bits(), oracle.energy.to_bits());
    }

    /// The active-spin PT kernel equals the full-register oracle bit for bit.
    fn assert_pt_matches_oracle(program: &Ising, config: &PtConfig, seed: u64) {
        let compiled = CompiledIsing::new(program);
        let fast = parallel_tempering(&compiled, config, seed);
        let oracle = parallel_tempering_full_register(&compiled, config, seed);
        assert_eq!(fast, oracle);
        assert_eq!(fast.best_energy.to_bits(), oracle.best_energy.to_bits());
    }

    proptest! {
        /// Eq. (6) always returns enough reads to meet the requested accuracy
        /// and never one fewer than necessary.
        #[test]
        fn required_reads_meets_accuracy(pa in 0.01f64..0.999_999, ps in 0.01f64..0.999_999) {
            let reads = required_reads(pa, ps);
            prop_assert!(reads >= 1);
            prop_assert!(achieved_accuracy(reads, ps) >= pa - 1e-12);
            if reads > 1 {
                prop_assert!(achieved_accuracy(reads - 1, ps) < pa + 1e-12);
            }
        }

        /// Monotonicity: more accuracy or less per-read success never lowers
        /// the repetition count.
        #[test]
        fn required_reads_monotone(pa in 0.1f64..0.99, ps in 0.1f64..0.9) {
            let base = required_reads(pa, ps);
            prop_assert!(required_reads((pa + 0.009).min(0.9999), ps) >= base);
            prop_assert!(required_reads(pa, (ps - 0.05).max(0.01)) >= base);
        }

        /// A simulated-annealing read on a coupling-free model aligns every
        /// spin with its bias when the final temperature is low.
        #[test]
        fn field_only_models_align_with_bias(seed in 0u64..200, n in 1usize..20) {
            use crate::sa::{anneal_once, CompiledIsing};
            use crate::schedule::AnnealSchedule;
            use qubo_ising::Ising;
            let mut model = Ising::new(n);
            for i in 0..n {
                model.set_field(i, if i % 2 == 0 { 1.0 } else { -1.0 });
            }
            let read = anneal_once(&CompiledIsing::new(&model), &AnnealSchedule::default(), seed);
            for i in 0..n {
                let expected: i8 = if i % 2 == 0 { 1 } else { -1 };
                prop_assert_eq!(read.spins[i], expected);
            }
        }

        /// SA sweeps over the active spins only give the full-register
        /// kernel's spins, energy bits and `updates`, on sparse programs
        /// with idle spins and zero writes, odd and even sweep counts and
        /// the empty register.
        #[test]
        fn sa_active_sweep_matches_full_register(
            n in 0usize..200,
            active_rate in 0.0f64..1.0,
            density in 0.0f64..0.3,
            sweeps in 0usize..12,
            temperature in 0.05f64..20.0,
            seed in 0u64..1_000_000,
        ) {
            let program = sparse_program(n, active_rate, density, seed);
            assert_sa_matches_oracle(&program, sweeps, temperature, seed);
            assert_sa_matches_oracle(&Ising::new(0), sweeps, temperature, seed);
        }

        /// The same on CMR embeddings over faulted lattices.
        #[test]
        fn sa_active_sweep_matches_full_register_on_faulted_embeddings(
            k in 2usize..7,
            sweeps in 0usize..12,
            temperature in 0.05f64..20.0,
            seed in 0u64..1_000_000,
        ) {
            let Some(program) = faulted_embedded_program(k, seed) else { return };
            assert_sa_matches_oracle(&program, sweeps, temperature, seed);
        }

        /// PT sweeps over the active spins only give the full-register
        /// kernel's `PtResult` bit for bit, with odd and even
        /// `sweeps_per_exchange`, on sparse programs and faulted embeddings.
        #[test]
        fn pt_active_sweep_matches_full_register(
            n in 0usize..120,
            active_rate in 0.0f64..1.0,
            density in 0.0f64..0.3,
            replicas in 1usize..5,
            sweeps_per_exchange in 0usize..6,
            rounds in 0usize..6,
            k in 2usize..7,
            seed in 0u64..1_000_000,
        ) {
            let config = PtConfig {
                replicas,
                sweeps_per_exchange,
                rounds,
                ..PtConfig::default()
            };
            assert_pt_matches_oracle(&sparse_program(n, active_rate, density, seed), &config, seed);
            assert_pt_matches_oracle(&Ising::new(0), &config, seed);
            if let Some(program) = faulted_embedded_program(k, seed) {
                assert_pt_matches_oracle(&program, &config, seed);
            }
        }
    }
}

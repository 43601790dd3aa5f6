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
//!   Ising model; one call = one hardware read.
//! * [`pt`] — parallel tempering, a stronger classical reference sampler.
//! * [`sampler`] — the [`sampler::SimulatedQpu`] front-end: batched,
//!   Rayon-parallel reads aggregated into a [`sampler::SampleSet`] plus a
//!   modeled hardware access time.
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
//! let samples = qpu.sample(&model, 8, 42);
//! assert_eq!(samples.num_reads(), 8);
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
    Histogram,
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
        required_reads, Histogram,
    };
    pub use crate::timing::QpuTimings;
}

#[cfg(test)]
mod proptests {
    use crate::stats::{achieved_accuracy, required_reads};
    use proptest::prelude::*;

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
    }
}

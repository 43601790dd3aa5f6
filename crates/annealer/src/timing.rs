//! QPU access-time model.
//!
//! The paper's Stage-1 and Stage-2 listings (Figs. 6–7) embed measured
//! hardware constants for the second-generation D-Wave Two ("Vesuvius")
//! processor: programming/initialization of the electronic control system and
//! programmable magnetic memory (PMM), per-read anneal, readout and
//! thermalization times.  This module reproduces those constants and exposes
//! the arithmetic that converts "k reads of an n-qubit program" into seconds,
//! which is what the Stage-2 machine walk and the simulated QPU both use.

/// Programming and per-read timing constants, in microseconds.
///
/// Field names follow the parameter names used in the paper's Fig. 6 and
/// Fig. 7 listings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuTimings {
    /// `StateCon`: electronic control-state construction.
    pub state_construction_us: f64,
    /// `PMMSW`: programmable-magnetic-memory software step.
    pub pmm_software_us: f64,
    /// `PMMElec`: PMM electronics step.
    pub pmm_electronics_us: f64,
    /// `PMMChip`: PMM chip programming.
    pub pmm_chip_us: f64,
    /// `PMMTherm`: post-programming thermalization.
    pub pmm_thermalization_us: f64,
    /// `SWRun`: software run overhead.
    pub software_run_us: f64,
    /// `ElecRun`: electronics run overhead.
    pub electronics_run_us: f64,
    /// Anneal duration per read (the `QuOps` rate; 20 µs by default).
    pub anneal_us: f64,
    /// `AnnealReadResults`: readout time per call.
    pub readout_us: f64,
    /// `AnnealThermalization`: thermalization per call.
    pub thermalization_us: f64,
}

impl Default for QpuTimings {
    fn default() -> Self {
        Self::dw2_vesuvius()
    }
}

impl QpuTimings {
    /// The DW2 "Vesuvius" constants exactly as published in Fig. 6/Fig. 7.
    pub fn dw2_vesuvius() -> Self {
        Self {
            state_construction_us: 252_162.0,
            pmm_software_us: 33_095.0,
            pmm_electronics_us: 0.0,
            pmm_chip_us: 11_264.0,
            pmm_thermalization_us: 10_000.0,
            software_run_us: 4_000.0,
            electronics_run_us: 9_052.0,
            anneal_us: 20.0,
            readout_us: 320.0,
            thermalization_us: 5.0,
        }
    }

    /// The paper assumes the DW2X constants "are nearly the same" as the DW2;
    /// this constructor makes that assumption explicit.
    pub fn dw2x() -> Self {
        Self::dw2_vesuvius()
    }

    /// Total one-time processor-initialization cost (`ProcessorInitialize` in
    /// Fig. 6), in seconds.
    pub fn processor_initialize_seconds(&self) -> f64 {
        (self.state_construction_us
            + self.pmm_software_us
            + self.pmm_electronics_us
            + self.pmm_chip_us
            + self.pmm_thermalization_us
            + self.software_run_us
            + self.electronics_run_us)
            * 1e-6
    }

    /// Pure annealing time for `reads` samples, in seconds (the Stage-2
    /// `QuOps` term).
    pub fn anneal_seconds(&self, reads: usize) -> f64 {
        reads as f64 * self.anneal_us * 1e-6
    }

    /// Per-call readout plus thermalization cost, in seconds (the Stage-2
    /// constant blocks).
    pub fn readout_seconds(&self) -> f64 {
        (self.readout_us + self.thermalization_us) * 1e-6
    }

    /// Total QPU-access time for one programming cycle followed by `reads`
    /// samples: initialization + anneals + readout/thermalization.
    pub fn total_access_seconds(&self, reads: usize) -> f64 {
        self.processor_initialize_seconds() + self.anneal_seconds(reads) + self.readout_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_initialize_matches_paper_sum() {
        let t = QpuTimings::dw2_vesuvius();
        let expected_us = 252_162.0 + 33_095.0 + 0.0 + 11_264.0 + 10_000.0 + 4_000.0 + 9_052.0;
        assert!((t.processor_initialize_seconds() - expected_us * 1e-6).abs() < 1e-12);
        // ~0.32 seconds of fixed programming cost.
        assert!((t.processor_initialize_seconds() - 0.319_573).abs() < 1e-6);
    }

    #[test]
    fn anneal_time_is_twenty_microseconds_per_read() {
        let t = QpuTimings::default();
        assert!((t.anneal_seconds(1) - 20e-6).abs() < 1e-12);
        assert!((t.anneal_seconds(1000) - 0.02).abs() < 1e-12);
        assert_eq!(t.anneal_seconds(0), 0.0);
    }

    #[test]
    fn readout_constants_match_stage2_listing() {
        let t = QpuTimings::default();
        assert!((t.readout_seconds() - 325e-6).abs() < 1e-12);
    }

    #[test]
    fn total_access_is_dominated_by_programming() {
        // Even thousands of reads cost less than the fixed programming time,
        // which is the paper's central observation about stage 2 being cheap
        // relative to the (even larger) stage-1 embedding cost.
        let t = QpuTimings::default();
        let total = t.total_access_seconds(1000);
        assert!(t.processor_initialize_seconds() / total > 0.9);
    }

    #[test]
    fn dw2x_assumption_matches_dw2() {
        assert_eq!(QpuTimings::dw2x(), QpuTimings::dw2_vesuvius());
    }
}

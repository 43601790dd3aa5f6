//! Control-precision modeling.
//!
//! Sec. 2.2 of the paper notes that the programmed Ising parameters can only
//! be realized to the bits of precision supported by the electronic control
//! system and the analog couplers, so "the final, programmed Ising model may
//! be substantively different from the intended logical input".  This module
//! models that effect: parameters are rescaled into the analog range
//! `[-range, +range]` and rounded to a uniform grid with a given number of
//! bits, and the resulting perturbation is quantified.

use crate::ising::Ising;

/// Specification of the control electronics' precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionSpec {
    /// Number of bits used to represent each bias/coupling.
    pub bits: u32,
    /// Symmetric analog range: values are representable in `[-range, range]`.
    pub range: f64,
}

impl Default for PrecisionSpec {
    fn default() -> Self {
        // The D-Wave control system exposes roughly 4-5 bits of effective
        // precision over the [-1, 1] analog range.
        Self {
            bits: 5,
            range: 1.0,
        }
    }
}

impl PrecisionSpec {
    /// Create a spec with the given bit width over `[-1, 1]`.
    pub fn with_bits(bits: u32) -> Self {
        Self { bits, range: 1.0 }
    }

    /// Size of one quantization step.
    pub fn step(&self) -> f64 {
        // `bits` bits represent 2^bits levels across the symmetric range.
        2.0 * self.range / ((1u64 << self.bits) - 1) as f64
    }

    /// Quantize one value: clamp to the representable range and round to the
    /// nearest level of a zero-centered grid with spacing [`Self::step`]
    /// (clamping again so the result never leaves the analog range).  Zero is
    /// always exactly representable; the rounding error is at most half a
    /// step.
    pub fn quantize(&self, value: f64) -> f64 {
        let clamped = value.clamp(-self.range, self.range);
        let step = self.step();
        ((clamped / step).round() * step).clamp(-self.range, self.range)
    }
}

/// The result of quantizing a logical Ising model for hardware programming.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedIsing {
    /// The quantized (programmed) model.
    pub programmed: Ising,
    /// Largest absolute bias perturbation introduced by quantization.
    pub max_field_error: f64,
    /// Largest absolute coupling perturbation introduced by quantization.
    pub max_coupling_error: f64,
    /// Scale factor applied before quantization so the largest parameter
    /// fills the analog range (auto-scaling, as the D-Wave toolchain does).
    pub scale: f64,
}

/// Rescale a logical Ising model into the analog range and quantize it.
///
/// The model is scaled by `range / max(|h|, |J|)` (no scaling if the model is
/// all zero), quantized parameter-by-parameter, and the worst-case
/// perturbations (in the scaled units) are reported.
pub fn quantize_ising(ising: &Ising, spec: PrecisionSpec) -> QuantizedIsing {
    let max_param = ising.max_abs_field().max(ising.max_abs_coupling());
    let scale = if max_param > 0.0 {
        spec.range / max_param
    } else {
        1.0
    };
    let mut programmed = Ising::new(ising.num_spins());
    let mut max_field_error: f64 = 0.0;
    let mut max_coupling_error: f64 = 0.0;
    for i in 0..ising.num_spins() {
        let scaled = ising.field(i) * scale;
        let q = spec.quantize(scaled);
        max_field_error = max_field_error.max((q - scaled).abs());
        programmed.set_field(i, q);
    }
    for ((i, j), jij) in ising.couplings() {
        let scaled = jij * scale;
        let q = spec.quantize(scaled);
        max_coupling_error = max_coupling_error.max((q - scaled).abs());
        if q != 0.0 {
            programmed.set_coupling(i, j, q);
        }
    }
    QuantizedIsing {
        programmed,
        max_field_error,
        max_coupling_error,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    #[test]
    fn step_size_shrinks_with_bits() {
        let coarse = PrecisionSpec::with_bits(3).step();
        let fine = PrecisionSpec::with_bits(8).step();
        assert!(fine < coarse);
        assert!((PrecisionSpec::with_bits(1).step() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_clamps_and_rounds() {
        let spec = PrecisionSpec::with_bits(5);
        assert!((spec.quantize(5.0) - 1.0).abs() < 1e-12);
        assert!((spec.quantize(-5.0) + 1.0).abs() < 1e-12);
        let q = spec.quantize(0.33);
        assert!((q - 0.33).abs() <= spec.step() / 2.0 + 1e-12);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let g = generators::gnp(20, 0.4, 3);
        let m = Ising::random_on_graph(&g, 4);
        let spec = PrecisionSpec::with_bits(5);
        let q = quantize_ising(&m, spec);
        let half_step = spec.step() / 2.0 + 1e-12;
        assert!(q.max_field_error <= half_step, "{}", q.max_field_error);
        assert!(
            q.max_coupling_error <= half_step,
            "{}",
            q.max_coupling_error
        );
    }

    #[test]
    fn more_bits_means_less_error() {
        let g = generators::gnp(20, 0.5, 7);
        let m = Ising::random_on_graph(&g, 8);
        let coarse = quantize_ising(&m, PrecisionSpec::with_bits(3));
        let fine = quantize_ising(&m, PrecisionSpec::with_bits(10));
        assert!(fine.max_coupling_error <= coarse.max_coupling_error);
        assert!(fine.max_field_error <= coarse.max_field_error);
    }

    #[test]
    fn scaling_fills_analog_range() {
        let mut m = Ising::new(2);
        m.set_field(0, 0.25);
        m.set_coupling(0, 1, 0.5);
        let q = quantize_ising(&m, PrecisionSpec::default());
        assert!((q.scale - 2.0).abs() < 1e-12);
        // The largest programmed parameter sits at the edge of the range.
        assert!((q.programmed.coupling(0, 1).abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_model_quantizes_to_zero() {
        let m = Ising::new(4);
        let q = quantize_ising(&m, PrecisionSpec::default());
        assert_eq!(q.scale, 1.0);
        assert_eq!(q.max_field_error, 0.0);
        assert!(q.programmed.fields().all(|h| h == 0.0));
    }

    #[test]
    fn structure_is_preserved_at_high_precision() {
        let g = generators::cycle(10);
        let m = Ising::random_on_graph(&g, 5);
        let q = quantize_ising(&m, PrecisionSpec::with_bits(16));
        assert_eq!(q.programmed.interaction_graph(), g);
    }
}

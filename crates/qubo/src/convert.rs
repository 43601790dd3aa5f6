//! QUBO ⇄ Ising conversion.
//!
//! The paper (Eqs. 4–5) maps a QUBO matrix `Q` to logical Ising parameters by
//! a linear change of variables between bits `b ∈ {0,1}` and spins
//! `s ∈ {-1,+1}`.  This module provides an **energy-preserving** conversion
//! (the QUBO objective equals the Ising energy plus a constant offset, so
//! minimizers coincide) using the substitution `bᵢ = (1 + sᵢ)/2`, together
//! with helpers matching the paper's published coefficient formulas for
//! structural comparison.
//!
//! Deriving with `Q` symmetric:
//!
//! ```text
//! bᵀQb = Σᵢ Qᵢᵢ bᵢ + 2 Σ_{i<j} Qᵢⱼ bᵢ bⱼ
//!      = offset - Σᵢ hᵢ sᵢ - Σ_{i<j} Jᵢⱼ sᵢ sⱼ
//! hᵢ     = -( Qᵢᵢ/2 + ½ Σ_{j≠i} Qᵢⱼ )
//! Jᵢⱼ    = -Qᵢⱼ/2
//! offset =  ½ Σᵢ Qᵢᵢ + ½ Σ_{i<j} Qᵢⱼ
//! ```
//!
//! The paper's Eq. (4)–(5) (`hᵢ = Qᵢᵢ/2 + ¼ΣⱼQᵢⱼ`, `Jᵢⱼ = Qᵢⱼ/4`) quote the
//! same transformation with the opposite spin-sign convention and with the
//! row sum running over the full symmetric matrix (each off-diagonal pair
//! counted twice); [`paper_ising_parameters`] reproduces those published
//! coefficients verbatim so the resource counts of the Stage-1 model can be
//! cross-checked.

use crate::ising::{Ising, Spin};
use crate::qubo::Qubo;

/// Result of converting a QUBO into an Ising model.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingConversion {
    /// The logical Ising model.
    pub ising: Ising,
    /// Constant offset such that `qubo.energy(b) = ising.energy(s) + offset`
    /// under the bit/spin correspondence of [`bits_to_spins`].
    pub offset: f64,
    /// Number of floating-point additions/multiplications performed, for the
    /// Stage-1 resource accounting (`ParameterSetting` in the paper's model).
    pub operations: u64,
}

/// Convert bits to spins with `s = 2b - 1` (`false → -1`, `true → +1`).
pub fn bits_to_spins(bits: &[bool]) -> Vec<Spin> {
    bits.iter().map(|&b| if b { 1 } else { -1 }).collect()
}

/// Convert spins to bits with `b = (s + 1)/2`.
pub fn spins_to_bits(spins: &[Spin]) -> Vec<bool> {
    spins.iter().map(|&s| s > 0).collect()
}

/// Convert a QUBO instance to an energy-equivalent logical Ising model.
pub fn qubo_to_ising(qubo: &Qubo) -> IsingConversion {
    let n = qubo.num_variables();
    let mut ising = Ising::new(n);
    let mut offset = 0.0;
    let mut operations: u64 = 0;
    for i in 0..n {
        let qii = qubo.get(i, i);
        let mut row_sum = 0.0;
        for j in 0..n {
            if j != i {
                row_sum += qubo.get(i, j);
                operations += 1;
            }
        }
        ising.set_field(i, -(qii / 2.0 + row_sum / 2.0));
        operations += 3;
        offset += qii / 2.0;
        operations += 1;
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let qij = qubo.get(i, j);
            if qij != 0.0 {
                ising.set_coupling(i, j, -qij / 2.0);
                offset += qij / 2.0;
                operations += 2;
            }
        }
    }
    IsingConversion {
        ising,
        offset,
        operations,
    }
}

/// Convert an Ising model back to an energy-equivalent QUBO (inverse of
/// [`qubo_to_ising`] up to the constant offset).
pub fn ising_to_qubo(ising: &Ising) -> (Qubo, f64) {
    // From b = (1+s)/2, s = 2b - 1:
    //   -h s        = -h (2b - 1)        = -2h b + h
    //   -J s_i s_j  = -J (2bᵢ-1)(2bⱼ-1)  = -4J bᵢbⱼ + 2J bᵢ + 2J bⱼ - J
    let n = ising.num_spins();
    let mut qubo = Qubo::new(n);
    let mut offset = 0.0;
    for i in 0..n {
        let h = ising.field(i);
        qubo.add(i, i, -2.0 * h);
        offset += h;
    }
    for ((i, j), jij) in ising.couplings() {
        // Off-diagonal entries contribute 2*Q_ij to the quadratic form, so
        // set Q_ij = -2J to realize the -4J bᵢbⱼ term.
        qubo.add(i, j, -2.0 * jij);
        qubo.add(i, i, 2.0 * jij);
        qubo.add(j, j, 2.0 * jij);
        offset -= jij;
    }
    (qubo, offset)
}

/// Bias and coupling vectors in the paper's notation: `(h, J)` with `J`
/// keyed by the upper-triangle index pair.
pub type PaperIsingParameters = (Vec<f64>, Vec<((usize, usize), f64)>);

/// The logical Ising parameters exactly as printed in the paper's Eqs. 4–5:
/// `hᵢ = Qᵢᵢ/2 + ¼ Σⱼ Qᵢⱼ` and `Jᵢⱼ = Qᵢⱼ/4` for `i < j`.
///
/// Returned as `(h, J)` vectors; used to validate the operation-count model
/// of Stage 1 rather than for energy-preserving execution.
pub fn paper_ising_parameters(qubo: &Qubo) -> PaperIsingParameters {
    let n = qubo.num_variables();
    let mut h = vec![0.0; n];
    for (i, hi) in h.iter_mut().enumerate() {
        let mut row = 0.0;
        for j in 0..n {
            row += qubo.get(i, j);
        }
        *hi = qubo.get(i, i) / 2.0 + row / 4.0;
    }
    let mut j_terms = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let qij = qubo.get(i, j);
            if qij != 0.0 {
                j_terms.push(((i, j), qij / 4.0));
            }
        }
    }
    (h, j_terms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> Vec<Vec<bool>> {
        (0..(1usize << n))
            .map(|mask| (0..n).map(|i| (mask >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn bit_spin_round_trip() {
        let bits = vec![true, false, true, true];
        let spins = bits_to_spins(&bits);
        assert_eq!(spins, vec![1, -1, 1, 1]);
        assert_eq!(spins_to_bits(&spins), bits);
    }

    #[test]
    fn conversion_preserves_energy_small_instance() {
        let qubo = Qubo::from_matrix(&[
            vec![1.0, -2.0, 0.5],
            vec![-2.0, 0.0, 1.0],
            vec![0.5, 1.0, -1.0],
        ]);
        let conv = qubo_to_ising(&qubo);
        for bits in all_assignments(3) {
            let spins = bits_to_spins(&bits);
            let qe = qubo.energy(&bits);
            let ie = conv.ising.energy(&spins) + conv.offset;
            assert!((qe - ie).abs() < 1e-9, "bits {bits:?}: {qe} vs {ie}");
        }
    }

    #[test]
    fn conversion_preserves_argmin() {
        let qubo = Qubo::random(8, 0.6, 17);
        let conv = qubo_to_ising(&qubo);
        let mut best_qubo = (f64::INFINITY, Vec::new());
        let mut best_ising = (f64::INFINITY, Vec::new());
        for bits in all_assignments(8) {
            let spins = bits_to_spins(&bits);
            let qe = qubo.energy(&bits);
            let ie = conv.ising.energy(&spins);
            if qe < best_qubo.0 {
                best_qubo = (qe, bits.clone());
            }
            if ie < best_ising.0 {
                best_ising = (ie, bits);
            }
        }
        assert_eq!(best_qubo.1, best_ising.1);
    }

    #[test]
    fn round_trip_through_ising_preserves_energy() {
        let qubo = Qubo::random(6, 0.7, 23);
        let conv = qubo_to_ising(&qubo);
        let (back, back_offset) = ising_to_qubo(&conv.ising);
        for bits in all_assignments(6) {
            let original = qubo.energy(&bits);
            let round_trip = back.energy(&bits) + back_offset + conv.offset;
            assert!(
                (original - round_trip).abs() < 1e-9,
                "bits {bits:?}: {original} vs {round_trip}"
            );
        }
    }

    #[test]
    fn operations_scale_quadratically() {
        // The paper models parameter setting as O(n^2)-O(n^3) additions; our
        // counter should grow at least quadratically with n for dense inputs.
        let small = qubo_to_ising(&Qubo::random(10, 1.0, 1)).operations;
        let large = qubo_to_ising(&Qubo::random(20, 1.0, 1)).operations;
        assert!(large >= 3 * small, "ops {small} -> {large}");
    }

    #[test]
    fn interaction_structure_is_preserved() {
        let qubo = Qubo::random(12, 0.3, 9);
        let conv = qubo_to_ising(&qubo);
        assert_eq!(conv.ising.interaction_graph(), qubo.interaction_graph());
    }

    #[test]
    fn paper_parameters_match_formulas() {
        let qubo = Qubo::from_matrix(&[vec![2.0, 4.0], vec![4.0, -2.0]]);
        let (h, j) = paper_ising_parameters(&qubo);
        // h0 = Q00/2 + (Q00 + Q01)/4 = 1 + 1.5 = 2.5
        assert!((h[0] - 2.5).abs() < 1e-12);
        // h1 = Q11/2 + (Q10 + Q11)/4 = -1 + 0.5 = -0.5
        assert!((h[1] + 0.5).abs() < 1e-12);
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].0, (0, 1));
        assert!((j[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_qubo_converts_to_zero_ising() {
        let conv = qubo_to_ising(&Qubo::new(5));
        assert_eq!(conv.ising.num_couplings(), 0);
        assert!(conv.ising.fields().all(|h| h == 0.0));
        assert_eq!(conv.offset, 0.0);
    }
}

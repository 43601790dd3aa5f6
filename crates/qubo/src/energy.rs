//! Energy evaluation utilities: exact brute-force ground states for small
//! instances, energy landscapes and solution ranking.
//!
//! The brute-force solver is the ground truth against which the simulated
//! QPU's success probability `p_s` (Sec. 3.2 of the paper) is estimated.

use crate::ising::{Ising, Spin};
use crate::qubo::Qubo;

/// Maximum problem size accepted by the exact solvers (2^24 states).
pub const MAX_EXACT_VARIABLES: usize = 24;

/// An exact solution of a small instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// Minimum energy value found.
    pub energy: f64,
    /// One optimal assignment (lowest index order among ties).
    pub assignment: Vec<bool>,
    /// Number of optimal assignments (degeneracy of the ground state).
    pub degeneracy: usize,
}

/// Exhaustively minimize a QUBO.  Only valid for small instances.
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_VARIABLES`] variables.
pub fn solve_qubo_exact(qubo: &Qubo) -> ExactSolution {
    let n = qubo.num_variables();
    assert!(
        n <= MAX_EXACT_VARIABLES,
        "exact solver limited to {MAX_EXACT_VARIABLES} variables, got {n}"
    );
    let mut best = f64::INFINITY;
    let mut best_bits = vec![false; n];
    let mut degeneracy = 0usize;
    for mask in 0u64..(1u64 << n) {
        let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
        let e = qubo.energy(&bits);
        if e < best - 1e-12 {
            best = e;
            best_bits = bits;
            degeneracy = 1;
        } else if (e - best).abs() <= 1e-12 {
            degeneracy += 1;
        }
    }
    ExactSolution {
        energy: best,
        assignment: best_bits,
        degeneracy,
    }
}

/// Exhaustively minimize an Ising model.  Only valid for small instances.
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_VARIABLES`] spins.
pub fn solve_ising_exact(ising: &Ising) -> (f64, Vec<Spin>, usize) {
    let n = ising.num_spins();
    assert!(
        n <= MAX_EXACT_VARIABLES,
        "exact solver limited to {MAX_EXACT_VARIABLES} spins, got {n}"
    );
    let mut best = f64::INFINITY;
    let mut best_spins = vec![1; n];
    let mut degeneracy = 0usize;
    for mask in 0u64..(1u64 << n) {
        let spins: Vec<Spin> = (0..n)
            .map(|i| if (mask >> i) & 1 == 1 { 1 } else { -1 })
            .collect();
        let e = ising.energy(&spins);
        if e < best - 1e-12 {
            best = e;
            best_spins = spins;
            degeneracy = 1;
        } else if (e - best).abs() <= 1e-12 {
            degeneracy += 1;
        }
    }
    (best, best_spins, degeneracy)
}

/// A sampled solution with its energy and multiplicity, as produced by
/// post-processing (stage 3 of the split-execution application).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSolution {
    /// Ising energy of the configuration.
    pub energy: f64,
    /// The spin configuration.
    pub spins: Vec<Spin>,
    /// Number of times this configuration appeared in the readout ensemble.
    pub multiplicity: usize,
}

/// Sort an ensemble of readout configurations by energy (ascending) and
/// collapse duplicates, mirroring the heapsort-based post-processing of the
/// paper's Stage 3.  Returns the ranked list and the number of comparison
/// operations performed (for resource accounting).
pub fn rank_solutions(ising: &Ising, samples: &[Vec<Spin>]) -> (Vec<RankedSolution>, u64) {
    let mut operations: u64 = 0;
    let mut scored: Vec<(f64, &Vec<Spin>)> = samples
        .iter()
        .map(|s| {
            operations += ising.num_spins() as u64 + ising.num_couplings() as u64;
            (ising.energy(s), s)
        })
        .collect();
    // Rust's sort is a mergesort variant; the paper assumes heapsort.  Both
    // are O(k log k) comparisons, which is what the Stage-3 model charges.
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    operations += (scored.len() as u64).max(1).ilog2() as u64 * scored.len() as u64;
    let mut ranked: Vec<RankedSolution> = Vec::new();
    for (energy, spins) in scored {
        match ranked.last_mut() {
            Some(last) if (last.energy - energy).abs() <= 1e-12 && &last.spins == spins => {
                last.multiplicity += 1;
            }
            _ => ranked.push(RankedSolution {
                energy,
                spins: spins.clone(),
                multiplicity: 1,
            }),
        }
    }
    (ranked, operations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{bits_to_spins, qubo_to_ising};

    #[test]
    fn exact_qubo_finds_known_minimum() {
        // Minimize x0 + x1 - 3 x0 x1: best is x0 = x1 = 1 with value -1.
        let mut q = Qubo::new(2);
        q.set(0, 0, 1.0);
        q.set(1, 1, 1.0);
        q.set(0, 1, -1.5); // off-diagonal counted twice -> -3 x0 x1
        let sol = solve_qubo_exact(&q);
        assert_eq!(sol.assignment, vec![true, true]);
        assert!((sol.energy - (-1.0)).abs() < 1e-12);
        assert_eq!(sol.degeneracy, 1);
    }

    #[test]
    fn exact_qubo_counts_degeneracy() {
        // Zero matrix: every assignment is optimal.
        let sol = solve_qubo_exact(&Qubo::new(3));
        assert_eq!(sol.energy, 0.0);
        assert_eq!(sol.degeneracy, 8);
    }

    #[test]
    fn exact_ising_ferromagnet_ground_states() {
        let mut m = Ising::new(3);
        m.set_coupling(0, 1, 1.0);
        m.set_coupling(1, 2, 1.0);
        let (energy, spins, degeneracy) = solve_ising_exact(&m);
        assert!((energy - (-2.0)).abs() < 1e-12);
        assert_eq!(degeneracy, 2); // all-up and all-down
        assert!(spins.iter().all(|&s| s == spins[0]));
    }

    #[test]
    fn exact_solvers_agree_through_conversion() {
        let qubo = Qubo::random(10, 0.5, 31);
        let conv = qubo_to_ising(&qubo);
        let qubo_sol = solve_qubo_exact(&qubo);
        let (ising_energy, ising_spins, _) = solve_ising_exact(&conv.ising);
        assert!(
            (qubo_sol.energy - (ising_energy + conv.offset)).abs() < 1e-9,
            "{} vs {}",
            qubo_sol.energy,
            ising_energy + conv.offset
        );
        // The Ising optimum maps to an optimal QUBO assignment.
        let bits = crate::convert::spins_to_bits(&ising_spins);
        assert!((qubo.energy(&bits) - qubo_sol.energy).abs() < 1e-9);
        let _ = bits_to_spins(&qubo_sol.assignment);
    }

    #[test]
    #[should_panic(expected = "exact solver limited")]
    fn exact_solver_rejects_large_instances() {
        solve_qubo_exact(&Qubo::new(30));
    }

    #[test]
    fn rank_solutions_sorts_and_collapses() {
        let mut m = Ising::new(2);
        m.set_field(0, 1.0);
        let samples = vec![vec![-1, 1], vec![1, 1], vec![1, 1], vec![-1, -1]];
        let (ranked, ops) = rank_solutions(&m, &samples);
        assert!(ops > 0);
        // Best energy first.
        assert!(ranked.windows(2).all(|w| w[0].energy <= w[1].energy));
        // The two identical [1, 1] samples collapse with multiplicity 2.
        let best = &ranked[0];
        assert_eq!(best.spins, vec![1, 1]);
        assert_eq!(best.multiplicity, 2);
        let total: usize = ranked.iter().map(|r| r.multiplicity).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn rank_solutions_empty_input() {
        let m = Ising::new(2);
        let (ranked, _) = rank_solutions(&m, &[]);
        assert!(ranked.is_empty());
    }
}

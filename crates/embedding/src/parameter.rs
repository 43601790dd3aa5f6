//! Embedded-Ising parameter setting.
//!
//! After a minor embedding is found, the logical Ising parameters must be
//! spread over the physical qubits and couplers (Sec. 2.2 of the paper):
//! each logical bias is divided across its chain, each logical coupling is
//! assigned to the hardware couplers that realize the logical edge, and a
//! strong ferromagnetic *chain coupling* is added inside every chain so the
//! physical qubits of one chain "behave collectively".  The chain strength
//! is "typically chosen to be much larger than neighboring elements".
//!
//! The inverse direction — turning a hardware readout back into logical
//! spins — uses majority vote over each chain and reports chain breaks.

use crate::types::Embedding;
use chimera_graph::Graph;
use qubo_ising::{Ising, Spin};

/// Options controlling how logical parameters are spread over the hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParameterSetting {
    /// Ferromagnetic coupling strength applied inside every chain.  Positive
    /// values favor aligned chains under the `E = -Σ J sᵢsⱼ` convention.
    pub chain_strength: f64,
    /// If true, a logical coupling is divided evenly over every available
    /// hardware coupler between the two chains; otherwise the full value is
    /// placed on the first available coupler.
    pub spread_couplings: bool,
}

impl Default for ParameterSetting {
    fn default() -> Self {
        Self {
            chain_strength: 2.0,
            spread_couplings: true,
        }
    }
}

impl ParameterSetting {
    /// Choose a chain strength relative to the largest logical parameter
    /// (`factor` × max(|h|, |J|), with a floor of 1.0).
    pub fn auto(ising: &Ising, factor: f64) -> Self {
        let max_param = ising.max_abs_field().max(ising.max_abs_coupling()).max(1.0);
        Self {
            chain_strength: factor * max_param,
            spread_couplings: true,
        }
    }
}

/// The embedded (physical) Ising program together with bookkeeping needed to
/// interpret readouts.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedIsing {
    /// The physical Ising model over hardware qubits.
    pub physical: Ising,
    /// The embedding used.
    pub embedding: Embedding,
    /// Number of floating-point operations spent setting parameters (the
    /// paper's `ParameterSetting` resource in the Stage-1 model).
    pub operations: u64,
    /// Chain strength actually applied.
    pub chain_strength: f64,
}

/// Spread a logical Ising model over the hardware according to an embedding.
///
/// The caller is responsible for supplying a *valid* embedding (see
/// [`crate::verify::verify_embedding`]); logical edges without any hardware
/// coupler are silently dropped, which mirrors what a real toolchain would do
/// if handed an invalid embedding.
pub fn embed_ising(
    logical: &Ising,
    embedding: &Embedding,
    hardware: &Graph,
    setting: ParameterSetting,
) -> EmbeddedIsing {
    let mut physical = Ising::new(hardware.vertex_count());
    let mut operations: u64 = 0;

    // Biases: h_i divided uniformly over the chain of i.
    for (v, chain) in embedding.iter() {
        if chain.is_empty() {
            continue;
        }
        let share = logical.field(v) / chain.len() as f64;
        operations += 1;
        for &q in chain {
            physical.add_field(q, share);
            operations += 1;
        }
    }

    // Logical couplings over the available hardware couplers.
    for ((u, v), juv) in logical.couplings() {
        let mut available: Vec<(usize, usize)> = Vec::new();
        for &qu in embedding.chain(u) {
            for qv in hardware.neighbors(qu) {
                if embedding.chain(v).binary_search(&qv).is_ok() {
                    available.push((qu, qv));
                }
            }
        }
        operations += available.len() as u64;
        if available.is_empty() {
            continue;
        }
        if setting.spread_couplings {
            let share = juv / available.len() as f64;
            for (qu, qv) in available {
                physical.add_coupling(qu, qv, share);
                operations += 1;
            }
        } else {
            let (qu, qv) = available[0];
            physical.add_coupling(qu, qv, juv);
            operations += 1;
        }
    }

    // Ferromagnetic chain couplings on every hardware edge internal to a chain.
    for (_, chain) in embedding.iter() {
        for (idx, &qa) in chain.iter().enumerate() {
            for &qb in &chain[idx + 1..] {
                if hardware.has_edge(qa, qb) {
                    physical.add_coupling(qa, qb, setting.chain_strength);
                    operations += 1;
                }
            }
        }
    }

    EmbeddedIsing {
        physical,
        embedding: embedding.clone(),
        operations,
        chain_strength: setting.chain_strength,
    }
}

/// Result of decoding one hardware readout into logical spins.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSample {
    /// Logical spins recovered by majority vote over each chain.
    pub spins: Vec<Spin>,
    /// Number of chains whose qubits disagreed (chain breaks).
    pub chain_breaks: usize,
}

/// Decode a physical readout into logical spins by majority vote per chain.
/// Ties break toward +1.
pub fn unembed_sample(embedding: &Embedding, physical_spins: &[Spin]) -> DecodedSample {
    let mut spins = Vec::with_capacity(embedding.num_logical());
    let mut chain_breaks = 0;
    for (_, chain) in embedding.iter() {
        if chain.is_empty() {
            spins.push(1);
            continue;
        }
        let mut up = 0usize;
        let mut down = 0usize;
        for &q in chain {
            match physical_spins.get(q) {
                Some(&s) if s > 0 => up += 1,
                Some(_) => down += 1,
                None => {}
            }
        }
        if up > 0 && down > 0 {
            chain_breaks += 1;
        }
        spins.push(if up >= down { 1 } else { -1 });
    }
    DecodedSample {
        spins,
        chain_breaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::clique_embedding;
    use crate::cmr::{find_embedding, CmrConfig};
    use chimera_graph::{generators, Chimera};
    use qubo_ising::solve_ising_exact;

    fn logical_triangle() -> Ising {
        let mut m = Ising::new(3);
        m.set_field(0, 0.5);
        m.set_field(1, -0.25);
        m.set_coupling(0, 1, -1.0);
        m.set_coupling(1, 2, 0.75);
        m.set_coupling(0, 2, 0.5);
        m
    }

    #[test]
    fn biases_are_split_across_chains() {
        let logical = logical_triangle();
        let chimera = Chimera::new(2, 2, 4);
        let out = clique_embedding(3, &chimera).unwrap();
        let embedded = embed_ising(
            &logical,
            &out.embedding,
            chimera.graph(),
            ParameterSetting::default(),
        );
        // The sum of physical biases over a chain equals the logical bias.
        for (v, chain) in out.embedding.iter() {
            let total: f64 = chain.iter().map(|&q| embedded.physical.field(q)).sum();
            assert!((total - logical.field(v)).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn logical_couplings_are_preserved_in_total() {
        let logical = logical_triangle();
        let chimera = Chimera::new(2, 2, 4);
        let out = clique_embedding(3, &chimera).unwrap();
        let embedded = embed_ising(
            &logical,
            &out.embedding,
            chimera.graph(),
            ParameterSetting::default(),
        );
        // Sum of inter-chain physical couplings equals the logical coupling.
        for ((u, v), juv) in logical.couplings() {
            let mut total = 0.0;
            for &qu in out.embedding.chain(u) {
                for &qv in out.embedding.chain(v) {
                    total += embedded.physical.coupling(qu, qv);
                }
            }
            assert!((total - juv).abs() < 1e-9, "edge ({u}, {v})");
        }
    }

    #[test]
    fn chain_couplings_use_the_requested_strength() {
        let logical = Ising::new(4);
        let chimera = Chimera::new(2, 2, 4);
        let out = clique_embedding(4, &chimera).unwrap();
        let setting = ParameterSetting {
            chain_strength: 3.5,
            spread_couplings: true,
        };
        let embedded = embed_ising(&logical, &out.embedding, chimera.graph(), setting);
        // With no logical parameters, every nonzero physical coupling is a
        // chain coupling of the requested strength.
        let mut found = 0;
        for (_, j) in embedded.physical.couplings() {
            assert!((j - 3.5).abs() < 1e-12);
            found += 1;
        }
        assert!(
            found > 0,
            "chains of length > 1 must produce chain couplings"
        );
        assert_eq!(embedded.chain_strength, 3.5);
    }

    #[test]
    fn auto_chain_strength_scales_with_parameters() {
        let mut logical = Ising::new(2);
        logical.set_coupling(0, 1, 4.0);
        let setting = ParameterSetting::auto(&logical, 1.5);
        assert!((setting.chain_strength - 6.0).abs() < 1e-12);
        // Floor of 1.0 for an all-zero model.
        let weak = ParameterSetting::auto(&Ising::new(2), 2.0);
        assert!((weak.chain_strength - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ground_state_is_preserved_through_embedding() {
        // Small enough to solve both the logical and the physical model
        // exactly: the logical ground state must be recoverable from the
        // physical ground state by majority vote.
        let logical = logical_triangle();
        let hardware = Chimera::new(1, 1, 4).into_graph();
        let cmr = find_embedding(
            &logical.interaction_graph(),
            &hardware,
            &CmrConfig::with_seed(5),
        )
        .unwrap();
        let embedded = embed_ising(
            &logical,
            &cmr.embedding,
            &hardware,
            ParameterSetting::auto(&logical, 2.0),
        );
        let (_, physical_ground, _) = solve_ising_exact(&embedded.physical);
        let decoded = unembed_sample(&cmr.embedding, &physical_ground);
        assert_eq!(decoded.chain_breaks, 0, "strong chains should not break");
        let (logical_energy, logical_ground, degeneracy) = solve_ising_exact(&logical);
        let decoded_energy = logical.energy(&decoded.spins);
        assert!(
            (decoded_energy - logical_energy).abs() < 1e-9,
            "decoded {decoded_energy} vs optimal {logical_energy} (degeneracy {degeneracy}, ground {logical_ground:?})"
        );
    }

    #[test]
    fn unembed_majority_vote_and_chain_breaks() {
        let embedding = Embedding::from_chains(vec![vec![0, 1, 2], vec![3, 4]]);
        // Chain 0: two up, one down -> +1, broken.  Chain 1: both down -> -1.
        let decoded = unembed_sample(&embedding, &[1, 1, -1, -1, -1]);
        assert_eq!(decoded.spins, vec![1, -1]);
        assert_eq!(decoded.chain_breaks, 1);
    }

    #[test]
    fn unembed_handles_short_readout_and_empty_chain() {
        let embedding = Embedding::from_chains(vec![vec![0], vec![]]);
        let decoded = unembed_sample(&embedding, &[-1]);
        assert_eq!(decoded.spins, vec![-1, 1]);
        assert_eq!(decoded.chain_breaks, 0);
    }

    #[test]
    fn operation_count_grows_with_chain_length() {
        let logical = Ising::random_on_graph(&generators::complete(8), 3);
        let chimera = Chimera::new(4, 4, 4);
        let small = embed_ising(
            &logical,
            &clique_embedding(8, &Chimera::new(2, 2, 4))
                .unwrap()
                .embedding,
            Chimera::new(2, 2, 4).graph(),
            ParameterSetting::default(),
        );
        let large = embed_ising(
            &logical,
            &clique_embedding(8, &chimera).unwrap().embedding,
            chimera.graph(),
            ParameterSetting::default(),
        );
        // Same logical problem, longer chains on the larger lattice -> more
        // parameter-setting work.
        assert!(large.operations >= small.operations);
        assert!(small.operations > 0);
    }
}

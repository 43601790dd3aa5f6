//! Deterministic complete-graph (clique) embedding into Chimera hardware.
//!
//! This is the polynomial construction the paper attributes to Choi and to
//! Klymko–Sullivan–Humble: embedding `K_n` into a Chimera lattice with
//! `O(n²)` qubits using L-shaped chains.  Each logical vertex `i = 4b + a`
//! (for shore size `L = 4`) owns the horizontal qubits at position `a`
//! across row `b` and the vertical qubits at position `a` down column `b`;
//! the two runs meet (and are coupled) in the diagonal cell `(b, b)`, every
//! pair of chains crosses in exactly two cells, and the chains are pairwise
//! disjoint.
//!
//! The construction is exact, fault-intolerant and — as the paper notes —
//! wasteful for sparse inputs, which is why the CMR heuristic
//! ([`crate::cmr`]) is the paper's choice for the runtime model; the clique
//! embedder serves as the deterministic baseline in the ablation benchmarks.

use crate::types::{EmbedError, Embedding};
use chimera_graph::{Chimera, ChimeraCoord, Side};

/// Outcome of the deterministic clique embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct CliqueOutcome {
    /// The embedding (chains indexed by logical vertex).
    pub embedding: Embedding,
    /// Number of unit-cell rows/columns of the lattice actually used.
    pub cells_used: usize,
}

/// Largest complete graph embeddable by this construction in a pristine
/// `C(m, m, L)` lattice.
pub fn max_clique_size(chimera: &Chimera) -> usize {
    chimera.shore_size() * chimera.rows().min(chimera.cols())
}

/// Embed the complete graph `K_n` into a pristine Chimera lattice.
///
/// Returns an error if the lattice is too small (the construction needs
/// `ceil(n / L)` rows and columns) or if `n` is zero.
pub fn clique_embedding(n: usize, chimera: &Chimera) -> Result<CliqueOutcome, EmbedError> {
    if n == 0 {
        return Err(EmbedError::DegenerateInput(
            "cannot embed an empty complete graph".into(),
        ));
    }
    let l = chimera.shore_size();
    let blocks = n.div_ceil(l);
    if blocks > chimera.rows() || blocks > chimera.cols() {
        return Err(EmbedError::HardwareTooSmall {
            required: 2 * l * blocks * blocks,
            available: chimera.qubit_count(),
        });
    }
    let mut chains = Vec::with_capacity(n);
    for i in 0..n {
        let b = i / l;
        let a = i % l;
        let mut chain = Vec::with_capacity(2 * blocks);
        // Horizontal run across row b, columns 0..blocks.
        for c in 0..blocks {
            chain.push(chimera.linear_index(ChimeraCoord {
                row: b,
                col: c,
                side: Side::Horizontal,
                k: a,
            }));
        }
        // Vertical run down column b, rows 0..blocks.
        for r in 0..blocks {
            chain.push(chimera.linear_index(ChimeraCoord {
                row: r,
                col: b,
                side: Side::Vertical,
                k: a,
            }));
        }
        chains.push(chain);
    }
    Ok(CliqueOutcome {
        embedding: Embedding::from_chains(chains),
        cells_used: blocks,
    })
}

/// Number of physical qubits the construction uses for `K_n` on shore size
/// `l`: `n` chains of length `2·ceil(n/l)`.
pub fn clique_qubit_cost(n: usize, l: usize) -> usize {
    n * 2 * n.div_ceil(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_embedding;
    use chimera_graph::generators;

    #[test]
    fn small_cliques_embed_and_verify() {
        let chimera = Chimera::new(4, 4, 4);
        for n in 1..=16 {
            let out = clique_embedding(n, &chimera).unwrap();
            let input = generators::complete(n);
            verify_embedding(&input, chimera.graph(), &out.embedding)
                .unwrap_or_else(|e| panic!("K{n} failed: {e}"));
        }
    }

    #[test]
    fn k16_on_4x4_uses_all_expected_qubits() {
        let chimera = Chimera::new(4, 4, 4);
        let out = clique_embedding(16, &chimera).unwrap();
        assert_eq!(out.cells_used, 4);
        assert_eq!(out.embedding.qubits_used(), clique_qubit_cost(16, 4));
        assert_eq!(out.embedding.max_chain_length(), 8);
    }

    #[test]
    fn qubit_cost_grows_quadratically() {
        // The paper: embedding a complete graph with n vertices requires a
        // Chimera hardware with ~n^2 qubits.
        let cost_10 = clique_qubit_cost(10, 4);
        let cost_20 = clique_qubit_cost(20, 4);
        let cost_40 = clique_qubit_cost(40, 4);
        assert!(cost_20 >= 3 * cost_10);
        assert!(cost_40 >= 3 * cost_20);
    }

    #[test]
    fn max_clique_size_matches_lattice() {
        assert_eq!(max_clique_size(&Chimera::new(4, 4, 4)), 16);
        assert_eq!(max_clique_size(&Chimera::dw2_vesuvius()), 32);
        assert_eq!(max_clique_size(&Chimera::dw2x()), 48);
        assert_eq!(max_clique_size(&Chimera::new(3, 5, 4)), 12);
    }

    #[test]
    fn dw2x_hosts_k48() {
        let chimera = Chimera::dw2x();
        let out = clique_embedding(48, &chimera).unwrap();
        let input = generators::complete(48);
        verify_embedding(&input, chimera.graph(), &out.embedding).unwrap();
        assert_eq!(out.embedding.max_chain_length(), 24);
    }

    #[test]
    fn oversized_clique_is_rejected() {
        let chimera = Chimera::new(2, 2, 4);
        let err = clique_embedding(9, &chimera).unwrap_err();
        assert!(matches!(err, EmbedError::HardwareTooSmall { .. }));
    }

    #[test]
    fn zero_clique_is_rejected() {
        let chimera = Chimera::new(2, 2, 4);
        assert!(matches!(
            clique_embedding(0, &chimera).unwrap_err(),
            EmbedError::DegenerateInput(_)
        ));
    }

    #[test]
    fn chains_are_pairwise_disjoint() {
        let chimera = Chimera::new(6, 6, 4);
        let out = clique_embedding(24, &chimera).unwrap();
        assert!(!out.embedding.has_overlaps());
        assert_eq!(
            out.embedding.total_chain_length(),
            out.embedding.qubits_used()
        );
    }
}

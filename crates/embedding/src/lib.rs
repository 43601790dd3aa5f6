//! # minor-embed — minor-graph embedding into Chimera hardware
//!
//! The classical pre-processing step that dominates the split-execution
//! runtime in the paper's analysis (Fig. 9a): mapping the interaction graph
//! of a logical Ising problem onto the Chimera hardware graph as a *graph
//! minor*, then spreading the logical parameters over the embedded chains.
//!
//! * [`cmr`] — the randomized Cai–Macready–Roy heuristic (Dijkstra-grown
//!   vertex models with overlap penalties and improvement passes), the
//!   algorithm the paper's Stage-1 model charges for.
//! * [`clique`] — the deterministic `O(n²)`-qubit complete-graph embedding
//!   used as the baseline/ablation.
//! * [`verify`] — validity checking (connected, disjoint chains covering all
//!   logical edges).
//! * [`parameter`] — embedded-Ising parameter setting (bias splitting,
//!   coupler assignment, ferromagnetic chain strength) and readout
//!   un-embedding by majority vote.
//! * [`dijkstra`] — the weighted multi-source shortest-path search used by
//!   the heuristic: CSR adjacency, a caller-filled weight table and
//!   reusable buffers.
//!
//! ```
//! use minor_embed::prelude::*;
//! use chimera_graph::{generators, Chimera};
//!
//! let hardware = Chimera::new(2, 2, 4);
//! let input = generators::complete(5);
//! let outcome = find_embedding(&input, hardware.graph(), &CmrConfig::with_seed(7)).unwrap();
//! verify_embedding(&input, hardware.graph(), &outcome.embedding).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clique;
pub mod cmr;
pub mod dijkstra;
pub mod parameter;
pub mod types;
pub mod verify;

pub use clique::{clique_embedding, CliqueOutcome};
pub use cmr::{find_embedding, CmrConfig, CmrOutcome, CmrStats};
pub use parameter::{embed_ising, unembed_sample, EmbeddedIsing, ParameterSetting};
pub use types::{EmbedError, Embedding};
pub use verify::verify_embedding;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::clique::{clique_embedding, max_clique_size};
    pub use crate::cmr::{find_embedding, CmrConfig, CmrOutcome, CmrStats};
    pub use crate::parameter::{embed_ising, unembed_sample, EmbeddedIsing, ParameterSetting};
    pub use crate::types::{EmbedError, Embedding};
    pub use crate::verify::verify_embedding;
}

#[cfg(test)]
mod proptests {
    use crate::cmr::{find_embedding, CmrConfig};
    use crate::parameter::{embed_ising, unembed_sample, ParameterSetting};
    use crate::verify::verify_embedding;
    use chimera_graph::{generators, Chimera};
    use proptest::prelude::*;
    use qubo_ising::Ising;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every embedding the CMR heuristic reports as successful passes the
        /// independent verifier, for random sparse inputs on a 3×3 lattice.
        #[test]
        fn cmr_embeddings_always_verify(n in 2usize..10, p in 0.1f64..0.6, seed in 0u64..50) {
            let input = generators::gnp(n, p, seed);
            let hardware = Chimera::new(3, 3, 4).into_graph();
            let config = CmrConfig { seed, tries: 3, ..CmrConfig::default() };
            if let Ok(outcome) = find_embedding(&input, &hardware, &config) {
                prop_assert!(verify_embedding(&input, &hardware, &outcome.embedding).is_ok());
                prop_assert!(outcome.embedding.qubits_used() >= n.min(hardware.vertex_count()));
            }
        }

        /// Embedding then decoding an unbroken (all chains aligned) physical
        /// state returns exactly the logical state used to build it.
        #[test]
        fn unembed_inverts_aligned_states(n in 2usize..8, seed in 0u64..50, mask in 0u64..256) {
            let input = generators::gnp(n, 0.5, seed);
            let hardware = Chimera::new(3, 3, 4).into_graph();
            let config = CmrConfig { seed, ..CmrConfig::default() };
            if let Ok(outcome) = find_embedding(&input, &hardware, &config) {
                let logical_spins: Vec<i8> =
                    (0..n).map(|i| if (mask >> i) & 1 == 1 { 1 } else { -1 }).collect();
                let mut physical = vec![1i8; hardware.vertex_count()];
                for (v, chain) in outcome.embedding.iter() {
                    for &q in chain {
                        physical[q] = logical_spins[v];
                    }
                }
                let decoded = unembed_sample(&outcome.embedding, &physical);
                prop_assert_eq!(decoded.spins, logical_spins);
                prop_assert_eq!(decoded.chain_breaks, 0);
            }
        }

        /// Parameter setting conserves logical biases and couplings in total,
        /// regardless of chain shapes.
        #[test]
        fn parameter_setting_conserves_totals(n in 2usize..8, seed in 0u64..50) {
            let graph = generators::gnp(n, 0.5, seed);
            let logical = Ising::random_on_graph(&graph, seed + 1);
            let hardware = Chimera::new(3, 3, 4).into_graph();
            let config = CmrConfig { seed, ..CmrConfig::default() };
            if let Ok(outcome) = find_embedding(&graph, &hardware, &config) {
                let embedded = embed_ising(
                    &logical,
                    &outcome.embedding,
                    &hardware,
                    ParameterSetting::default(),
                );
                for (v, chain) in outcome.embedding.iter() {
                    let total: f64 = chain.iter().map(|&q| embedded.physical.field(q)).sum();
                    prop_assert!((total - logical.field(v)).abs() < 1e-9);
                }
                for ((u, v), juv) in logical.couplings() {
                    let mut total = 0.0;
                    for &qu in outcome.embedding.chain(u) {
                        for &qv in outcome.embedding.chain(v) {
                            total += embedded.physical.coupling(qu, qv);
                        }
                    }
                    prop_assert!((total - juv).abs() < 1e-9);
                }
            }
        }
    }
}

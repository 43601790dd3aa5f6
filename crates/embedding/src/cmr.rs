//! The Cai–Macready–Roy (CMR) randomized minor-embedding heuristic.
//!
//! This is the algorithm the paper selects for its Stage-1 programming model
//! ("a non-deterministic technique recently proposed by Cai, Macready, and
//! Roy ... employs Dijkstra's algorithm to construct the minimum path between
//! randomly distributed subtrees", Sec. 2.2).  The implementation follows the
//! published heuristic:
//!
//! 1. Logical vertices are processed in random order.  Each vertex is given a
//!    *vertex model* (chain) grown from a root qubit chosen to minimize the
//!    total weighted shortest-path distance to the chains of its
//!    already-embedded neighbors; the connecting paths are absorbed into the
//!    chain.
//! 2. Qubits already used by other chains carry an exponentially growing
//!    weight, discouraging (but initially permitting) overlap.
//! 3. Improvement passes re-embed every vertex with the rest held fixed until
//!    the embedding is overlap-free and the total chain length stops
//!    shrinking, or the pass budget is exhausted.
//!
//! The worst-case operation count assumed by the paper's Stage-1 ASPEN model
//! is `(E_G + N_G log N_G) · 2 E_H · N_H · N_G`; the per-call statistics
//! returned in [`CmrStats`] expose the measured analogue (Dijkstra calls and
//! edge relaxations) so the model and the implementation can be compared
//! directly, which is exactly the comparison of Fig. 9(a).

use crate::dijkstra::{multi_source_dijkstra, ShortestPaths};
use crate::types::{EmbedError, Embedding};
use chimera_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Configuration of the CMR heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmrConfig {
    /// Maximum number of improvement passes after the construction pass.
    pub max_passes: usize,
    /// Number of independent randomized restarts; the best (fewest qubits)
    /// successful try wins.
    pub tries: usize,
    /// Base RNG seed; try `i` uses `seed + i`.
    pub seed: u64,
    /// Run restarts in parallel with Rayon.
    pub parallel_tries: bool,
    /// Base of the exponential penalty applied to qubits already used by
    /// other chains.
    pub overlap_penalty_base: f64,
}

impl Default for CmrConfig {
    fn default() -> Self {
        Self {
            max_passes: 10,
            tries: 4,
            seed: 0,
            parallel_tries: false,
            overlap_penalty_base: 64.0,
        }
    }
}

impl CmrConfig {
    /// Convenience constructor fixing only the seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Work counters recorded while running the heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmrStats {
    /// Number of (multi-source) Dijkstra invocations.
    pub dijkstra_calls: u64,
    /// Total edge relaxations across all Dijkstra invocations.
    pub edge_relaxations: u64,
    /// Improvement passes executed in the successful try (or the last try).
    pub passes_used: usize,
    /// Number of restarts attempted.
    pub tries_used: usize,
}

impl CmrStats {
    fn absorb(&mut self, other: &CmrStats) {
        self.dijkstra_calls += other.dijkstra_calls;
        self.edge_relaxations += other.edge_relaxations;
        self.passes_used = self.passes_used.max(other.passes_used);
        self.tries_used += other.tries_used;
    }
}

/// A successful embedding together with its work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CmrOutcome {
    /// The overlap-free embedding.
    pub embedding: Embedding,
    /// Work performed (aggregated over all tries).
    pub stats: CmrStats,
}

/// Find a minor embedding of `input` into `hardware` using the CMR heuristic.
///
/// Returns an error if the input is larger than the hardware, if the input
/// has isolated structure the hardware cannot host, or if no overlap-free
/// embedding is found within the configured budget.
pub fn find_embedding(
    input: &Graph,
    hardware: &Graph,
    config: &CmrConfig,
) -> Result<CmrOutcome, EmbedError> {
    let n = input.vertex_count();
    if n == 0 {
        return Err(EmbedError::DegenerateInput(
            "input graph has no vertices".into(),
        ));
    }
    let usable: Vec<usize> = if hardware.edge_count() == 0 {
        hardware.vertices().collect()
    } else {
        hardware.non_isolated_vertices().collect()
    };
    if usable.len() < n {
        return Err(EmbedError::HardwareTooSmall {
            required: n,
            available: usable.len(),
        });
    }

    let tries = config.tries.max(1);
    let run_try = |t: usize| -> (Option<Embedding>, CmrStats) {
        let mut stats = CmrStats {
            tries_used: 1,
            ..CmrStats::default()
        };
        let embedding = single_try(
            input,
            hardware,
            &usable,
            config,
            config.seed.wrapping_add(t as u64),
            &mut stats,
        );
        (embedding, stats)
    };

    let results: Vec<(Option<Embedding>, CmrStats)> = if config.parallel_tries {
        (0..tries).into_par_iter().map(run_try).collect()
    } else {
        (0..tries).map(run_try).collect()
    };

    let mut total_stats = CmrStats::default();
    let mut best: Option<Embedding> = None;
    for (embedding, stats) in &results {
        total_stats.absorb(stats);
        if let Some(e) = embedding {
            let better = match &best {
                None => true,
                Some(b) => e.qubits_used() < b.qubits_used(),
            };
            if better {
                best = Some(e.clone());
            }
        }
    }
    match best {
        Some(embedding) => Ok(CmrOutcome {
            embedding,
            stats: total_stats,
        }),
        None => Err(EmbedError::NoEmbeddingFound {
            passes: config.max_passes,
        }),
    }
}

/// One randomized construction + improvement attempt.
fn single_try(
    input: &Graph,
    hardware: &Graph,
    usable: &[usize],
    config: &CmrConfig,
    seed: u64,
    stats: &mut CmrStats,
) -> Option<Embedding> {
    let n = input.vertex_count();
    let nh = hardware.vertex_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let usable_set: Vec<bool> = {
        let mut mask = vec![false; nh];
        for &q in usable {
            mask[q] = true;
        }
        mask
    };

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut usage: Vec<u32> = vec![0; nh];

    // Construction pass.
    for &x in &order {
        embed_vertex(
            x,
            input,
            hardware,
            &usable_set,
            config,
            &mut rng,
            &mut chains,
            &mut usage,
            stats,
        );
    }

    // Improvement passes: re-embed every vertex with the others held fixed,
    // in a freshly shuffled order each pass, until the embedding is
    // overlap-free and stops shrinking.  Because later passes can temporarily
    // re-introduce overlaps, the best overlap-free snapshot seen at the end
    // of any pass is kept.
    let mut previous_total = total_length(&chains);
    let mut passes = 0;
    let mut best_valid: Option<Vec<Vec<usize>>> = snapshot_if_valid(&chains, &usage);
    for _ in 0..config.max_passes {
        passes += 1;
        order.shuffle(&mut rng);
        for &x in &order {
            remove_chain(&chains[x], &mut usage);
            chains[x].clear();
            embed_vertex(
                x,
                input,
                hardware,
                &usable_set,
                config,
                &mut rng,
                &mut chains,
                &mut usage,
                stats,
            );
        }
        let overlap_free = usage.iter().all(|&u| u <= 1);
        let total = total_length(&chains);
        if overlap_free {
            let better = match &best_valid {
                None => true,
                Some(best) => total < best.iter().map(Vec::len).sum::<usize>(),
            };
            if better {
                best_valid = snapshot_if_valid(&chains, &usage);
            }
            if total >= previous_total {
                break;
            }
        }
        previous_total = total;
    }
    stats.passes_used = stats.passes_used.max(passes);

    best_valid.map(Embedding::from_chains)
}

/// Return a copy of the chains when they form a complete, overlap-free
/// assignment.
fn snapshot_if_valid(chains: &[Vec<usize>], usage: &[u32]) -> Option<Vec<Vec<usize>>> {
    let overlap_free = usage.iter().all(|&u| u <= 1);
    let all_assigned = chains.iter().all(|c| !c.is_empty());
    if overlap_free && all_assigned {
        Some(chains.to_vec())
    } else {
        None
    }
}

fn total_length(chains: &[Vec<usize>]) -> usize {
    chains.iter().map(Vec::len).sum()
}

fn remove_chain(chain: &[usize], usage: &mut [u32]) {
    for &q in chain {
        usage[q] = usage[q].saturating_sub(1);
    }
}

fn add_chain(chain: &[usize], usage: &mut [u32]) {
    for &q in chain {
        usage[q] += 1;
    }
}

/// Grow the vertex model for logical vertex `x` given the current chains of
/// all other vertices.
#[allow(clippy::too_many_arguments)]
fn embed_vertex(
    x: usize,
    input: &Graph,
    hardware: &Graph,
    usable: &[bool],
    config: &CmrConfig,
    rng: &mut ChaCha8Rng,
    chains: &mut [Vec<usize>],
    usage: &mut [u32],
    stats: &mut CmrStats,
) {
    let nh = hardware.vertex_count();
    let embedded_neighbors: Vec<usize> = input
        .neighbors(x)
        .filter(|&y| !chains[y].is_empty())
        .collect();

    if embedded_neighbors.is_empty() {
        // No constraints yet: take the least-used usable qubit, breaking ties
        // randomly.
        let min_usage = (0..nh)
            .filter(|&q| usable[q])
            .map(|q| usage[q])
            .min()
            .unwrap_or(0);
        let candidates: Vec<usize> = (0..nh)
            .filter(|&q| usable[q] && usage[q] == min_usage)
            .collect();
        let choice = candidates[rng.gen_range(0..candidates.len())];
        chains[x] = vec![choice];
        add_chain(&chains[x], usage);
        return;
    }

    // One weighted Dijkstra per embedded neighbor, rooted at that neighbor's
    // chain.
    let weight_of = |q: usize, usage: &[u32]| -> f64 {
        if !usable[q] {
            f64::INFINITY
        } else {
            config.overlap_penalty_base.powi(usage[q] as i32)
        }
    };
    let searches: Vec<(usize, ShortestPaths)> = embedded_neighbors
        .iter()
        .map(|&y| {
            let sp = multi_source_dijkstra(
                nh,
                &chains[y],
                |v| hardware.neighbors(v).collect::<Vec<_>>(),
                |v| weight_of(v, usage),
            );
            stats.dijkstra_calls += 1;
            stats.edge_relaxations += sp.relaxations;
            (y, sp)
        })
        .collect();

    // Root selection: cheapest total distance to all neighbor chains.
    let mut best_root = None;
    let mut best_cost = f64::INFINITY;
    for (q, &q_usable) in usable.iter().enumerate().take(nh) {
        if !q_usable {
            continue;
        }
        let mut total = weight_of(q, usage);
        let mut reachable = true;
        for (_, sp) in &searches {
            if sp.cost[q].is_finite() {
                total += sp.cost[q];
            } else {
                reachable = false;
                break;
            }
        }
        if reachable && total < best_cost {
            best_cost = total;
            best_root = Some(q);
        }
    }
    let Some(root) = best_root else {
        // Hardware is disconnected relative to the neighbor chains; fall back
        // to an arbitrary usable qubit so the try can fail gracefully later.
        let fallback = (0..nh).find(|&q| usable[q]).unwrap_or(0);
        chains[x] = vec![fallback];
        add_chain(&chains[x], usage);
        return;
    };

    // Absorb the connecting paths (excluding the neighbor-chain endpoints)
    // into x's chain.
    let mut chain = vec![root];
    for (y, sp) in &searches {
        if let Some(path) = sp.path_to(root) {
            for &q in &path {
                if !chains[*y].contains(&q) && !chain.contains(&q) {
                    chain.push(q);
                }
            }
        }
    }
    chain.sort_unstable();
    chain.dedup();
    // Trim qubits that are not needed for connectivity to any neighbor chain
    // or for keeping the chain itself connected; unions of shortest paths
    // routinely contain such redundant branches.
    trim_chain(&mut chain, hardware, &embedded_neighbors, chains);
    chains[x] = chain;
    add_chain(&chains[x], usage);
}

/// Remove redundant qubits from a freshly built chain.
///
/// A qubit can be dropped when (a) the remaining chain is still connected in
/// the hardware graph and (b) every embedded logical neighbor still has at
/// least one hardware coupler into the remaining chain.  Leaves are examined
/// repeatedly until no further removal is possible.
fn trim_chain(
    chain: &mut Vec<usize>,
    hardware: &Graph,
    embedded_neighbors: &[usize],
    chains: &[Vec<usize>],
) {
    if chain.len() <= 1 {
        return;
    }
    let touches_chain = |q: usize, other: &[usize]| -> bool {
        hardware
            .neighbors(q)
            .any(|n| other.binary_search(&n).is_ok())
    };
    loop {
        let mut removed = false;
        let mut idx = 0;
        while idx < chain.len() {
            if chain.len() == 1 {
                break;
            }
            let q = chain[idx];
            let mut candidate: Vec<usize> = chain.iter().copied().filter(|&c| c != q).collect();
            candidate.sort_unstable();
            let still_connected = chimera_graph::metrics::is_connected_subset(hardware, &candidate);
            let still_covers = embedded_neighbors
                .iter()
                .all(|&y| candidate.iter().any(|&c| touches_chain(c, &chains[y])));
            if still_connected && still_covers {
                chain.remove(idx);
                removed = true;
            } else {
                idx += 1;
            }
        }
        if !removed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_embedding;
    use chimera_graph::{generators, Chimera, FaultModel};

    fn embed_ok(input: &Graph, hardware: &Graph, seed: u64) -> CmrOutcome {
        let config = CmrConfig {
            seed,
            ..CmrConfig::default()
        };
        let out = find_embedding(input, hardware, &config).expect("embedding should exist");
        verify_embedding(input, hardware, &out.embedding).expect("embedding should verify");
        out
    }

    #[test]
    fn embeds_single_vertex() {
        let input = Graph::new(1);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 1);
        assert_eq!(out.embedding.qubits_used(), 1);
    }

    #[test]
    fn embeds_single_edge() {
        let input = generators::path(2);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 2);
        assert!(out.embedding.qubits_used() >= 2);
        assert!(out.stats.dijkstra_calls >= 1);
    }

    #[test]
    fn embeds_triangle_into_single_cell() {
        // K3 does not fit natively in a bipartite K4,4 cell, so at least one
        // chain must have length 2.
        let input = generators::complete(3);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 3);
        assert!(out.embedding.max_chain_length() >= 2);
    }

    #[test]
    fn embeds_k6_into_2x2_chimera() {
        let input = generators::complete(6);
        let hw = Chimera::new(2, 2, 4).into_graph();
        let out = embed_ok(&input, &hw, 4);
        assert!(out.embedding.qubits_used() <= hw.vertex_count());
    }

    #[test]
    fn embeds_k10_into_dw2x_subregion() {
        // Mid-size cliques are the hard case for the CMR heuristic (the
        // paper's own measured line stops near K12); give it a healthy
        // restart budget so the test exercises success, not luck.
        let input = generators::complete(10);
        let hw = Chimera::new(4, 4, 4).into_graph();
        let config = CmrConfig {
            seed: 5,
            tries: 32,
            ..CmrConfig::default()
        };
        let out = find_embedding(&input, &hw, &config).expect("embedding should exist");
        verify_embedding(&input, &hw, &out.embedding).expect("embedding should verify");
    }

    #[test]
    fn embeds_cycle_and_grid_inputs() {
        let hw = Chimera::new(3, 3, 4).into_graph();
        embed_ok(&generators::cycle(12), &hw, 6);
        embed_ok(&generators::grid(3, 4), &hw, 7);
    }

    #[test]
    fn embeds_random_graph_on_faulted_hardware() {
        let chimera = Chimera::new(4, 4, 4);
        let faults = FaultModel::exact_dead_qubits(chimera.graph(), 6, 99);
        let hw = faults.apply(chimera.graph());
        let input = generators::gnp(10, 0.3, 17);
        embed_ok(&input, &hw, 8);
    }

    #[test]
    fn rejects_oversized_input() {
        let input = generators::complete(20);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let err = find_embedding(&input, &hw, &CmrConfig::default()).unwrap_err();
        assert!(matches!(err, EmbedError::HardwareTooSmall { .. }));
    }

    #[test]
    fn rejects_empty_input() {
        let hw = Chimera::new(1, 1, 4).into_graph();
        let err = find_embedding(&Graph::new(0), &hw, &CmrConfig::default()).unwrap_err();
        assert!(matches!(err, EmbedError::DegenerateInput(_)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let input = generators::gnp(8, 0.4, 3);
        let hw = Chimera::new(3, 3, 4).into_graph();
        let config = CmrConfig::with_seed(42);
        let a = find_embedding(&input, &hw, &config).unwrap();
        let b = find_embedding(&input, &hw, &config).unwrap();
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallel_tries_match_serial_success() {
        let input = generators::complete(5);
        let hw = Chimera::new(2, 2, 4).into_graph();
        let serial = find_embedding(
            &input,
            &hw,
            &CmrConfig {
                seed: 9,
                parallel_tries: false,
                ..CmrConfig::default()
            },
        )
        .unwrap();
        let parallel = find_embedding(
            &input,
            &hw,
            &CmrConfig {
                seed: 9,
                parallel_tries: true,
                ..CmrConfig::default()
            },
        )
        .unwrap();
        // Each try is seeded identically, so the chosen best embedding agrees.
        assert_eq!(serial.embedding, parallel.embedding);
    }

    #[test]
    fn work_counters_grow_with_problem_size() {
        // K4 and K6 both embed reliably from any seed; K6 must cost more.
        let hw = Chimera::new(4, 4, 4).into_graph();
        let small = embed_ok(&generators::complete(4), &hw, 10).stats;
        let large = embed_ok(&generators::complete(6), &hw, 10).stats;
        assert!(large.dijkstra_calls > small.dijkstra_calls);
        assert!(large.edge_relaxations > small.edge_relaxations);
    }

    #[test]
    fn disconnected_input_embeds_too() {
        let mut input = generators::path(3);
        input.add_vertex(); // isolated logical vertex
        let hw = Chimera::new(2, 2, 4).into_graph();
        embed_ok(&input, &hw, 12);
    }
}

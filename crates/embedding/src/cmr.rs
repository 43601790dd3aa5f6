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
//!
//! # Hot loop
//!
//! Nearly all of the heuristic's time is its Dijkstra searches (see
//! [`crate::dijkstra`] for the kernel's layout).  [`find_embedding`] builds
//! one [`Csr`] of the hardware per call, shared by every try.  Placing one
//! vertex fills a per-try weight table once — the overlap penalty of every
//! qubit under the current usage — and all of that vertex's searches and
//! its root selection read it, since usage only changes when the new chain
//! is committed.  The heap, the search results, the neighbour list and the
//! chain trimmer's traversal buffers are per-try scratch that each
//! placement refills, so a warm placement allocates only when a buffer
//! must grow.  None of this changes what is computed: every search, root
//! choice and trim decision is the same as with per-call buffers and
//! per-relaxation weights, so embeddings and work counters are
//! bit-identical.

use crate::dijkstra::{multi_source_dijkstra, DijkstraHeap, ShortestPaths};
use crate::types::{EmbedError, Embedding};
use chimera_graph::{Csr, Graph};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the CMR heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmrConfig {
    /// Maximum number of improvement passes after the construction pass.
    pub max_passes: usize,
    /// Number of independent randomized restarts; the best (fewest qubits)
    /// successful try wins.
    pub tries: usize,
    /// Base RNG seed; try `i` uses `seed + i`.  Tries run in index order.
    pub seed: u64,
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
/// embedding is found within the configured budget.  A
/// [`EmbedError::NoEmbeddingFound`] carries the failed call's work counters.
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
    let mut usable_mask = vec![false; hardware.vertex_count()];
    for &q in &usable {
        usable_mask[q] = true;
    }
    let csr = Csr::from_graph(hardware);

    let mut total_stats = CmrStats::default();
    let mut best: Option<Embedding> = None;
    for t in 0..config.tries.max(1) {
        let seed = config.seed.wrapping_add(t as u64);
        let (embedding, stats) = Try::new(input, &csr, &usable_mask, config, seed).run();
        total_stats.absorb(&stats);
        if let Some(e) = embedding {
            if best
                .as_ref()
                .is_none_or(|b| e.qubits_used() < b.qubits_used())
            {
                best = Some(e);
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
            stats: Box::new(total_stats),
        }),
    }
}

/// Buffers one try refills for every vertex it places.
#[derive(Default)]
struct Scratch {
    /// Cost of entering each qubit under the current usage: the overlap
    /// penalty, or infinity for an unusable qubit.
    weights: Vec<f64>,
    heap: DijkstraHeap,
    /// One search per embedded neighbour of the vertex being placed; only
    /// the first `neighbors.len()` are current.
    searches: Vec<ShortestPaths>,
    /// The embedded logical neighbours of the vertex being placed.
    neighbors: Vec<usize>,
    /// Traversal stack of the chain trimmer's connectivity check.
    stack: Vec<usize>,
    /// Visited marks of that check, indexed by chain position.
    seen: Vec<bool>,
}

/// One randomized construction + improvement attempt.
struct Try<'a> {
    input: &'a Graph,
    hardware: &'a Csr,
    usable: &'a [bool],
    config: &'a CmrConfig,
    rng: ChaCha8Rng,
    chains: Vec<Vec<usize>>,
    usage: Vec<u32>,
    stats: CmrStats,
    scratch: Scratch,
}

impl<'a> Try<'a> {
    fn new(
        input: &'a Graph,
        hardware: &'a Csr,
        usable: &'a [bool],
        config: &'a CmrConfig,
        seed: u64,
    ) -> Self {
        Self {
            input,
            hardware,
            usable,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            chains: vec![Vec::new(); input.vertex_count()],
            usage: vec![0; hardware.vertex_count()],
            stats: CmrStats {
                tries_used: 1,
                ..CmrStats::default()
            },
            scratch: Scratch::default(),
        }
    }

    /// Run the try: the best overlap-free embedding it found, if any, and
    /// its work counters.
    fn run(mut self) -> (Option<Embedding>, CmrStats) {
        let mut order: Vec<usize> = (0..self.input.vertex_count()).collect();
        order.shuffle(&mut self.rng);

        // Construction pass.
        for &x in &order {
            self.embed_vertex(x);
        }

        // Improvement passes: re-embed every vertex with the others held
        // fixed, in a freshly shuffled order each pass, until the embedding
        // is overlap-free and stops shrinking.  Because later passes can
        // temporarily re-introduce overlaps, the best overlap-free snapshot
        // seen at the end of any pass is kept.
        let mut previous_total = total_length(&self.chains);
        let mut passes = 0;
        let mut best_valid = snapshot_if_valid(&self.chains, &self.usage);
        for _ in 0..self.config.max_passes {
            passes += 1;
            order.shuffle(&mut self.rng);
            for &x in &order {
                remove_chain(&self.chains[x], &mut self.usage);
                self.chains[x].clear();
                self.embed_vertex(x);
            }
            let overlap_free = self.usage.iter().all(|&u| u <= 1);
            let total = total_length(&self.chains);
            if overlap_free {
                let better = match &best_valid {
                    None => true,
                    Some(best) => total < best.iter().map(Vec::len).sum::<usize>(),
                };
                if better {
                    best_valid = snapshot_if_valid(&self.chains, &self.usage);
                }
                if total >= previous_total {
                    break;
                }
            }
            previous_total = total;
        }
        self.stats.passes_used = self.stats.passes_used.max(passes);

        (best_valid.map(Embedding::from_chains), self.stats)
    }

    /// Grow the vertex model for logical vertex `x` given the current chains
    /// of all other vertices.  `chains[x]` is empty on entry.
    fn embed_vertex(&mut self, x: usize) {
        let Self {
            input,
            hardware,
            usable,
            config,
            rng,
            chains,
            usage,
            stats,
            scratch,
        } = self;
        let Scratch {
            weights,
            heap,
            searches,
            neighbors,
            stack,
            seen,
        } = scratch;
        let nh = usable.len();
        neighbors.clear();
        neighbors.extend(input.neighbors(x).filter(|&y| !chains[y].is_empty()));

        // Reuse the buffer of x's previous chain.
        let mut chain = std::mem::take(&mut chains[x]);
        if neighbors.is_empty() {
            // No constraints yet: take the least-used usable qubit, breaking
            // ties randomly.
            let min_usage = (0..nh)
                .filter(|&q| usable[q])
                .map(|q| usage[q])
                .min()
                .unwrap_or(0);
            let is_candidate = |&q: &usize| usable[q] && usage[q] == min_usage;
            let count = (0..nh).filter(is_candidate).count();
            let pick = rng.gen_range(0..count);
            let choice = (0..nh)
                .filter(is_candidate)
                .nth(pick)
                .expect("pick < count");
            chain.push(choice);
            add_chain(&chain, usage);
            chains[x] = chain;
            return;
        }

        // One weighted Dijkstra per embedded neighbor, rooted at that
        // neighbor's chain, all over the same weight table.
        weights.clear();
        weights.extend(usable.iter().zip(usage.iter()).map(|(&ok, &u)| {
            if ok {
                config.overlap_penalty_base.powi(u as i32)
            } else {
                f64::INFINITY
            }
        }));
        if searches.len() < neighbors.len() {
            searches.resize_with(neighbors.len(), ShortestPaths::default);
        }
        let searches = &mut searches[..neighbors.len()];
        for (&y, sp) in neighbors.iter().zip(searches.iter_mut()) {
            multi_source_dijkstra(hardware, &chains[y], weights, heap, sp);
            stats.dijkstra_calls += 1;
            stats.edge_relaxations += sp.relaxations;
        }

        // Root selection: cheapest total distance to all neighbor chains.
        let mut best_root = None;
        let mut best_cost = f64::INFINITY;
        for (q, &q_usable) in usable.iter().enumerate() {
            if !q_usable {
                continue;
            }
            let mut total = weights[q];
            let mut reachable = true;
            for sp in searches.iter() {
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
            // Hardware is disconnected relative to the neighbor chains; fall
            // back to an arbitrary usable qubit so the try can fail
            // gracefully later.
            let fallback = (0..nh).find(|&q| usable[q]).unwrap_or(0);
            chain.push(fallback);
            add_chain(&chain, usage);
            chains[x] = chain;
            return;
        };

        // Absorb the connecting paths (excluding the neighbor-chain
        // endpoints) into x's chain.  The chain is a set, so the order the
        // paths are walked in does not matter.
        chain.push(root);
        for (&y, sp) in neighbors.iter().zip(searches.iter()) {
            if let Some(path) = sp.path_back(root) {
                for q in path {
                    if !chains[y].contains(&q) && !chain.contains(&q) {
                        chain.push(q);
                    }
                }
            }
        }
        chain.sort_unstable();
        chain.dedup();
        // Trim qubits that are not needed for connectivity to any neighbor
        // chain or for keeping the chain itself connected; unions of
        // shortest paths routinely contain such redundant branches.
        trim_chain(&mut chain, hardware, neighbors, chains, stack, seen);
        add_chain(&chain, usage);
        chains[x] = chain;
    }
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

/// Remove redundant qubits from a freshly built chain (sorted, no repeats).
///
/// A qubit can be dropped when (a) the remaining chain is still connected in
/// the hardware graph and (b) every embedded logical neighbor still has at
/// least one hardware coupler into the remaining chain.  Leaves are examined
/// repeatedly until no further removal is possible.
fn trim_chain(
    chain: &mut Vec<usize>,
    hardware: &Csr,
    embedded_neighbors: &[usize],
    chains: &[Vec<usize>],
    stack: &mut Vec<usize>,
    seen: &mut Vec<bool>,
) {
    if chain.len() <= 1 {
        return;
    }
    let touches_chain = |q: usize, other: &[usize]| -> bool {
        hardware
            .neighbors(q)
            .iter()
            .any(|&n| other.binary_search(&(n as usize)).is_ok())
    };
    loop {
        let mut removed = false;
        let mut idx = 0;
        while idx < chain.len() {
            if chain.len() == 1 {
                break;
            }
            let still_covers = embedded_neighbors.iter().all(|&y| {
                chain
                    .iter()
                    .enumerate()
                    .any(|(i, &c)| i != idx && touches_chain(c, &chains[y]))
            });
            if still_covers && connected_without(chain, idx, hardware, stack, seen) {
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

/// Whether `chain` (sorted, at least two qubits) minus the qubit at
/// position `skip` is connected in `hardware`.
fn connected_without(
    chain: &[usize],
    skip: usize,
    hardware: &Csr,
    stack: &mut Vec<usize>,
    seen: &mut Vec<bool>,
) -> bool {
    seen.clear();
    seen.resize(chain.len(), false);
    seen[skip] = true;
    let start = usize::from(skip == 0);
    seen[start] = true;
    stack.clear();
    stack.push(start);
    let mut reached = 1;
    while let Some(i) = stack.pop() {
        for &u in hardware.neighbors(chain[i]) {
            if let Ok(j) = chain.binary_search(&(u as usize)) {
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    stack.push(j);
                }
            }
        }
    }
    reached == chain.len() - 1
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

//! Weighted multi-source Dijkstra search used by the CMR embedding heuristic.
//!
//! The Cai–Macready–Roy heuristic grows vertex models by repeatedly finding
//! cheapest paths from candidate root qubits to the existing chains of
//! already-embedded neighbors.  Costs live on *vertices* (a qubit already
//! used by other chains is exponentially more expensive to reuse), so the
//! search accumulates the weight of every vertex on the path, excluding the
//! source set.
//!
//! # Kernel layout
//!
//! The search is the inner loop of stage-1 embedding, so its data layout is
//! chosen for that loop:
//!
//! * **Adjacency** is a [`Csr`]: the neighbours of an expanded vertex are
//!   one contiguous slice, ascending (as [`Csr::from_graph`] builds them).
//! * **Vertex weights** are a table `weights[v]` the caller fills once and
//!   shares between the searches that see the same weights.
//! * **Heap entries** are one `u128` each: `cost.to_bits() << 64 | vertex`,
//!   in a min-heap.  Costs are sums of non-negative weights starting from
//!   `+0.0`, so they are never negative or `-0.0`, and for such `f64`s the
//!   IEEE-754 bit pattern orders exactly as the value does.  The integer
//!   order of the key is therefore the `(cost, vertex)` order: equal costs
//!   pop lowest vertex first, which is what decides between equally cheap
//!   predecessors.
//! * **Buffers** — the heap ([`DijkstraHeap`]) and the result
//!   ([`ShortestPaths`]) — belong to the caller and are refilled by every
//!   search, so a warm search allocates nothing.
//!
//! Given the same graph, sources and weights, the search pops, relaxes and
//! records predecessors in exactly the order of the closure-based search it
//! replaced (kept in this module's tests as the oracle), so costs,
//! predecessors and relaxation counts are bit-identical.

use chimera_graph::Csr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a multi-source shortest-path computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShortestPaths {
    /// Accumulated cost to reach each vertex (`f64::INFINITY` if unreachable).
    pub cost: Vec<f64>,
    /// Predecessor vertex on a cheapest path (`usize::MAX` for sources and
    /// unreachable vertices).
    pub predecessor: Vec<usize>,
    /// Number of edge relaxations performed (for resource accounting).
    pub relaxations: u64,
}

impl ShortestPaths {
    /// Walk a cheapest path backwards: `target` first, then predecessors up
    /// to and including the source it was reached from.  Returns `None` when
    /// the target is unreachable.
    pub fn path_back(&self, target: usize) -> Option<impl Iterator<Item = usize> + '_> {
        if !self.cost[target].is_finite() {
            return None;
        }
        Some(std::iter::successors(Some(target), |&v| {
            let p = self.predecessor[v];
            (p != usize::MAX).then_some(p)
        }))
    }
}

/// The reusable priority queue of [`multi_source_dijkstra`]; see the module
/// docs for its key layout.
#[derive(Debug, Clone, Default)]
pub struct DijkstraHeap(BinaryHeap<Reverse<u128>>);

/// Pack `(cost, vertex)` so that integer order is `(cost, vertex)` order.
fn key(cost: f64, vertex: usize) -> Reverse<u128> {
    Reverse((u128::from(cost.to_bits()) << 64) | vertex as u128)
}

/// Multi-source Dijkstra over `graph`, written into `out`.
///
/// * `weights[v]` is the cost of *entering* vertex `v`; source vertices cost
///   nothing.  Weights must be non-negative; a non-finite weight forbids
///   the vertex (the relaxation is still counted).
/// * Sources out of range are ignored; duplicates are searched from twice,
///   as a source list with repeats asks for.
/// * `heap` and `out` are scratch: whatever they held is replaced, and their
///   capacity is kept for the next search.
///
/// # Panics
/// Panics if `weights` is shorter than the vertex count.
pub fn multi_source_dijkstra(
    graph: &Csr,
    sources: &[usize],
    weights: &[f64],
    heap: &mut DijkstraHeap,
    out: &mut ShortestPaths,
) {
    let n = graph.vertex_count();
    assert!(weights.len() >= n, "one weight per vertex");
    let heap = &mut heap.0;
    heap.clear();
    out.cost.clear();
    out.cost.resize(n, f64::INFINITY);
    out.predecessor.clear();
    out.predecessor.resize(n, usize::MAX);
    let cost = &mut out.cost;
    let predecessor = &mut out.predecessor;
    let mut relaxations: u64 = 0;
    for &s in sources {
        if s < n {
            cost[s] = 0.0;
            heap.push(key(0.0, s));
        }
    }
    while let Some(Reverse(entry)) = heap.pop() {
        let c = f64::from_bits((entry >> 64) as u64);
        let v = entry as u64 as usize;
        if c > cost[v] {
            continue;
        }
        let neighbors = graph.neighbors(v);
        relaxations += neighbors.len() as u64;
        for &u in neighbors {
            let u = u as usize;
            let w = weights[u];
            if !w.is_finite() {
                continue;
            }
            let candidate = c + w;
            if candidate < cost[u] {
                cost[u] = candidate;
                predecessor[u] = v;
                heap.push(key(candidate, u));
            }
        }
    }
    out.relaxations = relaxations;
}

#[cfg(test)]
mod oracle {
    //! The closure-based search the kernel replaced, body unchanged: the
    //! reference the differential tests compare against.

    use super::ShortestPaths;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct HeapEntry {
        cost: f64,
        vertex: usize,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse ordering: BinaryHeap is a max-heap, we want the min cost.
            other
                .cost
                .total_cmp(&self.cost)
                .then_with(|| other.vertex.cmp(&self.vertex))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Multi-source Dijkstra over a graph given as an adjacency closure.
    pub(crate) fn closure_dijkstra<N, I, W>(
        num_vertices: usize,
        sources: &[usize],
        mut neighbors: N,
        mut vertex_weight: W,
    ) -> ShortestPaths
    where
        N: FnMut(usize) -> I,
        I: IntoIterator<Item = usize>,
        W: FnMut(usize) -> f64,
    {
        let mut cost = vec![f64::INFINITY; num_vertices];
        let mut predecessor = vec![usize::MAX; num_vertices];
        let mut heap = BinaryHeap::new();
        let mut relaxations: u64 = 0;
        for &s in sources {
            if s < num_vertices {
                cost[s] = 0.0;
                heap.push(HeapEntry {
                    cost: 0.0,
                    vertex: s,
                });
            }
        }
        while let Some(HeapEntry { cost: c, vertex: v }) = heap.pop() {
            if c > cost[v] {
                continue;
            }
            for u in neighbors(v) {
                relaxations += 1;
                let w = vertex_weight(u);
                if !w.is_finite() {
                    continue;
                }
                let candidate = c + w;
                if candidate < cost[u] {
                    cost[u] = candidate;
                    predecessor[u] = v;
                    heap.push(HeapEntry {
                        cost: candidate,
                        vertex: u,
                    });
                }
            }
        }
        ShortestPaths {
            cost,
            predecessor,
            relaxations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::closure_dijkstra;
    use super::*;
    use chimera_graph::{generators, Chimera, FaultModel, Graph};
    use proptest::prelude::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn search(graph: &Graph, sources: &[usize], weights: &[f64]) -> ShortestPaths {
        let mut out = ShortestPaths::default();
        multi_source_dijkstra(
            &Csr::from_graph(graph),
            sources,
            weights,
            &mut DijkstraHeap::default(),
            &mut out,
        );
        out
    }

    fn run(graph: &Graph, sources: &[usize]) -> ShortestPaths {
        search(graph, sources, &vec![1.0; graph.vertex_count()])
    }

    fn back(sp: &ShortestPaths, target: usize) -> Option<Vec<usize>> {
        sp.path_back(target).map(Iterator::collect)
    }

    #[test]
    fn single_source_unit_weights_match_bfs() {
        let g = generators::path(6);
        let sp = run(&g, &[0]);
        for (v, &c) in sp.cost.iter().enumerate() {
            assert_eq!(c, v as f64);
        }
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = generators::path(7);
        let sp = run(&g, &[0, 6]);
        assert_eq!(sp.cost[3], 3.0);
        assert_eq!(sp.cost[5], 1.0);
        assert_eq!(sp.cost[6], 0.0);
    }

    #[test]
    fn path_reconstruction() {
        let g = generators::path(5);
        let sp = run(&g, &[0]);
        assert_eq!(back(&sp, 4).unwrap(), vec![4, 3, 2, 1, 0]);
        assert_eq!(back(&sp, 0).unwrap(), vec![0]);
    }

    #[test]
    fn unreachable_targets_return_none() {
        let mut g = generators::path(3);
        g.add_vertex();
        let sp = run(&g, &[0]);
        assert!(sp.path_back(3).is_none());
        assert!(!sp.cost[3].is_finite());
    }

    #[test]
    fn vertex_weights_steer_the_path() {
        // Square 0-1-2-3-0; make vertex 1 very expensive so the path 0 -> 2
        // goes through 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let sp = search(&g, &[0], &[1.0, 100.0, 1.0, 1.0]);
        assert_eq!(back(&sp, 2).unwrap(), vec![2, 3, 0]);
        assert_eq!(sp.cost[2], 2.0);
    }

    #[test]
    fn forbidden_vertices_block_paths() {
        let g = generators::path(4);
        let sp = search(&g, &[0], &[1.0, 1.0, f64::INFINITY, 1.0]);
        assert!(sp.path_back(3).is_none());
        assert!(sp.path_back(1).is_some());
    }

    #[test]
    fn equal_costs_pop_the_lower_vertex_first() {
        // 0 reaches 3 through 1 or 2 at equal cost; 1 pops before 2, so it
        // relaxes 3 first and keeps it (2's equal candidate is not better).
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sp = search(&g, &[0], &[1.0; 4]);
        assert_eq!(sp.predecessor[3], 1);
    }

    #[test]
    fn relaxation_counter_grows_with_graph_size() {
        let small = run(&generators::complete(5), &[0]).relaxations;
        let large = run(&generators::complete(20), &[0]).relaxations;
        assert!(large > small);
        assert!(small > 0);
    }

    #[test]
    fn out_of_range_sources_are_ignored() {
        let g = generators::path(3);
        let sp = run(&g, &[99]);
        assert!(sp.cost.iter().all(|c| !c.is_finite()));
    }

    #[test]
    fn reused_buffers_are_refilled() {
        let big = Chimera::new(2, 2, 4).into_graph();
        let small = generators::path(3);
        let mut heap = DijkstraHeap::default();
        let mut out = ShortestPaths::default();
        multi_source_dijkstra(
            &Csr::from_graph(&big),
            &[0],
            &vec![1.0; big.vertex_count()],
            &mut heap,
            &mut out,
        );
        multi_source_dijkstra(
            &Csr::from_graph(&small),
            &[2],
            &[1.0; 3],
            &mut heap,
            &mut out,
        );
        assert_eq!(out, run(&small, &[2]));
    }

    /// Weights drawn from a small set so that ties are common: unit and
    /// fractional weights, zero, powers of the CMR overlap base 64, and
    /// forbidden vertices.
    fn tie_heavy_weights(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        const TABLE: [f64; 9] = [
            1.0,
            1.0,
            64.0,
            4096.0,
            262_144.0,
            0.5,
            0.0,
            2.0,
            f64::INFINITY,
        ];
        (0..n)
            .map(|_| TABLE[rng.gen_range(0..TABLE.len())])
            .collect()
    }

    fn hardware_for(kind: usize, n: usize, p: f64, seed: u64) -> Graph {
        match kind {
            0 => generators::gnp(n, p, seed),
            1 => {
                let c = Chimera::new(4, 4, 4);
                FaultModel::exact_dead_qubits(c.graph(), n % 16, seed).apply(c.graph())
            }
            _ => {
                let c = Chimera::new(12, 12, 4);
                FaultModel::exact_dead_qubits(c.graph(), n, seed).apply(c.graph())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The CSR kernel and the closure oracle agree bit for bit on costs,
        /// predecessors and relaxation counts: random and faulted Chimera
        /// graphs, tie-heavy and forbidden weights, and empty, duplicate and
        /// out-of-range sources.  The kernel runs with buffers left over
        /// from an unrelated search first, as CMR's per-try scratch does.
        #[test]
        fn kernel_matches_the_closure_oracle(
            kind in 0usize..3,
            n in 1usize..48,
            p in 0.0f64..0.6,
            seed in 0u64..1_000_000,
            picks in collection::vec(0usize..1_200, 0..5),
            duplicate in 0u8..2,
        ) {
            let graph = hardware_for(kind, n, p, seed);
            let nv = graph.vertex_count();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let weights = tie_heavy_weights(nv, &mut rng);
            // Indices up to 3 past the end exercise out-of-range sources.
            let mut sources: Vec<usize> = picks.iter().map(|&i| i % (nv + 3)).collect();
            if duplicate == 1 {
                if let Some(&first) = sources.first() {
                    sources.push(first);
                }
            }

            let expected = closure_dijkstra(
                nv,
                &sources,
                |v| graph.neighbors(v).collect::<Vec<_>>(),
                |v| weights[v],
            );
            let csr = Csr::from_graph(&graph);
            let mut heap = DijkstraHeap::default();
            let mut out = ShortestPaths::default();
            let other_weights = tie_heavy_weights(nv, &mut rng);
            multi_source_dijkstra(&csr, &[nv / 2], &other_weights, &mut heap, &mut out);
            multi_source_dijkstra(&csr, &sources, &weights, &mut heap, &mut out);

            prop_assert_eq!(out.relaxations, expected.relaxations);
            prop_assert_eq!(&out.predecessor, &expected.predecessor);
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&out.cost), bits(&expected.cost));
        }
    }
}

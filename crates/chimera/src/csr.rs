//! Compressed sparse row (CSR) adjacency representation.
//!
//! The embedding heuristic and the annealer iterate over neighbor lists in
//! tight inner loops; CSR keeps those lists contiguous in memory, which is
//! the cache-friendly layout recommended for this kind of traversal-heavy
//! workload.

use crate::graph::Graph;

/// Immutable CSR adjacency structure built from a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Offsets into `targets`; `offsets[v]..offsets[v+1]` are `v`'s neighbors.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, each sorted ascending.
    targets: Vec<u32>,
}

impl Csr {
    /// Build a CSR structure from a graph.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX` vertices, which is far
    /// beyond any hardware graph considered here.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.vertex_count();
        assert!(
            n <= u32::MAX as usize,
            "graph too large for CSR u32 indices"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u32);
        for v in 0..n {
            for u in graph.neighbors(v) {
                targets.push(u as u32);
            }
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v` as a slice.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let start = self.offsets[v] as usize;
        let end = self.offsets[v + 1] as usize;
        &self.targets[start..end]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Whether edge `(u, v)` exists (binary search over `u`'s neighbor list).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Total bytes of adjacency payload (useful for memory accounting in the
    /// performance models).
    pub fn payload_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
    }
}

impl From<&Graph> for Csr {
    fn from(graph: &Graph) -> Self {
        Csr::from_graph(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn csr_matches_graph_structure() {
        let g = cycle(6);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.vertex_count(), 6);
        assert_eq!(csr.edge_count(), 6);
        for v in 0..6 {
            assert_eq!(csr.degree(v), 2);
            let from_graph: Vec<u32> = g.neighbors(v).map(|x| x as u32).collect();
            assert_eq!(csr.neighbors(v), from_graph.as_slice());
        }
    }

    #[test]
    fn csr_has_edge_agrees_with_graph() {
        let g = cycle(5);
        let csr = Csr::from_graph(&g);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = Graph::new(0);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.vertex_count(), 0);
        assert_eq!(csr.edge_count(), 0);

        let g = Graph::new(3);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.vertex_count(), 3);
        assert_eq!(csr.degree(1), 0);
        assert!(csr.neighbors(1).is_empty());
    }

    #[test]
    fn payload_bytes_is_positive_for_nonempty() {
        let csr = Csr::from_graph(&cycle(4));
        assert!(csr.payload_bytes() > 0);
    }

    #[test]
    fn from_reference_conversion() {
        let g = cycle(3);
        let csr: Csr = (&g).into();
        assert_eq!(csr.vertex_count(), 3);
    }
}

//! A simple undirected graph with adjacency-set storage.
//!
//! This is the working representation used by the problem generators, the
//! minor-embedding algorithms and the hardware-topology code.  Vertices are
//! dense `usize` indices; edges are unordered pairs.  For hot inner loops a
//! graph can be converted to a compressed sparse row form ([`crate::csr`]).

use std::collections::BTreeSet;

/// An undirected simple graph over vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    /// Adjacency sets, one per vertex, kept sorted for determinism.
    adjacency: Vec<BTreeSet<usize>>,
    /// Number of edges currently present.
    edge_count: usize,
}

impl Graph {
    /// Create a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Create a graph from an explicit edge list over vertices `0..n`.
    ///
    /// Out-of-range endpoints are ignored; duplicate edges and self loops are
    /// dropped.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            if u < n && v < n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Add a new isolated vertex and return its index.
    pub fn add_vertex(&mut self) -> usize {
        self.adjacency.push(BTreeSet::new());
        self.adjacency.len() - 1
    }

    /// Add an undirected edge.  Self loops are ignored.  Returns `true` if
    /// the edge was newly inserted.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(
            u < self.vertex_count() && v < self.vertex_count(),
            "edge ({u}, {v}) out of range for {} vertices",
            self.vertex_count()
        );
        if u == v {
            return false;
        }
        let inserted = self.adjacency[u].insert(v);
        if inserted {
            self.adjacency[v].insert(u);
            self.edge_count += 1;
        }
        inserted
    }

    /// Remove an edge if present.  Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.vertex_count() || v >= self.vertex_count() {
            return false;
        }
        let removed = self.adjacency[u].remove(&v);
        if removed {
            self.adjacency[v].remove(&u);
            self.edge_count -= 1;
        }
        removed
    }

    /// Remove all edges incident to a vertex (the vertex index remains valid
    /// but isolated).  Used to model hard faults in hardware graphs.
    pub fn isolate_vertex(&mut self, v: usize) {
        if v >= self.vertex_count() {
            return;
        }
        let neighbors: Vec<usize> = self.adjacency[v].iter().copied().collect();
        for u in neighbors {
            self.remove_edge(u, v);
        }
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.vertex_count() && self.adjacency[u].contains(&v)
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Iterate over the neighbors of a vertex in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[v].iter().copied()
    }

    /// Iterate over all edges as `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = usize> {
        0..self.vertex_count()
    }

    /// Vertices with at least one incident edge.
    pub fn non_isolated_vertices(&self) -> impl Iterator<Item = usize> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .filter(|(_, nbrs)| !nbrs.is_empty())
            .map(|(v, _)| v)
    }

    /// Maximum vertex degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Average vertex degree (0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.vertex_count() as f64
        }
    }

    /// The subgraph induced by `keep`, together with the mapping from new
    /// vertex indices to original indices.
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        let mut index_of = vec![usize::MAX; self.vertex_count()];
        let mut original = Vec::with_capacity(keep.len());
        for &old in keep {
            if old < self.vertex_count() && index_of[old] == usize::MAX {
                index_of[old] = original.len();
                original.push(old);
            }
        }
        let mut sub = Graph::new(original.len());
        for (new_u, &old_u) in original.iter().enumerate() {
            for old_v in self.neighbors(old_u) {
                let new_v = index_of.get(old_v).copied().unwrap_or(usize::MAX);
                if new_v != usize::MAX && new_u < new_v {
                    sub.add_edge(new_u, new_v);
                }
            }
        }
        (sub, original)
    }

    /// Complement graph (edges become non-edges and vice versa).
    pub fn complement(&self) -> Graph {
        let n = self.vertex_count();
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge not counted twice");
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = Graph::new(2);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path_graph(4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_is_sorted_and_unique() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3), (1, 0)]);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn isolate_vertex_removes_incident_edges() {
        let mut g = path_graph(4);
        g.isolate_vertex(1);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(2, 3));
        let non_isolated: Vec<usize> = g.non_isolated_vertices().collect();
        assert_eq!(non_isolated, vec![2, 3]);
    }

    #[test]
    fn induced_subgraph_preserves_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let (sub, original) = g.induced_subgraph(&[0, 1, 4]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(original, vec![0, 1, 4]);
        assert_eq!(sub.edge_count(), 2); // (0,1) and (0,4)
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(0, 2)); // 4 renamed to index 2
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_out_of_range() {
        let g = path_graph(3);
        let (sub, original) = g.induced_subgraph(&[1, 1, 99, 2]);
        assert_eq!(original, vec![1, 2]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn complement_of_path() {
        let g = path_graph(3);
        let c = g.complement();
        assert_eq!(c.edge_count(), 1);
        assert!(c.has_edge(0, 2));
    }

    #[test]
    fn from_edges_ignores_out_of_range() {
        let g = Graph::from_edges(2, &[(0, 1), (5, 1)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut g = Graph::new(1);
        let v = g.add_vertex();
        assert_eq!(v, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn clone_and_eq() {
        let g = path_graph(4);
        let h = g.clone();
        assert_eq!(g, h);
        let mut k = h.clone();
        k.add_edge(0, 3);
        assert_ne!(g, k);
    }
}

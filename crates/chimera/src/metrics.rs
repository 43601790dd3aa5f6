//! Graph metrics: connectivity, shortest paths, components and summary
//! statistics used by the embedding algorithms and the reporting layer.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Distance value representing "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first shortest-path distances (in hops) from `source` to every
/// vertex.  Unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(graph: &Graph, source: usize) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.vertex_count()];
    if source >= graph.vertex_count() {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if dist[u] == UNREACHABLE {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Connected components as a label per vertex (labels are `0..k` in order of
/// first discovery) plus the number of components.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.vertex_count();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for u in graph.neighbors(v) {
                if label[u] == usize::MAX {
                    label[u] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// Whether the graph is connected (vacuously true for fewer than 2 vertices).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.vertex_count() < 2 {
        return true;
    }
    connected_components(graph).1 == 1
}

/// Whether the subgraph induced by `vertices` is connected.  Empty sets are
/// considered disconnected (no tree can be formed), singletons connected.
pub fn is_connected_subset(graph: &Graph, vertices: &[usize]) -> bool {
    if vertices.is_empty() {
        return false;
    }
    if vertices.len() == 1 {
        return vertices[0] < graph.vertex_count();
    }
    let member: std::collections::BTreeSet<usize> = vertices.iter().copied().collect();
    if member.iter().any(|&v| v >= graph.vertex_count()) {
        return false;
    }
    let start = *member.iter().next().expect("non-empty");
    let mut seen = std::collections::BTreeSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if member.contains(&u) && seen.insert(u) {
                queue.push_back(u);
            }
        }
    }
    seen.len() == member.len()
}

/// Graph eccentricity-based diameter (longest shortest path over the largest
/// component).  Returns 0 for graphs with no edges.
pub fn diameter(graph: &Graph) -> u32 {
    let mut best = 0;
    for v in graph.non_isolated_vertices() {
        let dist = bfs_distances(graph, v);
        let ecc = dist
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0);
        best = best.max(ecc);
    }
    best
}

/// Summary statistics of a graph, used in reports and figure legends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub average_degree: f64,
    /// Edge density relative to the complete graph.
    pub density: f64,
    /// Number of connected components.
    pub components: usize,
}

/// Compute [`GraphStats`] for a graph.
pub fn stats(graph: &Graph) -> GraphStats {
    let n = graph.vertex_count();
    let degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    let max_pairs = if n >= 2 { n * (n - 1) / 2 } else { 0 };
    GraphStats {
        vertices: n,
        edges: graph.edge_count(),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        average_degree: graph.average_degree(),
        density: if max_pairs == 0 {
            0.0
        } else {
            graph.edge_count() as f64 / max_pairs as f64
        },
        components: connected_components(graph).1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_and_out_of_range() {
        let mut g = generators::path(3);
        g.add_vertex(); // isolated vertex 3
        let d = bfs_distances(&g, 0);
        assert_eq!(d[3], UNREACHABLE);
        let d = bfs_distances(&g, 99);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn components_of_disjoint_paths() {
        let mut g = generators::path(3);
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, b);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[a]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connectivity_of_standard_graphs() {
        assert!(is_connected(&generators::complete(6)));
        assert!(is_connected(&generators::cycle(6)));
        assert!(is_connected(&generators::grid(3, 3)));
        assert!(is_connected(&Graph::new(1)));
        assert!(is_connected(&Graph::new(0)));
        assert!(!is_connected(&Graph::new(2)));
    }

    #[test]
    fn connected_subset_checks() {
        let g = generators::path(6);
        assert!(is_connected_subset(&g, &[1, 2, 3]));
        assert!(!is_connected_subset(&g, &[0, 2]));
        assert!(is_connected_subset(&g, &[4]));
        assert!(!is_connected_subset(&g, &[]));
        assert!(!is_connected_subset(&g, &[99]));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(5)), 4);
        assert_eq!(diameter(&generators::cycle(6)), 3);
        assert_eq!(diameter(&generators::complete(7)), 1);
        assert_eq!(diameter(&Graph::new(4)), 0);
    }

    #[test]
    fn stats_of_complete_graph() {
        let s = stats(&generators::complete(8));
        assert_eq!(s.vertices, 8);
        assert_eq!(s.edges, 28);
        assert_eq!(s.min_degree, 7);
        assert_eq!(s.max_degree, 7);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = stats(&Graph::new(0));
        assert_eq!(s.vertices, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.components, 0);
    }

    #[test]
    fn chimera_diameter_grows_with_lattice() {
        use crate::chimera::Chimera;
        let small = diameter(Chimera::new(2, 2, 4).graph());
        let large = diameter(Chimera::new(4, 4, 4).graph());
        assert!(large > small);
    }
}

//! MAX-CUT → QUBO reduction.
//!
//! For a graph with edge weights `w_{uv}`, maximizing the cut is equivalent
//! to minimizing `Σ_{(u,v)∈E} w_{uv} (2 x_u x_v − x_u − x_v)`, since an edge
//! contributes `−w` exactly when its endpoints take different values.

use crate::qubo::Qubo;
use chimera_graph::Graph;

/// A MAX-CUT instance: a graph plus per-edge weights.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCut {
    graph: Graph,
    weights: Vec<((usize, usize), f64)>,
}

impl MaxCut {
    /// Unweighted MAX-CUT on `graph` (every edge has weight 1).
    pub fn unweighted(graph: Graph) -> Self {
        let weights = graph.edges().map(|e| (e, 1.0)).collect();
        Self { graph, weights }
    }

    /// Weighted MAX-CUT; missing edges default to weight 1.
    pub fn weighted(graph: Graph, weights: &[((usize, usize), f64)]) -> Self {
        let mut all: Vec<((usize, usize), f64)> = graph.edges().map(|e| (e, 1.0)).collect();
        for &((u, v), w) in weights {
            let key = if u < v { (u, v) } else { (v, u) };
            if let Some(entry) = all.iter_mut().find(|(e, _)| *e == key) {
                entry.1 = w;
            }
        }
        Self {
            graph,
            weights: all,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w).sum()
    }

    /// Build the QUBO whose minimizer maximizes the cut.
    pub fn to_qubo(&self) -> Qubo {
        let mut q = Qubo::new(self.graph.vertex_count());
        for &((u, v), w) in &self.weights {
            // 2 w x_u x_v  - w x_u - w x_v  (off-diagonal entries are counted
            // twice by the quadratic form, so set Q_uv = w).
            q.add(u, v, w);
            q.add(u, u, -w);
            q.add(v, v, -w);
        }
        q
    }

    /// Cut value of a partition described by a binary assignment.
    pub fn cut_value(&self, assignment: &[bool]) -> f64 {
        self.weights
            .iter()
            .filter(|&&((u, v), _)| assignment[u] != assignment[v])
            .map(|(_, w)| w)
            .sum()
    }

    /// Decode a QUBO assignment into the two sides of the cut.
    pub fn decode(&self, assignment: &[bool]) -> (Vec<usize>, Vec<usize>) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (v, &in_right) in assignment.iter().enumerate() {
            if in_right {
                right.push(v);
            } else {
                left.push(v);
            }
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::solve_qubo_exact;
    use chimera_graph::generators;

    #[test]
    fn qubo_energy_tracks_cut_value() {
        // Minimizing the QUBO is equivalent to maximizing the cut:
        // energy = -cut for unweighted instances.
        let mc = MaxCut::unweighted(generators::cycle(5));
        let q = mc.to_qubo();
        for mask in 0..(1u32 << 5) {
            let bits: Vec<bool> = (0..5).map(|i| (mask >> i) & 1 == 1).collect();
            assert!(
                (q.energy(&bits) + mc.cut_value(&bits)).abs() < 1e-9,
                "bits {bits:?}"
            );
        }
    }

    #[test]
    fn exact_solution_of_even_cycle_is_full_cut() {
        let mc = MaxCut::unweighted(generators::cycle(6));
        let sol = solve_qubo_exact(&mc.to_qubo());
        assert!((sol.energy + 6.0).abs() < 1e-9, "cut of C6 is 6");
        assert_eq!(mc.cut_value(&sol.assignment), 6.0);
    }

    #[test]
    fn exact_solution_of_odd_cycle_loses_one_edge() {
        let mc = MaxCut::unweighted(generators::cycle(5));
        let sol = solve_qubo_exact(&mc.to_qubo());
        assert!((sol.energy + 4.0).abs() < 1e-9);
    }

    #[test]
    fn complete_bipartite_structure_is_recovered() {
        // K4's max cut is 4 (2+2 split).
        let mc = MaxCut::unweighted(generators::complete(4));
        let sol = solve_qubo_exact(&mc.to_qubo());
        assert!((sol.energy + 4.0).abs() < 1e-9);
        let (left, right) = mc.decode(&sol.assignment);
        assert_eq!(left.len(), 2);
        assert_eq!(right.len(), 2);
    }

    #[test]
    fn weighted_edges_bias_the_cut() {
        // Triangle with one heavy edge: the optimum must cut the heavy edge.
        let g = generators::cycle(3);
        let mc = MaxCut::weighted(g, &[((0, 1), 10.0)]);
        let sol = solve_qubo_exact(&mc.to_qubo());
        let cut = mc.cut_value(&sol.assignment);
        // A triangle can cut at most two edges; the optimum takes the heavy
        // edge plus one unit edge.
        assert!((cut - 11.0).abs() < 1e-9, "heavy edge plus one unit edge");
        assert!(sol.assignment[0] != sol.assignment[1]);
        assert!((mc.total_weight() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_yields_trivial_instance() {
        let mc = MaxCut::unweighted(Graph::new(3));
        let q = mc.to_qubo();
        assert_eq!(q.interaction_count(), 0);
        assert_eq!(mc.cut_value(&[true, false, true]), 0.0);
    }
}

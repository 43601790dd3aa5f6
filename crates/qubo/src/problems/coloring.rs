//! Graph k-coloring → QUBO reduction.
//!
//! One-hot encoding: variable `x_{v,c}` means "vertex `v` has color `c`".
//! The QUBO charges a penalty `P (1 - Σ_c x_{v,c})²` per vertex (exactly one
//! color) and `P x_{u,c} x_{v,c}` per edge and color (no monochromatic edge).
//! A proper k-coloring exists iff the minimum equals `-P·|V|` after dropping
//! constants, i.e. iff the decoded assignment has zero violations.

use crate::qubo::Qubo;
use chimera_graph::Graph;

/// A graph k-coloring instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphColoring {
    graph: Graph,
    colors: usize,
    penalty: f64,
}

impl GraphColoring {
    /// Create a k-coloring instance with unit penalty weight.
    ///
    /// # Panics
    /// Panics if `colors == 0`.
    pub fn new(graph: Graph, colors: usize) -> Self {
        assert!(colors > 0, "at least one color is required");
        Self {
            graph,
            colors,
            penalty: 1.0,
        }
    }

    /// Number of colors `k`.
    pub fn colors(&self) -> usize {
        self.colors
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of QUBO variables (`|V| × k`).
    pub fn num_variables(&self) -> usize {
        self.graph.vertex_count() * self.colors
    }

    /// Index of the variable for (vertex, color).
    pub fn variable(&self, vertex: usize, color: usize) -> usize {
        vertex * self.colors + color
    }

    /// Build the QUBO.  The constant `P·|V|` from the one-hot penalty is
    /// dropped; [`Self::offset`] returns it.
    pub fn to_qubo(&self) -> Qubo {
        let mut q = Qubo::new(self.num_variables());
        let p = self.penalty;
        // One-hot: P (1 - Σ_c x)² = P - 2P Σ x + P Σ x² + 2P Σ_{c<c'} x x'.
        for v in self.graph.vertices() {
            for c in 0..self.colors {
                let i = self.variable(v, c);
                q.add(i, i, -p); // -2P x + P x² = -P x for binary x
                for c2 in (c + 1)..self.colors {
                    let j = self.variable(v, c2);
                    q.add(i, j, p); // counted twice -> 2P x x'
                }
            }
        }
        // Edge constraint: P x_{u,c} x_{v,c}.
        for (u, v) in self.graph.edges() {
            for c in 0..self.colors {
                let i = self.variable(u, c);
                let j = self.variable(v, c);
                q.add(i, j, p / 2.0); // counted twice -> P x x
            }
        }
        q
    }

    /// Constant offset dropped by [`Self::to_qubo`].
    pub fn offset(&self) -> f64 {
        self.penalty * self.graph.vertex_count() as f64
    }

    /// Decode an assignment into a color per vertex (`None` when the one-hot
    /// constraint is violated for that vertex).
    pub fn decode(&self, bits: &[bool]) -> Vec<Option<usize>> {
        self.graph
            .vertices()
            .map(|v| {
                let chosen: Vec<usize> = (0..self.colors)
                    .filter(|&c| bits[self.variable(v, c)])
                    .collect();
                if chosen.len() == 1 {
                    Some(chosen[0])
                } else {
                    None
                }
            })
            .collect()
    }

    /// Whether an assignment encodes a proper coloring.
    pub fn is_proper(&self, bits: &[bool]) -> bool {
        let colors = self.decode(bits);
        if colors.iter().any(Option::is_none) {
            return false;
        }
        self.graph.edges().all(|(u, v)| colors[u] != colors[v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::solve_qubo_exact;
    use chimera_graph::generators;

    #[test]
    fn triangle_is_three_colorable_but_not_two() {
        let three = GraphColoring::new(generators::cycle(3), 3);
        let sol = solve_qubo_exact(&three.to_qubo());
        assert!(three.is_proper(&sol.assignment));
        assert!((sol.energy + three.offset()).abs() < 1e-9);

        let two = GraphColoring::new(generators::cycle(3), 2);
        let sol = solve_qubo_exact(&two.to_qubo());
        assert!(!two.is_proper(&sol.assignment));
        // The minimum is strictly above the fully satisfied value.
        assert!(sol.energy + two.offset() > 0.5);
    }

    #[test]
    fn even_cycle_is_two_colorable() {
        let inst = GraphColoring::new(generators::cycle(6), 2);
        let sol = solve_qubo_exact(&inst.to_qubo());
        assert!(inst.is_proper(&sol.assignment));
        let colors: Vec<usize> = inst.decode(&sol.assignment).into_iter().flatten().collect();
        assert_eq!(colors.len(), 6);
        for (u, v) in inst.graph().edges() {
            assert_ne!(colors[u], colors[v]);
        }
    }

    #[test]
    fn path_coloring_decodes_cleanly() {
        let inst = GraphColoring::new(generators::path(4), 2);
        let sol = solve_qubo_exact(&inst.to_qubo());
        assert!(inst.is_proper(&sol.assignment));
    }

    #[test]
    fn variable_indexing_is_dense_and_unique() {
        let inst = GraphColoring::new(generators::complete(3), 3);
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..3 {
            for c in 0..3 {
                assert!(seen.insert(inst.variable(v, c)));
            }
        }
        assert_eq!(seen.len(), inst.num_variables());
        assert_eq!(*seen.iter().max().unwrap(), inst.num_variables() - 1);
    }

    #[test]
    fn decode_flags_violated_one_hot() {
        let inst = GraphColoring::new(generators::path(2), 2);
        // Vertex 0 gets two colors, vertex 1 gets none.
        let bits = vec![true, true, false, false];
        let decoded = inst.decode(&bits);
        assert_eq!(decoded, vec![None, None]);
        assert!(!inst.is_proper(&bits));
    }

    #[test]
    #[should_panic(expected = "at least one color")]
    fn zero_colors_rejected() {
        GraphColoring::new(generators::path(2), 0);
    }
}

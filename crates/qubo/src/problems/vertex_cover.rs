//! Minimum vertex cover → QUBO reduction (the paper's "MIN-COVER").
//!
//! Minimize `Σ x_v` subject to every edge having at least one covered
//! endpoint.  The constraint is enforced with a penalty
//! `P (1 - x_u)(1 - x_v)` per edge; any `P > 1` makes violating a constraint
//! more expensive than adding a vertex, so minima of the QUBO are exactly the
//! minimum vertex covers.

use crate::qubo::Qubo;
use chimera_graph::Graph;

/// A minimum-vertex-cover instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexCover {
    graph: Graph,
    penalty: f64,
}

impl VertexCover {
    /// Create an instance with the default penalty weight (2.0).
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            penalty: 2.0,
        }
    }

    /// Override the constraint penalty weight.
    ///
    /// # Panics
    /// Panics if the penalty is not greater than 1 (the reduction is only
    /// exact for `P > 1`).
    pub fn with_penalty(mut self, penalty: f64) -> Self {
        assert!(
            penalty > 1.0,
            "penalty must exceed the per-vertex cost of 1"
        );
        self.penalty = penalty;
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Build the QUBO: `Σ_v x_v + P Σ_{(u,v)∈E} (1 - x_u)(1 - x_v)`,
    /// dropping the constant `P·|E|`.
    pub fn to_qubo(&self) -> Qubo {
        let n = self.graph.vertex_count();
        let mut q = Qubo::new(n);
        for v in 0..n {
            q.add(v, v, 1.0);
        }
        for (u, v) in self.graph.edges() {
            // (1-xu)(1-xv) = 1 - xu - xv + xu xv.
            q.add(u, u, -self.penalty);
            q.add(v, v, -self.penalty);
            q.add(u, v, self.penalty / 2.0); // off-diagonals count twice
        }
        q
    }

    /// Constant offset dropped by [`Self::to_qubo`].
    pub fn offset(&self) -> f64 {
        self.penalty * self.graph.edge_count() as f64
    }

    /// Whether `bits` describes a valid vertex cover.
    pub fn is_cover(&self, bits: &[bool]) -> bool {
        self.graph.edges().all(|(u, v)| bits[u] || bits[v])
    }

    /// Size of the selected vertex set.
    pub fn cover_size(&self, bits: &[bool]) -> usize {
        bits.iter().filter(|&&b| b).count()
    }

    /// Decode an assignment into the list of covered vertices.
    pub fn decode(&self, bits: &[bool]) -> Vec<usize> {
        bits.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(v, _)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::solve_qubo_exact;
    use chimera_graph::generators;

    #[test]
    fn energy_equals_size_plus_penalty_violations() {
        let vc = VertexCover::new(generators::cycle(4));
        let q = vc.to_qubo();
        for mask in 0..(1u32 << 4) {
            let bits: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 == 1).collect();
            let violations = vc
                .graph()
                .edges()
                .filter(|&(u, v)| !bits[u] && !bits[v])
                .count() as f64;
            let expected = vc.cover_size(&bits) as f64 + 2.0 * violations;
            let got = q.energy(&bits) + vc.offset();
            assert!((got - expected).abs() < 1e-9, "bits {bits:?}");
        }
    }

    #[test]
    fn star_graph_optimal_cover_is_the_hub() {
        let vc = VertexCover::new(generators::star(6));
        let sol = solve_qubo_exact(&vc.to_qubo());
        assert!(vc.is_cover(&sol.assignment));
        assert_eq!(vc.cover_size(&sol.assignment), 1);
        assert_eq!(vc.decode(&sol.assignment), vec![0]);
    }

    #[test]
    fn even_cycle_cover_is_half_the_vertices() {
        let vc = VertexCover::new(generators::cycle(6));
        let sol = solve_qubo_exact(&vc.to_qubo());
        assert!(vc.is_cover(&sol.assignment));
        assert_eq!(vc.cover_size(&sol.assignment), 3);
    }

    #[test]
    fn complete_graph_needs_all_but_one() {
        let vc = VertexCover::new(generators::complete(5));
        let sol = solve_qubo_exact(&vc.to_qubo());
        assert!(vc.is_cover(&sol.assignment));
        assert_eq!(vc.cover_size(&sol.assignment), 4);
    }

    #[test]
    fn larger_penalty_does_not_change_optimum() {
        let g = generators::gnp(8, 0.4, 13);
        let base = VertexCover::new(g.clone());
        let strict = VertexCover::new(g).with_penalty(10.0);
        let a = solve_qubo_exact(&base.to_qubo());
        let b = solve_qubo_exact(&strict.to_qubo());
        assert!(base.is_cover(&a.assignment));
        assert!(strict.is_cover(&b.assignment));
        assert_eq!(
            base.cover_size(&a.assignment),
            strict.cover_size(&b.assignment)
        );
    }

    #[test]
    #[should_panic(expected = "penalty")]
    fn weak_penalty_is_rejected() {
        VertexCover::new(generators::cycle(3)).with_penalty(0.5);
    }

    #[test]
    fn empty_graph_needs_no_cover() {
        let vc = VertexCover::new(Graph::new(4));
        let sol = solve_qubo_exact(&vc.to_qubo());
        assert_eq!(vc.cover_size(&sol.assignment), 0);
        assert!(vc.is_cover(&sol.assignment));
    }
}

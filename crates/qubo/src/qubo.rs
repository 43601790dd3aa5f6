//! Quadratic unconstrained binary optimization (QUBO) problems.
//!
//! A QUBO instance is `argmin_b bᵀ Q b` over binary vectors `b ∈ {0,1}ⁿ`
//! with a symmetric real matrix `Q` (the paper's Eq. 3).  The matrix is
//! stored densely; problem sizes in this reproduction are bounded by the
//! logical capacity of the Chimera hardware (≈100 vertices for complete
//! inputs), so a dense representation is simplest and cache friendly.

use chimera_graph::Graph;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A dense symmetric QUBO matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Qubo {
    n: usize,
    /// Row-major `n × n` matrix, kept symmetric by the mutators.
    q: Vec<f64>,
}

impl Qubo {
    /// Create an all-zero QUBO over `n` binary variables.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            q: vec![0.0; n * n],
        }
    }

    /// Build a QUBO from a full matrix given as rows.
    ///
    /// The matrix is symmetrized as `(Q + Qᵀ)/2`, which leaves the quadratic
    /// form unchanged.
    ///
    /// # Panics
    /// Panics if the rows do not form a square matrix.
    pub fn from_matrix(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
        }
        let mut qubo = Self::new(n);
        for (i, row) in rows.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                qubo.q[i * n + j] = (value + rows[j][i]) / 2.0;
            }
        }
        qubo
    }

    /// Number of binary variables.
    pub fn num_variables(&self) -> usize {
        self.n
    }

    /// Matrix entry `Q[i][j]`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.q[i * self.n + j]
    }

    /// Set `Q[i][j]` (and `Q[j][i]`, keeping the matrix symmetric).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.q[i * self.n + j] = value;
        self.q[j * self.n + i] = value;
    }

    /// Add `delta` to `Q[i][j]` (and `Q[j][i]` when `i != j`).
    pub fn add(&mut self, i: usize, j: usize, delta: f64) {
        self.q[i * self.n + j] += delta;
        if i != j {
            self.q[j * self.n + i] += delta;
        }
    }

    /// Linear (diagonal) coefficient of variable `i`.
    pub fn diagonal(&self, i: usize) -> f64 {
        self.get(i, i)
    }

    /// Evaluate the quadratic form `bᵀ Q b` for a binary assignment.
    ///
    /// # Panics
    /// Panics if `bits.len() != n`.
    pub fn energy(&self, bits: &[bool]) -> f64 {
        assert_eq!(bits.len(), self.n, "assignment length mismatch");
        let mut total = 0.0;
        for i in 0..self.n {
            if !bits[i] {
                continue;
            }
            // Diagonal term plus twice the upper-triangle terms (symmetric).
            total += self.get(i, i);
            for (j, &bit) in bits.iter().enumerate().skip(i + 1) {
                if bit {
                    total += 2.0 * self.get(i, j);
                }
            }
        }
        total
    }

    /// Number of structurally nonzero off-diagonal pairs `i < j`.
    pub fn interaction_count(&self) -> usize {
        let mut count = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != 0.0 {
                    count += 1;
                }
            }
        }
        count
    }

    /// The interaction graph: vertices are variables, edges connect pairs
    /// with a nonzero off-diagonal coefficient.  This is the *logical* graph
    /// that must be minor-embedded into the hardware.
    pub fn interaction_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != 0.0 {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Largest absolute coefficient (0 for an empty problem).
    pub fn max_abs_coefficient(&self) -> f64 {
        self.q.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    }

    /// Generate a random QUBO whose interaction graph is (approximately)
    /// an Erdős–Rényi `G(n, density)` graph, with coefficients drawn
    /// uniformly from `[-1, 1]`.  Deterministic in `seed`.
    pub fn random(n: usize, density: f64, seed: u64) -> Self {
        let density = density.clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut qubo = Self::new(n);
        for i in 0..n {
            qubo.set(i, i, rng.gen_range(-1.0..=1.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    let value = rng.gen_range(-1.0..=1.0);
                    qubo.set(i, j, value);
                }
            }
        }
        qubo
    }

    /// Generate a random QUBO whose interaction graph is exactly `graph`,
    /// with coefficients drawn uniformly from `[-1, 1]`.
    pub fn random_on_graph(graph: &Graph, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = graph.vertex_count();
        let mut qubo = Self::new(n);
        for i in 0..n {
            qubo.set(i, i, rng.gen_range(-1.0..=1.0));
        }
        for (u, v) in graph.edges() {
            // Avoid exactly-zero couplings so the interaction graph is preserved.
            let mut value: f64 = 0.0;
            while value == 0.0 {
                value = rng.gen_range(-1.0..=1.0);
            }
            qubo.set(u, v, value);
        }
        qubo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    #[test]
    fn new_qubo_is_zero() {
        let q = Qubo::new(4);
        assert_eq!(q.num_variables(), 4);
        assert_eq!(q.energy(&[true; 4]), 0.0);
        assert_eq!(q.interaction_count(), 0);
        assert_eq!(q.max_abs_coefficient(), 0.0);
    }

    #[test]
    fn set_is_symmetric() {
        let mut q = Qubo::new(3);
        q.set(0, 2, 1.5);
        assert_eq!(q.get(0, 2), 1.5);
        assert_eq!(q.get(2, 0), 1.5);
    }

    #[test]
    fn add_accumulates() {
        let mut q = Qubo::new(2);
        q.add(0, 1, 1.0);
        q.add(0, 1, 0.5);
        assert_eq!(q.get(1, 0), 1.5);
        q.add(1, 1, 2.0);
        q.add(1, 1, 2.0);
        assert_eq!(q.diagonal(1), 4.0);
    }

    #[test]
    fn from_matrix_symmetrizes() {
        let q = Qubo::from_matrix(&[vec![1.0, 2.0], vec![0.0, -1.0]]);
        assert_eq!(q.get(0, 1), 1.0);
        assert_eq!(q.get(1, 0), 1.0);
        assert_eq!(q.get(0, 0), 1.0);
        assert_eq!(q.get(1, 1), -1.0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn from_matrix_rejects_ragged() {
        Qubo::from_matrix(&[vec![1.0, 2.0], vec![0.0]]);
    }

    #[test]
    fn energy_matches_quadratic_form() {
        // Q = [[1, 2], [2, 3]]; b = (1, 1) -> 1 + 3 + 2*2 = 8.
        let q = Qubo::from_matrix(&[vec![1.0, 2.0], vec![2.0, 3.0]]);
        assert_eq!(q.energy(&[true, true]), 8.0);
        assert_eq!(q.energy(&[true, false]), 1.0);
        assert_eq!(q.energy(&[false, true]), 3.0);
        assert_eq!(q.energy(&[false, false]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn energy_rejects_wrong_length() {
        Qubo::new(3).energy(&[true, false]);
    }

    #[test]
    fn interaction_graph_matches_nonzeros() {
        let mut q = Qubo::new(4);
        q.set(0, 1, 1.0);
        q.set(2, 3, -0.5);
        q.set(1, 1, 3.0); // diagonal should not create an edge
        let g = q.interaction_graph();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert_eq!(q.interaction_count(), 2);
    }

    #[test]
    fn random_qubo_is_deterministic() {
        let a = Qubo::random(10, 0.5, 3);
        let b = Qubo::random(10, 0.5, 3);
        let c = Qubo::random(10, 0.5, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.max_abs_coefficient() <= 1.0);
    }

    #[test]
    fn random_on_graph_preserves_structure() {
        let g = generators::cycle(8);
        let q = Qubo::random_on_graph(&g, 11);
        assert_eq!(q.interaction_graph(), g);
    }

    #[test]
    fn random_density_extremes() {
        let dense = Qubo::random(12, 1.0, 0);
        assert_eq!(dense.interaction_count(), 12 * 11 / 2);
        let sparse = Qubo::random(12, 0.0, 0);
        assert_eq!(sparse.interaction_count(), 0);
    }
}

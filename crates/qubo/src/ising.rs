//! Ising spin models.
//!
//! The D-Wave QPU natively minimizes Ising Hamiltonians of the paper's
//! Eq. (2): `H = -Σᵢ hᵢ sᵢ - Σ_{i<j} J_{ij} sᵢ sⱼ` over spins `sᵢ ∈ {-1,+1}`,
//! with per-qubit biases `hᵢ` and pairwise couplings `J_{ij}` constrained to
//! the hardware connectivity graph.

use chimera_graph::Graph;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// A spin value, `-1` or `+1`, stored as `i8` for compactness.
pub type Spin = i8;

/// An Ising model: linear biases plus sparse symmetric couplings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ising {
    /// Per-spin biases `hᵢ`.
    h: Vec<f64>,
    /// Couplings keyed by `(min(i,j), max(i,j))`; zero entries are removed.
    j: BTreeMap<(usize, usize), f64>,
}

impl Ising {
    /// Create an Ising model over `n` spins with zero biases and couplings.
    pub fn new(n: usize) -> Self {
        Self {
            h: vec![0.0; n],
            j: BTreeMap::new(),
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Number of nonzero couplings.
    pub fn num_couplings(&self) -> usize {
        self.j.len()
    }

    /// Bias on spin `i`.
    pub fn field(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// Set the bias on spin `i`.
    pub fn set_field(&mut self, i: usize, value: f64) {
        self.h[i] = value;
    }

    /// Add to the bias on spin `i`.
    pub fn add_field(&mut self, i: usize, delta: f64) {
        self.h[i] += delta;
    }

    /// Coupling between spins `i` and `j` (0 if absent).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        let key = canonical(i, j);
        self.j.get(&key).copied().unwrap_or(0.0)
    }

    /// Set the coupling between two distinct spins.  Setting 0 removes the
    /// coupling.
    ///
    /// # Panics
    /// Panics on a self-coupling or out-of-range index.
    pub fn set_coupling(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "self-couplings are not allowed");
        assert!(
            i < self.num_spins() && j < self.num_spins(),
            "coupling ({i}, {j}) out of range"
        );
        let key = canonical(i, j);
        if value == 0.0 {
            self.j.remove(&key);
        } else {
            self.j.insert(key, value);
        }
    }

    /// Add to the coupling between two spins.
    pub fn add_coupling(&mut self, i: usize, j: usize, delta: f64) {
        let current = self.coupling(i, j);
        self.set_coupling(i, j, current + delta);
    }

    /// Iterate over couplings as `((i, j), J)` with `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.j.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterate over all biases.
    pub fn fields(&self) -> impl Iterator<Item = f64> + '_ {
        self.h.iter().copied()
    }

    /// Evaluate the Hamiltonian `H(s) = -Σ hᵢ sᵢ - Σ J_{ij} sᵢ sⱼ`.
    ///
    /// # Panics
    /// Panics if `spins.len()` differs from the number of spins or contains
    /// values other than ±1.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        assert_eq!(spins.len(), self.num_spins(), "spin vector length mismatch");
        debug_assert!(spins.iter().all(|&s| s == 1 || s == -1));
        let mut e = 0.0;
        for (i, &hi) in self.h.iter().enumerate() {
            e -= hi * spins[i] as f64;
        }
        for (&(i, j), &jij) in &self.j {
            e -= jij * spins[i] as f64 * spins[j] as f64;
        }
        e
    }

    /// The energy change from flipping spin `i` in configuration `spins`.
    ///
    /// This is the quantity the annealer evaluates in its inner loop; it is
    /// computed in O(degree) without re-evaluating the full Hamiltonian.
    pub fn flip_delta(&self, spins: &[Spin], i: usize) -> f64 {
        let si = spins[i] as f64;
        let mut local = self.h[i];
        for (&(a, b), &jab) in self.j.range((i, 0)..(i + 1, 0)) {
            debug_assert_eq!(a, i);
            local += jab * spins[b] as f64;
        }
        // Couplings stored with i as the larger index.
        for (&(a, b), &jab) in &self.j {
            if b == i {
                local += jab * spins[a] as f64;
            }
        }
        // E = -s_i * local + rest; flipping s_i changes E by 2 * s_i * local.
        2.0 * si * local
    }

    /// The interaction graph induced by nonzero couplings.
    pub fn interaction_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_spins());
        for &(i, j) in self.j.keys() {
            g.add_edge(i, j);
        }
        g
    }

    /// Largest absolute bias (0 if there are no spins).
    pub fn max_abs_field(&self) -> f64 {
        self.h.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    }

    /// Largest absolute coupling (0 if there are none).
    pub fn max_abs_coupling(&self) -> f64 {
        self.j.values().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    }

    /// Generate a random Ising model whose interaction graph is `graph`,
    /// with biases and couplings uniform in `[-1, 1]`.  Deterministic in
    /// `seed`.
    pub fn random_on_graph(graph: &Graph, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Self::new(graph.vertex_count());
        for i in 0..graph.vertex_count() {
            model.set_field(i, rng.gen_range(-1.0..=1.0));
        }
        for (u, v) in graph.edges() {
            let mut value: f64 = 0.0;
            while value == 0.0 {
                value = rng.gen_range(-1.0..=1.0);
            }
            model.set_coupling(u, v, value);
        }
        model
    }

    /// A random spin configuration, deterministic in `seed`.
    pub fn random_spins(n: usize, seed: u64) -> Vec<Spin> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect()
    }
}

fn canonical(i: usize, j: usize) -> (usize, usize) {
    if i < j {
        (i, j)
    } else {
        (j, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    #[test]
    fn empty_model_has_zero_energy() {
        let m = Ising::new(3);
        assert_eq!(m.energy(&[1, -1, 1]), 0.0);
        assert_eq!(m.num_spins(), 3);
        assert_eq!(m.num_couplings(), 0);
    }

    #[test]
    fn single_spin_energy_follows_bias() {
        let mut m = Ising::new(1);
        m.set_field(0, 0.5);
        // E = -h*s: aligned spin (+1) has lower energy.
        assert_eq!(m.energy(&[1]), -0.5);
        assert_eq!(m.energy(&[-1]), 0.5);
    }

    #[test]
    fn ferromagnetic_coupling_prefers_alignment() {
        let mut m = Ising::new(2);
        m.set_coupling(0, 1, 1.0);
        assert_eq!(m.energy(&[1, 1]), -1.0);
        assert_eq!(m.energy(&[-1, -1]), -1.0);
        assert_eq!(m.energy(&[1, -1]), 1.0);
    }

    #[test]
    fn coupling_storage_is_symmetric_and_sparse() {
        let mut m = Ising::new(4);
        m.set_coupling(3, 1, 0.25);
        assert_eq!(m.coupling(1, 3), 0.25);
        assert_eq!(m.coupling(3, 1), 0.25);
        assert_eq!(m.num_couplings(), 1);
        m.set_coupling(1, 3, 0.0);
        assert_eq!(m.num_couplings(), 0);
    }

    #[test]
    fn add_coupling_accumulates_and_removes_on_zero() {
        let mut m = Ising::new(3);
        m.add_coupling(0, 1, 0.5);
        m.add_coupling(1, 0, 0.5);
        assert_eq!(m.coupling(0, 1), 1.0);
        m.add_coupling(0, 1, -1.0);
        assert_eq!(m.num_couplings(), 0);
    }

    #[test]
    #[should_panic(expected = "self-couplings")]
    fn self_coupling_panics() {
        Ising::new(2).set_coupling(1, 1, 1.0);
    }

    #[test]
    fn flip_delta_matches_energy_difference() {
        let g = generators::gnp(12, 0.4, 5);
        let m = Ising::random_on_graph(&g, 6);
        let spins = Ising::random_spins(12, 7);
        for i in 0..12 {
            let mut flipped = spins.clone();
            flipped[i] = -flipped[i];
            let expected = m.energy(&flipped) - m.energy(&spins);
            let got = m.flip_delta(&spins, i);
            assert!(
                (expected - got).abs() < 1e-9,
                "spin {i}: delta {got} vs {expected}"
            );
        }
    }

    #[test]
    fn interaction_graph_round_trip() {
        let g = generators::grid(3, 3);
        let m = Ising::random_on_graph(&g, 2);
        assert_eq!(m.interaction_graph(), g);
    }

    #[test]
    fn max_abs_values() {
        let mut m = Ising::new(3);
        m.set_field(0, -0.7);
        m.set_field(2, 0.3);
        m.set_coupling(0, 1, -0.9);
        assert!((m.max_abs_field() - 0.7).abs() < 1e-12);
        assert!((m.max_abs_coupling() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn random_spins_are_deterministic_and_valid() {
        let a = Ising::random_spins(50, 1);
        let b = Ising::random_spins(50, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s == 1 || s == -1));
        assert!(a.contains(&1) && a.contains(&-1));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn energy_length_mismatch_panics() {
        Ising::new(3).energy(&[1, 1]);
    }
}

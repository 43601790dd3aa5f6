//! Fabrication-fault modeling for hardware graphs.
//!
//! Real D-Wave processors ship with a small number of inoperable qubits and
//! couplers that are identified during calibration and deactivated (Sec. 2.2
//! of the paper).  Faults break the symmetry of the Chimera lattice and make
//! the minor-embedding problem harder, so the embedding benchmarks exercise
//! both pristine and faulted hardware.

use crate::chimera::Chimera;
use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fault specification: which qubits and couplers are inoperable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultModel {
    /// Indices of dead qubits (all incident couplers are also disabled).
    pub dead_qubits: Vec<usize>,
    /// Dead couplers given as vertex pairs (in addition to those implied by
    /// dead qubits).
    pub dead_couplers: Vec<(usize, usize)>,
}

impl FaultModel {
    /// A fault-free model.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the model contains no faults.
    pub fn is_empty(&self) -> bool {
        self.dead_qubits.is_empty() && self.dead_couplers.is_empty()
    }

    /// Total number of faulty elements.
    pub fn fault_count(&self) -> usize {
        self.dead_qubits.len() + self.dead_couplers.len()
    }

    /// Draw a random fault model for a hardware graph: each qubit fails
    /// independently with probability `qubit_rate` and each coupler with
    /// probability `coupler_rate`.
    ///
    /// Rates are clamped to `[0, 1]`.  The draw is deterministic in `seed`.
    pub fn random(graph: &Graph, qubit_rate: f64, coupler_rate: f64, seed: u64) -> Self {
        let qubit_rate = qubit_rate.clamp(0.0, 1.0);
        let coupler_rate = coupler_rate.clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dead_qubits: Vec<usize> = graph
            .vertices()
            .filter(|_| rng.gen::<f64>() < qubit_rate)
            .collect();
        let dead_couplers: Vec<(usize, usize)> = graph
            .edges()
            .filter(|_| rng.gen::<f64>() < coupler_rate)
            .collect();
        Self {
            dead_qubits,
            dead_couplers,
        }
    }

    /// Draw a fault model with an exact number of dead qubits chosen
    /// uniformly at random (the form used by the hard-fault embedding study
    /// of Klymko, Sullivan & Humble that the paper cites).
    pub fn exact_dead_qubits(graph: &Graph, count: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut qubits: Vec<usize> = graph.vertices().collect();
        qubits.shuffle(&mut rng);
        qubits.truncate(count.min(graph.vertex_count()));
        qubits.sort_unstable();
        Self {
            dead_qubits: qubits,
            dead_couplers: Vec::new(),
        }
    }

    /// Apply the faults to a copy of the given graph: dead qubits are
    /// isolated and dead couplers removed.  Vertex indices are preserved so
    /// that Chimera coordinates remain meaningful.
    pub fn apply(&self, graph: &Graph) -> Graph {
        let mut faulted = graph.clone();
        for &q in &self.dead_qubits {
            faulted.isolate_vertex(q);
        }
        for &(u, v) in &self.dead_couplers {
            faulted.remove_edge(u, v);
        }
        faulted
    }

    /// Convenience: apply the faults to a Chimera topology, returning the
    /// faulted hardware graph plus the set of usable qubits.
    pub fn apply_to_chimera(&self, chimera: &Chimera) -> FaultedHardware {
        let graph = self.apply(chimera.graph());
        let usable: Vec<usize> = graph
            .vertices()
            .filter(|&v| !self.dead_qubits.contains(&v))
            .collect();
        FaultedHardware {
            graph,
            usable_qubits: usable,
            faults: self.clone(),
        }
    }
}

/// A hardware graph with faults applied.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedHardware {
    /// The hardware graph with faulty elements removed.
    pub graph: Graph,
    /// Qubits that remain usable.
    pub usable_qubits: Vec<usize>,
    /// The fault model that was applied.
    pub faults: FaultModel,
}

impl FaultedHardware {
    /// Fraction of qubits that remain usable.
    pub fn yield_fraction(&self) -> f64 {
        if self.graph.vertex_count() == 0 {
            return 1.0;
        }
        self.usable_qubits.len() as f64 / self.graph.vertex_count() as f64
    }
}

/// Inject faults directly into a Chimera topology (mutating convenience used
/// by tests and examples).
pub fn inject_faults(chimera: &mut Chimera, faults: &FaultModel) {
    let graph = chimera.graph_mut();
    for &q in &faults.dead_qubits {
        graph.isolate_vertex(q);
    }
    for &(u, v) in &faults.dead_couplers {
        graph.remove_edge(u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fault_model_is_identity() {
        let c = Chimera::new(2, 2, 4);
        let f = FaultModel::none();
        assert!(f.is_empty());
        let applied = f.apply(c.graph());
        assert_eq!(&applied, c.graph());
    }

    #[test]
    fn dead_qubit_loses_all_couplers() {
        let c = Chimera::new(2, 2, 4);
        let f = FaultModel {
            dead_qubits: vec![0],
            dead_couplers: vec![],
        };
        let applied = f.apply(c.graph());
        assert_eq!(applied.degree(0), 0);
        assert_eq!(
            applied.edge_count(),
            c.graph().edge_count() - c.graph().degree(0)
        );
    }

    #[test]
    fn dead_coupler_removes_single_edge() {
        let c = Chimera::new(1, 1, 4);
        let (u, v) = c.graph().edges().next().unwrap();
        let f = FaultModel {
            dead_qubits: vec![],
            dead_couplers: vec![(u, v)],
        };
        let applied = f.apply(c.graph());
        assert!(!applied.has_edge(u, v));
        assert_eq!(applied.edge_count(), c.graph().edge_count() - 1);
    }

    #[test]
    fn random_faults_are_deterministic_in_seed() {
        let c = Chimera::new(4, 4, 4);
        let a = FaultModel::random(c.graph(), 0.05, 0.02, 7);
        let b = FaultModel::random(c.graph(), 0.05, 0.02, 7);
        let d = FaultModel::random(c.graph(), 0.05, 0.02, 8);
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn random_fault_rates_are_roughly_respected() {
        let c = Chimera::new(8, 8, 4);
        let f = FaultModel::random(c.graph(), 0.05, 0.0, 123);
        let rate = f.dead_qubits.len() as f64 / c.qubit_count() as f64;
        assert!(rate < 0.15, "qubit fault rate {rate} wildly above nominal");
        assert!(f.dead_couplers.is_empty());
    }

    #[test]
    fn zero_rate_produces_no_faults_and_full_rate_kills_everything() {
        let c = Chimera::new(2, 2, 4);
        let none = FaultModel::random(c.graph(), 0.0, 0.0, 1);
        assert!(none.is_empty());
        let all = FaultModel::random(c.graph(), 1.0, 1.0, 1);
        assert_eq!(all.dead_qubits.len(), c.qubit_count());
        assert_eq!(all.dead_couplers.len(), c.coupler_count());
    }

    #[test]
    fn exact_dead_qubits_count() {
        let c = Chimera::new(4, 4, 4);
        let f = FaultModel::exact_dead_qubits(c.graph(), 10, 3);
        assert_eq!(f.dead_qubits.len(), 10);
        assert_eq!(f.fault_count(), 10);
        // Sorted and unique.
        let mut sorted = f.dead_qubits.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn exact_dead_qubits_clamps_to_graph_size() {
        let c = Chimera::new(1, 1, 4);
        let f = FaultModel::exact_dead_qubits(c.graph(), 1000, 3);
        assert_eq!(f.dead_qubits.len(), 8);
    }

    #[test]
    fn faulted_hardware_yield() {
        let c = Chimera::new(2, 2, 4);
        let f = FaultModel::exact_dead_qubits(c.graph(), 8, 11);
        let hw = f.apply_to_chimera(&c);
        assert_eq!(hw.usable_qubits.len(), c.qubit_count() - 8);
        assert!((hw.yield_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn inject_faults_mutates_topology() {
        let mut c = Chimera::new(2, 2, 4);
        let before = c.coupler_count();
        let f = FaultModel {
            dead_qubits: vec![3],
            dead_couplers: vec![],
        };
        inject_faults(&mut c, &f);
        assert!(c.coupler_count() < before);
        assert_eq!(c.graph().degree(3), 0);
    }
}

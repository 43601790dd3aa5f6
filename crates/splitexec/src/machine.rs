//! The split-execution machine: a conventional host plus a QPU.
//!
//! The paper's Fig. 1 sketches three ways a QPU can be attached to a host
//! HPC system; the analysis (and this crate's default) uses the *asymmetric
//! multi-processor* design of Fig. 1(a), motivated by the infrastructure
//! constraints of the existing D-Wave hardware.  A [`SplitMachine`] bundles
//! the ASPEN-style machine model used for analytic predictions with the
//! hardware graph used by the executable path.

use aspen_model::builtin::{simple_node, QpuGeneration};
use aspen_model::MachineModel;
use chimera_graph::{Chimera, FaultModel, Graph};
use std::sync::OnceLock;

use crate::offline_cache::graph_key;

/// The three integration architectures of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Architecture {
    /// Fig. 1(a): a single host node drives a network-attached QPU (the
    /// configuration analyzed in the paper and modeled by this crate).
    #[default]
    AsymmetricMultiProcessor,
    /// Fig. 1(b): the QPU is a shared resource serving many host nodes.
    SharedResource,
    /// Fig. 1(c): every node owns a dedicated QPU.
    DedicatedPerNode,
}

impl Architecture {
    /// All architectures, in the order of the paper's Fig. 1.
    pub fn all() -> [Architecture; 3] {
        [
            Architecture::AsymmetricMultiProcessor,
            Architecture::SharedResource,
            Architecture::DedicatedPerNode,
        ]
    }

    /// Short human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Architecture::AsymmetricMultiProcessor => "asymmetric multi-processor",
            Architecture::SharedResource => "shared-resource",
            Architecture::DedicatedPerNode => "dedicated QPU per node",
        }
    }

    /// How many host nodes share one QPU under this architecture (for the
    /// simple capacity arguments made around Fig. 1).
    pub fn nodes_per_qpu(&self, total_nodes: usize) -> usize {
        match self {
            Architecture::AsymmetricMultiProcessor => total_nodes.max(1),
            Architecture::SharedResource => total_nodes.max(1),
            Architecture::DedicatedPerNode => 1,
        }
    }
}

/// Which QPU generation is installed in the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QpuModel {
    /// D-Wave Two "Vesuvius": `C(8,8,4)`, 512 qubits (the paper's Fig. 3).
    Vesuvius,
    /// D-Wave 2X: `C(12,12,4)`, 1152 qubits (the paper's Stage-1 model uses
    /// its `M = N = 12` dimensions).
    #[default]
    Dw2x,
}

impl QpuModel {
    /// All modeled generations, oldest first.
    pub fn all() -> [QpuModel; 2] {
        [QpuModel::Vesuvius, QpuModel::Dw2x]
    }

    /// Chimera lattice dimensions `(M, N, L)`.
    pub fn lattice(&self) -> (usize, usize, usize) {
        match self {
            QpuModel::Vesuvius => (8, 8, 4),
            QpuModel::Dw2x => (12, 12, 4),
        }
    }

    /// Number of physical qubits.
    pub fn qubits(&self) -> usize {
        let (m, n, l) = self.lattice();
        2 * l * m * n
    }

    /// The analytic machine model of a node hosting this generation
    /// (Fig. 5's `SimpleNode`): what the stage predictions walk.
    pub(crate) fn simple_node(&self) -> MachineModel {
        simple_node(match self {
            QpuModel::Vesuvius => QpuGeneration::Vesuvius,
            QpuModel::Dw2x => QpuGeneration::Dw2x,
        })
    }

    /// Stable lowercase name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            QpuModel::Vesuvius => "vesuvius",
            QpuModel::Dw2x => "dw2x",
        }
    }
}

impl std::str::FromStr for QpuModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "vesuvius" | "dw2" | "dwave2" => Ok(QpuModel::Vesuvius),
            "dw2x" | "2x" | "dwave2x" => Ok(QpuModel::Dw2x),
            other => Err(format!(
                "unknown QPU model '{other}' (expected vesuvius or dw2x)"
            )),
        }
    }
}

impl std::fmt::Display for QpuModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The combined machine: ASPEN model for predictions, Chimera graph for
/// execution.
#[derive(Debug, Clone)]
pub struct SplitMachine {
    /// Integration architecture (Fig. 1).
    pub architecture: Architecture,
    /// Installed QPU generation.
    pub qpu: QpuModel,
    /// The resolved analytic machine model (Fig. 5's `SimpleNode`).
    pub aspen: MachineModel,
    /// The QPU hardware topology.
    pub chimera: Chimera,
    /// Hardware graph after applying fabrication faults.  Private so that
    /// only a constructor sets it, and [`Self::hardware_key`] stays its
    /// key.
    hardware: Graph,
    /// [`graph_key`] of `hardware`, computed on first use.
    hardware_key: OnceLock<u64>,
    /// The fault model applied to the pristine lattice.
    pub faults: FaultModel,
}

impl SplitMachine {
    /// A pristine machine with the given QPU generation and the default
    /// asymmetric architecture.
    pub fn new(qpu: QpuModel) -> Self {
        Self::with_faults(qpu, FaultModel::none())
    }

    /// The default machine used throughout the benchmarks: an asymmetric
    /// node hosting a D-Wave 2X-class QPU, matching the paper's Stage-1
    /// parameters (`M = N = 12`).
    pub fn paper_default() -> Self {
        Self::new(QpuModel::Dw2x)
    }

    /// A machine whose QPU carries fabrication faults.
    pub fn with_faults(qpu: QpuModel, faults: FaultModel) -> Self {
        let (m, n, l) = qpu.lattice();
        let chimera = Chimera::new(m, n, l);
        let hardware = faults.apply(chimera.graph());
        Self {
            architecture: Architecture::default(),
            qpu,
            aspen: qpu.simple_node(),
            chimera,
            hardware,
            hardware_key: OnceLock::new(),
            faults,
        }
    }

    /// Override the integration architecture.
    pub fn with_architecture(mut self, architecture: Architecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// The hardware graph: the lattice with the fabrication faults applied.
    pub fn hardware(&self) -> &Graph {
        &self.hardware
    }

    /// [`graph_key`] of [`Self::hardware`], hashed once per machine: the
    /// hardware half of every embedding-table key.
    pub fn hardware_key(&self) -> u64 {
        *self.hardware_key.get_or_init(|| graph_key(&self.hardware))
    }

    /// Number of usable (non-faulted) qubits.
    pub fn usable_qubits(&self) -> usize {
        self.chimera.qubit_count() - self.faults.dead_qubits.len()
    }

    /// The Chimera lattice dimensions as `(M, N)` — the `M`/`N` parameters of
    /// the paper's Stage-1 model.
    pub fn lattice_dims(&self) -> (usize, usize) {
        (self.chimera.rows(), self.chimera.cols())
    }
}

#[cfg(test)]
impl SplitMachine {
    /// A D-Wave 2X model whose lattice is one unit cell, `C(1,1,4)`: eight
    /// qubits forming `K_{4,4}`.  `K6` and `K7` provably have no minor in it
    /// (too few edges once chains are contracted) and `K9` needs more qubits
    /// than it has, so tests can make CMR fail in milliseconds, even in a
    /// debug build.
    pub(crate) fn unit_cell() -> Self {
        let chimera = Chimera::new(1, 1, 4);
        let hardware = chimera.graph().clone();
        Self {
            chimera,
            hardware,
            hardware_key: OnceLock::new(),
            ..Self::paper_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_labels_and_enumeration() {
        assert_eq!(Architecture::all().len(), 3);
        assert!(Architecture::default().label().contains("asymmetric"));
        assert_eq!(Architecture::DedicatedPerNode.nodes_per_qpu(64), 1);
        assert_eq!(Architecture::SharedResource.nodes_per_qpu(64), 64);
        assert_eq!(Architecture::AsymmetricMultiProcessor.nodes_per_qpu(0), 1);
    }

    #[test]
    fn qpu_models_match_paper_hardware() {
        assert_eq!(QpuModel::Vesuvius.qubits(), 512);
        assert_eq!(QpuModel::Dw2x.qubits(), 1152);
        assert_eq!(QpuModel::Dw2x.lattice(), (12, 12, 4));
    }

    #[test]
    fn qpu_models_parse_and_display() {
        assert_eq!("vesuvius".parse::<QpuModel>().unwrap(), QpuModel::Vesuvius);
        assert_eq!("DW2X".parse::<QpuModel>().unwrap(), QpuModel::Dw2x);
        assert!("dw3000".parse::<QpuModel>().is_err());
        for model in QpuModel::all() {
            assert_eq!(model.to_string(), model.name());
            assert_eq!(model.name().parse::<QpuModel>().unwrap(), model);
        }
    }

    #[test]
    fn paper_default_machine_is_dw2x_asymmetric() {
        let m = SplitMachine::paper_default();
        assert_eq!(m.qpu, QpuModel::Dw2x);
        assert_eq!(m.architecture, Architecture::AsymmetricMultiProcessor);
        assert_eq!(m.chimera.qubit_count(), 1152);
        assert_eq!(m.usable_qubits(), 1152);
        assert_eq!(m.lattice_dims(), (12, 12));
        // The analytic model can service every resource the stage models use.
        for r in [
            "flops",
            "loads",
            "stores",
            "intracomm",
            "QuOps",
            "microseconds",
        ] {
            assert!(m.aspen.supports(r), "missing {r}");
        }
    }

    #[test]
    fn faulted_machine_reduces_usable_qubits() {
        let chimera = Chimera::new(8, 8, 4);
        let faults = FaultModel::exact_dead_qubits(chimera.graph(), 20, 7);
        let m = SplitMachine::with_faults(QpuModel::Vesuvius, faults);
        assert_eq!(m.usable_qubits(), 512 - 20);
        assert!(m.hardware().edge_count() < m.chimera.coupler_count());
        assert_eq!(m.hardware_key(), graph_key(m.hardware()));
    }

    #[test]
    fn architecture_override() {
        let m = SplitMachine::paper_default().with_architecture(Architecture::SharedResource);
        assert_eq!(m.architecture, Architecture::SharedResource);
    }
}

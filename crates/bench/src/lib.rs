//! # sx-bench — benchmark harness and figure regeneration
//!
//! Shared helpers for the Criterion benches and the figure-regeneration
//! binaries.  Every table and figure of the paper's evaluation has a
//! corresponding bench target or binary:
//!
//! | Paper artifact | Target |
//! |---|---|
//! | Fig. 1 (architectures) | `--bin architectures` |
//! | Fig. 3 (Chimera graph) | `--bin fig3_chimera` |
//! | Fig. 5 (machine model) | `--bin fig5_machine_model`, bench `fig5_machine_model` |
//! | Fig. 6 / 9(a) (stage 1) | `--bin fig9a`, bench `fig9a_stage1` |
//! | Fig. 7 / 9(b) (stage 2) | `--bin fig9b`, bench `fig9b_stage2` |
//! | Fig. 8 / 9(c) (stage 3) | `--bin fig9c`, bench `fig9c_stage3` |
//! | Stage-dominance conclusion | `--bin stage_breakdown` |
//! | Batch amortization (Sec. 3.3) | `--bin batch_throughput` |
//! | Fleet-scale scheduling (`sx_cluster`) | `--bin cluster_sim` |
//! | Ablations | benches `ablation_offline_embedding`, `ablation_embedding_algorithms`, `annealer_sampling`, `backend_comparison` |
//!
//! Binaries that execute stage 2 accept `--backend=<sa|pt|exact>` (or the
//! `SX_BACKEND` environment variable) to swap the sampler backend without
//! recompiling; see [`backend_from_env_args`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use chimera_graph::generators;
use chimera_graph::Graph;
use minor_embed::{find_embedding, CmrConfig, CmrOutcome, CmrStats, EmbedError};
use quantum_anneal::BackendKind;
use split_exec::prelude::*;
use std::time::Instant;

/// Resolve the stage-2 sampler backend for a binary or bench from, in order
/// of precedence: a `--backend=<name>` / `--backend <name>` CLI argument,
/// the `SX_BACKEND` environment variable, and finally the default
/// (simulated annealing).  Accepted names are those of
/// [`BackendKind`]'s `FromStr` (`sa`, `pt`, `exact`, long forms included).
///
/// Unknown names abort with a message listing the accepted ones, so a typo
/// in a sweep script fails loudly instead of silently benchmarking the
/// wrong backend.
pub fn backend_from_env_args() -> BackendKind {
    let mut args = std::env::args().skip(1);
    let mut named: Option<String> = None;
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--backend=") {
            named = Some(value.to_string());
        } else if arg == "--backend" {
            // A trailing `--backend` with no value is a mistake; surface it
            // as an unknown-name error instead of silently using the default.
            named = Some(args.next().unwrap_or_default());
        }
    }
    let source = named.or_else(|| std::env::var("SX_BACKEND").ok());
    match source {
        None => BackendKind::default(),
        Some(name) => name.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    }
}

/// The problem sizes swept by the Fig. 9(a) model line (the paper uses
/// n = 1..100).
pub fn fig9a_model_sizes() -> Vec<usize> {
    (1..=100).collect()
}

/// The problem sizes for which the measured CMR line is produced.  The
/// paper's reference data covers n = 1..30; our reimplementation of the CMR
/// heuristic (`minor_embed::cmr`) embeds complete graphs on the 1152-qubit
/// lattice only up to K6 today (every K8–K16 attempt fails), so the sweep
/// stops at 16 and failed attempts are reported with `success = false`.
pub fn fig9a_measured_sizes() -> Vec<usize> {
    (2..=16).step_by(2).collect()
}

/// The accuracy grid of Fig. 9(b).
pub fn fig9b_accuracies() -> Vec<f64> {
    vec![
        0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999, 0.99999, 0.999999,
    ]
}

/// The problem sizes of Fig. 9(c).
pub fn fig9c_sizes() -> Vec<usize> {
    (1..=100).step_by(3).collect()
}

/// One point of the Fig. 9(a) measured series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredEmbedding {
    /// Complete-graph size.
    pub n: usize,
    /// Wall-clock seconds of the CMR heuristic.
    pub seconds: f64,
    /// Whether an overlap-free embedding was found.
    pub success: bool,
    /// Hardware qubits used (0 on failure).
    pub qubits_used: usize,
    /// Dijkstra searches the call ran, failed tries included.
    pub dijkstra_calls: u64,
    /// Edge relaxations across those searches: the measured counterpart
    /// of the ASPEN model's `embedding_ops`.
    pub relaxations: u64,
}

/// Measure the CMR heuristic embedding `K_n` into the given machine's
/// hardware graph.  Failures are reported (with their elapsed time and
/// work counters) rather than panicking so sweeps degrade gracefully near
/// the hardware capacity.
pub fn measure_cmr_embedding(machine: &SplitMachine, n: usize, seed: u64) -> MeasuredEmbedding {
    let input = generators::complete(n);
    let config = CmrConfig {
        seed,
        tries: 6,
        max_passes: 12,
        ..CmrConfig::default()
    };
    let start = Instant::now();
    let outcome: Result<CmrOutcome, EmbedError> =
        find_embedding(&input, machine.hardware(), &config);
    let seconds = start.elapsed().as_secs_f64();
    let (qubits_used, stats) = match &outcome {
        Ok(ok) => (ok.embedding.qubits_used(), ok.stats),
        Err(EmbedError::NoEmbeddingFound { stats, .. }) => (0, **stats),
        Err(_) => (0, CmrStats::default()),
    };
    MeasuredEmbedding {
        n,
        seconds,
        success: outcome.is_ok(),
        qubits_used,
        dijkstra_calls: stats.dijkstra_calls,
        relaxations: stats.edge_relaxations,
    }
}

/// Build the logical input graphs used by the embedding-algorithm ablation.
pub fn ablation_inputs(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("complete-6", generators::complete(6)),
        ("cycle-24", generators::cycle(24)),
        ("grid-5x5", generators::grid(5, 5)),
        ("gnp-16-0.3", generators::gnp(16, 0.3, seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grids_are_nonempty_and_sorted() {
        assert_eq!(fig9a_model_sizes().len(), 100);
        assert!(fig9a_measured_sizes().windows(2).all(|w| w[0] < w[1]));
        assert!(fig9b_accuracies().windows(2).all(|w| w[0] < w[1]));
        assert!(!fig9c_sizes().is_empty());
    }

    #[test]
    fn measured_embedding_succeeds_for_small_cliques() {
        let machine = SplitMachine::paper_default();
        let m = measure_cmr_embedding(&machine, 6, 1);
        assert!(m.success);
        assert!(m.qubits_used >= 6);
        assert!(m.seconds > 0.0);
        assert!(m.dijkstra_calls > 0);
        assert!(m.relaxations > m.dijkstra_calls);
    }

    #[test]
    fn ablation_inputs_are_connected() {
        for (name, graph) in ablation_inputs(3) {
            assert!(graph.vertex_count() > 0, "{name}");
            assert!(chimera_graph::metrics::is_connected(&graph), "{name}");
        }
    }
}

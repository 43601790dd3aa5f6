//! Embedding-scaling study: how the stage-1 model and the measured CMR
//! heuristic behave as the logical problem size grows (the content of the
//! paper's Fig. 9a, at example scale).
//!
//! For each complete input graph `K_n` the program prints the ASPEN-model
//! prediction of the worst-case embedding cost next to the measured
//! wall-clock time and work counters of the real CMR implementation, plus
//! the qubit usage of the deterministic clique embedding for comparison.
//!
//! Run with:
//! ```text
//! cargo run --release -p split-exec --example embedding_scaling
//! ```

use chimera_graph::generators;
use minor_embed::prelude::*;
use split_exec::prelude::*;
use std::time::Instant;

fn main() -> Result<(), PipelineError> {
    let machine = SplitMachine::paper_default();
    println!(
        "hardware: Chimera {}x{}x4 with {} qubits",
        machine.lattice_dims().0,
        machine.lattice_dims().1,
        machine.usable_qubits()
    );
    println!(
        "{:>4} {:>14} {:>14} {:>12} {:>12} {:>10} {:>12}",
        "n", "model ops", "model [s]", "CMR [s]", "dijkstras", "CMR qubits", "clique qubits"
    );

    for n in [4usize, 6, 8, 10, 12] {
        let prediction = predict_stage1(&machine, n)?;
        let input = generators::complete(n);
        let config = CmrConfig {
            seed: n as u64,
            tries: 6,
            max_passes: 12,
            ..CmrConfig::default()
        };
        let start = Instant::now();
        let outcome = find_embedding(&input, machine.hardware(), &config);
        let measured = start.elapsed().as_secs_f64();
        let clique = clique_embedding(n, &machine.chimera).expect("clique embedding exists");
        match outcome {
            Ok(outcome) => {
                verify_embedding(&input, machine.hardware(), &outcome.embedding)
                    .expect("CMR embedding must verify");
                println!(
                    "{:>4} {:>14.3e} {:>14.6} {:>12.6} {:>12} {:>10} {:>12}",
                    n,
                    prediction.embedding_ops,
                    prediction.embed_seconds,
                    measured,
                    outcome.stats.dijkstra_calls,
                    outcome.embedding.qubits_used(),
                    clique.embedding.qubits_used()
                );
            }
            Err(_) => println!(
                "{:>4} {:>14.3e} {:>14.6} {:>12.6} {:>12} {:>10} {:>12}",
                n,
                prediction.embedding_ops,
                prediction.embed_seconds,
                measured,
                "-",
                "failed",
                clique.embedding.qubits_used()
            ),
        }
    }

    println!(
        "\nThe model line (worst-case operation count) rises much faster than the measured\n\
         heuristic, exactly as in Fig. 9(a) where the ASPEN worst case overestimates small inputs\n\
         but tracks the growth trend; the CMR heuristic also uses fewer qubits than the\n\
         deterministic clique embedding on sparse-to-moderate inputs."
    );
    Ok(())
}

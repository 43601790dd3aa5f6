//! Golden outputs of the SA and PT samplers, pinned bit for bit.
//!
//! The table below fixes, for a set of programs shaped like the pipeline's
//! embedded programs (a few dozen active qubits on the whole 1,152-qubit
//! C(12,12,4) register, chains of strong couplings, some zero-valued fields
//! and couplings, odd and even sweep counts), what each backend returns: a
//! digest of the `SampleSet` (every record's spins, energy bits and
//! multiplicity) and `QpuAccessReport::updates`.  A change that only speeds
//! a sampler up must reproduce the table exactly.  A change that alters what
//! a sampler computes re-records it: the failure message prints the whole
//! table as measured, ready to paste over `GOLDEN`.

use chimera_graph::{generators, Chimera, FaultModel, Graph};
use quantum_anneal::prelude::*;
use qubo_ising::Ising;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One pinned case: `(name, active spins, SA digest, SA updates, PT digest,
/// PT updates)`.
type Row = (&'static str, usize, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("patch6", 6, 12340538108662044585, 1769472, 18081941603121742947, 1327104),
    ("patch40", 40, 3273406099656512560, 1769472, 17523368136986074822, 1327104),
    ("patch40-odd", 40, 12583159517052777353, 1762560, 8476105715716312242, 1161216),
    ("patch42-faulted", 42, 2753983286887969467, 1769472, 1357090397419598794, 1327104),
    ("patch42-faulted-odd", 42, 1850448852282676948, 228096, 11919156577650345837, 829440),
    ("patch100-faulted", 100, 10577944069790251187, 884736, 6493242374779116084, 663552),
    ("patch200-odd", 200, 7989821713407561490, 891648, 12861821838564229563, 497664),
    ("fields-only", 4, 15997005179578682621, 449280, 292990466818421699, 497664),
    ("idle-register", 0, 8306619852561114447, 442368, 8306619852561114447, 663552),
    ("idle-register-odd", 0, 17087804055971124755, 435456, 5673354257017252903, 829440),
    ("empty", 0, 5344244055534522403, 0, 5344244055534522403, 0),
    ("dense-G(16,0.4)", 16, 8789763863022963193, 9312, 16048298345527763828, 13824),
];

/// Reads drawn per case and backend.
const READS: usize = 6;

/// One program plus the sweep counts its two samplers run.
struct Case {
    name: &'static str,
    program: Ising,
    sa_sweeps: usize,
    pt_sweeps_per_exchange: usize,
}

fn full_register() -> Graph {
    Chimera::new(12, 12, 4).into_graph()
}

fn faulted_register() -> Graph {
    let chimera = Chimera::new(12, 12, 4);
    FaultModel::exact_dead_qubits(chimera.graph(), 12, 2016).apply(chimera.graph())
}

/// An embedded-style program over every qubit of `hardware`: a randomly
/// grown connected patch of about `active` qubits, whose spanning-tree edges
/// carry chain couplings of strength 2 and whose other patch edges carry
/// logical couplings in [-1, 1).  About a third of the patch qubits get a
/// zero field.  A few couplers between idle qubits next to the patch are
/// written and then zeroed, so those qubits stay idle, as does every other
/// qubit of the register.
fn embedded_program(hardware: &Graph, active: usize, seed: u64) -> Ising {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = hardware.vertex_count();
    let mut program = Ising::new(n);
    let roots: Vec<usize> = hardware.non_isolated_vertices().collect();
    let root = roots[rng.gen_range(0..roots.len())];
    let mut in_patch = vec![false; n];
    in_patch[root] = true;
    let mut patch = vec![root];
    let mut frontier = vec![root];
    while patch.len() < active && !frontier.is_empty() {
        let at = rng.gen_range(0..frontier.len());
        let u = frontier[at];
        let mut next: Vec<usize> = hardware.neighbors(u).filter(|&v| !in_patch[v]).collect();
        if next.is_empty() {
            frontier.swap_remove(at);
            continue;
        }
        next.shuffle(&mut rng);
        let v = next[0];
        in_patch[v] = true;
        patch.push(v);
        frontier.push(v);
        program.set_coupling(u, v, 2.0);
    }
    for &u in &patch {
        for v in hardware.neighbors(u) {
            if in_patch[v] && u < v && program.coupling(u, v) == 0.0 && rng.gen_bool(0.6) {
                program.set_coupling(u, v, rng.gen_range(-1.0..1.0));
            }
        }
        if rng.gen_bool(0.66) {
            program.set_field(u, rng.gen_range(-1.0..1.0));
        }
    }
    // Zero-valued writes: a coupler set to zero outright, and one built up
    // and cancelled, between idle qubits next to the patch.
    let outside: Vec<usize> = patch
        .iter()
        .flat_map(|&u| hardware.neighbors(u))
        .filter(|&v| !in_patch[v])
        .collect();
    if let Some(&q) = outside.first() {
        for w in hardware.neighbors(q).filter(|&w| !in_patch[w]).take(2) {
            program.set_coupling(q, w, 0.0);
            program.add_coupling(q, w, 0.5);
            program.add_coupling(q, w, -0.5);
            program.set_field(w, 0.0);
        }
    }
    program
}

fn cases() -> Vec<Case> {
    let full = full_register();
    let faulted = faulted_register();
    let mut field_only = Ising::new(full.vertex_count());
    for (k, q) in [3usize, 90, 517, 1151].into_iter().enumerate() {
        field_only.set_field(q, if k % 2 == 0 { 0.75 } else { -1.25 });
    }
    let dense = Ising::random_on_graph(&generators::gnp(16, 0.4, 5), 6);
    let case = |name, program, sa_sweeps, pt_sweeps_per_exchange| Case {
        name,
        program,
        sa_sweeps,
        pt_sweeps_per_exchange,
    };
    vec![
        case("patch6", embedded_program(&full, 6, 1), 256, 8),
        case("patch40", embedded_program(&full, 40, 2), 256, 8),
        case("patch40-odd", embedded_program(&full, 40, 3), 255, 7),
        case("patch42-faulted", embedded_program(&faulted, 42, 4), 256, 8),
        case(
            "patch42-faulted-odd",
            embedded_program(&faulted, 42, 5),
            33,
            5,
        ),
        case(
            "patch100-faulted",
            embedded_program(&faulted, 100, 6),
            128,
            4,
        ),
        case("patch200-odd", embedded_program(&full, 200, 7), 129, 3),
        case("fields-only", field_only, 65, 3),
        case("idle-register", Ising::new(full.vertex_count()), 64, 4),
        case("idle-register-odd", Ising::new(full.vertex_count()), 63, 5),
        case("empty", Ising::new(0), 32, 3),
        case("dense-G(16,0.4)", dense, 97, 6),
    ]
}

/// Spins with a nonzero field or a nonzero coupling.
fn active_spins(program: &Ising) -> usize {
    let mut active: Vec<bool> = program.fields().map(|h| h != 0.0).collect();
    for ((u, v), j) in program.couplings() {
        if j != 0.0 {
            active[u] = true;
            active[v] = true;
        }
    }
    active.into_iter().filter(|&a| a).count()
}

/// FNV-1a over every record's spins, energy bits and multiplicity, in order.
fn digest(set: &SampleSet) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for record in &set.records {
        let spins: Vec<u8> = record.spins.iter().map(|&s| s as u8).collect();
        mix(&spins);
        mix(&record.energy.to_bits().to_le_bytes());
        mix(&(record.occurrences as u64).to_le_bytes());
    }
    hash
}

fn measure() -> Vec<Row> {
    cases()
        .into_iter()
        .enumerate()
        .map(|(k, case)| {
            // The pipeline's energy scale: the program's largest parameter.
            let scale = case
                .program
                .max_abs_field()
                .max(case.program.max_abs_coupling())
                .max(1.0);
            let params = SampleParams::new(READS, 100 + k as u64).with_energy_scale(scale);
            let sa =
                SimulatedQpu::with_schedule(AnnealSchedule::default().with_sweeps(case.sa_sweeps));
            let (sa_set, sa_report) =
                SamplerBackend::sample_with_report(&sa, &case.program, &params)
                    .expect("SA samples every program");
            let pt = ParallelTemperingBackend::with_config(PtConfig {
                replicas: 4,
                sweeps_per_exchange: case.pt_sweeps_per_exchange,
                rounds: 6,
                ..PtConfig::default()
            });
            let (pt_set, pt_report) = pt
                .sample_with_report(&case.program, &params)
                .expect("PT samples every program");
            (
                case.name,
                active_spins(&case.program),
                digest(&sa_set),
                sa_report.updates,
                digest(&pt_set),
                pt_report.updates,
            )
        })
        .collect()
}

#[test]
fn sampler_outputs_match_the_pinned_table() {
    let measured = measure();
    if measured != GOLDEN {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for row in &measured {
            table.push_str(&format!("    {row:?},\n"));
        }
        table.push_str("];");
        panic!("sampler outputs differ from the pinned table; measured:\n{table}");
    }
}

#[test]
fn the_cases_have_the_pipeline_shape() {
    let cases = cases();
    assert_eq!(GOLDEN.len(), cases.len());
    let register = full_register().vertex_count();
    let sparse = cases
        .iter()
        .filter(|c| c.program.num_spins() == register && active_spins(&c.program) <= 200)
        .count();
    assert!(sparse >= cases.len() - 2, "{sparse} sparse programs");
    assert!(cases.iter().any(|c| c.sa_sweeps % 2 == 1));
    assert!(cases.iter().any(|c| c.pt_sweeps_per_exchange % 2 == 1));
    assert!(cases
        .iter()
        .any(|c| c.program.fields().filter(|&h| h == 0.0).count() > 0
            && active_spins(&c.program) > 0));
}

//! Golden outputs of the executable pipeline, pinned bit for bit.
//!
//! The table below fixes what [`Pipeline::execute`] returns for a set of
//! small QUBOs on the simulated-annealing, parallel-tempering and exact
//! backends, on the paper's machine, a faulted one and a single unit cell:
//! a digest of the report (the assignment, the QUBO and Ising energy bits,
//! every `SampleSet` record, the read and update counts, the chain breaks,
//! the embedding's chains, the cache-hit flag and the CMR work counters),
//! or the `Display` text of the error.  It also fixes one batch: its job,
//! success and embedding-table counts and every job's digest.  A refactor
//! of the run path must reproduce the table exactly.  A change that alters
//! what the pipeline computes re-records it: the failure message prints the
//! whole table as measured, ready to paste over `GOLDEN`.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::{QpuModel, SplitMachine};
use crate::offline_cache::EmbeddingCache;
use crate::pipeline::{ExecutionReport, Pipeline};
use chimera_graph::{generators, Chimera, FaultModel, Graph};
use quantum_anneal::BackendKind;
use qubo_ising::prelude::{MaxCut, NumberPartition, VertexCover};
use qubo_ising::Qubo;

/// One pinned line: `(case, digest or error text)`.
type Row = (&'static str, &'static str);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("c8-sa", "0x7ca13cfa66337a1f"),
    ("c8-pt", "0x9beef3df1cbc59dd"),
    ("c8-exact", "0x9f5fbc1f061b0540"),
    ("partition5-sa", "0x5040e840787af19d"),
    ("cover-grid2x3-pt", "0x9799ccec1f31aed3"),
    ("gnp7-faulted-sa", "0x3733bd37c4033cf5"),
    ("c6-unit-cell-sa", "0x99116c713b80ac56"),
    ("k4-unit-cell-exact", "0xb59d70de26f12bbc"),
    ("k6-unit-cell-sa", "error: embedding error: no overlap-free embedding found after 10 passes (1260 Dijkstra calls, 40320 edge relaxations)"),
    ("c30-exact", "error: sampler-backend error: program of 102 spins exceeds the backend capacity of 24"),
    ("empty-sa", "error: bad input: the QUBO instance has no variables"),
    ("batch", "8 jobs, 4 succeeded, 4 failed, 4 misses, 7 hits"),
    ("batch[0]", "0xff713ab1700ae131"),
    ("batch[1]", "error: embedding error: no overlap-free embedding found after 10 passes (1260 Dijkstra calls, 40320 edge relaxations)"),
    ("batch[2]", "0xc074ffad146231b5"),
    ("batch[3]", "error: bad input: the QUBO instance has no variables"),
    ("batch[4]", "0xdcf39be6ddbe4fd8"),
    ("batch[5]", "error: embedding error: no overlap-free embedding found after 10 passes (1260 Dijkstra calls, 40320 edge relaxations)"),
    ("batch[6]", "error: embedding error: hardware too small: needs at least 9 usable qubits, has 8"),
    ("batch[7]", "0xbc56faac6e353d01"),
];

/// FNV-1a, fed field by field.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// The digest of a report, or the error's text.
fn pin(result: &Result<ExecutionReport, PipelineError>) -> String {
    let report = match result {
        Ok(report) => report,
        Err(err) => return format!("error: {err}"),
    };
    let mut d = Digest::new();
    let solution = &report.solution;
    let assignment: Vec<u8> = solution.assignment.iter().map(|&b| b as u8).collect();
    d.bytes(&assignment);
    d.word(solution.qubo_energy.to_bits());
    d.word(solution.ising_energy.to_bits());
    d.word(solution.distinct_solutions as u64);
    let stage2 = &report.stage2;
    d.bytes(stage2.backend.as_bytes());
    for record in &stage2.samples.records {
        let spins: Vec<u8> = record.spins.iter().map(|&s| s as u8).collect();
        d.bytes(&spins);
        d.word(record.energy.to_bits());
        d.word(record.occurrences as u64);
    }
    d.word(stage2.reads as u64);
    d.word(stage2.access.reads as u64);
    d.word(stage2.access.updates);
    d.word(stage2.observed_success.to_bits());
    d.word(report.stage3.chain_breaks as u64);
    let stage1 = &report.stage1;
    for (_, chain) in stage1.embedded.embedding.iter() {
        d.word(chain.len() as u64);
        for &qubit in chain {
            d.word(qubit as u64);
        }
    }
    d.word(u64::from(stage1.embedding_cache_hit));
    let stats = &stage1.embedding_stats;
    d.word(stats.dijkstra_calls);
    d.word(stats.edge_relaxations);
    d.word(stats.passes_used as u64);
    d.word(stats.tries_used as u64);
    format!("{:#018x}", d.0)
}

/// MAX-CUT on `graph` with integer weights in `1..=5` varied by `salt`.
fn weighted_maxcut(graph: Graph, salt: usize) -> Qubo {
    let weights: Vec<((usize, usize), f64)> = graph
        .edges()
        .map(|(u, v)| ((u, v), 1.0 + ((salt + u + 2 * v) % 5) as f64))
        .collect();
    MaxCut::weighted(graph.clone(), &weights).to_qubo()
}

fn pipeline(machine: SplitMachine, seed: u64, backend: BackendKind) -> Pipeline {
    Pipeline::new(
        machine,
        SplitExecConfig::with_seed(seed).with_backend(backend),
    )
}

fn faulted_machine() -> SplitMachine {
    let chimera = Chimera::new(12, 12, 4);
    let faults = FaultModel::exact_dead_qubits(chimera.graph(), 20, 2016);
    SplitMachine::with_faults(QpuModel::Dw2x, faults)
}

/// The solo cases: a name, a pipeline and one job.
fn cases() -> Vec<(&'static str, Pipeline, Qubo)> {
    use BackendKind::{Exact, ParallelTempering as Pt, SimulatedAnnealing as Sa};
    let paper = SplitMachine::paper_default;
    let c8 = || MaxCut::unweighted(generators::cycle(8)).to_qubo();
    let mut accurate = pipeline(paper(), 11, Sa);
    accurate.config = accurate.config.with_accuracy(0.999_999);
    vec![
        ("c8-sa", pipeline(paper(), 7, Sa), c8()),
        ("c8-pt", pipeline(paper(), 7, Pt), c8()),
        ("c8-exact", pipeline(paper(), 7, Exact), c8()),
        (
            "partition5-sa",
            accurate,
            NumberPartition::new(vec![5.0, 4.0, 3.0, 2.0, 2.0]).to_qubo(),
        ),
        (
            "cover-grid2x3-pt",
            pipeline(paper(), 5, Pt),
            VertexCover::new(generators::grid(2, 3)).to_qubo(),
        ),
        (
            "gnp7-faulted-sa",
            pipeline(faulted_machine(), 9, Sa),
            weighted_maxcut(generators::gnp(7, 0.5, 3), 1),
        ),
        (
            "c6-unit-cell-sa",
            pipeline(SplitMachine::unit_cell(), 3, Sa),
            weighted_maxcut(generators::cycle(6), 2),
        ),
        (
            "k4-unit-cell-exact",
            pipeline(SplitMachine::unit_cell(), 3, Exact),
            weighted_maxcut(generators::complete(4), 3),
        ),
        (
            "k6-unit-cell-sa",
            pipeline(SplitMachine::unit_cell(), 1, Sa),
            MaxCut::unweighted(generators::complete(6)).to_qubo(),
        ),
        (
            "c30-exact",
            pipeline(paper(), 1, Exact),
            MaxCut::unweighted(generators::cycle(30)).to_qubo(),
        ),
        ("empty-sa", pipeline(paper(), 1, Sa), Qubo::new(0)),
    ]
}

/// The batch case: repeats of topologies that embed (C4, C6) and that
/// fail (K6 after a CMR search, K9 rejected outright), plus an empty job,
/// on one unit cell.
fn batch_jobs() -> Vec<Qubo> {
    vec![
        weighted_maxcut(generators::cycle(4), 0),
        weighted_maxcut(generators::complete(6), 0),
        weighted_maxcut(generators::cycle(6), 0),
        Qubo::new(0),
        weighted_maxcut(generators::cycle(4), 1),
        weighted_maxcut(generators::complete(6), 1),
        weighted_maxcut(generators::complete(9), 0),
        weighted_maxcut(generators::cycle(6), 1),
    ]
}

fn measure() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = cases()
        .into_iter()
        .map(|(name, pipeline, qubo)| (name.to_string(), pin(&pipeline.execute(&qubo))))
        .collect();
    let batch = pipeline(
        SplitMachine::unit_cell(),
        3,
        BackendKind::SimulatedAnnealing,
    )
    .execute_batch(&batch_jobs(), &EmbeddingCache::new());
    let summary = &batch.summary;
    rows.push((
        "batch".to_string(),
        format!(
            "{} jobs, {} succeeded, {} failed, {} misses, {} hits",
            summary.jobs,
            summary.succeeded,
            summary.failed,
            summary.embedding_cache.misses,
            summary.embedding_cache.hits
        ),
    ));
    for (job, result) in batch.results.iter().enumerate() {
        rows.push((format!("batch[{job}]"), pin(result)));
    }
    rows
}

#[test]
fn pipeline_outputs_match_the_pinned_table() {
    let measured = measure();
    let pinned: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(name, value)| (name.to_string(), value.to_string()))
        .collect();
    if measured != pinned {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for row in &measured {
            table.push_str(&format!("    {row:?},\n"));
        }
        table.push_str("];");
        panic!("pipeline outputs differ from the pinned table; measured:\n{table}");
    }
}

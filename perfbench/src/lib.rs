//! The repository's benchmark: three workloads, each driven through the
//! program's public crates (see `adapter.rs`, the only file that calls
//! them), with output checks, an end-to-end metric set and a traced run
//! that reports per-layer metrics.  `README.md` describes the workloads and
//! metrics; `main.rs` is the command line.

pub mod adapter;
pub mod pace;

use std::time::Instant;

use adapter::{
    ClusterLayers, FleetPlan, PipelineLayers, PipelineRunner, Problem, SimInput, SimOutcome,
    SimPolicy, SimShape, Solution, Topology,
};
use pace::Pace;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["pipeline_mix", "sim_overload", "sim_large_fleet"];

/// The seed a claim is developed against.  `README.md` names the held-out
/// seed a claim is confirmed on.
pub const DEFAULT_SEED: u64 = 1;

/// How much work one run does.  Every amount is fixed by the run's
/// `--seconds`, never by the clock, so the same seed and seconds give the
/// same work — and the same counters — on every commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Times the set-up phase is repeated (its median is `setup_s`).
    pub setup_repeats: usize,
    /// Jobs in `pipeline_mix`'s timed phase.
    pub pipeline_jobs: usize,
    /// Cells (independent simulations) in `sim_overload`.
    pub overload_cells: usize,
    /// Jobs per `sim_overload` cell.
    pub overload_jobs: usize,
    /// Cells in `sim_large_fleet`.
    pub large_cells: usize,
    /// Jobs per `sim_large_fleet` cell.
    pub large_jobs: usize,
    /// Devices in a `sim_large_fleet` fleet.
    pub large_qpus: usize,
}

impl Sizes {
    /// The sizes for a run of about `seconds` seconds of measured work on
    /// a host like the one `README.md` reports.
    pub fn for_seconds(seconds: u64) -> Sizes {
        let seconds = seconds.max(1) as usize;
        Sizes {
            setup_repeats: 3,
            pipeline_jobs: 24 * seconds,
            overload_cells: 2 * seconds,
            overload_jobs: 1_000,
            large_cells: seconds.div_ceil(5),
            large_jobs: 50_000,
            large_qpus: 1_024,
        }
    }

    /// A reduced size for the repeatability test.
    pub fn reduced() -> Sizes {
        Sizes {
            setup_repeats: 1,
            pipeline_jobs: 24,
            overload_cells: 1,
            overload_jobs: 400,
            large_cells: 1,
            large_jobs: 2_000,
            large_qpus: 64,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run that passed every output check.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Jobs not solved (pipeline) or not completed (simulator).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// The value of the metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The report as the one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `workload` with inputs from `seed`; `traced` selects the per-layer
/// run.  An `Err` lists every output check that failed.
pub fn run(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
) -> Result<RunReport, Vec<String>> {
    adapter::single_threaded(|| match workload {
        "pipeline_mix" => pipeline_mix(seed, sizes, traced),
        "sim_overload" => sim_workload(&overload_shape(sizes), sizes.overload_cells, seed, traced),
        "sim_large_fleet" => {
            sim_workload(&large_fleet_shape(sizes), sizes.large_cells, seed, traced)
        }
        other => Err(vec![format!("unknown workload '{other}'")]),
    })
}

// ---------------------------------------------------------------------------
// Small helpers: seeded draws, statistics, process memory
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's own seeded stream for input generation.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed<R>(op: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// pipeline_mix
// ---------------------------------------------------------------------------

/// The pipeline's own configuration seed (CMR restarts, sampler streams).
/// It is part of the program's set-up, not of its input, and stays fixed so
/// that a topology CMR fails on fails on every run.
const PIPELINE_CONFIG_SEED: u64 = 7;

/// The generated inputs of one `pipeline_mix` run.
struct PipelineInputs {
    /// One instance per catalog topology, embedded during set-up.
    catalog: Vec<Problem>,
    /// The timed jobs, in submission order.
    jobs: Vec<Problem>,
    /// Exact optimum of each job.
    optima: Vec<f64>,
    /// The matrix of each job, for the independent energy check.
    matrices: Vec<Vec<f64>>,
}

fn draw_problem(topology: &Topology, rng: &mut Rng) -> Problem {
    let draws: Vec<f64> = (0..topology.draws()).map(|_| rng.unit()).collect();
    Problem::new(topology, &draws)
}

/// The catalog: the topologies the embedding table holds before timing.
/// It is the same on every run (the operator's known problem families);
/// the run's seed draws their coefficients.
fn catalog_topologies() -> Vec<Topology> {
    vec![
        Topology::Cycle(12),
        Topology::Cycle(16),
        Topology::Regular {
            n: 12,
            degree: 3,
            seed: 11,
        },
        Topology::Regular {
            n: 16,
            degree: 3,
            seed: 12,
        },
        Topology::Gnp {
            n: 12,
            p: 0.3,
            seed: 13,
        },
        Topology::Gnp {
            n: 16,
            p: 0.25,
            seed: 15,
        },
        Topology::Grid { rows: 3, cols: 4 },
        Topology::Grid { rows: 4, cols: 4 },
        Topology::Partition(5),
        Topology::Partition(6),
    ]
}

/// The `slot`-th cold topology: the catalog's families in turn, with
/// sizes on a fixed rotation and fresh graph seeds.
fn fresh_topology(slot: usize, rng: &mut Rng) -> Topology {
    let turn = slot / 5;
    match slot % 5 {
        0 => Topology::Cycle([10, 14, 18, 20][turn % 4]),
        1 => Topology::Regular {
            n: [14, 18][turn % 2],
            degree: 3,
            seed: rng.next_u64(),
        },
        2 => Topology::Gnp {
            n: [14, 16][turn % 2],
            p: 0.25,
            seed: rng.next_u64(),
        },
        3 => Topology::Grid {
            rows: 3,
            cols: [5, 6][turn % 2],
        },
        _ => Topology::Partition([7, 8, 9][turn % 3]),
    }
}

impl PipelineInputs {
    fn generate(seed: u64, jobs: usize) -> PipelineInputs {
        let mut rng = Rng::new(seed, 1);
        let topologies = catalog_topologies();
        let catalog = topologies
            .iter()
            .map(|t| draw_problem(t, &mut rng))
            .collect();
        // Three warm re-solves of catalog topologies, then one cold job on
        // a fresh topology, cycling through the families.
        let jobs: Vec<Problem> = (0..jobs)
            .map(|i| {
                if i % 4 == 3 {
                    draw_problem(&fresh_topology(i / 4, &mut rng), &mut rng)
                } else {
                    draw_problem(&topologies[(i - i / 4) % topologies.len()], &mut rng)
                }
            })
            .collect();
        let matrices: Vec<Vec<f64>> = jobs.iter().map(Problem::matrix).collect();
        let optima = jobs
            .iter()
            .zip(&matrices)
            .map(|(job, q)| exact_minimum(q, job.variables()))
            .collect();
        PipelineInputs {
            catalog,
            jobs,
            optima,
            matrices,
        }
    }
}

/// Exact minimum of `bᵀQb` over all assignments, by Gray-code enumeration
/// (O(2ⁿ·n)); the reference the pipeline's answers are checked against.
fn exact_minimum(q: &[f64], n: usize) -> f64 {
    // field[i] = Σ_{j≠i} 2·Q_ij·b_j, so flipping b_k changes the energy by
    // ±(Q_kk + field[k]).
    let mut field = vec![0.0; n];
    let mut bits = vec![false; n];
    let (mut energy, mut best) = (0.0_f64, 0.0_f64);
    for step in 1..(1u64 << n) {
        let k = step.trailing_zeros() as usize;
        let delta = q[k * n + k] + field[k];
        bits[k] = !bits[k];
        let sign = if bits[k] { 1.0 } else { -1.0 };
        energy += sign * delta;
        for (j, f) in field.iter_mut().enumerate() {
            if j != k {
                *f += sign * 2.0 * q[j * n + k];
            }
        }
        best = best.min(energy);
    }
    best
}

fn quadratic_form(q: &[f64], bits: &[bool]) -> f64 {
    let n = bits.len();
    let mut total = 0.0;
    for i in (0..n).filter(|&i| bits[i]) {
        for j in (0..n).filter(|&j| bits[j]) {
            total += q[i * n + j];
        }
    }
    total
}

/// How a job's answer compares with the exact optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Optimal,
    Suboptimal,
    Failed,
}

/// Check one job's answer; an inconsistent answer is pushed to `errors`.
fn judge(
    index: usize,
    inputs: &PipelineInputs,
    outcome: &Result<Solution, String>,
    errors: &mut Vec<String>,
) -> Verdict {
    let Ok(solution) = outcome else {
        return Verdict::Failed;
    };
    let job = &inputs.jobs[index];
    let optimum = inputs.optima[index];
    let tolerance = 1e-6 * optimum.abs().max(1.0);
    if solution.assignment.len() != job.variables() {
        errors.push(format!(
            "job {index}: assignment has {} bits, the job has {} variables",
            solution.assignment.len(),
            job.variables()
        ));
        return Verdict::Failed;
    }
    let recomputed = quadratic_form(&inputs.matrices[index], &solution.assignment);
    if (solution.qubo_energy - recomputed).abs() > tolerance {
        errors.push(format!(
            "job {index}: reported qubo_energy {} but the assignment's energy is {recomputed}",
            solution.qubo_energy
        ));
        return Verdict::Failed;
    }
    if recomputed < optimum - tolerance {
        errors.push(format!(
            "job {index}: energy {recomputed} is below the exact optimum {optimum}"
        ));
        return Verdict::Failed;
    }
    if recomputed <= optimum + tolerance {
        Verdict::Optimal
    } else {
        Verdict::Suboptimal
    }
}

fn pipeline_mix(seed: u64, sizes: &Sizes, traced: bool) -> Result<RunReport, Vec<String>> {
    let inputs = PipelineInputs::generate(seed, sizes.pipeline_jobs);

    // Set-up: build the machine and fill the offline embedding table with
    // the catalog, several times; the last one serves the timed phase.
    let mut pace = Pace::new();
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..sizes.setup_repeats.max(1) {
        let (built, _, seconds) = pace.around(|| {
            timed(|| {
                let runner = PipelineRunner::new(PIPELINE_CONFIG_SEED);
                let catalog = runner.fill_catalog(&inputs.catalog);
                catalog.map(|catalog| (runner, catalog))
            })
        });
        setup.push(seconds);
        prepared = Some(built.map_err(|err| vec![err])?);
    }
    let (runner, catalog) = prepared.expect("at least one set-up ran");

    // Timed phase: one client, closed loop.
    let (outcomes, job_s) = pace.each(&inputs.jobs, |job| runner.solve(&catalog, job));
    let latencies_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    let timed_s: f64 = job_s.iter().sum();

    let mut errors = Vec::new();
    let verdicts: Vec<Verdict> = (0..inputs.jobs.len())
        .map(|i| judge(i, &inputs, &outcomes[i], &mut errors))
        .collect();
    let attempted = inputs.jobs.len() as u64;
    let count = |verdict| verdicts.iter().filter(|&&v| v == verdict).count() as u64;
    let (optimal, failed) = (count(Verdict::Optimal), count(Verdict::Failed));
    let jobs_per_s = attempted as f64 / timed_s;

    if !traced {
        if !errors.is_empty() {
            return Err(errors);
        }
        return Ok(RunReport {
            attempted,
            failed,
            metrics: vec![
                metric("setup_s", median(&setup), "s"),
                metric("jobs_per_s", jobs_per_s, "1/s"),
                metric("lat_ms", percentile(&latencies_ms, 0.5), "ms"),
                metric("tail_ms", percentile(&latencies_ms, 0.9), "ms"),
                metric(
                    "ok_frac",
                    (attempted - failed) as f64 / attempted as f64,
                    "1",
                ),
                metric("peak_rss_mb", proc_status_mb("VmHWM"), "MB"),
            ],
        });
    }

    // Traced run: the same jobs on a fresh copy of the same table, stage by
    // stage, each layer inside a span.
    let catalog = runner
        .fill_catalog(&inputs.catalog)
        .map_err(|err| vec![err])?;
    let traced_runner = runner.traced();
    let mut layers = PipelineLayers::default();
    let (traced_outcomes, traced_job_s) = pace.each(&inputs.jobs, |job| {
        traced_runner.solve(&catalog, job, &mut layers)
    });
    let traced_s: f64 = traced_job_s.iter().sum();
    for (i, (a, b)) in outcomes.iter().zip(&traced_outcomes).enumerate() {
        let same = match (a, b) {
            (Ok(a), Ok(b)) => {
                a.assignment == b.assignment && a.qubo_energy.to_bits() == b.qubo_energy.to_bits()
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            errors.push(format!(
                "job {i}: the traced run returned {b:?}, the untraced run {a:?}"
            ));
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    let mut metrics = pipeline_layer_metrics(&layers, optimal as f64 / attempted as f64);
    metrics.extend(cluster_layer_metrics(
        &ClusterLayers::default(),
        &ClusterTotals::default(),
    ));
    metrics.push(metric(
        "trace.overhead",
        (attempted as f64 / traced_s) / jobs_per_s,
        "1",
    ));
    metrics.push(metric("host.ref_ms", pace.median_s() * 1e3, "ms"));
    Ok(RunReport {
        attempted,
        failed,
        metrics,
    })
}

fn pipeline_layer_metrics(layers: &PipelineLayers, optimal_frac: f64) -> Vec<Metric> {
    vec![
        metric("splitexec.stage1_s", layers.stage1_s, "s"),
        metric("qubo.convert_s", layers.convert_s, "s"),
        metric("embedding.cmr_s", layers.cmr_s, "s"),
        metric("embedding.param_s", layers.param_s, "s"),
        metric("embedding.cmr_calls", layers.cmr_calls as f64, "count"),
        metric("embedding.cmr_fail", layers.cmr_fail as f64, "count"),
        metric(
            "embedding.dijkstra_calls",
            layers.dijkstra_calls as f64,
            "count",
        ),
        metric("embedding.relaxations", layers.relaxations as f64, "count"),
        metric("embedding.qubits", layers.qubits as f64, "count"),
        metric("splitexec.stage2_s", layers.stage2_s, "s"),
        metric("annealer.s", layers.annealer_s, "s"),
        metric("annealer.reads", layers.reads as f64, "count"),
        metric("annealer.updates", layers.updates as f64, "count"),
        metric("splitexec.stage3_s", layers.stage3_s, "s"),
        metric(
            "splitexec.readout_chain_breaks",
            layers.chain_breaks as f64,
            "count",
        ),
        metric("splitexec.cache_hits", layers.cache_hits as f64, "count"),
        metric(
            "splitexec.cache_misses",
            layers.cache_misses as f64,
            "count",
        ),
        metric("splitexec.optimal_frac", optimal_frac, "1"),
    ]
}

// ---------------------------------------------------------------------------
// sim_overload and sim_large_fleet
// ---------------------------------------------------------------------------

/// 64 uniform DW2X QPUs under cache affinity, admit-all, unbounded caches,
/// offered 1.5× their warm capacity.
fn overload_shape(sizes: &Sizes) -> SimShape {
    SimShape {
        qpus: 64,
        heterogeneous: false,
        cache_capacity: None,
        load: 1.5,
        jobs: sizes.overload_jobs,
        asymmetry: 3.0,
        policy: SimPolicy::AffinityAdmitAll,
    }
}

/// A 1,024-device mixed-generation fleet with 4-entry cost-aware caches,
/// at load 0.7 under WFQ, with a token bucket that budgets the aggressor.
fn large_fleet_shape(sizes: &Sizes) -> SimShape {
    SimShape {
        qpus: sizes.large_qpus,
        heterogeneous: true,
        cache_capacity: Some(4),
        load: 0.7,
        jobs: sizes.large_jobs,
        asymmetry: 3.0,
        policy: SimPolicy::WfqTokenBucket {
            aggressor_share: 0.5,
        },
    }
}

/// Per-run simulator figures that are not engine-decorator counts.
#[derive(Debug, Clone, Default)]
struct ClusterTotals {
    loop_s: f64,
    calibrate_s: f64,
    fleet_build_s: f64,
    fleet_rss_mb: f64,
    events: u64,
    shed: u64,
    deferrals: u64,
    cache_hit_rate: f64,
    cache_evictions: u64,
    cold_embeds: u64,
}

fn cluster_layer_metrics(layers: &ClusterLayers, totals: &ClusterTotals) -> Vec<Metric> {
    vec![
        metric("cluster.calibrate_s", totals.calibrate_s, "s"),
        metric("cluster.fleet_build_s", totals.fleet_build_s, "s"),
        metric("cluster.fleet_rss_mb", totals.fleet_rss_mb, "MB"),
        metric("cluster.loop_s", totals.loop_s, "s"),
        metric("cluster.sched_calls", layers.sched_calls as f64, "count"),
        metric("cluster.sched_s", layers.sched_s, "s"),
        metric(
            "cluster.sched_assigned",
            layers.sched_assigned as f64,
            "count",
        ),
        metric(
            "cluster.sched_queue_seen",
            layers.sched_queue_seen as f64,
            "count",
        ),
        metric("cluster.admit_calls", layers.admit_calls as f64, "count"),
        metric("cluster.admit_s", layers.admit_s, "s"),
        metric("cluster.admit_shed", totals.shed as f64, "count"),
        metric("cluster.admit_deferred", totals.deferrals as f64, "count"),
        metric("cluster.engine_events", totals.events as f64, "count"),
        metric(
            "cluster.engine_self_s",
            (totals.loop_s - layers.sched_s - layers.admit_s).max(0.0),
            "s",
        ),
        metric("cluster.sink_records", layers.sink_records as f64, "count"),
        metric("cluster.cache_hit_rate", totals.cache_hit_rate, "1"),
        metric(
            "cluster.cache_evictions",
            totals.cache_evictions as f64,
            "count",
        ),
        metric("cluster.cold_embeds", totals.cold_embeds as f64, "count"),
    ]
}

/// Check one simulation's conservation and latency figures.
fn check_sim(label: &str, outcome: &SimOutcome, errors: &mut Vec<String>) {
    if outcome.completed + outcome.shed + outcome.rejected != outcome.jobs {
        errors.push(format!(
            "{label}: completed {} + shed {} + rejected {} != jobs {}",
            outcome.completed, outcome.shed, outcome.rejected, outcome.jobs
        ));
    }
    if outcome.latency_stats.iter().any(|v| !v.is_finite()) {
        errors.push(format!(
            "{label}: non-finite latency statistic {:?}",
            outcome.latency_stats
        ));
    }
}

fn sim_workload(
    shape: &SimShape,
    cells: usize,
    seed: u64,
    traced: bool,
) -> Result<RunReport, Vec<String>> {
    let mut errors = Vec::new();
    let mut setup = Vec::new();
    let mut totals = ClusterTotals::default();
    let mut layers = ClusterLayers::default();
    let (mut traced_loop_s, mut jobs, mut completed) = (0.0, 0u64, 0u64);
    let (mut means, mut p99s, mut hit_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut pace = Pace::new();
    let mut rng = Rng::new(seed, 3);
    for cell in 0..cells.max(1) {
        let cell_seed = rng.next_u64() % 1_000_000_007;
        let plan = FleetPlan::new(shape, cell_seed);
        let rss_before = proc_status_mb("VmRSS");
        let (rate, calibrate_s, calibrate_scaled) = pace.around(|| timed(|| plan.calibrate(shape)));
        if cell == 0 {
            totals.fleet_rss_mb = proc_status_mb("VmHWM") - rss_before;
        }
        let rate = rate.map_err(|err| vec![format!("calibration failed: {err}")])?;
        let input = SimInput::generate(shape, rate, cell_seed);
        let (fleet, _, build_scaled) = pace.around(|| timed(|| plan.build()));
        setup.push(calibrate_scaled + build_scaled);
        totals.calibrate_s += calibrate_s;

        let (outcome, _, loop_scaled) = pace.around(|| adapter::simulate(fleet, &input));
        let label = format!("cell {cell} (seed {cell_seed})");
        check_sim(&label, &outcome, &mut errors);
        untraced_s += loop_scaled;
        jobs += outcome.jobs as u64;
        completed += outcome.completed as u64;
        means.push(outcome.mean_s);
        p99s.push(outcome.p99_s);
        hit_rates.push(outcome.cache_hit_rate);

        if traced {
            let (fleet, build_s) = timed(|| plan.build());
            totals.fleet_build_s += build_s;
            let (again, loop_s, loop_scaled) =
                pace.around(|| adapter::simulate_traced(fleet, &input, &mut layers));
            traced_loop_s += loop_s;
            traced_s += loop_scaled;
            if !again.same_report(&outcome) {
                errors.push(format!(
                    "{label}: the traced run's SimReport differs from the untraced run's"
                ));
            }
            totals.events += outcome.events as u64;
            totals.shed += outcome.shed as u64;
            totals.deferrals += outcome.deferrals as u64;
            totals.cache_evictions += outcome.cache_evictions as u64;
            totals.cold_embeds += outcome.cold_embeds as u64;
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    let jobs_per_s = jobs as f64 / untraced_s;
    if !traced {
        return Ok(RunReport {
            attempted: jobs,
            failed: jobs - completed,
            metrics: vec![
                metric("setup_s", median(&setup), "s"),
                metric("jobs_per_s", jobs_per_s, "1/s"),
                metric("lat_ms", mean(&means) * 1e3, "ms"),
                metric("tail_ms", mean(&p99s) * 1e3, "ms"),
                metric("ok_frac", completed as f64 / jobs as f64, "1"),
                metric("peak_rss_mb", proc_status_mb("VmHWM"), "MB"),
            ],
        });
    }
    totals.cache_hit_rate = mean(&hit_rates);
    totals.loop_s = traced_loop_s;
    let mut metrics = pipeline_layer_metrics(&PipelineLayers::default(), 0.0);
    metrics.extend(cluster_layer_metrics(&layers, &totals));
    metrics.push(metric("trace.overhead", untraced_s / traced_s, "1"));
    metrics.push(metric("host.ref_ms", pace.median_s() * 1e3, "ms"));
    Ok(RunReport {
        attempted: jobs,
        failed: jobs - completed,
        metrics,
    })
}

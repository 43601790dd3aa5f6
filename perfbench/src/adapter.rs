//! The one place the benchmark calls into the program.
//!
//! Everything else in the benchmark — input generation, timing, output
//! checks, statistics and the JSON report — works on the plain types this
//! file exposes.  When the program's public API changes (one engine entry
//! point, a single run description, ...), this file is the one to edit.
//!
//! The traced variants wrap the program's public layer boundaries from the
//! outside: a timing [`SamplerBackend`] injected with
//! [`Pipeline::with_backend`], spans around the three stage functions, and
//! timing [`Scheduler`] / [`AdmissionController`] decorators plus a counting
//! [`TraceSink`] around the simulator's engine.  None of them changes a
//! decision, so a traced run must reproduce the untraced one exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chimera_graph::{generators, Graph};
use quantum_anneal::{
    QpuAccessReport, QpuTimings, SampleParams, SampleSet, SamplerBackend, SamplerError,
};
use qubo_ising::prelude::{spins_to_bits, MaxCut, NumberPartition, VertexCover};
use qubo_ising::{Ising, Qubo};
use split_exec::prelude::{
    execute_stage1_cached, execute_stage2_with_backend, execute_stage3, EmbeddingCache, Pipeline,
    SplitExecConfig, SplitMachine,
};
use sx_cluster::prelude::{
    simulate_with_telemetry, AdmissionContext, AdmissionController, AdmissionDecision,
    AdmissionSpec, EvictionPolicyKind, Fleet, FleetConfig, Job, LaneOrder, MultiTenantSpec,
    NullSink, PercentileMode, RateCalibration, Scheduler, SchedulerSpec, SimConfig, SimReport,
    TenantId, TokenBucketConfig, TraceRecord, TraceSink, Workload, WorkloadMode,
};

/// Run `op` with every parallel map inside the program pinned to one
/// worker thread: the sampler's reads and CMR's tries otherwise fan out
/// over `available_parallelism()` scoped threads on every call.
pub fn single_threaded<R>(op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon facade's pool build cannot fail")
        .install(op)
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Pipeline side (split_exec, minor_embed, quantum_anneal, qubo_ising)
// ---------------------------------------------------------------------------

/// A logical interaction topology and the problem family posed on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Weighted MAX-CUT on the cycle `C_n`.
    Cycle(usize),
    /// Weighted MAX-CUT on a random (approximately) `degree`-regular graph.
    Regular {
        /// Vertices.
        n: usize,
        /// Target degree.
        degree: usize,
        /// Graph seed.
        seed: u64,
    },
    /// Weighted MAX-CUT on an Erdős–Rényi graph G(n, p).
    Gnp {
        /// Vertices.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Graph seed.
        seed: u64,
    },
    /// Minimum vertex cover on a `rows × cols` grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Number partitioning of `n` numbers (a dense `K_n` interaction graph).
    Partition(usize),
}

impl Topology {
    fn graph(&self) -> Graph {
        match *self {
            Topology::Cycle(n) => generators::cycle(n),
            Topology::Regular { n, degree, seed } => generators::random_regular(n, degree, seed),
            Topology::Gnp { n, p, seed } => generators::gnp(n, p, seed),
            Topology::Grid { rows, cols } => generators::grid(rows, cols),
            Topology::Partition(n) => generators::complete(n),
        }
    }

    /// How many coefficient draws [`Problem::new`] takes for this topology.
    pub fn draws(&self) -> usize {
        match self {
            Topology::Grid { .. } => 1,
            Topology::Partition(n) => *n,
            _ => self.graph().edge_count(),
        }
    }
}

/// One pipeline job: a QUBO built from a topology and fresh coefficients.
#[derive(Debug, Clone)]
pub struct Problem {
    qubo: Qubo,
}

impl Problem {
    /// Pose the topology's problem with coefficients taken from `draws`
    /// (uniform in `[0, 1)`, [`Topology::draws`] of them): integer edge
    /// weights in `1..=4` for MAX-CUT, a penalty in {2, 2.5, 3} for vertex
    /// cover, integers in `1..=20` for number partitioning.
    pub fn new(topology: &Topology, draws: &[f64]) -> Problem {
        assert_eq!(draws.len(), topology.draws(), "coefficient draw count");
        let graph = topology.graph();
        let qubo = match topology {
            Topology::Grid { .. } => VertexCover::new(graph)
                .with_penalty(2.0 + 0.5 * (3.0 * draws[0]).floor())
                .to_qubo(),
            Topology::Partition(_) => {
                NumberPartition::new(draws.iter().map(|u| 1.0 + (20.0 * u).floor()).collect())
                    .to_qubo()
            }
            _ => {
                let weights: Vec<((usize, usize), f64)> = graph
                    .edges()
                    .zip(draws)
                    .map(|(edge, u)| (edge, 1.0 + (4.0 * u).floor()))
                    .collect();
                MaxCut::weighted(graph, &weights).to_qubo()
            }
        };
        Problem { qubo }
    }

    /// Number of binary variables.
    pub fn variables(&self) -> usize {
        self.qubo.num_variables()
    }

    /// The dense symmetric matrix `Q` (row-major, `n × n`), whose quadratic
    /// form `bᵀQb` is the objective.
    pub fn matrix(&self) -> Vec<f64> {
        let n = self.variables();
        (0..n * n).map(|k| self.qubo.get(k / n, k % n)).collect()
    }
}

/// What one solved pipeline job returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The best assignment found.
    pub assignment: Vec<bool>,
    /// Its objective value as the program reported it.
    pub qubo_energy: f64,
}

/// The offline embedding table of paper Sec. 3.3.
#[derive(Debug, Default)]
pub struct Catalog {
    cache: EmbeddingCache,
}

/// The split-execution pipeline on the paper's default machine.
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    pipeline: Pipeline,
}

impl PipelineRunner {
    /// Build the machine and the application configuration for `seed`.
    pub fn new(seed: u64) -> PipelineRunner {
        PipelineRunner {
            pipeline: Pipeline::new(
                SplitMachine::paper_default(),
                SplitExecConfig::with_seed(seed),
            ),
        }
    }

    /// Embed `problems` ahead of time into a fresh embedding table.
    pub fn fill_catalog(&self, problems: &[Problem]) -> Result<Catalog, String> {
        let catalog = Catalog::default();
        for (index, problem) in problems.iter().enumerate() {
            execute_stage1_cached(
                &self.pipeline.machine,
                &self.pipeline.config,
                &problem.qubo,
                Some(&catalog.cache),
            )
            .map_err(|err| format!("catalog entry {index} failed to embed: {err}"))?;
        }
        Ok(catalog)
    }

    /// Solve one job through [`Pipeline::execute_cached`].
    pub fn solve(&self, catalog: &Catalog, problem: &Problem) -> Result<Solution, String> {
        let report = self
            .pipeline
            .execute_cached(&problem.qubo, &catalog.cache)
            .map_err(|err| err.to_string())?;
        Ok(Solution {
            assignment: report.solution.assignment,
            qubo_energy: report.solution.qubo_energy,
        })
    }

    /// The same pipeline with a timing decorator around its stage-2 sampler.
    pub fn traced(&self) -> TracedPipeline {
        let config = &self.pipeline.config;
        let backend = Arc::new(TimedBackend {
            inner: config.backend.build_with_schedule(config.schedule),
            nanos: AtomicU64::new(0),
        });
        TracedPipeline {
            pipeline: self.pipeline.clone().with_backend(backend.clone()),
            backend,
        }
    }
}

/// Host time and work of the pipeline's layers, summed over traced jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineLayers {
    /// Host seconds inside `execute_stage1_cached`.
    pub stage1_s: f64,
    /// QUBO → Ising conversion seconds (stage-1 report).
    pub convert_s: f64,
    /// CMR seconds: the stage-1 report's embedding time, plus the whole
    /// stage-1 span of a job whose embedding failed.
    pub cmr_s: f64,
    /// Parameter-setting seconds (stage-1 report).
    pub param_s: f64,
    /// CMR invocations (embedding-table misses).
    pub cmr_calls: u64,
    /// CMR invocations that failed to embed.
    pub cmr_fail: u64,
    /// Dijkstra calls of successful CMR invocations.
    pub dijkstra_calls: u64,
    /// Edge relaxations of successful CMR invocations.
    pub relaxations: u64,
    /// Physical qubits programmed, summed over embedded jobs.
    pub qubits: u64,
    /// Host seconds inside `execute_stage2_with_backend`.
    pub stage2_s: f64,
    /// Host seconds inside the sampler backend itself.
    pub annealer_s: f64,
    /// Anneal reads drawn.
    pub reads: u64,
    /// Single-spin updates the sampler performed.
    pub updates: u64,
    /// Host seconds inside `execute_stage3`.
    pub stage3_s: f64,
    /// Chain breaks seen while decoding the readouts.
    pub chain_breaks: u64,
    /// Embedding-table hits.
    pub cache_hits: u64,
    /// Embedding-table misses.
    pub cache_misses: u64,
}

/// A pipeline whose stages are called one by one, each inside a span.
#[derive(Debug)]
pub struct TracedPipeline {
    pipeline: Pipeline,
    backend: Arc<TimedBackend>,
}

impl TracedPipeline {
    /// Solve one job stage by stage — what [`Pipeline::execute_cached`]
    /// does — accumulating each layer's time and work into `layers`.
    pub fn solve(
        &self,
        catalog: &Catalog,
        problem: &Problem,
        layers: &mut PipelineLayers,
    ) -> Result<Solution, String> {
        let (machine, config) = (&self.pipeline.machine, &self.pipeline.config);
        let start = Instant::now();
        let stage1 = execute_stage1_cached(machine, config, &problem.qubo, Some(&catalog.cache));
        let stage1_s = seconds_since(start);
        layers.stage1_s += stage1_s;
        let stage1 = match stage1 {
            Ok(stage1) => stage1,
            Err(err) => {
                layers.cmr_calls += 1;
                layers.cmr_fail += 1;
                layers.cache_misses += 1;
                layers.cmr_s += stage1_s;
                return Err(err.to_string());
            }
        };
        layers.convert_s += stage1.conversion_seconds;
        layers.param_s += stage1.parameter_seconds;
        layers.cmr_s += stage1.embedding_seconds;
        if stage1.embedding_cache_hit {
            layers.cache_hits += 1;
        } else {
            layers.cache_misses += 1;
            layers.cmr_calls += 1;
            layers.dijkstra_calls += stage1.embedding_stats.dijkstra_calls;
            layers.relaxations += stage1.embedding_stats.edge_relaxations;
        }
        layers.qubits += stage1.embedded.embedding.qubits_used() as u64;

        let backend = self.pipeline.backend();
        let before = self.backend.nanos.load(Ordering::Relaxed);
        let start = Instant::now();
        let stage2 = execute_stage2_with_backend(
            machine,
            config,
            &stage1.embedded.physical,
            backend.as_ref(),
        );
        layers.stage2_s += seconds_since(start);
        layers.annealer_s += (self.backend.nanos.load(Ordering::Relaxed) - before) as f64 * 1e-9;
        let stage2 = stage2.map_err(|err| err.to_string())?;
        layers.reads += stage2.reads as u64;
        layers.updates += stage2.access.updates;

        let start = Instant::now();
        let stage3 = execute_stage3(
            machine,
            &stage1.embedded.embedding,
            &stage1.logical,
            &stage2.samples,
        );
        layers.stage3_s += seconds_since(start);
        let stage3 = stage3.map_err(|err| err.to_string())?;
        layers.chain_breaks += stage3.chain_breaks as u64;

        let assignment = spins_to_bits(&stage3.best_spins);
        Ok(Solution {
            qubo_energy: problem.qubo.energy(&assignment),
            assignment,
        })
    }
}

/// Times every sampling call and forwards every trait method unchanged.
#[derive(Debug)]
struct TimedBackend {
    inner: Arc<dyn SamplerBackend>,
    /// Host nanoseconds inside `sample`/`sample_with_report`.  A statistic
    /// only, published to no other data, hence `Relaxed`.
    nanos: AtomicU64,
}

impl TimedBackend {
    fn time<R>(&self, op: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = op();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl SamplerBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sample(&self, ising: &Ising, params: &SampleParams) -> Result<SampleSet, SamplerError> {
        self.time(|| self.inner.sample(ising, params))
    }

    fn timings(&self) -> &QpuTimings {
        self.inner.timings()
    }

    fn modeled_access_seconds(&self, reads: usize) -> f64 {
        self.inner.modeled_access_seconds(reads)
    }

    fn sample_with_report(
        &self,
        ising: &Ising,
        params: &SampleParams,
    ) -> Result<(SampleSet, QpuAccessReport), SamplerError> {
        self.time(|| self.inner.sample_with_report(ising, params))
    }
}

// ---------------------------------------------------------------------------
// Simulator side (sx_cluster)
// ---------------------------------------------------------------------------

/// Topology sizes (logical spins) the arrival rate is calibrated over —
/// the sizes of the aggressor/victim mix.
const CALIBRATION_SIZES: [usize; 3] = [16, 20, 24];

/// How the simulated fleet schedules and admits jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimPolicy {
    /// Cache affinity with every arrival admitted.
    AffinityAdmitAll,
    /// Weighted fair queueing, with a token bucket that budgets the
    /// aggressor at `aggressor_share` of its own arrival rate.
    WfqTokenBucket {
        /// The aggressor's admitted rate as a share of its arrival rate.
        aggressor_share: f64,
    },
}

/// The shape of one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SimShape {
    /// Devices in the fleet.
    pub qpus: usize,
    /// Mixed DW2X/Vesuvius fleet (else uniform DW2X).
    pub heterogeneous: bool,
    /// Per-device warm-cache capacity under cost-aware eviction (`None`:
    /// unbounded).
    pub cache_capacity: Option<usize>,
    /// Offered warm work as a share of fleet capacity.
    pub load: f64,
    /// Jobs in the cell (victim plus aggressor).
    pub jobs: usize,
    /// The aggressor arrives this many times faster than the victim.
    pub asymmetry: f64,
    /// Scheduler and admission.
    pub policy: SimPolicy,
}

/// A fleet configuration for one cell.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    config: FleetConfig,
}

impl FleetPlan {
    /// The fleet `shape` describes, with device faults drawn from `seed`.
    pub fn new(shape: &SimShape, seed: u64) -> FleetPlan {
        let mut config = if shape.heterogeneous {
            FleetConfig::heterogeneous(shape.qpus, seed)
        } else {
            FleetConfig {
                qpus: shape.qpus,
                seed,
                ..FleetConfig::default()
            }
        };
        if let Some(capacity) = shape.cache_capacity {
            config = config.with_cache(capacity, EvictionPolicyKind::CostAware);
        }
        FleetPlan { config }
    }

    /// `RateCalibration::for_fleet`: the calibrated total arrival rate for
    /// the shape's load.
    pub fn calibrate(&self, shape: &SimShape) -> Result<f64, String> {
        let calibration = RateCalibration::for_fleet(&self.config, &CALIBRATION_SIZES)?;
        Ok(calibration.rate_hz(1.0, shape.load, shape.qpus))
    }

    /// `Fleet::new`.
    pub fn build(&self) -> SimFleet {
        SimFleet {
            fleet: Fleet::new(
                self.config.clone(),
                SplitExecConfig::with_seed(self.config.seed),
            ),
        }
    }
}

/// A built fleet, consumed by one simulation.
#[derive(Debug)]
pub struct SimFleet {
    fleet: Fleet,
}

/// A generated job stream plus the scheduler and admission it runs under.
#[derive(Debug, Clone)]
pub struct SimInput {
    workload: Workload,
    scheduler: SchedulerSpec,
    admission: AdmissionSpec,
}

impl SimInput {
    /// The aggressor/victim stream at `total_rate_hz`, generated from `seed`.
    pub fn generate(shape: &SimShape, total_rate_hz: f64, seed: u64) -> SimInput {
        let victim_jobs = (shape.jobs as f64 / (1.0 + shape.asymmetry)).round() as usize;
        let victim_rate = total_rate_hz / (1.0 + shape.asymmetry);
        let workload =
            MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, shape.asymmetry, 1.0, seed)
                .generate();
        let (scheduler, admission) = match shape.policy {
            SimPolicy::AffinityAdmitAll => (SchedulerSpec::CacheAffinity, AdmissionSpec::AdmitAll),
            SimPolicy::WfqTokenBucket { aggressor_share } => {
                let generous = TokenBucketConfig {
                    rate_hz: 1e3,
                    burst: 1e3,
                    max_queue_depth: usize::MAX,
                    max_defer_seconds: 1e9,
                    ..TokenBucketConfig::default()
                };
                let budget = TokenBucketConfig {
                    rate_hz: aggressor_share * victim_rate * shape.asymmetry,
                    burst: 8.0,
                    max_queue_depth: 64,
                    max_defer_seconds: 60.0,
                    shed_infeasible: false,
                };
                (
                    SchedulerSpec::WeightedFair {
                        weights: workload.weights(),
                        lane_order: LaneOrder::default(),
                    },
                    AdmissionSpec::TokenBucket {
                        default: generous,
                        per_tenant: vec![(TenantId(1), budget)],
                    },
                )
            }
        };
        SimInput {
            workload,
            scheduler,
            admission,
        }
    }

    /// Jobs in the stream.
    pub fn jobs(&self) -> usize {
        self.workload.jobs.len()
    }
}

/// The figures the benchmark reads off one simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Jobs in the workload.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs shed by admission.
    pub shed: usize,
    /// Admission deferrals (a job deferred twice counts twice).
    pub deferrals: usize,
    /// Jobs rejected as infeasible.
    pub rejected: usize,
    /// Engine events popped.
    pub events: usize,
    /// Mean simulated job latency (virtual seconds).
    pub mean_s: f64,
    /// 99th-percentile simulated job latency (virtual seconds).
    pub p99_s: f64,
    /// Every latency statistic the report carries (for the finiteness check).
    pub latency_stats: Vec<f64>,
    /// Warm-cache hit rate across the fleet.
    pub cache_hit_rate: f64,
    /// Warm-cache evictions across the fleet.
    pub cache_evictions: usize,
    /// Cold (re-)embeddings across the fleet.
    pub cold_embeds: usize,
    report: SimReport,
}

impl SimOutcome {
    fn from_report(report: SimReport) -> SimOutcome {
        let l = &report.latency;
        SimOutcome {
            jobs: report.jobs,
            completed: report.completed,
            shed: report.shed,
            deferrals: report.deferrals,
            rejected: report.rejected,
            events: report.events,
            mean_s: l.mean,
            p99_s: l.p99,
            latency_stats: vec![l.mean, l.min, l.p50, l.p95, l.p99, l.max],
            cache_hit_rate: report.hit_rate(),
            cache_evictions: report.evictions(),
            cold_embeds: report.cold_misses(),
            report,
        }
    }

    /// Whether two runs produced bit-identical reports.
    pub fn same_report(&self, other: &SimOutcome) -> bool {
        self.report == other.report
    }
}

fn engine_config() -> SimConfig {
    SimConfig {
        mode: WorkloadMode::Open,
        percentiles: PercentileMode::Exact,
    }
}

/// Run the engine (`simulate_with_telemetry`, `NullSink`, no registry).
/// Returns the outcome and the host seconds spent inside the engine.
pub fn simulate(fleet: SimFleet, input: &SimInput) -> (SimOutcome, f64) {
    let mut scheduler = input.scheduler.build();
    let mut admission = input.admission.build();
    let start = Instant::now();
    let report = simulate_with_telemetry(
        fleet.fleet,
        &input.workload,
        scheduler.as_mut(),
        admission.as_mut(),
        engine_config(),
        &mut NullSink,
        None,
    );
    let seconds = seconds_since(start);
    (SimOutcome::from_report(report), seconds)
}

/// Host time and work of the simulator's layers, summed over traced cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterLayers {
    /// `Scheduler::next_assignment` calls.
    pub sched_calls: u64,
    /// Host seconds inside the scheduler.
    pub sched_s: f64,
    /// Calls that returned an assignment.
    pub sched_assigned: u64,
    /// Σ queue length over scheduler calls.
    pub sched_queue_seen: u64,
    /// `AdmissionController::admit` calls.
    pub admit_calls: u64,
    /// Host seconds inside admission.
    pub admit_s: f64,
    /// Trace records the sink received.
    pub sink_records: u64,
}

impl ClusterLayers {
    fn add(&mut self, other: &ClusterLayers) {
        self.sched_calls += other.sched_calls;
        self.sched_s += other.sched_s;
        self.sched_assigned += other.sched_assigned;
        self.sched_queue_seen += other.sched_queue_seen;
        self.admit_calls += other.admit_calls;
        self.admit_s += other.admit_s;
        self.sink_records += other.sink_records;
    }
}

struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    layers: ClusterLayers,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        let start = Instant::now();
        let assignment = self.inner.next_assignment(queue, fleet, now);
        self.layers.sched_s += seconds_since(start);
        self.layers.sched_calls += 1;
        self.layers.sched_queue_seen += queue.len() as u64;
        self.layers.sched_assigned += u64::from(assignment.is_some());
        assignment
    }
}

struct TimedAdmission {
    inner: Box<dyn AdmissionController>,
    layers: ClusterLayers,
}

impl AdmissionController for TimedAdmission {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&mut self, job: &Job, ctx: &AdmissionContext, now: f64) -> AdmissionDecision {
        let start = Instant::now();
        let decision = self.inner.admit(job, ctx, now);
        self.layers.admit_s += seconds_since(start);
        self.layers.admit_calls += 1;
        decision
    }
}

struct CountingSink {
    inner: NullSink,
    records: u64,
}

impl TraceSink for CountingSink {
    fn on_record(&mut self, record: &TraceRecord, vclock: f64) {
        self.records += 1;
        self.inner.on_record(record, vclock);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`simulate`] with the scheduler, admission controller and sink wrapped
/// in timing/counting decorators whose figures are added into `layers`.
pub fn simulate_traced(
    fleet: SimFleet,
    input: &SimInput,
    layers: &mut ClusterLayers,
) -> (SimOutcome, f64) {
    let mut scheduler = TimedScheduler {
        inner: input.scheduler.build(),
        layers: ClusterLayers::default(),
    };
    let mut admission = TimedAdmission {
        inner: input.admission.build(),
        layers: ClusterLayers::default(),
    };
    let mut sink = CountingSink {
        inner: NullSink,
        records: 0,
    };
    let start = Instant::now();
    let report = simulate_with_telemetry(
        fleet.fleet,
        &input.workload,
        &mut scheduler,
        &mut admission,
        engine_config(),
        &mut sink,
        None,
    );
    let seconds = seconds_since(start);
    layers.add(&scheduler.layers);
    layers.add(&admission.layers);
    layers.sink_records += sink.records;
    (SimOutcome::from_report(report), seconds)
}

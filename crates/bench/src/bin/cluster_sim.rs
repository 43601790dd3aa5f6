//! Datacenter simulation: scheduling policies, cache sweeps, multi-tenant
//! fairness and deadline SLOs — with a flight recorder that can capture
//! any run and replay it bit-identically.
//!
//! Eight modes (see `docs/cluster_sim.md` for the full flag and JSON-schema
//! reference):
//!
//! * `--mode compare` (default) — replays a stream of QUBO jobs against a
//!   fleet of simulated QPUs (each with its own fault map) under each
//!   scheduling policy, on the same seeds, and prints a comparison table —
//!   the fleet-scale version of the paper's performance model.  The run
//!   demonstrates the two acceptance claims of the `sx_cluster` subsystem:
//!   embedding-cache-affinity scheduling beats FIFO on mean latency for a
//!   repeated-topology mix, and the aggregate per-stage breakdown stays
//!   stage-1 dominated at fleet scale.
//! * `--mode cache-cliff` — sweeps per-device warm-cache capacity ×
//!   workload topology diversity × eviction policy (LRU vs cost-aware) and
//!   maps the hit-rate cliff: once capacity falls below the number of
//!   distinct topologies in circulation, hit rate collapses and mean
//!   latency climbs.  Cost-aware eviction (protect the topologies that are
//!   expensive to re-embed) must match or beat LRU on mean latency at the
//!   cliff; the run exits non-zero if it does not, so CI catches
//!   eviction-policy regressions.
//! * `--mode fairness` — the multi-tenant acceptance sweep: tenant weight
//!   skew × arrival-rate asymmetry × policy on an aggressor/victim
//!   composition.  FAILs unless weighted fair queueing keeps the victim
//!   tenant's p99 within a constant factor of its isolated-run p99 while
//!   FIFO lets it blow up with load, and unless token-bucket admission
//!   bounds the aggressor's queue depth without shedding the victim.
//! * `--mode aging-sweep` — maps `ShortestPredictedFirst`'s aging weight
//!   against p99 latency and starvation incidence on a short-job flood with
//!   rare large jobs; FAILs if the shipped `DEFAULT_AGING_WEIGHT` is not
//!   near the sweep's optimum or reintroduces starvation.
//! * `--mode admission` — compares cache-admission policies (always vs
//!   second-chance doorkeeper) on a low-repetition mix with a bounded
//!   cache; FAILs if the doorkeeper loses on churn or latency.
//! * `--mode slo` — the deadline acceptance sweep: load × slack factor ×
//!   policy (FIFO, plain FIFO-lane WFQ, EDF-in-lane WFQ, global EDF) on a
//!   two-tenant proportional-deadline composition.  FAILs unless
//!   EDF-in-lane WFQ achieves a strictly lower SLO miss-rate than both
//!   FIFO and plain WFQ at the high-load/tight-slack point while keeping
//!   Jain's index within 5% of plain WFQ, and unless token-bucket
//!   deadline-infeasibility shedding sheds doomed aggressor jobs without
//!   ever claiming a feasible victim job.
//! * `--mode sweep` — the deterministic experiment runner, exposed
//!   directly: an explicit (seed × load × policy) grid expanded through
//!   `sx_cluster::sweep::SweepPlan` (arrival rates calibrated once per
//!   fleet, see below) and executed cell by cell.  Emits a schema-stable
//!   `sx-sweep/v1` JSON document — per-cell rows plus merged sketch
//!   percentiles, no wall-clock fields — that is byte-identical from run
//!   to run; CI runs it twice and diffs the two documents.  Host-side
//!   events/sec goes to stdout only, so it cannot perturb the diff.
//! * `--mode replay --input PATH` — re-runs every segment of a flight
//!   record written by `--record` (each header is the run's full
//!   `CellSpec`, token-bucket budgets included) and verifies the engine
//!   reproduces each recorded trace bit-for-bit; FAILs if any segment
//!   diverges.
//!
//! ```text
//! cargo run --release -p sx-bench --bin cluster_sim -- \
//!     [--mode compare|cache-cliff|fairness|aging-sweep|admission|slo|sweep|replay] \
//!     [--jobs N] [--qpus N] [--seed S] [--rate R] \
//!     [--closed CLIENTS] [--workload repeated|mixed|bursty|trace:PATH] \
//!     [--policy fifo|spjf|affinity|edf|wfq|wfq-fifo|all] [--fleet uniform|hetero] \
//!     [--capacity N] [--eviction lru|cost-aware] \
//!     [--cache-admission always|second-chance] [--json PATH] [--virtual] \
//!     [--record PATH] [--input PATH] [--percentiles exact|sketch] \
//!     [--trace-out PATH] [--arrivals-out PATH] \
//!     [--seeds S1,S2,..] [--loads L1,L2,..] [--policies P1,P2,..]
//! ```
//!
//! Every mode runs its independent cells one after another in cell-index
//! order; every cell is a pure function of its [`CellSpec`].
//! `--record`/`--trace-out` attach their sinks to that same run without
//! changing any result — sinks are pure observers.
//! `--seeds`/`--loads`/`--policies` set the explicit axis grid of
//! `--mode sweep` (defaults: `--seed`'s value, `0.7,1.1`,
//! `fifo,affinity,wfq`).
//!
//! `--record PATH` (any mode) streams every simulated run to a versioned
//! JSONL flight record (`sx-flight-record/v3`): each run contributes a
//! header line — its serialized [`CellSpec`] plus fleet fingerprint and
//! workload digest — followed by its full trace-record stream.  The file is opened eagerly (a bad
//! path is a startup error, not a silent no-op) and write failures latched
//! during the run surface as a FAIL at exit.  `trace_diff` compares two
//! such records to the first divergent event; `--mode replay` re-simulates
//! them.
//!
//! `--percentiles exact|sketch` selects how `SimReport` summarizes
//! latency/wait/lateness distributions: `exact` (default) sorts a copy of
//! the samples, `sketch` streams them through the mergeable log-bucketed
//! histogram, within its documented relative-error bound.  Either way the
//! report keeps every per-job record, so memory still grows with the job
//! count.
//!
//! `--trace-out PATH` (any mode) attaches a [`PerfettoSink`] to the first
//! simulated run and writes a Chrome trace-event JSON document loadable at
//! <https://ui.perfetto.dev> — job lanes show queued → embed → anneal →
//! readout spans on the virtual timeline, device tracks show per-QPU
//! occupancy.  Like `--record`, the path is opened eagerly and write
//! failures are surfaced at exit.  `--arrivals-out PATH` (compare mode)
//! exports the generated workload as an `sx-arrival-trace/v1` file that
//! `--workload trace:PATH` feeds back in, bit-identically — recorded
//! arrival traces are just another workload source.
//!
//! `--json PATH` writes the mode's results as a machine-readable JSON
//! document (via the hand-rolled `sx_cluster::json`).  Every mode but
//! `sweep` wraps them as `{mode, seed, jobs, qpus, passed, results}`;
//! `replay` writes `input` (the record path) in place of `seed`, `jobs`
//! and `qpus`, since each of its segment rows carries its own.
//!
//! `--virtual` skips the (slow) calibration step that executes a real job
//! through `split_exec::Pipeline` to sanity-check the analytic service
//! model; CI runs the modes with `--virtual` as smoke tests.

use std::sync::Arc;

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

#[derive(Debug)]
struct Args {
    mode: String,
    jobs: usize,
    qpus: usize,
    seed: u64,
    rate_hz: f64,
    closed: Option<usize>,
    workload: String,
    /// `--policy`; `None` is `all`.
    policy: Option<SchedulerSpec>,
    fleet: String,
    capacity: Option<usize>,
    eviction: Option<EvictionPolicyKind>,
    cache_admission: Option<AdmissionPolicy>,
    json: Option<String>,
    virtual_only: bool,
    trace_out: Option<String>,
    record: Option<String>,
    input: Option<String>,
    arrivals_out: Option<String>,
    percentiles: PercentileMode,
    seeds: Option<Vec<u64>>,
    loads: Option<Vec<f64>>,
    policies: Option<Vec<SchedulerSpec>>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            mode: "compare".into(),
            jobs: 200,
            qpus: 4,
            seed: 7,
            rate_hz: 1.0,
            closed: None,
            workload: "repeated".into(),
            policy: None,
            fleet: "uniform".into(),
            capacity: None,
            eviction: None,
            cache_admission: None,
            json: None,
            virtual_only: false,
            trace_out: None,
            record: None,
            input: None,
            arrivals_out: None,
            percentiles: PercentileMode::Exact,
            seeds: None,
            loads: None,
            policies: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--mode" => args.mode = value("--mode"),
                "--jobs" => args.jobs = parse_or_die(&value("--jobs"), "--jobs"),
                "--qpus" => args.qpus = parse_or_die(&value("--qpus"), "--qpus"),
                "--seed" => args.seed = parse_or_die(&value("--seed"), "--seed"),
                "--rate" => args.rate_hz = parse_or_die(&value("--rate"), "--rate"),
                "--seeds" => args.seeds = Some(parse_csv(&value("--seeds"), "--seeds")),
                "--loads" => args.loads = Some(parse_csv(&value("--loads"), "--loads")),
                "--policies" => args.policies = Some(parse_csv(&value("--policies"), "--policies")),
                "--closed" => args.closed = Some(parse_or_die(&value("--closed"), "--closed")),
                "--workload" => args.workload = value("--workload"),
                "--policy" => {
                    let raw = value("--policy");
                    args.policy = (raw != "all").then(|| parse_or_die(&raw, "--policy"));
                }
                "--fleet" => args.fleet = value("--fleet"),
                "--capacity" => {
                    args.capacity = Some(parse_or_die(&value("--capacity"), "--capacity"))
                }
                "--eviction" => {
                    args.eviction = Some(parse_or_die(&value("--eviction"), "--eviction"))
                }
                "--cache-admission" => {
                    args.cache_admission = Some(parse_or_die(
                        &value("--cache-admission"),
                        "--cache-admission",
                    ))
                }
                "--json" => args.json = Some(value("--json")),
                "--virtual" => args.virtual_only = true,
                "--trace-out" => args.trace_out = Some(value("--trace-out")),
                "--record" => args.record = Some(value("--record")),
                "--input" => args.input = Some(value("--input")),
                "--arrivals-out" => args.arrivals_out = Some(value("--arrivals-out")),
                "--percentiles" => {
                    args.percentiles = match value("--percentiles").as_str() {
                        "exact" => PercentileMode::Exact,
                        "sketch" => PercentileMode::Sketch,
                        other => {
                            eprintln!("unknown --percentiles '{other}' (expected exact or sketch)");
                            std::process::exit(2);
                        }
                    }
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        for (flag, count) in [("--jobs", args.jobs), ("--qpus", args.qpus)] {
            if count == 0 {
                eprintln!("{flag} must be at least 1");
                std::process::exit(2);
            }
        }
        args
    }

    /// The fleet configuration shared by every run of this invocation
    /// (before any per-sweep cache bound is applied).
    fn fleet_config(&self) -> FleetConfig {
        let base = match self.fleet.as_str() {
            "uniform" => FleetConfig {
                qpus: self.qpus,
                seed: self.seed,
                ..FleetConfig::default()
            },
            "hetero" => FleetConfig::heterogeneous(self.qpus, self.seed),
            other => {
                eprintln!("unknown fleet '{other}' (expected uniform or hetero)");
                std::process::exit(2);
            }
        };
        let base = match self.capacity {
            Some(cap) => base.with_cache(cap, self.eviction.unwrap_or_default()),
            None => base,
        };
        match self.cache_admission {
            Some(admission) => base.with_cache_admission(admission),
            None => base,
        }
    }

    /// The engine configuration every run of this invocation uses:
    /// the mode at hand plus the `--percentiles` summarization switch.
    fn sim_config(&self, mode: WorkloadMode) -> SimConfig {
        SimConfig {
            mode,
            percentiles: self.percentiles,
        }
    }
}

fn parse_or_die<T: std::str::FromStr<Err: std::fmt::Display>>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|err| {
        eprintln!("cannot parse {flag} value '{raw}': {err}");
        std::process::exit(2);
    })
}

fn parse_csv<T: std::str::FromStr<Err: std::fmt::Display>>(raw: &str, flag: &str) -> Vec<T> {
    raw.split(',')
        .map(|part| parse_or_die(part.trim(), flag))
        .collect()
}

/// The scheduler a cell named `name` (a [`SchedulerSpec`] name) runs on
/// `workload`: a weighted-fair queue weighs its lanes by the workload's
/// tenant weights, carried in the spec so a recorded run rebuilds the
/// same lanes on replay.  Also the scheduler axis of [`SweepPlan::expand`].
fn scheduler_for(name: &str, workload: &Workload) -> SchedulerSpec {
    match name
        .parse()
        .expect("scheduler axes hold SchedulerSpec names")
    {
        SchedulerSpec::WeightedFair { lane_order, .. } => SchedulerSpec::WeightedFair {
            weights: workload.weights(),
            lane_order,
        },
        spec => spec,
    }
}

/// Execute a mode's cell list in cell-index order, each cell through the
/// observer's sink chain (a bare [`NullSink`] when nothing observes).
/// Sinks are pure observers, so `--record`/`--trace-out` never change a
/// sweep's outputs, only its wall clock.
fn run_cells(observer: &mut Observer, cells: &[CellSpec]) -> SweepOutcome {
    let stopwatch = HostStopwatch::start();
    let results = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| observer.run_cell(index, cell))
        .collect();
    SweepOutcome::collect(results, stopwatch.elapsed_seconds())
}

/// The observation plumbing shared by every mode: the optional flight
/// recorder (`--record`, every run) and the optional Perfetto export
/// (`--trace-out`, first run only — interleaving several runs would make
/// the lanes unattributable).  Modes hand each run to [`run_cells`] (or
/// [`Observer::replay`]) and never know which sinks are active; both
/// output files are opened eagerly at startup so a bad path is a usage
/// error, and latched write failures surface in [`Observer::close`].
struct Observer {
    record_path: Option<String>,
    recorder: Option<RecorderSink<std::io::BufWriter<std::fs::File>>>,
    trace_path: Option<String>,
    trace_file: Option<std::fs::File>,
    perfetto: Option<PerfettoSink>,
    traced: bool,
}

impl Observer {
    fn from_args(args: &Args) -> Observer {
        let open = |flag: &str, path: &String| match std::fs::File::create(path) {
            Ok(file) => file,
            Err(err) => {
                eprintln!("cannot open {flag} {path}: {err}");
                std::process::exit(2);
            }
        };
        let recorder = args
            .record
            .as_ref()
            .map(|path| RecorderSink::new(std::io::BufWriter::new(open("--record", path))));
        let trace_file = args
            .trace_out
            .as_ref()
            .map(|path| open("--trace-out", path));
        Observer {
            record_path: args.record.clone(),
            recorder,
            trace_path: args.trace_out.clone(),
            perfetto: trace_file.is_some().then(PerfettoSink::new),
            trace_file,
            traced: false,
        }
    }

    /// Assemble the sink chain for one run of `spec` — its flight-record
    /// segment header (when recording), the Perfetto exporter on the first
    /// run only — and hand it to `run`.  With nothing active the chain
    /// degenerates to a bare [`NullSink`], the perf-default path.
    fn with_chain<T>(&mut self, spec: &CellSpec, run: impl FnOnce(&mut dyn TraceSink) -> T) -> T {
        let Self {
            recorder,
            perfetto,
            traced,
            ..
        } = self;
        let attach_perfetto = !*traced;
        *traced = true;

        let mut base = NullSink;
        let mut chain: &mut dyn TraceSink = &mut base;
        let mut fan_recorder;
        if let Some(recorder) = recorder.as_mut() {
            recorder.begin_run(spec);
            fan_recorder = FanoutSink::new(recorder, chain);
            chain = &mut fan_recorder;
        }
        let mut fan_perfetto;
        if attach_perfetto {
            if let Some(perfetto) = perfetto.as_mut() {
                fan_perfetto = FanoutSink::new(perfetto, chain);
                chain = &mut fan_perfetto;
            }
        }
        run(chain)
    }

    /// Execute one sweep cell through the observation chain — the body of
    /// [`run_cells`].  Produces the identical [`CellResult`] that
    /// `sweep::run_cell` with a bare [`NullSink`] would (sinks are pure
    /// observers), which is what lets `--record`/`--trace-out` capture a
    /// sweep without perturbing its outputs.
    fn run_cell(&mut self, index: usize, cell: &CellSpec) -> CellResult {
        self.with_chain(cell, |chain| {
            sx_cluster::sweep::run_cell(index, cell, chain)
        })
    }

    /// Replay one recorded segment through the observation chain, so
    /// `--record` re-records the replay and `--trace-out` traces it.
    fn replay(&mut self, run: &RecordedRun) -> ReplayCheck {
        self.with_chain(&run.spec, |chain| check_replay(run, chain))
    }

    /// Flush the output files and surface any failure the sinks latched
    /// mid-run; an `Err` here must fail the invocation.
    fn close(mut self) -> Result<(), String> {
        use std::io::Write;

        let mut failures = Vec::new();
        if let Some(recorder) = self.recorder.take() {
            let path = self.record_path.as_deref().unwrap_or("--record");
            match recorder.finish() {
                Ok((_, lines)) => println!("wrote flight record {path} ({lines} lines)"),
                Err(err) => failures.push(format!("--record {path}: write failed: {err}")),
            }
        }
        if let (Some(perfetto), Some(mut file)) = (self.perfetto.take(), self.trace_file.take()) {
            let path = self.trace_path.as_deref().unwrap_or("--trace-out");
            let doc = perfetto.finish();
            match file.write_all(format!("{doc}\n").as_bytes()) {
                Ok(()) => {
                    println!("wrote Perfetto trace {path} (open at https://ui.perfetto.dev)")
                }
                Err(err) => failures.push(format!("--trace-out {path}: write failed: {err}")),
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

fn main() {
    let args = Args::parse();

    if !args.virtual_only {
        calibrate(args.seed);
    }

    let mut observer = Observer::from_args(&args);
    let (mut ok, results) = match args.mode.as_str() {
        "compare" => compare(&args, &mut observer),
        "cache-cliff" => cache_cliff(&args, &mut observer),
        "fairness" => fairness(&args, &mut observer),
        "aging-sweep" => aging_sweep(&args, &mut observer),
        "admission" => admission_compare(&args, &mut observer),
        "slo" => slo(&args, &mut observer),
        "sweep" => sweep_mode(&args, &mut observer),
        "replay" => replay(&args, &mut observer),
        other => {
            eprintln!(
                "unknown mode '{other}' (expected compare, cache-cliff, fairness, \
                 aging-sweep, admission, slo, sweep or replay)"
            );
            std::process::exit(2);
        }
    };
    if let Err(err) = observer.close() {
        println!("FAIL: {err}");
        ok = false;
    }
    // Sweep mode owns its output file: the sweep document must carry its
    // schema tag at the top level, not the generic `{mode, seed, ...,
    // results}` wrapper, so downstream trackers can diff it without
    // unwrapping.
    if let (Some(path), true) = (&args.json, args.mode != "sweep") {
        let mut fields = vec![("mode", JsonValue::from(args.mode.as_str()))];
        if args.mode == "replay" {
            // A replay's runs come from the record, not the CLI flags:
            // each segment row carries its own seed, jobs and qpus.
            let input = args.input.as_deref().unwrap_or_default();
            fields.push(("input", JsonValue::from(input)));
        } else {
            fields.extend([
                // As a string: a u64 seed above 2^53 would be silently
                // rounded through JsonValue::Num's f64, breaking seeded
                // replay.
                ("seed", JsonValue::from(args.seed.to_string())),
                ("jobs", JsonValue::from(args.jobs)),
                ("qpus", JsonValue::from(args.qpus)),
            ]);
        }
        fields.extend([("passed", JsonValue::from(ok)), ("results", results)]);
        let doc = JsonValue::object(fields);
        if let Err(err) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write --json {path}: {err}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
    if !ok {
        std::process::exit(1);
    }
}

/// The policy-comparison mode (the original `cluster_sim` behavior, now
/// heterogeneity-, bounded-cache- and tenancy-aware).
fn compare(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    // A recorded arrival trace is just another workload source: `trace:PATH`
    // replays the job stream `--arrivals-out` exported, bit-identically.
    let workload = if let Some(path) = args.workload.strip_prefix("trace:") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
            eprintln!("cannot read arrival trace {path}: {err}");
            std::process::exit(2);
        });
        match parse_arrival_trace(&text) {
            Ok(workload) => workload,
            Err(err) => {
                eprintln!("invalid arrival trace {path}: {err}");
                std::process::exit(2);
            }
        }
    } else {
        let spec = match args.workload.as_str() {
            "repeated" => WorkloadSpec::repeated_topologies(args.jobs, args.rate_hz, args.seed),
            "mixed" => WorkloadSpec::mixed(args.jobs, args.rate_hz, args.seed),
            "bursty" => WorkloadSpec::bursty(args.jobs, args.rate_hz, 8, args.seed),
            other => {
                eprintln!(
                    "unknown workload '{other}' (expected repeated, mixed, bursty or trace:PATH)"
                );
                std::process::exit(2);
            }
        };
        match spec.try_generate() {
            Ok(workload) => workload,
            Err(err) => {
                eprintln!("invalid workload spec: {err}");
                std::process::exit(2);
            }
        }
    };
    if let Some(path) = &args.arrivals_out {
        if let Err(err) = std::fs::write(path, render_arrival_trace(&workload)) {
            eprintln!("cannot write --arrivals-out {path}: {err}");
            std::process::exit(2);
        }
        println!(
            "wrote arrival trace {path} ({} jobs; replay with --workload trace:{path})",
            workload.len()
        );
    }

    let policies: Vec<SchedulerSpec> = match &args.policy {
        Some(policy) => vec![policy.clone()],
        None => SchedulerSpec::all().to_vec(),
    };

    let mode = match args.closed {
        Some(clients) => WorkloadMode::Closed { clients },
        None => WorkloadMode::Open,
    };

    let cache_label = match args.capacity {
        Some(cap) => format!("cache {cap}/{}", args.eviction.unwrap_or_default()),
        None => "unbounded cache".into(),
    };
    println!(
        "# cluster_sim compare: {} jobs ({} distinct topologies, max lps {}), {} {} QPUs, {}, seed {}, {:?}",
        workload.len(),
        workload.distinct_topologies(),
        workload.max_lps(),
        args.qpus,
        args.fleet,
        cache_label,
        args.seed,
        mode,
    );

    println!(
        "\n{:>9} {:>6} {:>4} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6} {:>5} {:>5} {:>9} {:>10}",
        "policy",
        "done",
        "rej",
        "mean [s]",
        "p50 [s]",
        "p95 [s]",
        "p99 [s]",
        "util%",
        "warm%",
        "cold",
        "evict",
        "stage1%",
        "makespan"
    );

    // One cell per policy, sharing the workload.  Telemetry is a pure
    // observer, so recording/tracing through the observer yields the same
    // reports the plain path would.
    let workload = Arc::new(workload);
    let cells: Vec<CellSpec> = policies
        .into_iter()
        .map(|scheduler| CellSpec {
            label: scheduler.to_string(),
            seed: args.seed,
            fleet: args.fleet_config(),
            scheduler,
            admission: AdmissionSpec::AdmitAll,
            config: args.sim_config(mode),
            workload: Arc::clone(&workload),
        })
        .collect();
    let outcome = run_cells(observer, &cells);
    let mut reports: Vec<SimReport> = Vec::new();
    for cell in outcome.cells {
        let report = cell.report;
        println!(
            "{:>9} {:>6} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6.1} {:>6.1} {:>5} {:>5} {:>9.2} {:>9.1}s",
            report.policy,
            report.completed,
            report.rejected,
            report.latency.mean,
            report.latency.p50,
            report.latency.p95,
            report.latency.p99,
            100.0 * report.mean_utilization(),
            100.0 * report.hit_rate(),
            report.cold_misses(),
            report.evictions(),
            100.0 * report.stage1_fraction(),
            report.makespan_seconds,
        );
        reports.push(report);
    }

    // The shared batch/cluster report format, for the last policy run.
    if let Some(report) = reports.last() {
        println!("\n# shared BatchSummary format ({}):", report.policy);
        println!("{}", report.batch_summary());
    }

    // Acceptance checks: stage-1 dominance at fleet scale, and (on the
    // repeated mix with both policies present) affinity beating FIFO.
    let mut ok = true;
    for report in &reports {
        if report.completed > 0 && report.stage1_fraction() <= 0.5 {
            println!("FAIL: {} breakdown is not stage-1 dominated", report.policy);
            ok = false;
        }
    }
    let ran = |name: &str| reports.iter().find(|r| r.policy == name);
    if let (Some(fifo), Some(affinity)) = (ran("fifo"), ran("affinity")) {
        let speedup = fifo.latency.mean / affinity.latency.mean;
        println!(
            "\naffinity vs fifo: {speedup:.2}x mean latency ({} vs {} cold embeds)",
            affinity.cold_misses(),
            fifo.cold_misses()
        );
        if args.workload == "repeated" && args.capacity.is_none() && speedup <= 1.0 {
            println!("FAIL: cache-affinity did not beat FIFO on the repeated-topology mix");
            ok = false;
        }
    }
    let json = JsonValue::array(reports.iter().map(SimReport::to_json));
    (ok, json)
}

/// `--mode cache-cliff`: hit rate and mean latency over capacity ×
/// topology diversity × eviction policy.
fn cache_cliff(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    // The sweep owns the capacity/eviction grid; a pinned value would be
    // silently overridden, so refuse it instead.
    if args.capacity.is_some() || args.eviction.is_some() {
        eprintln!("--capacity/--eviction select the compare-mode cache; cache-cliff sweeps both");
        std::process::exit(2);
    }
    // Each diversity level is a MAX-CUT-over-cycles family whose sizes span
    // 8..=36 logical spins: D distinct topologies with genuinely different
    // re-embed costs (∝ LPS³), which is where cost-aware eviction and LRU
    // part ways.
    let diversities = [4usize, 8];
    // FIFO routes without looking at caches, so every device sees every
    // topology and the per-device capacity is compared directly against the
    // full diversity; an explicit --policy overrides it.
    let policy = args.policy.clone().unwrap_or(SchedulerSpec::Fifo);

    println!(
        "# cluster_sim cache-cliff: {} jobs per run, {} {} QPUs, policy {}, rate {} Hz, seed {}",
        args.jobs, args.qpus, args.fleet, policy, args.rate_hz, args.seed
    );

    let mut ok = true;
    let mut json_series: Vec<JsonValue> = Vec::new();
    for diversity in diversities {
        let sizes: Vec<usize> = (0..diversity)
            .map(|i| 8 + (36 - 8) * i / (diversity - 1))
            .collect();
        let spec = WorkloadSpec {
            jobs: args.jobs,
            seed: args.seed,
            arrivals: ArrivalProcess::Poisson {
                rate_hz: args.rate_hz,
            },
            mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes })],
            deadlines: DeadlinePolicy::None,
        };
        let workload = match spec.try_generate() {
            Ok(workload) => workload,
            Err(err) => {
                eprintln!("invalid workload spec: {err}");
                std::process::exit(2);
            }
        };
        let mut series = CacheCliffSeries {
            distinct_topologies: workload.distinct_topologies(),
            ..CacheCliffSeries::default()
        };

        let mut capacities: Vec<usize> = vec![
            1,
            diversity / 4,
            diversity / 2,
            3 * diversity / 4,
            diversity,
            diversity + 2,
        ];
        capacities.retain(|&c| c >= 1);
        capacities.sort_unstable();
        capacities.dedup();

        // The (eviction × capacity) grid as independent sweep cells — one
        // workload per diversity shared across the grid, fleet configs
        // carrying the per-cell cache bound.
        let workload = Arc::new(workload);
        let mut cells: Vec<CellSpec> = Vec::new();
        for eviction in EvictionPolicyKind::all() {
            for &capacity in &capacities {
                cells.push(CellSpec {
                    label: format!("d{diversity}/{}/cap{capacity}", eviction.name()),
                    seed: args.seed,
                    fleet: args.fleet_config().with_cache(capacity, eviction),
                    scheduler: policy.clone(),
                    admission: AdmissionSpec::AdmitAll,
                    config: args.sim_config(WorkloadMode::Open),
                    workload: Arc::clone(&workload),
                });
            }
        }
        let outcome = run_cells(observer, &cells);
        let mut results = outcome.cells.iter();
        for eviction in EvictionPolicyKind::all() {
            for &capacity in &capacities {
                let report = &results.next().expect("one result per cell").report;
                series
                    .points
                    .push(CachePoint::from_report(capacity, eviction.name(), report));
            }
        }

        println!("\n## diversity {diversity} (sizes span 8..=36)");
        println!("{series}");

        // The cliff itself: hit rate must fall monotonically (small
        // tolerance for scheduling feedback) as capacity drops, and the
        // drop from full capacity to capacity 1 must be real.
        for eviction in EvictionPolicyKind::all() {
            let name = eviction.name();
            if !series.hit_rate_monotone(name, 0.02) {
                println!(
                    "FAIL: {name} hit rate is not monotone in capacity at diversity {diversity}"
                );
                ok = false;
            }
            let points = series.policy_points(name);
            let (lo, hi) = (points.first().unwrap(), points.last().unwrap());
            if hi.hit_rate - lo.hit_rate < 0.1 {
                println!(
                    "FAIL: {name} shows no hit-rate cliff at diversity {diversity} \
                     ({:.3} at capacity {} vs {:.3} at capacity {})",
                    lo.hit_rate, lo.capacity, hi.hit_rate, hi.capacity
                );
                ok = false;
            }
        }

        // At the cliff (capacity below diversity), cost-aware eviction must
        // match or beat LRU on mean latency: it protects the embeds that
        // are expensive to recompute.
        let cliff_mean = |name: &str| {
            let points: Vec<f64> = series
                .policy_points(name)
                .iter()
                .filter(|p| p.capacity < diversity)
                .map(|p| p.mean_latency_seconds)
                .collect();
            points.iter().sum::<f64>() / points.len().max(1) as f64
        };
        let lru = cliff_mean("lru");
        let cost_aware = cliff_mean("cost-aware");
        println!(
            "cliff (capacity < {diversity}): mean latency lru {lru:.3}s vs cost-aware {cost_aware:.3}s"
        );
        if cost_aware > lru * 1.001 {
            println!("FAIL: cost-aware eviction lost to LRU at the cliff (diversity {diversity})");
            ok = false;
        }

        json_series.push(JsonValue::object([
            ("diversity", JsonValue::from(diversity)),
            (
                "points",
                JsonValue::array(series.points.iter().map(|p| {
                    JsonValue::object([
                        ("capacity", JsonValue::from(p.capacity)),
                        ("eviction", JsonValue::from(p.eviction.as_str())),
                        ("hit_rate", JsonValue::from(p.hit_rate)),
                        (
                            "mean_latency_seconds",
                            JsonValue::from(p.mean_latency_seconds),
                        ),
                        ("evictions", JsonValue::from(p.evictions)),
                        ("cold_misses", JsonValue::from(p.cold_misses)),
                    ])
                })),
            ),
        ]));
    }
    (ok, JsonValue::Array(json_series))
}

/// How far above its isolated-run p99 the victim tenant may drift under
/// WFQ while an aggressor floods the fleet — the "constant factor" of the
/// fairness acceptance claim.
const FAIR_BOUND: f64 = 8.0;

/// The fairness grid's policy axis: the FIFO baseline against WFQ.
const FAIRNESS_POLICIES: [&str; 2] = ["fifo", "wfq"];

/// `--mode fairness`: tenant weight skew × arrival-rate asymmetry ×
/// policy on the aggressor/victim composition, with enforced acceptance
/// checks (see module docs).
fn fairness(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    let victim_jobs = (args.jobs / 11).max(8);
    let victim_rate = 0.45 * args.rate_hz;
    let asymmetries = [2.0, 10.0];
    let skews = [1.0, 4.0];

    println!(
        "# cluster_sim fairness: victim {} jobs at {:.2} Hz, aggressor x asymmetry, {} {} QPUs, seed {}",
        victim_jobs, victim_rate, args.qpus, args.fleet, args.seed
    );
    println!(
        "\n{:>5} {:>5} {:>7} {:>13} {:>13} {:>12} {:>7} {:>8}",
        "asym", "skew", "policy", "victim p99", "aggr p99", "isolated p99", "Jain", "max-min"
    );

    let mut ok = true;
    let mut json_points: Vec<JsonValue> = Vec::new();
    // FIFO victim p99 per (skew at index 0) across asymmetries, to check
    // that FIFO degrades with load while WFQ stays put.
    let mut fifo_victim_by_asym: Vec<f64> = Vec::new();
    let mut wfq_victim_by_asym: Vec<f64> = Vec::new();
    // The grid's (asym 10, skew 1, WFQ) report doubles as the un-gated
    // baseline of the admission check below — same spec, fleet and
    // scheduler, so re-simulating it would be pure waste.
    let mut wfq_at_full_load: Option<&SimReport> = None;

    // The victim alone on the same fleet: its no-contention baseline.
    // Tenant 0's stream is independent of asymmetry and weight skew (only
    // the aggressor's side of the composition varies), so one isolated run
    // serves the whole grid.
    let isolated_workload = {
        let spec = MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, 2.0, 1.0, args.seed);
        MultiTenantSpec {
            tenants: vec![spec.tenants[0].clone()],
            ..spec
        }
        .generate()
    };

    // The whole mode as one cell list, in table order — isolated baseline,
    // the (asymmetry × skew × policy) grid, then the gated admission run —
    // executed in a single pass through `run_cells`.
    let config = args.sim_config(WorkloadMode::Open);
    let depth_limit = 6;
    let mut cells: Vec<CellSpec> = vec![CellSpec {
        label: "isolated".to_string(),
        seed: args.seed,
        fleet: args.fleet_config(),
        scheduler: SchedulerSpec::Fifo,
        admission: AdmissionSpec::AdmitAll,
        config,
        workload: Arc::new(isolated_workload),
    }];
    for &asymmetry in &asymmetries {
        for &skew in &skews {
            let workload = Arc::new(
                MultiTenantSpec::aggressor_victim(
                    victim_jobs,
                    victim_rate,
                    asymmetry,
                    skew,
                    args.seed,
                )
                .generate(),
            );
            for policy in FAIRNESS_POLICIES {
                cells.push(CellSpec {
                    label: format!("asym{asymmetry}/skew{skew}/{policy}"),
                    seed: args.seed,
                    fleet: args.fleet_config(),
                    scheduler: scheduler_for(policy, &workload),
                    admission: AdmissionSpec::AdmitAll,
                    config,
                    workload: Arc::clone(&workload),
                });
            }
        }
    }
    // Admission shedding bounds queue depth: budget the aggressor's lane.
    let gated_workload = Arc::new(
        MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, 10.0, 1.0, args.seed)
            .generate(),
    );
    let generous = TokenBucketConfig {
        rate_hz: 1e3,
        burst: 1e3,
        max_queue_depth: usize::MAX,
        max_defer_seconds: 1e9,
        ..TokenBucketConfig::default()
    };
    cells.push(CellSpec {
        label: "gated".to_string(),
        seed: args.seed,
        fleet: args.fleet_config(),
        scheduler: scheduler_for("wfq", &gated_workload),
        admission: AdmissionSpec::TokenBucket {
            default: generous,
            per_tenant: vec![(
                TenantId(1),
                TokenBucketConfig {
                    max_queue_depth: depth_limit,
                    ..generous
                },
            )],
        },
        config,
        workload: Arc::clone(&gated_workload),
    });

    let outcome = run_cells(observer, &cells);
    let isolated_p99 = outcome.cells[0].report.latency.p99;

    let mut cell_index = 1;
    for &asymmetry in &asymmetries {
        for &skew in &skews {
            for policy in FAIRNESS_POLICIES {
                let report = &outcome.cells[cell_index].report;
                cell_index += 1;
                let victim = report.tenant_named("victim").expect("victim stats");
                let aggressor = report.tenant_named("aggressor").expect("aggressor stats");
                println!(
                    "{:>5} {:>5} {:>7} {:>12.2}s {:>12.2}s {:>11.2}s {:>7.3} {:>8.3}",
                    asymmetry,
                    skew,
                    report.policy,
                    victim.latency.p99,
                    aggressor.latency.p99,
                    isolated_p99,
                    report.jains_fairness_index(),
                    report.max_min_share(),
                );

                if policy == "wfq" {
                    // A starved victim reports p99 = 0.0 and would pass the
                    // bound vacuously — completion is part of the claim.
                    if victim.completed < victim.submitted {
                        println!(
                            "FAIL: WFQ completed only {}/{} victim jobs (asym {asymmetry}, skew {skew})",
                            victim.completed, victim.submitted
                        );
                        ok = false;
                    }
                    if victim.latency.p99 > FAIR_BOUND * isolated_p99 {
                        println!(
                            "FAIL: WFQ victim p99 {:.2}s exceeds {FAIR_BOUND}x its isolated {:.2}s \
                             (asym {asymmetry}, skew {skew})",
                            victim.latency.p99, isolated_p99
                        );
                        ok = false;
                    }
                    if skew == 1.0 {
                        wfq_victim_by_asym.push(victim.latency.p99);
                    }
                } else if skew == 1.0 {
                    fifo_victim_by_asym.push(victim.latency.p99);
                }

                json_points.push(JsonValue::object([
                    ("asymmetry", JsonValue::from(asymmetry)),
                    ("weight_skew", JsonValue::from(skew)),
                    ("policy", JsonValue::from(report.policy.as_str())),
                    ("victim_p99_seconds", JsonValue::from(victim.latency.p99)),
                    (
                        "aggressor_p99_seconds",
                        JsonValue::from(aggressor.latency.p99),
                    ),
                    ("victim_isolated_p99_seconds", JsonValue::from(isolated_p99)),
                    (
                        "jains_fairness_index",
                        JsonValue::from(report.jains_fairness_index()),
                    ),
                    ("max_min_share", JsonValue::from(report.max_min_share())),
                ]));
                if policy == "wfq" && asymmetry == 10.0 && skew == 1.0 {
                    wfq_at_full_load = Some(report);
                }
            }
        }
    }

    // FIFO must degrade the victim as load grows; WFQ must not.  A shape
    // mismatch here means the sweep grid changed without this check being
    // updated — fail loudly rather than skip the acceptance claim.
    if let (&[fifo_lo, fifo_hi], &[_, wfq_hi]) = (&fifo_victim_by_asym[..], &wfq_victim_by_asym[..])
    {
        println!(
            "\nvictim p99 as the aggressor grows 2x -> 10x: \
             fifo {fifo_lo:.2}s -> {fifo_hi:.2}s, wfq stays {wfq_hi:.2}s"
        );
        if fifo_hi < 1.5 * fifo_lo {
            println!("FAIL: FIFO victim p99 did not degrade with aggressor load");
            ok = false;
        }
        if fifo_hi < 1.3 * wfq_hi {
            println!("FAIL: FIFO victim p99 is not clearly worse than WFQ at 10:1 load");
            ok = false;
        }
    } else {
        println!(
            "FAIL: degradation check expected 2 asymmetry points per policy, got fifo {} / wfq {}",
            fifo_victim_by_asym.len(),
            wfq_victim_by_asym.len()
        );
        ok = false;
    }

    // The un-gated baseline is the grid's own (asym 10, skew 1, WFQ) run;
    // the gated run is the cell list's last entry.
    let open = wfq_at_full_load.expect("grid covered asym 10 / skew 1 under WFQ");
    let gated = &outcome.cells[cells.len() - 1].report;
    let aggressor = gated.tenant_named("aggressor").expect("aggressor stats");
    let victim = gated.tenant_named("victim").expect("victim stats");
    println!(
        "admission (aggressor depth limit {depth_limit}): max queue depth {} -> {}, \
         shed {} aggressor / {} victim jobs",
        open.max_queue_depth(),
        gated.max_queue_depth(),
        aggressor.shed,
        victim.shed
    );
    if aggressor.max_queue_depth > depth_limit {
        println!("FAIL: admission did not bound the aggressor's queue depth");
        ok = false;
    }
    if aggressor.shed == 0 || open.max_queue_depth() <= gated.max_queue_depth() {
        println!("FAIL: admission shedding did not reduce the queue backlog");
        ok = false;
    }
    if victim.shed > 0 {
        println!("FAIL: admission shed the victim's jobs");
        ok = false;
    }
    json_points.push(JsonValue::object([
        ("check", JsonValue::from("admission")),
        ("depth_limit", JsonValue::from(depth_limit)),
        (
            "open_max_queue_depth",
            JsonValue::from(open.max_queue_depth()),
        ),
        (
            "gated_max_queue_depth",
            JsonValue::from(gated.max_queue_depth()),
        ),
        ("aggressor_shed", JsonValue::from(aggressor.shed)),
        ("victim_shed", JsonValue::from(victim.shed)),
    ]));

    (ok, JsonValue::Array(json_points))
}

/// `--mode aging-sweep`: map `ShortestPredictedFirst`'s aging weight
/// against p99 latency and starvation incidence, validating the shipped
/// `DEFAULT_AGING_WEIGHT`.
fn aging_sweep(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    use sx_cluster::scheduler::DEFAULT_AGING_WEIGHT;

    // A short-job flood with rare large jobs — the starvation-prone shape:
    // pure SJF always prefers the fresh shorts, so the large jobs' waits
    // stretch toward the whole makespan.  The flood must actually exceed
    // the fleet's service capacity or queues never form and every weight
    // looks identical, so the arrival rate is derived from the cost
    // model itself: ~125% of what the fleet can serve warm.  The capacity
    // probe runs once, when the plan is built (`SweepPlan::new`), so the
    // rate is pinned to the load and cannot drift if axes are added or
    // reordered.
    let plan = SweepPlan::new(
        "",
        args.fleet_config(),
        &[10],
        args.rate_hz,
        args.sim_config(WorkloadMode::Open),
    )
    .unwrap_or_else(|err| {
        eprintln!("aging-sweep calibration failed: {err}");
        std::process::exit(2);
    })
    .seeds(vec![args.seed])
    .loads(vec![1.25]);

    let weights = [0.0, 0.01, 0.03, DEFAULT_AGING_WEIGHT, 0.3, 1.0];
    // The aging weight is the scheduler axis: f64 `Display` round-trips
    // exactly, so the axis names parse back to the identical weights.
    let weight_names: Vec<String> = weights.iter().map(|w| format!("{w}")).collect();
    let scheduler_names: Vec<&str> = weight_names.iter().map(String::as_str).collect();
    let cells = plan.expand(
        &[(String::new(), ())],
        &scheduler_names,
        |seed, rate_hz, ()| {
            let spec = WorkloadSpec {
                jobs: args.jobs,
                seed,
                arrivals: ArrivalProcess::Poisson { rate_hz },
                mix: vec![
                    (12.0, FamilySpec::MaxCutCycle { sizes: vec![8, 10] }),
                    (1.0, FamilySpec::Partition { n: 40 }),
                ],
                deadlines: DeadlinePolicy::None,
            };
            match spec.try_generate() {
                Ok(workload) => Arc::new(workload),
                Err(err) => {
                    eprintln!("invalid workload spec: {err}");
                    std::process::exit(2);
                }
            }
        },
        |name, _| SchedulerSpec::ShortestPredictedFirst {
            aging_weight: name.parse().expect("weight axis names are f64 strings"),
        },
    );
    let workload = Arc::clone(&cells[0].workload);

    println!(
        "# cluster_sim aging-sweep: {} jobs ({} distinct topologies), {} QPUs, seed {} \
         (default weight {DEFAULT_AGING_WEIGHT})",
        workload.len(),
        workload.distinct_topologies(),
        args.qpus,
        args.seed
    );
    println!(
        "\n{:>8} {:>9} {:>9} {:>11} {:>11} {:>10}",
        "aging", "p99 [s]", "mean [s]", "max wait", "starved", "makespan"
    );

    let outcome = run_cells(observer, &cells);

    let mut ok = true;
    let mut points: Vec<(f64, f64, f64)> = Vec::new(); // (weight, p99, starvation)
    let mut json_points: Vec<JsonValue> = Vec::new();
    for (&weight, cell) in weights.iter().zip(&outcome.cells) {
        let report = &cell.report;
        // Starvation incidence: fraction of completed jobs that spent more
        // than a quarter of the whole makespan just waiting — jobs the
        // scheduler effectively parked until the stream dried up.
        let threshold = 0.25 * report.makespan_seconds;
        let starved = report
            .records
            .iter()
            .filter(|r| r.wait_seconds() > threshold)
            .count();
        let starvation = starved as f64 / report.completed.max(1) as f64;
        println!(
            "{:>8} {:>9.2} {:>9.2} {:>10.2}s {:>10.1}% {:>9.1}s",
            weight,
            report.latency.p99,
            report.latency.mean,
            report.wait.max,
            100.0 * starvation,
            report.makespan_seconds
        );
        points.push((weight, report.latency.p99, starvation));
        json_points.push(JsonValue::object([
            ("aging_weight", JsonValue::from(weight)),
            ("p99_seconds", JsonValue::from(report.latency.p99)),
            ("mean_seconds", JsonValue::from(report.latency.mean)),
            ("max_wait_seconds", JsonValue::from(report.wait.max)),
            ("starvation_incidence", JsonValue::from(starvation)),
        ]));
    }

    let best_p99 = points
        .iter()
        .map(|&(_, p99, _)| p99)
        .fold(f64::INFINITY, f64::min);
    let default_point = points
        .iter()
        .find(|&&(w, _, _)| w == DEFAULT_AGING_WEIGHT)
        .copied()
        .expect("default weight is in the sweep");
    let pure_sjf = points[0];
    println!(
        "\ndefault weight {DEFAULT_AGING_WEIGHT}: p99 {:.2}s (sweep best {best_p99:.2}s), \
         starvation {:.1}% (pure SJF {:.1}%)",
        default_point.1,
        100.0 * default_point.2,
        100.0 * pure_sjf.2
    );
    // The principled default: near the p99 optimum of the sweep, and it
    // must not starve more than pure SJF does.
    if default_point.1 > 1.5 * best_p99 {
        println!("FAIL: DEFAULT_AGING_WEIGHT p99 is >1.5x the sweep optimum");
        ok = false;
    }
    if default_point.2 > pure_sjf.2 {
        println!("FAIL: DEFAULT_AGING_WEIGHT starves more than pure SJF");
        ok = false;
    }

    (ok, JsonValue::Array(json_points))
}

/// `--mode admission`: cache-admission comparison (always vs the
/// second-chance doorkeeper) on a low-repetition mix with a bounded cache.
fn admission_compare(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    // A hot set of two recurring topologies drowned in one-shot variants —
    // the mix where unconditional caching churns the bounded cache.
    let spec = WorkloadSpec {
        jobs: args.jobs,
        seed: args.seed,
        arrivals: ArrivalProcess::Poisson {
            rate_hz: args.rate_hz,
        },
        mix: vec![
            (
                1.0,
                FamilySpec::MaxCutCycle {
                    sizes: vec![24, 30],
                },
            ),
            (
                2.0,
                FamilySpec::MaxCutGnp {
                    n: 18,
                    p: 0.3,
                    variants: 40,
                },
            ),
        ],
        deadlines: DeadlinePolicy::None,
    };
    let workload = match spec.try_generate() {
        Ok(workload) => workload,
        Err(err) => {
            eprintln!("invalid workload spec: {err}");
            std::process::exit(2);
        }
    };
    let capacity = args.capacity.unwrap_or(3);
    println!(
        "# cluster_sim admission: {} jobs over {} distinct topologies, {} QPUs, \
         capacity {capacity}, seed {}",
        workload.len(),
        workload.distinct_topologies(),
        args.qpus,
        args.seed
    );
    println!(
        "\n{:>14} {:>7} {:>10} {:>10} {:>10} {:>6}",
        "admission", "hit%", "mean [s]", "evictions", "bypassed", "cold"
    );

    let workload = Arc::new(workload);
    let cells: Vec<CellSpec> = AdmissionPolicy::all()
        .into_iter()
        .map(|admission| CellSpec {
            label: admission.name().to_string(),
            seed: args.seed,
            fleet: args
                .fleet_config()
                .with_cache(capacity, args.eviction.unwrap_or_default())
                .with_cache_admission(admission),
            scheduler: SchedulerSpec::Fifo,
            admission: AdmissionSpec::AdmitAll,
            config: args.sim_config(WorkloadMode::Open),
            workload: Arc::clone(&workload),
        })
        .collect();
    let outcome = run_cells(observer, &cells);
    let mut results: Vec<(AdmissionPolicy, SimReport)> = Vec::new();
    let mut json_points: Vec<JsonValue> = Vec::new();
    for (admission, cell) in AdmissionPolicy::all().into_iter().zip(outcome.cells) {
        let report = cell.report;
        println!(
            "{:>14} {:>7.1} {:>10.3} {:>10} {:>10} {:>6}",
            admission.name(),
            100.0 * report.hit_rate(),
            report.latency.mean,
            report.evictions(),
            report.cache_bypassed(),
            report.cold_misses()
        );
        json_points.push(JsonValue::object([
            ("admission", JsonValue::from(admission.name())),
            ("hit_rate", JsonValue::from(report.hit_rate())),
            ("mean_latency_seconds", JsonValue::from(report.latency.mean)),
            ("evictions", JsonValue::from(report.evictions())),
            ("bypassed", JsonValue::from(report.cache_bypassed())),
            ("cold_misses", JsonValue::from(report.cold_misses())),
        ]));
        results.push((admission, report));
    }

    let always = &results[0].1;
    let second = &results[1].1;
    let mut ok = true;
    if second.evictions() >= always.evictions() {
        println!(
            "FAIL: second-chance did not reduce cache churn ({} vs {})",
            second.evictions(),
            always.evictions()
        );
        ok = false;
    }
    if second.latency.mean > always.latency.mean * 1.02 {
        println!(
            "FAIL: second-chance lost on mean latency ({:.3}s vs {:.3}s)",
            second.latency.mean, always.latency.mean
        );
        ok = false;
    }
    println!(
        "\nsecond-chance vs always: {:.2}x evictions, {:.2}x mean latency",
        second.evictions() as f64 / always.evictions().max(1) as f64,
        second.latency.mean / always.latency.mean
    );

    (ok, JsonValue::Array(json_points))
}

/// Jain's-index guardrail of `--mode slo`: EDF-ordered lanes must keep the
/// index within this relative tolerance of plain (FIFO-lane) WFQ at the
/// high-load point — SLO attainment must not be bought with unfairness.
const SLO_JAIN_TOLERANCE: f64 = 0.05;

/// The deadline composition of `--mode slo`: two tenants re-solving
/// mixed-size cycle families (cold embed cost ∝ LPS³, so proportional
/// deadlines span a wide tightness range within each lane — the
/// heterogeneity EDF ordering exploits), with per-tenant proportional
/// slack.
fn slo_spec(
    victim_jobs: usize,
    victim_rate_hz: f64,
    victim_factor: f64,
    aggressor_factor: f64,
    asymmetry: f64,
    seed: u64,
) -> MultiTenantSpec {
    MultiTenantSpec {
        seed,
        tenants: vec![
            TenantSpec {
                name: "victim".to_string(),
                weight: 1.0,
                jobs: victim_jobs,
                arrivals: ArrivalProcess::Poisson {
                    rate_hz: victim_rate_hz,
                },
                // Disjoint size sets per tenant: each tenant pays its own
                // cold embeds, so the (large) one-off embed costs cannot
                // flip between tenants across policies and destabilize the
                // fairness comparison.
                mix: vec![(
                    1.0,
                    FamilySpec::MaxCutCycle {
                        sizes: vec![12, 20, 28, 36],
                    },
                )],
                deadlines: DeadlinePolicy::ProportionalSlack {
                    factor: victim_factor,
                },
            },
            TenantSpec {
                name: "aggressor".to_string(),
                weight: 1.0,
                jobs: ((victim_jobs as f64) * asymmetry).round() as usize,
                arrivals: ArrivalProcess::Poisson {
                    rate_hz: victim_rate_hz * asymmetry,
                },
                mix: vec![(
                    1.0,
                    FamilySpec::MaxCutCycle {
                        sizes: vec![14, 22, 30, 34],
                    },
                )],
                deadlines: DeadlinePolicy::ProportionalSlack {
                    factor: aggressor_factor,
                },
            },
        ],
    }
}

/// `--mode slo`: sweep load × deadline slack × policy on a two-tenant
/// deadline composition, enforcing the deadline acceptance claims: at the
/// high-load/tight-slack point, EDF-in-lane WFQ beats both FIFO and plain
/// (FIFO-lane) WFQ on SLO miss-rate without degrading Jain's index, and
/// token-bucket deadline-infeasibility shedding sheds doomed aggressor
/// jobs while never touching the feasible victim.
fn slo(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    // Capacity-derived arrival rates, as in the aging sweep: `load` is the
    // ratio of offered warm work to what the fleet can serve.  The mix
    // spans lps 12..=36 and warm service grows with size, so capacity is
    // calibrated against the *mean* warm service over the grid's sizes —
    // calibrating on one mid size would make nominal load 1.0 quietly
    // super-critical and saturate long runs into all-miss ties.  The probe
    // runs once, when the plan is built (`SweepPlan::new`), and every
    // cell's rate is derived from the stored value.
    let grid_sizes = [12usize, 14, 20, 22, 28, 30, 34, 36];
    let loads = [0.6, 1.1];
    let factors = [6.0, 12.0]; // tight vs loose proportional slack
    let victim_jobs = (args.jobs / 2).max(10);
    let config = args.sim_config(WorkloadMode::Open);
    let plan = SweepPlan::new("", args.fleet_config(), &grid_sizes, args.rate_hz, config)
        .unwrap_or_else(|err| {
            eprintln!("slo calibration failed: {err}");
            std::process::exit(2);
        })
        .seeds(vec![args.seed])
        .loads(loads.to_vec());

    println!(
        "# cluster_sim slo: 2 tenants x {victim_jobs} jobs, {} {} QPUs, seed {}, \
         loads {loads:?} x slack factors {factors:?}",
        args.qpus, args.fleet, args.seed
    );
    println!(
        "\n{:>5} {:>6} {:>9} {:>6} {:>7} {:>8} {:>11} {:>11} {:>7}",
        "load", "slack", "policy", "done", "miss%", "misses", "p99 late", "p99 lat", "Jain"
    );

    let mut ok = true;
    let mut json_points: Vec<JsonValue> = Vec::new();
    // (policy name -> (miss_rate, jain)) at the enforced grid point.
    let mut at_high_load: Vec<(String, f64, f64)> = Vec::new();

    // The (load × slack × policy) grid through the plan: one workload per
    // (load, slack) coordinate shared across the four scheduler specs.
    let variants: Vec<(String, f64)> = factors.iter().map(|&f| (format!("slack{f}"), f)).collect();
    let schedulers = ["fifo", "wfq-fifo", "wfq", "edf"];
    let mut cells = plan.expand(
        &variants,
        &schedulers,
        |seed, rate_hz, &factor| {
            Arc::new(slo_spec(victim_jobs, rate_hz / 2.0, factor, factor, 1.0, seed).generate())
        },
        scheduler_for,
    );
    let grid_len = cells.len();

    // Deadline-infeasibility shedding cells (checked after the grid): a
    // loose-slack victim (every job feasible at admission) shares the
    // fleet with a tight-slack cache-busting flood.  The aggressor's
    // diverse Gnp jobs embed cold and pin devices for long stretches; an
    // aggressor arrival with only a few seconds of slack while every
    // device is mid-embed is provably doomed (even the best case — warm
    // service the instant a device frees — lands past its deadline) and
    // must shed.  The victim's slack clears the worst possible pin (the
    // costliest cold service in the mix, with headroom), so the
    // admission-time bound can never claim a victim job.
    let probe = Fleet::new(args.fleet_config(), SplitExecConfig::with_seed(args.seed));
    let worst_pin = probe.worst_cold_service_seconds(36);
    let shed_workload = Arc::new(
        MultiTenantSpec {
            seed: args.seed,
            tenants: vec![
                TenantSpec {
                    name: "victim".to_string(),
                    weight: 1.0,
                    jobs: victim_jobs,
                    arrivals: ArrivalProcess::Poisson {
                        rate_hz: plan.rate_for(loads[1]) / 4.0,
                    },
                    mix: vec![(
                        1.0,
                        FamilySpec::MaxCutCycle {
                            sizes: vec![20, 28],
                        },
                    )],
                    deadlines: DeadlinePolicy::FixedSlack {
                        slack_seconds: 4.0 * worst_pin,
                    },
                },
                TenantSpec {
                    name: "aggressor".to_string(),
                    weight: 1.0,
                    jobs: victim_jobs * 3,
                    arrivals: ArrivalProcess::Poisson {
                        rate_hz: 3.0 * plan.rate_for(loads[1]) / 4.0,
                    },
                    mix: vec![(
                        1.0,
                        FamilySpec::MaxCutGnp {
                            n: 30,
                            p: 0.3,
                            variants: 40,
                        },
                    )],
                    deadlines: DeadlinePolicy::FixedSlack {
                        slack_seconds: 0.05 * worst_pin,
                    },
                },
            ],
        }
        .generate(),
    );
    for shed_infeasible in [false, true] {
        cells.push(CellSpec {
            label: format!("shed-{shed_infeasible}"),
            seed: args.seed,
            fleet: args.fleet_config(),
            scheduler: scheduler_for("wfq", &shed_workload),
            admission: AdmissionSpec::TokenBucket {
                default: TokenBucketConfig {
                    rate_hz: 1e3, // only the feasibility check binds
                    burst: 1e3,
                    max_queue_depth: usize::MAX,
                    max_defer_seconds: 1e9,
                    shed_infeasible,
                },
                per_tenant: Vec::new(),
            },
            config,
            workload: Arc::clone(&shed_workload),
        });
    }

    let outcome = run_cells(observer, &cells);

    let mut cell_index = 0;
    for &load in &loads {
        for &factor in &factors {
            for _scheduler in &schedulers {
                let report = &outcome.cells[cell_index].report;
                cell_index += 1;
                println!(
                    "{:>5} {:>6} {:>9} {:>6} {:>7.1} {:>8} {:>10.2}s {:>10.2}s {:>7.3}",
                    load,
                    factor,
                    report.policy,
                    report.completed,
                    100.0 * report.slo_miss_rate(),
                    report.slo_misses(),
                    report.lateness.p99,
                    report.latency.p99,
                    report.jains_fairness_index(),
                );
                json_points.push(JsonValue::object([
                    ("load", JsonValue::from(load)),
                    ("slack_factor", JsonValue::from(factor)),
                    ("policy", JsonValue::from(report.policy.as_str())),
                    ("slo_jobs", JsonValue::from(report.slo_jobs())),
                    ("slo_misses", JsonValue::from(report.slo_misses())),
                    ("slo_miss_rate", JsonValue::from(report.slo_miss_rate())),
                    ("p99_lateness_seconds", JsonValue::from(report.lateness.p99)),
                    (
                        "jains_fairness_index",
                        JsonValue::from(report.jains_fairness_index()),
                    ),
                ]));
                if load == loads[1] && factor == factors[0] {
                    at_high_load.push((
                        report.policy.clone(),
                        report.slo_miss_rate(),
                        report.jains_fairness_index(),
                    ));
                }
            }
        }
    }

    // The enforced point: high load, tight slack.
    let find = |name: &str| {
        at_high_load
            .iter()
            .find(|(p, _, _)| p == name)
            .unwrap_or_else(|| panic!("policy {name} missing from the grid"))
    };
    let (_, fifo_miss, _) = find("fifo");
    let (_, plain_miss, plain_jain) = find("wfq-fifo");
    let (_, edf_lane_miss, edf_lane_jain) = find("wfq");
    println!(
        "\nhigh load, tight slack: miss-rate fifo {:.1}% | wfq-fifo {:.1}% | wfq (EDF lanes) {:.1}%",
        100.0 * fifo_miss,
        100.0 * plain_miss,
        100.0 * edf_lane_miss
    );
    if *fifo_miss <= 0.0 {
        println!("FAIL: the high-load point produced no FIFO misses — the grid is too easy");
        ok = false;
    }
    if edf_lane_miss >= fifo_miss {
        println!(
            "FAIL: EDF-in-lane WFQ miss-rate {:.3} is not strictly below FIFO's {:.3}",
            edf_lane_miss, fifo_miss
        );
        ok = false;
    }
    if edf_lane_miss >= plain_miss {
        println!(
            "FAIL: EDF-in-lane WFQ miss-rate {:.3} is not strictly below plain WFQ's {:.3}",
            edf_lane_miss, plain_miss
        );
        ok = false;
    }
    if (edf_lane_jain - plain_jain).abs() > SLO_JAIN_TOLERANCE * plain_jain {
        println!(
            "FAIL: EDF lanes moved Jain's index to {:.3}, more than {:.0}% away from plain WFQ's {:.3}",
            edf_lane_jain,
            100.0 * SLO_JAIN_TOLERANCE,
            plain_jain
        );
        ok = false;
    }

    // The shedding cells are the list's last two entries: open (shedding
    // off) then gated (shedding on).
    let open = &outcome.cells[grid_len].report;
    let gated = &outcome.cells[grid_len + 1].report;
    let victim = gated.tenant_named("victim").expect("victim stats");
    let aggressor = gated.tenant_named("aggressor").expect("aggressor stats");
    println!(
        "infeasibility shedding: {} aggressor / {} victim jobs shed as doomed; \
         completed-miss-rate {:.1}% -> {:.1}%",
        aggressor.shed_infeasible,
        victim.shed_infeasible,
        100.0 * open.slo_miss_rate(),
        100.0 * gated.slo_miss_rate()
    );
    if victim.shed_infeasible > 0 {
        println!("FAIL: infeasibility shedding claimed a feasible victim job");
        ok = false;
    }
    if victim.completed < victim.submitted {
        println!(
            "FAIL: victim completed only {}/{} jobs under the gate",
            victim.completed, victim.submitted
        );
        ok = false;
    }
    if aggressor.shed_infeasible == 0 {
        println!("FAIL: the doomed flood never tripped infeasibility shedding");
        ok = false;
    }
    if gated.slo_miss_rate() > open.slo_miss_rate() {
        println!("FAIL: shedding doomed work worsened the completed-jobs miss rate");
        ok = false;
    }
    json_points.push(JsonValue::object([
        ("check", JsonValue::from("infeasible-shedding")),
        (
            "aggressor_shed_infeasible",
            JsonValue::from(aggressor.shed_infeasible),
        ),
        (
            "victim_shed_infeasible",
            JsonValue::from(victim.shed_infeasible),
        ),
        ("open_miss_rate", JsonValue::from(open.slo_miss_rate())),
        ("gated_miss_rate", JsonValue::from(gated.slo_miss_rate())),
    ]));

    (ok, JsonValue::Array(json_points))
}

/// Schema tag stamped into (and required back out of) the `--mode sweep`
/// JSON document.  The document is fully deterministic — no wall-clock
/// fields — so CI can byte-diff two runs of the same command.
const SWEEP_SCHEMA: &str = "sx-sweep/v1";

/// Per-cell keys of an `sx-sweep/v1` cell row that must be present and
/// finite numbers.
const SWEEP_CELL_NUM_KEYS: &[&str] = &[
    "load",
    "jobs",
    "completed",
    "shed",
    "events",
    "makespan_seconds",
    "latency_p50_seconds",
    "latency_p95_seconds",
    "latency_p99_seconds",
    "wait_p50_seconds",
    "wait_p95_seconds",
    "wait_p99_seconds",
    "hit_rate",
];

/// `--mode sweep`: the deterministic experiment runner exposed directly.
/// Expands an explicit seed × load × policy grid over the
/// aggressor/victim composition through [`SweepPlan`] (arrival rates
/// calibrated once per plan, so axis order cannot move a cell's rate) and
/// executes it cell by cell.  Emits a schema-stable [`SWEEP_SCHEMA`]
/// document with per-cell rows and merged sketch percentiles and **no
/// wall-clock fields** — byte-identical from run to run — then re-reads
/// it through the strict parser and
/// validates it against the schema.
/// Host-side events/sec goes to stdout only, where it cannot perturb a
/// CI byte-diff of the document.
fn sweep_mode(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    let seeds = args.seeds.clone().unwrap_or_else(|| vec![args.seed]);
    let loads = args.loads.clone().unwrap_or_else(|| vec![0.7, 1.1]);
    let policies = args
        .policies
        .clone()
        .unwrap_or_else(|| parse_csv("fifo,affinity,wfq", "--policies"));
    let scheduler_names: Vec<&str> = policies.iter().map(SchedulerSpec::name).collect();

    // A two-tenant aggressor/victim composition: the aggressor submits 3x
    // the victim's jobs at 3x its rate, so a cell totals ~4x `victim_jobs`.
    let asymmetry = 3.0;
    let victim_jobs = (args.jobs / 4).max(10);

    let plan = SweepPlan::new(
        args.fleet.clone(),
        args.fleet_config(),
        &[16, 20, 24],
        args.rate_hz,
        args.sim_config(WorkloadMode::Open),
    )
    .unwrap_or_else(|err| {
        eprintln!("sweep calibration failed: {err}");
        std::process::exit(2);
    })
    .seeds(seeds.clone())
    .loads(loads.clone());
    let cells = plan.expand(
        &[(String::new(), ())],
        &scheduler_names,
        |seed, total_rate, ()| {
            let victim_rate = total_rate / (1.0 + asymmetry);
            Arc::new(
                MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, asymmetry, 1.0, seed)
                    .generate(),
            )
        },
        scheduler_for,
    );

    println!(
        "# cluster_sim sweep: {} seeds x {} loads x {} policies = {} cells, ~{} jobs/cell, \
         {} QPUs, fleet {}",
        seeds.len(),
        loads.len(),
        policies.len(),
        cells.len(),
        victim_jobs * 4,
        args.qpus,
        args.fleet,
    );
    println!(
        "\n{:>24} {:>9} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9} {:>6}",
        "cell", "policy", "load", "jobs", "done", "events", "p99 [s]", "wait p99", "warm%"
    );

    let outcome = run_cells(observer, &cells);

    let mut ok = true;
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut cell_index = 0;
    let mut sketch_latency_total = 0u64;
    for &seed in &seeds {
        for &load in &loads {
            for policy in &policies {
                let cell = &outcome.cells[cell_index];
                cell_index += 1;
                let report = &cell.report;
                if report.policy != policy.name() {
                    println!(
                        "FAIL: cell {} ran policy '{}' where the grid expected '{}'",
                        cell.label,
                        report.policy,
                        policy.name()
                    );
                    ok = false;
                }
                sketch_latency_total += cell.latency_sketch.count();
                println!(
                    "{:>24} {:>9} {:>5.2} {:>7} {:>7} {:>7} {:>9.2} {:>9.2} {:>6.1}",
                    cell.label,
                    report.policy,
                    load,
                    report.jobs,
                    report.completed,
                    report.events,
                    cell.latency_sketch.p99(),
                    cell.wait_sketch.p99(),
                    100.0 * report.hit_rate(),
                );
                rows.push(JsonValue::object([
                    ("label", JsonValue::from(cell.label.as_str())),
                    // Seeds travel as strings, like the other documents: a
                    // u64 above 2^53 would round through Num's f64.
                    ("seed", JsonValue::from(seed.to_string())),
                    ("policy", JsonValue::from(report.policy.as_str())),
                    ("load", JsonValue::from(load)),
                    ("jobs", JsonValue::from(report.jobs)),
                    ("completed", JsonValue::from(report.completed)),
                    ("shed", JsonValue::from(report.shed)),
                    ("events", JsonValue::from(report.events)),
                    ("makespan_seconds", JsonValue::from(report.makespan_seconds)),
                    (
                        "latency_p50_seconds",
                        JsonValue::from(cell.latency_sketch.p50()),
                    ),
                    (
                        "latency_p95_seconds",
                        JsonValue::from(cell.latency_sketch.p95()),
                    ),
                    (
                        "latency_p99_seconds",
                        JsonValue::from(cell.latency_sketch.p99()),
                    ),
                    ("wait_p50_seconds", JsonValue::from(cell.wait_sketch.p50())),
                    ("wait_p95_seconds", JsonValue::from(cell.wait_sketch.p95())),
                    ("wait_p99_seconds", JsonValue::from(cell.wait_sketch.p99())),
                    ("hit_rate", JsonValue::from(report.hit_rate())),
                ]));
            }
        }
    }
    if outcome.merged.latency.count() != sketch_latency_total {
        println!(
            "FAIL: merged latency sketch holds {} observations, cells sum to {}",
            outcome.merged.latency.count(),
            sketch_latency_total
        );
        ok = false;
    }

    let doc = JsonValue::object([
        ("schema", JsonValue::from(SWEEP_SCHEMA)),
        (
            "seeds",
            JsonValue::Array(
                seeds
                    .iter()
                    .map(|s| JsonValue::from(s.to_string()))
                    .collect(),
            ),
        ),
        ("fleet", JsonValue::from(args.fleet.as_str())),
        ("qpus", JsonValue::from(args.qpus)),
        ("jobs_per_cell", JsonValue::from(victim_jobs * 4)),
        (
            "loads",
            JsonValue::Array(loads.iter().map(|&l| JsonValue::from(l)).collect()),
        ),
        (
            "policies",
            JsonValue::Array(
                scheduler_names
                    .iter()
                    .map(|&n| JsonValue::from(n))
                    .collect(),
            ),
        ),
        (
            "calibrated_rates",
            JsonValue::Array(
                loads
                    .iter()
                    .map(|&load| {
                        JsonValue::object([
                            ("load", JsonValue::from(load)),
                            ("rate_hz", JsonValue::from(plan.rate_for(load))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cells", JsonValue::Array(rows)),
        ("merged", outcome.merged.to_json()),
    ]);

    // Host-side throughput to stdout ONLY: the JSON document must not
    // contain a single nondeterministic byte.
    println!(
        "\nhost: {} events over {:.3}s wall clock — {:.0} events/s",
        outcome.merged.events,
        outcome.wall_seconds,
        outcome.events_per_sec(),
    );

    let path = args
        .json
        .clone()
        .unwrap_or_else(|| "SWEEP_cluster.json".to_string());
    if let Err(err) = std::fs::write(&path, format!("{doc}\n")) {
        eprintln!("cannot write {path}: {err}");
        std::process::exit(2);
    }
    let reread = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot re-read {path}: {err}");
            std::process::exit(2);
        }
    };
    let expected_cells = seeds.len() * loads.len() * policies.len();
    match sx_cluster::json::parse(&reread) {
        Ok(parsed) => match validate_sweep_doc(&parsed, expected_cells) {
            Ok(()) => {
                println!("wrote {path} ({expected_cells} cells, schema {SWEEP_SCHEMA} valid)")
            }
            Err(why) => {
                println!("FAIL: {path} violates {SWEEP_SCHEMA}: {why}");
                ok = false;
            }
        },
        Err(err) => {
            println!("FAIL: {path} is not valid JSON: {err}");
            ok = false;
        }
    }

    (ok, doc)
}

/// Validate a parsed `SWEEP_cluster.json` against the `sx-sweep/v1` schema
/// documented in `docs/cluster_sim.md`.  Returns the first violation
/// found.  Numeric fields must be finite — `JsonValue` renders NaN/Inf as
/// `null`, so a non-finite metric surfaces here instead of slipping into a
/// baseline diff.
fn validate_sweep_doc(doc: &JsonValue, expected_cells: usize) -> Result<(), String> {
    let num = |obj: &JsonValue, key: &str, at: &str| -> Result<f64, String> {
        match obj.get(key) {
            Some(&JsonValue::Num(n)) if n.is_finite() => Ok(n),
            Some(other) => Err(format!("{at}.{key}: expected a finite number, got {other}")),
            None => Err(format!("{at}.{key}: missing")),
        }
    };
    let string = |obj: &JsonValue, key: &str, at: &str| -> Result<String, String> {
        match obj.get(key) {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            Some(other) => Err(format!("{at}.{key}: expected a string, got {other}")),
            None => Err(format!("{at}.{key}: missing")),
        }
    };

    let schema = string(doc, "schema", "$")?;
    if schema != SWEEP_SCHEMA {
        return Err(format!("$.schema: '{schema}' != '{SWEEP_SCHEMA}'"));
    }
    match doc.get("seeds") {
        Some(JsonValue::Array(seeds)) if !seeds.is_empty() => {
            for (i, seed) in seeds.iter().enumerate() {
                match seed {
                    JsonValue::Str(s) if s.parse::<u64>().is_ok() => {}
                    other => return Err(format!("$.seeds[{i}]: '{other}' is not a u64 string")),
                }
            }
        }
        other => {
            return Err(format!(
                "$.seeds: expected a non-empty array, got {other:?}"
            ))
        }
    }
    string(doc, "fleet", "$")?;
    num(doc, "qpus", "$")?;
    num(doc, "jobs_per_cell", "$")?;
    for key in ["loads", "policies"] {
        match doc.get(key) {
            Some(JsonValue::Array(values)) if !values.is_empty() => {}
            other => {
                return Err(format!(
                    "$.{key}: expected a non-empty array, got {other:?}"
                ))
            }
        }
    }
    let rates = match doc.get("calibrated_rates") {
        Some(JsonValue::Array(rates)) if !rates.is_empty() => rates,
        other => {
            return Err(format!(
                "$.calibrated_rates: expected a non-empty array, got {other:?}"
            ))
        }
    };
    for (i, rate) in rates.iter().enumerate() {
        let at = format!("$.calibrated_rates[{i}]");
        num(rate, "load", &at)?;
        let rate_hz = num(rate, "rate_hz", &at)?;
        if rate_hz <= 0.0 {
            return Err(format!("{at}.rate_hz: {rate_hz} is not positive"));
        }
    }

    let cells = match doc.get("cells") {
        Some(JsonValue::Array(cells)) => cells,
        other => return Err(format!("$.cells: expected an array, got {other:?}")),
    };
    if cells.len() != expected_cells {
        return Err(format!(
            "$.cells: expected {expected_cells} cells, got {}",
            cells.len()
        ));
    }
    let mut summed_jobs = 0.0;
    let mut summed_events = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let at = format!("$.cells[{i}]");
        if !matches!(cell, JsonValue::Object(_)) {
            return Err(format!("{at}: expected an object, got {cell}"));
        }
        string(cell, "label", &at)?;
        let seed = string(cell, "seed", &at)?;
        seed.parse::<u64>()
            .map_err(|_| format!("{at}.seed: '{seed}' is not a u64"))?;
        string(cell, "policy", &at)?;
        for key in SWEEP_CELL_NUM_KEYS {
            num(cell, key, &at)?;
        }
        summed_jobs += num(cell, "jobs", &at)?;
        summed_events += num(cell, "events", &at)?;
    }

    let merged = match doc.get("merged") {
        Some(merged @ JsonValue::Object(_)) => merged,
        other => return Err(format!("$.merged: expected an object, got {other:?}")),
    };
    for key in [
        "cells",
        "jobs",
        "completed",
        "shed",
        "events",
        "relative_error_bound",
        "latency_count",
        "latency_p50_seconds",
        "latency_p95_seconds",
        "latency_p99_seconds",
        "wait_count",
        "wait_p50_seconds",
        "wait_p95_seconds",
        "wait_p99_seconds",
    ] {
        num(merged, key, "$.merged")?;
    }
    if num(merged, "cells", "$.merged")? != expected_cells as f64 {
        return Err(format!(
            "$.merged.cells: {} != the {expected_cells} cell rows",
            num(merged, "cells", "$.merged")?
        ));
    }
    if num(merged, "jobs", "$.merged")? != summed_jobs {
        return Err("$.merged.jobs: does not equal the sum of cell rows".to_string());
    }
    if num(merged, "events", "$.merged")? != summed_events {
        return Err("$.merged.events: does not equal the sum of cell rows".to_string());
    }
    Ok(())
}

/// `--mode replay`: re-run every segment of a flight record (`--input`,
/// written by `--record`) from its recorded `CellSpec` and verify the
/// engine reproduces each recorded trace stream bit-for-bit; FAILs on any
/// divergence.  `--record`/`--trace-out` still apply, so a replay can
/// itself be re-recorded — the round-trip is byte-stable.
fn replay(args: &Args, observer: &mut Observer) -> (bool, JsonValue) {
    let path = args.input.as_deref().unwrap_or_else(|| {
        eprintln!("--mode replay needs --input <flight-record.jsonl>");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("cannot read --input {path}: {err}");
        std::process::exit(2);
    });
    let record = match parse_flight_record(&text) {
        Ok(record) => record,
        Err(err) => {
            eprintln!("invalid flight record {path}: {err}");
            std::process::exit(2);
        }
    };
    println!(
        "# cluster_sim replay: {path}, {} recorded run segment(s)",
        record.runs.len()
    );

    let mut ok = true;
    let mut json_points: Vec<JsonValue> = Vec::new();
    for (segment, run) in record.runs.iter().enumerate() {
        let spec = &run.spec;
        let check = observer.replay(run);
        match check.divergence {
            None => println!(
                "segment {segment}: policy {}, admission {}, seed {} — bit-identical \
                 ({} records, {} jobs completed)",
                spec.scheduler.name(),
                spec.admission.name(),
                spec.seed,
                run.records.len(),
                check.report.completed
            ),
            Some(at) => {
                ok = false;
                println!(
                    "FAIL: segment {segment} (policy {}, admission {}, seed {}) DIVERGED at \
                     record {at}: recorded {:?} vs replayed {:?}",
                    spec.scheduler.name(),
                    spec.admission.name(),
                    spec.seed,
                    run.records.get(at),
                    check.replayed.get(at)
                );
            }
        }
        json_points.push(JsonValue::object([
            ("segment", JsonValue::from(segment)),
            ("label", JsonValue::from(spec.label.as_str())),
            ("policy", JsonValue::from(spec.scheduler.name())),
            ("admission", JsonValue::from(spec.admission.name())),
            ("seed", JsonValue::from(spec.seed.to_string())),
            ("jobs", JsonValue::from(spec.workload.len())),
            ("qpus", JsonValue::from(spec.fleet.qpus)),
            ("records", JsonValue::from(run.records.len())),
            (
                "divergence",
                check.divergence.map_or(JsonValue::Null, JsonValue::from),
            ),
        ]));
    }
    (ok, JsonValue::Array(json_points))
}

/// Execute one real job through the pipeline and compare its stage shape
/// with the analytic model the simulator charges — the tie between the
/// simulator and the measured system.
fn calibrate(seed: u64) {
    use chimera_graph::generators;
    use qubo_ising::prelude::MaxCut;
    use split_exec::{Pipeline, SplitMachine};

    let pipeline = Pipeline::new(
        SplitMachine::paper_default(),
        SplitExecConfig::with_seed(seed),
    );
    let qubo = MaxCut::unweighted(generators::cycle(12)).to_qubo();
    match pipeline.execute(&qubo) {
        Ok(report) => println!(
            "calibration (real lps-12 job): stage-1 share measured {:.1}% — the simulator's \
             analytic service model charges the same shape",
            100.0 * report.stage1_fraction()
        ),
        Err(err) => println!("calibration job failed: {err}"),
    }
}

//! Datacenter simulation: scheduling policies, cache sweeps, multi-tenant
//! fairness and deadline SLOs — with a flight recorder that can capture
//! any run and replay it bit-identically.
//!
//! Eight modes (see `docs/cluster_sim.md` for the full flag and JSON-schema
//! reference):
//!
//! * `--mode compare` (default) — every scheduling policy on one job
//!   stream: each policy's breakdown must stay stage-1 dominated (the
//!   paper's headline at fleet scale), and on the repeated-topology mix
//!   cache-affinity must beat FIFO on mean latency.
//! * `--mode cache-cliff` — per-device warm-cache capacity × topology
//!   diversity × eviction policy: the hit rate must fall off a cliff as
//!   capacity drops below the diversity, and cost-aware eviction must match
//!   or beat LRU on mean latency at the cliff.
//! * `--mode fairness` — tenant weight skew × arrival asymmetry × policy on
//!   an aggressor/victim composition: WFQ must keep the victim's p99 within
//!   a constant factor of its isolated run while FIFO degrades, and
//!   token-bucket admission must bound the aggressor's queue depth without
//!   shedding the victim.
//! * `--mode aging-sweep` — `ShortestPredictedFirst`'s aging weight against
//!   p99 and starvation on a short-job flood: the shipped
//!   `DEFAULT_AGING_WEIGHT` must sit near the sweep's optimum.
//! * `--mode admission` — cache admission (always vs the second-chance
//!   doorkeeper) on a low-repetition mix with a bounded cache.
//! * `--mode slo` — load × slack × policy on a two-tenant deadline
//!   composition: EDF-in-lane WFQ must beat FIFO and plain WFQ on SLO
//!   miss-rate at the high-load/tight-slack point, and infeasibility
//!   shedding must shed doomed jobs without claiming a feasible one.
//! * `--mode sweep` — an explicit (seed × load × policy) grid through
//!   `SweepPlan`, written as the wall-clock-free `sx-sweep/v1` document.
//! * `--mode replay --input PATH` — re-runs every segment of a flight
//!   record written by `--record` and FAILs if any diverges.
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
//!     [--trace-out PATH] [--seeds S1,S2,..] [--loads L1,L2,..] [--policies P1,P2,..]
//! ```
//!
//! Every grid mode is an [`Experiment`]: a title, its whole cell list in
//! table order, and a judge that turns the cells' results into the
//! `--json` result rows and a list of named checks.  One driver ([`run`])
//! executes the cells in order through the [`Observer`] (so
//! `--record`/`--trace-out` see every run without changing any result);
//! `main` prints each row as a table line, prints `FAIL: <message>` for
//! every failed check and exits 1 if any failed.  `replay` builds the same
//! [`Verdict`] from its recorded segments.
//!
//! `--record PATH` streams every simulated run to an
//! `sx-flight-record/v4` JSONL file: per run a header (its serialized
//! [`CellSpec`] plus fleet fingerprint and workload digest) and its full
//! trace.  `--workload trace:PATH` (compare mode) runs the workload of
//! such a record's first segment.  `--trace-out PATH` writes a Perfetto
//! trace of the first run.  Both output paths are opened eagerly and
//! latched write failures FAIL the run at exit.
//!
//! `--json PATH` writes `{mode, seed, jobs, qpus, passed, results}`
//! (`replay`: `input` in place of `seed`, `jobs` and `qpus`); `sweep`
//! writes its own `sx-sweep/v1` document, to `SWEEP_cluster.json` by
//! default.  `--virtual` skips the (slow) calibration step that executes a
//! real job through `split_exec::Pipeline`; CI runs the modes with it.

use std::sync::Arc;
use std::time::Instant;

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

/// A JSON object from `key => value` pairs, each value through
/// `JsonValue::from`.
macro_rules! row {
    ($($key:literal => $value:expr),* $(,)?) => {
        JsonValue::object([$(($key, JsonValue::from($value))),*])
    };
}

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
            percentiles: PercentileMode::Exact,
            seeds: None,
            loads: None,
            policies: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let f = flag.as_str();
            let mut value = || {
                it.next().unwrap_or_else(|| {
                    eprintln!("{f} needs a value");
                    std::process::exit(2);
                })
            };
            match f {
                "--mode" => args.mode = value(),
                "--jobs" => args.jobs = parse_or_die(&value(), f),
                "--qpus" => args.qpus = parse_or_die(&value(), f),
                "--seed" => args.seed = parse_or_die(&value(), f),
                "--rate" => args.rate_hz = parse_or_die(&value(), f),
                "--seeds" => args.seeds = Some(parse_csv(&value(), f)),
                "--loads" => args.loads = Some(parse_csv(&value(), f)),
                "--policies" => args.policies = Some(parse_csv(&value(), f)),
                "--closed" => args.closed = Some(parse_or_die(&value(), f)),
                "--workload" => args.workload = value(),
                "--policy" => {
                    let raw = value();
                    args.policy = (raw != "all").then(|| parse_or_die(&raw, f));
                }
                "--fleet" => args.fleet = value(),
                "--capacity" => args.capacity = Some(parse_or_die(&value(), f)),
                "--eviction" => args.eviction = Some(parse_or_die(&value(), f)),
                "--cache-admission" => args.cache_admission = Some(parse_or_die(&value(), f)),
                "--json" => args.json = Some(value()),
                "--virtual" => args.virtual_only = true,
                "--trace-out" => args.trace_out = Some(value()),
                "--record" => args.record = Some(value()),
                "--input" => args.input = Some(value()),
                "--percentiles" => {
                    args.percentiles = match value().as_str() {
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

    /// A cell on this invocation's fleet, admitting every arrival in open
    /// mode: the shape most cells take, adjusted by struct update.
    fn cell(&self, label: String, scheduler: SchedulerSpec, workload: &Arc<Workload>) -> CellSpec {
        CellSpec {
            label,
            fleet: self.fleet_config(),
            scheduler,
            admission: AdmissionSpec::AdmitAll,
            config: self.sim_config(WorkloadMode::Open),
            workload: Arc::clone(workload),
        }
    }

    /// A capacity-calibrated plan over this invocation's fleet and seed;
    /// a size the fleet cannot serve is a usage error.
    fn plan(&self, fleet_name: &str, sizes: &[usize], loads: Vec<f64>) -> SweepPlan {
        let config = self.sim_config(WorkloadMode::Open);
        SweepPlan::new(fleet_name, self.fleet_config(), sizes, self.rate_hz, config)
            .unwrap_or_else(|err| {
                eprintln!("{} calibration failed: {err}", self.mode);
                std::process::exit(2);
            })
            .seeds(vec![self.seed])
            .loads(loads)
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

/// A generated workload, shared; an invalid spec is a usage error.
fn generate(workload: Result<Workload, WorkloadError>) -> Arc<Workload> {
    Arc::new(workload.unwrap_or_else(|err| {
        eprintln!("invalid workload spec: {err}");
        std::process::exit(2);
    }))
}

/// Read and parse the flight record at `path`; a missing or malformed
/// file is a usage error.
fn read_flight_record(path: &str) -> FlightRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("cannot read flight record {path}: {err}");
        std::process::exit(2);
    });
    parse_flight_record(&text).unwrap_or_else(|err| {
        eprintln!("invalid flight record {path}: {err}");
        std::process::exit(2);
    })
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

/// The observation plumbing shared by every mode: the optional flight
/// recorder (`--record`, every run) and the optional Perfetto export
/// (`--trace-out`, first run only — interleaving several runs would make
/// the lanes unattributable), each with its path.  Both output files are
/// opened eagerly at startup so a bad path is a usage error, and latched
/// write failures surface in [`Observer::close`].
struct Observer {
    recorder: Option<(String, RecorderSink<std::io::BufWriter<std::fs::File>>)>,
    perfetto: Option<(String, std::fs::File, PerfettoSink)>,
    traced: bool,
}

impl Observer {
    fn from_args(args: &Args) -> Observer {
        let open = |flag: &str, path: &String| match std::fs::File::create(path) {
            Ok(file) => (path.clone(), file),
            Err(err) => {
                eprintln!("cannot open {flag} {path}: {err}");
                std::process::exit(2);
            }
        };
        let recorder = args.record.as_ref().map(|path| {
            let (path, file) = open("--record", path);
            (path, RecorderSink::new(std::io::BufWriter::new(file)))
        });
        let perfetto = args.trace_out.as_ref().map(|path| {
            let (path, file) = open("--trace-out", path);
            (path, file, PerfettoSink::new())
        });
        Observer {
            recorder,
            perfetto,
            traced: false,
        }
    }

    /// Assemble the sink chain for one run of `spec` — its flight-record
    /// segment header (when recording), the Perfetto exporter on the first
    /// run only — and hand it to `run`.  With nothing active the chain
    /// degenerates to a bare [`NullSink`], the perf-default path.
    fn with_chain<T>(&mut self, spec: &CellSpec, run: impl FnOnce(&mut dyn TraceSink) -> T) -> T {
        let attach_perfetto = !self.traced;
        self.traced = true;

        let mut base = NullSink;
        let mut chain: &mut dyn TraceSink = &mut base;
        let mut fan_recorder;
        if let Some((_, recorder)) = self.recorder.as_mut() {
            recorder.begin_run(spec);
            fan_recorder = FanoutSink::new(recorder, chain);
            chain = &mut fan_recorder;
        }
        let mut fan_perfetto;
        if let (true, Some((_, _, perfetto))) = (attach_perfetto, self.perfetto.as_mut()) {
            fan_perfetto = FanoutSink::new(perfetto, chain);
            chain = &mut fan_perfetto;
        }
        run(chain)
    }

    /// Flush the output files and surface any failure the sinks latched
    /// mid-run; an `Err` here must fail the invocation.
    fn close(self) -> Result<(), String> {
        use std::io::Write;

        let mut failures = Vec::new();
        if let Some((path, recorder)) = self.recorder {
            match recorder.finish() {
                Ok((_, lines)) => println!("wrote flight record {path} ({lines} lines)"),
                Err(err) => failures.push(format!("--record {path}: write failed: {err}")),
            }
        }
        if let Some((path, mut file, perfetto)) = self.perfetto {
            match file.write_all(format!("{}\n", perfetto.finish()).as_bytes()) {
                Ok(()) => println!("wrote Perfetto trace {path} (open at https://ui.perfetto.dev)"),
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

/// One grid mode: everything it runs, and how its results are judged.
struct Experiment {
    /// The `# cluster_sim <mode>: ...` line above the table.
    title: String,
    /// Every cell of the mode, in table order.
    cells: Vec<CellSpec>,
    judge: Judge,
}

/// Turns a mode's cells and their results (index-aligned) into its
/// [`Verdict`].
type Judge = Box<dyn FnOnce(&[CellSpec], &[CellResult]) -> Verdict>;

impl Experiment {
    fn new(
        title: String,
        cells: Vec<CellSpec>,
        judge: impl FnOnce(&[CellSpec], &[CellResult]) -> Verdict + 'static,
    ) -> Experiment {
        let judge = Box::new(judge);
        Experiment {
            title,
            cells,
            judge,
        }
    }
}

/// What a mode's results come to.
#[derive(Default)]
struct Verdict {
    /// The `--json` result rows; each is also one or more table lines.
    rows: Vec<JsonValue>,
    /// Named checks, `(message, failed)`; a failed one prints as
    /// `FAIL: <message>` and fails the run.
    checks: Vec<(String, bool)>,
    /// Dotted keys the table shows; empty shows every scalar field.
    columns: &'static [&'static str],
    /// A document the mode writes in place of the generic `--json`
    /// wrapper (`sweep`'s `sx-sweep/v1`).
    document: Option<JsonValue>,
}

impl Verdict {
    fn new(rows: impl IntoIterator<Item = JsonValue>) -> Verdict {
        Verdict {
            rows: rows.into_iter().collect(),
            ..Verdict::default()
        }
    }

    /// Record a check that fails when `failed` holds.
    fn fail_if(&mut self, failed: bool, message: impl Into<String>) {
        self.checks.push((message.into(), failed));
    }
}

fn main() {
    let args = Args::parse();
    if !args.virtual_only {
        calibrate(args.seed);
    }

    let mut observer = Observer::from_args(&args);
    let verdict = match args.mode.as_str() {
        "replay" => replay(&args, &mut observer),
        "compare" => run(compare(&args), &mut observer),
        "cache-cliff" => run(cache_cliff(&args), &mut observer),
        "fairness" => run(fairness(&args), &mut observer),
        "aging-sweep" => run(aging_sweep(&args), &mut observer),
        "admission" => run(admission_compare(&args), &mut observer),
        "slo" => run(slo(&args), &mut observer),
        "sweep" => run(sweep_mode(&args), &mut observer),
        other => {
            eprintln!(
                "unknown mode '{other}' (expected compare, cache-cliff, fairness, \
                 aging-sweep, admission, slo, sweep or replay)"
            );
            std::process::exit(2);
        }
    };

    print_table(&verdict.rows, verdict.columns);
    let failed: Vec<&String> = verdict
        .checks
        .iter()
        .filter(|c| c.1)
        .map(|c| &c.0)
        .collect();
    let total = verdict.checks.len();
    println!("\nchecks: {} of {total} passed", total - failed.len());
    for message in &failed {
        println!("FAIL: {message}");
    }
    let mut ok = failed.is_empty();
    if let Err(err) = observer.close() {
        println!("FAIL: {err}");
        ok = false;
    }

    let output = match verdict.document {
        Some(doc) => Some((args.json.as_deref().unwrap_or("SWEEP_cluster.json"), doc)),
        None => args.json.as_deref().map(|path| {
            let mut fields = vec![("mode", JsonValue::from(args.mode.as_str()))];
            if args.mode == "replay" {
                // A replay's runs come from the record, not the CLI flags:
                // each segment row carries its own seed, jobs and qpus.
                let input = args.input.as_deref().unwrap_or_default();
                fields.push(("input", JsonValue::from(input)));
            } else {
                fields.extend([
                    // As a string: a u64 seed above 2^53 would be silently
                    // rounded through JsonValue::Num's f64.
                    ("seed", JsonValue::from(args.seed.to_string())),
                    ("jobs", JsonValue::from(args.jobs)),
                    ("qpus", JsonValue::from(args.qpus)),
                ]);
            }
            fields.push(("passed", JsonValue::from(ok)));
            fields.push(("results", JsonValue::Array(verdict.rows)));
            (path, JsonValue::object(fields))
        }),
    };
    if let Some((path, doc)) = output {
        if let Err(err) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write --json {path}: {err}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
    if !ok {
        std::process::exit(1);
    }
}

/// The driver of every grid mode: print the title, run the cells in order
/// through the observer, report host throughput (stdout only, never in a
/// document), and judge the results.
fn run(experiment: Experiment, observer: &mut Observer) -> Verdict {
    let Experiment {
        title,
        cells,
        judge,
    } = experiment;
    println!("{title}");
    let start = Instant::now();
    let results: Vec<CellResult> = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| observer.with_chain(cell, |chain| run_cell(index, cell, chain)))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let events: usize = results.iter().map(|cell| cell.report.events).sum();
    let rate = events as f64 / wall.max(f64::MIN_POSITIVE);
    println!(
        "host: {} cells, {events} events over {wall:.3}s wall clock — {rate:.0} events/s",
        cells.len()
    );
    judge(&cells, &results)
}

/// Print rows as aligned tables, one per run of lines sharing their keys.
/// A row's line holds its scalar fields (or, when `columns` is given,
/// those dotted keys); a row holding an array of objects expands into one
/// line per element, prefixed by the row's scalars.
fn print_table(rows: &[JsonValue], columns: &[&str]) {
    let fields = |value: &JsonValue| match value {
        JsonValue::Object(fields) => fields.clone(),
        _ => Vec::new(),
    };
    // A line is its `(key, text)` cells.
    let scalars = |value: &JsonValue| -> Vec<(String, String)> {
        let scalar = |v: &JsonValue| !matches!(v, JsonValue::Array(_) | JsonValue::Object(_));
        let fields = fields(value).into_iter().filter(|(_, v)| scalar(v));
        fields.map(|(k, v)| (k, cell_text(&v))).collect()
    };
    let mut lines: Vec<Vec<(String, String)>> = Vec::new();
    for row in rows {
        let nested = fields(row).into_iter().find_map(|(_, v)| match v {
            JsonValue::Array(items) if matches!(items.first(), Some(JsonValue::Object(_))) => {
                Some(items)
            }
            _ => None,
        });
        if !columns.is_empty() {
            let column = |path: &&str| {
                let value = path.split('.').try_fold(row, |v, key| v.get(key));
                (path.to_string(), value.map_or_else(String::new, cell_text))
            };
            lines.push(columns.iter().map(column).collect());
        } else if let Some(items) = nested {
            for item in &items {
                lines.push(scalars(row).into_iter().chain(scalars(item)).collect());
            }
        } else {
            lines.push(scalars(row));
        }
    }
    let keys = |line: &Vec<(String, String)>| line.iter().map(|(k, _)| k.clone()).collect();
    for table in lines.chunk_by(|a, b| keys(a) == keys(b)) {
        let header: Vec<String> = keys(&table[0]);
        let texts = table
            .iter()
            .map(|line| line.iter().map(|(_, text)| text).collect());
        println!();
        for line in std::iter::once(header.iter().collect::<Vec<_>>()).chain(texts) {
            let mut out = Vec::new();
            for (col, text) in line.iter().enumerate() {
                let widest = table.iter().map(|l| l[col].1.chars().count());
                let width = widest.fold(header[col].len(), usize::max);
                out.push(format!("{text:>width$}"));
            }
            println!("{}", out.join("  "));
        }
    }
}

/// A scalar's table text: integers as integers, other numbers to three
/// decimals (scientific below 0.001).
fn cell_text(value: &JsonValue) -> String {
    match value {
        JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
        JsonValue::Num(n) if *n != 0.0 && n.abs() < 1e-3 => format!("{n:.2e}"),
        JsonValue::Num(n) => format!("{n:.3}"),
        JsonValue::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// The columns of `compare`'s table, picked from its full `SimReport` rows.
const COMPARE_COLUMNS: &[&str] = &[
    "policy",
    "completed",
    "rejected",
    "latency_seconds.mean",
    "latency_seconds.p50",
    "latency_seconds.p95",
    "latency_seconds.p99",
    "hit_rate",
    "cold_misses",
    "evictions",
    "stage1_fraction",
    "makespan_seconds",
];

/// The policy-comparison mode: every policy (or `--policy`) on one
/// stream, rows being full `SimReport`s.
fn compare(args: &Args) -> Experiment {
    let (jobs, rate, seed) = (args.jobs, args.rate_hz, args.seed);
    let workload = match args.workload.as_str() {
        "repeated" => generate(WorkloadSpec::repeated_topologies(jobs, rate, seed).try_generate()),
        "mixed" => generate(WorkloadSpec::mixed(jobs, rate, seed).try_generate()),
        "bursty" => generate(WorkloadSpec::bursty(jobs, rate, 8, seed).try_generate()),
        // A recorded run's job stream is just another workload source.
        other => match other.strip_prefix("trace:") {
            Some(path) => Arc::clone(&read_flight_record(path).runs[0].spec.workload),
            None => {
                let expected = "repeated, mixed, bursty or trace:PATH";
                eprintln!("unknown workload '{other}' (expected {expected})");
                std::process::exit(2);
            }
        },
    };
    let mode = match args.closed {
        Some(clients) => WorkloadMode::Closed { clients },
        None => WorkloadMode::Open,
    };
    let cache_label = match args.capacity {
        Some(cap) => format!("cache {cap}/{}", args.eviction.unwrap_or_default()),
        None => "unbounded cache".into(),
    };
    let title = format!(
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
    let policies = match &args.policy {
        Some(policy) => vec![policy.clone()],
        None => SchedulerSpec::all().to_vec(),
    };
    let cells = policies
        .into_iter()
        .map(|scheduler| CellSpec {
            config: args.sim_config(mode),
            ..args.cell(scheduler.to_string(), scheduler, &workload)
        })
        .collect();
    // Affinity must beat FIFO only where warmth pays: the repeated mix on
    // unbounded caches.
    let affinity_must_win = args.workload == "repeated" && args.capacity.is_none();
    let judge = move |_: &[CellSpec], results: &[CellResult]| {
        let mut verdict = Verdict::new(results.iter().map(|cell| cell.report.to_json()));
        verdict.columns = COMPARE_COLUMNS;
        for report in results.iter().map(|cell| &cell.report) {
            let failed = report.completed > 0 && report.stage1_fraction() <= 0.5;
            let message = format!("{} breakdown is not stage-1 dominated", report.policy);
            verdict.fail_if(failed, message);
        }
        let mean = |name: &str| {
            let cell = results.iter().find(|cell| cell.report.policy == name);
            cell.map(|cell| cell.report.latency.mean)
        };
        if let (Some(fifo), Some(affinity), true) =
            (mean("fifo"), mean("affinity"), affinity_must_win)
        {
            let speedup = fifo / affinity;
            let message = format!(
                "cache-affinity did not beat FIFO on the repeated-topology mix ({speedup:.2}x)"
            );
            verdict.fail_if(speedup <= 1.0, message);
        }
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// `--mode cache-cliff`: hit rate and mean latency over capacity ×
/// topology diversity × eviction policy, one row per diversity.
fn cache_cliff(args: &Args) -> Experiment {
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
    let title = format!(
        "# cluster_sim cache-cliff: {} jobs per run, {} {} QPUs, policy {}, rate {} Hz, seed {}",
        args.jobs, args.qpus, args.fleet, policy, args.rate_hz, args.seed
    );

    // Per diversity, one shared workload and the (eviction × capacity)
    // grid, capacities ascending; `diversity_of` is the cells' diversity
    // axis.
    let mut cells = Vec::new();
    let mut diversity_of = Vec::new();
    for d in diversities {
        let sizes = (0..d).map(|i| 8 + (36 - 8) * i / (d - 1)).collect();
        let workload = generate(
            WorkloadSpec {
                jobs: args.jobs,
                seed: args.seed,
                arrivals: ArrivalProcess::Poisson {
                    rate_hz: args.rate_hz,
                },
                mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes })],
                deadlines: DeadlinePolicy::None,
            }
            .try_generate(),
        );
        let mut capacities: Vec<usize> = [1, d / 4, d / 2, 3 * d / 4, d, d + 2].into();
        capacities.retain(|&c| c >= 1);
        capacities.dedup();
        for eviction in EvictionPolicyKind::all() {
            for &capacity in &capacities {
                let label = format!("d{d}/{}/cap{capacity}", eviction.name());
                cells.push(CellSpec {
                    fleet: args.fleet_config().with_cache(capacity, eviction),
                    ..args.cell(label, policy.clone(), &workload)
                });
                diversity_of.push(d);
            }
        }
    }

    let judge = move |cells: &[CellSpec], results: &[CellResult]| {
        let mut verdict = Verdict::default();
        for d in diversities {
            // This diversity's (eviction, capacity, report) points, in cell
            // order.
            let points: Vec<(EvictionPolicyKind, usize, &SimReport)> = cells
                .iter()
                .zip(results)
                .zip(&diversity_of)
                .filter(|(_, &of)| of == d)
                .map(|((cell, result), _)| {
                    let capacity = cell.fleet.cache_capacity.expect("cliff cells are bounded");
                    (cell.fleet.eviction, capacity, &result.report)
                })
                .collect();
            let series = |eviction: EvictionPolicyKind| -> Vec<(usize, &SimReport)> {
                points
                    .iter()
                    .filter(|p| p.0 == eviction)
                    .map(|p| (p.1, p.2))
                    .collect()
            };
            for eviction in EvictionPolicyKind::all() {
                let (name, series) = (eviction.name(), series(eviction));
                // The cliff itself: hit rate must fall monotonically (small
                // tolerance for scheduling feedback) as capacity drops, and
                // the drop from full capacity to capacity 1 must be real.
                let monotone = series
                    .windows(2)
                    .all(|w| w[1].1.hit_rate() >= w[0].1.hit_rate() - 0.02);
                let message =
                    format!("{name} hit rate is not monotone in capacity at diversity {d}");
                verdict.fail_if(!monotone, message);
                let (lo, hi) = (series[0], series[series.len() - 1]);
                let (lo_rate, hi_rate) = (lo.1.hit_rate(), hi.1.hit_rate());
                let message = format!(
                    "{name} shows no hit-rate cliff at diversity {d} \
                     ({lo_rate:.3} at capacity {} vs {hi_rate:.3} at capacity {})",
                    lo.0, hi.0
                );
                verdict.fail_if(hi_rate - lo_rate < 0.1, message);
            }
            // At the cliff (capacity below diversity), cost-aware eviction
            // must match or beat LRU on mean latency: it protects the
            // embeds that are expensive to recompute.
            let cliff_mean = |eviction| {
                let series = series(eviction);
                let means: Vec<f64> = series
                    .iter()
                    .filter(|p| p.0 < d)
                    .map(|p| p.1.latency.mean)
                    .collect();
                means.iter().sum::<f64>() / means.len().max(1) as f64
            };
            let lru = cliff_mean(EvictionPolicyKind::Lru);
            let cost_aware = cliff_mean(EvictionPolicyKind::CostAware);
            let message = format!(
                "cost-aware eviction lost to LRU at the cliff (diversity {d}): \
                 {cost_aware:.3}s vs {lru:.3}s mean latency"
            );
            verdict.fail_if(cost_aware > lru * 1.001, message);
            let point =
                |&(eviction, capacity, report): &(EvictionPolicyKind, usize, &SimReport)| {
                    row! {
                        "capacity" => capacity,
                        "eviction" => eviction.name(),
                        "hit_rate" => report.hit_rate(),
                        "mean_latency_seconds" => report.latency.mean,
                        "evictions" => report.evictions(),
                        "cold_misses" => report.cold_misses(),
                    }
                };
            let points = JsonValue::array(points.iter().map(point));
            verdict
                .rows
                .push(row! { "diversity" => d, "points" => points });
        }
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// How far above its isolated-run p99 the victim tenant may drift under
/// WFQ while an aggressor floods the fleet — the "constant factor" of the
/// fairness acceptance claim.
const FAIR_BOUND: f64 = 8.0;

/// The fairness grid's policy axis: the FIFO baseline against WFQ.
const FAIRNESS_POLICIES: [&str; 2] = ["fifo", "wfq"];

/// The two tenants of an aggressor/victim run.
fn victim_and_aggressor(report: &SimReport) -> (&TenantStats, &TenantStats) {
    (
        report.tenant_named("victim").expect("victim stats"),
        report.tenant_named("aggressor").expect("aggressor stats"),
    )
}

/// `--mode fairness`: tenant weight skew × arrival-rate asymmetry ×
/// policy on the aggressor/victim composition.
fn fairness(args: &Args) -> Experiment {
    let victim_jobs = (args.jobs / 11).max(8);
    let victim_rate = 0.45 * args.rate_hz;
    let depth_limit = 6;
    let title = format!(
        "# cluster_sim fairness: victim {} jobs at {:.2} Hz, aggressor x asymmetry, {} {} QPUs, seed {}",
        victim_jobs, victim_rate, args.qpus, args.fleet, args.seed
    );
    let composition = |asymmetry, skew| {
        MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, asymmetry, skew, args.seed)
    };

    // The victim alone on the same fleet: its no-contention baseline.
    // Tenant 0's stream is independent of asymmetry and weight skew, so one
    // isolated run serves the whole grid.
    let spec = composition(2.0, 1.0);
    let isolated = MultiTenantSpec {
        tenants: vec![spec.tenants[0].clone()],
        ..spec
    };
    // The whole mode as one cell list, in table order: the isolated
    // baseline, the (asymmetry × skew × policy) grid, then the gated
    // admission run.  `grid` is the grid cells' (asymmetry, skew) axis.
    let isolated = generate(isolated.try_generate());
    let mut cells = vec![args.cell("isolated".into(), SchedulerSpec::Fifo, &isolated)];
    let mut grid = Vec::new();
    for asymmetry in [2.0, 10.0] {
        for skew in [1.0, 4.0] {
            let workload = generate(composition(asymmetry, skew).try_generate());
            for policy in FAIRNESS_POLICIES {
                let label = format!("asym{asymmetry}/skew{skew}/{policy}");
                cells.push(args.cell(label, scheduler_for(policy, &workload), &workload));
                grid.push((asymmetry, skew));
            }
        }
    }
    // Admission shedding bounds queue depth: budget the aggressor's lane.
    let gated = generate(composition(10.0, 1.0).try_generate());
    let generous = TokenBucketConfig {
        rate_hz: 1e3,
        burst: 1e3,
        max_queue_depth: usize::MAX,
        max_defer_seconds: 1e9,
        ..TokenBucketConfig::default()
    };
    let tight = TokenBucketConfig {
        max_queue_depth: depth_limit,
        ..generous
    };
    cells.push(CellSpec {
        admission: AdmissionSpec::TokenBucket {
            default: generous,
            per_tenant: vec![(TenantId(1), tight)],
        },
        ..args.cell("gated".into(), scheduler_for("wfq", &gated), &gated)
    });

    let judge = move |cells: &[CellSpec], results: &[CellResult]| {
        let isolated_p99 = results[0].report.latency.p99;
        let points: Vec<(f64, f64, &str, &SimReport)> = grid
            .iter()
            .zip(cells[1..].iter().zip(&results[1..]))
            .map(|(&(asym, skew), (cell, result))| {
                (asym, skew, cell.scheduler.name(), &result.report)
            })
            .collect();
        let mut verdict = Verdict::default();
        for &(asym, skew, policy, report) in &points {
            let (victim, aggressor) = victim_and_aggressor(report);
            if policy == "wfq" {
                // A starved victim reports p99 = 0.0 and would pass the
                // bound vacuously — completion is part of the claim.
                let (done, submitted) = (victim.completed, victim.submitted);
                let message = format!(
                    "WFQ completed only {done}/{submitted} victim jobs (asym {asym}, skew {skew})"
                );
                verdict.fail_if(done < submitted, message);
                let p99 = victim.latency.p99;
                let message = format!(
                    "WFQ victim p99 {p99:.2}s exceeds {FAIR_BOUND}x its isolated \
                     {isolated_p99:.2}s (asym {asym}, skew {skew})"
                );
                verdict.fail_if(p99 > FAIR_BOUND * isolated_p99, message);
            }
            verdict.rows.push(row! {
                "asymmetry" => asym,
                "weight_skew" => skew,
                "policy" => report.policy.as_str(),
                "victim_p99_seconds" => victim.latency.p99,
                "aggressor_p99_seconds" => aggressor.latency.p99,
                "victim_isolated_p99_seconds" => isolated_p99,
                "jains_fairness_index" => report.jains_fairness_index(),
                "max_min_share" => report.max_min_share(),
            });
        }

        // FIFO must degrade the victim as load grows; WFQ must not.
        let at = |asym: f64, policy: &str| {
            let point = points
                .iter()
                .find(|p| (p.0, p.1, p.2) == (asym, 1.0, policy));
            point
                .expect("the grid covers every (asymmetry, skew 1, policy)")
                .3
        };
        let victim_p99 = |asym, policy| victim_and_aggressor(at(asym, policy)).0.latency.p99;
        let (fifo_lo, fifo_hi) = (victim_p99(2.0, "fifo"), victim_p99(10.0, "fifo"));
        let wfq_hi = victim_p99(10.0, "wfq");
        let message = format!(
            "FIFO victim p99 did not degrade with aggressor load ({fifo_lo:.2}s -> {fifo_hi:.2}s)"
        );
        verdict.fail_if(fifo_hi < 1.5 * fifo_lo, message);
        let message = format!(
            "FIFO victim p99 is not clearly worse than WFQ at 10:1 load ({fifo_hi:.2}s vs {wfq_hi:.2}s)"
        );
        verdict.fail_if(fifo_hi < 1.3 * wfq_hi, message);

        // The un-gated baseline is the grid's own (asym 10, skew 1, WFQ)
        // run — same spec, fleet and scheduler as the gated one.
        let (open, gated) = (at(10.0, "wfq"), &results[results.len() - 1].report);
        let (victim, aggressor) = victim_and_aggressor(gated);
        let (open_depth, gated_depth) = (open.max_queue_depth, gated.max_queue_depth);
        let unbounded = aggressor.max_queue_depth > depth_limit;
        let message = "admission did not bound the aggressor's queue depth";
        verdict.fail_if(unbounded, message);
        let no_relief = aggressor.shed == 0 || open_depth <= gated_depth;
        let message = "admission shedding did not reduce the queue backlog";
        verdict.fail_if(no_relief, message);
        verdict.fail_if(victim.shed > 0, "admission shed the victim's jobs");
        verdict.rows.push(row! {
            "check" => "admission",
            "depth_limit" => depth_limit,
            "open_max_queue_depth" => open_depth,
            "gated_max_queue_depth" => gated_depth,
            "aggressor_shed" => aggressor.shed,
            "victim_shed" => victim.shed,
        });
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// `--mode aging-sweep`: `ShortestPredictedFirst`'s aging weight against
/// p99 latency and starvation incidence, validating the shipped
/// `DEFAULT_AGING_WEIGHT`.
fn aging_sweep(args: &Args) -> Experiment {
    use sx_cluster::scheduler::DEFAULT_AGING_WEIGHT;

    // A short-job flood with rare large jobs — the starvation-prone shape:
    // pure SJF always prefers the fresh shorts, so the large jobs' waits
    // stretch toward the whole makespan.  The flood must exceed the
    // fleet's service capacity or queues never form and every weight looks
    // identical, so the rate is ~125% of what the fleet serves warm,
    // calibrated once when the plan is built.
    let weights = [0.0, 0.01, 0.03, DEFAULT_AGING_WEIGHT, 0.3, 1.0];
    // The aging weight is the scheduler axis: f64 `Display` round-trips
    // exactly, so the axis names parse back to the identical weights.
    let names: Vec<String> = weights.iter().map(|w| format!("{w}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let cells = args.plan("", &[10], vec![1.25]).expand(
        &[(String::new(), ())],
        &names,
        |seed, rate_hz, ()| {
            generate(
                WorkloadSpec {
                    jobs: args.jobs,
                    seed,
                    arrivals: ArrivalProcess::Poisson { rate_hz },
                    mix: vec![
                        (12.0, FamilySpec::MaxCutCycle { sizes: vec![8, 10] }),
                        (1.0, FamilySpec::Partition { n: 40 }),
                    ],
                    deadlines: DeadlinePolicy::None,
                }
                .try_generate(),
            )
        },
        |name, _| SchedulerSpec::ShortestPredictedFirst {
            aging_weight: name.parse().expect("weight axis names are f64 strings"),
        },
    );
    let workload = &cells[0].workload;
    let title = format!(
        "# cluster_sim aging-sweep: {} jobs ({} distinct topologies), {} QPUs, seed {} \
         (default weight {DEFAULT_AGING_WEIGHT})",
        workload.len(),
        workload.distinct_topologies(),
        args.qpus,
        args.seed
    );

    let judge = move |_: &[CellSpec], results: &[CellResult]| {
        let mut verdict = Verdict::default();
        // (weight, p99, starvation) per cell.
        let mut points: Vec<(f64, f64, f64)> = Vec::new();
        for (&weight, cell) in weights.iter().zip(results) {
            let report = &cell.report;
            // Starvation incidence: fraction of completed jobs that spent
            // more than a quarter of the whole makespan just waiting.
            let threshold = 0.25 * report.makespan_seconds;
            let starved = report
                .records
                .iter()
                .filter(|r| r.wait_seconds() > threshold);
            let starvation = starved.count() as f64 / report.completed.max(1) as f64;
            points.push((weight, report.latency.p99, starvation));
            verdict.rows.push(row! {
                "aging_weight" => weight,
                "p99_seconds" => report.latency.p99,
                "mean_seconds" => report.latency.mean,
                "max_wait_seconds" => report.wait.max,
                "starvation_incidence" => starvation,
            });
        }
        let best_p99 = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let default = points.iter().find(|p| p.0 == DEFAULT_AGING_WEIGHT);
        let default = default.expect("default weight is in the sweep");
        // The principled default: near the p99 optimum of the sweep, and it
        // must not starve more than pure SJF does.
        let message = "DEFAULT_AGING_WEIGHT p99 is >1.5x the sweep optimum";
        verdict.fail_if(default.1 > 1.5 * best_p99, message);
        let message = "DEFAULT_AGING_WEIGHT starves more than pure SJF";
        verdict.fail_if(default.2 > points[0].2, message);
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// `--mode admission`: cache-admission comparison (always vs the
/// second-chance doorkeeper) on a low-repetition mix with a bounded cache.
fn admission_compare(args: &Args) -> Experiment {
    // A hot set of two recurring topologies drowned in one-shot variants —
    // the mix where unconditional caching churns the bounded cache.
    let hot = FamilySpec::MaxCutCycle {
        sizes: vec![24, 30],
    };
    let one_shots = FamilySpec::MaxCutGnp {
        n: 18,
        p: 0.3,
        variants: 40,
    };
    let workload = generate(
        WorkloadSpec {
            jobs: args.jobs,
            seed: args.seed,
            arrivals: ArrivalProcess::Poisson {
                rate_hz: args.rate_hz,
            },
            mix: vec![(1.0, hot), (2.0, one_shots)],
            deadlines: DeadlinePolicy::None,
        }
        .try_generate(),
    );
    let capacity = args.capacity.unwrap_or(3);
    let title = format!(
        "# cluster_sim admission: {} jobs over {} distinct topologies, {} QPUs, \
         capacity {capacity}, seed {}",
        workload.len(),
        workload.distinct_topologies(),
        args.qpus,
        args.seed
    );
    let fleet = args
        .fleet_config()
        .with_cache(capacity, args.eviction.unwrap_or_default());
    let cells = AdmissionPolicy::all()
        .into_iter()
        .map(|admission| CellSpec {
            fleet: fleet.clone().with_cache_admission(admission),
            ..args.cell(admission.name().into(), SchedulerSpec::Fifo, &workload)
        })
        .collect();

    let judge = |cells: &[CellSpec], results: &[CellResult]| {
        let rows = cells.iter().zip(results).map(|(cell, result)| {
            let report = &result.report;
            row! {
                "admission" => cell.fleet.cache_admission.name(),
                "hit_rate" => report.hit_rate(),
                "mean_latency_seconds" => report.latency.mean,
                "evictions" => report.evictions(),
                "bypassed" => report.cache_bypassed(),
                "cold_misses" => report.cold_misses(),
            }
        });
        let mut verdict = Verdict::new(rows);
        let (always, second) = (&results[0].report, &results[1].report);
        let (churn, baseline) = (second.evictions(), always.evictions());
        let message = format!("second-chance did not reduce cache churn ({churn} vs {baseline})");
        verdict.fail_if(churn >= baseline, message);
        let (mean, baseline) = (second.latency.mean, always.latency.mean);
        let message = format!("second-chance lost on mean latency ({mean:.3}s vs {baseline:.3}s)");
        verdict.fail_if(mean > baseline * 1.02, message);
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// Jain's-index guardrail of `--mode slo`: EDF-ordered lanes must keep the
/// index within this relative tolerance of plain (FIFO-lane) WFQ at the
/// high-load point — SLO attainment must not be bought with unfairness.
const SLO_JAIN_TOLERANCE: f64 = 0.05;

/// A victim/aggressor composition for `--mode slo`: per tenant its job
/// count, arrival rate, family and deadline policy.
fn slo_tenants(seed: u64, tenants: [(usize, f64, FamilySpec, DeadlinePolicy); 2]) -> Arc<Workload> {
    let tenant = |((jobs, rate_hz, family, deadlines), name): (_, &str)| TenantSpec {
        name: name.to_string(),
        weight: 1.0,
        jobs,
        arrivals: ArrivalProcess::Poisson { rate_hz },
        mix: vec![(1.0, family)],
        deadlines,
    };
    let tenants = tenants.into_iter().zip(["victim", "aggressor"]).map(tenant);
    let tenants = tenants.collect();
    generate(MultiTenantSpec { seed, tenants }.try_generate())
}

/// `--mode slo`: load × deadline slack × policy on a two-tenant deadline
/// composition, then two deadline-infeasibility shedding cells.
fn slo(args: &Args) -> Experiment {
    // Capacity-derived arrival rates: `load` is the ratio of offered warm
    // work to what the fleet can serve.  The mix spans lps 12..=36 and
    // warm service grows with size, so capacity is calibrated against the
    // *mean* warm service over the grid's sizes — calibrating on one mid
    // size would make nominal load 1.0 quietly super-critical.
    let grid_sizes = [12usize, 14, 20, 22, 28, 30, 34, 36];
    let loads = [0.6, 1.1];
    let factors = [6.0, 12.0]; // tight vs loose proportional slack
    let schedulers = ["fifo", "wfq-fifo", "wfq", "edf"];
    let victim_jobs = (args.jobs / 2).max(10);
    let title = format!(
        "# cluster_sim slo: 2 tenants x {victim_jobs} jobs, {} {} QPUs, seed {}, \
         loads {loads:?} x slack factors {factors:?}",
        args.qpus, args.fleet, args.seed
    );
    let plan = args.plan("", &grid_sizes, loads.to_vec());

    // The (load × slack × policy) grid: one workload per (load, slack)
    // coordinate shared across the schedulers.  Disjoint size sets per
    // tenant: each tenant pays its own cold embeds, so one-off embed costs
    // cannot flip between tenants across policies.  Mixed sizes make
    // proportional deadlines span a wide tightness range within each lane
    // — the heterogeneity EDF ordering exploits.
    let variants: Vec<(String, f64)> = factors.iter().map(|&f| (format!("slack{f}"), f)).collect();
    let cycles = |sizes: Vec<usize>| FamilySpec::MaxCutCycle { sizes };
    let mut cells = plan.expand(
        &variants,
        &schedulers,
        |seed, rate_hz, &factor| {
            let slack = DeadlinePolicy::ProportionalSlack { factor };
            let victim = (
                victim_jobs,
                rate_hz / 2.0,
                cycles(vec![12, 20, 28, 36]),
                slack,
            );
            let aggressor = (
                victim_jobs,
                rate_hz / 2.0,
                cycles(vec![14, 22, 30, 34]),
                slack,
            );
            slo_tenants(seed, [victim, aggressor])
        },
        scheduler_for,
    );
    // The grid cells' (load, slack factor) axis.
    let grid: Vec<(f64, f64)> = loads
        .iter()
        .flat_map(|&load| factors.iter().map(move |&factor| (load, factor)))
        .flat_map(|point| schedulers.map(|_| point))
        .collect();

    // Deadline-infeasibility shedding: a loose-slack victim (every job
    // feasible at admission) shares the fleet with a tight-slack
    // cache-busting flood whose diverse Gnp jobs embed cold and pin
    // devices.  An aggressor arrival with only a few seconds of slack while
    // every device is mid-embed is provably doomed and must shed; the
    // victim's slack clears the worst possible pin with headroom, so the
    // admission-time bound can never claim a victim job.
    let probe = Fleet::new(args.fleet_config(), SplitExecConfig::default());
    let worst_pin = probe.worst_cold_service_seconds(36);
    let slack = |factor: f64| DeadlinePolicy::FixedSlack {
        slack_seconds: factor * worst_pin,
    };
    let rate = plan.rate_for(loads[1]);
    let flood = FamilySpec::MaxCutGnp {
        n: 30,
        p: 0.3,
        variants: 40,
    };
    let victim = (victim_jobs, rate / 4.0, cycles(vec![20, 28]), slack(4.0));
    let aggressor = (victim_jobs * 3, 3.0 * rate / 4.0, flood, slack(0.05));
    let shed_workload = slo_tenants(args.seed, [victim, aggressor]);
    for shed_infeasible in [false, true] {
        let bucket = TokenBucketConfig {
            rate_hz: 1e3, // only the feasibility check binds
            burst: 1e3,
            max_queue_depth: usize::MAX,
            max_defer_seconds: 1e9,
            shed_infeasible,
        };
        let label = format!("shed-{shed_infeasible}");
        cells.push(CellSpec {
            admission: AdmissionSpec::TokenBucket {
                default: bucket,
                per_tenant: Vec::new(),
            },
            ..args.cell(label, scheduler_for("wfq", &shed_workload), &shed_workload)
        });
    }

    let judge = move |_: &[CellSpec], results: &[CellResult]| {
        let mut verdict = Verdict::default();
        for (&(load, factor), cell) in grid.iter().zip(results) {
            let report = &cell.report;
            verdict.rows.push(row! {
                "load" => load,
                "slack_factor" => factor,
                "policy" => report.policy.as_str(),
                "slo_jobs" => report.slo_jobs(),
                "slo_misses" => report.slo_misses(),
                "slo_miss_rate" => report.slo_miss_rate(),
                "p99_lateness_seconds" => report.lateness.p99,
                "jains_fairness_index" => report.jains_fairness_index(),
            });
        }

        // The enforced point: high load, tight slack.
        let at = |policy: &str| {
            let mut grid_cells = grid.iter().zip(results);
            let found = grid_cells.find(|(point, cell)| {
                **point == (loads[1], factors[0]) && cell.report.policy == policy
            });
            let report = &found.expect("every policy is in the grid").1.report;
            (report.slo_miss_rate(), report.jains_fairness_index())
        };
        let (fifo_miss, _) = at("fifo");
        let (plain_miss, plain_jain) = at("wfq-fifo");
        let (edf_miss, edf_jain) = at("wfq");
        let message = "the high-load point produced no FIFO misses — the grid is too easy";
        verdict.fail_if(fifo_miss <= 0.0, message);
        let message = format!(
            "EDF-in-lane WFQ miss-rate {edf_miss:.3} is not strictly below FIFO's {fifo_miss:.3}"
        );
        verdict.fail_if(edf_miss >= fifo_miss, message);
        let message = format!(
            "EDF-in-lane WFQ miss-rate {edf_miss:.3} is not strictly below plain WFQ's {plain_miss:.3}"
        );
        verdict.fail_if(edf_miss >= plain_miss, message);
        let message = format!(
            "EDF lanes moved Jain's index to {edf_jain:.3}, more than {}% away from plain \
             WFQ's {plain_jain:.3}",
            100.0 * SLO_JAIN_TOLERANCE
        );
        let moved = (edf_jain - plain_jain).abs() > SLO_JAIN_TOLERANCE * plain_jain;
        verdict.fail_if(moved, message);

        // The shedding cells close the list: open (shedding off), then
        // gated (shedding on).
        let (open, gated) = (&results[grid.len()].report, &results[grid.len() + 1].report);
        let (victim, aggressor) = victim_and_aggressor(gated);
        let message = "infeasibility shedding claimed a feasible victim job";
        verdict.fail_if(victim.shed_infeasible > 0, message);
        let (done, submitted) = (victim.completed, victim.submitted);
        let message = format!("victim completed only {done}/{submitted} jobs under the gate");
        verdict.fail_if(done < submitted, message);
        let message = "the doomed flood never tripped infeasibility shedding";
        verdict.fail_if(aggressor.shed_infeasible == 0, message);
        let message = "shedding doomed work worsened the completed-jobs miss rate";
        verdict.fail_if(gated.slo_miss_rate() > open.slo_miss_rate(), message);
        verdict.rows.push(row! {
            "check" => "infeasible-shedding",
            "aggressor_shed_infeasible" => aggressor.shed_infeasible,
            "victim_shed_infeasible" => victim.shed_infeasible,
            "open_miss_rate" => open.slo_miss_rate(),
            "gated_miss_rate" => gated.slo_miss_rate(),
        });
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// Schema tag of the `--mode sweep` document.  The document is fully
/// deterministic — no wall-clock fields — so CI can byte-diff two runs of
/// the same command.
const SWEEP_SCHEMA: &str = "sx-sweep/v1";

/// Whether every number in `value` is finite: `JsonValue` renders NaN and
/// infinities as `null`, which must not slip into a baseline diff.
fn all_finite(value: &JsonValue) -> bool {
    match value {
        JsonValue::Num(n) => n.is_finite(),
        JsonValue::Array(items) => items.iter().all(all_finite),
        JsonValue::Object(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// `--mode sweep`: an explicit seed × load × policy grid over the
/// aggressor/victim composition through [`SweepPlan`], written as an
/// [`SWEEP_SCHEMA`] document of per-cell rows and merged sketch
/// percentiles.
fn sweep_mode(args: &Args) -> Experiment {
    let seeds = args.seeds.clone().unwrap_or_else(|| vec![args.seed]);
    let loads = args.loads.clone().unwrap_or_else(|| vec![0.7, 1.1]);
    let policies = args
        .policies
        .clone()
        .unwrap_or_else(|| parse_csv("fifo,affinity,wfq", "--policies"));
    let names: Vec<&str> = policies.iter().map(SchedulerSpec::name).collect();

    // A two-tenant aggressor/victim composition: the aggressor submits 3x
    // the victim's jobs at 3x its rate, so a cell totals ~4x `victim_jobs`.
    let asymmetry = 3.0;
    let victim_jobs = (args.jobs / 4).max(10);
    let plan = args
        .plan(&args.fleet, &[16, 20, 24], loads.clone())
        .seeds(seeds.clone());
    let cells = plan.expand(
        &[(String::new(), ())],
        &names,
        |seed, total_rate, ()| {
            let victim_rate = total_rate / (1.0 + asymmetry);
            let spec =
                MultiTenantSpec::aggressor_victim(victim_jobs, victim_rate, asymmetry, 1.0, seed);
            generate(spec.try_generate())
        },
        scheduler_for,
    );
    let title = format!(
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
    // The cells' load axis, in expansion order (seed → load → policy).
    let load_of: Vec<f64> = seeds
        .iter()
        .flat_map(|_| {
            loads
                .iter()
                .flat_map(|&load| names.iter().map(move |_| load))
        })
        .collect();
    let rate = |&load: &f64| row! { "load" => load, "rate_hz" => plan.rate_for(load) };
    let header = row! {
        "schema" => SWEEP_SCHEMA,
        "seeds" => JsonValue::array(seeds.iter().map(|s| JsonValue::from(s.to_string()))),
        "fleet" => args.fleet.as_str(),
        "qpus" => args.qpus,
        "jobs_per_cell" => victim_jobs * 4,
        "loads" => JsonValue::array(loads.iter().map(|&l| JsonValue::from(l))),
        "policies" => JsonValue::array(names.iter().map(|&n| JsonValue::from(n))),
        "calibrated_rates" => JsonValue::array(loads.iter().map(rate)),
    };
    let expected_cells = seeds.len() * loads.len() * policies.len();

    let judge = move |cells: &[CellSpec], results: &[CellResult]| {
        let row = |((spec, cell), &load): ((&CellSpec, &CellResult), &f64)| {
            let (report, latency, wait) = (&cell.report, &cell.latency_sketch, &cell.wait_sketch);
            row! {
                "label" => cell.label.as_str(),
                // Seeds travel as strings: a u64 above 2^53 would round
                // through Num's f64.
                "seed" => spec.fleet.seed.to_string(),
                "policy" => report.policy.as_str(),
                "load" => load,
                "jobs" => report.jobs,
                "completed" => report.completed,
                "shed" => report.shed,
                "events" => report.events,
                "makespan_seconds" => report.makespan_seconds,
                "latency_p50_seconds" => latency.p50(),
                "latency_p95_seconds" => latency.p95(),
                "latency_p99_seconds" => latency.p99(),
                "wait_p50_seconds" => wait.p50(),
                "wait_p95_seconds" => wait.p95(),
                "wait_p99_seconds" => wait.p99(),
                "hit_rate" => report.hit_rate(),
            }
        };
        let mut verdict = Verdict::new(cells.iter().zip(results).zip(&load_of).map(row));
        let merged = MergedAggregates::merge(results);
        let sum = |field: fn(&CellResult) -> u64| results.iter().map(field).sum::<u64>();
        let (cells, merged_cells) = (results.len(), merged.cells);
        let message =
            format!("{cells} cell rows and {merged_cells} merged, expected {expected_cells}");
        verdict.fail_if(cells != expected_cells || merged_cells != cells, message);
        let sums_match = merged.jobs as u64 == sum(|c| c.report.jobs as u64)
            && merged.events as u64 == sum(|c| c.report.events as u64)
            && merged.latency.count() == sum(|c| c.latency_sketch.count());
        let message = "merged jobs, events or latency count differ from the cell rows' sums";
        verdict.fail_if(!sums_match, message);
        let mut doc = header.clone();
        doc.push("cells", JsonValue::Array(verdict.rows.clone()));
        doc.push("merged", merged.to_json());
        let message = format!("the {SWEEP_SCHEMA} document holds a non-finite number");
        verdict.fail_if(!all_finite(&doc), message);
        verdict.document = Some(doc);
        verdict
    };
    Experiment::new(title, cells, judge)
}

/// `--mode replay`: re-run every segment of a flight record (`--input`,
/// written by `--record`) from its recorded `CellSpec` and verify the
/// engine reproduces each recorded trace stream bit-for-bit; FAILs on any
/// divergence.  `--record`/`--trace-out` still apply, so a replay can
/// itself be re-recorded — the round-trip is byte-stable.
fn replay(args: &Args, observer: &mut Observer) -> Verdict {
    let Some(path) = args.input.as_deref() else {
        eprintln!("--mode replay needs --input <flight-record.jsonl>");
        std::process::exit(2);
    };
    let record = read_flight_record(path);
    let segments = record.runs.len();
    println!("# cluster_sim replay: {path}, {segments} recorded run segment(s)");
    let mut verdict = Verdict::default();
    for (segment, run) in record.runs.iter().enumerate() {
        let spec = &run.spec;
        let check = observer.with_chain(spec, |chain| check_replay(run, chain));
        let (policy, admission, seed) = (
            spec.scheduler.name(),
            spec.admission.name(),
            spec.fleet.seed,
        );
        let message = match check.divergence {
            None => format!("segment {segment} replays bit-identically"),
            Some(at) => format!(
                "segment {segment} (policy {policy}, admission {admission}, seed {seed}) DIVERGED \
                 at record {at}: recorded {:?} vs replayed {:?}",
                run.records.get(at),
                check.replayed.get(at)
            ),
        };
        verdict.fail_if(check.divergence.is_some(), message);
        verdict.rows.push(row! {
            "segment" => segment,
            "label" => spec.label.as_str(),
            "policy" => policy,
            "admission" => admission,
            "seed" => seed.to_string(),
            "jobs" => spec.workload.len(),
            "qpus" => spec.fleet.qpus,
            "records" => run.records.len(),
            "divergence" => check.divergence.map_or(JsonValue::Null, JsonValue::from),
        });
    }
    verdict
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

//! Deterministic experiment runner: independent simulation cells, each a
//! pure function of its spec, run in cell-index order.
//!
//! A [`CellSpec`] is the one complete description of a run — workload,
//! fleet config (its seed included), scheduler spec, admission spec,
//! engine config — and it is serialized: a flight record's header line is a `CellSpec`
//! ([`CellSpec::to_json`]), and replay runs the parsed spec through the
//! same [`run_cell`] every sweep cell and `cluster_sim` run goes through.
//! [`SweepPlan`] expands a cartesian grid of axes (seed × load × workload
//! variant × scheduler) over one labelled fleet into cells, with the
//! fleet's capacity-derived arrival-rate calibration ([`RateCalibration`])
//! computed once when the plan is built, so a cell's rate depends only on
//! its load, never on axis order.
//! Callers map [`run_cell`] over a cell list in index order;
//! [`MergedAggregates::merge`] folds the [`CellResult`]s into cross-cell
//! aggregates through [`StreamingHistogram::merge`].
//!
//! # Execution order is invisible
//!
//! Every cell is a pure function of its [`CellSpec`]: the fleet (and its
//! per-device RNGs) is rebuilt from the cell's fleet config, the scheduler
//! and admission controller are rebuilt from their specs, and the engine
//! runs with a [`NullSink`](crate::telemetry::NullSink); the cell's
//! latency and wait sketches are built from its report's records after the
//! run.  No state is shared between
//! cells, and merges walk cell-index order, so a cell's report does not
//! depend on which cells ran before it, and the merged aggregates depend
//! only on the cell list.  The cell-permutation proptest in
//! `tests/sweep_determinism.rs` checks this.
//!
//! Nothing in this module reads a wall clock.

use std::sync::Arc;

use split_exec::SplitExecConfig;

use crate::admission::{AdmissionController, AdmitAll, TokenBucket, TokenBucketConfig};
use crate::fleet::{cost_table, Fleet, FleetConfig};
use crate::job::JobRecord;
use crate::json::JsonValue;
use crate::metrics::SimReport;
use crate::scheduler::{Scheduler, SchedulerSpec};
use crate::sim::{simulate_with_telemetry, SimConfig};
use crate::telemetry::{StreamingHistogram, TraceSink};
use crate::tenant::TenantId;
use crate::workload::Workload;

/// Serializable admission description: how a cell's
/// [`AdmissionController`] is rebuilt, the way [`SchedulerSpec`] rebuilds
/// its scheduler ([`AdmissionSpec::to_json`] / [`AdmissionSpec::from_json`]
/// carry it through a flight record, budgets and all).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionSpec {
    /// [`AdmitAll`]: every arrival admitted.
    AdmitAll,
    /// [`TokenBucket`] with a default budget and per-tenant overrides.
    TokenBucket {
        /// The budget applied to tenants without an override.
        default: TokenBucketConfig,
        /// `(tenant, budget)` overrides, applied in order.
        per_tenant: Vec<(TenantId, TokenBucketConfig)>,
    },
}

impl AdmissionSpec {
    /// The name the rebuilt controller reports
    /// ([`AdmissionController::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionSpec::AdmitAll => "admit-all",
            AdmissionSpec::TokenBucket { .. } => "token-bucket",
        }
    }

    /// Instantiate the described controller with fresh state.
    pub fn build(&self) -> Box<dyn AdmissionController> {
        match self {
            AdmissionSpec::AdmitAll => Box::new(AdmitAll),
            AdmissionSpec::TokenBucket {
                default,
                per_tenant,
            } => {
                let mut bucket = TokenBucket::new(*default);
                for &(tenant, config) in per_tenant {
                    bucket = bucket.with_tenant_budget(tenant, config);
                }
                Box::new(bucket)
            }
        }
    }
}

/// One independent simulation cell: everything [`run_cell`] needs to
/// execute a run from scratch.  Cells share their (read-only) workload via
/// `Arc`, exactly as the serial sweep modes shared one generated workload
/// across a scheduler axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Display label, e.g. `s7/uniform/load0.7/fifo`.
    pub label: String,
    /// Fleet shape and fault seed; the fleet is rebuilt per cell from this
    /// config.
    pub fleet: FleetConfig,
    /// Scheduler, rebuilt per cell with fresh state.
    pub scheduler: SchedulerSpec,
    /// Admission controller, rebuilt per cell with fresh state.
    pub admission: AdmissionSpec,
    /// Engine configuration (open/closed mode, percentile summarization).
    pub config: SimConfig,
    /// The generated workload this cell replays.
    pub workload: Arc<Workload>,
}

/// The result of one cell, collected in cell-index order: a deterministic
/// function of the cell's [`CellSpec`].
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's index in its sweep's expansion order.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The engine's report for the cell.
    pub report: SimReport,
    /// End-to-end latency sketch of the report's records (seconds).
    pub latency_sketch: StreamingHistogram,
    /// Queueing-delay sketch of the report's records (seconds).
    pub wait_sketch: StreamingHistogram,
}

/// Once-per-cell setup: rebuild the fleet, scheduler and admission
/// controller from the cell's specs.
// sx-lint: hot-exempt -- once-per-cell construction before the dispatch loop; the loop itself only touches pre-built state
fn cell_runtime(spec: &CellSpec) -> (Fleet, Box<dyn Scheduler>, Box<dyn AdmissionController>) {
    (
        Fleet::new(spec.fleet.clone(), SplitExecConfig::default()),
        spec.scheduler.build(),
        spec.admission.build(),
    )
}

/// Once-per-cell teardown: sketch the report's records, in completion
/// order, into the [`CellResult`].
// sx-lint: hot-exempt -- once per cell, after the event loop drains; nothing here is per-event
fn assemble_cell(index: usize, spec: &CellSpec, report: SimReport) -> CellResult {
    let sketch = |value: fn(&JobRecord) -> f64| {
        let mut sketch = StreamingHistogram::default();
        for record in &report.records {
            sketch.observe(value(record));
        }
        sketch
    };
    CellResult {
        index,
        label: spec.label.clone(),
        latency_sketch: sketch(JobRecord::latency_seconds),
        wait_sketch: sketch(JobRecord::wait_seconds),
        report,
    }
}

/// Execute one cell: the body of every run.
///
/// The cell is a pure function of `spec` — see the module docs — so the
/// result is identical no matter in what order cells run.  `sink` is
/// normally [`crate::telemetry::NullSink`]; `cluster_sim`'s observer
/// passes its recording chain here when a flight record or Perfetto trace was requested, and
/// tests and examples pass a [`crate::telemetry::VecSink`] to read the
/// trace.  Sinks are pure observers, so none of them can perturb the
/// report.
// sx-lint: hot-root -- the sweep runner's per-cell body: between setup and assembly this IS the dispatch loop, and must stay allocation-free in steady state
pub fn run_cell(index: usize, spec: &CellSpec, sink: &mut dyn TraceSink) -> CellResult {
    let (fleet, mut scheduler, mut admission) = cell_runtime(spec);
    let report = simulate_with_telemetry(
        fleet,
        &spec.workload,
        scheduler.as_mut(),
        admission.as_mut(),
        spec.config,
        sink,
        None,
    );
    assemble_cell(index, spec, report)
}

/// Cross-cell aggregates, merged in cell-index order through
/// [`StreamingHistogram::merge`] — deterministic because bucket counts and
/// extremes merge losslessly and the walk order is fixed.
#[derive(Debug, Clone)]
pub struct MergedAggregates {
    /// Cells merged.
    pub cells: usize,
    /// Summed submitted jobs.
    pub jobs: usize,
    /// Summed completed jobs.
    pub completed: usize,
    /// Summed shed jobs.
    pub shed: usize,
    /// Summed events popped across every cell's dispatch loop.
    pub events: usize,
    /// All cells' end-to-end latency observations, one merged sketch.
    pub latency: StreamingHistogram,
    /// All cells' queueing-delay observations, one merged sketch.
    pub wait: StreamingHistogram,
}

impl MergedAggregates {
    /// Merge `results` (walked in index order).
    pub fn merge(results: &[CellResult]) -> MergedAggregates {
        let mut merged = MergedAggregates {
            cells: results.len(),
            jobs: 0,
            completed: 0,
            shed: 0,
            events: 0,
            latency: StreamingHistogram::default(),
            wait: StreamingHistogram::default(),
        };
        for cell in results {
            merged.jobs += cell.report.jobs;
            merged.completed += cell.report.completed;
            merged.shed += cell.report.shed;
            merged.events += cell.report.events;
            // Every cell sketch is built at the default resolution, so the
            // γ-mismatch arm is unreachable.
            merged
                .latency
                .merge(&cell.latency_sketch)
                // sx-lint: allow(H003) -- γ is uniform by construction: every cell sketch uses the default resolution
                .expect("cell sketches share the default resolution");
            merged
                .wait
                .merge(&cell.wait_sketch)
                // sx-lint: allow(H003) -- γ is uniform by construction: every cell sketch uses the default resolution
                .expect("cell sketches share the default resolution");
        }
        merged
    }

    /// The deterministic JSON form used by `sx-sweep/v1`'s `merged`
    /// section.
    pub fn to_json(&self) -> JsonValue {
        let quantiles = |h: &StreamingHistogram, prefix: &str| {
            [
                (
                    format!("{prefix}_count"),
                    JsonValue::from(h.count() as usize),
                ),
                (format!("{prefix}_p50_seconds"), JsonValue::from(h.p50())),
                (format!("{prefix}_p95_seconds"), JsonValue::from(h.p95())),
                (format!("{prefix}_p99_seconds"), JsonValue::from(h.p99())),
            ]
        };
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("cells".to_string(), JsonValue::from(self.cells)),
            ("jobs".to_string(), JsonValue::from(self.jobs)),
            ("completed".to_string(), JsonValue::from(self.completed)),
            ("shed".to_string(), JsonValue::from(self.shed)),
            ("events".to_string(), JsonValue::from(self.events)),
            (
                "relative_error_bound".to_string(),
                JsonValue::from(self.latency.relative_error_bound()),
            ),
        ];
        fields.extend(quantiles(&self.latency, "latency"));
        fields.extend(quantiles(&self.wait, "wait"));
        JsonValue::Object(fields)
    }
}

/// Capacity-derived arrival-rate calibration, hoisted out of the per-cell
/// loop.
///
/// The sweep modes size their offered load against what the fleet can
/// actually serve: `load` is the ratio of offered warm work to fleet
/// capacity, so the same nominal load means the same queueing regime on
/// every fleet shape.  Before this type, each mode probed a fleet and
/// recomputed the warm-service mean inline, per sweep arm — so a
/// reordering of the axes could silently move which probe produced a
/// cell's rate.  A `RateCalibration` is computed once, when the plan is
/// built ([`SweepPlan::new`]), and every cell's rate is derived from that
/// stored value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCalibration {
    warm_mean_seconds: f64,
}

impl RateCalibration {
    /// Average the warm service time of `config`'s first device over
    /// `sizes` (logical spins per topology), read from that device model's
    /// cost table.  Errors when the table has no row for a size (too large
    /// for the model) — a plan bug, surfaced eagerly rather than per cell.
    pub fn for_fleet(config: &FleetConfig, sizes: &[usize]) -> Result<RateCalibration, String> {
        if sizes.is_empty() {
            return Err("calibration needs at least one topology size".to_string());
        }
        let table = cost_table(config.device_model(0), &SplitExecConfig::default());
        let mut total = 0.0;
        for &lps in sizes {
            let costs = table
                .costs(lps)
                .map_err(|err| format!("no warm service model for lps {lps}: {err}"))?;
            total += costs.total_warm_seconds();
        }
        Ok(RateCalibration {
            warm_mean_seconds: total / sizes.len() as f64,
        })
    }

    /// The calibrated mean warm service time (seconds per job).
    pub fn warm_mean_seconds(&self) -> f64 {
        self.warm_mean_seconds
    }

    /// The cell arrival rate for `load` on a fleet of `qpus` devices:
    /// `base_rate_hz × load × qpus / warm_mean_seconds` — offered warm
    /// work as a fraction `load` of fleet capacity, scaled by the CLI's
    /// base rate.
    pub fn rate_hz(&self, base_rate_hz: f64, load: f64, qpus: usize) -> f64 {
        base_rate_hz * load * qpus as f64 / self.warm_mean_seconds
    }
}

/// A cartesian grid of sweep axes over one labelled fleet: seed × load ×
/// workload variant × scheduler, expanded into [`CellSpec`]s in that fixed
/// nesting order.
///
/// The plan calibrates its fleet once, when it is built
/// ([`SweepPlan::new`]), and [`Self::rate_for`] derives every cell's
/// arrival rate from that stored [`RateCalibration`], so rates cannot
/// drift when axes are added or reordered.  Workload and scheduler
/// construction stay with the caller as closures — tenant compositions and
/// lane weights are mode-specific — but each workload is generated exactly
/// once per `(seed, load, variant)` coordinate and shared across the
/// scheduler axis via `Arc`.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    fleet_name: String,
    fleet: FleetConfig,
    calibration: RateCalibration,
    base_rate_hz: f64,
    config: SimConfig,
    seeds: Vec<u64>,
    loads: Vec<f64>,
}

impl SweepPlan {
    /// A plan over `fleet`, with the given base arrival rate and engine
    /// config, and empty seed and load axes.  `fleet_name` labels the
    /// cells (an empty name is left out of the label).  The fleet is
    /// calibrated here against `sizes` (logical spins per topology of the
    /// sweep's mix); an error names the fleet.
    pub fn new(
        fleet_name: impl Into<String>,
        fleet: FleetConfig,
        sizes: &[usize],
        base_rate_hz: f64,
        config: SimConfig,
    ) -> Result<SweepPlan, String> {
        let fleet_name = fleet_name.into();
        let calibration = RateCalibration::for_fleet(&fleet, sizes)
            .map_err(|err| format!("fleet '{fleet_name}': {err}"))?;
        Ok(SweepPlan {
            fleet_name,
            fleet,
            calibration,
            base_rate_hz,
            config,
            seeds: Vec::new(),
            loads: Vec::new(),
        })
    }

    /// Set the seed axis.
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> SweepPlan {
        self.seeds = seeds.into();
        self
    }

    /// Set the load axis.
    pub fn loads(mut self, loads: impl Into<Vec<f64>>) -> SweepPlan {
        self.loads = loads.into();
        self
    }

    /// The arrival rate for a cell at `load`, from the stored calibration
    /// and the fleet's device count ([`RateCalibration::rate_hz`]).
    pub fn rate_for(&self, load: f64) -> f64 {
        self.calibration
            .rate_hz(self.base_rate_hz, load, self.fleet.qpus)
    }

    /// Expand the grid into cells, in the fixed nesting order
    /// seed → load → variant → scheduler.
    ///
    /// `make_workload(seed, rate_hz, variant)` is called once per
    /// `(seed, load, variant)` coordinate; the returned workload is shared
    /// across the scheduler axis.  `make_scheduler(name, workload)`
    /// resolves a scheduler-axis name against the workload (weighted-fair
    /// specs need its lane weights).
    pub fn expand<V>(
        &self,
        variants: &[(String, V)],
        schedulers: &[&str],
        mut make_workload: impl FnMut(u64, f64, &V) -> Arc<Workload>,
        mut make_scheduler: impl FnMut(&str, &Workload) -> SchedulerSpec,
    ) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &seed in &self.seeds {
            // A cell's fleet must carry the cell's seed, not the plan's:
            // device fault draws derive from it.
            let fleet = FleetConfig {
                seed,
                ..self.fleet.clone()
            };
            for &load in &self.loads {
                let rate_hz = self.rate_for(load);
                for (variant_name, variant) in variants {
                    let workload = make_workload(seed, rate_hz, variant);
                    for scheduler_name in schedulers {
                        let scheduler = make_scheduler(scheduler_name, &workload);
                        let label = [
                            format!("s{seed}"),
                            self.fleet_name.clone(),
                            format!("load{load}"),
                            variant_name.clone(),
                            (*scheduler_name).to_string(),
                        ]
                        .into_iter()
                        .filter(|part| !part.is_empty())
                        .collect::<Vec<_>>()
                        .join("/");
                        cells.push(CellSpec {
                            label,
                            fleet: fleet.clone(),
                            scheduler,
                            admission: AdmissionSpec::AdmitAll,
                            config: self.config,
                            workload: Arc::clone(&workload),
                        });
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LaneOrder;
    use crate::sim::{PercentileMode, SimConfig, WorkloadMode};
    use crate::telemetry::{MetricsRegistry, NullSink};
    use crate::tenant::MultiTenantSpec;
    use crate::workload::WorkloadSpec;

    const SIZES: [usize; 3] = [16, 20, 24];

    fn test_config() -> SimConfig {
        SimConfig {
            mode: WorkloadMode::Open,
            percentiles: PercentileMode::Sketch,
        }
    }

    fn small_cells(seed: u64) -> Vec<CellSpec> {
        let fleet = FleetConfig {
            qpus: 2,
            seed,
            ..FleetConfig::default()
        };
        let plan = SweepPlan::new("uniform", fleet, &SIZES, 1.0, test_config())
            .expect("calibration succeeds for the sweep mix sizes")
            .seeds(vec![seed])
            .loads(vec![1.0]);
        plan.expand(
            &[(String::new(), ())],
            &["fifo", "affinity"],
            |seed, rate_hz, ()| {
                Arc::new(
                    WorkloadSpec::repeated_topologies(30, rate_hz, seed)
                        .try_generate()
                        .expect("valid test workload"),
                )
            },
            |name, _workload| match name {
                "fifo" => SchedulerSpec::Fifo,
                _ => SchedulerSpec::CacheAffinity,
            },
        )
    }

    fn run_all(cells: &[CellSpec]) -> Vec<CellResult> {
        cells
            .iter()
            .enumerate()
            .map(|(index, cell)| run_cell(index, cell, &mut NullSink))
            .collect()
    }

    #[test]
    fn merged_aggregates_sum_cell_counts() {
        let cells = small_cells(5);
        let results = run_all(&cells);
        let merged = MergedAggregates::merge(&results);
        let completed: usize = results.iter().map(|c| c.report.completed).sum();
        assert_eq!(merged.completed, completed);
        assert_eq!(merged.latency.count(), completed as u64);
        assert_eq!(merged.cells, cells.len());
        // Running the same cells again reproduces every cell and the
        // merged document byte for byte.
        let again = run_all(&cells);
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report);
            assert_eq!(a.latency_sketch, b.latency_sketch);
            assert_eq!(a.wait_sketch, b.wait_sketch);
        }
        assert_eq!(
            format!("{}", merged.to_json()),
            format!("{}", MergedAggregates::merge(&again).to_json())
        );
    }

    /// `run_cell` sketches the report's records; a registry attached to the
    /// engine observes the same values at each completion, in the same
    /// order, so the two sketches are identical, an empty run included.
    #[test]
    fn cell_sketches_equal_the_registry_sketches() {
        let workloads = [
            Arc::new(MultiTenantSpec::aggressor_victim(8, 0.5, 3.0, 1.0, 9).generate()),
            Arc::new(Workload::single_tenant(Vec::new())),
        ];
        let closed = SimConfig {
            mode: WorkloadMode::Closed { clients: 3 },
            ..test_config()
        };
        let mut completions = 0;
        for workload in &workloads {
            let wfq = SchedulerSpec::WeightedFair {
                weights: workload.weights(),
                lane_order: LaneOrder::default(),
            };
            for scheduler in [SchedulerSpec::Fifo, wfq] {
                for config in [test_config(), closed] {
                    let spec = CellSpec {
                        label: format!("{scheduler}"),
                        fleet: FleetConfig {
                            qpus: 2,
                            seed: 9,
                            ..FleetConfig::default()
                        },
                        scheduler: scheduler.clone(),
                        admission: AdmissionSpec::AdmitAll,
                        config,
                        workload: Arc::clone(workload),
                    };
                    let cell = run_cell(0, &spec, &mut NullSink);

                    let (fleet, mut policy, mut admission) = cell_runtime(&spec);
                    let mut registry = MetricsRegistry::new(5.0);
                    let report = simulate_with_telemetry(
                        fleet,
                        &spec.workload,
                        policy.as_mut(),
                        admission.as_mut(),
                        spec.config,
                        &mut NullSink,
                        Some(&mut registry),
                    );
                    assert_eq!(report, cell.report, "{}", spec.label);
                    assert_eq!(
                        registry.histogram("latency_seconds"),
                        Some(&cell.latency_sketch),
                        "{}: latency sketch",
                        spec.label
                    );
                    assert_eq!(
                        registry.histogram("wait_seconds"),
                        Some(&cell.wait_sketch),
                        "{}: wait sketch",
                        spec.label
                    );
                    completions += cell.latency_sketch.count();
                }
            }
        }
        assert!(completions > 0, "the non-empty workload completed no job");
    }

    #[test]
    fn expansion_order_is_seed_load_variant_scheduler() {
        let plan = SweepPlan::new("a", FleetConfig::default(), &SIZES, 2.0, test_config())
            .expect("calibration succeeds for the sweep mix sizes")
            .seeds(vec![1, 2])
            .loads(vec![0.5, 1.5]);
        let cells = plan.expand(
            &[("x".to_string(), ()), ("y".to_string(), ())],
            &["fifo"],
            |seed, rate_hz, ()| {
                Arc::new(
                    WorkloadSpec::repeated_topologies(4, rate_hz, seed)
                        .try_generate()
                        .expect("valid test workload"),
                )
            },
            |_, _| SchedulerSpec::Fifo,
        );
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "s1/a/load0.5/x/fifo",
                "s1/a/load0.5/y/fifo",
                "s1/a/load1.5/x/fifo",
                "s1/a/load1.5/y/fifo",
                "s2/a/load0.5/x/fifo",
                "s2/a/load0.5/y/fifo",
                "s2/a/load1.5/x/fifo",
                "s2/a/load1.5/y/fifo",
            ]
        );
        // Every cell's fleet carries the cell seed.
        assert!(cells.iter().take(4).all(|c| c.fleet.seed == 1));
        assert!(cells.iter().skip(4).all(|c| c.fleet.seed == 2));
    }

    #[test]
    fn calibrated_rates_are_positive_and_linear_in_load() {
        let uniform = FleetConfig {
            qpus: 2,
            seed: 3,
            ..FleetConfig::default()
        };
        for fleet in [uniform, FleetConfig::heterogeneous(2, 3)] {
            let plan = SweepPlan::new("f", fleet.clone(), &SIZES, 1.0, test_config())
                .expect("calibration succeeds for the sweep mix sizes");
            let direct = RateCalibration::for_fleet(&fleet, &SIZES)
                .expect("calibration succeeds for the sweep mix sizes");
            assert_eq!(plan.rate_for(1.0), direct.rate_hz(1.0, 1.0, fleet.qpus));
            assert!(plan.rate_for(1.0) > 0.0);
            let r1 = plan.rate_for(0.5);
            let r2 = plan.rate_for(1.0);
            assert!((r2 / r1 - 2.0).abs() < 1e-12);
        }
        // A size the device model cannot serve fails the plan, naming the
        // fleet.
        let err = SweepPlan::new(
            "big",
            FleetConfig::default(),
            &[100_000],
            1.0,
            test_config(),
        )
        .expect_err("no warm service model for an oversized topology");
        assert!(err.starts_with("fleet 'big': "), "{err}");
    }

    #[test]
    fn admission_spec_rebuilds_named_controllers() {
        assert_eq!(AdmissionSpec::AdmitAll.build().name(), "admit-all");
        let spec = AdmissionSpec::TokenBucket {
            default: TokenBucketConfig::default(),
            per_tenant: vec![(
                TenantId(1),
                TokenBucketConfig {
                    max_queue_depth: 3,
                    ..TokenBucketConfig::default()
                },
            )],
        };
        assert_eq!(spec.build().name(), "token-bucket");
    }
}

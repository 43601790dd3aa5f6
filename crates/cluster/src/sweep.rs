//! Deterministic parallel experiment runner: fan independent simulation
//! cells across threads, bit-identical to serial.
//!
//! A [`CellSpec`] is the one complete description of a run — seed,
//! workload, fleet config, scheduler spec, admission spec, engine config —
//! and it is serialized: a flight record's header line is a `CellSpec`
//! ([`CellSpec::to_json`]), and replay runs the parsed spec through the
//! same [`run_cell`] every sweep cell and `cluster_sim` run goes through.
//! [`SweepPlan`] expands a cartesian grid of axes (seed × fleet × load ×
//! workload variant × scheduler) into cells, with capacity-derived
//! arrival-rate calibration
//! ([`RateCalibration`]) hoisted out of the per-cell loop so a cell's rate
//! depends only on its `(fleet, load)` coordinates, never on axis order.
//! [`run_sweep`] executes the cells across threads via the compat `rayon`
//! joiner and collects [`CellResult`]s in index order; cross-cell
//! aggregates are merged through [`StreamingHistogram::merge`].
//!
//! # Parallelism is invisible
//!
//! Every cell is a pure function of its [`CellSpec`]: the fleet (and its
//! per-device RNGs) is rebuilt from the cell's seed, the scheduler and
//! admission controller are rebuilt from their specs, and the engine runs
//! with a [`NullSink`] plus a per-cell sketch [`MetricsRegistry`] — the
//! production-shaped telemetry configuration.  No state is shared between
//! cells, results are collected in cell-index order, and merges walk that
//! order, so the per-cell reports *and* the merged aggregates are
//! bit-identical whether the sweep ran on 1 thread or N.  `threads == 1`
//! is the serial oracle the determinism suite compares against
//! (`tests/sweep_determinism.rs`).
//!
//! Only [`SweepOutcome::wall_seconds`] and [`CellResult::wall_seconds`]
//! are host-side wall-clock measurements; they are excluded from every
//! determinism comparison and from the deterministic `sx-sweep/v1` JSON.

use std::sync::Arc;

use rayon::prelude::*;
use split_exec::SplitExecConfig;

use crate::admission::{AdmissionController, AdmitAll, TokenBucket, TokenBucketConfig};
use crate::fleet::{cost_table, Fleet, FleetConfig};
use crate::json::JsonValue;
use crate::metrics::SimReport;
use crate::replay::SchedulerSpec;
use crate::scheduler::Scheduler;
use crate::sim::{simulate_with_telemetry, SimConfig};
use crate::telemetry::{HostStopwatch, MetricsRegistry, NullSink, StreamingHistogram, TraceSink};
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
    /// Seed for the cell's fleet (device fault draws and sub-RNGs).
    pub seed: u64,
    /// Fleet shape; the fleet is rebuilt per cell from this config.
    pub fleet: FleetConfig,
    /// Scheduler, rebuilt per cell with fresh state.
    pub scheduler: SchedulerSpec,
    /// Admission controller, rebuilt per cell with fresh state.
    pub admission: AdmissionSpec,
    /// Engine configuration (open/closed mode, percentile summarization).
    pub config: SimConfig,
    /// Virtual-time sampling cadence of the cell's metrics registry.
    pub sample_interval: f64,
    /// The generated workload this cell replays.
    pub workload: Arc<Workload>,
}

/// The result of one cell, collected in cell-index order.
///
/// Everything here except [`Self::wall_seconds`] is a deterministic
/// function of the cell's [`CellSpec`].
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's index in its sweep's expansion order.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The engine's report for the cell.
    pub report: SimReport,
    /// End-to-end latency sketch from the cell's registry (seconds).
    pub latency_sketch: StreamingHistogram,
    /// Queueing-delay sketch from the cell's registry (seconds).
    pub wait_sketch: StreamingHistogram,
    /// Host-side wall clock spent executing the cell (setup + dispatch
    /// loop + report assembly).  Not deterministic; excluded from every
    /// bit-identity comparison.
    pub wall_seconds: f64,
}

/// Once-per-cell setup: rebuild the fleet, scheduler, admission controller
/// and metrics registry from the cell's specs.
#[allow(clippy::type_complexity)]
// sx-lint: hot-exempt -- once-per-cell construction before the dispatch loop; the loop itself only touches pre-built state
fn cell_runtime(
    spec: &CellSpec,
) -> (
    Fleet,
    Box<dyn Scheduler>,
    Box<dyn AdmissionController>,
    MetricsRegistry,
) {
    (
        Fleet::new(spec.fleet.clone(), SplitExecConfig::with_seed(spec.seed)),
        spec.scheduler.build(),
        spec.admission.build(),
        MetricsRegistry::new(spec.sample_interval),
    )
}

/// Once-per-cell teardown: lift the registry's standard sketches into the
/// [`CellResult`].
// sx-lint: hot-exempt -- once per cell, after the event loop drains; nothing here is per-event
fn assemble_cell(
    index: usize,
    spec: &CellSpec,
    report: SimReport,
    registry: &MetricsRegistry,
    wall_seconds: f64,
) -> CellResult {
    let sketch = |name: &str| {
        registry.histogram(name).cloned().unwrap_or_default() // sim_series always registers both; empty workloads still get an empty sketch
    };
    CellResult {
        index,
        label: spec.label.clone(),
        report,
        latency_sketch: sketch("latency_seconds"),
        wait_sketch: sketch("wait_seconds"),
        wall_seconds,
    }
}

/// Execute one cell: the sweep runner's per-cell body.
///
/// The cell is a pure function of `spec` — see the module docs — so the
/// result is identical no matter which thread runs it or in what order.
/// `sink` is normally [`NullSink`] (the production-shaped config);
/// `cluster_sim`'s observer passes its recording chain here when a flight
/// record or Perfetto trace was requested, which cannot perturb the report
/// (sinks are pure observers).
// sx-lint: hot-root -- the sweep runner's per-cell body: between setup and assembly this IS the dispatch loop, and must stay allocation-free in steady state
pub fn run_cell(index: usize, spec: &CellSpec, sink: &mut dyn TraceSink) -> CellResult {
    let stopwatch = HostStopwatch::start();
    let (fleet, mut scheduler, mut admission, mut registry) = cell_runtime(spec);
    let report = simulate_with_telemetry(
        fleet,
        &spec.workload,
        scheduler.as_mut(),
        admission.as_mut(),
        spec.config,
        sink,
        Some(&mut registry),
    );
    assemble_cell(index, spec, report, &registry, stopwatch.elapsed_seconds())
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
            // Every cell sketch comes from a MetricsRegistry with the
            // default resolution, so the γ-mismatch arm is unreachable.
            merged
                .latency
                .merge(&cell.latency_sketch)
                // sx-lint: allow(H003) -- γ is uniform by construction: every cell registry uses the default resolution
                .expect("cell registries share the default sketch resolution");
            merged
                .wait
                .merge(&cell.wait_sketch)
                // sx-lint: allow(H003) -- γ is uniform by construction: every cell registry uses the default resolution
                .expect("cell registries share the default sketch resolution");
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

/// Everything a sweep produced: per-cell results in index order, the
/// merged aggregates, and the host-side wall clock for the whole sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-cell results, in cell-index order.
    pub cells: Vec<CellResult>,
    /// Cross-cell aggregates merged in index order.
    pub merged: MergedAggregates,
    /// Host wall clock for the whole sweep (not deterministic).
    pub wall_seconds: f64,
}

impl SweepOutcome {
    /// Assemble an outcome from already-executed cells (used by the serial
    /// observer path in `cluster_sim`, which must produce the same shape
    /// the parallel runner does).
    pub fn collect(cells: Vec<CellResult>, wall_seconds: f64) -> SweepOutcome {
        let merged = MergedAggregates::merge(&cells);
        SweepOutcome {
            cells,
            merged,
            wall_seconds,
        }
    }

    /// Summed events per host second across the sweep — the host-side
    /// throughput figure `--mode bench`'s parallel-scaling section
    /// records.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.merged.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Execute `cells` across `threads` worker threads (`0` = available
/// parallelism) and collect results in cell-index order.
///
/// `threads == 1` runs the cells serially on the calling thread — the
/// serial oracle.  Any other count fans the index range over the compat
/// `rayon` joiner, which chunks it across scoped threads and concatenates
/// results in index order; because every cell is pure (see module docs)
/// the outcome is bit-identical for every thread count.
pub fn run_sweep(cells: &[CellSpec], threads: usize) -> SweepOutcome {
    let stopwatch = HostStopwatch::start();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        // sx-lint: allow(H003) -- the facade's build is infallible (no pool-size or resource validation can fail)
        .expect("the rayon facade's pool build cannot fail");
    let results: Vec<CellResult> = pool.install(|| {
        (0..cells.len())
            .into_par_iter()
            .map(|i| {
                let mut sink = NullSink;
                run_cell(i, &cells[i], &mut sink)
            })
            .collect()
    });
    SweepOutcome::collect(results, stopwatch.elapsed_seconds())
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
/// cell's rate.  A `RateCalibration` is computed once per fleet axis entry
/// at plan-construction time ([`SweepPlan::calibrated`]) and every cell's
/// rate is derived from that stored value.
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
        let table = cost_table(
            config.device_model(0),
            &SplitExecConfig::with_seed(config.seed),
        );
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

/// A cartesian grid of sweep axes: seed × fleet × load × workload variant
/// × scheduler, expanded into [`CellSpec`]s in that fixed nesting order.
///
/// The plan owns the per-fleet [`RateCalibration`]s (computed once, in
/// fleet-axis order, by [`Self::calibrated`]); [`Self::rate_for`] derives
/// every cell's arrival rate from the stored calibration so rates cannot
/// drift when axes are added or reordered.  Workload and scheduler
/// construction stay with the caller as closures — tenant compositions and
/// lane weights are mode-specific — but each workload is generated exactly
/// once per `(seed, fleet, load, variant)` coordinate and shared across
/// the scheduler axis via `Arc`.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    seeds: Vec<u64>,
    fleets: Vec<(String, FleetConfig)>,
    loads: Vec<f64>,
    base_rate_hz: f64,
    qpus: usize,
    config: SimConfig,
    sample_interval: f64,
    calibrations: Option<Vec<RateCalibration>>,
}

/// Default virtual-time sampling cadence of per-cell metrics registries
/// (matches `--mode bench`'s default `--sample-interval`).
pub const DEFAULT_SAMPLE_INTERVAL: f64 = 5.0;

impl SweepPlan {
    /// A plan with the given base arrival rate, fleet size and engine
    /// config, and empty axes.
    pub fn new(base_rate_hz: f64, qpus: usize, config: SimConfig) -> SweepPlan {
        SweepPlan {
            seeds: Vec::new(),
            fleets: Vec::new(),
            loads: Vec::new(),
            base_rate_hz,
            qpus,
            config,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            calibrations: None,
        }
    }

    /// Set the seed axis.
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> SweepPlan {
        self.seeds = seeds.into();
        self
    }

    /// Set the fleet axis (labelled configs).  Invalidates any previous
    /// calibration: call [`Self::calibrated`] after the axis is final.
    pub fn fleets(mut self, fleets: Vec<(String, FleetConfig)>) -> SweepPlan {
        self.fleets = fleets;
        self.calibrations = None;
        self
    }

    /// Set the load axis.
    pub fn loads(mut self, loads: impl Into<Vec<f64>>) -> SweepPlan {
        self.loads = loads.into();
        self
    }

    /// Set the per-cell registry sampling cadence.
    pub fn sample_interval(mut self, sample_interval: f64) -> SweepPlan {
        self.sample_interval = sample_interval;
        self
    }

    /// Compute one [`RateCalibration`] per fleet-axis entry from `sizes`,
    /// hoisting the capacity probes out of the cell loop.  Until this is
    /// called, [`Self::rate_for`] treats `load` as a plain multiplier on
    /// the base rate (the uncalibrated modes' behavior).
    pub fn calibrated(mut self, sizes: &[usize]) -> Result<SweepPlan, String> {
        let mut calibrations = Vec::with_capacity(self.fleets.len());
        for (name, config) in &self.fleets {
            let calibration = RateCalibration::for_fleet(config, sizes)
                .map_err(|err| format!("fleet '{name}': {err}"))?;
            calibrations.push(calibration);
        }
        self.calibrations = Some(calibrations);
        Ok(self)
    }

    /// The stored calibration for fleet-axis entry `fleet_index`, if the
    /// plan was calibrated.
    pub fn calibration(&self, fleet_index: usize) -> Option<&RateCalibration> {
        self.calibrations.as_ref().and_then(|c| c.get(fleet_index))
    }

    /// The arrival rate for a cell at `(fleet_index, load)` — from the
    /// hoisted calibration when present, else `base_rate_hz × load`.
    pub fn rate_for(&self, fleet_index: usize, load: f64) -> f64 {
        match self.calibration(fleet_index) {
            Some(calibration) => calibration.rate_hz(self.base_rate_hz, load, self.qpus),
            None => self.base_rate_hz * load,
        }
    }

    /// Expand the grid into cells, in the fixed nesting order
    /// seed → fleet → load → variant → scheduler.
    ///
    /// `make_workload(seed, rate_hz, variant)` is called once per
    /// `(seed, fleet, load, variant)` coordinate; the returned workload is
    /// shared across the scheduler axis.  `make_scheduler(name, workload)`
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
            for (fleet_index, (fleet_name, fleet)) in self.fleets.iter().enumerate() {
                // A cell's fleet must carry the cell's seed, not the
                // axis-template's: device fault draws derive from it.
                let fleet = FleetConfig {
                    seed,
                    ..fleet.clone()
                };
                for &load in &self.loads {
                    let rate_hz = self.rate_for(fleet_index, load);
                    for (variant_name, variant) in variants {
                        let workload = make_workload(seed, rate_hz, variant);
                        for scheduler_name in schedulers {
                            let scheduler = make_scheduler(scheduler_name, &workload);
                            let label = [
                                format!("s{seed}"),
                                fleet_name.clone(),
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
                                seed,
                                fleet: fleet.clone(),
                                scheduler,
                                admission: AdmissionSpec::AdmitAll,
                                config: self.config,
                                sample_interval: self.sample_interval,
                                workload: Arc::clone(&workload),
                            });
                        }
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
    use crate::scheduler::PolicyKind;
    use crate::sim::{PercentileMode, SimConfig, WorkloadMode};
    use crate::workload::WorkloadSpec;

    fn test_config() -> SimConfig {
        SimConfig {
            mode: WorkloadMode::Open,
            percentiles: PercentileMode::Sketch,
        }
    }

    fn small_cells(seed: u64) -> Vec<CellSpec> {
        let plan = SweepPlan::new(1.0, 2, test_config())
            .seeds(vec![seed])
            .fleets(vec![(
                "uniform".to_string(),
                FleetConfig {
                    qpus: 2,
                    seed,
                    ..FleetConfig::default()
                },
            )])
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

    #[test]
    fn serial_and_parallel_sweeps_are_bit_identical() {
        let cells = small_cells(11);
        let serial = run_sweep(&cells, 1);
        let parallel = run_sweep(&cells, 3);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report);
            assert_eq!(a.latency_sketch, b.latency_sketch);
            assert_eq!(a.wait_sketch, b.wait_sketch);
        }
        assert_eq!(
            format!("{}", serial.merged.to_json()),
            format!("{}", parallel.merged.to_json())
        );
    }

    #[test]
    fn merged_aggregates_sum_cell_counts() {
        let cells = small_cells(5);
        let outcome = run_sweep(&cells, 2);
        let completed: usize = outcome.cells.iter().map(|c| c.report.completed).sum();
        assert_eq!(outcome.merged.completed, completed);
        assert_eq!(outcome.merged.latency.count(), completed as u64);
        assert_eq!(outcome.merged.cells, cells.len());
    }

    #[test]
    fn expansion_order_is_seed_fleet_load_variant_scheduler() {
        let plan = SweepPlan::new(2.0, 2, test_config())
            .seeds(vec![1, 2])
            .fleets(vec![
                ("a".to_string(), FleetConfig::default()),
                ("b".to_string(), FleetConfig::default()),
            ])
            .loads(vec![0.5, 1.5]);
        let cells = plan.expand(
            &[(String::new(), ())],
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
                "s1/a/load0.5/fifo",
                "s1/a/load1.5/fifo",
                "s1/b/load0.5/fifo",
                "s1/b/load1.5/fifo",
                "s2/a/load0.5/fifo",
                "s2/a/load1.5/fifo",
                "s2/b/load0.5/fifo",
                "s2/b/load1.5/fifo",
            ]
        );
        // The uncalibrated plan treats load as a plain rate multiplier.
        assert_eq!(plan.rate_for(0, 0.5), 1.0);
        assert_eq!(plan.rate_for(1, 1.5), 3.0);
        // Every cell's fleet carries the cell seed.
        assert!(cells.iter().take(4).all(|c| c.fleet.seed == 1));
        assert!(cells.iter().skip(4).all(|c| c.fleet.seed == 2));
    }

    #[test]
    fn calibrated_rates_are_positive_and_fleet_dependent() {
        let uniform = FleetConfig {
            qpus: 2,
            seed: 3,
            ..FleetConfig::default()
        };
        let hetero = FleetConfig::heterogeneous(2, 3);
        let plan = SweepPlan::new(1.0, 2, test_config())
            .fleets(vec![
                ("uniform".to_string(), uniform.clone()),
                ("hetero".to_string(), hetero),
            ])
            .calibrated(&[16, 20, 24])
            .expect("calibration succeeds for the bench mix sizes");
        let direct = RateCalibration::for_fleet(&uniform, &[16, 20, 24])
            .expect("calibration succeeds for the bench mix sizes");
        assert_eq!(plan.calibration(0), Some(&direct));
        assert!(plan.rate_for(0, 1.0) > 0.0);
        // rate is linear in load given one calibration.
        let r1 = plan.rate_for(0, 0.5);
        let r2 = plan.rate_for(0, 1.0);
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
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

    #[test]
    fn policy_kind_axis_resolves_through_scheduler_specs() {
        // Guard the idiom the CLI uses: every PolicyKind has a SchedulerSpec form.
        for policy in PolicyKind::all() {
            let spec = SchedulerSpec::from(policy);
            assert!(!spec.name().is_empty());
        }
    }
}

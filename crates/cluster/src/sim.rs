//! The simulation engine: replaying a workload against a fleet.
//!
//! [`simulate`] is the whole simulator: pop the earliest event, update
//! state, let the scheduler dispatch, repeat until the future-event list is
//! empty.  Everything runs on the virtual clock of [`crate::event`] — no
//! wall time, no global RNG — so the outcome (trace included) is a pure
//! function of `(fleet seed, workload, policy, admission, mode)`.
//!
//! [`simulate_with_admission`] interposes an
//! [`AdmissionController`] between
//! arrival and the scheduler: accepted jobs queue as usual, shed jobs are
//! dropped and counted per tenant, deferred jobs re-arrive at the
//! controller's chosen virtual time (with their original arrival stamp in
//! open mode, so deferral shows up in the queueing delay).
//!
//! [`simulate_with_telemetry`] is the fully instrumented core the other
//! entry points wrap: the trace stream goes to a caller-chosen
//! [`TraceSink`] (retention is a *policy* — the legacy entry points attach
//! a [`crate::telemetry::VecSink`] so `SimReport.trace` keeps working,
//! large runs attach a [`crate::telemetry::NullSink`]), and an optional
//! [`MetricsRegistry`] samples queue depth, per-QPU utilization, cache
//! hit-rate, and per-tenant lane depth on the virtual clock.  Telemetry is
//! a pure observer: any sink/registry combination yields bit-identical
//! reports (asserted by the purity tests below).
//!
//! Two workload modes:
//!
//! * **Open** — jobs arrive at the timestamps the workload generator drew
//!   (Poisson/bursty); the queue grows when the fleet saturates.
//! * **Closed** — `clients` jobs circulate: each completion (or rejection)
//!   releases the next job from the stream immediately, the classic
//!   fixed-population throughput experiment.

use crate::admission::{AdmissionContext, AdmissionController, AdmissionDecision, AdmitAll};
use crate::event::{Event, EventKind, EventQueue};
use crate::fleet::Fleet;
use crate::job::{Job, JobRecord};
use crate::metrics::{LatencyStats, QpuStats, SimReport, TenantStats};
use crate::scheduler::Scheduler;
use crate::telemetry::{MetricsRegistry, SimSeries, StreamingHistogram, TraceSink, VecSink};
use crate::tenant::{TenantId, TenantMeta};
use crate::workload::Workload;

/// How the workload's jobs are released into the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMode {
    /// Use the generated arrival times (open system).
    Open,
    /// Keep a fixed population in flight: start `clients` jobs at time
    /// zero, release the next job whenever one finishes (closed system;
    /// generated arrival times are ignored).
    Closed {
        /// Number of concurrent clients.
        clients: usize,
    },
}

/// How [`crate::metrics::LatencyStats`] percentiles are computed when the
/// run is summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PercentileMode {
    /// Sort the full sample set and take exact rank statistics (the
    /// historical behavior; allocation per summary is proportional to the
    /// completed-job count).
    #[default]
    Exact,
    /// Stream samples through a [`StreamingHistogram`] sketch: constant
    /// memory regardless of run size, quantiles within the sketch's
    /// documented relative-error bound
    /// ([`StreamingHistogram::relative_error_bound`]), `min`/`max`/`mean`
    /// still exact.  The right choice for million-job runs.
    Sketch,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Open or closed workload release.
    pub mode: WorkloadMode,
    /// Exact or sketch-backed report percentiles.
    pub percentiles: PercentileMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            mode: WorkloadMode::Open,
            percentiles: PercentileMode::Exact,
        }
    }
}

/// One entry of the deterministic event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceRecord {
    /// An event fired.
    Fired(Event),
    /// The scheduler dispatched a job onto a device.
    Dispatched {
        /// Virtual time of the dispatch.
        time: f64,
        /// The job.
        job: usize,
        /// The device.
        qpu: usize,
        /// The tenant that submitted the job.
        tenant: TenantId,
        /// Whether the device's embedding cache was warm.
        warm: bool,
        /// When the job will finish.
        finish: f64,
        /// Stage-1 (embedding) service seconds.
        stage1_seconds: f64,
        /// Stage-2 (anneal) service seconds.
        stage2_seconds: f64,
        /// Stage-3 (readout) service seconds.
        stage3_seconds: f64,
    },
    /// A job was rejected (infeasible on every device).
    Rejected {
        /// Virtual time of the rejection.
        time: f64,
        /// The job.
        job: usize,
    },
    /// The admission controller shed a job.
    Shed {
        /// Virtual time of the shed.
        time: f64,
        /// The job.
        job: usize,
        /// The tenant that submitted it.
        tenant: TenantId,
        /// Whether the shed was a deadline-infeasibility shed
        /// ([`crate::admission::AdmissionDecision::ShedInfeasible`]) rather
        /// than a budget/backlog shed.
        infeasible: bool,
    },
    /// The admission controller deferred a job to a later arrival.
    Deferred {
        /// Virtual time of the deferral.
        time: f64,
        /// The job.
        job: usize,
        /// When the job re-arrives.
        until: f64,
    },
}

/// Run `workload` against `fleet` under `scheduler`, admitting every
/// arrival ([`AdmitAll`]).
///
/// The fleet is consumed: its warm sets and occupancy are part of the run's
/// state, so policy comparisons must rebuild the fleet (same
/// [`crate::fleet::FleetConfig`], hence identical fault maps) per run.
pub fn simulate(
    fleet: Fleet,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    config: SimConfig,
) -> SimReport {
    simulate_with_admission(fleet, workload, scheduler, &mut AdmitAll, config)
}

/// [`simulate`], with an [`AdmissionController`] gating every arrival
/// before it reaches the scheduler: accepted jobs queue, shed jobs are
/// dropped (counted per tenant), deferred jobs re-arrive at the
/// controller's chosen virtual time.
///
/// Retains the full event trace in `SimReport.trace` via a
/// [`VecSink`] — the pre-telemetry behavior, kept for replay and
/// determinism tests.  Large runs should call
/// [`simulate_with_telemetry`] with a [`crate::telemetry::NullSink`]
/// instead, so retention is opt-in.
pub fn simulate_with_admission(
    fleet: Fleet,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    admission: &mut dyn AdmissionController,
    config: SimConfig,
) -> SimReport {
    let mut sink = VecSink::new();
    let mut report = simulate_with_telemetry(
        fleet, workload, scheduler, admission, config, &mut sink, None,
    );
    report.trace = sink.into_trace();
    report
}

/// Every buffer the dispatch loop writes to, sized for the whole run up
/// front.
///
/// This is the **hot path contract**'s allocation half (see
/// `docs/ARCHITECTURE.md`): the event loop in [`simulate_with_telemetry`]
/// only ever writes into these pre-sized buffers, so steady-state dispatch
/// performs zero heap allocations.  `sx_lint`'s A001 rule enforces the
/// shape statically (hot code may only `push`/`insert` into
/// `with_capacity`-backed receivers) and `tests/alloc_budget.rs` pins the
/// behavior dynamically with a counting allocator.
struct SimScratch {
    events: EventQueue,
    queue: Vec<Job>,
    queue_depth: Vec<(f64, usize)>,
    records: Vec<JobRecord>,
    in_flight: Vec<Option<JobRecord>>,
    /// When each job first entered the system (closed mode re-stamps
    /// arrivals with the release clock, but a deferred re-arrival must keep
    /// its original stamp or `now - arrival` — the controller's total-defer
    /// measure — is always zero and `max_defer_seconds` can never bind).
    released_at: Vec<Option<f64>>,
    tenant_depth: Vec<usize>,
    tenant_depth_max: Vec<usize>,
    tenant_shed: Vec<usize>,
    tenant_shed_infeasible: Vec<usize>,
    tenant_deferrals: Vec<usize>,
    tenant_rejected: Vec<usize>,
}

impl SimScratch {
    /// Allocate every per-run buffer once, before the event loop starts.
    ///
    /// Capacity arithmetic: the queue and the record list hold at most one
    /// entry per job; the future-event list holds the un-fired arrivals
    /// plus one in-flight completion per device; the depth series gets one
    /// sample per event, and a run without deferrals fires at most one
    /// arrival plus one completion per job (admission deferrals re-arrive
    /// and may grow the series past the estimate — amortized doubling,
    /// never per-event).
    // sx-lint: hot-exempt -- once-per-run setup: the dispatch loop only writes into buffers sized here
    fn for_run(workload: &Workload, fleet: &Fleet, lanes: usize) -> Self {
        let jobs = workload.len();
        Self {
            events: EventQueue::with_capacity(jobs + fleet.devices.len() + 1),
            queue: Vec::with_capacity(jobs),
            queue_depth: Vec::with_capacity(2 * jobs + 1),
            records: Vec::with_capacity(jobs),
            in_flight: vec![None; jobs],
            released_at: vec![None; jobs],
            tenant_depth: vec![0usize; lanes],
            tenant_depth_max: vec![0usize; lanes],
            tenant_shed: vec![0usize; lanes],
            tenant_shed_infeasible: vec![0usize; lanes],
            tenant_deferrals: vec![0usize; lanes],
            tenant_rejected: vec![0usize; lanes],
        }
    }
}

/// The fully instrumented engine core: every trace record goes to `sink`
/// (never retained by the engine itself — `SimReport.trace` comes back
/// empty; attach a [`VecSink`] and move its records in if retention is
/// wanted, as [`simulate_with_admission`] does), and when `registry` is
/// provided its standard instruments ([`MetricsRegistry::sim_series`]) are
/// fed and sampled on the virtual clock after every event.
///
/// Telemetry is a **pure observer**: for fixed simulation inputs, every
/// choice of `sink`/`registry` produces an identical report (the
/// `telemetry_is_a_pure_observer` tests assert bitwise equality).
///
/// This function is the simulator's hot path: all per-event work happens
/// in its event loop, which by contract performs no heap allocation in the
/// steady state (buffers come pre-sized from `SimScratch`, per-job
/// cloning is refcount-only, and report assembly is deferred to
/// `assemble_report` after the loop drains).
#[allow(clippy::too_many_arguments)]
// sx-lint: hot-root -- the dispatch loop: all per-event work happens in this body
pub fn simulate_with_telemetry(
    mut fleet: Fleet,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
    admission: &mut dyn AdmissionController,
    config: SimConfig,
    sink: &mut dyn TraceSink,
    mut registry: Option<&mut MetricsRegistry>,
) -> SimReport {
    let mut event_count = 0usize;
    let mut rejected = 0usize;
    let mut clock = 0.0_f64;
    // Per-tenant accounting, indexed by tenant id.
    let lanes = workload.lane_count();
    // Standard instruments, registered once up front so two identical runs
    // produce identical registration order.
    let probes: Option<SimSeries> = registry
        .as_deref_mut()
        .map(|r| r.sim_series(fleet.devices.len(), lanes));
    let SimScratch {
        mut events,
        mut queue,
        mut queue_depth,
        mut records,
        mut in_flight,
        mut released_at,
        mut tenant_depth,
        mut tenant_depth_max,
        mut tenant_shed,
        mut tenant_shed_infeasible,
        mut tenant_deferrals,
        mut tenant_rejected,
    } = SimScratch::for_run(workload, &fleet, lanes);
    let mut shed = 0usize;
    let mut shed_infeasible = 0usize;
    let mut deferrals = 0usize;

    // Release the initial population.
    let mut next_release = match config.mode {
        WorkloadMode::Open => {
            for job in &workload.jobs {
                events.schedule(job.arrival, EventKind::JobArrival { job: job.id });
            }
            workload.len()
        }
        WorkloadMode::Closed { clients } => {
            let initial = clients.max(1).min(workload.len());
            for job in &workload.jobs[..initial] {
                events.schedule(0.0, EventKind::JobArrival { job: job.id });
            }
            initial
        }
    };

    while let Some(event) = events.pop() {
        clock = event.time;
        event_count += 1;
        sink.on_record(&TraceRecord::Fired(event), clock);
        let mut release_next = false;

        match event.kind {
            EventKind::JobArrival { job } => {
                let mut job = workload.jobs[job].clone();
                // In closed mode the *first* release time is the true
                // arrival; open mode keeps the generated stamp.  Either
                // way a deferred re-arrival keeps the original stamp, so
                // its queueing delay includes the defer time and the
                // admission controller can see how long it has deferred.
                // Deadlines are slack relative to arrival, so a re-stamped
                // arrival re-anchors the deadline by the same shift —
                // otherwise closed-mode deadlines would stay pinned to the
                // generated open-mode clock and every late release would
                // read as an SLO miss regardless of service quality.
                if matches!(config.mode, WorkloadMode::Closed { .. }) {
                    let released = *released_at[job.id].get_or_insert(clock);
                    if let Some(deadline) = job.deadline {
                        job.deadline = Some(released + (deadline - job.arrival));
                    }
                    job.arrival = released;
                }
                let lane = job.tenant.index();
                if !fleet.devices.iter().any(|d| d.can_run(job.lps)) {
                    rejected += 1;
                    tenant_rejected[lane] += 1;
                    sink.on_record(
                        &TraceRecord::Rejected {
                            time: clock,
                            job: job.id,
                        },
                        clock,
                    );
                    release_next = true;
                } else {
                    // The controller's best-case completion estimate: the
                    // earliest any feasible device could finish this job,
                    // priced *warm* (service can only be slower) and with no
                    // queueing ahead of it (waiting only adds delay).  A
                    // true lower bound, so `estimate > deadline` proves a
                    // miss and deadline-infeasibility shedding can never
                    // claim a feasible job.  Only deadline-carrying jobs
                    // pay for the estimate — it exists solely to be
                    // compared against a deadline.
                    let best_case = job.deadline.map(|_| {
                        fleet
                            .devices
                            .iter()
                            .filter(|d| d.can_run(job.lps))
                            .filter_map(|d| {
                                let (s1, s2, s3) = d.service_breakdown(job.lps, true).ok()?;
                                Some((d.busy_until - clock).max(0.0) + s1 + s2 + s3)
                            })
                            .fold(f64::INFINITY, f64::min)
                    });
                    let ctx = AdmissionContext {
                        tenant_queue_depth: tenant_depth[lane],
                        predicted_completion: best_case
                            .filter(|b| b.is_finite())
                            .map(|b| clock + b),
                    };
                    match admission.admit(&job, &ctx, clock) {
                        AdmissionDecision::Defer { until } if until > clock => {
                            deferrals += 1;
                            tenant_deferrals[lane] += 1;
                            sink.on_record(
                                &TraceRecord::Deferred {
                                    time: clock,
                                    job: job.id,
                                    until,
                                },
                                clock,
                            );
                            events.schedule(until, EventKind::JobArrival { job: job.id });
                        }
                        AdmissionDecision::Accept => {
                            tenant_depth[lane] += 1;
                            tenant_depth_max[lane] = tenant_depth_max[lane].max(tenant_depth[lane]);
                            queue.push(job);
                        }
                        // A defer that does not advance the clock would loop
                        // forever; shedding is the only safe fallback.
                        decision @ (AdmissionDecision::Shed
                        | AdmissionDecision::ShedInfeasible
                        | AdmissionDecision::Defer { .. }) => {
                            let infeasible = decision == AdmissionDecision::ShedInfeasible;
                            shed += 1;
                            tenant_shed[lane] += 1;
                            if infeasible {
                                shed_infeasible += 1;
                                tenant_shed_infeasible[lane] += 1;
                            }
                            sink.on_record(
                                &TraceRecord::Shed {
                                    time: clock,
                                    job: job.id,
                                    tenant: job.tenant,
                                    infeasible,
                                },
                                clock,
                            );
                            release_next = true;
                        }
                    }
                }
            }
            EventKind::JobCompletion { qpu: _, job } => {
                let record = in_flight[job]
                    .take()
                    // sx-lint: allow(A002) -- same engine invariant as the H003 allow below: the expect is unreachable
                    // sx-lint: allow(H003) -- engine invariant: a JobCompletion is scheduled exactly once, at dispatch
                    .expect("completion event for a job that was never dispatched");
                if let (Some(reg), Some(p)) = (registry.as_deref_mut(), probes.as_ref()) {
                    reg.inc_counter(p.completions, 1);
                    reg.observe(p.latency, record.latency_seconds());
                    reg.observe(p.wait, record.wait_seconds());
                }
                records.push(record);
                release_next = true;
            }
        }

        // Closed mode: every departure (completion or rejection) admits the
        // next job of the stream.
        if release_next
            && matches!(config.mode, WorkloadMode::Closed { .. })
            && next_release < workload.len()
        {
            events.schedule(
                clock,
                EventKind::JobArrival {
                    job: workload.jobs[next_release].id,
                },
            );
            next_release += 1;
        }

        // Let the policy fill every idle device it wants to.
        while let Some((qi, d)) = scheduler.next_assignment(&queue, &fleet, clock) {
            let job = queue.remove(qi);
            tenant_depth[job.tenant.index()] -= 1;
            let device = &mut fleet.devices[d];
            debug_assert!(device.is_idle(clock) && device.can_run(job.lps));
            let warm = device.is_warm(job.topology_key);
            let Ok((s1, s2, s3)) = device.service_breakdown(job.lps, warm) else {
                // An analytic-model failure is unreachable for feasible
                // sizes; account it as a rejection rather than crashing.
                rejected += 1;
                tenant_rejected[job.tenant.index()] += 1;
                sink.on_record(
                    &TraceRecord::Rejected {
                        time: clock,
                        job: job.id,
                    },
                    clock,
                );
                // Closed mode: this departure, too, admits the next job —
                // otherwise the population silently shrinks.
                if matches!(config.mode, WorkloadMode::Closed { .. })
                    && next_release < workload.len()
                {
                    events.schedule(
                        clock,
                        EventKind::JobArrival {
                            job: workload.jobs[next_release].id,
                        },
                    );
                    next_release += 1;
                }
                continue;
            };
            let service = s1 + s2 + s3;
            let finish = clock + service;
            device.busy_until = finish;
            device.busy_seconds += service;
            device.jobs_served += 1;
            if warm {
                device.warm_hits += 1;
                // A hit must refresh recency, or LRU degenerates to FIFO
                // eviction and hot topologies get evicted under churn.
                device.touch_warm(job.topology_key);
            } else {
                device.cold_misses += 1;
                device.mark_warm(job.topology_key, job.lps);
            }
            in_flight[job.id] = Some(JobRecord {
                job: job.id,
                tenant: job.tenant,
                qpu: d,
                arrival: job.arrival,
                start: clock,
                finish,
                stage1_seconds: s1,
                stage2_seconds: s2,
                stage3_seconds: s3,
                warm_hit: warm,
                deadline: job.deadline,
            });
            events.schedule(
                finish,
                EventKind::JobCompletion {
                    qpu: d,
                    job: job.id,
                },
            );
            sink.on_record(
                &TraceRecord::Dispatched {
                    time: clock,
                    job: job.id,
                    qpu: d,
                    tenant: job.tenant,
                    warm,
                    finish,
                    stage1_seconds: s1,
                    stage2_seconds: s2,
                    stage3_seconds: s3,
                },
                clock,
            );
            if let (Some(reg), Some(p)) = (registry.as_deref_mut(), probes.as_ref()) {
                reg.inc_counter(p.dispatches, 1);
            }
        }

        queue_depth.push((clock, queue.len()));

        // Feed and sample the registry after the dispatch loop settles, so
        // every sample boundary sees a consistent post-event state.
        if let (Some(reg), Some(p)) = (registry.as_deref_mut(), probes.as_ref()) {
            reg.inc_counter(p.events, 1);
            reg.set_gauge(p.queue_depth, queue.len() as f64);
            let warm: usize = fleet.devices.iter().map(|d| d.warm_hits).sum();
            let cold: usize = fleet.devices.iter().map(|d| d.cold_misses).sum();
            let embeds = warm + cold;
            let hit_rate = if embeds > 0 {
                warm as f64 / embeds as f64
            } else {
                0.0
            };
            reg.set_gauge(p.hit_rate, hit_rate);
            for (q, d) in fleet.devices.iter().enumerate() {
                let util = if clock > 0.0 {
                    d.busy_seconds / clock
                } else {
                    0.0
                };
                if let Some(&id) = p.qpu_utilization.get(q) {
                    reg.set_gauge(id, util);
                }
            }
            for (lane, &depth) in tenant_depth.iter().enumerate() {
                if let Some(&id) = p.lane_depth.get(lane) {
                    reg.set_gauge(id, depth as f64);
                }
            }
            reg.tick(clock);
        }
    }

    debug_assert!(
        queue.is_empty(),
        "event list drained with jobs still queued"
    );

    assemble_report(
        &fleet,
        workload,
        scheduler.name(),
        admission.name(),
        lanes,
        config.percentiles,
        RunOutcome {
            event_count,
            rejected,
            shed,
            shed_infeasible,
            deferrals,
            makespan: clock,
            records,
            queue_depth,
            tenant_depth_max,
            tenant_shed,
            tenant_shed_infeasible,
            tenant_deferrals,
            tenant_rejected,
        },
    )
}

/// Everything the post-run summarization needs out of the drained event
/// loop: the counters and the buffers that move into the [`SimReport`].
struct RunOutcome {
    event_count: usize,
    rejected: usize,
    shed: usize,
    shed_infeasible: usize,
    deferrals: usize,
    makespan: f64,
    records: Vec<JobRecord>,
    queue_depth: Vec<(f64, usize)>,
    tenant_depth_max: Vec<usize>,
    tenant_shed: Vec<usize>,
    tenant_shed_infeasible: Vec<usize>,
    tenant_deferrals: Vec<usize>,
    tenant_rejected: Vec<usize>,
}

/// Summarize a drained run into a [`SimReport`].
///
/// Runs once per simulation, after the event loop: the percentile sweeps,
/// per-tenant regroupings and label formatting below allocate freely and
/// deliberately stay off the hot path.
/// Summarize one value stream under the configured percentile mode.
///
/// Exact mode materializes the values into one pre-sized buffer (capacity
/// from the caller, so the allocation count is independent of how many
/// values actually arrive — the alloc-budget test's N-vs-2N comparison
/// depends on that) and takes exact rank statistics.  Sketch mode streams
/// the values through a [`StreamingHistogram`] and never materializes
/// them.
// sx-lint: hot-exempt -- once per run, after the event loop drains; nothing here is per-event
fn summarize(
    percentiles: PercentileMode,
    capacity: usize,
    values: impl Iterator<Item = f64>,
) -> LatencyStats {
    match percentiles {
        PercentileMode::Exact => {
            let mut buf: Vec<f64> = Vec::with_capacity(capacity);
            buf.extend(values);
            LatencyStats::from_values(&buf)
        }
        PercentileMode::Sketch => {
            let mut sketch = StreamingHistogram::default();
            for v in values {
                sketch.observe(v);
            }
            LatencyStats::from_sketch(&sketch)
        }
    }
}

// sx-lint: hot-exempt -- once per run, after the event loop drains; nothing here is per-event
fn assemble_report(
    fleet: &Fleet,
    workload: &Workload,
    policy: &str,
    admission: &str,
    lanes: usize,
    percentiles: PercentileMode,
    run: RunOutcome,
) -> SimReport {
    let RunOutcome {
        event_count,
        rejected,
        shed,
        shed_infeasible,
        deferrals,
        makespan,
        records,
        queue_depth,
        tenant_depth_max,
        tenant_shed,
        tenant_shed_infeasible,
        tenant_deferrals,
        tenant_rejected,
    } = run;
    let per_qpu: Vec<QpuStats> = fleet
        .devices
        .iter()
        .map(|d| QpuStats {
            qpu: d.id,
            jobs: d.jobs_served,
            utilization: if makespan > 0.0 {
                d.busy_seconds / makespan
            } else {
                0.0
            },
            warm_hits: d.warm_hits,
            cold_misses: d.cold_misses,
            warm_topologies: d.warm_topologies(),
            evictions: d.evictions(),
            cache_bypassed: d.cache_bypassed(),
            cache_capacity: d.cache_capacity(),
        })
        .collect();

    let per_tenant: Vec<TenantStats> = (0..lanes)
        .map(|lane| {
            let id = TenantId(lane);
            let meta = workload
                .tenants
                .iter()
                .find(|t| t.id == id)
                .cloned()
                .unwrap_or(TenantMeta {
                    id,
                    name: format!("{id}"),
                    weight: 1.0,
                });
            // Pre-sized so the per-tenant regrouping's allocation count is
            // independent of the record count — keeps the alloc-budget
            // test's N-vs-2N comparison exact.
            let mut tenant_records: Vec<&JobRecord> = Vec::with_capacity(records.len());
            tenant_records.extend(records.iter().filter(|r| r.tenant == id));
            TenantStats {
                tenant: id,
                name: meta.name,
                weight: meta.weight,
                submitted: workload.jobs.iter().filter(|j| j.tenant == id).count(),
                completed: tenant_records.len(),
                shed: tenant_shed[lane],
                shed_infeasible: tenant_shed_infeasible[lane],
                deferrals: tenant_deferrals[lane],
                rejected: tenant_rejected[lane],
                max_queue_depth: tenant_depth_max[lane],
                latency: summarize(
                    percentiles,
                    tenant_records.len(),
                    tenant_records.iter().map(|r| r.latency_seconds()),
                ),
                wait: summarize(
                    percentiles,
                    tenant_records.len(),
                    tenant_records.iter().map(|r| r.wait_seconds()),
                ),
                slo_jobs: tenant_records
                    .iter()
                    .filter(|r| r.deadline.is_some())
                    .count(),
                slo_misses: tenant_records
                    .iter()
                    .filter(|r| r.slo_miss() == Some(true))
                    .count(),
                lateness: summarize(
                    percentiles,
                    tenant_records.len(),
                    tenant_records.iter().filter_map(|r| r.lateness_seconds()),
                ),
                service_seconds: tenant_records.iter().map(|r| r.service_seconds()).sum(),
            }
        })
        .collect();

    SimReport {
        policy: policy.to_string(),
        admission: admission.to_string(),
        jobs: workload.len(),
        events: event_count,
        completed: records.len(),
        shed,
        shed_infeasible,
        deferrals,
        rejected,
        makespan_seconds: makespan,
        latency: summarize(
            percentiles,
            records.len(),
            records.iter().map(|r| r.latency_seconds()),
        ),
        wait: summarize(
            percentiles,
            records.len(),
            records.iter().map(|r| r.wait_seconds()),
        ),
        lateness: summarize(
            percentiles,
            records.len(),
            records.iter().filter_map(|r| r.lateness_seconds()),
        ),
        stage1_seconds: records.iter().map(|r| r.stage1_seconds).sum(),
        stage2_seconds: records.iter().map(|r| r.stage2_seconds).sum(),
        stage3_seconds: records.iter().map(|r| r.stage3_seconds).sum(),
        per_qpu,
        per_tenant,
        queue_depth,
        records,
        // The engine never retains the trace; callers that want one attach
        // a `VecSink` and move its records in (see `simulate_with_admission`).
        trace: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::scheduler::{LaneOrder, SchedulerSpec, WeightedFairQueue, DEFAULT_AGING_WEIGHT};
    use crate::workload::WorkloadSpec;
    use split_exec::SplitExecConfig;

    fn fleet(seed: u64) -> Fleet {
        Fleet::new(
            FleetConfig {
                qpus: 3,
                seed,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(seed),
        )
    }

    fn run(policy: &SchedulerSpec, seed: u64, mode: WorkloadMode) -> SimReport {
        let workload = WorkloadSpec::repeated_topologies(40, 0.5, seed).generate();
        let mut scheduler = policy.build();
        simulate(
            fleet(seed),
            &workload,
            scheduler.as_mut(),
            SimConfig {
                mode,
                ..SimConfig::default()
            },
        )
    }

    /// The sketch's own rank rule (1-based nearest rank ⌈q·n⌉), applied to
    /// the exact sorted samples — the value the sketch approximates.
    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn sketch_percentiles_agree_with_exact_within_the_documented_bound() {
        let workload = WorkloadSpec::repeated_topologies(60, 0.8, 21).generate();
        let mut exact_sched = SchedulerSpec::CacheAffinity.build();
        let exact = simulate(
            fleet(21),
            &workload,
            exact_sched.as_mut(),
            SimConfig::default(),
        );
        let sketch_config = SimConfig {
            percentiles: PercentileMode::Sketch,
            ..SimConfig::default()
        };
        let mut sketch_sched = SchedulerSpec::CacheAffinity.build();
        let sketch = simulate(fleet(21), &workload, sketch_sched.as_mut(), sketch_config);

        // The percentile mode only changes how the report summarizes; the
        // simulation itself is bit-identical.
        assert_eq!(exact.records, sketch.records);
        assert_eq!(exact.makespan_seconds, sketch.makespan_seconds);
        assert_eq!(exact.events, sketch.events);

        // And the sketch path is itself deterministic.
        let mut again_sched = SchedulerSpec::CacheAffinity.build();
        let again = simulate(fleet(21), &workload, again_sched.as_mut(), sketch_config);
        assert_eq!(again, sketch);

        let bound = StreamingHistogram::default().relative_error_bound();
        for (what, values, exact_stats, sketch_stats) in [
            (
                "latency",
                exact
                    .records
                    .iter()
                    .map(|r| r.latency_seconds())
                    .collect::<Vec<f64>>(),
                &exact.latency,
                &sketch.latency,
            ),
            (
                "wait",
                exact
                    .records
                    .iter()
                    .map(|r| r.wait_seconds())
                    .collect::<Vec<f64>>(),
                &exact.wait,
                &sketch.wait,
            ),
        ] {
            let mut sorted = values;
            sorted.sort_unstable_by(f64::total_cmp);
            assert!(sketch_stats.percentiles_ordered(), "{what}: order holds");
            // min/max/mean are tracked exactly by the sketch (mean may
            // differ by summation order only).
            assert_eq!(exact_stats.min, sketch_stats.min, "{what}: exact min");
            assert_eq!(exact_stats.max, sketch_stats.max, "{what}: exact max");
            assert!(
                (exact_stats.mean - sketch_stats.mean).abs()
                    <= 1e-9 * exact_stats.mean.abs().max(1.0),
                "{what}: mean {} vs {}",
                exact_stats.mean,
                sketch_stats.mean
            );
            // Quantiles: within the documented relative-error bound of the
            // nearest-rank sample the sketch targets.
            for (name, q, got) in [
                ("p50", 0.50, sketch_stats.p50),
                ("p95", 0.95, sketch_stats.p95),
                ("p99", 0.99, sketch_stats.p99),
            ] {
                let target = nearest_rank(&sorted, q);
                assert!(
                    (got - target).abs() <= bound * target.abs() + 1e-12,
                    "{what}/{name}: sketch {got} vs nearest-rank {target} (bound {bound})"
                );
            }
        }
        // No deadlines in this workload: both lateness summaries are the
        // all-zero empty summary.
        assert_eq!(exact.lateness, sketch.lateness);
    }

    #[test]
    fn every_job_is_accounted_for() {
        for policy in SchedulerSpec::all() {
            let report = run(&policy, 7, WorkloadMode::Open);
            assert_eq!(report.completed + report.rejected, report.jobs);
            assert_eq!(report.records.len(), report.completed);
            assert_eq!(
                report.per_qpu.iter().map(|q| q.jobs).sum::<usize>(),
                report.completed
            );
            assert!(report.makespan_seconds > 0.0);
        }
    }

    #[test]
    fn per_job_times_are_causal() {
        let report = run(&SchedulerSpec::Fifo, 3, WorkloadMode::Open);
        for r in &report.records {
            assert!(r.start >= r.arrival, "job {} started before arrival", r.job);
            assert!(r.finish > r.start);
            let service = r.stage1_seconds + r.stage2_seconds + r.stage3_seconds;
            assert!((r.service_seconds() - service).abs() < 1e-9);
        }
    }

    #[test]
    fn devices_never_overlap_jobs() {
        let report = run(
            &SchedulerSpec::ShortestPredictedFirst {
                aging_weight: DEFAULT_AGING_WEIGHT,
            },
            5,
            WorkloadMode::Open,
        );
        for qpu in 0..3 {
            let mut spans: Vec<(f64, f64)> = report
                .records
                .iter()
                .filter(|r| r.qpu == qpu)
                .map(|r| (r.start, r.finish))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in spans.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].1 - 1e-12,
                    "device {qpu} overlapped: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn stage1_dominates_at_fleet_scale() {
        // The paper's single-machine headline must survive the move to a
        // fleet: summed stage-1 service far exceeds summed stage-2.
        for policy in SchedulerSpec::all() {
            let report = run(&policy, 11, WorkloadMode::Open);
            assert!(
                report.stage1_fraction() > 0.9,
                "{}: stage-1 fraction {}",
                report.policy,
                report.stage1_fraction()
            );
            assert!(report.stage1_seconds > 100.0 * report.stage2_seconds);
        }
    }

    #[test]
    fn closed_mode_keeps_population_bounded() {
        let report = run(&SchedulerSpec::Fifo, 9, WorkloadMode::Closed { clients: 2 });
        assert_eq!(report.completed + report.rejected, report.jobs);
        // With 2 clients, at most 2 jobs are ever queued or in service, so
        // the dispatch queue never exceeds the client count.
        assert!(report.max_queue_depth() <= 2);
    }

    #[test]
    fn warm_hits_accumulate_on_repeated_topologies() {
        let report = run(&SchedulerSpec::CacheAffinity, 13, WorkloadMode::Open);
        assert!(report.warm_hits() > 0);
        // Cold embeds are bounded by topologies × devices.
        assert!(report.cold_misses() <= 4 * 3);
    }

    #[test]
    fn admission_sheds_over_the_depth_limit_and_bounds_the_queue() {
        use crate::admission::{TokenBucket, TokenBucketConfig};

        // One slow device, a flood of arrivals: without admission the queue
        // grows with the flood; with a depth limit it cannot.
        let workload = WorkloadSpec::repeated_topologies(60, 50.0, 3).generate();
        let open = simulate(
            fleet(3),
            &workload,
            SchedulerSpec::Fifo.build().as_mut(),
            SimConfig::default(),
        );
        let depth_limit = 4;
        let mut gate = TokenBucket::new(TokenBucketConfig {
            rate_hz: 100.0, // tokens never bind; only the depth limit does
            burst: 100.0,
            max_queue_depth: depth_limit,
            max_defer_seconds: 1e6,
            ..TokenBucketConfig::default()
        });
        let gated = simulate_with_admission(
            fleet(3),
            &workload,
            SchedulerSpec::Fifo.build().as_mut(),
            &mut gate,
            SimConfig::default(),
        );
        assert!(open.max_queue_depth() > depth_limit);
        assert!(gated.max_queue_depth() <= depth_limit);
        assert!(gated.shed > 0);
        assert_eq!(gated.completed + gated.rejected + gated.shed, gated.jobs);
        assert_eq!(gated.admission, "token-bucket");
        assert_eq!(gated.per_tenant[0].shed, gated.shed);
        assert_eq!(gated.per_tenant[0].max_queue_depth, depth_limit);
    }

    #[test]
    fn deferred_jobs_complete_and_pay_the_defer_in_waiting_time() {
        use crate::admission::{TokenBucket, TokenBucketConfig};

        // A tight rate budget with room to defer: jobs trickle in at the
        // bucket's pace but all complete, and the defer time lands in the
        // queueing delay because the original arrival stamp is preserved.
        let workload = WorkloadSpec::repeated_topologies(12, 100.0, 5).generate();
        let mut gate = TokenBucket::new(TokenBucketConfig {
            rate_hz: 0.5,
            burst: 1.0,
            max_queue_depth: 100,
            max_defer_seconds: 1e6,
            ..TokenBucketConfig::default()
        });
        let report = simulate_with_admission(
            fleet(3),
            &workload,
            SchedulerSpec::Fifo.build().as_mut(),
            &mut gate,
            SimConfig::default(),
        );
        assert_eq!(report.completed, 12, "nothing sheds under a pure defer");
        assert!(report.deferrals > 0);
        assert_eq!(report.per_tenant[0].deferrals, report.deferrals);
        // 12 jobs at 0.5 Hz: the last admission is ~22s after arrival, and
        // that shows up as queueing delay.
        assert!(report.wait.max > 10.0);
    }

    #[test]
    fn closed_mode_defer_bound_sheds_instead_of_spinning() {
        use crate::admission::{TokenBucket, TokenBucketConfig};

        // Regression: closed mode used to re-stamp every arrival event —
        // including deferred re-arrivals — with the current clock, so the
        // controller's `now - arrival` defer measure was always zero and
        // `max_defer_seconds` could never bind.  With a glacial refill the
        // out-of-tokens jobs must shed at their bounded re-arrival, not
        // keep deferring on a fresh stamp.
        let workload = WorkloadSpec::repeated_topologies(6, 1.0, 3).generate();
        let mut gate = TokenBucket::new(TokenBucketConfig {
            rate_hz: 0.001,
            burst: 1.0,
            max_queue_depth: 100,
            max_defer_seconds: 10.0,
            ..TokenBucketConfig::default()
        });
        let report = simulate_with_admission(
            fleet(3),
            &workload,
            SchedulerSpec::Fifo.build().as_mut(),
            &mut gate,
            SimConfig {
                mode: WorkloadMode::Closed { clients: 2 },
                ..SimConfig::default()
            },
        );
        assert!(report.shed > 0, "defer bound never bound in closed mode");
        assert_eq!(
            report.completed + report.rejected + report.shed,
            report.jobs
        );
        // Whatever was deferred was deferred at most once before shedding.
        assert!(report.deferrals <= report.shed + report.completed);
    }

    #[test]
    fn closed_mode_reanchors_deadlines_to_the_release_clock() {
        use crate::workload::DeadlinePolicy;

        // Regression: closed mode re-stamps arrivals with the release
        // clock, but deadlines used to stay pinned to the generated
        // open-mode arrivals — so late releases read as SLO misses no
        // matter how fast they were served.  The slack must be preserved
        // relative to the *release* time.
        let slack = 10.0;
        let workload = WorkloadSpec::repeated_topologies(30, 5.0, 7)
            .with_deadlines(DeadlinePolicy::FixedSlack {
                slack_seconds: slack,
            })
            .generate();
        let report = simulate(
            fleet(7),
            &workload,
            SchedulerSpec::Fifo.build().as_mut(),
            SimConfig {
                mode: WorkloadMode::Closed { clients: 2 },
                ..SimConfig::default()
            },
        );
        assert_eq!(report.completed, 30);
        for r in &report.records {
            let deadline = r.deadline.expect("every job is deadline-stamped");
            assert!(
                (deadline - r.arrival - slack).abs() < 1e-9,
                "job {}: deadline {deadline} is not arrival {} + slack {slack}",
                r.job,
                r.arrival
            );
        }
        // With a 2-client closed loop and ~seconds-long services, a
        // 10-second slack is comfortably met — under the stale anchoring
        // this run reported ~100% misses.
        assert_eq!(report.slo_misses(), 0);
        // Releases genuinely happened after the generated arrivals, so
        // the re-anchoring was exercised.
        assert!(report
            .records
            .iter()
            .any(|r| r.arrival > workload.jobs[r.job].arrival));
    }

    #[test]
    fn multi_tenant_runs_report_per_tenant_stats() {
        use crate::tenant::MultiTenantSpec;

        let workload = MultiTenantSpec::aggressor_victim(8, 0.5, 3.0, 1.0, 11).generate();
        let report = simulate(
            fleet(9),
            &workload,
            &mut WeightedFairQueue::new(),
            SimConfig::default(),
        );
        assert_eq!(report.per_tenant.len(), 2);
        let victim = report.tenant_named("victim").unwrap();
        let aggressor = report.tenant_named("aggressor").unwrap();
        assert_eq!(victim.submitted, 8);
        assert_eq!(aggressor.submitted, 24);
        assert_eq!(
            victim.completed + aggressor.completed + report.rejected,
            report.jobs
        );
        assert!(victim.latency.percentiles_ordered());
        assert!(aggressor.latency.percentiles_ordered());
        // Per-tenant service sums to the fleet total.
        let total: f64 = report.per_tenant.iter().map(|t| t.service_seconds).sum();
        let expected = report.total_service_seconds();
        assert!((total - expected).abs() < 1e-6 * expected.max(1.0));
        assert!(report.jains_fairness_index() > 0.0);
    }

    #[test]
    fn empty_workload_produces_an_empty_report() {
        let workload = Workload::single_tenant(vec![]);
        let mut scheduler = SchedulerSpec::Fifo.build();
        let report = simulate(
            fleet(1),
            &workload,
            scheduler.as_mut(),
            SimConfig::default(),
        );
        assert_eq!(report.jobs, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(report.events, 0);
        assert!(report.trace.is_empty());
    }

    #[test]
    fn telemetry_is_a_pure_observer() {
        use crate::admission::AdmitAll;
        use crate::telemetry::{MetricsRegistry, NullSink, PerfettoSink, VecSink};

        // Across seeds and policies: sink on vs sink off (and registry on
        // vs off) must yield bit-identical reports.  The trace field is the
        // one deliberate difference — VecSink retains, NullSink drops — so
        // it is normalized before comparison.
        for seed in [3, 21, 77] {
            for policy in [
                SchedulerSpec::Fifo,
                SchedulerSpec::WeightedFair {
                    weights: Vec::new(),
                    lane_order: LaneOrder::default(),
                },
            ] {
                let workload = WorkloadSpec::repeated_topologies(30, 2.0, seed).generate();
                let mut null_sink = NullSink;
                let bare = simulate_with_telemetry(
                    fleet(seed),
                    &workload,
                    policy.build().as_mut(),
                    &mut AdmitAll,
                    SimConfig::default(),
                    &mut null_sink,
                    None,
                );
                let mut vec_sink = VecSink::new();
                let mut registry = MetricsRegistry::new(1.0);
                let observed = simulate_with_telemetry(
                    fleet(seed),
                    &workload,
                    policy.build().as_mut(),
                    &mut AdmitAll,
                    SimConfig::default(),
                    &mut vec_sink,
                    Some(&mut registry),
                );
                assert_eq!(
                    bare, observed,
                    "seed {seed}: attaching telemetry changed the simulation"
                );
                let mut perfetto = PerfettoSink::new();
                let exported = simulate_with_telemetry(
                    fleet(seed),
                    &workload,
                    policy.build().as_mut(),
                    &mut AdmitAll,
                    SimConfig::default(),
                    &mut perfetto,
                    None,
                );
                assert_eq!(
                    bare, exported,
                    "seed {seed}: Perfetto sink perturbed the run"
                );
                assert!(perfetto.event_count() > 0);
                // The legacy wrapper is exactly "core + VecSink retention".
                let mut legacy = simulate(
                    fleet(seed),
                    &workload,
                    policy.build().as_mut(),
                    SimConfig::default(),
                );
                assert_eq!(legacy.trace, vec_sink.records());
                legacy.trace = Vec::new();
                assert_eq!(bare, legacy);
            }
        }
    }

    #[test]
    fn events_count_the_fired_trace_records() {
        let report = run(&SchedulerSpec::Fifo, 17, WorkloadMode::Open);
        let fired = report
            .trace
            .iter()
            .filter(|r| matches!(r, TraceRecord::Fired(_)))
            .count();
        assert!(report.events > 0);
        assert_eq!(report.events, fired);
    }

    #[test]
    fn attached_registry_samples_the_standard_instruments() {
        use crate::admission::AdmitAll;
        use crate::telemetry::{MetricsRegistry, NullSink};

        let workload = WorkloadSpec::repeated_topologies(25, 1.0, 5).generate();
        let mut sink = NullSink;
        let mut registry = MetricsRegistry::new(2.0);
        let report = simulate_with_telemetry(
            fleet(5),
            &workload,
            SchedulerSpec::CacheAffinity.build().as_mut(),
            &mut AdmitAll,
            SimConfig::default(),
            &mut sink,
            Some(&mut registry),
        );
        assert_eq!(registry.counter_value("events"), Some(report.events as u64));
        assert_eq!(
            registry.counter_value("completions"),
            Some(report.completed as u64)
        );
        let depth = registry.gauge_series("queue_depth").expect("registered");
        assert!(!depth.is_empty());
        // Samples land on exact interval multiples, in order.
        for (i, &(t, _)) in depth.iter().enumerate() {
            assert!((t - 2.0 * i as f64).abs() < 1e-9);
        }
        assert!(registry.gauge_series("qpu_utilization.q2").is_some());
        let latency = registry.histogram("latency_seconds").expect("registered");
        assert_eq!(latency.count(), report.completed as u64);
        // Sketch percentiles agree with the exact report percentiles to
        // within the sketch's documented bound (both are nearest-rank-ish
        // summaries of the same population; allow both tolerances).
        let exact_max = report.latency.max;
        assert!((latency.max() - exact_max).abs() < 1e-9);
    }
}

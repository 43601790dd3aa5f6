//! # sx-cluster — a discrete-event datacenter simulator for QUBO job streams
//!
//! The source paper models a *single* split-execution machine and finds
//! that stage-1 pre-processing (minor embedding) dominates time-to-solution.
//! This crate scales that performance model up to the ROADMAP's target
//! shape: a *stream* of QUBO jobs contending for a *fleet* of annealers,
//! served by a scheduler.  It is a deterministic discrete-event simulator
//! in the style of dslab:
//!
//! * [`event`] — a binary-heap future-event list on a virtual clock; no
//!   wall time anywhere, so runs replay bit-identically from their seeds.
//! * [`fleet`] — each simulated QPU draws its own
//!   [`chimera_graph::FaultModel`] (fault maps differ per device, so
//!   capacity and stage-1 cost differ per device), keeps a per-device warm
//!   embedding set mirroring [`split_exec::EmbeddingCache`], and shares its
//!   model's [`split_exec::CostModel`] table.  Fleets may be
//!   *heterogeneous* ([`FleetConfig::heterogeneous`]): DW2X- and
//!   Vesuvius-class devices differ in lattice size, and therefore in both
//!   embedding capacity and per-stage timing.
//! * [`cache`] — finite embedding-table capacity: each device's warm set is
//!   a bounded [`WarmCache`] behind the [`EvictionPolicy`] trait, with
//!   [`Lru`] and [`CostAware`] (evict the topology cheapest to re-embed,
//!   priced by [`split_exec::CostModel`]) shipping.  Warm hits refresh
//!   recency; capacity below the workload's topology diversity produces the
//!   hit-rate cliff the `cache-cliff` sweep maps.
//! * [`workload`] — seeded open workloads (Poisson, bursty) over real
//!   problem families from [`qubo_ising::problems`]; topology keys come
//!   from the actual QUBO → Ising reduction.  Jobs can carry completion
//!   *deadlines*, stamped by a per-spec [`DeadlinePolicy`] (fixed slack,
//!   or slack proportional to predicted service).  Specs are validated up
//!   front ([`WorkloadSpec::validate`]) so degenerate parameters surface
//!   as [`WorkloadError`]s instead of NaN arrival times or panics.
//! * [`tenant`] — multi-tenancy: every job carries a [`TenantId`], and
//!   [`MultiTenantSpec`] composes N tenants (each with its own arrival
//!   process, topology mix, fair-share weight and deadline policy) into
//!   one deterministic stream.
//! * [`admission`] — the gate between arrival and the scheduler: an
//!   [`AdmissionController`] accepts, sheds or defers each arriving job
//!   against per-tenant budgets; [`TokenBucket`] ships (rate budget, burst
//!   cap, queue-depth limit, bounded deferral, and optional
//!   deadline-infeasibility shedding: a job whose deadline is already
//!   unreachable under the engine's best-case completion estimate is shed
//!   instead of queueing doomed work).
//! * [`scheduler`] — pluggable policies behind the [`Scheduler`] trait:
//!   FIFO, shortest-predicted-job-first (the paper's analytic model as the
//!   cost oracle, via [`split_exec::CostModel`], with arrival-time aging so
//!   sustained short-job streams cannot starve large jobs),
//!   embedding-cache-affinity routing that weighs device speed against
//!   warmth on heterogeneous fleets, [`EarliestDeadlineFirst`] (global
//!   EDF, the deadline yardstick), and [`WeightedFairQueue`] —
//!   virtual-time weighted fair queueing over per-tenant lanes (EDF order
//!   inside each lane by default, [`LaneOrder`]), so a tenant within its
//!   fair share keeps its latency no matter how hard another tenant floods
//!   the fleet, while tight-deadline jobs still jump their own lane.
//!   [`SchedulerSpec`] names a policy with its knobs and builds it.
//! * [`sim`] — the engine; [`metrics`] — latency percentiles
//!   (via [`quantum_anneal::stats::percentile`]), per-stage breakdown,
//!   per-QPU utilization and cache behavior (hit rate, evictions),
//!   queue-depth and hit-rate-vs-capacity series ([`CacheCliffSeries`]),
//!   per-tenant percentiles/shed/deferral counts ([`TenantStats`]) with
//!   Jain's fairness index and max-min share, per-tenant and global
//!   SLO-miss counts, miss-rates and lateness percentiles, and export to
//!   the shared [`split_exec::BatchSummary`] report format.
//! * [`json`] — deterministic hand-rolled JSON emission ([`JsonValue`],
//!   `SimReport::to_json`) so sweeps are machine-readable without a
//!   serialization dependency, plus a real RFC 8259 parser ([`json::parse`]) used to
//!   validate every emitted document.
//! * [`telemetry`] — the observability layer (`docs/OBSERVABILITY.md`):
//!   pluggable [`TraceSink`]s (null / retained / JSONL streaming /
//!   Perfetto export) so trace retention is a policy instead of a default,
//!   a [`MetricsRegistry`] sampling queue depth, utilization, hit-rate and
//!   lane depth on the virtual clock, [`StreamingHistogram`] quantile
//!   sketches (mergeable, documented error bound) for percentiles without
//!   record retention, and a host-side stopwatch
//!   ([`telemetry::HostStopwatch`]) for the sweep runner's wall clock.
//!
//! Service times are the paper's own stage models ([`split_exec::cost`]),
//! so the simulator is the paper's performance model instantiated at fleet
//! scale — and its aggregate breakdown reproduces the headline
//! (stage 1 ≫ stage 2) for every policy.
//!
//! ```
//! use sx_cluster::prelude::*;
//! use split_exec::SplitExecConfig;
//!
//! let workload = WorkloadSpec::repeated_topologies(30, 0.05, 7).generate();
//! let fleet = Fleet::new(FleetConfig::default(), SplitExecConfig::with_seed(7));
//! let mut policy = SchedulerSpec::CacheAffinity.build();
//! let report = simulate(fleet, &workload, policy.as_mut(), SimConfig::default());
//! assert_eq!(report.completed + report.rejected, 30);
//! assert!(report.stage1_fraction() > 0.9); // the paper's headline, fleet-scale
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code reports through `Display`/`to_json`, never the terminal —
// stray prints would corrupt the machine-readable sweep output.
#![warn(clippy::print_stdout)]

pub mod admission;
pub mod cache;
pub mod event;
pub mod fleet;
pub mod job;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod scheduler;
pub mod sim;
pub mod sweep;
pub mod telemetry;
pub mod tenant;
pub mod workload;

pub use admission::{
    AdmissionContext, AdmissionController, AdmissionDecision, AdmitAll, TokenBucket,
    TokenBucketConfig,
};
pub use cache::{AdmissionPolicy, CostAware, EvictionPolicy, EvictionPolicyKind, Lru, WarmCache};
pub use event::{Event, EventKind, EventQueue};
pub use fleet::{Fleet, FleetConfig, QpuDevice};
pub use job::{Job, JobRecord};
pub use json::JsonValue;
pub use metrics::{
    jains_index, CacheCliffSeries, CachePoint, LatencyStats, QpuStats, SimReport, TenantStats,
};
pub use replay::{
    check_replay, fleet_fingerprint, parse_arrival_trace, parse_flight_record,
    render_arrival_trace, workload_digest, FlightRecord, RecordedRun, RecorderSink, ReplayCheck,
    ReplayError, ARRIVAL_SCHEMA, FLIGHT_SCHEMA,
};
pub use scheduler::{
    CacheAffinity, EarliestDeadlineFirst, Fifo, LaneOrder, Scheduler, SchedulerSpec,
    ShortestPredictedFirst, WeightedFairQueue,
};
pub use sim::{
    simulate, simulate_with_admission, simulate_with_telemetry, PercentileMode, SimConfig,
    TraceRecord, WorkloadMode,
};
pub use sweep::{
    run_cell, run_sweep, AdmissionSpec, CellResult, CellSpec, MergedAggregates, RateCalibration,
    SweepOutcome, SweepPlan,
};
pub use telemetry::{
    FanoutSink, HostStopwatch, JsonlSink, MetricsRegistry, NullSink, PerfettoSink, SimSeries,
    StreamingHistogram, TraceSink, VecSink,
};
pub use tenant::{MultiTenantSpec, TenantId, TenantMeta, TenantSpec};
pub use workload::{
    ArrivalProcess, DeadlinePolicy, FamilySpec, Workload, WorkloadError, WorkloadSpec,
};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::admission::{
        AdmissionContext, AdmissionController, AdmissionDecision, AdmitAll, TokenBucket,
        TokenBucketConfig,
    };
    pub use crate::cache::{
        AdmissionPolicy, CostAware, EvictionPolicy, EvictionPolicyKind, Lru, WarmCache,
    };
    pub use crate::event::{Event, EventKind, EventQueue};
    pub use crate::fleet::{Fleet, FleetConfig, QpuDevice};
    pub use crate::job::{Job, JobRecord};
    pub use crate::json::JsonValue;
    pub use crate::metrics::{
        jains_index, CacheCliffSeries, CachePoint, LatencyStats, QpuStats, SimReport, TenantStats,
    };
    pub use crate::replay::{
        check_replay, fleet_fingerprint, parse_arrival_trace, parse_flight_record,
        render_arrival_trace, workload_digest, FlightRecord, RecordedRun, RecorderSink,
        ReplayCheck, ReplayError, ARRIVAL_SCHEMA, FLIGHT_SCHEMA,
    };
    pub use crate::scheduler::{
        CacheAffinity, EarliestDeadlineFirst, Fifo, LaneOrder, Scheduler, SchedulerSpec,
        ShortestPredictedFirst, WeightedFairQueue,
    };
    pub use crate::sim::{
        simulate, simulate_with_admission, simulate_with_telemetry, PercentileMode, SimConfig,
        TraceRecord, WorkloadMode,
    };
    pub use crate::sweep::{
        run_cell, run_sweep, AdmissionSpec, CellResult, CellSpec, MergedAggregates,
        RateCalibration, SweepOutcome, SweepPlan,
    };
    pub use crate::telemetry::{
        FanoutSink, HostStopwatch, JsonlSink, MetricsRegistry, NullSink, PerfettoSink, SimSeries,
        StreamingHistogram, TraceSink, VecSink,
    };
    pub use crate::tenant::{MultiTenantSpec, TenantId, TenantMeta, TenantSpec};
    pub use crate::workload::{
        ArrivalProcess, DeadlinePolicy, FamilySpec, Workload, WorkloadError, WorkloadSpec,
    };
}

#[cfg(test)]
mod determinism_tests {
    //! The subsystem's core guarantee: a run is a pure function of its
    //! seeds.  Same seed + workload ⇒ bit-identical event trace and
    //! metrics.

    use crate::prelude::*;
    use split_exec::SplitExecConfig;

    fn run(policy: &SchedulerSpec, seed: u64) -> SimReport {
        // Rate ~1 job/s against ~1–4 s services keeps several devices busy,
        // so policies genuinely differ (at negligible load every policy
        // collapses onto device 0).
        let workload = WorkloadSpec::repeated_topologies(35, 1.0, seed).generate();
        let fleet = Fleet::new(
            FleetConfig {
                qpus: 3,
                seed,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(seed),
        );
        let mut scheduler = policy.build();
        simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default())
    }

    #[test]
    fn same_seed_gives_bit_identical_trace_and_metrics() {
        for policy in SchedulerSpec::all() {
            let a = run(&policy, 17);
            let b = run(&policy, 17);
            // PartialEq over the full report covers the trace, every f64
            // metric and every per-job record; equality of f64s produced by
            // the same deterministic computation is bit-identity.
            assert_eq!(a, b, "policy {policy} diverged across identical runs");
            for (ta, tb) in a.trace.iter().zip(&b.trace) {
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&SchedulerSpec::Fifo, 1);
        let b = run(&SchedulerSpec::Fifo, 2);
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn bounded_caches_keep_runs_bit_identical() {
        // Eviction is part of the deterministic state machine: with finite
        // capacity under either policy, same seed ⇒ same trace.
        for eviction in EvictionPolicyKind::all() {
            let run = |seed: u64| {
                let workload = WorkloadSpec::repeated_topologies(35, 1.0, seed).generate();
                let fleet = Fleet::new(
                    FleetConfig {
                        qpus: 3,
                        seed,
                        ..FleetConfig::default()
                    }
                    .with_cache(1, eviction),
                    SplitExecConfig::with_seed(seed),
                );
                // FIFO routes by queue position alone, so every device sees
                // every topology: at capacity 1 the bound must bind.
                let mut scheduler = SchedulerSpec::Fifo.build();
                simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default())
            };
            let a = run(29);
            let b = run(29);
            assert_eq!(a, b, "{eviction} eviction broke determinism");
            assert!(a.evictions() > 0, "{eviction}: no evictions at capacity 1");
            for qpu in &a.per_qpu {
                assert!(qpu.warm_topologies <= 1);
            }
        }
    }

    #[test]
    fn multi_tenant_runs_replay_bit_identically() {
        // The tentpole's determinism claim: tenancy, WFQ virtual time and
        // token-bucket admission are all part of the deterministic state
        // machine — same seed ⇒ bit-identical report, trace included.
        let run = |seed: u64| {
            let workload = MultiTenantSpec::aggressor_victim(10, 0.6, 5.0, 2.0, seed).generate();
            let fleet = Fleet::new(
                FleetConfig {
                    qpus: 3,
                    seed,
                    ..FleetConfig::default()
                },
                SplitExecConfig::with_seed(seed),
            );
            let mut scheduler = WeightedFairQueue::for_workload(&workload);
            let mut admission = TokenBucket::new(TokenBucketConfig {
                rate_hz: 2.0,
                burst: 3.0,
                max_queue_depth: 8,
                max_defer_seconds: 50.0,
                ..TokenBucketConfig::default()
            });
            simulate_with_admission(
                fleet,
                &workload,
                &mut scheduler,
                &mut admission,
                SimConfig::default(),
            )
        };
        let a = run(31);
        let b = run(31);
        assert_eq!(a, b, "multi-tenant run diverged across identical seeds");
        assert_ne!(a.trace, run(32).trace);
        // The scenario actually exercises the new machinery.
        assert_eq!(a.per_tenant.len(), 2);
        assert_eq!(a.admission, "token-bucket");
    }

    #[test]
    fn deadline_streams_replay_bit_identically() {
        // The PR 5 determinism claim: deadline stamping, EDF lane order,
        // the engine's best-case completion estimate and infeasibility
        // shedding are all part of the deterministic state machine.
        let run = |seed: u64| {
            let workload = MultiTenantSpec::aggressor_victim(12, 0.8, 4.0, 1.0, seed)
                .with_uniform_deadlines(DeadlinePolicy::ProportionalSlack { factor: 3.0 })
                .generate();
            let fleet = Fleet::new(
                FleetConfig {
                    qpus: 3,
                    seed,
                    ..FleetConfig::default()
                },
                SplitExecConfig::with_seed(seed),
            );
            let mut scheduler = WeightedFairQueue::for_workload(&workload);
            let mut admission = TokenBucket::new(TokenBucketConfig {
                shed_infeasible: true,
                ..TokenBucketConfig::default()
            });
            simulate_with_admission(
                fleet,
                &workload,
                &mut scheduler,
                &mut admission,
                SimConfig::default(),
            )
        };
        let a = run(41);
        assert_eq!(a, run(41), "deadline run diverged across identical seeds");
        assert_ne!(a.trace, run(42).trace);
        // The run exercises the new machinery: every completed job carries
        // a deadline and the lateness summary is populated.
        assert_eq!(a.slo_jobs(), a.completed);
        assert!(a.lateness.percentiles_ordered());
    }

    #[test]
    fn affinity_beats_fifo_on_repeated_topologies() {
        // The acceptance demo in miniature: on a repeated-topology mix the
        // cache-affinity policy completes the same workload with lower mean
        // latency than FIFO, because it pays ~one cold embed per topology
        // instead of ~one per (topology, device) pair.
        let fifo = run(&SchedulerSpec::Fifo, 23);
        let affinity = run(&SchedulerSpec::CacheAffinity, 23);
        assert_eq!(fifo.jobs, affinity.jobs);
        assert!(affinity.cold_misses() < fifo.cold_misses());
        assert!(
            affinity.latency.mean < fifo.latency.mean,
            "affinity mean {} !< fifo mean {}",
            affinity.latency.mean,
            fifo.latency.mean
        );
    }
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use split_exec::SplitExecConfig;

    fn run_fifo(seed: u64, jobs: usize, qpus: usize) -> SimReport {
        let workload = WorkloadSpec::repeated_topologies(jobs, 0.05, seed).generate();
        let fleet = Fleet::new(
            FleetConfig {
                qpus,
                seed,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(seed),
        );
        let mut scheduler = SchedulerSpec::Fifo.build();
        simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// FIFO never reorders jobs that land on the same QPU: for every
        /// device, the service-start order equals the arrival order of the
        /// jobs it served.  (FIFO is globally order-preserving, so the
        /// per-device projection must be too.)
        #[test]
        fn fifo_never_reorders_same_qpu_jobs(seed in 0u64..500, jobs in 5usize..25, qpus in 1usize..4) {
            let report = run_fifo(seed, jobs, qpus);
            for qpu in 0..qpus {
                let mut served: Vec<JobRecord> = report
                    .records
                    .iter()
                    .filter(|r| r.qpu == qpu)
                    .copied()
                    .collect();
                served.sort_by(|a, b| a.start.total_cmp(&b.start));
                for pair in served.windows(2) {
                    prop_assert!(
                        pair[0].arrival <= pair[1].arrival,
                        "device {} served job {} (arrived {}) before job {} (arrived {})",
                        qpu, pair[1].job, pair[1].arrival, pair[0].job, pair[0].arrival
                    );
                    // Start order also respects submission ids.
                    prop_assert!(pair[0].job < pair[1].job);
                }
            }
        }

        /// The tentpole's safety bound, end to end: under any seed, policy
        /// and capacity, no device's warm set ever exceeds its capacity,
        /// and bounded runs stay conserved.
        #[test]
        fn warm_sets_respect_capacity_under_any_dispatch_sequence(
            seed in 0u64..300,
            capacity in 0usize..4,
            cost_aware in 0u8..2,
        ) {
            let eviction = if cost_aware == 1 {
                EvictionPolicyKind::CostAware
            } else {
                EvictionPolicyKind::Lru
            };
            for policy in SchedulerSpec::all() {
                let workload = WorkloadSpec::repeated_topologies(20, 1.0, seed).generate();
                let fleet = Fleet::new(
                    FleetConfig { qpus: 2, seed, ..FleetConfig::default() }
                        .with_cache(capacity, eviction),
                    SplitExecConfig::with_seed(seed),
                );
                let mut scheduler = policy.build();
                let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
                prop_assert_eq!(report.completed + report.rejected, report.jobs);
                for qpu in &report.per_qpu {
                    prop_assert!(
                        qpu.warm_topologies <= capacity,
                        "device {} holds {} topologies with capacity {}",
                        qpu.qpu, qpu.warm_topologies, capacity
                    );
                }
            }
        }

        /// Conservation: every job completes or is rejected, exactly once,
        /// under every policy.
        #[test]
        fn jobs_are_conserved(seed in 0u64..200) {
            for policy in SchedulerSpec::all() {
                let workload = WorkloadSpec::mixed(12, 0.1, seed).generate();
                let fleet = Fleet::new(
                    FleetConfig { qpus: 2, seed, ..FleetConfig::default() },
                    SplitExecConfig::with_seed(seed),
                );
                let mut scheduler = policy.build();
                let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
                prop_assert_eq!(report.completed + report.rejected, report.jobs);
                prop_assert_eq!(report.records.len(), report.completed);
            }
        }

        /// The WFQ liveness guarantee: under any seed, arrival asymmetry
        /// and weight skew, every admitted job of every positive-weight
        /// tenant eventually dispatches — the aggressor cannot starve the
        /// victim's lane out of existence.
        #[test]
        fn wfq_never_starves_a_positive_weight_tenant(
            seed in 0u64..100,
            asymmetry in 2u8..12,
            victim_weight_tenths in 1u32..40,
        ) {
            let workload = MultiTenantSpec::aggressor_victim(
                6,
                0.8,
                asymmetry as f64,
                victim_weight_tenths as f64 / 10.0,
                seed,
            )
            .generate();
            let fleet = Fleet::new(
                FleetConfig { qpus: 2, seed, ..FleetConfig::default() },
                SplitExecConfig::with_seed(seed),
            );
            let mut scheduler = WeightedFairQueue::for_workload(&workload);
            let report = simulate(fleet, &workload, &mut scheduler, SimConfig::default());
            // No admission gate and feasible sizes: everything completes.
            prop_assert_eq!(report.rejected, 0);
            prop_assert_eq!(report.completed, report.jobs);
            for tenant in &report.per_tenant {
                prop_assert_eq!(
                    tenant.completed, tenant.submitted,
                    "tenant {} finished {}/{} jobs (weight {})",
                    tenant.name, tenant.completed, tenant.submitted, tenant.weight
                );
            }
        }

        /// Per-tenant percentile invariants: on every simulated run, each
        /// tenant's latency and wait summaries satisfy
        /// `min ≤ p50 ≤ p95 ≤ p99 ≤ max`.
        #[test]
        fn per_tenant_percentiles_are_ordered(seed in 0u64..150, asymmetry in 1u8..8) {
            let workload = MultiTenantSpec::aggressor_victim(
                5,
                0.7,
                asymmetry as f64,
                1.0,
                seed,
            )
            .generate();
            let wfq = SchedulerSpec::WeightedFair {
                weights: Vec::new(),
                lane_order: LaneOrder::default(),
            };
            for policy in [SchedulerSpec::Fifo, wfq] {
                let fleet = Fleet::new(
                    FleetConfig { qpus: 2, seed, ..FleetConfig::default() },
                    SplitExecConfig::with_seed(seed),
                );
                let mut scheduler = policy.build();
                let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
                prop_assert!(report.latency.percentiles_ordered());
                prop_assert!(report.wait.percentiles_ordered());
                for tenant in &report.per_tenant {
                    prop_assert!(
                        tenant.latency.percentiles_ordered(),
                        "tenant {} latency percentiles disordered: {:?}",
                        tenant.name, tenant.latency
                    );
                    prop_assert!(
                        tenant.wait.percentiles_ordered(),
                        "tenant {} wait percentiles disordered: {:?}",
                        tenant.name, tenant.wait
                    );
                }
            }
        }
    }
}

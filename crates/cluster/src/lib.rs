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
//! * [`fleet`] — each simulated QPU draws its own dead qubits, the qubit
//!   half of a [`chimera_graph::FaultModel`] (fault draws differ per
//!   device, so capacity and stage-1 cost differ per device), keeps a per-device warm
//!   embedding set mirroring [`split_exec::EmbeddingCache`], and shares its
//!   model's [`split_exec::CostModel`] table.  Fleets may be
//!   *heterogeneous* ([`FleetConfig::heterogeneous`]): DW2X- and
//!   Vesuvius-class devices differ in lattice size, and therefore in both
//!   embedding capacity and per-stage timing.
//! * [`cache`] — finite embedding-table capacity: each device's warm set is
//!   a bounded [`WarmCache`] whose [`EvictionPolicyKind`] picks the victim:
//!   LRU, or cost-aware (evict the topology cheapest to re-embed, priced by
//!   [`split_exec::CostModel`]).  Warm hits refresh
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
//! * [`sim`] — the engine; [`sweep`] — [`CellSpec`], the one description
//!   of a run, and [`run_cell`], the one entry point every run goes
//!   through; [`metrics`] — latency percentiles
//!   (via [`quantum_anneal::stats::percentile`]), per-stage breakdown,
//!   per-QPU utilization and cache behavior (hit rate, evictions),
//!   queue depth,
//!   per-tenant percentiles/shed/deferral counts ([`TenantStats`]) with
//!   Jain's fairness index and max-min share, per-tenant and global
//!   SLO-miss counts, miss-rates and lateness percentiles, and export to
//!   the shared [`split_exec::BatchSummary`] report format.
//! * [`json`] — deterministic hand-rolled JSON emission ([`JsonValue`],
//!   `SimReport::to_json`) so sweeps are machine-readable without a
//!   serialization dependency, plus a real RFC 8259 parser ([`json::parse`])
//!   that reads flight records back and round-trips every emitted document
//!   in the tests.
//! * [`telemetry`] — the observability layer (`docs/OBSERVABILITY.md`):
//!   pluggable [`TraceSink`]s (null / retained / JSONL streaming /
//!   Perfetto export) so trace retention is a policy instead of a default,
//!   a [`MetricsRegistry`] sampling queue depth, utilization, hit-rate and
//!   lane depth on the virtual clock, [`StreamingHistogram`] quantile
//!   sketches (mergeable, documented error bound) for percentiles without
//!   record retention.  No module reads a wall clock.
//!
//! Service times are the paper's own stage models ([`split_exec::cost`]),
//! so the simulator is the paper's performance model instantiated at fleet
//! scale — and its aggregate breakdown reproduces the headline
//! (stage 1 ≫ stage 2) for every policy.
//!
//! ```
//! use std::sync::Arc;
//! use sx_cluster::prelude::*;
//!
//! let cell = CellSpec {
//!     label: "affinity".to_string(),
//!     fleet: FleetConfig {
//!         seed: 7,
//!         ..FleetConfig::default()
//!     },
//!     scheduler: SchedulerSpec::CacheAffinity,
//!     admission: AdmissionSpec::AdmitAll,
//!     config: SimConfig::default(),
//!     workload: Arc::new(WorkloadSpec::repeated_topologies(30, 0.05, 7).generate()),
//! };
//! let report = run_cell(0, &cell, &mut NullSink).report;
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

pub use prelude::*;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::admission::{
        AdmissionContext, AdmissionController, AdmissionDecision, AdmitAll, TokenBucket,
        TokenBucketConfig,
    };
    pub use crate::cache::{AdmissionPolicy, EvictionPolicyKind, WarmCache};
    pub use crate::event::{Event, EventKind, EventQueue};
    pub use crate::fleet::{Fleet, FleetConfig, QpuDevice};
    pub use crate::job::{Job, JobRecord};
    pub use crate::json::JsonValue;
    pub use crate::metrics::{jains_index, LatencyStats, QpuStats, SimReport, TenantStats};
    pub use crate::replay::{
        check_replay, fleet_fingerprint, parse_flight_record, workload_digest, FlightRecord,
        RecordedRun, RecorderSink, ReplayCheck, ReplayError, FLIGHT_SCHEMA,
    };
    pub use crate::scheduler::{
        CacheAffinity, EarliestDeadlineFirst, Fifo, LaneOrder, Scheduler, SchedulerSpec,
        ShortestPredictedFirst, WeightedFairQueue,
    };
    pub use crate::sim::{
        simulate_with_telemetry, PercentileMode, SimConfig, TraceRecord, WorkloadMode,
    };
    pub use crate::sweep::{
        run_cell, AdmissionSpec, CellResult, CellSpec, MergedAggregates, RateCalibration, SweepPlan,
    };
    pub use crate::telemetry::{
        FanoutSink, MetricsRegistry, NullSink, PerfettoSink, SimSeries, StreamingHistogram,
        TraceSink, VecSink,
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
    use std::sync::Arc;

    /// A cell on `fleet` (seeded by the fleet's own seed), admitting every
    /// arrival in open mode.
    pub(super) fn cell(
        fleet: FleetConfig,
        scheduler: SchedulerSpec,
        workload: Workload,
    ) -> CellSpec {
        CellSpec {
            label: scheduler.name().to_string(),
            fleet,
            scheduler,
            admission: AdmissionSpec::AdmitAll,
            config: SimConfig::default(),
            workload: Arc::new(workload),
        }
    }

    pub(super) fn fleet(qpus: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            qpus,
            seed,
            ..FleetConfig::default()
        }
    }

    /// The cell's report and its full event trace.
    fn traced(spec: &CellSpec) -> (SimReport, Vec<TraceRecord>) {
        let mut sink = VecSink::new();
        let report = run_cell(0, spec, &mut sink).report;
        (report, sink.into_trace())
    }

    /// Weighted fair queueing with the workload's own tenant weights.
    fn wfq(workload: &Workload) -> SchedulerSpec {
        SchedulerSpec::WeightedFair {
            weights: workload.weights(),
            lane_order: LaneOrder::default(),
        }
    }

    fn run(policy: &SchedulerSpec, seed: u64) -> (SimReport, Vec<TraceRecord>) {
        // Rate ~1 job/s against ~1–4 s services keeps several devices busy,
        // so policies genuinely differ (at negligible load every policy
        // collapses onto device 0).
        let workload = WorkloadSpec::repeated_topologies(35, 1.0, seed).generate();
        traced(&cell(fleet(3, seed), policy.clone(), workload))
    }

    #[test]
    fn same_seed_gives_bit_identical_trace_and_metrics() {
        for policy in SchedulerSpec::all() {
            // PartialEq over the full report and trace covers every f64
            // metric, every per-job record and every trace record;
            // equality of f64s produced by the same deterministic
            // computation is bit-identity.
            assert_eq!(
                run(&policy, 17),
                run(&policy, 17),
                "policy {policy} diverged across identical runs"
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let (_, a) = run(&SchedulerSpec::Fifo, 1);
        let (_, b) = run(&SchedulerSpec::Fifo, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn bounded_caches_keep_runs_bit_identical() {
        // Eviction is part of the deterministic state machine: with finite
        // capacity under either policy, same seed ⇒ same trace.
        for eviction in EvictionPolicyKind::all() {
            let run = |seed: u64| {
                let workload = WorkloadSpec::repeated_topologies(35, 1.0, seed).generate();
                // FIFO routes by queue position alone, so every device sees
                // every topology: at capacity 1 the bound must bind.
                let fleet = fleet(3, seed).with_cache(1, eviction);
                traced(&cell(fleet, SchedulerSpec::Fifo, workload))
            };
            let a = run(29);
            assert_eq!(a, run(29), "{eviction} eviction broke determinism");
            let (a, _) = a;
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
            traced(&CellSpec {
                admission: AdmissionSpec::TokenBucket {
                    default: TokenBucketConfig {
                        rate_hz: 2.0,
                        burst: 3.0,
                        max_queue_depth: 8,
                        max_defer_seconds: 50.0,
                        ..TokenBucketConfig::default()
                    },
                    per_tenant: Vec::new(),
                },
                ..cell(fleet(3, seed), wfq(&workload), workload)
            })
        };
        let a = run(31);
        assert_eq!(
            a,
            run(31),
            "multi-tenant run diverged across identical seeds"
        );
        assert_ne!(a.1, run(32).1);
        // The scenario actually exercises the new machinery.
        assert_eq!(a.0.per_tenant.len(), 2);
        assert_eq!(a.0.admission, "token-bucket");
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
            traced(&CellSpec {
                admission: AdmissionSpec::TokenBucket {
                    default: TokenBucketConfig {
                        shed_infeasible: true,
                        ..TokenBucketConfig::default()
                    },
                    per_tenant: Vec::new(),
                },
                ..cell(fleet(3, seed), wfq(&workload), workload)
            })
        };
        let a = run(41);
        assert_eq!(a, run(41), "deadline run diverged across identical seeds");
        assert_ne!(a.1, run(42).1);
        // The run exercises the new machinery: every completed job carries
        // a deadline and the lateness summary is populated.
        let (a, _) = a;
        assert_eq!(a.slo_jobs(), a.completed);
        assert!(a.lateness.percentiles_ordered());
    }

    #[test]
    fn affinity_beats_fifo_on_repeated_topologies() {
        // The acceptance demo in miniature: on a repeated-topology mix the
        // cache-affinity policy completes the same workload with lower mean
        // latency than FIFO, because it pays ~one cold embed per topology
        // instead of ~one per (topology, device) pair.
        let (fifo, _) = run(&SchedulerSpec::Fifo, 23);
        let (affinity, _) = run(&SchedulerSpec::CacheAffinity, 23);
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
    use super::determinism_tests::{cell, fleet};
    use crate::prelude::*;
    use proptest::prelude::*;

    fn report(spec: &CellSpec) -> SimReport {
        run_cell(0, spec, &mut NullSink).report
    }

    fn run_fifo(seed: u64, jobs: usize, qpus: usize) -> SimReport {
        let workload = WorkloadSpec::repeated_topologies(jobs, 0.05, seed).generate();
        report(&cell(fleet(qpus, seed), SchedulerSpec::Fifo, workload))
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
                let fleet = fleet(2, seed).with_cache(capacity, eviction);
                let report = report(&cell(fleet, policy, workload));
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
                let report = report(&cell(fleet(2, seed), policy, workload));
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
            let wfq = SchedulerSpec::WeightedFair {
                weights: workload.weights(),
                lane_order: LaneOrder::default(),
            };
            let report = report(&cell(fleet(2, seed), wfq, workload));
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
                let report = report(&cell(fleet(2, seed), policy, workload.clone()));
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

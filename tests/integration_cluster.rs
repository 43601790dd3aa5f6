//! Workspace-level integration tests for the `sx_cluster` datacenter
//! simulator: the acceptance criteria of the subsystem, exercised through
//! the public APIs of `sx_cluster`, `split_exec` and `quantum_anneal`
//! together.

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

fn fleet(qpus: usize, seed: u64) -> Fleet {
    Fleet::new(
        FleetConfig {
            qpus,
            seed,
            ..FleetConfig::default()
        },
        SplitExecConfig::with_seed(seed),
    )
}

fn run(policy: &SchedulerSpec, workload: &Workload, qpus: usize, seed: u64) -> SimReport {
    let mut scheduler = policy.build();
    simulate(
        fleet(qpus, seed),
        workload,
        scheduler.as_mut(),
        SimConfig::default(),
    )
}

/// The headline acceptance demo: on a seeded repeated-topology mix,
/// embedding-cache-affinity scheduling beats FIFO on mean latency, because
/// it pays roughly one cold embedding per topology instead of one per
/// (topology, device) pair.
#[test]
fn affinity_beats_fifo_on_the_seeded_repeated_mix() {
    let workload = WorkloadSpec::repeated_topologies(60, 1.0, 7).generate();
    let fifo = run(&SchedulerSpec::Fifo, &workload, 4, 7);
    let affinity = run(&SchedulerSpec::CacheAffinity, &workload, 4, 7);

    assert_eq!(fifo.completed, 60);
    assert_eq!(affinity.completed, 60);
    assert!(
        affinity.latency.mean < fifo.latency.mean,
        "affinity mean {:.3}s !< fifo mean {:.3}s",
        affinity.latency.mean,
        fifo.latency.mean
    );
    assert!(affinity.cold_misses() < fifo.cold_misses());
    // Affinity never needs more cold embeds than there are topologies —
    // FIFO re-embeds the same topology on several devices.
    assert!(affinity.cold_misses() <= workload.distinct_topologies() + 1);
}

/// The paper's single-machine headline — stage 1 dominates — survives the
/// move to fleet scale under every policy.
#[test]
fn fleet_scale_breakdown_reproduces_stage1_dominance() {
    let workload = WorkloadSpec::mixed(40, 0.8, 3).generate();
    for policy in SchedulerSpec::all() {
        let report = run(&policy, &workload, 3, 3);
        assert!(report.completed > 0);
        assert!(
            report.stage1_fraction() > 0.9,
            "{}: stage-1 fraction {:.3}",
            report.policy,
            report.stage1_fraction()
        );
        assert!(report.stage1_seconds > 100.0 * report.stage2_seconds);
        assert!(report.stage1_seconds > 100.0 * report.stage3_seconds);
    }
}

/// Same seed + workload ⇒ bit-identical trace and metrics, across the
/// workspace boundary (fleet fault maps, analytic cost oracle and workload
/// generation all resolve from the seed).
#[test]
fn simulation_is_deterministic_end_to_end() {
    let spec = WorkloadSpec::bursty(50, 1.2, 5, 19);
    for policy in SchedulerSpec::all() {
        let a = run(&policy, &spec.generate(), 4, 19);
        let b = run(&policy, &spec.generate(), 4, 19);
        assert_eq!(a, b, "policy {policy} is not deterministic");
    }
}

/// The simulator's report exports to the same `BatchSummary` shape the
/// batch pipeline produces, so downstream consumers need one format.
#[test]
fn cluster_and_batch_reports_share_one_summary_format() {
    use chimera_graph::generators;
    use qubo_ising::prelude::MaxCut;
    use split_exec::{BatchSummary, Pipeline, SplitMachine};

    // A real batch run through the pipeline...
    let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::with_seed(5));
    let jobs = vec![
        MaxCut::unweighted(generators::cycle(8)).to_qubo(),
        MaxCut::unweighted(generators::cycle(8)).to_qubo(),
    ];
    let batch: BatchSummary = pipeline.execute_batch_report(&jobs).summary();

    // ...and a simulated cluster run produce the same struct.
    let workload = WorkloadSpec::repeated_topologies(10, 1.0, 5).generate();
    let cluster: BatchSummary = run(&SchedulerSpec::CacheAffinity, &workload, 2, 5).batch_summary();

    for summary in [batch, cluster] {
        assert_eq!(summary.succeeded + summary.failed, summary.jobs);
        assert!(summary.stage1_fraction > 0.5);
        // The shared Display renders both.
        assert!(format!("{summary}").contains("jobs:"));
    }
}

/// Jobs too large for every device in the fleet are rejected, not lost.
#[test]
fn oversized_jobs_are_rejected_cleanly() {
    let workload = Workload::single_tenant(vec![
        Job {
            id: 0,
            tenant: TenantId::DEFAULT,
            family: "too-big".into(),
            lps: 500,
            topology_key: 1,
            arrival: 0.0,
            deadline: None,
        },
        Job {
            id: 1,
            tenant: TenantId::DEFAULT,
            family: "fits".into(),
            lps: 20,
            topology_key: 2,
            arrival: 1.0,
            deadline: None,
        },
    ]);
    let report = run(&SchedulerSpec::Fifo, &workload, 2, 1);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.records[0].job, 1);
}

/// The cache-cliff acceptance claim, exercised through the public API: as
/// per-device capacity falls below the workload's topology diversity, the
/// hit rate drops monotonically — and cost-aware eviction matches or beats
/// LRU on mean latency at the cliff.
#[test]
fn bounded_caches_exhibit_the_hit_rate_cliff() {
    let spec = WorkloadSpec {
        jobs: 90,
        seed: 11,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
        mix: vec![(
            1.0,
            FamilySpec::MaxCutCycle {
                sizes: vec![8, 17, 26, 36],
            },
        )],
        deadlines: DeadlinePolicy::None,
    };
    let workload = spec.try_generate().expect("valid spec");
    let diversity = workload.distinct_topologies();
    assert_eq!(diversity, 4);

    let mut series = CacheCliffSeries {
        distinct_topologies: diversity,
        ..CacheCliffSeries::default()
    };
    for eviction in EvictionPolicyKind::all() {
        for capacity in [1usize, 2, 4] {
            let fleet = Fleet::new(
                FleetConfig {
                    qpus: 3,
                    seed: 11,
                    ..FleetConfig::default()
                }
                .with_cache(capacity, eviction),
                SplitExecConfig::with_seed(11),
            );
            let mut scheduler = SchedulerSpec::Fifo.build();
            let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
            series
                .points
                .push(CachePoint::from_report(capacity, eviction.name(), &report));
        }
    }

    for eviction in EvictionPolicyKind::all() {
        let name = eviction.name();
        assert!(
            series.hit_rate_monotone(name, 0.02),
            "{name} hit rate not monotone in capacity: {series}"
        );
        let points = series.policy_points(name);
        assert!(
            points.last().unwrap().hit_rate > points.first().unwrap().hit_rate + 0.1,
            "{name} shows no cliff: {series}"
        );
        // Below diversity, the bound binds: evictions happen.
        assert!(points.first().unwrap().evictions > 0);
        // At full diversity nothing needs evicting.
        assert_eq!(points.last().unwrap().evictions, 0);
    }

    let mean_at = |name: &str, cap: usize| {
        series
            .policy_points(name)
            .iter()
            .find(|p| p.capacity == cap)
            .unwrap()
            .mean_latency_seconds
    };
    // Cost-aware must not lose to LRU at the cliff.
    assert!(
        mean_at("cost-aware", 2) <= mean_at("lru", 2) * 1.001,
        "cost-aware lost to LRU at the cliff: {series}"
    );
}

/// A heterogeneous fleet (DW2X + Vesuvius) serves the stream: the policies
/// weigh device speed against warmth, every job is accounted for, and runs
/// stay deterministic.
#[test]
fn heterogeneous_fleet_completes_and_replays_deterministically() {
    let workload = WorkloadSpec::repeated_topologies(40, 1.0, 13).generate();
    for policy in SchedulerSpec::all() {
        let run = || {
            let fleet = Fleet::new(
                FleetConfig::heterogeneous(4, 13),
                SplitExecConfig::with_seed(13),
            );
            let mut scheduler = policy.build();
            simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default())
        };
        let report = run();
        assert_eq!(report.completed + report.rejected, 40);
        assert!(report.completed > 0);
        // Work spreads beyond a single device (affinity may legitimately
        // concentrate a few topologies on a few devices, but not on one).
        let active = report.per_qpu.iter().filter(|q| q.jobs > 0).count();
        assert!(active >= 2, "{policy}: only {active} device(s) served work");
        assert_eq!(report, run(), "policy {policy} diverged on a hetero fleet");
    }
}

/// Invalid workload specs surface as typed errors through the public API
/// instead of panicking mid-generation.
#[test]
fn invalid_workload_specs_are_rejected_with_errors() {
    let bad_burst = WorkloadSpec {
        jobs: 5,
        seed: 0,
        arrivals: ArrivalProcess::Bursty {
            rate_hz: 1.0,
            burst: 0,
        },
        mix: vec![(1.0, FamilySpec::Partition { n: 8 })],
        deadlines: DeadlinePolicy::None,
    };
    assert_eq!(
        bad_burst.try_generate().unwrap_err(),
        WorkloadError::ZeroBurst
    );

    let bad_family = WorkloadSpec {
        jobs: 5,
        seed: 0,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
        mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes: vec![] })],
        deadlines: DeadlinePolicy::None,
    };
    assert!(matches!(
        bad_family.try_generate().unwrap_err(),
        WorkloadError::DegenerateFamily { .. }
    ));
}

/// The multi-tenant fairness acceptance claim in miniature: under a 10:1
/// aggressor/victim arrival skew, weighted fair queueing keeps the victim's
/// p99 within a constant factor of its isolated-run p99, while FIFO lets
/// the aggressor's backlog inflate it far further.
#[test]
fn wfq_bounds_the_victim_p99_under_an_aggressor() {
    let seed = 7;
    let spec = MultiTenantSpec::aggressor_victim(15, 0.4, 10.0, 1.0, seed);
    let workload = spec.generate();

    // The victim alone on the same fleet: its no-contention baseline.
    let isolated_spec = MultiTenantSpec {
        tenants: vec![spec.tenants[0].clone()],
        ..spec.clone()
    };
    let isolated_workload = isolated_spec.generate();
    let isolated = run(&SchedulerSpec::Fifo, &isolated_workload, 3, seed);
    let isolated_p99 = isolated.latency.p99;
    assert!(isolated_p99 > 0.0);

    let fifo = run(&SchedulerSpec::Fifo, &workload, 3, seed);
    let mut wfq_policy = WeightedFairQueue::for_workload(&workload);
    let wfq = simulate(
        fleet(3, seed),
        &workload,
        &mut wfq_policy,
        SimConfig::default(),
    );

    let fifo_victim = fifo.tenant_named("victim").unwrap().latency.p99;
    let wfq_victim = wfq.tenant_named("victim").unwrap().latency.p99;
    assert!(
        wfq_victim <= 8.0 * isolated_p99,
        "WFQ victim p99 {wfq_victim:.2}s blew past the isolated baseline {isolated_p99:.2}s"
    );
    assert!(
        fifo_victim > 2.0 * wfq_victim,
        "FIFO victim p99 {fifo_victim:.2}s should be far above WFQ's {wfq_victim:.2}s"
    );
}

/// Token-bucket admission bounds the queue depth an aggressor can build,
/// sheds only the aggressor's excess, and leaves the victim untouched.
#[test]
fn token_bucket_sheds_the_aggressor_not_the_victim() {
    let seed = 3;
    let workload = MultiTenantSpec::aggressor_victim(12, 0.4, 10.0, 1.0, seed).generate();

    let open = {
        let mut policy = WeightedFairQueue::for_workload(&workload);
        simulate(fleet(3, seed), &workload, &mut policy, SimConfig::default())
    };

    let depth_limit = 5;
    let mut gate = TokenBucket::new(TokenBucketConfig {
        rate_hz: 100.0,
        burst: 100.0,
        max_queue_depth: usize::MAX,
        max_defer_seconds: 1e6,
        ..TokenBucketConfig::default()
    })
    .with_tenant_budget(
        TenantId(1),
        TokenBucketConfig {
            rate_hz: 100.0,
            burst: 100.0,
            max_queue_depth: depth_limit,
            max_defer_seconds: 1e6,
            ..TokenBucketConfig::default()
        },
    );
    let mut policy = WeightedFairQueue::for_workload(&workload);
    let gated = simulate_with_admission(
        fleet(3, seed),
        &workload,
        &mut policy,
        &mut gate,
        SimConfig::default(),
    );

    let aggressor = gated.tenant_named("aggressor").unwrap();
    let victim = gated.tenant_named("victim").unwrap();
    assert!(open.max_queue_depth() > depth_limit + victim.max_queue_depth);
    assert!(aggressor.max_queue_depth <= depth_limit);
    assert!(aggressor.shed > 0, "the flood must shed");
    assert_eq!(victim.shed, 0, "the victim must not shed");
    assert_eq!(
        gated.completed + gated.rejected + gated.shed,
        gated.jobs,
        "every job is accounted for under admission control"
    );
}

/// Multi-tenant runs with WFQ and token-bucket admission replay
/// bit-identically per seed, across the workspace boundary.
#[test]
fn multi_tenant_simulation_is_deterministic_end_to_end() {
    let run = |seed: u64| {
        let workload = MultiTenantSpec::aggressor_victim(10, 0.5, 6.0, 2.0, seed).generate();
        let mut policy = WeightedFairQueue::for_workload(&workload);
        let mut gate = TokenBucket::new(TokenBucketConfig {
            rate_hz: 1.5,
            burst: 4.0,
            max_queue_depth: 10,
            max_defer_seconds: 100.0,
            ..TokenBucketConfig::default()
        });
        simulate_with_admission(
            fleet(3, seed),
            &workload,
            &mut policy,
            &mut gate,
            SimConfig::default(),
        )
    };
    assert_eq!(run(21), run(21));
    assert_ne!(run(21).trace, run(22).trace);
}

/// The machine-readable export: a multi-tenant report renders to JSON with
/// the per-tenant and fairness fields sweeps consume.
#[test]
fn sim_reports_export_to_json() {
    let workload = MultiTenantSpec::aggressor_victim(6, 0.5, 3.0, 1.0, 5).generate();
    let mut policy = WeightedFairQueue::for_workload(&workload);
    let report = simulate(fleet(2, 5), &workload, &mut policy, SimConfig::default());
    let json = report.to_json();
    assert_eq!(json.get("policy"), Some(&JsonValue::from("wfq")));
    assert!(json.get("jains_fairness_index").is_some());
    let text = json.to_string();
    assert!(text.starts_with('{') && text.ends_with('}'));
    assert!(text.contains("\"per_tenant\""));
    assert!(text.contains("\"victim\""));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
}

/// The cache-admission satellite: on a low-repetition mix (a stream
/// dominated by one-shot topologies plus a recurring hot set), the
/// second-chance doorkeeper keeps one-shot embeds from churning the bounded
/// cache, and must not lose to always-admit on mean latency.
#[test]
fn second_chance_cache_admission_helps_on_low_repetition_mixes() {
    let spec = WorkloadSpec {
        jobs: 90,
        seed: 13,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
        mix: vec![
            // The hot set: two recurring cycle topologies.
            (
                1.0,
                FamilySpec::MaxCutCycle {
                    sizes: vec![24, 30],
                },
            ),
            // The one-shot flood: many Gnp variants, rarely repeated.
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
    let workload = spec.try_generate().expect("valid spec");
    assert!(
        workload.distinct_topologies() > 20,
        "mix must be low-repetition"
    );

    let run = |admission: sx_cluster::AdmissionPolicy| {
        let fleet = Fleet::new(
            FleetConfig {
                qpus: 2,
                seed: 13,
                ..FleetConfig::default()
            }
            .with_cache(3, EvictionPolicyKind::Lru)
            .with_cache_admission(admission),
            SplitExecConfig::with_seed(13),
        );
        let mut scheduler = SchedulerSpec::Fifo.build();
        simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default())
    };
    let always = run(sx_cluster::AdmissionPolicy::Always);
    let second = run(sx_cluster::AdmissionPolicy::SecondChance);
    assert_eq!(always.cache_bypassed(), 0);
    assert!(second.cache_bypassed() > 0, "the doorkeeper must gate");
    assert!(
        second.evictions() < always.evictions(),
        "gating one-shot topologies must reduce churn ({} !< {})",
        second.evictions(),
        always.evictions()
    );
    assert!(
        second.latency.mean <= always.latency.mean * 1.02,
        "second-chance lost on mean latency: {:.3}s vs {:.3}s",
        second.latency.mean,
        always.latency.mean
    );
}

/// The deadline tentpole, end to end: a deadline-stamped two-tenant stream
/// under EDF-in-lane WFQ misses fewer deadlines than the same stream under
/// FIFO-lane WFQ and FIFO at saturating load, and the SLO metrics add up.
#[test]
fn edf_lanes_cut_the_slo_miss_rate_under_load() {
    let seed = 7;
    // Two symmetric tenants with mixed sizes and tight proportional slack,
    // arriving faster than the fleet can serve: a meaningful fraction of
    // deadlines must be missed, and the in-lane order decides which.
    let tenant = |name: &str, sizes: Vec<usize>| TenantSpec {
        name: name.to_string(),
        weight: 1.0,
        jobs: 45,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1.3 },
        mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes })],
        deadlines: DeadlinePolicy::ProportionalSlack { factor: 4.0 },
    };
    let workload = MultiTenantSpec {
        seed,
        tenants: vec![
            tenant("alpha", vec![12, 20, 28, 36]),
            tenant("beta", vec![14, 22, 30, 34]),
        ],
    }
    .generate();
    assert_eq!(workload.deadline_jobs(), 90);

    let run = |scheduler: &mut dyn Scheduler| {
        simulate(fleet(3, seed), &workload, scheduler, SimConfig::default())
    };
    let fifo = run(&mut Fifo);
    let mut plain = WeightedFairQueue::for_workload(&workload).with_lane_order(LaneOrder::Fifo);
    let plain = run(&mut plain);
    let mut edf_lane = WeightedFairQueue::for_workload(&workload);
    let edf_lane = run(&mut edf_lane);

    // Everything completes (no admission gate), so miss-rates compare the
    // same population.
    for report in [&fifo, &plain, &edf_lane] {
        assert_eq!(report.completed, 90);
        assert_eq!(report.slo_jobs(), 90);
        assert_eq!(
            report.slo_misses(),
            report
                .records
                .iter()
                .filter(|r| r.slo_miss() == Some(true))
                .count()
        );
        assert!(report.lateness.percentiles_ordered());
    }
    assert!(
        fifo.slo_misses() > 0,
        "the load must actually produce misses"
    );
    assert!(
        edf_lane.slo_miss_rate() < fifo.slo_miss_rate(),
        "EDF lanes {:.3} !< fifo {:.3}",
        edf_lane.slo_miss_rate(),
        fifo.slo_miss_rate()
    );
    assert!(
        edf_lane.slo_miss_rate() < plain.slo_miss_rate(),
        "EDF lanes {:.3} !< plain WFQ lanes {:.3}",
        edf_lane.slo_miss_rate(),
        plain.slo_miss_rate()
    );
    // Per-tenant SLO accounting sums to the report totals.
    let tenant_misses: usize = edf_lane.per_tenant.iter().map(|t| t.slo_misses).sum();
    let tenant_jobs: usize = edf_lane.per_tenant.iter().map(|t| t.slo_jobs).sum();
    assert_eq!(tenant_misses, edf_lane.slo_misses());
    assert_eq!(tenant_jobs, edf_lane.slo_jobs());
}

/// Deadline-infeasibility shedding, end to end: doomed tight-slack jobs
/// shed at admission, a loose-slack (always feasible) tenant is never
/// touched, and every shed is accounted.
#[test]
fn infeasible_shedding_never_claims_a_feasible_job() {
    let seed = 5;
    // The worst single-job pin on this fleet: the costliest cold service.
    let worst_pin = fleet(2, seed).worst_cold_service_seconds(36);
    let workload = MultiTenantSpec {
        seed,
        tenants: vec![
            TenantSpec {
                name: "feasible".to_string(),
                weight: 1.0,
                jobs: 12,
                arrivals: ArrivalProcess::Poisson { rate_hz: 0.4 },
                mix: vec![(
                    1.0,
                    FamilySpec::MaxCutCycle {
                        sizes: vec![20, 28],
                    },
                )],
                // Slack clears the worst possible wait + service with 4x
                // headroom: always feasible at admission time.
                deadlines: DeadlinePolicy::FixedSlack {
                    slack_seconds: 4.0 * worst_pin,
                },
            },
            TenantSpec {
                name: "doomed".to_string(),
                weight: 1.0,
                jobs: 36,
                arrivals: ArrivalProcess::Poisson { rate_hz: 1.2 },
                // Cache-busting cold embeds pin the devices...
                mix: vec![(
                    1.0,
                    FamilySpec::MaxCutGnp {
                        n: 30,
                        p: 0.3,
                        variants: 40,
                    },
                )],
                // ...so a few seconds of slack are provably unreachable
                // whenever both devices are mid-embed.
                deadlines: DeadlinePolicy::FixedSlack {
                    slack_seconds: 0.05 * worst_pin,
                },
            },
        ],
    }
    .generate();

    let mut gate = TokenBucket::new(TokenBucketConfig {
        rate_hz: 1e3,
        burst: 1e3,
        max_queue_depth: usize::MAX,
        max_defer_seconds: 1e9,
        shed_infeasible: true,
    });
    let mut policy = WeightedFairQueue::for_workload(&workload);
    let report = simulate_with_admission(
        fleet(2, seed),
        &workload,
        &mut policy,
        &mut gate,
        SimConfig::default(),
    );

    let feasible = report.tenant_named("feasible").unwrap();
    let doomed = report.tenant_named("doomed").unwrap();
    assert_eq!(
        feasible.shed_infeasible, 0,
        "a feasible job must never shed on deadline grounds"
    );
    assert_eq!(feasible.completed, feasible.submitted);
    assert!(
        doomed.shed_infeasible > 0,
        "the doomed flood must trip the gate"
    );
    assert_eq!(doomed.shed, doomed.shed_infeasible);
    assert_eq!(report.shed_infeasible, doomed.shed_infeasible);
    assert_eq!(
        report.completed + report.rejected + report.shed,
        report.jobs,
        "every job is accounted for under infeasibility shedding"
    );
    // The trace labels the infeasibility sheds, and each shed job's
    // deadline really was tighter than its best-case completion: no
    // completed sibling of the same size finished within that slack while
    // the fleet was loaded.
    let infeasible_sheds = report
        .trace
        .iter()
        .filter(|t| {
            matches!(
                t,
                TraceRecord::Shed {
                    infeasible: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(infeasible_sheds, report.shed_infeasible);
}

/// Deadline-stamped multi-tenant streams replay bit-identically per seed
/// across the workspace boundary — the PR 5 determinism acceptance.
#[test]
fn deadline_streams_are_deterministic_end_to_end() {
    let run = |seed: u64| {
        let workload = MultiTenantSpec::aggressor_victim(10, 0.5, 5.0, 2.0, seed)
            .with_uniform_deadlines(DeadlinePolicy::ProportionalSlack { factor: 3.0 })
            .generate();
        let mut policy = WeightedFairQueue::for_workload(&workload);
        let mut gate = TokenBucket::new(TokenBucketConfig {
            rate_hz: 2.0,
            burst: 4.0,
            max_queue_depth: 32,
            max_defer_seconds: 200.0,
            shed_infeasible: true,
        });
        simulate_with_admission(
            fleet(3, seed),
            &workload,
            &mut policy,
            &mut gate,
            SimConfig::default(),
        )
    };
    let a = run(33);
    assert_eq!(a, run(33));
    assert_ne!(a.trace, run(34).trace);
    // Deadlines made it through generation, dispatch and records.
    assert!(a.slo_jobs() > 0);
    assert!(a.records.iter().all(|r| r.deadline.is_some()));
}

/// The JSON export carries the SLO fields sweeps consume.
#[test]
fn slo_fields_export_to_json() {
    let workload = MultiTenantSpec::aggressor_victim(6, 0.5, 3.0, 1.0, 5)
        .with_uniform_deadlines(DeadlinePolicy::FixedSlack {
            slack_seconds: 30.0,
        })
        .generate();
    let mut policy = WeightedFairQueue::for_workload(&workload);
    let report = simulate(fleet(2, 5), &workload, &mut policy, SimConfig::default());
    let json = report.to_json();
    for field in ["slo_jobs", "slo_misses", "slo_miss_rate", "shed_infeasible"] {
        assert!(json.get(field).is_some(), "missing report field {field}");
    }
    let text = json.to_string();
    assert!(text.contains("\"lateness_seconds\""));
    assert!(text.contains("\"slo_miss_rate\""));
    // Per-tenant objects carry the same fields.
    match json.get("per_tenant") {
        Some(JsonValue::Array(tenants)) => {
            for t in tenants {
                assert!(t.get("slo_jobs").is_some());
                assert!(t.get("lateness_seconds").is_some());
            }
        }
        other => panic!("per_tenant should be an array, got {other:?}"),
    }
}

/// Closed-loop mode sustains a fixed population and completes the stream.
#[test]
fn closed_loop_completes_the_stream() {
    let workload = WorkloadSpec::repeated_topologies(30, 1.0, 9).generate();
    let report = simulate(
        fleet(2, 9),
        &workload,
        &mut ShortestPredictedFirst::default(),
        SimConfig {
            mode: WorkloadMode::Closed { clients: 3 },
            percentiles: PercentileMode::Exact,
        },
    );
    assert_eq!(report.completed + report.rejected, 30);
    assert!(report.max_queue_depth() <= 3);
    // A closed system with demand always waiting keeps devices busier than
    // an idle open one would be.
    assert!(report.mean_utilization() > 0.3);
}

/// Telemetry is a pure observer across the workspace boundary: a
/// multi-tenant run with WFQ and token-bucket admission yields the same
/// report bit-for-bit whether it runs bare, with a retaining sink, or with
/// a Perfetto exporter plus a sampling metrics registry attached.
#[test]
fn telemetry_never_perturbs_a_multi_tenant_run() {
    for seed in [5, 29] {
        let workload = MultiTenantSpec::aggressor_victim(10, 0.5, 6.0, 2.0, seed).generate();
        let gate_config = TokenBucketConfig {
            rate_hz: 1.5,
            burst: 4.0,
            max_queue_depth: 10,
            max_defer_seconds: 100.0,
            ..TokenBucketConfig::default()
        };
        let run = |sink: &mut dyn TraceSink, registry: Option<&mut MetricsRegistry>| {
            let mut policy = WeightedFairQueue::for_workload(&workload);
            let mut gate = TokenBucket::new(gate_config);
            simulate_with_telemetry(
                fleet(3, seed),
                &workload,
                &mut policy,
                &mut gate,
                SimConfig::default(),
                sink,
                registry,
            )
        };

        let bare = run(&mut NullSink, None);
        let mut vec_sink = VecSink::new();
        let retained = run(&mut vec_sink, None);
        let mut perfetto = PerfettoSink::new();
        let mut registry = MetricsRegistry::new(2.0);
        let observed = run(&mut perfetto, Some(&mut registry));

        assert_eq!(bare, retained, "VecSink changed the run (seed {seed})");
        assert_eq!(
            bare, observed,
            "PerfettoSink + registry changed the run (seed {seed})"
        );

        // The retaining sink matches what the legacy wrapper reports.
        let legacy = {
            let mut policy = WeightedFairQueue::for_workload(&workload);
            let mut gate = TokenBucket::new(gate_config);
            simulate_with_admission(
                fleet(3, seed),
                &workload,
                &mut policy,
                &mut gate,
                SimConfig::default(),
            )
        };
        assert_eq!(legacy.trace, vec_sink.records());

        // And the registry saw the run it observed: counters and sketches
        // agree with the report's own accounting.
        assert_eq!(
            registry.counter_value("completions"),
            Some(bare.completed as u64)
        );
        let latency = registry.histogram("latency_seconds").unwrap();
        assert_eq!(latency.count(), bare.completed as u64);
    }
}

/// The Perfetto export of a workspace-level run is a valid trace-event
/// document under the strict JSON parser: one object with a `traceEvents`
/// array whose entries all carry a phase, and with complete (`ph: "X"`)
/// spans for every dispatched job.
#[test]
fn perfetto_export_parses_as_trace_event_json() {
    let seed = 11;
    let workload = MultiTenantSpec::aggressor_victim(8, 0.5, 4.0, 1.0, seed).generate();
    let mut policy = WeightedFairQueue::for_workload(&workload);
    let mut sink = PerfettoSink::new();
    let report = simulate_with_telemetry(
        fleet(2, seed),
        &workload,
        &mut policy,
        &mut AdmitAll,
        SimConfig::default(),
        &mut sink,
        None,
    );
    let rendered = sink.finish().to_string();

    let doc = sx_cluster::json::parse(&rendered).expect("Perfetto export must parse");
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("traceEvents should be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let mut spans = 0usize;
    for event in events {
        match event.get("ph") {
            Some(JsonValue::Str(ph)) => {
                assert!(
                    ["X", "i", "M"].contains(&ph.as_str()),
                    "unexpected phase {ph}"
                );
                if ph == "X" {
                    spans += 1;
                    // Complete spans carry finite, non-negative timing.
                    for key in ["ts", "dur"] {
                        match event.get(key) {
                            Some(&JsonValue::Num(n)) => assert!(n.is_finite() && n >= 0.0),
                            other => panic!("span {key} should be a number, got {other:?}"),
                        }
                    }
                }
            }
            other => panic!("every trace event needs a ph, got {other:?}"),
        }
    }
    // Each completed job contributes at least its queued span, three stage
    // spans and a device-occupancy span.
    assert!(spans >= 5 * report.completed);
}

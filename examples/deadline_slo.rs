//! Deadline-aware SLOs: EDF lanes and infeasibility shedding.
//!
//! Stamps a two-tenant stream with proportional deadlines and shows what
//! each deadline-aware layer buys under saturating load:
//!
//! 1. FIFO misses the most deadlines: tight-slack jobs wait behind
//!    everything that arrived earlier.
//! 2. Plain (FIFO-lane) WFQ isolates the tenants but still serves each
//!    lane in submission order.
//! 3. EDF-in-lane WFQ keeps the cross-tenant shares *and* reorders each
//!    lane earliest-deadline-first — the miss rate drops without moving
//!    Jain's fairness index.
//! 4. Token-bucket admission with `shed_infeasible` drops jobs whose
//!    deadline is already unreachable instead of queueing doomed work.
//!
//! ```text
//! cargo run --release --example deadline_slo
//! ```

use std::sync::Arc;

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

fn fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        qpus: 3,
        seed,
        ..FleetConfig::default()
    }
}

/// Run `workload` on the 3-QPU fleet under `scheduler`, with `admission`
/// gating every arrival.
fn run(
    seed: u64,
    scheduler: SchedulerSpec,
    admission: AdmissionSpec,
    workload: &Arc<Workload>,
) -> SimReport {
    let cell = CellSpec {
        label: scheduler.name().to_string(),
        fleet: fleet(seed),
        scheduler,
        admission,
        config: SimConfig::default(),
        workload: Arc::clone(workload),
    };
    run_cell(0, &cell, &mut NullSink).report
}

/// Weighted fair queueing with the workload's own tenant weights.
fn wfq(workload: &Workload, lane_order: LaneOrder) -> SchedulerSpec {
    SchedulerSpec::WeightedFair {
        weights: workload.weights(),
        lane_order,
    }
}

fn main() {
    let seed = 7;
    // Two tenants with disjoint mixed-size cycle families and tight
    // proportional slack (deadline = arrival + 4x predicted cold service),
    // arriving faster than the fleet can serve.
    let tenant = |name: &str, sizes: Vec<usize>| TenantSpec {
        name: name.to_string(),
        weight: 1.0,
        jobs: 45,
        arrivals: ArrivalProcess::Poisson { rate_hz: 1.3 },
        mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes })],
        deadlines: DeadlinePolicy::ProportionalSlack { factor: 4.0 },
    };
    let workload = Arc::new(
        MultiTenantSpec {
            seed,
            tenants: vec![
                tenant("alpha", vec![12, 20, 28, 36]),
                tenant("beta", vec![14, 22, 30, 34]),
            ],
        }
        .generate(),
    );
    println!(
        "workload: {} jobs, all deadline-stamped ({} distinct topologies)\n",
        workload.len(),
        workload.distinct_topologies(),
    );

    let open = |scheduler| run(seed, scheduler, AdmissionSpec::AdmitAll, &workload);
    let fifo = open(SchedulerSpec::Fifo);
    let plain = open(wfq(&workload, LaneOrder::Fifo));
    let edf_lane = open(wfq(&workload, LaneOrder::EarliestDeadline));

    println!(
        "{:>9} {:>8} {:>10} {:>12} {:>7}",
        "policy", "miss%", "misses", "p99 late", "Jain"
    );
    for report in [&fifo, &plain, &edf_lane] {
        println!(
            "{:>9} {:>8.1} {:>6}/{:<3} {:>11.2}s {:>7.3}",
            report.policy,
            100.0 * report.slo_miss_rate(),
            report.slo_misses(),
            report.slo_jobs(),
            report.lateness.p99,
            report.jains_fairness_index(),
        );
    }

    // Shedding doomed work: a loose-slack tenant shares the fleet with a
    // cache-busting flood promising its clients a few seconds of slack —
    // deadlines that are provably unreachable whenever every device is
    // mid-embed.  The gate sheds the doomed jobs at admission and never
    // touches the feasible tenant.
    let worst_pin =
        Fleet::new(fleet(seed), SplitExecConfig::with_seed(seed)).worst_cold_service_seconds(36);
    let shed_workload = MultiTenantSpec {
        seed,
        tenants: vec![
            TenantSpec {
                deadlines: DeadlinePolicy::FixedSlack {
                    slack_seconds: 4.0 * worst_pin,
                },
                ..tenant("feasible", vec![20, 28])
            },
            TenantSpec {
                jobs: 90,
                arrivals: ArrivalProcess::Poisson { rate_hz: 2.6 },
                mix: vec![(
                    1.0,
                    FamilySpec::MaxCutGnp {
                        n: 30,
                        p: 0.3,
                        variants: 40,
                    },
                )],
                deadlines: DeadlinePolicy::FixedSlack {
                    slack_seconds: 0.4 * worst_pin,
                },
                ..tenant("doomed", vec![])
            },
        ],
    }
    .generate();
    let gate = AdmissionSpec::TokenBucket {
        default: TokenBucketConfig {
            rate_hz: 1e3, // only the feasibility check binds
            burst: 1e3,
            max_queue_depth: usize::MAX,
            max_defer_seconds: 1e9,
            shed_infeasible: true,
        },
        per_tenant: Vec::new(),
    };
    let policy = wfq(&shed_workload, LaneOrder::EarliestDeadline);
    let gated = run(seed, policy, gate, &Arc::new(shed_workload));
    let feasible = gated.tenant_named("feasible").unwrap();
    let doomed = gated.tenant_named("doomed").unwrap();
    println!(
        "\ninfeasibility shedding: {} doomed / {} feasible jobs shed at admission; \
         the feasible tenant completed {}/{}",
        doomed.shed_infeasible, feasible.shed_infeasible, feasible.completed, feasible.submitted,
    );
    println!("\n{gated}");
}

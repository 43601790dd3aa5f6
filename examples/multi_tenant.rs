//! Multi-tenant serving: weighted fair queueing and admission control.
//!
//! Composes a two-tenant workload — a well-behaved *victim* re-solving a
//! small repeated-topology mix and a cache-busting *aggressor* flooding the
//! fleet at 10x the victim's rate — and shows what each layer of the tenant
//! subsystem buys:
//!
//! 1. FIFO: the aggressor's backlog inflates the victim's p99.
//! 2. Weighted fair queueing: the victim's lane is served at its fair
//!    share, so its p99 stays near the isolated baseline.
//! 3. WFQ + token-bucket admission: the aggressor's queue depth is bounded
//!    and its excess shed, without touching the victim.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use sx_cluster::prelude::*;

/// Run `workload` on a 4-QPU fleet under `scheduler`, with `admission`
/// gating every arrival.
fn run(
    seed: u64,
    scheduler: SchedulerSpec,
    admission: AdmissionSpec,
    workload: &Arc<Workload>,
) -> SimReport {
    let cell = CellSpec {
        label: scheduler.name().to_string(),
        fleet: FleetConfig {
            qpus: 4,
            seed,
            ..FleetConfig::default()
        },
        scheduler,
        admission,
        config: SimConfig::default(),
        workload: Arc::clone(workload),
    };
    run_cell(0, &cell, &mut NullSink).report
}

fn main() {
    let seed = 7;
    let spec = MultiTenantSpec::aggressor_victim(15, 0.45, 10.0, 1.0, seed);
    let workload = Arc::new(spec.generate());
    println!(
        "workload: {} victim + {} aggressor jobs ({} distinct topologies)\n",
        workload
            .jobs
            .iter()
            .filter(|j| j.tenant == TenantId(0))
            .count(),
        workload
            .jobs
            .iter()
            .filter(|j| j.tenant == TenantId(1))
            .count(),
        workload.distinct_topologies(),
    );

    // The victim alone on the same fleet: its no-contention baseline.
    let isolated_workload = MultiTenantSpec {
        tenants: vec![spec.tenants[0].clone()],
        ..spec.clone()
    }
    .generate();
    let isolated = run(
        seed,
        SchedulerSpec::Fifo,
        AdmissionSpec::AdmitAll,
        &Arc::new(isolated_workload),
    );
    println!(
        "isolated victim baseline: p50 {:.2}s, p99 {:.2}s\n",
        isolated.latency.p50, isolated.latency.p99
    );

    // 1. FIFO: one queue, no tenancy — the flood wins.
    let fifo_report = run(
        seed,
        SchedulerSpec::Fifo,
        AdmissionSpec::AdmitAll,
        &workload,
    );
    println!("{fifo_report}\n");

    // 2. WFQ: per-tenant lanes on a virtual clock, weighted by the
    // workload's tenant metadata.
    let wfq = SchedulerSpec::WeightedFair {
        weights: workload.weights(),
        lane_order: LaneOrder::default(),
    };
    let wfq_report = run(seed, wfq.clone(), AdmissionSpec::AdmitAll, &workload);
    println!("{wfq_report}\n");

    // 3. WFQ + admission: budget the aggressor's lane.
    let generous = TokenBucketConfig {
        rate_hz: 1e3,
        burst: 1e3,
        max_queue_depth: usize::MAX,
        max_defer_seconds: 1e9,
        ..TokenBucketConfig::default()
    };
    let gate = AdmissionSpec::TokenBucket {
        default: generous,
        per_tenant: vec![(
            TenantId(1),
            TokenBucketConfig {
                max_queue_depth: 6,
                ..generous
            },
        )],
    };
    let gated_report = run(seed, wfq, gate, &workload);
    println!("{gated_report}\n");

    let victim = |r: &SimReport| r.tenant_named("victim").unwrap().latency.p99;
    println!(
        "victim p99: isolated {:.2}s | fifo {:.2}s | wfq {:.2}s | wfq+admission {:.2}s",
        isolated.latency.p99,
        victim(&fifo_report),
        victim(&wfq_report),
        victim(&gated_report),
    );
    println!(
        "aggressor max queue depth: {} open vs {} gated ({} jobs shed)",
        fifo_report
            .tenant_named("aggressor")
            .unwrap()
            .max_queue_depth,
        gated_report
            .tenant_named("aggressor")
            .unwrap()
            .max_queue_depth,
        gated_report.shed,
    );
    // Machine-readable form of the same run:
    println!(
        "\nJSON (truncated): {:.120}...",
        gated_report.to_json().to_string()
    );
}

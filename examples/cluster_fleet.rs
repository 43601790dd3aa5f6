//! Simulating a datacenter of annealers: workloads, policies, metrics.
//!
//! Builds a *heterogeneous* 4-QPU fleet (DW2X- and Vesuvius-class devices
//! alternating, each with its own fault map) whose warm-embedding caches
//! are bounded at 2 topologies per device, generates a bursty stream of
//! repeated-topology jobs, and compares the three scheduling policies on
//! identical seeds — then shows what the eviction policy changes.  Run
//! with:
//!
//! ```text
//! cargo run --release --example cluster_fleet
//! ```

use std::sync::Arc;

use sx_cluster::prelude::*;

/// Run `workload` on a heterogeneous 4-QPU fleet whose caches hold
/// `capacity` topologies under `eviction`.  Every cell rebuilds the fleet
/// from the same seed, so each run sees identical fault maps.
fn run(
    seed: u64,
    capacity: usize,
    eviction: EvictionPolicyKind,
    scheduler: SchedulerSpec,
    workload: &Arc<Workload>,
) -> SimReport {
    let cell = CellSpec {
        label: scheduler.name().to_string(),
        fleet: FleetConfig::heterogeneous(4, seed).with_cache(capacity, eviction),
        scheduler,
        admission: AdmissionSpec::AdmitAll,
        config: SimConfig::default(),
        workload: Arc::clone(workload),
    };
    run_cell(0, &cell, &mut NullSink).report
}

fn main() {
    let seed = 42;
    let capacity = 2;
    let workload = Arc::new(WorkloadSpec::bursty(120, 1.5, 6, seed).generate());
    println!(
        "workload: {} jobs over {} distinct topologies (max lps {})\n",
        workload.len(),
        workload.distinct_topologies(),
        workload.max_lps()
    );

    for policy in SchedulerSpec::all() {
        // Same fleet seed per policy: identical fault maps, fair comparison.
        // Each device holds at most `capacity` warm embeddings (LRU).
        let report = run(seed, capacity, EvictionPolicyKind::Lru, policy, &workload);
        println!("{report}");
        for qpu in &report.per_qpu {
            println!(
                "  qpu {}: {} jobs, {:.0}% util, {} warm hits / {} cold embeds, \
                 {} evictions, {}/{} topologies cached",
                qpu.qpu,
                qpu.jobs,
                100.0 * qpu.utilization,
                qpu.warm_hits,
                qpu.cold_misses,
                qpu.evictions,
                qpu.warm_topologies,
                capacity,
            );
        }
        // The same summary shape a batch run produces:
        println!("{}\n", report.batch_summary());
    }

    // The eviction policy matters once the cache is tight: cost-aware
    // eviction keeps the topologies that are expensive to re-embed.
    println!("eviction policy at capacity 2 (FIFO scheduling):");
    for eviction in EvictionPolicyKind::all() {
        // FIFO routes blind to warmth, so the caches churn and the
        // eviction choice is what separates the two runs.
        let report = run(seed, 2, eviction, SchedulerSpec::Fifo, &workload);
        println!(
            "  {:>10}: mean latency {:.3}s, hit rate {:.0}%, {} evictions",
            eviction.name(),
            report.latency.mean,
            100.0 * report.hit_rate(),
            report.evictions()
        );
    }
}

//! Regression tests for the D003 failure class `sx_lint` guards against
//! (NaN-unsafe comparators), driven end-to-end through the public API: a
//! job or cache entry carrying a NaN cost must not panic any scheduler or
//! eviction policy, because every ordering in the workspace goes through
//! `f64::total_cmp` (the EventKey pattern of `cluster/src/event.rs`), under
//! which NaN is just the greatest value.

use split_exec::SplitExecConfig;
use sx_cluster::cache::CacheEntry;
use sx_cluster::prelude::*;

fn probe_job(id: usize, deadline: Option<f64>) -> Job {
    Job {
        id,
        tenant: TenantId::DEFAULT,
        family: "probe".into(),
        lps: 40,
        topology_key: id as u64,
        arrival: 0.0,
        deadline,
    }
}

fn small_fleet(seed: u64) -> Fleet {
    Fleet::new(
        FleetConfig {
            qpus: 2,
            seed,
            ..FleetConfig::default()
        },
        SplitExecConfig::with_seed(seed),
    )
}

#[test]
fn edf_does_not_panic_on_nan_deadline_and_ranks_it_last() {
    // Under partial_cmp().unwrap() this queue would panic the dispatcher;
    // under total_cmp a NaN deadline is merely the worst possible one —
    // it ranks behind even the deadline-free (infinity-keyed) jobs.
    let queue = vec![
        probe_job(0, Some(f64::NAN)),
        probe_job(1, None),
        probe_job(2, Some(100.0)),
    ];
    let fleet = small_fleet(7);
    let mut edf = EarliestDeadlineFirst;
    let (qi, _) = edf
        .next_assignment(&queue, &fleet, 0.0)
        .expect("an idle fleet must yield an assignment");
    assert_eq!(qi, 2, "the finite deadline must win over NaN and None");
}

#[test]
fn wfq_lane_order_does_not_panic_on_nan_deadline() {
    let queue = vec![
        probe_job(0, Some(f64::NAN)),
        probe_job(1, Some(f64::NAN)),
        probe_job(2, Some(3.0)),
    ];
    let fleet = small_fleet(7);
    let mut wfq = WeightedFairQueue::new();
    assert!(
        wfq.next_assignment(&queue, &fleet, 0.0).is_some(),
        "single-tenant WFQ with NaN deadlines must still dispatch"
    );
}

#[test]
fn simulation_with_all_nan_deadlines_completes_and_replays() {
    // Poison every deadline in a real multi-tenant workload and run the
    // whole engine: EDF lanes, SLO accounting and lateness percentiles all
    // see NaN.  Nothing may panic, every job must be conserved, and the
    // run must still replay bit-identically.
    let run = |seed: u64| {
        let mut workload = MultiTenantSpec::aggressor_victim(8, 0.7, 3.0, 1.0, seed).generate();
        for job in &mut workload.jobs {
            job.deadline = Some(f64::NAN);
        }
        let fleet = small_fleet(seed);
        let mut scheduler = WeightedFairQueue::for_workload(&workload);
        simulate(fleet, &workload, &mut scheduler, SimConfig::default())
    };
    let a = run(11);
    let b = run(11);
    // `a == b` would be false even for bit-identical runs: the lateness
    // stats are NaN, and NaN != NaN under PartialEq.  The Debug rendering
    // is textual, so it compares NaNs (and every other bit) faithfully.
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "NaN deadlines broke replay determinism"
    );
    assert_eq!(a.completed + a.rejected, a.jobs);
}

#[test]
fn cost_aware_eviction_does_not_panic_on_nan_reembed_cost() {
    let entry = |key: u64, last_use: u64, reembed_seconds: f64| CacheEntry {
        key,
        lps: 40,
        last_use,
        reembed_seconds,
    };
    let policy = CostAware;
    // NaN is the *most expensive* entry under total_cmp, so the finite-cost
    // entry is sacrificed first.
    let entries = [entry(1, 0, f64::NAN), entry(2, 1, 4.5)];
    assert_eq!(policy.victim(&entries), 1);
    // All-NaN costs degrade to the deterministic (last_use, key) tiebreak
    // instead of panicking or picking arbitrarily.
    let entries = [
        entry(9, 5, f64::NAN),
        entry(3, 2, f64::NAN),
        entry(4, 2, f64::NAN),
    ];
    assert_eq!(policy.victim(&entries), 1, "smallest (last_use, key) wins");
}

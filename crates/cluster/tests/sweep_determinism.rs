//! The sweep runner's determinism contract, end-to-end: execution order is
//! invisible.  Running any permutation of a [`SweepPlan`]'s cells must
//! give every cell exactly the report and sketches the unpermuted run gave
//! it, across seeds and scheduling policies.
//!
//! Also pins the plan's rate calibration: a cell's
//! capacity-calibrated arrival rate is a pure function of its
//! `(fleet, load)` coordinate, so reordering or extending the axis lists
//! cannot drift any cell's rate (and therefore its workload).

use std::sync::Arc;

use proptest::prelude::*;
use sx_cluster::prelude::*;

/// A small but non-trivial plan: two seeds, one fleet, two loads, three
/// policies — 12 cells.
fn test_plan() -> SweepPlan {
    SweepPlan::new(1.0, 2, SimConfig::default())
        .seeds(vec![3, 11])
        .fleets(vec![(
            "uniform".to_string(),
            FleetConfig {
                qpus: 2,
                ..FleetConfig::default()
            },
        )])
        .loads(vec![0.6, 1.2])
}

fn expand(plan: &SweepPlan) -> Vec<CellSpec> {
    plan.expand(
        &[(String::new(), ())],
        &["fifo", "affinity", "wfq"],
        |seed, rate_hz, ()| {
            Arc::new(
                WorkloadSpec::repeated_topologies(24, rate_hz, seed)
                    .try_generate()
                    .expect("valid test workload"),
            )
        },
        |name, _| match name {
            "fifo" => SchedulerSpec::Fifo,
            "affinity" => SchedulerSpec::CacheAffinity,
            _ => SchedulerSpec::WeightedFair {
                weights: vec![1.0],
                lane_order: Default::default(),
            },
        },
    )
}

/// Calibrated arrival rates are pinned to the `(fleet, load)` coordinate:
/// reversing the load axis, permuting the fleet axis, or appending new
/// axis values must not move any existing cell's rate — and with the rates
/// fixed, the per-cell workloads (and therefore reports) are fixed too.
#[test]
fn calibrated_rates_survive_axis_reordering() {
    let uniform = FleetConfig {
        qpus: 2,
        ..FleetConfig::default()
    };
    let hetero = FleetConfig::heterogeneous(2, 5);
    let sizes = [16usize, 20, 24];

    let forward = SweepPlan::new(1.0, 2, SimConfig::default())
        .fleets(vec![
            ("uniform".to_string(), uniform.clone()),
            ("hetero".to_string(), hetero.clone()),
        ])
        .loads(vec![0.5, 1.0, 1.5])
        .calibrated(&sizes)
        .expect("calibration succeeds");
    let reordered = SweepPlan::new(1.0, 2, SimConfig::default())
        .fleets(vec![
            ("hetero".to_string(), hetero.clone()),
            ("uniform".to_string(), uniform.clone()),
        ])
        .loads(vec![1.5, 0.5, 1.0, 2.0])
        .calibrated(&sizes)
        .expect("calibration succeeds");

    // uniform is fleet 0 forward, fleet 1 reordered; loads looked up by
    // value, not position.
    for &load in &[0.5, 1.0, 1.5] {
        assert_eq!(
            forward.rate_for(0, load),
            reordered.rate_for(1, load),
            "uniform fleet's rate at load {load} drifted with axis order"
        );
        assert_eq!(
            forward.rate_for(1, load),
            reordered.rate_for(0, load),
            "hetero fleet's rate at load {load} drifted with axis order"
        );
    }

    // Pin the actual regression: the same (seed, fleet, load, policy)
    // coordinate yields the identical report under both axis orders.
    let cells_fwd = forward.expand(
        &[(String::new(), ())],
        &["fifo"],
        |seed, rate_hz, ()| {
            Arc::new(
                WorkloadSpec::repeated_topologies(16, rate_hz, seed)
                    .try_generate()
                    .expect("valid test workload"),
            )
        },
        |_, _| SchedulerSpec::Fifo,
    );
    let cells_re = reordered.expand(
        &[(String::new(), ())],
        &["fifo"],
        |seed, rate_hz, ()| {
            Arc::new(
                WorkloadSpec::repeated_topologies(16, rate_hz, seed)
                    .try_generate()
                    .expect("valid test workload"),
            )
        },
        |_, _| SchedulerSpec::Fifo,
    );
    let fwd = run_sweep(&cells_fwd);
    let re = run_sweep(&cells_re);
    for a in &fwd.cells {
        let b = re
            .cells
            .iter()
            .find(|c| c.label == a.label)
            .unwrap_or_else(|| panic!("cell '{}' missing from the reordered plan", a.label));
        assert_eq!(
            a.report, b.report,
            "cell '{}' changed when the axes were reordered",
            a.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cell execution order never leaks into results: running an arbitrary
    /// permutation of the cell list yields, for every cell, exactly the
    /// result the unpermuted run produced for the same spec — only `index`
    /// (its position in the submitted list) differs.
    #[test]
    fn execution_order_never_leaks_into_results(
        permutation_seed in 0u64..u64::MAX,
    ) {
        let cells = expand(&test_plan());
        let oracle = run_sweep(&cells);

        // A deterministic Fisher–Yates driven by the proptest-chosen seed.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let mut state = permutation_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted: Vec<CellSpec> = order.iter().map(|&i| cells[i].clone()).collect();

        let shuffled = run_sweep(&permuted);
        for (pos, &original) in order.iter().enumerate() {
            let a = &shuffled.cells[pos];
            let b = &oracle.cells[original];
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(a.index, pos, "results must come back in submission order");
            prop_assert_eq!(&a.report, &b.report,
                "cell '{}' changed under permutation", b.label);
            prop_assert_eq!(&a.latency_sketch, &b.latency_sketch);
            prop_assert_eq!(&a.wait_sketch, &b.wait_sketch);
        }
    }
}

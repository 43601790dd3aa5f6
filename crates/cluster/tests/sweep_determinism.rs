//! A sweep's determinism contract, end-to-end: execution order is
//! invisible.  Running any permutation of a [`SweepPlan`]'s cells must
//! give every cell exactly the report and sketches the unpermuted run gave
//! it, across seeds and scheduling policies.

use std::sync::Arc;

use proptest::prelude::*;
use sx_cluster::prelude::*;

/// A small but non-trivial plan: two seeds, one fleet, two loads, three
/// policies — 12 cells.
fn test_plan() -> SweepPlan {
    let fleet = FleetConfig {
        qpus: 2,
        ..FleetConfig::default()
    };
    SweepPlan::new("uniform", fleet, &[16, 20, 24], 1.0, SimConfig::default())
        .expect("calibration succeeds for the sweep mix sizes")
        .seeds(vec![3, 11])
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

/// Run `cells` in index order, each with a bare [`NullSink`].
fn run_all(cells: &[CellSpec]) -> Vec<CellResult> {
    cells
        .iter()
        .enumerate()
        .map(|(index, cell)| run_cell(index, cell, &mut NullSink))
        .collect()
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
        let oracle = run_all(&cells);

        // A deterministic Fisher–Yates driven by the proptest-chosen seed.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let mut state = permutation_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted: Vec<CellSpec> = order.iter().map(|&i| cells[i].clone()).collect();

        let shuffled = run_all(&permuted);
        for (pos, &original) in order.iter().enumerate() {
            let a = &shuffled[pos];
            let b = &oracle[original];
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(a.index, pos, "results must come back in submission order");
            prop_assert_eq!(&a.report, &b.report,
                "cell '{}' changed under permutation", b.label);
            prop_assert_eq!(&a.latency_sketch, &b.latency_sketch);
            prop_assert_eq!(&a.wait_sketch, &b.wait_sketch);
        }
    }
}

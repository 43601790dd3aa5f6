//! The sweep runner's determinism contract, end-to-end: parallelism is
//! invisible.  A [`SweepPlan`] executed at `--threads 1` (the serial
//! oracle), at 2 threads, and at the host's available parallelism must
//! produce byte-identical per-cell reports and a byte-identical merged
//! document — across seeds, scheduling policies, and thread counts — and
//! the order cells happen to execute in must never leak into any result.
//!
//! Also pins the satellite fix this PR hoists into the plan: a cell's
//! capacity-calibrated arrival rate is a pure function of its
//! `(fleet, load)` coordinate, so reordering or extending the axis lists
//! cannot drift any cell's rate (and therefore its workload).

use std::sync::Arc;

use proptest::prelude::*;
use sx_cluster::prelude::*;

/// A small but non-trivial plan: two seeds, one fleet, two loads, three
/// policies — 12 cells, enough to give every thread count real work.
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

/// Render everything comparable about a cell except its wall clock — the
/// "byte-identical" form CI's diffs see.
fn cell_fingerprint(cell: &CellResult) -> String {
    format!(
        "{}|{}|{}|{:?}|{:?}",
        cell.index, cell.label, cell.report, cell.latency_sketch, cell.wait_sketch
    )
}

#[test]
fn thread_count_is_invisible_across_seeds_and_policies() {
    let cells = expand(&test_plan());
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let oracle = run_sweep(&cells, 1);
    for threads in [2, available] {
        let parallel = run_sweep(&cells, threads);
        assert_eq!(parallel.cells.len(), oracle.cells.len());
        for (a, b) in parallel.cells.iter().zip(&oracle.cells) {
            assert_eq!(
                cell_fingerprint(a),
                cell_fingerprint(b),
                "cell '{}' diverged at {threads} threads",
                b.label
            );
            assert_eq!(a.report, b.report);
            assert_eq!(a.latency_sketch, b.latency_sketch);
            assert_eq!(a.wait_sketch, b.wait_sketch);
        }
        // The merged document byte-for-byte — what `--mode sweep` writes.
        assert_eq!(
            format!("{}", parallel.merged.to_json()),
            format!("{}", oracle.merged.to_json()),
            "merged JSON diverged at {threads} threads"
        );
    }
}

#[test]
fn zero_threads_means_available_parallelism_and_stays_identical() {
    let cells = expand(&test_plan());
    let auto = run_sweep(&cells, 0);
    let oracle = run_sweep(&cells, 1);
    for (a, b) in auto.cells.iter().zip(&oracle.cells) {
        assert_eq!(
            a.report, b.report,
            "cell '{}' diverged at auto threads",
            b.label
        );
    }
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
    let fwd = run_sweep(&cells_fwd, 1);
    let re = run_sweep(&cells_re, 1);
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
    /// permutation of the cell list (at an arbitrary thread count) yields,
    /// for every cell, exactly the result the unpermuted serial oracle
    /// produced for the same spec — only `index` (its position in the
    /// submitted list) differs.
    #[test]
    fn execution_order_never_leaks_into_results(
        permutation_seed in 0u64..u64::MAX,
        threads in 1usize..4,
    ) {
        let cells = expand(&test_plan());
        let oracle = run_sweep(&cells, 1);

        // A deterministic Fisher–Yates driven by the proptest-chosen seed.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let mut state = permutation_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted: Vec<CellSpec> = order.iter().map(|&i| cells[i].clone()).collect();

        let shuffled = run_sweep(&permuted, threads);
        for (pos, &original) in order.iter().enumerate() {
            let a = &shuffled.cells[pos];
            let b = &oracle.cells[original];
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(a.index, pos, "results must come back in submission order");
            prop_assert_eq!(&a.report, &b.report,
                "cell '{}' changed under permutation at {} threads", b.label, threads);
            prop_assert_eq!(&a.latency_sketch, &b.latency_sketch);
            prop_assert_eq!(&a.wait_sketch, &b.wait_sketch);
        }
    }
}

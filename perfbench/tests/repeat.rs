//! Every counter and every virtual-time metric must repeat exactly: run
//! each workload twice at a reduced size, untraced and traced, and compare.
//! A later change may rest a count claim on a metric this test covers.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, RunReport, Sizes, DEFAULT_SEED, WORKLOADS};

/// Metrics that are a pure function of the inputs, beyond every metric
/// whose unit is `count`.
fn exact(workload: &str, name: &str, unit: &str) -> bool {
    let virtual_time = workload.starts_with("sim_") && matches!(name, "lat_ms" | "tail_ms");
    unit == "count"
        || virtual_time
        || matches!(
            name,
            "ok_frac" | "splitexec.optimal_frac" | "cluster.cache_hit_rate"
        )
}

fn run_ok(workload: &str, traced: bool) -> RunReport {
    run(workload, DEFAULT_SEED, &Sizes::reduced(), traced)
        .unwrap_or_else(|errors| panic!("{workload}: output checks failed: {errors:?}"))
}

#[test]
fn counters_and_virtual_times_repeat_exactly() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let (a, b) = (run_ok(workload, traced), run_ok(workload, traced));
            assert_eq!(
                (a.attempted, a.failed),
                (b.attempted, b.failed),
                "{workload}"
            );
            let mut compared = 0;
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.name, y.name);
                if exact(workload, x.name, x.unit) {
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "{workload} (traced: {traced}): {} read {} then {}",
                        x.name,
                        x.value,
                        y.value
                    );
                    compared += 1;
                }
            }
            assert!(compared > 0, "{workload}: no exact metric compared");
        }
    }
}

#[test]
fn traced_runs_report_the_layers_their_workload_exercises() {
    let pipeline = run_ok("pipeline_mix", true);
    assert!(pipeline.get("embedding.cmr_calls").unwrap() > 0.0);
    assert!(pipeline.get("annealer.reads").unwrap() > 0.0);
    let overload = run_ok("sim_overload", true);
    assert!(overload.get("cluster.sched_calls").unwrap() > 0.0);
    assert_eq!(overload.get("cluster.admit_shed"), Some(0.0));
}

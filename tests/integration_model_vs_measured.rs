//! Cross-crate integration test: the analytic (ASPEN-walk) predictions and
//! the executable path agree on the paper's qualitative conclusions —
//! stage-1 dominance, stage ordering and growth trends.

use chimera_graph::generators;
use qubo_ising::prelude::MaxCut;
use split_exec::prelude::*;

#[test]
fn predicted_and_measured_agree_on_stage_ordering() {
    let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::with_seed(3));
    let maxcut = MaxCut::unweighted(generators::cycle(12));
    let qubo = maxcut.to_qubo();

    let predicted = pipeline.predict(qubo.num_variables()).unwrap();
    let measured = pipeline.execute(&qubo).unwrap();

    // Both paths rank the stages identically: stage 1 >> stage 2 > stage 3.
    assert!(predicted.stage1.total_seconds > predicted.stage2.total_seconds);
    assert!(predicted.stage2.total_seconds > predicted.stage3.total_seconds);
    assert!(measured.stage1.total_seconds > measured.stage2.total_seconds);
    assert!(measured.stage1.total_seconds > measured.stage3.measured_seconds);
}

#[test]
fn predicted_stage1_share_grows_with_problem_size() {
    let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::default());
    let shares: Vec<f64> = [10, 20, 40, 80]
        .iter()
        .map(|&n| pipeline.predict(n).unwrap().stage1_fraction())
        .collect();
    assert!(shares.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    assert!(shares[0] > 0.99);
}

#[test]
fn predicted_embedding_cost_grows_steeply_with_size() {
    // The model charges the worst-case CMR complexity; its step-to-step
    // growth factor between K6, K10 and K14 exceeds 2 everywhere, which is
    // the steep solid line of Fig. 9(a).
    let machine = SplitMachine::paper_default();
    let mut previous_model: Option<f64> = None;
    for n in [6usize, 10, 14] {
        let prediction = predict_stage1(&machine, n).unwrap();
        if let Some(pm) = previous_model {
            assert!(
                prediction.embed_seconds / pm > 2.0,
                "model growth too shallow at n={n}"
            );
        }
        previous_model = Some(prediction.embed_seconds);
    }
    // The executable path stays feasible (and much cheaper than the model's
    // worst case) for a dense input the heuristic handles reliably.
    let config = SplitExecConfig::with_seed(5);
    let qubo = MaxCut::unweighted(generators::complete(6)).to_qubo();
    let execution = execute_stage1_cached(&machine, &config, &qubo, None).unwrap();
    assert!(execution.embedding_seconds < 30.0);
}

#[test]
fn stage2_prediction_matches_timing_model_arithmetic() {
    use quantum_anneal::{required_reads, QpuTimings};
    let machine = SplitMachine::paper_default();
    let timings = QpuTimings::dw2x();
    for (pa, ps) in [(0.9, 0.7), (0.99, 0.7), (0.999, 0.6), (0.99, 0.95)] {
        let predicted = predict_stage2(&machine, pa, ps).unwrap();
        let reads = required_reads(pa, ps);
        let expected = timings.anneal_seconds(reads) + timings.readout_seconds();
        assert!(
            (predicted.total_seconds - expected).abs() < 1e-9,
            "pa={pa} ps={ps}: {} vs {expected}",
            predicted.total_seconds
        );
    }
}

#[test]
fn stage3_prediction_is_negligible_at_every_size() {
    let machine = SplitMachine::paper_default();
    for lps in [1usize, 10, 50, 100] {
        let s3 = predict_stage3(&machine, lps, 0.99, 0.75).unwrap();
        assert!(s3.total_seconds < 1e-3, "lps {lps}: {}", s3.total_seconds);
    }
}

#[test]
fn executed_stage1_work_counters_track_problem_size() {
    let machine = SplitMachine::paper_default();
    let config = SplitExecConfig::with_seed(8);
    let small = execute_stage1_cached(
        &machine,
        &config,
        &MaxCut::unweighted(generators::complete(4)).to_qubo(),
        None,
    )
    .unwrap();
    let large = execute_stage1_cached(
        &machine,
        &config,
        &MaxCut::unweighted(generators::complete(6)).to_qubo(),
        None,
    )
    .unwrap();
    assert!(large.conversion_operations > small.conversion_operations);
    assert!(large.embedding_stats.dijkstra_calls > small.embedding_stats.dijkstra_calls);
    assert!(large.parameter_operations > small.parameter_operations);
}

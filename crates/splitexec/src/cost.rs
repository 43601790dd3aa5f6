//! The paper's three stage models, tabulated once per QPU model.
//!
//! The stage predictions ([`predict_stage1`](crate::stage1::predict_stage1)
//! etc.) walk an ASPEN listing each call.  Each listing is parsed once per
//! process, on first use, and every prediction and every table shares that
//! parse.  The predictions'
//! inputs are the lattice `M`/`N`, the logical problem size, and the
//! application's accuracy and success probability, so the
//! costs depend only on the QPU generation, never on a device's fault map.
//! [`CostModel`] therefore evaluates them once, for every logical problem
//! size up to a bound, into a dense immutable table: ask for the per-stage
//! costs of a size and get a [`StageCosts`] splitting stage 1 into its
//! *embedding* share (amortizable via the offline embedding cache) and its
//! residual *overhead* (data initialization, parameter setting, processor
//! programming — paid by every job, warm or cold).
//!
//! The cluster simulator (`sx_cluster`) shares one table among all devices
//! of a QPU model and uses it as the service-time distribution of its
//! queueing model: a job arriving at a QPU whose embedding cache already
//! holds the job's interaction topology pays
//! [`StageCosts::stage1_warm_seconds`]; a cold job pays
//! [`StageCosts::stage1_cold_seconds`].  Schedulers use
//! [`CostModel::costs`] as the prediction oracle for
//! shortest-predicted-job-first ordering.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::QpuModel;
use crate::stage1::predict_stage1_on;
use crate::stage2::predict_stage2_on;
use crate::stage3::predict_stage3_on;

/// Predicted per-stage costs for one logical problem size, with stage 1
/// split into its cache-amortizable and always-paid parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Logical problem size the costs were predicted for.
    pub lps: usize,
    /// Stage-1 seconds attributable to the minor-embedding computation —
    /// the part an embedding cache amortizes away.
    pub stage1_embed_seconds: f64,
    /// Stage-1 seconds paid regardless of caching: logical-Ising
    /// construction, parameter setting and processor programming.
    pub stage1_overhead_seconds: f64,
    /// Stage-2 (quantum execution) seconds.
    pub stage2_seconds: f64,
    /// Stage-3 (post-processing) seconds.
    pub stage3_seconds: f64,
}

impl StageCosts {
    /// Stage-1 seconds for a job whose embedding must be computed in-line.
    pub fn stage1_cold_seconds(&self) -> f64 {
        self.stage1_embed_seconds + self.stage1_overhead_seconds
    }

    /// Stage-1 seconds for a job whose embedding is served from a cache.
    pub fn stage1_warm_seconds(&self) -> f64 {
        self.stage1_overhead_seconds
    }

    /// End-to-end seconds for a cold job.
    pub fn total_cold_seconds(&self) -> f64 {
        self.stage1_cold_seconds() + self.stage2_seconds + self.stage3_seconds
    }

    /// End-to-end seconds for a warm (cache-served) job.
    pub fn total_warm_seconds(&self) -> f64 {
        self.stage1_warm_seconds() + self.stage2_seconds + self.stage3_seconds
    }
}

/// The analytic stage costs of one QPU model under one application
/// configuration, for every logical problem size `0..=max_lps`.
///
/// Built eagerly and immutable afterwards, so it can be shared (behind an
/// `Arc`) by every device of the model and queried in hot loops: a lookup
/// is a bounds-checked slice index.
#[derive(Debug)]
pub struct CostModel {
    rows: Vec<Result<StageCosts, PipelineError>>,
}

impl CostModel {
    /// Tabulate the costs of problem sizes `0..=max_lps` on a `qpu`-class
    /// machine, walking the stage listings parsed once per process.  The
    /// predictions read only the generation's lattice dimensions and
    /// analytic machine model, so no lattice graph is built.  A size whose
    /// prediction fails keeps its error, which [`Self::costs`] returns for
    /// that size.
    pub fn new(qpu: QpuModel, config: &SplitExecConfig, max_lps: usize) -> Self {
        let (m, n, _) = qpu.lattice();
        let aspen = qpu.simple_node();
        let (accuracy, success) = (config.accuracy, config.success_probability);
        // Stage 2 does not depend on the problem size.
        let stage2 = predict_stage2_on(&aspen, accuracy, success).map(|s2| s2.total_seconds);
        let rows = (0..=max_lps)
            .map(|lps| {
                let stage1 = predict_stage1_on(&aspen, (m, n), lps)?;
                let stage2_seconds = stage2.clone()?;
                let stage3 = predict_stage3_on(&aspen, lps, accuracy, success)?;
                Ok(StageCosts {
                    lps,
                    stage1_embed_seconds: stage1.embed_seconds,
                    stage1_overhead_seconds: stage1.total_seconds - stage1.embed_seconds,
                    stage2_seconds,
                    stage3_seconds: stage3.total_seconds,
                })
            })
            .collect();
        Self { rows }
    }

    /// The largest problem size the table covers.
    pub fn max_lps(&self) -> usize {
        self.rows.len() - 1
    }

    /// Predicted per-stage costs for a logical problem of `lps` spins;
    /// [`PipelineError::SizeOutOfRange`] past [`Self::max_lps`].
    pub fn costs(&self, lps: usize) -> Result<StageCosts, PipelineError> {
        match self.rows.get(lps) {
            Some(row) => row.clone(),
            None => Err(PipelineError::SizeOutOfRange {
                lps,
                max_lps: self.max_lps(),
            }),
        }
    }

    /// Predicted seconds of the amortizable embedding share alone — what a
    /// bounded embedding cache saves by keeping a topology of `lps` spins
    /// warm, and what a cost-aware eviction policy weighs entries by.
    pub fn embed_seconds(&self, lps: usize) -> Result<f64, PipelineError> {
        Ok(self.costs(lps)?.stage1_embed_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SplitMachine;
    use crate::stage1::predict_stage1;
    use crate::stage2::predict_stage2;
    use crate::stage3::predict_stage3;

    fn model() -> CostModel {
        CostModel::new(QpuModel::Dw2x, &SplitExecConfig::with_seed(1), 50)
    }

    #[test]
    fn costs_match_the_underlying_stage_predictions() {
        for qpu in QpuModel::all() {
            let machine = SplitMachine::new(qpu);
            let m = CostModel::new(qpu, &SplitExecConfig::with_seed(1), 49);
            let s2 = predict_stage2(&machine, 0.99, 0.7).unwrap();
            for lps in 0..=m.max_lps() {
                let costs = m.costs(lps).unwrap();
                let s1 = predict_stage1(&machine, lps).unwrap();
                let s3 = predict_stage3(&machine, lps, 0.99, 0.7).unwrap();
                assert_eq!(costs.lps, lps);
                assert!((costs.stage1_cold_seconds() - s1.total_seconds).abs() < 1e-12);
                assert_eq!(costs.stage1_embed_seconds, s1.embed_seconds);
                assert_eq!(costs.stage2_seconds, s2.total_seconds);
                assert_eq!(costs.stage3_seconds, s3.total_seconds);
            }
        }
    }

    #[test]
    fn sizes_past_the_table_are_an_error() {
        let m = model();
        assert_eq!(m.max_lps(), 50);
        assert!(m.costs(50).is_ok());
        assert_eq!(
            m.costs(51),
            Err(PipelineError::SizeOutOfRange {
                lps: 51,
                max_lps: 50
            })
        );
        assert!(m.embed_seconds(usize::MAX).is_err());
    }

    #[test]
    fn warm_jobs_skip_only_the_embedding_share() {
        let costs = model().costs(40).unwrap();
        assert!(costs.stage1_warm_seconds() < costs.stage1_cold_seconds());
        assert!(
            (costs.total_cold_seconds() - costs.total_warm_seconds() - costs.stage1_embed_seconds)
                .abs()
                < 1e-12
        );
        // The embedding is the dominant share — the paper's headline.
        assert!(costs.stage1_embed_seconds > 10.0 * costs.stage2_seconds);
    }

    #[test]
    fn costs_grow_with_problem_size() {
        let m = model();
        let small = m.costs(10).unwrap();
        let large = m.costs(50).unwrap();
        assert!(large.stage1_embed_seconds > small.stage1_embed_seconds);
        assert!(large.total_cold_seconds() > small.total_cold_seconds());
    }

    #[test]
    fn embed_seconds_is_the_amortizable_share() {
        let m = model();
        assert_eq!(
            m.embed_seconds(30).unwrap(),
            m.costs(30).unwrap().stage1_embed_seconds
        );
        // Larger topologies are dearer to re-embed — the ordering cost-aware
        // eviction relies on.
        assert!(m.embed_seconds(40).unwrap() > m.embed_seconds(10).unwrap());
    }
}

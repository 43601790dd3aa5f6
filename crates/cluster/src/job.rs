//! Jobs: what flows through the simulated datacenter.
//!
//! A [`Job`] is the simulator's view of one QUBO submission — the logical
//! problem size that drives the analytic service-time model, the canonical
//! key of its interaction topology (what an embedding cache would key on),
//! and its arrival time.  The full coefficient matrix is irrelevant to the
//! queueing behavior: two jobs with the same interaction topology are
//! interchangeable for stage-1 purposes (that is precisely the observation
//! the offline embedding cache exploits), so the workload generator reduces
//! each generated problem instance to this record.

use crate::tenant::TenantId;

/// One QUBO job in flight through the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Workload-wide index, also the submission order.
    pub id: usize,
    /// The tenant that submitted this job ([`TenantId::DEFAULT`] in
    /// single-tenant workloads).
    pub tenant: TenantId,
    /// Human-readable problem-family label (e.g. `maxcut-cycle-12`).
    ///
    /// Stored refcounted rather than as an owned `String`: the dispatch
    /// loop clones the `Job` once per arrival event, and an `Arc<str>`
    /// clone is a refcount bump instead of a heap allocation — part of the
    /// zero-allocation steady-state contract pinned by
    /// `crates/cluster/tests/alloc_budget.rs`.
    pub family: std::sync::Arc<str>,
    /// Logical problem size (number of logical spins) — the `LPS` parameter
    /// of the paper's stage models.
    pub lps: usize,
    /// Canonical key of the job's interaction topology
    /// ([`split_exec::offline_cache::graph_key`]); jobs sharing a key share
    /// an embedding.
    pub topology_key: u64,
    /// Arrival time in virtual seconds (ignored in closed-loop mode).
    pub arrival: f64,
    /// Completion deadline in absolute virtual seconds (`None` = the job
    /// carries no SLO).  Deadlines are stamped by the workload generator's
    /// [`DeadlinePolicy`](crate::workload::DeadlinePolicy) and consumed by
    /// the EDF-flavored schedulers, deadline-aware admission control and the
    /// SLO metrics.
    pub deadline: Option<f64>,
}

/// Everything the metrics layer records about one finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// The job's workload index.
    pub job: usize,
    /// The tenant that submitted the job.
    pub tenant: TenantId,
    /// Device that served it.
    pub qpu: usize,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Time service began.
    pub start: f64,
    /// Time service finished.
    pub finish: f64,
    /// Stage-1 service seconds actually charged (warm or cold).
    pub stage1_seconds: f64,
    /// Stage-2 service seconds.
    pub stage2_seconds: f64,
    /// Stage-3 service seconds.
    pub stage3_seconds: f64,
    /// Whether the device's embedding cache was warm for this topology.
    pub warm_hit: bool,
    /// The job's completion deadline (absolute virtual seconds), if it
    /// carried one.
    pub deadline: Option<f64>,
}

impl JobRecord {
    /// Queueing delay: seconds between arrival and service start.
    pub fn wait_seconds(&self) -> f64 {
        self.start - self.arrival
    }

    /// Service time: seconds between start and finish.
    pub fn service_seconds(&self) -> f64 {
        self.finish - self.start
    }

    /// End-to-end latency: seconds between arrival and finish.
    pub fn latency_seconds(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Whether the job missed its deadline (`None` for deadline-free jobs).
    pub fn slo_miss(&self) -> Option<bool> {
        self.deadline.map(|d| self.finish > d)
    }

    /// How late the job finished relative to its deadline, clamped at zero
    /// for on-time completions (`None` for deadline-free jobs).
    pub fn lateness_seconds(&self) -> Option<f64> {
        self.deadline.map(|d| (self.finish - d).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_derived_times_are_consistent() {
        let r = JobRecord {
            job: 0,
            tenant: TenantId::DEFAULT,
            qpu: 1,
            arrival: 2.0,
            start: 5.0,
            finish: 9.0,
            stage1_seconds: 3.0,
            stage2_seconds: 0.5,
            stage3_seconds: 0.5,
            warm_hit: false,
            deadline: None,
        };
        assert_eq!(r.wait_seconds(), 3.0);
        assert_eq!(r.service_seconds(), 4.0);
        assert_eq!(r.latency_seconds(), 7.0);
        assert_eq!(r.wait_seconds() + r.service_seconds(), r.latency_seconds());
        assert_eq!(r.slo_miss(), None);
        assert_eq!(r.lateness_seconds(), None);
    }

    #[test]
    fn deadline_derived_fields_classify_misses() {
        let base = JobRecord {
            job: 0,
            tenant: TenantId::DEFAULT,
            qpu: 0,
            arrival: 0.0,
            start: 1.0,
            finish: 10.0,
            stage1_seconds: 8.0,
            stage2_seconds: 0.5,
            stage3_seconds: 0.5,
            warm_hit: false,
            deadline: Some(12.0),
        };
        assert_eq!(base.slo_miss(), Some(false));
        assert_eq!(base.lateness_seconds(), Some(0.0));
        let late = JobRecord {
            deadline: Some(7.5),
            ..base
        };
        assert_eq!(late.slo_miss(), Some(true));
        assert_eq!(late.lateness_seconds(), Some(2.5));
    }
}

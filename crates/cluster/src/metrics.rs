//! Metrics: what the simulator reports about a run.
//!
//! Latency percentiles come from [`quantum_anneal::stats::percentile`] (the
//! shared order-statistics helper), the per-stage breakdown mirrors the
//! paper's three-stage accounting, and [`SimReport::batch_summary`] exports
//! the run in the same [`split_exec::BatchSummary`] format the batch
//! pipeline uses — one report shape whether jobs went through a single
//! pipeline or a simulated datacenter.

use crate::job::JobRecord;
use crate::telemetry::StreamingHistogram;
use crate::tenant::TenantId;
use quantum_anneal::stats::percentile_sorted;
use split_exec::offline_cache::CacheStats;
use split_exec::BatchSummary;
use std::fmt;

/// Latency distribution summary (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Compute the summary from raw per-job values (zeroes when empty).
    pub fn from_values(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        // Unstable on purpose: equal f64 keys are indistinguishable, and the
        // in-place sort keeps the allocation count independent of the input
        // length (a stable sort's scratch buffer appears only past a length
        // threshold, which tests/alloc_budget.rs would see as a per-event
        // allocation).
        sorted.sort_unstable_by(f64::total_cmp);
        let pct = |p| percentile_sorted(&sorted, p).unwrap_or(0.0);
        Self {
            mean: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            min: sorted.first().copied().unwrap_or(0.0),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// Compute the summary from a streaming sketch instead of retained
    /// samples (zeroes when the sketch is empty, matching
    /// [`Self::from_values`] on empty input).
    ///
    /// `min`/`max`/`mean` are tracked exactly by the sketch; the quantiles
    /// carry its documented relative-error bound
    /// ([`StreamingHistogram::relative_error_bound`]).  This is the path
    /// behind [`crate::sim::PercentileMode::Sketch`].
    pub fn from_sketch(sketch: &StreamingHistogram) -> Self {
        Self {
            mean: sketch.mean(),
            min: sketch.min(),
            p50: sketch.p50(),
            p95: sketch.p95(),
            p99: sketch.p99(),
            max: sketch.max(),
        }
    }

    /// The order-statistics invariant every summary must satisfy:
    /// `min ≤ p50 ≤ p95 ≤ p99 ≤ max` (proptested on simulated runs).
    pub fn percentiles_ordered(&self) -> bool {
        self.min <= self.p50 && self.p50 <= self.p95 && self.p95 <= self.p99 && self.p99 <= self.max
    }
}

/// Per-device utilization and cache behavior over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpuStats {
    /// Device id.
    pub qpu: usize,
    /// Jobs served.
    pub jobs: usize,
    /// Busy fraction of the makespan (0 when the makespan is zero).
    pub utilization: f64,
    /// Jobs whose embedding was warm on this device.
    pub warm_hits: usize,
    /// Jobs that embedded cold on this device.
    pub cold_misses: usize,
    /// Distinct topologies in this device's cache at the end of the run.
    pub warm_topologies: usize,
    /// Embeddings evicted from this device's bounded cache during the run.
    pub evictions: usize,
    /// Cold embeddings the cache-admission doorkeeper declined to cache.
    pub cache_bypassed: usize,
    /// The device's warm-cache capacity (`None` = unbounded).
    pub cache_capacity: Option<usize>,
}

impl QpuStats {
    /// Warm-hit fraction of the jobs this device served (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.cold_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

/// Everything the metrics layer records about one tenant over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Human-readable label from the workload's tenant metadata.
    pub name: String,
    /// Fair-share weight from the metadata (1.0 when absent).
    pub weight: f64,
    /// Jobs the tenant submitted.
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs the admission controller shed (all causes, including
    /// deadline-infeasibility).
    pub shed: usize,
    /// Of the shed jobs, how many were shed because their deadline was
    /// already provably unreachable at admission time.
    pub shed_infeasible: usize,
    /// Defer events (one job deferred twice counts twice).
    pub deferrals: usize,
    /// Jobs rejected as infeasible on every device.
    pub rejected: usize,
    /// Largest number of this tenant's jobs queued at once.
    pub max_queue_depth: usize,
    /// End-to-end latency distribution of the tenant's completed jobs.
    pub latency: LatencyStats,
    /// Queueing-delay distribution.
    pub wait: LatencyStats,
    /// Completed jobs that carried a deadline (the tenant's SLO
    /// population; zero for a deadline-free tenant).
    pub slo_jobs: usize,
    /// Of [`Self::slo_jobs`], how many finished after their deadline.
    pub slo_misses: usize,
    /// Lateness distribution over the tenant's deadline-carrying completed
    /// jobs: `max(0, finish − deadline)`, so on-time jobs contribute zeros
    /// and the percentiles read "how late are the misses".  All-zero for a
    /// deadline-free tenant.
    pub lateness: LatencyStats,
    /// Summed service seconds the tenant consumed.
    pub service_seconds: f64,
}

impl TenantStats {
    /// Service seconds per unit weight — the normalized share fairness
    /// indices compare across tenants.
    pub fn normalized_share(&self) -> f64 {
        if self.weight > 0.0 {
            self.service_seconds / self.weight
        } else {
            self.service_seconds
        }
    }

    /// Fraction of the tenant's completed deadline-carrying jobs that
    /// missed their deadline (0 when the tenant has no SLO population).
    pub fn slo_miss_rate(&self) -> f64 {
        if self.slo_jobs == 0 {
            0.0
        } else {
            self.slo_misses as f64 / self.slo_jobs as f64
        }
    }
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n · Σx²)`, 1.0 when all allocations are equal, approaching
/// `1/n` when one allocation monopolizes.  Empty or all-zero input is
/// vacuously fair (1.0).
pub fn jains_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// The full outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The policy that produced the run.
    pub policy: String,
    /// The admission controller that gated arrivals.
    pub admission: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Events popped from the future-event list over the run — the
    /// denominator of the engine's ns/event perf metric.
    pub events: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs the admission controller shed (all causes).
    pub shed: usize,
    /// Of the shed jobs, how many were deadline-infeasibility sheds.
    pub shed_infeasible: usize,
    /// Defer events across the run (one job deferred twice counts twice).
    pub deferrals: usize,
    /// Jobs rejected at arrival (infeasible on every device).
    pub rejected: usize,
    /// Virtual time at which the last event fired.
    pub makespan_seconds: f64,
    /// End-to-end latency distribution.
    pub latency: LatencyStats,
    /// Queueing-delay distribution.
    pub wait: LatencyStats,
    /// Lateness distribution over all completed deadline-carrying jobs
    /// (`max(0, finish − deadline)`; all-zero when no job has a deadline).
    pub lateness: LatencyStats,
    /// Summed stage-1 service seconds over completed jobs.
    pub stage1_seconds: f64,
    /// Summed stage-2 service seconds.
    pub stage2_seconds: f64,
    /// Summed stage-3 service seconds.
    pub stage3_seconds: f64,
    /// Per-device statistics.
    pub per_qpu: Vec<QpuStats>,
    /// Per-tenant statistics, in tenant-id order.
    pub per_tenant: Vec<TenantStats>,
    /// Largest queue depth seen after any event.
    pub max_queue_depth: usize,
    /// Per-job records in completion order.
    pub records: Vec<JobRecord>,
}

impl SimReport {
    /// Summed service seconds across all stages.
    pub fn total_service_seconds(&self) -> f64 {
        self.stage1_seconds + self.stage2_seconds + self.stage3_seconds
    }

    /// Fraction of the summed service time spent in stage 1 — the paper's
    /// headline, measured at fleet scale.
    pub fn stage1_fraction(&self) -> f64 {
        let total = self.total_service_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.stage1_seconds / total
        }
    }

    /// Total warm-embedding hits across the fleet.
    pub fn warm_hits(&self) -> usize {
        self.per_qpu.iter().map(|q| q.warm_hits).sum()
    }

    /// Total cold embeds across the fleet.
    pub fn cold_misses(&self) -> usize {
        self.per_qpu.iter().map(|q| q.cold_misses).sum()
    }

    /// Total cache evictions across the fleet.
    pub fn evictions(&self) -> usize {
        self.per_qpu.iter().map(|q| q.evictions).sum()
    }

    /// Fleet-wide warm-hit rate: warm hits over all dispatches.
    pub fn hit_rate(&self) -> f64 {
        let total = self.warm_hits() + self.cold_misses();
        if total == 0 {
            0.0
        } else {
            self.warm_hits() as f64 / total as f64
        }
    }

    /// Mean device utilization over the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_qpu.is_empty() {
            0.0
        } else {
            self.per_qpu.iter().map(|q| q.utilization).sum::<f64>() / self.per_qpu.len() as f64
        }
    }

    /// The statistics of one tenant, if it appears in the report.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.per_tenant.iter().find(|t| t.tenant == tenant)
    }

    /// The statistics of the tenant with the given metadata name.
    pub fn tenant_named(&self, name: &str) -> Option<&TenantStats> {
        self.per_tenant.iter().find(|t| t.name == name)
    }

    /// Jain's fairness index over the tenants' weight-normalized service
    /// shares: 1.0 means every active tenant received service exactly
    /// proportional to its weight.  Tenants that *submitted* jobs are
    /// included even when they completed none — a totally starved tenant
    /// contributes a zero share and drags the index down, it must not
    /// silently vanish from the measurement.
    pub fn jains_fairness_index(&self) -> f64 {
        let shares: Vec<f64> = self
            .per_tenant
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.normalized_share())
            .collect();
        jains_index(&shares)
    }

    /// Max-min share ratio: the smallest weight-normalized service share
    /// over the largest, across tenants that submitted jobs (a starved
    /// tenant counts as share 0, driving the ratio to 0).  1.0 is
    /// perfectly weighted-fair; near 0.0 one tenant is starved.
    pub fn max_min_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .per_tenant
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.normalized_share())
            .collect();
        let max = shares.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        if shares.len() <= 1 || max <= 0.0 {
            1.0
        } else {
            min / max
        }
    }

    /// Cold embeddings across the fleet that the cache-admission
    /// doorkeeper declined to cache.
    pub fn cache_bypassed(&self) -> usize {
        self.per_qpu.iter().map(|q| q.cache_bypassed).sum()
    }

    /// Completed jobs that carried a deadline — the run's SLO population.
    pub fn slo_jobs(&self) -> usize {
        self.records.iter().filter(|r| r.deadline.is_some()).count()
    }

    /// Completed jobs that finished after their deadline.
    pub fn slo_misses(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.slo_miss() == Some(true))
            .count()
    }

    /// Fraction of the completed deadline-carrying jobs that missed their
    /// deadline (0 when nothing carried a deadline).
    pub fn slo_miss_rate(&self) -> f64 {
        let jobs = self.slo_jobs();
        if jobs == 0 {
            0.0
        } else {
            self.slo_misses() as f64 / jobs as f64
        }
    }

    /// Export the run in the shared batch-report format
    /// ([`split_exec::BatchSummary`]): the virtual makespan plays the role
    /// of the batch's wall clock, and warm hits / cold misses map onto the
    /// embedding-cache statistics.
    pub fn batch_summary(&self) -> BatchSummary {
        BatchSummary {
            jobs: self.jobs,
            succeeded: self.completed,
            failed: self.jobs - self.completed,
            stage1_seconds: self.stage1_seconds,
            stage2_seconds: self.stage2_seconds,
            stage3_seconds: self.stage3_seconds,
            total_seconds: self.total_service_seconds(),
            wall_seconds: self.makespan_seconds,
            stage1_fraction: self.stage1_fraction(),
            embedding_cache: CacheStats {
                hits: self.warm_hits(),
                misses: self.cold_misses(),
            },
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy {}: {}/{} jobs completed ({} rejected, {} shed, {} deferrals) \
             in {:.1} virtual seconds",
            self.policy,
            self.completed,
            self.jobs,
            self.rejected,
            self.shed,
            self.deferrals,
            self.makespan_seconds
        )?;
        writeln!(
            f,
            "latency: mean {:.2}s, p50 {:.2}s, p95 {:.2}s, p99 {:.2}s, max {:.2}s",
            self.latency.mean,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max
        )?;
        writeln!(
            f,
            "stages: 1 = {:.3e}s, 2 = {:.3e}s, 3 = {:.3e}s (stage-1 share {:.1}%)",
            self.stage1_seconds,
            self.stage2_seconds,
            self.stage3_seconds,
            100.0 * self.stage1_fraction()
        )?;
        write!(
            f,
            "fleet: {:.0}% mean utilization, {} warm hits / {} cold embeds ({} evictions), max queue depth {}",
            100.0 * self.mean_utilization(),
            self.warm_hits(),
            self.cold_misses(),
            self.evictions(),
            self.max_queue_depth
        )?;
        if self.slo_jobs() > 0 || self.shed_infeasible > 0 {
            write!(
                f,
                "\nSLO: {}/{} deadline jobs missed ({:.1}% miss rate, \
                 p99 lateness {:.2}s, {} infeasible shed)",
                self.slo_misses(),
                self.slo_jobs(),
                100.0 * self.slo_miss_rate(),
                self.lateness.p99,
                self.shed_infeasible
            )?;
        }
        if self.per_tenant.len() > 1 {
            for t in &self.per_tenant {
                write!(
                    f,
                    "\n  tenant {} ({}, weight {}): {}/{} done ({} shed), \
                     p50 {:.2}s p99 {:.2}s, share {:.1}s",
                    t.tenant,
                    t.name,
                    t.weight,
                    t.completed,
                    t.submitted,
                    t.shed,
                    t.latency.p50,
                    t.latency.p99,
                    t.service_seconds
                )?;
                if t.slo_jobs > 0 {
                    write!(
                        f,
                        ", SLO {}/{} missed ({:.1}%)",
                        t.slo_misses,
                        t.slo_jobs,
                        100.0 * t.slo_miss_rate()
                    )?;
                }
            }
            write!(
                f,
                "\n  fairness: Jain {:.3}, max-min share {:.3}",
                self.jains_fairness_index(),
                self.max_min_share()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job: usize, arrival: f64, start: f64, finish: f64) -> JobRecord {
        JobRecord {
            job,
            tenant: TenantId::DEFAULT,
            qpu: 0,
            arrival,
            start,
            finish,
            stage1_seconds: start.max(1.0),
            stage2_seconds: 0.001,
            stage3_seconds: 0.001,
            warm_hit: false,
            deadline: None,
        }
    }

    fn tenant_stats(id: usize, weight: f64, service: f64) -> TenantStats {
        TenantStats {
            tenant: TenantId(id),
            name: format!("tenant-{id}"),
            weight,
            submitted: 2,
            completed: 1,
            shed: 1,
            shed_infeasible: 0,
            deferrals: 0,
            rejected: 0,
            max_queue_depth: 1,
            latency: LatencyStats::from_values(&[2.0]),
            wait: LatencyStats::from_values(&[0.5]),
            slo_jobs: 0,
            slo_misses: 0,
            lateness: LatencyStats::from_values(&[]),
            service_seconds: service,
        }
    }

    fn report() -> SimReport {
        let records = vec![record(0, 0.0, 0.0, 2.0), record(1, 1.0, 2.0, 5.0)];
        SimReport {
            policy: "fifo".into(),
            admission: "admit-all".into(),
            jobs: 3,
            events: 6,
            completed: 2,
            shed: 0,
            shed_infeasible: 0,
            deferrals: 0,
            rejected: 1,
            makespan_seconds: 5.0,
            latency: LatencyStats::from_values(&[2.0, 4.0]),
            wait: LatencyStats::from_values(&[0.0, 1.0]),
            lateness: LatencyStats::from_values(&[]),
            stage1_seconds: 4.0,
            stage2_seconds: 0.002,
            stage3_seconds: 0.002,
            per_qpu: vec![QpuStats {
                qpu: 0,
                jobs: 2,
                utilization: 0.8,
                warm_hits: 1,
                cold_misses: 1,
                warm_topologies: 1,
                evictions: 2,
                cache_bypassed: 0,
                cache_capacity: Some(1),
            }],
            per_tenant: vec![tenant_stats(0, 1.0, 4.0)],
            max_queue_depth: 2,
            records,
        }
    }

    #[test]
    fn latency_stats_from_values() {
        let s = LatencyStats::from_values(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.max, 4.0);
        assert!(s.percentiles_ordered());
        let empty = LatencyStats::from_values(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.min, 0.0);
        assert_eq!(empty.p99, 0.0);
        assert!(empty.percentiles_ordered());
    }

    #[test]
    fn jains_index_spans_fair_to_monopoly() {
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
        assert!((jains_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One tenant monopolizes: index collapses toward 1/n.
        let skewed = jains_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert!(jains_index(&[2.0, 1.0]) < 1.0);
    }

    #[test]
    fn fairness_indices_read_normalized_shares() {
        let mut r = report();
        // Two tenants, weights 2:1, service 4:2 — perfectly weighted-fair.
        r.per_tenant = vec![tenant_stats(0, 2.0, 4.0), tenant_stats(1, 1.0, 2.0)];
        assert!((r.jains_fairness_index() - 1.0).abs() < 1e-12);
        assert!((r.max_min_share() - 1.0).abs() < 1e-12);
        // Starve tenant 1: both indices degrade.
        r.per_tenant[1].service_seconds = 0.2;
        assert!(r.jains_fairness_index() < 0.95);
        assert!(r.max_min_share() < 0.15);
        // Lookup by id and name.
        assert_eq!(r.tenant(TenantId(1)).unwrap().name, "tenant-1");
        assert!(r.tenant(TenantId(9)).is_none());
        assert_eq!(
            r.tenant_named("tenant-0").unwrap().tenant,
            TenantId::DEFAULT
        );
    }

    #[test]
    fn single_tenant_reports_are_vacuously_fair() {
        let r = report();
        assert_eq!(r.jains_fairness_index(), 1.0);
        assert_eq!(r.max_min_share(), 1.0);
    }

    #[test]
    fn a_totally_starved_tenant_reads_as_maximally_unfair() {
        // Regression: tenants with zero completions used to be filtered
        // out of the fairness indices, so total starvation reported as
        // perfect fairness.
        let mut r = report();
        let mut starved = tenant_stats(1, 1.0, 0.0);
        starved.completed = 0;
        starved.service_seconds = 0.0;
        r.per_tenant = vec![tenant_stats(0, 1.0, 4.0), starved];
        assert!((r.jains_fairness_index() - 0.5).abs() < 1e-12);
        assert_eq!(r.max_min_share(), 0.0);
    }

    #[test]
    fn multi_tenant_display_lists_tenants_and_fairness() {
        let mut r = report();
        r.per_tenant = vec![tenant_stats(0, 2.0, 4.0), tenant_stats(1, 1.0, 2.0)];
        let text = format!("{r}");
        assert!(text.contains("tenant t0"));
        assert!(text.contains("tenant t1"));
        assert!(text.contains("Jain"));
        assert!(text.contains("max-min share"));
    }

    #[test]
    fn slo_aggregates_classify_misses_from_records() {
        let mut r = report();
        // record 0 finishes at 2.0, record 1 at 5.0.
        r.records[0].deadline = Some(3.0); // on time
        r.records[1].deadline = Some(4.0); // late by 1s
        r.lateness = LatencyStats::from_values(&[0.0, 1.0]);
        assert_eq!(r.slo_jobs(), 2);
        assert_eq!(r.slo_misses(), 1);
        assert!((r.slo_miss_rate() - 0.5).abs() < 1e-12);
        let text = format!("{r}");
        assert!(text.contains("SLO: 1/2 deadline jobs missed"));
        // A deadline-free report renders no SLO line and rates zero.
        let free = report();
        assert_eq!(free.slo_jobs(), 0);
        assert_eq!(free.slo_miss_rate(), 0.0);
        assert!(!format!("{free}").contains("SLO:"));
    }

    #[test]
    fn tenant_slo_miss_rate_handles_empty_populations() {
        let mut t = tenant_stats(0, 1.0, 4.0);
        assert_eq!(t.slo_miss_rate(), 0.0);
        t.slo_jobs = 8;
        t.slo_misses = 2;
        assert!((t.slo_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_aggregates() {
        let r = report();
        assert!((r.stage1_fraction() - 4.0 / 4.004).abs() < 1e-12);
        assert_eq!(r.warm_hits(), 1);
        assert_eq!(r.cold_misses(), 1);
        assert_eq!(r.evictions(), 2);
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
        assert!((r.per_qpu[0].hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.max_queue_depth, 2);
        assert!((r.mean_utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn batch_summary_shares_the_pipeline_format() {
        let r = report();
        let s = r.batch_summary();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.succeeded, 2);
        assert_eq!(s.failed, 1);
        assert_eq!(s.wall_seconds, 5.0);
        assert_eq!(s.embedding_cache.hits, 1);
        assert_eq!(s.embedding_cache.misses, 1);
        // The shared Display implementation renders it.
        let text = format!("{s}");
        assert!(text.contains("3 jobs: 2 succeeded, 1 failed"));
    }

    #[test]
    fn report_displays_headline_lines() {
        let text = format!("{}", report());
        assert!(text.contains("policy fifo"));
        assert!(text.contains("stage-1 share"));
        assert!(text.contains("max queue depth 2"));
    }
}

//! Admission control: the gate between job arrival and the scheduler.
//!
//! A multi-tenant fleet cannot let every arrival into the dispatch queue:
//! an aggressor tenant submitting far beyond its budget would grow the
//! queue without bound, and even a fair scheduler can only re-order what is
//! already queued — unbounded backlog still costs memory and defeats any
//! latency SLO for jobs the system will accept.  The
//! [`AdmissionController`] runs *before* a job ever reaches the scheduler
//! and returns one of three verdicts:
//!
//! * **Accept** — the job joins the dispatch queue.
//! * **Shed** — the job is dropped (counted per tenant; in a real serving
//!   system this is the 429 the client sees).
//! * **Defer** — the job re-arrives at a later virtual time (the client is
//!   told to retry-after); deferral burns no queue slot.
//!
//! [`TokenBucket`] is the shipped implementation: each tenant has a rate
//! budget (tokens/second up to a burst cap) and a queue-depth limit.
//! Arrivals over the depth limit shed immediately; arrivals out of tokens
//! defer exactly until the next token accrues (deterministic — the defer
//! time is a pure function of the bucket state); jobs that have been
//! deferred past `max_defer_seconds` shed instead of spinning forever.
//! With [`TokenBucketConfig::shed_infeasible`] enabled, a job whose
//! deadline is already unreachable under the engine's *best-case*
//! completion estimate ([`AdmissionContext::predicted_completion`]) is shed
//! at admission time instead of queueing doomed work — and because the
//! estimate is a lower bound, a job that could still make its deadline is
//! never shed on deadline grounds.

use crate::job::Job;
use crate::tenant::TenantId;
use std::collections::BTreeMap;

/// The verdict on one arriving job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Admit the job to the dispatch queue.
    Accept,
    /// Drop the job (counted as shed, never served).
    Shed,
    /// Drop the job because its deadline is already infeasible — counted
    /// separately from [`AdmissionDecision::Shed`] so SLO dashboards can
    /// distinguish "over budget" from "doomed anyway".
    ShedInfeasible,
    /// Re-submit the job at virtual time `until` (must be after the current
    /// time; the engine sheds instead if it is not, to guarantee progress).
    Defer {
        /// The virtual time at which the job re-arrives.
        until: f64,
    },
}

/// What the engine knows about the system at the moment a job arrives —
/// the controller's only window onto fleet state, so admission decisions
/// stay deterministic and replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionContext {
    /// How many of the arriving job's tenant's jobs are already queued
    /// (not yet dispatched).
    pub tenant_queue_depth: usize,
    /// The engine's *optimistic* estimate of the job's completion time
    /// (absolute virtual seconds): the earliest any feasible device could
    /// finish it, assuming a warm embedding and no queue ahead of it.
    /// `None` when no device can run the job at all.  Actual completion
    /// can only be later, so `predicted_completion > deadline` proves the
    /// deadline unreachable.
    pub predicted_completion: Option<f64>,
}

impl AdmissionContext {
    /// A context carrying only the queue depth (no completion estimate) —
    /// what direct callers outside the engine typically have.
    pub fn with_depth(tenant_queue_depth: usize) -> Self {
        Self {
            tenant_queue_depth,
            predicted_completion: None,
        }
    }
}

/// Gates job arrival before the scheduler ever sees the job.
///
/// Implementations must be deterministic: the decision may depend only on
/// the job, the [`AdmissionContext`] and the virtual clock.
pub trait AdmissionController {
    /// Stable controller name used in reports.
    fn name(&self) -> &'static str;

    /// Decide the fate of `job` arriving at virtual time `now`, given the
    /// engine's snapshot of queue depth and best-case completion.
    fn admit(&mut self, job: &Job, ctx: &AdmissionContext, now: f64) -> AdmissionDecision;
}

/// The open-door controller: every job is accepted.  This is the implicit
/// controller of [`crate::sim::simulate`], preserving the single-tenant
/// behavior of earlier revisions.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }

    fn admit(&mut self, _job: &Job, _ctx: &AdmissionContext, _now: f64) -> AdmissionDecision {
        AdmissionDecision::Accept
    }
}

/// Per-tenant token-bucket budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Sustained admission rate in jobs per virtual second.
    pub rate_hz: f64,
    /// Burst capacity in jobs (the bucket's size; also its initial fill).
    pub burst: f64,
    /// Queue-depth limit: arrivals while this many of the tenant's jobs are
    /// already queued shed immediately.
    pub max_queue_depth: usize,
    /// Arrivals that have already been deferred for longer than this shed
    /// instead of deferring again.
    pub max_defer_seconds: f64,
    /// Shed jobs whose deadline is provably unreachable at admission time
    /// (best-case predicted completion past the deadline) instead of
    /// queueing doomed work.  Deadline-free jobs are never affected; off by
    /// default.
    pub shed_infeasible: bool,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        Self {
            rate_hz: 1.0,
            burst: 4.0,
            max_queue_depth: 64,
            max_defer_seconds: 120.0,
            shed_infeasible: false,
        }
    }
}

impl TokenBucketConfig {
    /// Reject budgets that would divide by zero or defer forever.
    fn validate(&self) {
        assert!(
            self.rate_hz.is_finite() && self.rate_hz > 0.0,
            "token-bucket rate must be positive and finite, got {}",
            self.rate_hz
        );
        assert!(
            self.burst.is_finite() && self.burst >= 1.0,
            "token-bucket burst must be at least 1, got {}",
            self.burst
        );
        assert!(
            self.max_defer_seconds.is_finite() && self.max_defer_seconds >= 0.0,
            "max_defer_seconds must be non-negative and finite, got {}",
            self.max_defer_seconds
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct BucketState {
    tokens: f64,
    last_refill: f64,
}

/// Token-bucket admission: per-tenant rate budgets, queue-depth limits and
/// (optionally) deadline-infeasibility shedding.
///
/// Tenants without an explicit budget use the default configuration.  All
/// state lives on the virtual clock, so a seeded simulation with admission
/// control replays bit-identically.
///
/// ```
/// use sx_cluster::prelude::*;
///
/// let mut gate = TokenBucket::new(TokenBucketConfig {
///     rate_hz: 1.0,            // one job per virtual second, sustained
///     burst: 2.0,              // up to two back-to-back
///     ..TokenBucketConfig::default()
/// });
/// let job = |id| Job {
///     id,
///     tenant: TenantId::DEFAULT,
///     family: "demo".into(),
///     lps: 10,
///     topology_key: 1,
///     arrival: 0.0,
///     deadline: None,
/// };
/// let ctx = AdmissionContext::with_depth(0);
///
/// // The burst is admitted, then arrivals defer until the next token.
/// assert_eq!(gate.admit(&job(0), &ctx, 0.0), AdmissionDecision::Accept);
/// assert_eq!(gate.admit(&job(1), &ctx, 0.0), AdmissionDecision::Accept);
/// match gate.admit(&job(2), &ctx, 0.0) {
///     AdmissionDecision::Defer { until } => assert!((until - 1.0).abs() < 1e-12),
///     other => panic!("expected a defer, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct TokenBucket {
    default_config: TokenBucketConfig,
    per_tenant: BTreeMap<usize, TokenBucketConfig>,
    state: BTreeMap<usize, BucketState>,
}

impl TokenBucket {
    /// A controller applying `config` to every tenant.
    pub fn new(config: TokenBucketConfig) -> Self {
        config.validate();
        Self {
            default_config: config,
            per_tenant: BTreeMap::new(),
            state: BTreeMap::new(),
        }
    }

    /// Override the budget of one tenant.
    pub fn with_tenant_budget(mut self, tenant: TenantId, config: TokenBucketConfig) -> Self {
        config.validate();
        self.per_tenant.insert(tenant.index(), config);
        self
    }

    /// The budget applied to `tenant`.
    pub fn budget(&self, tenant: TenantId) -> TokenBucketConfig {
        self.per_tenant
            .get(&tenant.index())
            .copied()
            .unwrap_or(self.default_config)
    }

    /// Tokens currently available to `tenant` if refilled at `now` (for
    /// inspection and tests; does not mutate the bucket).
    pub fn tokens_at(&self, tenant: TenantId, now: f64) -> f64 {
        let config = self.budget(tenant);
        match self.state.get(&tenant.index()) {
            Some(s) => {
                (s.tokens + (now - s.last_refill).max(0.0) * config.rate_hz).min(config.burst)
            }
            None => config.burst,
        }
    }
}

impl AdmissionController for TokenBucket {
    fn name(&self) -> &'static str {
        "token-bucket"
    }

    fn admit(&mut self, job: &Job, ctx: &AdmissionContext, now: f64) -> AdmissionDecision {
        let config = self.budget(job.tenant);
        // Doomed work is shed before it can spend tokens or queue slots:
        // the engine's estimate is a best case, so `completion > deadline`
        // proves the miss — a feasible job can never trip this.
        if config.shed_infeasible {
            if let (Some(deadline), Some(completion)) = (job.deadline, ctx.predicted_completion) {
                if completion > deadline {
                    return AdmissionDecision::ShedInfeasible;
                }
            }
        }
        let state = self.state.entry(job.tenant.index()).or_insert(BucketState {
            tokens: config.burst,
            last_refill: now,
        });
        // Refill on the virtual clock.
        state.tokens =
            (state.tokens + (now - state.last_refill).max(0.0) * config.rate_hz).min(config.burst);
        state.last_refill = now;

        if ctx.tenant_queue_depth >= config.max_queue_depth {
            return AdmissionDecision::Shed;
        }
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            return AdmissionDecision::Accept;
        }
        // Out of tokens.  `job.arrival` is the original submission time (the
        // engine preserves it across deferrals in open mode), so `now -
        // arrival` is the total time this job has already been deferred.
        if now - job.arrival >= config.max_defer_seconds {
            return AdmissionDecision::Shed;
        }
        AdmissionDecision::Defer {
            until: now + (1.0 - state.tokens) / config.rate_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, tenant: usize, arrival: f64) -> Job {
        Job {
            id,
            tenant: TenantId(tenant),
            family: "test".into(),
            lps: 10,
            topology_key: 1,
            arrival,
            deadline: None,
        }
    }

    fn deadline_job(id: usize, tenant: usize, arrival: f64, deadline: f64) -> Job {
        Job {
            deadline: Some(deadline),
            ..job(id, tenant, arrival)
        }
    }

    #[test]
    fn admit_all_accepts_everything() {
        let mut c = AdmitAll;
        assert_eq!(c.name(), "admit-all");
        assert_eq!(
            c.admit(
                &job(0, 0, 0.0),
                &AdmissionContext::with_depth(usize::MAX - 1),
                1e9
            ),
            AdmissionDecision::Accept
        );
    }

    #[test]
    fn burst_is_accepted_then_arrivals_defer_until_the_next_token() {
        let mut c = TokenBucket::new(TokenBucketConfig {
            rate_hz: 1.0,
            burst: 2.0,
            max_queue_depth: 100,
            max_defer_seconds: 100.0,
            ..TokenBucketConfig::default()
        });
        assert_eq!(
            c.admit(&job(0, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Accept
        );
        assert_eq!(
            c.admit(&job(1, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Accept
        );
        // Bucket empty: the defer lands exactly when one token accrues.
        match c.admit(&job(2, 0, 0.0), &AdmissionContext::with_depth(0), 0.0) {
            AdmissionDecision::Defer { until } => assert!((until - 1.0).abs() < 1e-12),
            other => panic!("expected defer, got {other:?}"),
        }
        // After the refill interval the same job is accepted.
        assert_eq!(
            c.admit(&job(2, 0, 0.0), &AdmissionContext::with_depth(0), 1.0),
            AdmissionDecision::Accept
        );
    }

    #[test]
    fn queue_depth_limit_sheds_immediately() {
        let mut c = TokenBucket::new(TokenBucketConfig {
            max_queue_depth: 3,
            ..TokenBucketConfig::default()
        });
        assert_eq!(
            c.admit(&job(0, 0, 0.0), &AdmissionContext::with_depth(2), 0.0),
            AdmissionDecision::Accept
        );
        assert_eq!(
            c.admit(&job(1, 0, 0.0), &AdmissionContext::with_depth(3), 0.0),
            AdmissionDecision::Shed
        );
    }

    #[test]
    fn deferred_past_the_limit_sheds() {
        let mut c = TokenBucket::new(TokenBucketConfig {
            rate_hz: 0.001, // tokens accrue glacially
            burst: 1.0,
            max_queue_depth: 100,
            max_defer_seconds: 10.0,
            ..TokenBucketConfig::default()
        });
        assert_eq!(
            c.admit(&job(0, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Accept
        );
        // A job that originally arrived at t=0 re-arrives at t=11, past the
        // defer budget: shed, not deferred again.
        assert!(matches!(
            c.admit(&job(1, 0, 0.0), &AdmissionContext::with_depth(0), 5.0),
            AdmissionDecision::Defer { .. }
        ));
        assert_eq!(
            c.admit(&job(1, 0, 0.0), &AdmissionContext::with_depth(0), 11.0),
            AdmissionDecision::Shed
        );
    }

    #[test]
    fn budgets_are_per_tenant() {
        let mut c = TokenBucket::new(TokenBucketConfig {
            rate_hz: 0.5,
            burst: 1.0,
            ..TokenBucketConfig::default()
        })
        .with_tenant_budget(
            TenantId(1),
            TokenBucketConfig {
                rate_hz: 100.0,
                burst: 100.0,
                ..TokenBucketConfig::default()
            },
        );
        // Tenant 0 exhausts its single token; tenant 1's budget is its own.
        assert_eq!(
            c.admit(&job(0, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Accept
        );
        assert!(matches!(
            c.admit(&job(1, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Defer { .. }
        ));
        for id in 0..50 {
            assert_eq!(
                c.admit(&job(10 + id, 1, 0.0), &AdmissionContext::with_depth(0), 0.0),
                AdmissionDecision::Accept,
                "tenant 1 job {id} should fit its generous budget"
            );
        }
        assert_eq!(c.budget(TenantId(1)).burst, 100.0);
        assert!((c.tokens_at(TenantId(0), 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_deadlines_shed_only_when_enabled_and_proven() {
        let enabled = TokenBucketConfig {
            shed_infeasible: true,
            ..TokenBucketConfig::default()
        };
        let mut c = TokenBucket::new(enabled);
        let doomed_ctx = AdmissionContext {
            tenant_queue_depth: 0,
            predicted_completion: Some(20.0),
        };
        // Deadline before the best-case completion: provably doomed.
        assert_eq!(
            c.admit(&deadline_job(0, 0, 0.0, 15.0), &doomed_ctx, 0.0),
            AdmissionDecision::ShedInfeasible
        );
        // Deadline at/after the best case: still feasible, accepted.
        assert_eq!(
            c.admit(&deadline_job(1, 0, 0.0, 20.0), &doomed_ctx, 0.0),
            AdmissionDecision::Accept
        );
        // Deadline-free jobs and missing estimates are untouched.
        assert_eq!(
            c.admit(&job(2, 0, 0.0), &doomed_ctx, 0.0),
            AdmissionDecision::Accept
        );
        assert_eq!(
            c.admit(
                &deadline_job(3, 0, 0.0, 1.0),
                &AdmissionContext::with_depth(0),
                0.0
            ),
            AdmissionDecision::Accept
        );
        // With the flag off (default), even a doomed job queues.
        let mut off = TokenBucket::new(TokenBucketConfig::default());
        assert_eq!(
            off.admit(&deadline_job(4, 0, 0.0, 15.0), &doomed_ctx, 0.0),
            AdmissionDecision::Accept
        );
    }

    #[test]
    fn infeasible_shedding_burns_no_tokens() {
        let mut c = TokenBucket::new(TokenBucketConfig {
            burst: 1.0,
            shed_infeasible: true,
            ..TokenBucketConfig::default()
        });
        let doomed_ctx = AdmissionContext {
            tenant_queue_depth: 0,
            predicted_completion: Some(100.0),
        };
        for id in 0..5 {
            assert_eq!(
                c.admit(&deadline_job(id, 0, 0.0, 1.0), &doomed_ctx, 0.0),
                AdmissionDecision::ShedInfeasible
            );
        }
        // The full burst is still available to the feasible arrival.
        assert_eq!(
            c.admit(&job(9, 0, 0.0), &AdmissionContext::with_depth(0), 0.0),
            AdmissionDecision::Accept
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_budgets_are_rejected() {
        TokenBucket::new(TokenBucketConfig {
            rate_hz: 0.0,
            ..TokenBucketConfig::default()
        });
    }
}

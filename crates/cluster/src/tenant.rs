//! Tenants: who owns each job, and how a shared fleet is composed.
//!
//! The paper models one machine serving one user; the ROADMAP's target is a
//! datacenter serving *millions* — and a shared QPU fleet is multi-tenant.
//! Without tenancy the simulator optimizes aggregate latency only, so one
//! bursty tenant can monopolize the fleet and every other tenant's p99
//! collapses.  This module makes tenancy first-class:
//!
//! * [`TenantId`] — every [`Job`] carries one; plain
//!   single-tenant workloads use [`TenantId::DEFAULT`].
//! * [`TenantMeta`] — the per-tenant identity a [`Workload`] carries along:
//!   name and fair-share weight, consumed by the metrics layer and the
//!   weighted-fair scheduler.
//! * [`TenantSpec`] / [`MultiTenantSpec`] — the multi-tenant composition of
//!   [`WorkloadSpec`]: N tenants, each with its own arrival process,
//!   topology mix and weight, merged into one deterministic job stream.
//!
//! The [`MultiTenantSpec::aggressor_victim`] constructor builds the
//! canonical fairness scenario (one well-behaved tenant, one flooding it at
//! a configurable arrival asymmetry) shared by the `cluster_sim --mode
//! fairness` sweep, the integration tests and the proptests.

use crate::job::Job;
use crate::workload::{
    ArrivalProcess, DeadlinePolicy, FamilySpec, Workload, WorkloadError, WorkloadSpec,
};

/// Identity of the tenant that submitted a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub usize);

impl TenantId {
    /// The implicit tenant of single-tenant workloads.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The tenant's index (also its lane in the weighted-fair scheduler).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-tenant identity carried by a generated [`Workload`]: what the
/// metrics layer and the weighted-fair scheduler need to know about a
/// tenant without re-deriving it from the job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMeta {
    /// The tenant's id (index into the composition).
    pub id: TenantId,
    /// Human-readable label used in reports.
    pub name: String,
    /// Fair-share weight (relative; need not be normalized).
    pub weight: f64,
}

impl TenantMeta {
    /// The implicit tenant of single-tenant workloads: weight 1.
    pub fn single() -> Self {
        Self {
            id: TenantId::DEFAULT,
            name: "default".to_string(),
            weight: 1.0,
        }
    }
}

/// One tenant's contribution to a multi-tenant workload: its own job
/// count, arrival process and topology mix, plus a fair-share weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable label used in reports.
    pub name: String,
    /// Fair-share weight (must be positive and finite).
    pub weight: f64,
    /// Number of jobs this tenant submits.
    pub jobs: usize,
    /// The tenant's own arrival process.
    pub arrivals: ArrivalProcess,
    /// The tenant's own `(weight, family)` topology mix.
    pub mix: Vec<(f64, FamilySpec)>,
    /// How this tenant's jobs are stamped with completion deadlines
    /// ([`DeadlinePolicy::None`] = the tenant has no SLO).  Policies are
    /// per-tenant: a latency-sensitive tenant can run tight proportional
    /// slack while a batch tenant runs deadline-free in the same stream.
    pub deadlines: DeadlinePolicy,
}

/// A multi-tenant workload composition: N tenants, each generating its own
/// seeded stream, merged into one arrival-ordered job stream.
///
/// Generation is deterministic: tenant `i` draws from a sub-seed derived
/// from `seed` and `i`, so adding a tenant never perturbs the streams of
/// the others.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantSpec {
    /// Base seed; tenant `i` uses a sub-seed derived from `seed` and `i`.
    pub seed: u64,
    /// The tenants, in id order.
    pub tenants: Vec<TenantSpec>,
}

impl MultiTenantSpec {
    /// The canonical fairness scenario: a well-behaved *victim* tenant
    /// (id 0) plus an *aggressor* tenant (id 1) arriving `asymmetry` times
    /// faster with `asymmetry` times as many jobs.  `victim_weight` is the
    /// victim's fair-share weight relative to the aggressor's 1.0.
    ///
    /// The victim re-solves a small repeated-topology mix (its embeddings
    /// warm quickly, so its isolated-run latency is low and stable).  The
    /// aggressor is deliberately *cache-busting*: a diverse Gnp mix whose
    /// jobs mostly embed cold, so at high asymmetry it genuinely saturates
    /// the fleet's stage-1 capacity — the regime where FIFO lets the
    /// victim's p99 blow up and weighted fair queueing must not.
    ///
    /// ```
    /// use sx_cluster::prelude::*;
    ///
    /// // 10 victim jobs at 0.5 Hz; the aggressor submits 4x as many, 4x
    /// // as fast; the victim carries fair-share weight 2.0.
    /// let spec = MultiTenantSpec::aggressor_victim(10, 0.5, 4.0, 2.0, 7);
    /// let workload = spec.generate();
    ///
    /// assert_eq!(workload.jobs.len(), 50); // 10 victim + 40 aggressor
    /// assert_eq!(workload.weights(), vec![2.0, 1.0]);
    /// assert_eq!(workload.tenants[0].name, "victim");
    /// // Generation is a pure function of the spec.
    /// assert_eq!(workload, spec.generate());
    /// ```
    pub fn aggressor_victim(
        victim_jobs: usize,
        victim_rate_hz: f64,
        asymmetry: f64,
        victim_weight: f64,
        seed: u64,
    ) -> Self {
        Self {
            seed,
            tenants: vec![
                TenantSpec {
                    name: "victim".to_string(),
                    weight: victim_weight,
                    jobs: victim_jobs,
                    arrivals: ArrivalProcess::Poisson {
                        rate_hz: victim_rate_hz,
                    },
                    mix: vec![(
                        1.0,
                        FamilySpec::MaxCutCycle {
                            sizes: vec![16, 20],
                        },
                    )],
                    deadlines: DeadlinePolicy::None,
                },
                TenantSpec {
                    name: "aggressor".to_string(),
                    weight: 1.0,
                    jobs: ((victim_jobs as f64) * asymmetry).round() as usize,
                    arrivals: ArrivalProcess::Poisson {
                        rate_hz: victim_rate_hz * asymmetry,
                    },
                    mix: vec![(
                        1.0,
                        FamilySpec::MaxCutGnp {
                            n: 24,
                            p: 0.3,
                            variants: 24,
                        },
                    )],
                    deadlines: DeadlinePolicy::None,
                },
            ],
        }
    }

    /// The same composition with every tenant's jobs stamped by `deadlines`
    /// — the one-liner for turning a fairness scenario into an SLO scenario.
    /// Set [`TenantSpec::deadlines`] directly for per-tenant policies.
    pub fn with_uniform_deadlines(mut self, deadlines: DeadlinePolicy) -> Self {
        for tenant in &mut self.tenants {
            tenant.deadlines = deadlines;
        }
        self
    }

    /// The per-tenant fair-share weights, indexed by tenant id.
    pub fn weights(&self) -> Vec<f64> {
        self.tenants.iter().map(|t| t.weight).collect()
    }

    /// Check the composition: at least one tenant, positive finite weights,
    /// and every per-tenant stream valid under the single-tenant rules.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.tenants.is_empty() {
            return Err(WorkloadError::NoTenants);
        }
        for (index, tenant) in self.tenants.iter().enumerate() {
            if !(tenant.weight.is_finite() && tenant.weight > 0.0) {
                return Err(WorkloadError::InvalidTenantWeight {
                    tenant: tenant.name.clone(),
                    weight: tenant.weight,
                });
            }
            self.tenant_spec(index).validate()?;
        }
        Ok(())
    }

    /// Generate the merged job stream, rejecting invalid compositions with
    /// a [`WorkloadError`] instead of panicking mid-generation.
    pub fn try_generate(&self) -> Result<Workload, WorkloadError> {
        self.validate()?;
        let mut jobs: Vec<Job> = Vec::new();
        for index in 0..self.tenants.len() {
            let stream = self.tenant_spec(index).generate_unchecked_jobs();
            jobs.extend(stream.into_iter().map(|mut job| {
                job.tenant = TenantId(index);
                job
            }));
        }
        // Merge by arrival; ties broken by tenant then per-tenant order, so
        // the merge — like everything else — is a pure function of the spec.
        jobs.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.id.cmp(&b.id))
        });
        for (id, job) in jobs.iter_mut().enumerate() {
            job.id = id;
        }
        Ok(Workload {
            jobs,
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(index, tenant)| TenantMeta {
                    id: TenantId(index),
                    name: tenant.name.clone(),
                    weight: tenant.weight,
                })
                .collect(),
        })
    }

    /// Generate the merged job stream.
    ///
    /// # Panics
    /// Panics on an invalid composition; use [`Self::try_generate`] for the
    /// validation error instead.
    pub fn generate(&self) -> Workload {
        self.try_generate()
            .unwrap_or_else(|err| panic!("invalid multi-tenant spec: {err}"))
    }

    /// The single-tenant [`WorkloadSpec`] of the stream of tenant `index`.
    /// The sub-seed mixes in the position, so two tenants with identical
    /// specs still draw distinct streams.
    fn tenant_spec(&self, index: usize) -> WorkloadSpec {
        let tenant = &self.tenants[index];
        WorkloadSpec {
            jobs: tenant.jobs,
            seed: self
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
            arrivals: tenant.arrivals,
            mix: tenant.mix.clone(),
            deadlines: tenant.deadlines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants(seed: u64) -> MultiTenantSpec {
        MultiTenantSpec::aggressor_victim(10, 0.5, 4.0, 1.0, seed)
    }

    #[test]
    fn tenant_ids_display_and_order() {
        assert_eq!(TenantId(3).to_string(), "t3");
        assert_eq!(TenantId::DEFAULT, TenantId(0));
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId(5).index(), 5);
    }

    #[test]
    fn generation_merges_streams_in_arrival_order() {
        let w = two_tenants(7).generate();
        assert_eq!(w.jobs.len(), 50);
        assert_eq!(w.tenants.len(), 2);
        assert!(w.jobs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        for (i, job) in w.jobs.iter().enumerate() {
            assert_eq!(job.id, i);
        }
        // Both tenants are present, at roughly the configured 4:1 split.
        let victim = w.jobs.iter().filter(|j| j.tenant == TenantId(0)).count();
        let aggressor = w.jobs.iter().filter(|j| j.tenant == TenantId(1)).count();
        assert_eq!(victim, 10);
        assert_eq!(aggressor, 40);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = two_tenants(9).generate();
        let b = two_tenants(9).generate();
        assert_eq!(a, b);
        let c = two_tenants(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn tenants_draw_disjoint_topology_sets() {
        let w = two_tenants(3).generate();
        let keys = |id: usize| -> std::collections::HashSet<u64> {
            w.jobs
                .iter()
                .filter(|j| j.tenant == TenantId(id))
                .map(|j| j.topology_key)
                .collect()
        };
        assert!(keys(0).is_disjoint(&keys(1)));
    }

    #[test]
    fn identical_tenant_specs_still_draw_distinct_streams() {
        let tenant = TenantSpec {
            name: "clone".to_string(),
            weight: 1.0,
            jobs: 8,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
            mix: vec![(1.0, FamilySpec::Partition { n: 12 })],
            deadlines: DeadlinePolicy::None,
        };
        let spec = MultiTenantSpec {
            seed: 5,
            tenants: vec![tenant.clone(), tenant],
        };
        let w = spec.generate();
        let arrivals = |id: usize| -> Vec<f64> {
            w.jobs
                .iter()
                .filter(|j| j.tenant == TenantId(id))
                .map(|j| j.arrival)
                .collect()
        };
        assert_ne!(arrivals(0), arrivals(1));
    }

    #[test]
    fn invalid_compositions_are_rejected() {
        let empty = MultiTenantSpec {
            seed: 1,
            tenants: vec![],
        };
        assert_eq!(empty.try_generate().unwrap_err(), WorkloadError::NoTenants);

        for weight in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let mut spec = two_tenants(1);
            spec.tenants[0].weight = weight;
            assert!(
                matches!(
                    spec.try_generate().unwrap_err(),
                    WorkloadError::InvalidTenantWeight { .. }
                ),
                "weight {weight} should be rejected"
            );
        }

        // Per-tenant streams go through the single-tenant validation.
        let mut spec = two_tenants(1);
        spec.tenants[1].mix = vec![(1.0, FamilySpec::MaxCutCycle { sizes: vec![] })];
        assert!(matches!(
            spec.try_generate().unwrap_err(),
            WorkloadError::DegenerateFamily { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "invalid multi-tenant spec")]
    fn generate_panics_with_the_validation_message() {
        MultiTenantSpec {
            seed: 0,
            tenants: vec![],
        }
        .generate();
    }

    #[test]
    fn per_tenant_deadline_policies_stamp_independently() {
        // Tenant 0 runs a tight fixed slack, tenant 1 stays deadline-free.
        let mut spec = two_tenants(5);
        spec.tenants[0].deadlines = DeadlinePolicy::FixedSlack { slack_seconds: 4.0 };
        let w = spec.generate();
        for job in &w.jobs {
            match job.tenant {
                TenantId(0) => {
                    let d = job.deadline.expect("victim jobs carry deadlines");
                    assert!((d - job.arrival - 4.0).abs() < 1e-12);
                }
                _ => assert!(job.deadline.is_none(), "aggressor must stay deadline-free"),
            }
        }
        // The uniform helper covers every tenant.
        let uniform = two_tenants(5)
            .with_uniform_deadlines(DeadlinePolicy::ProportionalSlack { factor: 3.0 })
            .generate();
        assert_eq!(uniform.deadline_jobs(), uniform.jobs.len());
        // Deadline stamping does not perturb the arrival stream.
        let free = two_tenants(5).generate();
        let arrivals = |w: &Workload| w.jobs.iter().map(|j| j.arrival).collect::<Vec<f64>>();
        assert_eq!(arrivals(&free), arrivals(&uniform));
    }

    #[test]
    fn invalid_deadline_policies_are_rejected_per_tenant() {
        let mut spec = two_tenants(2);
        spec.tenants[1].deadlines = DeadlinePolicy::FixedSlack {
            slack_seconds: -3.0,
        };
        assert!(matches!(
            spec.try_generate().unwrap_err(),
            WorkloadError::InvalidDeadlinePolicy { .. }
        ));
    }

    #[test]
    fn weights_follow_the_composition() {
        let spec = MultiTenantSpec::aggressor_victim(5, 0.5, 10.0, 4.0, 2);
        assert_eq!(spec.weights(), vec![4.0, 1.0]);
        let w = spec.generate();
        assert_eq!(w.tenants[0].name, "victim");
        assert_eq!(w.tenants[0].weight, 4.0);
        assert_eq!(w.tenants[1].name, "aggressor");
        assert_eq!(w.tenants[1].weight, 1.0);
    }
}

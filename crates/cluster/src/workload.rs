//! Workload generation: job streams drawn from the paper's problem families.
//!
//! A workload is a seeded, deterministic stream of [`Job`]s: each job is a
//! real problem instance from [`qubo_ising::problems`] (MAX-CUT, number
//! partitioning, vertex cover) reduced to the simulator's view — logical
//! problem size plus canonical interaction-topology key — and stamped with
//! an arrival time from an open arrival process (Poisson or bursty).  The
//! topology keys are computed through the *actual* QUBO → Ising reduction,
//! so "two jobs share an embedding" in the simulator means exactly what it
//! means in [`split_exec`]'s batch path.
//!
//! Mixes with few distinct topologies (re-solving a problem family with
//! fresh coefficients — the production shape the ROADMAP targets) are where
//! embedding-cache-affinity scheduling pays off; mixes of all-distinct
//! topologies degenerate to every job being cold.

use crate::job::Job;
use crate::tenant::{TenantId, TenantMeta};
use chimera_graph::generators;
use qubo_ising::problems::maxcut::MaxCut;
use qubo_ising::problems::partition::NumberPartition;
use qubo_ising::problems::vertex_cover::VertexCover;
use qubo_ising::{qubo_to_ising, Qubo};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use split_exec::cost::CostModel;
use split_exec::offline_cache::graph_key;
use split_exec::{QpuModel, SplitExecConfig};

/// Why a [`WorkloadSpec`] is invalid.
///
/// Degenerate specs used to surface as panics deep inside generation
/// (`rng.gen_range(0..0)` for an empty family, NaN/∞ arrival times from a
/// zero-rate or zero-burst process); [`WorkloadSpec::validate`] rejects
/// them up front with a description of the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The arrival rate is zero, negative or non-finite.
    InvalidRate {
        /// The offending rate.
        rate_hz: f64,
    },
    /// A bursty process with zero jobs per burst.
    ZeroBurst,
    /// The family mix is empty.
    EmptyMix,
    /// A mix weight is negative or non-finite.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// All mix weights are zero.
    NoPositiveWeight,
    /// A family spec cannot produce instances.
    DegenerateFamily {
        /// The family's debug label.
        family: String,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// A deadline policy with a non-positive or non-finite parameter.
    InvalidDeadlinePolicy {
        /// The offending parameter value (slack seconds or slack factor).
        value: f64,
    },
    /// A multi-tenant composition with no tenants.
    NoTenants,
    /// A tenant's fair-share weight is non-positive or non-finite.
    InvalidTenantWeight {
        /// The tenant's name.
        tenant: String,
        /// The offending weight.
        weight: f64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::InvalidRate { rate_hz } => {
                write!(f, "arrival rate must be positive and finite, got {rate_hz}")
            }
            WorkloadError::ZeroBurst => {
                write!(f, "bursty arrivals need at least one job per burst")
            }
            WorkloadError::EmptyMix => write!(f, "workload mix must contain at least one family"),
            WorkloadError::InvalidWeight { weight } => {
                write!(
                    f,
                    "mix weights must be non-negative and finite, got {weight}"
                )
            }
            WorkloadError::NoPositiveWeight => {
                write!(
                    f,
                    "workload mix must contain at least one positively weighted family"
                )
            }
            WorkloadError::DegenerateFamily { family, problem } => {
                write!(f, "family {family} is degenerate: {problem}")
            }
            WorkloadError::InvalidDeadlinePolicy { value } => {
                write!(f, "deadline slack must be positive and finite, got {value}")
            }
            WorkloadError::NoTenants => {
                write!(f, "a multi-tenant composition needs at least one tenant")
            }
            WorkloadError::InvalidTenantWeight { tenant, weight } => {
                write!(
                    f,
                    "tenant {tenant} weight must be positive and finite, got {weight}"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// How jobs arrive in an open workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times with the given
    /// mean rate.
    Poisson {
        /// Mean arrival rate in jobs per (virtual) second.
        rate_hz: f64,
    },
    /// Bursty arrivals: bursts of `burst` back-to-back jobs, with the
    /// bursts themselves Poisson at `rate_hz / burst` so the long-run rate
    /// matches the Poisson process of the same `rate_hz`.
    Bursty {
        /// Long-run mean arrival rate in jobs per second.
        rate_hz: f64,
        /// Jobs per burst.
        burst: usize,
    },
}

/// How a generated job's completion deadline is derived from its arrival.
///
/// A deadline is an *absolute* virtual time: the latest finish the
/// submitting tenant considers acceptable.  The generator stamps it as
/// `arrival + slack`, where the slack comes from the policy:
///
/// * [`DeadlinePolicy::None`] — jobs carry no deadline (the pre-SLO
///   behavior, and the default); EDF ordering degrades to FIFO and the SLO
///   metrics stay empty.
/// * [`DeadlinePolicy::FixedSlack`] — every job gets the same slack,
///   regardless of size.  Small jobs are loose, big jobs are tight: the
///   shape of a customer-facing latency promise.
/// * [`DeadlinePolicy::ProportionalSlack`] — the slack is `factor` times
///   the job's predicted *cold* service time on the paper's reference
///   machine (a [`split_exec::CostModel`] of the paper's DW2X-class QPU).
///   A factor of 1.0 is only feasible on an idle fleet with a cold cache;
///   production SLOs live around 2–10.  The prediction is analytic and
///   tabulated once per stream, so stamping stays deterministic and cheap.
///
/// Like everything else about a workload, deadlines are a pure function of
/// the spec — two generations of the same spec stamp bit-identical
/// deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeadlinePolicy {
    /// No deadlines (the default).
    #[default]
    None,
    /// `deadline = arrival + slack_seconds` for every job.
    FixedSlack {
        /// The uniform slack in virtual seconds (must be positive, finite).
        slack_seconds: f64,
    },
    /// `deadline = arrival + factor × predicted cold service` on the
    /// reference machine.
    ProportionalSlack {
        /// Multiplier on the predicted cold service time (must be positive,
        /// finite).
        factor: f64,
    },
}

impl DeadlinePolicy {
    /// Reject non-positive or non-finite slack parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let value = match self {
            DeadlinePolicy::None => return Ok(()),
            DeadlinePolicy::FixedSlack { slack_seconds } => *slack_seconds,
            DeadlinePolicy::ProportionalSlack { factor } => *factor,
        };
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(WorkloadError::InvalidDeadlinePolicy { value })
        }
    }

    /// The deadline of a job arriving at `arrival` with logical problem
    /// size `lps`, consulting `reference` for predicted service when the
    /// slack is proportional.
    fn deadline_for(&self, arrival: f64, lps: usize, reference: Option<&CostModel>) -> Option<f64> {
        match self {
            DeadlinePolicy::None => None,
            DeadlinePolicy::FixedSlack { slack_seconds } => Some(arrival + slack_seconds),
            DeadlinePolicy::ProportionalSlack { factor } => {
                // An analytic-model failure cannot happen for sizes the
                // generator produces; fall back to deadline-free rather
                // than poisoning the stream with NaN.
                let predicted = reference?.costs(lps).ok()?.total_cold_seconds();
                Some(arrival + factor * predicted)
            }
        }
    }
}

/// One problem family in a workload mix.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilySpec {
    /// MAX-CUT over a cycle of `n` vertices with random edge weights: every
    /// job of the same `n` shares one interaction topology.
    MaxCutCycle {
        /// Cycle sizes to draw from (uniformly).
        sizes: Vec<usize>,
    },
    /// MAX-CUT over Erdős–Rényi graphs: `variants` distinct topologies of
    /// `n` vertices, drawn uniformly per job.
    MaxCutGnp {
        /// Vertex count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Number of distinct graph variants in circulation.
        variants: usize,
    },
    /// Number partitioning of `n` random values — the interaction graph is
    /// the complete graph `K_n`, so all jobs of one `n` share a topology.
    Partition {
        /// Set size.
        n: usize,
    },
    /// Minimum vertex cover over a fixed grid — one topology for the whole
    /// family.
    VertexCoverGrid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

impl FamilySpec {
    /// Reject fields that would make [`Self::instantiate`] panic or emit
    /// size-zero problems.
    fn validate(&self) -> Result<(), WorkloadError> {
        let degenerate = |problem| {
            Err(WorkloadError::DegenerateFamily {
                family: format!("{self:?}"),
                problem,
            })
        };
        match self {
            FamilySpec::MaxCutCycle { sizes } => {
                if sizes.is_empty() {
                    return degenerate("no cycle sizes to draw from");
                }
                if sizes.iter().any(|&n| n < 3) {
                    return degenerate("a cycle needs at least 3 vertices");
                }
            }
            FamilySpec::MaxCutGnp { n, p, variants } => {
                if *n < 2 {
                    return degenerate("a Gnp graph needs at least 2 vertices");
                }
                if !(0.0..=1.0).contains(p) {
                    return degenerate("edge probability must lie in [0, 1]");
                }
                if *variants == 0 {
                    return degenerate("no graph variants to draw from");
                }
            }
            FamilySpec::Partition { n } => {
                if *n < 2 {
                    return degenerate("partitioning needs at least 2 numbers");
                }
            }
            FamilySpec::VertexCoverGrid { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return degenerate("a grid needs at least one row and column");
                }
            }
        }
        Ok(())
    }

    /// Generate one concrete instance: a label and the QUBO.
    fn instantiate(&self, rng: &mut ChaCha8Rng, base_seed: u64) -> (String, Qubo) {
        match self {
            FamilySpec::MaxCutCycle { sizes } => {
                let n = sizes[rng.gen_range(0..sizes.len())];
                let graph = generators::cycle(n);
                let weights: Vec<((usize, usize), f64)> = graph
                    .edges()
                    .map(|(u, v)| ((u, v), rng.gen_range(0.5..2.0)))
                    .collect();
                (
                    format!("maxcut-cycle-{n}"),
                    MaxCut::weighted(graph.clone(), &weights).to_qubo(),
                )
            }
            FamilySpec::MaxCutGnp { n, p, variants } => {
                let variant = rng.gen_range(0..*variants);
                // The graph seed depends only on the workload seed and the
                // variant index, so variant k is the same topology in every
                // job that draws it.
                let graph = generators::gnp(*n, *p, base_seed ^ (0xA5A5 + variant as u64));
                let weights: Vec<((usize, usize), f64)> = graph
                    .edges()
                    .map(|(u, v)| ((u, v), rng.gen_range(0.5..2.0)))
                    .collect();
                (
                    format!("maxcut-gnp-{n}-v{variant}"),
                    MaxCut::weighted(graph.clone(), &weights).to_qubo(),
                )
            }
            FamilySpec::Partition { n } => {
                let numbers: Vec<f64> = (0..*n).map(|_| rng.gen_range(1.0..50.0)).collect();
                (
                    format!("partition-{n}"),
                    NumberPartition::new(numbers).to_qubo(),
                )
            }
            FamilySpec::VertexCoverGrid { rows, cols } => (
                format!("vcover-grid-{rows}x{cols}"),
                VertexCover::new(generators::grid(*rows, *cols)).to_qubo(),
            ),
        }
    }
}

/// Specification of a workload: how many jobs, how they arrive, and the
/// weighted mix of problem families they are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// RNG seed — the workload is a pure function of this spec.
    pub seed: u64,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// `(weight, family)` pairs; weights need not be normalized.
    pub mix: Vec<(f64, FamilySpec)>,
    /// How each job's completion deadline is stamped
    /// ([`DeadlinePolicy::None`] = no deadlines).
    pub deadlines: DeadlinePolicy,
}

impl WorkloadSpec {
    /// The repeated-topology mix used by the acceptance demo: three cycle
    /// sizes re-solved with fresh coefficients plus a partition family —
    /// few topologies, many jobs, the shape an embedding cache loves.  The
    /// sizes are large enough that the modeled embedding cost (∝ LPS³)
    /// dwarfs the fixed programming constant, so warm and cold service
    /// times differ by an order of magnitude.
    pub fn repeated_topologies(jobs: usize, rate_hz: f64, seed: u64) -> Self {
        Self {
            jobs,
            seed,
            arrivals: ArrivalProcess::Poisson { rate_hz },
            mix: vec![
                (
                    3.0,
                    FamilySpec::MaxCutCycle {
                        sizes: vec![24, 30, 36],
                    },
                ),
                (1.0, FamilySpec::Partition { n: 28 }),
            ],
            deadlines: DeadlinePolicy::None,
        }
    }

    /// A diverse mix with many distinct topologies (caches help less).
    pub fn mixed(jobs: usize, rate_hz: f64, seed: u64) -> Self {
        Self {
            jobs,
            seed,
            arrivals: ArrivalProcess::Poisson { rate_hz },
            mix: vec![
                (
                    2.0,
                    FamilySpec::MaxCutGnp {
                        n: 14,
                        p: 0.3,
                        variants: 12,
                    },
                ),
                (
                    1.0,
                    FamilySpec::MaxCutCycle {
                        sizes: vec![8, 12, 16, 20],
                    },
                ),
                (1.0, FamilySpec::VertexCoverGrid { rows: 4, cols: 4 }),
            ],
            deadlines: DeadlinePolicy::None,
        }
    }

    /// The repeated-topology mix under bursty arrivals.
    pub fn bursty(jobs: usize, rate_hz: f64, burst: usize, seed: u64) -> Self {
        Self {
            arrivals: ArrivalProcess::Bursty { rate_hz, burst },
            ..Self::repeated_topologies(jobs, rate_hz, seed)
        }
    }

    /// The same spec with every job's deadline stamped by `deadlines`.
    pub fn with_deadlines(mut self, deadlines: DeadlinePolicy) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Check the spec for fields that would produce NaN/∞ arrival times or
    /// panic during generation: non-positive rates, zero-job bursts, empty
    /// mixes, and degenerate family parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let rate_hz = match self.arrivals {
            ArrivalProcess::Poisson { rate_hz } => rate_hz,
            ArrivalProcess::Bursty { rate_hz, burst } => {
                if burst == 0 {
                    return Err(WorkloadError::ZeroBurst);
                }
                rate_hz
            }
        };
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return Err(WorkloadError::InvalidRate { rate_hz });
        }
        if self.mix.is_empty() {
            return Err(WorkloadError::EmptyMix);
        }
        for (weight, family) in &self.mix {
            if !(weight.is_finite() && *weight >= 0.0) {
                return Err(WorkloadError::InvalidWeight { weight: *weight });
            }
            family.validate()?;
        }
        if self.mix.iter().map(|(w, _)| w).sum::<f64>() <= 0.0 {
            return Err(WorkloadError::NoPositiveWeight);
        }
        self.deadlines.validate()
    }

    /// Generate the job stream, rejecting invalid specs with a
    /// [`WorkloadError`] instead of panicking mid-generation.
    pub fn try_generate(&self) -> Result<Workload, WorkloadError> {
        self.validate()?;
        Ok(self.generate_unchecked())
    }

    /// Generate the job stream.
    ///
    /// # Panics
    /// Panics on an invalid spec; use [`Self::try_generate`] to get the
    /// validation error instead.
    pub fn generate(&self) -> Workload {
        self.try_generate()
            .unwrap_or_else(|err| panic!("invalid workload spec: {err}"))
    }

    /// The generation pass proper; assumes [`Self::validate`] succeeded.
    fn generate_unchecked(&self) -> Workload {
        Workload::single_tenant(self.generate_unchecked_jobs())
    }

    /// Generate the raw job stream (default tenant) without wrapping it in
    /// a [`Workload`]; the multi-tenant composition
    /// ([`crate::tenant::MultiTenantSpec`]) re-stamps tenant ids and merges
    /// several of these streams.  Assumes [`Self::validate`] succeeded.
    pub(crate) fn generate_unchecked_jobs(&self) -> Vec<Job> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let total_weight: f64 = self.mix.iter().map(|(w, _)| w.max(0.0)).sum();
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut clock = 0.0_f64;
        let mut burst_remaining = 0usize;
        for id in 0..self.jobs {
            // Advance the arrival clock.
            match self.arrivals {
                ArrivalProcess::Poisson { rate_hz } => {
                    clock += exponential(&mut rng, rate_hz);
                }
                ArrivalProcess::Bursty { rate_hz, burst } => {
                    if burst_remaining == 0 {
                        clock += exponential(&mut rng, rate_hz / burst as f64);
                        burst_remaining = burst;
                    }
                    burst_remaining -= 1;
                }
            }

            // Draw a family by weight.
            let mut draw = rng.gen_range(0.0..total_weight);
            let mut chosen = &self.mix[0].1;
            for (weight, family) in &self.mix {
                let weight = weight.max(0.0);
                if draw < weight {
                    chosen = family;
                    break;
                }
                draw -= weight;
            }

            let (family, qubo) = chosen.instantiate(&mut rng, self.seed);
            let interaction = qubo_to_ising(&qubo).ising.interaction_graph();
            let lps = qubo.num_variables();
            jobs.push(Job {
                id,
                tenant: TenantId::DEFAULT,
                family: family.into(),
                lps,
                topology_key: graph_key(&interaction),
                arrival: clock,
                deadline: None,
            });
        }

        // Deadlines are stamped after the draw loop (`deadline_for` draws
        // no randomness), so the reference table for proportional slack can
        // be sized to the stream.  The reference is the paper's default
        // machine with the default application config — a fixed,
        // fleet-independent yardstick, so the same spec stamps the same
        // deadlines no matter which fleet later serves it.
        let reference = match self.deadlines {
            DeadlinePolicy::ProportionalSlack { .. } => {
                let max_lps = jobs.iter().map(|job| job.lps).max().unwrap_or(0);
                Some(CostModel::new(
                    QpuModel::Dw2x,
                    &SplitExecConfig::default(),
                    max_lps,
                ))
            }
            _ => None,
        };
        for job in &mut jobs {
            job.deadline = self
                .deadlines
                .deadline_for(job.arrival, job.lps, reference.as_ref());
        }
        jobs
    }
}

/// An exponential draw with the given rate (inverse-CDF of a uniform).
fn exponential(rng: &mut ChaCha8Rng, rate_hz: f64) -> f64 {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let u: f64 = rng.gen::<f64>();
    // 1 - u is in (0, 1]; ln of it is finite and non-positive.
    -(1.0 - u).ln() / rate_hz
}

/// A generated job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Jobs in arrival order.
    pub jobs: Vec<Job>,
    /// The tenants the jobs belong to, in id order.  Single-tenant
    /// workloads carry the one default tenant.
    pub tenants: Vec<TenantMeta>,
}

impl Workload {
    /// Wrap a raw job stream as a single-tenant workload (every job is
    /// expected to carry [`TenantId::DEFAULT`]).
    pub fn single_tenant(jobs: Vec<Job>) -> Self {
        Self {
            jobs,
            tenants: vec![TenantMeta::single()],
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The largest logical problem size in the stream.
    pub fn max_lps(&self) -> usize {
        self.jobs.iter().map(|j| j.lps).max().unwrap_or(0)
    }

    /// Number of jobs in the stream carrying a completion deadline.
    pub fn deadline_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.deadline.is_some()).count()
    }

    /// Number of distinct interaction topologies in the stream.
    pub fn distinct_topologies(&self) -> usize {
        let keys: std::collections::HashSet<u64> =
            self.jobs.iter().map(|j| j.topology_key).collect();
        keys.len()
    }

    /// The fair-share weight of `tenant` (1.0 for tenants without
    /// metadata, so hand-built workloads behave uniformly).
    pub fn tenant_weight(&self, tenant: TenantId) -> f64 {
        self.tenants
            .iter()
            .find(|t| t.id == tenant)
            .map(|t| t.weight)
            .unwrap_or(1.0)
    }

    /// Number of tenant lanes the workload spans: one past the highest
    /// tenant id appearing in either the jobs or the tenant metadata.
    /// Both the per-tenant accounting arrays in the engine and the
    /// weighted-fair scheduler's weight vector are sized by this.
    pub fn lane_count(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.tenant.index() + 1)
            .chain(self.tenants.iter().map(|t| t.id.index() + 1))
            .max()
            .unwrap_or(0)
    }

    /// The per-tenant fair-share weights indexed by tenant id — the vector
    /// [`crate::scheduler::WeightedFairQueue::with_weights`] consumes.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.lane_count())
            .map(|id| self.tenant_weight(TenantId(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let spec = WorkloadSpec::repeated_topologies(40, 0.05, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        let c = WorkloadSpec::repeated_topologies(40, 0.05, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_monotone_and_ids_sequential() {
        let w = WorkloadSpec::mixed(60, 0.1, 3).generate();
        assert_eq!(w.len(), 60);
        for (i, job) in w.jobs.iter().enumerate() {
            assert_eq!(job.id, i);
            assert!(job.lps > 0);
        }
        assert!(w.jobs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn repeated_mix_has_few_topologies() {
        let w = WorkloadSpec::repeated_topologies(80, 0.05, 11).generate();
        // Three cycle sizes + one partition size = four distinct topologies.
        assert_eq!(w.distinct_topologies(), 4);
        assert!(w.max_lps() <= 36);
    }

    #[test]
    fn same_family_same_size_shares_a_topology_key() {
        let spec = WorkloadSpec {
            jobs: 30,
            seed: 5,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
            mix: vec![(1.0, FamilySpec::MaxCutCycle { sizes: vec![12] })],
            deadlines: DeadlinePolicy::None,
        };
        let w = spec.generate();
        assert_eq!(w.distinct_topologies(), 1);
        assert!(w.jobs.iter().all(|j| j.lps == 12));
    }

    #[test]
    fn gnp_variants_produce_distinct_topologies() {
        let spec = WorkloadSpec {
            jobs: 60,
            seed: 9,
            arrivals: ArrivalProcess::Poisson { rate_hz: 1.0 },
            mix: vec![(
                1.0,
                FamilySpec::MaxCutGnp {
                    n: 12,
                    p: 0.4,
                    variants: 5,
                },
            )],
            deadlines: DeadlinePolicy::None,
        };
        let w = spec.generate();
        assert!(w.distinct_topologies() > 1);
        assert!(w.distinct_topologies() <= 5);
    }

    #[test]
    fn bursty_arrivals_cluster() {
        let w = WorkloadSpec::bursty(40, 0.1, 8, 3).generate();
        // Within a burst, consecutive arrival gaps are exactly zero.
        let zero_gaps = w
            .jobs
            .windows(2)
            .filter(|p| p[1].arrival == p[0].arrival)
            .count();
        assert!(zero_gaps >= 30, "only {zero_gaps} back-to-back arrivals");
    }

    fn spec_with(arrivals: ArrivalProcess, mix: Vec<(f64, FamilySpec)>) -> WorkloadSpec {
        WorkloadSpec {
            jobs: 4,
            seed: 0,
            arrivals,
            mix,
            deadlines: DeadlinePolicy::None,
        }
    }

    fn default_mix() -> Vec<(f64, FamilySpec)> {
        vec![(1.0, FamilySpec::Partition { n: 8 })]
    }

    #[test]
    fn empty_mix_is_rejected() {
        let spec = spec_with(ArrivalProcess::Poisson { rate_hz: 1.0 }, vec![]);
        assert_eq!(spec.try_generate().unwrap_err(), WorkloadError::EmptyMix);
    }

    #[test]
    fn zero_weight_mix_is_rejected() {
        let spec = spec_with(
            ArrivalProcess::Poisson { rate_hz: 1.0 },
            vec![(0.0, FamilySpec::Partition { n: 8 })],
        );
        assert_eq!(
            spec.try_generate().unwrap_err(),
            WorkloadError::NoPositiveWeight
        );
        let spec = spec_with(
            ArrivalProcess::Poisson { rate_hz: 1.0 },
            vec![(-1.0, FamilySpec::Partition { n: 8 })],
        );
        assert_eq!(
            spec.validate().unwrap_err(),
            WorkloadError::InvalidWeight { weight: -1.0 }
        );
    }

    #[test]
    fn zero_burst_is_rejected_not_nan() {
        // Regression: `Bursty { burst: 0 }` used to reach the arrival-time
        // division as `rate_hz / 0`, yielding NaN/∞ timestamps.
        let spec = spec_with(
            ArrivalProcess::Bursty {
                rate_hz: 1.0,
                burst: 0,
            },
            default_mix(),
        );
        assert_eq!(spec.try_generate().unwrap_err(), WorkloadError::ZeroBurst);
    }

    #[test]
    fn non_positive_rates_are_rejected() {
        for rate_hz in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let spec = spec_with(ArrivalProcess::Poisson { rate_hz }, default_mix());
            assert!(
                matches!(
                    spec.validate().unwrap_err(),
                    WorkloadError::InvalidRate { .. }
                ),
                "rate {rate_hz} should be rejected"
            );
        }
        let spec = spec_with(
            ArrivalProcess::Bursty {
                rate_hz: 0.0,
                burst: 4,
            },
            default_mix(),
        );
        assert!(matches!(
            spec.validate().unwrap_err(),
            WorkloadError::InvalidRate { .. }
        ));
    }

    #[test]
    fn degenerate_families_are_rejected() {
        // Regression: empty `sizes` used to panic in `rng.gen_range(0..0)`.
        let cases = [
            FamilySpec::MaxCutCycle { sizes: vec![] },
            FamilySpec::MaxCutCycle { sizes: vec![2] },
            FamilySpec::MaxCutGnp {
                n: 1,
                p: 0.5,
                variants: 3,
            },
            FamilySpec::MaxCutGnp {
                n: 10,
                p: 1.5,
                variants: 3,
            },
            FamilySpec::MaxCutGnp {
                n: 10,
                p: 0.5,
                variants: 0,
            },
            FamilySpec::Partition { n: 1 },
            FamilySpec::VertexCoverGrid { rows: 0, cols: 4 },
            FamilySpec::VertexCoverGrid { rows: 4, cols: 0 },
        ];
        for family in cases {
            let spec = spec_with(
                ArrivalProcess::Poisson { rate_hz: 1.0 },
                vec![(1.0, family.clone())],
            );
            let err = spec.try_generate().unwrap_err();
            assert!(
                matches!(err, WorkloadError::DegenerateFamily { .. }),
                "{family:?} should be degenerate, got {err:?}"
            );
            // The error names the offending family and renders as text.
            assert!(format!("{err}").contains("degenerate"));
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn generate_panics_with_the_validation_message() {
        spec_with(ArrivalProcess::Poisson { rate_hz: 1.0 }, vec![]).generate();
    }

    #[test]
    fn deadline_free_specs_stamp_no_deadlines() {
        let w = WorkloadSpec::repeated_topologies(10, 1.0, 3).generate();
        assert!(w.jobs.iter().all(|j| j.deadline.is_none()));
        assert_eq!(w.deadline_jobs(), 0);
    }

    #[test]
    fn fixed_slack_deadlines_sit_exactly_slack_past_arrival() {
        let spec = WorkloadSpec::repeated_topologies(12, 1.0, 5)
            .with_deadlines(DeadlinePolicy::FixedSlack { slack_seconds: 9.5 });
        let w = spec.generate();
        assert_eq!(w.deadline_jobs(), 12);
        for job in &w.jobs {
            let deadline = job.deadline.expect("fixed slack stamps every job");
            assert!((deadline - job.arrival - 9.5).abs() < 1e-12);
        }
    }

    #[test]
    fn proportional_slack_scales_with_predicted_service() {
        let spec = WorkloadSpec::repeated_topologies(30, 1.0, 7)
            .with_deadlines(DeadlinePolicy::ProportionalSlack { factor: 2.0 });
        let w = spec.generate();
        assert_eq!(w.deadline_jobs(), 30);
        // Bigger problems get more slack: group by lps and compare.
        let slack = |job: &Job| job.deadline.unwrap() - job.arrival;
        for a in &w.jobs {
            for b in &w.jobs {
                if a.lps < b.lps {
                    assert!(
                        slack(a) < slack(b),
                        "lps {} slack {} !< lps {} slack {}",
                        a.lps,
                        slack(a),
                        b.lps,
                        slack(b)
                    );
                }
                if a.lps == b.lps {
                    assert!((slack(a) - slack(b)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn deadline_stamping_is_deterministic() {
        let spec = WorkloadSpec::mixed(25, 0.8, 11)
            .with_deadlines(DeadlinePolicy::ProportionalSlack { factor: 3.0 });
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn degenerate_deadline_policies_are_rejected() {
        for value in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for policy in [
                DeadlinePolicy::FixedSlack {
                    slack_seconds: value,
                },
                DeadlinePolicy::ProportionalSlack { factor: value },
            ] {
                let spec = WorkloadSpec::repeated_topologies(5, 1.0, 1).with_deadlines(policy);
                assert!(
                    matches!(
                        spec.validate().unwrap_err(),
                        WorkloadError::InvalidDeadlinePolicy { .. }
                    ),
                    "{policy:?} should be rejected"
                );
            }
        }
        assert_eq!(DeadlinePolicy::None.validate(), Ok(()));
    }

    #[test]
    fn valid_specs_pass_validation() {
        assert_eq!(
            WorkloadSpec::repeated_topologies(10, 0.5, 1).validate(),
            Ok(())
        );
        assert_eq!(WorkloadSpec::mixed(10, 0.5, 1).validate(), Ok(()));
        assert_eq!(WorkloadSpec::bursty(10, 0.5, 4, 1).validate(), Ok(()));
        // try_generate agrees with generate on a valid spec.
        let spec = WorkloadSpec::repeated_topologies(10, 0.5, 1);
        assert_eq!(spec.try_generate().unwrap(), spec.generate());
    }
}

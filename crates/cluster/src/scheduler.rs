//! Pluggable scheduling policies.
//!
//! Whenever a device goes idle or a job arrives, the engine repeatedly asks
//! the active [`Scheduler`] for one `(job, device)` assignment until it
//! declines; the engine then dispatches the pair and charges the service
//! time.  All policies must be deterministic — ties are broken by job
//! arrival order and device id — so a seeded simulation replays exactly.
//!
//! Five policies ship:
//!
//! * [`Fifo`] — strict arrival order with head-of-line blocking: the head
//!   job waits for a feasible idle device and nothing overtakes it.  The
//!   baseline, and the policy whose no-reordering property is proptested.
//! * [`ShortestPredictedFirst`] — the classic SJF heuristic with the
//!   paper's analytic model as the oracle: among queued jobs and idle
//!   devices, dispatch the pair with the smallest predicted service time
//!   (cache-aware, so a warm topology counts as short; speed-aware, so a
//!   fast device counts too), minus an arrival-time aging credit
//!   ([`DEFAULT_AGING_WEIGHT`]) so a sustained stream of short jobs cannot
//!   starve a large one.
//! * [`CacheAffinity`] — route jobs to the device whose embedding cache
//!   already holds their topology (taking a faster device when its cold
//!   prediction still wins); cold jobs go to the fastest idle device,
//!   spread within a speed band ([`COLD_SPEED_BAND`]) to the one with the
//!   fewest warm topologies (building specialized caches); a job whose
//!   warm device is busy waits for it only when waiting is predicted
//!   cheaper than re-embedding cold elsewhere.
//! * [`EarliestDeadlineFirst`] — classic EDF over the whole queue: the
//!   queued job with the earliest deadline dispatches first (deadline-free
//!   jobs rank behind every deadline and keep FIFO order among
//!   themselves).  Deadline-optimal on a single machine, but
//!   tenant-oblivious: one tenant submitting tight deadlines starves the
//!   rest.
//! * [`WeightedFairQueue`] — virtual-time weighted fair queueing over
//!   per-tenant lanes: a tenant within its fair share keeps its latency no
//!   matter how hard another tenant floods the fleet, while the cost
//!   oracle still picks warm/fast placements within each lane.  *Within*
//!   a lane the order is EDF-flavored by default ([`LaneOrder`]):
//!   deadline-carrying jobs dispatch earliest-deadline-first and
//!   deadline-free jobs keep FIFO order — cross-tenant isolation from the
//!   virtual clock, per-tenant SLO attainment from EDF, composed.
//!
//! [`SchedulerSpec`] describes one of these policies with its knobs: CLI
//! names parse into it, [`SchedulerSpec::build`] makes the scheduler, and
//! every run's `CellSpec` and flight-record header carry it.
//!
//! Cache affinity, EDF and WFQ place a job on the idle device predicted
//! fastest for it through the fleet's placement index
//! ([`Fleet::fastest_idle`]), which walks the topology's warm holders and
//! a per-model cost order instead of the whole fleet.  FIFO needs no
//! prediction, and SJF scans every idle device: its aged score can tie
//! after rounding, and then the device-order tie-break decides.

use crate::fleet::{Fleet, QpuDevice};
use crate::job::Job;

/// A scheduling policy.
///
/// `queue` is the pending jobs in arrival order; implementations return
/// `Some((queue_index, device_id))` to dispatch, or `None` to leave the
/// remaining queue waiting (e.g. for a busy device to free up).  The engine
/// guarantees every returned device is idle at `now` and re-invokes the
/// method until it returns `None`.
///
/// The queue contract: one scheduler instance serves one queue, and
/// between two calls that queue changes in only two ways — the entry at
/// the index the previous call returned (if it returned one) is removed,
/// and new jobs are appended at the end.  Policies may keep state that
/// relies on it: [`WeightedFairQueue`]'s finish tags charge every returned
/// job as dispatched, and [`CacheAffinity`] keeps an index of the queue
/// across calls.
pub trait Scheduler {
    /// Stable policy name used in reports.
    fn name(&self) -> &'static str;

    /// Choose the next `(queue index, device id)` assignment, or `None`.
    fn next_assignment(&mut self, queue: &[Job], fleet: &Fleet, now: f64)
        -> Option<(usize, usize)>;
}

/// The EDF sort key of a job: its deadline, with deadline-free jobs ranked
/// behind every deadline (so they fall back to FIFO order among
/// themselves — `f64::INFINITY` compares equal to itself under `total_cmp`
/// and ties break by queue position).
fn deadline_key(job: &Job) -> f64 {
    job.deadline.unwrap_or(f64::INFINITY)
}

/// First-in-first-out with head-of-line blocking.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    // sx-lint: hot-root -- queried once per dispatch attempt in the event loop
    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        let head = queue.first()?;
        let device = fleet
            .devices
            .iter()
            .find(|d| d.is_idle(now) && d.can_run(head.lps))?;
        Some((0, device.id))
    }
}

/// Priority credit (in seconds of predicted service) a queued job earns per
/// second of waiting under [`ShortestPredictedFirst`] — the aging term that
/// keeps pure SJF from starving large jobs forever.
pub const DEFAULT_AGING_WEIGHT: f64 = 0.1;

/// Shortest-predicted-job-first over the analytic cost oracle, with
/// arrival-time aging.
///
/// Pure SJF starves: under a sustained stream of short jobs, a large job's
/// predicted service never wins and it waits forever.  The effective
/// priority here is `predicted − aging_weight · (now − arrival)`, so every
/// second in the queue buys a job `aging_weight` seconds of predicted
/// service, and any job eventually outranks fresh short work.  Because the
/// per-device predicted service is the ordering key, the policy also weighs
/// device speed in a heterogeneous fleet: a job may prefer a fast cold
/// device over a slow warm one.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPredictedFirst {
    /// Seconds of priority credit per second waited (0 = pure SJF).
    pub aging_weight: f64,
}

impl Default for ShortestPredictedFirst {
    fn default() -> Self {
        Self {
            aging_weight: DEFAULT_AGING_WEIGHT,
        }
    }
}

impl ShortestPredictedFirst {
    /// The policy with the given aging weight; `0.0` restores the pure
    /// (starvation-prone) SJF ordering.
    pub fn with_aging(aging_weight: f64) -> Self {
        Self { aging_weight }
    }
}

impl Scheduler for ShortestPredictedFirst {
    fn name(&self) -> &'static str {
        "spjf"
    }

    // sx-lint: hot-root -- queried once per dispatch attempt in the event loop
    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (qi, job) in queue.iter().enumerate() {
            let age = (now - job.arrival).max(0.0);
            for device in &fleet.devices {
                if !device.is_idle(now) || !device.can_run(job.lps) {
                    continue;
                }
                let Ok(predicted) = device.predicted_service_seconds(job.lps, job.topology_key)
                else {
                    continue;
                };
                let score = predicted - self.aging_weight * age;
                // Strict `<` keeps the earliest (queue-order, id-order)
                // candidate on ties, so the policy is deterministic.
                if best.map(|(t, _, _)| score < t).unwrap_or(true) {
                    best = Some((score, qi, device.id));
                }
            }
        }
        best.map(|(_, qi, d)| (qi, d))
    }
}

/// Devices whose predicted cold service is within this factor of the
/// fastest idle candidate count as equally fast for [`CacheAffinity`]'s
/// cold placement; within the band, the least-specialized cache wins.  The
/// band absorbs fault-map cost noise (a few percent between same-generation
/// devices) while keeping genuinely slower generations (3–5× on embeds)
/// out.
pub const COLD_SPEED_BAND: f64 = 1.25;

/// Embedding-cache-affinity routing.
///
/// Two passes, oldest job first:
///
/// 1. the first job whose topology is warm on an idle device takes the
///    idle device predicted fastest for it;
/// 2. otherwise the first job that should not wait for a busy warm device
///    embeds cold on the least-specialized idle device within
///    [`COLD_SPEED_BAND`] of the fastest.
///
/// Within one call the fleet and the clock are fixed, so both verdicts
/// depend only on the job's `(lps, topology_key)` pair, and a later job of
/// an already-judged pair gets the same verdict as the oldest one.  Both
/// passes therefore judge only the oldest job of each distinct pair.  The
/// policy keeps those pairs across calls in an index of its queue: each
/// pair with the queue position of its oldest job and its job count,
/// ordered by that position.  A call first brings the index up to date
/// from the two ways the engine changes the queue (the [`Scheduler`]
/// contract): the job the last call placed is gone, so later positions
/// shift down by one and the placed pair, if it still has jobs, moves to
/// its next-oldest job, found by scanning forward from the removed
/// position; and new jobs sit after the indexed part.
///
/// Pass 1 reads a pair's warm holders from the fleet's placement index and
/// places through it ([`Fleet::fastest_idle`]).  Pass 2 takes the fastest
/// idle prediction from the same query, folds its wait-or-embed verdict
/// over the pair's holders, and scans the idle devices only for the pair
/// it places.  A call costs O(distinct pairs × (holders + index walk) +
/// idle devices + the forward scan after a removal), not O(queue): under
/// overload the queue holds hundreds of jobs but only a few dozen pairs.
/// The index is owned by the policy and reused, so steady-state dispatch
/// does not allocate.
///
/// A queue changed some other way is re-indexed whole when that is cheap
/// to see: a slice shorter than the index, or the placed job's id still at
/// its position.  Debug builds also compare the index with one rebuilt
/// from the slice on every call.
#[derive(Debug, Clone)]
pub struct CacheAffinity {
    /// The queue's distinct pairs, ordered by the position of their oldest
    /// job.
    pairs: Vec<QueuedPair>,
    /// How many queue entries, from the front, the index covers.
    indexed: usize,
    /// The last call's placement: the slot in `pairs` of the placed pair
    /// and the id of the job placed.
    placed: Option<(usize, usize)>,
    /// The index rebuilt from the slice, to check against.
    #[cfg(debug_assertions)]
    check: index_check::IndexCheck,
}

/// One distinct `(lps, topology_key)` pair of [`CacheAffinity`]'s queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedPair {
    lps: usize,
    topology_key: u64,
    /// Queue position of the pair's oldest job.
    oldest: usize,
    /// The pair's jobs in the queue.
    jobs: usize,
}

impl QueuedPair {
    /// The pair of `job`, with `job` at queue position `at` its oldest and
    /// only job.
    fn of(job: &Job, at: usize) -> Self {
        Self {
            lps: job.lps,
            topology_key: job.topology_key,
            oldest: at,
            jobs: 1,
        }
    }

    fn holds(&self, job: &Job) -> bool {
        self.lps == job.lps && self.topology_key == job.topology_key
    }
}

impl Default for CacheAffinity {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheAffinity {
    /// The policy, with its index pre-sized for 64 distinct queued pairs
    /// (it grows at most a few times past that, never per event).
    pub fn new() -> Self {
        Self {
            pairs: Vec::with_capacity(64),
            indexed: 0,
            placed: None,
            #[cfg(debug_assertions)]
            check: index_check::IndexCheck::with_capacity(64),
        }
    }

    /// Bring the index up to date with `queue`: account for the removal of
    /// the job the last call placed, then index the jobs appended since.
    /// A queue that shows some other change is re-indexed whole.
    fn sync(&mut self, queue: &[Job]) {
        let consistent = match self.placed.take() {
            Some((slot, id)) => self.remove_placed(queue, slot, id),
            None => queue.len() >= self.indexed,
        };
        if !consistent {
            self.pairs.clear();
            self.indexed = 0;
        }
        for (at, job) in queue.iter().enumerate().skip(self.indexed) {
            match self.pairs.iter_mut().find(|pair| pair.holds(job)) {
                Some(pair) => pair.jobs += 1,
                None => self.pairs.push(QueuedPair::of(job, at)),
            }
        }
        self.indexed = queue.len();
    }

    /// Account for the engine's removal of the job the last call placed:
    /// the oldest job of `pairs[slot]`, whose id is `id`.  Later positions
    /// shift down by one, and the pair, if it still has jobs, moves to the
    /// place of its next-oldest one.  Returns `false` when `queue` does not
    /// show the removal.
    fn remove_placed(&mut self, queue: &[Job], slot: usize, id: usize) -> bool {
        let Some(&placed) = self.pairs.get(slot) else {
            return false;
        };
        let at = placed.oldest;
        self.indexed = self.indexed.saturating_sub(1);
        if queue.len() < self.indexed || queue.get(at).is_some_and(|job| job.id == id) {
            return false;
        }
        let Some(later) = self.pairs.get_mut(slot + 1..) else {
            return false;
        };
        for pair in later.iter_mut() {
            pair.oldest -= 1;
        }
        if placed.jobs == 1 {
            self.pairs.remove(slot);
            return true;
        }
        let next = queue
            .get(at..self.indexed)
            .and_then(|rest| rest.iter().position(|job| placed.holds(job)));
        let Some(next) = next else {
            return false;
        };
        let oldest = at + next;
        let end = slot + 1 + later.partition_point(|pair| pair.oldest < oldest);
        let Some(moved) = self.pairs.get_mut(slot..end) else {
            return false;
        };
        if let Some(first) = moved.first_mut() {
            *first = QueuedPair {
                oldest,
                jobs: placed.jobs - 1,
                ..placed
            };
        }
        moved.rotate_left(1);
        true
    }

    /// The two passes over the indexed pairs: the slot in `pairs` of the
    /// pair to place, and the device for its oldest job.
    fn place(&self, queue: &[Job], fleet: &Fleet, now: f64) -> Option<(usize, usize)> {
        let oldest_jobs = || {
            self.pairs
                .iter()
                .enumerate()
                .filter_map(|(slot, pair)| Some((slot, queue.get(pair.oldest)?)))
        };

        // Pass 1: oldest job whose topology is warm on an idle device.
        // Among the idle candidates the job takes the device with the
        // smallest *predicted* service, not blindly the warm one — in a
        // heterogeneous fleet a fast cold device can beat a slow warm one,
        // and the prediction already prices both warmth and device speed.
        for (slot, job) in oldest_jobs() {
            let warm_idle = fleet
                .warm_holders(job.topology_key)
                .filter_map(|id| fleet.devices.get(id))
                .any(|d| d.is_idle(now) && d.can_run(job.lps));
            if warm_idle {
                if let Some((_, d)) = fleet.fastest_idle(job, now) {
                    return Some((slot, d));
                }
            }
        }

        // Pass 2: place a job that must embed cold anyway.  Prefer the
        // device predicted fastest for it (speed matters when generations
        // differ), but treat devices within a relative band of the fastest
        // as equivalent — fault-map noise makes exact f64 costs unique, and
        // a strict minimum would funnel every cold job to the single
        // lowest-fault device.  Within the band, prefer the
        // least-specialized cache so caches partition the topology space
        // instead of all devices learning everything.
        for (slot, job) in oldest_jobs() {
            // No idle device can run the job: nothing to place it on.
            let Some((fastest, _)) = fleet.fastest_idle(job, now) else {
                continue;
            };
            let predicted = |dev: &QpuDevice| {
                dev.predicted_service_seconds(job.lps, job.topology_key)
                    .ok()
            };
            // A job warm on a busy device (pass 1 would have taken an idle
            // one) waits for it only when wait + warm service is predicted
            // to finish sooner than re-embedding cold on an idle device.
            // With no warm device the fold stays infinite and never holds.
            let warm_finish = fleet
                .warm_holders(job.topology_key)
                .filter_map(|id| fleet.devices.get(id))
                .filter(|dev| dev.can_run(job.lps))
                .filter_map(|dev| Some((dev.busy_until - now).max(0.0) + predicted(dev)?))
                .fold(f64::INFINITY, f64::min);
            if warm_finish < fastest {
                continue; // hold this job for its warm device
            }
            // The in-band idle device with the fewest warm topologies (ties
            // by id; strict `<` keeps the first).
            let mut placement: Option<(usize, usize)> = None; // (warm count, id)
            for dev in &fleet.devices {
                if !dev.is_idle(now) || !dev.can_run(job.lps) {
                    continue;
                }
                let Some(cost) = predicted(dev) else {
                    continue;
                };
                if cost <= fastest * COLD_SPEED_BAND {
                    let rank = (dev.warm_topologies(), dev.id);
                    if placement.map(|cur| rank < cur).unwrap_or(true) {
                        placement = Some(rank);
                    }
                }
            }
            if let Some((_, d)) = placement {
                return Some((slot, d));
            }
        }
        None
    }
}

impl Scheduler for CacheAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    // sx-lint: hot-root -- queried once per dispatch attempt in the event loop
    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        self.sync(queue);
        #[cfg(debug_assertions)]
        self.check.assert_matches(&self.pairs, queue);
        if !fleet.devices.iter().any(|d| d.is_idle(now)) {
            return None;
        }
        let (slot, device) = self.place(queue, fleet, now)?;
        let at = self.pairs.get(slot)?.oldest;
        self.placed = Some((slot, queue.get(at)?.id));
        Some((at, device))
    }
}

/// Debug builds' check of [`CacheAffinity`]'s index.
#[cfg(debug_assertions)]
mod index_check {
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

    use super::QueuedPair;
    use crate::cache::KeyHasher;
    use crate::job::Job;

    /// The pairs rebuilt from the queue slice in one hashed pass, into
    /// buffers kept across calls so the check does not allocate per event.
    #[derive(Debug, Clone)]
    pub(super) struct IndexCheck {
        pairs: Vec<QueuedPair>,
        /// Each pair's slot in `pairs`.
        slots: HashMap<(usize, u64), usize, BuildHasherDefault<KeyHasher>>,
    }

    impl IndexCheck {
        pub(super) fn with_capacity(pairs: usize) -> Self {
            Self {
                pairs: Vec::with_capacity(pairs),
                slots: HashMap::with_capacity_and_hasher(pairs, BuildHasherDefault::default()),
            }
        }

        /// Panic unless `index` is the index of `queue`.
        pub(super) fn assert_matches(&mut self, index: &[QueuedPair], queue: &[Job]) {
            let Self { pairs, slots } = self;
            pairs.clear();
            slots.clear();
            for (at, job) in queue.iter().enumerate() {
                let slot = *slots.entry((job.lps, job.topology_key)).or_insert_with(|| {
                    pairs.push(QueuedPair {
                        jobs: 0,
                        ..QueuedPair::of(job, at)
                    });
                    pairs.len() - 1
                });
                if let Some(pair) = pairs.get_mut(slot) {
                    pair.jobs += 1;
                }
            }
            assert_eq!(
                index,
                pairs.as_slice(),
                "affinity's queue index diverged from its queue"
            );
        }
    }
}

/// Earliest-deadline-first over the whole queue.
///
/// The queued job with the smallest deadline dispatches first, placed on
/// the idle device predicted fastest for it; jobs without deadlines rank
/// behind every deadline-carrying job and keep FIFO order among
/// themselves.  A job with no feasible idle device is skipped (no
/// head-of-line blocking), so a fleet-infeasible head cannot stall the
/// queue.
///
/// EDF is the deadline-optimal single-machine discipline, which makes it
/// the natural yardstick for the `cluster_sim --mode slo` sweep — but it
/// is tenant-oblivious: any tenant can grab the whole fleet by submitting
/// tight deadlines.  [`WeightedFairQueue`] composes the same in-lane order
/// with cross-tenant fairness.
#[derive(Debug, Default, Clone, Copy)]
pub struct EarliestDeadlineFirst;

impl Scheduler for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    // sx-lint: hot-root -- queried once per dispatch attempt in the event loop
    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        self.assign(queue, fleet, now, Fleet::fastest_idle)
    }
}

impl EarliestDeadlineFirst {
    /// [`Scheduler::next_assignment`] with the placement primitive as a
    /// parameter, so the differential tests can run the policy on a
    /// whole-fleet scan.
    fn assign(
        &self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
        place: impl Fn(&Fleet, &Job, f64) -> Option<(f64, usize)>,
    ) -> Option<(usize, usize)> {
        if !fleet.devices.iter().any(|d| d.is_idle(now)) {
            return None;
        }
        // One pass, no sorted index `Vec`: keep the feasible job with the
        // lexicographically smallest `(deadline, queue position)`.  A
        // strictly-smaller comparison means equal deadlines (and all
        // deadline-free jobs, which share `f64::INFINITY`) keep queue
        // order — exactly the old stable-sort-then-first-feasible result.
        let mut best: Option<(f64, usize, usize)> = None; // (deadline, qi, device)
        for (qi, job) in queue.iter().enumerate() {
            let key = deadline_key(job);
            if best.map(|(k, _, _)| key >= k).unwrap_or(false) {
                continue;
            }
            if let Some((_, d)) = place(fleet, job, now) {
                best = Some((key, qi, d));
            }
        }
        best.map(|(_, qi, d)| (qi, d))
    }
}

/// How [`WeightedFairQueue`] orders jobs *within* one tenant's lane.
///
/// Cross-lane scheduling (which tenant is served next) is always the
/// virtual-time start-tag race; the lane order only decides which of the
/// chosen tenant's queued jobs goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneOrder {
    /// Strict submission order — the PR 4 behavior, kept for comparison
    /// (`wfq-fifo` in reports and sweeps).
    Fifo,
    /// Earliest deadline first, falling back to FIFO for deadline-free
    /// jobs (the default).  On a deadline-free workload this is identical
    /// to [`LaneOrder::Fifo`].
    #[default]
    EarliestDeadline,
}

/// Weighted fair queueing across tenants (start-time fair queueing over
/// per-tenant lanes, EDF-ordered within a lane by default).
///
/// Each tenant's queued jobs form a *lane*.  The scheduler keeps a
/// virtual clock: dispatching a job of predicted service `S` from a tenant
/// of weight `w` advances that tenant's finish tag by `S / w`, and the lane
/// whose head has the smallest start tag (`max(finish_tag, virtual_time)`)
/// is served next.  A tenant that stays within its fair share therefore
/// sees latency as if it had `w / Σw` of the fleet to itself, no matter how
/// hard another tenant floods its own lane — the fairness guarantee the
/// `cluster_sim --mode fairness` sweep enforces against FIFO.
///
/// *Within* the chosen lane, the head is picked by [`LaneOrder`]: by
/// default the tenant's queued job with the earliest deadline
/// (deadline-free jobs fall back to submission order).  Reordering inside
/// a lane leaves the *long-run* share intact — every job's charge is
/// eventually paid by its own tenant either way — though the per-dispatch
/// charge follows the chosen job, so transient cross-lane interleaving
/// can differ from FIFO lanes (the `--mode slo` sweep guards Jain's index
/// within 5% of plain WFQ for exactly this reason).
/// [`WeightedFairQueue::with_lane_order`] restores strict FIFO lanes
/// (`wfq-fifo`) for comparison.
///
/// The policy composes with the cost oracle on two axes: the *charge* is
/// the predicted service on the chosen device (so a tenant re-using warm
/// topologies genuinely consumes less of its share), and the *placement*
/// picks the idle device with the smallest prediction (so warm caches and
/// fast devices are still exploited within a lane).  A lane head with no
/// feasible idle device blocks only its own lane, never the other tenants.
///
/// Determinism: lane order ties break by tenant id, deadline ties by queue
/// position, device ties by id, and all state lives on the virtual clock.
///
/// ```
/// use std::sync::Arc;
/// use sx_cluster::prelude::*;
///
/// // Two tenants, the aggressor arriving 6x faster than the victim.
/// let workload = MultiTenantSpec::aggressor_victim(8, 0.5, 6.0, 1.0, 7).generate();
///
/// // Weights come from the workload's tenant metadata.
/// let cell = CellSpec {
///     label: "wfq".to_string(),
///     fleet: FleetConfig {
///         seed: 7,
///         ..FleetConfig::default()
///     },
///     scheduler: SchedulerSpec::WeightedFair {
///         weights: workload.weights(),
///         lane_order: LaneOrder::default(),
///     },
///     admission: AdmissionSpec::AdmitAll,
///     config: SimConfig::default(),
///     workload: Arc::new(workload),
/// };
/// let report = run_cell(0, &cell, &mut NullSink).report;
///
/// // Fair queueing completes every tenant's jobs — the flood cannot
/// // starve the victim's lane.
/// for tenant in &report.per_tenant {
///     assert_eq!(tenant.completed, tenant.submitted);
/// }
/// assert!(report.jains_fairness_index() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedFairQueue {
    /// Fair-share weight per tenant id; tenants beyond the vector get 1.0.
    weights: Vec<f64>,
    /// Virtual finish tag per tenant id (grown on demand).
    finish_tags: Vec<f64>,
    /// The virtual clock: the start tag of the last dispatched job.
    virtual_time: f64,
    /// In-lane ordering (EDF by default).
    lane_order: LaneOrder,
    /// Lane-head scratch `(tenant, queue index)`, reused across
    /// `next_assignment` calls so the hot path never allocates; it grows at
    /// most once per tenant ever seen.
    heads: Vec<(usize, usize)>,
}

impl Default for WeightedFairQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightedFairQueue {
    /// Uniform weights: every tenant gets an equal share.
    pub fn new() -> Self {
        Self::with_weights(Vec::new())
    }

    /// Explicit per-tenant weights, indexed by tenant id; tenants beyond
    /// the vector (and non-positive entries) fall back to weight 1.0.
    pub fn with_weights(weights: Vec<f64>) -> Self {
        let lanes = weights.len().max(8);
        Self {
            heads: Vec::with_capacity(lanes),
            weights,
            finish_tags: Vec::new(),
            virtual_time: 0.0,
            lane_order: LaneOrder::default(),
        }
    }

    /// Override the in-lane ordering ([`LaneOrder::EarliestDeadline`] is
    /// the default; [`LaneOrder::Fifo`] restores the PR 4 behavior and
    /// reports as `wfq-fifo`).
    pub fn with_lane_order(mut self, lane_order: LaneOrder) -> Self {
        self.lane_order = lane_order;
        self
    }

    /// The active in-lane ordering.
    pub fn lane_order(&self) -> LaneOrder {
        self.lane_order
    }

    fn weight(&self, tenant: usize) -> f64 {
        let w = self.weights.get(tenant).copied().unwrap_or(1.0);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            1.0
        }
    }

    fn finish_tag(&self, tenant: usize) -> f64 {
        self.finish_tags.get(tenant).copied().unwrap_or(0.0)
    }

    fn set_finish_tag(&mut self, tenant: usize, tag: f64) {
        if self.finish_tags.len() <= tenant {
            self.finish_tags.resize(tenant + 1, 0.0);
        }
        self.finish_tags[tenant] = tag;
    }
}

impl Scheduler for WeightedFairQueue {
    fn name(&self) -> &'static str {
        match self.lane_order {
            LaneOrder::EarliestDeadline => "wfq",
            LaneOrder::Fifo => "wfq-fifo",
        }
    }

    // sx-lint: hot-root -- queried once per dispatch attempt in the event loop
    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        self.assign(queue, fleet, now, Fleet::fastest_idle)
    }
}

impl WeightedFairQueue {
    /// [`Scheduler::next_assignment`] with the placement primitive as a
    /// parameter, so the differential tests can run the policy on a
    /// whole-fleet scan.
    fn assign(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
        place: impl Fn(&Fleet, &Job, f64) -> Option<(f64, usize)>,
    ) -> Option<(usize, usize)> {
        if !fleet.devices.iter().any(|d| d.is_idle(now)) {
            return None;
        }

        // Lane heads, per tenant in queue order.  Under FIFO lanes the head
        // is the tenant's first queued job; under EDF lanes it is the
        // tenant's earliest-deadline job (strictly-smaller comparison, so
        // deadline ties and deadline-free jobs keep submission order).
        //
        // The scratch vector is owned by the scheduler and taken/restored
        // around the call, so steady-state dispatch never allocates
        // (`tests/alloc_budget.rs` pins this).
        let mut heads = std::mem::take(&mut self.heads); // (tenant, queue idx)
        heads.clear();
        for (qi, job) in queue.iter().enumerate() {
            let tenant = job.tenant.index();
            match heads.iter_mut().find(|(t, _)| *t == tenant) {
                None => heads.push((tenant, qi)),
                Some((_, head)) => {
                    if self.lane_order == LaneOrder::EarliestDeadline
                        && deadline_key(job) < deadline_key(&queue[*head])
                    {
                        *head = qi;
                    }
                }
            }
        }
        // Serve lanes in start-tag order; ties by tenant id keep the order
        // total and deterministic.  Unstable sort is safe — one head per
        // tenant makes the `(start tag, tenant)` key unique — and, unlike
        // the stable sort, it never allocates a merge buffer.
        heads.sort_unstable_by(|&(ta, _), &(tb, _)| {
            let sa = self.finish_tag(ta).max(self.virtual_time);
            let sb = self.finish_tag(tb).max(self.virtual_time);
            sa.total_cmp(&sb).then(ta.cmp(&tb))
        });

        let mut chosen: Option<(usize, usize, usize, f64)> = None;
        for &(tenant, qi) in &heads {
            let job = &queue[qi];
            // Within the lane, the cost oracle picks the placement: the
            // idle device with the smallest prediction (warm beats cold,
            // fast beats slow).
            if let Some((cost, device)) = place(fleet, job, now) {
                chosen = Some((tenant, qi, device, cost));
                break;
            }
        }
        self.heads = heads;

        let (tenant, qi, device, cost) = chosen?;
        let start = self.finish_tag(tenant).max(self.virtual_time);
        self.set_finish_tag(tenant, start + cost / self.weight(tenant));
        self.virtual_time = start;
        Some((qi, device))
    }
}

/// A scheduling policy with its knobs (aging weight, lane weights, lane
/// order): everything needed to build the exact scheduler a run uses.
/// CLI names parse into it (`FromStr`), and every `CellSpec` and
/// flight-record header carries it through the JSON codec in
/// [`crate::replay`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// [`Fifo`].
    Fifo,
    /// [`CacheAffinity`].
    CacheAffinity,
    /// [`EarliestDeadlineFirst`].
    EarliestDeadlineFirst,
    /// [`ShortestPredictedFirst`] with an explicit aging weight.
    ShortestPredictedFirst {
        /// Anti-starvation aging weight (seconds of credit per second
        /// queued).
        aging_weight: f64,
    },
    /// [`WeightedFairQueue`] with explicit lane weights and lane order.
    WeightedFair {
        /// Per-lane fair-share weights; missing lanes default to 1.0, so an
        /// empty vector is the uniform-weight queue.
        weights: Vec<f64>,
        /// How jobs are ordered within a lane.
        lane_order: LaneOrder,
    },
}

impl SchedulerSpec {
    /// The five default policies, in comparison-table order: `fifo`,
    /// `spjf` ([`DEFAULT_AGING_WEIGHT`]), `affinity`, `edf` and `wfq`
    /// (uniform weights, EDF lanes).
    pub fn all() -> [SchedulerSpec; 5] {
        [
            SchedulerSpec::Fifo,
            SchedulerSpec::ShortestPredictedFirst {
                aging_weight: DEFAULT_AGING_WEIGHT,
            },
            SchedulerSpec::CacheAffinity,
            SchedulerSpec::EarliestDeadlineFirst,
            SchedulerSpec::WeightedFair {
                weights: Vec::new(),
                lane_order: LaneOrder::EarliestDeadline,
            },
        ]
    }

    /// The display name the built scheduler reports
    /// ([`Scheduler::name`]): `fifo`, `affinity`, `edf`, `spjf`, `wfq` or
    /// `wfq-fifo`.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Fifo => "fifo",
            SchedulerSpec::CacheAffinity => "affinity",
            SchedulerSpec::EarliestDeadlineFirst => "edf",
            SchedulerSpec::ShortestPredictedFirst { .. } => "spjf",
            SchedulerSpec::WeightedFair { lane_order, .. } => match lane_order {
                LaneOrder::EarliestDeadline => "wfq",
                LaneOrder::Fifo => "wfq-fifo",
            },
        }
    }

    /// Instantiate the described scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Fifo => Box::new(Fifo),
            SchedulerSpec::CacheAffinity => Box::new(CacheAffinity::new()),
            SchedulerSpec::EarliestDeadlineFirst => Box::new(EarliestDeadlineFirst),
            SchedulerSpec::ShortestPredictedFirst { aging_weight } => {
                Box::new(ShortestPredictedFirst::with_aging(*aging_weight))
            }
            SchedulerSpec::WeightedFair {
                weights,
                lane_order,
            } => Box::new(
                WeightedFairQueue::with_weights(weights.clone()).with_lane_order(*lane_order),
            ),
        }
    }
}

impl std::str::FromStr for SchedulerSpec {
    type Err = String;

    /// A policy by name, case-insensitively: a [`SchedulerSpec::name`] or
    /// one of its aliases.  Knobs take their defaults — `spjf` ages at
    /// [`DEFAULT_AGING_WEIGHT`], `wfq`/`wfq-fifo` weigh every lane 1.0.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let wfq = |lane_order| SchedulerSpec::WeightedFair {
            weights: Vec::new(),
            lane_order,
        };
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulerSpec::Fifo),
            "spjf" | "sjf" | "shortest" => Ok(SchedulerSpec::ShortestPredictedFirst {
                aging_weight: DEFAULT_AGING_WEIGHT,
            }),
            "affinity" | "cache" | "cache-affinity" => Ok(SchedulerSpec::CacheAffinity),
            "edf" | "deadline" | "earliest-deadline" => Ok(SchedulerSpec::EarliestDeadlineFirst),
            "wfq" | "fair" | "weighted-fair" => Ok(wfq(LaneOrder::EarliestDeadline)),
            "wfq-fifo" => Ok(wfq(LaneOrder::Fifo)),
            other => Err(format!(
                "unknown scheduling policy '{other}' (expected fifo, spjf, affinity, edf, wfq or wfq-fifo)"
            )),
        }
    }
}

impl std::fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use split_exec::SplitExecConfig;

    fn fleet(qpus: usize) -> Fleet {
        Fleet::new(
            FleetConfig {
                qpus,
                qubit_fault_rate: 0.0,
                coupler_fault_rate: 0.0,
                seed: 1,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(1),
        )
    }

    fn job(id: usize, lps: usize, key: u64) -> Job {
        Job {
            id,
            tenant: crate::tenant::TenantId::DEFAULT,
            family: format!("test-{lps}").into(),
            lps,
            topology_key: key,
            arrival: id as f64,
            deadline: None,
        }
    }

    fn deadline_job(id: usize, lps: usize, key: u64, deadline: f64) -> Job {
        Job {
            deadline: Some(deadline),
            ..job(id, lps, key)
        }
    }

    fn tenant_job(id: usize, tenant: usize, lps: usize, key: u64) -> Job {
        Job {
            tenant: crate::tenant::TenantId(tenant),
            ..job(id, lps, key)
        }
    }

    #[test]
    fn fifo_takes_the_head_job_on_the_lowest_idle_device() {
        let fleet = fleet(2);
        let queue = vec![job(0, 10, 1), job(1, 8, 2)];
        assert_eq!(Fifo.next_assignment(&queue, &fleet, 0.0), Some((0, 0)));
    }

    #[test]
    fn fifo_blocks_at_the_head() {
        let mut fleet = fleet(2);
        // Head job only fits device 1; device 1 busy ⇒ nothing dispatches
        // even though device 0 could serve the second job.
        fleet.devices[0].capacity_lps = 5;
        fleet.devices[1].busy_until = 100.0;
        let queue = vec![job(0, 10, 1), job(1, 4, 2)];
        assert_eq!(Fifo.next_assignment(&queue, &fleet, 0.0), None);
    }

    #[test]
    fn spjf_prefers_the_warm_short_job() {
        let mut fleet = fleet(1);
        fleet.mark_warm(0, 42, 10);
        let queue = vec![job(0, 10, 1), job(1, 10, 42)];
        // Same size, but job 1 is warm on device 0 ⇒ far shorter predicted.
        assert_eq!(
            ShortestPredictedFirst::default().next_assignment(&queue, &fleet, 0.0),
            Some((1, 0))
        );
    }

    #[test]
    fn spjf_breaks_ties_by_arrival_order() {
        let fleet = fleet(1);
        let queue = vec![job(0, 10, 1), job(1, 10, 2)];
        assert_eq!(
            ShortestPredictedFirst::default().next_assignment(&queue, &fleet, 0.0),
            Some((0, 0))
        );
    }

    #[test]
    fn spjf_aging_eventually_promotes_a_starved_large_job() {
        // Regression for the starvation bug: pure SJF (aging 0) picks the
        // fresh short job no matter how long the large one has waited.
        let mut fleet = fleet(1);
        fleet.mark_warm(0, 2, 8); // the short topology is warm
        let p_large = fleet.devices[0].predicted_service_seconds(40, 1).unwrap();
        let p_short = fleet.devices[0].predicted_service_seconds(8, 2).unwrap();
        assert!(p_large > p_short);
        // The large job has waited long enough for its aging credit to
        // close the predicted-service gap; the short job just arrived.
        let now = (p_large - p_short) / DEFAULT_AGING_WEIGHT + 1.0;
        let mut large = job(0, 40, 1);
        large.arrival = 0.0;
        let mut short = job(1, 8, 2);
        short.arrival = now;
        let queue = vec![large, short];
        assert_eq!(
            ShortestPredictedFirst::with_aging(0.0).next_assignment(&queue, &fleet, now),
            Some((1, 0)),
            "pure SJF must still pick the short job (the bug being fixed)"
        );
        assert_eq!(
            ShortestPredictedFirst::default().next_assignment(&queue, &fleet, now),
            Some((0, 0)),
            "aged SJF must promote the long-waiting large job"
        );
    }

    #[test]
    fn spjf_large_job_dispatches_under_a_continuous_short_stream() {
        use crate::sim::SimConfig;
        use crate::sweep::{run_cell, AdmissionSpec, CellSpec};
        use crate::telemetry::NullSink;
        use crate::workload::Workload;
        use std::sync::Arc;

        // One large job arrives early into a single-QPU system flooded with
        // short jobs of one warm topology.  Pure SJF serves every short job
        // first; aged SJF starts the large job while shorts still arrive.
        let fleet_config = crate::FleetConfig {
            qpus: 1,
            qubit_fault_rate: 0.0,
            coupler_fault_rate: 0.0,
            seed: 1,
            ..crate::FleetConfig::default()
        };
        let build_fleet = || {
            crate::Fleet::new(
                fleet_config.clone(),
                split_exec::SplitExecConfig::with_seed(1),
            )
        };
        // Size the stream from the model's own numbers so the scenario
        // stays valid if the cost constants move: shorts arrive faster
        // than they are served (sustained pressure), and the stream lasts
        // comfortably past the large job's aging-promotion point.
        let mut probe = build_fleet();
        probe.mark_warm(0, 2, 8);
        let p_short = probe.devices[0].predicted_service_seconds(8, 2).unwrap();
        let p_large = probe.devices[0].predicted_service_seconds(40, 1).unwrap();
        let gap = 0.8 * p_short;
        let promotion_age = (p_large - p_short) / DEFAULT_AGING_WEIGHT;
        // Promotion happens once the shorts that arrived inside the aging
        // window are drained (~p_short per short, hence the /0.8); run the
        // stream 1.35x past that.
        let shorts = (1.35 * promotion_age / 0.8 / gap).ceil() as usize;
        let mut jobs = vec![Job {
            id: 0,
            tenant: crate::tenant::TenantId::DEFAULT,
            family: "large".into(),
            lps: 40,
            topology_key: 1,
            arrival: 0.5 * gap,
            deadline: None,
        }];
        for i in 0..shorts {
            jobs.push(Job {
                id: i + 1,
                tenant: crate::tenant::TenantId::DEFAULT,
                family: "short".into(),
                lps: 8,
                topology_key: 2,
                arrival: gap * i as f64,
                deadline: None,
            });
        }
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = i;
        }
        let large_id = jobs.iter().position(|j| &*j.family == "large").unwrap();
        let workload = Arc::new(Workload::single_tenant(jobs));
        let start_of = |aging_weight: f64| {
            let cell = CellSpec {
                label: format!("spjf aging {aging_weight}"),
                fleet: fleet_config.clone(),
                scheduler: SchedulerSpec::ShortestPredictedFirst { aging_weight },
                admission: AdmissionSpec::AdmitAll,
                config: SimConfig::default(),
                workload: Arc::clone(&workload),
            };
            run_cell(0, &cell, &mut NullSink)
                .report
                .records
                .iter()
                .find(|r| r.job == large_id)
                .map(|r| r.start)
                .expect("large job never completed")
        };
        let aged_start = start_of(DEFAULT_AGING_WEIGHT);
        let pure_start = start_of(0.0);
        let last_short_arrival = gap * (shorts - 1) as f64;
        assert!(
            aged_start < pure_start,
            "aging must start the large job earlier ({aged_start} !< {pure_start})"
        );
        assert!(
            aged_start < last_short_arrival,
            "aged SJF must dispatch the large job while shorts still arrive \
             ({aged_start} !< {last_short_arrival})"
        );
        assert!(
            pure_start >= last_short_arrival,
            "pure SJF should have starved the large job until the stream dried up \
             ({pure_start} !>= {last_short_arrival})"
        );
    }

    #[test]
    fn cold_jobs_prefer_the_faster_device_in_a_heterogeneous_fleet() {
        use split_exec::SplitExecConfig;
        // Device 0 is DW2X-class, device 1 Vesuvius-class; the smaller
        // lattice embeds the same topology several times cheaper.
        let mut fleet = Fleet::new(
            crate::FleetConfig {
                qubit_fault_rate: 0.0,
                coupler_fault_rate: 0.0,
                ..crate::FleetConfig::heterogeneous(2, 1)
            },
            SplitExecConfig::with_seed(1),
        );
        let cold_dw2x = fleet.devices[0].predicted_service_seconds(20, 9).unwrap();
        let cold_ves = fleet.devices[1].predicted_service_seconds(20, 9).unwrap();
        assert!(cold_ves < cold_dw2x);
        let queue = vec![job(0, 20, 9)];
        // Both policies weigh device speed for a cold job.
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 0.0),
            Some((0, 1))
        );
        assert_eq!(
            ShortestPredictedFirst::default().next_assignment(&queue, &fleet, 0.0),
            Some((0, 1))
        );
        // Warmth on the slower device outweighs the faster cold one: a warm
        // hit skips the embed entirely.
        fleet.mark_warm(0, 9, 20);
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 0.0),
            Some((0, 0))
        );
        assert_eq!(
            ShortestPredictedFirst::default().next_assignment(&queue, &fleet, 0.0),
            Some((0, 0))
        );
    }

    #[test]
    fn affinity_routes_warm_jobs_to_their_device() {
        let mut fleet = fleet(3);
        fleet.mark_warm(2, 7, 10);
        let queue = vec![job(0, 10, 7)];
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 0.0),
            Some((0, 2))
        );
    }

    #[test]
    fn affinity_spreads_cold_jobs_to_least_specialized_device() {
        let mut fleet = fleet(3);
        fleet.mark_warm(0, 100, 10);
        fleet.mark_warm(0, 101, 10);
        fleet.mark_warm(1, 102, 10);
        let queue = vec![job(0, 10, 7)];
        // Device 2 has the emptiest cache.
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 0.0),
            Some((0, 2))
        );
    }

    #[test]
    fn affinity_spreads_cold_jobs_despite_fault_cost_noise() {
        use split_exec::SplitExecConfig;
        // Default fault rates: every device's cold cost is slightly
        // different, so an exact-minimum placement would always pick one
        // device.  The speed band must still spread cold jobs by cache
        // occupancy.
        let mut fleet = Fleet::new(
            crate::FleetConfig {
                qpus: 3,
                seed: 5,
                ..crate::FleetConfig::default()
            },
            SplitExecConfig::with_seed(5),
        );
        let costs: Vec<f64> = fleet
            .devices
            .iter()
            .map(|d| d.predicted_service_seconds(10, 7).unwrap())
            .collect();
        let fastest = costs.iter().copied().fold(f64::INFINITY, f64::min);
        // Precondition for this seed: all devices are same-generation and
        // inside the band; distinct costs mean a strict min would be
        // decided by cost alone.
        assert!(costs.iter().all(|&c| c <= fastest * 1.25));
        assert!(costs.windows(2).any(|p| p[0] != p[1]));
        let fastest_id = (0..3)
            .min_by(|&a, &b| costs[a].total_cmp(&costs[b]))
            .unwrap();
        // Specialize the fastest device; the cold job must go elsewhere.
        fleet.mark_warm(fastest_id, 100, 10);
        fleet.mark_warm(fastest_id, 101, 10);
        let queue = vec![job(0, 10, 7)];
        let (_, placed) = CacheAffinity::new()
            .next_assignment(&queue, &fleet, 0.0)
            .unwrap();
        assert_ne!(
            placed, fastest_id,
            "cold job funneled to the specialized fastest device"
        );
    }

    #[test]
    fn affinity_holds_a_job_for_its_warm_device_when_the_wait_is_short() {
        let mut fleet = fleet(2);
        fleet.mark_warm(0, 7, 30);
        fleet.devices[0].busy_until = 1.0; // frees up in 1 virtual second
        let queue = vec![job(0, 30, 7)];
        // Cold embedding of lps 30 costs far more than a 1-second wait, so
        // the scheduler declines to burn device 1 on it.
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 0.0),
            None
        );
        // Once the warm device is idle, the job goes there.
        assert_eq!(
            CacheAffinity::new().next_assignment(&queue, &fleet, 1.0),
            Some((0, 0))
        );
    }

    #[test]
    fn wfq_alternates_lanes_under_equal_weights() {
        // Tenant 1 has flooded the queue; tenant 0 has one job waiting.
        // Equal weights: the starved lane's start tag is the virtual time,
        // the flooder's finish tag has advanced, so tenant 0 goes first.
        let fleet = fleet(1);
        let mut wfq = WeightedFairQueue::new();
        let queue = vec![
            tenant_job(0, 1, 10, 1),
            tenant_job(1, 1, 10, 1),
            tenant_job(2, 0, 10, 2),
            tenant_job(3, 1, 10, 1),
        ];
        // First dispatch: both lanes at tag 0; tie breaks to tenant 0.
        assert_eq!(wfq.next_assignment(&queue, &fleet, 0.0), Some((2, 0)));
        // Tenant 0's lane is now charged; tenant 1 is up next.
        let queue = vec![
            tenant_job(0, 1, 10, 1),
            tenant_job(1, 1, 10, 1),
            tenant_job(3, 1, 10, 1),
            tenant_job(4, 0, 10, 2),
        ];
        assert_eq!(wfq.next_assignment(&queue, &fleet, 0.0), Some((0, 0)));
        // And having served one job each, it alternates back to tenant 0.
        let queue = vec![
            tenant_job(1, 1, 10, 1),
            tenant_job(3, 1, 10, 1),
            tenant_job(4, 0, 10, 2),
        ];
        assert_eq!(wfq.next_assignment(&queue, &fleet, 0.0), Some((2, 0)));
    }

    #[test]
    fn wfq_weights_bias_the_share() {
        // Tenant 0 carries weight 3: it should win ~3 dispatches for every
        // 1 of tenant 1 when both lanes stay backlogged.
        let fleet = fleet(1);
        let mut wfq = WeightedFairQueue::with_weights(vec![3.0, 1.0]);
        let mut wins = [0usize; 2];
        let mut queue: Vec<Job> = (0..40)
            .map(|i| tenant_job(i, i % 2, 10, (i % 2) as u64 + 1))
            .collect();
        for _ in 0..24 {
            let (qi, _) = wfq.next_assignment(&queue, &fleet, 0.0).unwrap();
            wins[queue[qi].tenant.index()] += 1;
            queue.remove(qi);
        }
        // 3:1 long-run split, with a one-dispatch tolerance for f64 tag
        // accumulation at exact ties.
        assert_eq!(wins[0] + wins[1], 24);
        assert!(
            (17..=19).contains(&wins[0]),
            "weight-3 tenant took {} of 24 dispatches, expected ~18",
            wins[0]
        );
    }

    #[test]
    fn wfq_picks_the_warm_device_within_a_lane() {
        let mut fleet = fleet(3);
        fleet.mark_warm(2, 7, 10);
        let queue = vec![tenant_job(0, 0, 10, 7)];
        assert_eq!(
            WeightedFairQueue::new().next_assignment(&queue, &fleet, 0.0),
            Some((0, 2)),
            "the lane's placement must exploit the warm cache"
        );
    }

    #[test]
    fn wfq_blocked_lane_does_not_block_other_tenants() {
        let mut fleet = fleet(2);
        // Tenant 0's head only fits device 1, which is busy; tenant 1's job
        // fits device 0 and must not wait behind the blocked lane.
        fleet.devices[0].capacity_lps = 5;
        fleet.devices[1].busy_until = 100.0;
        let queue = vec![tenant_job(0, 0, 10, 1), tenant_job(1, 1, 4, 2)];
        assert_eq!(
            WeightedFairQueue::new().next_assignment(&queue, &fleet, 0.0),
            Some((1, 0))
        );
    }

    #[test]
    fn wfq_charges_warm_jobs_less_virtual_time() {
        // Tenant 0's topology is warm: its per-job charge is tiny, so it
        // keeps winning the lane race over the cold tenant many times in a
        // row — warm re-use genuinely consumes less of the share.  The
        // sizes are large enough that the modeled embed cost (∝ LPS³)
        // dwarfs the fixed overhead, so warm and cold charges differ by an
        // order of magnitude.
        let mut fleet = fleet(1);
        fleet.mark_warm(0, 7, 30);
        let mut wfq = WeightedFairQueue::new();
        let mut queue: Vec<Job> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    tenant_job(i, 0, 30, 7) // warm lane
                } else {
                    tenant_job(i, 1, 30, 8) // cold lane
                }
            })
            .collect();
        // First two dispatches: one from each lane (tags start equal).
        for _ in 0..2 {
            let (qi, _) = wfq.next_assignment(&queue, &fleet, 0.0).unwrap();
            queue.remove(qi);
        }
        // From here the cold lane's finish tag towers over the warm lane's:
        // several consecutive dispatches come from tenant 0.
        let mut consecutive_warm = 0;
        while let Some((qi, _)) = wfq.next_assignment(&queue, &fleet, 0.0) {
            if queue[qi].tenant.index() != 0 {
                break;
            }
            consecutive_warm += 1;
            queue.remove(qi);
        }
        assert!(
            consecutive_warm >= 3,
            "warm lane should be charged far less virtual time \
             (got {consecutive_warm} consecutive warm dispatches)"
        );
    }

    #[test]
    fn edf_dispatches_the_earliest_deadline_first() {
        let fleet = fleet(1);
        let queue = vec![
            deadline_job(0, 10, 1, 50.0),
            deadline_job(1, 10, 2, 20.0),
            deadline_job(2, 10, 3, 35.0),
        ];
        assert_eq!(
            EarliestDeadlineFirst.next_assignment(&queue, &fleet, 0.0),
            Some((1, 0))
        );
    }

    #[test]
    fn edf_ranks_deadline_free_jobs_behind_and_fifo_among_themselves() {
        let fleet = fleet(1);
        // Deadline-free jobs queued first must still lose to a later job
        // with a deadline...
        let queue = vec![job(0, 10, 1), job(1, 10, 2), deadline_job(2, 10, 3, 99.0)];
        assert_eq!(
            EarliestDeadlineFirst.next_assignment(&queue, &fleet, 0.0),
            Some((2, 0))
        );
        // ...and an all-deadline-free queue degrades to FIFO.
        let queue = vec![job(0, 10, 1), job(1, 10, 2)];
        assert_eq!(
            EarliestDeadlineFirst.next_assignment(&queue, &fleet, 0.0),
            Some((0, 0))
        );
    }

    #[test]
    fn edf_skips_an_infeasible_head_instead_of_blocking() {
        let mut fleet = fleet(1);
        fleet.devices[0].capacity_lps = 12;
        // The tightest-deadline job does not fit the only device; the next
        // deadline must dispatch instead of the queue stalling.
        let queue = vec![deadline_job(0, 40, 1, 10.0), deadline_job(1, 10, 2, 20.0)];
        assert_eq!(
            EarliestDeadlineFirst.next_assignment(&queue, &fleet, 0.0),
            Some((1, 0))
        );
    }

    #[test]
    fn wfq_edf_lane_reorders_within_a_tenant_only() {
        let fleet = fleet(1);
        // One tenant, three jobs, deadlines out of submission order: the
        // EDF lane serves the tightest first.
        let queue = vec![
            Job {
                deadline: Some(60.0),
                ..tenant_job(0, 0, 10, 1)
            },
            Job {
                deadline: Some(15.0),
                ..tenant_job(1, 0, 10, 2)
            },
            Job {
                deadline: Some(30.0),
                ..tenant_job(2, 0, 10, 3)
            },
        ];
        assert_eq!(
            WeightedFairQueue::new().next_assignment(&queue, &fleet, 0.0),
            Some((1, 0)),
            "EDF lane must promote the tightest deadline"
        );
        // FIFO lanes keep submission order on the identical queue.
        assert_eq!(
            WeightedFairQueue::new()
                .with_lane_order(LaneOrder::Fifo)
                .next_assignment(&queue, &fleet, 0.0),
            Some((0, 0)),
            "FIFO lane must keep submission order"
        );
    }

    #[test]
    fn wfq_edf_lane_preserves_cross_tenant_alternation() {
        // Two tenants with equal weights: even though tenant 1's deadlines
        // are far tighter, the lane race still alternates — in-lane EDF
        // must not leak into cross-lane priority.
        let fleet = fleet(1);
        let mut wfq = WeightedFairQueue::new();
        let mut queue = vec![
            Job {
                deadline: Some(1.0),
                ..tenant_job(0, 1, 10, 1)
            },
            Job {
                deadline: Some(2.0),
                ..tenant_job(1, 1, 10, 1)
            },
            Job {
                deadline: Some(900.0),
                ..tenant_job(2, 0, 10, 2)
            },
            Job {
                deadline: Some(901.0),
                ..tenant_job(3, 0, 10, 2)
            },
        ];
        let mut order = Vec::new();
        for _ in 0..4 {
            let (qi, _) = wfq.next_assignment(&queue, &fleet, 0.0).unwrap();
            order.push(queue[qi].tenant.index());
            queue.remove(qi);
        }
        assert_eq!(order, vec![0, 1, 0, 1], "lanes must still alternate");
    }

    #[test]
    fn wfq_edf_lane_matches_fifo_lane_on_deadline_free_queues() {
        let fleet = fleet(2);
        let queue: Vec<Job> = (0..6).map(|i| tenant_job(i, i % 2, 10, 1)).collect();
        let mut edf_lane = WeightedFairQueue::new();
        let mut fifo_lane = WeightedFairQueue::new().with_lane_order(LaneOrder::Fifo);
        assert_eq!(
            edf_lane.next_assignment(&queue, &fleet, 0.0),
            fifo_lane.next_assignment(&queue, &fleet, 0.0),
            "without deadlines the lane orders must agree"
        );
        assert_eq!(edf_lane.name(), "wfq");
        assert_eq!(fifo_lane.name(), "wfq-fifo");
    }

    #[test]
    fn scheduler_spec_names_parse_build_and_display_round_trip() {
        let wfq_fifo = SchedulerSpec::WeightedFair {
            weights: Vec::new(),
            lane_order: LaneOrder::Fifo,
        };
        let aliases: [(&str, &[&str]); 6] = [
            ("fifo", &["FIFO"]),
            ("spjf", &["sjf", "shortest", "SPJF"]),
            ("affinity", &["cache", "cache-affinity", "Cache-Affinity"]),
            ("edf", &["deadline", "earliest-deadline", "EDF"]),
            ("wfq", &["fair", "weighted-fair", "Weighted-Fair"]),
            ("wfq-fifo", &["WFQ-FIFO"]),
        ];
        let specs: Vec<SchedulerSpec> =
            SchedulerSpec::all().into_iter().chain([wfq_fifo]).collect();
        assert_eq!(specs.len(), aliases.len());
        for (spec, (name, spellings)) in specs.iter().zip(aliases) {
            assert_eq!(spec.name(), name);
            assert_eq!(spec.name().parse::<SchedulerSpec>().as_ref(), Ok(spec));
            assert_eq!(spec.build().name(), spec.name());
            assert_eq!(spec.to_string(), spec.name());
            for alias in spellings {
                assert_eq!(alias.parse::<SchedulerSpec>().as_ref(), Ok(spec), "{alias}");
            }
        }
        let err = "nope".parse::<SchedulerSpec>().unwrap_err();
        for (name, _) in aliases {
            assert!(err.contains(name), "{err}");
        }
    }
}

/// Test-only reference oracles that scan the whole fleet: the scanning
/// `CacheAffinity` that the memoized, indexed policy replaced, which judges
/// every queued job afresh against every device, and EDF and WFQ placed by
/// [`Fleet::fastest_idle_scan`] instead of the placement index.  The
/// differential tests hold the production policies to them bit for bit,
/// on direct calls and on whole simulated runs, and check the fleet's
/// holder index against the device caches on every scheduler call.
#[cfg(test)]
mod scan_oracles {
    use super::*;
    use crate::prelude::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use split_exec::SplitExecConfig;

    /// The pre-memo policy body, unchanged.
    struct ScanAffinity;

    impl Scheduler for ScanAffinity {
        fn name(&self) -> &'static str {
            "affinity"
        }

        fn next_assignment(
            &mut self,
            queue: &[Job],
            fleet: &Fleet,
            now: f64,
        ) -> Option<(usize, usize)> {
            if !fleet.devices.iter().any(|d| d.is_idle(now)) {
                return None;
            }
            for (qi, job) in queue.iter().enumerate() {
                let warm_idle = fleet
                    .devices
                    .iter()
                    .any(|d| d.is_idle(now) && d.can_run(job.lps) && d.is_warm(job.topology_key));
                if !warm_idle {
                    continue;
                }
                if let Some((_, d)) = fleet.fastest_idle_scan(job, now) {
                    return Some((qi, d));
                }
            }
            for (qi, job) in queue.iter().enumerate() {
                let warm_somewhere = fleet
                    .devices
                    .iter()
                    .any(|dev| dev.is_warm(job.topology_key));
                if warm_somewhere {
                    let warm_finish = fleet
                        .devices
                        .iter()
                        .filter(|dev| dev.is_warm(job.topology_key) && dev.can_run(job.lps))
                        .filter_map(|dev| {
                            let warm_service = dev
                                .predicted_service_seconds(job.lps, job.topology_key)
                                .ok()?;
                            Some((dev.busy_until - now).max(0.0) + warm_service)
                        })
                        .fold(f64::INFINITY, f64::min);
                    let cold_cost = fleet
                        .devices
                        .iter()
                        .filter(|dev| dev.is_idle(now) && dev.can_run(job.lps))
                        .filter_map(|dev| {
                            dev.predicted_service_seconds(job.lps, job.topology_key)
                                .ok()
                        })
                        .fold(f64::INFINITY, f64::min);
                    if warm_finish < cold_cost {
                        continue;
                    }
                }
                let fastest = fleet
                    .devices
                    .iter()
                    .filter(|dev| dev.is_idle(now) && dev.can_run(job.lps))
                    .filter_map(|dev| {
                        dev.predicted_service_seconds(job.lps, job.topology_key)
                            .ok()
                    })
                    .fold(f64::INFINITY, f64::min);
                let mut placement: Option<(usize, usize)> = None;
                for dev in &fleet.devices {
                    if !dev.is_idle(now) || !dev.can_run(job.lps) {
                        continue;
                    }
                    let Ok(predicted) = dev.predicted_service_seconds(job.lps, job.topology_key)
                    else {
                        continue;
                    };
                    if predicted <= fastest * COLD_SPEED_BAND {
                        let key = (dev.warm_topologies(), dev.id);
                        if placement.map(|cur| key < cur).unwrap_or(true) {
                            placement = Some(key);
                        }
                    }
                }
                if let Some((_, d)) = placement {
                    return Some((qi, d));
                }
            }
            None
        }
    }

    /// [`EarliestDeadlineFirst`] placed by the whole-fleet scan.
    struct ScanEdf;

    impl Scheduler for ScanEdf {
        fn name(&self) -> &'static str {
            "edf"
        }

        fn next_assignment(
            &mut self,
            queue: &[Job],
            fleet: &Fleet,
            now: f64,
        ) -> Option<(usize, usize)> {
            EarliestDeadlineFirst.assign(queue, fleet, now, Fleet::fastest_idle_scan)
        }
    }

    /// [`WeightedFairQueue`] placed by the whole-fleet scan.
    struct ScanWfq(WeightedFairQueue);

    impl Scheduler for ScanWfq {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn next_assignment(
            &mut self,
            queue: &[Job],
            fleet: &Fleet,
            now: f64,
        ) -> Option<(usize, usize)> {
            self.0.assign(queue, fleet, now, Fleet::fastest_idle_scan)
        }
    }

    /// A policy whose every call first checks the fleet's holder index
    /// against the device caches.  The engine asks again after each
    /// dispatch, so the check sees the state after every cache change.
    struct CheckHolders(Box<dyn Scheduler>);

    impl Scheduler for CheckHolders {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn next_assignment(
            &mut self,
            queue: &[Job],
            fleet: &Fleet,
            now: f64,
        ) -> Option<(usize, usize)> {
            fleet.assert_holders_match_caches();
            self.0.next_assignment(queue, fleet, now)
        }
    }

    /// The production policy built from `spec` and its scan oracle.
    fn policy_and_oracle(spec: &SchedulerSpec) -> (Box<dyn Scheduler>, Box<dyn Scheduler>) {
        let oracle: Box<dyn Scheduler> = match spec {
            SchedulerSpec::CacheAffinity => Box::new(ScanAffinity),
            SchedulerSpec::EarliestDeadlineFirst => Box::new(ScanEdf),
            SchedulerSpec::WeightedFair {
                weights,
                lane_order,
            } => Box::new(ScanWfq(
                WeightedFairQueue::with_weights(weights.clone()).with_lane_order(*lane_order),
            )),
            other => panic!("{other} has no scan oracle"),
        };
        (spec.build(), oracle)
    }

    /// The index-placed policies, each checked against its oracle.
    fn indexed_specs(workload: &Workload) -> Vec<SchedulerSpec> {
        let wfq = |lane_order| SchedulerSpec::WeightedFair {
            weights: workload.weights(),
            lane_order,
        };
        vec![
            SchedulerSpec::CacheAffinity,
            SchedulerSpec::EarliestDeadlineFirst,
            wfq(LaneOrder::EarliestDeadline),
            wfq(LaneOrder::Fifo),
        ]
    }

    /// The fleet shapes of the differential matrix.
    fn fleet_configs(seed: u64) -> Vec<(&'static str, FleetConfig)> {
        let uniform = FleetConfig {
            qpus: 6,
            qubit_fault_rate: 0.0,
            coupler_fault_rate: 0.0,
            seed,
            ..FleetConfig::default()
        };
        let faulty = FleetConfig {
            qpus: 6,
            qubit_fault_rate: 0.06,
            coupler_fault_rate: 0.03,
            seed,
            ..FleetConfig::default()
        };
        vec![
            ("uniform", uniform),
            ("hetero", FleetConfig::heterogeneous(6, seed)),
            ("faulty", faulty),
        ]
    }

    /// The cache variants of the matrix: unbounded, bounded LRU, bounded
    /// cost-aware, and LRU behind the second-chance doorkeeper.
    fn with_caches(config: FleetConfig) -> Vec<(&'static str, FleetConfig)> {
        vec![
            ("unbounded", config.clone()),
            (
                "lru2",
                config.clone().with_cache(2, EvictionPolicyKind::Lru),
            ),
            (
                "cost2",
                config.clone().with_cache(2, EvictionPolicyKind::CostAware),
            ),
            (
                "lru3-second-chance",
                config
                    .with_cache(3, EvictionPolicyKind::Lru)
                    .with_cache_admission(AdmissionPolicy::SecondChance),
            ),
        ]
    }

    /// A stream in which every job has a topology of its own: the memo
    /// never hits, so it must cost no more than it saves.
    fn all_distinct(jobs: usize, rate_hz: f64, seed: u64) -> Workload {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut arrival = 0.0;
        let jobs = (0..jobs)
            .map(|id| {
                arrival += -(1.0 - rng.gen::<f64>()).ln() / rate_hz;
                let lps = [16, 20, 24, 30][id % 4];
                Job {
                    id,
                    tenant: TenantId::DEFAULT,
                    family: format!("distinct-{lps}").into(),
                    lps,
                    topology_key: rng.gen::<u64>(),
                    arrival,
                    deadline: None,
                }
            })
            .collect();
        Workload::single_tenant(jobs)
    }

    /// Run `workload` under `spec`'s scan oracle and under the production
    /// policy (checking the holder index on every call) and demand
    /// bit-identical reports and traces.
    fn assert_same_run(
        label: &str,
        spec: &SchedulerSpec,
        fleet: &FleetConfig,
        workload: &Workload,
        config: SimConfig,
    ) {
        let run = |scheduler: &mut dyn Scheduler| {
            let mut sink = VecSink::new();
            let report = simulate_with_telemetry(
                Fleet::new(fleet.clone(), SplitExecConfig::with_seed(fleet.seed)),
                workload,
                scheduler,
                &mut AdmitAll,
                config,
                &mut sink,
                None,
            );
            (report, sink.into_trace())
        };
        let (policy, mut oracle) = policy_and_oracle(spec);
        let (oracle_report, oracle_trace) = run(oracle.as_mut());
        let (report, trace) = run(&mut CheckHolders(policy));
        assert!(
            !oracle_report.records.is_empty(),
            "{label} {spec}: the run completed no job"
        );
        assert_eq!(trace, oracle_trace, "{label} {spec}: traces diverged");
        assert_eq!(report, oracle_report, "{label} {spec}: reports diverged");
    }

    /// Open and closed runs of `workload` under every index-placed policy.
    fn assert_same_runs(label: &str, fleet: &FleetConfig, workload: &Workload) {
        let closed = SimConfig {
            mode: WorkloadMode::Closed { clients: 9 },
            ..SimConfig::default()
        };
        for spec in indexed_specs(workload) {
            assert_same_run(
                &format!("{label} open"),
                &spec,
                fleet,
                workload,
                SimConfig::default(),
            );
            assert_same_run(&format!("{label} closed"), &spec, fleet, workload, closed);
        }
    }

    #[test]
    fn indexed_policies_match_their_scan_oracles_across_the_matrix() {
        let sizes = [24, 28, 30, 36];
        for seed in [3, 41] {
            for (fleet_name, base) in fleet_configs(seed) {
                let calibration = RateCalibration::for_fleet(&base, &sizes).unwrap();
                for (cache_name, fleet) in with_caches(base) {
                    for load in [0.7, 1.5] {
                        let rate = calibration.rate_hz(1.0, load, fleet.qpus);
                        let workload =
                            WorkloadSpec::repeated_topologies(120, rate, seed).generate();
                        let label = format!("seed {seed} {fleet_name} {cache_name} load {load}");
                        assert_same_runs(&label, &fleet, &workload);
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_policies_match_their_scan_oracles_on_deadline_tenants() {
        // Two tenants with proportional-slack deadlines: EDF and the EDF
        // lanes reorder, and WFQ serves two lanes.
        for seed in [6, 23] {
            for (fleet_name, base) in fleet_configs(seed) {
                let rate = RateCalibration::for_fleet(&base, &[16, 20, 24])
                    .unwrap()
                    .rate_hz(1.0, 1.2, base.qpus);
                let workload = MultiTenantSpec::aggressor_victim(24, rate / 4.0, 3.0, 1.0, seed)
                    .with_uniform_deadlines(DeadlinePolicy::ProportionalSlack { factor: 3.0 })
                    .generate();
                for (cache_name, fleet) in with_caches(base) {
                    assert_same_runs(
                        &format!("seed {seed} {fleet_name} {cache_name} deadlines"),
                        &fleet,
                        &workload,
                    );
                }
            }
        }
    }

    #[test]
    fn memoized_affinity_matches_the_scan_oracle_on_diverse_streams() {
        for seed in [5, 17] {
            for (fleet_name, base) in fleet_configs(seed) {
                let rate = RateCalibration::for_fleet(&base, &[16, 20, 24, 30])
                    .unwrap()
                    .rate_hz(1.0, 1.5, base.qpus);
                for (cache_name, fleet) in with_caches(base) {
                    let label = format!("seed {seed} {fleet_name} {cache_name}");
                    // Every job its own topology.
                    let distinct = all_distinct(150, rate, seed);
                    assert_same_run(
                        &format!("{label} distinct"),
                        &SchedulerSpec::CacheAffinity,
                        &fleet,
                        &distinct,
                        SimConfig::default(),
                    );
                    // The overload benchmark's two-tenant shape: a small
                    // repeated victim mix and a 24-variant aggressor.
                    let tenants = MultiTenantSpec::aggressor_victim(20, rate / 6.0, 5.0, 1.0, seed)
                        .generate();
                    assert_same_run(
                        &format!("{label} tenants"),
                        &SchedulerSpec::CacheAffinity,
                        &fleet,
                        &tenants,
                        SimConfig::default(),
                    );
                }
            }
        }
    }

    /// The kinds of job stream the protocol test feeds the index.
    #[derive(Debug, Clone, Copy)]
    enum Stream {
        /// Twelve keys of heavy repetition; key 7 comes at two sizes, so
        /// two pairs share one topology.
        Shared,
        /// Every job a topology of its own.
        Distinct,
    }

    /// Drive one [`CacheAffinity`] through `steps` steps of the engine's
    /// protocol and compare it with [`ScanAffinity`] on every call.  Each
    /// step appends a burst, calls until the policy declines, and removes
    /// and dispatches each returned job; between steps device busy times
    /// and warm sets change (bounded caches evict), and now and then the
    /// clock runs until the queue drains to empty.  Returns the number of
    /// cache evictions.
    fn drive_protocol(seed: u64, stream: Stream, config: FleetConfig, steps: usize) -> usize {
        let label = format!("seed {seed} {stream:?}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fleet = Fleet::new(config, SplitExecConfig::with_seed(seed));
        let mut policy = CacheAffinity::new();
        let mut queue: Vec<Job> = Vec::new();
        let mut next_id = 0;
        let mut now = 0.0;
        let (mut placed, mut held, mut drains, mut deepest, mut evictions) = (0, 0, 0, 0, 0);
        for step in 0..steps {
            let burst = if queue.len() > 120 {
                0
            } else {
                rng.gen_range(0..6usize)
            };
            deepest = deepest.max(queue.len() + burst);
            for _ in 0..burst {
                let (lps, topology_key) = match stream {
                    Stream::Shared => {
                        let key = rng.gen_range(0..12u64);
                        let lps = if key == 7 && rng.gen_bool(0.5) {
                            24
                        } else {
                            16 + 4 * (key as usize % 2)
                        };
                        (lps, key)
                    }
                    Stream::Distinct => ([16, 20, 24][next_id % 3], rng.gen::<u64>()),
                };
                queue.push(Job {
                    id: next_id,
                    tenant: TenantId::DEFAULT,
                    family: "protocol".into(),
                    lps,
                    topology_key,
                    arrival: now,
                    deadline: None,
                });
                next_id += 1;
            }
            // Every 150th step the clock runs until the queue is empty.
            let drain = step % 150 == 149 && !queue.is_empty();
            loop {
                if drain {
                    now = fleet
                        .devices
                        .iter()
                        .map(|d| d.busy_until)
                        .fold(now, f64::max);
                }
                loop {
                    let got = policy.next_assignment(&queue, &fleet, now);
                    let want = ScanAffinity.next_assignment(&queue, &fleet, now);
                    assert_eq!(got, want, "{label} step {step} queue {}", queue.len());
                    let Some((qi, d)) = got else {
                        held += usize::from(!queue.is_empty());
                        break;
                    };
                    let job = queue.remove(qi);
                    let service = fleet.devices[d]
                        .predicted_service_seconds(job.lps, job.topology_key)
                        .unwrap();
                    fleet.devices[d].busy_until = now + service;
                    evictions +=
                        usize::from(fleet.mark_warm(d, job.topology_key, job.lps).is_some());
                    placed += 1;
                }
                if !drain || queue.is_empty() {
                    break;
                }
            }
            drains += usize::from(drain);
            // Between steps: the clock moves, some devices free up or
            // turn busy, and some caches learn topologies of the stream.
            now += 1.0;
            for d in 0..fleet.len() {
                if rng.gen_bool(0.3) {
                    fleet.devices[d].busy_until = if rng.gen_bool(0.2) {
                        now - 1.0
                    } else {
                        now + rng.gen_range(0.0..400.0)
                    };
                }
                if rng.gen_bool(0.1) {
                    let key = match stream {
                        Stream::Shared => rng.gen_range(0..12u64),
                        Stream::Distinct => rng.gen::<u64>(),
                    };
                    let evicted = fleet.mark_warm(d, key, 16 + 4 * (key as usize % 2));
                    evictions += usize::from(evicted.is_some());
                }
            }
        }
        assert!(placed > steps, "{label}: only {placed} placements");
        assert!(
            held > 0,
            "{label}: the policy never declined a waiting queue"
        );
        assert!(
            deepest >= 100,
            "{label}: the queue peaked at {deepest} jobs"
        );
        assert!(drains > 0, "{label}: the queue never drained");
        evictions
    }

    #[test]
    fn indexed_affinity_matches_the_scan_oracle_under_the_engine_protocol() {
        let mut evictions = 0;
        for seed in 0..5u64 {
            for (i, stream) in [Stream::Shared, Stream::Distinct].into_iter().enumerate() {
                let (_, base) = fleet_configs(seed).swap_remove(seed as usize % 3);
                let (_, config) = with_caches(base).swap_remove((seed as usize + i) % 4);
                evictions += drive_protocol(seed, stream, config, 2_000);
            }
        }
        assert!(evictions > 0, "no bounded cache evicted");
    }

    #[test]
    fn affinity_reindexes_a_queue_changed_outside_the_contract() {
        let (_, config) = fleet_configs(3).swap_remove(0);
        let fleet = Fleet::new(config, SplitExecConfig::with_seed(3));
        let queue: Vec<Job> = (0..30)
            .map(|id| Job {
                id,
                tenant: TenantId::DEFAULT,
                family: "reindex".into(),
                lps: 16 + 4 * (id % 3),
                topology_key: (id % 5) as u64,
                arrival: id as f64,
                deadline: None,
            })
            .collect();
        let mut policy = CacheAffinity::new();
        let first = policy.next_assignment(&queue, &fleet, 0.0);
        assert!(first.is_some());
        // The placed job was not removed: its id is still at its position.
        assert_eq!(policy.next_assignment(&queue, &fleet, 0.0), first);
        // A queue shorter than the index expects.
        let short = &queue[20..];
        assert_eq!(
            policy.next_assignment(short, &fleet, 0.0),
            ScanAffinity.next_assignment(short, &fleet, 0.0)
        );
        assert_eq!(policy.next_assignment(&[], &fleet, 0.0), None);
    }

    #[test]
    fn memoized_affinity_matches_the_scan_oracle_on_random_states() {
        // Direct calls on random fleet states: random busy times and warm
        // sets, and queues with heavy key repetition, so held, placed and
        // refused verdicts all occur for repeated keys.  Each round's queue
        // is unrelated to the last, so each gets a fresh policy (the
        // `Scheduler` queue contract).
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for (fleet_name, config) in fleet_configs(7) {
            for round in 0..150 {
                let mut fleet = Fleet::new(config.clone(), SplitExecConfig::with_seed(7));
                let now = 10.0;
                for d in 0..fleet.len() {
                    for _ in 0..rng.gen_range(0..4usize) {
                        let key = rng.gen_range(0..12u64);
                        fleet.mark_warm(d, key, 16 + 4 * (key as usize % 5));
                    }
                    fleet.devices[d].busy_until = if rng.gen_bool(0.5) {
                        now + rng.gen_range(0.0..400.0)
                    } else {
                        now - 1.0
                    };
                }
                let queue: Vec<Job> = (0..rng.gen_range(1..40usize))
                    .map(|id| {
                        let key = rng.gen_range(0..12u64);
                        Job {
                            id,
                            tenant: TenantId::DEFAULT,
                            family: "random".into(),
                            lps: 16 + 4 * (key as usize % 5),
                            topology_key: key,
                            arrival: id as f64,
                            deadline: None,
                        }
                    })
                    .collect();
                assert_eq!(
                    CacheAffinity::new().next_assignment(&queue, &fleet, now),
                    ScanAffinity.next_assignment(&queue, &fleet, now),
                    "{fleet_name} round {round}"
                );
            }
        }
    }
}

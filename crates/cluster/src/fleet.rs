//! The fleet: a rack of simulated QPUs, each with its own fault map.
//!
//! Real annealers ship with fabrication faults (Sec. 2.2 of the paper), and
//! no two devices fault identically — so in a fleet, the *same* job costs
//! different amounts on different devices, and an embedding computed for one
//! device does not transfer to another (its chains reference that device's
//! qubits).  Each [`QpuDevice`] therefore carries:
//!
//! * its QPU generation — in a *heterogeneous* fleet, devices mix
//!   [`QpuModel::Vesuvius`] and [`QpuModel::Dw2x`], so capacity and stage
//!   costs genuinely differ across the rack,
//! * a capacity bound and a fault-difficulty factor derived from the yield
//!   of its own fault draw ([`chimera_graph::FaultModel::random`]),
//! * a shared [`CostModel`]: the paper's analytic stage costs depend only
//!   on the QPU generation, so [`Fleet::new`] tabulates them once per model
//!   and every device of that model holds the same `Arc`,
//! * a per-device *warm set* — the interaction topologies whose embeddings
//!   this device has already computed, held in a **bounded**
//!   [`WarmCache`] with pluggable eviction
//!   ([`crate::cache::EvictionPolicy`]); finite embedding-table capacity is
//!   what produces the hit-rate cliff the `cache-cliff` sweep measures.
//!
//! The capacity bound uses the clique-minor fact that pristine
//! `C(M, N, 4)` Chimera embeds `K_{4·min(M,N)+1}`, degraded linearly by the
//! qubit yield; the difficulty factor charges embedding on a faulted lattice
//! `1/yield³` of the pristine cost (fewer usable qubits ⇒ more CMR passes).
//! Both are modeling assumptions of the simulator, not measurements — they
//! are deliberately simple and deterministic.  No device keeps its fault map
//! or hardware graph: only these two scalars outlive construction.
//!
//! The fleet also carries a *placement index* so "the fastest idle device
//! for this job" ([`Fleet::fastest_idle`]) does not price every device:
//!
//! * the warm holders of each topology, in id order — kept in step with
//!   the device caches because `Fleet::mark_warm` is the one way to make
//!   a device warm;
//! * per QPU model, the device ids sorted by `(fault_difficulty, id)`.  A
//!   device's cold prediction is its model's warm time plus
//!   `embed × fault_difficulty`, which cannot decrease as the difficulty
//!   grows, so the first idle, feasible, cold device in that order is the
//!   model's cheapest cold candidate.
//!
//! The index holds no time state: "idle" is read from
//! [`QpuDevice::busy_until`] at query time, exactly as a full scan reads it.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use split_exec::cost::{CostModel, StageCosts};
use split_exec::{PipelineError, QpuModel, SplitExecConfig};

use crate::cache::{AdmissionPolicy, EvictionPolicyKind, KeyHasher, WarmCache};
use crate::job::Job;
use chimera_graph::{Chimera, FaultModel};

/// Configuration of a simulated fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of QPUs in the fleet.
    pub qpus: usize,
    /// Default QPU generation for devices not covered by [`Self::models`].
    pub qpu_model: QpuModel,
    /// Per-device QPU generations: device `i` installs `models[i % len]`.
    /// Empty means a uniform fleet of [`Self::qpu_model`].
    pub models: Vec<QpuModel>,
    /// Embedding-table capacity per device — how many distinct topologies a
    /// device can keep warm at once.  `None` reproduces the unbounded
    /// caches of earlier revisions.
    pub cache_capacity: Option<usize>,
    /// Eviction policy used when a device's warm cache is full.
    pub eviction: EvictionPolicyKind,
    /// Cache admission policy: whether a cold embedding is cached on its
    /// first occurrence or only on its second
    /// ([`AdmissionPolicy::SecondChance`] doorkeeper).
    pub cache_admission: AdmissionPolicy,
    /// Per-qubit fault probability for each device's fault draw.
    pub qubit_fault_rate: f64,
    /// Per-coupler fault probability.
    pub coupler_fault_rate: f64,
    /// Base seed; device `i` draws its faults with `seed + i`.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            qpus: 4,
            qpu_model: QpuModel::Dw2x,
            models: Vec::new(),
            cache_capacity: None,
            eviction: EvictionPolicyKind::Lru,
            cache_admission: AdmissionPolicy::Always,
            qubit_fault_rate: 0.02,
            coupler_fault_rate: 0.01,
            seed: 0,
        }
    }
}

impl FleetConfig {
    /// A mixed-generation rack: devices alternate DW2X- and Vesuvius-class
    /// hardware, so capacity and per-stage timing differ across the fleet.
    pub fn heterogeneous(qpus: usize, seed: u64) -> Self {
        Self {
            qpus,
            models: vec![QpuModel::Dw2x, QpuModel::Vesuvius],
            seed,
            ..Self::default()
        }
    }

    /// Bound every device's warm cache at `capacity` topologies under the
    /// given eviction policy.
    pub fn with_cache(mut self, capacity: usize, eviction: EvictionPolicyKind) -> Self {
        self.cache_capacity = Some(capacity);
        self.eviction = eviction;
        self
    }

    /// Gate every device's cache insertions behind `admission`.
    pub fn with_cache_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cache_admission = admission;
        self
    }

    /// The QPU generation installed in device `id`.
    pub fn device_model(&self, id: usize) -> QpuModel {
        if self.models.is_empty() {
            self.qpu_model
        } else {
            self.models[id % self.models.len()]
        }
    }

    /// Whether the fleet mixes QPU generations.
    pub fn is_heterogeneous(&self) -> bool {
        (0..self.qpus)
            .map(|id| self.device_model(id))
            .any(|m| m != self.device_model(0))
    }
}

/// The largest clique pristine `model` hardware embeds, `4·min(M,N)+1`:
/// the bound every device's capacity derives from, and so the size of the
/// model's cost table.
fn pristine_clique(model: QpuModel) -> usize {
    let (m, n, _) = model.lattice();
    4 * m.min(n) + 1
}

/// The cost table every device of `model` shares, covering each size a
/// device of that model can run.
pub(crate) fn cost_table(model: QpuModel, app: &SplitExecConfig) -> CostModel {
    CostModel::new(model, app, pristine_clique(model))
}

/// What the devices of one QPU model share: the pristine lattice their
/// faults are drawn on and their cost table.
struct SharedModel {
    model: QpuModel,
    pristine: Chimera,
    cost: Arc<CostModel>,
}

impl SharedModel {
    fn new(model: QpuModel, app: &SplitExecConfig) -> Self {
        let (m, n, l) = model.lattice();
        Self {
            model,
            pristine: Chimera::new(m, n, l),
            cost: Arc::new(cost_table(model, app)),
        }
    }
}

/// One simulated QPU: generation, capacity, shared cost table,
/// warm-embedding cache and runtime occupancy.
#[derive(Debug)]
pub struct QpuDevice {
    /// Fleet-wide device index.
    pub id: usize,
    /// The QPU generation installed in this device.
    model: QpuModel,
    /// Analytic per-stage costs, shared by every device of this model.
    pub cost: Arc<CostModel>,
    /// Largest logical problem size this device can embed.
    pub capacity_lps: usize,
    /// Multiplier on the embedding cost reflecting fault-induced difficulty
    /// (1.0 for a pristine device).  Fixed at construction: the fleet's
    /// cold placement order is sorted by it.
    fault_difficulty: f64,
    /// Bounded warm set: topologies whose embeddings this device holds.
    warm: WarmCache,
    /// When the device becomes idle (virtual seconds); `<= now` means idle.
    pub busy_until: f64,
    /// Total busy seconds accumulated.
    pub busy_seconds: f64,
    /// Jobs served.
    pub jobs_served: usize,
    /// Jobs served with a warm embedding.
    pub warm_hits: usize,
    /// Jobs that had to embed cold.
    pub cold_misses: usize,
}

impl QpuDevice {
    /// Build device `id` of the fleet configuration, drawing its faults on
    /// the model's pristine lattice.
    fn new(id: usize, config: &FleetConfig, shared: &SharedModel) -> Self {
        let faults = FaultModel::random(
            shared.pristine.graph(),
            config.qubit_fault_rate,
            config.coupler_fault_rate,
            config.seed.wrapping_add(id as u64),
        );
        let qubits = shared.pristine.qubit_count();
        let yield_fraction = (qubits - faults.dead_qubits.len()) as f64 / qubits as f64;
        let capacity_lps =
            ((pristine_clique(shared.model) as f64) * yield_fraction).floor() as usize;
        let fault_difficulty = (1.0 / yield_fraction.powi(3)).max(1.0);
        Self {
            id,
            model: shared.model,
            cost: Arc::clone(&shared.cost),
            capacity_lps,
            fault_difficulty,
            warm: WarmCache::new(config.cache_capacity, config.eviction)
                .with_admission(config.cache_admission),
            busy_until: 0.0,
            busy_seconds: 0.0,
            jobs_served: 0,
            warm_hits: 0,
            cold_misses: 0,
        }
    }

    /// The QPU generation installed in this device.
    pub fn model(&self) -> QpuModel {
        self.model
    }

    /// Multiplier on the embedding cost reflecting fault-induced difficulty
    /// (1.0 for a pristine device).
    pub fn fault_difficulty(&self) -> f64 {
        self.fault_difficulty
    }

    /// Whether a logical problem of `lps` spins fits this device.
    pub fn can_run(&self, lps: usize) -> bool {
        lps <= self.capacity_lps
    }

    /// Whether this device currently holds an embedding for `topology_key`.
    pub fn is_warm(&self, topology_key: u64) -> bool {
        self.warm.contains(topology_key)
    }

    /// Number of distinct topologies currently resident in this device's
    /// warm cache.
    pub fn warm_topologies(&self) -> usize {
        self.warm.len()
    }

    /// Embeddings this device has evicted to stay within its capacity.
    pub fn evictions(&self) -> usize {
        self.warm.evictions()
    }

    /// Cold embeddings the cache-admission doorkeeper declined to cache.
    pub fn cache_bypassed(&self) -> usize {
        self.warm.bypassed()
    }

    /// The device's warm-cache capacity (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.warm.capacity()
    }

    /// Whether the device is idle at virtual time `now`.
    pub fn is_idle(&self, now: f64) -> bool {
        self.busy_until <= now
    }

    /// Predicted seconds to (re-)embed a topology of `lps` spins on this
    /// device: the amortizable stage-1 share scaled by fault difficulty.
    /// This is the value the cost-aware eviction policy protects.
    pub fn reembed_seconds(&self, lps: usize) -> f64 {
        self.cost
            .embed_seconds(lps)
            .map(|embed| embed * self.fault_difficulty)
            .unwrap_or(0.0)
    }

    /// Per-stage service seconds this device would charge a job of `lps`
    /// spins with the given cache state (cold embedding scaled by the
    /// fault-difficulty factor).
    pub fn service_breakdown(
        &self,
        lps: usize,
        warm: bool,
    ) -> Result<(f64, f64, f64), PipelineError> {
        let costs: StageCosts = self.cost.costs(lps)?;
        let stage1 = if warm {
            costs.stage1_warm_seconds()
        } else {
            costs.stage1_warm_seconds() + costs.stage1_embed_seconds * self.fault_difficulty
        };
        Ok((stage1, costs.stage2_seconds, costs.stage3_seconds))
    }

    /// Predicted total service seconds for a job of `lps` spins, accounting
    /// for this device's current cache state — the oracle the
    /// shortest-predicted-job-first and affinity schedulers consult.
    pub fn predicted_service_seconds(
        &self,
        lps: usize,
        topology_key: u64,
    ) -> Result<f64, PipelineError> {
        self.service_seconds(lps, self.is_warm(topology_key))
    }

    /// Total service seconds for a job of `lps` spins with the given cache
    /// state: the sum [`Self::predicted_service_seconds`] returns, for a
    /// caller that already knows the warmth.
    fn service_seconds(&self, lps: usize, warm: bool) -> Result<f64, PipelineError> {
        let (s1, s2, s3) = self.service_breakdown(lps, warm)?;
        Ok(s1 + s2 + s3)
    }

    /// Record a warm hit: refresh the topology's recency so LRU ordering
    /// reflects use, not just insertion.
    pub(crate) fn touch_warm(&mut self, topology_key: u64) {
        self.warm.touch(topology_key);
    }

    /// Record that this device computed (and cached) an embedding for
    /// `topology_key` of `lps` spins, evicting a resident topology if the
    /// cache is at capacity.  Returns the evicted key, if any.  Only
    /// [`Fleet::mark_warm`] calls it, so the holder index follows every
    /// change of residency.
    fn mark_warm(&mut self, topology_key: u64, lps: usize) -> Option<u64> {
        let reembed = self.reembed_seconds(lps);
        // sx-lint: allow(A001) -- delegates to WarmCache::insert, whose buffers are pre-sized to the cache capacity in cache.rs
        self.warm.insert(topology_key, lps, reembed)
    }
}

/// The ids of `model`'s devices sorted by `(fault_difficulty, id)`: the
/// order in which their cold predictions ascend.
fn cold_order(devices: &[QpuDevice], model: QpuModel) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..devices.len())
        .filter(|&id| devices[id].model == model)
        .map(|id| id as u32)
        .collect();
    ids.sort_by(|&a, &b| {
        let (da, db) = (&devices[a as usize], &devices[b as usize]);
        da.fault_difficulty
            .total_cmp(&db.fault_difficulty)
            .then(a.cmp(&b))
    });
    ids
}

/// End of a holder list in [`WarmHolders::nodes`].
const NIL: u32 = u32::MAX;

/// One link of a holder list: a device id and the next node.
#[derive(Debug, Clone, Copy)]
struct HolderNode {
    device: u32,
    next: u32,
}

/// Which devices hold each topology warm.
///
/// Each resident key owns a singly linked list of device ids in ascending
/// order, threaded through one node pool; freed nodes go on a free list.
/// A bounded fleet has at most `devices × capacity` resident
/// `(device, key)` pairs, so [`WarmHolders::with_capacity`] sizes the
/// pool and the key map for that many and steady-state dispatch never
/// allocates.  The
/// map is sized at twice the pair bound: a hash table holding at most half
/// its capacity rehashes its tombstones in place instead of growing.
/// Unbounded caches grow both once per newly resident pair.
#[derive(Debug)]
struct WarmHolders {
    /// Head node of each resident key's list.
    heads: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The node pool.
    nodes: Vec<HolderNode>,
    /// Head of the free-node list.
    free: u32,
}

impl WarmHolders {
    fn with_capacity(pairs: usize) -> Self {
        Self {
            heads: HashMap::with_capacity_and_hasher(2 * pairs, BuildHasherDefault::default()),
            nodes: Vec::with_capacity(pairs),
            free: NIL,
        }
    }

    /// The holders of `key`, in ascending id order.
    fn iter(&self, key: u64) -> Holders<'_> {
        Holders {
            nodes: &self.nodes,
            at: self.heads.get(&key).copied().unwrap_or(NIL),
        }
    }

    /// Add `device` to `key`'s list, keeping id order.
    // sx-lint: hot-root -- cold-embed bookkeeping: called once per newly cached embedding
    fn insert(&mut self, key: u64, device: usize) {
        let device = device as u32;
        let node = if self.free == NIL {
            self.nodes.push(HolderNode { device, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].next;
            self.nodes[node as usize] = HolderNode { device, next: NIL };
            node
        };
        let head = self.heads.entry(key).or_insert(NIL);
        if *head == NIL || self.nodes[*head as usize].device > device {
            self.nodes[node as usize].next = *head;
            *head = node;
            return;
        }
        let mut at = *head;
        loop {
            let next = self.nodes[at as usize].next;
            if next == NIL || self.nodes[next as usize].device > device {
                break;
            }
            at = next;
        }
        self.nodes[node as usize].next = self.nodes[at as usize].next;
        self.nodes[at as usize].next = node;
    }

    /// Drop `device` from `key`'s list; an emptied list leaves the map.
    // sx-lint: hot-root -- eviction bookkeeping: called once per evicted embedding
    fn remove(&mut self, key: u64, device: usize) {
        let device = device as u32;
        let Some(&head) = self.heads.get(&key) else {
            return;
        };
        let (mut prev, mut at) = (NIL, head);
        while at != NIL && self.nodes[at as usize].device != device {
            (prev, at) = (at, self.nodes[at as usize].next);
        }
        if at == NIL {
            return;
        }
        let next = self.nodes[at as usize].next;
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if next != NIL {
            self.heads.insert(key, next);
        } else {
            self.heads.remove(&key);
        }
        self.nodes[at as usize].next = self.free;
        self.free = at;
    }
}

/// Iterator over one topology's warm holders, in ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct Holders<'a> {
    nodes: &'a [HolderNode],
    at: u32,
}

impl Iterator for Holders<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == NIL {
            return None;
        }
        let node = self.nodes[self.at as usize];
        self.at = node.next;
        Some(node.device as usize)
    }
}

/// The fleet: all devices plus shared application configuration, and the
/// placement index over them.
#[derive(Debug)]
pub struct Fleet {
    /// The devices, indexed by id.
    pub devices: Vec<QpuDevice>,
    /// The application configuration shared by all devices.
    pub app_config: SplitExecConfig,
    /// Per QPU model, the device ids sorted by `(fault_difficulty, id)`:
    /// the order in which that model's cold predictions ascend.
    cold_order: Vec<Vec<u32>>,
    /// The warm holders of each resident topology.
    holders: WarmHolders,
}

impl Fleet {
    /// Build a fleet, drawing each device's faults deterministically from
    /// the configured seed.  Each QPU model in use gets one pristine
    /// lattice and one cost table, shared by all its devices.
    pub fn new(config: FleetConfig, app_config: SplitExecConfig) -> Self {
        assert!(config.qpus > 0, "a fleet needs at least one QPU");
        assert!(
            u32::try_from(config.qpus).is_ok_and(|qpus| qpus < NIL),
            "the placement index stores device ids as u32"
        );
        let mut shared: Vec<SharedModel> = Vec::new();
        let mut devices = Vec::with_capacity(config.qpus);
        for id in 0..config.qpus {
            let model = config.device_model(id);
            let index = match shared.iter().position(|s| s.model == model) {
                Some(index) => index,
                None => {
                    shared.push(SharedModel::new(model, &app_config));
                    shared.len() - 1
                }
            };
            devices.push(QpuDevice::new(id, &config, &shared[index]));
        }
        let cold_order = shared
            .iter()
            .map(|s| cold_order(&devices, s.model))
            .collect();
        let pairs = config.cache_capacity.unwrap_or(0) * config.qpus;
        Self {
            devices,
            app_config,
            cold_order,
            holders: WarmHolders::with_capacity(pairs),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Record that device `d` computed an embedding for `topology_key` of
    /// `lps` spins: the device caches it (or its admission gate bypasses
    /// it), and the holder index follows — the new holder joins, an
    /// evicted topology's holder leaves.  Returns the evicted key, if any.
    // sx-lint: hot-root -- cold-embed bookkeeping: called once per dispatched cold job
    pub(crate) fn mark_warm(&mut self, d: usize, topology_key: u64, lps: usize) -> Option<u64> {
        let device = &mut self.devices[d];
        let was_warm = device.is_warm(topology_key);
        let evicted = device.mark_warm(topology_key, lps);
        let now_warm = device.is_warm(topology_key);
        if let Some(key) = evicted {
            self.holders.remove(key, d);
        }
        if now_warm && !was_warm {
            self.holders.insert(topology_key, d);
        }
        evicted
    }

    /// The devices holding `topology_key` warm, in ascending id order.
    pub(crate) fn warm_holders(&self, topology_key: u64) -> Holders<'_> {
        self.holders.iter(topology_key)
    }

    /// The idle device predicted fastest for `job` — smallest
    /// [`QpuDevice::predicted_service_seconds`] among the idle devices
    /// that can run it, ties broken by the lower id — together with that
    /// prediction; `None` when no idle device can run it.
    ///
    /// The answer equals a scan of every device, bit for bit, but the
    /// query prices only the idle warm holders of the job's topology and,
    /// per QPU model, a prefix of the cold order: it skips devices that
    /// are busy, too small or warm, takes the first one left, and keeps
    /// walking while the cold cost equals that first cost (rounding can
    /// tie devices of different difficulty, and the lower id must win).
    /// The first strictly larger cost ends the model's walk.
    // sx-lint: hot-root -- the placement primitive of wfq, edf and affinity, once per priced job per dispatch attempt
    pub fn fastest_idle(&self, job: &Job, now: f64) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        let mut offer = |cost: f64, id: usize| {
            if best.is_none_or(|(c, i)| cost.total_cmp(&c).then(id.cmp(&i)).is_lt()) {
                best = Some((cost, id));
            }
        };
        for id in self.warm_holders(job.topology_key) {
            let device = &self.devices[id];
            if device.is_idle(now) && device.can_run(job.lps) {
                if let Ok(cost) = device.service_seconds(job.lps, true) {
                    offer(cost, id);
                }
            }
        }
        for order in &self.cold_order {
            let mut first: Option<f64> = None;
            for &id in order {
                let device = &self.devices[id as usize];
                if !device.is_idle(now)
                    || !device.can_run(job.lps)
                    || device.is_warm(job.topology_key)
                {
                    continue;
                }
                // A model's cost table prices a size for all its devices
                // or for none.
                let Ok(cost) = device.service_seconds(job.lps, false) else {
                    break;
                };
                if first.is_some_and(|first| cost > first) {
                    break;
                }
                first = Some(cost);
                offer(cost, id as usize);
            }
        }
        best
    }

    /// The costliest *cold* service any device would charge a job of
    /// `lps` spins — the longest a single job of that size can pin a
    /// device (devices that cannot run or price the size contribute
    /// nothing; 0.0 when none can).
    ///
    /// This is the "worst pin" bound the deadline scenarios build on: a
    /// tenant whose slack comfortably exceeds the worst pin of the
    /// largest job in circulation is always feasible at admission time,
    /// so deadline-infeasibility shedding can never touch it.
    pub fn worst_cold_service_seconds(&self, lps: usize) -> f64 {
        self.devices
            .iter()
            .filter(|d| d.can_run(lps))
            .filter_map(|d| {
                let (s1, s2, s3) = d.service_breakdown(lps, false).ok()?;
                Some(s1 + s2 + s3)
            })
            .fold(0.0, f64::max)
    }
}

/// Test-only reference oracles for the placement index.
#[cfg(test)]
impl Fleet {
    /// The whole-fleet scan [`Fleet::fastest_idle`] replaced: price every
    /// idle device that can run `job` and keep the smallest `(cost, id)`.
    pub(crate) fn fastest_idle_scan(&self, job: &Job, now: f64) -> Option<(f64, usize)> {
        self.devices
            .iter()
            .filter(|d| d.is_idle(now) && d.can_run(job.lps))
            .filter_map(|d| {
                let predicted = d
                    .predicted_service_seconds(job.lps, job.topology_key)
                    .ok()?;
                Some((predicted, d.id))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Panic unless every topology's holder list is exactly the devices
    /// warm for it, in id order — for each key resident anywhere and each
    /// key the index lists.
    pub(crate) fn assert_holders_match_caches(&self) {
        let resident = self
            .devices
            .iter()
            .flat_map(|d| d.warm.entries().iter().map(|e| e.key));
        for key in resident.chain(self.holders.heads.keys().copied()) {
            let warm: Vec<usize> = self
                .devices
                .iter()
                .filter(|d| d.is_warm(key))
                .map(|d| d.id)
                .collect();
            let listed: Vec<usize> = self.warm_holders(key).collect();
            assert_eq!(listed, warm, "holder list of topology {key:#x}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(qpus: usize, rate: f64, seed: u64) -> Fleet {
        Fleet::new(
            FleetConfig {
                qpus,
                qubit_fault_rate: rate,
                coupler_fault_rate: rate / 2.0,
                seed,
                ..FleetConfig::default()
            },
            SplitExecConfig::with_seed(seed),
        )
    }

    #[test]
    fn devices_draw_distinct_fault_maps() {
        let f = fleet(3, 0.05, 7);
        assert_eq!(f.len(), 3);
        // Each device's yield, and so its difficulty, comes from its own
        // fault draw.
        let difficulty: Vec<f64> = f.devices.iter().map(|d| d.fault_difficulty()).collect();
        assert_ne!(difficulty[0], difficulty[1]);
        assert_ne!(difficulty[1], difficulty[2]);
        // Same seed rebuilds the same fleet.
        let g = fleet(3, 0.05, 7);
        for (a, b) in f.devices.iter().zip(&g.devices) {
            assert_eq!(a.capacity_lps, b.capacity_lps);
            assert_eq!(a.fault_difficulty(), b.fault_difficulty());
        }
    }

    #[test]
    fn same_model_devices_share_one_cost_table() {
        let f = Fleet::new(
            FleetConfig::heterogeneous(4, 9),
            SplitExecConfig::with_seed(9),
        );
        assert!(Arc::ptr_eq(&f.devices[0].cost, &f.devices[2].cost));
        assert!(Arc::ptr_eq(&f.devices[1].cost, &f.devices[3].cost));
        assert!(!Arc::ptr_eq(&f.devices[0].cost, &f.devices[1].cost));
        // Each table covers every size its devices can run.
        for d in &f.devices {
            assert!(d.cost.costs(d.capacity_lps).is_ok());
        }
    }

    #[test]
    fn pristine_device_has_full_capacity_and_unit_difficulty() {
        let f = fleet(1, 0.0, 1);
        let d = &f.devices[0];
        // C(12,12,4) pristine: K_49 capacity, no difficulty penalty.
        assert_eq!(d.capacity_lps, 49);
        assert_eq!(d.fault_difficulty(), 1.0);
        assert!(d.can_run(49));
        assert!(!d.can_run(50));
    }

    #[test]
    fn faults_reduce_capacity_and_raise_difficulty() {
        let faulty = fleet(1, 0.08, 3);
        let pristine = fleet(1, 0.0, 3);
        let d = &faulty.devices[0];
        assert!(d.capacity_lps < pristine.devices[0].capacity_lps);
        assert!(d.fault_difficulty() > 1.0);
        // Stage-1 cold cost is dearer on the faulty device.
        let (cold_faulty, _, _) = d.service_breakdown(20, false).unwrap();
        let (cold_pristine, _, _) = pristine.devices[0].service_breakdown(20, false).unwrap();
        assert!(cold_faulty > cold_pristine);
        // Warm cost is identical — no embedding happens.
        let (warm_faulty, _, _) = d.service_breakdown(20, true).unwrap();
        let (warm_pristine, _, _) = pristine.devices[0].service_breakdown(20, true).unwrap();
        assert!((warm_faulty - warm_pristine).abs() < 1e-12);
    }

    #[test]
    fn warm_set_drives_predicted_service() {
        let mut f = fleet(1, 0.01, 5);
        let key = 0xDEADBEEF;
        let cold = f.devices[0].predicted_service_seconds(40, key).unwrap();
        f.mark_warm(0, key, 40);
        assert!(f.devices[0].is_warm(key));
        let warm = f.devices[0].predicted_service_seconds(40, key).unwrap();
        assert!(
            warm < cold / 10.0,
            "warm {warm} should be far below cold {cold}"
        );
        assert_eq!(f.devices[0].warm_topologies(), 1);
    }

    #[test]
    fn bounded_device_cache_evicts_at_capacity() {
        let mut f = Fleet::new(
            FleetConfig {
                qpus: 1,
                qubit_fault_rate: 0.0,
                coupler_fault_rate: 0.0,
                seed: 1,
                ..FleetConfig::default()
            }
            .with_cache(2, EvictionPolicyKind::Lru),
            SplitExecConfig::with_seed(1),
        );
        assert_eq!(f.devices[0].cache_capacity(), Some(2));
        assert_eq!(f.mark_warm(0, 1, 30), None);
        assert_eq!(f.mark_warm(0, 2, 36), None);
        f.devices[0].touch_warm(1);
        assert_eq!(f.mark_warm(0, 3, 40), Some(2));
        assert!(f.warm_holders(2).next().is_none());
        let d = &f.devices[0];
        assert_eq!(d.warm_topologies(), 2);
        assert_eq!(d.evictions(), 1);
        assert!(!d.is_warm(2));
        // An evicted topology predicts cold again.
        let re_cold = d.predicted_service_seconds(36, 2).unwrap();
        let warm = d.predicted_service_seconds(40, 3).unwrap();
        assert!(re_cold > 10.0 * warm);
    }

    #[test]
    fn cost_aware_device_cache_protects_large_topologies() {
        let mut f = Fleet::new(
            FleetConfig {
                qpus: 1,
                qubit_fault_rate: 0.0,
                coupler_fault_rate: 0.0,
                seed: 1,
                ..FleetConfig::default()
            }
            .with_cache(2, EvictionPolicyKind::CostAware),
            SplitExecConfig::with_seed(1),
        );
        // Re-embed cost grows with lps, so the small topology is evicted
        // even though the large one is older.
        assert!(f.devices[0].reembed_seconds(36) > f.devices[0].reembed_seconds(8));
        f.mark_warm(0, 1, 36);
        f.mark_warm(0, 2, 8);
        assert_eq!(f.mark_warm(0, 3, 20), Some(2));
        assert!(f.devices[0].is_warm(1));
    }

    #[test]
    fn cache_admission_gate_wires_through_the_fleet_config() {
        let mut f = Fleet::new(
            FleetConfig {
                qpus: 1,
                qubit_fault_rate: 0.0,
                coupler_fault_rate: 0.0,
                seed: 1,
                ..FleetConfig::default()
            }
            .with_cache(4, EvictionPolicyKind::Lru)
            .with_cache_admission(AdmissionPolicy::SecondChance),
            SplitExecConfig::with_seed(1),
        );
        f.mark_warm(0, 7, 20);
        assert!(
            !f.devices[0].is_warm(7),
            "doorkeeper must bypass the first occurrence"
        );
        assert!(f.warm_holders(7).next().is_none());
        assert_eq!(f.devices[0].cache_bypassed(), 1);
        f.mark_warm(0, 7, 20);
        assert!(f.devices[0].is_warm(7), "second occurrence must be cached");
        assert_eq!(f.warm_holders(7).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn heterogeneous_fleet_mixes_generations() {
        let config = FleetConfig::heterogeneous(4, 9);
        assert!(config.is_heterogeneous());
        assert_eq!(config.device_model(0), QpuModel::Dw2x);
        assert_eq!(config.device_model(1), QpuModel::Vesuvius);
        let f = Fleet::new(config, SplitExecConfig::with_seed(9));
        assert_eq!(f.devices[0].model(), QpuModel::Dw2x);
        assert_eq!(f.devices[1].model(), QpuModel::Vesuvius);
        // The Vesuvius device is smaller: lower embedding capacity...
        assert!(f.devices[1].capacity_lps < f.devices[0].capacity_lps);
        // ...and different stage-1 cost for the same job.
        let (s1_dw2x, _, _) = f.devices[0].service_breakdown(20, false).unwrap();
        let (s1_ves, _, _) = f.devices[1].service_breakdown(20, false).unwrap();
        assert_ne!(s1_dw2x, s1_ves);
        // A uniform fleet reports homogeneous.
        assert!(!FleetConfig::default().is_heterogeneous());
    }

    #[test]
    fn idle_tracking() {
        let mut f = fleet(2, 0.0, 1);
        assert!(f.devices.iter().all(|d| d.is_idle(0.0)));
        f.devices[0].busy_until = 5.0;
        assert!(!f.devices[0].is_idle(1.0) && f.devices[1].is_idle(1.0));
        // `busy_until == now` counts as idle.
        assert!(f.devices.iter().all(|d| d.is_idle(5.0)));
    }

    /// Random fleet states for the placement-index differential test:
    /// random warm sets (through [`Fleet::mark_warm`], so evictions and
    /// doorkeeper bypasses happen), busy times on both sides of `now` and
    /// exactly at it, and capacities set by hand on some devices.
    fn randomize(f: &mut Fleet, rng: &mut rand_chacha::ChaCha8Rng, now: f64) {
        use rand::Rng;
        for d in 0..f.len() {
            for _ in 0..rng.gen_range(0..6usize) {
                let key = rng.gen_range(0..10u64);
                f.mark_warm(d, key, 12 + 4 * (key as usize % 6));
            }
            f.devices[d].busy_until = match rng.gen_range(0..4u8) {
                0 => now + rng.gen_range(0.1..50.0),
                1 => now,
                _ => now - rng.gen_range(0.0..5.0),
            };
            if rng.gen_bool(0.2) {
                f.devices[d].capacity_lps = rng.gen_range(10..40usize);
            }
        }
    }

    #[test]
    fn fastest_idle_matches_the_whole_fleet_scan_on_random_states() {
        use rand_chacha::rand_core::SeedableRng;
        let faulty = FleetConfig {
            qpus: 12,
            qubit_fault_rate: 0.06,
            coupler_fault_rate: 0.03,
            ..FleetConfig::default()
        };
        let uniform = FleetConfig {
            qpus: 12,
            qubit_fault_rate: 0.0,
            coupler_fault_rate: 0.0,
            ..FleetConfig::default()
        };
        let shapes = [
            ("uniform", uniform),
            ("hetero", FleetConfig::heterogeneous(12, 0)),
            ("faulty", faulty),
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        let mut placed = 0;
        let mut f = fleet(1, 0.0, 0);
        for (shape, base) in shapes {
            let caches = [
                ("unbounded", base.clone()),
                ("lru2", base.clone().with_cache(2, EvictionPolicyKind::Lru)),
                (
                    "cost3",
                    base.clone().with_cache(3, EvictionPolicyKind::CostAware),
                ),
                (
                    "lru2-second-chance",
                    base.clone()
                        .with_cache(2, EvictionPolicyKind::Lru)
                        .with_cache_admission(AdmissionPolicy::SecondChance),
                ),
            ];
            for (cache, config) in caches {
                for round in 0..40u64 {
                    // A fresh fault draw every fifth round; in between, the
                    // random states pile up on one fleet's caches.
                    if round % 5 == 0 {
                        let config = FleetConfig {
                            seed: round,
                            ..config.clone()
                        };
                        f = Fleet::new(config, SplitExecConfig::with_seed(round));
                    }
                    let now = 100.0 * (round + 1) as f64;
                    randomize(&mut f, &mut rng, now);
                    f.assert_holders_match_caches();
                    for key in 0..12u64 {
                        for lps in [8, 12, 20, 28, 36, 48, 60] {
                            let job = Job {
                                id: 0,
                                tenant: crate::tenant::TenantId::DEFAULT,
                                family: "probe".into(),
                                lps,
                                topology_key: key,
                                arrival: 0.0,
                                deadline: None,
                            };
                            let scan = f.fastest_idle_scan(&job, now);
                            let index = f.fastest_idle(&job, now);
                            assert_eq!(
                                index.map(|(c, d)| (c.to_bits(), d)),
                                scan.map(|(c, d)| (c.to_bits(), d)),
                                "{shape} {cache} round {round} key {key} lps {lps}"
                            );
                            placed += usize::from(scan.is_some());
                        }
                    }
                }
            }
        }
        assert!(placed > 1000, "too few placements exercised: {placed}");
    }

    #[test]
    fn a_rounding_tie_between_difficulties_goes_to_the_lower_id() {
        // Device 0 is one ulp harder than devices 1 and 2, so the cold
        // order is 1, 2, 0.  For some size its cold cost still rounds to
        // theirs, and then the scan's lowest-id tie-break picks device 0:
        // the walk must not stop at the first device of the order.
        let mut f = fleet(3, 0.0, 1);
        f.devices[0].fault_difficulty = 1.0f64.next_up();
        f.cold_order = vec![cold_order(&f.devices, QpuModel::Dw2x)];
        assert_eq!(f.cold_order, vec![vec![1, 2, 0]]);
        let tied = (4..=49)
            .map(|lps| Job {
                id: 0,
                tenant: crate::tenant::TenantId::DEFAULT,
                family: "tie".into(),
                lps,
                topology_key: 1,
                arrival: 0.0,
                deadline: None,
            })
            .filter(|job| {
                let cost = |d: usize| f.devices[d].service_seconds(job.lps, false).unwrap();
                cost(0) == cost(1)
            })
            .collect::<Vec<_>>();
        assert!(
            !tied.is_empty(),
            "no size rounds the two difficulties to one cost"
        );
        for job in &tied {
            assert_eq!(f.fastest_idle_scan(job, 0.0).map(|(_, d)| d), Some(0));
            assert_eq!(f.fastest_idle(job, 0.0), f.fastest_idle_scan(job, 0.0));
        }
    }

    #[test]
    fn holder_lists_follow_insertions_evictions_and_bypasses() {
        let mut f = Fleet::new(
            FleetConfig {
                qpus: 3,
                ..FleetConfig::default()
            }
            .with_cache(1, EvictionPolicyKind::Lru),
            SplitExecConfig::with_seed(1),
        );
        f.mark_warm(2, 5, 10);
        f.mark_warm(0, 5, 10);
        f.mark_warm(1, 5, 10);
        assert_eq!(f.warm_holders(5).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Device 1's one slot goes to topology 6: it leaves 5's list.
        assert_eq!(f.mark_warm(1, 6, 10), Some(5));
        assert_eq!(f.warm_holders(5).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(f.warm_holders(6).collect::<Vec<_>>(), vec![1]);
        // Re-marking a resident topology changes nothing.
        assert_eq!(f.mark_warm(0, 5, 10), None);
        assert_eq!(f.warm_holders(5).collect::<Vec<_>>(), vec![0, 2]);
        // Emptied lists leave the index; freed nodes are reused.
        f.mark_warm(0, 7, 10);
        f.mark_warm(2, 7, 10);
        assert!(f.warm_holders(5).next().is_none());
        assert_eq!(f.warm_holders(7).collect::<Vec<_>>(), vec![0, 2]);
        f.assert_holders_match_caches();
    }

    #[test]
    #[should_panic(expected = "at least one QPU")]
    fn empty_fleet_is_rejected() {
        Fleet::new(
            FleetConfig {
                qpus: 0,
                ..FleetConfig::default()
            },
            SplitExecConfig::default(),
        );
    }
}

//! Bounded per-device warm-embedding caches with pluggable eviction.
//!
//! PR 2 modeled each device's embedding cache as an unbounded `HashSet`,
//! which silently assumes infinite embedding-table memory: the simulator
//! could never exhibit the hit-rate cliff that appears when the working set
//! of topologies outgrows what a device can hold.  [`WarmCache`] makes the
//! capacity finite and delegates the victim choice to an
//! [`EvictionPolicyKind`]:
//!
//! * [`EvictionPolicyKind::Lru`] — evict the least-recently-used topology,
//!   the classic default.
//! * [`EvictionPolicyKind::CostAware`] — evict the topology with the
//!   *smallest* predicted re-embed cost (the cheapest entry to re-warm, as
//!   priced by [`split_exec::CostModel`] at insertion time).  When
//!   topologies differ in logical problem size, the embed cost spans orders
//!   of magnitude (∝ LPS³), so protecting the expensive entries beats pure
//!   recency.
//!
//! Determinism: the cache keeps its entries in a plain `Vec` in insertion
//! order, recency is a monotone counter bumped on every touch, and every
//! policy breaks ties by `(recency, key)` — so a seeded simulation replays
//! bit-identically with eviction enabled.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// One resident embedding, as the eviction policies see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// Canonical interaction-topology key
    /// ([`split_exec::offline_cache::graph_key`]).
    pub key: u64,
    /// Logical problem size of the cached topology.
    pub lps: usize,
    /// Recency stamp: the cache's logical clock at the last hit or insert.
    pub last_use: u64,
    /// Predicted seconds to re-embed this topology on the owning device if
    /// it were evicted (embed share × the device's fault difficulty).
    pub reembed_seconds: f64,
}

/// Which resident entry a full cache sacrifices; also the policy's name
/// for configuration and CLI surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicyKind {
    /// Least-recently-used eviction.
    #[default]
    Lru,
    /// Cost-aware eviction: sacrifice the entry that is cheapest to
    /// re-warm.  Ties (identical predicted re-embed cost, e.g. equal-sized
    /// topologies on one device) fall back to LRU order.
    CostAware,
}

impl EvictionPolicyKind {
    /// All eviction policies, in comparison-table order.
    pub fn all() -> [EvictionPolicyKind; 2] {
        [EvictionPolicyKind::Lru, EvictionPolicyKind::CostAware]
    }

    /// The policy's stable name.
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::CostAware => "cost-aware",
        }
    }

    /// Index of the entry to evict; `entries` is never empty.  The same
    /// entries in the same order always give the same victim: LRU breaks
    /// ties by `(last_use, key)`, cost-aware orders by re-embed cost
    /// (`total_cmp`), then `last_use`, then `key`.
    pub fn victim(&self, entries: &[CacheEntry]) -> usize {
        let candidates = entries.iter().enumerate();
        let victim = match self {
            EvictionPolicyKind::Lru => candidates.min_by_key(|(_, e)| (e.last_use, e.key)),
            EvictionPolicyKind::CostAware => candidates.min_by(|(_, a), (_, b)| {
                a.reembed_seconds
                    .total_cmp(&b.reembed_seconds)
                    .then(a.last_use.cmp(&b.last_use))
                    .then(a.key.cmp(&b.key))
            }),
        };
        victim
            .map(|(i, _)| i)
            // sx-lint: allow(A002) -- same contract as the H003 allow below: unreachable on a non-empty cache
            // sx-lint: allow(H003) -- victim contract: `entries` is never empty
            .expect("victim() called on an empty cache")
    }
}

impl std::str::FromStr for EvictionPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lru" => Ok(EvictionPolicyKind::Lru),
            "cost" | "cost-aware" | "costaware" => Ok(EvictionPolicyKind::CostAware),
            other => Err(format!(
                "unknown eviction policy '{other}' (expected lru or cost-aware)"
            )),
        }
    }
}

impl std::fmt::Display for EvictionPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cache *admission*: whether a freshly computed embedding is worth caching
/// at all.  Eviction decides who leaves a full cache; admission decides who
/// enters — on low-repetition mixes, unconditionally caching every one-shot
/// topology churns the cache and evicts the hot entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Cache every cold embedding (the pre-admission behavior).
    #[default]
    Always,
    /// TinyLFU-style doorkeeper: a topology is only admitted to the cache
    /// on its *second* cold occurrence on this device.  One-shot topologies
    /// never enter, so they cannot evict recurring ones.
    SecondChance,
}

impl AdmissionPolicy {
    /// All admission policies, in comparison-table order.
    pub fn all() -> [AdmissionPolicy; 2] {
        [AdmissionPolicy::Always, AdmissionPolicy::SecondChance]
    }

    /// The policy's stable name.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Always => "always",
            AdmissionPolicy::SecondChance => "second-chance",
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "always" => Ok(AdmissionPolicy::Always),
            "second-chance" | "secondchance" | "second" | "doorkeeper" => {
                Ok(AdmissionPolicy::SecondChance)
            }
            other => Err(format!(
                "unknown cache admission policy '{other}' (expected always or second-chance)"
            )),
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A multiply-rotate hasher (the `FxHash` scheme) for the simulator's hot
/// membership sets of topology keys.  A std `SipHash` probe costs several
/// times more, and the keys are already well-mixed graph hashes.  Every
/// set or map hashed by it answers lookups only — nothing iterates one —
/// so the hash never affects a decision.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// A membership set hashed by [`KeyHasher`].
pub(crate) type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;

/// A bounded set of warm topologies with pluggable eviction.
///
/// `capacity = None` reproduces PR 2's unbounded behavior; `Some(0)`
/// disables caching entirely (every job embeds cold, nothing is ever
/// resident).
///
/// ```
/// use sx_cluster::prelude::*;
///
/// // Two slots, LRU eviction.
/// let mut cache = WarmCache::new(Some(2), EvictionPolicyKind::Lru);
/// cache.insert(101, 24, 5.0); // (topology key, lps, re-embed seconds)
/// cache.insert(102, 30, 9.0);
///
/// // A warm hit refreshes recency, so key 102 is now the LRU victim.
/// assert!(cache.touch(101));
/// assert_eq!(cache.insert(103, 36, 14.0), Some(102));
/// assert!(cache.contains(101) && cache.contains(103) && !cache.contains(102));
/// assert_eq!(cache.evictions(), 1);
/// ```
#[derive(Debug)]
pub struct WarmCache {
    capacity: Option<usize>,
    policy: EvictionPolicyKind,
    admission: AdmissionPolicy,
    entries: Vec<CacheEntry>,
    /// Mirror of the resident keys: `contains` is on the schedulers' hot
    /// path (every queue × idle-device pairing queries warmth), so
    /// membership must not scan `entries`.
    resident: KeySet<u64>,
    /// The doorkeeper: keys seen cold exactly once under
    /// [`AdmissionPolicy::SecondChance`].  Unbounded — a key is 8 bytes and
    /// a simulated run sees a bounded topology universe; a production cache
    /// would use a Bloom filter with periodic reset here.
    doorkeeper: KeySet<u64>,
    clock: u64,
    evictions: usize,
    bypassed: usize,
}

impl WarmCache {
    /// A cache holding at most `capacity` topologies (`None` = unbounded),
    /// admitting every cold embedding ([`AdmissionPolicy::Always`]).
    pub fn new(capacity: Option<usize>, policy: EvictionPolicyKind) -> Self {
        // Bounded caches pre-size both the entry list and the residency
        // mirror so steady-state inserts never grow them (unbounded caches
        // still grow, amortized over distinct topologies, not events).
        let slots = capacity.unwrap_or(0);
        Self {
            capacity,
            policy,
            admission: AdmissionPolicy::default(),
            entries: Vec::with_capacity(slots),
            resident: KeySet::with_capacity_and_hasher(slots, BuildHasherDefault::default()),
            doorkeeper: KeySet::default(),
            clock: 0,
            evictions: 0,
            bypassed: 0,
        }
    }

    /// Gate insertions behind the given admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// An unbounded cache (PR 2 semantics).
    pub fn unbounded() -> Self {
        Self::new(None, EvictionPolicyKind::Lru)
    }

    /// Whether `key` is resident (O(1)).
    // sx-lint: hot-root -- warmth probe: every queue × idle-device pairing asks this
    pub fn contains(&self, key: u64) -> bool {
        self.resident.contains(&key)
    }

    /// Number of resident topologies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Insertions the admission gate bypassed (first occurrences under
    /// [`AdmissionPolicy::SecondChance`]).
    pub fn bypassed(&self) -> usize {
        self.bypassed
    }

    /// The active admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The resident entries, in insertion order.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Refresh the recency of a resident `key` (a warm hit).  Returns
    /// whether the key was resident.
    // sx-lint: hot-root -- warm-hit bookkeeping: called once per dispatched warm job
    pub fn touch(&mut self, key: u64) -> bool {
        self.clock += 1;
        if !self.resident.contains(&key) {
            return false;
        }
        let clock = self.clock;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(entry) => {
                entry.last_use = clock;
                true
            }
            None => false,
        }
    }

    /// Insert a freshly embedded topology, evicting if the cache is full.
    /// Returns the evicted key, if any.
    ///
    /// Inserting a key that is already resident only refreshes its recency
    /// (and re-prices it), so residency never exceeds one entry per key.
    // sx-lint: hot-root -- cold-embed bookkeeping: called once per dispatched cold job
    pub fn insert(&mut self, key: u64, lps: usize, reembed_seconds: f64) -> Option<u64> {
        self.clock += 1;
        if self.resident.contains(&key) {
            if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
                entry.last_use = self.clock;
                entry.lps = lps;
                entry.reembed_seconds = reembed_seconds;
            }
            return None;
        }
        if self.capacity == Some(0) {
            return None;
        }
        // The doorkeeper: a first cold occurrence is remembered but not
        // cached; only a repeat offender earns a cache slot.
        // sx-lint: allow(A001) -- one 8-byte key per distinct topology ever seen, bounded by the topology universe, not the event rate
        if self.admission == AdmissionPolicy::SecondChance && self.doorkeeper.insert(key) {
            self.bypassed += 1;
            return None;
        }
        let mut evicted = None;
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                let victim = self.policy.victim(&self.entries);
                let victim_key = self.entries.remove(victim).key;
                self.resident.remove(&victim_key);
                self.evictions += 1;
                evicted = Some(victim_key);
            }
        }
        self.entries.push(CacheEntry {
            key,
            lps,
            last_use: self.clock,
            reembed_seconds,
        });
        self.resident.insert(key);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(cap: usize) -> WarmCache {
        WarmCache::new(Some(cap), EvictionPolicyKind::Lru)
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = WarmCache::unbounded();
        for key in 0..1000 {
            c.insert(key, 10, 1.0);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.capacity(), None);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = lru(0);
        assert_eq!(c.insert(1, 10, 1.0), None);
        assert!(c.is_empty());
        assert!(!c.contains(1));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn lru_evicts_the_least_recent_entry() {
        let mut c = lru(2);
        c.insert(1, 10, 1.0);
        c.insert(2, 10, 1.0);
        // Touch 1 so 2 is now the coldest.
        assert!(c.touch(1));
        assert_eq!(c.insert(3, 10, 1.0), Some(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let mut c = lru(2);
        c.insert(1, 10, 1.0);
        c.insert(2, 10, 1.0);
        assert_eq!(c.insert(1, 10, 2.0), None);
        assert_eq!(c.len(), 2);
        // The reinsert refreshed recency: 2 is now the LRU victim.
        assert_eq!(c.insert(3, 10, 1.0), Some(2));
    }

    #[test]
    fn cost_aware_protects_the_expensive_entry() {
        let mut c = WarmCache::new(Some(2), EvictionPolicyKind::CostAware);
        c.insert(1, 36, 100.0); // expensive to re-warm
        c.insert(2, 8, 0.5); // cheap
                             // Even though 1 is older, the cheap entry is sacrificed.
        assert_eq!(c.insert(3, 20, 10.0), Some(2));
        assert!(c.contains(1));
    }

    #[test]
    fn cost_aware_falls_back_to_lru_on_cost_ties() {
        let mut c = WarmCache::new(Some(2), EvictionPolicyKind::CostAware);
        c.insert(1, 10, 1.0);
        c.insert(2, 10, 1.0);
        c.touch(1);
        assert_eq!(c.insert(3, 10, 1.0), Some(2));
    }

    #[test]
    fn touch_of_a_missing_key_reports_false() {
        let mut c = lru(2);
        assert!(!c.touch(99));
        c.insert(1, 10, 1.0);
        assert!(c.touch(1));
    }

    #[test]
    fn second_chance_admits_only_on_the_second_occurrence() {
        let mut c = lru(4).with_admission(AdmissionPolicy::SecondChance);
        assert_eq!(c.insert(1, 10, 1.0), None);
        assert!(!c.contains(1), "first occurrence must be bypassed");
        assert_eq!(c.bypassed(), 1);
        assert_eq!(c.insert(1, 10, 1.0), None);
        assert!(c.contains(1), "second occurrence must be admitted");
        assert_eq!(c.bypassed(), 1);
        // A resident key's re-insert refreshes, not bypasses.
        assert_eq!(c.insert(1, 10, 2.0), None);
        assert!(c.contains(1));
        assert_eq!(c.admission(), AdmissionPolicy::SecondChance);
    }

    #[test]
    fn second_chance_keeps_one_shot_keys_from_evicting_hot_ones() {
        // Capacity 2, two hot keys resident; a stream of one-shot keys must
        // not displace them under second-chance, while it churns everything
        // under always-admit.
        let run = |admission: AdmissionPolicy| {
            let mut c = lru(2).with_admission(admission);
            c.insert(100, 10, 1.0);
            c.insert(100, 10, 1.0);
            c.insert(101, 10, 1.0);
            c.insert(101, 10, 1.0);
            for key in 0..20 {
                c.insert(key, 10, 1.0);
            }
            (c.contains(100) && c.contains(101), c.evictions())
        };
        let (hot_survive, evictions) = run(AdmissionPolicy::SecondChance);
        assert!(hot_survive, "second-chance must protect the hot keys");
        assert_eq!(evictions, 0);
        let (hot_survive, evictions) = run(AdmissionPolicy::Always);
        assert!(!hot_survive, "always-admit churns the hot keys out");
        assert!(evictions > 0);
    }

    #[test]
    fn admission_policy_parses_and_displays() {
        assert_eq!(
            "always".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::Always
        );
        assert_eq!(
            "Second-Chance".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::SecondChance
        );
        assert_eq!(
            "doorkeeper".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::SecondChance
        );
        assert!("never".parse::<AdmissionPolicy>().is_err());
        for kind in AdmissionPolicy::all() {
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn policy_kind_parses_and_displays() {
        assert_eq!(
            "lru".parse::<EvictionPolicyKind>().unwrap(),
            EvictionPolicyKind::Lru
        );
        assert_eq!(
            "Cost-Aware".parse::<EvictionPolicyKind>().unwrap(),
            EvictionPolicyKind::CostAware
        );
        assert!("fancy".parse::<EvictionPolicyKind>().is_err());
        for kind in EvictionPolicyKind::all() {
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The safety bound of the tentpole: no operation sequence can push
        /// residency above the configured capacity, under either policy.
        #[test]
        fn residency_never_exceeds_capacity(
            cap in 0usize..6,
            keys in vec(0u64..12, 1..80),
            cost_aware in 0u8..2,
            second_chance in 0u8..2,
        ) {
            let kind = if cost_aware == 1 {
                EvictionPolicyKind::CostAware
            } else {
                EvictionPolicyKind::Lru
            };
            let admission = if second_chance == 1 {
                AdmissionPolicy::SecondChance
            } else {
                AdmissionPolicy::Always
            };
            let mut cache = WarmCache::new(Some(cap), kind).with_admission(admission);
            for (i, &key) in keys.iter().enumerate() {
                // Alternate hits and inserts the way the simulator does.
                if cache.contains(key) {
                    cache.touch(key);
                } else {
                    // Vary lps/cost with the key so cost-aware has signal.
                    cache.insert(key, key as usize + 4, (key as f64 + 1.0) * (i as f64 + 1.0));
                }
                prop_assert!(cache.len() <= cap, "len {} > capacity {cap}", cache.len());
            }
        }

        /// LRU ordering: a just-touched entry is never the victim while an
        /// untouched, colder entry is resident.
        #[test]
        fn lru_never_evicts_a_fresh_hit_over_a_colder_entry(
            cap in 2usize..6,
            keys in vec(0u64..10, 2..60),
        ) {
            let mut cache = WarmCache::new(Some(cap), EvictionPolicyKind::Lru);
            // Shadow model of recency: key -> logical time of last use.
            let mut last_use = std::collections::HashMap::new();
            let mut tick = 0u64;
            for &key in &keys {
                tick += 1;
                let resident_before: Vec<u64> =
                    cache.entries().iter().map(|e| e.key).collect();
                let evicted = if cache.contains(key) {
                    cache.touch(key);
                    None
                } else {
                    cache.insert(key, 10, 1.0)
                };
                last_use.insert(key, tick);
                if let Some(victim) = evicted {
                    // Every other previously resident entry must be at least
                    // as recent as the victim.
                    let victim_use = last_use.get(&victim).copied().unwrap_or(0);
                    for other in resident_before {
                        if other == victim {
                            continue;
                        }
                        let other_use = last_use.get(&other).copied().unwrap_or(0);
                        prop_assert!(
                            other_use >= victim_use,
                            "evicted {victim} (last use {victim_use}) before colder {other} (last use {other_use})"
                        );
                    }
                }
            }
        }
    }
}

//! Offline embedding cache — the paper's proposed remedy for the stage-1
//! bottleneck.
//!
//! Sec. 3.3 suggests that "it may be beneficial to use some variant of
//! off-line embedding, in which specific input graphs are pre-embedded and
//! stored in a graph lookup table", trading the expensive in-line embedding
//! computation for a lookup keyed on the input graph.  This module implements
//! that idea: the *outcome* of embedding an input graph — the embedding, or
//! the error CMR returned — is stored under a canonical key and served again
//! when an isomorphic-by-construction (identical vertex labels) graph is
//! requested.  The ablation benchmark `ablation_offline_embedding` measures
//! the warm-vs-cold difference.
//!
//! Storing failures is as safe as storing successes: CMR is a pure function
//! of the key — the input graph, the hardware graph and every field of
//! [`CmrConfig`] — and reads no clock and has no time budget, so a served
//! outcome equals what a fresh [`find_embedding`] call would return.  A
//! topology CMR cannot embed therefore costs one failed search per key, not
//! one per job.
//!
//! A full graph-isomorphism lookup (the paper wryly notes the D-Wave could be
//! used to program the D-Wave) is out of scope; the cache keys on the labeled
//! edge set, which already covers the common case of re-solving the same
//! problem family with different coefficients.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::timing::timed;
use chimera_graph::Graph;
use minor_embed::{find_embedding, CmrConfig, CmrStats, EmbedError, Embedding};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Cache statistics.  Every lookup is exactly one hit or one miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the table, whether the stored outcome is an
    /// embedding or a failure.
    pub hits: usize,
    /// CMR runs: lookups that had to run the embedding heuristic, whether
    /// the run succeeded or failed.
    pub misses: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache has never been queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A table of embedding outcomes keyed by the labeled edge set of the input
/// graph and the embedding context ([`entry_key`]).  Lookups take `&self`
/// (interior mutability), so one cache can be shared by the pipelines of a
/// batch on one thread.
#[derive(Debug, Default)]
pub struct EmbeddingCache {
    entries: RefCell<HashMap<u64, Result<Embedding, EmbedError>>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

/// Canonical cache key: vertex count plus the sorted edge list, hashed.
pub fn graph_key(graph: &Graph) -> u64 {
    let mut hasher = DefaultHasher::new();
    graph.vertex_count().hash(&mut hasher);
    for (u, v) in graph.edges() {
        (u, v).hash(&mut hasher);
    }
    hasher.finish()
}

/// Full entry key: the input graph *and* the embedding context — the
/// hardware graph and the CMR configuration.  A cache held across batches
/// (or shared between pipelines) must not serve an embedding computed for a
/// different machine or heuristic configuration: chains could reference
/// qubits the other hardware lacks, and a stored embedding or failure would
/// silently differ from what a fresh run computes.  The destructure is
/// exhaustive, so a new CMR field does not compile until it is keyed.  The
/// hardware graph enters as [`SplitMachine::hardware_key`], hashed once per
/// machine rather than once per lookup.
pub fn entry_key(input: &Graph, machine: &SplitMachine, config: &SplitExecConfig) -> u64 {
    let CmrConfig {
        max_passes,
        tries,
        seed,
        overlap_penalty_base,
    } = &config.cmr;
    let mut hasher = DefaultHasher::new();
    graph_key(input).hash(&mut hasher);
    machine.hardware_key().hash(&mut hasher);
    max_passes.hash(&mut hasher);
    tries.hash(&mut hasher);
    seed.hash(&mut hasher);
    overlap_penalty_base.to_bits().hash(&mut hasher);
    hasher.finish()
}

/// Result of a cached lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEmbedding {
    /// The embedding (either freshly computed or from the cache).
    pub embedding: Embedding,
    /// Whether the embedding came from the cache.
    pub cache_hit: bool,
    /// Seconds spent obtaining it (close to zero on a hit).
    pub seconds: f64,
    /// Heuristic work counters for this lookup (zero on a hit — no
    /// embedding work was performed).
    pub stats: CmrStats,
}

impl EmbeddingCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored outcomes (embeddings and failures).
    // sx-lint: hot-exempt -- offline embedding table, consulted at embed time, never in the event loop; `len` name-collides with collection calls in engine bodies
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Whether an outcome — embedding or failure — for `graph` under this
    /// machine/config context is stored (does not count as a lookup in the
    /// statistics).
    // sx-lint: hot-exempt -- offline embedding table, consulted at embed time, never in the event loop; `contains` name-collides with HashSet calls in engine bodies
    pub fn contains(
        &self,
        graph: &Graph,
        machine: &SplitMachine,
        config: &SplitExecConfig,
    ) -> bool {
        self.entries
            .borrow()
            .contains_key(&entry_key(graph, machine, config))
    }

    /// Insert a pre-computed embedding for an input graph (the "offline"
    /// path: embeddings computed ahead of time and loaded into the table).
    /// The machine/config pair must be the context the embedding was
    /// computed under — it is part of the key.
    // sx-lint: hot-exempt -- offline embedding table, loaded ahead of time, never in the event loop; `insert` name-collides with collection calls in engine bodies
    pub fn insert(
        &self,
        graph: &Graph,
        machine: &SplitMachine,
        config: &SplitExecConfig,
        embedding: Embedding,
    ) {
        self.entries
            .borrow_mut()
            .insert(entry_key(graph, machine, config), Ok(embedding));
    }

    /// Look up the embedding for `input`, running the CMR heuristic on a
    /// miss and storing its outcome.  A stored failure is served like a
    /// stored embedding: as the error a fresh run would return.
    pub fn get_or_compute(
        &self,
        input: &Graph,
        machine: &SplitMachine,
        config: &SplitExecConfig,
    ) -> Result<CachedEmbedding, PipelineError> {
        let key = entry_key(input, machine, config);
        let found = self.entries.borrow().get(&key).cloned();
        if let Some(found) = found {
            self.hits.set(self.hits.get() + 1);
            return Ok(CachedEmbedding {
                embedding: found?,
                cache_hit: true,
                seconds: 0.0,
                stats: CmrStats::default(),
            });
        }
        let (outcome, seconds) = timed(|| find_embedding(input, machine.hardware(), &config.cmr));
        self.misses.set(self.misses.get() + 1);
        self.entries.borrow_mut().insert(
            key,
            outcome
                .as_ref()
                .map(|outcome| outcome.embedding.clone())
                .map_err(Clone::clone),
        );
        let outcome = outcome?;
        Ok(CachedEmbedding {
            embedding: outcome.embedding,
            cache_hit: false,
            seconds,
            stats: outcome.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;

    fn setup() -> (SplitMachine, SplitExecConfig, EmbeddingCache) {
        (
            SplitMachine::paper_default(),
            SplitExecConfig::with_seed(4),
            EmbeddingCache::new(),
        )
    }

    #[test]
    fn key_is_stable_and_structure_sensitive() {
        let a = generators::cycle(6);
        let b = generators::cycle(6);
        let c = generators::path(6);
        assert_eq!(graph_key(&a), graph_key(&b));
        assert_ne!(graph_key(&a), graph_key(&c));
        // Vertex count matters even with the same (empty) edge set.
        assert_ne!(graph_key(&Graph::new(3)), graph_key(&Graph::new(4)));
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let (machine, config, cache) = setup();
        let input = generators::complete(6);
        let first = cache.get_or_compute(&input, &machine, &config).unwrap();
        assert!(!first.cache_hit);
        let second = cache.get_or_compute(&input, &machine, &config).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.embedding, second.embedding);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_graphs_get_different_entries() {
        let (machine, config, cache) = setup();
        cache
            .get_or_compute(&generators::cycle(8), &machine, &config)
            .unwrap();
        cache
            .get_or_compute(&generators::complete(5), &machine, &config)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn preloaded_embeddings_are_served_without_computation() {
        let (machine, config, cache) = setup();
        let input = generators::path(4);
        // Pre-compute offline and insert.
        let outcome = find_embedding(&input, machine.hardware(), &config.cmr).unwrap();
        cache.insert(&input, &machine, &config, outcome.embedding.clone());
        assert!(cache.contains(&input, &machine, &config));
        let served = cache.get_or_compute(&input, &machine, &config).unwrap();
        assert!(served.cache_hit);
        assert_eq!(served.embedding, outcome.embedding);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn different_machines_and_configs_do_not_share_entries() {
        let (machine, config, cache) = setup();
        let input = generators::cycle(6);
        cache.get_or_compute(&input, &machine, &config).unwrap();
        assert_eq!(cache.stats().misses, 1);

        // A different hardware graph must not be served the old embedding
        // (its chains would reference the wrong qubit space)...
        let vesuvius = SplitMachine::new(crate::machine::QpuModel::Vesuvius);
        let other_hw = cache.get_or_compute(&input, &vesuvius, &config).unwrap();
        assert!(!other_hw.cache_hit);

        // ...and neither must a different CMR configuration (determinism:
        // cached results must equal what a fresh run would compute).
        let other_config = SplitExecConfig::with_seed(config.seed + 1);
        let other_seed = cache
            .get_or_compute(&input, &machine, &other_config)
            .unwrap();
        assert!(!other_seed.cache_hit);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn embedding_failures_are_cached() {
        let machine = SplitMachine::unit_cell();
        let config = SplitExecConfig::with_seed(4);
        let cache = EmbeddingCache::new();
        // K6 has no minor in one K_{4,4} cell: CMR runs and fails once...
        let k6 = generators::complete(6);
        let fresh = find_embedding(&k6, machine.hardware(), &config.cmr).unwrap_err();
        assert!(matches!(fresh, EmbedError::NoEmbeddingFound { .. }));
        let first = cache.get_or_compute(&k6, &machine, &config).unwrap_err();
        assert_eq!(first, PipelineError::Embedding(fresh));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        assert!(cache.contains(&k6, &machine, &config));
        assert_eq!(cache.len(), 1);
        // ...and every later lookup is served the same error from the table.
        let second = cache.get_or_compute(&k6, &machine, &config).unwrap_err();
        assert_eq!(second, first);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });

        // Rejections that never reach the search (more logical vertices than
        // qubits) are stored the same way.
        let too_big = generators::complete(9);
        let rejected = cache
            .get_or_compute(&too_big, &machine, &config)
            .unwrap_err();
        assert!(matches!(
            rejected,
            PipelineError::Embedding(EmbedError::HardwareTooSmall { .. })
        ));
        assert_eq!(
            cache
                .get_or_compute(&too_big, &machine, &config)
                .unwrap_err(),
            rejected
        );
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_execution_equals_fresh_execution_on_a_mixed_stream() {
        use crate::pipeline::Pipeline;
        use qubo_ising::prelude::MaxCut;

        let pipeline = Pipeline::new(SplitMachine::unit_cell(), SplitExecConfig::with_seed(3));
        // Repeats of topologies that embed (C4, C6) and that fail (K6 and K7
        // after a CMR search, K9 rejected outright), each with fresh
        // coefficients.
        let topologies = [
            generators::cycle(4),
            generators::complete(6),
            generators::cycle(6),
            generators::complete(9),
            generators::complete(6),
            generators::cycle(4),
            generators::complete(7),
            generators::complete(9),
            generators::cycle(6),
            generators::complete(7),
        ];
        let cache = EmbeddingCache::new();
        let mut failures = 0;
        for (job, graph) in topologies.into_iter().enumerate() {
            let weights: Vec<((usize, usize), f64)> = graph
                .edges()
                .map(|(u, v)| ((u, v), 1.0 + ((job + u + 2 * v) % 5) as f64))
                .collect();
            let qubo = MaxCut::weighted(graph.clone(), &weights).to_qubo();
            match (
                pipeline.execute_cached(&qubo, &cache),
                pipeline.execute(&qubo),
            ) {
                (Ok(cached), Ok(fresh)) => {
                    let (cached, fresh) = (&cached.solution, &fresh.solution);
                    assert_eq!(cached.assignment, fresh.assignment, "job {job}");
                    assert_eq!(cached.qubo_energy.to_bits(), fresh.qubo_energy.to_bits());
                    assert_eq!(cached.ising_energy.to_bits(), fresh.ising_energy.to_bits());
                }
                (Err(cached), Err(fresh)) => {
                    assert_eq!(cached, fresh, "job {job}");
                    failures += 1;
                }
                (cached, fresh) => panic!(
                    "job {job}: cached {:?} but fresh {:?}",
                    cached.is_ok(),
                    fresh.is_ok()
                ),
            }
        }
        assert_eq!(failures, 6);
        // One CMR run per distinct topology; every repeat is served.
        assert_eq!(cache.stats(), CacheStats { hits: 5, misses: 5 });
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let cache = EmbeddingCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(cache.is_empty());
    }
}

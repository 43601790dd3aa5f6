//! The CMR heuristic's allocation budget, pinned by a counting global
//! allocator.
//!
//! The Dijkstra searches are stage 1's inner loop.  Their heap, results,
//! weight table and the chain trimmer's buffers are per-try scratch
//! (`minor_embed::cmr` module docs), so:
//!
//! * a warm search through [`multi_source_dijkstra`] allocates nothing, and
//! * a whole `find_embedding` call allocates a small constant per Dijkstra
//!   search it runs — the per-try setup, the chains it keeps and the
//!   snapshots of the best ones, spread over many searches.
//!
//! A search that allocated per expanded vertex would cost about 1,150
//! allocations per call on C(12,12,4).  Allocation counts are exact and
//! deterministic, so these bounds gate where wall time cannot.
//!
//! The counter is per thread.  A process-wide one, even with the tests
//! serialized on a lock, also counts what the test harness allocates on its
//! own threads while a window is open (recording another test's result, for
//! one), and that made an exact zero flaky.  Every measured call runs on
//! the test's thread (`parallel_tries` is off).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chimera_graph::{generators, Chimera, Csr, Graph};
use minor_embed::dijkstra::{multi_source_dijkstra, DijkstraHeap, ShortestPaths};
use minor_embed::{find_embedding, CmrConfig, EmbedError};

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread.  Const-initialized and without a
    /// destructor, so reading it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // During thread teardown the slot may be gone; that allocation is not
    // in any window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract the caller upholds for this allocator is exactly
// the one `System` requires; the counter touches no allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, valid per `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, plus the caller's valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per Dijkstra search a whole CMR call may perform.
const PER_SEARCH_BUDGET: f64 = 2.0;

fn lattice() -> Graph {
    Chimera::new(12, 12, 4).into_graph()
}

#[test]
fn warm_dijkstra_search_allocates_nothing() {
    let hardware = lattice();
    let csr = Csr::from_graph(&hardware);
    let n = hardware.vertex_count();
    let weights: Vec<f64> = (0..n)
        .map(|q| match q % 9 {
            0 => 64.0,
            1 => f64::INFINITY,
            _ => 1.0,
        })
        .collect();
    let mut heap = DijkstraHeap::default();
    let mut out = ShortestPaths::default();
    // Warm-up: the buffers grow to the lattice's size once.
    for s in 0..8 {
        multi_source_dijkstra(&csr, &[s * 97 % n], &weights, &mut heap, &mut out);
    }
    let before = allocations();
    for s in 0..64 {
        let sources = [s * 37 % n, (s * 37 + 500) % n];
        multi_source_dijkstra(&csr, &sources, &weights, &mut heap, &mut out);
    }
    assert_eq!(allocations() - before, 0, "a warm search must not allocate");
}

#[test]
fn cmr_allocations_per_search_are_bounded() {
    let hardware = lattice();
    // A clique, a sparse graph, and K9, which fails today: failed tries
    // must be as lean as successful ones.
    let cases = [
        (generators::complete(7), 3),
        (generators::gnp(16, 0.25, 7), 2),
        (generators::complete(9), 1),
    ];
    for (input, seed) in cases {
        let config = CmrConfig {
            seed,
            ..CmrConfig::default()
        };
        let before = allocations();
        let result = find_embedding(&input, &hardware, &config);
        let allocated = allocations() - before;
        let stats = match &result {
            Ok(outcome) => outcome.stats,
            Err(EmbedError::NoEmbeddingFound { stats, .. }) => **stats,
            Err(other) => panic!("unexpected error: {other}"),
        };
        assert!(stats.dijkstra_calls > 100, "the input must exercise CMR");
        let per_search = allocated as f64 / stats.dijkstra_calls as f64;
        assert!(
            per_search <= PER_SEARCH_BUDGET,
            "{allocated} allocations over {} Dijkstra calls ({per_search:.2} per call) \
             exceed the budget of {PER_SEARCH_BUDGET} per call",
            stats.dijkstra_calls
        );
    }
}

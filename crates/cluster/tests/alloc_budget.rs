//! The dispatch loop's allocation budget, pinned by a counting global
//! allocator.
//!
//! The hot-path contract (docs/ARCHITECTURE.md) has three enforcement
//! layers: `sx_lint`'s A-rules prove *statically* that no allocating
//! construct is reachable from a hot root, this test proves *dynamically*
//! that the engine's steady state performs **zero allocations per event**,
//! and `benches/dispatch.rs` watches the resulting throughput.
//!
//! The dynamic form of "zero per event" used here: the total number of
//! heap allocations in a full `simulate_with_telemetry` call is the same
//! at `N` jobs and at `2N` jobs.  Every buffer the loop writes into is
//! pre-sized in `SimScratch::for_run` (one allocation each, regardless of
//! capacity), a cost lookup reads a row of the fleet's prebuilt cost
//! tables, and the report assembly pre-sizes its filtered collections — so
//! doubling
//! the event count must not add a single allocation.  If this test fails
//! after an engine change, something started allocating per event; run
//! `sx_lint` to find it, or hoist the buffer into `SimScratch`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

/// Counts every allocation and reallocation; frees are not interesting
/// (a free can't grow the heap, and counting it would double-charge
/// buffer growth).
struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread.  Per thread, so the harness's own
    /// threads (running other tests, recording results) never land in a
    /// test's counted window.  Const-initialized and without a destructor,
    /// so reading it from inside the allocator never allocates.
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

/// Allocations performed by one full engine call (everything else —
/// workload generation, fleet construction, scheduler build — happens
/// outside the counted window).
fn allocations_for(policy: &SchedulerSpec, jobs: usize) -> usize {
    // The cache is bounded (with room for every distinct topology) so its
    // buffers are pre-sized at construction: an *unbounded* warm cache
    // grows with the distinct topologies each device happens to see, and
    // which device sees which topology depends on the dispatch pattern.
    let fleet = Fleet::new(
        FleetConfig {
            qpus: 4,
            seed: 11,
            cache_capacity: Some(8),
            ..FleetConfig::default()
        },
        SplitExecConfig::with_seed(11),
    );
    let workload = WorkloadSpec::repeated_topologies(jobs, 2.0, 11).generate();
    let mut scheduler = policy.build();
    let mut sink = NullSink;
    let before = allocations();
    let report = simulate_with_telemetry(
        fleet,
        &workload,
        scheduler.as_mut(),
        &mut AdmitAll,
        SimConfig::default(),
        &mut sink,
        None,
    );
    let after = allocations();
    assert_eq!(
        report.records.len(),
        jobs,
        "every job must complete under AdmitAll on an open workload"
    );
    after - before
}

/// One throwaway run so lazily-initialized process state (allocator
/// internals, thread-locals) is paid for before any counted window opens.
fn warmup() {
    let _ = allocations_for(&SchedulerSpec::Fifo, 20);
}

fn assert_constant_in_n(policy: &SchedulerSpec) {
    warmup();
    let at_n = allocations_for(policy, 200);
    let at_2n = allocations_for(policy, 400);
    assert_eq!(
        at_n, at_2n,
        "{policy:?}: allocation count must not depend on the event count \
         (got {at_n} at 200 jobs vs {at_2n} at 400 jobs) — something \
         allocates per event",
    );
}

#[test]
fn fifo_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::Fifo);
}

#[test]
fn wfq_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::WeightedFair {
        weights: Vec::new(),
        lane_order: LaneOrder::default(),
    });
}

#[test]
fn edf_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::EarliestDeadlineFirst);
}

#[test]
fn affinity_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::CacheAffinity);
}

#[test]
fn allocation_count_is_deterministic_run_to_run() {
    warmup();
    let first = allocations_for(&SchedulerSpec::Fifo, 200);
    let second = allocations_for(&SchedulerSpec::Fifo, 200);
    assert_eq!(
        first, second,
        "identical runs must perform identical allocation sequences"
    );
}

// --- the sweep's allocation budget --------------------------------------
//
// A sweep is a `run_cell` loop (`sweep::run_cell` is marked hot-root for
// sx_lint's A-rules and wraps the same engine the tests above budget)
// followed by `MergedAggregates::merge`.  Its contract: the loop and the
// merge add NOTHING per cell beyond the cell body itself — collection and
// merging are per-sweep constants — so the per-cell steady-state
// allocation count is unchanged inside a sweep.

use std::sync::Arc;

/// A self-contained sweep cell mirroring `allocations_for`'s setup: bounded
/// cache (pre-sized buffers) and the repeated-topology mix.
fn sweep_cell(jobs: usize) -> CellSpec {
    CellSpec {
        label: "alloc-budget".to_string(),
        fleet: FleetConfig {
            qpus: 4,
            seed: 11,
            cache_capacity: Some(8),
            ..FleetConfig::default()
        },
        scheduler: SchedulerSpec::Fifo,
        admission: AdmissionSpec::AdmitAll,
        config: SimConfig::default(),
        workload: Arc::new(WorkloadSpec::repeated_topologies(jobs, 2.0, 11).generate()),
    }
}

/// Run `cells` in index order and merge their aggregates, as
/// `cluster_sim --mode sweep` does.
fn run_sweep(cells: &[CellSpec]) -> (Vec<CellResult>, MergedAggregates) {
    let results: Vec<CellResult> = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| run_cell(index, cell, &mut NullSink))
        .collect();
    let merged = MergedAggregates::merge(&results);
    (results, merged)
}

fn allocations_for_sweep(cells: &[CellSpec]) -> usize {
    let before = allocations();
    let (results, merged) = run_sweep(cells);
    let after = allocations();
    assert_eq!(results.len(), cells.len());
    assert_eq!(merged.cells, cells.len());
    after - before
}

#[test]
fn sweep_runner_adds_constant_overhead_and_nothing_per_cell() {
    warmup();
    // Identical cells (one shared workload): every per-cell quantity —
    // dispatch pattern, cost-table builds, sketch bucket spans — is
    // identical, so allocation counts must be exactly linear
    // in the cell count.  A super-linear term means the loop or the merge
    // started allocating per cell beyond the cell body.
    let cell = sweep_cell(200);
    let one = vec![cell.clone()];
    let two = vec![cell.clone(), cell.clone()];
    let three = vec![cell.clone(), cell.clone(), cell.clone()];
    // Throwaway sweep: pays one-time lazy state (thread-local init, first
    // merge growth patterns) before any counted window opens.
    let _ = run_sweep(&one);
    let c1 = allocations_for_sweep(&one);
    let c2 = allocations_for_sweep(&two);
    let c3 = allocations_for_sweep(&three);
    assert_eq!(
        c2 - c1,
        c3 - c2,
        "per-cell marginal allocation cost must be constant in a sweep \
         (got {c1}/{c2}/{c3} for 1/2/3 identical cells)"
    );
}

#[test]
fn sweep_cell_body_matches_direct_execution() {
    warmup();
    let cell = sweep_cell(200);
    let _ = run_sweep(std::slice::from_ref(&cell));

    // The cell body run directly, outside a sweep.
    let mut sink = NullSink;
    let before = allocations();
    let direct_result = sx_cluster::sweep::run_cell(0, &cell, &mut sink);
    let direct = allocations() - before;

    // The same cell as the marginal cost of one more cell in a sweep: the
    // merged sketches already span the (identical) cell's bucket range
    // after the first cell, so the second cell's merge allocates nothing
    // and the marginal cost is exactly the cell body.
    let one = vec![cell.clone()];
    let two = vec![cell.clone(), cell.clone()];
    let c1 = allocations_for_sweep(&one);
    let c2 = allocations_for_sweep(&two);
    assert_eq!(
        c2 - c1,
        direct,
        "a cell inside a sweep must allocate exactly what the cell body \
         allocates directly ({direct}) — the loop and merge add nothing per cell"
    );
    assert_eq!(direct_result.report.records.len(), 200);
}

// --- fleet construction's allocation budget -----------------------------
//
// `Fleet::new` allocates per model (a cost table) and per fleet (the device
// list, the cold orders, the holder index, each one allocation whatever its
// size), and per device only that device's warm cache.  No device draws a
// fault vector or builds a graph, so doubling the device count adds exactly
// one warm cache's allocations per added device.

/// Allocations one device's warm cache makes under `config`'s cache
/// settings: the per-device constant of fleet construction.
fn allocations_per_warm_cache(config: &FleetConfig) -> usize {
    let before = allocations();
    let cache = WarmCache::new(config.cache_capacity, config.eviction)
        .with_admission(config.cache_admission);
    let after = allocations();
    drop(cache);
    after - before
}

/// Allocations `Fleet::new` makes for `config` (built outside the window).
fn allocations_for_fleet(config: FleetConfig) -> usize {
    let app = SplitExecConfig::with_seed(11);
    let before = allocations();
    let fleet = Fleet::new(config, app);
    let after = allocations();
    drop(fleet);
    after - before
}

/// A fleet of `qpus` devices with 4-entry cost-aware caches: uniform DW2X,
/// or mixed generations behind the second-chance doorkeeper.
fn cached_fleet(shape: &str, qpus: usize) -> FleetConfig {
    let config = match shape {
        "uniform" => FleetConfig {
            qpus,
            seed: 11,
            ..FleetConfig::default()
        },
        _ => {
            FleetConfig::heterogeneous(qpus, 11).with_cache_admission(AdmissionPolicy::SecondChance)
        }
    };
    config.with_cache(4, EvictionPolicyKind::CostAware)
}

#[test]
fn fleet_construction_allocates_per_device_only_its_warm_cache() {
    // The first build pays the process-wide parse of the stage listings.
    warmup();
    const N: usize = 32;
    for shape in ["uniform", "hetero"] {
        let per_device = allocations_per_warm_cache(&cached_fleet(shape, N));
        assert!(
            per_device > 0,
            "{shape}: a bounded cache pre-sizes its buffers"
        );
        let at_n = allocations_for_fleet(cached_fleet(shape, N));
        let at_2n = allocations_for_fleet(cached_fleet(shape, 2 * N));
        assert_eq!(
            at_2n - at_n,
            N * per_device,
            "{shape}: {N} more devices must add exactly {N} warm caches of \
             {per_device} allocations (got {at_n} at {N} devices vs {at_2n} at {})",
            2 * N
        );
    }
}

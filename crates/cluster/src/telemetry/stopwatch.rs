//! Host-side wall-clock timing of the engine itself.
//!
//! Everything else in this crate runs on the virtual clock — rule D001
//! (`docs/LINTING.md`) bans wall clocks from simulator code precisely so a
//! run is a pure function of its inputs.  This module is the one sanctioned
//! exception, carried in `lint.allow`: it measures *the simulator*, never
//! the simulated world.  Wall-clock readings taken here must never feed
//! back into simulation state; their one reader is the sweep runner's
//! whole-sweep wall clock ([`crate::sweep::SweepOutcome::wall_seconds`]),
//! which `cluster_sim` prints on its stdout `host:` line and keeps out of
//! every deterministic document.  Per-layer host time is the benchmark's
//! job (`perfbench --trace 1`).

use std::time::Instant;

/// A wall-clock stopwatch for timing engine phases.
#[derive(Debug, Clone, Copy)]
pub struct HostStopwatch {
    start: Instant,
}

impl HostStopwatch {
    /// Start timing now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Wall-clock seconds elapsed since [`Self::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

//! Offline stand-in for the `rayon` crate, reduced to one call.
//!
//! The workspace is single-threaded by construction: nothing in it fans
//! out, so nothing needs a pool.  This crate survives only because the
//! benchmark's adapter (`perfbench/src/adapter.rs`, `single_threaded`)
//! still wraps each workload in
//! `ThreadPoolBuilder::new().num_threads(1).build().expect(..).install(op)`;
//! `install` just calls `op`.  It goes in the next change to the benchmark,
//! together with that wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;

/// Mirrors `rayon::ThreadPoolBuilder`; the worker count is ignored.
#[derive(Debug, Default, Clone)]
pub struct ThreadPoolBuilder;

impl ThreadPoolBuilder {
    /// A builder.
    pub fn new() -> Self {
        Self
    }

    /// Accepted for API compatibility; every "pool" runs on the caller.
    pub fn num_threads(self, _num_threads: usize) -> Self {
        self
    }

    /// Build the pool; cannot fail.
    pub fn build(self) -> Result<ThreadPool, Infallible> {
        Ok(ThreadPool)
    }
}

/// Mirrors `rayon::ThreadPool`: [`Self::install`] runs on the calling thread.
#[derive(Debug, Clone)]
pub struct ThreadPool;

impl ThreadPool {
    /// Run `op` on the calling thread and return its result.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        op()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_runs_the_closure() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("cannot fail");
        assert_eq!(pool.install(|| 2 + 2), 4);
    }
}

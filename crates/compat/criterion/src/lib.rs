//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API shape the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `Bencher::iter_batched` / `BatchSize`, `BenchmarkId`, `Throughput`, and
//! the `criterion_group!` /
//! `criterion_main!` macros — over a simple wall-clock measurement loop:
//! one warm-up iteration, then timed iterations until a small time budget or
//! the configured sample size is exhausted, reporting the mean per-iteration
//! time on stderr.
//!
//! No statistical analysis, HTML reports, or regression detection; the point
//! is that `cargo bench` runs and prints honest relative numbers in an
//! environment without crates.io access.  Bench targets still need
//! `harness = false` in their manifest, exactly as with real criterion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-target time budget once the warm-up iteration has run.
const TIME_BUDGET: Duration = Duration::from_millis(200);

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Throughput annotation for a benchmark (recorded, reported as rate).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How many inputs [`Bencher::iter_batched`] prepares per batch.  The
/// stand-in prepares one input per timed call whatever the size; the type
/// exists so call sites read as they would against real criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs large enough to prepare a few at a time.
    LargeInput,
}

/// Runs the closure under measurement.
pub struct Bencher {
    samples: u64,
    mean: Duration,
}

impl Bencher {
    /// Measure `f`: one warm-up call, then timed calls until the budget or
    /// sample cap is reached.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let mut iters: u64 = 0;
        let start = Instant::now();
        loop {
            black_box(f());
            iters += 1;
            if iters >= self.samples || start.elapsed() >= TIME_BUDGET {
                break;
            }
        }
        self.mean = start.elapsed() / iters.max(1) as u32;
    }

    /// Measure `routine` on inputs made by `setup`, timing only the
    /// routine (neither the set-up nor dropping the output): one warm-up
    /// call, then timed calls until the measured
    /// time reaches the budget or the sample cap is reached.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let mut iters: u64 = 0;
        let mut measured = Duration::ZERO;
        loop {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            measured += start.elapsed();
            drop(black_box(output));
            iters += 1;
            if iters >= self.samples || measured >= TIME_BUDGET {
                break;
            }
        }
        self.mean = measured / iters.max(1) as u32;
    }
}

fn report(group: &str, id: &str, bencher: &Bencher, throughput: Option<Throughput>) {
    let name = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let mean = bencher.mean;
    let rate = throughput.map(|t| {
        let secs = mean.as_secs_f64().max(1e-12);
        match t {
            Throughput::Elements(n) => format!("  {:.3e} elem/s", n as f64 / secs),
            Throughput::Bytes(n) => format!("  {:.3e} B/s", n as f64 / secs),
        }
    });
    eprintln!(
        "bench: {name:<60} {:>12.3?}/iter{}",
        mean,
        rate.unwrap_or_default()
    );
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        report(&self.name, &id.to_string(), &bencher, self.throughput);
        self
    }

    /// Run one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher, input);
        report(&self.name, &id.to_string(), &bencher, self.throughput);
        self
    }

    /// Finish the group (reporting is incremental; this is a no-op hook).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: 100,
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        report("", name, &bencher, None);
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            throughput: None,
            _criterion: self,
        }
    }
}

/// Define a bench group function running each target against one
/// [`Criterion`] instance.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(c: &mut Criterion) {
        c.bench_function("probe", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("group");
        group.sample_size(5).throughput(Throughput::Elements(2));
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![3u64; 4],
                |v| v.iter().sum::<u64>(),
                BatchSize::LargeInput,
            )
        });
        group.finish();
    }

    criterion_group!(probe_group, probe);

    #[test]
    fn harness_runs() {
        probe_group();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
    }
}

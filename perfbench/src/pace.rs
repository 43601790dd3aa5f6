//! The host-speed reference that every end-to-end host time is rescaled by.
//!
//! The benchmark's host is a slice of a shared machine whose speed drifts by
//! ±20 % over minutes, as co-tenants come and go.  This speed change is
//! slower than a run: making the run longer does not average it away, so
//! raw wall-clock times of the same code spread past any useful bound
//! between one set of runs and the next.  The benchmark therefore
//! interleaves a fixed reference kernel with the measured work and reports
//! each host time as it would read at the kernel's nominal speed:
//!
//! ```text
//! reported = measured × REFERENCE_NOMINAL_S / (the kernel's time around the measurement)
//! ```
//!
//! The kernel is the benchmark's own code and never changes, so a change
//! to the program moves the reported times exactly as it moves the
//! measured ones.  It is a Metropolis sweep over a fixed Ising model on the
//! 12×12 Chimera graph, drawing from a ChaCha8 stream: the shape of the
//! annealer's inner loop, and of the hardware graph CMR searches.  A kernel
//! of that shape slows down under co-tenants the way both do.  On the host
//! `README.md` describes, rescaling by it cut the spread of 10-second
//! medians of a warm pipeline job from 0.29 to 0.09, of a cold one from
//! 0.23 to 0.02, and (with an earlier kernel of random neighbours) of
//! simulator cells from 0.08 to 0.04.

use std::time::Instant;

use crate::{median, Rng};

/// The kernel's time at the nominal host speed.  The kernel takes 0.9–1.3 ms
/// on the host `README.md` reports, so reported times read close to that
/// host's own.
pub const REFERENCE_NOMINAL_S: f64 = 1.0e-3;

/// Chimera unit cells per side of the reference model.
const CELLS: usize = 12;
/// Metropolis sweeps per kernel run.
const SWEEPS: usize = 35;
/// Reference samples taken on each side of a bracketed operation.
const BRACKET: usize = 3;

/// The reference kernel and every time it has measured.
#[derive(Debug)]
pub struct Pace {
    /// CSR adjacency of the Chimera graph: `neighbours[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    neighbours: Vec<u32>,
    couplings: Vec<f64>,
    spins: Vec<i8>,
    samples: Vec<f64>,
}

impl Pace {
    /// The fixed reference model (independent of the run's seed).
    pub fn new() -> Pace {
        let qubit = |row: usize, col: usize, side: usize, k: usize| {
            (((row * CELLS + col) * 2 + side) * 4 + k) as u32
        };
        let mut rng = Rng::new(0x5EED, 9);
        let (mut offsets, mut neighbours, mut couplings) = (vec![0], Vec::new(), Vec::new());
        for row in 0..CELLS {
            for col in 0..CELLS {
                for side in 0..2 {
                    for k in 0..4 {
                        neighbours.extend((0..4).map(|j| qubit(row, col, 1 - side, j)));
                        let (along_rows, at) = if side == 0 { (true, row) } else { (false, col) };
                        for next in [at.wrapping_sub(1), at + 1] {
                            if next < CELLS {
                                let (r, c) = if along_rows { (next, col) } else { (row, next) };
                                neighbours.push(qubit(r, c, side, k));
                            }
                        }
                        couplings.resize_with(neighbours.len(), || 2.0 * rng.unit() - 1.0);
                        offsets.push(neighbours.len());
                    }
                }
            }
        }
        Pace {
            offsets,
            neighbours,
            couplings,
            spins: vec![1; CELLS * CELLS * 8],
            samples: Vec::new(),
        }
    }

    /// Run the kernel once, from the same start state every time, and
    /// return its host seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut draws = ChaCha8::new(0x5EED);
        self.spins.fill(1);
        for sweep in 0..SWEEPS {
            let temperature = (3.0 * (1.0 - sweep as f64 / SWEEPS as f64)).max(0.05);
            for i in 0..self.spins.len() {
                let field: f64 = (self.offsets[i]..self.offsets[i + 1])
                    .map(|k| self.couplings[k] * f64::from(self.spins[self.neighbours[k] as usize]))
                    .sum();
                let delta = 2.0 * f64::from(self.spins[i]) * field;
                if delta <= 0.0 || draws.unit() < (-delta / temperature).exp() {
                    self.spins[i] = -self.spins[i];
                }
            }
        }
        std::hint::black_box(&self.spins);
        let seconds = start.elapsed().as_secs_f64();
        self.samples.push(seconds);
        seconds
    }

    /// The kernel's time right now: the median of `count` runs.
    fn reference(&mut self, count: usize) -> f64 {
        let runs: Vec<f64> = (0..count).map(|_| self.sample()).collect();
        median(&runs)
    }

    /// Run `op`, which returns its result and the host seconds it
    /// measured, between two sets of kernel runs.  Return the result, the
    /// measured seconds and those seconds rescaled by the kernel's median
    /// around them.
    pub fn around<R>(&mut self, op: impl FnOnce() -> (R, f64)) -> (R, f64, f64) {
        let before = self.reference(BRACKET);
        let (out, seconds) = op();
        let after = self.reference(BRACKET);
        (out, seconds, rescale(seconds, median(&[before, after])))
    }

    /// Run `op` on every item, one kernel run before each, and return the
    /// results with each item's rescaled host time.  An item is rescaled by
    /// the median of the kernel runs nearest it (a window of ten), so that
    /// a single interrupted kernel run does not move it.
    pub fn each<T, R>(&mut self, items: &[T], mut op: impl FnMut(&T) -> R) -> (Vec<R>, Vec<f64>) {
        let mut references = Vec::with_capacity(items.len() + 1);
        let mut raw = Vec::with_capacity(items.len());
        let outputs = items
            .iter()
            .map(|item| {
                references.push(self.sample());
                let start = Instant::now();
                let out = op(item);
                raw.push(start.elapsed().as_secs_f64());
                out
            })
            .collect();
        references.push(self.sample());
        let scaled = raw
            .iter()
            .enumerate()
            .map(|(i, &seconds)| {
                let lo = i.saturating_sub(4);
                let hi = (i + 6).min(references.len());
                rescale(seconds, median(&references[lo..hi]))
            })
            .collect();
        (outputs, scaled)
    }

    /// The median kernel time over every run so far, in host seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

fn rescale(seconds: f64, reference: f64) -> f64 {
    seconds * REFERENCE_NOMINAL_S / reference
}

/// The ChaCha8 stream cipher as a random source (RFC 8439 block function,
/// four double rounds), written out here so that the kernel never changes
/// with the program's own random number crates.
#[derive(Debug)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    used: usize,
}

impl ChaCha8 {
    fn new(seed: u64) -> ChaCha8 {
        let mut rng = Rng::new(seed, 11);
        ChaCha8 {
            key: std::array::from_fn(|_| rng.next_u64() as u32),
            counter: 0,
            block: [0; 16],
            used: 16,
        }
    }

    fn refill(&mut self) {
        let k = self.key;
        let input = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            k[0],
            k[1],
            k[2],
            k[3],
            k[4],
            k[5],
            k[6],
            k[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let mut x = input;
        let quarter = |x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize| {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        };
        for _ in 0..4 {
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for (out, (mixed, original)) in self.block.iter_mut().zip(x.iter().zip(&input)) {
            *out = mixed.wrapping_add(*original);
        }
        self.counter += 1;
        self.used = 0;
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        if self.used + 2 > self.block.len() {
            self.refill();
        }
        let bits = u64::from(self.block[self.used]) << 32 | u64::from(self.block[self.used + 1]);
        self.used += 2;
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

//! Single-spin-flip simulated annealing over Ising models.
//!
//! This is the classical sampler standing in for the physical quantum
//! annealer: each *read* starts from a random spin
//! configuration and performs Metropolis sweeps while the temperature follows
//! the [`AnnealSchedule`].  Like the hardware, a single read returns the
//! lowest-energy state it ends in, and the probability of that state being
//! the global optimum (`p_s` in the paper's Eq. 6) depends on the schedule
//! and the problem's energy landscape.
//!
//! The inner loop works on a flattened CSR neighbor structure so that a
//! sweep touches memory contiguously; this is the same layout used by the
//! hardware-graph crate's `chimera_graph::Csr`.
//!
//! An embedded program spans the whole hardware register, but only the
//! qubits of its chains carry parameters: on C(12,12,4) a typical program
//! uses a few dozen of 1,152 spins.  A sweep therefore visits only the
//! *active* spins ([`CompiledIsing::active_spins`]).  An idle spin has
//! ΔE = ±0 on every attempt, so Metropolis would flip it on every sweep
//! without drawing a random number; the kernel applies the net effect once
//! (a flip when the sweep count is odd) and counts the skipped attempts
//! arithmetically, so the RNG stream, the decisions, the final register and
//! the `updates` count are exactly those of a full-register sweep.

use crate::schedule::AnnealSchedule;
use qubo_ising::{Ising, Spin};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A flattened, sampling-friendly view of an Ising model.
#[derive(Debug, Clone)]
pub struct CompiledIsing {
    /// Per-spin biases.
    pub h: Vec<f64>,
    /// CSR offsets into `neighbors`/`weights`.
    offsets: Vec<u32>,
    /// Neighbor spin indices.
    neighbors: Vec<u32>,
    /// Coupling values aligned with `neighbors`.
    weights: Vec<f64>,
    /// Spins with a nonzero bias or a nonzero coupling, ascending.
    active: Vec<u32>,
}

impl CompiledIsing {
    /// Flatten an Ising model for fast sweeps.  Each spin's neighbours are
    /// listed in the order [`Ising::couplings`] yields its couplings.
    pub fn new(model: &Ising) -> Self {
        let n = model.num_spins();
        // Count each spin's couplings, then turn the counts into row starts.
        let mut offsets = vec![0u32; n + 1];
        for ((i, j), _) in model.couplings() {
            offsets[i + 1] += 1;
            offsets[j + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let entries = offsets[n] as usize;
        let mut neighbors = vec![0u32; entries];
        let mut weights = vec![0.0; entries];
        let mut fill = offsets[..n].to_vec();
        for ((i, j), jij) in model.couplings() {
            for (row, neighbor) in [(i, j), (j, i)] {
                let k = fill[row] as usize;
                neighbors[k] = neighbor as u32;
                weights[k] = jij;
                fill[row] += 1;
            }
        }
        let h: Vec<f64> = (0..n).map(|i| model.field(i)).collect();
        let active = (0..n)
            .filter(|&i| {
                let row = offsets[i] as usize..offsets[i + 1] as usize;
                h[i] != 0.0 || weights[row].iter().any(|&w| w != 0.0)
            })
            .map(|i| i as u32)
            .collect();
        Self {
            h,
            offsets,
            neighbors,
            weights,
            active,
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// The active spins, ascending: those with a nonzero bias or a nonzero
    /// coupling.  Every other spin is idle, contributes nothing to the
    /// energy and has ΔE = ±0 in every configuration.
    pub fn active_spins(&self) -> &[u32] {
        &self.active
    }

    /// One Metropolis sweep over the active spins at `temperature`, in
    /// ascending order, calling `on_flip` with the ΔE of each accepted
    /// flip.  Idle spins are left alone; see [`CompiledIsing::flip_idle`].
    #[inline]
    pub(crate) fn sweep_active(
        &self,
        spins: &mut [Spin],
        temperature: f64,
        rng: &mut impl Rng,
        mut on_flip: impl FnMut(f64),
    ) {
        for &i in &self.active {
            let i = i as usize;
            let delta = self.flip_delta(spins, i);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                spins[i] = -spins[i];
                on_flip(delta);
            }
        }
    }

    /// Apply the net effect of `sweeps` full-register sweeps to the idle
    /// spins: each one flips on every sweep, so it ends flipped exactly
    /// when `sweeps` is odd.
    pub(crate) fn flip_idle(&self, spins: &mut [Spin], sweeps: usize) {
        if sweeps % 2 == 1 {
            spins.iter_mut().for_each(|s| *s = -*s);
            for &i in &self.active {
                spins[i as usize] = -spins[i as usize];
            }
        }
    }

    /// Energy of a configuration under the compiled model.
    ///
    /// Sums over the active spins only.  An idle spin's terms are all ±0,
    /// and the running sum starts at +0 and so never becomes -0 (an exact
    /// zero difference rounds to +0), so dropping them leaves every bit of
    /// the full-register sum unchanged.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        let mut e = 0.0;
        for &i in &self.active {
            let i = i as usize;
            e -= self.h[i] * spins[i] as f64;
        }
        for &i in &self.active {
            let i = i as usize;
            let start = self.offsets[i] as usize;
            let end = self.offsets[i + 1] as usize;
            for k in start..end {
                let j = self.neighbors[k] as usize;
                if j > i {
                    e -= self.weights[k] * spins[i] as f64 * spins[j] as f64;
                }
            }
        }
        e
    }

    /// The full-register sum [`Self::energy`] must match bit for bit:
    /// every spin's bias, then every coupling, idle spins included.
    #[cfg(test)]
    pub(crate) fn energy_full_register(&self, spins: &[Spin]) -> f64 {
        let mut e = 0.0;
        for (i, &hi) in self.h.iter().enumerate() {
            e -= hi * spins[i] as f64;
        }
        for i in 0..self.num_spins() {
            for k in self.offsets[i] as usize..self.offsets[i + 1] as usize {
                let j = self.neighbors[k] as usize;
                if j > i {
                    e -= self.weights[k] * spins[i] as f64 * spins[j] as f64;
                }
            }
        }
        e
    }

    /// Energy change caused by flipping spin `i`.
    #[inline]
    pub fn flip_delta(&self, spins: &[Spin], i: usize) -> f64 {
        let mut local = self.h[i];
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        for k in start..end {
            local += self.weights[k] * spins[self.neighbors[k] as usize] as f64;
        }
        2.0 * spins[i] as f64 * local
    }
}

/// Outcome of one annealing read.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealRead {
    /// Final spin configuration.
    pub spins: Vec<Spin>,
    /// Energy of the final configuration.
    pub energy: f64,
    /// Single-spin updates attempted over the whole register: sweeps × spins.
    /// Attempts on idle spins are counted arithmetically, not performed.
    pub updates: u64,
}

/// Perform one simulated-annealing read of the compiled model.
///
/// Deterministic in `seed`.  The returned configuration is the final state of
/// the anneal (not the best state visited), mirroring hardware readout.
pub fn anneal_once(model: &CompiledIsing, schedule: &AnnealSchedule, seed: u64) -> AnnealRead {
    let n = model.num_spins();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut spins: Vec<Spin> = (0..n)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect();
    for step in 0..schedule.sweeps {
        let temperature = schedule.temperature(step).max(1e-12);
        model.sweep_active(&mut spins, temperature, &mut rng, |_| {});
    }
    model.flip_idle(&mut spins, schedule.sweeps);
    let energy = model.energy(&spins);
    AnnealRead {
        spins,
        energy,
        updates: schedule.sweeps as u64 * n as u64,
    }
}

/// The full-register kernel: every sweep visits all `n` spins, idle ones
/// included.  Kept as the oracle [`anneal_once`] must match bit for bit.
#[cfg(test)]
pub(crate) fn anneal_once_full_register(
    model: &CompiledIsing,
    schedule: &AnnealSchedule,
    seed: u64,
) -> AnnealRead {
    let n = model.num_spins();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut spins: Vec<Spin> = (0..n)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect();
    let mut updates: u64 = 0;
    if n == 0 {
        return AnnealRead {
            spins,
            energy: 0.0,
            updates,
        };
    }
    for step in 0..schedule.sweeps {
        let temperature = schedule.temperature(step).max(1e-12);
        for i in 0..n {
            let delta = model.flip_delta(&spins, i);
            updates += 1;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                spins[i] = -spins[i];
            }
        }
    }
    let energy = model.energy_full_register(&spins);
    AnnealRead {
        spins,
        energy,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;
    use qubo_ising::solve_ising_exact;

    fn compiled_random(n: usize, seed: u64) -> (Ising, CompiledIsing) {
        let g = generators::gnp(n, 0.4, seed);
        let model = Ising::random_on_graph(&g, seed + 1);
        let compiled = CompiledIsing::new(&model);
        (model, compiled)
    }

    #[test]
    fn compiled_energy_matches_model_energy() {
        let (model, compiled) = compiled_random(15, 3);
        for seed in 0..10 {
            let spins = Ising::random_spins(15, seed);
            assert!((model.energy(&spins) - compiled.energy(&spins)).abs() < 1e-9);
        }
    }

    #[test]
    fn compiled_flip_delta_matches_energy_difference() {
        let (_, compiled) = compiled_random(12, 9);
        let spins = Ising::random_spins(12, 4);
        for i in 0..12 {
            let mut flipped = spins.clone();
            flipped[i] = -flipped[i];
            let expected = compiled.energy(&flipped) - compiled.energy(&spins);
            assert!((compiled.flip_delta(&spins, i) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn anneal_is_deterministic_in_seed() {
        let (_, compiled) = compiled_random(20, 5);
        let schedule = AnnealSchedule::fast();
        let a = anneal_once(&compiled, &schedule, 7);
        let b = anneal_once(&compiled, &schedule, 7);
        let c = anneal_once(&compiled, &schedule, 8);
        assert_eq!(a, b);
        assert!(a.spins != c.spins || a.energy == c.energy);
    }

    #[test]
    fn anneal_finds_ferromagnetic_ground_state() {
        // Strongly coupled ferromagnetic chain: the ground state is all-up or
        // all-down and simulated annealing should find it essentially always.
        let mut model = Ising::new(16);
        for i in 0..15 {
            model.set_coupling(i, i + 1, 2.0);
        }
        let compiled = CompiledIsing::new(&model);
        let read = anneal_once(&compiled, &AnnealSchedule::default(), 3);
        let aligned = read.spins.iter().all(|&s| s == read.spins[0]);
        assert!(aligned, "spins {:?}", read.spins);
        assert!((read.energy - (-30.0)).abs() < 1e-9);
    }

    #[test]
    fn anneal_reaches_exact_ground_state_on_small_instances() {
        let (model, compiled) = compiled_random(12, 21);
        let (exact_energy, _, _) = solve_ising_exact(&model);
        // With several reads at a thorough schedule at least one read should
        // hit the exact optimum for a 12-spin instance.
        let best = (0..8)
            .map(|s| anneal_once(&compiled, &AnnealSchedule::thorough(), s).energy)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best <= exact_energy + 1e-9,
            "best sampled {best} vs exact {exact_energy}"
        );
    }

    #[test]
    fn update_count_matches_schedule() {
        let (_, compiled) = compiled_random(10, 2);
        let schedule = AnnealSchedule::default().with_sweeps(50);
        let read = anneal_once(&compiled, &schedule, 1);
        assert_eq!(read.updates, 50 * 10);
    }

    #[test]
    fn empty_model_anneals_trivially() {
        let compiled = CompiledIsing::new(&Ising::new(0));
        let read = anneal_once(&compiled, &AnnealSchedule::fast(), 0);
        assert_eq!(read.energy, 0.0);
        assert!(read.spins.is_empty());
    }
}

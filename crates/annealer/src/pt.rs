//! Parallel tempering (replica exchange) sampler.
//!
//! A stronger classical heuristic than plain simulated annealing: several
//! replicas run Metropolis sweeps at fixed temperatures and periodically
//! exchange configurations.  It is used by the ablation benchmarks as the
//! "better classical post-processing / software solver" reference point when
//! studying how the characteristic success probability `p_s` feeds Eq. (6) —
//! a better sampler raises `p_s`, but as the paper observes, stage 2 is so
//! cheap that this barely moves the end-to-end time.

use crate::sa::CompiledIsing;
use qubo_ising::Spin;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the parallel-tempering sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtConfig {
    /// Number of temperature replicas.
    pub replicas: usize,
    /// Lowest replica temperature.
    pub min_temperature: f64,
    /// Highest replica temperature.
    pub max_temperature: f64,
    /// Metropolis sweeps between exchange attempts.
    pub sweeps_per_exchange: usize,
    /// Number of exchange rounds.
    pub rounds: usize,
}

impl Default for PtConfig {
    fn default() -> Self {
        Self {
            replicas: 8,
            min_temperature: 0.05,
            max_temperature: 10.0,
            sweeps_per_exchange: 8,
            rounds: 32,
        }
    }
}

impl PtConfig {
    /// Geometric ladder of replica temperatures from `max` down to `min`.
    pub fn temperatures(&self) -> Vec<f64> {
        let k = self.replicas.max(2);
        (0..k)
            .map(|i| {
                let t = i as f64 / (k - 1) as f64;
                self.max_temperature * (self.min_temperature / self.max_temperature).powf(t)
            })
            .collect()
    }
}

/// Result of a parallel-tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct PtResult {
    /// Best configuration found across all replicas and rounds.
    pub best_spins: Vec<Spin>,
    /// Energy of the best configuration.
    pub best_energy: f64,
    /// Number of accepted replica exchanges.
    pub exchanges_accepted: u64,
    /// Single-spin updates attempted over the whole register, idle spins
    /// counted arithmetically.
    pub updates: u64,
}

/// Run parallel tempering on a compiled Ising model.  Deterministic in
/// `seed`.
///
/// Like [`crate::sa::anneal_once`], each Metropolis sweep visits only the
/// active spins; a replica's idle spins flip once per round when
/// `sweeps_per_exchange` is odd, and `updates` counts every spin of the
/// register, so the result is that of a full-register sweep.
pub fn parallel_tempering(compiled: &CompiledIsing, config: &PtConfig, seed: u64) -> PtResult {
    let n = compiled.num_spins();
    let temps = config.temperatures();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut replicas: Vec<Vec<Spin>> = (0..temps.len())
        .map(|_| {
            (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect()
        })
        .collect();
    let mut energies: Vec<f64> = replicas.iter().map(|r| compiled.energy(r)).collect();

    let mut best_energy = energies
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(f64::INFINITY);
    let mut best_spins = replicas.first().cloned().unwrap_or_default();
    if let Some(idx) = energies
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
    {
        best_spins = replicas[idx].clone();
    }

    let mut exchanges_accepted = 0u64;
    let mut updates = 0u64;

    for _round in 0..config.rounds {
        // Metropolis sweeps within each replica.
        for (r, spins) in replicas.iter_mut().enumerate() {
            let temperature = temps[r].max(1e-12);
            let energy = &mut energies[r];
            for _ in 0..config.sweeps_per_exchange {
                compiled.sweep_active(spins, temperature, &mut rng, |delta| *energy += delta);
            }
            compiled.flip_idle(spins, config.sweeps_per_exchange);
            updates += config.sweeps_per_exchange as u64 * n as u64;
            if energies[r] < best_energy {
                best_energy = energies[r];
                best_spins = spins.clone();
            }
        }
        // Exchange attempts between adjacent replicas.
        for r in 0..temps.len().saturating_sub(1) {
            let beta_low = 1.0 / temps[r].max(1e-12);
            let beta_high = 1.0 / temps[r + 1].max(1e-12);
            let delta = (beta_high - beta_low) * (energies[r] - energies[r + 1]);
            if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
                replicas.swap(r, r + 1);
                energies.swap(r, r + 1);
                exchanges_accepted += 1;
            }
        }
    }

    // Guard for the degenerate zero-spin case.
    if n == 0 {
        best_energy = 0.0;
        best_spins = Vec::new();
    }

    PtResult {
        best_spins,
        best_energy,
        exchanges_accepted,
        updates,
    }
}

/// The full-register kernel: every sweep visits all `n` spins, idle ones
/// included.  Kept as the oracle [`parallel_tempering`] must match bit for
/// bit.
#[cfg(test)]
pub(crate) fn parallel_tempering_full_register(
    compiled: &CompiledIsing,
    config: &PtConfig,
    seed: u64,
) -> PtResult {
    let n = compiled.num_spins();
    let temps = config.temperatures();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut replicas: Vec<Vec<Spin>> = (0..temps.len())
        .map(|_| {
            (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect()
        })
        .collect();
    let mut energies: Vec<f64> = replicas
        .iter()
        .map(|r| compiled.energy_full_register(r))
        .collect();

    let mut best_energy = energies
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(f64::INFINITY);
    let mut best_spins = replicas.first().cloned().unwrap_or_default();
    if let Some(idx) = energies
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
    {
        best_spins = replicas[idx].clone();
    }

    let mut exchanges_accepted = 0u64;
    let mut updates = 0u64;

    for _round in 0..config.rounds {
        for (r, spins) in replicas.iter_mut().enumerate() {
            let temperature = temps[r].max(1e-12);
            for _ in 0..config.sweeps_per_exchange {
                for i in 0..n {
                    let delta = compiled.flip_delta(spins, i);
                    updates += 1;
                    if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                        spins[i] = -spins[i];
                        energies[r] += delta;
                    }
                }
            }
            if energies[r] < best_energy {
                best_energy = energies[r];
                best_spins = spins.clone();
            }
        }
        for r in 0..temps.len().saturating_sub(1) {
            let beta_low = 1.0 / temps[r].max(1e-12);
            let beta_high = 1.0 / temps[r + 1].max(1e-12);
            let delta = (beta_high - beta_low) * (energies[r] - energies[r + 1]);
            if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
                replicas.swap(r, r + 1);
                energies.swap(r, r + 1);
                exchanges_accepted += 1;
            }
        }
    }

    if n == 0 {
        best_energy = 0.0;
        best_spins = Vec::new();
    }

    PtResult {
        best_spins,
        best_energy,
        exchanges_accepted,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_graph::generators;
    use qubo_ising::{solve_ising_exact, Ising};

    #[test]
    fn temperature_ladder_is_decreasing_and_bounded() {
        let config = PtConfig::default();
        let temps = config.temperatures();
        assert_eq!(temps.len(), config.replicas);
        assert!(temps.windows(2).all(|w| w[1] < w[0]));
        assert!((temps[0] - config.max_temperature).abs() < 1e-9);
        assert!((temps.last().unwrap() - config.min_temperature).abs() < 1e-9);
    }

    #[test]
    fn finds_exact_ground_state_on_small_instances() {
        let g = generators::gnp(14, 0.4, 8);
        let model = Ising::random_on_graph(&g, 9);
        let (exact, _, _) = solve_ising_exact(&model);
        let result = parallel_tempering(&CompiledIsing::new(&model), &PtConfig::default(), 3);
        assert!(
            result.best_energy <= exact + 1e-9,
            "PT best {} vs exact {exact}",
            result.best_energy
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::cycle(10);
        let model = Ising::random_on_graph(&g, 1);
        let a = parallel_tempering(&CompiledIsing::new(&model), &PtConfig::default(), 5);
        let b = parallel_tempering(&CompiledIsing::new(&model), &PtConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn exchanges_happen() {
        let g = generators::grid(3, 3);
        let model = Ising::random_on_graph(&g, 2);
        let result = parallel_tempering(&CompiledIsing::new(&model), &PtConfig::default(), 11);
        assert!(result.exchanges_accepted > 0);
        assert!(result.updates > 0);
    }

    #[test]
    fn reported_best_energy_matches_configuration() {
        let g = generators::gnp(10, 0.5, 3);
        let model = Ising::random_on_graph(&g, 4);
        let result = parallel_tempering(&CompiledIsing::new(&model), &PtConfig::default(), 7);
        assert!((model.energy(&result.best_spins) - result.best_energy).abs() < 1e-6);
    }

    #[test]
    fn empty_model_is_handled() {
        let result =
            parallel_tempering(&CompiledIsing::new(&Ising::new(0)), &PtConfig::default(), 1);
        assert_eq!(result.best_energy, 0.0);
        assert!(result.best_spins.is_empty());
    }
}

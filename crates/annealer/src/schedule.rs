//! Annealing schedules.
//!
//! The hardware exposes a limited family of annealing waveforms (Sec. 2.2:
//! "Limitations on the hardware control system do not allow for arbitrary
//! waveforms and duration but restrict these options to pre-defined
//! ranges").  The simulated QPU mirrors that: a schedule is a monotone
//! temperature ramp described by a small set of parameters, with the default
//! matching the D-Wave default 20 µs anneal.

/// Default hardware anneal duration in microseconds (the D-Wave default used
/// by the paper's Fig. 5 QuOps model).
pub const DEFAULT_ANNEAL_MICROSECONDS: f64 = 20.0;

/// Allowed range of anneal durations in microseconds (pre-defined hardware
/// range).
pub const ANNEAL_RANGE_MICROSECONDS: (f64, f64) = (5.0, 2000.0);

/// How the effective temperature interpolates between its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleShape {
    /// Geometric (exponential) interpolation — the classic SA cooling law.
    #[default]
    Geometric,
    /// Linear interpolation in temperature.
    Linear,
}

/// An annealing schedule for the simulated QPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSchedule {
    /// Starting (hot) temperature in units of the largest problem energy
    /// scale.
    pub initial_temperature: f64,
    /// Final (cold) temperature.
    pub final_temperature: f64,
    /// Number of Monte-Carlo sweeps performed over the register.
    pub sweeps: usize,
    /// Interpolation shape.
    pub shape: ScheduleShape,
    /// Nominal hardware duration this schedule represents, in microseconds
    /// (used by the timing model, not by the dynamics).
    pub anneal_microseconds: f64,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        Self {
            initial_temperature: 10.0,
            final_temperature: 0.05,
            sweeps: 256,
            shape: ScheduleShape::Geometric,
            anneal_microseconds: DEFAULT_ANNEAL_MICROSECONDS,
        }
    }
}

impl AnnealSchedule {
    /// A short, low-quality schedule useful in tests.
    pub fn fast() -> Self {
        Self {
            sweeps: 32,
            ..Self::default()
        }
    }

    /// A longer schedule with more sweeps (higher per-read success
    /// probability, higher simulation cost).
    pub fn thorough() -> Self {
        Self {
            sweeps: 2048,
            ..Self::default()
        }
    }

    /// Set the nominal hardware duration, clamped to the hardware's allowed
    /// range.
    pub fn with_anneal_microseconds(mut self, us: f64) -> Self {
        self.anneal_microseconds =
            us.clamp(ANNEAL_RANGE_MICROSECONDS.0, ANNEAL_RANGE_MICROSECONDS.1);
        self
    }

    /// Set the number of sweeps.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps.max(1);
        self
    }

    /// Temperature at sweep `step` (0-based).  Monotonically non-increasing.
    pub fn temperature(&self, step: usize) -> f64 {
        if self.sweeps <= 1 {
            return self.final_temperature;
        }
        let t = step.min(self.sweeps - 1) as f64 / (self.sweeps - 1) as f64;
        match self.shape {
            ScheduleShape::Geometric => {
                let ratio = self.final_temperature / self.initial_temperature;
                self.initial_temperature * ratio.powf(t)
            }
            ScheduleShape::Linear => {
                self.initial_temperature + (self.final_temperature - self.initial_temperature) * t
            }
        }
    }

    /// The full temperature trajectory.
    pub fn temperatures(&self) -> Vec<f64> {
        (0..self.sweeps).map(|s| self.temperature(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_hardware_constant() {
        let s = AnnealSchedule::default();
        assert_eq!(s.anneal_microseconds, DEFAULT_ANNEAL_MICROSECONDS);
        assert!(s.sweeps > 0);
    }

    #[test]
    fn temperature_endpoints() {
        let s = AnnealSchedule::default();
        assert!((s.temperature(0) - s.initial_temperature).abs() < 1e-12);
        assert!((s.temperature(s.sweeps - 1) - s.final_temperature).abs() < 1e-9);
        // Steps beyond the end stay at the final temperature.
        assert!((s.temperature(s.sweeps + 100) - s.final_temperature).abs() < 1e-9);
    }

    #[test]
    fn geometric_schedule_is_monotone_decreasing() {
        let s = AnnealSchedule::default();
        let temps = s.temperatures();
        assert!(temps.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn linear_schedule_is_monotone_decreasing() {
        let s = AnnealSchedule {
            shape: ScheduleShape::Linear,
            ..AnnealSchedule::default()
        };
        let temps = s.temperatures();
        assert!(temps.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // Midpoint of a linear ramp is the arithmetic mean of the endpoints.
        let mid = s.temperature((s.sweeps - 1) / 2);
        let mean = (s.initial_temperature + s.final_temperature) / 2.0;
        assert!((mid - mean).abs() < 0.1);
    }

    #[test]
    fn anneal_duration_is_clamped_to_hardware_range() {
        let s = AnnealSchedule::default().with_anneal_microseconds(1.0);
        assert_eq!(s.anneal_microseconds, ANNEAL_RANGE_MICROSECONDS.0);
        let s = AnnealSchedule::default().with_anneal_microseconds(1e9);
        assert_eq!(s.anneal_microseconds, ANNEAL_RANGE_MICROSECONDS.1);
        let s = AnnealSchedule::default().with_anneal_microseconds(100.0);
        assert_eq!(s.anneal_microseconds, 100.0);
    }

    #[test]
    fn single_sweep_schedule_is_cold() {
        let s = AnnealSchedule::default().with_sweeps(1);
        assert_eq!(s.temperature(0), s.final_temperature);
        assert_eq!(s.temperatures().len(), 1);
    }

    #[test]
    fn with_sweeps_enforces_minimum() {
        assert_eq!(AnnealSchedule::default().with_sweeps(0).sweeps, 1);
    }

    #[test]
    fn fast_and_thorough_presets_differ_in_sweeps() {
        assert!(AnnealSchedule::thorough().sweeps > AnnealSchedule::fast().sweeps);
    }
}

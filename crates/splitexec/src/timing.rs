//! Small timing helpers shared by the executable stages.

use std::time::Instant;

/// Run a closure and return its result together with the elapsed wall-clock
/// seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// A predicted-vs-measured pair for one quantity, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelVsMeasured {
    /// Analytic (ASPEN-walk) prediction.
    pub predicted_seconds: f64,
    /// Measured (or hardware-modeled, where execution is impossible) value.
    pub measured_seconds: f64,
}

impl ModelVsMeasured {
    /// Ratio `predicted / measured`; `NaN` when the measurement is zero.
    pub fn ratio(&self) -> f64 {
        self.predicted_seconds / self.measured_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_positive_duration() {
        let (value, seconds) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn ratio_of_model_vs_measured() {
        let pair = ModelVsMeasured {
            predicted_seconds: 4.0,
            measured_seconds: 2.0,
        };
        assert!((pair.ratio() - 2.0).abs() < 1e-12);
    }
}

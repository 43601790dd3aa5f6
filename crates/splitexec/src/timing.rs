//! Small timing helpers shared by the executable stages.

use std::time::Instant;

/// Run a closure and return its result together with the elapsed wall-clock
/// seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // sx-lint: allow(D001) -- times real stage execution (host wall clock) for model-vs-measured validation; never called from the simulator, whose clock is virtual
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
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
}

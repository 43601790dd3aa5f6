//! A mergeable log-bucketed streaming quantile sketch.
//!
//! [`StreamingHistogram`] answers latency-percentile queries without
//! retaining the samples: observations land in geometrically spaced
//! buckets (`[γⁱ, γⁱ⁺¹)` for growth factor γ), so a quantile query returns
//! the midpoint of the bucket holding the rank-`q` sample.  The midpoint of
//! a γ-wide bucket is within `(γ − 1) / 2` *relative* error of every value
//! in the bucket, which is the sketch's documented accuracy contract (see
//! [`StreamingHistogram::relative_error_bound`] and
//! `docs/OBSERVABILITY.md`): for any `q`, `quantile(q)` is within that
//! relative error of the exact nearest-rank percentile.
//!
//! This is the first concrete step on the ROADMAP's warehouse-scale item:
//! a 1M-job run needs percentiles, not a million retained `JobRecord`s.
//! Sketches of the same resolution merge losslessly
//! ([`StreamingHistogram::merge`]), so per-shard sketches can be combined
//! into fleet-wide percentiles — the dslab sim-telemetry split (samplers
//! feeding mergeable aggregates) rather than full-record retention.
//!
//! Numeric contract:
//!
//! * **NaN-free:** non-finite observations are counted
//!   ([`StreamingHistogram::non_finite`]) and otherwise ignored;
//!   [`StreamingHistogram::quantile`] never returns NaN, even on an empty
//!   sketch (it returns `0.0`).
//! * Negative values are supported via a mirrored bucket array (lateness
//!   and clock-skewed series stay representable).
//! * Values with magnitude below [`ZERO_CUTOFF`] collapse into an exact
//!   zero bucket, so all-zero populations report exact zeros.
//! * Exact `min`/`max`/`mean` are tracked alongside the buckets, and
//!   quantiles are clamped into `[min, max]`.

/// Magnitudes below this collapse into the exact zero bucket.  Virtual
/// times are seconds; no modeled service or wait is anywhere near 1e-12 s,
/// so the cutoff only swallows true zeros and float dust.
pub const ZERO_CUTOFF: f64 = 1e-12;

/// The default relative-error bound (1%), i.e. a bucket growth factor of
/// `γ = 1 + 2 × 0.01 = 1.02`.
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// One sign's worth of geometric buckets: `counts[i]` counts observations
/// whose magnitude falls in bucket `offset + i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Buckets {
    offset: i64,
    counts: Vec<u64>,
}

impl Buckets {
    // The bucket array grows only when an observation lands in a
    // first-seen magnitude bucket; the array length is logarithmic in the
    // observed value range, so growth stops once the range has been seen
    // and steady-state increments are allocation-free (the alloc-budget
    // test pins this).
    fn increment(&mut self, index: i64) {
        if self.counts.is_empty() {
            self.offset = index;
            // sx-lint: allow(A001) -- first observation ever: one-time growth, bounded by the value range, not the event rate
            self.counts.push(1);
            return;
        }
        if index < self.offset {
            let grow = (self.offset - index) as usize;
            // sx-lint: allow(A001) -- downward range extension: happens at most log_γ(range) times ever, not per event
            let mut counts = vec![0u64; grow + self.counts.len()];
            counts[grow..].copy_from_slice(&self.counts);
            self.counts = counts;
            self.offset = index;
        } else if (index - self.offset) as usize >= self.counts.len() {
            self.counts.resize((index - self.offset) as usize + 1, 0);
        }
        self.counts[(index - self.offset) as usize] += 1;
    }

    fn merge(&mut self, other: &Buckets) {
        for (i, &count) in other.counts.iter().enumerate() {
            if count > 0 {
                let index = other.offset + i as i64;
                self.increment(index);
                // `increment` added 1; add the rest directly.
                let at = (index - self.offset) as usize;
                self.counts[at] += count - 1;
            }
        }
    }
}

/// A mergeable log-bucketed quantile sketch with a documented relative
/// error bound (module docs have the full numeric contract).
///
/// ```
/// use sx_cluster::telemetry::StreamingHistogram;
///
/// let mut sketch = StreamingHistogram::default(); // 1% relative error
/// for i in 1..=1000 {
///     sketch.observe(i as f64);
/// }
/// let p99 = sketch.quantile(0.99);
/// assert!((p99 - 990.0).abs() <= 990.0 * sketch.relative_error_bound());
/// assert_eq!(sketch.count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    /// Bucket growth factor γ; bucket `i` spans `[γⁱ, γⁱ⁺¹)`.
    gamma: f64,
    /// Precomputed `1 / ln γ` for index computation.
    inv_ln_gamma: f64,
    /// Finite observations recorded.
    count: u64,
    /// Non-finite (NaN/±∞) observations dropped (but counted here).
    non_finite: u64,
    /// Observations with |v| ≤ [`ZERO_CUTOFF`].
    zero_count: u64,
    /// Exact running extremes and sum over finite observations.
    min: f64,
    max: f64,
    sum: f64,
    /// Buckets for positive and (mirrored) negative magnitudes.
    positive: Buckets,
    negative: Buckets,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::with_relative_error(DEFAULT_RELATIVE_ERROR)
    }
}

impl StreamingHistogram {
    /// A sketch whose quantiles are within `relative_error` of the exact
    /// nearest-rank percentile (bucket growth factor
    /// `γ = 1 + 2 × relative_error`).
    ///
    /// # Panics
    /// Panics unless `0 < relative_error < 0.5` — a degenerate resolution
    /// is a configuration bug, not a runtime condition.
    pub fn with_relative_error(relative_error: f64) -> Self {
        assert!(
            relative_error > 0.0 && relative_error < 0.5,
            "relative error {relative_error} out of (0, 0.5)"
        );
        let gamma = 1.0 + 2.0 * relative_error;
        Self {
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            count: 0,
            non_finite: 0,
            zero_count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            positive: Buckets::default(),
            negative: Buckets::default(),
        }
    }

    /// The sketch's accuracy contract: `(γ − 1) / 2`, the maximum relative
    /// distance between a bucket's midpoint and any value in the bucket.
    pub fn relative_error_bound(&self) -> f64 {
        (self.gamma - 1.0) / 2.0
    }

    /// Record one observation.  Non-finite values are counted in
    /// [`Self::non_finite`] and otherwise ignored, so a stray NaN can never
    /// poison the percentiles.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let magnitude = value.abs();
        if magnitude <= ZERO_CUTOFF {
            self.zero_count += 1;
        } else {
            let index = (magnitude.ln() * self.inv_ln_gamma).floor() as i64;
            if value > 0.0 {
                self.positive.increment(index);
            } else {
                self.negative.increment(index);
            }
        }
    }

    /// Finite observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite observations dropped (NaN and ±∞).
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Exact minimum over finite observations (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum over finite observations (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact mean over finite observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The approximate `q`-quantile (`q` clamped into `[0, 1]`): the
    /// midpoint of the bucket holding the exact nearest-rank sample,
    /// clamped into `[min, max]`.  Within
    /// [`Self::relative_error_bound`] × the exact value, and never NaN —
    /// an empty sketch answers `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the ⌈q·n⌉-th smallest sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        // Ascending value order: most-negative first (largest mirrored
        // magnitude index), then zeros, then positives ascending.
        for i in (0..self.negative.counts.len()).rev() {
            let count = self.negative.counts[i];
            if count == 0 {
                continue;
            }
            seen += count;
            if seen >= rank {
                let index = self.negative.offset + i as i64;
                return (-self.bucket_midpoint(index)).clamp(self.min, self.max);
            }
        }
        seen += self.zero_count;
        if seen >= rank {
            return 0.0_f64.clamp(self.min, self.max);
        }
        for (i, &count) in self.positive.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            seen += count;
            if seen >= rank {
                let index = self.positive.offset + i as i64;
                return self.bucket_midpoint(index).clamp(self.min, self.max);
            }
        }
        // Unreachable when the counters are consistent; fall back to the
        // exact max rather than panicking in library code.
        self.max
    }

    /// Median (`quantile(0.5)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another sketch of the *same resolution* into this one: bucket
    /// counts add and extremes combine exactly, so quantiles of the merged
    /// sketch equal those of a sketch that observed both streams.  (Only
    /// the running `sum` behind [`Self::mean`] is float-addition-order
    /// sensitive, at ~1 ulp.)
    ///
    /// # Errors
    /// Returns the mismatched γ values when the resolutions differ —
    /// merging different bucket layouts would silently corrupt quantiles.
    pub fn merge(&mut self, other: &StreamingHistogram) -> Result<(), (f64, f64)> {
        if self.gamma != other.gamma {
            return Err((self.gamma, other.gamma));
        }
        self.count += other.count;
        self.non_finite += other.non_finite;
        self.zero_count += other.zero_count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.positive.merge(&other.positive);
        self.negative.merge(&other.negative);
        Ok(())
    }

    /// The midpoint of bucket `index`: `(γⁱ + γⁱ⁺¹) / 2`.
    fn bucket_midpoint(&self, index: i64) -> f64 {
        let low = self.gamma.powi(index as i32);
        low * (1.0 + self.gamma) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile, the yardstick of the accuracy
    /// contract.
    fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_within_bound(sketch: &StreamingHistogram, values: &mut [f64], label: &str) {
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_nearest_rank(values, q);
            let approx = sketch.quantile(q);
            let bound = sketch.relative_error_bound() * exact.abs() + 1e-12;
            assert!(
                (approx - exact).abs() <= bound * (1.0 + 1e-9),
                "{label}: q={q} approx {approx} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn uniform_and_constant_distributions_stay_in_bound() {
        let mut sketch = StreamingHistogram::default();
        let mut values: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect();
        for &v in &values {
            sketch.observe(v);
        }
        assert_within_bound(&sketch, &mut values, "uniform");

        let mut constant = StreamingHistogram::default();
        for _ in 0..100 {
            constant.observe(42.0);
        }
        assert!((constant.quantile(0.5) - 42.0).abs() <= 42.0 * constant.relative_error_bound());
        // Clamping to exact extremes makes constant populations exact.
        assert_eq!(constant.quantile(0.0), 42.0_f64.min(constant.quantile(0.0)));
        assert_eq!(constant.min(), 42.0);
        assert_eq!(constant.max(), 42.0);
    }

    #[test]
    fn adversarial_distributions_stay_in_bound() {
        // Twelve decades of dynamic range, heavy tails, duplicates.
        let mut spread = StreamingHistogram::default();
        let mut values: Vec<f64> = (0..600)
            .map(|i| 1e-6 * 1.047_f64.powi(i % 500) * (1 + i % 7) as f64)
            .collect();
        for &v in &values {
            spread.observe(v);
        }
        assert_within_bound(&spread, &mut values, "log-spread");

        // A two-point distribution with a massive gap: the sketch must pick
        // the correct side of the gap (nearest-rank, not interpolation).
        let mut gap = StreamingHistogram::default();
        let mut gap_values = Vec::new();
        for i in 0..100 {
            let v = if i < 60 { 1e-3 } else { 1e6 };
            gap.observe(v);
            gap_values.push(v);
        }
        assert_within_bound(&gap, &mut gap_values, "two-point gap");

        // Heavy tail: x ~ i³ with many small duplicates.
        let mut tail = StreamingHistogram::default();
        let mut tail_values: Vec<f64> = (1..=500)
            .map(|i| if i % 5 == 0 { (i * i * i) as f64 } else { 0.5 })
            .collect();
        for &v in &tail_values {
            tail.observe(v);
        }
        assert_within_bound(&tail, &mut tail_values, "heavy tail");
    }

    #[test]
    fn negatives_and_zeros_are_representable() {
        let mut sketch = StreamingHistogram::default();
        let mut values: Vec<f64> = (-50..=50).map(|i| i as f64 * 3.5).collect();
        for &v in &values {
            sketch.observe(v);
        }
        assert_within_bound(&sketch, &mut values, "signed");
        assert_eq!(sketch.min(), -175.0);
        assert_eq!(sketch.max(), 175.0);
        // Median of a symmetric signed population is the exact zero bucket.
        assert_eq!(sketch.quantile(0.5), 0.0);
    }

    #[test]
    fn nan_free_guarantee() {
        let mut sketch = StreamingHistogram::default();
        assert_eq!(sketch.quantile(0.5), 0.0, "empty sketch answers 0.0");
        sketch.observe(f64::NAN);
        sketch.observe(f64::INFINITY);
        sketch.observe(f64::NEG_INFINITY);
        assert_eq!(sketch.count(), 0);
        assert_eq!(sketch.non_finite(), 3);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(!sketch.quantile(q).is_nan());
        }
        sketch.observe(2.0);
        assert_eq!(sketch.count(), 1);
        assert!(!sketch.mean().is_nan());
        assert!((sketch.quantile(0.99) - 2.0).abs() <= 2.0 * sketch.relative_error_bound());
    }

    #[test]
    fn merge_equals_observing_both_streams() {
        let mut left = StreamingHistogram::default();
        let mut right = StreamingHistogram::default();
        let mut both = StreamingHistogram::default();
        for i in 1..=400 {
            let v = (i as f64).powf(1.7) * if i % 2 == 0 { 1.0 } else { 1e-4 };
            if i % 3 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
            both.observe(v);
        }
        left.merge(&right).expect("same resolution");
        // Counts, extremes and every quantile merge losslessly; the running
        // sum can differ by float addition order (~1 ulp), so the mean is
        // compared with a tolerance instead of bitwise.
        assert_eq!(left.count(), both.count());
        assert_eq!(left.min(), both.min());
        assert_eq!(left.max(), both.max());
        assert!((left.mean() - both.mean()).abs() <= 1e-9 * both.mean().abs());
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                left.quantile(q),
                both.quantile(q),
                "merged quantile differs at q={q}"
            );
        }
        // Mismatched resolutions refuse to merge.
        let coarse = StreamingHistogram::with_relative_error(0.05);
        assert!(left.merge(&coarse).is_err());
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut sketch = StreamingHistogram::default();
        for i in 0..300 {
            sketch.observe((i % 17) as f64 * 0.3 + 0.1);
        }
        let qs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        for pair in qs.windows(2) {
            assert!(
                sketch.quantile(pair[1]) >= sketch.quantile(pair[0]),
                "quantile must be monotone in q"
            );
        }
    }

    #[test]
    #[should_panic(expected = "relative error")]
    fn degenerate_resolution_is_rejected() {
        StreamingHistogram::with_relative_error(0.0);
    }
}

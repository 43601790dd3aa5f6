//! Sampling statistics: the paper's Eq. (6), success-probability
//! estimation, and the percentile helpers shared by the benchmark and
//! cluster-simulation metrics.
//!
//! The QPU is "effectively a probabilistic processor" (Sec. 3.2): a single
//! read lands in the ground state with some characteristic probability
//! `p_s`, so the number of repetitions needed to see the ground state at
//! least once with confidence `p_a` is
//!
//! ```text
//! s ≥ log(1 − p_a) / log(1 − p_s)          (Eq. 6)
//! ```

/// Compute the repetition count of Eq. (6): the minimum number of
/// statistically independent reads needed so that the probability of having
/// observed the ground state at least once reaches `accuracy`, given a
/// per-read success probability `success`.
///
/// Edge cases follow the obvious limits: a certain per-read success needs one
/// read; an impossible per-read success (or an accuracy of 1.0) cannot be
/// satisfied and saturates to `usize::MAX`; a non-positive accuracy needs no
/// reads beyond the one always performed.
pub fn required_reads(accuracy: f64, success: f64) -> usize {
    if !(0.0..=1.0).contains(&accuracy) || !(0.0..=1.0).contains(&success) {
        // Out-of-range inputs are clamped to the nearest meaningful value.
        return required_reads(accuracy.clamp(0.0, 1.0), success.clamp(0.0, 1.0));
    }
    if accuracy <= 0.0 {
        return 1;
    }
    if success >= 1.0 {
        return 1;
    }
    if success <= 0.0 || accuracy >= 1.0 {
        return usize::MAX;
    }
    let s = (1.0 - accuracy).ln() / (1.0 - success).ln();
    (s.ceil() as usize).max(1)
}

/// The probability of having observed the ground state at least once after
/// `reads` independent reads with per-read success probability `success`.
pub fn achieved_accuracy(reads: usize, success: f64) -> f64 {
    let success = success.clamp(0.0, 1.0);
    1.0 - (1.0 - success).powi(reads.min(i32::MAX as usize) as i32)
}

/// Estimate of the per-read success probability from an observed ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessEstimate {
    /// Fraction of reads that reached the reference energy.
    pub p_success: f64,
    /// Number of reads that reached the reference energy.
    pub hits: usize,
    /// Total reads in the ensemble.
    pub reads: usize,
}

/// Estimate `p_s` by counting how many sampled energies reach `ground_energy`
/// within `tolerance`.
pub fn estimate_success_probability(
    energies: &[f64],
    ground_energy: f64,
    tolerance: f64,
) -> SuccessEstimate {
    let hits = energies
        .iter()
        .filter(|&&e| e <= ground_energy + tolerance)
        .count();
    SuccessEstimate {
        p_success: if energies.is_empty() {
            0.0
        } else {
            hits as f64 / energies.len() as f64
        },
        hits,
        reads: energies.len(),
    }
}

/// The `p`-th percentile of `samples` (linear interpolation between closest
/// ranks, the common "type 7" estimator), or `None` when `samples` is empty.
///
/// `p` is a fraction in `[0, 1]` and is clamped to that range; `0.0` returns
/// the minimum and `1.0` the maximum.  The input need not be sorted — a
/// sorted copy is made internally, so callers with an already-sorted slice
/// should prefer [`percentile_sorted`].
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over a slice the caller has already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_matches_paper_examples() {
        // ps = 0.7, pa = 0.99: ceil(ln(0.01)/ln(0.3)) = 4 reads.
        assert_eq!(required_reads(0.99, 0.7), 4);
        // ps = 0.7, pa = 0.9999: ceil(ln(1e-4)/ln(0.3)) = 8 reads.
        assert_eq!(required_reads(0.9999, 0.7), 8);
        // ps = 0.75, pa = 0.99 (the paper's Stage-3 defaults): 4 reads.
        assert_eq!(required_reads(0.99, 0.75), 4);
        // ps = 0.9999, pa = 0.99 (the Stage-2 listing defaults): 1 read.
        assert_eq!(required_reads(0.99, 0.9999), 1);
    }

    #[test]
    fn eq6_needs_more_reads_for_higher_accuracy() {
        let reads: Vec<usize> = [0.9, 0.99, 0.999, 0.9999, 0.99999]
            .iter()
            .map(|&pa| required_reads(pa, 0.7))
            .collect();
        assert!(reads.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(reads[0], 2);
    }

    #[test]
    fn eq6_needs_more_reads_for_lower_success() {
        let reads: Vec<usize> = [0.9, 0.7, 0.5, 0.3, 0.1, 0.01]
            .iter()
            .map(|&ps| required_reads(0.99, ps))
            .collect();
        assert!(reads.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*reads.last().unwrap(), 459);
    }

    #[test]
    fn eq6_insensitive_above_point_six() {
        // The paper notes the stage-2 curve is approximately the same for all
        // ps > 0.6 because so few reads are needed.
        for ps in [0.6, 0.7, 0.8, 0.9, 0.99] {
            assert!(required_reads(0.99, ps) <= 6);
        }
    }

    #[test]
    fn eq6_edge_cases() {
        assert_eq!(required_reads(0.0, 0.5), 1);
        assert_eq!(required_reads(-1.0, 0.5), 1);
        assert_eq!(required_reads(0.99, 1.0), 1);
        assert_eq!(required_reads(0.99, 1.5), 1);
        assert_eq!(required_reads(0.99, 0.0), usize::MAX);
        assert_eq!(required_reads(1.0, 0.5), usize::MAX);
    }

    #[test]
    fn achieved_accuracy_inverts_required_reads() {
        for &(pa, ps) in &[(0.9, 0.3), (0.99, 0.7), (0.999, 0.5)] {
            let reads = required_reads(pa, ps);
            assert!(achieved_accuracy(reads, ps) >= pa);
            if reads > 1 {
                assert!(achieved_accuracy(reads - 1, ps) < pa);
            }
        }
    }

    #[test]
    fn success_estimation_counts_hits() {
        let energies = [-5.0, -4.9, -5.0, -3.0, -5.0];
        let est = estimate_success_probability(&energies, -5.0, 1e-9);
        assert_eq!(est.hits, 3);
        assert_eq!(est.reads, 5);
        assert!((est.p_success - 0.6).abs() < 1e-12);
    }

    #[test]
    fn success_estimation_empty_ensemble() {
        let est = estimate_success_probability(&[], -1.0, 0.0);
        assert_eq!(est.p_success, 0.0);
        assert_eq!(est.reads, 0);
    }

    #[test]
    fn percentile_of_empty_slice_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn percentile_endpoints_are_min_and_max() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        // Out-of-range fractions clamp rather than panic.
        assert_eq!(percentile(&xs, -0.5), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(5.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        // rank = 0.5 * 3 = 1.5 → halfway between 2.0 and 3.0.
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        // rank = 0.25 * 3 = 0.75 → 1.75.
        assert!((percentile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let shuffled = [9.0, 1.0, 7.0, 3.0, 5.0];
        let sorted = [1.0, 3.0, 5.0, 7.0, 9.0];
        for p in [0.1, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(percentile(&shuffled, p), percentile_sorted(&sorted, p));
        }
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 0.5), Some(42.0));
        assert_eq!(percentile(&[42.0], 1.0), Some(42.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Percentiles are order statistics: for any sample set the summary
        /// points are mutually ordered and bracketed by the extremes,
        /// `min ≤ p50 ≤ p95 ≤ p99 ≤ max`.
        #[test]
        fn percentile_bounds_hold(samples in vec(-1e6f64..1e6, 1..200)) {
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let p50 = percentile(&samples, 0.50).unwrap();
            let p95 = percentile(&samples, 0.95).unwrap();
            let p99 = percentile(&samples, 0.99).unwrap();
            prop_assert!(min <= p50, "min {min} > p50 {p50}");
            prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
            prop_assert!(p99 <= max, "p99 {p99} > max {max}");
            prop_assert_eq!(percentile(&samples, 0.0).unwrap(), min);
            prop_assert_eq!(percentile(&samples, 1.0).unwrap(), max);
        }

        /// Percentiles are monotone in `p` over a dense grid, not just the
        /// headline points.
        #[test]
        fn percentile_is_monotone_in_p(samples in vec(-1e3f64..1e3, 1..100)) {
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
            for pair in grid.windows(2) {
                let lo = percentile_sorted(&sorted, pair[0]).unwrap();
                let hi = percentile_sorted(&sorted, pair[1]).unwrap();
                prop_assert!(lo <= hi, "percentile({}) = {lo} > percentile({}) = {hi}", pair[0], pair[1]);
            }
        }
    }
}

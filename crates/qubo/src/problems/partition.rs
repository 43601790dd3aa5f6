//! Number partitioning → QUBO reduction.
//!
//! Given positive numbers `a_1..a_n`, split them into two sets with sums as
//! close as possible.  With `x_i ∈ {0,1}` selecting the second set, the
//! squared imbalance `(Σ a_i - 2 Σ a_i x_i)²` expands into a QUBO whose
//! minimum is the squared optimal residue (0 for perfectly balanced inputs).

use crate::qubo::Qubo;

/// A number-partitioning instance.
#[derive(Debug, Clone, PartialEq)]
pub struct NumberPartition {
    numbers: Vec<f64>,
}

impl NumberPartition {
    /// Create an instance from the given numbers.
    ///
    /// # Panics
    /// Panics if any number is negative or non-finite.
    pub fn new(numbers: Vec<f64>) -> Self {
        assert!(
            numbers.iter().all(|&a| a.is_finite() && a >= 0.0),
            "numbers must be non-negative and finite"
        );
        Self { numbers }
    }

    /// The numbers being partitioned.
    pub fn numbers(&self) -> &[f64] {
        &self.numbers
    }

    /// Total sum of the input numbers.
    pub fn total(&self) -> f64 {
        self.numbers.iter().sum()
    }

    /// Build the QUBO encoding of the squared imbalance.
    ///
    /// `(S - 2 Σ a_i x_i)² = S² - 4 S Σ a_i x_i + 4 (Σ a_i x_i)²`; dropping
    /// the constant `S²`, the diagonal gets `4 a_i (a_i - S)` and each pair
    /// `i<j` gets an off-diagonal coefficient `4 a_i a_j`.
    pub fn to_qubo(&self) -> Qubo {
        let n = self.numbers.len();
        let total = self.total();
        let mut q = Qubo::new(n);
        for i in 0..n {
            let a = self.numbers[i];
            q.add(i, i, 4.0 * a * (a - total));
            for j in (i + 1)..n {
                q.add(i, j, 4.0 * a * self.numbers[j]);
            }
        }
        q
    }

    /// The constant offset dropped by [`Self::to_qubo`]; adding it back turns
    /// the QUBO energy into the squared imbalance.
    pub fn offset(&self) -> f64 {
        self.total() * self.total()
    }

    /// Imbalance `|sum(A) - sum(B)|` of the partition described by `bits`.
    pub fn imbalance(&self, bits: &[bool]) -> f64 {
        let selected: f64 = self
            .numbers
            .iter()
            .zip(bits)
            .filter(|(_, &b)| b)
            .map(|(a, _)| a)
            .sum();
        (self.total() - 2.0 * selected).abs()
    }

    /// Decode an assignment into the two subsets (indices).
    pub fn decode(&self, bits: &[bool]) -> (Vec<usize>, Vec<usize>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                b.push(i);
            } else {
                a.push(i);
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::solve_qubo_exact;

    #[test]
    fn qubo_energy_equals_squared_imbalance_minus_offset() {
        let p = NumberPartition::new(vec![3.0, 1.0, 4.0, 2.0]);
        let q = p.to_qubo();
        for mask in 0..(1u32 << 4) {
            let bits: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 == 1).collect();
            let energy_plus_offset = q.energy(&bits) + p.offset();
            let squared = p.imbalance(&bits).powi(2);
            assert!(
                (energy_plus_offset - squared).abs() < 1e-9,
                "bits {bits:?}: {energy_plus_offset} vs {squared}"
            );
        }
    }

    #[test]
    fn balanced_instance_reaches_zero_imbalance() {
        let p = NumberPartition::new(vec![3.0, 1.0, 4.0, 2.0, 2.0]);
        let sol = solve_qubo_exact(&p.to_qubo());
        assert!(
            (sol.energy + p.offset()).abs() < 1e-9,
            "perfect split exists"
        );
        assert_eq!(p.imbalance(&sol.assignment), 0.0);
    }

    #[test]
    fn unbalanced_instance_minimizes_residue() {
        let p = NumberPartition::new(vec![10.0, 3.0, 2.0]);
        let sol = solve_qubo_exact(&p.to_qubo());
        // Best split: {10} vs {3, 2} -> residue 5.
        assert!((p.imbalance(&sol.assignment) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn decode_partitions_all_indices() {
        let p = NumberPartition::new(vec![1.0, 2.0, 3.0]);
        let (a, b) = p.decode(&[true, false, true]);
        assert_eq!(a, vec![1]);
        assert_eq!(b, vec![0, 2]);
    }

    #[test]
    fn interaction_graph_is_complete() {
        let p = NumberPartition::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let q = p.to_qubo();
        assert_eq!(q.interaction_count(), 10);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_numbers_are_rejected() {
        NumberPartition::new(vec![1.0, -2.0]);
    }

    #[test]
    fn empty_instance_is_trivial() {
        let p = NumberPartition::new(vec![]);
        assert_eq!(p.total(), 0.0);
        assert_eq!(p.offset(), 0.0);
        assert_eq!(p.to_qubo().num_variables(), 0);
    }
}

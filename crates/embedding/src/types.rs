//! Core embedding types shared across the algorithms.

use std::collections::BTreeSet;
use std::fmt;

/// A minor embedding: for each logical vertex, the set of hardware qubits
/// (its *chain* or *vertex model*) that collectively represent it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Embedding {
    /// `chains[v]` lists the hardware qubits assigned to logical vertex `v`,
    /// sorted ascending.
    chains: Vec<Vec<usize>>,
}

impl Embedding {
    /// Create an embedding with `n` empty chains.
    pub fn new(n: usize) -> Self {
        Self {
            chains: vec![Vec::new(); n],
        }
    }

    /// Build from explicit chains (each chain is sorted and deduplicated).
    pub fn from_chains(chains: Vec<Vec<usize>>) -> Self {
        let chains = chains
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        Self { chains }
    }

    /// Number of logical vertices.
    pub fn num_logical(&self) -> usize {
        self.chains.len()
    }

    /// The chain of logical vertex `v`.
    pub fn chain(&self, v: usize) -> &[usize] {
        &self.chains[v]
    }

    /// Replace the chain of logical vertex `v`.
    pub fn set_chain(&mut self, v: usize, mut chain: Vec<usize>) {
        chain.sort_unstable();
        chain.dedup();
        self.chains[v] = chain;
    }

    /// Remove the chain of logical vertex `v` (leaving it empty).
    pub fn clear_chain(&mut self, v: usize) {
        self.chains[v].clear();
    }

    /// Iterate over `(logical vertex, chain)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.chains
            .iter()
            .enumerate()
            .map(|(v, c)| (v, c.as_slice()))
    }

    /// Total number of hardware qubits used (counting duplicates once).
    pub fn qubits_used(&self) -> usize {
        let mut all = BTreeSet::new();
        for chain in &self.chains {
            all.extend(chain.iter().copied());
        }
        all.len()
    }

    /// Sum of chain lengths (counts a qubit once per chain that uses it).
    pub fn total_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Length of the longest chain (0 if all chains are empty).
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean chain length over non-empty chains (0 if none).
    pub fn average_chain_length(&self) -> f64 {
        let non_empty: Vec<usize> = self
            .chains
            .iter()
            .filter(|c| !c.is_empty())
            .map(Vec::len)
            .collect();
        if non_empty.is_empty() {
            0.0
        } else {
            non_empty.iter().sum::<usize>() as f64 / non_empty.len() as f64
        }
    }

    /// Whether any hardware qubit is shared by two or more chains.
    pub fn has_overlaps(&self) -> bool {
        let mut seen = BTreeSet::new();
        for chain in &self.chains {
            for &q in chain {
                if !seen.insert(q) {
                    return true;
                }
            }
        }
        false
    }

    /// Map from hardware qubit to the logical vertex whose chain contains it.
    /// When chains overlap, the lowest-numbered logical vertex wins; use
    /// [`Self::has_overlaps`] to detect that situation.
    pub fn qubit_to_logical(&self, num_hardware: usize) -> Vec<Option<usize>> {
        let mut map = vec![None; num_hardware];
        for (v, chain) in self.iter() {
            for &q in chain {
                if q < num_hardware && map[q].is_none() {
                    map[q] = Some(v);
                }
            }
        }
        map
    }
}

impl fmt::Display for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "embedding: {} logical vertices, {} qubits, max chain {}",
            self.num_logical(),
            self.qubits_used(),
            self.max_chain_length()
        )?;
        for (v, chain) in self.iter() {
            writeln!(f, "  {v} -> {chain:?}")?;
        }
        Ok(())
    }
}

/// Errors produced by the embedding algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// The hardware graph is too small for the requested input.
    HardwareTooSmall {
        /// Qubits required (lower bound).
        required: usize,
        /// Qubits available.
        available: usize,
    },
    /// The heuristic failed to find an overlap-free embedding within its
    /// iteration budget.
    NoEmbeddingFound {
        /// Number of improvement passes attempted.
        passes: usize,
    },
    /// The produced embedding failed validation (used by the verifier).
    Invalid(String),
    /// The input graph is empty or otherwise degenerate.
    DegenerateInput(String),
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::HardwareTooSmall {
                required,
                available,
            } => write!(
                f,
                "hardware too small: needs at least {required} usable qubits, has {available}"
            ),
            EmbedError::NoEmbeddingFound { passes } => {
                write!(f, "no overlap-free embedding found after {passes} passes")
            }
            EmbedError::Invalid(msg) => write!(f, "invalid embedding: {msg}"),
            EmbedError::DegenerateInput(msg) => write!(f, "degenerate input: {msg}"),
        }
    }
}

impl std::error::Error for EmbedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_chains_sorts_and_dedups() {
        let e = Embedding::from_chains(vec![vec![3, 1, 3], vec![2]]);
        assert_eq!(e.chain(0), &[1, 3]);
        assert_eq!(e.chain(1), &[2]);
        assert_eq!(e.num_logical(), 2);
    }

    #[test]
    fn usage_statistics() {
        let e = Embedding::from_chains(vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
        assert_eq!(e.qubits_used(), 6);
        assert_eq!(e.total_chain_length(), 6);
        assert_eq!(e.max_chain_length(), 3);
        assert!((e.average_chain_length() - 2.0).abs() < 1e-12);
        assert!(!e.has_overlaps());
    }

    #[test]
    fn overlap_detection() {
        let e = Embedding::from_chains(vec![vec![0, 1], vec![1, 2]]);
        assert!(e.has_overlaps());
        assert_eq!(e.qubits_used(), 3);
        assert_eq!(e.total_chain_length(), 4);
    }

    #[test]
    fn qubit_to_logical_map() {
        let e = Embedding::from_chains(vec![vec![0, 2], vec![5]]);
        let map = e.qubit_to_logical(6);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[2], Some(0));
        assert_eq!(map[5], Some(1));
        assert_eq!(map[1], None);
    }

    #[test]
    fn empty_chains_average_is_zero() {
        let e = Embedding::new(3);
        assert_eq!(e.average_chain_length(), 0.0);
        assert_eq!(e.max_chain_length(), 0);
        assert!(!e.has_overlaps());
    }

    #[test]
    fn set_and_clear_chain() {
        let mut e = Embedding::new(2);
        e.set_chain(0, vec![7, 3, 7]);
        assert_eq!(e.chain(0), &[3, 7]);
        e.clear_chain(0);
        assert!(e.chain(0).is_empty());
    }

    #[test]
    fn display_is_informative() {
        let e = Embedding::from_chains(vec![vec![0], vec![1, 2]]);
        let text = e.to_string();
        assert!(text.contains("2 logical vertices"));
        assert!(text.contains("max chain 2"));
    }

    #[test]
    fn error_display() {
        let err = EmbedError::HardwareTooSmall {
            required: 100,
            available: 50,
        };
        assert!(err.to_string().contains("100"));
        let err = EmbedError::NoEmbeddingFound { passes: 5 };
        assert!(err.to_string().contains("5 passes"));
    }
}

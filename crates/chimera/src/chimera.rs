//! The D-Wave Chimera hardware topology.
//!
//! A Chimera graph `C(M, N, L)` is an `M × N` grid of unit cells, each cell a
//! complete bipartite graph `K_{L,L}` between a *vertical* side and a
//! *horizontal* side of `L` qubits.  Vertical qubits couple to the vertically
//! adjacent cell, horizontal qubits to the horizontally adjacent cell, in the
//! same within-side position.  For the D-Wave processors modeled in the paper
//! `L = 4`: the D-Wave Two "Vesuvius" is `C(8, 8, 4)` (512 qubits, Fig. 3)
//! and the D-Wave 2X is `C(12, 12, 4)` (1152 qubits).
//!
//! Interior qubits have degree `L + 2 = 6`; qubits on the grid boundary have
//! degree 5, matching the connectivity limits described in Sec. 2.1.

use crate::graph::Graph;

/// Which side of the unit-cell bipartition a qubit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Couples to the cell above/below (same column).
    Vertical,
    /// Couples to the cell left/right (same row).
    Horizontal,
}

/// Structured coordinate of a qubit inside a Chimera lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChimeraCoord {
    /// Cell row, `0..M`.
    pub row: usize,
    /// Cell column, `0..N`.
    pub col: usize,
    /// Bipartition side within the cell.
    pub side: Side,
    /// Position within the side, `0..L`.
    pub k: usize,
}

/// A Chimera hardware graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Chimera {
    m: usize,
    n: usize,
    l: usize,
    graph: Graph,
}

impl Chimera {
    /// Build a pristine (fault-free) `C(m, n, l)` Chimera graph.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(m: usize, n: usize, l: usize) -> Self {
        assert!(
            m > 0 && n > 0 && l > 0,
            "Chimera dimensions must be positive"
        );
        let qubits = Self::expected_qubits(m, n, l);
        let mut graph = Graph::new(qubits);
        for row in 0..m {
            for col in 0..n {
                // Intra-cell K_{L,L}.
                for kv in 0..l {
                    let v = Self::index(m, n, l, row, col, Side::Vertical, kv);
                    for kh in 0..l {
                        let h = Self::index(m, n, l, row, col, Side::Horizontal, kh);
                        graph.add_edge(v, h);
                    }
                }
                // Inter-cell vertical couplers.
                if row + 1 < m {
                    for k in 0..l {
                        let a = Self::index(m, n, l, row, col, Side::Vertical, k);
                        let b = Self::index(m, n, l, row + 1, col, Side::Vertical, k);
                        graph.add_edge(a, b);
                    }
                }
                // Inter-cell horizontal couplers.
                if col + 1 < n {
                    for k in 0..l {
                        let a = Self::index(m, n, l, row, col, Side::Horizontal, k);
                        let b = Self::index(m, n, l, row, col + 1, Side::Horizontal, k);
                        graph.add_edge(a, b);
                    }
                }
            }
        }
        Self { m, n, l, graph }
    }

    /// The D-Wave Two "Vesuvius" topology: `C(8, 8, 4)`, 512 qubits (Fig. 3).
    pub fn dw2_vesuvius() -> Self {
        Self::new(8, 8, 4)
    }

    /// The D-Wave 2X topology: `C(12, 12, 4)`, 1152 qubits.
    pub fn dw2x() -> Self {
        Self::new(12, 12, 4)
    }

    /// Grid rows `M`.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Grid columns `N`.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Qubits per side within a cell (`L`).
    pub fn shore_size(&self) -> usize {
        self.l
    }

    /// Number of physical qubits, `2 * L * M * N` (= `8*M*N` for `L = 4`).
    pub fn qubit_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of physical couplers.
    pub fn coupler_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The underlying hardware graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the hardware graph, used by fault injection.
    pub(crate) fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Consume the topology and return the plain graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Expected qubit count for given dimensions.
    pub fn expected_qubits(m: usize, n: usize, l: usize) -> usize {
        2 * l * m * n
    }

    /// Expected coupler count for given dimensions:
    /// `L^2 * M * N` intra-cell plus `L * ((M-1)*N + M*(N-1))` inter-cell.
    /// For `L = 4` this is the paper's `EG = 4*(2*M*N - M - N) + 16*M*N`.
    pub fn expected_couplers(m: usize, n: usize, l: usize) -> usize {
        l * l * m * n + l * ((m - 1) * n + m * (n - 1))
    }

    /// Linear index of a qubit coordinate.
    pub fn linear_index(&self, coord: ChimeraCoord) -> usize {
        Self::index(
            self.m, self.n, self.l, coord.row, coord.col, coord.side, coord.k,
        )
    }

    /// Structured coordinate of a linear qubit index.
    pub fn coord(&self, index: usize) -> ChimeraCoord {
        assert!(index < self.qubit_count(), "qubit index out of range");
        let per_cell = 2 * self.l;
        let cell = index / per_cell;
        let within = index % per_cell;
        let (side, k) = if within < self.l {
            (Side::Vertical, within)
        } else {
            (Side::Horizontal, within - self.l)
        };
        ChimeraCoord {
            row: cell / self.n,
            col: cell % self.n,
            side,
            k,
        }
    }

    /// All qubit indices belonging to cell `(row, col)`, vertical side first.
    pub fn cell(&self, row: usize, col: usize) -> Vec<usize> {
        assert!(row < self.m && col < self.n, "cell out of range");
        let base = (row * self.n + col) * 2 * self.l;
        (base..base + 2 * self.l).collect()
    }

    fn index(_m: usize, n: usize, l: usize, row: usize, col: usize, side: Side, k: usize) -> usize {
        let side_offset = match side {
            Side::Vertical => 0,
            Side::Horizontal => l,
        };
        (row * n + col) * 2 * l + side_offset + k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vesuvius_dimensions_match_paper_fig3() {
        let c = Chimera::dw2_vesuvius();
        assert_eq!(c.qubit_count(), 512);
        assert_eq!(c.coupler_count(), Chimera::expected_couplers(8, 8, 4));
    }

    #[test]
    fn dw2x_dimensions_match_paper() {
        let c = Chimera::dw2x();
        assert_eq!(c.qubit_count(), 1152);
        // The paper's Stage-1 model: NG = 8*M*N, EG = 4*(2MN - M - N) + 16MN.
        let m = 12.0_f64;
        let n = 12.0_f64;
        let ng = 8.0 * m * n;
        let eg = 4.0 * (2.0 * m * n - m - n) + 16.0 * m * n;
        assert_eq!(c.qubit_count() as f64, ng);
        assert_eq!(c.coupler_count() as f64, eg);
    }

    #[test]
    fn degree_distribution_matches_sec_2_1() {
        // Interior qubits have 6 neighbors, boundary qubits 5 (for L = 4).
        let c = Chimera::new(4, 4, 4);
        let g = c.graph();
        let mut fives = 0;
        let mut sixes = 0;
        for v in g.vertices() {
            match g.degree(v) {
                5 => fives += 1,
                6 => sixes += 1,
                d => panic!("unexpected degree {d} in pristine Chimera"),
            }
        }
        assert!(fives > 0 && sixes > 0);
        // Boundary cells: vertical qubits in top/bottom rows and horizontal
        // qubits in leftmost/rightmost columns lose one inter-cell coupler.
        let expected_fives = 2 * 4 * 4 + 2 * 4 * 4; // 2 rows * N cells * L + 2 cols * M cells * L
        assert_eq!(fives, expected_fives);
        assert_eq!(sixes, c.qubit_count() - expected_fives);
    }

    #[test]
    fn coord_round_trip() {
        let c = Chimera::new(3, 5, 4);
        for idx in 0..c.qubit_count() {
            let coord = c.coord(idx);
            assert_eq!(c.linear_index(coord), idx);
            assert!(coord.row < 3 && coord.col < 5 && coord.k < 4);
        }
    }

    #[test]
    fn cell_contents_are_fully_bipartite() {
        let c = Chimera::new(2, 2, 4);
        let cell = c.cell(1, 1);
        assert_eq!(cell.len(), 8);
        let g = c.graph();
        for &v in &cell[..4] {
            for &h in &cell[4..] {
                assert!(g.has_edge(v, h), "missing intra-cell edge {v}-{h}");
            }
        }
        // No edges within a side.
        for &a in &cell[..4] {
            for &b in &cell[..4] {
                if a != b {
                    assert!(!g.has_edge(a, b));
                }
            }
        }
    }

    #[test]
    fn inter_cell_couplers_connect_same_position() {
        let c = Chimera::new(2, 2, 4);
        let g = c.graph();
        let a = c.linear_index(ChimeraCoord {
            row: 0,
            col: 0,
            side: Side::Vertical,
            k: 2,
        });
        let b = c.linear_index(ChimeraCoord {
            row: 1,
            col: 0,
            side: Side::Vertical,
            k: 2,
        });
        assert!(g.has_edge(a, b));
        let h0 = c.linear_index(ChimeraCoord {
            row: 0,
            col: 0,
            side: Side::Horizontal,
            k: 1,
        });
        let h1 = c.linear_index(ChimeraCoord {
            row: 0,
            col: 1,
            side: Side::Horizontal,
            k: 1,
        });
        assert!(g.has_edge(h0, h1));
        // Different positions are not coupled between cells.
        let b_other = c.linear_index(ChimeraCoord {
            row: 1,
            col: 0,
            side: Side::Vertical,
            k: 3,
        });
        assert!(!g.has_edge(a, b_other));
    }

    #[test]
    fn single_cell_has_no_intercell_edges() {
        let c = Chimera::new(1, 1, 4);
        assert_eq!(c.qubit_count(), 8);
        assert_eq!(c.coupler_count(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        Chimera::new(0, 3, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        let c = Chimera::new(1, 1, 4);
        c.coord(8);
    }

    #[test]
    fn expected_counts_scale_quadratically() {
        // Embedding a complete graph on n vertices needs ~n^2 qubits, so the
        // hardware sizes used in the paper bound the largest embeddable
        // complete graph; sanity check the quadratic growth of capacity.
        let small = Chimera::expected_qubits(4, 4, 4);
        let large = Chimera::expected_qubits(8, 8, 4);
        assert_eq!(large, 4 * small);
    }
}

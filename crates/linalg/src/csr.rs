//! Compressed-sparse-row matrix — the row-major format Fig. 4 hardwires,
//! stored as a [`CsrGraph`] pattern plus one value per stored edge.

use ga_graph::{CsrGraph, VertexId, Weight};

/// Square sparse matrix over `T`: row `r` holds the entries
/// `(c, values[i])` for the out-edges `r -> c` of an unweighted
/// [`CsrGraph`], `i` being the edge's index in
/// [`CsrGraph::raw_targets`]. Rows are sorted by column, each
/// `(row, col)` is stored at most once, and no explicit zeros are stored
/// by the products (the semiring's `zero()` is implicit).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T> {
    pattern: CsrGraph,
    pub(crate) values: Vec<T>,
}

impl<T: Copy> CsrMatrix<T> {
    /// The matrix of a graph: each stored edge `(row, col, w)` becomes
    /// `value(row, col, w)`, and parallel edges merge with `combine`
    /// (`+` for counts and sums, `min` for min-plus). Pass `g` for the
    /// out-orientation `A[src][dst]` and `g.transpose()` for the
    /// in-orientation `A[dst][src]` of the paper's footnote 3, where
    /// `A · x` propagates values along edge direction.
    pub fn from_graph(
        g: &CsrGraph,
        value: impl Fn(VertexId, VertexId, Weight) -> T,
        combine: impl Fn(T, T) -> T,
    ) -> Self {
        Self::build_rows(g.num_vertices(), |r, cols, vals| {
            let start = cols.len();
            for (c, w) in g.weighted_neighbors(r as VertexId) {
                let v = value(r as VertexId, c, w);
                if cols[start..].last() == Some(&c) {
                    let last = vals.last_mut().expect("parallel to cols");
                    *last = combine(*last, v);
                } else {
                    cols.push(c);
                    vals.push(v);
                }
            }
        })
    }

    /// Build an `n × n` matrix row by row: `row(r, cols, vals)` appends
    /// row `r`'s entries in increasing column order.
    pub(crate) fn build_rows(
        n: usize,
        mut row: impl FnMut(usize, &mut Vec<VertexId>, &mut Vec<T>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..n {
            row(r, &mut cols, &mut vals);
            offsets.push(cols.len() as u64);
        }
        Self::from_parts(offsets, cols, vals)
    }

    /// Assemble from sorted CSR arrays; the pattern constructor checks
    /// them.
    pub(crate) fn from_parts(offsets: Vec<u64>, cols: Vec<VertexId>, values: Vec<T>) -> Self {
        assert_eq!(cols.len(), values.len());
        CsrMatrix {
            pattern: CsrGraph::from_sorted_rows(offsets, cols),
            values,
        }
    }

    /// Diagonal matrix with `one` on the diagonal.
    pub fn identity(n: usize, one: T) -> Self {
        Self::from_parts(
            (0..=n as u64).collect(),
            (0..n as VertexId).collect(),
            vec![one; n],
        )
    }

    /// The sparsity pattern as a graph: an edge `r -> c` per stored
    /// entry, so every graph kernel runs on a matrix.
    pub fn pattern(&self) -> &CsrGraph {
        &self.pattern
    }

    /// Row (and column) count.
    pub fn dim(&self) -> usize {
        self.pattern.num_vertices()
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[VertexId] {
        self.pattern.neighbors(r as VertexId)
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[T] {
        let o = self.pattern.raw_offsets();
        &self.values[o[r] as usize..o[r + 1] as usize]
    }

    /// `(col, val)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (VertexId, T)> + '_ {
        self.row_indices(r)
            .iter()
            .zip(self.row_values(r))
            .map(|(&c, &v)| (c, v))
    }

    /// Entry `(r, c)` if stored.
    pub fn get(&self, r: usize, c: VertexId) -> Option<T> {
        let idx = self.row_indices(r).binary_search(&c).ok()?;
        Some(self.row_values(r)[idx])
    }

    /// Keep entries where `pred(row, col, val)` holds.
    pub fn filter(&self, pred: impl Fn(usize, VertexId, T) -> bool) -> Self {
        Self::build_rows(self.dim(), |r, cols, vals| {
            for (c, v) in self.row(r).filter(|&(c, v)| pred(r, c, v)) {
                cols.push(c);
                vals.push(v);
            }
        })
    }

    /// Strict lower-triangular part (the `L` of triangle counting).
    pub fn tril(&self) -> Self {
        self.filter(|r, c, _| (c as usize) < r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ga_graph::CsrBuilder;

    /// `n × n` matrix from `(row, col, val)` triplets; repeated
    /// coordinates sum.
    pub(crate) fn triplets(n: usize, entries: &[(u32, u32, f32)]) -> CsrMatrix<f64> {
        let g = CsrBuilder::new(n)
            .weighted_edges(entries.iter().copied())
            .build();
        CsrMatrix::from_graph(&g, |_, _, w| w as f64, |a, b| a + b)
    }

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        triplets(
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
            ],
        )
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!((m.dim(), m.nnz()), (3, 5));
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.row_indices(2), &[0, 1]);
        assert_eq!(m.pattern().neighbors(2), &[0, 1]);
    }

    #[test]
    fn identity() {
        let i: CsrMatrix<f64> = CsrMatrix::identity(3, 1.0);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), Some(1.0));
        assert_eq!(i.get(1, 2), None);
    }

    #[test]
    fn tril_keeps_strict_lower_triangle() {
        let l = sample().tril();
        assert_eq!(l.nnz(), 2);
        assert_eq!((l.get(2, 0), l.get(2, 1)), (Some(4.0), Some(5.0)));
    }

    #[test]
    fn filter_keeps_matching_entries() {
        let m = sample();
        let big = m.filter(|_, _, v| v >= 3.0);
        assert_eq!(big.nnz(), 3);
        assert_eq!(big.get(0, 2), None);
    }

    #[test]
    fn adjacency_orientations() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let out = CsrMatrix::from_graph(&g, |_, _, w| w as f64, |a, b| a + b);
        assert_eq!(out.get(0, 1), Some(1.0)); // edge 0->1 => A[0][1]
        let inn = CsrMatrix::from_graph(&g.transpose(), |_, _, w| w as f64, |a, b| a + b);
        assert_eq!(inn.get(1, 0), Some(1.0)); // edge 0->1 => A[1][0]
        assert_eq!(inn.get(0, 1), None);
    }

    #[test]
    fn build_and_convert() {
        let m = triplets(3, &[(0, 1, 2.0), (2, 0, 5.0), (0, 1, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(2, 0), Some(5.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn empty_matrix() {
        let m = triplets(2, &[]);
        assert_eq!((m.dim(), m.nnz()), (2, 0));
    }

    #[test]
    fn duplicate_combine_order_independent_for_sum() {
        let m = triplets(1, &[(0, 0, 1.0), (0, 0, 2.0), (0, 0, 4.0)]);
        assert_eq!(m.get(0, 0), Some(7.0));
        let g = CsrBuilder::new(1)
            .weighted_edges([(0, 0, 3.0), (0, 0, 1.0), (0, 0, 2.0)])
            .build();
        let low = CsrMatrix::from_graph(&g, |_, _, w| w as f64, f64::min);
        assert_eq!(low.get(0, 0), Some(1.0));
    }
}

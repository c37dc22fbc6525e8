//! Sparse matrix operations over arbitrary semirings.
//!
//! The dataflow of [`spgemm`] (Gustavson row-wise sparse×sparse) is the
//! exact computation the paper's Fig. 4 accelerator pipelines in
//! hardware: stream two sparse operands, align non-zero pairs (the
//! "sorter"), multiply-accumulate, emit a sparse result. The archsim
//! crate's pipeline simulator counts the same element movements these
//! loops perform.

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::SparseVec;
use ga_graph::VertexId;
use rayon::prelude::*;

/// Dense y = A ⊗ x (semiring SpMV): `y[r] = (+)_c A[r,c] (x) x[c]`.
pub fn spmv<T: Copy + Send + Sync, S: Semiring<T> + Send + Sync>(
    s: S,
    a: &CsrMatrix<T>,
    x: &[T],
) -> Vec<T> {
    assert_eq!(a.dim(), x.len());
    (0..a.dim())
        .into_par_iter()
        .map(|r| {
            let mut acc = s.zero();
            for (c, v) in a.row(r) {
                acc = s.add(acc, s.mul(v, x[c as usize]));
            }
            acc
        })
        .collect()
}

/// Sparse-vector product y = A ⊗ x with sparse x, optionally masked:
/// entries at positions where `mask[r]` is true are suppressed — the
/// GraphBLAS complement-mask idiom BFS uses to skip visited vertices.
///
/// `A` is oriented so row r collects contributions *into* r (the
/// `from_graph(&g.transpose(), ..)` orientation). Implemented
/// column-wise (scatter): for each non-zero `x[c]`, scan column c of A —
/// row c of Aᵀ, which the caller passes as `at` (`from_graph(&g, ..)`),
/// the natural push formulation.
pub fn spmspv_push<T: Copy, S: Semiring<T>>(
    s: S,
    at: &CsrMatrix<T>, // Aᵀ in CSR: row u lists the destinations of u's edges
    x: &SparseVec<T>,
    mask_out: Option<&[bool]>,
) -> SparseVec<T> {
    let mut acc: Vec<Option<T>> = vec![None; at.dim()];
    for &(u, xv) in x {
        for (v, w) in at.row(u as usize) {
            if mask_out.is_some_and(|m| m[v as usize]) {
                continue;
            }
            let contrib = s.mul(w, xv);
            acc[v as usize] = Some(match acc[v as usize] {
                Some(cur) => s.add(cur, contrib),
                None => contrib,
            });
        }
    }
    acc.into_iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|v| (i as u32, v)))
        .filter(|&(_, v)| !s.is_zero(v))
        .collect()
}

/// Element-wise union C = A ⊕ B (same shape; missing entries are zero).
pub fn ewise_add<T: Copy, S: Semiring<T>>(
    s: S,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> CsrMatrix<T> {
    assert_eq!(a.dim(), b.dim());
    CsrMatrix::build_rows(a.dim(), |r, cols, vals| {
        let (ai, av) = (a.row_indices(r), a.row_values(r));
        let (bi, bv) = (b.row_indices(r), b.row_values(r));
        let (mut i, mut j) = (0, 0);
        while i < ai.len() || j < bi.len() {
            let (c, v) = if j >= bi.len() || (i < ai.len() && ai[i] < bi[j]) {
                let out = (ai[i], av[i]);
                i += 1;
                out
            } else if i >= ai.len() || bi[j] < ai[i] {
                let out = (bi[j], bv[j]);
                j += 1;
                out
            } else {
                let out = (ai[i], s.add(av[i], bv[j]));
                i += 1;
                j += 1;
                out
            };
            if !s.is_zero(v) {
                cols.push(c);
                vals.push(v);
            }
        }
    })
}

/// Element-wise intersection C = A ⊗ B (Hadamard over the semiring).
pub fn ewise_mul<T: Copy, S: Semiring<T>>(
    s: S,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> CsrMatrix<T> {
    assert_eq!(a.dim(), b.dim());
    CsrMatrix::build_rows(a.dim(), |r, cols, vals| {
        let (ai, av) = (a.row_indices(r), a.row_values(r));
        let (bi, bv) = (b.row_indices(r), b.row_values(r));
        let (mut i, mut j) = (0, 0);
        while i < ai.len() && j < bi.len() {
            match ai[i].cmp(&bi[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let v = s.mul(av[i], bv[j]);
                    if !s.is_zero(v) {
                        cols.push(ai[i]);
                        vals.push(v);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    })
}

/// Gustavson row-wise SpGEMM: C = A ⊗ B over the semiring, parallel
/// over rows of A. The sparse accumulator ("SPA") plays the role of
/// Fig. 4's sorter+ALU stage: one dense `n`-wide array per parallel
/// chunk of rows, reset after each row through the list of columns the
/// row touched, so a call costs O(chunks · n + work) rather than
/// O(n²).
pub fn spgemm<T: Copy + Send + Sync, S: Semiring<T> + Send + Sync>(
    s: S,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> CsrMatrix<T> {
    let n = a.dim();
    assert_eq!(n, b.dim());
    // Per chunk: row ends (relative to the chunk), columns, values.
    type Rows<T> = (Vec<u64>, Vec<VertexId>, Vec<T>);
    let chunks: Vec<Rows<T>> = (0..n)
        .into_par_iter()
        .fold(
            || (vec![None; n], Vec::new(), Rows::default()),
            |(mut spa, mut touched, (mut ends, mut cols, mut vals)), r| {
                for (k, av) in a.row(r) {
                    for (c, bv) in b.row(k as usize) {
                        let contrib = s.mul(av, bv);
                        let slot = &mut spa[c as usize];
                        if slot.is_none() {
                            touched.push(c);
                        }
                        *slot = Some(slot.map_or(contrib, |cur| s.add(cur, contrib)));
                    }
                }
                touched.sort_unstable();
                for c in touched.drain(..) {
                    let v = spa[c as usize].take().expect("touched column");
                    if !s.is_zero(v) {
                        cols.push(c);
                        vals.push(v);
                    }
                }
                ends.push(cols.len() as u64);
                (spa, touched, (ends, cols, vals))
            },
        )
        .map(|(_, _, rows)| rows)
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for (ends, c, v) in chunks {
        let base = cols.len() as u64;
        offsets.extend(ends.iter().map(|e| base + e));
        cols.extend(c);
        vals.extend(v);
    }
    CsrMatrix::from_parts(offsets, cols, vals)
}

/// ⊕-reduce all stored entries of a matrix.
pub fn reduce_all<T: Copy, S: Semiring<T>>(s: S, a: &CsrMatrix<T>) -> T {
    a.values.iter().fold(s.zero(), |acc, &v| s.add(acc, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::triplets as m;
    use crate::semiring::{MinPlus, OrAnd, PlusTimes};
    use ga_graph::CsrBuilder;

    fn boolean(n: usize, edges: Vec<(u32, u32)>) -> CsrMatrix<bool> {
        let g = CsrBuilder::new(n).edges(edges).build();
        CsrMatrix::from_graph(&g, |_, _, _| true, |x, _| x)
    }

    #[test]
    fn spmv_plus_times() {
        // [1 2; 0 3] * [10, 100] = [210, 300]
        let a = m(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        assert_eq!(spmv(PlusTimes, &a, &[10.0, 100.0]), vec![210.0, 300.0]);
    }

    #[test]
    fn spmv_min_plus_relaxation() {
        // dist' = A ⊕.⊗ dist with A[i][j] = w(j->i).
        let a = m(3, &[(1, 0, 5.0), (2, 1, 2.0)]);
        let d0 = vec![0.0, f64::INFINITY, f64::INFINITY];
        let d1 = spmv(MinPlus, &a, &d0);
        assert_eq!(d1, vec![f64::INFINITY, 5.0, f64::INFINITY]);
    }

    #[test]
    fn spmspv_push_with_mask() {
        // Edges 0->1, 0->2, 1->2 in "row u = destinations" (Aᵀ) form.
        let at = m(3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let x = vec![(0u32, 1.0)];
        let y = spmspv_push(PlusTimes, &at, &x, None);
        assert_eq!(y, vec![(1, 1.0), (2, 1.0)]);
        let mask = vec![false, true, false]; // suppress 1
        let y2 = spmspv_push(PlusTimes, &at, &x, Some(&mask));
        assert_eq!(y2, vec![(2, 1.0)]);
    }

    #[test]
    fn ewise_ops() {
        let a = m(2, &[(0, 0, 1.0), (0, 1, 2.0)]);
        let b = m(2, &[(0, 1, 3.0), (1, 0, 4.0)]);
        let sum = ewise_add(PlusTimes, &a, &b);
        assert_eq!(sum.get(0, 0), Some(1.0));
        assert_eq!(sum.get(0, 1), Some(5.0));
        assert_eq!(sum.get(1, 0), Some(4.0));
        let prod = ewise_mul(PlusTimes, &a, &b);
        assert_eq!(prod.nnz(), 1);
        assert_eq!(prod.get(0, 1), Some(6.0));
    }

    #[test]
    fn ewise_add_drops_cancellations() {
        let a = m(1, &[(0, 0, 1.0)]);
        let b = m(1, &[(0, 0, -1.0)]);
        let sum = ewise_add(PlusTimes, &a, &b);
        assert_eq!(sum.nnz(), 0);
    }

    #[test]
    fn spgemm_small_dense_check() {
        // A = [1 2; 3 4], B = [5 6; 7 8] -> C = [19 22; 43 50]
        let a = m(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let b = m(2, &[(0, 0, 5.0), (0, 1, 6.0), (1, 0, 7.0), (1, 1, 8.0)]);
        let c = spgemm(PlusTimes, &a, &b);
        assert_eq!(c.get(0, 0), Some(19.0));
        assert_eq!(c.get(0, 1), Some(22.0));
        assert_eq!(c.get(1, 0), Some(43.0));
        assert_eq!(c.get(1, 1), Some(50.0));
    }

    #[test]
    fn spgemm_identity() {
        let a = m(3, &[(0, 1, 2.0), (2, 0, 3.0)]);
        let i = CsrMatrix::identity(3, 1.0);
        assert_eq!(spgemm(PlusTimes, &a, &i), a);
        assert_eq!(spgemm(PlusTimes, &i, &a), a);
    }

    #[test]
    fn spgemm_boolean_reachability() {
        // Path 0->1->2: A² over OrAnd has exactly the 2-hop pair.
        let a = boolean(3, vec![(0, 1), (1, 2)]);
        let a2 = spgemm(OrAnd, &a, &a);
        assert_eq!(a2.nnz(), 1);
        assert_eq!(a2.get(0, 2), Some(true));
    }

    #[test]
    fn spgemm_associativity_boolean() {
        // (A·B)·C = A·(B·C) over OrAnd on random boolean matrices.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut rand_bool = |n: usize| {
            let mut edges = Vec::new();
            for r in 0..n as u32 {
                for col in 0..n as u32 {
                    if rng.gen::<f64>() < 0.2 {
                        edges.push((r, col));
                    }
                }
            }
            boolean(n, edges)
        };
        let (a, b, c) = (rand_bool(12), rand_bool(12), rand_bool(12));
        let left = spgemm(OrAnd, &spgemm(OrAnd, &a, &b), &c);
        let right = spgemm(OrAnd, &a, &spgemm(OrAnd, &b, &c));
        assert_eq!(left, right);
    }

    #[test]
    fn reduce_all_sums() {
        let a = m(2, &[(0, 0, 1.5), (1, 1, 2.5)]);
        assert_eq!(reduce_all(PlusTimes, &a), 4.0);
    }
}

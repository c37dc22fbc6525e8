//! Kronecker products — the generator behind Graph500's graphs.
//!
//! R-MAT sampling (in `ga-graph::gen`) is the stochastic approximation
//! of the exact Kronecker power `G^{⊗k}` of a small initiator matrix;
//! providing the exact product here closes the loop between the
//! workload generator and the linear-algebra substrate (Kepner–Gilbert
//! devote a chapter to exactly this construction).

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;

/// Exact Kronecker product C = A ⊗ B over a semiring's multiply.
///
/// `C[(ra*nb + rb), (ca*nb + cb)] = A[ra,ca] ⊗ B[rb,cb]`. Row `ra*nb + rb`
/// walks A's row `ra` and, inside it, B's row `rb`, so columns come out
/// in increasing order and rows are emitted already sorted.
pub fn kron<T: Copy, S: Semiring<T>>(s: S, a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> CsrMatrix<T> {
    let nb = b.dim();
    CsrMatrix::build_rows(a.dim() * nb, |r, cols, vals| {
        for (ca, va) in a.row(r / nb) {
            for (cb, vb) in b.row(r % nb) {
                let v = s.mul(va, vb);
                if !s.is_zero(v) {
                    cols.push(ca * nb as u32 + cb);
                    vals.push(v);
                }
            }
        }
    })
}

/// The k-th Kronecker power `A^{⊗k}` (k >= 1).
pub fn kron_power<T: Copy, S: Semiring<T>>(s: S, a: &CsrMatrix<T>, k: u32) -> CsrMatrix<T> {
    assert!(k >= 1);
    let mut acc = a.clone();
    for _ in 1..k {
        acc = kron(s, &acc, a);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::triplets as m;
    use crate::semiring::{OrAnd, PlusTimes};
    use ga_graph::CsrBuilder;

    /// The Graph500-style boolean initiator `[1 1; 1 0]`.
    fn initiator() -> CsrMatrix<bool> {
        let g = CsrBuilder::new(2).edges([(0, 0), (0, 1), (1, 0)]).build();
        CsrMatrix::from_graph(&g, |_, _, _| true, |x, _| x)
    }

    #[test]
    fn kron_2x2_by_hand() {
        // A = [1 2; 0 3], B = [0 1; 1 0]
        let a = m(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let b = m(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let c = kron(PlusTimes, &a, &b);
        assert_eq!(c.dim(), 4);
        assert_eq!(c.nnz(), 3 * 2);
        // A[0,0]*B = block (0,0): entries (0,1)=1, (1,0)=1
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(1, 0), Some(1.0));
        // A[0,1]*B = block (0,1) scaled by 2: (0,3)=2, (1,2)=2
        assert_eq!(c.get(0, 3), Some(2.0));
        assert_eq!(c.get(1, 2), Some(2.0));
        // A[1,1]*B = block (1,1) scaled by 3: (2,3)=3, (3,2)=3
        assert_eq!(c.get(2, 3), Some(3.0));
        assert_eq!(c.get(3, 2), Some(3.0));
    }

    #[test]
    fn nnz_multiplies() {
        let a = m(2, &[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let b = m(2, &[(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0)]);
        let c = kron(PlusTimes, &a, &b);
        assert_eq!(c.nnz(), a.nnz() * b.nnz());
    }

    #[test]
    fn power_grows_exponentially() {
        let p3 = kron_power(OrAnd, &initiator(), 3);
        assert_eq!(p3.dim(), 8);
        assert_eq!(p3.nnz(), 27); // 3^3
    }

    #[test]
    fn kron_with_identity_is_block_diagonal() {
        let a = m(2, &[(0, 1, 5.0), (1, 0, 7.0)]);
        let i = CsrMatrix::identity(3, 1.0);
        let c = kron(PlusTimes, &i, &a);
        assert_eq!(c.dim(), 6);
        assert_eq!(c.nnz(), 6);
        // Block k holds A at offset 2k.
        for k in 0..3usize {
            assert_eq!(c.get(2 * k, (2 * k + 1) as u32), Some(5.0));
            assert_eq!(c.get(2 * k + 1, (2 * k) as u32), Some(7.0));
        }
        // No cross-block entries.
        assert_eq!(c.get(0, 3), None);
    }

    #[test]
    fn kron_degree_structure_matches_rmat_intuition() {
        // The Kronecker power of a skewed initiator concentrates degree
        // on low-index vertices — the R-MAT skew.
        let p = kron_power(OrAnd, &initiator(), 4); // 16x16
        let deg0 = p.row_indices(0).len();
        let deg_last = p.row_indices(15).len();
        assert!(deg0 > deg_last, "vertex 0 deg {deg0} vs last {deg_last}");
        assert_eq!(deg0, 16); // 2^4: row 0 of initiator is full
    }
}

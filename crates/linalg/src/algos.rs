//! Graph algorithms in the language of linear algebra (Kepner–Gilbert,
//! the paper's reference \[19\]) — the algorithm family the Fig. 4
//! architecture accelerates.
//!
//! Each function mirrors a `ga-kernels` implementation and is
//! cross-checked against it in the workspace integration tests:
//!
//! * [`bfs_levels`] — masked boolean SpMSpV frontier expansion,
//! * [`bellman_ford`] — min-plus SpMV iteration,
//! * [`pagerank`] — plus-times SpMV power iteration,
//! * [`triangle_count`] — `L·Lᵀ ⊙ L` (actually `L·L ⊙ L` with the
//!   lower-triangular orientation trick),
//! * [`reachability`] — boolean closure by repeated squaring.

use crate::csr::CsrMatrix;
use crate::ops::{ewise_add, ewise_mul, reduce_all, spgemm, spmspv_push, spmv};
use crate::semiring::{MinPlus, OrAnd, PlusTimes};
use ga_graph::{CsrGraph, VertexId};

/// BFS levels via masked sparse frontier products. Returns `level[v]`
/// (`u32::MAX` = unreached).
pub fn bfs_levels(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    // "Aᵀ in CSR" == row u lists u's out-neighbors, i.e. the graph itself.
    let at = CsrMatrix::from_graph(g, |_, _, _| true, |x, _| x);
    let mut level = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    level[src as usize] = 0;
    visited[src as usize] = true;
    let mut frontier: Vec<(u32, bool)> = vec![(src, true)];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        frontier = spmspv_push(OrAnd, &at, &frontier, Some(&visited));
        for &(v, _) in &frontier {
            visited[v as usize] = true;
            level[v as usize] = depth;
        }
    }
    level
}

/// Bellman–Ford as min-plus SpMV: `d ← A ⊕.⊗ d  ⊕  d` iterated to a
/// fixed point (at most n rounds). `A[i][j] = w(j→i)`.
pub fn bellman_ford(g: &CsrGraph, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    // Min-plus semantics: parallel edges combine with ⊕ = min, not +.
    let a = CsrMatrix::from_graph(&g.transpose(), |_, _, w| w as f64, f64::min);
    let mut d = vec![f64::INFINITY; n];
    d[src as usize] = 0.0;
    for _ in 0..n {
        let relaxed = spmv(MinPlus, &a, &d);
        let next: Vec<f64> = relaxed.iter().zip(&d).map(|(&r, &x)| r.min(x)).collect();
        if next == d {
            break;
        }
        d = next;
    }
    d
}

/// PageRank as SpMV power iteration over the column-stochastic matrix.
pub fn pagerank(g: &CsrGraph, damping: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // M[i][j] = 1/outdeg(j) for edge j->i.
    let m = CsrMatrix::from_graph(
        &g.transpose(),
        |_, j, _| 1.0 / g.degree(j) as f64,
        |a, b| a + b,
    );
    let dangling: Vec<usize> = (0..n).filter(|&v| g.degree(v as u32) == 0).collect();
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    for _ in 0..max_iters {
        let dangling_mass: f64 = dangling.iter().map(|&v| rank[v]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling_mass * inv_n;
        let spread = spmv(PlusTimes, &m, &rank);
        let new_rank: Vec<f64> = spread.iter().map(|&x| base + damping * x).collect();
        let residual: f64 = new_rank.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = new_rank;
        if residual < tol {
            break;
        }
    }
    rank
}

/// Global triangle count: with `L` the strict lower triangle of the
/// symmetric boolean adjacency, `count = Σ (L·L) ⊙ L` over plus-times.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let l = CsrMatrix::from_graph(g, |_, _, _| 1u64, |x, _| x).tril();
    let ll = spgemm(PlusTimes, &l, &l);
    let masked = ewise_mul(PlusTimes, &ll, &l);
    reduce_all(PlusTimes, &masked)
}

/// Boolean transitive closure by repeated squaring of (A ∨ I). Returns
/// the reachability matrix (dense-ish for connected graphs — small n
/// only).
pub fn reachability(g: &CsrGraph) -> CsrMatrix<bool> {
    let n = g.num_vertices();
    let a = CsrMatrix::from_graph(g, |_, _, _| true, |x, _| x);
    let i = CsrMatrix::identity(n, true);
    let mut r = ewise_add(OrAnd, &a, &i);
    loop {
        let r2 = spgemm(OrAnd, &r, &r);
        if r2.nnz() == r.nnz() {
            return r2;
        }
        r = r2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    #[test]
    fn bfs_levels_on_path() {
        let g = CsrGraph::from_edges_undirected(5, &gen::path(5));
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_levels_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let l = bfs_levels(&g, 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], u32::MAX);
    }

    #[test]
    fn bellman_ford_weighted() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 2.0), (0, 2, 5.0)]);
        let d = bellman_ford(&g, 0);
        assert_eq!(d, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn triangle_count_matches_combinatorics() {
        let g = CsrGraph::from_edges_undirected(5, &gen::complete(5));
        assert_eq!(triangle_count(&g), 10); // C(5,3)
        let sq = CsrGraph::from_edges_undirected(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(triangle_count(&sq), 0);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = CsrGraph::from_edges(30, &gen::erdos_renyi(30, 120, 2));
        let r = pagerank(&g, 0.85, 1e-10, 200);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reachability_closure() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = reachability(&g);
        assert_eq!(r.get(0, 3), Some(true));
        assert_eq!(r.get(3, 0), None);
        assert_eq!(r.get(2, 2), Some(true));
    }
}

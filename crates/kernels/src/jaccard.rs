//! Jaccard similarity coefficients (Fig. 1 row "Jaccard").
//!
//! The paper singles Jaccard out twice: as "a growing subset" of the
//! clustering class, and as the batch kernel closest to the NORA
//! relationship analysis ("who has shared an address with what other
//! individuals 2 or more times..."). For a pair (u, v):
//!
//! `J(u, v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`
//!
//! Three access patterns, matching §II's description:
//! * [`pair`] — one coefficient,
//! * [`for_vertex`] — all non-zero coefficients of one vertex against its
//!   2-hop neighborhood (the streaming *query* form's batch core),
//! * [`all_pairs_above`] — every pair with `J >= tau` (the
//!   near-quadratic-output batch form, threshold-pruned).
//!
//! Expects an undirected snapshot with sorted neighbor slices.

use crate::triangles::intersect_count;
use ga_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Jaccard coefficient of a single pair.
pub fn pair(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
    if nu.is_empty() && nv.is_empty() {
        return 0.0;
    }
    let inter = intersect_count(nu, nv);
    let union = nu.len() + nv.len() - inter;
    inter as f64 / union as f64
}

/// All vertices with a non-zero coefficient against `u`, i.e. u's 2-hop
/// candidates, with coefficients `>= tau`, sorted descending (ties by
/// id). `u` itself is excluded.
pub fn for_vertex(g: &CsrGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
    let nu = g.neighbors(u);
    // Gather 2-hop candidates with shared-neighbor counts via a sparse
    // accumulator.
    let mut counts: std::collections::HashMap<VertexId, usize> = Default::default();
    for &w in nu {
        for &v in g.neighbors(w) {
            if v != u {
                *counts.entry(v).or_default() += 1;
            }
        }
    }
    let mut out: Vec<(VertexId, f64)> = counts
        .into_iter()
        .filter_map(|(v, inter)| {
            let union = nu.len() + g.degree(v) - inter;
            let j = inter as f64 / union as f64;
            (j >= tau && j > 0.0).then_some((v, j))
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Every unordered pair `(u, v)` with `J(u, v) >= tau`, parallel over
/// source vertices. Pairs are emitted once with `u < v`, sorted.
///
/// Pruning: only pairs sharing at least one neighbor can have J > 0, so
/// enumeration walks wedges instead of all O(n^2) pairs.
pub fn all_pairs_above(g: &CsrGraph, tau: f64) -> Vec<(VertexId, VertexId, f64)> {
    assert!(tau > 0.0, "tau must be positive; 0 would emit O(n^2) pairs");
    let n = g.num_vertices();
    let mut out: Vec<(VertexId, VertexId, f64)> = (0..n as VertexId)
        .into_par_iter()
        .flat_map_iter(|u| {
            for_vertex(g, u, tau)
                .into_iter()
                .filter(move |&(v, _)| u < v)
                .map(move |(v, j)| (u, v, j))
        })
        .collect();
    out.sort_by_key(|r| (r.0, r.1));
    out
}

/// Brute-force reference for tests.
pub fn all_pairs_brute(g: &CsrGraph, tau: f64) -> Vec<(VertexId, VertexId, f64)> {
    let n = g.num_vertices() as VertexId;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let j = pair(g, u, v);
            if j >= tau && j > 0.0 {
                out.push((u, v, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    fn und(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_edges_undirected(n, edges)
    }

    #[test]
    fn pair_basics() {
        // 0 and 1 both neighbor 2 and 3; 0 also neighbors 4.
        let g = und(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]);
        // N(0) = {2,3,4}, N(1) = {2,3}: J = 2/3.
        assert!((pair(&g, 0, 1) - 2.0 / 3.0).abs() < 1e-12);
        // Identical neighborhoods -> 1.0
        assert!((pair(&g, 2, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_no_overlap_or_empty() {
        let g = und(4, &[(0, 1)]);
        assert_eq!(pair(&g, 0, 1), 0.0); // N(0)={1}, N(1)={0}, disjoint
        assert_eq!(pair(&g, 2, 3), 0.0); // both isolated
    }

    #[test]
    fn symmetry() {
        let edges = gen::erdos_renyi(50, 200, 8);
        let g = und(50, &edges);
        for u in 0..10 {
            for v in 10..20 {
                assert!((pair(&g, u, v) - pair(&g, v, u)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn for_vertex_matches_pair() {
        let edges = gen::erdos_renyi(60, 240, 2);
        let g = und(60, &edges);
        let res = for_vertex(&g, 5, 0.0);
        for &(v, j) in &res {
            assert!((pair(&g, 5, v) - j).abs() < 1e-12, "v={v}");
            assert!(j > 0.0);
        }
        // Completeness: any vertex with positive pair J must appear.
        for v in 0..60 {
            if v != 5 && pair(&g, 5, v) > 0.0 {
                assert!(res.iter().any(|&(x, _)| x == v), "missing {v}");
            }
        }
    }

    #[test]
    fn all_pairs_matches_brute_force() {
        for seed in 0..3 {
            let edges = gen::erdos_renyi(40, 150, seed);
            let g = und(40, &edges);
            let fast = all_pairs_above(&g, 0.3);
            let slow = all_pairs_brute(&g, 0.3);
            assert_eq!(fast.len(), slow.len(), "seed {seed}");
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!((a.0, a.1), (b.0, b.1));
                assert!((a.2 - b.2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn threshold_filters() {
        let g = und(6, &gen::complete(6));
        // In K6 every pair has J = 4/6 (shared = 4 of 5-each minus each other).
        let hi = all_pairs_above(&g, 0.9);
        assert!(hi.is_empty());
        let lo = all_pairs_above(&g, 0.5);
        assert_eq!(lo.len(), 15);
    }

    #[test]
    fn top_k_ordering() {
        let g = und(6, &[(0, 1), (0, 2), (3, 1), (3, 2), (4, 1), (5, 1)]);
        let mut top = for_vertex(&g, 0, 0.0);
        top.truncate(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 3); // shares both neighbors
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn coefficients_bounded() {
        let edges = gen::erdos_renyi(50, 300, 12);
        let g = und(50, &edges);
        for (_, _, j) in all_pairs_above(&g, 0.01) {
            assert!(j > 0.0 && j <= 1.0);
        }
    }
}

//! Betweenness centrality (Fig. 1 row "BC").
//!
//! [`brandes`] is the exact O(nm) algorithm (unweighted); [`sampled`]
//! approximates by accumulating from a random subset of sources — the
//! form large-scale benchmarks (Graph500 BC, Graph Challenge) actually
//! run, and the one whose streaming "top-n changed" variant lives in
//! `ga-stream`.

use ga_graph::{CsrGraph, VertexId};
use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::VecDeque;

/// One source's dependency accumulation (Brandes inner loop).
fn accumulate_from(g: &CsrGraph, s: VertexId, bc: &mut [f64]) {
    let n = g.num_vertices();
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut depth = vec![i64::MAX; n];
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut q = VecDeque::new();
    sigma[s as usize] = 1.0;
    depth[s as usize] = 0;
    q.push_back(s);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            let dv = depth[u as usize] + 1;
            if depth[v as usize] == i64::MAX {
                depth[v as usize] = dv;
                q.push_back(v);
            }
            if depth[v as usize] == dv {
                sigma[v as usize] += sigma[u as usize];
                preds[v as usize].push(u);
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &w in order.iter().rev() {
        for &u in &preds[w as usize] {
            delta[u as usize] += sigma[u as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
        }
        if w != s {
            bc[w as usize] += delta[w as usize];
        }
    }
}

/// Exact Brandes betweenness (directed; for undirected inputs pass a
/// symmetrized graph and halve the scores).
/// Parallel over sources.
pub fn brandes(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n as VertexId)
        .into_par_iter()
        .fold(
            || vec![0.0f64; n],
            |mut acc, s| {
                accumulate_from(g, s, &mut acc);
                acc
            },
        )
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

/// Sampled approximation: accumulate from `num_samples` random sources
/// and scale by `n / num_samples`.
pub fn sampled(g: &CsrGraph, num_samples: usize, seed: u64) -> Vec<f64> {
    let n = g.num_vertices();
    if num_samples >= n {
        return brandes(g);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sources: Vec<VertexId> = sample(&mut rng, n, num_samples)
        .into_iter()
        .map(|i| i as VertexId)
        .collect();
    let mut bc = sources
        .par_iter()
        .fold(
            || vec![0.0f64; n],
            |mut acc, &s| {
                accumulate_from(g, s, &mut acc);
                acc
            },
        )
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    let scale = n as f64 / num_samples as f64;
    for x in &mut bc {
        *x *= scale;
    }
    bc
}

/// Top-`k` vertices by centrality, descending (ties by id) — the
/// membership set the streaming form watches.
pub fn top_k(bc: &[f64], k: usize) -> Vec<(VertexId, f64)> {
    let mut v: Vec<(VertexId, f64)> = bc
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as VertexId, x))
        .collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    #[test]
    fn path_center_is_most_between() {
        let g = CsrGraph::from_edges_undirected(5, &gen::path(5));
        let bc: Vec<f64> = brandes(&g).iter().map(|x| x / 2.0).collect();
        // Path 0-1-2-3-4: bc = [0, 3, 4, 3, 0].
        assert_eq!(bc, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_carries_all() {
        let g = CsrGraph::from_edges_undirected(5, &gen::star(5));
        let bc: Vec<f64> = brandes(&g).iter().map(|x| x / 2.0).collect();
        // Center: all C(4,2) = 6 leaf pairs route through it.
        assert_eq!(bc[0], 6.0);
        for &leaf_bc in &bc[1..5] {
            assert_eq!(leaf_bc, 0.0);
        }
    }

    #[test]
    fn cycle_symmetry() {
        let g = CsrGraph::from_edges_undirected(6, &gen::ring(6));
        let bc = brandes(&g);
        for w in &bc {
            assert!((w - bc[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn shortcut_reduces_betweenness() {
        // Path 0-1-2 vs path plus direct edge 0-2.
        let a = CsrGraph::from_edges_undirected(3, &[(0, 1), (1, 2)]);
        let b = CsrGraph::from_edges_undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(brandes(&a)[1] > brandes(&b)[1]);
        assert_eq!(brandes(&b)[1], 0.0);
    }

    #[test]
    fn sampled_full_equals_exact() {
        let edges = gen::erdos_renyi(30, 120, 3);
        let g = CsrGraph::from_edges_undirected(30, &edges);
        let exact = brandes(&g);
        let s = sampled(&g, 30, 1);
        for (x, y) in exact.iter().zip(&s) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_correlates_with_exact() {
        let edges = gen::barabasi_albert(150, 3, 4);
        let g = CsrGraph::from_edges_undirected(150, &edges);
        let exact = brandes(&g);
        let approx = sampled(&g, 50, 7);
        // The exact top-1 should be in the approx top-5 on a hubby graph.
        let top_exact = top_k(&exact, 1)[0].0;
        let approx_top: Vec<_> = top_k(&approx, 5).iter().map(|&(v, _)| v).collect();
        assert!(
            approx_top.contains(&top_exact),
            "exact top {top_exact} not in approx top-5 {approx_top:?}"
        );
    }

    #[test]
    fn directed_asymmetric_counts() {
        // 0 -> 1 -> 2 only: vertex 1 is on the single 0->2 path.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let bc = brandes(&g);
        assert_eq!(bc, vec![0.0, 1.0, 0.0]);
    }
}

//! Deterministic graph and workload generators.
//!
//! Every benchmark in the paper's Fig. 1 is driven by synthetic graphs
//! with "well-controlled characteristics". This module provides the
//! generators the reproduction uses:
//!
//! * [`rmat`] — the Graph500 Kronecker/R-MAT generator (skewed degree
//!   distribution, the canonical "big graph" stand-in),
//! * [`erdos_renyi`] — uniform G(n, m),
//! * [`watts_strogatz`] — small-world rewiring,
//! * regular topologies ([`path`], [`star`], [`complete`], [`ring`])
//!   used by unit tests and the architecture simulators.
//!
//! All generators take an explicit `seed` and use a counter-based PRNG
//! stream (`ChaCha8`), so every experiment in EXPERIMENTS.md is exactly
//! re-runnable.

use crate::{Edge, VertexId, Weight, WeightedEdge};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// R-MAT quadrant probabilities `(a, b, c)`; `d = 1 - a - b - c`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl RmatParams {
    /// The Graph500 reference parameters (A=0.57, B=0.19, C=0.19).
    pub const GRAPH500: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
    };
}

/// Generate `num_edges` directed R-MAT edges over `2^scale` vertices.
///
/// Self-loops and duplicates are *not* filtered here — that is the CSR
/// builder's job — because the raw stream is also what the streaming
/// engine replays (Graph500's edge stream semantics).
pub fn rmat(scale: u32, num_edges: usize, p: RmatParams, seed: u64) -> Vec<Edge> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        edges.push(rmat_edge(scale, p, &mut rng));
    }
    edges
}

fn rmat_edge(scale: u32, p: RmatParams, rng: &mut impl Rng) -> Edge {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..scale {
        u <<= 1;
        v <<= 1;
        let r: f64 = rng.gen();
        if r < p.a {
            // top-left: no bits set
        } else if r < p.a + p.b {
            v |= 1;
        } else if r < p.a + p.b + p.c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as VertexId, v as VertexId)
}

/// Uniform G(n, m): `m` directed edges drawn uniformly (self-loops
/// excluded, duplicates possible).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    assert!(n >= 2, "G(n,m) needs at least 2 vertices");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

/// Watts–Strogatz small world: ring lattice with `k` neighbors per side,
/// each edge rewired with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Vec<Edge> {
    assert!(k >= 1 && n > 2 * k, "need n > 2k");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * k);
    for u in 0..n {
        for j in 1..=k {
            let mut v = (u + j) % n;
            if rng.gen::<f64>() < beta {
                loop {
                    let cand = rng.gen_range(0..n);
                    if cand != u && cand != v {
                        v = cand;
                        break;
                    }
                }
            }
            edges.push((u as VertexId, v as VertexId));
        }
    }
    edges
}

/// Simple path 0-1-2-...-(n-1).
pub fn path(n: usize) -> Vec<Edge> {
    (0..n.saturating_sub(1))
        .map(|i| (i as VertexId, (i + 1) as VertexId))
        .collect()
}

/// Ring 0-1-...-(n-1)-0.
pub fn ring(n: usize) -> Vec<Edge> {
    let mut e = path(n);
    if n > 2 {
        e.push(((n - 1) as VertexId, 0));
    }
    e
}

/// Star with center 0 and `n - 1` leaves.
pub fn star(n: usize) -> Vec<Edge> {
    (1..n).map(|i| (0, i as VertexId)).collect()
}

/// Complete directed graph on `n` vertices (no self-loops).
pub fn complete(n: usize) -> Vec<Edge> {
    let mut e = Vec::with_capacity(n * (n - 1));
    for u in 0..n {
        for v in 0..n {
            if u != v {
                e.push((u as VertexId, v as VertexId));
            }
        }
    }
    e
}

/// Attach uniform random weights in `[lo, hi)` to an edge list.
pub fn with_random_weights(edges: &[Edge], lo: Weight, hi: Weight, seed: u64) -> Vec<WeightedEdge> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    edges
        .iter()
        .map(|&(u, v)| (u, v, rng.gen_range(lo..hi)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 1000, RmatParams::GRAPH500, 7);
        let b = rmat(8, 1000, RmatParams::GRAPH500, 7);
        assert_eq!(a, b);
        let c = rmat(8, 1000, RmatParams::GRAPH500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_in_range_and_skewed() {
        let scale = 10;
        let edges = rmat(scale, 20_000, RmatParams::GRAPH500, 1);
        let n = 1usize << scale;
        assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < n && (v as usize) < n));
        // Skew check: the max-degree vertex should far exceed the mean.
        let g = CsrGraph::from_edges(n, &edges);
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let mean = g.num_edges() as f64 / n as f64;
        assert!(
            max_deg as f64 > 5.0 * mean,
            "rmat should be skewed: max {max_deg}, mean {mean}"
        );
    }

    #[test]
    fn erdos_renyi_exact_count_no_loops() {
        let edges = erdos_renyi(100, 500, 3);
        assert_eq!(edges.len(), 500);
        assert!(edges.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn watts_strogatz_edge_count() {
        let edges = watts_strogatz(100, 2, 0.1, 5);
        assert_eq!(edges.len(), 200);
        assert!(edges.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn simple_topologies() {
        assert_eq!(path(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(ring(3).len(), 3);
        assert_eq!(star(4), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(complete(3).len(), 6);
        assert!(path(1).is_empty());
        assert!(path(0).is_empty());
    }

    #[test]
    fn weights_in_range() {
        let edges = path(10);
        let w = with_random_weights(&edges, 1.0, 5.0, 2);
        assert!(w.iter().all(|&(_, _, x)| (1.0..5.0).contains(&x)));
        assert_eq!(w.len(), edges.len());
    }
}

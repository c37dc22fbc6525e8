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
//! * [`all_pairs_above`] / [`all_pairs_above_with`] — every pair with
//!   `J >= tau` (the near-quadratic-output batch form, threshold-pruned).
//!
//! The all-pairs engine is GAP-style: no hashed container on the inner
//! loop. Each pool chunk owns one dense `u32` count per vertex plus a
//! list of the counts it touched. Source `u` walks its wedges
//! `u – w – v` only into the upper triangle (`v > u`, the tail of the
//! sorted row `N(w)`), so each pair is counted once, and candidates come
//! out in ascending `v` without a comparison sort of the output: the
//! whole pair list arrives in `(u, v)` order.
//!
//! Expects an undirected snapshot with sorted neighbor slices.

use crate::ctx::KernelCtx;
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
    all_pairs_above_with(g, tau, &KernelCtx::parallel())
}

/// Instrumented, dispatching all-pairs form: the dense-accumulator wedge
/// engine run serially or in parallel over source vertices per the
/// context's [`crate::Parallelism`]. Both engines count the same integer
/// `inter` and `union` for every pair and divide once, so they return
/// bit-identical pairs in the same `(u, v)` order and flush identical
/// counters: `cpu_ops` = wedges walked + candidates scored, `mem_bytes`
/// = row bytes read + 4 B per counted wedge, `edges_touched` = row
/// entries read.
pub fn all_pairs_above_with(
    g: &CsrGraph,
    tau: f64,
    ctx: &KernelCtx,
) -> Vec<(VertexId, VertexId, f64)> {
    assert!(tau > 0.0, "tau must be positive; 0 would emit O(n^2) pairs");
    let n = g.num_vertices();
    let scan = |mut acc: Accumulator, u: VertexId| {
        acc.visit(g, u, tau);
        acc
    };
    let found = if ctx.parallelism.use_parallel(g.num_edges()) {
        // One accumulator per pool chunk; chunks cover ascending vertex
        // ranges and come back in base order, so concatenating their
        // pairs keeps the `(u, v)` order.
        let parts: Vec<Found> = (0..n as VertexId)
            .into_par_iter()
            .fold(|| Accumulator::new(n), scan)
            .map(|acc| acc.found)
            .collect();
        let mut all = Found {
            pairs: Vec::with_capacity(parts.iter().map(|f| f.pairs.len()).sum()),
            ..Found::default()
        };
        for f in parts {
            all.pairs.extend(f.pairs);
            all.wedges += f.wedges;
            all.scored += f.scored;
        }
        all
    } else {
        (0..n as VertexId).fold(Accumulator::new(n), scan).found
    };
    // Rows read: every source row in full plus the walked tail of each
    // neighbor row (one entry per wedge); each wedge also bumps a count.
    let id = std::mem::size_of::<VertexId>() as u64;
    let entries = g.num_edges() as u64 + found.wedges;
    ctx.counters.flush(
        found.wedges + found.scored,
        id * entries + 4 * found.wedges,
        entries,
    );
    found.pairs
}

/// The pairs one run of the engine kept, and the work it did.
#[derive(Default)]
struct Found {
    pairs: Vec<(VertexId, VertexId, f64)>,
    /// Upper-triangle wedges `u – w – v` (`v > u`) walked.
    wedges: u64,
    /// Distinct candidates `v` whose coefficient was computed.
    scored: u64,
}

/// Dense shared-neighbor counts of one pool chunk, reused from one
/// source vertex to the next: every count is back at zero after
/// [`Accumulator::visit`].
struct Accumulator {
    counts: Vec<u32>,
    /// Candidates whose count left zero for the current source.
    touched: Vec<VertexId>,
    found: Found,
}

impl Accumulator {
    fn new(n: usize) -> Self {
        Accumulator {
            counts: vec![0; n],
            touched: Vec::new(),
            found: Found::default(),
        }
    }

    /// Count `u`'s upper-triangle wedges and keep each candidate with
    /// `J >= tau`, in ascending `v`.
    fn visit(&mut self, g: &CsrGraph, u: VertexId, tau: f64) {
        let nu = g.neighbors(u);
        for &w in nu {
            let nw = g.neighbors(w);
            let above = &nw[nw.partition_point(|&v| v <= u)..];
            self.found.wedges += above.len() as u64;
            for &v in above {
                let c = &mut self.counts[v as usize];
                if *c == 0 {
                    self.touched.push(v);
                }
                *c += 1;
            }
        }
        self.found.scored += self.touched.len() as u64;
        // The same integers `for_vertex` divides, so the same bits.
        let pairs = &mut self.found.pairs;
        let mut score = |v: VertexId, inter: u32| {
            let inter = inter as usize;
            let union = nu.len() + g.degree(v) - inter;
            let j = inter as f64 / union as f64;
            if j >= tau {
                pairs.push((u, v, j));
            }
        };
        // Ascending `v` either way. A dense touched set (over 1/16 of
        // all vertices) is cheaper to find by scanning the counts above
        // `u` than by sorting the list.
        let n = self.counts.len();
        if self.touched.len() * 16 > n {
            for (v, c) in self.counts.iter_mut().enumerate().skip(u as usize + 1) {
                if *c != 0 {
                    score(v as VertexId, std::mem::take(c));
                }
            }
        } else {
            self.touched.sort_unstable();
            for &v in &self.touched {
                score(v, std::mem::take(&mut self.counts[v as usize]));
            }
        }
        self.touched.clear();
    }
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

    /// The parent all-pairs form: `for_vertex` from every source, upper
    /// half kept, then sorted. The dense engine must reproduce it bit for
    /// bit, even on directed input where `J` is not symmetric.
    fn via_for_vertex(g: &CsrGraph, tau: f64) -> Vec<(VertexId, VertexId, f64)> {
        let mut out: Vec<_> = (0..g.num_vertices() as VertexId)
            .flat_map(|u| {
                for_vertex(g, u, tau)
                    .into_iter()
                    .filter(move |&(v, _)| u < v)
                    .map(move |(v, j)| (u, v, j))
            })
            .collect();
        out.sort_by_key(|r| (r.0, r.1));
        out
    }

    /// Exact `(u, v)` and `f64::to_bits` of every pair.
    fn bits(pairs: &[(VertexId, VertexId, f64)]) -> Vec<(VertexId, VertexId, u64)> {
        pairs.iter().map(|&(u, v, j)| (u, v, j.to_bits())).collect()
    }

    /// Both engines against the brute-force reference, with identical
    /// counters; returns the pairs.
    fn check_engines(g: &CsrGraph, tau: f64, tag: &str) -> Vec<(VertexId, VertexId, f64)> {
        let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());
        let serial = all_pairs_above_with(g, tau, &s);
        let parallel = all_pairs_above_with(g, tau, &p);
        let brute = all_pairs_brute(g, tau);
        assert_eq!(bits(&serial), bits(&brute), "{tag}: serial vs brute");
        assert_eq!(bits(&parallel), bits(&brute), "{tag}: parallel vs brute");
        assert_eq!(bits(&serial), bits(&via_for_vertex(g, tau)), "{tag}");
        assert_eq!(s.snapshot(), p.snapshot(), "{tag}: counters differ");
        assert!(s.snapshot().cpu_ops > 0, "{tag}: nothing tallied");
        serial
    }

    #[test]
    fn hub_and_leaves_twins_match_brute_force() {
        // Hubs 0..4; leaves 4..44 hang off every hub, leaves 44..64 off
        // hubs 0 and 1 only: 780 + 190 leaf pairs at J = 1, the shape of
        // a ball around hubs.
        let mut edges = Vec::new();
        for leaf in 4..64u32 {
            let hubs = if leaf < 44 { 4 } else { 2 };
            edges.extend((0..hubs).map(|h| (h, leaf)));
        }
        let g = und(64, &edges);
        let pairs = check_engines(&g, 0.5, "hub-and-leaves");
        let twins = pairs.iter().filter(|p| p.0 >= 4 && p.2 == 1.0).count();
        assert_eq!(twins, 780 + 190);
    }

    #[test]
    fn rmat_with_self_loops_matches_brute_force() {
        for seed in [1, 2] {
            let edges = gen::rmat(9, 8 << 9, gen::RmatParams::GRAPH500, seed);
            let g = ga_graph::CsrBuilder::new(1 << 9)
                .edges(edges.iter().copied())
                .symmetrize(true)
                .dedup(true)
                .build();
            assert!(g.vertices().any(|v| g.has_edge(v, v)), "want self-loops");
            for tau in [0.1, 0.5] {
                check_engines(&g, tau, &format!("rmat seed {seed} tau {tau}"));
            }
            // Directed, where J(u, v) from u's side is what both forms
            // keep: still the parent's bits.
            let d = ga_graph::CsrBuilder::new(1 << 9)
                .edges(edges.iter().copied())
                .dedup(true)
                .build();
            let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());
            let reference = bits(&via_for_vertex(&d, 0.2));
            assert_eq!(bits(&all_pairs_above_with(&d, 0.2, &s)), reference);
            assert_eq!(bits(&all_pairs_above_with(&d, 0.2, &p)), reference);
        }
    }

    #[test]
    fn both_emission_branches_match_brute_force() {
        // A star on 0..100 and a path on 100..200: a leaf's upper 2-hop
        // set is nearly every other leaf (dense: scanned), a path
        // vertex's is one vertex (sparse: sorted list).
        let n = 200usize;
        let mut edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        edges.extend((100..199).map(|v| (v, v + 1)));
        let g = und(n, &edges);
        let upper_two_hop = |u: VertexId| {
            let mut vs: Vec<VertexId> = g
                .neighbors(u)
                .iter()
                .flat_map(|&w| g.neighbors(w).iter().copied())
                .filter(|&v| v > u)
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs.len()
        };
        let sizes: Vec<usize> = (0..n as VertexId).map(upper_two_hop).collect();
        assert!(sizes.iter().any(|&t| t * 16 > n), "no dense source");
        assert!(
            sizes.iter().any(|&t| t > 0 && t * 16 <= n),
            "no sparse source"
        );
        let pairs = check_engines(&g, 0.3, "star+path");
        assert_eq!(pairs.iter().filter(|p| p.1 < 100).count(), 99 * 98 / 2);
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

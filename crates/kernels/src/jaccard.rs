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
//!   2-hop neighborhood (the streaming *query* form's batch core), on
//!   [`two_hop`], the one single-source count, which reads live rows too,
//! * [`all_pairs_above`] / [`all_pairs_above_with`] — every pair with
//!   `J >= tau` (the near-quadratic-output batch form, threshold-pruned);
//!   [`pairs_sharing`] keeps `inter ≥ k` instead, unfiltered (NORA's).
//!
//! The all-pairs engine orients work by degree, as GAP's triangle
//! counting does, with no hashed container on the inner loop. Vertices
//! are ranked by `(degree, id)` with the counting sort the triangle
//! walk ranks by, and one counting pass builds the transpose in rank
//! space, its rows ascending with no sort. Each pair is counted once,
//! from its lower-ranked side: for each `w ∈ N(x)`, source `x` walks
//! only the ranks of `In(w)` in `(rank x, hi(x))` into a dense
//! per-chunk count array. The fill records, per edge, where that window
//! starts, so only its end is searched for.
//!
//! *Size filter:* `inter ≤ min(d_x, d_y)` and `union ≥ max(d_x, d_y)`,
//! so `J ≥ τ` implies `min(d) ≥ τ·max(d)`, and `hi(x)` is the first rank
//! whose degree `d` fails `d_x ≥ τ′·d`. *Rounding margin:* with
//! `τ′ = τ·(1 − 8ε)`, a pruned pair's real `inter / union ≤ d_x / d_y`
//! stays below `τ·(1 − 6ε)` through the filter's two roundings, so its
//! rounded quotient is `< τ`: no pair whose coefficient reaches `τ` is
//! dropped. Kept pairs divide the same integers as [`pair`] (on any
//! input, the Jaccard of out-neighborhoods), and the list is sorted once.

use crate::ctx::KernelCtx;
use crate::triangles::{degree_order, intersect_count};
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
///
/// Expects a symmetric graph: on a directed one it counts
/// `|N(u) ∩ In(v)|`, not the out-neighborhood overlap [`pair`] uses.
pub fn for_vertex(g: &CsrGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
    let hits = two_hop(u, |v| g.neighbors(v).iter().copied(), |_, j| j >= tau);
    hits.into_iter().map(|(v, _, j)| (v, j)).collect()
}

/// The single-source 2-hop count over rows read through `row`: each
/// `v ≠ u` ending a wedge `u → w → v` goes to `keep` with `inter`, its
/// number of such `w`, and `J = inter / (d_u + d_v − inter)`; the kept
/// `(v, inter, J)` come by descending `J`, ties by id, after one sort of the wedge ends.
pub fn two_hop<R: ExactSizeIterator<Item = VertexId>>(
    u: VertexId,
    row: impl Fn(VertexId) -> R,
    keep: impl Fn(u32, f64) -> bool,
) -> Vec<(VertexId, u32, f64)> {
    let du = row(u).len();
    let mut ends: Vec<VertexId> = row(u).flat_map(&row).filter(|&v| v != u).collect();
    ends.sort_unstable();
    let mut out: Vec<_> = ends
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .map(|(v, n)| (v, n as u32, n as f64 / (du + row(v).len() - n) as f64))
        .filter(|&(_, inter, j)| keep(inter, j))
        .collect();
    out.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Every unordered pair `(u, v)` with `J(u, v) >= tau`, parallel over
/// source vertices. Pairs are emitted once with `u < v`, sorted. Only
/// pairs that share a neighbor and pass the size filter are visited.
pub fn all_pairs_above(g: &CsrGraph, tau: f64) -> Vec<(VertexId, VertexId, f64)> {
    all_pairs_above_with(g, tau, &KernelCtx::parallel())
}

/// Instrumented, dispatching all-pairs form: the module doc's engine,
/// serial or parallel over source vertices per the context's
/// [`crate::Parallelism`]. Both modes do the same work per source and
/// divide the same integers once, so they return bit-identical pairs in
/// the same `(u, v)` order and flush identical counters: `cpu_ops` =
/// wedges walked + candidates scored, `edges_touched` = row entries
/// read (every row by the transpose pass and by the walk, one per
/// wedge), `mem_bytes` = 4 B per id read or written, 16 B per edge for
/// its window start (written, then read) and 4 B per counted wedge.
pub fn all_pairs_above_with(
    g: &CsrGraph,
    tau: f64,
    ctx: &KernelCtx,
) -> Vec<(VertexId, VertexId, f64)> {
    assert!(tau > 0.0, "tau must be positive; 0 would emit O(n^2) pairs");
    let filter = tau * (1.0 - 8.0 * f64::EPSILON);
    ranked_pairs(g, ctx, Some(filter), |dx, dy, inter| {
        let j = inter as f64 / (dx + dy - inter) as f64;
        (j >= tau).then_some(j)
    })
}

/// Every unordered pair `(u, v)`, `u < v`, with at least `k` common
/// out-neighbors and that count, sorted: the module doc's engine with no
/// size filter, so a source's window holds every higher rank (`k = 0`
/// acts as `k = 1`). Both modes agree and flush counters as
/// [`all_pairs_above_with`] does; it walks `Σ_w C(|In(w)|, 2)` wedges.
pub fn pairs_sharing(g: &CsrGraph, k: u32, ctx: &KernelCtx) -> Vec<(VertexId, VertexId, u32)> {
    ranked_pairs(g, ctx, None, |_, _, inter| {
        (inter >= k as usize).then_some(inter as u32)
    })
}

/// The engine under [`all_pairs_above_with`] and [`pairs_sharing`]: a
/// source `x` of degree `d_x` counts wedges into the higher ranks whose
/// degree `d` keeps `d_x ≥ filter·d` (all, with no filter), and
/// `keep(d_x, d_y, inter)` scores each candidate `y` or drops it.
fn ranked_pairs<T: Copy + Default + Send + Sync>(
    g: &CsrGraph,
    ctx: &KernelCtx,
    filter: Option<f64>,
    keep: impl Fn(usize, usize, usize) -> Option<T> + Sync,
) -> Vec<Pair<T>> {
    let (n, m) = (g.num_vertices(), g.num_edges());
    // `order[r]` is the vertex of rank `r`.
    let order = degree_order(g);
    // The transpose in rank space: row `w` is `sources[offsets[w]..
    // offsets[w + 1]]`, the ranks of `w`'s in-neighbors. One counting
    // pass sizes the rows, and filling them in rank order sorts them.
    let mut offsets = vec![0usize; n + 1];
    for &w in g.raw_targets() {
        offsets[w as usize + 1] += 1;
    }
    for w in 0..n {
        offsets[w + 1] += offsets[w];
    }
    // `above[e]`, for the edge `e` = `x → w`, is where the ranks above
    // `x` start in row `w`, so no walk searches for its start.
    let row_of = |v: VertexId| {
        g.raw_offsets()[v as usize] as usize..g.raw_offsets()[v as usize + 1] as usize
    };
    let (mut next, mut sources, mut above) = (offsets.clone(), vec![0; m], vec![0; m]);
    for (r, &y) in order.iter().enumerate() {
        for &w in g.neighbors(y) {
            sources[next[w as usize]] = r as u32;
            next[w as usize] += 1;
        }
        for (a, &w) in above[row_of(y)].iter_mut().zip(g.neighbors(y)) {
            *a = next[w as usize];
        }
    }
    // Count `x`'s wedges into the ranks in `(rank x, hi(x))`, then keep
    // each candidate the rule scores.
    let visit = |mut acc: Chunk<T>, x: VertexId| {
        let dx = g.degree(x);
        let filtered = |f| order.partition_point(|&y| dx as f64 >= f * g.degree(y) as f64);
        let hi = filter.map_or(n, filtered) as u32;
        for (&w, &from) in g.neighbors(x).iter().zip(&above[row_of(x)]) {
            let row = &sources[from..offsets[w as usize + 1]];
            let window = &row[..row.partition_point(|&r| r < hi)];
            acc.wedges += window.len() as u64;
            for &r in window {
                let c = &mut acc.counts[r as usize];
                if *c == 0 {
                    acc.touched.push(r);
                }
                *c += 1;
            }
        }
        acc.scored += acc.touched.len() as u64;
        for r in acc.touched.drain(..) {
            let inter = std::mem::take(&mut acc.counts[r as usize]) as usize;
            let y = order[r as usize];
            if let Some(score) = keep(dx, g.degree(y), inter) {
                acc.pairs.push((x.min(y), x.max(y), score));
            }
        }
        acc
    };
    let fresh = || Chunk {
        counts: vec![0; n],
        ..Chunk::default()
    };
    // `(u, v)` keys are unique, so both sorts give the same order.
    let by_pair = |a: &Pair<T>, b: &Pair<T>| (a.0, a.1).cmp(&(b.0, b.1));
    let all = if ctx.parallelism.use_parallel(m) {
        let mut all = (0..n as VertexId)
            .into_par_iter()
            .fold(fresh, visit)
            .reduce(Chunk::default, Chunk::merge);
        all.pairs.par_sort_unstable_by(by_pair);
        all
    } else {
        let mut all = (0..n as VertexId).fold(fresh(), visit);
        all.pairs.sort_unstable_by(by_pair);
        all
    };
    let entries = 2 * m as u64 + all.wedges;
    let bytes = 4 * (entries + 5 * m as u64 + all.wedges);
    ctx.counters.flush(all.wedges + all.scored, bytes, entries);
    all.pairs
}

type Pair<T> = (VertexId, VertexId, T);

/// One pool chunk of the ranked-pair engine: shared-neighbor counts,
/// dense by rank and back at zero after every source, and what it kept.
#[derive(Default)]
struct Chunk<T> {
    counts: Vec<u32>,
    /// Ranks whose count left zero for the current source.
    touched: Vec<u32>,
    pairs: Vec<Pair<T>>,
    /// Wedges `x – w – y` walked, `y` inside `x`'s rank window.
    wedges: u64,
    /// Distinct candidates `y` offered to the keep rule.
    scored: u64,
}

impl<T> Chunk<T> {
    fn merge(mut self, other: Chunk<T>) -> Chunk<T> {
        self.pairs.extend(other.pairs);
        self.wedges += other.wedges;
        self.scored += other.scored;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    /// Brute-force reference.
    fn all_pairs_brute(g: &CsrGraph, tau: f64) -> Vec<(VertexId, VertexId, f64)> {
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

    /// `for_vertex` from every source, upper half kept, then sorted. On
    /// symmetric input the engine must reproduce it bit for bit.
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
            // Directed: the Jaccard of out-neighborhoods, as `pair` and
            // the brute-force reference define it.
            let d = ga_graph::CsrBuilder::new(1 << 9)
                .edges(edges.iter().copied())
                .dedup(true)
                .build();
            let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());
            let reference = bits(&all_pairs_brute(&d, 0.2));
            assert_eq!(bits(&all_pairs_above_with(&d, 0.2, &s)), reference);
            assert_eq!(bits(&all_pairs_above_with(&d, 0.2, &p)), reference);
            assert_eq!(s.snapshot(), p.snapshot(), "directed seed {seed}");
        }
    }

    #[test]
    fn star_and_path_match_brute_force() {
        // A star on 0..100 and a path on 100..200: every pair of leaves
        // has J = 1, a path vertex's only candidates are two hops along.
        let mut edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        edges.extend((100..199).map(|v| (v, v + 1)));
        let g = und(200, &edges);
        let pairs = check_engines(&g, 0.3, "star+path");
        assert_eq!(pairs.iter().filter(|p| p.1 < 100).count(), 99 * 98 / 2);
    }

    #[test]
    fn pairs_on_the_size_bound_are_kept() {
        // N(0) = {2, 3} ⊂ N(1) = {2, 3, 4, 5}: J = 2/4 = 0.5 exactly,
        // and the degree ratio is exactly tau.
        let g = und(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5)]);
        assert_eq!(pair(&g, 0, 1), 0.5);
        let pairs = check_engines(&g, 0.5, "size bound 1/2");
        assert!(pairs.contains(&(0, 1, 0.5)), "{pairs:?}");
        // N(0) = 7 of N(1)'s 25 hubs: J rounds to exactly 0.28, but
        // 0.28 * 25 rounds above 7, so only the margin keeps the pair.
        let mut edges: Vec<(u32, u32)> = (2..27).map(|h| (1, h)).collect();
        edges.extend((2..9).map(|h| (0, h)));
        let g = und(27, &edges);
        assert_eq!(pair(&g, 0, 1), 0.28);
        assert!(std::hint::black_box(0.28) * 25.0 > 7.0, "the premise");
        let pairs = check_engines(&g, 0.28, "size bound 7/25");
        assert!(pairs.contains(&(0, 1, 0.28)), "{pairs:?}");
    }

    #[test]
    fn tau_one_keeps_only_equal_degree_twins() {
        // 0 and 1 are twins of degree 2, and 2, 3, 4 twins of degree 3
        // whose rows hold 0's plus 7; hubs 5 and 6 are twins of degree 5.
        let mut edges = vec![(0, 5), (0, 6), (1, 5), (1, 6), (2, 5), (2, 6), (2, 7)];
        edges.extend([(3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)]);
        let g = und(8, &edges);
        let pairs = check_engines(&g, 1.0, "tau 1");
        let twins: Vec<_> = pairs.iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(twins, [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6)]);
        for &(u, v, j) in &pairs {
            assert_eq!(j, 1.0);
            assert_eq!(g.degree(u), g.degree(v));
        }
    }

    #[test]
    fn random_symmetric_graphs_match_brute_force_at_every_tau() {
        for seed in 0..6 {
            let n = 30 + 10 * seed as usize;
            let edges = gen::erdos_renyi(n, 3 * n, seed);
            let g = ga_graph::CsrBuilder::new(n)
                .edges(edges.iter().copied())
                .symmetrize(true)
                .dedup(true)
                .build();
            for tau in [0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0] {
                check_engines(&g, tau, &format!("seed {seed} tau {tau}"));
            }
        }
    }

    /// Every pair with at least `k` common out-neighbors, by brute force.
    fn sharing_brute(g: &CsrGraph, k: u32) -> Vec<(VertexId, VertexId, u32)> {
        let n = g.num_vertices() as VertexId;
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let inter = intersect_count(g.neighbors(u), g.neighbors(v)) as u32;
                if inter >= k.max(1) {
                    out.push((u, v, inter));
                }
            }
        }
        out
    }

    #[test]
    fn pairs_sharing_matches_brute_force() {
        for seed in 0..4 {
            let n = 40 + 10 * seed as usize;
            let edges = gen::erdos_renyi(n, 4 * n, seed);
            let build = |symmetrize| {
                ga_graph::CsrBuilder::new(n)
                    .edges(edges.iter().copied())
                    .symmetrize(symmetrize)
                    .dedup(true)
                    .build()
            };
            for (g, shape) in [(build(false), "directed"), (build(true), "symmetric")] {
                // Every wedge `x – w – y` is walked once, from its lower rank.
                let mut in_deg = vec![0u64; n];
                g.raw_targets()
                    .iter()
                    .for_each(|&w| in_deg[w as usize] += 1);
                let wedges: u64 = in_deg.iter().map(|&d| d * d.saturating_sub(1) / 2).sum();
                for k in 1..=3 {
                    let tag = format!("{shape} seed {seed} k {k}");
                    let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());
                    let serial = pairs_sharing(&g, k, &s);
                    assert_eq!(serial, sharing_brute(&g, k), "{tag}");
                    assert_eq!(pairs_sharing(&g, k, &p), serial, "{tag}");
                    assert_eq!(s.snapshot(), p.snapshot(), "{tag}: counters differ");
                    let touched = 2 * g.num_edges() as u64 + wedges;
                    assert_eq!(s.snapshot().edges_touched, touched, "{tag}");
                    assert!(k > 1 || !serial.is_empty(), "{tag}: no pair");
                }
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

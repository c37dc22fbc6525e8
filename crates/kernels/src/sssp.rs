//! Single-source shortest paths (Fig. 1 row "SSSP").
//!
//! One engine, [`sssp_with`]: Meyer and Sanders' delta-stepping in GAP's
//! shape for every [`crate::Parallelism`] and [`Adjacency`];
//! [`dijkstra`] (binary heap, non-negative weights) and [`bellman_ford`]
//! (negative edges, negative-cycle detection) are its references.
//! Distances are the fixed point of `dist[v] = min_u fl(dist[u] + w(u,
//! v))` that relaxing from [`INF`] reaches — each path's left-to-right
//! `f32` sum, minimised — which no relaxation order changes. Parents
//! follow one rule over the exact edges (`fl(dist[u] + w) == dist[v]`,
//! `w` the lightest parallel edge), and form a shortest-path tree:
//! `parent[v]` is the smallest `u` whose exact edge raises the distance
//! (`dist[u] < dist[v]`). A *flat* vertex has no such edge — every exact
//! edge into it adds nothing (weight 0, or below half an ulp of
//! `dist[u]`) — and takes the smallest exact `u` among those fewest such
//! edges away from a vertex that is not flat, so a zero-weight cycle
//! never closes a loop of parents. A complete [`SsspResult`] is
//! therefore a function of the graph and the source alone —
//! bit-identical across `Parallelism`, pool width, representation and
//! bucket width. [`auto_delta`] picks the bucket width when the caller
//! has no better one.

use crate::ctx::{Completion, KernelCtx};
use crate::INF;
use ga_graph::{Adjacency, VertexId, Weight};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Parent of an unreached vertex.
const NONE: VertexId = u32::MAX;

/// Output of an SSSP run.
#[derive(Clone, Debug, PartialEq)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source, [`INF`] if
    /// unreachable.
    pub dist: Vec<Weight>,
    /// Shortest-path-tree parent, by the module's rule; source maps to
    /// itself, unreachable to `u32::MAX`.
    pub parent: Vec<VertexId>,
    /// Whether relaxation ran to a fixed point or stopped at the
    /// context's budget. A partial result reports the covered frontier:
    /// distances settled before the stop are final (delta buckets settle
    /// in nondecreasing order), later finite entries are tentative upper
    /// bounds, and [`INF`] may merely mean not-yet-relaxed.
    pub completion: Completion,
}

impl SsspResult {
    /// Check the result against `g` exactly, with no tolerance: the
    /// source is rooted at distance 0, every reached vertex's parent
    /// chain reaches the source (the parents form a tree), and its parent
    /// edge exists with `fl(dist[parent] + w) == dist[v]`. A
    /// [`Completion::Complete`] result must also be a fixed point
    /// (`dist[v] <= fl(dist[u] + w)` on every edge out of a reached `u`)
    /// whose parents follow the module's rule.
    pub fn validate<G: Adjacency>(&self, g: &G, src: VertexId) -> Result<(), String> {
        let (dist, parent) = (&self.dist, &self.parent);
        if dist[src as usize] != 0.0 || parent[src as usize] != src {
            return Err("source not rooted at distance 0".into());
        }
        let n = g.num_vertices();
        let complete = self.completion == Completion::Complete;
        // `hops[v]`: parent edges from `v` up to the first vertex whose
        // parent lies at a smaller distance (or the source) — the rule's
        // level of a flat vertex, 0 otherwise. Each chain is walked once
        // and must reach the source without meeting itself.
        const UNSEEN: u32 = u32::MAX;
        const ON_PATH: u32 = u32::MAX - 1;
        let mut hops = vec![UNSEEN; n];
        hops[src as usize] = 0;
        let mut path = Vec::new();
        for v in (0..n).filter(|&v| dist[v] != INF) {
            let mut x = v;
            while hops[x] == UNSEEN {
                hops[x] = ON_PATH;
                path.push(x);
                x = parent[x] as usize;
                if x >= n || dist[x] == INF || hops[x] == ON_PATH {
                    return Err(format!("vertex {v}: parents do not lead to the source"));
                }
            }
            while let Some(y) = path.pop() {
                let p = parent[y] as usize;
                hops[y] = if dist[p] < dist[y] { 0 } else { hops[p] + 1 };
            }
        }
        // `best[v]`: the rule's key over the exact edges into `v` —
        // raising before flat, flat ones by `hops[u]`, then the smallest
        // `u`; `tight[v]`: the parent's edge is exact.
        let (mut best, mut tight) = (vec![(true, UNSEEN, NONE); n], vec![false; n]);
        for u in 0..n as VertexId {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            for (v, w) in g.weighted_neighbors(u) {
                let (nd, dv) = (du + w, dist[v as usize]);
                if complete && nd < dv {
                    return Err(format!("edge {u}->{v} shortens {dv} to {nd}"));
                }
                if nd == dv {
                    let v = v as usize;
                    let key = if du < dv {
                        (false, 0, u)
                    } else {
                        (true, hops[u as usize], u)
                    };
                    best[v] = best[v].min(key);
                    tight[v] |= parent[v] == u;
                }
            }
        }
        for v in (0..n).filter(|&v| v != src as usize) {
            let (d, p) = (dist[v], parent[v]);
            let ok = if d == INF {
                p == NONE
            } else {
                tight[v] && (!complete || best[v].2 == p)
            };
            if !ok {
                return Err(format!(
                    "vertex {v}: distance {d}, parent {p}: not the rule's"
                ));
            }
        }
        Ok(())
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: Weight,
    v: VertexId,
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.v.cmp(&self.v))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra with a lazy-deletion binary heap. Weights must be
/// non-negative. Ties go by `beats`, and `settle_flat` places the
/// flat vertices: the parents follow the module's rule.
pub fn dijkstra<G: Adjacency>(g: &G, src: VertexId) -> SsspResult {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut parent = vec![NONE; n];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    parent[src as usize] = src;
    heap.push(HeapItem { dist: 0.0, v: src });
    while let Some(HeapItem { dist: d, v: u }) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.weighted_neighbors(u) {
            debug_assert!(w >= 0.0, "dijkstra requires non-negative weights");
            let (nd, i) = (d + w, v as usize);
            if nd < dist[i] {
                dist[i] = nd;
                parent[i] = u;
                heap.push(HeapItem { dist: nd, v });
            } else if nd == dist[i] && v != src && beats(&dist, (u, d), nd, parent[i]) {
                parent[i] = u;
            }
        }
    }
    settle_flat(g, src, &dist, &mut parent);
    SsspResult {
        dist,
        parent,
        completion: Completion::Complete,
    }
}

/// Whether the exact edge from `u` (at `du`) into a vertex at `nd`
/// beats the vertex's parent `p` by the module's rule: an edge that
/// raises the distance beats a flat one, then the smaller `u` wins.
fn beats(dist: &[Weight], (u, du): (VertexId, Weight), nd: Weight, p: VertexId) -> bool {
    (nd == du, u) < (dist[p as usize] == nd, p)
}

/// Bellman–Ford. Returns `Err(())` if a negative cycle is reachable from
/// `src` (the error carries no payload — the cycle itself is rarely
/// wanted; callers that need it run a dedicated extraction). With no
/// negative weight the parents follow the module's rule, as in
/// [`dijkstra`]; with one, a parent changes only on a strict
/// improvement (the rule's ties could close a loop through the negative
/// edge).
#[allow(clippy::result_unit_err)]
pub fn bellman_ford<G: Adjacency>(g: &G, src: VertexId) -> Result<SsspResult, ()> {
    let n = g.num_vertices();
    let ruled = (0..n as VertexId).all(|u| g.weighted_neighbors(u).all(|(_, w)| w >= 0.0));
    let mut dist = vec![INF; n];
    let mut parent = vec![NONE; n];
    dist[src as usize] = 0.0;
    parent[src as usize] = src;
    for round in 0..n {
        let mut changed = false;
        for u in 0..n as VertexId {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            for (v, w) in g.weighted_neighbors(u) {
                let (nd, i) = (du + w, v as usize);
                if nd < dist[i] {
                    dist[i] = nd;
                    parent[i] = u;
                    changed = true;
                } else if ruled && nd == dist[i] && v != src && beats(&dist, (u, du), nd, parent[i])
                {
                    parent[i] = u;
                }
            }
        }
        if !changed {
            break;
        }
        if round == n - 1 {
            return Err(()); // still relaxing after n-1 full passes
        }
    }
    if ruled {
        settle_flat(g, src, &dist, &mut parent);
    }
    Ok(SsspResult {
        dist,
        parent,
        completion: Completion::Complete,
    })
}

/// Re-parents the flat vertices by the module's rule. Each reached
/// vertex must hold the smallest `u` of an exact edge that raises its
/// distance, or else some exact `u` at its own distance — that marks it
/// flat. A breadth-first walk over exact edges into flat vertices,
/// starting from every reached vertex that is not flat, gives each flat
/// vertex the smallest `u` of the level that first reaches it. Returns
/// what it read (nothing without flat vertices).
fn settle_flat<G: Adjacency>(
    g: &G,
    src: VertexId,
    dist: &[Weight],
    parent: &mut [VertexId],
) -> Read {
    let n = dist.len();
    let mut flat: Vec<bool> = (0..n)
        .map(|v| v != src as usize && dist[v] != INF && dist[parent[v] as usize] == dist[v])
        .collect();
    let mut read = Read::default();
    if !flat.contains(&true) {
        return read;
    }
    let mut level: Vec<VertexId> = (0..n as VertexId)
        .filter(|&u| dist[u as usize] != INF && !flat[u as usize])
        .collect();
    for v in (0..n).filter(|&v| flat[v]) {
        parent[v] = NONE;
    }
    while !level.is_empty() {
        let mut next = Vec::new();
        for &u in &level {
            read.row(g, u);
            for (v, w) in g.weighted_neighbors(u) {
                let i = v as usize;
                if flat[i] && dist[u as usize] + w == dist[i] {
                    if parent[i] == NONE {
                        next.push(v);
                    }
                    parent[i] = parent[i].min(u);
                }
            }
        }
        for &v in &next {
            flat[v as usize] = false;
        }
        level = next;
    }
    read
}

/// Meyer and Sanders' Θ(1/d) bucket width scaled to the weight range:
/// the heaviest weight over the average out-degree (max_w · n / m), so
/// that under uniform weights a vertex has about one light edge
/// (`w < Δ`) and re-relaxation stays rare. Unweighted graphs get
/// vertices per edge. A function of the input alone, read from the
/// representation's flat weight array where it keeps one
/// ([`Adjacency::max_weight`]). Always positive and finite; degenerate
/// inputs (no edges, zero weights) fall back to 1.
pub fn auto_delta<G: Adjacency>(g: &G) -> Weight {
    let (n, m) = (g.num_vertices() as f64, g.num_edges() as f64);
    let d = (g.max_weight() as f64 * n / m) as Weight;
    if d.is_finite() && d > 0.0 {
        d
    } else {
        1.0
    }
}

/// Frontier chunks per phase: enough for the pool to balance a skewed
/// frontier, few enough that a small phase costs nothing.
const CHUNKS: usize = 64;

/// What the phases read: rows, their entries, and the entries' bytes in
/// the graph's representation.
#[derive(Clone, Copy, Default)]
struct Read {
    rows: u64,
    edges: u64,
    adj_bytes: u64,
}

impl Read {
    /// Book one read of `u`'s row.
    fn row<G: Adjacency>(&mut self, g: &G, u: VertexId) {
        self.rows += 1;
        self.edges += g.degree(u) as u64;
        self.adj_bytes += g.row_bytes(u);
    }

    /// Op estimate: an add and a compare per entry; the distance
    /// snapshot, dedup and bin writes per row.
    fn ops(&self) -> u64 {
        2 * self.edges + 4 * self.rows
    }

    fn add(self, o: Read) -> Read {
        Read {
            rows: self.rows + o.rows,
            edges: self.edges + o.edges,
            adj_bytes: self.adj_bytes + o.adj_bytes,
        }
    }
}

/// SSSP from `src` in buckets of width `delta`: the one engine, for
/// every [`crate::Parallelism`]. Weights must be non-negative.
///
/// Bucket `i` holds the vertices whose distance lies in `[iΔ, (i+1)Δ)`.
/// It settles in Jacobi phases: a phase snapshots its frontier as
/// `(u, dist[u])` pairs, and each entry relaxes its whole out-row once,
/// light and heavy edges together, into `v`'s packed word — distance
/// bits, then a flat bit (the edge added nothing), then the parent — by
/// a load-compare and then a `fetch_min`. Non-negative `f32` bits order
/// like their values and leave the sign bit free for the flat bit, so
/// the minimum is the smallest distance, then an edge that raises it,
/// then the smallest parent, whatever the order; `settle_flat` then
/// places the flat vertices by the module's rule. A target whose
/// distance part dropped goes, after the phase, to the bin of its new
/// distance; the frontier's improved members come back to bucket `i`
/// for the next phase. A phase runs one closure per frontier chunk, in a
/// serial loop or on the pool per `ctx.parallelism` on the phase's
/// edges. The budget is consulted at each bucket boundary (every
/// distance settled in an earlier bucket is final), and the counters
/// book what was read.
pub fn sssp_with<G: Adjacency>(g: &G, src: VertexId, delta: Weight, ctx: &KernelCtx) -> SsspResult {
    assert!(delta > 0.0, "delta must be positive");
    let n = g.num_vertices();
    let pack = |d: Weight, flat: bool, u: VertexId| {
        (d.to_bits() as u64) << 33 | (flat as u64) << 32 | u as u64
    };
    let best: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new(pack(INF, false, NONE)))
        .collect();
    let dist = |v: VertexId| f32::from_bits((best[v as usize].load(Relaxed) >> 33) as u32);
    let bucket = |d: Weight| (d / delta) as usize;
    // Each chunk's improved targets. This thread allocates the buffers
    // (hence the nonzero capacity) and they live across phases, so pool
    // workers only grow them: a worker's own allocations would come from
    // its own malloc arena and stay in the process's resident set.
    let improved: Vec<Mutex<Vec<VertexId>>> = (0..CHUNKS)
        .map(|_| Mutex::new(Vec::with_capacity(64)))
        .collect();
    let mut frontier: Vec<(VertexId, Weight)> = Vec::new();
    // `pending[v]` is the bin that holds `v`'s live entry, if any: it
    // dedups the bins, and marks entries left behind by a later drop.
    let mut pending = vec![usize::MAX; n];
    pending[src as usize] = 0;
    let mut bins = vec![vec![src]];
    best[src as usize].store(pack(0.0, false, src), Relaxed);
    let (mut read, mut completion) = (Read::default(), Completion::Complete);
    let mut i = 0;
    while i < bins.len() {
        completion = ctx.budget.check(read.ops());
        if completion.is_partial() {
            break;
        }
        loop {
            let mut edges = 0;
            frontier.clear();
            for u in std::mem::take(&mut bins[i]) {
                if pending[u as usize] == i {
                    pending[u as usize] = usize::MAX;
                    frontier.push((u, dist(u)));
                    edges += g.degree(u);
                }
            }
            if frontier.is_empty() {
                break;
            }
            let span = |c: usize| c * frontier.len() / CHUNKS..(c + 1) * frontier.len() / CHUNKS;
            let chunk = |c: usize| {
                let mut out = improved[c].lock().expect("no chunk panics holding it");
                let mut read = Read::default();
                for &(u, du) in &frontier[span(c)] {
                    read.row(g, u);
                    for (v, w) in g.weighted_neighbors(u) {
                        debug_assert!(w >= 0.0, "sssp_with requires non-negative weights");
                        let nd = du + w;
                        let (new, slot) = (pack(nd, nd == du, u), &best[v as usize]);
                        if new < slot.load(Relaxed)
                            && slot.fetch_min(new, Relaxed) >> 33 > new >> 33
                        {
                            out.push(v);
                        }
                    }
                }
                read
            };
            read = read.add(if ctx.parallelism.use_parallel(edges) {
                (0..CHUNKS)
                    .into_par_iter()
                    .map(chunk)
                    .reduce(Read::default, Read::add)
            } else {
                (0..CHUNKS).map(chunk).fold(Read::default(), Read::add)
            });
            for out in &improved {
                for v in out.lock().expect("the phase is over").drain(..) {
                    let b = bucket(dist(v));
                    if pending[v as usize] != b {
                        pending[v as usize] = b;
                        if b >= bins.len() {
                            bins.resize_with(b + 1, Vec::new);
                        }
                        bins[b].push(v);
                    }
                }
            }
        }
        i += 1;
    }
    let (mut dist, mut parent) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for b in best {
        let b = b.into_inner();
        dist.push(f32::from_bits((b >> 33) as u32));
        parent.push(b as VertexId);
    }
    read = read.add(settle_flat(g, src, &dist, &mut parent));
    // Per entry: the row entry (the representation's bytes) and a
    // weight and packed-word load (~12 bytes); per row: the snapshot and
    // bin traffic (~24 bytes).
    let bytes = read.adj_bytes + 12 * read.edges + 24 * read.rows;
    ctx.counters.flush(read.ops(), bytes, read.edges);
    SsspResult {
        dist,
        parent,
        completion,
    }
}

/// [`sssp_with`] with the bucket width chosen by [`auto_delta`] — the
/// right default when the caller has no weight-distribution knowledge.
pub fn sssp_auto_with<G: Adjacency>(g: &G, src: VertexId, ctx: &KernelCtx) -> SsspResult {
    sssp_with(g, src, auto_delta(g), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, Parallelism};
    use ga_graph::{gen, CompressedCsr, CsrBuilder, CsrGraph, TierConfig, TieredCsr};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn weighted_random(scale: u32, seed: u64) -> CsrGraph {
        let n = 1usize << scale;
        let edges = gen::erdos_renyi(n, n * 6, seed);
        let w = gen::with_random_weights(&edges, 0.1, 4.0, seed + 1);
        CsrGraph::from_weighted_edges(n, &w)
    }

    #[test]
    fn dijkstra_on_small_graph() {
        // 0 -2-> 1 -2-> 2 ; 0 -5-> 2
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 2.0), (0, 2, 5.0)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0.0, 2.0, 4.0]);
        assert_eq!(r.parent[2], 1);
        r.validate(&g, 0).unwrap();
    }

    #[test]
    fn unreachable_is_inf() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 1.0)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], INF);
        assert_eq!(r.parent[2], u32::MAX);
        r.validate(&g, 0).unwrap();
        for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            assert_eq!(sssp_with(&g, 0, 0.5, &ctx), r);
        }
    }

    #[test]
    fn engine_matches_references_at_any_delta() {
        for seed in 0..3 {
            let g = weighted_random(8, seed);
            let want = dijkstra(&g, 0);
            want.validate(&g, 0).unwrap();
            assert_eq!(bellman_ford(&g, 0), Ok(want.clone()), "seed {seed}");
            for delta in [0.05, 0.7, 10.0] {
                for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                    assert_eq!(
                        sssp_with(&g, 0, delta, &ctx),
                        want,
                        "seed {seed} delta {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn bellman_ford_negative_edge_ok() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 4.0), (0, 2, 2.0), (2, 1, -1.0)]);
        let r = bellman_ford(&g, 0).unwrap();
        assert_eq!(r.dist[1], 1.0);
        assert_eq!(r.parent[1], 2);
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        let g = CsrGraph::from_weighted_edges(2, &[(0, 1, 1.0), (1, 0, -3.0)]);
        assert!(bellman_ford(&g, 0).is_err());
    }

    #[test]
    fn unweighted_matches_bfs_depths() {
        let g = CsrGraph::from_edges_undirected(20, &gen::path(20));
        let d = sssp_auto_with(&g, 0, &KernelCtx::default());
        let b = crate::bfs::bfs(&g, 0);
        for v in g.vertices() {
            assert_eq!(d.dist[v as usize] as u32, b.depth[v as usize]);
        }
    }

    #[test]
    fn budget_stops_at_bucket_boundary() {
        let g = weighted_random(9, 5);
        let full = dijkstra(&g, 0);
        let settled = |r: &SsspResult| r.dist.iter().filter(|&&d| d != INF).count();
        let mut partials = Vec::new();
        for mode in [Parallelism::Serial, Parallelism::Parallel] {
            // Trips at the first boundary with nonzero spend: bucket 0
            // settles, everything later is cut.
            let mut ctx = KernelCtx::new(mode);
            ctx.budget = Budget::ops(1);
            let partial = sssp_with(&g, 0, 0.7, &ctx);
            assert_eq!(partial.completion, Completion::OpBudgetExhausted);
            assert!(settled(&partial) < settled(&full));
            // Distances and parents inside the settled bucket are final,
            // not tentative, and every reached vertex has an exact parent.
            for v in 0..g.num_vertices() {
                if partial.dist[v] < 0.7 {
                    assert_eq!(partial.dist[v], full.dist[v], "vertex {v}");
                    assert_eq!(partial.parent[v], full.parent[v], "vertex {v}");
                }
            }
            partial.validate(&g, 0).unwrap();
            partials.push(partial);
        }
        assert_eq!(partials[0], partials[1]);
    }

    #[test]
    fn auto_delta_buckets() {
        // The kernels.gap shape at scale 10: R-MAT, symmetrized, simple,
        // weights in [0.05, 1).
        let edges = gen::rmat(10, 16 << 10, gen::RmatParams::GRAPH500, 3);
        let g = CsrBuilder::new(1 << 10)
            .weighted_edges(gen::with_random_weights(&edges, 0.05, 1.0, 4))
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .build();
        let d = auto_delta(&g);
        assert!(d > 0.0 && d <= g.max_weight(), "delta {d}");
        let m = g.num_edges() as f64;
        for src in [0, 5, 700] {
            let ctx = KernelCtx::serial();
            assert_eq!(sssp_auto_with(&g, src, &ctx), dijkstra(&g, src));
            let scans = ctx.snapshot().edges_touched as f64;
            assert!(scans <= 1.1 * m, "src {src}: {scans} scans over {m} edges");
        }
        // Unweighted graphs get vertices per edge; no edges fall back to 1.
        let ug = CsrGraph::from_edges_undirected(16, &gen::path(16));
        assert_eq!(auto_delta(&ug), 16.0 / 30.0);
        assert_eq!(auto_delta(&CsrGraph::from_edges(4, &[])), 1.0);
    }

    #[test]
    fn validate_rejects_wrong_distances() {
        let g = CsrGraph::from_weighted_edges(2, &[(0, 1, 1.0)]);
        let mut r = dijkstra(&g, 0);
        r.dist[1] = 9.0;
        assert!(r.validate(&g, 0).is_err());
    }

    #[test]
    fn validate_rejects_a_non_minimal_parent() {
        // 3 is exactly 2 away through 1 and through 2.
        let edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)];
        let g = CsrGraph::from_weighted_edges(4, &edges);
        let mut r = dijkstra(&g, 0);
        assert_eq!(r.parent[3], 1);
        r.validate(&g, 0).unwrap();
        r.parent[3] = 2;
        assert!(r.validate(&g, 0).is_err(), "a tight but not minimal parent");
    }

    #[test]
    fn validate_rejects_an_off_by_one_ulp_distance() {
        let g = weighted_random(6, 9);
        let r = dijkstra(&g, 0);
        r.validate(&g, 0).unwrap();
        let v = (1..g.num_vertices()).find(|&v| r.dist[v] != INF).unwrap();
        for step in [1i32, -1] {
            let mut bad = r.clone();
            bad.dist[v] = f32::from_bits((r.dist[v].to_bits() as i32 + step) as u32);
            assert!(bad.validate(&g, 0).is_err(), "vertex {v} moved {step} ulp");
        }
    }

    /// The module's rule from the reference's distances alone: the
    /// smallest `u` of an exact edge that raises `dist[v]`; for a flat
    /// `v` (no such edge), levels relaxed to a fixed point over the exact
    /// edges into flat vertices, then the smallest `u` one level up.
    fn parent_rule(g: &CsrGraph, src: VertexId, dist: &[Weight]) -> Vec<VertexId> {
        let n = g.num_vertices();
        let exact: Vec<(usize, usize)> = (0..n)
            .filter(|&u| dist[u] != INF)
            .flat_map(|u| {
                g.weighted_neighbors(u as VertexId)
                    .map(move |(v, w)| (u, v as usize, w))
            })
            .filter(|&(u, v, w)| v != src as usize && dist[u] + w == dist[v])
            .map(|(u, v, _)| (u, v))
            .collect();
        let mut parent = vec![NONE; n];
        parent[src as usize] = src;
        for &(u, v) in &exact {
            if dist[u] < dist[v] {
                parent[v] = parent[v].min(u as VertexId);
            }
        }
        let flat = |v: usize| v != src as usize && dist[v] != INF && parent[v] == NONE;
        let mut level: Vec<u32> = (0..n).map(|v| if flat(v) { u32::MAX } else { 0 }).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &(u, v) in &exact {
                if flat(v) && level[u] != u32::MAX && level[u] + 1 < level[v] {
                    level[v] = level[u] + 1;
                    changed = true;
                }
            }
        }
        let mut tree = parent.clone();
        for &(u, v) in &exact {
            if flat(v) && level[u].checked_add(1) == Some(level[v]) {
                tree[v] = tree[v].min(u as VertexId);
            }
        }
        tree
    }

    /// `edges` as given: self-loops and parallel edges kept.
    fn multigraph(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> CsrGraph {
        CsrBuilder::new(n)
            .weighted_edges(edges.iter().copied())
            .build()
    }

    /// Runs `sssp_with` at `delta` in every mode on every representation
    /// of the weighted multigraph `edges`, and asserts that each run
    /// equals both references, follows the parent rule, and does the
    /// same work as the other runs (the same bytes over the same rows).
    fn assert_one_result(
        n: usize,
        edges: &[(VertexId, VertexId, Weight)],
        src: VertexId,
        delta: Weight,
    ) {
        let g = multigraph(n, edges);
        let want = dijkstra(&g, src);
        assert_eq!(want.parent, parent_rule(&g, src, &want.dist));
        want.validate(&g, src).unwrap();
        assert_eq!(bellman_ford(&g, src), Ok(want.clone()));
        let g = Arc::new(g);
        let dir = std::env::temp_dir().join(format!(
            "ga-sssp-tree-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let cfg = TierConfig::new(&dir).segment_rows(16).ram_budget(1 << 10);
        let tiered = TieredCsr::spill(&g, cfg).unwrap();
        let compressed = CompressedCsr::from_csr(&g);
        let mut work = Vec::new();
        for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            let mut check = |r: SsspResult| {
                assert_eq!(r, want, "delta {delta}");
                work.push(ctx.take());
            };
            check(sssp_with(&*g, src, delta, &ctx));
            check(sssp_with(&compressed, src, delta, &ctx));
            check(sssp_with(&tiered, src, delta, &ctx));
        }
        assert_eq!(work[..3], work[3..], "serial and parallel work differ");
        let ops = |k: usize| (work[k].cpu_ops, work[k].edges_touched);
        assert!((1..3).all(|k| ops(k) == ops(0)), "{work:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_relaxer_is_not_the_parent() {
        // Bucket order settles 2 (distance 1) before 1 (distance 2), and
        // both reach 3 at exactly 3: the first to relax 3 is 2, the rule
        // says 1.
        let edges = [(0, 2, 1.0), (0, 1, 2.0), (2, 3, 2.0), (1, 3, 1.0)];
        assert_one_result(4, &edges, 0, 0.5);
    }

    #[test]
    fn zero_weight_ties_keep_a_tree() {
        // A zero-weight self-loop is an exact edge into 0 from 0 itself.
        assert_one_result(2, &[(1, 0, 1.0), (0, 0, 0.0)], 1, 0.5);
        assert_eq!(
            dijkstra(&multigraph(2, &[(1, 0, 1.0), (0, 0, 0.0)]), 1).parent,
            [1, 1]
        );
        // 0 and 1 are exact through each other and through the source;
        // the smallest exact `u` alone would make them each other's parent.
        let cycle = [(2, 0, 1.0), (2, 1, 1.0), (0, 1, 0.0), (1, 0, 0.0)];
        assert_one_result(3, &cycle, 2, 0.5);
        assert_eq!(dijkstra(&multigraph(3, &cycle), 2).parent, [2, 2, 2]);
        // 1 and 0 are flat: every exact edge into them weighs nothing. 1
        // is one flat edge from 3, 0 two; the smallest `u` alone gives
        // 1 -> 0 -> 1.
        let flat = [(4, 3, 1.0), (3, 1, 0.0), (1, 0, 0.0), (0, 1, 0.0)];
        assert_one_result(5, &flat, 4, 0.5);
        let r = dijkstra(&multigraph(5, &flat), 4);
        assert_eq!(r.parent, [1, 3, NONE, 4, 4]);
        // 1 is exact through 0 (flat) and 4 (raising): the raising edge
        // wins though 0 is smaller.
        let raise = [(4, 0, 1.0), (0, 1, 0.0), (4, 1, 1.0)];
        assert_one_result(5, &raise, 4, 0.5);
        assert_eq!(
            dijkstra(&multigraph(5, &raise), 4).parent,
            [4, 4, NONE, NONE, 4]
        );
        // A weight below half an ulp of the distance adds nothing too.
        let tiny = [(2, 0, 1.0), (2, 1, 1.0), (0, 1, 1e-9), (1, 0, 1e-9)];
        assert_one_result(3, &tiny, 2, 0.5);
    }

    #[test]
    fn validate_rejects_parents_that_are_not_a_tree() {
        let cycle = [(2, 0, 1.0), (2, 1, 1.0), (0, 1, 0.0), (1, 0, 0.0)];
        let g = multigraph(3, &cycle);
        let r = dijkstra(&g, 2);
        r.validate(&g, 2).unwrap();
        let mut bad = r.clone();
        bad.parent[..2].copy_from_slice(&[1, 0]);
        assert!(bad.validate(&g, 2).is_err(), "a 2-cycle of exact parents");
        let g = multigraph(2, &[(1, 0, 1.0), (0, 0, 0.0)]);
        let mut bad = dijkstra(&g, 1);
        bad.parent[0] = 0;
        assert!(bad.validate(&g, 1).is_err(), "a vertex its own parent");
        // The same holds for a partial result.
        bad.completion = Completion::OpBudgetExhausted;
        assert!(bad.validate(&g, 1).is_err(), "a partial result's loop");
    }

    /// Few distinct weights, zero and one below half an ulp of most
    /// distances among them, so that equal distances through different
    /// parents and flat vertices are common.
    const WEIGHTS: [Weight; 8] = [0.0, 1e-9, 0.25, 0.5, 1.0, 0.1, 0.3, 0.7];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parents_are_a_function_of_the_graph(
            (n, edges, src, delta) in (1usize..200).prop_flat_map(|n| (
                Just(n),
                // Repeated pairs make a multigraph.
                prop::collection::vec(
                    (0..n as VertexId, 0..n as VertexId, (0..WEIGHTS.len()).prop_map(|k| WEIGHTS[k])),
                    0..6 * n,
                ),
                0..n as VertexId,
                (0..3usize).prop_map(|k| [0.1, 0.4, 3.0][k]),
            ))
        ) {
            assert_one_result(n, &edges, src, delta);
        }
    }
}

//! Single-source shortest paths (Fig. 1 row "SSSP").
//!
//! [`sssp_with`] is the one instrumented engine for every
//! [`crate::Parallelism`]: [`delta_stepping`] (bucketed relaxation, the
//! algorithm of choice on the parallel machines the paper surveys)
//! under the context's budget. [`dijkstra`] (binary heap, non-negative
//! weights) and [`bellman_ford`] (handles negative edges, detects
//! negative cycles) are the references it is checked against. The delta
//! engine runs its bucket scans over [`Frontier`] sets, so a vertex
//! relaxed through several edges in one phase is scanned once, not once
//! per discovery; [`auto_delta`] picks the GAP-style bucket width when
//! the caller has no better estimate. All engines are generic over
//! [`Adjacency`] (plain or compressed rows, bit-identical results).

use crate::ctx::{Budget, Completion, KernelCtx};
use crate::INF;
use ga_graph::{Adjacency, CsrGraph, Frontier, VertexId, Weight};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Output of an SSSP run.
#[derive(Clone, Debug, PartialEq)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source, [`INF`] if
    /// unreachable.
    pub dist: Vec<Weight>,
    /// Shortest-path-tree parent; source maps to itself, unreachable to
    /// `u32::MAX`.
    pub parent: Vec<VertexId>,
    /// Whether relaxation ran to a fixed point or stopped at the
    /// context's budget. A partial result reports the covered frontier:
    /// distances settled before the stop are final (delta buckets settle
    /// in nondecreasing order), later finite entries are tentative upper
    /// bounds, and [`INF`] may merely mean not-yet-relaxed.
    pub completion: Completion,
}

impl SsspResult {
    /// Check the relaxed-edge invariant: no edge can shorten any
    /// distance, and parent links are tight.
    pub fn validate(&self, g: &CsrGraph, src: VertexId) -> Result<(), String> {
        if self.dist[src as usize] != 0.0 {
            return Err("source distance not 0".into());
        }
        for u in g.vertices() {
            if self.dist[u as usize] == INF {
                continue;
            }
            for (v, w) in g.weighted_neighbors(u) {
                if self.dist[u as usize] + w < self.dist[v as usize] - 1e-4 {
                    return Err(format!("edge {u}->{v} violates triangle inequality"));
                }
            }
        }
        for v in g.vertices() {
            let p = self.parent[v as usize];
            if v == src || self.dist[v as usize] == INF {
                continue;
            }
            // Multigraphs: the relaxed edge is the lightest parallel one.
            let pw = g
                .weighted_neighbors(p)
                .filter(|&(u, _)| u == v)
                .map(|(_, w)| w)
                .fold(None, |acc: Option<Weight>, w| {
                    Some(acc.map_or(w, |a| a.min(w)))
                })
                .ok_or_else(|| format!("parent edge {p}->{v} missing"))?;
            if (self.dist[p as usize] + pw - self.dist[v as usize]).abs() > 1e-3 {
                return Err(format!("parent edge {p}->{v} not tight"));
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
/// non-negative.
pub fn dijkstra<G: Adjacency>(g: &G, src: VertexId) -> SsspResult {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut parent = vec![u32::MAX as VertexId; n];
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
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(HeapItem { dist: nd, v });
            }
        }
    }
    SsspResult {
        dist,
        parent,
        completion: Completion::Complete,
    }
}

/// Bellman–Ford. Returns `Err(())` if a negative cycle is reachable from
/// `src` (the error carries no payload — the cycle itself is rarely
/// wanted; callers that need it run a dedicated extraction).
#[allow(clippy::result_unit_err)]
pub fn bellman_ford<G: Adjacency>(g: &G, src: VertexId) -> Result<SsspResult, ()> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut parent = vec![u32::MAX as VertexId; n];
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
                if du + w < dist[v as usize] {
                    dist[v as usize] = du + w;
                    parent[v as usize] = u;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(SsspResult {
                dist,
                parent,
                completion: Completion::Complete,
            });
        }
        if round == n - 1 {
            return Err(()); // still relaxing after n-1 full passes
        }
    }
    Ok(SsspResult {
        dist,
        parent,
        completion: Completion::Complete,
    })
}

/// Delta-stepping: relax edges in distance buckets of width `delta`.
/// Light edges (w < delta) are re-relaxed within a bucket; heavy edges
/// are deferred — Meyer & Sanders' algorithm, sequential realization.
///
/// Bucket scans run over [`Frontier`] sets: a vertex pushed into the
/// bucket through several improving edges is scanned once per phase,
/// and the heavy pass visits each settled vertex exactly once per
/// bucket.
pub fn delta_stepping<G: Adjacency>(g: &G, src: VertexId, delta: Weight) -> SsspResult {
    delta_stepping_budgeted(g, src, delta, &Budget::unlimited())
}

/// [`delta_stepping`] with a cooperative budget consulted at each bucket
/// boundary (every distance settled in earlier buckets is final); on
/// exhaustion the settled buckets are returned as a partial result.
fn delta_stepping_budgeted<G: Adjacency>(
    g: &G,
    src: VertexId,
    delta: Weight,
    budget: &Budget,
) -> SsspResult {
    assert!(delta > 0.0, "delta must be positive");
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut parent = vec![u32::MAX as VertexId; n];
    let mut buckets: Vec<Vec<VertexId>> = Vec::new();
    let bucket_of = |d: Weight| (d / delta) as usize;

    let push = |buckets: &mut Vec<Vec<VertexId>>, v: VertexId, d: Weight| {
        let b = bucket_of(d);
        if b >= buckets.len() {
            buckets.resize_with(b + 1, Vec::new);
        }
        buckets[b].push(v);
    };

    dist[src as usize] = 0.0;
    parent[src as usize] = src;
    push(&mut buckets, src, 0.0);

    let mut completion = Completion::Complete;
    let mut edges_scanned = 0u64;
    let mut settled_total = 0u64;
    // `batch` dedups one light-phase scan; `settled` dedups the heavy
    // pass across the whole bucket. With non-negative weights no member
    // can migrate to an earlier bucket mid-phase, so filtering at batch
    // build (not at processing) is exact.
    let mut batch = Frontier::new(n);
    let mut settled = Frontier::new(n);
    let mut i = 0;
    while i < buckets.len() {
        completion = budget.check(2 * edges_scanned + 4 * settled_total);
        if completion.is_partial() {
            break;
        }
        // Settle bucket i: repeatedly relax light edges of its members.
        settled.clear();
        loop {
            batch.clear();
            for u in std::mem::take(&mut buckets[i]) {
                if bucket_of(dist[u as usize]) == i {
                    batch.insert(u);
                }
            }
            if batch.is_empty() {
                break;
            }
            for u in batch.iter() {
                if settled.insert(u) {
                    settled_total += 1;
                }
                edges_scanned += g.degree(u) as u64;
                let du = dist[u as usize];
                for (v, w) in g.weighted_neighbors(u) {
                    if w < delta {
                        let nd = du + w;
                        if nd < dist[v as usize] {
                            dist[v as usize] = nd;
                            parent[v as usize] = u;
                            push(&mut buckets, v, nd);
                        }
                    }
                }
            }
        }
        // Heavy edges once per settled vertex.
        for u in settled.iter() {
            edges_scanned += g.degree(u) as u64;
            let du = dist[u as usize];
            for (v, w) in g.weighted_neighbors(u) {
                if w >= delta {
                    let nd = du + w;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        parent[v as usize] = u;
                        push(&mut buckets, v, nd);
                    }
                }
            }
        }
        i += 1;
    }
    SsspResult {
        dist,
        parent,
        completion,
    }
}

/// GAP-style bucket width for [`delta_stepping`]: average edge weight ×
/// average out-degree. Intuition: a bucket should hold roughly one
/// expected hop's worth of distance so the light phase finds real
/// parallelism without re-relaxing long chains. Unweighted graphs (unit
/// weights) reduce to edges-per-vertex. Always positive and finite;
/// degenerate inputs (empty graph, zero total weight) fall back to 1.
pub fn auto_delta<G: Adjacency>(g: &G) -> Weight {
    let n = g.num_vertices();
    let m = g.num_edges();
    if n == 0 || m == 0 {
        return 1.0;
    }
    let total_w: f64 = if g.is_weighted() {
        (0..n as VertexId)
            .map(|u| g.weighted_neighbors(u).map(|(_, w)| w as f64).sum::<f64>())
            .sum()
    } else {
        m as f64
    };
    // avg_weight * avg_degree = (Σw / m) * (m / n) = Σw / n.
    let d = (total_w / n as f64) as Weight;
    if d.is_finite() && d > 0.0 {
        d
    } else {
        1.0
    }
}

/// Instrumented SSSP: runs the [`delta_stepping`] engine under the
/// context's budget for every [`crate::Parallelism`] and flushes the
/// relaxation traffic into the context counters.
pub fn sssp_with<G: Adjacency>(g: &G, src: VertexId, delta: Weight, ctx: &KernelCtx) -> SsspResult {
    let r = delta_stepping_budgeted(g, src, delta, &ctx.budget);
    // Every settled vertex scans its out-row twice (light phase + heavy
    // phase); re-relaxations within a bucket add more, so this is a
    // lower-bound estimate. Adjacency traffic is charged at the
    // representation's actual row bytes (varint rows on a compressed
    // graph); weight + dist operands at 8 bytes per scanned edge.
    let (mut deg_sum, mut row_sum) = (0u64, 0u64);
    for (v, _) in r.dist.iter().enumerate().filter(|&(_, &d)| d != INF) {
        deg_sum += g.degree(v as VertexId) as u64;
        row_sum += g.row_bytes(v as VertexId);
    }
    let (edges, adj_bytes) = (2 * deg_sum, 2 * row_sum);
    let reached = r.dist.iter().filter(|&&d| d != INF).count() as u64;
    // Per edge: add + compare (~2 ops); per settled vertex: dist,
    // parent, and bucket writes.
    ctx.counters.flush(
        2 * edges + 4 * reached,
        adj_bytes + 8 * edges + 24 * reached,
        edges,
    );
    r
}

/// [`sssp_with`] with the bucket width chosen by [`auto_delta`] — the
/// right default when the caller has no weight-distribution knowledge.
pub fn sssp_auto_with<G: Adjacency>(g: &G, src: VertexId, ctx: &KernelCtx) -> SsspResult {
    sssp_with(g, src, auto_delta(g), ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

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
    }

    #[test]
    fn engines_agree_on_random_graphs() {
        for seed in 0..3 {
            let g = weighted_random(8, seed);
            let a = dijkstra(&g, 0);
            let b = bellman_ford(&g, 0).unwrap();
            let c = delta_stepping(&g, 0, 0.7);
            for v in g.vertices() {
                let (x, y, z) = (a.dist[v as usize], b.dist[v as usize], c.dist[v as usize]);
                assert!(
                    (x - y).abs() < 1e-3 || (x == INF && y == INF),
                    "bf mismatch at {v}: {x} vs {y}"
                );
                assert!(
                    (x - z).abs() < 1e-3 || (x == INF && z == INF),
                    "ds mismatch at {v}: {x} vs {z}"
                );
            }
            a.validate(&g, 0).unwrap();
            c.validate(&g, 0).unwrap();
        }
    }

    #[test]
    fn delta_stepping_various_deltas() {
        let g = weighted_random(7, 42);
        let base = dijkstra(&g, 3);
        for delta in [0.2, 1.0, 10.0] {
            let r = delta_stepping(&g, 3, delta);
            for v in g.vertices() {
                let (x, y) = (base.dist[v as usize], r.dist[v as usize]);
                assert!((x - y).abs() < 1e-3 || (x == INF && y == INF));
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
        let d = dijkstra(&g, 0);
        let b = crate::bfs::bfs(&g, 0);
        for v in g.vertices() {
            assert_eq!(d.dist[v as usize] as u32, b.depth[v as usize]);
        }
    }

    #[test]
    fn budget_stops_delta_stepping_at_bucket_boundary() {
        let g = weighted_random(9, 5);
        let full = delta_stepping(&g, 0, 0.7);
        assert_eq!(full.completion, Completion::Complete);
        let settled = |r: &SsspResult| r.dist.iter().filter(|&&d| d != INF).count();
        for mut ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            // Trips at the first boundary with nonzero spend: bucket 0
            // settles, everything later is cut.
            ctx.budget = Budget::ops(1);
            let partial = sssp_with(&g, 0, 0.7, &ctx);
            assert_eq!(partial.completion, Completion::OpBudgetExhausted);
            assert!(settled(&partial) < settled(&full));
            // Distances inside the settled bucket are final, not tentative.
            for v in g.vertices() {
                let d = partial.dist[v as usize];
                if d < 0.7 {
                    assert!((d - full.dist[v as usize]).abs() < 1e-12, "vertex {v}");
                }
            }
        }
    }

    #[test]
    fn auto_delta_is_sane_and_exact() {
        let g = weighted_random(8, 11);
        let d = auto_delta(&g);
        // Uniform weights in [0.1, 4.0) at ~6 edges/vertex: Σw/n lands
        // in a modest band around 12.
        assert!(d > 0.5 && d < 40.0, "delta {d}");
        let base = dijkstra(&g, 0);
        let r = sssp_auto_with(&g, 0, &KernelCtx::default());
        for v in g.vertices() {
            let (x, y) = (base.dist[v as usize], r.dist[v as usize]);
            assert!(
                (x - y).abs() < 1e-3 || (x == INF && y == INF),
                "auto-delta mismatch at {v}: {x} vs {y}"
            );
        }
        // Unweighted graphs fall back to edges-per-vertex.
        let ug = CsrGraph::from_edges_undirected(16, &gen::path(16));
        let ud = auto_delta(&ug);
        assert!(ud > 0.0 && ud.is_finite());
        // Empty graph degenerates to 1.
        assert_eq!(auto_delta(&CsrGraph::from_edges(4, &[])), 1.0);
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let g = weighted_random(9, 13);
        let c = ga_graph::CompressedCsr::from_csr(&g);
        let plain = delta_stepping(&g, 0, 0.7);
        let comp = delta_stepping(&c, 0, 0.7);
        assert_eq!(plain.dist, comp.dist);
        assert_eq!(plain.parent, comp.parent);
        // The compressed run books fewer adjacency bytes for the same
        // op count.
        let (pc, cc) = (KernelCtx::serial(), KernelCtx::serial());
        sssp_with(&g, 0, 0.7, &pc);
        sssp_with(&c, 0, 0.7, &cc);
        let (ps, cs) = (pc.snapshot(), cc.snapshot());
        assert_eq!(ps.cpu_ops, cs.cpu_ops);
        assert!(
            cs.mem_bytes < ps.mem_bytes,
            "compressed books fewer bytes: {} vs {}",
            cs.mem_bytes,
            ps.mem_bytes
        );
    }

    #[test]
    fn validate_rejects_wrong_distances() {
        let g = CsrGraph::from_weighted_edges(2, &[(0, 1, 1.0)]);
        let mut r = dijkstra(&g, 0);
        r.dist[1] = 9.0;
        assert!(r.validate(&g, 0).is_err());
    }
}

//! Scatter-gather (partial + merge) kernel entry points for sharded
//! execution.
//!
//! A sharded driver (see `ga-core`'s `sharded` module) partitions the
//! vertex set across N shard-local engines and runs batch analytics in
//! two phases: each shard computes a **partial** over the vertices it
//! owns, then a router-side **merge** combines the partials into the
//! global answer. The functions here are the per-kernel halves of that
//! protocol, written so the merged result is *bit-identical* for every
//! shard count:
//!
//! * PageRank — the owner shard holds the complete in-adjacency of each
//!   owned vertex (edges are delivered to both endpoints' owners), so
//!   the pull sweep [`pagerank_owned_sweep`] accumulates in global
//!   vertex order and the router finishes each iteration with serial
//!   dangling/residual reductions, mirroring
//!   [`crate::pagerank::pagerank_with`]'s determinism argument.
//! * BFS — level-synchronous frontier exchange ([`bfs_owned_expand`]);
//!   depths are integers, so any execution order agrees.
//! * Connected components — each shard reduces its local edges to a
//!   spanning forest ([`cc_local_forest`]), the router unions the
//!   forests ([`cc_merge_forests`]); `UnionFind::labels` normalizes to
//!   the min vertex id per set regardless of union order.
//!
//! Nothing here assumes the serving shard is the *owner*: the
//! `is_owned` predicates take any serving assignment. The sharded
//! driver exploits that for failover — when a shard is dead, its
//! ring-successor replica (whose rows are slot-exact copies of the
//! owner's) serves the same predicates, and every bit-identity
//! argument above carries over unchanged.

use crate::cc::{wcc_afforest, Components};
use crate::UnionFind;
use ga_graph::{CsrGraph, DynamicGraph, VertexId};

/// Build the complete in-adjacency of every vertex satisfying
/// `is_owned`, by scanning the shard graph's rows in global vertex
/// order. Because edge updates are routed to both endpoints' owner
/// shards, the owner of `v` sees every live in-edge `(u, v)`; the scan
/// order makes `in_adj[v]` ascend by source id for *any* shard count,
/// which keeps downstream floating-point accumulation order canonical.
///
/// The returned vector has length `n_global`; rows of non-owned
/// vertices are left empty.
pub fn owned_in_adjacency<F>(g: &DynamicGraph, n_global: usize, is_owned: F) -> Vec<Vec<VertexId>>
where
    F: Fn(VertexId) -> bool,
{
    let mut in_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n_global];
    for u in 0..g.num_vertices() as VertexId {
        for rec in g.neighbors(u) {
            let v = rec.dst as usize;
            if v < n_global && is_owned(rec.dst) {
                in_adj[v].push(u);
            }
        }
    }
    in_adj
}

/// Live out-degree of every local row (for owned rows this *is* the
/// global out-degree, since the owner holds the full out-row).
pub fn local_out_degrees(g: &DynamicGraph) -> Vec<u32> {
    (0..g.num_vertices() as VertexId)
        .map(|v| g.degree(v) as u32)
        .collect()
}

/// One owned PageRank pull sweep: for each vertex in `owned` (ascending
/// order), pull `rank[u] / out_deg[u]` over its in-adjacency and return
/// `(v, base + damping * acc)` pairs. Every value equals the one
/// [`crate::pagerank::pagerank_with`]'s sweep produces (same quotients,
/// added in the same ascending-source order); the caller supplies the
/// global `rank`/`out_deg` vectors and the dangling-corrected `base`.
pub fn pagerank_owned_sweep(
    in_adj: &[Vec<VertexId>],
    owned: &[VertexId],
    rank: &[f64],
    out_deg: &[f64],
    base: f64,
    damping: f64,
) -> Vec<(VertexId, f64)> {
    owned
        .iter()
        .map(|&v| {
            let mut acc = 0.0;
            for &u in &in_adj[v as usize] {
                acc += rank[u as usize] / out_deg[u as usize];
            }
            (v, base + damping * acc)
        })
        .collect()
}

/// Expand one BFS level on a shard: emit every live out-neighbor of the
/// *owned* frontier vertices. The router dedups candidates, assigns
/// depth `d + 1` to the unreached ones, and builds the next frontier.
pub fn bfs_owned_expand(g: &DynamicGraph, owned_frontier: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    for &u in owned_frontier {
        out.extend(g.neighbor_ids(u));
    }
    out
}

/// Reduce a shard-local graph to a spanning forest: `(v, label)` pairs
/// with `label != v`, where `label` is the min vertex id of v's
/// component *within this shard's edges*, edge direction ignored.
pub fn cc_local_forest(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
    let comps = wcc_afforest(g);
    comps
        .label
        .iter()
        .enumerate()
        .filter_map(|(v, &l)| (l != v as VertexId).then_some((v as VertexId, l)))
        .collect()
}

/// Merge shard forests into global components over `n_global` vertices.
/// Labels come from [`UnionFind::labels`] (min vertex id per set), so
/// the result is independent of pair order and shard count, and matches
/// [`crate::cc::wcc_union_find`] on the merged graph.
pub fn cc_merge_forests<I>(n_global: usize, pairs: I) -> Components
where
    I: IntoIterator<Item = (VertexId, VertexId)>,
{
    let mut uf = UnionFind::new(n_global);
    for (v, l) in pairs {
        uf.union(v, l);
    }
    let count = uf.num_sets();
    Components {
        label: uf.labels(),
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::wcc_union_find;
    use crate::pagerank::pagerank_with;
    use crate::KernelCtx;
    use ga_graph::gen;

    fn dyn_graph(n: usize, edges: &[(VertexId, VertexId)]) -> DynamicGraph {
        let mut g = DynamicGraph::new(n);
        g.insert_undirected(edges, 1);
        g
    }

    #[test]
    fn forest_merge_matches_union_find() {
        let edges = gen::erdos_renyi(80, 70, 3);
        let g = CsrGraph::from_edges_undirected(80, &edges);
        let direct = wcc_union_find(&g);
        // Split the edge set "across shards" arbitrarily and merge.
        let sub_a = CsrGraph::from_edges_undirected(
            80,
            &edges.iter().copied().step_by(2).collect::<Vec<_>>(),
        );
        let sub_b = CsrGraph::from_edges_undirected(
            80,
            &edges.iter().copied().skip(1).step_by(2).collect::<Vec<_>>(),
        );
        let mut pairs = cc_local_forest(&sub_a);
        pairs.extend(cc_local_forest(&sub_b));
        let merged = cc_merge_forests(80, pairs);
        assert_eq!(direct.label, merged.label);
        assert_eq!(direct.count, merged.count);
    }

    #[test]
    fn single_shard_sweep_matches_pagerank_with() {
        // With one "shard" owning everything, iterating the owned sweep
        // must reproduce pagerank_with bit-for-bit (same in-adjacency
        // order: CSR transposes are source-sorted, as is the row scan).
        let edges = gen::erdos_renyi(64, 200, 9);
        let dg = dyn_graph(64, &edges);
        let csr = dg.snapshot();
        let csr = ga_graph::CsrBuilder::new(64)
            .edges(csr.edges())
            .reverse(true)
            .build();
        let reference = pagerank_with(&csr, 0.85, 1e-10, 100, &KernelCtx::serial());

        let n = 64usize;
        let in_adj = owned_in_adjacency(&dg, n, |_| true);
        let out_deg: Vec<f64> = local_out_degrees(&dg).iter().map(|&d| d as f64).collect();
        let owned: Vec<VertexId> = (0..n as VertexId).collect();
        let inv_n = 1.0 / n as f64;
        let mut rank = vec![inv_n; n];
        let mut residual = f64::INFINITY;
        let mut iters = 0;
        while iters < 100 && residual > 1e-10 {
            let dangling: f64 = (0..n).filter(|&v| out_deg[v] == 0.0).map(|v| rank[v]).sum();
            let base = (1.0 - 0.85) * inv_n + 0.85 * dangling * inv_n;
            let new: Vec<(VertexId, f64)> =
                pagerank_owned_sweep(&in_adj, &owned, &rank, &out_deg, base, 0.85);
            let mut next = rank.clone();
            for (v, r) in new {
                next[v as usize] = r;
            }
            residual = (0..n).map(|v| (next[v] - rank[v]).abs()).sum();
            rank = next;
            iters += 1;
        }
        assert_eq!(iters, reference.work);
        for (v, r) in rank.iter().enumerate() {
            assert_eq!(*r, reference.rank[v], "rank differs at {v}");
        }
    }

    #[test]
    fn bfs_expand_emits_live_neighbors_only() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1, 1.0, 1);
        g.insert_edge(0, 2, 1.0, 1);
        g.delete_edge(0, 2, 2);
        let out = bfs_owned_expand(&g, &[0]);
        assert_eq!(out, vec![1]);
    }
}

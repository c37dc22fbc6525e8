//! Triangle counting (Fig. 1 row "GTC"; "TL" is survey-only).
//!
//! The Graph Challenge kernels. All functions expect an **undirected**
//! (symmetrized, deduplicated, loop-free) snapshot. The workhorse is the
//! degree-ordered merge-intersection: each triangle {a,b,c} is counted
//! exactly once at its lowest-ranked vertex, so global count needs no
//! division and parallelizes cleanly.

use crate::ctx::KernelCtx;
use ga_graph::{Adjacency, CsrGraph, VertexId};
use rayon::prelude::*;

/// Sorted-slice intersection size.
#[inline]
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Rank vertices by (degree, id); orienting edges low-rank -> high-rank
/// turns the undirected graph into a DAG whose out-wedges are exactly
/// the triangles, counted once each.
fn rank_order<G: Adjacency>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let mut by_deg: Vec<VertexId> = (0..n as VertexId).collect();
    by_deg.sort_by_key(|&v| (g.degree(v), v));
    let mut rank = vec![0u32; n];
    for (r, &v) in by_deg.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    rank
}

/// Build the rank-oriented forward adjacency (sorted by rank then id).
fn oriented<G: Adjacency>(g: &G, rank: &[u32]) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut fwd: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for u in 0..n as VertexId {
        for v in g.neighbors(u) {
            if rank[v as usize] > rank[u as usize] {
                fwd[u as usize].push(v);
            }
        }
    }
    for row in &mut fwd {
        row.sort_unstable();
    }
    fwd
}

/// Global triangle count via rank-ordered intersection (parallel).
pub fn count_global<G: Adjacency>(g: &G) -> u64 {
    count_global_with(g, &KernelCtx::parallel())
}

/// Instrumented, dispatching global triangle count: serial or parallel
/// rank-ordered intersection per the context's [`crate::Parallelism`].
/// The count is an exact integer sum, so both engines return the
/// identical value.
pub fn count_global_with<G: Adjacency>(g: &G, ctx: &KernelCtx) -> u64 {
    let rank = rank_order(g);
    let fwd = oriented(g, &rank);
    // Per oriented wedge (u, v): a merge intersection costing at most
    // |fwd(u)| + |fwd(v)| comparisons. Tally comparisons alongside the
    // count so the counters reflect the true (skew-dependent) work.
    let body = |u: usize| {
        let fu = &fwd[u];
        let (mut c, mut ops) = (0u64, 0u64);
        for &v in fu {
            let fv = &fwd[v as usize];
            c += intersect_count(fu, fv) as u64;
            ops += (fu.len() + fv.len()) as u64;
        }
        (c, ops)
    };
    let n = g.num_vertices();
    // A limited budget forces the serial engine: per-vertex early exit
    // needs a sequential scan, and a partial count is only meaningful
    // with a deterministic vertex order.
    let (count, ops) = if ctx.parallelism.use_parallel(g.num_edges()) && !ctx.budget.is_limited() {
        (0..n)
            .into_par_iter()
            .map(body)
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    } else if ctx.budget.is_limited() {
        let (mut count, mut ops) = (0u64, 0u64);
        for u in 0..n {
            if u % 256 == 0 && ctx.budget.check(ops).is_partial() {
                break;
            }
            let (c, o) = body(u);
            count += c;
            ops += o;
        }
        (count, ops)
    } else {
        (0..n).map(body).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    // Each comparison reads one 4-byte id from each side; the
    // orientation pass streams every adjacency row once, charged at the
    // representation's actual byte cost (varint rows on a compressed
    // graph).
    let adj_bytes: u64 = (0..g.num_vertices() as VertexId)
        .map(|v| g.row_bytes(v))
        .sum();
    ctx.counters
        .flush(ops, adj_bytes + 8 * ops, g.num_edges() as u64 / 2);
    count
}

/// Per-vertex triangle counts (each triangle increments all three
/// corners), so `Σ counts = 3 ×` the global count. The same oriented
/// wedges as [`count_global_with`], serial or parallel over source
/// vertices per the context's [`crate::Parallelism`], flushed into
/// `ctx`'s counters with the same comparison tally.
pub fn count_per_vertex(g: &CsrGraph, ctx: &KernelCtx) -> Vec<u64> {
    let rank = rank_order(g);
    let fwd = oriented(g, &rank);
    let n = g.num_vertices();
    let corners = |(mut counts, mut ops): (Vec<u64>, u64), u: usize| {
        let fu = &fwd[u];
        for &v in fu {
            let fv = &fwd[v as usize];
            ops += (fu.len() + fv.len()) as u64;
            let (mut i, mut j) = (0, 0);
            while i < fu.len() && j < fv.len() {
                match fu[i].cmp(&fv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        counts[u] += 1;
                        counts[v as usize] += 1;
                        counts[fu[i] as usize] += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        (counts, ops)
    };
    let (counts, ops) = if ctx.parallelism.use_parallel(g.num_edges()) {
        // A triangle found from `u` bumps corners anywhere in the graph,
        // so each pool chunk counts into a dense vector of its own. The
        // integer sums, added in chunk order, equal the serial pass.
        let parts: Vec<(Vec<u64>, u64)> = (0..n)
            .into_par_iter()
            .fold(|| (vec![0; n], 0), corners)
            .collect();
        parts
            .into_iter()
            .reduce(|(mut acc, ops), (part, more)| {
                for (a, b) in acc.iter_mut().zip(part) {
                    *a += b;
                }
                (acc, ops + more)
            })
            .unwrap_or_default()
    } else {
        (0..n).fold((vec![0; n], 0), corners)
    };
    let adj_bytes: u64 = (0..n as VertexId).map(|v| g.row_bytes(v)).sum();
    ctx.counters
        .flush(ops, adj_bytes + 8 * ops, g.num_edges() as u64 / 2);
    counts
}

/// Brute-force O(n^3) reference counter for tests.
pub fn count_brute_force(g: &CsrGraph) -> u64 {
    let n = g.num_vertices() as VertexId;
    let mut c = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(a, b) {
                continue;
            }
            for x in (b + 1)..n {
                if g.has_edge(a, x) && g.has_edge(b, x) {
                    c += 1;
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    fn und(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_edges_undirected(n, edges)
    }

    #[test]
    fn single_triangle() {
        let g = und(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(count_global(&g), 1);
        assert_eq!(count_per_vertex(&g, &KernelCtx::serial()), vec![1, 1, 1]);
    }

    #[test]
    fn square_no_triangles() {
        let g = und(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(count_global(&g), 0);
    }

    #[test]
    fn k4_has_four() {
        let g = und(4, &gen::complete(4));
        assert_eq!(count_global(&g), 4);
        assert_eq!(count_per_vertex(&g, &KernelCtx::serial()), vec![3, 3, 3, 3]);
    }

    #[test]
    fn kn_binomial() {
        for n in [5usize, 6, 7] {
            let g = und(n, &gen::complete(n));
            let expect = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(count_global(&g), expect, "K{n}");
        }
    }

    #[test]
    fn matches_brute_force_on_random() {
        for seed in 0..5 {
            let edges = gen::erdos_renyi(40, 200, seed);
            let g = und(40, &edges);
            assert_eq!(count_global(&g), count_brute_force(&g), "seed {seed}");
        }
    }

    #[test]
    fn per_vertex_sums_to_three_times_global() {
        let edges = gen::erdos_renyi(60, 400, 9);
        let g = und(60, &edges);
        let (pc, gc) = (KernelCtx::serial(), KernelCtx::serial());
        let per = count_per_vertex(&g, &pc);
        assert_eq!(per.iter().sum::<u64>(), 3 * count_global_with(&g, &gc));
        // Same wedges, same tally: the two passes book identical work.
        assert_eq!(pc.snapshot(), gc.snapshot());
    }

    #[test]
    fn per_vertex_serial_and_parallel_agree() {
        let edges = gen::rmat(10, 16 << 10, gen::RmatParams::GRAPH500, 3);
        let g = und(1 << 10, &edges);
        let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());
        let serial = count_per_vertex(&g, &s);
        assert_eq!(serial, count_per_vertex(&g, &p));
        assert_eq!(s.snapshot(), p.snapshot());
        assert_eq!(serial.iter().sum::<u64>(), 3 * count_global(&g));
        assert!(count_global(&g) > 0, "want a non-trivial instance");
    }

    #[test]
    fn zero_budget_counts_nothing_but_tallies_hit() {
        use crate::ctx::{Budget, KernelCtx};
        let g = und(10, &gen::complete(10));
        let mut ctx = KernelCtx::serial();
        ctx.budget = Budget::ops(0);
        assert_eq!(count_global_with(&g, &ctx), 0);
        assert!(ctx.budget.hits() >= 1);
        // Unlimited context still gets the exact count.
        assert_eq!(count_global_with(&g, &KernelCtx::serial()), 120);
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let edges = gen::erdos_renyi(200, 1400, 6);
        let g = und(200, &edges);
        let c = ga_graph::CompressedCsr::from_csr(&g);
        assert_eq!(count_global(&g), count_global(&c));
        let (pc, cc) = (KernelCtx::serial(), KernelCtx::serial());
        assert_eq!(count_global_with(&g, &pc), count_global_with(&c, &cc));
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
    fn intersect_helpers() {
        assert_eq!(intersect_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersect_count(&[], &[1]), 0);
    }
}

//! Triangle counting (Fig. 1 row "GTC"; "TL" is survey-only).
//!
//! The Graph Challenge kernels. All functions expect an **undirected**
//! (symmetrized, deduplicated, loop-free) snapshot. One walk serves
//! both entry points. Edges are oriented from lower to higher
//! (degree, id) rank into one flat CSR, so each triangle {a,b,c} is
//! found exactly once, from its lowest-ranked corner: the global count
//! needs no division and parallelizes cleanly. For a source `u` the
//! walk stamps `u`'s oriented row into a dense marker array, then probes
//! the marker once per entry of each oriented neighbor's row — one
//! predictable load per wedge entry instead of a sorted-list merge (the
//! dense per-chunk accumulator of [`crate::jaccard`]). A probe adds its
//! 0/1 hit without a branch: whether a wedge closes is unpredictable.

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

/// Vertices by ascending `(degree, id)`, the rank order of this module
/// and of [`crate::jaccard`], by one counting sort: the degrees size one
/// bucket per degree, and placing vertices in id order breaks ties by id.
pub(crate) fn degree_order<G: Adjacency>(g: &G) -> Vec<VertexId> {
    let n = g.num_vertices();
    let degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    // After the prefix sum, bucket `d` begins at `start[d]`: the number
    // of vertices of degree below `d`.
    let mut start = vec![0; degree.iter().max().map_or(1, |&d| d + 2)];
    for &d in &degree {
        start[d + 1] += 1;
    }
    for d in 1..start.len() {
        start[d] += start[d - 1];
    }
    let mut order = vec![0; n];
    for (v, &d) in degree.iter().enumerate() {
        order[start[d]] = v as VertexId;
        start[d] += 1;
    }
    order
}

/// Rank vertices by (degree, id); orienting edges low-rank -> high-rank
/// turns the undirected graph into a DAG whose out-wedges are exactly
/// the triangles, counted once each.
fn rank_order<G: Adjacency>(g: &G) -> Vec<u32> {
    let mut rank = vec![0u32; g.num_vertices()];
    for (r, v) in degree_order(g).into_iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    rank
}

/// The rank-oriented graph as one flat CSR (`offsets`, `targets`): row
/// `u` holds `u`'s neighbors of higher rank, still sorted by id. A
/// count pass sizes the rows and a fill pass writes them, both over
/// source vertices in parallel when `parallel`.
fn oriented<G: Adjacency>(g: &G, parallel: bool) -> (Vec<usize>, Vec<VertexId>) {
    let rank = &rank_order(g);
    let n = g.num_vertices() as VertexId;
    let up = |u: VertexId| {
        g.neighbors(u)
            .filter(move |&v| rank[v as usize] > rank[u as usize])
    };
    let counts: Vec<usize> = if parallel {
        (0..n).into_par_iter().map(|u| up(u).count()).collect()
    } else {
        (0..n).map(|u| up(u).count()).collect()
    };
    let mut offsets = vec![0];
    offsets.extend(counts.iter().scan(0, |end, &c| {
        *end += c;
        Some(*end)
    }));
    let targets = if parallel {
        (0..n).into_par_iter().flat_map_iter(up).collect()
    } else {
        (0..n).flat_map(up).collect()
    };
    (offsets, targets)
}

/// The oriented-triangle walk behind both entry points: for each
/// oriented edge `u → v`, `probe(found, u, v, row, stamp, mark)` gets
/// `v`'s oriented row, whose `w` closes a triangle at its lowest-ranked
/// corner `u` exactly when `stamp[w] == mark` — a 0/1 hit the probes
/// add without a branch. Serial or parallel over source vertices per
/// the context's [`crate::Parallelism`]; each pool chunk keeps one
/// `found`, combined by `merge`, and one marker array, reused from
/// source to source (source `u` stamps `u + 1`, so none is ever
/// cleared). A limited budget forces the serial engine: it is consulted
/// every 256 sources, and a partial result is only meaningful with a
/// deterministic vertex order. `cpu_ops` counts the stamps set plus the
/// probes made.
fn walk<G: Adjacency, A: Send>(
    g: &G,
    ctx: &KernelCtx,
    empty: impl Fn() -> A + Sync,
    probe: impl Fn(&mut A, usize, VertexId, &[VertexId], &[u32], u32) + Sync,
    merge: impl Fn(A, A) -> A + Sync,
) -> A {
    let n = g.num_vertices();
    let parallel = ctx.parallelism.use_parallel(g.num_edges()) && !ctx.budget.is_limited();
    let (offsets, targets) = oriented(g, parallel);
    let row = |u: usize| &targets[offsets[u]..offsets[u + 1]];
    let visit = |(mut stamp, mut found, mut ops): (Vec<u32>, A, u64), u: usize| {
        let mark = u as u32 + 1;
        for &v in row(u) {
            stamp[v as usize] = mark;
        }
        ops += row(u).len() as u64;
        for &v in row(u) {
            ops += row(v as usize).len() as u64;
            probe(&mut found, u, v, row(v as usize), &stamp, mark);
        }
        (stamp, found, ops)
    };
    let (found, ops) = if parallel {
        (0..n)
            .into_par_iter()
            .fold(|| (vec![0; n], empty(), 0), visit)
            .map(|(_, found, ops)| (found, ops))
            .reduce(|| (empty(), 0), |(a, x), (b, y)| (merge(a, b), x + y))
    } else {
        let mut probe = (vec![0; n], empty(), 0);
        for u in 0..n {
            if u % 256 == 0 && ctx.budget.check(probe.2).is_partial() {
                break;
            }
            probe = visit(probe, u);
        }
        (probe.1, probe.2)
    };
    // Each stamp and each probe touches one 4-byte id and one 4-byte
    // marker; the count and fill passes each stream every adjacency row
    // once, charged at the representation's actual byte cost (varint
    // rows on a compressed graph).
    let adj_bytes: u64 = (0..n as VertexId).map(|v| g.row_bytes(v)).sum();
    ctx.counters
        .flush(ops, 2 * adj_bytes + 8 * ops, g.num_edges() as u64 / 2);
    found
}

/// Global triangle count via the oriented walk (parallel).
pub fn count_global<G: Adjacency>(g: &G) -> u64 {
    count_global_with(g, &KernelCtx::parallel())
}

/// Instrumented, dispatching global triangle count: the serial or
/// parallel oriented walk per the context's [`crate::Parallelism`]. The
/// count is an exact integer sum, so both engines return the identical
/// value.
pub fn count_global_with<G: Adjacency>(g: &G, ctx: &KernelCtx) -> u64 {
    let probe = |c: &mut u64, _, _, row: &[VertexId], stamp: &[u32], mark| {
        *c += row
            .iter()
            .map(|&w| (stamp[w as usize] == mark) as u64)
            .sum::<u64>();
    };
    walk(g, ctx, || 0, probe, |a, b| a + b)
}

/// Per-vertex triangle counts (each triangle increments all three
/// corners), so `Σ counts = 3 ×` the global count: the walk, engine
/// choice, budget and counters of [`count_global_with`], with a dense
/// count vector per pool chunk whose integer sums equal the serial pass.
pub fn count_per_vertex<G: Adjacency>(g: &G, ctx: &KernelCtx) -> Vec<u64> {
    let n = g.num_vertices();
    walk(
        g,
        ctx,
        || vec![0; n],
        |c, u, v, row, stamp, mark| {
            let mut hits = 0;
            for &w in row {
                let hit = (stamp[w as usize] == mark) as u64;
                c[w as usize] += hit;
                hits += hit;
            }
            c[u] += hits;
            c[v as usize] += hits;
        },
        |a, b| a.into_iter().zip(b).map(|(x, y)| x + y).collect(),
    )
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
    fn degree_order_is_the_degree_id_sort() {
        let sorted = |g: &CsrGraph| {
            let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
            order.sort_by_key(|&v| (g.degree(v), v));
            order
        };
        for seed in 0..4 {
            let er = und(300, &gen::erdos_renyi(300, 1_500, seed));
            let directed = CsrGraph::from_edges(300, &gen::erdos_renyi(300, 900, seed));
            let rmat = und(
                1 << 10,
                &gen::rmat(10, 8 << 10, gen::RmatParams::GRAPH500, seed),
            );
            for g in [er, directed, rmat] {
                assert_eq!(degree_order(&g), sorted(&g), "seed {seed}");
            }
        }
        for n in [0, 1, 5] {
            let g = CsrGraph::from_edges(n, &[]);
            assert_eq!(degree_order(&g), sorted(&g), "edgeless n = {n}");
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

    /// Per-vertex oracle: the number of adjacent pairs in `N(v)`.
    fn per_vertex_brute_force(g: &CsrGraph) -> Vec<u64> {
        let pairs = |v| {
            let nv = g.neighbors(v);
            let adjacent = |(i, &a): (usize, &VertexId)| {
                nv[i + 1..].iter().filter(|&&b| g.has_edge(a, b)).count()
            };
            nv.iter().enumerate().map(adjacent).sum::<usize>() as u64
        };
        g.vertices().map(pairs).collect()
    }

    /// Serial, parallel and compressed per-vertex counts equal the
    /// brute-force oracle corner by corner, on random graphs and on the
    /// hub ball the batch analytics get (an R-MAT ball, smaller here).
    #[test]
    fn per_vertex_matches_brute_force() {
        let mut inputs: Vec<CsrGraph> = (0..6)
            .map(|seed| {
                let n = 50 + 10 * seed as usize;
                und(n, &gen::erdos_renyi(n, 400, seed))
            })
            .collect();
        let edges = gen::rmat(12, 8 << 12, gen::RmatParams::GRAPH500, 42);
        let g = und(1 << 12, &edges);
        let mut hubs: Vec<VertexId> = g.vertices().collect();
        hubs.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let opts = ga_graph::ExtractOptions {
            depth: 2,
            max_vertices: 1024,
            undirected_expand: false,
        };
        inputs.push(ga_graph::sub::extract_ball(&g, &hubs[..8], &opts, None).graph);
        for (i, g) in inputs.iter().enumerate() {
            let want = per_vertex_brute_force(g);
            assert!(want.iter().sum::<u64>() > 0, "input {i} is trivial");
            let c = ga_graph::CompressedCsr::from_csr(g);
            for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                assert_eq!(count_per_vertex(g, &ctx), want, "input {i}");
                assert_eq!(count_per_vertex(&c, &ctx), want, "input {i} compressed");
            }
        }
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
    fn limited_budget_stops_per_vertex_counts_early() {
        use crate::ctx::Budget;
        let edges = gen::rmat(10, 16 << 10, gen::RmatParams::GRAPH500, 3);
        let g = und(1 << 10, &edges);
        let full = count_per_vertex(&g, &KernelCtx::serial());
        let mut ctx = KernelCtx::parallel();
        ctx.budget = Budget::ops(1);
        let part = count_per_vertex(&g, &ctx);
        assert!(ctx.budget.hits() >= 1);
        assert!(part.iter().zip(&full).all(|(p, f)| p <= f));
        assert!(part.iter().sum::<u64>() < full.iter().sum::<u64>());
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

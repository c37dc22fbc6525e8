//! PageRank (Fig. 1 row "PR") — the canonical "compute a new property
//! for each vertex" centrality kernel.
//!
//! One engine, [`pagerank_with`] (and its default-context wrapper
//! [`pagerank`]): synchronous pull-based power iteration with proper
//! dangling-mass redistribution so ranks always sum to 1, cache-blocked
//! the GAP way: contributions are hoisted to one division per vertex and
//! the in-edges are laid out once per call in (destination-block,
//! source-block) segments so each segment's reads and writes both fit in
//! L2. Generic over [`Adjacency`]: the adjacency is read once, to build
//! that layout, so plain, compressed and tiered rows run the same sweeps
//! and return **bit-identical** ranks — the sums are taken in exactly the
//! order a naive per-vertex pull over `in_neighbors` takes them (the test
//! module keeps that loop as the reference).

use crate::ctx::{Completion, KernelCtx};
use ga_graph::{Adjacency, VertexId};

/// Destination-block width for [`pagerank_with`]: 2^12 f64
/// accumulators = 32 KiB, resident in L1d. Must stay ≤ 2^16 so a
/// block-local destination index fits in a `u16` segment entry.
const DST_BLOCK: usize = 1 << 12;

/// Source-block width: the contribution slice a segment reads stays
/// L2-resident (2^14 f64 = 128 KiB). Must stay ≤ 2^16 so a block-local
/// source index fits in a `u16` segment entry.
const SRC_BLOCK: usize = 1 << 14;

/// Convergence/result record.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// Rank per vertex; sums to 1.
    pub rank: Vec<f64>,
    /// Power-iteration sweeps executed.
    pub work: usize,
    /// Final residual (L1 change of the last sweep).
    pub residual: f64,
    /// Whether the run converged or stopped at the context's budget.
    /// A partial result is the rank vector after the last *completed*
    /// sweep — always a valid distribution, just less converged.
    pub completion: Completion,
}

impl PageRankResult {
    /// The `k` top-ranked vertices, descending (ties by id), in
    /// [`crate::topk::top_k_by`]'s `total_cmp` order.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        crate::topk::top_k_by(self.rank.len(), k, |v| Some(self.rank[v as usize]))
    }
}

/// Pull-based power iteration. `g` must carry a reverse index (pull
/// reads in-neighbors); `damping` is typically 0.85.
///
/// Converges when the L1 change of a sweep drops below `tol`, or after
/// `max_iters` sweeps.
pub fn pagerank<G: Adjacency>(g: &G, damping: f64, tol: f64, max_iters: usize) -> PageRankResult {
    pagerank_with(g, damping, tol, max_iters, &KernelCtx::default())
}

/// Instrumented, dispatching pull PageRank (see [`pagerank`]) — the GAP
/// cache-blocked formulation.
///
/// Two things set it apart from a per-vertex pull loop, neither of
/// which alters a single bit of the result:
///
/// 1. **Hoisted contributions**: `rank[u] / out_deg[u]` is computed once
///    per vertex per sweep instead of once per edge (same operands →
///    the same IEEE value), halving the random bytes each edge reads
///    (one f64 instead of rank + out-degree).
/// 2. **L2 blocking**: in-edges are laid out once per call into
///    (destination-block × source-block) segments of block-local
///    `(u16, u16)` index pairs — 4 bytes per edge, the same stream
///    width as a plain CSR row. This is the only time `g`'s rows are
///    read, so a compressed adjacency decodes each varint once per call
///    and a tiered one pages each segment in once, however many sweeps
///    follow. A sweep walks each destination block's segments in
///    ascending source order, so every edge's read lands in an
///    L2-resident contribution slice and its write in an L1-resident
///    accumulator block. Per destination the additions happen in
///    ascending source order — exactly the order of `in_neighbors` — so
///    sums are bit-identical to the per-vertex pull.
///
/// Serial and parallel execution produce **bit-identical** rank vectors:
/// only the layout build and the per-block sweep are parallelized (one
/// edge-balanced group of whole blocks per pool thread, see
/// `par_blocks`), while the dangling-mass and residual reductions —
/// whose floating-point result depends on summation order — are
/// computed serially in both modes.
pub fn pagerank_with<G: Adjacency>(
    g: &G,
    damping: f64,
    tol: f64,
    max_iters: usize,
    ctx: &KernelCtx,
) -> PageRankResult {
    assert!(g.has_reverse(), "pull PageRank needs a reverse index");
    let n = g.num_vertices();
    if n == 0 {
        return PageRankResult {
            rank: vec![],
            work: 0,
            residual: 0.0,
            completion: Completion::Complete,
        };
    }
    let parallel = ctx.parallelism.use_parallel(g.num_edges());
    let (m, nv) = (g.num_edges() as u64, n as u64);
    let inv_n = 1.0 / n as f64;
    let mut rank = vec![inv_n; n];
    let out_deg: Vec<f64> = (0..n as VertexId).map(|v| g.degree(v) as f64).collect();

    // One-time blocked edge layout. segs[s] of a destination block
    // holds (local dst, local src) pairs whose source falls in source
    // block s; appending in (dst, in-row) order keeps each
    // destination's sources ascending within and across segments.
    // Block-local u16 indices keep the edge stream at 4 B/edge.
    let num_src_blocks = n.div_ceil(SRC_BLOCK).max(1);
    let dst_range = |b: usize| (b * DST_BLOCK, ((b + 1) * DST_BLOCK).min(n));
    let block_edges: Vec<u64> = (0..n.div_ceil(DST_BLOCK))
        .map(|b| {
            let (lo, hi) = dst_range(b);
            (lo..hi).map(|v| g.in_degree(v as VertexId) as u64).sum()
        })
        .collect();
    let threads = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let cuts = balanced_cuts(&block_edges, threads);
    let mut blocks = vec![vec![Vec::<(u16, u16)>::new(); num_src_blocks]; block_edges.len()];
    par_blocks(&mut blocks, 0, &cuts, &|b, segs| {
        let (lo, hi) = dst_range(b);
        for v in lo..hi {
            let local = (v - lo) as u16;
            for u in g.in_neighbors(v as VertexId) {
                segs[u as usize / SRC_BLOCK].push((local, (u as usize % SRC_BLOCK) as u16));
            }
        }
    });

    // Two bit-identical inner loops (the summation order is the same
    // either way): on skewed graphs a hub destination's additions form
    // a long store-forwarding chain, so runs of one destination are
    // accumulated in a register; on flat graphs runs are short and the
    // run-end branch mispredicts cost more than the stores save.
    let hub_runs = (0..n as VertexId).map(|v| g.in_degree(v)).max() >= Some(128);

    let mut contrib = vec![0.0f64; n];
    let mut iters = 0;
    let mut residual = f64::INFINITY;
    let mut completion = Completion::Complete;
    while iters < max_iters && residual > tol {
        // Budget check at the sweep boundary: stop at the last
        // completed iteration, never mid-sweep.
        completion = ctx.budget.check(iters as u64 * (2 * m + 4 * nv));
        if completion.is_partial() {
            break;
        }
        // Dangling vertices spread their rank uniformly.
        let dangling: f64 = (0..n).filter(|&v| out_deg[v] == 0.0).map(|v| rank[v]).sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        for u in 0..n {
            // Dangling vertices get an infinite quotient here, but they
            // never appear as anyone's in-neighbor, so it is never read.
            contrib[u] = rank[u] / out_deg[u];
        }
        let mut new_rank = vec![0.0f64; n];
        let mut out_blocks: Vec<&mut [f64]> = new_rank.chunks_mut(DST_BLOCK).collect();
        par_blocks(&mut out_blocks, 0, &cuts, &|b, out| {
            let mut acc = vec![0.0f64; out.len()];
            for (s, seg) in blocks[b].iter().enumerate() {
                let window = &contrib[s * SRC_BLOCK..((s + 1) * SRC_BLOCK).min(contrib.len())];
                if hub_runs {
                    // Entries for one destination are consecutive, so
                    // each run accumulates in a register (seeded from
                    // the partial sum so the addition chain — and
                    // therefore every bit — matches the per-vertex pull
                    // order) instead of bouncing through an
                    // accumulator store per edge.
                    let mut i = 0;
                    while i < seg.len() {
                        let local = seg[i].0 as usize;
                        let mut a = acc[local];
                        while i < seg.len() && seg[i].0 as usize == local {
                            a += window[seg[i].1 as usize];
                            i += 1;
                        }
                        acc[local] = a;
                    }
                } else {
                    for &(local, u) in seg {
                        acc[local as usize] += window[u as usize];
                    }
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = base + damping * a;
            }
        });
        residual = (0..n).map(|v| (new_rank[v] - rank[v]).abs()).sum();
        rank = new_rank;
        iters += 1;
    }
    // Per sweep: every in-edge pulled once — the in-row adjacency bytes
    // (4/entry plain, the encoded length compressed) plus ~12 bytes of
    // rank math — and every vertex read + written (~24 bytes, ~4 ops).
    let sweeps = iters as u64;
    let in_adj_bytes: u64 = (0..n as VertexId).map(|v| g.in_row_bytes(v)).sum();
    ctx.counters.flush(
        sweeps * (2 * m + 4 * nv),
        sweeps * (in_adj_bytes + 12 * m + 24 * nv),
        sweeps * m,
    );
    PageRankResult {
        rank,
        work: iters,
        residual,
        completion,
    }
}

/// Ends (exclusive block indices, ascending, last = `weights.len()`) of
/// at most `groups` runs of consecutive blocks carrying roughly equal
/// total weight — a skewed graph packs most of its in-edges into its
/// first few destination blocks, so an equal-count split would idle
/// every thread but one.
fn balanced_cuts(weights: &[u64], groups: usize) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut cuts = Vec::with_capacity(groups);
    let mut acc = 0u64;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        let closed = cuts.len() as u64 + 1;
        if closed < groups as u64 && acc * groups as u64 >= total * closed {
            cuts.push(i + 1);
        }
    }
    if cuts.last() != Some(&weights.len()) {
        cuts.push(weights.len());
    }
    cuts
}

/// Run `f(block, item)` on every per-block item, the groups delimited
/// by `cuts` concurrently and each group's blocks in order: one
/// `rayon::join` level per group, so a pool of T threads runs T
/// cache-blocked serial passes rather than a task per block evicting
/// each other's L1/L2-resident working sets. `base` is the block index
/// of `items[0]`.
fn par_blocks<I: Send>(
    items: &mut [I],
    base: usize,
    cuts: &[usize],
    f: &(impl Fn(usize, &mut I) + Sync),
) {
    let run = |items: &mut [I], base: usize| {
        for (i, item) in items.iter_mut().enumerate() {
            f(base + i, item);
        }
    };
    match cuts {
        [] | [_] => run(items, base),
        [cut, rest @ ..] => {
            let (head, tail) = items.split_at_mut(cut - base);
            rayon::join(|| run(head, base), || par_blocks(tail, *cut, rest, f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::{gen, CompressedCsr, CsrBuilder, CsrGraph};

    fn with_reverse(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        CsrBuilder::new(n)
            .edges(edges.iter().copied())
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build()
    }

    #[test]
    fn ranks_sum_to_one() {
        let edges = gen::erdos_renyi(100, 400, 3);
        let g = with_reverse(100, &edges);
        let r = pagerank(&g, 0.85, 1e-10, 200);
        let sum: f64 = r.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn uniform_on_ring() {
        let g = with_reverse(10, &gen::ring(10));
        let r = pagerank(&g, 0.85, 1e-12, 500);
        for &x in &r.rank {
            assert!((x - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn star_center_dominates() {
        // Leaves point at the center.
        let edges: Vec<_> = (1..20u32).map(|v| (v, 0)).collect();
        let g = with_reverse(20, &edges);
        let r = pagerank(&g, 0.85, 1e-10, 200);
        let top = r.top_k(1);
        assert_eq!(top[0].0, 0);
        // With d=0.85 and the center's rank redistributed as dangling
        // mass, the fixed point puts ~0.47 on the center.
        assert!(top[0].1 > 0.4);
    }

    #[test]
    fn dangling_mass_conserved() {
        // 0 -> 1, 1 dangling.
        let g = with_reverse(3, &[(0, 1)]);
        let r = pagerank(&g, 0.85, 1e-12, 500);
        let sum: f64 = r.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.rank[1] > r.rank[0]);
    }

    /// The reference: one addition per in-edge in `in_neighbors` order,
    /// one division per edge, nothing hoisted or blocked.
    fn naive_pull(g: &CsrGraph, damping: f64, tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
        let n = g.num_vertices();
        let inv_n = 1.0 / n as f64;
        let mut rank = vec![inv_n; n];
        let (mut iters, mut residual) = (0, f64::INFINITY);
        while iters < max_iters && residual > tol {
            let dangling: f64 = g
                .vertices()
                .filter(|&v| g.degree(v) == 0)
                .map(|v| rank[v as usize])
                .sum();
            let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
            let new: Vec<f64> = g
                .vertices()
                .map(|v| {
                    let pulled = g
                        .in_neighbors(v)
                        .iter()
                        .fold(0.0, |acc, &u| acc + rank[u as usize] / g.degree(u) as f64);
                    base + damping * pulled
                })
                .collect();
            residual = (0..n).map(|v| (new[v] - rank[v]).abs()).sum();
            rank = new;
            iters += 1;
        }
        (rank, iters)
    }

    #[test]
    fn engine_is_bit_identical_to_naive_pull() {
        let rmat = CsrBuilder::new(1 << 11)
            .edges(gen::rmat(11, 10 << 11, gen::RmatParams::GRAPH500, 9))
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        // Flat degrees (register-run loop off) with dangling vertices.
        let uniform = with_reverse(300, &gen::erdos_renyi(300, 900, 5));
        // A ring plus a 200-in-degree hub: the register-run loop on.
        let mut hub_edges = gen::ring(400);
        hub_edges.extend((1..=200u32).map(|v| (v, 0)));
        let hub = with_reverse(400, &hub_edges);
        assert!(hub.vertices().map(|v| hub.in_degree(v)).max() >= Some(128));
        assert!(uniform.vertices().map(|v| uniform.in_degree(v)).max() < Some(128));
        // tol 0 pins the sweep count (the bench protocol); 1e-10 lets
        // convergence decide, so `work` is compared too.
        for g in [&rmat, &uniform, &hub] {
            for (tol, max_iters) in [(0.0, 20), (1e-10, 300)] {
                let (rank, iters) = naive_pull(g, 0.85, tol, max_iters);
                for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                    let r = pagerank_with(g, 0.85, tol, max_iters, &ctx);
                    assert_eq!(r.work, iters);
                    assert_eq!(r.rank, rank, "ranks must match the naive pull exactly");
                }
            }
        }
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let edges = gen::rmat(10, 10 << 10, gen::RmatParams::GRAPH500, 4);
        let g = CsrBuilder::new(1 << 10)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        let c = CompressedCsr::from_csr(&g);
        let plain = pagerank(&g, 0.85, 1e-10, 100);
        let comp = pagerank(&c, 0.85, 1e-10, 100);
        assert_eq!(plain.work, comp.work);
        assert_eq!(plain.rank, comp.rank);
        // Compressed runs book fewer mem bytes for the same sweeps.
        let (pc, cc) = (KernelCtx::serial(), KernelCtx::serial());
        pagerank_with(&g, 0.85, 1e-10, 100, &pc);
        pagerank_with(&c, 0.85, 1e-10, 100, &cc);
        let (ps, cs) = (pc.snapshot(), cc.snapshot());
        assert_eq!(ps.cpu_ops, cs.cpu_ops);
        assert!(
            cs.mem_bytes < ps.mem_bytes,
            "compressed must book fewer bytes: {} vs {}",
            cs.mem_bytes,
            ps.mem_bytes
        );
    }

    #[test]
    fn top_k_ordering() {
        let r = PageRankResult {
            rank: vec![0.1, 0.4, 0.4, 0.1],
            work: 0,
            residual: 0.0,
            completion: Completion::Complete,
        };
        assert_eq!(r.top_k(3), vec![(1, 0.4), (2, 0.4), (0, 0.1)]);
        // Any `k` past the rank count returns every rank, as a full sort.
        let all = vec![(1, 0.4), (2, 0.4), (0, 0.1), (3, 0.1)];
        assert_eq!(r.top_k(usize::MAX), all);
        // A NaN rank takes its `total_cmp` place instead of panicking.
        let r = PageRankResult {
            rank: vec![0.5, f64::NAN, 0.5],
            ..r
        };
        assert_eq!(r.top_k(1)[0].0, 1);
    }

    #[test]
    fn op_budget_stops_power_iteration_at_completed_sweep() {
        use crate::ctx::Budget;
        let edges = gen::erdos_renyi(200, 1200, 7);
        let g = with_reverse(200, &edges);
        let free = pagerank(&g, 0.85, 1e-12, 200);
        assert_eq!(free.completion, Completion::Complete);
        // Budget allows exactly two sweeps' worth of ops.
        let per_sweep = 2 * g.num_edges() as u64 + 4 * 200;
        let mut ctx = KernelCtx::serial();
        ctx.budget = Budget::ops(2 * per_sweep);
        let partial = pagerank_with(&g, 0.85, 1e-12, 200, &ctx);
        assert_eq!(partial.completion, Completion::OpBudgetExhausted);
        assert_eq!(partial.work, 2, "stops after the last affordable sweep");
        assert!(partial.work < free.work, "budget must cut iterations");
        let sum: f64 = partial.rank.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "partial ranks still a distribution"
        );
        assert!(ctx.budget.hits() >= 1);
        // Counters reflect the sweeps actually executed, not max_iters.
        let snap = ctx.snapshot();
        assert!(snap.cpu_ops > 0 && snap.cpu_ops < 400 * per_sweep);
    }

    #[test]
    fn zero_op_budget_runs_no_sweeps() {
        use crate::ctx::Budget;
        let g = with_reverse(10, &gen::ring(10));
        let mut ctx = KernelCtx::serial();
        ctx.budget = Budget::ops(0);
        let r = pagerank_with(&g, 0.85, 1e-12, 100, &ctx);
        // check() runs before each sweep with ops-spent-so-far = 0,
        // which already meets a zero limit: no sweeps run, uniform rank.
        assert_eq!(r.work, 0);
        assert_eq!(r.completion, Completion::OpBudgetExhausted);
        for &x in &r.rank {
            assert!((x - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph() {
        let g = with_reverse(0, &[]);
        let r = pagerank(&g, 0.85, 1e-6, 10);
        assert!(r.rank.is_empty());
    }
}

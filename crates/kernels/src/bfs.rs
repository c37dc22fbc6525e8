//! Breadth-first search — the Graph500 kernel and the paper's canonical
//! connectedness primitive (Fig. 1 row "BFS").
//!
//! One engine, [`bfs_with`]: Beamer's direction-optimizing BFS (GAP's
//! reference) for every [`crate::Parallelism`] and [`Adjacency`]; the
//! queue BFS [`bfs`] is its reference. Parents follow one rule:
//! `parent[v]` is the smallest `u` with an edge `u -> v` and
//! `depth[u] + 1 == depth[v]`, so a [`BfsResult`] is a function of the
//! graph and the source alone — bit-identical across `Parallelism`, pool
//! width, representation and direction switches. Fig. 1's streaming
//! O(1)-event variant is `depth[target]` after the sweep.

use crate::ctx::{prefix_bytes, Completion, KernelCtx};
use crate::UNREACHED;
use ga_graph::{Adjacency, VertexId};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// GAP's top-down to bottom-up switch: step bottom-up once the
/// frontier's out-edges exceed the unexplored edges over `ALPHA`.
const ALPHA: u64 = 15;

/// GAP's bottom-up to top-down switch: step top-down again once the
/// frontier shrinks and holds at most `n / BETA` vertices.
const BETA: usize = 18;

/// Output of a BFS sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BfsResult {
    /// `depth[v]` = hops from the source, [`UNREACHED`] if unreachable.
    pub depth: Vec<u32>,
    /// `parent[v]` = BFS-tree parent; source's parent is itself;
    /// `UNREACHED` (as id) for unreachable vertices.
    pub parent: Vec<VertexId>,
    /// Vertices reached (including the source).
    pub reached: usize,
    /// Whether the sweep covered everything reachable or stopped at the
    /// context's budget. A partial result reports the levels covered so
    /// far: every vertex with a finite depth has a valid BFS-tree
    /// parent, but `UNREACHED` vertices may merely be not-yet-visited.
    pub completion: Completion,
}

impl BfsResult {
    /// Validate against `g` (Graph500's result check): the source is
    /// rooted at depth 0, each reached vertex's parent edge exists and
    /// its depth is its parent's plus one, and unreached vertices carry
    /// no parent. A [`Completion::Complete`] result must also be closed:
    /// every edge `u -> v` out of a reached `u` has `v` reached with
    /// `depth[v] <= depth[u] + 1`, so a sweep that stopped early fails.
    pub fn validate<G: Adjacency>(&self, g: &G, src: VertexId) -> Result<(), String> {
        if self.depth[src as usize] != 0 || self.parent[src as usize] != src {
            return Err("source not rooted at depth 0".into());
        }
        let complete = self.completion == Completion::Complete;
        let mut parent_edge = vec![false; g.num_vertices()];
        for u in 0..g.num_vertices() as VertexId {
            let du = self.depth[u as usize];
            for v in g.neighbors(u) {
                parent_edge[v as usize] |= self.parent[v as usize] == u;
                if complete && du != UNREACHED && self.depth[v as usize] > du + 1 {
                    return Err(format!("edge {u}->{v} leaves the search at depth {du}"));
                }
            }
        }
        for (v, &edge) in parent_edge.iter().enumerate() {
            let (d, p) = (self.depth[v], self.parent[v]);
            let dp = self.depth.get(p as usize).copied().unwrap_or(UNREACHED);
            let ok = match d {
                UNREACHED => p == UNREACHED,
                _ => v == src as usize || (edge && dp != UNREACHED && dp + 1 == d),
            };
            if !ok {
                return Err(format!("vertex {v}: depth {d}, parent {p}: no tree edge"));
            }
        }
        Ok(())
    }
}

/// Top-down queue BFS from `src`, without budget or counters. A vertex
/// discovered again within its level keeps the smaller parent, so the
/// parents follow the module's rule.
pub fn bfs<G: Adjacency>(g: &G, src: VertexId) -> BfsResult {
    let n = g.num_vertices();
    let mut depth = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED as VertexId; n];
    depth[src as usize] = 0;
    parent[src as usize] = src;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let d = depth[u as usize] + 1;
        for v in g.neighbors(u) {
            let v = v as usize;
            if depth[v] == UNREACHED {
                depth[v] = d;
                parent[v] = u;
                q.push_back(v as VertexId);
            } else if depth[v] == d && u < parent[v] {
                parent[v] = u;
            }
        }
    }
    BfsResult {
        reached: depth.iter().filter(|&&d| d != UNREACHED).count(),
        depth,
        parent,
        completion: Completion::Complete,
    }
}

/// What a sweep read: adjacency entries, their bytes in the graph's
/// representation, and the vertices it claimed.
#[derive(Clone, Copy, Default)]
struct Read {
    edges: u64,
    adj_bytes: u64,
    claimed: u64,
}

impl Read {
    /// Op estimate: an id load and a depth check per entry, and the
    /// depth, parent and frontier writes per claimed vertex.
    fn ops(&self) -> u64 {
        2 * self.edges + 3 * self.claimed
    }

    fn add(self, o: Read) -> Read {
        Read {
            edges: self.edges + o.edges,
            adj_bytes: self.adj_bytes + o.adj_bytes,
            claimed: self.claimed + o.claimed,
        }
    }
}

/// BFS from `src`: the one engine, for every [`crate::Parallelism`].
///
/// Beamer's direction-optimizing walk with GAP's switch rule: a level
/// steps bottom-up once the frontier's out-edges exceed the unexplored
/// edges over `ALPHA` (15), and top-down again once the frontier
/// shrinks to at most `n / BETA` (18) vertices; without a reverse index
/// every step is top-down. Top-down steps run serially (the rule keeps
/// them small); bottom-up steps run one 64-vertex block closure in a
/// serial loop or on the pool, per the context's `Parallelism`. The
/// budget is consulted at each level boundary (a stop returns the
/// levels covered so far), and the counters book what was read.
pub fn bfs_with<G: Adjacency>(g: &G, src: VertexId, ctx: &KernelCtx) -> BfsResult {
    let n = g.num_vertices();
    let parallel = ctx.parallelism.use_parallel(g.num_edges());
    // The tree is atomic so that bottom-up blocks on the pool can write
    // their own vertices' slots. Relaxed suffices: no slot is written by
    // two blocks, no block's outcome depends on another's writes in the
    // same step, and the pool's join orders each step before the next.
    let unreached = || {
        (0..n)
            .map(|_| AtomicU32::new(UNREACHED))
            .collect::<Vec<_>>()
    };
    let (depth, parent) = (unreached(), unreached());
    let at = |v: VertexId| depth[v as usize].load(Relaxed);
    let claim = |v: VertexId, u: VertexId, d: u32| {
        depth[v as usize].store(d, Relaxed);
        parent[v as usize].store(u, Relaxed);
    };
    // Bottom-up block `b` at `level`: each of its unvisited vertices
    // scans its in-row for a vertex at `level` and stops at the first.
    // In-rows are sorted, so that is the smallest: the parent rule.
    // Another block can only move a depth from unreached to `level + 1`,
    // which never changes a hit, so blocks run in any order, on any
    // thread. It books the in-row prefixes it read.
    let block = |b: usize, level: u32| {
        let mut read = Read::default();
        for v in (64 * b..(64 * b + 64).min(n)).map(|v| v as VertexId) {
            if at(v) != UNREACHED {
                continue;
            }
            let mut k = 0;
            for u in g.in_neighbors(v) {
                k += 1;
                if at(u) == level {
                    claim(v, u, level + 1);
                    read.claimed += 1;
                    break;
                }
            }
            read.edges += k as u64;
            read.adj_bytes += prefix_bytes(g.in_row_bytes(v), g.in_degree(v), k);
        }
        read
    };
    claim(src, src, 0);
    let mut read = Read {
        claimed: 1,
        ..Read::default()
    };
    // The frontier is `queue` while stepping top-down, and the vertices
    // at depth `level` while stepping bottom-up.
    let mut queue = vec![src];
    let (mut bottom_up, mut awake, mut prev_awake) = (false, 1, 0);
    let (mut scout, mut unexplored) = (g.degree(src) as u64, g.num_edges() as u64);
    let mut completion = Completion::Complete;
    let mut level = 0;
    while awake > 0 {
        completion = ctx.budget.check(read.ops());
        if completion.is_partial() {
            break;
        }
        if bottom_up && awake < prev_awake && awake <= n / BETA {
            bottom_up = false;
            queue = (0..n as VertexId).filter(|&v| at(v) == level).collect();
        } else if !bottom_up && g.has_reverse() && scout * ALPHA > unexplored {
            bottom_up = true;
        }
        let blocks = 0..n.div_ceil(64);
        let step = if bottom_up && parallel {
            let blocks = blocks.into_par_iter();
            blocks
                .map(|b| block(b, level))
                .reduce(Read::default, Read::add)
        } else if bottom_up {
            blocks
                .map(|b| block(b, level))
                .fold(Read::default(), Read::add)
        } else {
            // Top-down: each frontier vertex reads its whole out-row and
            // claims the unvisited targets. A target claimed earlier in
            // the step keeps the smaller parent, so the rule holds in
            // any frontier order.
            let (mut step, mut next) = (Read::default(), Vec::new());
            for &u in &queue {
                step.edges += g.degree(u) as u64;
                step.adj_bytes += g.row_bytes(u);
                for v in g.neighbors(u) {
                    let (d, p) = (at(v), &parent[v as usize]);
                    if d == UNREACHED {
                        claim(v, u, level + 1);
                        next.push(v);
                    } else if d == level + 1 && u < p.load(Relaxed) {
                        p.store(u, Relaxed);
                    }
                }
            }
            step.claimed = next.len() as u64;
            scout = next.iter().map(|&v| g.degree(v) as u64).sum();
            unexplored = unexplored.saturating_sub(step.edges);
            queue = next;
            step
        };
        (prev_awake, awake) = (awake, step.claimed as usize);
        read = read.add(step);
        level += 1;
    }
    // Per entry: an id load (the representation's adjacency bytes) and
    // a depth check (~8 bytes); per claimed vertex: the depth, parent
    // and frontier writes (~16 bytes).
    let bytes = read.adj_bytes + 8 * read.edges + 16 * read.claimed;
    ctx.counters.flush(read.ops(), bytes, read.edges);
    let into = |v: Vec<AtomicU32>| v.into_iter().map(AtomicU32::into_inner).collect();
    BfsResult {
        depth: into(depth),
        parent: into(parent),
        reached: read.claimed as usize,
        completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, Parallelism};
    use ga_graph::{gen, CompressedCsr, CsrBuilder, CsrGraph, TierConfig, TieredCsr};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn rmat_graph(scale: u32) -> CsrGraph {
        let edges = gen::rmat(scale, (1usize << scale) * 8, gen::RmatParams::GRAPH500, 5);
        CsrBuilder::new(1 << scale)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build()
    }

    #[test]
    fn depths_on_path() {
        let g = CsrGraph::from_edges_undirected(5, &gen::path(5));
        let r = bfs(&g, 0);
        assert_eq!(r.depth, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.reached, 5);
        r.validate(&g, 0).unwrap();
    }

    #[test]
    fn unreachable_marked() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.depth[2], UNREACHED);
        assert_eq!(r.parent[3], UNREACHED as VertexId);
        assert_eq!(r.reached, 2);
        r.validate(&g, 0).unwrap();
        for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            assert_eq!(bfs_with(&g, 0, &ctx), r);
        }
    }

    #[test]
    fn directed_respects_direction() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let r = bfs(&g, 0);
        assert_eq!(r.depth[1], 1);
        assert_eq!(r.depth[2], UNREACHED);
    }

    #[test]
    fn engine_matches_reference() {
        let g = rmat_graph(9);
        let c = CompressedCsr::from_csr(&g);
        for &src in &[0u32, 7, 100] {
            let want = bfs(&g, src);
            want.validate(&g, src).unwrap();
            for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                assert_eq!(bfs_with(&g, src, &ctx), want, "src={src}");
                assert_eq!(bfs_with(&c, src, &ctx), want, "compressed src={src}");
            }
        }
    }

    #[test]
    fn hybrid_switches_bottom_up_on_star() {
        // Star from the center: after level 0 the frontier holds every
        // edge. Bottom-up, each leaf finds the center first in its
        // in-row (63 entries in all); top-down re-reads every leaf's row.
        let edges = gen::star(64);
        for (reverse, read) in [(true, 63), (false, 126)] {
            let g = CsrBuilder::new(64)
                .edges(edges.iter().copied())
                .symmetrize(true)
                .reverse(reverse)
                .build();
            let ctx = KernelCtx::serial();
            let r = bfs_with(&g, 0, &ctx);
            assert_eq!(r.reached, 64);
            assert!(r.depth.iter().all(|&d| d <= 1));
            r.validate(&g, 0).unwrap();
            assert_eq!(ctx.snapshot().edges_touched, read, "reverse={reverse}");
        }
    }

    #[test]
    fn validate_catches_corruption() {
        let g = CsrGraph::from_edges_undirected(4, &gen::path(4));
        let mut r = bfs(&g, 0);
        r.depth[3] = 9;
        assert!(r.validate(&g, 0).is_err());
    }

    #[test]
    fn validate_rejects_a_complete_result_truncated_to_the_source() {
        let g = CsrGraph::from_edges_undirected(4, &gen::path(4));
        let mut r = bfs(&g, 0);
        for v in 1..4 {
            r.depth[v] = UNREACHED;
            r.parent[v] = UNREACHED;
        }
        r.reached = 1;
        assert!(r.validate(&g, 0).is_err(), "a sweep that stopped early");
        // The same tree is a valid partial result.
        r.completion = Completion::OpBudgetExhausted;
        r.validate(&g, 0).unwrap();
    }

    #[test]
    fn op_budget_yields_covered_levels() {
        let g = rmat_graph(11);
        let full = bfs(&g, 0);
        let ctx = KernelCtx::serial();
        assert_eq!(bfs_with(&g, 0, &ctx), full);
        let spent = ctx.snapshot().cpu_ops;
        for mode in [Parallelism::Serial, Parallelism::Parallel] {
            // Half the full sweep's ops stops it at a level boundary.
            let run = || {
                let mut ctx = KernelCtx::new(mode);
                ctx.budget = Budget::ops(spent / 2);
                bfs_with(&g, 0, &ctx)
            };
            let partial = run();
            assert_eq!(partial.completion, Completion::OpBudgetExhausted);
            assert!(partial.reached > 1 && partial.reached < full.reached);
            // Covered levels are whole, and still a valid BFS tree.
            let last = partial.depth.iter().filter(|&&d| d != UNREACHED).max();
            for v in 0..g.num_vertices() {
                if full.depth[v] <= *last.unwrap() {
                    assert_eq!(partial.depth[v], full.depth[v], "vertex {v}");
                    assert_eq!(partial.parent[v], full.parent[v], "vertex {v}");
                }
            }
            partial.validate(&g, 0).unwrap();
            // Determinism: the same budget stops at the same place.
            assert_eq!(run(), partial);
        }
    }

    #[test]
    fn budget_stops_at_level_boundary() {
        let g = rmat_graph(10);
        for mut ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            ctx.budget = Budget::ops(1);
            let partial = bfs_with(&g, 0, &ctx);
            assert_eq!(partial.completion, Completion::OpBudgetExhausted);
            // Only the source's level is covered.
            assert_eq!(partial.reached, 1);
            partial.validate(&g, 0).unwrap();
        }
    }

    #[test]
    fn single_vertex() {
        let g = CsrGraph::from_edges(1, &[]);
        let r = bfs(&g, 0);
        assert_eq!(r.reached, 1);
        assert_eq!(r.depth, vec![0]);
        assert_eq!(bfs_with(&g, 0, &KernelCtx::parallel()), r);
    }

    /// `parent[v] = min{u : u -> v, depth[u] + 1 = depth[v]}`, from the
    /// reference's depths alone.
    fn parent_rule(g: &CsrGraph, src: VertexId, depth: &[u32]) -> Vec<VertexId> {
        let mut parent = vec![UNREACHED as VertexId; g.num_vertices()];
        parent[src as usize] = src;
        for u in (0..g.num_vertices() as VertexId).rev() {
            for &v in g.neighbors(u) {
                let (du, dv) = (depth[u as usize], depth[v as usize]);
                if v != src && du != UNREACHED && du + 1 == dv {
                    parent[v as usize] = u;
                }
            }
        }
        parent
    }

    /// Runs `bfs_with` in every mode on every representation of
    /// `edges`, with and without a reverse index, and asserts that each
    /// run equals the reference, follows the parent rule, and reads as
    /// many edges as the other runs over the same index.
    fn assert_one_tree(n: usize, edges: &[(VertexId, VertexId)], src: VertexId) {
        for reverse in [false, true] {
            let g = CsrBuilder::new(n)
                .edges(edges.iter().copied())
                .reverse(reverse)
                .build();
            let want = bfs(&g, src);
            assert_eq!(want.parent, parent_rule(&g, src, &want.depth));
            want.validate(&g, src).unwrap();
            let g = Arc::new(g);
            let dir = std::env::temp_dir().join(format!(
                "ga-bfs-tree-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let cfg = TierConfig::new(&dir).segment_rows(16).ram_budget(1 << 10);
            let tiered = TieredCsr::spill(&g, cfg).unwrap();
            let compressed = CompressedCsr::from_csr(&g);
            let mut touched = Vec::new();
            for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                let mut check = |r: BfsResult| {
                    assert_eq!(r, want, "reverse={reverse}");
                    touched.push(ctx.take().edges_touched);
                };
                check(bfs_with(&*g, src, &ctx));
                check(bfs_with(&compressed, src, &ctx));
                check(bfs_with(&tiered, src, &ctx));
            }
            assert!(touched.iter().all(|&t| t == touched[0]), "{touched:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn first_discoverer_is_not_the_parent() {
        // Queue order meets 4 (a child of 1) before 3 (a child of 2), so
        // the first vertex to discover 5 is 4; the rule says 3.
        let edges = [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)];
        let both: Vec<_> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        assert_one_tree(6, &both, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parents_are_a_function_of_the_graph(
            (n, edges, src) in (1usize..300).prop_flat_map(|n| (
                Just(n),
                prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..6 * n),
                0..n as VertexId,
            ))
        ) {
            assert_one_tree(n, &edges, src);
        }
    }
}

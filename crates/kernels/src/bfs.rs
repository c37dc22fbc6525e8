//! Breadth-first search — the Graph500 kernel and the paper's canonical
//! connectedness primitive.
//!
//! Engines:
//! * [`bfs`] — classic top-down queue BFS,
//! * [`bfs_direction_optimizing`] — Beamer-style hybrid that switches to
//!   a bottom-up step (each unvisited vertex scans its in-neighbors for
//!   a frontier member) when the frontier grows past a fraction of the
//!   edges, the strategy GRAPH500 winners use on skewed (R-MAT) graphs.
//!   Frontiers live in the shared [`Frontier`] bitmap + sparse-list
//!   structure,
//! * [`bfs_with`] — the instrumented, budgeted entry point: the queue
//!   engine, or a level-synchronous parallel engine, per the context's
//!   [`crate::Parallelism`].
//!
//! Every engine is generic over [`Adjacency`], so it runs unchanged —
//! and bit-identically — over a plain [`CsrGraph`] or a delta-varint
//! [`ga_graph::CompressedCsr`].
//!
//! All return a [`BfsResult`] with parent pointers and depths; the
//! streaming O(1)-event variant in Fig. 1 corresponds to inspecting
//! `depth[target]` after the sweep.

use crate::ctx::{Budget, Completion, KernelCtx};
use crate::UNREACHED;
use ga_graph::par::{frontier_degree_sum, par_frontier_expand};
use ga_graph::{Adjacency, CsrGraph, Frontier, VertexId};
use std::collections::VecDeque;

/// Queue pops between budget consults in the serial engine.
const BUDGET_CHECK_POPS: usize = 1024;

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
    /// context's budget. A partial result reports the frontier covered
    /// so far: every vertex with a finite depth has a valid BFS-tree
    /// parent, but `UNREACHED` vertices may merely be not-yet-visited.
    pub completion: Completion,
}

impl BfsResult {
    /// Validate the BFS-tree invariants against `g` (Graph500-style
    /// result check): parent edges exist, depths increase by exactly one
    /// along parent links, unreachable vertices stay unmarked.
    pub fn validate(&self, g: &CsrGraph, src: VertexId) -> Result<(), String> {
        if self.depth[src as usize] != 0 || self.parent[src as usize] != src {
            return Err("source not rooted at depth 0".into());
        }
        for v in g.vertices() {
            let d = self.depth[v as usize];
            let p = self.parent[v as usize];
            if (d == UNREACHED) != (p == UNREACHED) {
                return Err(format!("vertex {v}: depth/parent disagree"));
            }
            if d == UNREACHED || v == src {
                continue;
            }
            if self.depth[p as usize] + 1 != d {
                return Err(format!("vertex {v}: depth not parent+1"));
            }
            if !g.has_edge(p, v) {
                return Err(format!("vertex {v}: parent edge {p}->{v} missing"));
            }
        }
        Ok(())
    }
}

/// Top-down queue BFS from `src`.
pub fn bfs<G: Adjacency>(g: &G, src: VertexId) -> BfsResult {
    bfs_budgeted(g, src, &Budget::unlimited())
}

/// Top-down queue BFS that consults `budget` every ~1k pops and stops
/// with a typed partial result (covered frontier so far) on exhaustion.
fn bfs_budgeted<G: Adjacency>(g: &G, src: VertexId, budget: &Budget) -> BfsResult {
    let n = g.num_vertices();
    let mut depth = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED as VertexId; n];
    let mut q = VecDeque::new();
    depth[src as usize] = 0;
    parent[src as usize] = src;
    q.push_back(src);
    let mut reached = 1usize;
    let mut completion = Completion::Complete;
    let mut pops = 0usize;
    let mut edges = 0u64;
    while let Some(u) = q.pop_front() {
        pops += 1;
        if pops.is_multiple_of(BUDGET_CHECK_POPS) {
            // Same cost formula bfs_with flushes into the counters.
            completion = budget.check(2 * edges + 3 * reached as u64);
            if completion.is_partial() {
                break;
            }
        }
        edges += g.degree(u) as u64;
        for v in g.neighbors(u) {
            if depth[v as usize] == UNREACHED {
                depth[v as usize] = depth[u as usize] + 1;
                parent[v as usize] = u;
                reached += 1;
                q.push_back(v);
            }
        }
    }
    BfsResult {
        depth,
        parent,
        reached,
        completion,
    }
}

/// Direction-optimizing BFS (Beamer): top-down while the frontier is
/// small, bottom-up once `frontier_edges > total_edges / alpha`.
///
/// The frontier's dual [`Frontier`] representation serves both modes:
/// the sparse list drives top-down expansion in discovery order, the
/// bitmap answers the bottom-up membership probes in O(1), and
/// [`Frontier::edge_sum`] feeds the switch heuristic.
///
/// `alpha` controls the switch threshold; 15 matches the GAP benchmark
/// suite default.
pub fn bfs_direction_optimizing<G: Adjacency>(g: &G, src: VertexId, alpha: usize) -> BfsResult {
    let n = g.num_vertices();
    let m = g.num_edges().max(1);
    let mut depth = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED as VertexId; n];
    depth[src as usize] = 0;
    parent[src as usize] = src;
    let mut reached = 1;
    let mut frontier = Frontier::new(n);
    frontier.insert(src);
    let mut next = Frontier::new(n);
    let mut level = 0u32;
    while !frontier.is_empty() {
        let frontier_edges = frontier.edge_sum(g) as usize;
        let bottom_up = frontier_edges * alpha > m && g.has_reverse();
        if bottom_up {
            for v in 0..n as VertexId {
                if depth[v as usize] != UNREACHED {
                    continue;
                }
                if let Some(u) = g.in_neighbors(v).find(|&u| frontier.contains(u)) {
                    depth[v as usize] = level + 1;
                    parent[v as usize] = u;
                    next.insert(v);
                    reached += 1;
                }
            }
        } else {
            for u in frontier.iter() {
                for v in g.neighbors(u) {
                    if depth[v as usize] == UNREACHED {
                        depth[v as usize] = level + 1;
                        parent[v as usize] = u;
                        next.insert(v);
                        reached += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
        level += 1;
    }
    BfsResult {
        depth,
        parent,
        reached,
        completion: Completion::Complete,
    }
}

/// Depths only, via the engine best suited to the graph (hybrid when a
/// reverse index exists, top-down otherwise).
pub fn bfs_depths<G: Adjacency>(g: &G, src: VertexId) -> Vec<u32> {
    if g.has_reverse() {
        bfs_direction_optimizing(g, src, 15).depth
    } else {
        bfs(g, src).depth
    }
}

/// Level-synchronous parallel BFS: each level's frontier is expanded
/// with rayon, vertices claimed by atomic compare-exchange on the
/// parent array (the standard shared-memory formulation; parents may
/// differ from the sequential engines but depths are identical). The
/// budget is consulted at each level boundary (the natural cancellation
/// point of a level-synchronous engine); on exhaustion the covered
/// levels are returned as a partial result.
fn bfs_parallel_budgeted<G: Adjacency>(g: &G, src: VertexId, budget: &Budget) -> BfsResult {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    let depth_atomic: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    parent[src as usize].store(src, Ordering::Relaxed);
    depth_atomic[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![src];
    let mut level = 0u32;
    let mut completion = Completion::Complete;
    let mut edges = 0u64;
    let mut claimed_total = 1u64;
    while !frontier.is_empty() {
        if budget.is_limited() {
            completion = budget.check(2 * edges + 3 * claimed_total);
            if completion.is_partial() {
                break;
            }
            edges += frontier_degree_sum(g, &frontier) as u64;
        }
        level += 1;
        frontier = par_frontier_expand(g, &frontier, |u, v| {
            // Claim v exactly once; edges into claimed vertices stop at the load.
            let slot = &parent[v as usize];
            let claimed = slot.load(Ordering::Relaxed) == UNREACHED
                && slot
                    .compare_exchange(UNREACHED, u, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            if claimed {
                depth_atomic[v as usize].store(level, Ordering::Relaxed);
            }
            claimed
        });
        claimed_total += frontier.len() as u64;
    }
    let depth: Vec<u32> = depth_atomic.into_iter().map(|d| d.into_inner()).collect();
    let parent: Vec<VertexId> = parent.into_iter().map(|p| p.into_inner()).collect();
    let reached = depth.iter().filter(|&&d| d != UNREACHED).count();
    BfsResult {
        depth,
        parent,
        reached,
        completion,
    }
}

/// Instrumented, dispatching BFS: runs the serial queue engine or the
/// level-synchronous parallel engine per the context's
/// [`crate::Parallelism`] and flushes the traversal's cost into the
/// context counters.
///
/// Depths and reach counts are identical across both engines; parallel
/// parent pointers may pick a different (equally valid) BFS tree.
pub fn bfs_with<G: Adjacency>(g: &G, src: VertexId, ctx: &KernelCtx) -> BfsResult {
    let r = if ctx.parallelism.use_parallel(g.num_edges()) {
        bfs_parallel_budgeted(g, src, &ctx.budget)
    } else {
        bfs_budgeted(g, src, &ctx.budget)
    };
    // Top-down BFS scans every out-edge of every reached vertex once.
    let (mut edges, mut adj_bytes) = (0u64, 0u64);
    for (v, _) in r.depth.iter().enumerate().filter(|&(_, &d)| d != UNREACHED) {
        edges += g.degree(v as VertexId) as u64;
        adj_bytes += g.row_bytes(v as VertexId);
    }
    let reached = r.reached as u64;
    // Per edge: one id load (the adjacency bytes actually streamed —
    // 4/entry on plain CSR, the encoded row length on compressed) plus
    // one depth check (~8 bytes, ~2 ops); per claimed vertex:
    // depth+parent+queue writes (~16 bytes, ~3 ops).
    ctx.counters.flush(
        2 * edges + 3 * reached,
        adj_bytes + 8 * edges + 16 * reached,
        edges,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::{gen, CompressedCsr, CsrBuilder};

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
    }

    #[test]
    fn directed_respects_direction() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let r = bfs(&g, 0);
        assert_eq!(r.depth[1], 1);
        assert_eq!(r.depth[2], UNREACHED);
    }

    #[test]
    fn three_engines_agree_on_depths() {
        let g = rmat_graph(9);
        for &src in &[0u32, 7, 100] {
            let a = bfs(&g, src);
            let b = bfs_with(&g, src, &KernelCtx::parallel());
            let c = bfs_direction_optimizing(&g, src, 15);
            assert_eq!(a.depth, b.depth, "parallel mismatch src={src}");
            assert_eq!(a.depth, c.depth, "hybrid mismatch src={src}");
            assert_eq!(a.reached, c.reached);
            a.validate(&g, src).unwrap();
            b.validate(&g, src).unwrap();
            c.validate(&g, src).unwrap();
        }
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let g = rmat_graph(9);
        let c = CompressedCsr::from_csr(&g);
        for &src in &[0u32, 7, 100] {
            let plain = bfs_direction_optimizing(&g, src, 15);
            let comp = bfs_direction_optimizing(&c, src, 15);
            assert_eq!(plain.depth, comp.depth, "src={src}");
            assert_eq!(plain.parent, comp.parent, "src={src}");
            assert_eq!(bfs(&g, src).parent, bfs(&c, src).parent);
        }
    }

    #[test]
    fn hybrid_switches_bottom_up_on_star() {
        // Star from center: frontier after level 0 is all leaves.
        let g = CsrBuilder::new(64)
            .edges(gen::star(64))
            .symmetrize(true)
            .reverse(true)
            .build();
        let r = bfs_direction_optimizing(&g, 0, 1);
        assert_eq!(r.reached, 64);
        assert!(r.depth.iter().all(|&d| d <= 1));
        r.validate(&g, 0).unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let g = CsrGraph::from_edges_undirected(4, &gen::path(4));
        let mut r = bfs(&g, 0);
        r.depth[3] = 9;
        assert!(r.validate(&g, 0).is_err());
    }

    #[test]
    fn op_budget_yields_covered_frontier() {
        let g = rmat_graph(11);
        let full = bfs(&g, 0);
        assert_eq!(full.completion, Completion::Complete);
        // A tiny op budget trips at the first consult (1024 pops in).
        let b = Budget::ops(1);
        let partial = bfs_budgeted(&g, 0, &b);
        assert_eq!(partial.completion, Completion::OpBudgetExhausted);
        assert!(partial.reached < full.reached, "budget must cut coverage");
        assert!(partial.reached >= 1024, "covered frontier before the stop");
        // The covered portion is still a valid BFS tree.
        partial.validate(&g, 0).unwrap();
        // Determinism: the serial engine stops at the same place.
        let again = bfs_budgeted(&g, 0, &Budget::ops(1));
        assert_eq!(partial.depth, again.depth);
        assert_eq!(partial.reached, again.reached);
    }

    #[test]
    fn parallel_budget_stops_at_level_boundary() {
        let g = rmat_graph(10);
        let b = Budget::ops(1);
        let partial = bfs_parallel_budgeted(&g, 0, &b);
        assert_eq!(partial.completion, Completion::OpBudgetExhausted);
        // Level-synchronous stop: only the source's level is covered.
        assert_eq!(partial.reached, 1);
        partial.validate(&g, 0).unwrap();
    }

    #[test]
    fn single_vertex() {
        let g = CsrGraph::from_edges(1, &[]);
        let r = bfs(&g, 0);
        assert_eq!(r.reached, 1);
        assert_eq!(r.depth, vec![0]);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use ga_graph::gen;

    #[test]
    fn parallel_matches_sequential_depths() {
        let edges = gen::rmat(10, 8 << 10, gen::RmatParams::GRAPH500, 6);
        let g = CsrGraph::from_edges_undirected(1 << 10, &edges);
        for &src in &[0u32, 5, 99] {
            let seq = bfs(&g, src);
            let par = bfs_with(&g, src, &KernelCtx::parallel());
            assert_eq!(seq.depth, par.depth, "src {src}");
            assert_eq!(seq.reached, par.reached);
            par.validate(&g, src).unwrap();
        }
    }

    #[test]
    fn parallel_on_disconnected() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let r = bfs_with(&g, 0, &KernelCtx::parallel());
        assert_eq!(r.reached, 2);
        assert_eq!(r.depth[3], UNREACHED);
    }
}

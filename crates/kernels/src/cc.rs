//! Weakly connected components (Fig. 1 row "CCW"; "CCS" is survey-only).
//!
//! [`wcc_union_find`] (sequential DSU, deterministic labels) and
//! [`wcc_label_prop`] (iterative min-label propagation, the
//! Pregel/parallel formulation — rayon-parallel hook point).
//!
//! All return a label vector where `label[v]` identifies v's component;
//! labels are normalized to the minimum vertex id in the component so
//! independent algorithms can be compared bit-for-bit.

use crate::ctx::{Budget, KernelCtx};
use crate::UnionFind;
use ga_graph::{Adjacency, Frontier, VertexId};
use rayon::prelude::*;

/// Component labelling.
#[derive(Clone, Debug, PartialEq)]
pub struct Components {
    /// `label[v]` = min vertex id in v's component.
    pub label: Vec<VertexId>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Size of each component keyed by label.
    pub fn sizes(&self) -> Vec<(VertexId, usize)> {
        let mut counts: std::collections::BTreeMap<VertexId, usize> = Default::default();
        for &l in &self.label {
            *counts.entry(l).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// The label of the largest component (ties: smaller label).
    pub fn largest(&self) -> Option<(VertexId, usize)> {
        self.sizes()
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Members of component `label`, sorted.
    pub fn members(&self, label: VertexId) -> Vec<VertexId> {
        self.label
            .iter()
            .enumerate()
            .filter_map(|(v, &l)| (l == label).then_some(v as VertexId))
            .collect()
    }
}

fn normalize(mut label: Vec<VertexId>) -> Components {
    // Map every label to the min vertex id in its class.
    let n = label.len();
    let mut min_of: Vec<VertexId> = (0..n as VertexId).collect();
    for (v, &l) in label.iter().enumerate() {
        if (v as VertexId) < min_of[l as usize] {
            min_of[l as usize] = v as VertexId;
        }
    }
    let mut seen = vec![false; n];
    let mut count = 0;
    for v in 0..n {
        label[v] = min_of[label[v] as usize];
        if !seen[label[v] as usize] {
            seen[label[v] as usize] = true;
            count += 1;
        }
    }
    Components { label, count }
}

/// WCC by union-find; edge direction ignored.
pub fn wcc_union_find<G: Adjacency>(g: &G) -> Components {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for u in 0..n as VertexId {
        for v in g.neighbors(u) {
            uf.union(u, v);
        }
    }
    let label = uf.labels();
    let count = uf.num_sets();
    Components { label, count }
}

/// WCC by iterative min-label propagation (needs symmetric edges to
/// converge to true WCC on directed inputs; pass an undirected snapshot
/// or a graph with a reverse index).
pub fn wcc_label_prop<G: Adjacency>(g: &G) -> Components {
    normalize(label_prop_serial(g, &Budget::unlimited()).0)
}

/// Per-sweep cost of label propagation — the formula `wcc_with` flushes
/// into the counters and the budget checks consult.
fn sweep_cost<G: Adjacency>(g: &G) -> u64 {
    let m = g.num_edges() as u64 * if g.has_reverse() { 2 } else { 1 };
    2 * m + g.num_vertices() as u64
}

/// Activate everyone who reads `u`'s label next sweep: out-neighbors
/// plus in-neighbors (when a reverse index exists; without one, label
/// propagation already requires symmetric edges, so out covers both).
fn activate_readers<G: Adjacency>(g: &G, u: VertexId, next: &mut Frontier) {
    for v in g.neighbors(u) {
        next.insert(v);
    }
    if g.has_reverse() {
        for v in g.in_neighbors(u) {
            next.insert(v);
        }
    }
}

/// Serial Gauss–Seidel min-label sweeps; returns raw labels and sweep
/// count. Consults `budget` at sweep boundaries: a budget stop leaves a
/// valid coarser partition (labels propagated as far as the completed
/// sweeps reached). Sweeps after the first run over a [`Frontier`] of
/// *affected* vertices — those adjacent to a label that changed last
/// sweep — instead of rescanning the whole graph; vertices outside the
/// set provably cannot improve, so the fixpoint is unchanged.
fn label_prop_serial<G: Adjacency>(g: &G, budget: &Budget) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    let cost = sweep_cost(g);
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut sweeps = 0;
    let mut active = Frontier::new(n);
    let mut next_active = Frontier::new(n);
    for v in 0..n as VertexId {
        active.insert(v);
    }
    while !active.is_empty() {
        if budget.check(sweeps as u64 * cost).is_partial() {
            break;
        }
        sweeps += 1;
        next_active.clear();
        for u in active.iter_ascending() {
            let mut best = label[u as usize];
            for v in g.neighbors(u) {
                best = best.min(label[v as usize]);
            }
            if g.has_reverse() {
                for v in g.in_neighbors(u) {
                    best = best.min(label[v as usize]);
                }
            }
            if best < label[u as usize] {
                label[u as usize] = best;
                activate_readers(g, u, &mut next_active);
            }
        }
        std::mem::swap(&mut active, &mut next_active);
    }
    (label, sweeps)
}

/// Parallel Jacobi min-label sweeps (every vertex reads the previous
/// sweep's labels, all vertices update concurrently); returns raw labels
/// and sweep count. Takes more sweeps than the Gauss–Seidel serial
/// engine but converges to the same unique fixpoint — `label[v]` = min
/// vertex id in v's component — so after `normalize` the labels are
/// bit-identical to [`wcc_label_prop`]'s. Budget handling mirrors
/// [`label_prop_serial`].
///
/// Sweeps after the first scan only the [`Frontier`] of affected
/// vertices, split by degree sum across the pool. An inactive vertex's
/// neighborhood is unchanged since it last settled, so its full-Jacobi
/// update would be a no-op: per-sweep labels — and therefore the sweep
/// count — are identical to the dense formulation's.
fn label_prop_parallel<G: Adjacency>(g: &G, budget: &Budget) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    let cost = sweep_cost(g);
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut sweeps = 0;
    let mut active = Frontier::new(n);
    let mut next_active = Frontier::new(n);
    for v in 0..n as VertexId {
        active.insert(v);
    }
    while !active.is_empty() {
        if budget.check(sweeps as u64 * cost).is_partial() {
            break;
        }
        sweeps += 1;
        // Gather improving updates against the previous sweep's labels
        // (reads only), then commit serially.
        let chunks = active.degree_chunks(g, rayon::current_num_threads() * 4);
        let updates: Vec<(VertexId, VertexId)> = chunks
            .par_iter()
            .flat_map_iter(|&(s, e)| {
                active.as_slice()[s..e].iter().filter_map(|&u| {
                    let mut best = label[u as usize];
                    for v in g.neighbors(u) {
                        best = best.min(label[v as usize]);
                    }
                    if g.has_reverse() {
                        for v in g.in_neighbors(u) {
                            best = best.min(label[v as usize]);
                        }
                    }
                    (best < label[u as usize]).then_some((u, best))
                })
            })
            .collect();
        next_active.clear();
        for &(u, l) in &updates {
            label[u as usize] = l;
        }
        for &(u, _) in &updates {
            activate_readers(g, u, &mut next_active);
        }
        std::mem::swap(&mut active, &mut next_active);
    }
    (label, sweeps)
}

/// Instrumented, dispatching WCC: runs serial Gauss–Seidel or parallel
/// Jacobi label propagation per the context's [`crate::Parallelism`] and
/// flushes the propagation's cost into the context counters. Labels
/// are identical across both engines (and match [`wcc_union_find`] on
/// symmetric graphs).
pub fn wcc_with<G: Adjacency>(g: &G, ctx: &KernelCtx) -> Components {
    let (label, sweeps) = if ctx.parallelism.use_parallel(g.num_edges()) {
        label_prop_parallel(g, &ctx.budget)
    } else {
        label_prop_serial(g, &ctx.budget)
    };
    // Each sweep scans every out-row (both directions when a reverse
    // index exists) — charged at the representation's actual adjacency
    // bytes — plus one label load + min (~2 ops, 4 bytes) per edge and a
    // label read/write (~16 bytes) per vertex. Dense-sweep upper bound:
    // frontier'd sweeps touch a subset.
    let nv = g.num_vertices() as u64;
    let m = g.num_edges() as u64 * if g.has_reverse() { 2 } else { 1 };
    let adj_bytes: u64 = (0..nv as VertexId)
        .map(|v| {
            g.row_bytes(v)
                + if g.has_reverse() {
                    g.in_row_bytes(v)
                } else {
                    0
                }
        })
        .sum();
    let s = sweeps as u64;
    ctx.counters
        .flush(s * (2 * m + nv), s * (adj_bytes + 4 * m + 16 * nv), s * m);
    normalize(label)
}

/// Number of initial out-neighbors each vertex links to during the
/// cheap subgraph-sampling phase of [`wcc_afforest`].
const AFFOREST_NEIGHBOR_ROUNDS: usize = 2;

/// Upper bound on the fixed-stride component samples taken to identify
/// the (probable) largest intermediate component in [`wcc_afforest`].
const AFFOREST_SAMPLES: usize = 1024;

/// WCC in the Afforest / Shiloach–Vishkin family: union-find with
/// subgraph sampling (Sutton et al., IPDPS'18). Phase 1 links every
/// vertex to its first `AFFOREST_NEIGHBOR_ROUNDS` out-neighbors —
/// on skewed graphs this already assembles most of the giant
/// component. Phase 2 samples component roots at a fixed stride and
/// picks the most frequent one. Phase 3 finishes only the vertices
/// *outside* that component, skipping the giant component's (already
/// connected) internal edges entirely.
///
/// Fully deterministic: sampling is fixed-stride, not randomized, and
/// labels come from [`UnionFind::labels`] (min vertex id per set), so
/// the result is bit-identical to [`wcc_union_find`].
///
/// Same contract as [`wcc_label_prop`]: finds true weak components
/// only when edges are symmetric or a reverse index is present
/// (skipped giant-component vertices rely on the other endpoint
/// seeing the edge from its side).
pub fn wcc_afforest<G: Adjacency>(g: &G) -> Components {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);

    // Phase 1: cheap partial linking.
    for r in 0..AFFOREST_NEIGHBOR_ROUNDS {
        for u in 0..n as VertexId {
            if let Some(v) = g.neighbors(u).nth(r) {
                uf.union(u, v);
            }
        }
    }

    // Phase 2: find the most frequent root among fixed-stride samples
    // (ties break toward the smaller root, keeping this deterministic).
    let skip_root = if n > 0 {
        let stride = (n / AFFOREST_SAMPLES.min(n)).max(1);
        let mut counts: std::collections::BTreeMap<VertexId, usize> = Default::default();
        let mut v = 0usize;
        while v < n {
            *counts.entry(uf.find(v as VertexId)).or_default() += 1;
            v += stride;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(root, _)| root)
    } else {
        None
    };

    // Phase 3: finish everything outside the sampled giant component.
    // An edge {u,v} with u inside and v outside is still honored: v is
    // not skipped and sees the edge via symmetric adjacency or the
    // reverse index. The working set lives in a [`Frontier`] so the
    // membership snapshot and the scan are separate passes (extra
    // vertices merged into the giant component mid-scan only re-union
    // already-connected pairs, which is a no-op).
    let mut rest = Frontier::new(n);
    for u in 0..n as VertexId {
        if skip_root != Some(uf.find(u)) {
            rest.insert(u);
        }
    }
    for u in rest.iter() {
        for v in g.neighbors(u).skip(AFFOREST_NEIGHBOR_ROUNDS) {
            uf.union(u, v);
        }
        if g.has_reverse() {
            for v in g.in_neighbors(u) {
                uf.union(u, v);
            }
        }
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
    use ga_graph::{gen, CsrBuilder, CsrGraph};

    #[test]
    fn wcc_two_islands() {
        let g = CsrGraph::from_edges_undirected(6, &[(0, 1), (1, 2), (3, 4)]);
        let c = wcc_union_find(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.label, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(c.largest(), Some((0, 3)));
        assert_eq!(c.members(3), vec![3, 4]);
    }

    #[test]
    fn wcc_engines_agree_on_random() {
        for seed in 0..4 {
            let edges = gen::erdos_renyi(200, 220, seed);
            let g = CsrGraph::from_edges_undirected(200, &edges);
            let a = wcc_union_find(&g);
            let b = wcc_label_prop(&g);
            assert_eq!(a.label, b.label, "seed {seed}");
            assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn wcc_label_prop_directed_with_reverse() {
        // Directed chain; label prop needs reverse edges to see ancestors.
        let g = CsrBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3)])
            .reverse(true)
            .build();
        let c = wcc_label_prop(&g);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn zero_budget_stops_label_prop_before_any_sweep() {
        let g = CsrGraph::from_edges_undirected(50, &gen::path(50));
        let mut ctx = KernelCtx::serial();
        ctx.budget = Budget::ops(0);
        let partial = wcc_with(&g, &ctx);
        // No sweeps ran: every vertex still carries its own label — a
        // valid (maximally coarse) partition refinement, just unmerged.
        assert_eq!(partial.count, 50);
        assert!(ctx.budget.hits() >= 1, "exhaustion must be tallied");
        // And the same graph collapses fully without a budget.
        assert_eq!(wcc_with(&g, &KernelCtx::serial()).count, 1);
    }

    #[test]
    fn budget_cuts_parallel_jacobi_sweeps() {
        // A path needs ~n Jacobi sweeps; one sweep only merges pairs.
        let g = CsrGraph::from_edges_undirected(64, &gen::path(64));
        let mut ctx = KernelCtx::parallel();
        ctx.budget = Budget::ops(1); // one sweep affordable
        let partial = wcc_with(&g, &ctx);
        let full = wcc_with(&g, &KernelCtx::parallel());
        assert!(ctx.budget.hits() >= 1);
        assert!(partial.count > full.count, "partial must be coarser");
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let edges = gen::erdos_renyi(512, 1200, 3);
        let g = CsrGraph::from_edges_undirected(512, &edges);
        let c = ga_graph::CompressedCsr::from_csr(&g);
        let a = wcc_with(&g, &KernelCtx::serial());
        let b = wcc_with(&c, &KernelCtx::serial());
        assert_eq!(a.label, b.label);
        assert_eq!(a.count, b.count);
        let ap = wcc_with(&g, &KernelCtx::parallel());
        let bp = wcc_with(&c, &KernelCtx::parallel());
        assert_eq!(ap.label, bp.label);
        assert_eq!(a.label, ap.label, "serial and parallel engines agree");
        assert_eq!(wcc_afforest(&g).label, wcc_afforest(&c).label);
        assert_eq!(wcc_union_find(&g).label, wcc_afforest(&g).label);
        // Compressed runs book fewer adjacency bytes, same op count.
        let (pc, cc) = (KernelCtx::serial(), KernelCtx::serial());
        wcc_with(&g, &pc);
        wcc_with(&c, &cc);
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
    fn empty_and_singleton() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(wcc_union_find(&g).count, 0);
        let g1 = CsrGraph::from_edges(1, &[]);
        assert_eq!(wcc_union_find(&g1).count, 1);
    }
}

//! Weakly connected components (Fig. 1 row "CCW"; "CCS" is survey-only).
//!
//! One engine, [`wcc_with`]: budgeted, instrumented union-find with
//! Afforest's subgraph sampling, the same code for every
//! [`crate::Parallelism`]. [`wcc_afforest`] is its unbudgeted call;
//! [`wcc_union_find`] is the plain union-find reference.
//!
//! Edge direction is ignored: every engine returns the true weak
//! components of any input, symmetric or directed, with or without a
//! reverse index. `label[v]` is the minimum vertex id in v's component,
//! so independent algorithms compare bit-for-bit.

use crate::ctx::{prefix_bytes, Budget, KernelCtx};
use crate::UnionFind;
use ga_graph::{Adjacency, VertexId};

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

/// WCC by union-find over every stored edge; edge direction ignored.
/// The reference the other connectivity engines are checked against.
pub fn wcc_union_find<G: Adjacency>(g: &G) -> Components {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for u in 0..n as VertexId {
        for v in g.neighbors(u) {
            uf.union(u, v);
        }
    }
    components(uf)
}

/// Out-neighbors each vertex links to before the giant component is
/// sampled.
const NEIGHBOR_ROUNDS: usize = 2;

/// Target number of fixed-stride samples that pick the giant component.
const SAMPLES: usize = 1024;

/// Vertices between budget consults.
const BUDGET_BLOCK: usize = 4096;

/// What one engine run read: adjacency entries, their bytes in the
/// graph's representation, and vertex visits.
#[derive(Default)]
struct Scanned {
    edges: u64,
    adj_bytes: u64,
    visits: u64,
}

impl Scanned {
    /// Running op estimate: a union (two finds and a link) per entry and
    /// a find per visit. The budget consults it; [`wcc_with`] flushes it.
    fn ops(&self) -> u64 {
        4 * self.edges + 2 * self.visits
    }
}

/// The WCC engine: union-find with Afforest's subgraph sampling (Sutton
/// et al., IPDPS'18). Phase 1 links every vertex to its first
/// `NEIGHBOR_ROUNDS` out-neighbors, which on skewed graphs already
/// assembles most of the giant component. With a reverse index, phase 2
/// samples roots at a fixed stride and takes the most frequent set, and
/// phase 3 finishes only the vertices outside it, over their remaining
/// out-neighbors and all in-neighbors. Skipping is sound because an edge
/// leaving the giant set is seen from its other endpoint's side, and the
/// set only grows. Without a reverse index nothing is skipped and phase 3
/// reads the rest of every out-row: plain union-find over all edges.
///
/// `budget` is consulted before every block of `BUDGET_BLOCK` vertices;
/// a stop returns the current forest, a valid partition each of whose
/// classes lies inside one weak component. Sampling is fixed-stride and
/// labels are min vertex ids, so the result is deterministic.
fn afforest<G: Adjacency>(g: &G, budget: &Budget) -> (Components, Scanned) {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    let mut s = Scanned::default();
    let head_bytes = |u: VertexId, k: usize| prefix_bytes(g.row_bytes(u), g.degree(u), k);
    let linked = in_blocks(n, budget, &mut s, |u, s| {
        let k = g.degree(u).min(NEIGHBOR_ROUNDS);
        for v in g.neighbors(u).take(k) {
            uf.union(u, v);
        }
        s.edges += k as u64;
        s.adj_bytes += head_bytes(u, k);
    });
    if linked {
        let giant = if g.has_reverse() {
            sample_giant(&mut uf)
        } else {
            None
        };
        in_blocks(n, budget, &mut s, |u, s| {
            if giant.is_some_and(|r| uf.same(u, r)) {
                return;
            }
            let k = g.degree(u).min(NEIGHBOR_ROUNDS);
            for v in g.neighbors(u).skip(k) {
                uf.union(u, v);
            }
            s.edges += (g.degree(u) - k) as u64;
            s.adj_bytes += g.row_bytes(u) - head_bytes(u, k);
            if g.has_reverse() {
                for v in g.in_neighbors(u) {
                    uf.union(u, v);
                }
                s.edges += g.in_degree(u) as u64;
                s.adj_bytes += g.in_row_bytes(u);
            }
        });
    }
    (components(uf), s)
}

/// Visit every vertex in order, consulting `budget` with the running op
/// estimate before each block of `BUDGET_BLOCK` vertices; false on a stop.
fn in_blocks(
    n: usize,
    budget: &Budget,
    s: &mut Scanned,
    mut visit: impl FnMut(VertexId, &mut Scanned),
) -> bool {
    for lo in (0..n).step_by(BUDGET_BLOCK) {
        if budget.check(s.ops()).is_partial() {
            return false;
        }
        for u in lo..(lo + BUDGET_BLOCK).min(n) {
            s.visits += 1;
            visit(u as VertexId, s);
        }
    }
    true
}

/// The most frequent root among fixed-stride samples (ties go to the
/// smaller root); `None` on an empty graph.
fn sample_giant(uf: &mut UnionFind) -> Option<VertexId> {
    let n = uf.len();
    let stride = (n / SAMPLES).max(1);
    let mut counts = std::collections::BTreeMap::<VertexId, usize>::new();
    for v in (0..n).step_by(stride) {
        *counts.entry(uf.find(v as VertexId)).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(root, _)| root)
}

fn components(mut uf: UnionFind) -> Components {
    Components {
        label: uf.labels(),
        count: uf.num_sets(),
    }
}

/// Instrumented WCC: the one engine (union-find with Afforest's
/// giant-component skip when a reverse index makes it sound) for every
/// [`crate::Parallelism`], consulting the context's budget once per
/// block of vertices and flushing what it actually scanned into the
/// context counters. Labels and counts equal [`wcc_union_find`]'s on
/// any input; a budget stop returns a valid partition whose classes each
/// lie inside one weak component.
pub fn wcc_with<G: Adjacency>(g: &G, ctx: &KernelCtx) -> Components {
    let (c, s) = afforest(g, &ctx.budget);
    // Per entry: an id load (the representation's adjacency bytes) and
    // two parent reads (~8 bytes); per visit: a find (~4 bytes), plus
    // the label pass (~12 bytes).
    ctx.counters
        .flush(s.ops(), s.adj_bytes + 8 * s.edges + 16 * s.visits, s.edges);
    c
}

/// [`wcc_with`]'s engine without a budget or counters: union-find with
/// Afforest's subgraph sampling. Bit-identical to [`wcc_union_find`] on
/// every input, directed or not, with or without a reverse index.
pub fn wcc_afforest<G: Adjacency>(g: &G) -> Components {
    afforest(g, &Budget::unlimited()).0
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
        let mut inputs: Vec<CsrGraph> = (0..4)
            .map(|seed| CsrGraph::from_edges_undirected(200, &gen::erdos_renyi(200, 220, seed)))
            .collect();
        // Directed chain with a reverse index: the giant-component skip
        // must still see each ancestor.
        inputs.push(
            CsrBuilder::new(4)
                .edges([(0, 1), (1, 2), (2, 3)])
                .reverse(true)
                .build(),
        );
        // Directed, no reverse index: 2 reaches 0 only against an edge.
        inputs.push(CsrBuilder::new(3).edges([(0, 1), (2, 1)]).build());
        for (i, g) in inputs.iter().enumerate() {
            let want = wcc_union_find(g);
            for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
                assert_eq!(wcc_with(g, &ctx), want, "input {i}");
            }
            assert_eq!(wcc_afforest(g), want, "input {i}");
        }
        assert_eq!(wcc_afforest(&inputs[5]).label, vec![0, 0, 0]);
    }

    #[test]
    fn budget_stops_leave_a_refinement() {
        // Three budget blocks of path: phase 1 alone would join it all.
        let n = 3 * BUDGET_BLOCK;
        let g = CsrGraph::from_edges_undirected(n, &gen::path(n));
        let full = wcc_with(&g, &KernelCtx::serial());
        assert_eq!(full.count, 1);
        // A zero budget stops before the first block: nothing merged.
        let mut ctx = KernelCtx::serial();
        ctx.budget = Budget::ops(0);
        assert_eq!(wcc_with(&g, &ctx).count, n);
        assert!(ctx.budget.hits() >= 1, "exhaustion must be tallied");
        // A small one stops after the first block: every partial class
        // lies inside one full class, and there are more of them.
        for mut ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            ctx.budget = Budget::ops(1);
            let partial = wcc_with(&g, &ctx);
            assert!(ctx.budget.hits() >= 1);
            assert!(partial.count > full.count, "the stop must cut merging");
            for v in 0..n {
                let l = partial.label[v] as usize;
                assert_eq!(full.label[v], full.label[l], "vertex {v}");
            }
        }
    }

    #[test]
    fn compressed_adjacency_is_bit_identical() {
        let edges = gen::erdos_renyi(512, 1200, 3);
        let g = CsrBuilder::new(512)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .reverse(true)
            .build();
        let c = ga_graph::CompressedCsr::from_csr(&g);
        let a = wcc_with(&g, &KernelCtx::serial());
        assert_eq!(a, wcc_union_find(&g));
        assert_eq!(a, wcc_with(&c, &KernelCtx::serial()));
        assert_eq!(a, wcc_with(&c, &KernelCtx::parallel()));
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
        assert_eq!(wcc_with(&g, &KernelCtx::serial()).count, 0);
        let g1 = CsrGraph::from_edges(1, &[]);
        assert_eq!(wcc_union_find(&g1).count, 1);
        assert_eq!(wcc_afforest(&g1).count, 1);
    }
}

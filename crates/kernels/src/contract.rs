//! Graph contraction (Fig. 1 row "GC").
//!
//! Contract a graph by a vertex-label map: every label class becomes one
//! super-vertex, parallel edges merge with summed weights, and internal
//! edges become self-loops whose weight records the class's internal
//! connectivity. This is the primitive Louvain's multi-level pass and
//! the paper's "higher level views of graphs where vertices are in fact
//! subgraphs of the original graph" both need.

use ga_graph::{CsrBuilder, CsrGraph, VertexId};
use std::collections::HashMap;

/// Result of a contraction.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The contracted graph over dense super-vertex ids.
    pub graph: CsrGraph,
    /// Summed edge weight parallel to the contracted graph's CSR arrays
    /// (indexed by CSR edge offset). Self-loop weights count internal
    /// edges of the class.
    pub weight: Vec<f64>,
    /// `dense_label[old_label] = super-vertex id` (only meaningful for
    /// labels that occur; unused slots map to 0).
    pub dense_label: Vec<VertexId>,
    /// `members[super] = original vertices in that class` (sorted).
    pub members: Vec<Vec<VertexId>>,
}

/// Contract `g` by `label`, merging parallel edges. `edge_weight` gives
/// the weight of each CSR edge slot of `g` (pass `&vec![1.0; m]` for an
/// unweighted view).
pub fn contract_by_label(g: &CsrGraph, label: &[VertexId], edge_weight: &[f64]) -> Contraction {
    assert_eq!(label.len(), g.num_vertices());
    assert_eq!(edge_weight.len(), g.num_edges());
    // Dense-renumber the labels in sorted order for determinism.
    let mut distinct: Vec<VertexId> = label.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let max_label = label.iter().copied().max().unwrap_or(0) as usize;
    let mut dense_label = vec![0 as VertexId; max_label + 1];
    for (i, &l) in distinct.iter().enumerate() {
        dense_label[l as usize] = i as VertexId;
    }
    let k = distinct.len();

    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for (v, &l) in label.iter().enumerate() {
        members[dense_label[l as usize] as usize].push(v as VertexId);
    }

    // Accumulate merged edge weights.
    let mut acc: HashMap<(VertexId, VertexId), f64> = HashMap::new();
    for u in g.vertices() {
        let cu = dense_label[label[u as usize] as usize];
        let off = g.raw_offsets()[u as usize] as usize;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            let cv = dense_label[label[v as usize] as usize];
            *acc.entry((cu, cv)).or_default() += edge_weight[off + i];
        }
    }
    let mut merged: Vec<((VertexId, VertexId), f64)> = acc.into_iter().collect();
    merged.sort_by_key(|&((a, b), _)| (a, b));

    let graph = CsrBuilder::new(k)
        .edges(merged.iter().map(|&((a, b), _)| (a, b)))
        .build();
    // CSR sorts by (src, dst) — same order as `merged` — so weights align.
    let weight: Vec<f64> = merged.iter().map(|&(_, w)| w).collect();
    debug_assert_eq!(weight.len(), graph.num_edges());

    Contraction {
        graph,
        weight,
        dense_label,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    /// Unit weights: contracted weights are edge multiplicities.
    fn contract(g: &CsrGraph, label: &[VertexId]) -> Contraction {
        contract_by_label(g, label, &vec![1.0; g.num_edges()])
    }

    #[test]
    fn two_triangles_to_two_vertices() {
        // Triangles {0,1,2} and {3,4,5} joined by 2-3.
        let e = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let g = CsrGraph::from_edges_undirected(6, &e);
        let label = vec![0, 0, 0, 1, 1, 1];
        let c = contract(&g, &label);
        assert_eq!(c.graph.num_vertices(), 2);
        assert_eq!(c.members[0], vec![0, 1, 2]);
        assert_eq!(c.members[1], vec![3, 4, 5]);
        // Self-loops carry internal weight 6 (3 undirected edges seen both ways).
        let w00 = edge_weight_of(&c, 0, 0).unwrap();
        assert_eq!(w00, 6.0);
        // Cross edge weight 1 in each direction.
        assert_eq!(edge_weight_of(&c, 0, 1), Some(1.0));
        assert_eq!(edge_weight_of(&c, 1, 0), Some(1.0));
    }

    fn edge_weight_of(c: &Contraction, u: VertexId, v: VertexId) -> Option<f64> {
        let off = c.graph.raw_offsets()[u as usize] as usize;
        c.graph
            .neighbors(u)
            .iter()
            .position(|&x| x == v)
            .map(|i| c.weight[off + i])
    }

    #[test]
    fn total_weight_conserved() {
        let edges = gen::erdos_renyi(50, 200, 2);
        let g = CsrGraph::from_edges_undirected(50, &edges);
        let label: Vec<VertexId> = (0..50).map(|v| v % 7).collect();
        let c = contract(&g, &label);
        let total: f64 = c.weight.iter().sum();
        assert_eq!(total, g.num_edges() as f64);
    }

    #[test]
    fn identity_labels_preserve_structure() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let label: Vec<VertexId> = (0..4).collect();
        let c = contract(&g, &label);
        assert_eq!(c.graph.num_vertices(), 4);
        assert_eq!(c.graph.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), c.graph.neighbors(v));
        }
    }

    #[test]
    fn sparse_labels_densified() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        // Labels 10 and 20 only.
        let c = contract(&g, &[10, 20, 20]);
        assert_eq!(c.graph.num_vertices(), 2);
        assert_eq!(c.dense_label[10], 0);
        assert_eq!(c.dense_label[20], 1);
        assert_eq!(c.members[1], vec![1, 2]);
    }

    #[test]
    fn all_one_class() {
        let g = CsrGraph::from_edges_undirected(4, &gen::complete(4));
        let c = contract(&g, &[0; 4]);
        assert_eq!(c.graph.num_vertices(), 1);
        assert_eq!(c.weight, vec![12.0]); // K4 symmetrized = 12 directed edges
    }
}

//! "Search for Largest" (Fig. 1 row) — top-k scans over vertex metrics.
//!
//! The Graph Challenge's "largest" searches and the Fig. 2 *selection
//! criteria* stage both reduce to: rank all vertices by some metric,
//! keep the k best. A bounded binary heap keeps the scan O(n log k).

use ga_graph::{PropertyStore, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordered (metric, vertex) pair usable in a min-heap.
#[derive(PartialEq)]
struct Entry(f64, VertexId);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            // For equal metrics prefer smaller id => it should sort LATER
            // in the min-heap (be "larger"), so invert the id order.
            .then(other.1.cmp(&self.1))
    }
}

/// Top-`k` vertices by an arbitrary metric, descending (ties by id).
pub fn top_k_by(
    n: usize,
    k: usize,
    metric: impl Fn(VertexId) -> Option<f64>,
) -> Vec<(VertexId, f64)> {
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::with_capacity(k + 1);
    for v in 0..n as VertexId {
        if let Some(m) = metric(v) {
            heap.push(Reverse(Entry(m, v)));
            if heap.len() > k {
                heap.pop();
            }
        }
    }
    let mut out: Vec<(VertexId, f64)> = heap
        .into_iter()
        .map(|Reverse(Entry(m, v))| (v, m))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Top-`k` by a numeric property column (vertices without the property
/// are skipped).
pub fn top_k_property(props: &PropertyStore, name: &str, k: usize) -> Vec<(VertexId, f64)> {
    top_k_by(props.num_vertices(), k, |v| props.get_f64(name, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::{gen, CsrGraph};

    fn top_k_degree(g: &CsrGraph, k: usize) -> Vec<(VertexId, f64)> {
        top_k_by(g.num_vertices(), k, |v| Some(g.degree(v) as f64))
    }

    #[test]
    fn degree_topk_on_star() {
        let g = CsrGraph::from_edges_undirected(6, &gen::star(6));
        let top = top_k_degree(&g, 2);
        assert_eq!(top[0], (0, 5.0));
        assert_eq!(top[1].1, 1.0);
        assert_eq!(top[1].0, 1); // smallest id among ties
    }

    #[test]
    fn topk_matches_full_sort() {
        let g = CsrGraph::from_edges_undirected(64, &gen::erdos_renyi(64, 500, 3));
        let top = top_k_degree(&g, 10);
        let mut full: Vec<(VertexId, f64)> =
            g.vertices().map(|v| (v, g.degree(v) as f64)).collect();
        full.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        full.truncate(10);
        assert_eq!(top, full);
    }

    #[test]
    fn property_topk_skips_missing() {
        let mut p = PropertyStore::new(5);
        p.set("score", 1, 0.5);
        p.set("score", 3, 0.9);
        let top = top_k_property(&p, "score", 10);
        assert_eq!(top, vec![(3, 0.9), (1, 0.5)]);
    }

    #[test]
    fn k_zero_and_oversized() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(top_k_degree(&g, 0).is_empty());
        assert_eq!(top_k_degree(&g, 10).len(), 3);
    }
}

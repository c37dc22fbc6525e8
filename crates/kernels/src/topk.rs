//! "Search for Largest" (Fig. 1 row) — top-k scans over vertex metrics.
//!
//! The Graph Challenge's "largest" searches and the Fig. 2 *selection
//! criteria* stage both reduce to: rank all vertices by some metric,
//! keep the k best. [`top_k_by`] keeps them in a bounded binary heap,
//! O(n log k). It lives beside [`ga_graph::PropertyStore::top_k_f64`]
//! and shares its heap and order (`total_cmp` descending, then vertex
//! id ascending), so a NaN metric lands in the same place whichever path
//! selects seeds.

pub use ga_graph::props::top_k_by;

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::{gen, CsrGraph, PropertyStore, VertexId};

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
        let top = p.top_k_f64("score", 10);
        assert_eq!(top, vec![(3, 0.9), (1, 0.5)]);
    }

    #[test]
    fn nan_ranks_as_the_property_scan_ranks_it() {
        // total_cmp puts +NaN above +inf and -NaN below -inf.
        let mut p = PropertyStore::new(8);
        let neg_nan = -f64::NAN;
        p.set_column_f64(
            "x",
            &[1.0, f64::NAN, 2.0, neg_nan, 2.0, f64::INFINITY, -0.0, 0.0],
        );
        let bits = |r: Vec<(VertexId, f64)>| -> Vec<(VertexId, u64)> {
            r.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
        };
        for k in 0..=9 {
            let by = top_k_by(p.num_vertices(), k, |v| p.get_f64("x", v));
            assert_eq!(bits(by), bits(p.top_k_f64("x", k)), "k {k}");
        }
        assert_eq!(p.top_k_f64("x", 1)[0].0, 1);
        assert_eq!(p.top_k_f64("x", 8)[7].0, 3);
    }

    #[test]
    fn k_zero_and_oversized() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(top_k_degree(&g, 0).is_empty());
        assert_eq!(top_k_degree(&g, 10).len(), 3);
    }
}

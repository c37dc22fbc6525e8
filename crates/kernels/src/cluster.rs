//! Clustering coefficients (Fig. 1 row "CCO").
//!
//! Local coefficient of v = triangles(v) / (deg(v) choose 2); the global
//! coefficient is the mean of local values, and transitivity is
//! 3·triangles / wedges. Expects an undirected snapshot.

use crate::ctx::KernelCtx;
use crate::triangles::count_per_vertex;
use ga_graph::CsrGraph;

/// Per-vertex and aggregate clustering numbers.
#[derive(Clone, Debug)]
pub struct ClusteringResult {
    /// Local clustering coefficient per vertex (0 when degree < 2).
    pub local: Vec<f64>,
    /// Mean of local coefficients (Watts–Strogatz global coefficient).
    pub global: f64,
    /// Transitivity: 3 * triangles / wedges.
    pub transitivity: f64,
    /// Global triangle count (Σ per-vertex counts / 3).
    pub triangles: u64,
}

/// Compute local coefficients, their mean, transitivity and the global
/// triangle count from one per-vertex triangle pass, whose work is
/// flushed into `ctx`'s counters.
pub fn clustering_coefficients(g: &CsrGraph, ctx: &KernelCtx) -> ClusteringResult {
    let n = g.num_vertices();
    let tri = count_per_vertex(g, ctx);
    let mut local = vec![0.0; n];
    let mut wedges_total = 0u64;
    let mut tri_total = 0u64;
    for v in 0..n {
        let d = g.degree(v as u32) as u64;
        let wedges = d * d.saturating_sub(1) / 2;
        wedges_total += wedges;
        tri_total += tri[v];
        if wedges > 0 {
            local[v] = tri[v] as f64 / wedges as f64;
        }
    }
    let global = if n == 0 {
        0.0
    } else {
        local.iter().sum::<f64>() / n as f64
    };
    let transitivity = if wedges_total == 0 {
        0.0
    } else {
        tri_total as f64 / wedges_total as f64
    };
    ClusteringResult {
        local,
        global,
        transitivity,
        triangles: tri_total / 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = CsrGraph::from_edges_undirected(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = clustering_coefficients(&g, &KernelCtx::serial());
        assert_eq!(c.local, vec![1.0, 1.0, 1.0]);
        assert_eq!(c.global, 1.0);
        assert_eq!(c.transitivity, 1.0);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = CsrGraph::from_edges_undirected(5, &gen::star(5));
        let c = clustering_coefficients(&g, &KernelCtx::serial());
        assert!(c.local.iter().all(|&x| x == 0.0));
        assert_eq!(c.transitivity, 0.0);
    }

    #[test]
    fn paw_graph_values() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = CsrGraph::from_edges_undirected(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let c = clustering_coefficients(&g, &KernelCtx::serial());
        // Vertex 0: deg 3, 1 triangle, 3 wedges -> 1/3.
        assert!((c.local[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.local[1], 1.0);
        assert_eq!(c.local[2], 1.0);
        assert_eq!(c.local[3], 0.0);
        // Transitivity: 3 triangles-at-corners / (3 + 1 + 1) wedges = 3/5.
        assert!((c.transitivity - 0.6).abs() < 1e-12);
        assert_eq!(c.triangles, 1);
    }

    #[test]
    fn coefficients_bounded() {
        let edges = gen::erdos_renyi(80, 500, 5);
        let g = CsrGraph::from_edges_undirected(80, &edges);
        let c = clustering_coefficients(&g, &KernelCtx::serial());
        for &x in &c.local {
            assert!((0.0..=1.0).contains(&x));
        }
        assert!((0.0..=1.0).contains(&c.global));
        assert!((0.0..=1.0).contains(&c.transitivity));
    }

    #[test]
    fn small_world_clusters_more_than_random() {
        let n = 300;
        let ws = CsrGraph::from_edges_undirected(n, &gen::watts_strogatz(n, 4, 0.05, 1));
        let er = CsrGraph::from_edges_undirected(n, &gen::erdos_renyi(n, 4 * n, 1));
        let cw = clustering_coefficients(&ws, &KernelCtx::serial()).global;
        let ce = clustering_coefficients(&er, &KernelCtx::serial()).global;
        assert!(cw > 2.0 * ce, "ws {cw} vs er {ce}");
    }
}

//! Workspace-level property-based tests (proptest) over the core data
//! structures and kernels — the invariants DESIGN.md §6 lists.

use graph_analytics::graph::{CompressedCsr, CsrBuilder, CsrGraph, DynamicGraph};
use graph_analytics::kernels::{bfs, cc, jaccard, pagerank, triangles, KernelCtx, UnionFind};
use graph_analytics::linalg::ops::{ewise_mul, spgemm, spmv};
use graph_analytics::linalg::semiring::{OrAnd, PlusTimes};
use graph_analytics::linalg::CsrMatrix;
use proptest::prelude::*;

/// `n × n` matrix from `(row, col, val)` triplets; repeated coordinates
/// sum.
fn triplets(n: usize, entries: &[(u32, u32, u32)]) -> CsrMatrix<f64> {
    let g = CsrBuilder::new(n)
        .weighted_edges(entries.iter().map(|&(r, c, v)| (r, c, v as f32)))
        .build();
    CsrMatrix::from_graph(&g, |_, _, w| w as f64, |x, y| x + y)
}

/// Strategy: a random directed edge list over `n <= 40` vertices.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..120);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_neighbors_sorted_and_deduped((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges(n, &edges);
        for v in g.vertices() {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(!nb.contains(&v), "self-loop survived");
        }
    }

    #[test]
    fn transpose_involution((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges(n, &edges);
        let tt = g.transpose().transpose();
        for v in g.vertices() {
            prop_assert_eq!(g.neighbors(v), tt.neighbors(v));
        }
    }

    #[test]
    fn dynamic_apply_then_snapshot_matches((n, edges) in edge_list()) {
        let mut d = DynamicGraph::new(n);
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u != v {
                d.insert_edge(u, v, 1.0, i as u64);
            }
        }
        let snap = d.snapshot();
        let direct = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(snap.num_edges(), direct.num_edges());
        for v in direct.vertices() {
            prop_assert_eq!(snap.neighbors(v), direct.neighbors(v));
        }
    }

    #[test]
    fn insert_delete_cancels((n, edges) in edge_list()) {
        let mut d = DynamicGraph::new(n);
        for &(u, v) in &edges {
            if u != v {
                d.insert_edge(u, v, 1.0, 0);
            }
        }
        let before = d.num_live_edges();
        for &(u, v) in &edges {
            if u != v {
                d.delete_edge(u, v, 1);
            }
        }
        prop_assert_eq!(d.num_live_edges(), 0);
        for &(u, v) in &edges {
            if u != v {
                d.insert_edge(u, v, 1.0, 2);
            }
        }
        prop_assert_eq!(d.num_live_edges(), before);
    }

    #[test]
    fn union_find_is_an_equivalence((n, pairs) in (2usize..30).prop_flat_map(|n| {
        (Just(n), prop::collection::vec((0..n as u32, 0..n as u32), 0..40))
    })) {
        let mut uf = UnionFind::new(n);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        let labels = uf.labels();
        // Reflexive & consistent with same().
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(labels[a as usize] == labels[b as usize], uf.same(a, b));
            }
        }
        // Class count matches.
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), uf.num_sets());
    }

    #[test]
    fn bfs_tree_validates((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges(n, &edges);
        let r = bfs::bfs(&g, 0);
        prop_assert!(r.validate(&g, 0).is_ok());
    }

    #[test]
    fn wcc_engines_agree(((n, edges), reverse) in (edge_list(), 0u32..2)) {
        // Arbitrary directed edges: weak components ignore direction
        // whether or not a reverse index lets the engine skip.
        let g = CsrBuilder::new(n).edges(edges).reverse(reverse == 1).build();
        let c = CompressedCsr::from_csr(&g);
        let want = cc::wcc_union_find(&g);
        for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
            prop_assert_eq!(&cc::wcc_with(&g, &ctx), &want);
            prop_assert_eq!(&cc::wcc_with(&c, &ctx), &want);
        }
    }

    #[test]
    fn triangle_count_equals_brute_force((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges_undirected(n, &edges);
        prop_assert_eq!(triangles::count_global(&g), triangles::count_brute_force(&g));
    }

    #[test]
    fn jaccard_symmetric_and_bounded((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges_undirected(n, &edges);
        for u in 0..(n as u32).min(8) {
            for v in 0..(n as u32).min(8) {
                let j = jaccard::pair(&g, u, v);
                prop_assert!((0.0..=1.0).contains(&j));
                prop_assert!((j - jaccard::pair(&g, v, u)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pagerank_is_a_distribution((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n)
            .edges(edges.iter().copied())
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        let r = pagerank::pagerank(&g, 0.85, 1e-10, 200);
        let sum: f64 = r.rank.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(r.rank.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn spgemm_distributes_over_identity((n, entries) in (2usize..20).prop_flat_map(|n| {
        (Just(n), prop::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 0..40))
    })) {
        let a = triplets(n, &entries);
        let i = CsrMatrix::identity(n, 1.0);
        prop_assert_eq!(spgemm(PlusTimes, &a, &i), a.clone());
        prop_assert_eq!(spgemm(PlusTimes, &i, &a), a);
    }

    #[test]
    fn boolean_square_is_two_hop((n, edges) in edge_list()) {
        let g = CsrGraph::from_edges(n, &edges);
        let a = CsrMatrix::from_graph(&g, |_, _, _| true, |x, _| x);
        let a2 = spgemm(OrAnd, &a, &a);
        // a2[u][w] iff exists v: u->v->w.
        for u in 0..n {
            for w in 0..n as u32 {
                let expect = g
                    .neighbors(u as u32)
                    .iter()
                    .any(|&v| g.has_edge(v, w));
                prop_assert_eq!(a2.get(u, w).is_some(), expect, "({}, {})", u, w);
            }
        }
    }

    #[test]
    fn spmv_linear_in_x((n, entries) in (2usize..16).prop_flat_map(|n| {
        (Just(n), prop::collection::vec((0..n as u32, 0..n as u32, 1u32..4), 0..30))
    })) {
        let a = triplets(n, &entries);
        let x = vec![1.0; n];
        let y1 = spmv(PlusTimes, &a, &x);
        let x2: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let y2 = spmv(PlusTimes, &a, &x2);
        for i in 0..n {
            prop_assert!((y2[i] - 2.0 * y1[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn ewise_mul_is_intersection((n, e1, e2) in (2usize..16).prop_flat_map(|n| {
        let e = prop::collection::vec((0..n as u32, 0..n as u32), 0..30);
        (Just(n), e.clone(), e)
    })) {
        let build = |edges: &[(u32, u32)]| {
            let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
            CsrMatrix::from_graph(&g, |_, _, _| 1.0f64, |x, _| x)
        };
        let a = build(&e1);
        let b = build(&e2);
        let m = ewise_mul(PlusTimes, &a, &b);
        for r in 0..n {
            for c in 0..n as u32 {
                prop_assert_eq!(
                    m.get(r, c).is_some(),
                    a.get(r, c).is_some() && b.get(r, c).is_some()
                );
            }
        }
    }
}

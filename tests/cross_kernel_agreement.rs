//! Cross-crate agreement: the direct kernel implementations
//! (`ga-kernels`), the linear-algebra formulations (`ga-linalg`), and
//! the streaming incremental forms (`ga-stream`) must all tell the same
//! story about the same graph.

use graph_analytics::graph::{gen, CompressedCsr, CsrBuilder, CsrGraph};
use graph_analytics::kernels::{bfs, cc, jaccard, pagerank, sssp, triangles, KernelCtx, UNREACHED};
use graph_analytics::linalg::algos;
use graph_analytics::stream::tri_inc::IncrementalTriangles;
use graph_analytics::stream::update::{into_batches, rmat_edge_stream};
use graph_analytics::stream::StreamEngine;

fn rmat_undirected(scale: u32, seed: u64) -> CsrGraph {
    let edges = gen::rmat(scale, 12 << scale, gen::RmatParams::GRAPH500, seed);
    CsrBuilder::new(1 << scale)
        .edges(edges.iter().copied())
        .symmetrize(true)
        .dedup(true)
        .drop_self_loops(true)
        .reverse(true)
        .build()
}

#[test]
fn bfs_direct_vs_matrix_language() {
    for seed in [1, 2] {
        let g = rmat_undirected(9, seed);
        let direct = bfs::bfs(&g, 0);
        let matrix = algos::bfs_levels(&g, 0);
        for v in g.vertices() {
            let (d, m) = (direct.depth[v as usize], matrix[v as usize]);
            assert_eq!(
                d == UNREACHED,
                m == u32::MAX,
                "reachability disagrees at {v}"
            );
            if d != UNREACHED {
                assert_eq!(d, m, "depth disagrees at {v}");
            }
        }
    }
}

#[test]
fn triangles_direct_vs_matrix_vs_streaming() {
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Forwarding monitor that leaves the counter readable by the test.
    struct Shared(Rc<RefCell<IncrementalTriangles>>);
    impl graph_analytics::stream::Monitor for Shared {
        fn name(&self) -> &'static str {
            "tri_probe"
        }
        fn on_update(
            &mut self,
            g: &graph_analytics::graph::DynamicGraph,
            u: &graph_analytics::stream::Update,
            r: graph_analytics::graph::dynamic::ApplyResult,
            t: u64,
            out: &mut Vec<graph_analytics::stream::Event>,
        ) {
            self.0.borrow_mut().on_update(g, u, r, t, out);
        }
    }

    // One R-MAT update stream; three independent counters must agree.
    let scale = 8u32;
    let counter = Rc::new(RefCell::new(IncrementalTriangles::new()));
    let mut engine = StreamEngine::new(1 << scale);
    engine.register(Box::new(Shared(counter.clone())));
    for batch in into_batches(rmat_edge_stream(scale, 4_000, 0.1, 5), 256, 0) {
        engine.apply_batch(&batch);
    }
    let snapshot = engine.graph().snapshot();

    let direct = triangles::count_global(&snapshot);
    let matrix = algos::triangle_count(&snapshot);
    let streaming = counter.borrow().global();
    assert_eq!(direct, matrix, "direct vs matrix-language");
    assert_eq!(direct, streaming, "direct vs incremental");
    assert!(direct > 0, "want a non-trivial instance");
}

#[test]
fn sssp_unit_weights_match_bfs() {
    let g = rmat_undirected(9, 3);
    let b = bfs::bfs(&g, 5);
    let d = sssp::dijkstra(&g, 5);
    for v in g.vertices() {
        if b.depth[v as usize] == UNREACHED {
            assert!(d.dist[v as usize].is_infinite());
        } else {
            assert_eq!(b.depth[v as usize] as f32, d.dist[v as usize]);
        }
    }
}

#[test]
fn bellman_ford_matrix_language_matches_dijkstra() {
    let edges = gen::with_random_weights(&gen::erdos_renyi(150, 800, 4), 0.1, 3.0, 5);
    // The same (u, v) pairs again with fresh weights: parallel edges the
    // matrix must merge with min, not +.
    let repeats = gen::with_random_weights(&gen::erdos_renyi(150, 800, 4), 0.1, 3.0, 6);
    let multi: Vec<_> = edges.iter().chain(&repeats).copied().collect();
    for edges in [edges, multi] {
        let g = CsrGraph::from_weighted_edges(150, &edges);
        let dij = sssp::dijkstra(&g, 0);
        let bf = algos::bellman_ford(&g, 0);
        for v in g.vertices() {
            let (a, b) = (dij.dist[v as usize] as f64, bf[v as usize]);
            assert!(
                (a - b).abs() < 1e-3 || (a.is_infinite() && b.is_infinite()),
                "v={v}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn pagerank_direct_vs_matrix_language() {
    let g = rmat_undirected(8, 9);
    let direct = pagerank::pagerank(&g, 0.85, 1e-12, 300);
    let matrix = algos::pagerank(&g, 0.85, 1e-12, 300);
    for v in g.vertices() {
        assert!(
            (direct.rank[v as usize] - matrix[v as usize]).abs() < 1e-8,
            "v={v}"
        );
    }
}

#[test]
fn afforest_matches_union_find_on_random_graphs() {
    // Dedicated Afforest agreement across densities: giant-component
    // skipping (the sampling phase) must never change the answer, from
    // forests of islands up to one giant component.
    for (n, m, seed) in [(200, 60, 1u64), (200, 220, 2), (300, 1200, 3)] {
        let edges = gen::erdos_renyi(n, m, seed);
        let g = CsrGraph::from_edges_undirected(n, &edges);
        let direct = cc::wcc_union_find(&g);
        let afforest = cc::wcc_afforest(&g);
        assert_eq!(direct.label, afforest.label, "n={n} m={m} seed={seed}");
        assert_eq!(direct.count, afforest.count, "n={n} m={m} seed={seed}");
    }
}

#[test]
fn components_match_reachability_closure() {
    // On an undirected graph, u and v share a WCC iff v is reachable
    // from u in the boolean closure.
    let edges = gen::erdos_renyi(60, 50, 6); // sparse -> several islands
    let g = CsrGraph::from_edges_undirected(60, &edges);
    let comps = cc::wcc_union_find(&g);
    let closure = algos::reachability(&g);
    for u in g.vertices() {
        for v in g.vertices() {
            let same = comps.label[u as usize] == comps.label[v as usize];
            let reach = closure.get(u as usize, v).is_some();
            assert_eq!(same, reach, "({u},{v})");
        }
    }
    assert!(comps.count > 1, "want a disconnected test instance");
}

// ---------------------------------------------------------------------
// Serial vs parallel engine agreement: the same kernel dispatched
// through `KernelCtx::serial()` and `KernelCtx::parallel()` must return
// identical answers. BFS trees, triangle counts (global and per
// vertex) and Jaccard pairs are exact by construction; PageRank is
// bit-identical too (only the order-insensitive per-vertex pull sweep
// is parallelized) but is checked to a 1e-9 contract. CC and SSSP run
// one engine under every context, so they are checked against their
// references (union-find, Dijkstra) and across representations.
// ---------------------------------------------------------------------

/// Run every parallelizable kernel both ways on `g` and assert
/// agreement. `g` must carry a reverse index (PageRank pulls).
fn assert_serial_parallel_agree(g: &CsrGraph, tag: &str) {
    let (s, p) = (KernelCtx::serial(), KernelCtx::parallel());

    let bs = bfs::bfs_with(g, 0, &s);
    let bp = bfs::bfs_with(g, 0, &p);
    assert_eq!(bs, bp, "{tag}: BFS trees differ");

    let cs = cc::wcc_with(g, &s);
    let cp = cc::wcc_with(g, &p);
    assert_eq!(cs.label, cp.label, "{tag}: CC labels differ");
    assert_eq!(cs.count, cp.count, "{tag}: CC counts differ");

    // The one engine (Afforest, the giant-component skip on) must agree
    // label-for-label with the plain union-find reference.
    let ca = cc::wcc_union_find(g);
    assert_eq!(
        cs.label, ca.label,
        "{tag}: CC labels differ from union-find"
    );
    assert_eq!(
        cs.count, ca.count,
        "{tag}: CC counts differ from union-find"
    );

    assert_eq!(
        triangles::count_global_with(g, &s),
        triangles::count_global_with(g, &p),
        "{tag}: triangle counts differ"
    );

    let (ts, tp) = (KernelCtx::serial(), KernelCtx::parallel());
    let per_vertex = triangles::count_per_vertex(g, &ts);
    assert_eq!(
        per_vertex,
        triangles::count_per_vertex(g, &tp),
        "{tag}: per-vertex triangle counts differ"
    );
    assert_eq!(
        ts.snapshot(),
        tp.snapshot(),
        "{tag}: per-vertex tallies differ"
    );

    // Jaccard pairs: same `(u, v)` order, same coefficient bits.
    let bits = |ctx: &KernelCtx| -> Vec<(u32, u32, u64)> {
        jaccard::all_pairs_above_with(g, 0.3, ctx)
            .into_iter()
            .map(|(u, v, j)| (u, v, j.to_bits()))
            .collect()
    };
    let (js, jp) = (KernelCtx::serial(), KernelCtx::parallel());
    assert_eq!(bits(&js), bits(&jp), "{tag}: Jaccard pairs differ");
    assert_eq!(
        js.snapshot(),
        jp.snapshot(),
        "{tag}: Jaccard tallies differ"
    );

    let rs = pagerank::pagerank_with(g, 0.85, 1e-10, 200, &s);
    let rp = pagerank::pagerank_with(g, 0.85, 1e-10, 200, &p);
    assert_eq!(rs.work, rp.work, "{tag}: PR sweep counts differ");
    for v in g.vertices() {
        let (a, b) = (rs.rank[v as usize], rp.rank[v as usize]);
        assert!(
            (a - b).abs() <= 1e-9,
            "{tag}: PR rank differs at {v}: {a} vs {b}"
        );
    }

    // SSSP on the same topology with deterministic random weights.
    let wedges = gen::with_random_weights(&edge_list(g), 0.1, 3.0, 11);
    let wg = CsrGraph::from_weighted_edges(g.num_vertices(), &wedges);
    // Whole results (parents too) equal Dijkstra's, and both modes read
    // the same rows.
    let dj = sssp::dijkstra(&wg, 0);
    let (ss, sp) = (KernelCtx::serial(), KernelCtx::parallel());
    assert_eq!(sssp::sssp_with(&wg, 0, 0.5, &ss), dj, "{tag}: serial SSSP");
    assert_eq!(
        sssp::sssp_with(&wg, 0, 0.5, &sp),
        dj,
        "{tag}: parallel SSSP"
    );
    assert_eq!(ss.snapshot(), sp.snapshot(), "{tag}: SSSP tallies differ");

    // Compressed-adjacency legs: every kernel must return the same
    // bits on the delta-varint representation, under both engines.
    let c = CompressedCsr::from_csr(g);
    for (ctx, eng) in [(&s, "serial"), (&p, "parallel")] {
        let bc = bfs::bfs_with(&c, 0, ctx);
        assert_eq!(bs, bc, "{tag}: compressed {eng} BFS differs");

        let cc2 = cc::wcc_with(&c, ctx);
        assert_eq!(cs.label, cc2.label, "{tag}: compressed {eng} CC differs");
        assert_eq!(
            cs.count, cc2.count,
            "{tag}: compressed {eng} CC count differs"
        );

        assert_eq!(
            triangles::count_global_with(g, &s),
            triangles::count_global_with(&c, ctx),
            "{tag}: compressed {eng} triangle count differs"
        );

        // Per-vertex counts: the same corners and the same walk, read
        // from fewer bytes.
        let tc = KernelCtx::new(ctx.parallelism);
        assert_eq!(
            per_vertex,
            triangles::count_per_vertex(&c, &tc),
            "{tag}: compressed {eng} per-vertex triangle counts differ"
        );
        let (plain, packed) = (ts.snapshot(), tc.snapshot());
        assert_eq!(
            plain.cpu_ops, packed.cpu_ops,
            "{tag}: compressed {eng} per-vertex work differs"
        );
        assert!(
            packed.mem_bytes < plain.mem_bytes,
            "{tag}: compressed {eng} per-vertex pass books {} bytes, plain {}",
            packed.mem_bytes,
            plain.mem_bytes
        );

        let rc = pagerank::pagerank_with(&c, 0.85, 1e-10, 200, ctx);
        assert_eq!(rs.work, rc.work, "{tag}: compressed {eng} PR sweeps differ");
        for v in g.vertices() {
            let (a, b) = (rs.rank[v as usize], rc.rank[v as usize]);
            assert!(
                (a - b).abs() <= 1e-9,
                "{tag}: compressed {eng} PR rank differs at {v}: {a} vs {b}"
            );
        }
    }

    // Compressed weighted SSSP: the same result and work, read from
    // fewer bytes.
    let sc = KernelCtx::serial();
    let dc = sssp::sssp_with(&CompressedCsr::from_csr(&wg), 0, 0.5, &sc);
    assert_eq!(dc, dj, "{tag}: compressed SSSP differs");
    let (plain, packed) = (ss.snapshot(), sc.snapshot());
    assert_eq!(
        plain.cpu_ops, packed.cpu_ops,
        "{tag}: compressed SSSP work differs"
    );
    assert!(
        packed.mem_bytes < plain.mem_bytes,
        "{tag}: compressed SSSP books {} bytes, plain {}",
        packed.mem_bytes,
        plain.mem_bytes
    );
}

/// Recover the directed edge list of a CSR snapshot.
fn edge_list(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.edges().collect()
}

#[test]
fn serial_parallel_agree_on_rmat() {
    for seed in [1, 7] {
        let g = rmat_undirected(9, seed);
        assert_serial_parallel_agree(&g, &format!("rmat seed {seed}"));
    }
}

#[test]
fn serial_parallel_agree_on_path() {
    let g = CsrBuilder::new(512)
        .edges(gen::path(512).iter().copied())
        .symmetrize(true)
        .reverse(true)
        .build();
    assert_serial_parallel_agree(&g, "path-512");
}

#[test]
fn serial_parallel_agree_on_star() {
    let g = CsrBuilder::new(513)
        .edges(gen::star(513).iter().copied())
        .symmetrize(true)
        .reverse(true)
        .build();
    assert_serial_parallel_agree(&g, "star-513");
}

/// The two graphs of the GAP-style kernel pass (EXPERIMENTS E17):
/// skewed R-MAT and flat Erdős–Rényi at scale 12, 16 edges per vertex,
/// random weights, symmetrized, simple, with a reverse index.
fn gap_graphs() -> [(&'static str, CsrGraph); 2] {
    let (scale, n) = (12, 1usize << 12);
    [
        (
            "gap rmat",
            gen::rmat(scale, 16 * n, gen::RmatParams::GRAPH500, 42),
        ),
        ("gap uniform", gen::erdos_renyi(n, 16 * n, 42)),
    ]
    .map(|(tag, edges)| {
        let g = CsrBuilder::new(n)
            .weighted_edges(gen::with_random_weights(&edges, 0.05, 1.0, 7))
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .reverse(true)
            .build();
        (tag, g)
    })
}

#[test]
fn serial_parallel_agree_on_gap_graphs() {
    for (tag, g) in gap_graphs() {
        assert_serial_parallel_agree(&g, tag);

        // Plain and compressed adjacency from the max-degree source,
        // stricter than the helper: PageRank rank bits at 20 forced
        // sweeps, and SSSP at the automatic bucket width on the graph's
        // own weights.
        let c = CompressedCsr::from_csr(&g);
        let src = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let ctx = KernelCtx::parallel();
        assert_eq!(
            bfs::bfs_with(&g, src, &ctx).depth,
            bfs::bfs_with(&c, src, &ctx).depth,
            "{tag}: compressed BFS depths differ"
        );
        let bits = |r: pagerank::PageRankResult| -> Vec<u64> {
            r.rank.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(pagerank::pagerank_with(&g, 0.85, 0.0, 20, &ctx)),
            bits(pagerank::pagerank_with(&c, 0.85, 0.0, 20, &ctx)),
            "{tag}: compressed PageRank bits differ"
        );
        let (sp, sc) = (
            sssp::sssp_auto_with(&g, src, &ctx),
            sssp::sssp_auto_with(&c, src, &ctx),
        );
        assert_eq!(sp.dist, sc.dist, "{tag}: compressed SSSP distances differ");
        assert_eq!(
            sp.parent, sc.parent,
            "{tag}: compressed SSSP parents differ"
        );
    }
}

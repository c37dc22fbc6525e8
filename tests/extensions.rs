//! Integration coverage for the extension modules (DESIGN.md §7): the
//! generic query stream, Kronecker products, problem-size scaling, and
//! the calibration loop — each exercised through the public facade,
//! together.

use graph_analytics::core::calibrate::{calibrate, CostCoefficients, MeasuredRun};
use graph_analytics::core::flow::FlowEngine;
use graph_analytics::core::flow::{
    AnalyticsStats, DurabilityStats, FlowStats, IngestStats, OverloadStats, SnapshotStats,
};
use graph_analytics::core::model::{baseline2012, evaluate, lightweight, nora_steps_scaled};
use graph_analytics::core::nora::NoraStats;
use graph_analytics::graph::{gen, CsrBuilder, CsrGraph};
use graph_analytics::kernels::{cc, triangles, KernelCtx};
use graph_analytics::linalg::kron::{kron, kron_power};
use graph_analytics::linalg::semiring::OrAnd;
use graph_analytics::linalg::CsrMatrix;
use graph_analytics::stream::queries::{Query, QueryResponse};
use graph_analytics::stream::update::{into_batches, rmat_edge_stream};

#[test]
fn unified_queries_over_streamed_graph() {
    let mut e = FlowEngine::new(1 << 8);
    for batch in into_batches(rmat_edge_stream(8, 3_000, 0.0, 2), 500, 0) {
        e.process_stream(&batch, |_| None, None);
    }
    let snap = e.serve_handle().load().expect("published snapshot");
    // Degrees agree with the live graph.
    for v in 0..32u32 {
        match (Query::Degree { vertex: v }).run(&snap) {
            QueryResponse::Scalar(d) => assert_eq!(d, e.graph().degree(v) as f64),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn kron_power_degree_distribution_matches_rmat_marginals() {
    // The exact Kronecker power of the Graph500 initiator has total
    // edge count 3^k; the sampled R-MAT stream draws from the same
    // product distribution, so row-0 (the "celebrity") dominates both.
    let init = CsrBuilder::new(2).edges([(0, 0), (0, 1), (1, 0)]).build();
    let p5 = kron_power(OrAnd, &boolean(&init), 5);
    assert_eq!(p5.nnz(), 243); // 3^5
    let max_row = (0..p5.dim())
        .max_by_key(|&r| p5.row_indices(r).len())
        .unwrap();
    assert_eq!(max_row, 0);

    // kron(A, B) shape laws.
    let i3: CsrMatrix<bool> = CsrMatrix::identity(3, true);
    let k = kron(OrAnd, &p5, &i3);
    assert_eq!(k.dim(), 96);
    assert_eq!(k.nnz(), 243 * 3);
}

/// The boolean matrix of a graph's edges.
fn boolean(g: &CsrGraph) -> CsrMatrix<bool> {
    CsrMatrix::from_graph(g, |_, _, _| true, |x, _| x)
}

#[test]
fn kronecker_graphs_match_closed_forms() {
    // A Kronecker product's pattern is itself a graph whose answers
    // follow from its factors: stored entries multiply, degrees
    // multiply, a product of k simple symmetric factors has
    // 6^(k-1) * prod(t_f) triangles (tr((A⊗B)^3) = tr(A^3) tr(B^3), and
    // tr(A^3) = 6t) and 2^(k-1) * prod(t_f(i_f)) at vertex (i_1..i_k)
    // (diag((A⊗B)^3) = diag(A^3) ⊗ diag(B^3), and (A^3)_ii = 2t(i)),
    // and (Weichsel) a product of connected factors is
    // connected when one factor is non-bipartite, with exactly two
    // components when both are bipartite.
    let k4 = boolean(&CsrGraph::from_edges_undirected(4, &gen::complete(4)));
    let (k4_tri, k4_deg) = (4u64, 3usize);

    let p = kron_power(OrAnd, &k4, 5);
    let g = p.pattern();
    assert_eq!(g.num_vertices(), 1024);
    assert_eq!(g.num_edges(), 12usize.pow(5));
    assert!(g.num_edges() >= 100_000);
    assert!(g.vertices().all(|v| g.degree(v) == k4_deg.pow(5)));
    let closed = 6u64.pow(4) * k4_tri.pow(5);
    assert_eq!(closed, 1_327_104);
    // Every K4 vertex sits on 3 triangles.
    let at_vertex = 2u64.pow(4) * 3u64.pow(5);
    assert_eq!(at_vertex, 3888);
    for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
        assert_eq!(triangles::count_global_with(g, &ctx), closed);
        assert_eq!(
            triangles::count_per_vertex(g, &ctx),
            vec![at_vertex; g.num_vertices()]
        );
        assert_eq!(cc::wcc_with(g, &ctx).count, 1);
    }

    // Triangle plus a pendant vertex hung off vertex 2.
    let paw = CsrGraph::from_edges_undirected(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
    let paw_deg = [2, 2, 3, 1];
    let p = kron(OrAnd, &kron_power(OrAnd, &k4, 4), &boolean(&paw));
    let g = p.pattern();
    assert_eq!(g.num_edges(), 12usize.pow(4) * paw.num_edges());
    for v in g.vertices() {
        assert_eq!(
            g.degree(v),
            k4_deg.pow(4) * paw_deg[v as usize % 4],
            "v={v}"
        );
    }
    let closed = 6u64.pow(4) * k4_tri.pow(4);
    assert_eq!(closed, 331_776);
    // The paw's vertices 0, 1, 2 sit on its one triangle, 3 on none.
    let paw_tri = [1, 1, 1, 0];
    let at_vertex: Vec<u64> = g
        .vertices()
        .map(|v| 2u64.pow(4) * 3u64.pow(4) * paw_tri[v as usize % 4])
        .collect();
    assert_eq!(at_vertex.iter().sum::<u64>(), 3 * closed);
    for ctx in [KernelCtx::serial(), KernelCtx::parallel()] {
        assert_eq!(triangles::count_global_with(g, &ctx), closed);
        assert_eq!(triangles::count_per_vertex(g, &ctx), at_vertex);
        assert_eq!(cc::wcc_with(g, &ctx).count, 1);
    }

    // Two bipartite factors: the path on three vertices, squared.
    let p3 = boolean(&CsrGraph::from_edges_undirected(3, &gen::path(3)));
    let g = kron(OrAnd, &p3, &p3);
    assert_eq!(g.nnz(), 16);
    assert_eq!(cc::wcc_with(g.pattern(), &KernelCtx::serial()).count, 2);
}

#[test]
fn problem_size_scaling_changes_architecture_ranking_sensibly() {
    // Growing the problem grows the compute-heavy NORA step fastest, so
    // the compute-poor Lightweight config falls behind at scale.
    let small = nora_steps_scaled(1.0);
    let big = nora_steps_scaled(16.0);
    let rel = |steps: &[graph_analytics::core::model::StepDemand]| {
        evaluate(&lightweight(), steps).speedup_over(&evaluate(&baseline2012(), steps))
    };
    assert!(
        rel(&big) < rel(&small),
        "lightweight should fade at scale: {} vs {}",
        rel(&big),
        rel(&small)
    );
}

#[test]
fn calibration_is_deterministic_and_priceable() {
    let run = MeasuredRun {
        flow: FlowStats {
            ingest: IngestStats {
                records_ingested: 1_000,
                entities_created: 300,
                updates_applied: 5_000,
                updates_quarantined: 0,
                events_observed: 200,
                triggers_fired: 2,
            },
            analytics: AnalyticsStats {
                batch_runs: 3,
                seeds_selected: 6,
                subgraphs_extracted: 3,
                vertices_extracted: 400,
                edges_extracted: 9_000,
                props_written_back: 400,
                globals_produced: 6,
                alerts_raised: 1,
                kernel_cpu_ops: 60_000,
                kernel_mem_bytes: 480_000,
                kernel_edges_touched: 27_000,
            },
            snapshots: SnapshotStats {
                rebuilds: 3,
                rows_reused: 1_200,
                mem_bytes: 150_000,
            },
            durability: DurabilityStats {
                retries: 3,
                breaker_trips: 0,
            },
            overload: OverloadStats {
                updates_shed: 250,
                budget_partials: 1,
                analytics_skipped: 2,
            },
            tier: Default::default(),
        },
        nora: NoraStats {
            pair_candidates: 20_000,
            relationships: 40,
        },
        serve: Default::default(),
    };
    let a = calibrate(&run, &CostCoefficients::default());
    let b = calibrate(&run, &CostCoefficients::default());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cpu_ops, y.cpu_ops);
    }
    let e = evaluate(&baseline2012(), &a);
    assert!(e.total_seconds.is_finite() && e.total_seconds > 0.0);
}
